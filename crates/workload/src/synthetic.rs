//! Parameterized synthetic benchmarks (Figures 12–14, 17).

use crate::arrival;
use crate::request::{Request, RequestClass, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_metrics::SimTime;

/// `count` identical requests submitted all at once — the peak-throughput
/// probe of §4.3.1 ("send a batch of requests and provide sufficient
/// concurrency to saturate the GPU").
pub fn uniform_batch(count: usize, input_tokens: u32, output_tokens: u32) -> Trace {
    (0..count)
        .map(|i| Request {
            id: i as u64,
            arrival: SimTime::ZERO,
            input_tokens,
            output_tokens,
            class: RequestClass::Batch,
            cached_prefix: 0,
            prefix_group: None,
        })
        .collect()
}

/// One isolated request — the minimum-latency probe of §4.3.1 ("process
/// requests sequentially, a single request at a time").
pub fn single(input_tokens: u32, output_tokens: u32) -> Trace {
    uniform_batch(1, input_tokens, output_tokens)
}

/// `count` identical requests with Poisson arrivals at `rate` req/s — the
/// arrival-rate sweep of Figure 14.
pub fn poisson(count: usize, rate: f64, input_tokens: u32, output_tokens: u32, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    arrival::poisson(&mut rng, count, rate, SimTime::ZERO)
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| Request {
            id: i as u64,
            arrival,
            input_tokens,
            output_tokens,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_batch_is_simultaneous_and_identical() {
        let t = uniform_batch(10, 4096, 250);
        assert_eq!(t.len(), 10);
        assert!(t.requests().iter().all(|r| r.arrival == SimTime::ZERO && r.input_tokens == 4096));
        assert_eq!(t.total_tokens(), 10 * (4096 + 250));
    }

    #[test]
    fn single_has_one_request() {
        let t = single(8192, 250);
        assert_eq!(t.len(), 1);
        assert_eq!(t.requests()[0].class, RequestClass::Batch);
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = poisson(50, 2.0, 1024, 128, 9);
        let b = poisson(50, 2.0, 1024, 128, 9);
        assert_eq!(a, b);
        let c = poisson(50, 2.0, 1024, 128, 10);
        assert_ne!(a, c);
    }
}

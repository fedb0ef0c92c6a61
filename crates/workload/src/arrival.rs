//! Arrival processes.
//!
//! The paper's benchmarking varies traffic through the arrival process:
//! Poisson arrivals at a target rate (Figure 14's sweep), gamma-distributed
//! inter-arrivals with a *burstiness* shape parameter (vLLM's serving
//! benchmark, used for Figure 7), all-at-once batch submission (peak
//! throughput), and fixed-cadence grouped arrivals (Mooncake's ~9 requests
//! every ~3 s).

use rand::Rng;
use sp_metrics::{Dur, SimTime};

/// Samples a unit-mean exponential variate.
fn exp_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Inverse CDF; guard the log away from 0.
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln()
}

/// Samples a gamma variate with `shape` and unit scale
/// (Marsaglia–Tsang for shape ≥ 1, boost trick below 1).
fn gamma_unit<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boosting: Gamma(a) = Gamma(a+1) * U^(1/a).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma_unit(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Generates `count` Poisson arrival instants at `rate` requests/second
/// starting from `start`.
///
/// # Panics
///
/// Panics if `rate` is not positive.
pub fn poisson<R: Rng + ?Sized>(
    rng: &mut R,
    count: usize,
    rate: f64,
    start: SimTime,
) -> Vec<SimTime> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut t = start;
    (0..count)
        .map(|_| {
            t += Dur::from_secs(exp_unit(rng) / rate);
            t
        })
        .collect()
}

/// Generates `count` arrivals with gamma inter-arrival times at mean `rate`
/// requests/second; `burstiness` is the gamma shape (1 = Poisson; < 1 =
/// burstier, matching vLLM's `--burstiness` knob).
///
/// # Panics
///
/// Panics if `rate` or `burstiness` is not positive.
pub fn gamma<R: Rng + ?Sized>(
    rng: &mut R,
    count: usize,
    rate: f64,
    burstiness: f64,
    start: SimTime,
) -> Vec<SimTime> {
    assert!(rate > 0.0, "arrival rate must be positive");
    assert!(burstiness > 0.0, "burstiness must be positive");
    let mut t = start;
    (0..count)
        .map(|_| {
            // Gamma(shape=b, scale=1/(b·rate)) has mean 1/rate.
            let gap = gamma_unit(rng, burstiness) / (burstiness * rate);
            t += Dur::from_secs(gap);
            t
        })
        .collect()
}

/// Groups of `group_size` simultaneous arrivals every `period`, until
/// `count` arrivals are produced (the Mooncake cadence).
///
/// # Panics
///
/// Panics if `group_size` is zero or `period` is zero.
pub fn grouped(count: usize, group_size: usize, period: Dur, start: SimTime) -> Vec<SimTime> {
    assert!(group_size > 0, "group size must be positive");
    assert!(!period.is_zero(), "period must be positive");
    (0..count).map(|i| start + period * (i / group_size) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_rate_converges() {
        let mut rng = StdRng::seed_from_u64(7);
        let arrivals = poisson(&mut rng, 20_000, 5.0, SimTime::ZERO);
        let span = arrivals.last().unwrap().as_secs();
        let rate = arrivals.len() as f64 / span;
        assert!((4.7..5.3).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn gamma_shape_one_is_poisson_like() {
        let mut rng = StdRng::seed_from_u64(7);
        let arrivals = gamma(&mut rng, 20_000, 5.0, 1.0, SimTime::ZERO);
        let span = arrivals.last().unwrap().as_secs();
        let rate = arrivals.len() as f64 / span;
        assert!((4.7..5.3).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn low_burstiness_increases_gap_variance() {
        let mut rng = StdRng::seed_from_u64(3);
        let var = |arrivals: &[SimTime]| {
            let gaps: Vec<f64> =
                arrivals.windows(2).map(|w| w[1].as_secs() - w[0].as_secs()).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64
        };
        let bursty = gamma(&mut rng, 10_000, 5.0, 0.2, SimTime::ZERO);
        let smooth = gamma(&mut rng, 10_000, 5.0, 5.0, SimTime::ZERO);
        assert!(var(&bursty) > 3.0 * var(&smooth));
    }

    #[test]
    fn grouped_produces_cadence() {
        let a = grouped(7, 3, Dur::from_secs(3.0), SimTime::ZERO);
        let secs: Vec<f64> = a.iter().map(|t| t.as_secs()).collect();
        assert_eq!(secs, vec![0.0, 0.0, 0.0, 3.0, 3.0, 3.0, 6.0]);
    }

    proptest! {
        #[test]
        fn arrivals_are_nondecreasing(seed in any::<u64>(), rate in 0.1f64..100.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            for arrivals in [
                poisson(&mut rng, 100, rate, SimTime::ZERO),
                gamma(&mut rng, 100, rate, 0.5, SimTime::ZERO),
                grouped(100, 9, Dur::from_secs(3.0), SimTime::ZERO),
            ] {
                for w in arrivals.windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
            }
        }

        #[test]
        fn gamma_mean_tracks_rate(
            seed in any::<u64>(), rate in 1.0f64..20.0, shape in 0.3f64..3.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let arrivals = gamma(&mut rng, 5_000, rate, shape, SimTime::ZERO);
            let span = arrivals.last().unwrap().as_secs();
            let measured = arrivals.len() as f64 / span;
            prop_assert!((measured / rate - 1.0).abs() < 0.25,
                "rate {rate} measured {measured}");
        }
    }
}

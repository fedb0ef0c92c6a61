//! Per-request latency recording (TTFT, TPOT, completion time).

use crate::percentile::Quantiles;
use crate::slo::RequestClass;
use crate::timeseries::BinnedSeries;
use crate::units::{Dur, SimTime};

/// The lifecycle timestamps and outcome of one completed request.
///
/// Produced by the serving engine for every finished request; consumed by
/// [`LatencyRecorder`] and the figure-regeneration harnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Client-visible request id.
    pub request_id: u64,
    /// QoS class the request was served under — per-class SLO scoring
    /// ([`crate::slo::ClassSloReport`]) partitions records on it.
    pub class: RequestClass,
    /// Instant the request arrived at the server.
    pub arrival: SimTime,
    /// Instant prefill finished and the first output token was emitted.
    pub first_token: SimTime,
    /// Instant the last output token was emitted.
    pub finish: SimTime,
    /// Number of prompt tokens.
    pub input_tokens: u32,
    /// Number of generated tokens.
    pub output_tokens: u32,
}

impl RequestRecord {
    /// Time to first token: arrival → first emitted token.
    pub fn ttft(&self) -> Dur {
        self.first_token.since(self.arrival)
    }

    /// Time per output token after the first: `(finish - first_token) /
    /// (output_tokens - 1)`, or zero for single-token outputs.
    pub fn tpot(&self) -> Dur {
        if self.output_tokens <= 1 {
            Dur::ZERO
        } else {
            self.finish.since(self.first_token) / (self.output_tokens - 1) as f64
        }
    }

    /// End-to-end completion time: arrival → last token.
    pub fn completion_time(&self) -> Dur {
        self.finish.since(self.arrival)
    }

    /// Prompt + generated tokens.
    pub fn total_tokens(&self) -> u64 {
        u64::from(self.input_tokens) + u64::from(self.output_tokens)
    }
}

/// Aggregates [`RequestRecord`]s into the paper's three headline metrics.
///
/// Tracks exact quantiles for TTFT / TPOT / completion time and a
/// token-throughput time series for peak/mean throughput.
///
/// # Examples
///
/// ```
/// use sp_metrics::{Dur, LatencyRecorder, RequestRecord, SimTime};
///
/// let mut rec = LatencyRecorder::new(Dur::from_secs(1.0));
/// rec.observe(&RequestRecord {
///     request_id: 0,
///     class: sp_metrics::RequestClass::Interactive,
///     arrival: SimTime::from_secs(0.0),
///     first_token: SimTime::from_secs(0.2),
///     finish: SimTime::from_secs(1.2),
///     input_tokens: 1000,
///     output_tokens: 101,
/// });
/// assert_eq!(rec.completed(), 1);
/// assert!((rec.ttft().median().unwrap() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    ttft: Quantiles,
    tpot: Quantiles,
    completion: Quantiles,
    throughput: BinnedSeries,
    completed: u64,
    total_tokens: u64,
    last_finish: SimTime,
}

impl LatencyRecorder {
    /// Creates a recorder whose throughput series uses `throughput_bin` bins.
    pub fn new(throughput_bin: Dur) -> LatencyRecorder {
        LatencyRecorder {
            ttft: Quantiles::new(),
            tpot: Quantiles::new(),
            completion: Quantiles::new(),
            throughput: BinnedSeries::new(throughput_bin),
            completed: 0,
            total_tokens: 0,
            last_finish: SimTime::ZERO,
        }
    }

    /// Ingests one completed request.
    pub fn observe(&mut self, r: &RequestRecord) {
        self.ttft.record(r.ttft().as_secs());
        self.tpot.record(r.tpot().as_secs());
        self.completion.record(r.completion_time().as_secs());
        // Tokens are attributed to the completion instant; fine-grained
        // engines may call `observe_tokens` per iteration instead.
        self.throughput.record(r.finish, r.total_tokens() as f64);
        self.completed += 1;
        self.total_tokens += r.total_tokens();
        self.last_finish = self.last_finish.max(r.finish);
    }

    /// Attributes `tokens` processed at instant `t` to the throughput series
    /// without touching the latency quantiles. Engines that want
    /// iteration-resolution throughput call this and pass
    /// `count_tokens_in_observe = false` style accounting by only using
    /// [`LatencyRecorder::observe_latency_only`].
    pub fn observe_tokens(&mut self, t: SimTime, tokens: f64) {
        self.throughput.record(t, tokens);
        self.total_tokens += tokens as u64;
        self.last_finish = self.last_finish.max(t);
    }

    /// Attributes `count` iterations of `per_event` tokens each, all
    /// landing in the same throughput bin, with `t` the instant of the
    /// latest iteration in the segment. Bit-identical to `count` calls
    /// of [`LatencyRecorder::observe_tokens`] at instants sharing `t`'s
    /// bin (see [`BinnedSeries::record_repeated`] for the exactness
    /// argument); the caller owns the same-bin guarantee.
    pub fn observe_tokens_run(&mut self, t: SimTime, per_event: f64, count: u64) {
        self.throughput.record_repeated(t, per_event, count);
        self.total_tokens += (per_event as u64) * count;
        self.last_finish = self.last_finish.max(t);
    }

    /// Ingests a request's latencies without adding its tokens to the
    /// throughput series (pair with [`LatencyRecorder::observe_tokens`]).
    pub fn observe_latency_only(&mut self, r: &RequestRecord) {
        self.ttft.record(r.ttft().as_secs());
        self.tpot.record(r.tpot().as_secs());
        self.completion.record(r.completion_time().as_secs());
        self.completed += 1;
        self.last_finish = self.last_finish.max(r.finish);
    }

    /// Number of completed requests.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Total tokens (prompt + generated) attributed so far.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// TTFT quantiles in seconds.
    pub fn ttft(&mut self) -> &mut Quantiles {
        &mut self.ttft
    }

    /// TPOT quantiles in seconds.
    pub fn tpot(&mut self) -> &mut Quantiles {
        &mut self.tpot
    }

    /// Completion-time quantiles in seconds.
    pub fn completion(&mut self) -> &mut Quantiles {
        &mut self.completion
    }

    /// The throughput time series (tokens per bin).
    pub fn throughput(&self) -> &BinnedSeries {
        &self.throughput
    }

    /// Peak combined throughput in tokens/second.
    pub fn peak_throughput(&self) -> f64 {
        self.throughput.peak_rate()
    }

    /// Mean combined throughput in tokens/second over the run, computed as
    /// total tokens / makespan (not per-bin mean), matching how the paper
    /// reports batch throughput.
    pub fn mean_throughput(&self) -> f64 {
        let span = self.last_finish.as_secs();
        if span == 0.0 {
            0.0
        } else {
            self.total_tokens as f64 / span
        }
    }

    /// Instant of the latest observed completion.
    pub fn last_finish(&self) -> SimTime {
        self.last_finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(arrival: f64, first: f64, finish: f64, inp: u32, out: u32) -> RequestRecord {
        RequestRecord {
            request_id: 0,
            class: RequestClass::Interactive,
            arrival: SimTime::from_secs(arrival),
            first_token: SimTime::from_secs(first),
            finish: SimTime::from_secs(finish),
            input_tokens: inp,
            output_tokens: out,
        }
    }

    #[test]
    fn ttft_tpot_completion_derivations() {
        let r = rec(1.0, 1.5, 2.5, 100, 11);
        assert_eq!(r.ttft().as_secs(), 0.5);
        assert!((r.tpot().as_secs() - 0.1).abs() < 1e-12);
        assert_eq!(r.completion_time().as_secs(), 1.5);
        assert_eq!(r.total_tokens(), 111);
    }

    #[test]
    fn single_output_token_has_zero_tpot() {
        let r = rec(0.0, 1.0, 1.0, 10, 1);
        assert_eq!(r.tpot(), Dur::ZERO);
    }

    #[test]
    fn recorder_aggregates_multiple_requests() {
        let mut l = LatencyRecorder::new(Dur::from_secs(1.0));
        l.observe(&rec(0.0, 0.1, 1.0, 100, 10));
        l.observe(&rec(0.0, 0.3, 2.0, 200, 20));
        assert_eq!(l.completed(), 2);
        assert_eq!(l.total_tokens(), 330);
        assert!((l.ttft().median().unwrap() - 0.2).abs() < 1e-12);
        assert!(l.mean_throughput() > 0.0);
    }

    #[test]
    fn latency_only_does_not_double_count_tokens() {
        let mut l = LatencyRecorder::new(Dur::from_secs(1.0));
        let r = rec(0.0, 0.1, 1.0, 100, 10);
        l.observe_tokens(SimTime::from_secs(0.5), 110.0);
        l.observe_latency_only(&r);
        assert_eq!(l.total_tokens(), 110);
        assert_eq!(l.completed(), 1);
    }

    #[test]
    fn mean_throughput_uses_makespan() {
        let mut l = LatencyRecorder::new(Dur::from_secs(1.0));
        l.observe(&rec(0.0, 0.5, 2.0, 50, 50)); // 100 tokens by t=2
        assert!((l.mean_throughput() - 50.0).abs() < 1e-9);
    }
}

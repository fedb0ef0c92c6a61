//! Run reports.

use sp_metrics::{
    ClassSlo, ClassSloReport, Dur, FailedRequest, FleetTimeline, LatencyRecorder,
    ReplicaLoadSeries, RequestRecord, RoutingDecision, SimTime,
};
use sp_parallel::ParallelConfig;
use std::collections::HashMap;

/// One scheduler iteration, as recorded when timeline capture is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEvent {
    /// Instant the iteration finished.
    pub end: SimTime,
    /// Iteration duration.
    pub duration: Dur,
    /// Configuration it ran under.
    pub config: ParallelConfig,
    /// Client-visible tokens it produced/processed.
    pub tokens: u64,
    /// Sequences batched.
    pub num_seqs: usize,
    /// KV utilization at scheduling time.
    pub kv_utilization: f64,
}

/// Everything measured during one engine (or cluster) run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    records: Vec<RequestRecord>,
    recorder: LatencyRecorder,
    iterations: u64,
    config_usage: HashMap<ParallelConfig, u64>,
    rejected: Vec<u64>,
    failed: Vec<FailedRequest>,
    preemptions: u64,
    sheds: u64,
    deferrals: u64,
    peak_kv_utilization: f64,
    makespan: SimTime,
    max_iteration: Dur,
    timeline: Option<Vec<IterationEvent>>,
    routing: Vec<RoutingDecision>,
    replica_loads: ReplicaLoadSeries,
    fleet: FleetTimeline,
}

impl EngineReport {
    /// Creates an empty report (useful as a merge accumulator for
    /// multi-engine topologies).
    pub fn new(throughput_bin: Dur) -> EngineReport {
        EngineReport {
            records: Vec::new(),
            recorder: LatencyRecorder::new(throughput_bin),
            iterations: 0,
            config_usage: HashMap::new(),
            rejected: Vec::new(),
            failed: Vec::new(),
            preemptions: 0,
            sheds: 0,
            deferrals: 0,
            peak_kv_utilization: 0.0,
            makespan: SimTime::ZERO,
            max_iteration: Dur::ZERO,
            timeline: None,
            routing: Vec::new(),
            replica_loads: ReplicaLoadSeries::new(),
            fleet: FleetTimeline::new(),
        }
    }

    /// Attaches an online-routing decision trail and the replica load
    /// series sampled at each dispatch (set by the cluster simulation).
    pub fn set_routing(&mut self, decisions: Vec<RoutingDecision>, loads: ReplicaLoadSeries) {
        self.routing = decisions;
        self.replica_loads = loads;
    }

    /// Attaches the replica lifecycle timeline (set by the cluster
    /// simulation). Like [`EngineReport::set_routing`], this *replaces*
    /// the current timeline: the cluster tier that routed also owns the
    /// fleet's lifecycle, and nested tiers' trails are tier-local.
    pub fn set_fleet_timeline(&mut self, timeline: FleetTimeline) {
        self.fleet = timeline;
    }

    pub(crate) fn enable_timeline(&mut self) {
        self.timeline = Some(Vec::new());
    }

    pub(crate) fn note_event(&mut self, event: IterationEvent) {
        if let Some(t) = &mut self.timeline {
            t.push(event);
        }
    }

    pub(crate) fn note_iteration(
        &mut self,
        config: ParallelConfig,
        end: SimTime,
        tokens: u64,
        duration: Dur,
    ) {
        self.iterations += 1;
        *self.config_usage.entry(config).or_default() += 1;
        self.recorder.observe_tokens(end, tokens as f64);
        self.makespan = self.makespan.max(end);
        self.max_iteration = self.max_iteration.max(duration);
    }

    /// Closed-form accumulation of `count` fast-forwarded iterations
    /// ending at `end`, whose longest iteration was `max_duration`.
    /// Iteration ends are monotone within a run, so one max-fold of the
    /// final instant (and of the pre-folded duration max) is
    /// bit-identical to `count` per-iteration folds. Throughput is
    /// flushed separately per bin segment via
    /// [`EngineReport::observe_tokens_run`], and config usage via
    /// [`EngineReport::note_config_usage`].
    pub(crate) fn note_run(&mut self, count: u64, end: SimTime, max_duration: Dur) {
        self.iterations += count;
        self.makespan = self.makespan.max(end);
        self.max_iteration = self.max_iteration.max(max_duration);
    }

    pub(crate) fn note_config_usage(&mut self, config: ParallelConfig, count: u64) {
        *self.config_usage.entry(config).or_default() += count;
    }

    pub(crate) fn observe_tokens_run(&mut self, t: SimTime, per_event: f64, count: u64) {
        self.recorder.observe_tokens_run(t, per_event, count);
    }

    pub(crate) fn timeline_enabled(&self) -> bool {
        self.timeline.is_some()
    }

    pub(crate) fn note_completion(&mut self, record: RequestRecord) {
        self.recorder.observe_latency_only(&record);
        self.records.push(record);
    }

    pub(crate) fn note_rejection(&mut self, request_id: u64) {
        self.rejected.push(request_id);
    }

    pub(crate) fn note_failures(&mut self, failed: Vec<FailedRequest>) {
        self.failed.extend(failed);
    }

    /// Mutable record access, for the cluster tier to restore the *true*
    /// arrival instants of re-dispatched requests (the engine only ever
    /// saw the re-dispatch time) before latency aggregation.
    pub(crate) fn records_mut(&mut self) -> &mut [RequestRecord] {
        &mut self.records
    }

    pub(crate) fn note_preemption(&mut self, _request_id: u64) {
        self.preemptions += 1;
    }

    pub(crate) fn note_shed(&mut self, _request_id: u64) {
        self.sheds += 1;
    }

    pub(crate) fn note_deferrals(&mut self, n: u64) {
        self.deferrals += n;
    }

    pub(crate) fn note_kv_utilization(&mut self, utilization: f64) {
        self.peak_kv_utilization = self.peak_kv_utilization.max(utilization);
    }

    /// Completed requests in completion order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Latency and throughput aggregates.
    pub fn metrics(&self) -> &LatencyRecorder {
        &self.recorder
    }

    /// Mutable access to the aggregates (quantile queries sort lazily).
    pub fn metrics_mut(&mut self) -> &mut LatencyRecorder {
        &mut self.recorder
    }

    /// Iterations executed.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// How many iterations ran under each parallel configuration — the
    /// shift policy's switching behaviour is visible here.
    pub fn config_usage(&self) -> &HashMap<ParallelConfig, u64> {
        &self.config_usage
    }

    /// Requests rejected because they could never fit the KV cache.
    pub fn rejected(&self) -> &[u64] {
        &self.rejected
    }

    /// Requests abandoned after exhausting their fault-retry budget
    /// (fault injection only; empty otherwise).
    pub fn failed(&self) -> &[FailedRequest] {
        &self.failed
    }

    /// Recompute preemptions (PreemptRestart admission mode only).
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Batch-class sequences evicted mid-prefill to admit an at-risk
    /// interactive request (SLO-aware admission only). Shed requests
    /// requeue and complete later; they are not dropped.
    pub fn batch_sheds(&self) -> u64 {
        self.sheds
    }

    /// Batch-class prefill chunks skipped in favor of interactive work
    /// (SLO-aware scheduling only), summed over iterations.
    pub fn batch_deferrals(&self) -> u64 {
        self.deferrals
    }

    /// Scores the completed requests against per-class SLO targets.
    pub fn class_slo_report(&self, targets: &ClassSlo) -> ClassSloReport {
        ClassSloReport::evaluate(&self.records, targets)
    }

    /// The longest single iteration — the worst stall any co-batched
    /// decode token experienced (the tail-latency metric chunked-prefill
    /// caps are designed to bound).
    pub fn max_iteration_time(&self) -> Dur {
        self.max_iteration
    }

    /// Per-iteration events, if timeline capture was enabled
    /// ([`crate::EngineConfig::record_timeline`]).
    pub fn timeline(&self) -> Option<&[IterationEvent]> {
        self.timeline.as_deref()
    }

    /// Highest observed KV-cache block utilization (0..=1).
    pub fn peak_kv_utilization(&self) -> f64 {
        self.peak_kv_utilization
    }

    /// Instant the last iteration finished.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Online routing decisions, in dispatch order (empty for single-node
    /// runs). Replica indices are local to the routing tier that made the
    /// decision.
    pub fn routing_decisions(&self) -> &[RoutingDecision] {
        &self.routing
    }

    /// Per-replica load time series sampled at every dispatch instant.
    pub fn replica_loads(&self) -> &ReplicaLoadSeries {
        &self.replica_loads
    }

    /// Replica lifecycle timeline (spawn / ready / drain / retire
    /// events) with replica-seconds accounting. For a fixed fleet every
    /// replica spawns ready at time zero and never retires, so
    /// `replica_seconds(makespan)` is exactly `replicas × makespan`.
    pub fn fleet_timeline(&self) -> &FleetTimeline {
        &self.fleet
    }

    /// Combined throughput over the whole run, tokens/second.
    pub fn combined_throughput(&self) -> f64 {
        if self.makespan.as_secs() == 0.0 {
            0.0
        } else {
            self.recorder.total_tokens() as f64 / self.makespan.as_secs()
        }
    }

    /// Merges another report (for data-parallel clusters). Iteration counts
    /// and config usage add; the makespan takes the maximum.
    pub fn merge(&mut self, other: EngineReport) {
        for r in &other.records {
            self.recorder.observe_latency_only(r);
        }
        self.records.extend(other.records);
        // Re-attribute the other's throughput series bin-by-bin.
        for (t, v) in other.recorder.throughput().totals() {
            if v > 0.0 {
                self.recorder.observe_tokens(t, v);
            }
        }
        self.iterations += other.iterations;
        for (cfg, n) in other.config_usage {
            *self.config_usage.entry(cfg).or_default() += n;
        }
        self.rejected.extend(other.rejected);
        self.failed.extend(other.failed);
        self.preemptions += other.preemptions;
        self.sheds += other.sheds;
        self.deferrals += other.deferrals;
        self.peak_kv_utilization = self.peak_kv_utilization.max(other.peak_kv_utilization);
        self.max_iteration = self.max_iteration.max(other.max_iteration);
        self.makespan = self.makespan.max(other.makespan);
        self.routing.extend(other.routing);
        self.replica_loads.absorb(other.replica_loads);
        self.fleet.absorb(other.fleet);
        if let (Some(mine), Some(theirs)) = (&mut self.timeline, other.timeline) {
            mine.extend(theirs);
            mine.sort_by(|a, b| a.end.as_secs().partial_cmp(&b.end.as_secs()).expect("finite"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_parallel::ParallelConfig;

    fn event(end: f64, tokens: u64) -> IterationEvent {
        IterationEvent {
            end: SimTime::from_secs(end),
            duration: Dur::from_millis(10.0),
            config: ParallelConfig::tensor(8),
            tokens,
            num_seqs: 1,
            kv_utilization: 0.5,
        }
    }

    #[test]
    fn fresh_report_is_empty() {
        let r = EngineReport::new(Dur::from_secs(1.0));
        assert_eq!(r.iterations(), 0);
        assert_eq!(r.combined_throughput(), 0.0);
        assert!(r.timeline().is_none());
        assert_eq!(r.max_iteration_time(), Dur::ZERO);
    }

    #[test]
    fn note_iteration_accumulates() {
        let mut r = EngineReport::new(Dur::from_secs(1.0));
        r.note_iteration(
            ParallelConfig::tensor(8),
            SimTime::from_secs(1.0),
            100,
            Dur::from_millis(20.0),
        );
        r.note_iteration(
            ParallelConfig::sequence(8),
            SimTime::from_secs(2.0),
            50,
            Dur::from_millis(30.0),
        );
        assert_eq!(r.iterations(), 2);
        assert_eq!(r.config_usage().len(), 2);
        assert_eq!(r.max_iteration_time(), Dur::from_millis(30.0));
        assert!((r.combined_throughput() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_timelines_in_time_order() {
        let mut a = EngineReport::new(Dur::from_secs(1.0));
        a.enable_timeline();
        a.note_event(event(2.0, 10));
        let mut b = EngineReport::new(Dur::from_secs(1.0));
        b.enable_timeline();
        b.note_event(event(1.0, 20));
        a.merge(b);
        let t = a.timeline().unwrap();
        assert_eq!(t.len(), 2);
        assert!(t[0].end < t[1].end);
    }

    #[test]
    fn merge_takes_max_of_peaks() {
        let mut a = EngineReport::new(Dur::from_secs(1.0));
        a.note_kv_utilization(0.3);
        a.note_iteration(
            ParallelConfig::single(),
            SimTime::from_secs(1.0),
            5,
            Dur::from_millis(5.0),
        );
        let mut b = EngineReport::new(Dur::from_secs(1.0));
        b.note_kv_utilization(0.9);
        b.note_iteration(
            ParallelConfig::single(),
            SimTime::from_secs(3.0),
            5,
            Dur::from_millis(50.0),
        );
        a.merge(b);
        assert_eq!(a.peak_kv_utilization(), 0.9);
        assert_eq!(a.makespan(), SimTime::from_secs(3.0));
        assert_eq!(a.max_iteration_time(), Dur::from_millis(50.0));
        assert_eq!(a.iterations(), 2);
    }
}

//! What the simulated serving system did: the paper-claim metrics of one
//! report, and a fingerprint of the whole simulated output.

use sp_engine::EngineReport;
use sp_metrics::{ClassSlo, ReplicaEventKind, RequestFaultKind};
use sp_parallel::ParallelConfig;

/// The simulated metrics of one run. Every field is a pure function of
/// the trace and the simulator, so repeats of one seed agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub sent: usize,
    pub completed: usize,
    pub rejected: usize,
    pub failed: usize,
    /// Engine scheduling iterations across all replicas.
    pub iterations: u64,
    /// TTFT samples: one per completed request.
    pub ttft_samples: usize,
    pub ttft_p50_s: f64,
    pub ttft_p99_s: f64,
    pub tpot_p50_ms: f64,
    pub tpot_p99_ms: f64,
    pub combined_tok_per_s: f64,
    /// Share of *sent* requests that completed within
    /// `ClassSlo::default()` for their class.
    pub slo_attainment: f64,
    /// Billed replica-seconds up to the makespan.
    pub replica_s: f64,
    pub batch_deferrals: u64,
    pub batch_sheds: u64,
    pub preemptions: u64,
    pub kv_peak_util: f64,
    /// Share of iterations run under the base configuration.
    pub base_share: f64,
    pub spawns: usize,
    pub retires: usize,
    pub crashes: usize,
    pub redispatches: usize,
    pub wasted_prefill_tokens: u64,
    pub peak_provisioned: usize,
}

impl Outcome {
    /// Every sent request ended completed, rejected or failed.
    pub fn conserves_requests(&self) -> bool {
        self.completed + self.rejected + self.failed == self.sent
    }

    /// Completed requests over sent ones.
    pub fn served_share(&self) -> f64 {
        self.completed as f64 / self.sent as f64
    }
}

/// Scores `report` for a trace of `sent` requests.
pub fn summarize(report: &mut EngineReport, sent: usize, base: ParallelConfig) -> Outcome {
    let attained = report.class_slo_report(&ClassSlo::default()).overall().attained;
    let fleet = report.fleet_timeline();
    let events = |kind| fleet.events().iter().filter(|e| e.kind == kind).count();
    let redispatches = fleet
        .request_faults()
        .iter()
        .filter(|f| matches!(f.kind, RequestFaultKind::Redispatched { .. }))
        .count();
    let iterations = report.iterations();
    let base_iterations = report.config_usage().get(&base).copied().unwrap_or(0);
    let mut out = Outcome {
        sent,
        completed: report.records().len(),
        rejected: report.rejected().len(),
        failed: report.failed().len(),
        iterations,
        ttft_samples: 0,
        ttft_p50_s: 0.0,
        ttft_p99_s: 0.0,
        tpot_p50_ms: 0.0,
        tpot_p99_ms: 0.0,
        combined_tok_per_s: report.combined_throughput(),
        slo_attainment: attained as f64 / sent as f64,
        replica_s: fleet.replica_seconds(report.makespan()),
        batch_deferrals: report.batch_deferrals(),
        batch_sheds: report.batch_sheds(),
        preemptions: report.preemptions(),
        kv_peak_util: report.peak_kv_utilization(),
        base_share: base_iterations as f64 / iterations.max(1) as f64,
        spawns: events(ReplicaEventKind::Spawned),
        retires: events(ReplicaEventKind::Retired),
        crashes: fleet.crash_count(),
        redispatches,
        wasted_prefill_tokens: fleet.wasted_prefill_tokens(),
        peak_provisioned: fleet.peak_provisioned(),
    };
    let m = report.metrics_mut();
    out.ttft_samples = m.ttft().count();
    out.ttft_p50_s = m.ttft().median().unwrap_or(0.0);
    out.ttft_p99_s = m.ttft().p99().unwrap_or(0.0);
    out.tpot_p50_ms = m.tpot().median().unwrap_or(0.0) * 1e3;
    out.tpot_p99_ms = m.tpot().p99().unwrap_or(0.0) * 1e3;
    out
}

/// An order-independent hash of the simulated output: every request
/// record, rejected and failed id, the iteration count, the per-config
/// iteration counts and the replica lifecycle. Records are hashed sorted
/// by request id, and `config_usage` sorted by configuration, because
/// its `HashMap` iterates in a different order on every run.
pub fn fingerprint(report: &EngineReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(report.iterations());
    h.u64(report.makespan().as_secs().to_bits());
    let mut records: Vec<_> = report.records().iter().collect();
    records.sort_by_key(|r| r.request_id);
    for r in records {
        h.u64(r.request_id);
        h.u64(r.class as u64);
        h.u64(r.arrival.as_secs().to_bits());
        h.u64(r.first_token.as_secs().to_bits());
        h.u64(r.finish.as_secs().to_bits());
        h.u64(u64::from(r.input_tokens));
        h.u64(u64::from(r.output_tokens));
    }
    let mut rejected = report.rejected().to_vec();
    rejected.sort_unstable();
    h.u64(rejected.len() as u64);
    rejected.into_iter().for_each(|id| h.u64(id));
    let mut failed: Vec<_> = report.failed().iter().map(|f| (f.request_id, f.attempts)).collect();
    failed.sort_unstable();
    h.u64(failed.len() as u64);
    for (id, attempts) in failed {
        h.u64(id);
        h.u64(u64::from(attempts));
    }
    let mut usage: Vec<_> = report.config_usage().iter().collect();
    usage.sort();
    for (config, n) in usage {
        h.u64(config.sp() as u64);
        h.u64(config.tp() as u64);
        h.u64(*n);
    }
    for e in report.fleet_timeline().events() {
        h.u64(e.replica as u64);
        h.u64(e.at.as_secs().to_bits());
        h.u64(e.kind as u64);
    }
    h.0
}

/// 64-bit FNV-1a: stable across processes and toolchains, unlike the
/// standard library's randomly keyed hasher.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

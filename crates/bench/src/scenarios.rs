//! Scenarios shared by several bins and acceptance tests, defined once
//! so every table, gate and fingerprint runs the same setup.
//!
//! * The **agentic fleet**: KV-bound single-GPU Qwen-32B replicas on
//!   the 240 s two-burst trace, EDF-routed, autoscaled 2→4 on the load
//!   band, optionally under a seeded crash schedule with retries. The
//!   `autoscale`, `chaos` and `determinism` bins and `tests/autoscale.rs`
//!   and `tests/chaos.rs` all run it.
//! * The **chunked KV-bound fleet**: DP replicas whose prefills chunk
//!   across iterations under a blocked wait queue. The `simperf`
//!   `dp_chunked_kv_bound` ladder runs it at 64 replicas and the
//!   `determinism` bin at 16.

use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
use sp_engine::{
    AdmissionMode, AutoscaleConfig, Autoscaler, ClusterSim, Engine, EngineConfig, EngineReport,
    FastPaths, FaultPlan, LoadBandPolicy, QueuePolicy, RetryPolicy, RoutingKind,
};
use sp_metrics::{ClassSlo, Dur, Quantiles, RequestClass};
use sp_model::presets;
use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};
use sp_workload::bursty::BurstyConfig;
use sp_workload::sizes::LengthDist;
use sp_workload::{Request, Trace};

/// KV capacity of one agentic replica, in tokens.
const AGENTIC_KV_TOKENS: u64 = 60_000;
/// The agentic fleet's floor: the autoscaler never drains below it.
pub const AGENTIC_MIN_REPLICAS: usize = 2;
/// The agentic fleet's burst peak: the autoscaler's ceiling and the
/// size of the fixed fleet it is compared with.
pub const AGENTIC_PEAK_REPLICAS: usize = 4;
/// Length of the agentic trace, in seconds.
const AGENTIC_HORIZON_SECS: f64 = 240.0;
/// Seed of the agentic fleet's Poisson crash schedules.
const CRASH_SEED: u64 = 0xC4A5;

/// One agentic replica: Qwen-32B on one H200, 60k-token KV, class SLOs,
/// interactive-first admission, preempt-and-restart under KV pressure.
pub fn agentic_replica() -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        EngineConfig {
            kv_capacity_tokens: AGENTIC_KV_TOKENS,
            class_slo: Some(ClassSlo::default()),
            queue_policy: QueuePolicy::InteractiveFirst,
            admission: AdmissionMode::PreemptRestart,
            ..EngineConfig::default()
        },
    )
}

/// The agentic trace: a steady interactive stream with two agentic batch
/// bursts and long valleys between them, over 240 s, with requests that
/// could never fit one replica's KV cache dropped.
pub fn agentic_trace() -> Trace {
    let trace = BurstyConfig {
        duration: Dur::from_secs(AGENTIC_HORIZON_SECS),
        base_rate: 2.0,
        bursts: 2,
        burst_size: 60,
        ..BurstyConfig::default()
    }
    .generate();
    let fits: Vec<Request> = trace
        .requests()
        .iter()
        .copied()
        .filter(|r| r.total_tokens() <= AGENTIC_KV_TOKENS)
        .collect();
    Trace::with_ids(fits)
}

/// A fixed, EDF-routed fleet of `replicas` agentic replicas.
pub fn agentic_fixed_fleet(replicas: usize, slo: ClassSlo) -> ClusterSim<Engine> {
    ClusterSim::new(
        (0..replicas).map(|_| agentic_replica()).collect(),
        RoutingKind::EarliestDeadlineFeasible(slo).policy(),
    )
}

/// The autoscaled agentic fleet: EDF-routed, starting at the floor and
/// growing to the peak on the load band (scale out above 2,000 tokens,
/// drain below 800), with a 5 s cold start.
pub fn agentic_autoscaled_fleet(slo: ClassSlo) -> ClusterSim<Engine> {
    let scaler = Autoscaler::new(
        AutoscaleConfig {
            cold_start: Dur::from_secs(5.0),
            min_replicas: AGENTIC_MIN_REPLICAS,
            max_replicas: AGENTIC_PEAK_REPLICAS,
        },
        Box::new(LoadBandPolicy::new(2_000.0, 800.0).smoothing(1.0).cooldown(Dur::from_secs(1.0))),
        |_| agentic_replica(),
    );
    agentic_fixed_fleet(AGENTIC_MIN_REPLICAS, slo).with_autoscaler(scaler)
}

/// The seeded Poisson crash schedule at `mttf_secs` over the agentic
/// horizon and the fleet's peak.
pub fn agentic_crashes(mttf_secs: f64) -> FaultPlan {
    FaultPlan::crashes_poisson(
        CRASH_SEED,
        Dur::from_secs(mttf_secs),
        Dur::from_secs(AGENTIC_HORIZON_SECS),
        AGENTIC_PEAK_REPLICAS,
    )
}

/// Runs `trace` through the autoscaled agentic fleet under `plan`;
/// crashed requests get three retries at 0.25 s base backoff.
pub fn run_agentic_chaos(plan: FaultPlan, trace: &Trace, slo: ClassSlo) -> EngineReport {
    let retry = RetryPolicy { max_retries: 3, base_backoff: Dur::from_secs(0.25) };
    agentic_autoscaled_fleet(slo).with_faults(plan, retry).run(trace)
}

/// The 99th-percentile TTFT of the report's interactive records, in
/// seconds; NaN when there are none.
pub fn interactive_p99_ttft(report: &EngineReport) -> f64 {
    let mut q = Quantiles::new();
    for r in report.records().iter().filter(|r| r.class == RequestClass::Interactive) {
        q.record(r.ttft().as_secs());
    }
    q.quantile(0.99).unwrap_or(f64::NAN)
}

/// One replica of the chunked KV-bound fleet on the given rung: a
/// single-GPU DP replica with a 2,048-token budget (the trace's inputs
/// chunk across several iterations), a 24,576-token KV cache (admission
/// blocks) and class SLOs (the run probe's EDF deadline lapse is live).
pub fn chunked_kv_bound_engine(paths: FastPaths) -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    let config = EngineConfig {
        class_slo: Some(ClassSlo::default()),
        kv_capacity_tokens: 24_576,
        max_batched_tokens: 2048,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        config,
    );
    engine.set_fast_paths(paths);
    engine
}

/// The chunked KV-bound trace for `replicas` replicas: inputs run ~3x
/// the engines' token budget, so each admission prefills across several
/// steps, while long, low-variance outputs hold the decode plateau
/// between arrivals, and the bounded KV keeps a deep wait queue
/// blocked. `short` is the 2 s, 6-per-replica burst; otherwise 8 s and
/// 24 per replica, with longer outputs.
pub fn chunked_kv_bound_trace(replicas: usize, short: bool) -> Trace {
    let r = replicas as f64;
    let (duration, burst_depth, out_median) =
        if short { (2.0, 6, 400.0) } else { (8.0, 24, 700.0) };
    BurstyConfig {
        duration: Dur::from_secs(duration),
        base_rate: 0.2 * r,
        bursts: 1,
        burst_size: burst_depth * replicas,
        burst_window: Dur::from_secs(0.5),
        base_input: LengthDist::LogNormal { median: 5000.0, sigma: 0.3 },
        base_output: LengthDist::LogNormal { median: out_median, sigma: 0.2 },
        burst_input: LengthDist::LogNormal { median: 6000.0, sigma: 0.3 },
        burst_output: LengthDist::LogNormal { median: out_median, sigma: 0.2 },
        seed: 0x5A_FE_5A,
    }
    .generate()
}

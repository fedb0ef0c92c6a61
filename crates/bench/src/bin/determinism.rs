//! Determinism probe for the horizon-parallel cluster engine.
//!
//! Runs the chaos acceptance scenario (`tests/chaos.rs`) — the bursty
//! agentic trace through an autoscaled, EDF-routed fleet, once fault
//! free and once under the seeded Poisson crash schedule — at whatever
//! fan-out width `SP_THREADS` selects — plus the shape-stable-window
//! scenario (KV-bound chunked-prefill fleet, the `steadyshape` simperf
//! regime) — and writes each report's [`EngineReport::dump`] (every
//! observable surface, one `key: value` line each) under an
//! `== label ==` header to the file named by the first argument.
//!
//! ```text
//! SP_THREADS=1 cargo run --release -p sp-bench --bin determinism -- /tmp/t1.txt
//! SP_THREADS=8 cargo run --release -p sp-bench --bin determinism -- /tmp/t8.txt
//! cmp /tmp/t1.txt /tmp/t8.txt
//! ```
//!
//! The CI determinism job diffs the outputs byte-for-byte: any
//! thread-count-dependent divergence in the windowed engine — event
//! order, tie-breaks, fault timing, autoscaler churn — shows up as a
//! `cmp` failure.

use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
use sp_engine::{
    AdmissionMode, AutoscaleConfig, Autoscaler, ClusterSim, Engine, EngineConfig, EngineReport,
    FaultPlan, LoadBandPolicy, QueuePolicy, RetryPolicy, RoutingKind,
};
use sp_metrics::{ClassSlo, Dur};
use sp_model::presets;
use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};
use sp_workload::bursty::BurstyConfig;
use sp_workload::{Request, Trace};

const KV_TOKENS: u64 = 60_000;
const PEAK_REPLICAS: usize = 4;
const MIN_REPLICAS: usize = 2;
const HORIZON_SECS: f64 = 240.0;
/// Same seed as `tests/chaos.rs` and the `chaos` bench bin.
const CRASH_SEED: u64 = 0xC4A5;

fn engine() -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        EngineConfig {
            kv_capacity_tokens: KV_TOKENS,
            class_slo: Some(ClassSlo::default()),
            queue_policy: QueuePolicy::InteractiveFirst,
            admission: AdmissionMode::PreemptRestart,
            ..EngineConfig::default()
        },
    )
}

fn bursty_trace() -> Trace {
    let trace = BurstyConfig {
        duration: Dur::from_secs(HORIZON_SECS),
        base_rate: 2.0,
        bursts: 2,
        burst_size: 60,
        ..BurstyConfig::default()
    }
    .generate();
    let fits: Vec<Request> =
        trace.requests().iter().copied().filter(|r| r.total_tokens() <= KV_TOKENS).collect();
    Trace::with_ids(fits)
}

fn run_with(plan: FaultPlan, trace: &Trace, slo: ClassSlo) -> EngineReport {
    let scaler = Autoscaler::new(
        AutoscaleConfig {
            cold_start: Dur::from_secs(5.0),
            min_replicas: MIN_REPLICAS,
            max_replicas: PEAK_REPLICAS,
        },
        Box::new(LoadBandPolicy::new(2_000.0, 800.0).smoothing(1.0).cooldown(Dur::from_secs(1.0))),
        |_| engine(),
    );
    let retry = RetryPolicy { max_retries: 3, base_backoff: Dur::from_secs(0.25) };
    let mut sim = ClusterSim::new(
        (0..MIN_REPLICAS).map(|_| engine()).collect(),
        RoutingKind::EarliestDeadlineFeasible(slo).policy(),
    )
    .with_autoscaler(scaler)
    .with_faults(plan, retry);
    sim.run(trace)
}

/// The shape-stable-window regime (the `steadyshape` simperf pair at a
/// CI-friendly scale): KV-bound DP replicas with a token budget small
/// enough that prefills chunk across several per-iteration steps
/// between macro-stepped decode runs, which keep going over a
/// KV-blocked wait queue. Byte-comparing this report across fan-out
/// widths pins the fast-forward (admission probes and their deadline
/// lapses, closed-form decode runs) to the sequential order.
fn run_steadyshape() -> EngineReport {
    const SS_KV: u64 = 24_576;
    const SS_REPLICAS: usize = 16;
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    let engines: Vec<Engine> = (0..SS_REPLICAS)
        .map(|_| {
            Engine::new(
                ExecutionModel::new(node, presets::qwen_32b()),
                Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
                EngineConfig {
                    kv_capacity_tokens: SS_KV,
                    max_batched_tokens: 2048,
                    class_slo: Some(ClassSlo::default()),
                    ..EngineConfig::default()
                },
            )
        })
        .collect();
    let trace = BurstyConfig {
        duration: Dur::from_secs(2.0),
        base_rate: 0.2 * SS_REPLICAS as f64,
        bursts: 1,
        burst_size: 6 * SS_REPLICAS,
        burst_window: Dur::from_secs(0.5),
        base_input: sp_workload::sizes::LengthDist::LogNormal { median: 5000.0, sigma: 0.3 },
        base_output: sp_workload::sizes::LengthDist::LogNormal { median: 400.0, sigma: 0.2 },
        burst_input: sp_workload::sizes::LengthDist::LogNormal { median: 6000.0, sigma: 0.3 },
        burst_output: sp_workload::sizes::LengthDist::LogNormal { median: 400.0, sigma: 0.2 },
        seed: 0x5A_FE_5A,
    }
    .generate();
    let mut sim = ClusterSim::new(engines, RoutingKind::default().policy());
    sim.run(&trace)
}

fn main() {
    let path = std::env::args().nth(1).expect("usage: determinism <output-path>");
    let threads = sp_core::default_threads();
    let trace = bursty_trace();
    let slo = ClassSlo::default();

    let plan = FaultPlan::crashes_poisson(
        CRASH_SEED,
        Dur::from_secs(120.0),
        Dur::from_secs(HORIZON_SECS),
        PEAK_REPLICAS,
    );
    let reports = [
        ("no-fault", run_with(FaultPlan::empty(), &trace, slo)),
        ("poisson-crashes", run_with(plan, &trace, slo)),
        ("steadyshape", run_steadyshape()),
    ];
    let mut out = String::new();
    for (label, report) in &reports {
        out.push_str(&format!("== {label} ==\n"));
        out.push_str(&report.dump());
    }

    std::fs::write(&path, &out).expect("write determinism output");
    println!("determinism: ran at {threads} thread(s), {} bytes -> {path}", out.len());
}

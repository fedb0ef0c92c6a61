//! Determinism probe for the horizon-parallel cluster engine.
//!
//! Runs the chaos acceptance scenario (`tests/chaos.rs`) — the bursty
//! agentic trace through an autoscaled, EDF-routed fleet, once fault
//! free and once under the seeded Poisson crash schedule — at whatever
//! fan-out width `SP_THREADS` selects — plus the chunked KV-bound
//! fleet (the `dp_chunked_kv_bound` simperf ladder, labelled
//! `steadyshape` in the dump) — and writes each report's
//! [`EngineReport::dump`] (every observable surface, one `key: value`
//! line each) under an `== label ==` header to the file named by the
//! first argument.
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

use sp_bench::scenarios::{
    agentic_crashes, agentic_trace, chunked_kv_bound_engine, chunked_kv_bound_trace,
    run_agentic_chaos,
};
use sp_engine::{ClusterSim, EngineReport, FastPaths, FaultPlan, RoutingKind};
use sp_metrics::ClassSlo;

/// The chunked KV-bound fleet (the `dp_chunked_kv_bound` simperf
/// ladder) at 16 replicas on its short trace: prefills chunk across
/// several per-iteration steps between macro-stepped decode runs, which
/// keep going over a KV-blocked wait queue. Byte-comparing this report
/// across fan-out widths pins the fast-forward (admission probes and
/// their deadline lapses, closed-form decode runs) to the sequential
/// order.
fn run_chunked_kv_bound() -> EngineReport {
    const REPLICAS: usize = 16;
    let engines = (0..REPLICAS).map(|_| chunked_kv_bound_engine(FastPaths::MacroSteps)).collect();
    let mut sim = ClusterSim::new(engines, RoutingKind::default().policy());
    sim.run(&chunked_kv_bound_trace(REPLICAS, true))
}

fn main() {
    let path = std::env::args().nth(1).expect("usage: determinism <output-path>");
    let threads = sp_core::default_threads();
    let trace = agentic_trace();
    let slo = ClassSlo::default();

    let reports = [
        ("no-fault", run_agentic_chaos(FaultPlan::empty(), &trace, slo)),
        ("poisson-crashes", run_agentic_chaos(agentic_crashes(120.0), &trace, slo)),
        ("steadyshape", run_chunked_kv_bound()),
    ];
    let mut out = String::new();
    for (label, report) in &reports {
        out.push_str(&format!("== {label} ==\n"));
        out.push_str(&report.dump());
    }

    std::fs::write(&path, &out).expect("write determinism output");
    println!("determinism: ran at {threads} thread(s), {} bytes -> {path}", out.len());
}

//! Fault tolerance under replica crashes: goodput and interactive p99
//! TTFT vs MTTF on the bursty agentic trace.
//!
//! ```text
//! cargo run --release -p sp-bench --bin chaos
//! ```
//!
//! Each row injects a seeded Poisson crash schedule
//! ([`FaultPlan::crashes_poisson`]) into the autoscaled fleet from the
//! `autoscale` bench: a crash destroys the victim's KV cache, salvaged
//! requests re-enter the router with exponential backoff and pay full
//! re-prefill, and the autoscaler treats the lost capacity as an
//! immediate scale-out signal (crash deficit). The claim
//! `tests/chaos.rs` pins: at MTTF ≥ 10x the mean burst length (120 s on
//! the 240 s trace), retry + deficit-driven respawn recover at least 95%
//! of the no-fault interactive SLO attainment.

use sp_bench::harness::print_table;
use sp_bench::scenarios::{
    agentic_crashes, agentic_trace, interactive_p99_ttft, run_agentic_chaos,
};
use sp_engine::{EngineReport, FaultPlan};
use sp_metrics::ClassSlo;

fn row(name: &str, report: &EngineReport, slo: &ClassSlo, total: usize) -> Vec<String> {
    let tl = report.fleet_timeline();
    vec![
        name.to_string(),
        format!("{}", tl.crash_count()),
        format!("{}", report.failed().len()),
        format!("{:.1}%", 100.0 * report.records().len() as f64 / total as f64),
        format!("{:.1}%", 100.0 * report.class_slo_report(slo).interactive.attainment()),
        format!("{:.3}", interactive_p99_ttft(report)),
        if tl.recoveries() == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", tl.mean_recovery_secs())
        },
        format!("{}", tl.wasted_prefill_tokens()),
        format!("{:.0}", tl.replica_seconds(report.makespan())),
    ]
}

fn main() -> std::io::Result<()> {
    let trace = agentic_trace();
    let slo = ClassSlo::default();
    let mut rows = Vec::new();

    let baseline = run_agentic_chaos(FaultPlan::empty(), &trace, slo);
    rows.push(row("no faults", &baseline, &slo, trace.len()));

    for mttf in [120.0, 60.0, 24.0] {
        let report = run_agentic_chaos(agentic_crashes(mttf), &trace, slo);
        rows.push(row(&format!("MTTF {mttf:.0}s"), &report, &slo, trace.len()));
    }

    print_table(
        &mut std::io::stdout(),
        "Goodput and interactive latency vs MTTF — bursty agentic trace, Qwen-32B on 1x H200, \
         EDF routing, autoscaled 2..4 with crash-deficit respawn, retry 3x base 0.25s",
        &[
            "scenario",
            "crashes",
            "failed",
            "goodput",
            "int SLO att",
            "int p99 TTFT (s)",
            "mean recovery (s)",
            "wasted prefill",
            "replica-s",
        ],
        &rows,
    )?;
    println!(
        "\nCrashes destroy the victim's KV cache: salvaged requests re-enter the router with\n\
         exponential backoff and pay full re-prefill (the wasted-prefill column), while the\n\
         autoscaler counts the lost replica as a crash deficit and respawns immediately\n\
         (cold start still applies). Expected shape: at MTTF 120 s — 10x the mean burst\n\
         length — goodput stays at 100% and interactive attainment within ~5% of the\n\
         no-fault row; shrinking MTTF degrades latency first (re-prefill + backoff land in\n\
         the tail), goodput last."
    );
    Ok(())
}

//! Autoscaling cost/latency trade-off on the bursty agentic trace:
//! replica-seconds spent vs interactive p99 TTFT, fixed fleets of every
//! size between the valley floor and the burst peak against the
//! load-band autoscaler (scale-out on the smoothed load signal after a
//! cold-start delay, drain-then-retire in the valleys).
//!
//! ```text
//! cargo run --release -p sp-bench --bin autoscale
//! ```
//!
//! The autoscaled row should land near the peak-sized fleet on
//! interactive p99 TTFT and SLO attainment while billing replica-seconds
//! much closer to the floor-sized fleet — the same claim
//! `tests/autoscale.rs` pins with hard thresholds.

use sp_bench::harness::print_table;
use sp_bench::scenarios::{
    agentic_autoscaled_fleet, agentic_fixed_fleet, agentic_trace, interactive_p99_ttft,
    AGENTIC_MIN_REPLICAS, AGENTIC_PEAK_REPLICAS,
};
use sp_engine::EngineReport;
use sp_metrics::ClassSlo;

fn row(name: &str, report: &EngineReport, slo: &ClassSlo) -> Vec<String> {
    let tl = report.fleet_timeline();
    let rs = tl.replica_seconds(report.makespan());
    vec![
        name.to_string(),
        format!("{rs:.0}"),
        format!("{}", tl.peak_provisioned()),
        format!("{:.1}%", 100.0 * report.class_slo_report(slo).interactive.attainment()),
        format!("{:.3}", interactive_p99_ttft(report)),
        format!("{:.1}", report.makespan().as_secs()),
    ]
}

fn main() {
    let trace = agentic_trace();
    let slo = ClassSlo::default();
    let mut rows = Vec::new();

    for n in AGENTIC_MIN_REPLICAS..=AGENTIC_PEAK_REPLICAS {
        let report = agentic_fixed_fleet(n, slo).run(&trace);
        rows.push(row(&format!("fixed x{n}"), &report, &slo));
    }

    let report = agentic_autoscaled_fleet(slo).run(&trace);
    let events = report.fleet_timeline().events().len();
    rows.push(row(
        &format!("autoscaled {AGENTIC_MIN_REPLICAS}..{AGENTIC_PEAK_REPLICAS}"),
        &report,
        &slo,
    ));

    print_table(
        "Replica-seconds vs interactive latency — bursty agentic trace, Qwen-32B on 1x H200, \
         EDF routing",
        &["fleet", "replica-s", "peak", "int SLO att", "int p99 TTFT (s)", "makespan (s)"],
        &rows,
    );
    println!(
        "\nautoscaler lifecycle events: {events} (spawn/ready/drain/retire; cold start 5s, \
         load band 2000/800 tokens)\n\
         Expected shape: the autoscaled fleet tracks the peak fleet's p99 TTFT and attainment\n\
         while billing replica-seconds near the floor fleet — paying for the burst peak only\n\
         while a burst is actually in flight."
    );
}

//! Acceptance test for load-signal autoscaling: on the bursty agentic
//! trace, an autoscaled cluster (scale-out on the load signal with a
//! cold-start delay, drain-then-retire in the valleys) must spend at
//! least 30% fewer replica-seconds than a fixed fleet provisioned for
//! the burst peak — while holding interactive SLO attainment within 2
//! points and interactive p99 TTFT within 10% of the fixed fleet.

use shift_parallelism::prelude::*;
use sp_bench::scenarios::{
    agentic_autoscaled_fleet, agentic_fixed_fleet, agentic_trace, interactive_p99_ttft,
    AGENTIC_MIN_REPLICAS, AGENTIC_PEAK_REPLICAS,
};

#[test]
fn autoscaled_fleet_saves_replica_seconds_within_interactive_slo() {
    let trace = agentic_trace();
    let slo = ClassSlo::default();

    // Fixed baseline: peak-sized fleet, always on.
    let fixed_report = agentic_fixed_fleet(AGENTIC_PEAK_REPLICAS, slo).run(&trace);

    // Autoscaled: idles at the floor, grows toward the peak on the load
    // signal, drains back down in the valleys.
    let auto_report = agentic_autoscaled_fleet(slo).run(&trace);

    // Neither stack may lose requests.
    assert_eq!(fixed_report.records().len(), trace.len());
    assert_eq!(auto_report.records().len(), trace.len());

    let fixed_rs = fixed_report.fleet_timeline().replica_seconds(fixed_report.makespan());
    let auto_rs = auto_report.fleet_timeline().replica_seconds(auto_report.makespan());
    let fixed_att = fixed_report.class_slo_report(&slo).interactive.attainment();
    let auto_att = auto_report.class_slo_report(&slo).interactive.attainment();
    let fixed_p99 = interactive_p99_ttft(&fixed_report);
    let auto_p99 = interactive_p99_ttft(&auto_report);
    eprintln!(
        "replica-seconds: fixed {:.0} auto {:.0} (saving {:.1}%) | interactive attainment: fixed \
         {:.3} auto {:.3} | interactive p99 TTFT: fixed {:.3}s auto {:.3}s | auto peak {} spawned \
         {}",
        fixed_rs,
        auto_rs,
        100.0 * (1.0 - auto_rs / fixed_rs),
        fixed_att,
        auto_att,
        fixed_p99,
        auto_p99,
        auto_report.fleet_timeline().peak_provisioned(),
        auto_report.fleet_timeline().events().len(),
    );

    // A fixed fleet bills exactly replicas × makespan.
    assert!(
        (fixed_rs - AGENTIC_PEAK_REPLICAS as f64 * fixed_report.makespan().as_secs()).abs() < 1e-6,
        "fixed fleet replica-seconds accounting drifted"
    );

    // The headline: at least 30% cheaper in replica-seconds.
    assert!(
        auto_rs <= 0.70 * fixed_rs,
        "autoscaled fleet spent {auto_rs:.0} replica-seconds, needed <= 70% of fixed \
         {fixed_rs:.0}"
    );

    // ...while staying within 2 attainment points...
    assert!(
        auto_att >= fixed_att - 0.02,
        "interactive attainment {auto_att:.3} fell more than 2 points below fixed {fixed_att:.3}"
    );

    // ...and within 10% on interactive p99 TTFT.
    assert!(
        auto_p99 <= 1.10 * fixed_p99,
        "interactive p99 TTFT {auto_p99:.3}s exceeded fixed {fixed_p99:.3}s by more than 10%"
    );

    // The autoscaler actually worked for its savings: it grew beyond the
    // floor during bursts and retired replicas afterwards.
    let tl = auto_report.fleet_timeline();
    assert!(tl.peak_provisioned() > AGENTIC_MIN_REPLICAS, "autoscaler never scaled out");
    assert!(
        tl.events().iter().any(|e| e.kind == ReplicaEventKind::Retired),
        "autoscaler never drained a replica back down"
    );
}

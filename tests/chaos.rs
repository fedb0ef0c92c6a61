//! Acceptance test for fault tolerance: on the bursty agentic trace, a
//! seeded Poisson crash schedule with MTTF 120 s — 10x the mean burst
//! length on the 240 s trace — must cost the autoscaled fleet almost
//! nothing: goodput stays at 100% (every request completes; the retry
//! budget is never exhausted) and interactive SLO attainment holds at
//! least 95% of the no-fault run. Crashes are real: the victim's KV
//! cache dies, salvaged requests pay full re-prefill after exponential
//! backoff, and the autoscaler respawns the lost replica through the
//! crash-deficit signal (cold start still applies). The `chaos` bench
//! bin sweeps the same setup across MTTF values.

use shift_parallelism::prelude::*;
use sp_bench::scenarios::{
    agentic_crashes, agentic_trace, run_agentic_chaos, AGENTIC_MIN_REPLICAS,
};

#[test]
fn crashes_at_mttf_10x_burst_length_cost_under_5_points_of_attainment() {
    let trace = agentic_trace();
    let slo = ClassSlo::default();

    let baseline = run_agentic_chaos(FaultPlan::empty(), &trace, slo);
    assert_eq!(baseline.records().len(), trace.len(), "no-fault run must complete everything");
    let base_att = baseline.class_slo_report(&slo).interactive.attainment();

    let report = run_agentic_chaos(agentic_crashes(120.0), &trace, slo);
    let tl = report.fleet_timeline();
    let att = report.class_slo_report(&slo).interactive.attainment();
    eprintln!(
        "MTTF 120s: crashes {} | goodput {}/{} | failed {} | attainment {att:.3} vs no-fault \
         {base_att:.3} | wasted prefill {} | recoveries {} (mean {:.2}s)",
        tl.crash_count(),
        report.records().len(),
        trace.len(),
        report.failed().len(),
        tl.wasted_prefill_tokens(),
        tl.recoveries(),
        tl.mean_recovery_secs(),
    );

    // The schedule actually injected a crash, and the crash actually
    // displaced work (the KV cache died mid-request).
    assert!(tl.crash_count() >= 1, "seeded schedule produced no crashes");
    assert!(tl.wasted_prefill_tokens() > 0, "crash displaced no prefill work");
    assert!(tl.recoveries() >= 1, "no salvaged request was re-dispatched");

    // Goodput: every request still completes — the retry budget absorbs
    // every displacement.
    assert_eq!(
        report.records().len(),
        trace.len(),
        "goodput dropped: {} failed, {} rejected",
        report.failed().len(),
        report.rejected().len()
    );

    // The headline: >= 95% of the no-fault interactive SLO attainment.
    assert!(
        att >= 0.95 * base_att,
        "interactive attainment {att:.3} fell below 95% of no-fault {base_att:.3}"
    );
}

#[test]
fn repeated_crashes_degrade_latency_before_goodput() {
    let trace = agentic_trace();
    let slo = ClassSlo::default();

    let baseline = run_agentic_chaos(FaultPlan::empty(), &trace, slo);
    let base_att = baseline.class_slo_report(&slo).interactive.attainment();

    // MTTF 60 s: multiple crashes across the horizon. Latency is allowed
    // to sag, but the retry/respawn machinery must still complete every
    // request.
    let report = run_agentic_chaos(agentic_crashes(60.0), &trace, slo);
    let tl = report.fleet_timeline();
    let att = report.class_slo_report(&slo).interactive.attainment();
    eprintln!(
        "MTTF 60s: crashes {} | goodput {}/{} | attainment {att:.3} vs no-fault {base_att:.3}",
        tl.crash_count(),
        report.records().len(),
        trace.len(),
    );

    assert!(tl.crash_count() >= 2, "MTTF 60s over 240s should crash more than once");
    assert_eq!(report.records().len(), trace.len(), "goodput must survive repeated crashes");
    assert!(
        att >= 0.90 * base_att,
        "attainment {att:.3} collapsed below 90% of no-fault {base_att:.3} at MTTF 60s"
    );
    // Every crash spawned a replacement: the fleet never shrinks for
    // long. Crashed + retired events pair with spawns.
    let spawns = tl.events().iter().filter(|e| e.kind == ReplicaEventKind::Spawned).count();
    assert!(
        spawns > AGENTIC_MIN_REPLICAS,
        "autoscaler never respawned after a crash (spawns {spawns})"
    );
}

//! Regression and equivalence tests for KV-blocked admission.
//!
//! When the head candidate's KV reservation cannot succeed, the default
//! rung answers the candidate from the wait queue's indexes, and
//! `Engine::step_run` keeps decoding on its admission probe's verdict
//! until an arrival or the verdict's lapse instant. Both are
//! *optimizations*, never behavior changes: on the
//! `FastPaths::Reference` rung the engine runs the linear rescan on
//! every iteration, one iteration per step, and the default rung must
//! reproduce that report bit-for-bit. The deterministic tests here pin
//! the two unblocking paths that are easiest to get wrong — KV freed by
//! an SLO batch-shed and by a decode-append preemption must unblock
//! admission on the *same iteration* as a full rescan would, not an
//! iteration late — and the property test sweeps randomized KV-pressure
//! traces over both admission modes.

mod support;

use proptest::prelude::*;
use shift_parallelism::engine::FastPaths;
use shift_parallelism::prelude::*;
use support::*;

/// A KV-bound engine in the KV-blocked regime: tight cache, a small
/// token budget (so big prefills chunk across iterations and stay
/// sheddable for a while), SLO-aware EDF admission, and timeline
/// capture so the dump pins every iteration. `paths` selects the
/// ladder rung: `FastPaths::Reference` is the linear-rescan twin.
fn kv_bound_engine(kv: u64, admission: AdmissionMode, paths: FastPaths) -> Engine {
    let config = EngineConfig {
        max_batched_tokens: 2048,
        class_slo: Some(ClassSlo::default()),
        admission,
        ..config(kv)
    };
    dp_engine(config, paths)
}

/// Shed-freed KV must unblock admission on the same iteration as a
/// full rescan. Two big batch prefills fill the cache and a third is
/// KV-blocked; an interactive request then becomes the EDF candidate,
/// goes TTFT-at-risk mid-prefill, and the SLO shed path evicts a batch
/// prefill to admit it. A blocked verdict that missed the shed path (or
/// the freed-KV headroom afterwards) would hold admission closed past
/// the shed opportunity and diverge from the linear-rescan twin.
#[test]
fn shed_freed_kv_unblocks_gate_like_full_rescan() {
    const KV: u64 = 24_576;
    let trace = Trace::with_ids(vec![
        request(0, 0.0, 11_000, 500, RequestClass::Batch),
        request(1, 0.0, 11_000, 500, RequestClass::Batch),
        request(2, 0.01, 11_000, 500, RequestClass::Batch),
        request(3, 0.05, 3_000, 64, RequestClass::Interactive),
    ]);
    let report = kv_bound_engine(KV, AdmissionMode::ReserveFull, FastPaths::MacroSteps).run(&trace);
    assert!(
        report.batch_sheds() > 0,
        "trace must exercise the SLO shed path (got {} sheds)",
        report.batch_sheds()
    );
    assert_eq!(report.records().len(), 4, "every request must eventually complete");
    let reference =
        kv_bound_engine(KV, AdmissionMode::ReserveFull, FastPaths::Reference).run(&trace);
    assert_dumps_eq(
        &report.dump(),
        &reference.dump(),
        "default-rung admission vs the linear rescan across a batch shed",
    );
}

/// Preemption-freed KV (and the queue mutation it implies) must unblock
/// admission like a full rescan. Under `PreemptRestart` only prompts
/// are reserved up-front; decode appends reserve per-iteration, and
/// when the cache runs dry the youngest sequence is preempted back to
/// the *front* of the wait queue. The next admission pass must see both
/// the new head and the freed blocks.
#[test]
fn preemption_freed_kv_unblocks_gate_like_full_rescan() {
    const KV: u64 = 24_576;
    let mut reqs: Vec<Request> =
        (0..14).map(|i| request(i, 0.0, 1_800, 2_500, RequestClass::Batch)).collect();
    reqs.push(request(14, 0.02, 1_800, 2_500, RequestClass::Batch));
    reqs.push(request(15, 0.30, 1_200, 64, RequestClass::Interactive));
    let trace = Trace::with_ids(reqs);
    let report =
        kv_bound_engine(KV, AdmissionMode::PreemptRestart, FastPaths::MacroSteps).run(&trace);
    assert!(
        report.preemptions() > 0,
        "trace must exercise decode-append preemption (got {} preemptions)",
        report.preemptions()
    );
    let reference =
        kv_bound_engine(KV, AdmissionMode::PreemptRestart, FastPaths::Reference).run(&trace);
    assert_dumps_eq(
        &report.dump(),
        &reference.dump(),
        "default-rung admission vs the linear rescan across preemptions",
    );
}

/// Randomized KV-pressure traces: a mix of prompts comparable to the
/// cache size, both admission modes, interactive and batch classes.
/// Most iterations in this regime have a blocked wait queue, so
/// admission blocks and unblocks constantly — across retirements,
/// sheds, preemptions, EDF expiry, and arrivals — and every trace must
/// leave the report bit-identical to the linear-rescan twin.
fn arb_pressure_trace() -> impl Strategy<Value = Trace> {
    (prop::collection::vec((1u32..10_000, 1u32..400, 0.0f64..10.0, any::<bool>()), 1..32),)
        .prop_map(|(reqs,)| {
            reqs.into_iter()
                .map(|(input, output, at, interactive)| {
                    let class =
                        if interactive { RequestClass::Interactive } else { RequestClass::Batch };
                    request(0, at, input, output, class) // Trace::new renumbers
                })
                .collect()
        })
        .prop_map(Trace::new)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn gated_admission_matches_linear_rescan(
        trace in arb_pressure_trace(),
        kv in prop_oneof![Just(16_384u64), Just(24_576)],
        preempt in any::<bool>(),
    ) {
        let admission =
            if preempt { AdmissionMode::PreemptRestart } else { AdmissionMode::ReserveFull };
        let run = |paths| kv_bound_engine(kv, admission, paths).run(&trace).dump();
        assert_dumps_eq(
            &run(FastPaths::MacroSteps),
            &run(FastPaths::Reference),
            "default-rung admission vs the linear rescan",
        );
    }
}

proptest! {
    // Tier-2 long fuzz: run with `cargo test --release -- --ignored`
    // (the CI tier-2 job); reproduce a failure by exporting the
    // SP_PROPTEST_SEED recorded in target/proptest-failures/<test>.txt.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    #[ignore = "tier-2 long fuzz; run with --ignored"]
    fn gated_admission_matches_linear_rescan_long(
        trace in arb_pressure_trace(),
        kv in prop_oneof![Just(16_384u64), Just(24_576), Just(40_000)],
        preempt in any::<bool>(),
    ) {
        let admission =
            if preempt { AdmissionMode::PreemptRestart } else { AdmissionMode::ReserveFull };
        let run = |paths| kv_bound_engine(kv, admission, paths).run(&trace).dump();
        assert_dumps_eq(
            &run(FastPaths::MacroSteps),
            &run(FastPaths::Reference),
            "default-rung admission vs the linear rescan",
        );
    }
}

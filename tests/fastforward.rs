//! Byte-identity properties and edge cases for the decode fast-forward
//! path (`Engine::step_run` macro-stepping steady-state decode runs).
//!
//! The fast path is an *optimization*, never a behavior change: on the
//! `FastPaths::Compiled` rung every engine walks the per-iteration
//! scheduler (build batch, price, advance one iteration), and the
//! fast-forwarded run must reproduce that loop's report bit-for-bit —
//! not just records and rejects, but throughput bins, makespan,
//! max-iteration time, config usage, KV peaks, and the per-iteration
//! timeline when capture is on. The cluster properties compare a deep
//! fingerprint of windowed `ClusterSim` runs with fast-forward live, at
//! widths {1, 2, 8}, against the one-event `ReferenceClusterSim` spec
//! over per-iteration engines, under no faults, seeded fault plans, and
//! autoscaler churn, and under KV pressure against the full reference
//! spec on every rung of the optimization ladder; the edge-case tests
//! pin the run-length boundaries (length-1 runs, caps landing mid-run)
//! individually.

use proptest::prelude::*;
use shift_parallelism::engine::FastPaths;
use shift_parallelism::prelude::*;
use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
use sp_metrics::ReplicaLoadSample;
use sp_parallel::BatchStats;
use std::sync::Arc;

/// An engine on the given rung of the optimization ladder (the decode
/// fast-forward is live only on `MacroSteps`), with optional SLO
/// admission and timeline capture (so the fingerprint pins
/// per-iteration events bit-exactly).
fn engine_ff(kv: u64, slo: Option<ClassSlo>, paths: FastPaths) -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    let mut e = Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        EngineConfig {
            kv_capacity_tokens: kv,
            class_slo: slo,
            record_timeline: true,
            ..EngineConfig::default()
        },
    );
    e.set_fast_paths(paths);
    e
}

fn engines_ff(n: usize, kv: u64, paths: FastPaths) -> Vec<Engine> {
    (0..n).map(|_| engine_ff(kv, None, paths)).collect()
}

/// A `ShiftPolicy` the test keeps a handle on, so its counters can be
/// read after the run. Forwards `choose_repeated`, so the policy's own
/// O(1) override is what macro-steps exercise.
#[derive(Debug)]
struct SharedShift(Arc<ShiftPolicy>);

impl ParallelismPolicy for SharedShift {
    fn choose(&self, stats: &BatchStats) -> ParallelConfig {
        self.0.choose(stats)
    }
    fn choose_repeated(&self, stats: &BatchStats, n: u64) -> ParallelConfig {
        self.0.choose_repeated(stats, n)
    }
    fn configurations(&self) -> Vec<ParallelConfig> {
        self.0.configurations()
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// `n` Qwen-32B engines on an 8-GPU node under Shift Parallelism, with
/// timeline capture, on the given ladder rung, and handles on their
/// policies.
fn shift_engines_ff(
    n: usize,
    kv: u64,
    slo: Option<ClassSlo>,
    paths: FastPaths,
) -> (Vec<Engine>, Vec<Arc<ShiftPolicy>>) {
    (0..n)
        .map(|_| {
            let policy = Arc::new(ShiftPolicy::with_default_threshold(ParallelConfig::sequence(8)));
            let mut engine = Engine::new(
                ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b()),
                Box::new(SharedShift(Arc::clone(&policy))),
                EngineConfig {
                    kv_capacity_tokens: kv,
                    class_slo: slo,
                    record_timeline: true,
                    ..EngineConfig::default()
                },
            );
            engine.set_fast_paths(paths);
            (engine, policy)
        })
        .unzip()
}

/// Each policy's `(base, shift, switches)` counters.
fn shift_counts(policies: &[Arc<ShiftPolicy>]) -> Vec<(u64, u64, u64)> {
    policies.iter().map(|p| (p.base_iterations(), p.shift_iterations(), p.switches())).collect()
}

/// The KV-pressure regime the shape-stable windows and the admission
/// gate target: a tight cache, a small chunk budget (so prompts prefill
/// across many iterations, with decode runs between them), and
/// SLO-aware EDF admission (so the gate arms with an expiry and the
/// shed path fires).
fn pressure_engine(kv: u64, paths: FastPaths) -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    let mut e = Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        EngineConfig {
            kv_capacity_tokens: kv,
            max_batched_tokens: 2048,
            class_slo: Some(ClassSlo::default()),
            record_timeline: true,
            ..EngineConfig::default()
        },
    );
    e.set_fast_paths(paths);
    e
}

type Fingerprint = (String, String, Vec<(u64, u64)>, u64, Vec<ReplicaLoadSample>);

/// Everything observable about a report, in owned, bit-exact form. This
/// deliberately goes beyond the routing-equivalence fingerprint in
/// `cluster_properties.rs`: the fast-forward path recomputes iteration
/// counters, throughput bins, duration folds, and config usage in
/// closed form, so exactly those aggregates are what the comparison
/// must pin, and the dense load series, which the window loop records
/// from changes only. f64s are compared via `to_bits` or their Debug
/// rendering (shortest-roundtrip, hence bit-exact).
fn deep_fingerprint(r: &EngineReport) -> Fingerprint {
    let m = r.metrics();
    let bins: Vec<(u64, u64)> =
        m.throughput().totals().map(|(t, w)| (t.as_secs().to_bits(), w.to_bits())).collect();
    let mut usage: Vec<(String, u64)> =
        r.config_usage().iter().map(|(c, n)| (format!("{c:?}"), *n)).collect();
    usage.sort();
    let head = format!(
        "records={:?}|decisions={:?}|rejected={:?}|failed={:?}|fleet={:?}|faults={:?}|timeline={:?}",
        r.records(),
        r.routing_decisions(),
        r.rejected(),
        r.failed(),
        r.fleet_timeline().events(),
        r.fleet_timeline().request_faults(),
        r.timeline(),
    );
    let aggregates = format!(
        "iters={}|usage={usage:?}|makespan={}|max_iter={}|peak_kv={}|completed={}|tokens={}|last={}|preempt={}|sheds={}|defer={}",
        r.iterations(),
        r.makespan().as_secs().to_bits(),
        r.max_iteration_time().as_secs().to_bits(),
        r.peak_kv_utilization().to_bits(),
        m.completed(),
        m.total_tokens(),
        m.last_finish().as_secs().to_bits(),
        r.preemptions(),
        r.batch_sheds(),
        r.batch_deferrals(),
    );
    (head, aggregates, bins, r.iterations(), r.replica_loads().samples().collect())
}

fn request(id: u64, at: f64, input: u32, output: u32) -> Request {
    Request {
        id,
        arrival: SimTime::from_secs(at),
        input_tokens: input,
        output_tokens: output,
        class: RequestClass::Batch,
        cached_prefix: 0,
        prefix_group: None,
    }
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (prop::collection::vec((1u32..12_000, 1u32..300, 0.0f64..40.0, any::<bool>()), 1..24),)
        .prop_map(|(reqs,)| {
            reqs.into_iter()
                .map(|(input, output, at, interactive)| Request {
                    id: 0, // Trace::new renumbers in arrival order
                    arrival: SimTime::from_secs(at),
                    input_tokens: input,
                    output_tokens: output,
                    class: if interactive {
                        RequestClass::Interactive
                    } else {
                        RequestClass::Batch
                    },
                    cached_prefix: 0,
                    prefix_group: None,
                })
                .collect()
        })
        .prop_map(Trace::new)
}

fn arb_fault_plan(max_replicas: usize) -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec((0.0f64..30.0, 0usize..max_replicas, 0u8..8), 0..6).prop_map(|faults| {
        FaultPlan::new(
            faults
                .into_iter()
                .map(|(at, replica, kind)| FaultEvent {
                    at: SimTime::from_secs(at),
                    fault: match kind {
                        0..=3 => Fault::Crash { replica },
                        4 | 5 => {
                            Fault::Slowdown { replica, factor: 3.0, duration: Dur::from_secs(2.0) }
                        }
                        _ => Fault::RouteTimeout,
                    },
                })
                .collect(),
        )
    })
}

/// Asserts that windowed `ClusterSim` runs with fast-forward live
/// reproduce `spec` — the reference loop's fingerprint over
/// per-iteration engines — at horizon widths {1, 2, 8}.
fn assert_windows_match(spec: &Fingerprint, trace: &Trace, build: impl Fn() -> ClusterSim<Engine>) {
    for threads in [1usize, 2, 8] {
        let windowed = deep_fingerprint(&build().with_threads(threads).run(trace));
        assert_eq!(
            &windowed, spec,
            "fast-forward windows diverged from the reference at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The core equivalence: a lone engine with fast-forward live must
    /// produce a bit-identical report to the same engine walking every
    /// iteration, across randomized traces and SLO admission —
    /// including the captured per-iteration timeline, so a run that
    /// mis-attributed even one iteration's end instant, duration,
    /// config, or KV reading fails here.
    #[test]
    fn fastforward_engine_matches_per_iteration(
        trace in arb_trace(),
        use_slo in any::<bool>(),
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
    ) {
        let slo = use_slo.then(ClassSlo::default);
        let fast = deep_fingerprint(&engine_ff(kv, slo, FastPaths::MacroSteps).run(&trace));
        let slow = deep_fingerprint(&engine_ff(kv, slo, FastPaths::Compiled).run(&trace));
        prop_assert_eq!(&fast, &slow, "fast-forward diverged from the per-iteration engine");
    }

    /// The same equivalence on Shift engines: a macro-step asks the
    /// policy once and records the rest of the run as repeated choices,
    /// so besides the report the policy's `(base, shift, switches)`
    /// counters must equal the per-iteration engine's, which asks once
    /// per iteration.
    #[test]
    fn fastforward_shift_engine_matches_per_iteration(
        trace in arb_trace(),
        use_slo in any::<bool>(),
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
    ) {
        let slo = use_slo.then(ClassSlo::default);
        let run = |paths: FastPaths| {
            let (mut engines, policies) = shift_engines_ff(1, kv, slo, paths);
            (deep_fingerprint(&engines[0].run(&trace)), shift_counts(&policies))
        };
        prop_assert_eq!(
            run(FastPaths::MacroSteps),
            run(FastPaths::Compiled),
            "fast-forward diverged on a Shift engine"
        );
    }

    /// Cluster-level equivalence, no faults: fast-forward windows at
    /// widths {1, 2, 8} must match the per-iteration reference loop
    /// bit-for-bit. Runs here are cut by dispatch horizons, so the
    /// cap-clamp path is exercised on every arrival.
    #[test]
    fn fastforward_cluster_matches_per_iteration(
        trace in arb_trace(),
        n in 1usize..4,
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
    ) {
        let policy = || RoutingKind::JoinShortestOutstanding.policy();
        let spec = deep_fingerprint(
            &ReferenceClusterSim::new(engines_ff(n, kv, FastPaths::Compiled), policy()).run(&trace),
        );
        assert_windows_match(&spec, &trace, || {
            ClusterSim::new(engines_ff(n, kv, FastPaths::MacroSteps), policy())
        });
    }

    /// Cluster-level equivalence on Shift engines: reports and every
    /// replica's shift-policy counters match the per-iteration
    /// reference loop at widths {1, 2, 8}.
    #[test]
    fn fastforward_shift_cluster_matches_per_iteration(
        trace in arb_trace(),
        n in 1usize..4,
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
    ) {
        let policy = || RoutingKind::JoinShortestOutstanding.policy();
        let (nodes, spec_policies) = shift_engines_ff(n, kv, None, FastPaths::Compiled);
        let spec = deep_fingerprint(&ReferenceClusterSim::new(nodes, policy()).run(&trace));
        let spec_counts = shift_counts(&spec_policies);
        for threads in [1usize, 2, 8] {
            let (nodes, policies) = shift_engines_ff(n, kv, None, FastPaths::MacroSteps);
            let windowed = ClusterSim::new(nodes, policy()).with_threads(threads).run(&trace);
            prop_assert_eq!(&deep_fingerprint(&windowed), &spec, "divergence at {} threads", threads);
            prop_assert_eq!(shift_counts(&policies), spec_counts.clone());
        }
    }

    /// Cluster-level equivalence under seeded fault plans: crashes,
    /// slowdown windows, and route timeouts cut horizon windows at
    /// timer instants, so decode runs clamp at fault timers and re-enter
    /// after salvage/redelivery — all of it bit-identical to the
    /// per-iteration reference loop at every width.
    #[test]
    fn fastforward_cluster_matches_per_iteration_under_faults(
        trace in arb_trace(),
        n in 1usize..4,
        plan in arb_fault_plan(4),
        budget in 0u32..3,
    ) {
        let retry = RetryPolicy { max_retries: budget, base_backoff: Dur::from_secs(0.25) };
        let policy = || RoutingKind::JoinShortestOutstanding.policy();
        let spec = deep_fingerprint(
            &ReferenceClusterSim::new(engines_ff(n, 60_000, FastPaths::Compiled), policy())
                .with_faults(plan.clone(), retry)
                .run(&trace),
        );
        assert_windows_match(&spec, &trace, || {
            ClusterSim::new(engines_ff(n, 60_000, FastPaths::MacroSteps), policy())
                .with_faults(plan.clone(), retry)
        });
    }

    /// Cluster-level equivalence under KV pressure, on every rung of
    /// the optimization ladder: prompts comparable to the cache with a
    /// 2048-token chunk budget, so prefills chunk across iterations
    /// between decode runs, arrivals land mid-window, the KV-blocked
    /// admission gate arms (with EDF expiries and shed-path
    /// re-entries), and retirements re-open admission mid-horizon. The
    /// spec is the reference loop over engines on the `Reference` rung;
    /// windowed runs on each rung must reproduce it bit-for-bit at
    /// every horizon width, with and without a fault plan cutting the
    /// windows at timer instants.
    #[test]
    fn fastforward_cluster_matches_per_iteration_under_kv_pressure(
        trace in arb_trace(),
        n in 1usize..3,
        kv in prop_oneof![Just(16_384u64), Just(24_576)],
        plan in prop_oneof![Just(FaultPlan::empty()), arb_fault_plan(2)],
    ) {
        let retry = RetryPolicy { max_retries: 2, base_backoff: Dur::from_secs(0.25) };
        let policy = || RoutingKind::JoinShortestOutstanding.policy();
        let engines =
            |paths: FastPaths| (0..n).map(|_| pressure_engine(kv, paths)).collect::<Vec<_>>();
        let spec = deep_fingerprint(
            &ReferenceClusterSim::new(engines(FastPaths::Reference), policy())
                .with_faults(plan.clone(), retry)
                .run(&trace),
        );
        for paths in [
            FastPaths::Reference,
            FastPaths::Indexed,
            FastPaths::Compiled,
            FastPaths::MacroSteps,
        ] {
            assert_windows_match(&spec, &trace, || {
                ClusterSim::new(engines(paths), policy()).with_faults(plan.clone(), retry)
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Cluster-level equivalence under autoscaler churn: spawns, warmup
    /// promotions, drains, and retires are coordination events between
    /// windows, and a drained-dry replica must retire at the same
    /// instant whether its final decode plateau was fast-forwarded or
    /// stepped one iteration at a time.
    #[test]
    fn fastforward_cluster_matches_per_iteration_with_autoscaling(
        reqs in prop::collection::vec((1u32..12_000, 1u32..200, 0.0f64..8.0), 1..24),
        n in 1usize..4,
        hi in 150f64..1_500.0,
        lo in 20f64..120.0,
    ) {
        let trace = Trace::new(
            reqs.into_iter()
                .map(|(input, output, at)| request(0, at, input, output))
                .collect(),
        );
        let kv = 60_000u64;
        let policy = || RoutingKind::JoinShortestOutstanding.policy();
        let scaler = |paths: FastPaths| {
            Autoscaler::new(
                AutoscaleConfig {
                    cold_start: Dur::from_secs(2.5),
                    min_replicas: 1,
                    max_replicas: 4,
                },
                Box::new(LoadBandPolicy::new(hi, lo).smoothing(0.5).cooldown(Dur::from_secs(2.0))),
                move |_| engine_ff(kv, None, paths),
            )
        };
        let spec = deep_fingerprint(
            &ReferenceClusterSim::new(engines_ff(n, kv, FastPaths::Compiled), policy())
                .with_autoscaler(scaler(FastPaths::Compiled))
                .run(&trace),
        );
        assert_windows_match(&spec, &trace, || {
            ClusterSim::new(engines_ff(n, kv, FastPaths::MacroSteps), policy())
                .with_autoscaler(scaler(FastPaths::MacroSteps))
        });
    }
}

/// Run length 1: simultaneous arrivals whose outputs differ by exactly
/// one token make `min(decode_remaining)` hit 1 on every run after the
/// first finish — each macro-step advances a single iteration, retires
/// one sequence, and rebuilds. The degenerate run must still be
/// bit-identical to per-iteration stepping (and actually complete
/// everything).
#[test]
fn run_length_one_is_byte_identical() {
    let trace = Trace::with_ids((0..6).map(|i| request(i, 0.0, 64, 3 + i as u32)).collect());
    let fast_report = engine_ff(100_000, None, FastPaths::MacroSteps).run(&trace);
    let fast = deep_fingerprint(&fast_report);
    let slow = deep_fingerprint(&engine_ff(100_000, None, FastPaths::Compiled).run(&trace));
    assert_eq!(fast, slow, "length-1 runs diverged from per-iteration stepping");
    assert_eq!(fast_report.records().len(), 6, "all staggered sequences must complete");
}

/// Runs `plan` over `trace` on `n` replicas through the per-iteration
/// reference loop and through fast-forward windows at every width.
fn assert_faulted_windows_match(n: usize, plan: FaultPlan, trace: &Trace) {
    let retry = RetryPolicy { max_retries: 2, base_backoff: Dur::from_secs(0.25) };
    let spec = deep_fingerprint(
        &ReferenceClusterSim::new(
            engines_ff(n, 100_000, FastPaths::Compiled),
            RoutingKind::default().policy(),
        )
        .with_faults(plan.clone(), retry)
        .run(trace),
    );
    assert_windows_match(&spec, trace, || {
        ClusterSim::new(
            engines_ff(n, 100_000, FastPaths::MacroSteps),
            RoutingKind::default().policy(),
        )
        .with_faults(plan.clone(), retry)
    });
}

/// A slowdown window edge landing mid-plateau: the window's start and
/// end are fault timers, so the horizon cap clamps a decode run partway
/// through, the slowdown factor changes, and the run resumes at the new
/// per-iteration duration. Both edges land strictly inside what would
/// otherwise be one long decode run.
#[test]
fn slowdown_edge_mid_run_is_byte_identical() {
    let trace = Trace::with_ids((0..4).map(|i| request(i, 0.0, 128, 400)).collect());
    let plan = FaultPlan::new(vec![FaultEvent {
        at: SimTime::from_secs(1.0),
        fault: Fault::Slowdown { replica: 0, factor: 3.0, duration: Dur::from_secs(2.0) },
    }]);
    assert_faulted_windows_match(1, plan, &trace);
}

/// A crash timer landing inside a decode run: the run clamps at the
/// timer cap, the crash destroys the replica's in-flight work, and the
/// salvaged requests re-dispatch under retry — every salvage instant,
/// attempt count, and re-prefill must match the per-iteration loop.
#[test]
fn crash_timer_mid_run_is_byte_identical() {
    let trace = Trace::with_ids((0..4).map(|i| request(i, 0.0, 128, 400)).collect());
    let plan = FaultPlan::new(vec![FaultEvent {
        at: SimTime::from_secs(1.5),
        fault: Fault::Crash { replica: 0 },
    }]);
    assert_faulted_windows_match(2, plan, &trace);
}

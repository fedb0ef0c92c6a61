//! Randomized stress tests of the serving engine: arbitrary traces,
//! scheduler knobs and deployment kinds must never lose requests, violate
//! timestamp ordering, or leak KV accounting.

use proptest::prelude::*;
use shift_parallelism::prelude::*;

fn arb_kind() -> impl Strategy<Value = DeploymentKind> {
    prop_oneof![
        Just(DeploymentKind::TensorParallel),
        Just(DeploymentKind::DataParallel),
        Just(DeploymentKind::SequenceParallel),
        Just(DeploymentKind::Shift),
        (1usize..4, 0u64..2048).prop_map(|(sp_pow, threshold)| {
            let sp = 1 << sp_pow;
            DeploymentKind::ShiftWithBase { base: ParallelConfig::new(sp, 8 / sp), threshold }
        }),
    ]
}

/// Prompt lengths with a one-in-eight share of zero-token prompts,
/// which engines must reject rather than spin on.
fn arb_input() -> impl Strategy<Value = u32> {
    (0u8..8, 1u32..16_000).prop_map(|(k, input)| if k == 0 { 0 } else { input })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (prop::collection::vec((arb_input(), 1u32..200, 0.0f64..120.0, any::<bool>()), 1..40),)
        .prop_map(|(reqs,)| {
            reqs.into_iter()
                .enumerate()
                .map(|(i, (input, output, at, interactive))| Request {
                    id: i as u64,
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
}

/// Randomized fault schedules overlapping the trace window: crashes
/// dominate, with slowdown windows and route timeouts mixed in. Replica
/// indices may exceed the live fleet (crashing an empty or out-of-range
/// slot is a defined no-op).
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec((0.0f64..120.0, 0usize..5, 0u8..8, 1.5f64..6.0, 0.5f64..8.0), 0..8)
        .prop_map(|faults| {
            FaultPlan::new(
                faults
                    .into_iter()
                    .map(|(at, replica, kind, factor, dur)| FaultEvent {
                        at: SimTime::from_secs(at),
                        fault: match kind {
                            0..=3 => Fault::Crash { replica },
                            4 | 5 => {
                                Fault::Slowdown { replica, factor, duration: Dur::from_secs(dur) }
                            }
                            _ => Fault::RouteTimeout,
                        },
                    })
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn engine_never_loses_or_corrupts_requests(
        trace in arb_trace(),
        kind in arb_kind(),
        max_batched in prop_oneof![Just(2048u64), Just(8192)],
        max_seqs in prop_oneof![Just(4usize), Just(64)],
        preempt in any::<bool>(),
        priority in any::<bool>(),
        cap in prop_oneof![Just(None), Just(Some(1024u64))],
    ) {
        let mut builder = Deployment::builder(NodeSpec::p5en_48xlarge(), presets::qwen_32b())
            .kind(kind)
            .max_batched_tokens(max_batched)
            .max_seqs(max_seqs)
            .queue_policy(if priority {
                QueuePolicy::InteractiveFirst
            } else {
                QueuePolicy::Fcfs
            })
            .admission(if preempt {
                AdmissionMode::PreemptRestart
            } else {
                AdmissionMode::ReserveFull
            });
        if let Some(c) = cap {
            builder = builder.max_prefill_tokens(c);
        }
        let mut dep = builder.build().expect("evaluation configs always deploy");
        let report = dep.run(&trace);

        // 1. Conservation: every request completed or rejected, once.
        prop_assert_eq!(report.records().len() + report.rejected().len(), trace.len());
        let mut ids: Vec<u64> = report
            .records()
            .iter()
            .map(|r| r.request_id)
            .chain(report.rejected().iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.len());

        // 2. Timestamp sanity on every record.
        for r in report.records() {
            prop_assert!(r.first_token >= r.arrival);
            prop_assert!(r.finish >= r.first_token);
            prop_assert!(r.finish.as_secs() <= report.makespan().as_secs() + 1e-9);
        }

        // 3. Output fidelity: completed requests produced exactly their
        //    requested output tokens.
        for r in report.records() {
            let want = trace
                .requests()
                .iter()
                .find(|q| q.id == r.request_id)
                .expect("record corresponds to a request");
            prop_assert_eq!(r.output_tokens, want.output_tokens);
            prop_assert_eq!(r.input_tokens, want.input_tokens);
        }

        // 4. Accounting sanity.
        prop_assert!(report.peak_kv_utilization() <= 1.0 + 1e-9);
        let configs: u64 = report.config_usage().values().sum();
        prop_assert_eq!(configs, report.iterations());
        if !preempt {
            prop_assert_eq!(report.preemptions(), 0);
        }
    }

    #[test]
    fn fleet_conserves_requests(
        trace in arb_trace(),
        nodes in 1usize..4,
    ) {
        let mut fleet = shift_parallelism::core::fleet::Fleet::new(nodes, || {
            Deployment::builder(NodeSpec::p5en_48xlarge(), presets::qwen_32b())
                .kind(DeploymentKind::Shift)
        })
        .unwrap();
        let report = fleet.run(&trace);
        prop_assert_eq!(report.records().len() + report.rejected().len(), trace.len());
    }

    #[test]
    fn cluster_sim_survives_arbitrary_interleavings(
        trace in arb_trace(),
        replicas in 1usize..4,
        kind in prop_oneof![
            Just(RoutingKind::JoinShortestOutstanding),
            Just(RoutingKind::RoundRobin),
            Just(RoutingKind::StaticSplit),
            Just(RoutingKind::EarliestDeadlineFeasible(ClassSlo::default())),
        ],
        // Extra step_once calls injected between dispatches.
        steps in prop::collection::vec(0usize..6, 40),
    ) {
        drive_interleaved(&trace, replicas, kind, &steps, None, None, EnginePressure::default());
    }

    #[test]
    fn autoscaled_cluster_sim_survives_arbitrary_interleavings(
        trace in arb_trace(),
        replicas in 1usize..4,
        kind in prop_oneof![
            Just(RoutingKind::JoinShortestOutstanding),
            Just(RoutingKind::JsqByTtft),
            Just(RoutingKind::EarliestDeadlineFeasible(ClassSlo::default())),
        ],
        steps in prop::collection::vec(0usize..6, 40),
        hi in 150f64..1_500.0,
        lo in 20f64..120.0,
        cold in prop_oneof![Just(0.0f64), Just(5.0)],
    ) {
        drive_interleaved(&trace, replicas, kind, &steps, Some((hi, lo, cold)), None, EnginePressure::default());
    }

    #[test]
    fn faulted_cluster_sim_survives_arbitrary_interleavings(
        trace in arb_trace(),
        replicas in 1usize..4,
        kind in prop_oneof![
            Just(RoutingKind::JoinShortestOutstanding),
            Just(RoutingKind::RoundRobin),
            Just(RoutingKind::EarliestDeadlineFeasible(ClassSlo::default())),
        ],
        steps in prop::collection::vec(0usize..6, 40),
        plan in arb_fault_plan(),
        budget in 0u32..4,
        scale in any::<bool>(),
    ) {
        let scale = scale.then_some((400.0, 60.0, 5.0));
        drive_interleaved(&trace, replicas, kind, &steps, scale, Some((plan, budget)), EnginePressure::default());
    }
}

proptest! {
    // Tier-2 long fuzz: bigger step mixes, many more cases. Run with
    // `cargo test --release -- --ignored` (the CI tier-2 job); reproduce
    // a failure by exporting the SP_PROPTEST_SEED recorded in
    // target/proptest-failures/<test>.txt.
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    #[ignore = "tier-2 long fuzz; run with --ignored"]
    fn cluster_sim_survives_arbitrary_interleavings_long(
        trace in arb_trace(),
        replicas in 1usize..5,
        kind in prop_oneof![
            Just(RoutingKind::JoinShortestOutstanding),
            Just(RoutingKind::RoundRobin),
            Just(RoutingKind::StaticSplit),
            Just(RoutingKind::EarliestDeadlineFeasible(ClassSlo::default())),
        ],
        steps in prop::collection::vec(0usize..12, 60),
    ) {
        drive_interleaved(&trace, replicas, kind, &steps, None, None, EnginePressure::default());
    }

    #[test]
    #[ignore = "tier-2 long fuzz; run with --ignored"]
    fn autoscaled_cluster_sim_survives_arbitrary_interleavings_long(
        trace in arb_trace(),
        replicas in 1usize..5,
        kind in prop_oneof![
            Just(RoutingKind::JoinShortestOutstanding),
            Just(RoutingKind::JsqByTtft),
            Just(RoutingKind::EarliestDeadlineFeasible(ClassSlo::default())),
        ],
        steps in prop::collection::vec(0usize..12, 60),
        hi in 150f64..1_500.0,
        lo in 20f64..120.0,
        cold in prop_oneof![Just(0.0f64), Just(2.5), Just(10.0)],
    ) {
        drive_interleaved(&trace, replicas, kind, &steps, Some((hi, lo, cold)), None, EnginePressure::default());
    }

    #[test]
    #[ignore = "tier-2 long fuzz; run with --ignored"]
    fn faulted_cluster_sim_survives_arbitrary_interleavings_long(
        trace in arb_trace(),
        replicas in 1usize..5,
        kind in prop_oneof![
            Just(RoutingKind::JoinShortestOutstanding),
            Just(RoutingKind::RoundRobin),
            Just(RoutingKind::JsqByTtft),
            Just(RoutingKind::EarliestDeadlineFeasible(ClassSlo::default())),
        ],
        steps in prop::collection::vec(0usize..12, 60),
        plan in arb_fault_plan(),
        budget in 0u32..4,
        scale in any::<bool>(),
        cold in prop_oneof![Just(0.0f64), Just(2.5), Just(10.0)],
    ) {
        let scale = scale.then_some((400.0, 60.0, cold));
        drive_interleaved(&trace, replicas, kind, &steps, scale, Some((plan, budget)), EnginePressure::default());
    }

    /// KV-pressure variant: a 20k-token cache against 16k-token prompts
    /// with a 2048-token chunk budget keeps the wait queue blocked on
    /// most iterations, so admission blocks and unblocks across
    /// retirements, SLO sheds, preemptions, crashes, and arrivals, and
    /// decode runs keep going on the run probe's blocked verdict. The
    /// conservation and monotonic-time invariants must survive that
    /// exactly as they do the full rescan; a verdict that never lapses
    /// fails the drain guard, and one that double-admits fails
    /// conservation.
    #[test]
    #[ignore = "tier-2 long fuzz; run with --ignored"]
    fn kv_pressure_cluster_sim_survives_arbitrary_interleavings_long(
        trace in arb_trace(),
        replicas in 1usize..5,
        kind in prop_oneof![
            Just(RoutingKind::JoinShortestOutstanding),
            Just(RoutingKind::EarliestDeadlineFeasible(ClassSlo::default())),
        ],
        steps in prop::collection::vec(0usize..12, 60),
        plan in arb_fault_plan(),
        budget in 0u32..4,
        preempt in any::<bool>(),
        scale in any::<bool>(),
    ) {
        let scale = scale.then_some((400.0, 60.0, 2.5));
        drive_interleaved(
            &trace,
            replicas,
            kind,
            &steps,
            scale,
            Some((plan, budget)),
            EnginePressure::tight(preempt),
        );
    }
}

/// Engine sizing for the interleaving drivers. The default reproduces
/// the historical regime (roomy cache, full-prompt chunks); `tight()`
/// is the KV-pressure regime where most iterations leave the wait
/// queue blocked, prefills chunk across many iterations, and admission
/// blocks and unblocks constantly across retirements, sheds,
/// preemptions, and arrivals.
#[derive(Clone, Copy)]
struct EnginePressure {
    kv: u64,
    max_batched: u64,
    admission: AdmissionMode,
}

impl Default for EnginePressure {
    fn default() -> EnginePressure {
        EnginePressure { kv: 40_000, max_batched: 8192, admission: AdmissionMode::ReserveFull }
    }
}

impl EnginePressure {
    fn tight(preempt: bool) -> EnginePressure {
        EnginePressure {
            kv: 20_000,
            max_batched: 2048,
            admission: if preempt {
                AdmissionMode::PreemptRestart
            } else {
                AdmissionMode::ReserveFull
            },
        }
    }
}

/// Drives a `ClusterSim` through an explicit push/step interleaving via
/// the incremental `SimNode` surface (instead of the packaged `run`) and
/// checks the invariants that must hold under *any* interleaving: event
/// times never run backwards, no request is lost or duplicated, and a
/// drained cluster holds no outstanding work. With `scale` set, a
/// load-band autoscaler spawns and drains replicas mid-run, so the same
/// invariants are checked across replica lifecycle churn.
///
/// With `faults` set, a `FaultPlan` fires crashes, slowdown windows and
/// route timeouts between (and during) dispatches under a retry policy
/// with the given budget. Conservation then counts three terminal
/// outcomes — completed, rejected, or `Failed` with exactly the retry
/// budget in spent attempts. Without it, nothing fails and every
/// request is routed exactly once.
fn drive_interleaved(
    trace: &Trace,
    replicas: usize,
    kind: RoutingKind,
    steps: &[usize],
    scale: Option<(f64, f64, f64)>,
    faults: Option<(FaultPlan, u32)>,
    pressure: EnginePressure,
) {
    let node = sp_cluster::NodeSpec::new(
        sp_cluster::GpuSpec::h200(),
        1,
        sp_cluster::InterconnectSpec::nvswitch(),
    );
    let build = move || {
        Engine::new(
            ExecutionModel::new(node, presets::qwen_32b()),
            Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
            EngineConfig {
                kv_capacity_tokens: pressure.kv,
                max_batched_tokens: pressure.max_batched,
                admission: pressure.admission,
                class_slo: matches!(kind, RoutingKind::EarliestDeadlineFeasible(_))
                    .then(ClassSlo::default),
                ..EngineConfig::default()
            },
        )
    };
    let engines: Vec<Engine> = (0..replicas).map(|_| build()).collect();
    let mut sim = ClusterSim::new(engines, kind.policy());
    let budget = faults.as_ref().map(|&(_, budget)| budget);
    if let Some((plan, budget)) = faults {
        let retry = RetryPolicy { max_retries: budget, base_backoff: Dur::from_secs(0.5) };
        sim = sim.with_faults(plan, retry);
    }
    if let Some((hi, lo, cold)) = scale {
        sim = sim.with_autoscaler(Autoscaler::new(
            AutoscaleConfig { cold_start: Dur::from_secs(cold), min_replicas: 1, max_replicas: 5 },
            Box::new(LoadBandPolicy::new(hi, lo).smoothing(1.0).cooldown(Dur::from_secs(1.0))),
            move |_| build(),
        ));
    }

    for (i, &req) in trace.requests().iter().enumerate() {
        // A burst of manual steps before the dispatch (no-ops when idle).
        // These may drive a node's clock past the next arrival — a
        // legitimate driver-induced time warp the sim must absorb.
        for _ in 0..steps[i % steps.len()] {
            sim.step_once();
        }
        sim.push_request(req);
    }

    // Drain manually through the incremental surface. With no further
    // pushes, the event queue discipline kicks in: the global next-event
    // time must never run backwards.
    let mut guard = 0u64;
    let mut last_event = SimTime::ZERO;
    while let Some(t) = sim.next_event_time() {
        assert!(
            t.as_secs() >= last_event.as_secs(),
            "event time ran backwards during drain: {} < {}",
            t.as_secs(),
            last_event.as_secs()
        );
        last_event = t;
        sim.step_once();
        guard += 1;
        assert!(guard < 100_000_000, "interleaved drive failed to drain");
    }
    assert_eq!(sim.outstanding_tokens(), 0, "drained cluster still holds work");

    let report = sim.take_report();
    assert_eq!(
        report.records().len() + report.rejected().len() + report.failed().len(),
        trace.len(),
        "requests lost or duplicated under interleaving"
    );
    let mut ids: Vec<u64> = report
        .records()
        .iter()
        .map(|r| r.request_id)
        .chain(report.rejected().iter().copied())
        .chain(report.failed().iter().map(|f| f.request_id))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), trace.len());
    match budget {
        None => {
            assert!(report.failed().is_empty(), "a request failed without faults");
            assert_eq!(report.routing_decisions().len(), trace.len());
        }
        Some(budget) => {
            for f in report.failed() {
                assert_eq!(
                    f.attempts, budget,
                    "request {} abandoned after {} attempts with budget {}",
                    f.request_id, f.attempts, budget
                );
            }
            // Every completed or rejected request was routed at least
            // once.
            assert!(report.routing_decisions().len() >= report.records().len());
        }
    }
    for r in report.records() {
        assert!(r.first_token >= r.arrival);
        assert!(r.finish >= r.first_token);
    }
}

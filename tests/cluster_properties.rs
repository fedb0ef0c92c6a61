//! Property, determinism, and edge-case tests for the online cluster
//! co-simulation (`ClusterSim`).
//!
//! The load-bearing property: online dispatch through `ClusterSim` with
//! the `StaticSplit` policy must be *observationally identical* to the
//! offline path (split the trace up front with the greedy
//! least-assigned-tokens split, `offline_split` below, and run each
//! shard on an isolated engine) — same per-request records, same
//! rejections. That equivalence is what lets the event-driven simulator
//! be trusted as a superset of the offline one.

use proptest::prelude::*;
use shift_parallelism::prelude::*;
use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};

fn engine(kv: u64) -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        EngineConfig { kv_capacity_tokens: kv, ..EngineConfig::default() },
    )
}

/// An engine with optional SLO admission, optionally running its
/// pre-optimization reference scheduling paths (linear admission scan,
/// fold-based load snapshots).
fn engine_with(kv: u64, slo: Option<ClassSlo>, reference: bool) -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    let mut e = Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        EngineConfig { kv_capacity_tokens: kv, class_slo: slo, ..EngineConfig::default() },
    );
    e.set_reference_mode(reference);
    e
}

fn engines(n: usize, kv: u64) -> Vec<Engine> {
    (0..n).map(|_| engine(kv)).collect()
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (prop::collection::vec((1u32..12_000, 1u32..100, 0.0f64..60.0, any::<bool>()), 1..30),)
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

/// Prompt lengths with a one-in-eight share of zero-token prompts,
/// which engines must reject rather than spin on.
fn arb_input(max: u32) -> impl Strategy<Value = u32> {
    (0u8..8, 1u32..max).prop_map(|(k, input)| if k == 0 { 0 } else { input })
}

/// Like [`arb_trace`], but with every arrival packed into an 8 s window
/// so instantaneous load actually accumulates — the autoscaling
/// properties need traces that push a load-band policy across both
/// watermarks (spawns *and* drains), which uniformly spread arrivals
/// rarely do — and with zero-token prompts mixed in.
fn arb_dense_trace() -> impl Strategy<Value = Trace> {
    (prop::collection::vec((arb_input(12_000), 1u32..100, 0.0f64..8.0, any::<bool>()), 1..30),)
        .prop_map(|(reqs,)| {
            reqs.into_iter()
                .map(|(input, output, at, interactive)| Request {
                    id: 0,
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

/// Canonical, order-independent encoding of a report's observable
/// per-request outcome. Timestamps are compared via their exact f64 bit
/// patterns: the equivalence below is bit-exact, not approximate.
fn canonical_records(report: &EngineReport) -> Vec<(u64, u64, u64, u64, u32, u32)> {
    let mut v: Vec<_> = report
        .records()
        .iter()
        .map(|r| {
            (
                r.request_id,
                r.arrival.as_secs().to_bits(),
                r.first_token.as_secs().to_bits(),
                r.finish.as_secs().to_bits(),
                r.input_tokens,
                r.output_tokens,
            )
        })
        .collect();
    v.sort_unstable();
    v
}

/// The offline oracle: splits `trace` across `n` replicas up front,
/// each request (in arrival order) to the replica with the least total
/// tokens assigned so far, ties to the lowest index.
fn offline_split(trace: &Trace, n: usize) -> Vec<Trace> {
    let mut assigned: Vec<Vec<Request>> = vec![Vec::new(); n];
    let mut load = vec![0u64; n];
    for r in trace.requests() {
        let target = (0..n).min_by_key(|&i| load[i]).expect("at least one replica");
        load[target] += r.total_tokens();
        assigned[target].push(*r);
    }
    assigned.into_iter().map(Trace::with_ids).collect()
}

fn sorted_rejects(report: &EngineReport) -> Vec<u64> {
    let mut v = report.rejected().to_vec();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Online `ClusterSim` + `StaticSplit` ≡ offline route-then-run: both
    /// paths assign identically (StaticSplit replays the greedy router),
    /// and since replicas share nothing, per-request records must agree
    /// bit-for-bit.
    #[test]
    fn static_split_online_equals_offline_replica_runs(
        trace in arb_trace(),
        n in 2usize..4,
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
    ) {
        let mut online = ClusterSim::new(engines(n, kv), RoutingKind::StaticSplit.policy());
        let online_report = online.run(&trace);

        let shards = offline_split(&trace, n);
        prop_assert_eq!(shards.len(), n);
        let mut offline_merged = EngineReport::new(Dur::from_secs(1.0));
        for shard in &shards {
            offline_merged.merge(engine(kv).run(shard));
        }

        prop_assert_eq!(
            canonical_records(&online_report),
            canonical_records(&offline_merged),
            "online static split diverged from offline shard runs"
        );
        prop_assert_eq!(sorted_rejects(&online_report), sorted_rejects(&offline_merged));
        // The decision trail must replay the offline assignment exactly.
        for d in online_report.routing_decisions() {
            let offline_home = shards
                .iter()
                .position(|s| s.requests().iter().any(|q| q.id == d.request_id))
                .expect("request assigned offline");
            prop_assert_eq!(d.replica, offline_home, "request {}", d.request_id);
        }
    }

    /// Two identical JSQ runs must be byte-identical: same routing trail,
    /// same records, same aggregate counters. The tie-break contract
    /// (lowest index wins) leaves no room for nondeterminism.
    #[test]
    fn cluster_runs_are_deterministic(trace in arb_trace(), n in 1usize..4) {
        let run = || {
            let mut sim =
                ClusterSim::new(engines(n, 100_000), RoutingKind::JoinShortestOutstanding.policy());
            sim.run(&trace)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.routing_decisions(), b.routing_decisions());
        prop_assert_eq!(canonical_records(&a), canonical_records(&b));
        prop_assert_eq!(sorted_rejects(&a), sorted_rejects(&b));
        prop_assert_eq!(a.iterations(), b.iterations());
        prop_assert_eq!(format!("{:?}", a.records()), format!("{:?}", b.records()));
    }

    /// The window loop is an *optimization*, never a behavior change:
    /// over randomized traces and randomized push/step interleavings,
    /// `ClusterSim` (horizon windows, indexed EDF admission, incremental
    /// load counters) must stay in lockstep with `ReferenceClusterSim`
    /// (the one-event linear-rescan loop over reference-mode engines) —
    /// same next-event instant at every step, and byte-identical reports
    /// at the end.
    #[test]
    fn event_calendar_matches_reference_loop(
        trace in arb_trace(),
        n in 1usize..5,
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
        use_slo in any::<bool>(),
        steps_between in prop::collection::vec(0usize..5, 0..32),
    ) {
        let slo = use_slo.then(ClassSlo::default);
        let build =
            |reference: bool| (0..n).map(|_| engine_with(kv, slo, reference)).collect::<Vec<_>>();
        let mut windowed =
            ClusterSim::new(build(false), RoutingKind::JoinShortestOutstanding.policy());
        let mut naive =
            ReferenceClusterSim::new(build(true), RoutingKind::JoinShortestOutstanding.policy());

        let next_bits = |cal: &ClusterSim<Engine>, naive: &ReferenceClusterSim<Engine>| {
            (
                cal.next_event_time().map(|t| t.as_secs().to_bits()),
                naive.next_event_time().map(|t| t.as_secs().to_bits()),
            )
        };
        for (k, &req) in trace.requests().iter().enumerate() {
            for _ in 0..steps_between.get(k).copied().unwrap_or(0) {
                let (a, b) = next_bits(&windowed, &naive);
                prop_assert_eq!(a, b, "next-event divergence before arrival {}", k);
                windowed.step_once();
                naive.step_once();
            }
            windowed.push_request(req);
            naive.push_request(req);
        }
        let mut guard: u64 = 0;
        while windowed.next_event_time().is_some() || naive.next_event_time().is_some() {
            let (a, b) = next_bits(&windowed, &naive);
            prop_assert_eq!(a, b, "next-event divergence while draining");
            windowed.step_once();
            naive.step_once();
            guard += 1;
            prop_assert!(guard < 2_000_000, "drain failed to terminate");
        }

        let a = windowed.take_report();
        let b = naive.take_report();
        prop_assert_eq!(a.routing_decisions(), b.routing_decisions());
        prop_assert_eq!(canonical_records(&a), canonical_records(&b));
        prop_assert_eq!(sorted_rejects(&a), sorted_rejects(&b));
        prop_assert_eq!(a.iterations(), b.iterations());
        prop_assert_eq!(format!("{:?}", a.records()), format!("{:?}", b.records()));
    }

    /// An attached autoscaler whose policy never fires must leave the
    /// run *byte-identical* to the plain fixed fleet: same routing
    /// trail, records, rejects. The lifecycle machinery may not perturb
    /// dispatch in any way until a scale decision actually happens.
    #[test]
    fn never_firing_autoscaler_is_byte_identical_to_fixed_fleet(
        trace in arb_trace(),
        n in 1usize..4,
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
    ) {
        let mut fixed =
            ClusterSim::new(engines(n, kv), RoutingKind::JoinShortestOutstanding.policy());
        let fixed_report = fixed.run(&trace);

        let scaler =
            Autoscaler::new(AutoscaleConfig::default(), Box::new(NeverScale), move |_| engine(kv));
        let mut auto = ClusterSim::new(engines(n, kv), RoutingKind::JoinShortestOutstanding.policy())
            .with_autoscaler(scaler);
        let auto_report = auto.run(&trace);

        prop_assert_eq!(fixed_report.routing_decisions(), auto_report.routing_decisions());
        prop_assert_eq!(canonical_records(&fixed_report), canonical_records(&auto_report));
        prop_assert_eq!(sorted_rejects(&fixed_report), sorted_rejects(&auto_report));
        prop_assert_eq!(fixed_report.iterations(), auto_report.iterations());
        prop_assert_eq!(
            format!("{:?}", fixed_report.records()),
            format!("{:?}", auto_report.records())
        );
    }

    /// The window/reference byte-identity property *with live scale
    /// events*: a load-band autoscaler spawns (with cold start) and
    /// drains replicas mid-trace on both simulations, which share the
    /// lifecycle core but advance differently (horizon windows vs one
    /// event at a time). Retire-then-respawn slot reuse must stay
    /// invisible: same next-event instant at every step, byte-identical
    /// reports and lifecycle timelines at the end.
    #[test]
    fn event_calendar_matches_reference_loop_with_scale_events(
        trace in arb_dense_trace(),
        n in 1usize..4,
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
        hi in 150f64..1_500.0,
        lo in 20f64..120.0,
        cold in prop_oneof![Just(0.0f64), Just(2.5), Just(10.0)],
        steps_between in prop::collection::vec(0usize..5, 0..32),
    ) {
        let build =
            |reference: bool| (0..n).map(|_| engine_with(kv, None, reference)).collect::<Vec<_>>();
        let scaler = |reference: bool| {
            Autoscaler::new(
                AutoscaleConfig {
                    cold_start: Dur::from_secs(cold),
                    min_replicas: 1,
                    max_replicas: 4,
                },
                Box::new(
                    LoadBandPolicy::new(hi, lo).smoothing(0.5).cooldown(Dur::from_secs(2.0)),
                ),
                move |_| engine_with(kv, None, reference),
            )
        };
        let mut windowed =
            ClusterSim::new(build(false), RoutingKind::JoinShortestOutstanding.policy())
                .with_autoscaler(scaler(false));
        let mut naive =
            ReferenceClusterSim::new(build(true), RoutingKind::JoinShortestOutstanding.policy())
                .with_autoscaler(scaler(true));

        let next_bits = |cal: &ClusterSim<Engine>, naive: &ReferenceClusterSim<Engine>| {
            (
                cal.next_event_time().map(|t| t.as_secs().to_bits()),
                naive.next_event_time().map(|t| t.as_secs().to_bits()),
            )
        };
        for (k, &req) in trace.requests().iter().enumerate() {
            for _ in 0..steps_between.get(k).copied().unwrap_or(0) {
                let (a, b) = next_bits(&windowed, &naive);
                prop_assert_eq!(a, b, "next-event divergence before arrival {}", k);
                windowed.step_once();
                naive.step_once();
            }
            windowed.push_request(req);
            naive.push_request(req);
        }
        let mut guard: u64 = 0;
        while windowed.next_event_time().is_some() || naive.next_event_time().is_some() {
            let (a, b) = next_bits(&windowed, &naive);
            prop_assert_eq!(a, b, "next-event divergence while draining");
            windowed.step_once();
            naive.step_once();
            guard += 1;
            prop_assert!(guard < 2_000_000, "drain failed to terminate");
        }

        let a = windowed.take_report();
        let b = naive.take_report();
        prop_assert_eq!(a.routing_decisions(), b.routing_decisions());
        prop_assert_eq!(canonical_records(&a), canonical_records(&b));
        prop_assert_eq!(sorted_rejects(&a), sorted_rejects(&b));
        prop_assert_eq!(a.fleet_timeline().events(), b.fleet_timeline().events());
        prop_assert_eq!(format!("{:?}", a.records()), format!("{:?}", b.records()));
    }

    /// Drain-then-retire conservation: under an aggressive autoscaler no
    /// request is ever dropped, double-served, or double-reported — every
    /// arrival shows up exactly once as a record or a reject, and the
    /// lifecycle timeline stays well-formed (each replica alternates
    /// spawn/retire, every drain precedes its retire).
    #[test]
    fn autoscaled_runs_conserve_requests(
        trace in arb_dense_trace(),
        n in 1usize..3,
        hi in 150f64..1_500.0,
        lo in 20f64..120.0,
        cold in prop_oneof![Just(0.0f64), Just(5.0)],
    ) {
        let kv = 60_000u64;
        let scaler = Autoscaler::new(
            AutoscaleConfig { cold_start: Dur::from_secs(cold), min_replicas: 1, max_replicas: 5 },
            Box::new(LoadBandPolicy::new(hi, lo).smoothing(1.0).cooldown(Dur::from_secs(1.0))),
            move |_| engine(kv),
        );
        let mut sim = ClusterSim::new(engines(n, kv), RoutingKind::JoinShortestOutstanding.policy())
            .with_autoscaler(scaler);
        let report = sim.run(&trace);

        prop_assert_eq!(report.records().len() + report.rejected().len(), trace.len());
        let mut ids: Vec<u64> = report
            .records()
            .iter()
            .map(|r| r.request_id)
            .chain(report.rejected().iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.len(), "a request was served or reported twice");
        prop_assert_eq!(sim.outstanding_tokens(), 0, "drained cluster holds no work");

        // Timeline sanity: per-replica lifecycles alternate correctly.
        let tl = report.fleet_timeline();
        for r in 0..tl.replica_count() {
            let mut alive = false;
            let mut draining = false;
            for e in tl.events().iter().filter(|e| e.replica == r) {
                match e.kind {
                    ReplicaEventKind::Spawned => {
                        prop_assert!(!alive, "replica {} spawned while alive", r);
                        alive = true;
                        draining = false;
                    }
                    ReplicaEventKind::Ready => prop_assert!(alive),
                    ReplicaEventKind::DrainStarted => {
                        prop_assert!(alive && !draining);
                        draining = true;
                    }
                    ReplicaEventKind::Retired => {
                        prop_assert!(alive && draining, "replica {} retired without draining", r);
                        alive = false;
                        draining = false;
                    }
                    ReplicaEventKind::Crashed => {
                        // A crash tears a replica down from any alive
                        // state — no drain required.
                        prop_assert!(alive, "replica {} crashed while empty", r);
                        alive = false;
                        draining = false;
                    }
                }
            }
        }
    }
}

/// Randomized fault schedules over a small fleet: crashes dominate, with
/// slowdown windows and route timeouts mixed in. Replica indices target
/// slots `0..max_replicas` so plans stay meaningful for any fleet size in
/// that range (crashing an empty slot is a defined no-op).
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Request conservation under arbitrary seeded crash schedules — the
    /// chaos analogue of `autoscaled_runs_conserve_requests`. Whatever
    /// the fault plan does (crashes salvaging in-flight work, route
    /// timeouts, slowdown windows), every pushed request must surface in
    /// the report exactly once: completed, rejected, or terminally
    /// `Failed` — and a failure must carry exactly the retry budget in
    /// spent attempts. Nothing is lost, nothing is double-served.
    #[test]
    fn crash_schedules_conserve_requests(
        reqs in prop::collection::vec(
            (arb_input(10_000), 1u32..60, 0.0f64..30.0, any::<bool>()),
            1..10,
        ),
        n in 1usize..3,
        plan in arb_fault_plan(3),
        budget in 0u32..3,
    ) {
        let trace = Trace::new(
            reqs.into_iter()
                .map(|(input, output, at, interactive)| Request {
                    id: 0,
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
                .collect(),
        );
        let retry = RetryPolicy { max_retries: budget, base_backoff: Dur::from_secs(0.25) };
        let mut sim = ClusterSim::new(engines(n, 30_000), RoutingKind::JoinShortestOutstanding.policy())
            .with_faults(plan, retry);
        let report = sim.run(&trace);

        prop_assert_eq!(
            report.records().len() + report.rejected().len() + report.failed().len(),
            trace.len(),
            "conservation: served {} + rejected {} + failed {} != pushed {}",
            report.records().len(),
            report.rejected().len(),
            report.failed().len(),
            trace.len()
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
        prop_assert_eq!(ids.len(), trace.len(), "a request was served or reported twice");
        for f in report.failed() {
            prop_assert_eq!(
                f.attempts, retry.max_retries,
                "request {} abandoned after {} attempts with budget {}",
                f.request_id, f.attempts, retry.max_retries
            );
        }
        prop_assert_eq!(sim.outstanding_tokens(), 0, "drained cluster holds no work");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The window/reference byte-identity property *under fault
    /// injection*: both simulations consume the same `FaultPlan` through
    /// their shared fleet core, so crashes (retired slots, salvaged
    /// work), retry timers, slowdown windows, and route timeouts must
    /// leave the window loop and the one-event loop in lockstep — same
    /// next-event instant at every step, byte-identical reports, fault
    /// trails, and failure lists at the end.
    #[test]
    fn event_calendar_matches_reference_loop_under_faults(
        trace in arb_trace(),
        n in 1usize..4,
        plan in arb_fault_plan(4),
        budget in 0u32..3,
        steps_between in prop::collection::vec(0usize..5, 0..32),
    ) {
        let retry = RetryPolicy { max_retries: budget, base_backoff: Dur::from_secs(0.5) };
        let mut windowed =
            ClusterSim::new(engines(n, 60_000), RoutingKind::JoinShortestOutstanding.policy())
                .with_faults(plan.clone(), retry);
        let mut naive = ReferenceClusterSim::new(
            (0..n).map(|_| engine_with(60_000, None, true)).collect::<Vec<_>>(),
            RoutingKind::JoinShortestOutstanding.policy(),
        )
        .with_faults(plan, retry);

        let next_bits = |cal: &ClusterSim<Engine>, naive: &ReferenceClusterSim<Engine>| {
            (
                cal.next_event_time().map(|t| t.as_secs().to_bits()),
                naive.next_event_time().map(|t| t.as_secs().to_bits()),
            )
        };
        for (k, &req) in trace.requests().iter().enumerate() {
            for _ in 0..steps_between.get(k).copied().unwrap_or(0) {
                let (a, b) = next_bits(&windowed, &naive);
                prop_assert_eq!(a, b, "next-event divergence before arrival {}", k);
                windowed.step_once();
                naive.step_once();
            }
            windowed.push_request(req);
            naive.push_request(req);
        }
        let mut guard: u64 = 0;
        while windowed.next_event_time().is_some() || naive.next_event_time().is_some() {
            let (a, b) = next_bits(&windowed, &naive);
            prop_assert_eq!(a, b, "next-event divergence while draining");
            windowed.step_once();
            naive.step_once();
            guard += 1;
            prop_assert!(guard < 2_000_000, "drain failed to terminate");
        }

        let a = windowed.take_report();
        let b = naive.take_report();
        prop_assert_eq!(a.routing_decisions(), b.routing_decisions());
        prop_assert_eq!(canonical_records(&a), canonical_records(&b));
        prop_assert_eq!(sorted_rejects(&a), sorted_rejects(&b));
        prop_assert_eq!(a.failed(), b.failed());
        prop_assert_eq!(
            a.fleet_timeline().request_faults(),
            b.fleet_timeline().request_faults()
        );
        prop_assert_eq!(a.fleet_timeline().events(), b.fleet_timeline().events());
        prop_assert_eq!(format!("{:?}", a.records()), format!("{:?}", b.records()));
    }
}

/// Everything the byte-identity properties compare, in owned form: the
/// decision trail, bit-exact record fields, reject/failure lists, the
/// lifecycle timeline, the fault trail, and the debug rendering of the
/// full record set (which captures every remaining field bit-exactly —
/// f64 debug formatting is shortest-roundtrip).
type Fingerprint = (String, Vec<(u64, u64, u64, u64, u32, u32)>, Vec<u64>, u64);

fn full_fingerprint(r: &EngineReport) -> Fingerprint {
    (
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            r.routing_decisions(),
            r.records(),
            r.failed(),
            r.fleet_timeline().events(),
            r.fleet_timeline().request_faults(),
        ),
        canonical_records(r),
        sorted_rejects(r),
        r.iterations(),
    )
}

/// Asserts that windowed `ClusterSim` runs at horizon widths {1, 2, 8}
/// reproduce `spec`, the one-event reference loop's report, exactly.
fn assert_windows_match(
    spec: &EngineReport,
    trace: &Trace,
    build: impl Fn() -> ClusterSim<Engine>,
) {
    let spec = full_fingerprint(spec);
    for threads in [1usize, 2, 8] {
        let windowed = full_fingerprint(&build().with_threads(threads).run(trace));
        assert_eq!(windowed, spec, "divergence at {threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The window loop's contract: horizon windows (independent replica
    /// stepping between coordination events, merged in slot order) are
    /// byte-identical to the one-event reference loop for every thread
    /// count — same decision trail, bit-exact records, same timelines.
    /// `n = 12` cases cover a wider fleet than the small-n draws.
    #[test]
    fn horizon_parallel_matches_sequential_calendar(
        trace in arb_trace(),
        n_sel in 0usize..6,
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
    ) {
        let n = if n_sel == 5 { 12 } else { n_sel + 1 };
        let policy = || RoutingKind::JoinShortestOutstanding.policy();
        let spec = ReferenceClusterSim::new(engines(n, kv), policy()).run(&trace);
        assert_windows_match(&spec, &trace, || ClusterSim::new(engines(n, kv), policy()));
    }

    /// Byte-identity under fault injection: crash salvage, retry
    /// backoff timers, slowdown windows and route timeouts all cut the
    /// horizon windows, and the merged result must still match the
    /// reference loop exactly at every width.
    #[test]
    fn horizon_parallel_matches_sequential_under_faults(
        trace in arb_trace(),
        n in 1usize..4,
        plan in arb_fault_plan(4),
        budget in 0u32..3,
    ) {
        let retry = RetryPolicy { max_retries: budget, base_backoff: Dur::from_secs(0.25) };
        let policy = || RoutingKind::JoinShortestOutstanding.policy();
        let spec = ReferenceClusterSim::new(engines(n, 60_000), policy())
            .with_faults(plan.clone(), retry)
            .run(&trace);
        assert_windows_match(&spec, &trace, || {
            ClusterSim::new(engines(n, 60_000), policy()).with_faults(plan.clone(), retry)
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Byte-identity under autoscaler churn: warmup promotions, drains
    /// and retires are coordination events (they only happen at dispatch
    /// or timer instants), so windows never straddle them — spawn/retire
    /// order, slot reuse and the lifecycle timeline must come out
    /// identical to the reference loop at every width.
    #[test]
    fn horizon_parallel_matches_sequential_with_autoscaling(
        trace in arb_dense_trace(),
        n in 1usize..4,
        hi in 150f64..1_500.0,
        lo in 20f64..120.0,
        cold in prop_oneof![Just(0.0f64), Just(2.5), Just(10.0)],
    ) {
        let kv = 60_000u64;
        let policy = || RoutingKind::JoinShortestOutstanding.policy();
        let scaler = || {
            Autoscaler::new(
                AutoscaleConfig {
                    cold_start: Dur::from_secs(cold),
                    min_replicas: 1,
                    max_replicas: 4,
                },
                Box::new(
                    LoadBandPolicy::new(hi, lo).smoothing(0.5).cooldown(Dur::from_secs(2.0)),
                ),
                move |_| engine(kv),
            )
        };
        let spec = ReferenceClusterSim::new(engines(n, kv), policy())
            .with_autoscaler(scaler())
            .run(&trace);
        assert_windows_match(&spec, &trace, || {
            ClusterSim::new(engines(n, kv), policy()).with_autoscaler(scaler())
        });
    }
}

/// Minimal hand-rolled node for exercising `ClusterSim` against
/// pathological `next_event_time` values real engines never report.
#[derive(Debug)]
struct StubNode {
    time: SimTime,
    remaining: u32,
}

impl SimNode for StubNode {
    fn push_request(&mut self, _req: Request) {}

    fn step_once(&mut self) {
        self.remaining = self.remaining.saturating_sub(1);
    }

    fn next_event_time(&self) -> Option<SimTime> {
        (self.remaining > 0).then_some(self.time)
    }

    fn outstanding_tokens(&self) -> u64 {
        u64::from(self.remaining)
    }

    fn take_report(&mut self) -> EngineReport {
        EngineReport::new(Dur::from_secs(1.0))
    }
}

/// A NaN next-event time violates the `SimNode` contract: NaN has no
/// place in the global event order, so rather than guess one, debug
/// builds stop the cluster loop at the first NaN instant it reads.
#[cfg(debug_assertions)]
#[test]
fn nan_next_event_time_is_a_contract_violation() {
    // `SimTime::from_secs` rejects NaN, but arithmetic does not validate
    // — the same hole a buggy cost model would leak NaN through.
    let nan_time = SimTime::ZERO + Dur::from_secs(1.0) * f64::NAN;
    assert!(nan_time.as_secs().is_nan());
    let nodes = vec![
        StubNode { time: SimTime::from_secs(1.0), remaining: 3 },
        StubNode { time: nan_time, remaining: 2 },
    ];
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ClusterSim::new(nodes, RoutingKind::JoinShortestOutstanding.policy())
            .run(&Trace::default());
    }));
    let payload = outcome.expect_err("a NaN next-event time must stop the cluster loop");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(message.contains("NaN next-event time"), "unexpected panic message: {message:?}");
}

#[test]
fn empty_trace_is_a_clean_noop() {
    let mut sim = ClusterSim::new(engines(2, 100_000), RoutingKind::default().policy());
    assert!(sim.next_event_time().is_none());
    assert_eq!(sim.outstanding_tokens(), 0);
    let report = sim.run(&Trace::default());
    assert!(report.records().is_empty());
    assert!(report.routing_decisions().is_empty());
    assert!(report.rejected().is_empty());
    assert_eq!(report.iterations(), 0);
}

#[test]
fn single_replica_cluster_degenerates_to_the_engine() {
    let trace = synthetic::poisson(12, 10.0, 512, 8, 7);
    let mut sim =
        ClusterSim::new(engines(1, 100_000), RoutingKind::JoinShortestOutstanding.policy());
    let online = sim.run(&trace);
    let offline = engine(100_000).run(&trace);
    assert!(online.routing_decisions().iter().all(|d| d.replica == 0));
    assert_eq!(canonical_records(&online), canonical_records(&offline));
}

#[test]
fn simultaneous_arrivals_are_all_dispatched() {
    // Every request arrives at the same instant: the router sees live
    // (already-updated) load for each successive dispatch, and none may
    // be lost or double-dispatched.
    let reqs: Vec<Request> = (0..10)
        .map(|i| Request {
            id: i,
            arrival: SimTime::from_secs(1.0),
            input_tokens: 2048,
            output_tokens: 8,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        })
        .collect();
    let trace = Trace::with_ids(reqs);
    let mut sim =
        ClusterSim::new(engines(2, 100_000), RoutingKind::JoinShortestOutstanding.policy());
    let report = sim.run(&trace);
    assert_eq!(report.routing_decisions().len(), 10);
    assert_eq!(report.records().len(), 10);
    // JSQ must alternate rather than herd: pushing a request raises the
    // picked replica's outstanding load before the next pick.
    let to_first = report.routing_decisions().iter().filter(|d| d.replica == 0).count();
    assert_eq!(to_first, 5, "JSQ must spread simultaneous arrivals evenly");
}

#[test]
fn oversized_request_is_rejected_not_lost() {
    // One request larger than any replica's whole KV cache: it must land
    // in `rejected()`, everything else completes, and the sim terminates.
    let mut reqs = vec![Request {
        id: 0,
        arrival: SimTime::ZERO,
        input_tokens: 50_000,
        output_tokens: 8,
        class: RequestClass::Batch,
        cached_prefix: 0,
        prefix_group: None,
    }];
    reqs.extend((1..5).map(|i| Request {
        id: i,
        arrival: SimTime::from_secs(0.1 * i as f64),
        input_tokens: 1024,
        output_tokens: 8,
        class: RequestClass::Interactive,
        cached_prefix: 0,
        prefix_group: None,
    }));
    let trace = Trace::with_ids(reqs);
    let mut sim =
        ClusterSim::new(engines(2, 20_000), RoutingKind::JoinShortestOutstanding.policy());
    let report = sim.run(&trace);
    assert_eq!(report.rejected(), &[0]);
    assert_eq!(report.records().len(), 4);
    assert_eq!(report.records().len() + report.rejected().len(), trace.len());
    assert_eq!(sim.outstanding_tokens(), 0, "drained cluster holds no work");
}

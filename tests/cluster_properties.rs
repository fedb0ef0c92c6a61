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

mod support;

use proptest::prelude::*;
use shift_parallelism::engine::FastPaths;
use shift_parallelism::prelude::*;
use support::*;

fn engine(kv: u64) -> Engine {
    dp_engine(config(kv), FastPaths::default())
}

fn engines(n: usize, kv: u64) -> Vec<Engine> {
    (0..n).map(|_| engine(kv)).collect()
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Online `ClusterSim` + `StaticSplit` ≡ offline route-then-run: both
    /// paths assign identically (StaticSplit replays the greedy router),
    /// and since replicas share nothing, per-request records must agree
    /// bit-for-bit. The online report also carries the routing trail and
    /// fleet timeline the offline runs lack, so only records and rejects
    /// are compared.
    #[test]
    fn static_split_online_equals_offline_replica_runs(
        sized in arb_trace(&[30_000, 200_000]),
        n in 2usize..4,
    ) {
        let (kv, trace) = sized;
        let mut online = ClusterSim::new(engines(n, kv), RoutingKind::StaticSplit.policy());
        let online_report = online.run(&trace);

        let shards = offline_split(&trace, n);
        prop_assert_eq!(shards.len(), n);
        let mut offline_merged = EngineReport::new(Dur::from_secs(1.0));
        for shard in &shards {
            offline_merged.merge(engine(kv).run(shard));
        }

        // Shards complete requests in a different order than the cluster.
        let records_by_id = |r: &EngineReport| {
            let mut v = r.records().to_vec();
            v.sort_by_key(|r| r.request_id);
            v
        };
        let sorted_rejects = |r: &EngineReport| {
            let mut v = r.rejected().to_vec();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(
            records_by_id(&online_report),
            records_by_id(&offline_merged),
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

    /// Two identical JSQ runs must be byte-identical. The tie-break
    /// contract (lowest index wins) leaves no room for nondeterminism.
    #[test]
    fn cluster_runs_are_deterministic(sized in arb_trace(&[100_000]), n in 1usize..4) {
        let (kv, trace) = sized;
        let run = || {
            let (mut sim, _) = Cluster::dp(n, config(kv)).sim(false, FastPaths::default());
            sim.run(&trace).dump()
        };
        assert_dumps_eq(&run(), &run(), "rerun");
    }

    /// The window loop is an *optimization*, never a behavior change:
    /// over randomized traces and randomized push/step interleavings,
    /// `ClusterSim` (horizon windows, indexed EDF admission, incremental
    /// load counters) must stay in lockstep with `ClusterSim::reference`
    /// (the one-event linear-rescan mode over `Reference`-rung engines) —
    /// same next-event instant at every step, and byte-identical reports
    /// at the end.
    #[test]
    fn event_calendar_matches_reference_loop(
        sized in arb_trace(&[30_000, 200_000]),
        n in 1usize..5,
        use_slo in any::<bool>(),
        steps_between in prop::collection::vec(0usize..5, 0..32),
    ) {
        let (kv, trace) = sized;
        let config = EngineConfig { class_slo: use_slo.then(ClassSlo::default), ..config(kv) };
        assert_lockstep(&Cluster::dp(n, config), &trace, &steps_between);
    }

    /// An attached autoscaler whose policy never fires must leave the
    /// run *byte-identical* to the plain fixed fleet. The lifecycle
    /// machinery may not perturb dispatch in any way until a scale
    /// decision actually happens.
    #[test]
    fn never_firing_autoscaler_is_byte_identical_to_fixed_fleet(
        sized in arb_trace(&[30_000, 200_000]),
        n in 1usize..4,
    ) {
        let (kv, trace) = sized;
        let mut fixed =
            ClusterSim::new(engines(n, kv), RoutingKind::JoinShortestOutstanding.policy());
        let fixed_report = fixed.run(&trace);

        let scaler =
            Autoscaler::new(AutoscaleConfig::default(), Box::new(NeverScale), move |_| engine(kv));
        let mut auto = ClusterSim::new(engines(n, kv), RoutingKind::JoinShortestOutstanding.policy())
            .with_autoscaler(scaler);
        let auto_report = auto.run(&trace);

        assert_dumps_eq(&auto_report.dump(), &fixed_report.dump(), "never-firing autoscaler");
    }

    /// The lockstep property *with live scale events*: a load-band
    /// autoscaler spawns (with cold start) and drains replicas mid-trace
    /// on both simulations, which share the lifecycle core but advance
    /// differently (horizon windows vs one event at a time).
    /// Retire-then-respawn slot reuse must stay invisible.
    #[test]
    fn event_calendar_matches_reference_loop_with_scale_events(
        trace in arb_dense_trace(),
        n in 1usize..4,
        kv in prop_oneof![Just(30_000u64), Just(200_000)],
        hi in 150f64..1_500.0,
        lo in 20f64..120.0,
        cold_start in prop_oneof![Just(0.0f64), Just(2.5), Just(10.0)],
        steps_between in prop::collection::vec(0usize..5, 0..32),
    ) {
        let scaling = Scaling { cold_start, hi, lo };
        let cluster = Cluster { scaling: Some(scaling), ..Cluster::dp(n, config(kv)) };
        assert_lockstep(&cluster, &trace, &steps_between);
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
                .map(|(input, output, at, interactive)| {
                    request(0, at, input, output, class(interactive))
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

    /// The lockstep property *under fault injection*: both simulations
    /// consume the same `FaultPlan` through their shared fleet core, so
    /// crashes (retired slots, salvaged work), retry timers, slowdown
    /// windows, and route timeouts must leave the window loop and the
    /// one-event loop in lockstep — same next-event instant at every
    /// step, byte-identical reports, fault trails, and failure lists at
    /// the end.
    #[test]
    fn event_calendar_matches_reference_loop_under_faults(
        sized in arb_trace(&[60_000]),
        n in 1usize..4,
        plan in arb_fault_plan(4),
        budget in 0u32..3,
        steps_between in prop::collection::vec(0usize..5, 0..32),
    ) {
        let (kv, trace) = sized;
        let retry = RetryPolicy { max_retries: budget, base_backoff: Dur::from_secs(0.5) };
        let cluster = Cluster { faults: Some((plan, retry)), ..Cluster::dp(n, config(kv)) };
        assert_lockstep(&cluster, &trace, &steps_between);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The window loop's contract: horizon windows (independent replica
    /// stepping between coordination events, merged in slot order) are
    /// byte-identical to the one-event reference loop over the same
    /// engines at every thread width. `n = 12` cases cover a wider fleet
    /// than the small-n draws.
    #[test]
    fn horizon_parallel_matches_sequential_calendar(
        sized in arb_trace(&[30_000, 200_000]),
        n_sel in 0usize..6,
    ) {
        let (kv, trace) = sized;
        let n = if n_sel == 5 { 12 } else { n_sel + 1 };
        assert_widths_match(&Cluster::dp(n, config(kv)), &trace);
    }

    /// The same contract on Shift engines, whose macro-steps ask the
    /// policy once per run: reports and every replica's
    /// `(base, shift, switches)` counters match at every width.
    #[test]
    fn horizon_parallel_matches_sequential_on_shift_engines(
        sized in arb_trace(&[30_000, 200_000]),
        n in 1usize..4,
    ) {
        let (kv, trace) = sized;
        assert_widths_match(&Cluster { shift: true, ..Cluster::dp(n, config(kv)) }, &trace);
    }

    /// Under fault injection: crash salvage, retry backoff timers,
    /// slowdown windows and route timeouts all cut the horizon windows,
    /// and the merged result must still match the reference loop at
    /// every width.
    #[test]
    fn horizon_parallel_matches_sequential_under_faults(
        sized in arb_trace(&[60_000]),
        n in 1usize..4,
        plan in arb_fault_plan(4),
        budget in 0u32..3,
    ) {
        let (kv, trace) = sized;
        let retry = RetryPolicy { max_retries: budget, base_backoff: Dur::from_secs(0.25) };
        let cluster = Cluster { faults: Some((plan, retry)), ..Cluster::dp(n, config(kv)) };
        assert_widths_match(&cluster, &trace);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Under autoscaler churn: warmup promotions, drains and retires
    /// are coordination events, so windows never straddle them —
    /// spawn/retire order, slot reuse and the lifecycle timeline match
    /// the reference loop at every width.
    #[test]
    fn horizon_parallel_matches_sequential_with_autoscaling(
        trace in arb_dense_trace(),
        n in 1usize..4,
        hi in 150f64..1_500.0,
        lo in 20f64..120.0,
        cold_start in prop_oneof![Just(0.0f64), Just(2.5), Just(10.0)],
    ) {
        let scaling = Scaling { cold_start, hi, lo };
        let cluster = Cluster { scaling: Some(scaling), ..Cluster::dp(n, config(60_000)) };
        assert_widths_match(&cluster, &trace);
    }
}

/// Minimal hand-rolled node for exercising `ClusterSim` against
/// pathological `next_event_time` values real engines never report.
/// Built only with the debug-only test that uses it.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct StubNode {
    time: SimTime,
    remaining: u32,
}

#[cfg(debug_assertions)]
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
    assert_eq!(online.records(), offline.records());
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

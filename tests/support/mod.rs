//! Shared generators, engine builders and the equivalence oracle for the
//! integration tests that compare optimization rungs and cluster loops.
//!
//! Every comparison goes through [`EngineReport::dump`]: two runs are
//! equivalent exactly when their dumps are equal. The executable spec
//! is `ClusterSim`'s one-event reference mode over engines on the
//! `FastPaths::Reference` rung. [`assert_rungs_match`] checks
//! window-mode runs against it on every rung and horizon width,
//! [`assert_widths_match`] checks the window loop alone (the reference
//! mode over the same default-rung engines) at every width, and
//! [`assert_lockstep`] checks the window loop against the spec event by
//! event. Both also check the spec itself with [`assert_conserved`],
//! which needs no second simulator.

// Each test crate uses its own subset of these helpers.
#![allow(dead_code)]

use proptest::prelude::*;
use shift_parallelism::engine::FastPaths;
use shift_parallelism::prelude::*;

/// Every rung of the optimization ladder, slowest first.
const RUNGS: [FastPaths; 4] =
    [FastPaths::Reference, FastPaths::Indexed, FastPaths::Compiled, FastPaths::MacroSteps];

/// Horizon widths the default `MacroSteps` rung is checked at.
const WIDTHS: [usize; 3] = [1, 2, 8];

/// Arrival instant of the late request that ends a quarter of
/// [`arb_trace`]'s traces, far past every other arrival. Reports keep
/// one throughput bin per second up to their makespan, so this costs
/// about 10^4 bins per report; the 1e6 s arrivals `Request::from_json`
/// accepts would cost 10^6.
const LATE_ARRIVAL_SECS: f64 = 1e4;

pub fn request(id: u64, at: f64, input: u32, output: u32, class: RequestClass) -> Request {
    Request {
        id,
        arrival: SimTime::from_secs(at),
        input_tokens: input,
        output_tokens: output,
        class,
        cached_prefix: 0,
        prefix_group: None,
    }
}

pub fn class(interactive: bool) -> RequestClass {
    if interactive {
        RequestClass::Interactive
    } else {
        RequestClass::Batch
    }
}

/// A KV size drawn from `kv_sizes` and a trace for engines of that
/// size: up to 30 requests of either class, prompts below 12k tokens,
/// outputs below 300, arrivals in [0, 60) s. Edge sizes are mixed in:
/// 1-token prompts and outputs, arrivals at exactly t = 0, arrivals
/// that repeat the previous request's instant, requests whose prompt
/// plus output equals the KV size, and in a quarter of the traces a
/// last arrival at [`LATE_ARRIVAL_SECS`].
pub fn arb_trace(kv_sizes: &'static [u64]) -> impl Strategy<Value = (u64, Trace)> {
    let req = (1u32..12_000, 1u32..300, 0.0f64..60.0, any::<bool>(), 0u8..16);
    (0..kv_sizes.len(), prop::collection::vec(req, 1..=30), 0u8..4).prop_map(
        move |(k, reqs, late)| {
            let kv = kv_sizes[k];
            let mut prev = 0.0;
            let mut requests: Vec<Request> = reqs
                .into_iter()
                .map(|(mut input, mut output, mut at, interactive, edge)| {
                    match edge {
                        0 => input = 1,
                        1 => output = 1,
                        2 => at = 0.0,
                        3 => at = prev,
                        4 => input = u32::try_from(kv - u64::from(output)).expect("KV size"),
                        _ => {}
                    }
                    prev = at;
                    request(0, at, input, output, class(interactive))
                })
                .collect();
            if late == 0 {
                requests.last_mut().expect("non-empty").arrival =
                    SimTime::from_secs(LATE_ARRIVAL_SECS);
            }
            (kv, Trace::new(requests)) // Trace::new renumbers in arrival order
        },
    )
}

/// Prompt lengths with a one-in-eight share of zero-token prompts,
/// which engines must reject rather than spin on.
pub fn arb_input(max: u32) -> impl Strategy<Value = u32> {
    (0u8..8, 1u32..max).prop_map(|(k, input)| if k == 0 { 0 } else { input })
}

/// Like [`arb_trace`], but with every arrival packed into an 8 s window
/// so instantaneous load actually accumulates — the autoscaling
/// properties need traces that push a load-band policy across both
/// watermarks (spawns *and* drains), which uniformly spread arrivals
/// rarely do — and with zero-token prompts mixed in.
pub fn arb_dense_trace() -> impl Strategy<Value = Trace> {
    let req = (arb_input(12_000), 1u32..200, 0.0f64..8.0, any::<bool>());
    prop::collection::vec(req, 1..=30).prop_map(|reqs| {
        Trace::new(
            reqs.into_iter()
                .map(|(input, output, at, interactive)| {
                    request(0, at, input, output, class(interactive))
                })
                .collect(),
        )
    })
}

/// Randomized fault schedules over a small fleet: crashes dominate, with
/// slowdown windows and route timeouts mixed in. Replica indices target
/// slots `0..max_replicas` so plans stay meaningful for any fleet size in
/// that range (crashing an empty slot is a defined no-op).
pub fn arb_fault_plan(max_replicas: usize) -> impl Strategy<Value = FaultPlan> {
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

/// Engine knobs for the equivalence tests: `kv` tokens of KV cache and
/// timeline capture on, so dumps pin every iteration.
pub fn config(kv: u64) -> EngineConfig {
    EngineConfig { kv_capacity_tokens: kv, record_timeline: true, ..EngineConfig::default() }
}

/// A Qwen-32B data-parallel replica on one H200, on the given rung.
pub fn dp_engine(config: EngineConfig, paths: FastPaths) -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    let mut e = Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        config,
    );
    e.set_fast_paths(paths);
    e
}

/// A Qwen-32B engine on an 8-GPU node under Shift Parallelism, on the
/// given rung.
pub fn shift_engine(config: EngineConfig, paths: FastPaths) -> Engine {
    let mut engine = Engine::new(
        ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b()),
        Box::new(ShiftPolicy::with_default_threshold(ParallelConfig::sequence(8))),
        config,
    );
    engine.set_fast_paths(paths);
    engine
}

/// Load-band autoscaling between 1 and 4 replicas.
#[derive(Debug, Clone, Copy)]
pub struct Scaling {
    pub cold_start: f64,
    pub hi: f64,
    pub lo: f64,
}

/// A JSQ-routed cluster the equivalence helpers build on any rung.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Replicas at start.
    pub n: usize,
    /// Every engine's knobs.
    pub config: EngineConfig,
    /// Shift engines on an 8-GPU node instead of one-GPU DP replicas.
    pub shift: bool,
    pub faults: Option<(FaultPlan, RetryPolicy)>,
    /// Spawns DP replicas only.
    pub scaling: Option<Scaling>,
}

impl Cluster {
    pub fn dp(n: usize, config: EngineConfig) -> Cluster {
        Cluster { n, config, shift: false, faults: None, scaling: None }
    }

    /// The engines on `paths`.
    fn nodes(&self, paths: FastPaths) -> Vec<Engine> {
        let engine = if self.shift { shift_engine } else { dp_engine };
        (0..self.n).map(|_| engine(self.config, paths)).collect()
    }

    fn scaler(&self, paths: FastPaths) -> Option<Autoscaler<Engine>> {
        let config = self.config;
        self.scaling.map(|s| {
            Autoscaler::new(
                AutoscaleConfig {
                    cold_start: Dur::from_secs(s.cold_start),
                    min_replicas: 1,
                    max_replicas: 4,
                },
                Box::new(
                    LoadBandPolicy::new(s.hi, s.lo).smoothing(0.5).cooldown(Dur::from_secs(2.0)),
                ),
                move |_| dp_engine(config, paths),
            )
        })
    }

    /// The cluster over engines on `paths`: the one-event spec loop
    /// (`ClusterSim::reference`) when `spec`, else the horizon-window
    /// loop.
    pub fn sim(&self, spec: bool, paths: FastPaths) -> ClusterSim<Engine> {
        let nodes = self.nodes(paths);
        let policy = RoutingKind::JoinShortestOutstanding.policy();
        let mut sim = if spec {
            ClusterSim::reference(nodes, policy)
        } else {
            ClusterSim::new(nodes, policy)
        };
        if let Some(scaler) = self.scaler(paths) {
            sim = sim.with_autoscaler(scaler);
        }
        if let Some((plan, retry)) = &self.faults {
            sim = sim.with_faults(plan.clone(), *retry);
        }
        sim
    }
}

/// `dump` with its per-iteration timeline line as an engine with the
/// timeline off prints it: such an engine must dump what the same
/// engine with the timeline on dumps, but for that line.
pub fn without_timeline(dump: &str) -> String {
    dump.lines()
        .map(|line| {
            if line.starts_with("iteration_timeline: ") {
                "iteration_timeline: None"
            } else {
                line
            }
        })
        .flat_map(|line| [line, "\n"])
        .collect()
}

/// Panics unless the two dumps are equal, naming `what` and the first
/// line where they differ, excerpted around its first differing byte.
pub fn assert_dumps_eq(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    let (g, w) = got.lines().zip(want.lines()).find(|(g, w)| g != w).unwrap_or(("", ""));
    let at = g.bytes().zip(w.bytes()).take_while(|(a, b)| a == b).count();
    let key = g.split(':').next().unwrap_or_default();
    let excerpt = |line: &str| {
        line.get(at.saturating_sub(80)..(at + 80).min(line.len())).unwrap_or(line).to_owned()
    };
    panic!(
        "{what}: dumps differ on `{key}` at byte {at}\n   got: {}\n  want: {}",
        excerpt(g),
        excerpt(w)
    );
}

/// Panics unless `report` accounts for every request of `trace` exactly
/// once — completed, rejected or failed — and its KV utilization never
/// exceeded the cache. A report whose dump matches this one's passes
/// too, so the equivalence helpers check the spec's report alone.
pub fn assert_conserved(report: &EngineReport, trace: &Trace, what: &str) {
    let mut outcomes: Vec<u64> = report
        .records()
        .iter()
        .map(|r| r.request_id)
        .chain(report.rejected().iter().copied())
        .chain(report.failed().iter().map(|f| f.request_id))
        .collect();
    outcomes.sort_unstable();
    let mut pushed: Vec<u64> = trace.requests().iter().map(|r| r.id).collect();
    pushed.sort_unstable();
    assert_eq!(outcomes, pushed, "{what}: every request ends exactly once");
    let peak = report.peak_kv_utilization();
    assert!(peak <= 1.0, "{what}: KV utilization peaked at {peak}");
}

/// Asserts that windowed `ClusterSim` runs of `cluster` reproduce the
/// executable spec, the reference loop over `Reference`-rung engines:
/// every rung at width 1, and the default `MacroSteps` rung at every
/// width in [`WIDTHS`]. Each run must match the spec's dump.
pub fn assert_rungs_match(cluster: &Cluster, trace: &Trace) {
    let widened = WIDTHS[1..].iter().map(|&w| (FastPaths::MacroSteps, w));
    let runs = RUNGS.iter().map(|&p| (p, 1)).chain(widened);
    assert_windows_match(cluster, trace, FastPaths::Reference, runs);
}

/// Asserts that windowed `ClusterSim` runs of `cluster` at every width
/// in [`WIDTHS`] reproduce the reference loop over the same
/// `MacroSteps`-rung engines. Both loops step identical engines, so a
/// divergence here lies in the window loop, not in an engine rung.
pub fn assert_widths_match(cluster: &Cluster, trace: &Trace) {
    let runs = WIDTHS.iter().map(|&w| (FastPaths::MacroSteps, w));
    assert_windows_match(cluster, trace, FastPaths::MacroSteps, runs);
}

/// Runs the reference loop over engines on `spec_paths`, then each
/// `(rung, width)` windowed run, and asserts each matches the spec's
/// dump.
fn assert_windows_match(
    cluster: &Cluster,
    trace: &Trace,
    spec_paths: FastPaths,
    runs: impl Iterator<Item = (FastPaths, usize)>,
) {
    let spec_report = cluster.sim(true, spec_paths).run(trace);
    assert_conserved(&spec_report, trace, &format!("the {spec_paths:?}-rung reference loop"));
    let spec = spec_report.dump();
    for (paths, width) in runs {
        let sim = cluster.sim(false, paths);
        let what =
            format!("{paths:?} windows at width {width} vs the {spec_paths:?}-rung reference loop");
        assert_dumps_eq(&sim.with_threads(width).run(trace).dump(), &spec, &what);
    }
}

/// Drives the window loop (default rung) and the spec loop (`Reference`
/// rung) over `cluster` together: before arrival `k` both take
/// `steps_between[k]` single steps, then both drain. Their next-event
/// instants must agree bit-for-bit before every step, and their final
/// dumps must match.
pub fn assert_lockstep(cluster: &Cluster, trace: &Trace, steps_between: &[usize]) {
    let mut windowed = cluster.sim(false, FastPaths::MacroSteps);
    let mut spec = cluster.sim(true, FastPaths::Reference);
    let step = |windowed: &mut ClusterSim<Engine>, spec: &mut ClusterSim<Engine>| {
        let bits = |t: Option<SimTime>| t.map(|t| t.as_secs().to_bits());
        assert_eq!(
            bits(windowed.next_event_time()),
            bits(spec.next_event_time()),
            "next-event divergence"
        );
        windowed.step_once();
        spec.step_once();
    };
    for (k, &req) in trace.requests().iter().enumerate() {
        for _ in 0..steps_between.get(k).copied().unwrap_or(0) {
            step(&mut windowed, &mut spec);
        }
        windowed.push_request(req);
        spec.push_request(req);
    }
    let mut guard: u64 = 0;
    while windowed.next_event_time().is_some() || spec.next_event_time().is_some() {
        step(&mut windowed, &mut spec);
        guard += 1;
        assert!(guard < 2_000_000, "drain failed to terminate");
    }
    let what = "window loop vs the reference loop in lockstep";
    let spec_report = spec.take_report();
    assert_conserved(&spec_report, trace, what);
    assert_dumps_eq(&windowed.take_report().dump(), &spec_report.dump(), what);
}

//! The benchmark's four workloads and one repetition of each.
//!
//! Every workload is open loop in *simulated* time: its trace is
//! generated from the seed before the first dispatch, and arrivals keep
//! their scheduled instants whatever the simulator does, so there is no
//! generator that can run late.

use crate::outcome::{fingerprint, summarize, Outcome};
use crate::probe::{Probe, TimedNode, TimedPolicy, TimedRouter, TimedScale};
use shift_core::{Deployment, DeploymentKind, Fleet, ShiftPolicy};
use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
use sp_engine::{
    AutoscaleConfig, Autoscaler, ClusterSim, Engine, EngineConfig, EngineReport, FaultPlan,
    LoadBandPolicy, RetryPolicy, RoutingKind, ScalePolicy, SimNode,
};
use sp_metrics::{ClassSlo, Dur};
use sp_model::presets;
use sp_parallel::memory::DEFAULT_MEM_FRACTION;
use sp_parallel::{ExecutionModel, ParallelConfig, ParallelismPolicy, StaticPolicy};
use sp_workload::bursty::BurstyConfig;
use sp_workload::sizes::LengthDist;
use sp_workload::Trace;
use std::sync::Arc;
use std::time::Instant;

/// KV capacity of the single-GPU DP replicas: few sequences fit, so
/// bursts pile into deep KV-blocked waiting queues.
const BOUND_KV: u64 = 24_576;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 single-H200 DP engines behind JSQ on a deep-burst trace.
    DpBurst,
    /// 8 Llama-70B Shift deployments behind `Fleet` on the paper's
    /// bursty trace.
    ShiftDynamic,
    /// 64 Shift engines on one burst of long outputs, then drain.
    ShiftDrain,
    /// The `DpBurst` trace family on an autoscaled fleet with crashes.
    DpChaos,
}

/// Trace and fleet size: `Full` is what the benchmark measures, `Small`
/// keeps the same shape at a size a debug-build test can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// How one repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOpts {
    /// Wrap every layer in the timing wrappers of [`crate::probe`].
    pub traced: bool,
    /// Horizon fan-out width; `None` keeps the library default.
    pub threads: Option<usize>,
}

/// Where a traced repetition's wall time went.
#[derive(Debug)]
pub struct Layers {
    pub probe: Arc<Probe>,
    pub dispatch_s: f64,
    pub drain_s: f64,
    pub report_s: f64,
    pub summarize_s: f64,
}

/// Size of the generated trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceStats {
    pub requests: usize,
    pub prompt_tokens: u64,
    pub output_tokens: u64,
}

/// What one repetition measured.
#[derive(Debug)]
pub struct Rep {
    pub trace: TraceStats,
    pub gen_s: f64,
    pub build_s: f64,
    /// Replicas built before the first dispatch.
    pub nodes: usize,
    /// First dispatch to summarized outcome.
    pub wall_s: f64,
    /// Horizon fan-out width the simulation ran at.
    pub threads: usize,
    pub outcome: Outcome,
    /// Order-independent hash of the simulated output.
    pub fingerprint: u64,
    /// Shift switches counted by the deployments themselves, for the
    /// workload whose policies the library builds (and the benchmark
    /// therefore cannot wrap).
    pub deployment_switches: Option<u64>,
    pub layers: Option<Layers>,
}

impl Rep {
    /// Trace generation plus fleet construction, up to the first dispatch.
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.build_s
    }
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::DpBurst, Workload::ShiftDynamic, Workload::ShiftDrain, Workload::DpChaos];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DpBurst => "dp_burst",
            Workload::ShiftDynamic => "shift_dynamic",
            Workload::ShiftDrain => "shift_drain",
            Workload::DpChaos => "dp_chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one repetition: generate the trace, build the fleet, simulate
    /// and summarize.
    pub fn run(self, size: Size, seed: u64, opts: RunOpts) -> Rep {
        let start = Instant::now();
        let trace = self.trace(size, seed);
        let gen_s = start.elapsed().as_secs_f64();
        let probe = opts.traced.then(Probe::new);
        let driven = match self {
            Workload::ShiftDynamic => shift_dynamic(size, &trace, opts, probe.as_ref()),
            _ => self.engine_fleet(size, seed, &trace, opts, probe.as_ref()),
        };
        let m = driven.marks;
        let layers = probe.map(|probe| {
            // Every wrapper has been dropped with its simulation, so the
            // probe's totals are complete.
            let drain_end = probe
                .last_step_end()
                .map_or(m.dispatch_end, |t| t.clamp(m.dispatch_end, m.run_end));
            Layers {
                dispatch_s: (m.dispatch_end - m.start).as_secs_f64(),
                drain_s: (drain_end - m.dispatch_end).as_secs_f64(),
                report_s: (m.run_end - drain_end).as_secs_f64(),
                summarize_s: (m.done - m.run_end).as_secs_f64(),
                probe,
            }
        });
        Rep {
            trace: TraceStats {
                requests: trace.len(),
                prompt_tokens: trace.total_input_tokens(),
                output_tokens: trace.total_output_tokens(),
            },
            gen_s,
            build_s: driven.build_s,
            nodes: driven.nodes,
            wall_s: (m.done - m.start).as_secs_f64(),
            threads: driven.threads,
            fingerprint: fingerprint(&driven.report),
            outcome: driven.outcome,
            deployment_switches: driven.deployment_switches,
            layers,
        }
    }

    fn trace(self, size: Size, seed: u64) -> Trace {
        let seed = mix(seed, self as u64);
        let full = size == Size::Full;
        match self {
            Workload::DpBurst if full => dp_trace(64, 120.0, 2, 300, seed),
            // Six bursts rather than two: with the fleet still growing when
            // a burst lands, which replicas hold its backlog depends on the
            // seed, and a longer trace averages that out of the simulated
            // tail latency and replica-seconds.
            Workload::DpChaos if full => dp_trace(64, 360.0, 6, 300, seed),
            Workload::DpBurst | Workload::DpChaos => dp_trace(4, 20.0, 2, 20, seed),
            Workload::ShiftDynamic => {
                // The paper's Fig 7 trace with rate and burst size scaled
                // to the node count.
                let d = BurstyConfig::default();
                let (nodes, duration, bursts) = if full { (8, 600.0, 4) } else { (1, 100.0, 1) };
                BurstyConfig {
                    duration: Dur::from_secs(duration),
                    base_rate: d.base_rate * nodes as f64,
                    bursts,
                    burst_size: if full { d.burst_size * nodes } else { 40 },
                    seed,
                    ..d
                }
                .generate()
            }
            Workload::ShiftDrain => {
                let (r, depth, out) = if full { (64, 128, 5000.0) } else { (2, 8, 300.0) };
                BurstyConfig {
                    duration: Dur::from_secs(2.0),
                    base_rate: 0.05 * r as f64,
                    bursts: 1,
                    burst_size: depth * r,
                    burst_window: Dur::from_secs(0.25),
                    base_input: LengthDist::LogNormal { median: 150.0, sigma: 0.4 },
                    base_output: LengthDist::LogNormal { median: 400.0, sigma: 0.4 },
                    burst_input: LengthDist::LogNormal { median: 200.0, sigma: 0.3 },
                    burst_output: LengthDist::LogNormal { median: out, sigma: 0.1 },
                    seed,
                }
                .generate()
            }
        }
    }

    /// The three workloads whose replicas the benchmark builds as
    /// `Engine`s itself, so their parallelism policies can be wrapped.
    fn engine_fleet(
        self,
        size: Size,
        seed: u64,
        trace: &Trace,
        opts: RunOpts,
        probe: Option<&Arc<Probe>>,
    ) -> Driven {
        let full = size == Size::Full;
        let start = Instant::now();
        let replica = match self {
            Workload::ShiftDrain => Replica::shift_qwen(),
            _ => Replica::Dp,
        };
        let base = replica.base();
        let router = RoutingKind::default().policy();
        if self != Workload::DpChaos {
            let n = match (self, full) {
                (_, true) => 64,
                (Workload::ShiftDrain, false) => 2,
                _ => 4,
            };
            return match probe {
                None => {
                    let nodes = (0..n).map(|_| replica.engine(None)).collect();
                    drive(ClusterSim::new(nodes, router), trace, opts, start, base, no_switches)
                }
                Some(p) => {
                    let nodes =
                        (0..n).map(|_| TimedNode::new(replica.engine(Some(p)), p)).collect();
                    let sim = ClusterSim::new(nodes, Box::new(TimedRouter::new(router, p)));
                    drive(sim, trace, opts, start, base, no_switches)
                }
            };
        }

        let peak = if full { 64 } else { 4 };
        let horizon = Dur::from_secs(if full { 360.0 } else { 20.0 });
        // MTTF of a quarter of the trace: a handful of crashes, each
        // exercising salvage, backoff redelivery and respawn.
        let plan = FaultPlan::crashes_poisson(mix(seed, 0xC4A5), horizon * 0.25, horizon, peak);
        let retry = RetryPolicy { max_retries: 3, base_backoff: Dur::from_secs(0.25) };
        let bounds = AutoscaleConfig {
            cold_start: Dur::from_secs(2.0),
            min_replicas: 1,
            max_replicas: peak,
        };
        let scaler = || -> Box<dyn ScalePolicy> {
            Box::new(LoadBandPolicy::new(600.0, 80.0).smoothing(0.7).cooldown(Dur::from_secs(1.0)))
        };
        match probe {
            None => {
                let spawn = move |_: usize| replica.engine(None);
                let sim = ClusterSim::new(vec![replica.engine(None)], router)
                    .with_autoscaler(Autoscaler::new(bounds, scaler(), spawn))
                    .with_faults(plan, retry);
                drive(sim, trace, opts, start, base, no_switches)
            }
            Some(p) => {
                let sp = Arc::clone(p);
                let spawn = move |_: usize| {
                    sp.time_spawn(|| TimedNode::new(replica.engine(Some(&sp)), &sp))
                };
                let first = TimedNode::new(replica.engine(Some(p)), p);
                let scaler = Box::new(TimedScale::new(scaler(), p));
                let sim = ClusterSim::new(vec![first], Box::new(TimedRouter::new(router, p)))
                    .with_autoscaler(Autoscaler::new(bounds, scaler, spawn))
                    .with_faults(plan, retry);
                drive(sim, trace, opts, start, base, no_switches)
            }
        }
    }
}

/// The paper's Fig 7 regime through the public deployment API: Shift
/// deployments built by `Deployment::builder`, served behind
/// `shift_core::fleet::Fleet`. Traced and explicit-width runs put the
/// same deployments into a `ClusterSim` themselves, as `Fleet::run` does,
/// because `Fleet` exposes neither its nodes nor its width; the
/// fingerprint check shows that both paths produce the same output.
fn shift_dynamic(size: Size, trace: &Trace, opts: RunOpts, probe: Option<&Arc<Probe>>) -> Driven {
    let n = if size == Size::Full { 8 } else { 1 };
    let start = Instant::now();
    let node = NodeSpec::p5en_48xlarge();
    let model = presets::llama_70b();
    let base = Deployment::auto_base(&node, &model, DEFAULT_MEM_FRACTION)
        .expect("Llama-70B lays out on an 8-GPU node");
    let builder = || {
        Deployment::builder(node, model.clone())
            .kind(DeploymentKind::Shift)
            .class_slo(ClassSlo::default())
    };
    let build = || -> Vec<Deployment> {
        (0..n).map(|_| builder().build().expect("Llama-70B Shift deployment builds")).collect()
    };
    let sum_switches = |stats: Vec<Option<(u64, u64, u64)>>| -> Option<u64> {
        stats.into_iter().map(|s| s.map(|(_, _, switches)| switches)).sum()
    };
    let bin = Dur::from_secs(1.0);
    match (probe, opts.threads) {
        (None, None) => {
            let mut fleet = Fleet::new(n, builder).expect("Llama-70B Shift deployment builds");
            let build_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let mut report = fleet.run(trace);
            let run_end = Instant::now();
            let outcome = summarize(&mut report, trace.len(), base);
            Driven {
                build_s,
                nodes: n,
                threads: sp_core::default_threads(),
                outcome,
                report,
                marks: Marks { start, dispatch_end: run_end, run_end, done: Instant::now() },
                deployment_switches: fleet.shift_stats().map(|(_, _, s)| s),
            }
        }
        (None, Some(_)) => {
            let sim = ClusterSim::new(build(), RoutingKind::default().policy()).throughput_bin(bin);
            drive(sim, trace, opts, start, base, |nodes: Vec<Deployment>| {
                sum_switches(nodes.iter().map(Deployment::shift_stats).collect())
            })
        }
        (Some(p), _) => {
            let nodes = build().into_iter().map(|d| TimedNode::new(d, p)).collect();
            let router = Box::new(TimedRouter::new(RoutingKind::default().policy(), p));
            let sim = ClusterSim::new(nodes, router).throughput_bin(bin);
            drive(sim, trace, opts, start, base, |nodes: Vec<TimedNode<Deployment>>| {
                sum_switches(nodes.iter().map(|n| n.inner().shift_stats()).collect())
            })
        }
    }
}

/// A replica the benchmark builds as an `Engine`.
#[derive(Debug, Clone, Copy)]
enum Replica {
    /// Qwen-32B on one H200, SLO-aware, KV bounded at [`BOUND_KV`].
    Dp,
    /// Qwen-32B on an 8×H200 node under `ShiftPolicy` at `base`, with
    /// exact pricing (no decode memo).
    Shift { base: ParallelConfig },
}

impl Replica {
    fn shift_qwen() -> Replica {
        let base = Deployment::auto_base(
            &NodeSpec::p5en_48xlarge(),
            &presets::qwen_32b(),
            DEFAULT_MEM_FRACTION,
        )
        .expect("Qwen-32B lays out on an 8-GPU node");
        Replica::Shift { base }
    }

    /// The configuration the base-share metric counts.
    fn base(self) -> ParallelConfig {
        match self {
            Replica::Dp => ParallelConfig::single(),
            Replica::Shift { base } => base,
        }
    }

    fn engine(self, probe: Option<&Arc<Probe>>) -> Engine {
        match self {
            Replica::Dp => Engine::new(
                ExecutionModel::new(
                    NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch()),
                    presets::qwen_32b(),
                ),
                policy(StaticPolicy::new("DP", ParallelConfig::single()), probe),
                EngineConfig {
                    class_slo: Some(ClassSlo::default()),
                    kv_capacity_tokens: BOUND_KV,
                    ..EngineConfig::default()
                },
            ),
            Replica::Shift { base } => Engine::new(
                ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b()),
                policy(ShiftPolicy::with_default_threshold(base), probe),
                EngineConfig::default(),
            ),
        }
    }
}

fn policy(
    p: impl ParallelismPolicy + 'static,
    probe: Option<&Arc<Probe>>,
) -> Box<dyn ParallelismPolicy> {
    match probe {
        None => Box::new(p),
        Some(probe) => Box::new(TimedPolicy::new(Box::new(p), probe)),
    }
}

/// The headline deep-burst trace family: a steady interactive stream of
/// 0.5 req/s per replica plus evenly spaced 5 s bursts of `burst_depth`
/// long batch-class prompts per replica.
fn dp_trace(
    replicas: usize,
    duration_s: f64,
    bursts: usize,
    burst_depth: usize,
    seed: u64,
) -> Trace {
    BurstyConfig {
        duration: Dur::from_secs(duration_s),
        base_rate: 0.5 * replicas as f64,
        bursts,
        burst_size: burst_depth * replicas,
        burst_window: Dur::from_secs(5.0),
        base_input: LengthDist::LogNormal { median: 450.0, sigma: 0.6 },
        base_output: LengthDist::LogNormal { median: 120.0, sigma: 0.5 },
        burst_input: LengthDist::LogNormal { median: 2000.0, sigma: 0.8 },
        burst_output: LengthDist::LogNormal { median: 150.0, sigma: 0.5 },
        seed,
    }
    .generate()
}

/// SplitMix64 of `seed` salted with `salt`: an independent stream per
/// workload and per random input of a workload.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn no_switches<N>(_: Vec<N>) -> Option<u64> {
    None
}

/// Instants of one simulation, from the first dispatch.
#[derive(Debug, Clone, Copy)]
struct Marks {
    start: Instant,
    /// All requests dispatched (traced runs only; otherwise `run_end`).
    dispatch_end: Instant,
    /// Drained and merged into one report.
    run_end: Instant,
    /// Outcome summarized.
    done: Instant,
}

/// One simulated and summarized run.
#[derive(Debug)]
struct Driven {
    build_s: f64,
    nodes: usize,
    threads: usize,
    outcome: Outcome,
    report: EngineReport,
    marks: Marks,
    deployment_switches: Option<u64>,
}

/// Simulates `trace` on `sim` and summarizes the report. Untraced runs
/// call `ClusterSim::run`, the call users make. Traced runs make the same
/// calls in two parts, dispatching request by request and then draining
/// with an empty `run`, so that dispatch can be timed on its own.
/// `switches` reads the nodes' own shift statistics before the nodes, and
/// with them the wrappers' counters, are dropped.
fn drive<N: SimNode>(
    mut sim: ClusterSim<N>,
    trace: &Trace,
    opts: RunOpts,
    build_start: Instant,
    base: ParallelConfig,
    switches: impl FnOnce(Vec<N>) -> Option<u64>,
) -> Driven {
    if let Some(t) = opts.threads {
        sim.set_threads(t);
    }
    let nodes = sim.node_count();
    let build_s = build_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (mut report, dispatch_end) = if opts.traced {
        for &req in trace.requests() {
            sim.push_request(req);
        }
        let dispatch_end = Instant::now();
        (sim.run(&Trace::new(Vec::new())), Some(dispatch_end))
    } else {
        (sim.run(trace), None)
    };
    let run_end = Instant::now();
    let outcome = summarize(&mut report, trace.len(), base);
    let done = Instant::now();
    let threads = sim.threads();
    Driven {
        build_s,
        nodes,
        threads,
        outcome,
        report,
        marks: Marks { start, dispatch_end: dispatch_end.unwrap_or(run_end), run_end, done },
        deployment_switches: switches(sim.into_nodes()),
    }
}

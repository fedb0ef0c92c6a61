//! The deployment facade: build and run TP / DP / SP / Shift serving
//! systems on a node.
//!
//! This is the crate's main entry point. It wires together the memory
//! plan (KV capacity from the weight footprint), the invariance check,
//! the parallelism policy, and the serving engine(s).

use crate::invariance::InvarianceCertificate;
use crate::policy::{ShiftPolicy, DEFAULT_SHIFT_THRESHOLD};
use crate::weights::{ShiftWeightPlan, WeightStrategy};
use sp_cluster::NodeSpec;
use sp_engine::{ClusterSim, Engine, EngineConfig, EngineReport, RoutingKind, RunAdvance, SimNode};
use sp_metrics::{Dur, SimTime};
use sp_model::ModelConfig;
use sp_parallel::{
    EngineOverhead, ExecutionModel, MemoryPlan, ParallelConfig, ParallelismPolicy, StaticPolicy,
};
use sp_workload::Trace;
use std::fmt;

/// Minimum group-wide KV capacity (tokens) a base configuration must leave
/// for [`Deployment::auto_base`] to accept it (§3.2.2's "enough room for
/// KV cache for providing concurrency and high throughput"; §4.6 rejects
/// Llama-17B-16E at SP=8 because ~600k tokens cannot sustain concurrent
/// long contexts).
pub const MIN_KV_TOKENS_FOR_BASE: u64 = 800_000;

/// Which serving strategy to deploy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentKind {
    /// Latency-optimized vLLM baseline: full TP across the node.
    TensorParallel,
    /// Throughput-optimized vLLM baseline: one replica per GPU.
    DataParallel,
    /// Pure Ulysses SP across the node.
    SequenceParallel,
    /// Shift Parallelism with an automatically chosen base configuration
    /// and the default threshold.
    Shift,
    /// Shift Parallelism with an explicit base and threshold.
    ShiftWithBase {
        /// The base `(SP, TP)` configuration.
        base: ParallelConfig,
        /// Switching threshold in batched tokens.
        threshold: u64,
    },
    /// Any fixed `(SP, TP)` configuration.
    Static(ParallelConfig),
}

/// Why a deployment could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeploymentError {
    /// Weights do not fit the GPUs under the requested configuration.
    DoesNotFit {
        /// The offending configuration.
        config: ParallelConfig,
        /// Required weight bytes per GPU.
        needed: u64,
        /// Usable bytes per GPU.
        available: u64,
    },
    /// KV heads cannot be laid out for the configuration.
    Layout(String),
    /// The base/shift pair violates KV-cache invariance.
    Invariance(String),
    /// A data-parallel deployment was asked to serve as one node of a
    /// [`crate::fleet::Fleet`]. Its replicas sit behind their own router,
    /// and a node is one engine: clusters do not nest.
    NotANode,
}

impl fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeploymentError::DoesNotFit { config, needed, available } => write!(
                f,
                "weights need {needed} bytes/GPU under {config} but only {available} usable"
            ),
            DeploymentError::Layout(e) => write!(f, "invalid KV layout: {e}"),
            DeploymentError::Invariance(e) => write!(f, "invariance violated: {e}"),
            DeploymentError::NotANode => write!(
                f,
                "a data-parallel deployment is a cluster of replicas, not a single-engine \
                 node; serve it with `Deployment::run`"
            ),
        }
    }
}

impl std::error::Error for DeploymentError {}

/// The §3.3.2 weight strategy every Shift deployment plans its
/// memory for. `ablations` compares it with the alternative through
/// [`ShiftWeightPlan`] directly.
const WEIGHT_STRATEGY: WeightStrategy = WeightStrategy::SeparateModels;

/// Builder for [`Deployment`].
#[derive(Debug, Clone)]
pub struct DeploymentBuilder {
    node: NodeSpec,
    model: ModelConfig,
    kind: DeploymentKind,
    overhead: EngineOverhead,
    mem_fraction: f64,
    prefill_flops_scale: f64,
    routing: RoutingKind,
    /// Every engine's scheduler knobs; `build` fills in the KV capacity
    /// from the memory plan.
    engine: EngineConfig,
}

impl DeploymentBuilder {
    fn new(node: NodeSpec, model: ModelConfig) -> DeploymentBuilder {
        DeploymentBuilder {
            node,
            model,
            kind: DeploymentKind::Shift,
            overhead: EngineOverhead::default(),
            mem_fraction: sp_parallel::memory::DEFAULT_MEM_FRACTION,
            prefill_flops_scale: 1.0,
            routing: RoutingKind::default(),
            engine: EngineConfig::default(),
        }
    }

    /// Enables SLO-aware scheduling: per-class TTFT deadlines drive
    /// admission order, batch-prefill deferral, and shedding (see
    /// [`sp_engine::EngineConfig::class_slo`]). Pair with
    /// [`RoutingKind::EarliestDeadlineFeasible`] for deadline-aware
    /// dispatch across replicas.
    pub fn class_slo(mut self, slo: sp_metrics::ClassSlo) -> DeploymentBuilder {
        self.engine.class_slo = Some(slo);
        self
    }

    /// Selects the online routing policy for multi-replica deployments
    /// (default: join-shortest-outstanding-tokens). Single-engine
    /// deployments ignore it.
    pub fn routing(mut self, kind: RoutingKind) -> DeploymentBuilder {
        self.routing = kind;
        self
    }

    /// Honors requests' cached prefixes (automatic prefix caching).
    pub fn prefix_caching(mut self, on: bool) -> DeploymentBuilder {
        self.engine.prefix_caching = on;
        self
    }

    /// Records a per-iteration timeline in reports (default off).
    pub fn record_timeline(mut self, on: bool) -> DeploymentBuilder {
        self.engine.record_timeline = on;
        self
    }

    /// Caps prefill tokens per iteration (Sarathi-Serve-style decode
    /// protection; default: uncapped).
    pub fn max_prefill_tokens(mut self, cap: u64) -> DeploymentBuilder {
        self.engine.max_prefill_tokens = Some(cap);
        self
    }

    /// Selects the waiting-queue admission order (default: FCFS).
    pub fn queue_policy(mut self, policy: sp_engine::QueuePolicy) -> DeploymentBuilder {
        self.engine.queue_policy = policy;
        self
    }

    /// Selects the KV admission mode (default: reserve-full; see
    /// [`sp_engine::AdmissionMode`]).
    pub fn admission(mut self, mode: sp_engine::AdmissionMode) -> DeploymentBuilder {
        self.engine.admission = mode;
        self
    }

    /// Enables speculative decoding (§4.5 composition).
    pub fn spec_decode(mut self, sd: sp_engine::SpecDecode) -> DeploymentBuilder {
        self.engine.spec_decode = Some(sd);
        self
    }

    /// Scales prefill linear FLOPs — the SwiftKV composition hook (§4.5).
    pub fn prefill_flops_scale(mut self, scale: f64) -> DeploymentBuilder {
        self.prefill_flops_scale = scale;
        self
    }

    /// Selects the serving strategy (default: [`DeploymentKind::Shift`]).
    pub fn kind(mut self, kind: DeploymentKind) -> DeploymentBuilder {
        self.kind = kind;
        self
    }

    /// Overrides the engine CPU overhead model.
    pub fn overhead(mut self, overhead: EngineOverhead) -> DeploymentBuilder {
        self.overhead = overhead;
        self
    }

    /// Sets the chunked-prefill token budget per iteration.
    pub fn max_batched_tokens(mut self, budget: u64) -> DeploymentBuilder {
        self.engine.max_batched_tokens = budget;
        self
    }

    /// Sets the maximum concurrent sequences.
    pub fn max_seqs(mut self, max: usize) -> DeploymentBuilder {
        self.engine.max_seqs = max;
        self
    }

    /// Sets the throughput time-series bin width for reports.
    pub fn throughput_bin(mut self, bin: Dur) -> DeploymentBuilder {
        self.engine.throughput_bin = bin;
        self
    }

    /// Sets the usable GPU memory fraction.
    pub fn mem_fraction(mut self, fraction: f64) -> DeploymentBuilder {
        self.mem_fraction = fraction;
        self
    }

    /// The memory plan of `config` on `node` with `extra` weight bytes
    /// per GPU, or why the weights do not fit.
    fn check_fit(
        &self,
        node: &NodeSpec,
        config: ParallelConfig,
        extra: u64,
    ) -> Result<MemoryPlan, DeploymentError> {
        let plan =
            MemoryPlan::plan_with_extra(node, &self.model, &config, extra, self.mem_fraction)
                .map_err(|e| DeploymentError::Layout(e.to_string()))?;
        if !plan.fits {
            return Err(DeploymentError::DoesNotFit {
                config,
                needed: plan.weight_bytes_per_gpu,
                available: (node.gpu.mem_bytes as f64 * self.mem_fraction) as u64,
            });
        }
        Ok(plan)
    }

    /// One engine on `node` under `policy`, with `plan`'s KV capacity.
    fn engine(
        &self,
        node: NodeSpec,
        policy: Box<dyn ParallelismPolicy>,
        plan: &MemoryPlan,
    ) -> Engine {
        let mut exec = ExecutionModel::with_overhead(node, self.model.clone(), self.overhead);
        if self.prefill_flops_scale < 1.0 {
            exec.set_prefill_flops_scale(self.prefill_flops_scale);
        }
        Engine::new(
            exec,
            policy,
            EngineConfig { kv_capacity_tokens: plan.kv_capacity_tokens, ..self.engine },
        )
    }

    /// Builds the deployment.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if weights do not fit, KV heads cannot
    /// be laid out, or (for shift deployments) invariance fails.
    pub fn build(self) -> Result<Deployment, DeploymentError> {
        let gpus = self.node.gpu_count;
        let deployment = |kv_capacity_tokens, shift_policy, inner| Deployment {
            kind: self.kind,
            kv_capacity_tokens,
            shift_policy,
            routing: self.routing,
            inner,
        };
        let (config, name) = match self.kind {
            DeploymentKind::TensorParallel => (ParallelConfig::tensor(gpus), "TP"),
            DeploymentKind::SequenceParallel => (ParallelConfig::sequence(gpus), "SP"),
            DeploymentKind::Static(config) => (config, "static"),
            DeploymentKind::DataParallel => {
                let replica_node = NodeSpec { gpu_count: 1, ..self.node };
                let config = ParallelConfig::single();
                let plan = self.check_fit(&replica_node, config, 0)?;
                let replicas = (0..gpus)
                    .map(|_| {
                        self.engine(replica_node, Box::new(StaticPolicy::new("DP", config)), &plan)
                    })
                    .collect();
                return Ok(deployment(
                    plan.kv_capacity_tokens * gpus as u64,
                    None,
                    Inner::Replicas(replicas),
                ));
            }
            DeploymentKind::Shift | DeploymentKind::ShiftWithBase { .. } => {
                let (base, threshold) = match self.kind {
                    DeploymentKind::ShiftWithBase { base, threshold } => (base, threshold),
                    _ => (
                        Deployment::auto_base(&self.node, &self.model, self.mem_fraction)
                            .map_err(|e| DeploymentError::Layout(e.to_string()))?,
                        DEFAULT_SHIFT_THRESHOLD,
                    ),
                };
                InvarianceCertificate::verify(&self.model, base)
                    .map_err(|e| DeploymentError::Invariance(e.to_string()))?;
                let weight_plan = ShiftWeightPlan::new(&self.model, base, WEIGHT_STRATEGY);
                let plan =
                    self.check_fit(&self.node, base, weight_plan.shift_extra_bytes_per_gpu())?;
                let policy = ShiftPolicy::new(base, threshold);
                let engine = self.engine(self.node, Box::new(policy), &plan);
                return Ok(deployment(
                    plan.kv_capacity_tokens,
                    Some(policy),
                    Inner::Single(Box::new(engine)),
                ));
            }
        };
        let plan = self.check_fit(&self.node, config, 0)?;
        let engine = self.engine(self.node, Box::new(StaticPolicy::new(name, config)), &plan);
        Ok(deployment(plan.kv_capacity_tokens, None, Inner::Single(Box::new(engine))))
    }
}

#[derive(Debug)]
enum Inner {
    Single(Box<Engine>),
    /// DP: one engine per GPU, which [`Deployment::run`] serves behind
    /// the deployment's router.
    Replicas(Vec<Engine>),
}

/// A built serving deployment, ready to run traces.
///
/// # Examples
///
/// ```
/// use shift_core::{Deployment, DeploymentKind};
/// use sp_cluster::NodeSpec;
/// use sp_model::presets;
/// use sp_workload::synthetic;
///
/// let mut tp = Deployment::builder(NodeSpec::p5en_48xlarge(), presets::qwen_32b())
///     .kind(DeploymentKind::TensorParallel)
///     .build()
///     .unwrap();
/// let report = tp.run(&synthetic::uniform_batch(4, 1024, 8));
/// assert_eq!(report.records().len(), 4);
/// ```
#[derive(Debug)]
pub struct Deployment {
    kind: DeploymentKind,
    kv_capacity_tokens: u64,
    shift_policy: Option<ShiftPolicy>,
    routing: RoutingKind,
    inner: Inner,
}

impl Deployment {
    /// Starts building a deployment of `model` on `node`.
    pub fn builder(node: NodeSpec, model: ModelConfig) -> DeploymentBuilder {
        DeploymentBuilder::new(node, model)
    }

    /// Chooses the base configuration per §3.2.2: the smallest TP degree
    /// (most SP) whose weights fit with at least
    /// [`MIN_KV_TOKENS_FOR_BASE`] tokens of KV capacity, accounting for
    /// the shift model's Eq. 1 overhead.
    ///
    /// # Errors
    ///
    /// Returns the layout error of the last candidate if none fits.
    pub fn auto_base(
        node: &NodeSpec,
        model: &ModelConfig,
        mem_fraction: f64,
    ) -> Result<ParallelConfig, sp_kvcache::layout::LayoutError> {
        let gpus = node.gpu_count;
        let shift_extra = model.weight_bytes() / gpus as u64;
        let mut tp = 1;
        let mut last_err = None;
        while tp <= gpus {
            if gpus.is_multiple_of(tp) {
                let base = ParallelConfig::new(gpus / tp, tp);
                match MemoryPlan::plan_with_extra(node, model, &base, shift_extra, mem_fraction) {
                    Ok(plan) if plan.fits && plan.kv_capacity_tokens >= MIN_KV_TOKENS_FOR_BASE => {
                        return Ok(base);
                    }
                    Ok(_) => {}
                    Err(e) => last_err = Some(e),
                }
            }
            tp *= 2;
        }
        match last_err {
            Some(e) => Err(e),
            // Everything laid out but nothing left KV room: fall back to
            // full TP (no SP benefit, but functional).
            None => Ok(ParallelConfig::tensor(gpus)),
        }
    }

    /// The deployment's strategy.
    pub fn kind(&self) -> DeploymentKind {
        self.kind
    }

    /// Total KV-cache capacity in tokens (summed across DP replicas).
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.kv_capacity_tokens
    }

    /// For shift deployments: `(base_iterations, shift_iterations,
    /// switches)` since the deployment was built, as its engine counts
    /// them (an open decode run's iterations included): the sums of its
    /// runs' reports, since no switch spans two runs.
    pub fn shift_stats(&self) -> Option<(u64, u64, u64)> {
        let policy = self.shift_policy?;
        let engine = self.engine();
        let base = engine.iterations_under(policy.base());
        // A pure-TP base is its own shift configuration: every
        // iteration runs under the base, and none switches.
        let shift = if policy.shift() == policy.base() {
            0
        } else {
            engine.iterations_under(policy.shift())
        };
        Some((base, shift, engine.switches()))
    }

    /// Runs a trace to completion from simulated time zero. Multi-replica
    /// (DP) deployments serve it online: replicas advance together in
    /// simulated time and each request is dispatched at its arrival
    /// instant by the configured [`RoutingKind`] acting on live load.
    pub fn run(&mut self, trace: &Trace) -> EngineReport {
        match &mut self.inner {
            Inner::Single(engine) => engine.run(trace),
            Inner::Replicas(replicas) => {
                let bin = replicas[0].config().throughput_bin;
                // An empty `Engine::run` only rewinds the replica's clock
                // to zero, so every call starts where a single engine's
                // `run` starts — and a fresh router forgets the last run.
                for engine in replicas.iter_mut() {
                    engine.run(&Trace::default());
                }
                let mut sim = ClusterSim::new(std::mem::take(replicas), self.routing.policy())
                    .throughput_bin(bin);
                let report = sim.run(trace);
                *replicas = sim.into_nodes();
                report
            }
        }
    }

    /// The engine a single-engine deployment's [`SimNode`] impl forwards
    /// to.
    fn engine(&self) -> &Engine {
        match &self.inner {
            Inner::Single(engine) => engine,
            Inner::Replicas(_) => panic!("{}", DeploymentError::NotANode),
        }
    }

    fn engine_mut(&mut self) -> &mut Engine {
        match &mut self.inner {
            Inner::Single(engine) => engine,
            Inner::Replicas(_) => panic!("{}", DeploymentError::NotANode),
        }
    }
}

/// A single-engine deployment is itself a steppable node, so whole
/// fleets of them can be co-simulated behind an online router (see
/// [`crate::fleet::Fleet`]). Every method forwards to the engine.
///
/// # Panics
///
/// Every method panics on a data-parallel deployment, whose replicas
/// are served only by [`Deployment::run`] ([`DeploymentError::NotANode`]
/// names why). [`crate::fleet::Fleet::new`] rejects such a deployment
/// with that error before it can reach a cluster.
impl SimNode for Deployment {
    fn push_request(&mut self, req: sp_workload::Request) {
        self.engine_mut().push_request(req);
    }

    fn step_once(&mut self) {
        self.engine_mut().step_once();
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.engine().next_event_time()
    }

    fn outstanding_tokens(&self) -> u64 {
        self.engine().outstanding_tokens()
    }

    fn load(&self) -> sp_metrics::NodeLoad {
        self.engine().load()
    }

    fn take_report(&mut self) -> EngineReport {
        self.engine_mut().take_report()
    }

    fn take_unfinished(&mut self) -> sp_engine::SalvagedWork {
        self.engine_mut().take_unfinished()
    }

    fn set_slowdown(&mut self, factor: f64) {
        self.engine_mut().set_slowdown(factor);
    }

    fn step_run(&mut self, cap: Option<f64>) -> Option<RunAdvance> {
        self.engine_mut().step_run(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_model::presets;
    use sp_workload::synthetic;

    fn node() -> NodeSpec {
        NodeSpec::p5en_48xlarge()
    }

    fn build(kind: DeploymentKind, model: ModelConfig) -> Deployment {
        Deployment::builder(node(), model).kind(kind).build().unwrap()
    }

    #[test]
    fn auto_base_is_pure_sp_for_dense_models() {
        // Llama-70B (70 GB FP8) fits one H200 with KV to spare: SP=8.
        let base = Deployment::auto_base(&node(), &presets::llama_70b(), 0.9).unwrap();
        assert_eq!(base, ParallelConfig::sequence(8));
        let base = Deployment::auto_base(&node(), &presets::qwen_32b(), 0.9).unwrap();
        assert_eq!(base, ParallelConfig::sequence(8));
    }

    #[test]
    fn auto_base_uses_tp_for_scout() {
        // §4.6: Llama-17B-16E barely fits one GPU → (SP=4, TP=2).
        let base = Deployment::auto_base(&node(), &presets::llama_17b_16e(), 0.9).unwrap();
        assert_eq!(base, ParallelConfig::new(4, 2));
    }

    #[test]
    fn auto_base_replicates_kv_for_a3b() {
        // §4.6: Qwen-30B-A3B scales to SP=8 via KV replication.
        let base = Deployment::auto_base(&node(), &presets::qwen_30b_a3b(), 0.9).unwrap();
        assert_eq!(base, ParallelConfig::sequence(8));
    }

    #[test]
    fn all_kinds_serve_a_small_trace() {
        let trace = synthetic::uniform_batch(4, 512, 8);
        for kind in [
            DeploymentKind::TensorParallel,
            DeploymentKind::DataParallel,
            DeploymentKind::SequenceParallel,
            DeploymentKind::Shift,
        ] {
            let mut dep = build(kind, presets::qwen_32b());
            let report = dep.run(&trace);
            assert_eq!(report.records().len(), 4, "{kind:?}");
        }
    }

    #[test]
    fn shift_uses_both_configs_on_mixed_traffic() {
        let mut dep = build(DeploymentKind::Shift, presets::llama_70b());
        // A large prefill (base config) followed by a long decode tail
        // (shift config).
        let report = dep.run(&synthetic::single(8192, 64));
        let (base_iters, shift_iters, switches) = dep.shift_stats().unwrap();
        assert!(base_iters >= 1, "prefill should run in base config");
        assert!(shift_iters >= 32, "decode should run in shift config");
        assert!(switches >= 1);
        assert_eq!(report.config_usage().len(), 2);
    }

    #[test]
    fn pure_tp_base_runs_every_iteration_as_base() {
        // The shift configuration of a pure-TP base is the base itself,
        // so no iteration switches, whichever side of the threshold.
        let mut dep = Deployment::builder(node(), presets::llama_70b())
            .kind(DeploymentKind::ShiftWithBase {
                base: ParallelConfig::tensor(8),
                threshold: DEFAULT_SHIFT_THRESHOLD,
            })
            .build()
            .unwrap();
        let report = dep.run(&synthetic::single(4096, 32));
        assert_eq!(dep.shift_stats(), Some((report.iterations(), 0, 0)));
    }

    #[test]
    fn shift_threshold_is_respected() {
        let mut dep = Deployment::builder(node(), presets::llama_70b())
            .kind(DeploymentKind::ShiftWithBase { base: ParallelConfig::sequence(8), threshold: 0 })
            .build()
            .unwrap();
        // Threshold 0: every non-empty batch runs in the base config.
        let _ = dep.run(&synthetic::single(1024, 16));
        let (base_iters, shift_iters, _) = dep.shift_stats().unwrap();
        assert!(base_iters > 0);
        assert_eq!(shift_iters, 0);
    }

    #[test]
    fn shift_deployment_fast_forwards_steady_decode() {
        // `step_run` reaches the engine: once the prompt is prefilled,
        // the decode tail advances as one multi-event run.
        let mut dep = build(DeploymentKind::Shift, presets::llama_70b());
        dep.push_request(synthetic::single(1024, 64).requests()[0]);
        let mut guard = 0;
        let run = loop {
            if let Some(run) = SimNode::step_run(&mut dep, None) {
                break run;
            }
            dep.step_once();
            guard += 1;
            assert!(guard < 8, "the decode tail never fast-forwarded");
        };
        assert!(run.events > 1, "a steady decode tail is a multi-event run");
    }

    #[test]
    fn dp_kv_capacity_sums_replicas() {
        let dp = build(DeploymentKind::DataParallel, presets::qwen_32b());
        let tp = build(DeploymentKind::TensorParallel, presets::qwen_32b());
        // Each DP replica sacrifices capacity to full weight copies.
        assert!(dp.kv_capacity_tokens() < tp.kv_capacity_tokens());
    }

    #[test]
    fn oversized_model_fails_to_build_dp() {
        // Scout (109 GB) + KV cannot run one-GPU replicas with default
        // margins? It fits 126 GB usable, so artificially lower the
        // fraction to force the error path.
        let err = Deployment::builder(node(), presets::llama_17b_16e())
            .kind(DeploymentKind::DataParallel)
            .mem_fraction(0.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, DeploymentError::DoesNotFit { .. }), "{err}");
    }

    #[test]
    fn static_kind_accepts_mixed_config() {
        let mut dep =
            build(DeploymentKind::Static(ParallelConfig::new(2, 4)), presets::llama_70b());
        let report = dep.run(&synthetic::uniform_batch(2, 256, 4));
        assert_eq!(report.records().len(), 2);
        assert_eq!(report.config_usage().len(), 1);
    }

    #[test]
    fn error_display_is_informative() {
        let e = DeploymentError::DoesNotFit {
            config: ParallelConfig::single(),
            needed: 100,
            available: 50,
        };
        let msg = e.to_string();
        assert!(msg.contains("100") && msg.contains("50"));
    }

    #[test]
    fn dp_deployment_run_honours_its_routing() {
        // Under each policy a DP deployment serves every request once,
        // and `run` starts every call from rewound replicas and a fresh
        // router, so repeating it repeats the report.
        let trace = sp_workload::bursty::BurstyConfig {
            duration: Dur::from_secs(40.0),
            base_rate: 2.0,
            bursts: 2,
            burst_size: 40,
            ..sp_workload::bursty::BurstyConfig::default()
        }
        .generate();
        for kind in [
            RoutingKind::JoinShortestOutstanding,
            RoutingKind::JsqByTtft,
            RoutingKind::RoundRobin,
            RoutingKind::StaticSplit,
            RoutingKind::EarliestDeadlineFeasible(sp_metrics::ClassSlo::default()),
        ] {
            let mut dp = Deployment::builder(node(), presets::qwen_32b())
                .kind(DeploymentKind::DataParallel)
                .routing(kind)
                .build()
                .unwrap();
            let first = dp.run(&trace);
            assert_eq!(first.records().len() + first.rejected().len(), trace.len(), "{kind:?}");
            assert_eq!(first.routing_decisions().len(), trace.len(), "{kind:?}");
            assert_eq!(dp.run(&trace).dump(), first.dump(), "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not a single-engine node")]
    fn dp_deployment_is_not_a_node() {
        let mut dp = build(DeploymentKind::DataParallel, presets::qwen_32b());
        dp.push_request(synthetic::single(1024, 8).requests()[0]);
    }
}

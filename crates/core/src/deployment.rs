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
    BatchStats, EngineOverhead, ExecutionModel, MemoryPlan, ParallelConfig, ParallelismPolicy,
    StaticPolicy,
};
use sp_workload::Trace;
use std::fmt;
use std::sync::Arc;

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
        }
    }
}

impl std::error::Error for DeploymentError {}

/// Shares one policy between the deployment (for statistics) and the
/// engine (for decisions).
#[derive(Debug, Clone)]
struct SharedPolicy(Arc<dyn ParallelismPolicy>);

impl ParallelismPolicy for SharedPolicy {
    fn choose(&self, stats: &BatchStats) -> ParallelConfig {
        self.0.choose(stats)
    }
    fn configurations(&self) -> Vec<ParallelConfig> {
        self.0.configurations()
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Builder for [`Deployment`].
#[derive(Debug, Clone)]
pub struct DeploymentBuilder {
    node: NodeSpec,
    model: ModelConfig,
    kind: DeploymentKind,
    overhead: EngineOverhead,
    weight_strategy: WeightStrategy,
    max_batched_tokens: u64,
    max_seqs: usize,
    block_tokens: u32,
    throughput_bin: Dur,
    mem_fraction: f64,
    spec_decode: Option<sp_engine::SpecDecode>,
    prefill_flops_scale: f64,
    admission: sp_engine::AdmissionMode,
    max_prefill_tokens: Option<u64>,
    queue_policy: sp_engine::QueuePolicy,
    record_timeline: bool,
    prefix_caching: bool,
    routing: RoutingKind,
    class_slo: Option<sp_metrics::ClassSlo>,
}

impl DeploymentBuilder {
    fn new(node: NodeSpec, model: ModelConfig) -> DeploymentBuilder {
        DeploymentBuilder {
            node,
            model,
            kind: DeploymentKind::Shift,
            overhead: EngineOverhead::default(),
            weight_strategy: WeightStrategy::SeparateModels,
            max_batched_tokens: 8192,
            max_seqs: 256,
            block_tokens: 16,
            throughput_bin: Dur::from_secs(1.0),
            mem_fraction: sp_parallel::memory::DEFAULT_MEM_FRACTION,
            spec_decode: None,
            prefill_flops_scale: 1.0,
            admission: sp_engine::AdmissionMode::ReserveFull,
            max_prefill_tokens: None,
            queue_policy: sp_engine::QueuePolicy::Fcfs,
            record_timeline: false,
            prefix_caching: false,
            routing: RoutingKind::default(),
            class_slo: None,
        }
    }

    /// Enables SLO-aware scheduling: per-class TTFT deadlines drive
    /// admission order, batch-prefill deferral, and shedding (see
    /// [`sp_engine::EngineConfig::class_slo`]). Pair with
    /// [`RoutingKind::EarliestDeadlineFeasible`] for deadline-aware
    /// dispatch across replicas.
    pub fn class_slo(mut self, slo: sp_metrics::ClassSlo) -> DeploymentBuilder {
        self.class_slo = Some(slo);
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
        self.prefix_caching = on;
        self
    }

    /// Records a per-iteration timeline in reports (default off).
    pub fn record_timeline(mut self, on: bool) -> DeploymentBuilder {
        self.record_timeline = on;
        self
    }

    /// Caps prefill tokens per iteration (Sarathi-Serve-style decode
    /// protection; default: uncapped).
    pub fn max_prefill_tokens(mut self, cap: u64) -> DeploymentBuilder {
        self.max_prefill_tokens = Some(cap);
        self
    }

    /// Selects the waiting-queue admission order (default: FCFS).
    pub fn queue_policy(mut self, policy: sp_engine::QueuePolicy) -> DeploymentBuilder {
        self.queue_policy = policy;
        self
    }

    /// Selects the KV admission mode (default: reserve-full; see
    /// [`sp_engine::AdmissionMode`]).
    pub fn admission(mut self, mode: sp_engine::AdmissionMode) -> DeploymentBuilder {
        self.admission = mode;
        self
    }

    /// Enables speculative decoding (§4.5 composition).
    pub fn spec_decode(mut self, sd: sp_engine::SpecDecode) -> DeploymentBuilder {
        self.spec_decode = Some(sd);
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

    /// Selects the §3.3.2 weight strategy (default: separate models).
    pub fn weight_strategy(mut self, strategy: WeightStrategy) -> DeploymentBuilder {
        self.weight_strategy = strategy;
        self
    }

    /// Sets the chunked-prefill token budget per iteration.
    pub fn max_batched_tokens(mut self, budget: u64) -> DeploymentBuilder {
        self.max_batched_tokens = budget;
        self
    }

    /// Sets the maximum concurrent sequences.
    pub fn max_seqs(mut self, max: usize) -> DeploymentBuilder {
        self.max_seqs = max;
        self
    }

    /// Sets the throughput time-series bin width for reports.
    pub fn throughput_bin(mut self, bin: Dur) -> DeploymentBuilder {
        self.throughput_bin = bin;
        self
    }

    /// Sets the usable GPU memory fraction.
    pub fn mem_fraction(mut self, fraction: f64) -> DeploymentBuilder {
        self.mem_fraction = fraction;
        self
    }

    /// Builds the deployment.
    ///
    /// # Errors
    ///
    /// Returns [`DeploymentError`] if weights do not fit, KV heads cannot
    /// be laid out, or (for shift deployments) invariance fails.
    pub fn build(self) -> Result<Deployment, DeploymentError> {
        let gpus = self.node.gpu_count;
        let usable = (self.node.gpu.mem_bytes as f64 * self.mem_fraction) as u64;

        let check_fit =
            |config: ParallelConfig, extra: u64| -> Result<MemoryPlan, DeploymentError> {
                let plan = MemoryPlan::plan_with_extra(
                    &self.node,
                    &self.model,
                    &config,
                    extra,
                    self.mem_fraction,
                )
                .map_err(|e| DeploymentError::Layout(e.to_string()))?;
                if !plan.fits {
                    return Err(DeploymentError::DoesNotFit {
                        config,
                        needed: plan.weight_bytes_per_gpu,
                        available: usable,
                    });
                }
                Ok(plan)
            };

        let engine_config = |kv_capacity_tokens: u64| EngineConfig {
            max_batched_tokens: self.max_batched_tokens,
            max_seqs: self.max_seqs,
            kv_capacity_tokens,
            block_tokens: self.block_tokens,
            throughput_bin: self.throughput_bin,
            spec_decode: self.spec_decode,
            admission: self.admission,
            record_timeline: self.record_timeline,
            prefix_caching: self.prefix_caching,
            max_prefill_tokens: self.max_prefill_tokens,
            queue_policy: self.queue_policy,
            class_slo: self.class_slo,
        };

        let make_exec = |node: NodeSpec| -> ExecutionModel {
            let mut exec = ExecutionModel::with_overhead(node, self.model.clone(), self.overhead);
            if self.prefill_flops_scale < 1.0 {
                exec.set_prefill_flops_scale(self.prefill_flops_scale);
            }
            exec
        };

        let make_static = |config: ParallelConfig, name: &str, plan: MemoryPlan| -> Engine {
            Engine::new(
                make_exec(self.node),
                Box::new(StaticPolicy::new(name, config)),
                engine_config(plan.kv_capacity_tokens),
            )
        };

        match self.kind {
            DeploymentKind::TensorParallel => {
                let config = ParallelConfig::tensor(gpus);
                let plan = check_fit(config, 0)?;
                Ok(Deployment {
                    kind: self.kind,
                    kv_capacity_tokens: plan.kv_capacity_tokens,
                    shift_policy: None,
                    routing: self.routing,
                    inner: Inner::Single(Box::new(make_static(config, "TP", plan))),
                })
            }
            DeploymentKind::SequenceParallel => {
                let config = ParallelConfig::sequence(gpus);
                let plan = check_fit(config, 0)?;
                Ok(Deployment {
                    kind: self.kind,
                    kv_capacity_tokens: plan.kv_capacity_tokens,
                    shift_policy: None,
                    routing: self.routing,
                    inner: Inner::Single(Box::new(make_static(config, "SP", plan))),
                })
            }
            DeploymentKind::Static(config) => {
                let plan = check_fit(config, 0)?;
                Ok(Deployment {
                    kind: self.kind,
                    kv_capacity_tokens: plan.kv_capacity_tokens,
                    shift_policy: None,
                    routing: self.routing,
                    inner: Inner::Single(Box::new(make_static(config, "static", plan))),
                })
            }
            DeploymentKind::DataParallel => {
                let replica_node = NodeSpec { gpu_count: 1, ..self.node };
                let config = ParallelConfig::single();
                let plan = MemoryPlan::plan_with_extra(
                    &replica_node,
                    &self.model,
                    &config,
                    0,
                    self.mem_fraction,
                )
                .map_err(|e| DeploymentError::Layout(e.to_string()))?;
                if !plan.fits {
                    return Err(DeploymentError::DoesNotFit {
                        config,
                        needed: plan.weight_bytes_per_gpu,
                        available: usable,
                    });
                }
                let replicas = (0..gpus)
                    .map(|_| {
                        Engine::new(
                            make_exec(replica_node),
                            Box::new(StaticPolicy::new("DP", config)),
                            engine_config(plan.kv_capacity_tokens),
                        )
                    })
                    .collect();
                let cluster = ClusterSim::new(replicas, self.routing.policy())
                    .throughput_bin(self.throughput_bin);
                Ok(Deployment {
                    kind: self.kind,
                    kv_capacity_tokens: plan.kv_capacity_tokens * gpus as u64,
                    shift_policy: None,
                    routing: self.routing,
                    inner: Inner::Cluster(Some(Box::new(cluster))),
                })
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
                let weight_plan = ShiftWeightPlan::new(&self.model, base, self.weight_strategy);
                let plan = check_fit(base, weight_plan.shift_extra_bytes_per_gpu())?;
                let policy = Arc::new(ShiftPolicy::new(base, threshold));
                let engine = Engine::new(
                    make_exec(self.node),
                    Box::new(SharedPolicy(policy.clone())),
                    engine_config(plan.kv_capacity_tokens),
                );
                Ok(Deployment {
                    kind: self.kind,
                    kv_capacity_tokens: plan.kv_capacity_tokens,
                    shift_policy: Some(policy),
                    routing: self.routing,
                    inner: Inner::Single(Box::new(engine)),
                })
            }
        }
    }
}

#[derive(Debug)]
enum Inner {
    Single(Box<Engine>),
    /// DP: one engine per GPU behind the deployment's router. Empty only
    /// while [`Deployment::run`] rebuilds it.
    Cluster(Option<Box<ClusterSim<Engine>>>),
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
    shift_policy: Option<Arc<ShiftPolicy>>,
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
    /// switches)` observed so far.
    pub fn shift_stats(&self) -> Option<(u64, u64, u64)> {
        self.shift_policy
            .as_ref()
            .map(|p| (p.base_iterations(), p.shift_iterations(), p.switches()))
    }

    /// The online routing policy multi-replica deployments dispatch with.
    pub fn routing_kind(&self) -> RoutingKind {
        self.routing
    }

    /// Runs a trace to completion from simulated time zero. Multi-replica
    /// (DP) deployments serve it online: replicas advance together in
    /// simulated time and each request is dispatched at its arrival
    /// instant by the configured [`RoutingKind`] acting on live load.
    pub fn run(&mut self, trace: &Trace) -> EngineReport {
        match &mut self.inner {
            Inner::Single(engine) => engine.run(trace),
            Inner::Cluster(cluster) => {
                let mut replicas = cluster.take().expect("DP cluster present").into_nodes();
                let bin = replicas[0].config().throughput_bin;
                // An empty `Engine::run` only rewinds the replica's clock
                // to zero, so every call starts where a single engine's
                // `run` starts — and a fresh router forgets the last run.
                for engine in &mut replicas {
                    engine.run(&Trace::default());
                }
                let sim = ClusterSim::new(replicas, self.routing.policy()).throughput_bin(bin);
                cluster.insert(Box::new(sim)).run(trace)
            }
        }
    }

    /// The node the [`SimNode`] impl forwards to: the engine, or the DP
    /// cluster (which steps one event at a time — [`ClusterSim`] does not
    /// fast-forward as a nested node).
    fn node(&self) -> &dyn SimNode {
        match &self.inner {
            Inner::Single(engine) => engine.as_ref(),
            Inner::Cluster(cluster) => cluster.as_deref().expect("DP cluster present"),
        }
    }

    fn node_mut(&mut self) -> &mut dyn SimNode {
        match &mut self.inner {
            Inner::Single(engine) => engine.as_mut(),
            Inner::Cluster(cluster) => cluster.as_deref_mut().expect("DP cluster present"),
        }
    }
}

/// A deployment is itself a steppable node, so whole fleets of them can be
/// co-simulated behind an online router (see [`crate::fleet::Fleet`]).
impl SimNode for Deployment {
    fn push_request(&mut self, req: sp_workload::Request) {
        self.node_mut().push_request(req);
    }

    fn step_once(&mut self) {
        self.node_mut().step_once();
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.node().next_event_time()
    }

    fn outstanding_tokens(&self) -> u64 {
        self.node().outstanding_tokens()
    }

    fn load(&self) -> sp_metrics::NodeLoad {
        self.node().load()
    }

    fn take_report(&mut self) -> EngineReport {
        self.node_mut().take_report()
    }

    fn take_unfinished(&mut self) -> sp_engine::SalvagedWork {
        self.node_mut().take_unfinished()
    }

    fn set_slowdown(&mut self, factor: f64) {
        self.node_mut().set_slowdown(factor);
    }

    fn step_run(&mut self, cap: Option<f64>) -> Option<RunAdvance> {
        self.node_mut().step_run(cap)
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
    fn dp_deployment_as_a_node_honours_its_routing() {
        // A DP deployment nested as one node of a cluster dispatches
        // through its own router, so it must serve exactly what
        // `Deployment::run` serves under each policy — and `run` starts
        // every call from a fresh router, so repeating it repeats them.
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
            let dp = || {
                Deployment::builder(node(), presets::qwen_32b())
                    .kind(DeploymentKind::DataParallel)
                    .routing(kind)
                    .build()
                    .unwrap()
            };
            let mut nested = ClusterSim::new(vec![dp()], kind.policy());
            let as_node = nested.run(&trace);
            let mut direct = dp();
            let first = direct.run(&trace);
            let again = direct.run(&trace);
            assert_eq!(first.records().len() + first.rejected().len(), trace.len(), "{kind:?}");
            assert_eq!(
                format!("{:?}", as_node.records()),
                format!("{:?}", first.records()),
                "{kind:?}"
            );
            assert_eq!(as_node.rejected(), first.rejected(), "{kind:?}");
            assert_eq!(
                format!("{:?}", again.records()),
                format!("{:?}", first.records()),
                "{kind:?}"
            );
            assert_eq!(again.rejected(), first.rejected(), "{kind:?}");
        }
    }
}

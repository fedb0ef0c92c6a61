//! Multi-node fleets: data parallelism *across* shift nodes.
//!
//! The paper deploys one 8-GPU node; production scales out by replicating
//! that deployment behind a router (§1 mentions the naive alternative —
//! separate TP and DP fleets — which doubles cost). A
//! [`Fleet`] composes N identical single-node deployments, each running
//! Shift Parallelism internally, with least-loaded routing between them:
//! intra-request speedup from SP/TP inside the node, scale-out throughput
//! across nodes.

use crate::deployment::{Deployment, DeploymentBuilder, DeploymentError, DeploymentKind};
use sp_engine::{ClusterSim, EngineReport, FaultPlan, RetryPolicy, RoutingKind};
use sp_metrics::Dur;
use sp_workload::Trace;

/// N single-engine deployments behind an online router (see
/// [`Fleet::routing`]). A node is one engine (TP, SP, Shift or a static
/// configuration); a data-parallel deployment already routes across its
/// own replicas and cannot be a node.
///
/// # Examples
///
/// ```
/// use shift_core::{Deployment, DeploymentKind, fleet::Fleet};
/// use sp_cluster::NodeSpec;
/// use sp_model::presets;
/// use sp_workload::synthetic;
///
/// let mut fleet = Fleet::new(2, || {
///     Deployment::builder(NodeSpec::p5en_48xlarge(), presets::qwen_32b())
///         .kind(DeploymentKind::Shift)
/// })
/// .unwrap();
/// let report = fleet.run(&synthetic::uniform_batch(8, 1024, 8));
/// assert_eq!(report.records().len(), 8);
/// ```
#[derive(Debug)]
pub struct Fleet {
    nodes: Vec<Deployment>,
    routing: RoutingKind,
    faults: Option<(FaultPlan, RetryPolicy)>,
}

impl Fleet {
    /// Builds `node_count` deployments from the builder factory.
    ///
    /// # Errors
    ///
    /// Propagates the first [`DeploymentError`], and returns
    /// [`DeploymentError::NotANode`] for a data-parallel builder.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero.
    pub fn new(
        node_count: usize,
        mut make: impl FnMut() -> DeploymentBuilder,
    ) -> Result<Fleet, DeploymentError> {
        assert!(node_count > 0, "fleet needs at least one node");
        let node = |builder: DeploymentBuilder| match builder.build()? {
            d if d.kind() == DeploymentKind::DataParallel => Err(DeploymentError::NotANode),
            d => Ok(d),
        };
        let nodes = (0..node_count).map(|_| node(make())).collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet { nodes, routing: RoutingKind::default(), faults: None })
    }

    /// Selects the inter-node routing policy (default:
    /// join-shortest-outstanding-tokens).
    pub fn routing(mut self, kind: RoutingKind) -> Fleet {
        self.routing = kind;
        self
    }

    /// Injects a fault schedule into every subsequent [`Fleet::run`]:
    /// node crashes salvage and re-dispatch in-flight work under `retry`
    /// (see [`ClusterSim::with_faults`]).
    pub fn with_faults(mut self, plan: FaultPlan, retry: RetryPolicy) -> Fleet {
        self.faults = Some((plan, retry));
        self
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Runs `trace` across the fleet from simulated time zero with online
    /// routing: nodes advance together in simulated time and each
    /// request is dispatched at its arrival instant by the configured
    /// policy acting on live outstanding load. The merged report carries
    /// the routing decision trail, each decision with the chosen node's
    /// load at dispatch. Every run starts from rewound nodes, so
    /// repeated runs of one trace repeat their reports.
    pub fn run(&mut self, trace: &Trace) -> EngineReport {
        let mut nodes = std::mem::take(&mut self.nodes);
        // An empty `Deployment::run` only rewinds the node's clocks,
        // as `Deployment::run` does for its own DP replicas.
        for node in &mut nodes {
            node.run(&Trace::default());
        }
        let mut sim =
            ClusterSim::new(nodes, self.routing.policy()).throughput_bin(Dur::from_secs(1.0));
        if let Some((plan, retry)) = self.faults.clone() {
            sim = sim.with_faults(plan, retry);
        }
        let report = sim.run(trace);
        self.nodes = sim.into_nodes();
        report
    }

    /// Aggregated shift statistics `(base, shift, switches)` across nodes,
    /// `None` if the deployments are not shift deployments.
    pub fn shift_stats(&self) -> Option<(u64, u64, u64)> {
        self.nodes.iter().try_fold((0, 0, 0), |(a, b, c), node| {
            node.shift_stats().map(|(x, y, z)| (a + x, b + y, c + z))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_cluster::NodeSpec;
    use sp_metrics::ClassSlo;
    use sp_model::presets;
    use sp_workload::synthetic;

    fn make_fleet(nodes: usize) -> Fleet {
        Fleet::new(nodes, || {
            Deployment::builder(NodeSpec::p5en_48xlarge(), presets::llama_70b())
                .kind(DeploymentKind::Shift)
        })
        .unwrap()
    }

    #[test]
    fn fleet_scales_batch_throughput() {
        let trace = synthetic::uniform_batch(64, 4096, 32);
        let one = make_fleet(1).run(&trace);
        let two = make_fleet(2).run(&trace);
        let speedup = one.makespan().as_secs() / two.makespan().as_secs();
        assert!(speedup > 1.6, "2-node speedup {speedup:.2}");
        assert_eq!(two.records().len(), 64);
    }

    #[test]
    fn fleet_preserves_single_request_latency() {
        // Adding nodes must not slow a lone request down.
        let trace = synthetic::single(8192, 32);
        let mut lone = make_fleet(1).run(&trace);
        let mut pair = make_fleet(2).run(&trace);
        let a = lone.metrics_mut().ttft().median().unwrap();
        let b = pair.metrics_mut().ttft().median().unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn fleet_shift_stats_aggregate() {
        let mut fleet = make_fleet(2);
        let _ = fleet.run(&synthetic::uniform_batch(8, 2048, 16));
        let (base, shift, _) = fleet.shift_stats().unwrap();
        assert!(base + shift > 0);
    }

    #[test]
    fn repeated_runs_repeat_their_reports() {
        // A second run must start from rewound clocks, not from where
        // the first run's nodes stopped.
        let mut fleet = Fleet::new(2, || {
            Deployment::builder(NodeSpec::p5en_48xlarge(), presets::qwen_32b())
                .kind(DeploymentKind::TensorParallel)
        })
        .unwrap();
        let trace = synthetic::poisson(20, 4.0, 1024, 16, 7);
        let first = fleet.run(&trace);
        assert_eq!(first.records().len(), 20);
        assert_eq!(fleet.run(&trace).dump(), first.dump());
    }

    #[test]
    fn fleet_rejects_a_dp_builder() {
        let err = Fleet::new(2, || {
            Deployment::builder(NodeSpec::p5en_48xlarge(), presets::qwen_32b())
                .kind(DeploymentKind::DataParallel)
        })
        .unwrap_err();
        assert_eq!(err, DeploymentError::NotANode);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_fleet_rejected() {
        let _ = make_fleet(0);
    }

    #[test]
    fn fast_forwarded_deployments_match_per_event_stepping() {
        // Shift deployments with class-SLO admission forward `step_run`
        // to their engine; the fleet must report exactly what the same
        // deployments stepped one event at a time report, shift
        // controller counters included.
        let builder = || {
            Deployment::builder(NodeSpec::p5en_48xlarge(), presets::llama_70b())
                .kind(DeploymentKind::Shift)
                .class_slo(ClassSlo::default())
                .record_timeline(true)
        };
        let trace = sp_workload::bursty::BurstyConfig {
            duration: Dur::from_secs(20.0),
            base_rate: 2.0,
            bursts: 1,
            burst_size: 60,
            ..sp_workload::bursty::BurstyConfig::default()
        }
        .generate();

        let mut fleet = Fleet::new(3, builder).unwrap();
        let fast = fleet.run(&trace);
        // The reference mode steps one event at a time and never calls
        // `step_run`.
        let nodes = (0..3).map(|_| builder().build().unwrap()).collect();
        let mut sim = ClusterSim::reference(nodes, RoutingKind::default().policy())
            .throughput_bin(Dur::from_secs(1.0));
        let slow = sim.run(&trace);
        let slow_stats = sim.into_nodes().iter().try_fold((0, 0, 0), |(a, b, c), n| {
            n.shift_stats().map(|(x, y, z)| (a + x, b + y, c + z))
        });

        assert_eq!(fast.records().len() + fast.rejected().len(), trace.len());
        assert_eq!(fast.dump(), slow.dump());
        assert_eq!(fleet.shift_stats(), slow_stats);
        let (base, shift, switches) = slow_stats.expect("shift deployments");
        assert!(base > 0 && shift > 0 && switches > 0, "both configs must run");
    }
}

//! Multi-node fleets: data parallelism *across* shift nodes.
//!
//! The paper deploys one 8-GPU node; production scales out by replicating
//! that deployment behind a router (§1 mentions the naive alternative —
//! separate TP and DP fleets — which doubles cost). A
//! [`Fleet`] composes N identical single-node deployments, each running
//! Shift Parallelism internally, with least-loaded routing between them:
//! intra-request speedup from SP/TP inside the node, scale-out throughput
//! across nodes.

use crate::deployment::{Deployment, DeploymentBuilder, DeploymentError};
use sp_engine::{ClusterSim, EngineReport, FaultPlan, RetryPolicy, RoutingKind};
use sp_metrics::Dur;
use sp_workload::Trace;

/// N single-node deployments behind an online router (see
/// [`Fleet::routing`]).
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
    /// Propagates the first [`DeploymentError`].
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero.
    pub fn new(
        node_count: usize,
        mut make: impl FnMut() -> DeploymentBuilder,
    ) -> Result<Fleet, DeploymentError> {
        assert!(node_count > 0, "fleet needs at least one node");
        let nodes = (0..node_count).map(|_| make().build()).collect::<Result<Vec<_>, _>>()?;
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

    /// Runs `trace` across the fleet with online routing: nodes advance
    /// together in simulated time and each request is dispatched at its
    /// arrival instant by the configured policy acting on live
    /// outstanding load. The merged report carries the routing decision
    /// trail and per-node load series.
    pub fn run(&mut self, trace: &Trace) -> EngineReport {
        let nodes = std::mem::take(&mut self.nodes);
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
    use crate::deployment::DeploymentKind;
    use sp_cluster::NodeSpec;
    use sp_engine::{SalvagedWork, SimNode};
    use sp_metrics::{ClassSlo, NodeLoad, SimTime};
    use sp_model::presets;
    use sp_workload::{synthetic, Request};

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
    #[should_panic(expected = "at least one node")]
    fn empty_fleet_rejected() {
        let _ = make_fleet(0);
    }

    /// A deployment behind a wrapper that forwards every [`SimNode`]
    /// method except `step_run`, so the cluster loop steps it one event
    /// at a time.
    #[derive(Debug)]
    struct PerEvent(Deployment);

    impl SimNode for PerEvent {
        fn push_request(&mut self, req: Request) {
            self.0.push_request(req);
        }

        fn step_once(&mut self) {
            self.0.step_once();
        }

        fn next_event_time(&self) -> Option<SimTime> {
            self.0.next_event_time()
        }

        fn outstanding_tokens(&self) -> u64 {
            self.0.outstanding_tokens()
        }

        fn load(&self) -> NodeLoad {
            self.0.load()
        }

        fn take_report(&mut self) -> EngineReport {
            self.0.take_report()
        }

        fn take_unfinished(&mut self) -> SalvagedWork {
            self.0.take_unfinished()
        }

        fn set_slowdown(&mut self, factor: f64) {
            self.0.set_slowdown(factor);
        }
    }

    /// Every report surface in a form two runs compare bit-exactly
    /// (config usage sorted: its map iterates in hash order).
    fn full_fingerprint(r: &EngineReport) -> String {
        let mut usage: Vec<String> =
            r.config_usage().iter().map(|(c, n)| format!("{c:?}={n}")).collect();
        usage.sort();
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{usage:?}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}",
            r.records(),
            r.metrics(),
            r.routing_decisions(),
            r.replica_loads(),
            r.rejected(),
            r.failed(),
            r.timeline(),
            r.iterations(),
            r.preemptions(),
            r.batch_sheds(),
            r.batch_deferrals(),
            r.peak_kv_utilization(),
            r.makespan(),
            r.max_iteration_time(),
            r.fleet_timeline(),
        )
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
        let nodes = (0..3).map(|_| PerEvent(builder().build().unwrap())).collect();
        let mut sim = ClusterSim::new(nodes, RoutingKind::default().policy())
            .throughput_bin(Dur::from_secs(1.0));
        let slow = sim.run(&trace);
        let slow_stats = sim.into_nodes().iter().try_fold((0, 0, 0), |(a, b, c), n| {
            n.0.shift_stats().map(|(x, y, z)| (a + x, b + y, c + z))
        });

        assert_eq!(fast.records().len() + fast.rejected().len(), trace.len());
        assert_eq!(full_fingerprint(&fast), full_fingerprint(&slow));
        assert_eq!(fleet.shift_stats(), slow_stats);
        let (base, shift, switches) = slow_stats.expect("shift deployments");
        assert!(base > 0 && shift > 0 && switches > 0, "both configs must run");
    }
}

//! Discrete-event LLM serving engine.
//!
//! Substitutes vLLM: a continuous-batching, chunked-prefill scheduler over
//! the analytical execution model of [`sp_parallel`]. Simulated time
//! advances iteration by iteration; each iteration's duration comes from
//! the Algorithm 1 cost walk under the configuration chosen by the
//! deployment's [`sp_parallel::ParallelismPolicy`].
//!
//! * [`engine::Engine`] — one serving engine (one attention-parallel group
//!   of GPUs) processing a request stream.
//! * [`engine::EngineConfig`] — scheduler knobs: token budget per
//!   iteration (chunked prefill), max batched sequences, KV capacity.
//! * [`report::EngineReport`] — per-request records plus aggregate
//!   latency/throughput metrics.
//! * [`routing::ClusterSim`] — event-driven multi-replica co-simulation:
//!   replicas advance in global time order and each request is dispatched
//!   at its arrival instant via a pluggable [`routing::RoutingPolicy`]
//!   acting on live load. Over one-GPU engines it is the paper's
//!   throughput-optimized DP baseline.
//! * [`autoscale::Autoscaler`] — load-signal autoscaling for the
//!   co-simulation: a pluggable [`autoscale::ScalePolicy`] provisions
//!   replicas (with a cold-start delay) and drains-then-retires them
//!   mid-trace, with replica-seconds cost accounting in the report.
//!
//! # Examples
//!
//! ```
//! use sp_cluster::NodeSpec;
//! use sp_engine::{Engine, EngineConfig};
//! use sp_model::presets;
//! use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};
//! use sp_workload::synthetic;
//!
//! let exec = ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::llama_70b());
//! let policy = StaticPolicy::new("TP", ParallelConfig::tensor(8));
//! let mut engine = Engine::new(exec, Box::new(policy), EngineConfig::default());
//! let report = engine.run(&synthetic::single(4096, 16));
//! assert_eq!(report.records().len(), 1);
//! ```

pub mod autoscale;
pub mod disagg;
pub mod engine;
pub mod fault;
mod queue;
pub mod report;
pub mod routing;
mod seq;

pub use autoscale::{
    AutoscaleConfig, Autoscaler, FleetSignal, LoadBandPolicy, NeverScale, ScaleAction, ScalePolicy,
};
pub use engine::{AdmissionMode, Engine, EngineConfig, FastPaths, QueuePolicy, SpecDecode};
pub use fault::{Fault, FaultEvent, FaultPlan, RetryPolicy, SalvagedWork};
pub use report::{EngineReport, IterationEvent};
pub use routing::{
    ClusterSim, EarliestDeadlineFeasible, JoinShortestOutstanding, RoundRobin, RoutingKind,
    RoutingPolicy, RunAdvance, SimNode, StaticSplit,
};

//! # Shift Parallelism
//!
//! A full reproduction, in Rust, of *Shift Parallelism: Low-Latency,
//! High-Throughput LLM Inference for Dynamic Workloads* (ASPLOS 2026,
//! Snowflake AI Research) — the dynamic SP↔TP parallelism switch with
//! generalized KV-cache invariance, rebuilt on an analytical multi-GPU
//! simulator (see `DESIGN.md` for the substitution map).
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`metrics`] | streaming stats, percentiles, simulated time |
//! | [`cluster`] | GPU/node hardware model, collective cost models |
//! | [`model`] | transformer descriptors + FLOP/byte accounting |
//! | [`kvcache`] | paged KV-cache, head-shard layouts, replication |
//! | [`parallel`] | TP/DP/SP execution plans and the Algorithm 1 cost walk |
//! | [`workload`] | trace generators (bursty, Azure-code, Mooncake) |
//! | [`engine`] | discrete-event serving engine, DP router |
//! | [`core`] | **Shift Parallelism** policy, invariance, deployments |
//! | [`accel`] | SwiftKV + speculative decoding composition |
//!
//! # Quickstart
//!
//! ```
//! use shift_parallelism::prelude::*;
//!
//! // Deploy Llama-70B with Shift Parallelism on an 8xH200 node.
//! let mut dep = Deployment::builder(NodeSpec::p5en_48xlarge(), presets::llama_70b())
//!     .kind(DeploymentKind::Shift)
//!     .build()
//!     .unwrap();
//!
//! // Serve a 4k-token interactive request.
//! let mut report = dep.run(&synthetic::single(4096, 64));
//! let ttft_ms = report.metrics_mut().ttft().median().unwrap() * 1e3;
//! assert!(ttft_ms < 500.0);
//! ```

pub use shift_core as core;
pub use sp_accel as accel;
pub use sp_cluster as cluster;
pub use sp_engine as engine;
pub use sp_kvcache as kvcache;
pub use sp_metrics as metrics;
pub use sp_model as model;
pub use sp_numeric as numeric;
pub use sp_parallel as parallel;
pub use sp_workload as workload;

/// The most common imports, one `use` away.
pub mod prelude {
    pub use shift_core::{
        Deployment, DeploymentKind, InvarianceCertificate, ShiftPolicy, ShiftWeightPlan,
        WeightStrategy, DEFAULT_SHIFT_THRESHOLD,
    };
    pub use sp_accel::{FrameworkProfile, ProductionStack, SwiftKv};
    pub use sp_cluster::{CollectiveModel, GpuSpec, InterconnectSpec, NodeSpec, Roofline};
    pub use sp_engine::{
        AdmissionMode, AutoscaleConfig, Autoscaler, ClusterSim, EarliestDeadlineFeasible, Engine,
        EngineConfig, EngineReport, Fault, FaultEvent, FaultPlan, FleetSignal, LoadBandPolicy,
        NeverScale, QueuePolicy, ReferenceClusterSim, RetryPolicy, RoutingKind, ScaleAction,
        ScalePolicy, SimNode, SpecDecode,
    };
    pub use sp_metrics::{
        ClassSlo, ClassSloReport, Dur, FailedRequest, FleetTimeline, LatencyRecorder, NodeLoad,
        Quantiles, ReplicaEventKind, RequestFaultEvent, RequestFaultKind, RequestRecord, SimTime,
        SloReport, SloTarget,
    };
    pub use sp_model::{presets, ModelConfig, MoeConfig, Precision};
    pub use sp_parallel::{
        BatchWork, ChunkWork, EngineOverhead, ExecutionModel, MemoryPlan, ParallelConfig,
        ParallelismPolicy, ProcessMapping, StaticPolicy,
    };
    pub use sp_workload::{
        azure::AzureCodeConfig, bursty::BurstyConfig, mixed::ProductionMixConfig,
        mooncake::MooncakeConfig, synthetic, Request, RequestClass, Trace,
    };
}

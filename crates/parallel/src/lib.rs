//! Execution plans and cost models for LLM-inference parallelisms.
//!
//! This crate models how one transformer forward pass executes on a
//! multi-GPU node under each parallelism the paper studies:
//!
//! * **TP** — tensor parallelism: weights split `TP` ways, two all-reduces
//!   per layer (Figure 3a).
//! * **SP** — Ulysses sequence parallelism: sequence split `SP` ways, two
//!   all-to-alls per layer plus one final all-gather (Figure 3b,
//!   Algorithm 1).
//! * **Combined (SP, TP)** — Algorithm 1 with both degrees; needed when the
//!   model does not fit a single GPU (§3.2.2).
//! * **DP** — data parallelism: modelled as independent single-GPU replicas
//!   at the engine layer; each replica here is `(SP=1, TP=1)`.
//!
//! Modules:
//!
//! * [`config`] — [`ParallelConfig`] and the batch-of-chunks workload type.
//! * [`mapping`] — the §3.3.1 process-to-data mapping: TP/SP/SP_TP groups
//!   and the head-order permutation whose consistency is the KV-cache
//!   invariance property.
//! * [`complexity`] — the symbolic per-GPU complexity of Table 2.
//! * [`exec`] — [`exec::ExecutionModel`]: times one iteration (Algorithm 1
//!   walk) and reports the Figure 15 cost breakdown.
//! * [`plan`] — compiled pricing: per-config [`plan::ExecPlan`]s evaluated
//!   in O(1) from one shared [`plan::BatchSummary`] fold, bit-identical to
//!   the direct `try_iteration` walk.
//! * [`memory`] — weight/KV memory planning per configuration.
//! * [`policy`] — the [`policy::ParallelismPolicy`] trait the engine
//!   consults each iteration; static policies live here, the dynamic shift
//!   policy in `shift-core`.
//!
//! # Examples
//!
//! ```
//! use sp_cluster::NodeSpec;
//! use sp_model::presets;
//! use sp_parallel::{BatchWork, ExecutionModel, ParallelConfig};
//!
//! let exec = ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::llama_70b());
//! let prefill = BatchWork::single_prefill(4096);
//! let tp = exec.iteration(&ParallelConfig::tensor(8), &prefill).total();
//! let sp = exec.iteration(&ParallelConfig::sequence(8), &prefill).total();
//! assert!(sp < tp); // SP prefills faster: all-to-all beats all-reduce
//! ```

pub mod complexity;
pub mod config;
pub mod exec;
pub mod expert;
pub mod mapping;
pub mod memory;
pub mod plan;
pub mod policy;

pub use config::{BatchWork, ChunkKind, ChunkWork, ParallelConfig};
pub use exec::{EngineOverhead, ExecutionModel, IterationBreakdown};
pub use mapping::ProcessMapping;
pub use memory::MemoryPlan;
pub use plan::{BatchSummary, DecodeRunPricer, DecodeTerms, DecodeTermsTable, ExecPlan};
pub use policy::{BatchStats, ParallelismPolicy, StaticPolicy};

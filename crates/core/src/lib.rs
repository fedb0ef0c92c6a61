//! Shift Parallelism — the paper's primary contribution.
//!
//! Shift Parallelism serves one model under **two** parallel
//! configurations that share the KV cache:
//!
//! * the **base** configuration — Ulysses SP, optionally combined with TP
//!   (`SP × TP = P`) — optimizes TTFT and combined throughput;
//! * the **shift** configuration — full TP (`SP = 1, TP = P`) — optimizes
//!   TPOT.
//!
//! Every iteration, the engine switches between them by the batched token
//! count (Algorithm 2): large batches (prefills, bursts) run in the base
//! config; small batches (low-traffic decode) run in the shift config.
//! Switching is free because the two configurations' attention-head
//! layouts — and therefore KV caches — are provably identical
//! ([`invariance`]).
//!
//! Modules:
//!
//! * [`policy::ShiftPolicy`] — the Algorithm 2 threshold switch.
//! * [`invariance`] — machine-checked KV-cache invariance certificates for
//!   arbitrary `(SP, TP)` bases (§3.3.1).
//! * [`weights`] — the two weight-handling strategies of §3.3.2 and the
//!   Eq. 1 memory footprint.
//! * [`deployment`] — the user-facing facade: build a deployment
//!   (TP / DP / SP / Shift) on a node and run traces through it.
//!
//! # Examples
//!
//! ```
//! use shift_core::{Deployment, DeploymentKind};
//! use sp_cluster::NodeSpec;
//! use sp_model::presets;
//! use sp_workload::synthetic;
//!
//! let mut dep = Deployment::builder(NodeSpec::p5en_48xlarge(), presets::llama_70b())
//!     .kind(DeploymentKind::Shift)
//!     .build()
//!     .unwrap();
//! let report = dep.run(&synthetic::single(4096, 32));
//! assert_eq!(report.records().len(), 1);
//! ```

pub mod deployment;
pub mod fleet;
pub mod invariance;
pub mod policy;
pub mod shards;
pub mod tuner;
pub mod weights;

pub use deployment::{Deployment, DeploymentBuilder, DeploymentError, DeploymentKind};
pub use fleet::Fleet;
pub use invariance::InvarianceCertificate;
pub use policy::{ShiftPolicy, DEFAULT_SHIFT_THRESHOLD};
pub use sp_engine::RoutingKind;
pub use weights::{ShiftWeightPlan, WeightStrategy};

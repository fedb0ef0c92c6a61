//! Production acceleration techniques composed with Shift Parallelism.
//!
//! §4.5 of the paper: "running efficiently in production is not only about
//! parallelism" — the deployed system composes Shift Parallelism with
//! **SwiftKV** (prefill-compute reduction via knowledge-preserving model
//! transformation) and **speculative decoding** (SuffixDecoding-style
//! draft/verify). Figure 16 shows the compounding effect against
//! latency- and throughput-optimized configurations of other frameworks.
//!
//! * [`swiftkv::SwiftKv`] — prefill FLOPs reduction model.
//! * [`specdec`] — speculative-decoding presets.
//! * [`production::ProductionStack`] — composes both onto any
//!   [`shift_core::Deployment`].
//! * [`production::FrameworkProfile`] — engine-overhead profiles standing
//!   in for the out-of-the-box frameworks Figure 16 compares against.
//!
//! # Examples
//!
//! ```
//! use sp_accel::{ProductionStack, SwiftKv};
//! use sp_cluster::NodeSpec;
//! use sp_model::presets;
//! use sp_workload::synthetic;
//!
//! let stack = ProductionStack::arctic_like();
//! let mut dep = stack.deploy(NodeSpec::p5en_48xlarge(), presets::llama_70b()).unwrap();
//! let report = dep.run(&synthetic::single(4096, 64));
//! assert_eq!(report.records().len(), 1);
//! # let _ = SwiftKv::default();
//! ```

pub mod production;
pub mod specdec;
pub mod swiftkv;

pub use production::{FrameworkProfile, ProductionStack};
pub use specdec::suffix_decoding;
pub use swiftkv::SwiftKv;

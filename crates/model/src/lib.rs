//! Transformer model descriptors and resource accounting.
//!
//! The simulator never executes real weights — it only needs to know, for a
//! given architecture, *how many* floating-point operations and HBM bytes
//! each prefill/decode step costs, and how large the weights and KV cache
//! are. All of that is derivable from the architecture hyper-parameters the
//! paper publishes in Table 4, which this crate encodes:
//!
//! | Model | Params | Layers | Hidden | Q heads | KV heads |
//! |---|---|---|---|---|---|
//! | Llama-70B | 70B | 80 | 8192 | 64 | 8 |
//! | Qwen-32B | 32B | 64 | 5120 | 64 | 8 |
//! | Llama-17B-16E | 109B/17B | 48 | 5120 | 40 | 8 |
//! | Qwen-30B-A3B | 30B/3B | 48 | 2048 | 32 | 4 |
//!
//! * [`config::ModelConfig`] — hyper-parameters, incl. GQA and MoE shapes.
//! * [`config::Precision`] — FP8/FP16 weight and KV-cache data types.
//! * [`accounting`] — FLOPs and bytes per prefill/decode step.
//! * [`presets`] — the four evaluation models of Table 4.
//!
//! # Examples
//!
//! ```
//! use sp_model::presets;
//!
//! let llama = presets::llama_70b();
//! let params = llama.total_params();
//! assert!((68e9..73e9).contains(&(params as f64)));
//! ```

pub mod accounting;
pub mod config;
pub mod presets;

pub use accounting::{DecodeBatchCost, StepCost};
pub use config::{ModelConfig, MoeConfig, Precision};

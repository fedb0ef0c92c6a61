//! Benchmark harnesses regenerating the paper's tables and figures.
//!
//! Each table or figure is a function in [`figures`], listed once in
//! [`figures::FIGURES`], with a binary of the same name that prints it
//! (see `DESIGN.md` for the full index and `EXPERIMENTS.md` for recorded
//! outputs):
//!
//! ```text
//! cargo run --release -p sp-bench --bin fig12_tradeoff
//! ```
//!
//! This library also hosts the shared harness: standard deployments,
//! latency / throughput probes, text-table rendering, and the scenarios
//! several bins and acceptance tests share.

pub mod figures;
pub mod harness;
pub mod probes;
pub mod scenarios;

pub use harness::{run_kind, standard_kinds, summarize, RunSummary};
pub use probes::{min_latency_probe, peak_throughput_probe, LatencyProbe};

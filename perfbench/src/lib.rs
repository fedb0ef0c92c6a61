//! End-to-end and per-layer benchmark of the Shift Parallelism simulator.
//!
//! Two kinds of metric come out of one command: **host** metrics (what the
//! simulator costs: set-up and wall time, events per second, peak memory)
//! and **simulated** metrics (what the modelled serving system does: TTFT,
//! TPOT, combined throughput, SLO attainment, served share and billed
//! replica-seconds). Simulated metrics are deterministic for a seed.
//!
//! Layers are measured from outside the library: [`probe`] wraps the
//! public traits the cluster calls back through, and [`workloads`] times
//! its own calls into each layer's public functions.

pub mod metrics;
pub mod outcome;
pub mod probe;
pub mod workloads;

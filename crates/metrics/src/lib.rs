//! Streaming statistics for the Shift Parallelism simulator.
//!
//! The serving engine (`sp-engine`) and the benchmark harnesses record
//! per-request latencies (TTFT, TPOT, completion time) and system-wide
//! throughput over simulated time. This crate provides the measurement
//! primitives they share:
//!
//! * [`units`] — strongly-typed simulation time ([`SimTime`], [`Dur`]).
//! * [`percentile`] — exact [`Quantiles`] over recorded samples.
//! * [`timeseries`] — [`BinnedSeries`] for throughput-over-time plots.
//! * [`latency`] — [`LatencyRecorder`], the per-request metric sink.
//! * [`routing`] — [`RoutingDecision`] and [`FleetTimeline`], the
//!   cluster router's decision trail and the fleet's replica lifecycle.
//!
//! # Examples
//!
//! ```
//! use sp_metrics::Quantiles;
//!
//! let mut q = Quantiles::new();
//! for v in [1.0, 2.0, 3.0, 4.0] {
//!     q.record(v);
//! }
//! assert_eq!(q.quantile(0.5), Some(2.5));
//! ```

pub mod latency;
pub mod percentile;
pub mod routing;
pub mod slo;
pub mod timeseries;
pub mod units;

pub use latency::{LatencyRecorder, RequestRecord};
pub use percentile::Quantiles;
pub use routing::{
    window_event_order, FailedRequest, FleetTimeline, NodeLoad, ReplicaEvent, ReplicaEventKind,
    RequestFaultEvent, RequestFaultKind, RoutingDecision,
};
pub use slo::{ClassSlo, ClassSloReport, RequestClass, SloReport, SloTarget};
pub use timeseries::BinnedSeries;
pub use units::{Dur, SimTime};

//! Opt-in per-phase wall-clock profiling (`SP_PROFILE=1`).
//!
//! The simulator's hot loop has a handful of broad phases — batch
//! build, iteration pricing, window merge, admission scans,
//! shape-stable window detection and request dispatch — and knowing
//! where wall time goes is the first question of every perf PR. Setting
//! `SP_PROFILE=1` makes the instrumented call sites accumulate
//! wall-clock nanoseconds per phase into process-wide atomics;
//! `sp_bench::probes::print_profile` renders the breakdown at the end
//! of a run. When the variable is unset (the default), every probe is a
//! single cached-boolean branch — nothing is timed and nothing is
//! stored, so the instrumentation stays in release builds.
//!
//! Timers nest naively: a phase timed inside another phase counts
//! toward both (pricing runs inside the window-stepping wall, for
//! example), so the columns are a breakdown of *where* time is spent,
//! not a partition that sums to the total.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The instrumented phases of the simulation hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `Engine::build_batch`: decode scan + chunked-prefill packing.
    BatchBuild,
    /// `Engine::price_step`: plan evaluation for one step. Also
    /// each `Engine::step_run` window's iteration loop, as one span:
    /// its closed-form prices with the in-run admission probes,
    /// throughput-bin flushes and timeline notes between them, so the
    /// clock is read twice per window, not per iteration.
    Pricing,
    /// Horizon-window merge: fault-clock fold and retires.
    Merge,
    /// `Engine::admit`: wait-queue candidate scans + KV reservation.
    Admission,
    /// `Engine::step_run`'s admission probe at run start: arrival
    /// ingest and the side-effect-free check of the admission scan's
    /// first step.
    WindowDetect,
    /// `ClusterSim::dispatch`: lifecycle work (warmups, retires, scale
    /// decisions), routing and enqueue of one request.
    Dispatch,
}

const PHASES: usize = 6;
const NAMES: [&str; PHASES] =
    ["batch build", "pricing", "merge", "admission", "window detect", "dispatch"];

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static NANOS: [AtomicU64; PHASES] = [ZERO; PHASES];
static CALLS: [AtomicU64; PHASES] = [ZERO; PHASES];

static ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether profiling is on (`SP_PROFILE` set to anything but `0` or
/// empty). Cached on first call.
#[inline]
pub fn enabled() -> bool {
    *ENABLED.get_or_init(|| {
        std::env::var("SP_PROFILE").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// A running phase timer; accumulates on drop. Only ever `Some` when
/// [`enabled`] — bind it to hold a scope open:
/// `let _t = profile::start(Phase::Pricing);`.
pub struct Timer {
    phase: Phase,
    start: Instant,
}

impl Drop for Timer {
    fn drop(&mut self) {
        let idx = self.phase as usize;
        let nanos = self.start.elapsed().as_nanos() as u64;
        NANOS[idx].fetch_add(nanos, Ordering::Relaxed);
        CALLS[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// Starts timing `phase`, or returns `None` (a single branch) when
/// profiling is off.
#[inline]
pub fn start(phase: Phase) -> Option<Timer> {
    if enabled() {
        Some(Timer { phase, start: Instant::now() })
    } else {
        None
    }
}

/// Snapshot of `(phase name, accumulated seconds, call count)` per
/// phase, in declaration order.
pub fn snapshot() -> Vec<(&'static str, f64, u64)> {
    (0..PHASES)
        .map(|i| {
            (
                NAMES[i],
                NANOS[i].load(Ordering::Relaxed) as f64 * 1e-9,
                CALLS[i].load(Ordering::Relaxed),
            )
        })
        .collect()
}

/// Zeroes the accumulators (e.g. between bench scenarios).
pub fn reset() {
    for i in 0..PHASES {
        NANOS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_all_phases_and_reset_zeroes() {
        reset();
        let snap = snapshot();
        assert_eq!(snap.len(), 6);
        assert_eq!(snap[5].0, "dispatch");
        assert!(snap.iter().all(|&(_, secs, calls)| secs == 0.0 && calls == 0));
        // Accumulate directly (the env-gated `start` may be off here).
        let t = Timer { phase: Phase::Pricing, start: Instant::now() };
        drop(t);
        let snap = snapshot();
        assert_eq!(snap[1].0, "pricing");
        assert_eq!(snap[1].2, 1);
        reset();
        assert!(snapshot().iter().all(|&(_, _, calls)| calls == 0));
    }
}

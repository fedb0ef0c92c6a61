//! Deterministic fault injection for the cluster simulations.
//!
//! A [`FaultPlan`] is a seeded, time-ordered schedule of failures —
//! replica crashes, transient slowdown windows, and routing timeouts —
//! injected into [`crate::routing::ClusterSim`]. Faults fire as ordinary
//! timers in the global event order, so its window mode and its
//! one-event reference mode stay byte-identical under the same plan.
//!
//! The recovery model follows production inference fleets: a crash
//! destroys the replica's KV cache, so every salvaged request re-enters
//! the router with `cached_prefix` cleared and pays full re-prefill.
//! Re-dispatch is governed by a [`RetryPolicy`] — per-request attempt
//! counting, exponential backoff, and a terminal `Failed` outcome in the
//! report once the budget is exhausted.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_metrics::{Dur, SimTime};
use sp_workload::Request;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The replica in `replica`'s slot dies instantly: its KV cache and
    /// in-flight work are lost, the slot retires without draining, and
    /// salvaged requests re-enter the router under the retry policy.
    /// Crashing an empty slot is a no-op.
    Crash {
        /// Slot index to kill.
        replica: usize,
    },
    /// The replica runs `factor`× slower for `duration` (e.g. thermal
    /// throttling or a noisy neighbor), then recovers. Applies to
    /// whichever tenant occupies the slot during the window.
    Slowdown {
        /// Slot index to slow.
        replica: usize,
        /// Duration multiplier on every iteration (> 1.0 slows down).
        factor: f64,
        /// Window length.
        duration: Dur,
    },
    /// The next dispatch attempt times out: the request is not routed and
    /// re-enters under the retry policy (consuming one attempt).
    RouteTimeout,
}

/// A scheduled fault: `fault` fires at instant `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Injection instant.
    pub at: SimTime,
    /// What fails.
    pub fault: Fault,
}

/// A deterministic, time-ordered fault schedule.
///
/// # Examples
///
/// ```
/// use sp_engine::{Fault, FaultEvent, FaultPlan};
/// use sp_metrics::SimTime;
///
/// let plan = FaultPlan::new(vec![FaultEvent {
///     at: SimTime::from_secs(30.0),
///     fault: Fault::Crash { replica: 1 },
/// }]);
/// assert_eq!(plan.events().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates a plan from `events`, stably sorted by injection time (so
    /// same-instant faults keep their authored order).
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by(|a, b| a.at.as_secs().total_cmp(&b.at.as_secs()));
        FaultPlan { events }
    }

    /// The empty plan — injecting it is byte-identical to no injection.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Seeded Poisson crash schedule: exponential inter-crash gaps with
    /// mean `mttf`, each killing a uniformly chosen slot in
    /// `0..replicas`, until `horizon`. The workhorse of the MTTF-sweep
    /// chaos bench.
    ///
    /// # Panics
    ///
    /// Panics if `mttf` is zero or `replicas` is zero.
    pub fn crashes_poisson(seed: u64, mttf: Dur, horizon: Dur, replicas: usize) -> FaultPlan {
        assert!(mttf.as_secs() > 0.0, "MTTF must be positive");
        assert!(replicas > 0, "need at least one replica to crash");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -mttf.as_secs() * (1.0 - u).ln();
            if t >= horizon.as_secs() {
                break;
            }
            let replica = rng.gen_range(0..replicas);
            events.push(FaultEvent { at: SimTime::from_secs(t), fault: Fault::Crash { replica } });
        }
        FaultPlan::new(events)
    }
}

/// Retry/backoff semantics for fault-displaced requests.
///
/// A request that loses its replica (crash) or its dispatch (route
/// timeout) consumes one attempt and waits `backoff_for(attempt)` before
/// re-admission. When attempts exceed `max_retries` the request is
/// abandoned: a terminal `Failed` outcome with `attempts == max_retries`
/// lands in the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-dispatch attempts granted per request (0 = fail immediately on
    /// first fault).
    pub max_retries: u32,
    /// Backoff before the first re-dispatch; doubles per attempt.
    pub base_backoff: Dur,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_retries: 3, base_backoff: Dur::from_secs(1.0) }
    }
}

impl RetryPolicy {
    /// Exponential backoff before re-admitting attempt `attempt`
    /// (1-based): `base × 2^(attempt-1)`.
    pub fn backoff_for(&self, attempt: u32) -> Dur {
        self.base_backoff * f64::powi(2.0, attempt.saturating_sub(1).min(30) as i32)
    }
}

/// What a crash rips out of an engine: every unfinished request (queued
/// or running) plus the prompt tokens whose prefill work died with the
/// replica's KV cache.
#[derive(Debug, Clone, Default)]
pub struct SalvagedWork {
    /// Unfinished requests, to re-enter the router under retry.
    pub requests: Vec<Request>,
    /// Prompt tokens already prefilled and now lost.
    pub wasted_prefill_tokens: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_time_stably() {
        let plan = FaultPlan::new(vec![
            FaultEvent { at: SimTime::from_secs(5.0), fault: Fault::Crash { replica: 1 } },
            FaultEvent { at: SimTime::from_secs(1.0), fault: Fault::RouteTimeout },
            FaultEvent { at: SimTime::from_secs(5.0), fault: Fault::Crash { replica: 0 } },
        ]);
        let at: Vec<f64> = plan.events().iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(at, vec![1.0, 5.0, 5.0]);
        // Same-instant events keep authored order.
        assert_eq!(plan.events()[1].fault, Fault::Crash { replica: 1 });
        assert_eq!(plan.events()[2].fault, Fault::Crash { replica: 0 });
    }

    #[test]
    fn poisson_plan_is_seed_deterministic_and_bounded() {
        let a = FaultPlan::crashes_poisson(42, Dur::from_secs(30.0), Dur::from_secs(300.0), 4);
        let b = FaultPlan::crashes_poisson(42, Dur::from_secs(30.0), Dur::from_secs(300.0), 4);
        assert_eq!(a, b);
        let c = FaultPlan::crashes_poisson(43, Dur::from_secs(30.0), Dur::from_secs(300.0), 4);
        assert_ne!(a, c);
        for e in a.events() {
            assert!(e.at.as_secs() < 300.0);
            match e.fault {
                Fault::Crash { replica } => assert!(replica < 4),
                other => panic!("poisson plan emits only crashes, got {other:?}"),
            }
        }
        // MTTF 30 s over 300 s: ~10 expected crashes; the seeded draw
        // must land in a sane band (this is deterministic, not flaky).
        assert!(!a.is_empty());
        assert!(a.events().len() < 40);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RetryPolicy { max_retries: 5, base_backoff: Dur::from_secs(0.5) };
        assert_eq!(p.backoff_for(1).as_secs(), 0.5);
        assert_eq!(p.backoff_for(2).as_secs(), 1.0);
        assert_eq!(p.backoff_for(3).as_secs(), 2.0);
        // Attempt 0 (degenerate) clamps to the base.
        assert_eq!(p.backoff_for(0).as_secs(), 0.5);
    }
}

//! The Algorithm 2 threshold switch.

use sp_parallel::{BatchStats, ParallelConfig, ParallelismPolicy};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default switching threshold in batched tokens.
///
/// Below it the iteration is decode-dominated (a handful of sequences each
/// contributing one token) and full TP minimizes TPOT; above it prefill
/// work dominates and the SP base config minimizes TTFT and cost. The
/// ablation bench (`threshold` in `sp-bench`) sweeps this value.
pub const DEFAULT_SHIFT_THRESHOLD: u64 = 256;

/// Shift Parallelism's per-iteration decision (Algorithm 2):
///
/// ```text
/// if batched_tokens > threshold { base (SP, TP) } else { shift (1, SP·TP) }
/// ```
///
/// # Examples
///
/// ```
/// use shift_core::ShiftPolicy;
/// use sp_parallel::{BatchStats, ParallelConfig, ParallelismPolicy};
///
/// let policy = ShiftPolicy::new(ParallelConfig::sequence(8), 256);
/// let small = BatchStats { total_new_tokens: 8, num_seqs: 8 };
/// let large = BatchStats { total_new_tokens: 4096, num_seqs: 2 };
/// assert_eq!(policy.choose(&small), ParallelConfig::tensor(8));
/// assert_eq!(policy.choose(&large), ParallelConfig::sequence(8));
/// ```
#[derive(Debug)]
pub struct ShiftPolicy {
    base: ParallelConfig,
    shift: ParallelConfig,
    threshold: u64,
    base_iterations: AtomicU64,
    shift_iterations: AtomicU64,
    switches: AtomicU64,
    // 0 = none yet, 1 = base, 2 = shift.
    last: AtomicU64,
}

impl ShiftPolicy {
    /// Creates a shift policy over `base` (the shift configuration is
    /// derived: full TP across the same GPUs).
    ///
    /// # Panics
    ///
    /// Panics if `base` is already pure TP on one GPU group of size 1 —
    /// there would be nothing to shift between (degree must exceed 1).
    pub fn new(base: ParallelConfig, threshold: u64) -> ShiftPolicy {
        assert!(base.degree() > 1, "shift parallelism needs more than one GPU");
        ShiftPolicy {
            base,
            shift: base.shift_config(),
            threshold,
            base_iterations: AtomicU64::new(0),
            shift_iterations: AtomicU64::new(0),
            switches: AtomicU64::new(0),
            last: AtomicU64::new(0),
        }
    }

    /// Creates a shift policy with the default threshold.
    pub fn with_default_threshold(base: ParallelConfig) -> ShiftPolicy {
        ShiftPolicy::new(base, DEFAULT_SHIFT_THRESHOLD)
    }

    /// The base `(SP, TP)` configuration.
    pub fn base(&self) -> ParallelConfig {
        self.base
    }

    /// The shift configuration (`SP = 1, TP = P`).
    pub fn shift(&self) -> ParallelConfig {
        self.shift
    }

    /// The switching threshold in batched tokens.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Iterations run in the base configuration so far.
    pub fn base_iterations(&self) -> u64 {
        self.base_iterations.load(Ordering::Relaxed)
    }

    /// Iterations run in the shift configuration so far.
    pub fn shift_iterations(&self) -> u64 {
        self.shift_iterations.load(Ordering::Relaxed)
    }

    /// Number of base↔shift transitions observed.
    pub fn switches(&self) -> u64 {
        self.switches.load(Ordering::Relaxed)
    }

    /// Records `n` consecutive iterations in one configuration: at
    /// most one switch (into it), then `n` iterations.
    fn record(&self, to_base: bool, n: u64) {
        let tag = if to_base { 1 } else { 2 };
        let prev = self.last.swap(tag, Ordering::Relaxed);
        if prev != 0 && prev != tag {
            self.switches.fetch_add(1, Ordering::Relaxed);
        }
        if to_base {
            self.base_iterations.fetch_add(n, Ordering::Relaxed);
        } else {
            self.shift_iterations.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Algorithm 2's decision for `stats`, recorded `n` times.
    fn decide(&self, stats: &BatchStats, n: u64) -> ParallelConfig {
        let to_base = stats.total_new_tokens > self.threshold;
        self.record(to_base, n);
        if to_base {
            self.base
        } else {
            self.shift
        }
    }
}

impl ParallelismPolicy for ShiftPolicy {
    fn choose(&self, stats: &BatchStats) -> ParallelConfig {
        self.decide(stats, 1)
    }

    fn choose_repeated(&self, stats: &BatchStats, n: u64) -> ParallelConfig {
        assert!(n > 0, "a repeated choice records at least one iteration");
        self.decide(stats, n)
    }

    fn configurations(&self) -> Vec<ParallelConfig> {
        vec![self.base, self.shift]
    }

    fn name(&self) -> &str {
        "Shift Parallelism"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stats(tokens: u64) -> BatchStats {
        BatchStats { total_new_tokens: tokens, num_seqs: 1 }
    }

    #[test]
    fn threshold_is_exclusive_lower_bound() {
        // Algorithm 2: "if n > threshold" — equality stays in shift mode.
        let p = ShiftPolicy::new(ParallelConfig::sequence(8), 100);
        assert_eq!(p.choose(&stats(100)), ParallelConfig::tensor(8));
        assert_eq!(p.choose(&stats(101)), ParallelConfig::sequence(8));
    }

    #[test]
    fn mixed_base_shifts_to_full_tp() {
        let p = ShiftPolicy::new(ParallelConfig::new(4, 2), 256);
        assert_eq!(p.shift(), ParallelConfig::tensor(8));
        assert_eq!(p.choose(&stats(1)), ParallelConfig::tensor(8));
        assert_eq!(p.choose(&stats(10_000)), ParallelConfig::new(4, 2));
    }

    #[test]
    fn switch_counter_tracks_transitions() {
        let p = ShiftPolicy::new(ParallelConfig::sequence(8), 10);
        p.choose(&stats(100)); // base
        p.choose(&stats(200)); // base (no switch)
        p.choose(&stats(1)); // shift (switch 1)
        p.choose(&stats(500)); // base (switch 2)
        assert_eq!(p.switches(), 2);
        assert_eq!(p.base_iterations(), 3);
        assert_eq!(p.shift_iterations(), 1);
    }

    #[test]
    fn configurations_lists_both() {
        let p = ShiftPolicy::with_default_threshold(ParallelConfig::new(4, 2));
        assert_eq!(p.configurations(), vec![ParallelConfig::new(4, 2), ParallelConfig::tensor(8)]);
        assert_eq!(p.threshold(), DEFAULT_SHIFT_THRESHOLD);
    }

    #[test]
    #[should_panic(expected = "more than one GPU")]
    fn single_gpu_base_rejected() {
        let _ = ShiftPolicy::new(ParallelConfig::single(), 10);
    }

    proptest! {
        #[test]
        fn decision_is_deterministic_in_tokens(tokens in 0u64..1_000_000, thr in 0u64..100_000) {
            let p = ShiftPolicy::new(ParallelConfig::sequence(8), thr);
            let expected = if tokens > thr { p.base() } else { p.shift() };
            prop_assert_eq!(p.choose(&stats(tokens)), expected);
        }

        /// `choose` then `choose_repeated(n)` records exactly what
        /// `1 + n` plain `choose` calls do, in all three counters.
        #[test]
        fn repeated_choice_equals_repeated_calls(
            runs in prop::collection::vec((0u64..600, 1u64..50), 0..40),
        ) {
            let once = ShiftPolicy::new(ParallelConfig::sequence(8), 256);
            let each = ShiftPolicy::new(ParallelConfig::sequence(8), 256);
            for &(tokens, n) in &runs {
                let first = once.choose(&stats(tokens));
                prop_assert_eq!(once.choose_repeated(&stats(tokens), n), first);
                for _ in 0..=n {
                    prop_assert_eq!(each.choose(&stats(tokens)), first);
                }
                prop_assert_eq!(once.base_iterations(), each.base_iterations());
                prop_assert_eq!(once.shift_iterations(), each.shift_iterations());
                prop_assert_eq!(once.switches(), each.switches());
            }
        }

        #[test]
        fn iteration_counts_sum(tokens in prop::collection::vec(0u64..2_000, 0..200)) {
            let p = ShiftPolicy::new(ParallelConfig::sequence(8), 256);
            for t in &tokens {
                p.choose(&stats(*t));
            }
            prop_assert_eq!(
                p.base_iterations() + p.shift_iterations(),
                tokens.len() as u64
            );
            prop_assert!(p.switches() < tokens.len().max(1) as u64);
        }
    }
}

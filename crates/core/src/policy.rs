//! The Algorithm 2 threshold switch.

use sp_parallel::{BatchStats, ParallelConfig, ParallelismPolicy};

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
/// The decision is all it keeps: the engine running it counts the
/// iterations under each configuration and the switches between them
/// (see [`crate::Deployment::shift_stats`]).
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftPolicy {
    base: ParallelConfig,
    shift: ParallelConfig,
    threshold: u64,
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
        ShiftPolicy { base, shift: base.shift_config(), threshold }
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
}

impl ParallelismPolicy for ShiftPolicy {
    fn choose(&self, stats: &BatchStats) -> ParallelConfig {
        if stats.total_new_tokens > self.threshold {
            self.base
        } else {
            self.shift
        }
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

    /// A Llama-70B Shift deployment over SP=8 at the default threshold,
    /// timeline on: its engine counts the policy's decisions.
    fn deployment() -> crate::Deployment {
        let base = ParallelConfig::sequence(8);
        let node = sp_cluster::NodeSpec::p5en_48xlarge();
        crate::Deployment::builder(node, sp_model::presets::llama_70b())
            .kind(crate::DeploymentKind::ShiftWithBase { base, threshold: DEFAULT_SHIFT_THRESHOLD })
            .record_timeline(true)
            .build()
            .unwrap()
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
        // Two requests far apart: each prompt prefills in one base
        // iteration and decodes in the shift config, so the engine
        // counts three transitions, as the timeline shows them.
        let first = sp_workload::synthetic::single(2048, 16).requests()[0];
        let later =
            sp_workload::Request { id: 1, arrival: sp_metrics::SimTime::from_secs(100.0), ..first };
        let mut dep = deployment();
        let report = dep.run(&sp_workload::Trace::with_ids(vec![first, later]));
        let configs: Vec<_> = report.timeline().unwrap().iter().map(|e| e.config).collect();
        let changes = configs.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        let (base_iters, shift_iters, switches) = dep.shift_stats().unwrap();
        assert_eq!((base_iters, switches, report.switches()), (2, 3, 3));
        assert_eq!(changes, 3);
        assert_eq!(base_iters + shift_iters, configs.len() as u64);
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
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Across runs of one deployment, its base and shift counts
        /// add up to every iteration its reports saw, and its switches
        /// to the reports' switches, fewer than the iterations.
        #[test]
        fn iteration_counts_sum(
            runs in prop::collection::vec((1usize..8, 64u32..4096, 1u32..48, 0u64..100), 1..3),
        ) {
            let mut dep = deployment();
            let (mut iterations, mut switches) = (0, 0);
            for &(count, input, output, seed) in &runs {
                let report =
                    dep.run(&sp_workload::synthetic::poisson(count, 4.0, input, output, seed));
                iterations += report.iterations();
                switches += report.switches();
            }
            let (base_iters, shift_iters, counted) = dep.shift_stats().unwrap();
            prop_assert_eq!(base_iters + shift_iters, iterations);
            prop_assert_eq!(counted, switches);
            prop_assert!(switches < iterations);
        }
    }
}

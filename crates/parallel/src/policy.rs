//! The per-iteration parallelism decision.
//!
//! The engine consults a [`ParallelismPolicy`] before every iteration,
//! passing the batch statistics (the paper's switching signal is the
//! number of batched tokens, Algorithm 2); a macro-stepped run of
//! iterations with constant statistics asks once and records the rest
//! as repeated choices. Static deployments always
//! return the same configuration; Shift Parallelism (in `shift-core`)
//! switches between its base and shift configurations.

use crate::config::{BatchWork, ParallelConfig};
use std::fmt;

/// What a policy sees about the upcoming iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Total new tokens batched this iteration.
    pub total_new_tokens: u64,
    /// Number of sequences contributing work.
    pub num_seqs: usize,
}

impl BatchStats {
    /// Extracts the statistics of `batch`.
    pub fn of(batch: &BatchWork) -> BatchStats {
        BatchStats { total_new_tokens: batch.total_new_tokens(), num_seqs: batch.num_seqs() }
    }
}

/// Chooses the parallel configuration for each iteration.
///
/// Implementations must be cheap: the decision happens on the critical
/// scheduling path (the paper replays pre-captured CUDA graphs per
/// configuration, so only registered configurations may be returned).
///
/// # Contract
///
/// [`ParallelismPolicy::choose`] returns a configuration that depends
/// only on `stats`. It may count its calls (iteration statistics,
/// switch counters), so each call stands for one iteration. The engine
/// relies on this: a run of iterations with constant batch stats asks
/// once with `choose` and records the rest with
/// [`ParallelismPolicy::choose_repeated`].
///
/// Every configuration `choose` returns is one of
/// [`ParallelismPolicy::configurations`]; the engine compiles a plan
/// for each at startup and panics, naming the policy, when a choice
/// has none.
pub trait ParallelismPolicy: fmt::Debug + Send + Sync {
    /// The configuration to run the next iteration under.
    fn choose(&self, stats: &BatchStats) -> ParallelConfig;

    /// Records `n` further choices on the same `stats` and returns the
    /// choice: the same effect as `n` calls of
    /// [`ParallelismPolicy::choose`], which the default makes. Policies
    /// that count calls override it to record all `n` at once.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    fn choose_repeated(&self, stats: &BatchStats, n: u64) -> ParallelConfig {
        assert!(n > 0, "a repeated choice records at least one iteration");
        let config = self.choose(stats);
        for _ in 1..n {
            self.choose(stats);
        }
        config
    }

    /// Every configuration this policy may ever return (for weight loading
    /// and graph capture at startup).
    fn configurations(&self) -> Vec<ParallelConfig>;

    /// Human-readable policy name for reports.
    fn name(&self) -> &str;
}

/// A fixed-configuration policy: plain TP, SP, or a static combination.
///
/// # Examples
///
/// ```
/// use sp_parallel::{BatchStats, ParallelConfig, ParallelismPolicy, StaticPolicy};
///
/// let tp = StaticPolicy::new("TP", ParallelConfig::tensor(8));
/// let stats = BatchStats { total_new_tokens: 1, num_seqs: 1 };
/// assert_eq!(tp.choose(&stats), ParallelConfig::tensor(8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticPolicy {
    name: String,
    config: ParallelConfig,
}

impl StaticPolicy {
    /// Creates a policy that always runs `config`.
    pub fn new(name: impl Into<String>, config: ParallelConfig) -> StaticPolicy {
        StaticPolicy { name: name.into(), config }
    }

    /// The fixed configuration.
    pub fn config(&self) -> ParallelConfig {
        self.config
    }
}

impl ParallelismPolicy for StaticPolicy {
    fn choose(&self, _stats: &BatchStats) -> ParallelConfig {
        self.config
    }

    fn choose_repeated(&self, _stats: &BatchStats, n: u64) -> ParallelConfig {
        assert!(n > 0, "a repeated choice records at least one iteration");
        self.config
    }

    fn configurations(&self) -> Vec<ParallelConfig> {
        vec![self.config]
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChunkWork;

    #[test]
    fn batch_stats_extraction() {
        let batch = BatchWork::new(vec![ChunkWork::prefill(100, 0, true), ChunkWork::decode(10)]);
        let stats = BatchStats::of(&batch);
        assert_eq!(stats.total_new_tokens, 101);
        assert_eq!(stats.num_seqs, 2);
    }

    #[test]
    fn static_policy_ignores_stats() {
        let p = StaticPolicy::new("SP", ParallelConfig::sequence(8));
        for tokens in [0u64, 1, 1_000_000] {
            let stats = BatchStats { total_new_tokens: tokens, num_seqs: 1 };
            assert_eq!(p.choose(&stats), ParallelConfig::sequence(8));
        }
        assert_eq!(p.configurations(), vec![ParallelConfig::sequence(8)]);
        assert_eq!(p.name(), "SP");
    }

    /// A policy that counts its calls, relying on the default
    /// `choose_repeated`.
    #[derive(Debug, Default)]
    struct Counting(std::sync::atomic::AtomicU64);

    impl ParallelismPolicy for Counting {
        fn choose(&self, _stats: &BatchStats) -> ParallelConfig {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            ParallelConfig::tensor(2)
        }
        fn configurations(&self) -> Vec<ParallelConfig> {
            vec![ParallelConfig::tensor(2)]
        }
        fn name(&self) -> &str {
            "counting"
        }
    }

    #[test]
    fn default_repeated_choice_calls_choose_n_times() {
        let p = Counting::default();
        let stats = BatchStats { total_new_tokens: 3, num_seqs: 3 };
        assert_eq!(p.choose_repeated(&stats, 5), ParallelConfig::tensor(2));
        assert_eq!(p.0.load(std::sync::atomic::Ordering::Relaxed), 5);
        let fixed = StaticPolicy::new("TP", ParallelConfig::tensor(4));
        assert_eq!(fixed.choose_repeated(&stats, 7), ParallelConfig::tensor(4));
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn repeated_choice_of_zero_iterations_panics() {
        Counting::default().choose_repeated(&BatchStats { total_new_tokens: 1, num_seqs: 1 }, 0);
    }

    #[test]
    fn policy_is_object_safe() {
        let p: Box<dyn ParallelismPolicy> =
            Box::new(StaticPolicy::new("TP", ParallelConfig::tensor(4)));
        let stats = BatchStats { total_new_tokens: 5, num_seqs: 5 };
        assert_eq!(p.choose(&stats).degree(), 4);
    }
}

//! The per-iteration parallelism decision.
//!
//! The engine consults a [`ParallelismPolicy`] before every iteration,
//! passing the batch statistics (the paper's switching signal is the
//! number of batched tokens, Algorithm 2); a macro-stepped run of
//! iterations with constant statistics asks once. Static deployments
//! always return the same configuration; Shift Parallelism (in
//! `shift-core`) switches between its base and shift configurations.

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
/// [`ParallelismPolicy::choose`] is a pure function of `stats`: the
/// engine asks once for a run of iterations with constant batch stats,
/// and counts configuration use and switches itself (see
/// `EngineReport::config_usage` and `EngineReport::switches` in
/// `sp-engine`).
///
/// Every configuration `choose` returns is one of
/// [`ParallelismPolicy::configurations`]; the engine compiles a plan
/// for each at startup and panics, naming the policy, when a choice
/// has none.
pub trait ParallelismPolicy: fmt::Debug + Send {
    /// The configuration to run the next iteration under.
    fn choose(&self, stats: &BatchStats) -> ParallelConfig;

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

    #[test]
    fn policy_is_object_safe() {
        let p: Box<dyn ParallelismPolicy> =
            Box::new(StaticPolicy::new("TP", ParallelConfig::tensor(4)));
        let stats = BatchStats { total_new_tokens: 5, num_seqs: 5 };
        assert_eq!(p.choose(&stats).degree(), 4);
    }
}

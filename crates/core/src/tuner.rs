//! Deployment auto-tuning.
//!
//! The paper picks its configurations by expert reasoning (§3.2.2 for the
//! base config, a fixed threshold for Algorithm 2). This module automates
//! the choice: given a node, a model, and a *sample of the expected
//! workload*, it grid-searches the shift deployment's knobs — base
//! `(SP, TP)`, switch threshold, and chunked-prefill cap — against a
//! user-chosen objective, by running the candidate deployments in the
//! simulator.

use crate::deployment::{Deployment, DeploymentKind};
use sp_cluster::NodeSpec;
use sp_engine::EngineReport;
use sp_metrics::{SloReport, SloTarget};
use sp_model::ModelConfig;
use sp_parallel::ParallelConfig;
use sp_workload::Trace;
use std::fmt;

/// What the tuner optimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize median request completion time.
    MedianCompletion,
    /// Minimize p99 TTFT (burst robustness).
    TailTtft,
    /// Maximize combined throughput.
    Throughput,
    /// Maximize SLO-attaining tokens per second.
    Goodput(SloTarget),
}

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Base `(SP, TP)` configuration.
    pub base: ParallelConfig,
    /// Shift threshold in batched tokens.
    pub threshold: u64,
    /// Chunked-prefill cap (`None` = uncapped).
    pub max_prefill_tokens: Option<u64>,
    /// Objective score — *lower is better* (throughput-style objectives
    /// are negated).
    pub score: f64,
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "base {} threshold {} cap {} score {:.4}",
            self.base,
            self.threshold,
            self.max_prefill_tokens.map_or("none".to_string(), |c| c.to_string()),
            self.score
        )
    }
}

/// Grid-search tuner for shift deployments.
///
/// # Examples
///
/// ```
/// use shift_core::tuner::{Objective, Tuner};
/// use sp_cluster::NodeSpec;
/// use sp_model::presets;
/// use sp_workload::synthetic;
///
/// let sample = synthetic::poisson(30, 4.0, 2048, 64, 1);
/// let tuner = Tuner::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b());
/// let best = tuner.tune(&sample, Objective::MedianCompletion).unwrap();
/// assert!(best.base.degree() == 8);
///
/// // One run per candidate, ranked under several objectives at once.
/// let rankings =
///     tuner.sweep(&sample, &[Objective::MedianCompletion, Objective::Throughput]).unwrap();
/// assert_eq!(rankings[0][0], best);
/// assert!(rankings[1][0].score < 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Tuner {
    node: NodeSpec,
    model: ModelConfig,
    thresholds: Vec<u64>,
    prefill_caps: Vec<Option<u64>>,
}

impl Tuner {
    /// Creates a tuner with the default search grid.
    pub fn new(node: NodeSpec, model: ModelConfig) -> Tuner {
        Tuner { node, model, thresholds: vec![64, 256, 1024], prefill_caps: vec![None, Some(2048)] }
    }

    /// Overrides the threshold grid.
    pub fn thresholds(mut self, thresholds: Vec<u64>) -> Tuner {
        self.thresholds = thresholds;
        self
    }

    /// Overrides the prefill-cap grid.
    pub fn prefill_caps(mut self, caps: Vec<Option<u64>>) -> Tuner {
        self.prefill_caps = caps;
        self
    }

    /// Viable base configurations on this node (weights fit, heads lay
    /// out, shift-model overhead accounted).
    pub fn base_candidates(&self) -> Vec<ParallelConfig> {
        let gpus = self.node.gpu_count;
        let mut out = Vec::new();
        let mut tp = 1;
        while tp <= gpus {
            if gpus.is_multiple_of(tp) {
                let base = ParallelConfig::new(gpus / tp, tp);
                if base.degree() > 1
                    && Deployment::builder(self.node, self.model.clone())
                        .kind(DeploymentKind::ShiftWithBase { base, threshold: 256 })
                        .build()
                        .is_ok()
                {
                    out.push(base);
                }
            }
            tp *= 2;
        }
        out
    }

    fn score(report: &mut EngineReport, objective: Objective) -> f64 {
        match objective {
            Objective::MedianCompletion => {
                report.metrics_mut().completion().median().unwrap_or(f64::INFINITY)
            }
            Objective::TailTtft => report.metrics_mut().ttft().p99().unwrap_or(f64::INFINITY),
            Objective::Throughput => -report.combined_throughput(),
            Objective::Goodput(target) => {
                let slo = SloReport::evaluate(report.records(), target);
                -slo.goodput(report.makespan().since(sp_metrics::SimTime::ZERO))
            }
        }
    }

    /// Runs every grid candidate on `sample` once and ranks the grid under
    /// each of `objectives`: one list per objective, in the same order,
    /// each holding every candidate, best first.
    ///
    /// # Errors
    ///
    /// Returns an error message if no base configuration is viable.
    pub fn sweep(
        &self,
        sample: &Trace,
        objectives: &[Objective],
    ) -> Result<Vec<Vec<Candidate>>, String> {
        let bases = self.base_candidates();
        if bases.is_empty() {
            return Err(format!("no viable shift base for {} on this node", self.model.name));
        }
        let mut rankings = vec![Vec::new(); objectives.len()];
        for &base in &bases {
            for &threshold in &self.thresholds {
                for &cap in &self.prefill_caps {
                    let mut builder = Deployment::builder(self.node, self.model.clone())
                        .kind(DeploymentKind::ShiftWithBase { base, threshold });
                    if let Some(c) = cap {
                        builder = builder.max_prefill_tokens(c);
                    }
                    let Ok(mut dep) = builder.build() else { continue };
                    let mut report = dep.run(sample);
                    for (ranking, &objective) in rankings.iter_mut().zip(objectives) {
                        let score = Self::score(&mut report, objective);
                        ranking.push(Candidate { base, threshold, max_prefill_tokens: cap, score });
                    }
                }
            }
        }
        for ranking in &mut rankings {
            ranking.sort_by(|a, b| a.score.partial_cmp(&b.score).expect("finite scores"));
        }
        Ok(rankings)
    }

    /// Returns the best candidate for `objective` on `sample`.
    ///
    /// # Errors
    ///
    /// Returns an error message if no candidate could be evaluated.
    pub fn tune(&self, sample: &Trace, objective: Objective) -> Result<Candidate, String> {
        self.sweep(sample, &[objective])?
            .swap_remove(0)
            .into_iter()
            .next()
            .ok_or_else(|| "no candidate evaluated".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_model::presets;
    use sp_workload::synthetic;

    fn tuner() -> Tuner {
        Tuner::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b())
    }

    #[test]
    fn base_candidates_cover_factorizations() {
        let bases = tuner().base_candidates();
        assert!(bases.contains(&ParallelConfig::sequence(8)));
        assert!(bases.contains(&ParallelConfig::new(4, 2)));
        // degree-1 configs are excluded (nothing to shift).
        assert!(bases.iter().all(|b| b.degree() > 1));
    }

    #[test]
    fn sweep_is_sorted_best_first() {
        let sample = synthetic::poisson(20, 4.0, 1024, 32, 2);
        let t = tuner().thresholds(vec![0, 256]).prefill_caps(vec![None]);
        let sweep = t.sweep(&sample, &[Objective::MedianCompletion]).unwrap().swap_remove(0);
        assert!(sweep.len() >= 4);
        for w in sweep.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
    }

    #[test]
    fn completion_objective_rejects_pure_sp_decode() {
        // "Always base" with a pure-SP base (threshold 0, SP=8) has the
        // worst TPOT; on decode-heavy traffic the tuner must rank it last.
        // (It may legitimately pick a *mixed* base with threshold 0: for
        // small models at batch 1, a (SP=2, TP=4) decode beats TP=8
        // because the all-reduce is latency-bound — a real crossover the
        // grid search discovers.)
        let sample = synthetic::poisson(16, 2.0, 512, 200, 3);
        let t = tuner().thresholds(vec![0, 256]).prefill_caps(vec![None]);
        let sweep = t.sweep(&sample, &[Objective::MedianCompletion]).unwrap().swap_remove(0);
        let worst = sweep.last().unwrap();
        assert_eq!(worst.base, ParallelConfig::sequence(8), "worst {worst}");
        assert_eq!(worst.threshold, 0);
        let best = sweep.first().unwrap();
        assert!(best.score < 0.8 * worst.score, "best {best} vs worst {worst}");
    }

    #[test]
    fn one_sweep_ranks_like_one_sweep_per_objective() {
        let sample = synthetic::poisson(16, 4.0, 1024, 64, 5);
        let t = tuner().thresholds(vec![64, 1024]).prefill_caps(vec![None, Some(1024)]);
        let objectives = [
            Objective::MedianCompletion,
            Objective::TailTtft,
            Objective::Throughput,
            Objective::Goodput(SloTarget::interactive()),
        ];
        let joint = t.sweep(&sample, &objectives).unwrap();
        assert_eq!(joint.len(), objectives.len());
        for (ranking, &objective) in joint.iter().zip(&objectives) {
            assert_eq!(*ranking, t.sweep(&sample, &[objective]).unwrap()[0], "{objective:?}");
        }
    }

    #[test]
    fn throughput_objective_negates_score() {
        let sample = synthetic::uniform_batch(32, 2048, 32);
        let t = tuner().thresholds(vec![256]).prefill_caps(vec![None]);
        let best = t.tune(&sample, Objective::Throughput).unwrap();
        assert!(best.score < 0.0, "throughput scores are negated: {best}");
    }

    #[test]
    fn goodput_objective_runs() {
        let sample = synthetic::poisson(16, 4.0, 1024, 64, 4);
        let t = tuner().thresholds(vec![256]).prefill_caps(vec![None, Some(1024)]);
        let best = t.tune(&sample, Objective::Goodput(SloTarget::interactive())).unwrap();
        assert!(best.score <= 0.0);
    }
}

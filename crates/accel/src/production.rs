//! The §4.5 production composition and Figure 16 baseline profiles.

use crate::specdec;
use crate::swiftkv::SwiftKv;
use shift_core::{Deployment, DeploymentError, DeploymentKind};
use sp_cluster::NodeSpec;
use sp_engine::SpecDecode;
use sp_metrics::Dur;
use sp_model::ModelConfig;
use sp_parallel::EngineOverhead;

/// A composed production deployment: Shift Parallelism plus optional
/// SwiftKV and speculative decoding.
///
/// # Examples
///
/// ```
/// use sp_accel::ProductionStack;
/// use sp_cluster::NodeSpec;
/// use sp_model::presets;
///
/// let dep = ProductionStack::arctic_like()
///     .deploy(NodeSpec::p5en_48xlarge(), presets::llama_70b());
/// assert!(dep.is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductionStack {
    /// Parallelism strategy (default: Shift).
    pub kind: DeploymentKind,
    /// SwiftKV transform, if enabled.
    pub swiftkv: Option<SwiftKv>,
    /// Speculative decoding, if enabled.
    pub spec_decode: Option<SpecDecode>,
    /// Engine CPU overhead profile.
    pub overhead: EngineOverhead,
}

impl ProductionStack {
    /// Plain Shift Parallelism, no extra accelerations.
    pub fn shift_only() -> ProductionStack {
        ProductionStack {
            kind: DeploymentKind::Shift,
            swiftkv: None,
            spec_decode: None,
            overhead: EngineOverhead::default(),
        }
    }

    /// The paper's production stack (ArcticInference): Shift Parallelism +
    /// SwiftKV + SuffixDecoding-style speculation.
    pub fn arctic_like() -> ProductionStack {
        ProductionStack {
            kind: DeploymentKind::Shift,
            swiftkv: Some(SwiftKv::default()),
            spec_decode: Some(specdec::suffix_decoding()),
            overhead: EngineOverhead::default(),
        }
    }

    /// Adds SwiftKV.
    pub fn with_swiftkv(mut self, sk: SwiftKv) -> ProductionStack {
        self.swiftkv = Some(sk);
        self
    }

    /// Builds the deployment on `node` for `model`.
    ///
    /// # Errors
    ///
    /// Propagates [`DeploymentError`] from the underlying builder.
    pub fn deploy(
        &self,
        node: NodeSpec,
        model: ModelConfig,
    ) -> Result<Deployment, DeploymentError> {
        let mut b = Deployment::builder(node, model)
            .kind(self.kind)
            .overhead(self.overhead)
            .throughput_bin(Dur::from_secs(1.0));
        if let Some(sk) = self.swiftkv {
            b = b.prefill_flops_scale(sk.prefill_flops_scale());
        }
        if let Some(sd) = self.spec_decode {
            b = b.spec_decode(sd);
        }
        b.build()
    }
}

/// Engine-overhead profiles standing in for the frameworks Figure 16
/// compares "out-of-the-box": the forward-pass model is identical (same
/// GPUs, same math), so frameworks differ by scheduler overhead and which
/// speculation they ship.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkProfile {
    /// Framework name as in Figure 16.
    pub name: &'static str,
    /// Per-iteration CPU overhead.
    pub overhead: EngineOverhead,
    /// The best speculation the framework enables by default.
    pub spec_decode: Option<SpecDecode>,
}

impl FrameworkProfile {
    /// vLLM v0.9-like profile.
    pub fn vllm() -> FrameworkProfile {
        FrameworkProfile {
            name: "vLLM",
            overhead: EngineOverhead::vllm_like(),
            spec_decode: Some(specdec::ngram()),
        }
    }

    /// SGLang v0.4-like profile: leaner scheduler.
    pub fn sglang() -> FrameworkProfile {
        FrameworkProfile {
            name: "SGLang",
            overhead: EngineOverhead {
                base: Dur::from_millis(1.8),
                per_seq: Dur::from_micros(8.0),
            },
            spec_decode: Some(specdec::ngram()),
        }
    }

    /// TensorRT-LLM v0.18-like profile: compiled runtime, lowest overhead,
    /// draft-model speculation.
    pub fn trt_llm() -> FrameworkProfile {
        FrameworkProfile {
            name: "TRT-LLM",
            overhead: EngineOverhead {
                base: Dur::from_millis(1.2),
                per_seq: Dur::from_micros(6.0),
            },
            spec_decode: Some(SpecDecode::new(4, 0.55)),
        }
    }

    /// Deploys this framework profile with a given parallelism kind.
    ///
    /// # Errors
    ///
    /// Propagates [`DeploymentError`] from the underlying builder.
    pub fn deploy(
        &self,
        node: NodeSpec,
        model: ModelConfig,
        kind: DeploymentKind,
    ) -> Result<Deployment, DeploymentError> {
        let mut b = Deployment::builder(node, model).kind(kind).overhead(self.overhead);
        if let Some(sd) = self.spec_decode {
            b = b.spec_decode(sd);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_model::presets;
    use sp_workload::{bursty::BurstyConfig, synthetic};

    fn node() -> NodeSpec {
        NodeSpec::p5en_48xlarge()
    }

    #[test]
    fn compounding_reduces_completion_time() {
        // Figure 16: each added optimization strictly improves completion
        // time on interactive traffic.
        let trace = synthetic::single(8192, 250);
        let run = |stack: ProductionStack| {
            let mut dep = stack.deploy(node(), presets::llama_70b()).unwrap();
            let mut r = dep.run(&trace);
            r.metrics_mut().completion().median().unwrap()
        };
        let shift = run(ProductionStack::shift_only());
        let with_swift = run(ProductionStack::shift_only().with_swiftkv(SwiftKv::default()));
        let full = run(ProductionStack::arctic_like());
        assert!(with_swift < shift, "{with_swift} !< {shift}");
        assert!(full < with_swift, "{full} !< {with_swift}");
        // Headline shape: several-fold faster than plain shift.
        assert!(full < 0.55 * shift, "full stack {full:.3}s vs shift {shift:.3}s");
    }

    #[test]
    fn production_stack_beats_baseline_frameworks_on_completion() {
        // Figure 16's claim: lowest completion time *and* at-least-par
        // throughput in one deployment.
        let trace = BurstyConfig {
            duration: sp_metrics::Dur::from_secs(60.0),
            bursts: 1,
            burst_size: 60,
            ..BurstyConfig::default()
        }
        .generate();
        let model = presets::llama_70b;

        let mut ours = ProductionStack::arctic_like().deploy(node(), model()).unwrap();
        let mut ours_report = ours.run(&trace);
        let ours_completion = ours_report.metrics_mut().completion().median().unwrap();
        let ours_tput = ours_report.combined_throughput();

        for profile in [FrameworkProfile::vllm(), FrameworkProfile::sglang()] {
            // Latency-optimized baseline: TP.
            let mut tp = profile.deploy(node(), model(), DeploymentKind::TensorParallel).unwrap();
            let mut tp_report = tp.run(&trace);
            let tp_completion = tp_report.metrics_mut().completion().median().unwrap();
            assert!(
                ours_completion < tp_completion,
                "{}-TP completion {tp_completion:.2}s vs ours {ours_completion:.2}s",
                profile.name
            );
            // Throughput-optimized baseline: DP.
            let mut dp = profile.deploy(node(), model(), DeploymentKind::DataParallel).unwrap();
            let dp_report = dp.run(&trace);
            assert!(
                ours_tput > 0.9 * dp_report.combined_throughput(),
                "{}-DP throughput {:.0} vs ours {:.0}",
                profile.name,
                dp_report.combined_throughput(),
                ours_tput
            );
        }
    }

    #[test]
    fn framework_profiles_differ_in_overhead() {
        assert!(
            FrameworkProfile::trt_llm().overhead.base < FrameworkProfile::sglang().overhead.base
        );
        assert!(FrameworkProfile::sglang().overhead.base < FrameworkProfile::vllm().overhead.base);
    }
}

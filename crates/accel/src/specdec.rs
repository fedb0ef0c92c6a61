//! Speculative-decoding presets.
//!
//! The mechanism lives in the engine ([`sp_engine::SpecDecode`]): a draft
//! source proposes `k` tokens, the target model verifies them in one
//! forward pass, and a geometric prefix is accepted. This module provides
//! the presets used in the paper's production evaluation.

use sp_engine::SpecDecode;

/// SuffixDecoding-style speculation (Oliaro et al., 2025): long drafts
/// from a suffix tree of prior generations; high acceptance on the
/// repetitive agentic/code traffic of §4.5.
pub fn suffix_decoding() -> SpecDecode {
    SpecDecode::new(7, 0.66)
}

/// Conservative n-gram speculation, the "best available" fallback enabled
/// for baseline frameworks in Figure 16.
pub fn ngram() -> SpecDecode {
    SpecDecode::new(3, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_core::{Deployment, DeploymentKind};
    use sp_cluster::NodeSpec;
    use sp_model::presets;
    use sp_workload::synthetic;

    #[test]
    fn expected_emitted_formula() {
        let sd = SpecDecode::new(3, 0.5);
        // 1 + 0.5 + 0.25 + 0.125 = 1.875
        assert!((sd.expected_emitted() - 1.875).abs() < 1e-12);
    }

    #[test]
    fn suffix_decoding_beats_ngram() {
        assert!(suffix_decoding().expected_emitted() > ngram().expected_emitted());
        assert!(suffix_decoding().expected_emitted() > 2.0);
    }

    #[test]
    fn spec_decode_cuts_decode_iterations() {
        let node = NodeSpec::p5en_48xlarge();
        let trace = synthetic::single(1024, 200);
        let mut plain = Deployment::builder(node, presets::llama_70b())
            .kind(DeploymentKind::TensorParallel)
            .build()
            .unwrap();
        let mut spec = Deployment::builder(node, presets::llama_70b())
            .kind(DeploymentKind::TensorParallel)
            .spec_decode(suffix_decoding())
            .build()
            .unwrap();
        let plain_report = plain.run(&trace);
        let spec_report = spec.run(&trace);
        assert!(
            (spec_report.iterations() as f64) < plain_report.iterations() as f64 / 1.8,
            "spec {} vs plain {} iterations",
            spec_report.iterations(),
            plain_report.iterations()
        );
        // Same client-visible tokens.
        assert_eq!(spec_report.metrics().total_tokens(), plain_report.metrics().total_tokens());
    }

    #[test]
    fn spec_decode_improves_completion_time() {
        let node = NodeSpec::p5en_48xlarge();
        let trace = synthetic::single(1024, 250);
        let run = |sd: Option<SpecDecode>| {
            let mut b = Deployment::builder(node, presets::llama_70b()).kind(DeploymentKind::Shift);
            if let Some(sd) = sd {
                b = b.spec_decode(sd);
            }
            let mut dep = b.build().unwrap();
            let mut r = dep.run(&trace);
            r.metrics_mut().completion().median().unwrap()
        };
        let plain = run(None);
        let fast = run(Some(suffix_decoding()));
        assert!(fast < 0.7 * plain, "spec completion {fast:.3}s vs plain {plain:.3}s");
    }
}

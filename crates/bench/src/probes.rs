//! Latency and throughput probes (§4.3.1 methodology).

use crate::harness::run_kind;
use shift_core::DeploymentKind;
use sp_cluster::NodeSpec;
use sp_model::ModelConfig;
use sp_workload::synthetic;

/// Result of a minimum-latency probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProbe {
    /// TTFT of a lone request, milliseconds.
    pub ttft_ms: f64,
    /// TPOT of a lone request, milliseconds.
    pub tpot_ms: f64,
    /// End-to-end completion time, seconds.
    pub completion_s: f64,
}

/// Measures minimum latency on `node`: a single request processed alone
/// ("we process requests sequentially, a single request at a time").
pub fn min_latency_probe(
    node: NodeSpec,
    kind: DeploymentKind,
    model: &ModelConfig,
    input: u32,
    output: u32,
) -> LatencyProbe {
    let mut report = run_kind(node, kind, model, &synthetic::single(input, output));
    let m = report.metrics_mut();
    LatencyProbe {
        ttft_ms: m.ttft().median().unwrap_or(0.0) * 1e3,
        tpot_ms: m.tpot().median().unwrap_or(0.0) * 1e3,
        completion_s: m.completion().median().unwrap_or(0.0),
    }
}

/// Measures peak combined throughput on `node`: a saturating batch
/// submitted at once ("we send a batch of requests (thousands) and
/// provide sufficient concurrency"). `count` defaults (when 0) to
/// whatever keeps roughly 2M prompt tokens in flight.
pub fn peak_throughput_probe(
    node: NodeSpec,
    kind: DeploymentKind,
    model: &ModelConfig,
    input: u32,
    output: u32,
    count: usize,
) -> f64 {
    let count = if count == 0 { (2_000_000 / input as usize).clamp(8, 4_000) } else { count };
    let report = run_kind(node, kind, model, &synthetic::uniform_batch(count, input, output));
    report.combined_throughput()
}

/// Prints the per-phase wall breakdown accumulated by
/// [`sp_core::profile`] (batch build / pricing / merge / admission /
/// window detect / dispatch) when `SP_PROFILE=1`; no-op — and no output — otherwise. Benches call this
/// at the end of a run so future perf work can see where time goes
/// without external tooling.
pub fn print_profile() {
    if !sp_core::profile::enabled() {
        return;
    }
    eprintln!("SP_PROFILE phase breakdown (wall seconds; phases nest, columns overlap):");
    for (name, secs, calls) in sp_core::profile::snapshot() {
        let per_call_us = if calls > 0 { secs * 1e6 / calls as f64 } else { 0.0 };
        eprintln!("  {name:<12} {secs:>9.3}s  {calls:>12} calls  {per_call_us:>8.2} us/call");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::node;
    use sp_model::presets;

    #[test]
    fn figure12_shape_llama() {
        // The headline tradeoff (Figure 12a, Llama-70B):
        //   TTFT: Shift < TP < DP
        //   TPOT: Shift ≈ TP < SP, DP
        //   Peak throughput: DP > Shift > TP
        let m = presets::llama_70b();
        let shift = min_latency_probe(node(), DeploymentKind::Shift, &m, 4096, 250);
        let tp = min_latency_probe(node(), DeploymentKind::TensorParallel, &m, 4096, 250);
        let dp = min_latency_probe(node(), DeploymentKind::DataParallel, &m, 4096, 250);
        let sp = min_latency_probe(node(), DeploymentKind::SequenceParallel, &m, 4096, 250);

        assert!(shift.ttft_ms < tp.ttft_ms, "shift {shift:?} vs tp {tp:?}");
        assert!(tp.ttft_ms < dp.ttft_ms);
        assert!(shift.tpot_ms <= tp.tpot_ms * 1.05);
        assert!(sp.tpot_ms > 1.5 * tp.tpot_ms, "SP TPOT should be worst");
        assert!(dp.tpot_ms > 1.4 * tp.tpot_ms);

        let tput_tp =
            peak_throughput_probe(node(), DeploymentKind::TensorParallel, &m, 4096, 250, 0);
        let tput_dp = peak_throughput_probe(node(), DeploymentKind::DataParallel, &m, 4096, 250, 0);
        let tput_shift = peak_throughput_probe(node(), DeploymentKind::Shift, &m, 4096, 250, 0);
        assert!(tput_dp > tput_shift, "DP {tput_dp:.0} vs Shift {tput_shift:.0}");
        assert!(
            tput_shift > 1.2 * tput_tp,
            "Shift {tput_shift:.0} should beat TP {tput_tp:.0} substantially (paper: ~1.5x)"
        );
    }

    #[test]
    fn tpot_magnitude_matches_paper() {
        // Figure 12: best TPOT 9.34 ms (Llama-70B), 8.68 ms (Qwen-32B).
        let l = min_latency_probe(node(), DeploymentKind::Shift, &presets::llama_70b(), 4096, 250);
        assert!((4.0..16.0).contains(&l.tpot_ms), "Llama TPOT {:.1}ms", l.tpot_ms);
        let q = min_latency_probe(node(), DeploymentKind::Shift, &presets::qwen_32b(), 4096, 250);
        assert!((3.0..14.0).contains(&q.tpot_ms), "Qwen TPOT {:.1}ms", q.tpot_ms);
        assert!(q.tpot_ms < l.tpot_ms, "smaller model decodes faster");
    }
}

//! Figure 12: latency vs. throughput tradeoff across parallelisms.
//!
//! Methodology (§4.3.1): minimum latency from a lone request (4k input,
//! 250 output); peak throughput from a saturating batch.

use crate::harness::{node, print_table, standard_kinds};
use crate::probes::{min_latency_probe, peak_throughput_probe};
use shift_core::DeploymentKind;
use sp_model::presets;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    for model in [presets::llama_70b(), presets::qwen_32b()] {
        let mut rows = Vec::new();
        let (mut tp_ttft, mut tp_tput, mut shift_ttft, mut shift_tput) = (0.0, 0.0, 0.0, 0.0);
        for (name, kind) in standard_kinds() {
            let lat = min_latency_probe(node(), kind, &model, 4096, 250);
            let tput = peak_throughput_probe(node(), kind, &model, 4096, 250, 0);
            match kind {
                DeploymentKind::TensorParallel => (tp_ttft, tp_tput) = (lat.ttft_ms, tput),
                DeploymentKind::Shift => (shift_ttft, shift_tput) = (lat.ttft_ms, tput),
                _ => {}
            }
            rows.push(vec![
                name.to_string(),
                format!("{:.0}", lat.ttft_ms),
                format!("{:.2}", lat.tpot_ms),
                format!("{:.2}", lat.completion_s),
                format!("{:.0}", tput),
            ]);
        }
        print_table(
            out,
            &format!("Figure 12 — {} (4k in / 250 out)", model.name),
            &["system", "min TTFT (ms)", "min TPOT (ms)", "completion (s)", "peak tok/s"],
            &rows,
        )?;
        writeln!(
            out,
            "Shift vs TP: TTFT {:.2}x faster, throughput {:.2}x higher \
             (paper: ~1.5x TTFT, TP loses ~46% throughput)",
            tp_ttft / shift_ttft,
            shift_tput / tp_tput
        )?;
    }
    Ok(())
}

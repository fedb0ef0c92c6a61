//! Figure 1: response speed (#input tokens / TTFT), generation rate
//! (1 / TPOT), and combined throughput in low vs. high traffic.

use crate::harness::{node, print_table, standard_kinds};
use crate::probes::{min_latency_probe, peak_throughput_probe};
use sp_model::presets;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b();
    let (input, output) = (4096u32, 250u32);

    let mut rows = Vec::new();
    for (name, kind) in standard_kinds() {
        let lat = min_latency_probe(node(), kind, &model, input, output);
        let tput = peak_throughput_probe(node(), kind, &model, input, output, 0);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", f64::from(input) / (lat.ttft_ms / 1e3)),
            format!("{:.0}", 1e3 / lat.tpot_ms),
            format!("{:.0}", tput),
        ]);
    }
    print_table(
        out,
        "Figure 1 — Llama-70B, 4k/250",
        &["system", "response speed (in-tok/s)", "gen rate (tok/s)", "high-traffic tok/s"],
        &rows,
    )?;
    writeln!(
        out,
        "\nExpected shape: Shift ~1.5x higher throughput than TP in high traffic,\n\
         ~1.5x faster response than TP and ~2x faster generation than DP in low\n\
         traffic, while losing only ~17% throughput to DP."
    )
}

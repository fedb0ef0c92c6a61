//! Figure 17: peak throughput and minimum latency across all four
//! Table 4 models and input sequence lengths, including the MoE models
//! of §4.6 (Llama-17B-16E deployed as (SP=4, TP=2); Qwen-30B-A3B with
//! KV-cache replication at SP=8).

use super::{length_sweep, SweepMetric};
use crate::harness::node;
use shift_core::Deployment;
use sp_model::presets;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let lengths = [2_048, 8_192, 32_768, 131_072];
    let metrics: [SweepMetric; 3] = [
        ("peak tok/s", |_, tput| format!("{tput:.0}")),
        ("min TTFT (ms)", |lat, _| format!("{:.0}", lat.ttft_ms)),
        ("min TPOT (ms)", |lat, _| format!("{:.2}", lat.tpot_ms)),
    ];
    for model in presets::all_table4() {
        let base = Deployment::auto_base(&node(), &model, 0.9).unwrap();
        writeln!(
            out,
            "\n### {} — auto base config {base} (total {:.0}B / active {:.0}B params)",
            model.name,
            model.total_params() as f64 / 1e9,
            model.active_params() as f64 / 1e9
        )?;
        length_sweep(out, "Figure 17", &model, &lengths, &metrics)?;
    }
    writeln!(
        out,
        "\nExpected shapes: sparse (MoE) models reach higher throughput and lower\n\
         latency than dense ones; Qwen-30B-A3B peaks with DP (engine overhead\n\
         dominates parallel configs for small models, §4.4/§4.6); Shift gains up to\n\
         ~50% throughput over TP everywhere without losing latency."
    )
}

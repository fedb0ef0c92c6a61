//! Figure 13: TTFT, TPOT and peak throughput vs. input context size
//! (2k–128k input, 250 output).

use super::{length_sweep, SweepMetric};
use sp_model::presets;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let lengths = [2_048, 4_096, 8_192, 16_384, 32_768, 65_536, 131_072];
    let metrics: [SweepMetric; 3] = [
        ("TTFT (ms)", |lat, _| format!("{:.0}", lat.ttft_ms)),
        ("TPOT (ms)", |lat, _| format!("{:.2}", lat.tpot_ms)),
        ("peak tok/s", |_, tput| format!("{tput:.0}")),
    ];
    for model in [presets::llama_70b(), presets::qwen_32b()] {
        length_sweep(out, "Figure 13", &model, &lengths, &metrics)?;
    }
    writeln!(
        out,
        "\nExpected shapes: Shift response up to ~7x faster than DP and ~1.5x than TP;\n\
         TPOT grows with context (KV reads); throughput collapses at long context\n\
         (attention-dominated, §4.4)."
    )
}

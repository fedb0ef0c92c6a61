//! Figure 15: end-to-end cost breakdown of a batch workload.
//!
//! Walks one saturated iteration per configuration and sequence length,
//! splitting time into GEMM, attention, communication, and engine
//! (vLLM-like) overhead — the "take away one component at a time"
//! methodology of §4.4.

use crate::harness::{node, print_table};
use sp_model::presets;
use sp_parallel::{BatchWork, ChunkWork, ExecutionModel, ParallelConfig};
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    for model in [presets::llama_70b(), presets::qwen_32b()] {
        let exec = ExecutionModel::new(node(), model.clone());
        let mut rows = Vec::new();
        for seq_len in [2_048u64, 8_192, 32_768, 131_072] {
            // A saturated chunked-prefill iteration: an 8k chunk of a
            // request at this context depth plus a 128-wide decode ride.
            let chunk = 8_192.min(seq_len);
            let batch = BatchWork::new(
                std::iter::once(ChunkWork::prefill(chunk, seq_len - chunk, false))
                    .chain(std::iter::repeat_n(ChunkWork::decode(seq_len), 128))
                    .collect(),
            );
            for (name, config) in [
                ("TP", ParallelConfig::tensor(8)),
                ("SP", ParallelConfig::sequence(8)),
                ("DP/GPU", ParallelConfig::single()),
            ] {
                // DP: one replica gets 1/8 of the batch.
                let b = if config.degree() == 1 {
                    BatchWork::new(
                        std::iter::once(ChunkWork::prefill(chunk / 8, seq_len - chunk, false))
                            .chain(std::iter::repeat_n(ChunkWork::decode(seq_len), 16))
                            .collect(),
                    )
                } else {
                    batch.clone()
                };
                let it = exec.iteration(&config, &b);
                let total = it.total().as_millis();
                rows.push(vec![
                    format!("{}k", seq_len / 1024),
                    name.to_string(),
                    format!("{:.1}", it.gemm.as_millis()),
                    format!("{:.1}", it.attention.as_millis()),
                    format!("{:.1}", it.communication.as_millis()),
                    format!("{:.1}", it.overhead.as_millis()),
                    format!("{total:.1}"),
                    format!("{:.0}%", it.communication.as_millis() / total * 100.0),
                ]);
            }
        }
        print_table(
            out,
            &format!("Figure 15 — {} iteration cost breakdown (ms)", model.name),
            &["ctx", "config", "gemm", "attn", "comm", "vLLM ovh", "total", "comm%"],
            &rows,
        )?;
    }
    writeln!(
        out,
        "\nExpected shape: SP communication is a small fraction of TP's; attention time\n\
         dominates at long contexts; engine overhead is a visible share for the smaller\n\
         model at short contexts (§4.4)."
    )
}

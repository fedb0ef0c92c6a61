//! §4.6 future work, quantified: combining SP with expert parallelism
//! (EP) for the sparse models — "there is no prior work that combines SP
//! with EP to further optimize sparse models".

use crate::harness::{node, print_table};
use sp_model::presets;
use sp_parallel::expert::{ExpertExecutionModel, ExpertParallelConfig};
use sp_parallel::{BatchWork, ExecutionModel, ParallelConfig};
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    for model in [presets::qwen_30b_a3b(), presets::llama_17b_16e()] {
        let dense_walk = ExecutionModel::new(node(), model.clone());
        let ep_walk = ExpertExecutionModel::new(node(), model.clone());
        let moe = model.moe.expect("MoE model");

        let mut rows = Vec::new();
        for (scenario, batch) in [
            ("decode x1 @4k", BatchWork::uniform_decode(1, 4096)),
            ("decode x64 @4k", BatchWork::uniform_decode(64, 4096)),
            ("prefill 8k", BatchWork::single_prefill(8192)),
        ] {
            // Baseline: SP=8 with experts replicated (the paper's §4.6
            // deployment).
            let sp8 = dense_walk.iteration(&ParallelConfig::sequence(8), &batch).total();
            let mut row = vec![scenario.to_string(), format!("{:.2}", sp8.as_millis())];
            // SP×EP combinations.
            for (sp, ep) in [(4usize, 2usize), (2, 4), (1, 8)] {
                if (moe.num_experts as usize).is_multiple_of(ep) {
                    let t = ep_walk.iteration(&ExpertParallelConfig::new(sp, ep), &batch).total();
                    row.push(format!("{:.2}", t.as_millis()));
                } else {
                    row.push("n/a".into());
                }
            }
            rows.push(row);
        }
        print_table(
            out,
            &format!(
                "Future work — SP x EP iteration time (ms), {} ({} experts, top-{})",
                model.name, moe.num_experts, moe.active_experts
            ),
            &["scenario", "SP=8 (repl.)", "SP4xEP2", "SP2xEP4", "EP=8"],
            &rows,
        )?;
    }
    writeln!(
        out,
        "\nReading: EP shards the routed experts, cutting small-batch decode weight\n\
         streaming by up to the EP degree, at the price of two extra dispatch\n\
         all-to-alls per layer — so EP wins decode-heavy regimes and loses some\n\
         prefill. A shift-style SP/EP switch is the natural extension."
    )
}

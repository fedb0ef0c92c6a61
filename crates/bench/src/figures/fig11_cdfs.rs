//! Figure 11: completion-time distributions (CDFs) for the Azure and
//! Mooncake replays.

use crate::harness::{node, print_table, run_kind, standard_kinds};
use sp_model::{presets, Precision};
use sp_workload::azure::AzureCodeConfig;
use sp_workload::mooncake::MooncakeConfig;
use sp_workload::Trace;
use std::io::{self, Write};

fn cdf_table(
    out: &mut dyn Write,
    title: &str,
    model: &sp_model::ModelConfig,
    trace: &Trace,
) -> io::Result<()> {
    let probs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99];
    let mut rows: Vec<Vec<String>> =
        probs.iter().map(|p| vec![format!("p{:.0}", p * 100.0)]).collect();
    for (_, kind) in standard_kinds() {
        let mut report = run_kind(node(), kind, model, trace);
        for (i, &p) in probs.iter().enumerate() {
            let v = report.metrics_mut().completion().quantile(p).unwrap_or(f64::NAN);
            rows[i].push(format!("{v:.2}"));
        }
    }
    print_table(out, title, &["quantile", "TP", "DP", "SP", "Shift"], &rows)
}

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    cdf_table(
        out,
        "Figure 11a — Azure completion-time quantiles (s), Llama-70B",
        &presets::llama_70b(),
        &AzureCodeConfig::default().generate(),
    )?;
    let mut qwen = presets::qwen_32b();
    qwen.kv_precision = Precision::Fp8;
    cdf_table(
        out,
        "Figure 11b — Mooncake completion-time quantiles (s), Qwen-32B (FP8 KV)",
        &qwen,
        &MooncakeConfig::default().generate(),
    )?;
    writeln!(
        out,
        "\nExpected shape: Shift Parallelism's distribution is left-most (most likely\n\
         to deliver the lowest completion time) in both traces."
    )
}

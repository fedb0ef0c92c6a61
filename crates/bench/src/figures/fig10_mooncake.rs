//! Figure 10 + 11b: the Mooncake conversation trace on Qwen-32B with
//! FP8 KV cache.
//!
//! The heavier conversation workload saturates the KV cache of TP and DP
//! deployments, producing unbounded queueing; SP and Shift sustain it.

use crate::harness::{node, print_summaries, print_table, run_kind, standard_kinds, summarize};
use sp_model::{presets, Precision};
use sp_workload::mooncake::MooncakeConfig;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    // §4.2.2: "we turned on FP8 KV cache data type (originally FP16) for
    // increasing the KV cache capacity".
    let mut model = presets::qwen_32b();
    model.kv_precision = Precision::Fp8;

    let trace = MooncakeConfig::default().generate();
    writeln!(
        out,
        "Mooncake-like trace: {} requests / 15 min ({} groups of 9 every 3s), \
         mean input {:.0}, mean output {:.0}",
        trace.len(),
        trace.len() / 9,
        trace.total_input_tokens() as f64 / trace.len() as f64,
        trace.total_output_tokens() as f64 / trace.len() as f64,
    )?;

    let mut summaries = Vec::new();
    let mut wait_rows = Vec::new();
    for (name, kind) in standard_kinds() {
        let mut report = run_kind(node(), kind, &model, &trace);

        // Queue growth indicator: TTFT of successive request quintiles.
        let mut records = report.records().to_vec();
        records.sort_by_key(|r| r.request_id);
        let q = records.len() / 5;
        let mut row = vec![name.to_string()];
        for chunk in records.chunks(q.max(1)).take(5) {
            let mean_ttft =
                chunk.iter().map(|r| r.ttft().as_secs()).sum::<f64>() / chunk.len() as f64;
            row.push(format!("{mean_ttft:.1}"));
        }
        row.push(format!("{:.2}", report.peak_kv_utilization()));
        wait_rows.push(row);
        summaries.push(summarize(name, &mut report));
    }
    print_table(
        out,
        "Figure 10 — mean TTFT (s) per request quintile (queue growth) + peak KV util",
        &["system", "q1", "q2", "q3", "q4", "q5", "peak KV"],
        &wait_rows,
    )?;
    print_summaries(out, "Figure 11b — Mooncake trace latency statistics", &summaries)?;
    writeln!(
        out,
        "\nExpected shape (Figure 10): TP and DP wait times grow without bound across\n\
         quintiles (KV cache saturates); SP and Shift sustain the traffic with\n\
         bounded completion times."
    )
}

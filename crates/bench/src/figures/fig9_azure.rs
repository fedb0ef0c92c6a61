//! Figure 9 + 11a: the Azure LLM Code trace replay on Llama-70B.

use crate::harness::{node, print_summaries, print_table, run_kind, standard_kinds, summarize};
use sp_model::presets;
use sp_workload::azure::AzureCodeConfig;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b();
    let trace = AzureCodeConfig::default().generate();
    writeln!(
        out,
        "Azure-code-like trace: {} requests / 15 min, mean input {:.0}, mean output {:.0}",
        trace.len(),
        trace.total_input_tokens() as f64 / trace.len() as f64,
        trace.total_output_tokens() as f64 / trace.len() as f64,
    )?;

    let mut summaries = Vec::new();
    for (name, kind) in standard_kinds() {
        let mut report = run_kind(node(), kind, &model, &trace);

        // Figure 9: per-request series, decimated to every 100th request
        // in arrival order.
        if name == "Shift" || name == "TP" {
            let mut records = report.records().to_vec();
            records.sort_by_key(|r| r.request_id);
            let rows: Vec<Vec<String>> = records
                .iter()
                .step_by(100)
                .map(|r| {
                    vec![
                        r.request_id.to_string(),
                        format!("{:.0}", r.ttft().as_millis()),
                        format!("{:.0}", r.tpot().as_millis()),
                        format!("{:.2}", r.completion_time().as_secs()),
                    ]
                })
                .collect();
            print_table(
                out,
                &format!("Figure 9 — {name}: per-request series (every 100th request)"),
                &["req", "TTFT(ms)", "TPOT(ms)", "completion(s)"],
                &rows,
            )?;
        }
        summaries.push(summarize(name, &mut report));
    }
    print_summaries(out, "Figure 11a — Azure trace latency statistics", &summaries)?;
    writeln!(
        out,
        "\nExpected shape (Figure 9/11a): bursts inflate TTFT for TP the most; Shift\n\
         obtains the lowest TTFT, TPOT and completion time at p50 and p99."
    )
}

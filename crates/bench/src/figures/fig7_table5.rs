//! Figure 7 + Table 5: the bursty synthetic workload.
//!
//! Replays the Figure 2/7 traffic (steady interactive stream + four
//! high-rate bursts) through TP, DP and Shift deployments of Llama-70B,
//! printing the throughput/latency time series and the Table 5 stats.

use crate::harness::{node, print_summaries, print_table, run_kind, standard_kinds, summarize};
use sp_metrics::Dur;
use sp_model::presets;
use sp_workload::bursty::BurstyConfig;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b();
    let trace = BurstyConfig::default().generate();
    writeln!(
        out,
        "Bursty trace: {} requests over {:.0}s ({} tokens total)",
        trace.len(),
        trace.span().as_secs(),
        trace.total_tokens()
    )?;

    // Arrival-rate panel (Figure 7 top).
    let hist = trace.arrival_histogram(Dur::from_secs(20.0));
    let rows: Vec<Vec<String>> = hist
        .iter()
        .map(|(t, c)| vec![format!("{:.0}", t.as_secs()), format!("{c}"), "#".repeat(*c / 8)])
        .collect();
    print_table(out, "Figure 7 (top) — arrivals per 20s bin", &["t(s)", "req", ""], &rows)?;

    let mut summaries = Vec::new();
    for (name, kind) in standard_kinds() {
        let mut report = run_kind(node(), kind, &model, &trace);

        // Throughput time series (Figure 7 bottom panel), decimated.
        if name == "Shift" {
            let series: Vec<(f64, f64)> =
                report.metrics().throughput().rates().map(|(t, r)| (t.as_secs(), r)).collect();
            let rows: Vec<Vec<String>> = series
                .chunks(30)
                .map(|c| {
                    let t = c[0].0;
                    let avg = c.iter().map(|x| x.1).sum::<f64>() / c.len() as f64;
                    vec![format!("{t:.0}"), format!("{avg:.0}")]
                })
                .collect();
            print_table(
                out,
                "Figure 7 (bottom) — Shift throughput (tok/s, 30s avg)",
                &["t(s)", "tok/s"],
                &rows,
            )?;
        }
        summaries.push(summarize(name, &mut report));
    }

    print_summaries(out, "Table 5 — bursty workload statistics", &summaries)?;
    writeln!(
        out,
        "\nPaper reference (Table 5): DP median TTFT 1355ms / TPOT 83ms / peak 75.5k tok/s;\n\
         TP 3930ms / 85ms / 51.2k; Shift 148ms / 51ms / 69.1k. Expected shape: Shift has by\n\
         far the lowest TTFT, the lowest TPOT, and near-DP peak throughput."
    )
}

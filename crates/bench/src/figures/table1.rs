//! Table 1: qualitative performance tradeoffs of inference parallelisms,
//! derived from measured probes (best = ☆, worst = ×).

use crate::harness::{node, print_table, standard_kinds};
use crate::probes::{min_latency_probe, peak_throughput_probe};
use sp_model::presets;
use std::io::{self, Write};

fn rank(values: &[f64], lower_is_better: bool) -> Vec<&'static str> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
    if !lower_is_better {
        idx.reverse();
    }
    let mut labels = vec![""; n];
    for (pos, &i) in idx.iter().enumerate() {
        labels[i] = match pos {
            0 => "* best",
            p if p == n - 1 => "x worst",
            1 => "~ very good",
            _ => "- near worst",
        };
    }
    labels
}

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b();
    let kinds = standard_kinds();

    let mut ttft = Vec::new();
    let mut tpot = Vec::new();
    let mut tput = Vec::new();
    for (_, kind) in &kinds {
        let lat = min_latency_probe(node(), *kind, &model, 4096, 250);
        ttft.push(lat.ttft_ms);
        tpot.push(lat.tpot_ms);
        tput.push(peak_throughput_probe(node(), *kind, &model, 4096, 250, 0));
    }

    let ttft_rank = rank(&ttft, true);
    let tpot_rank = rank(&tpot, true);
    let tput_rank = rank(&tput, false);

    let rows: Vec<Vec<String>> = kinds
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            vec![
                name.to_string(),
                format!("{} ({:.0}ms)", ttft_rank[i], ttft[i]),
                format!("{} ({:.0} tok/s)", tput_rank[i], tput[i]),
                format!("{} ({:.1}ms)", tpot_rank[i], tpot[i]),
            ]
        })
        .collect();
    print_table(
        out,
        "Table 1 — measured tradeoff grid (Llama-70B)",
        &["strategy", "TTFT (latency)", "combined throughput", "TPOT (token latency)"],
        &rows,
    )?;
    writeln!(
        out,
        "\nPaper's grid: TP = nearly-best TTFT / worst tput / best TPOT;\n\
         DP = worst TTFT / best tput / near-worst TPOT; SP = best TTFT / very good\n\
         tput / worst TPOT; Shift = best TTFT / very good tput / best TPOT."
    )
}

//! Figure 14: request completion time vs. arrival rate (8k input,
//! 250 output). TP and DP cross over; Shift stays lowest everywhere.

use crate::harness::{node, print_table, run_kind, standard_kinds};
use sp_model::presets;
use sp_workload::synthetic;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b();
    let rates = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let requests = 150;

    let mut rows = Vec::new();
    for &rate in &rates {
        let trace = synthetic::poisson(requests, rate, 8192, 250, 14);
        let mut row = vec![format!("{rate}")];
        for (_, kind) in standard_kinds() {
            let mut report = run_kind(node(), kind, &model, &trace);
            let completion = report.metrics_mut().completion().median().unwrap();
            row.push(format!("{completion:.2}"));
        }
        rows.push(row);
    }
    print_table(
        out,
        "Figure 14 — median completion time (s) vs arrival rate (req/s), Llama-70B, 8k/250",
        &["req/s", "TP", "DP", "SP", "Shift"],
        &rows,
    )?;
    writeln!(
        out,
        "\nExpected shape: TP wins at low rates, DP at high rates (curves cross);\n\
         Shift is lowest (or tied) at every rate."
    )
}

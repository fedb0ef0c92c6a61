//! Table 2: per-GPU computational complexity of TP vs. SP, evaluated
//! numerically from the closed forms in `sp_parallel::complexity`.

use crate::harness::print_table;
use sp_model::presets;
use sp_parallel::complexity::{sp_complexity, tp_complexity};
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b();
    let n = 8192;

    let mut rows = Vec::new();
    for degree in [2usize, 4, 8] {
        let tp = tp_complexity(&model, n, degree);
        let sp = sp_complexity(&model, n, degree);
        rows.push(vec![
            format!("TP={degree}"),
            format!("{:.1}", tp.memory_bytes / 1e9),
            format!("{:.1}", tp.compute_flops / 1e12),
            format!("{:.2}", tp.comm_bytes / 1e9),
            format!("{:.2e}", tp.comm_to_compute()),
        ]);
        rows.push(vec![
            format!("SP={degree}"),
            format!("{:.1}", sp.memory_bytes / 1e9),
            format!("{:.1}", sp.compute_flops / 1e12),
            format!("{:.2}", sp.comm_bytes / 1e9),
            format!("{:.2e}", sp.comm_to_compute()),
        ]);
    }
    print_table(
        out,
        "Table 2 — per-GPU complexity, Llama-70B, n = 8192",
        &["config", "memory (GB)", "compute (TFLOP)", "comm (GB)", "comm/compute"],
        &rows,
    )?;
    writeln!(
        out,
        "\nShape check: TP memory and compute shrink with degree but communication\n\
         does not (comm/compute grows ∝ TP); SP communication shrinks with degree\n\
         (comm/compute constant) at the price of replicated memory."
    )
}

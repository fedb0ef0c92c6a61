//! The paper's tables and figures, plus the extension studies, as
//! functions that write their text output to a writer.
//!
//! [`FIGURES`] is the one list of them. Each entry has a binary of the
//! same name that writes the figure to stdout, and a committed copy of
//! that output in `results/<name>.txt`, which the `figures` test
//! compares byte for byte. A change that alters a figure on purpose
//! regenerates its file:
//!
//! ```text
//! cargo run --release -p sp-bench --bin <name> > results/<name>.txt
//! ```

use crate::harness::{node, print_table, standard_kinds};
use crate::probes::{min_latency_probe, peak_throughput_probe, LatencyProbe};
use sp_model::ModelConfig;
use std::io::{self, Write};

/// A figure: writes its whole text output to the writer.
pub type Figure = fn(&mut dyn Write) -> io::Result<()>;

/// Defines the `main` of figure `$name`'s binary: the figure, on stdout.
#[macro_export]
macro_rules! figure_main {
    ($name:ident) => {
        fn main() -> std::io::Result<()> {
            $crate::figures::$name::run(&mut std::io::stdout().lock())
        }
    };
}

/// Declares each figure's module and lists them all, in order, in
/// [`FIGURES`]: the one list of figure names.
macro_rules! figures {
    ($($name:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every figure by name: the paper reproductions in paper order,
        /// then the extension studies.
        pub const FIGURES: &[(&str, Figure)] = &[$((stringify!($name), $name::run)),*];
    };
}

figures! {
    fig1, table1, table2, table3, fig7_table5, fig8_traces, fig9_azure, fig10_mooncake,
    fig11_cdfs, fig12_tradeoff, fig13_context, fig14_arrival, fig15_breakdown,
    fig16_production, fig17_models,
    // Extension studies.
    ablations, disagg_compare, futurework_ep, sensitivity_hw, slo_goodput, autotune, timeline,
    prefix_caching,
}

/// A length-sweep table: its metric label, and its cell for one kind
/// from that kind's minimum-latency probe and peak throughput.
type SweepMetric = (&'static str, fn(&LatencyProbe, f64) -> String);

/// Probes every standard kind of `model` once per input length (250
/// output tokens), then writes one `input × kind` table per metric,
/// titled `{figure} — {model} — {metric}`.
fn length_sweep(
    out: &mut dyn Write,
    figure: &str,
    model: &ModelConfig,
    lengths: &[u32],
    metrics: &[SweepMetric],
) -> io::Result<()> {
    let probes: Vec<Vec<(LatencyProbe, f64)>> = lengths
        .iter()
        .map(|&len| {
            let probe = |(_, kind)| {
                let lat = min_latency_probe(node(), kind, model, len, 250);
                (lat, peak_throughput_probe(node(), kind, model, len, 250, 0))
            };
            standard_kinds().into_iter().map(probe).collect()
        })
        .collect();
    for (metric, cell) in metrics {
        let rows: Vec<Vec<String>> = lengths
            .iter()
            .zip(&probes)
            .map(|(len, kinds)| {
                let label = format!("{}k", len / 1024);
                std::iter::once(label)
                    .chain(kinds.iter().map(|(lat, tput)| cell(lat, *tput)))
                    .collect()
            })
            .collect();
        let title = format!("{figure} — {} — {metric}", model.name);
        print_table(out, &title, &["input", "TP", "DP", "SP", "Shift"], &rows)?;
    }
    Ok(())
}

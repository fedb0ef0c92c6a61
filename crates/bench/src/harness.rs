//! Shared benchmark harness: deployments, summaries, table rendering.

use shift_core::{Deployment, DeploymentKind};
use sp_cluster::NodeSpec;
use sp_engine::EngineReport;
use sp_model::ModelConfig;
use sp_workload::Trace;

/// The evaluation node (8×H200, NVSwitch).
pub fn node() -> NodeSpec {
    NodeSpec::p5en_48xlarge()
}

/// The four deployments every comparison figure uses, in plot order.
pub fn standard_kinds() -> Vec<(&'static str, DeploymentKind)> {
    vec![
        ("TP", DeploymentKind::TensorParallel),
        ("DP", DeploymentKind::DataParallel),
        ("SP", DeploymentKind::SequenceParallel),
        ("Shift", DeploymentKind::Shift),
    ]
}

/// Builds a deployment of `kind` and runs `trace` through it.
///
/// # Panics
///
/// Panics if the deployment cannot be built (evaluation configurations
/// are all known-good).
pub fn run_kind(kind: DeploymentKind, model: &ModelConfig, trace: &Trace) -> EngineReport {
    let mut dep = Deployment::builder(node(), model.clone())
        .kind(kind)
        .build()
        .unwrap_or_else(|e| panic!("cannot deploy {kind:?} for {}: {e}", model.name));
    dep.run(trace)
}

/// One row of a comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Label (deployment name).
    pub name: String,
    /// Median time-to-first-token, milliseconds.
    pub median_ttft_ms: f64,
    /// 99th-percentile TTFT, milliseconds.
    pub p99_ttft_ms: f64,
    /// Median time-per-output-token, milliseconds.
    pub median_tpot_ms: f64,
    /// Median completion time, seconds.
    pub median_completion_s: f64,
    /// 99th-percentile completion time, seconds.
    pub p99_completion_s: f64,
    /// Peak combined throughput, tokens/second.
    pub peak_throughput: f64,
    /// Mean combined throughput over the run, tokens/second.
    pub mean_throughput: f64,
    /// Completed requests.
    pub completed: u64,
}

/// Summarizes a report into a table row.
pub fn summarize(name: &str, report: &mut EngineReport) -> RunSummary {
    let completed = report.records().len() as u64;
    let peak = report.metrics().peak_throughput();
    let mean = report.combined_throughput();
    let m = report.metrics_mut();
    RunSummary {
        name: name.to_string(),
        median_ttft_ms: m.ttft().median().unwrap_or(0.0) * 1e3,
        p99_ttft_ms: m.ttft().p99().unwrap_or(0.0) * 1e3,
        median_tpot_ms: m.tpot().median().unwrap_or(0.0) * 1e3,
        median_completion_s: m.completion().median().unwrap_or(0.0),
        p99_completion_s: m.completion().p99().unwrap_or(0.0),
        peak_throughput: peak,
        mean_throughput: mean,
        completed,
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", render(&head));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", render(row));
    }
}

/// Renders the standard summary columns for a set of runs.
pub fn print_summaries(title: &str, summaries: &[RunSummary]) {
    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format!("{:.0}", s.median_ttft_ms),
                format!("{:.0}", s.p99_ttft_ms),
                format!("{:.1}", s.median_tpot_ms),
                format!("{:.2}", s.median_completion_s),
                format!("{:.2}", s.p99_completion_s),
                format!("{:.0}", s.peak_throughput),
                format!("{:.0}", s.mean_throughput),
                format!("{}", s.completed),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "system",
            "TTFT p50(ms)",
            "TTFT p99(ms)",
            "TPOT p50(ms)",
            "compl p50(s)",
            "compl p99(s)",
            "peak tok/s",
            "mean tok/s",
            "done",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_model::presets;
    use sp_workload::synthetic;

    #[test]
    fn standard_kinds_are_four() {
        assert_eq!(standard_kinds().len(), 4);
    }

    #[test]
    fn summarize_extracts_metrics() {
        let model = presets::qwen_32b();
        let mut report =
            run_kind(DeploymentKind::TensorParallel, &model, &synthetic::single(1024, 8));
        let s = summarize("TP", &mut report);
        assert_eq!(s.completed, 1);
        assert!(s.median_ttft_ms > 0.0);
        assert!(s.peak_throughput > 0.0);
    }

    #[test]
    fn print_helpers_do_not_panic() {
        print_table("t", &["a", "b"], &[vec!["1".into(), "22".into()]]);
        let model = presets::qwen_32b();
        let mut report =
            run_kind(DeploymentKind::Shift, &model, &synthetic::uniform_batch(2, 256, 4));
        print_summaries("s", &[summarize("Shift", &mut report)]);
    }
}

//! Prefix-caching study: multi-turn agent sessions (§2.1's closed-loop
//! coding agent) with and without automatic prefix caching, across
//! deployments.
//!
//! Prefix caching removes most of the *prefill* work of warm turns — it
//! shifts the workload decode-ward, which interacts with the shift
//! policy: fewer big batches, more small ones, more time in the TP
//! configuration.

use crate::harness::{node, print_table};
use shift_core::{Deployment, DeploymentKind};
use sp_model::presets;
use sp_workload::multiturn::MultiTurnConfig;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let trace = MultiTurnConfig::default().generate();
    writeln!(
        out,
        "Multi-turn workload: {} sessions x {} turns = {} requests, contexts up to {} tokens",
        8,
        10,
        trace.len(),
        trace.requests().iter().map(|r| r.input_tokens).max().unwrap()
    )?;

    let mut rows = Vec::new();
    for (name, kind) in [("TP", DeploymentKind::TensorParallel), ("Shift", DeploymentKind::Shift)] {
        for caching in [false, true] {
            let mut dep = Deployment::builder(node(), presets::llama_70b())
                .kind(kind)
                .prefix_caching(caching)
                .build()
                .unwrap();
            let mut report = dep.run(&trace);
            let shift_stats =
                dep.shift_stats().map(|(b, s, _)| format!("{b}/{s}")).unwrap_or_else(|| "-".into());
            rows.push(vec![
                format!("{name}{}", if caching { " + APC" } else { "" }),
                format!("{:.0}", report.metrics_mut().ttft().median().unwrap() * 1e3),
                format!("{:.0}", report.metrics_mut().ttft().p99().unwrap() * 1e3),
                format!("{:.2}", report.metrics_mut().completion().median().unwrap()),
                format!("{}", report.iterations()),
                shift_stats,
            ]);
        }
    }
    print_table(
        out,
        "Prefix caching on multi-turn agent sessions (Llama-70B)",
        &["system", "TTFT p50(ms)", "TTFT p99(ms)", "compl p50(s)", "iterations", "base/shift it"],
        &rows,
    )?;
    writeln!(
        out,
        "\nExpected: APC slashes warm-turn TTFT (only the fresh tail prefills) for\n\
         both systems; under Shift the cached turns run mostly in the TP config\n\
         (small batches), showing the policy adapting to the workload change."
    )
}

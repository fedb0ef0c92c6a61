//! Figure 16: the production composition — Shift Parallelism + SwiftKV +
//! speculative decoding vs. latency- and throughput-optimized baselines.

use crate::harness::{node, print_table};
use shift_core::DeploymentKind;
use sp_accel::{FrameworkProfile, ProductionStack, SwiftKv};
use sp_model::presets;
use sp_workload::mixed::ProductionMixConfig;
use sp_workload::Trace;
use std::io::{self, Write};

fn mixed_trace() -> Trace {
    // "a mixture of ShareGPT, HumanEval and SWEBench" (§4.5 footnote).
    ProductionMixConfig::default().generate()
}

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b;
    let trace = mixed_trace();
    writeln!(out, "Mixed production-like trace: {} requests", trace.len())?;

    let mut rows = Vec::new();
    // Multi-replica (DP) rows route online: each request is dispatched at
    // its arrival instant to the least-loaded replica. Single-engine rows
    // have nothing to route.
    let mut push = |name: &str, report: &mut sp_engine::EngineReport| {
        let router = if report.routing_decisions().is_empty() {
            "-".to_string()
        } else {
            format!("JSQ ({} decisions)", report.routing_decisions().len())
        };
        rows.push(vec![
            name.to_string(),
            router,
            format!("{:.2}", report.metrics_mut().completion().median().unwrap()),
            format!("{:.2}", report.metrics_mut().completion().p99().unwrap()),
            format!("{:.0}", report.combined_throughput()),
        ]);
    };

    // Baselines: each framework, latency- (TP) and throughput- (DP)
    // optimized, out of the box.
    for profile in
        [FrameworkProfile::vllm(), FrameworkProfile::sglang(), FrameworkProfile::trt_llm()]
    {
        // Baselines ship with their best available speculation enabled
        // (the §4.5 footnote), hence the "+spec" tag.
        for (suffix, kind) in [
            ("TP+spec (latency-opt)", DeploymentKind::TensorParallel),
            ("DP+spec (throughput-opt)", DeploymentKind::DataParallel),
        ] {
            let mut dep = profile.deploy(node(), model(), kind).unwrap();
            let mut report = dep.run(&trace);
            push(&format!("{} {suffix}", profile.name), &mut report);
        }
    }

    // Ours, compounding: Shift → +SwiftKV → +SpecDec.
    for (name, stack) in [
        ("Shift Parallelism", ProductionStack::shift_only()),
        ("+ SwiftKV", ProductionStack::shift_only().with_swiftkv(SwiftKv::default())),
        ("+ SwiftKV + SpecDec (ours)", ProductionStack::arctic_like()),
    ] {
        let mut dep = stack.deploy(node(), model()).unwrap();
        let mut report = dep.run(&trace);
        push(name, &mut report);
    }

    print_table(
        out,
        "Figure 16 — production comparison, Llama-70B",
        &["system", "router", "compl p50 (s)", "compl p99 (s)", "tok/s"],
        &rows,
    )?;
    writeln!(
        out,
        "\nExpected shape (paper: 3.4x lower completion time, 1.06x higher throughput\n\
         than the best baseline): the full stack has the lowest completion time AND\n\
         at-least-parity throughput, in a single deployment."
    )
}

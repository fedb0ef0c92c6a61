//! SLO attainment and goodput across arrival rates — the QoS framing of
//! §2.1 ("different requests subject to different quality-of-service
//! metrics") turned into a measurement: what fraction of interactive
//! requests meet a chatbot-grade SLO, and how many SLO-attaining tokens
//! per second each deployment delivers.

use crate::harness::{node, print_table, run_kind, standard_kinds};
use shift_core::RoutingKind;
use sp_metrics::{ClassSlo, SimTime, SloReport, SloTarget};
use sp_model::presets;
use sp_workload::bursty::BurstyConfig;
use sp_workload::synthetic;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b();
    let target = SloTarget::interactive();
    writeln!(
        out,
        "SLO: TTFT <= {:.0} ms and TPOT <= {:.0} ms (chatbot-grade)",
        target.ttft.as_millis(),
        target.tpot.as_millis()
    )?;

    let mut rows = Vec::new();
    for rate in [1.0, 2.0, 4.0, 8.0] {
        let trace = synthetic::poisson(200, rate, 4096, 250, 21);
        let mut row = vec![format!("{rate}")];
        let mut goodput_row = vec![String::new()];
        for (_, kind) in standard_kinds() {
            let report = run_kind(node(), kind, &model, &trace);
            let slo = SloReport::evaluate(report.records(), target);
            row.push(format!("{:.0}%", slo.attainment() * 100.0));
            goodput_row.push(format!(
                "{:.0}",
                slo.goodput(report.makespan().since(sp_metrics::SimTime::ZERO,))
            ));
        }
        rows.push(row);
        rows.push(goodput_row);
    }
    print_table(
        out,
        "SLO attainment (%) and goodput (tok/s) vs arrival rate — Llama-70B 4k/250",
        &["req/s", "TP", "DP", "SP", "Shift"],
        &rows,
    )?;
    writeln!(
        out,
        "\nExpected shape: Shift sustains high attainment to the highest rate (it\n\
         combines SP's responsiveness with TP's decode latency), so its goodput\n\
         curve dominates."
    )?;

    class_aware_comparison(out)
}

/// Per-class SLO scoring on the mixed bursty trace: class-blind JSQ
/// versus the deadline-aware stack (EarliestDeadlineFeasible routing +
/// class-SLO engines) at equal replica count, on KV-tight single-GPU
/// replicas where the burst actually contends with the interactive
/// stream. The deadline-aware stack should lift interactive attainment
/// while keeping batch goodput within a few percent — the acceptance
/// property the `tests/slo_routing.rs` integration test pins down.
fn class_aware_comparison(out: &mut dyn Write) -> io::Result<()> {
    use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
    use sp_engine::{ClusterSim, Engine, EngineConfig};
    use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};

    const KV_TOKENS: u64 = 60_000;
    let slo = ClassSlo::default();
    writeln!(
        out,
        "\nPer-class SLO: interactive TTFT <= {:.0} ms / TPOT <= {:.0} ms; \
         batch TTFT <= {:.0} s / TPOT <= {:.0} ms",
        slo.interactive.ttft.as_millis(),
        slo.interactive.tpot.as_millis(),
        slo.batch.ttft.as_secs(),
        slo.batch.tpot.as_millis(),
    )?;
    let trace = BurstyConfig::default().generate();
    let replicas = |class_slo: Option<ClassSlo>| -> Vec<Engine> {
        let gpu = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
        (0..2)
            .map(|_| {
                Engine::new(
                    ExecutionModel::new(gpu, presets::qwen_32b()),
                    Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
                    EngineConfig {
                        kv_capacity_tokens: KV_TOKENS,
                        class_slo,
                        ..EngineConfig::default()
                    },
                )
            })
            .collect()
    };

    let mut rows = Vec::new();
    let runs = [
        (
            "class-blind JSQ",
            ClusterSim::new(replicas(None), RoutingKind::JoinShortestOutstanding.policy()),
        ),
        (
            "deadline-aware EDF",
            ClusterSim::new(
                replicas(Some(slo)),
                RoutingKind::EarliestDeadlineFeasible(slo).policy(),
            ),
        ),
    ];
    for (label, mut sim) in runs {
        let report = sim.run(&trace);
        let class = report.class_slo_report(&slo);
        let makespan = report.makespan().since(SimTime::ZERO);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}%", class.interactive.attainment() * 100.0),
            format!("{:.0}", class.interactive.goodput(makespan)),
            format!("{:.1}%", class.batch.attainment() * 100.0),
            format!("{:.0}", class.batch.goodput(makespan)),
            format!("{}", report.batch_sheds()),
            format!("{}", report.batch_deferrals()),
        ]);
    }
    print_table(
        out,
        "Class-blind vs deadline-aware, 2 single-GPU DP replicas on the bursty trace — Qwen-32B",
        &["stack", "Int SLO", "Int goodput", "Batch SLO", "Batch goodput", "sheds", "deferrals"],
        &rows,
    )?;
    writeln!(
        out,
        "\nExpected shape: the deadline-aware stack trades a sliver of batch\n\
         goodput (deferred/shed burst prefills) for a large interactive\n\
         attainment gain during bursts."
    )
}

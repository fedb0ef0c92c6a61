//! Auto-tuning study: profile each evaluation workload, then grid-search
//! the shift deployment's knobs against it.

use crate::harness::{node, print_table};
use shift_core::tuner::{Objective, Tuner};
use sp_metrics::{Dur, SloTarget};
use sp_model::presets;
use sp_workload::analysis::WorkloadProfile;
use sp_workload::azure::AzureCodeConfig;
use sp_workload::bursty::BurstyConfig;
use sp_workload::mixed::ProductionMixConfig;
use sp_workload::Trace;
use std::io::{self, Write};

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    let workloads: Vec<(&str, Trace)> = vec![
        (
            "bursty",
            BurstyConfig {
                duration: Dur::from_secs(180.0),
                bursts: 1,
                burst_size: 120,
                ..BurstyConfig::default()
            }
            .generate(),
        ),
        (
            "azure-code",
            AzureCodeConfig { duration: Dur::from_secs(240.0), ..AzureCodeConfig::default() }
                .generate(),
        ),
        (
            "production-mix",
            ProductionMixConfig {
                duration: Dur::from_secs(120.0),
                ..ProductionMixConfig::default()
            }
            .generate(),
        ),
    ];

    // Workload profiles first.
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .map(|(name, trace)| {
            let p = WorkloadProfile::measure(trace, Dur::from_secs(15.0));
            vec![
                name.to_string(),
                format!("{:?}", p.classify()),
                format!("{:.1}", p.arrival_rate),
                format!("{:.1}", p.burstiness_ratio),
                format!("{:.0}", p.mean_input),
                format!("{:.0}", p.mean_output),
                format!("{:.0}", p.demand_tokens_per_sec),
            ]
        })
        .collect();
    print_table(
        out,
        "Workload profiles",
        &["workload", "class", "req/s", "burstiness", "mean in", "mean out", "tok/s demand"],
        &rows,
    )?;

    // Tune Llama-70B for each workload and objective: one sweep per
    // workload, ranked under all three objectives.
    let tuner = Tuner::new(node(), presets::llama_70b());
    let objectives = [
        ("median completion", Objective::MedianCompletion),
        ("p99 TTFT", Objective::TailTtft),
        ("goodput", Objective::Goodput(SloTarget::interactive())),
    ];
    let mut rows = Vec::new();
    for (name, trace) in &workloads {
        let rankings = tuner.sweep(trace, &objectives.map(|(_, objective)| objective));
        for (i, (obj_name, _)) in objectives.iter().enumerate() {
            let best = match &rankings {
                Ok(rankings) => rankings[i].first().ok_or("no candidate evaluated".to_string()),
                Err(e) => Err(e.clone()),
            };
            rows.push(match best {
                Ok(best) => vec![
                    name.to_string(),
                    obj_name.to_string(),
                    best.base.to_string(),
                    best.threshold.to_string(),
                    best.max_prefill_tokens.map_or("none".into(), |c| c.to_string()),
                    format!("{:.3}", best.score.abs()),
                ],
                Err(e) => vec![
                    name.to_string(),
                    obj_name.to_string(),
                    e,
                    String::new(),
                    String::new(),
                    String::new(),
                ],
            });
        }
    }
    print_table(
        out,
        "Tuned shift deployments (Llama-70B)",
        &["workload", "objective", "base", "threshold", "prefill cap", "|score|"],
        &rows,
    )?;
    writeln!(
        out,
        "\nThe tuner automates §3.2.2: different workloads genuinely prefer different\n\
         bases, thresholds and caps — and the defaults (auto base, threshold 256)\n\
         sit near the optimum for the paper's mixed traffic."
    )
}

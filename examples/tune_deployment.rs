//! Auto-tune a shift deployment for *your* workload: profile a trace,
//! grid-search the knobs, and report the recommendation.
//!
//! ```text
//! cargo run --release --example tune_deployment
//! ```

use shift_parallelism::core::tuner::{Objective, Tuner};
use shift_parallelism::prelude::*;
use shift_parallelism::workload::analysis::WorkloadProfile;

fn main() {
    // Pretend this is a sample of your production traffic (swap in
    // `Trace::load("my_trace.jsonl")` for a real one).
    let sample = ProductionMixConfig::default().generate();

    let profile = WorkloadProfile::measure(&sample, Dur::from_secs(15.0));
    println!(
        "Workload sample: {} requests | class {:?} | {:.1} req/s | burstiness {:.1} | \
         {:.0} in / {:.0} out tokens | {:.0} tok/s demand\n",
        sample.len(),
        profile.classify(),
        profile.arrival_rate,
        profile.burstiness_ratio,
        profile.mean_input,
        profile.mean_output,
        profile.demand_tokens_per_sec,
    );

    let tuner = Tuner::new(NodeSpec::p5en_48xlarge(), presets::llama_70b())
        .thresholds(vec![64, 256, 1024, 4096])
        .prefill_caps(vec![None, Some(2048), Some(1024)]);

    println!(
        "Grid-searching {} base configs x 4 thresholds x 3 caps...",
        tuner.base_candidates().len()
    );
    let sweep = tuner
        .sweep(&sample, &[Objective::Goodput(SloTarget::interactive())])
        .expect("viable configurations exist")
        .swap_remove(0);

    println!("\nTop 5 candidates by SLO goodput:");
    for c in sweep.iter().take(5) {
        println!("  {} -> {:.0} SLO-tokens/s", c, c.score.abs());
    }
    let best = &sweep[0];
    println!(
        "\nRecommended deployment:\n  Deployment::builder(node, model)\n    \
         .kind(DeploymentKind::ShiftWithBase {{ base: {}, threshold: {} }}){}\n    \
         .build()",
        best.base,
        best.threshold,
        best.max_prefill_tokens
            .map(|c| format!("\n    .max_prefill_tokens({c})"))
            .unwrap_or_default(),
    );
}

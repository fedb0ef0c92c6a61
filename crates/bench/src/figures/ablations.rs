//! Design-choice ablations (simulated outcomes):
//!
//! 1. **Shift threshold sweep** — Algorithm 2's switching point.
//! 2. **Weight strategy** (§3.3.2) — separate models vs. on-the-fly
//!    slicing: memory cost vs. per-shift-iteration GEMM penalty.
//! 3. **SP load-balance padding** (§3.2.1) — the cost of tiny decode
//!    batches under SP.
//! 4. **KV admission mode** — conservative full reservation vs. vLLM-style
//!    recompute preemption under cache pressure.
//! 5. **Chunked-prefill cap** (Sarathi-style) — bounding the worst decode
//!    stall.

use crate::harness::{node, print_table};
use shift_core::{Deployment, DeploymentKind, ShiftWeightPlan, WeightStrategy};
use sp_metrics::Dur;
use sp_model::presets;
use sp_parallel::{BatchWork, ExecutionModel, MemoryPlan, ParallelConfig};
use sp_workload::bursty::BurstyConfig;
use std::io::{self, Write};

fn threshold_sweep(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b();
    let trace = BurstyConfig {
        duration: Dur::from_secs(120.0),
        bursts: 1,
        burst_size: 100,
        ..BurstyConfig::default()
    }
    .generate();
    let base = ParallelConfig::sequence(8);

    let mut rows = Vec::new();
    for threshold in [0u64, 64, 256, 1024, 8192, u64::MAX / 2] {
        let mut dep = Deployment::builder(node(), model.clone())
            .kind(DeploymentKind::ShiftWithBase { base, threshold })
            .build()
            .unwrap();
        let mut report = dep.run(&trace);
        let (base_iters, shift_iters, switches) = dep.shift_stats().unwrap();
        rows.push(vec![
            if threshold > 1 << 60 { "inf".into() } else { threshold.to_string() },
            format!("{:.0}", report.metrics_mut().ttft().median().unwrap() * 1e3),
            format!("{:.1}", report.metrics_mut().tpot().median().unwrap() * 1e3),
            format!("{:.2}", report.metrics_mut().completion().median().unwrap()),
            base_iters.to_string(),
            shift_iters.to_string(),
            switches.to_string(),
        ]);
    }
    print_table(
        out,
        "Ablation 1 — shift threshold sweep (Llama-70B, bursty trace)",
        &[
            "threshold",
            "TTFT p50(ms)",
            "TPOT p50(ms)",
            "compl p50(s)",
            "base it",
            "shift it",
            "switches",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "threshold 0 = always base (pure SP, bad TPOT); inf = never base (pure TP,\n\
         slow prefill). The default (256) takes the best of both."
    )
}

fn weight_strategy(out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for model in [presets::llama_70b(), presets::qwen_32b()] {
        let base = Deployment::auto_base(&node(), &model, 0.9).unwrap();
        for strategy in [WeightStrategy::SeparateModels, WeightStrategy::OnTheFlySlicing] {
            let plan = ShiftWeightPlan::new(&model, base, strategy);
            let mem = MemoryPlan::plan_with_extra(
                &node(),
                &model,
                &base,
                plan.shift_extra_bytes_per_gpu(),
                0.9,
            )
            .unwrap();
            // Slicing's FP8-transpose penalty applied to a shift-mode
            // decode iteration:
            let exec = ExecutionModel::new(node(), model.clone());
            let decode = BatchWork::uniform_decode(8, 4096);
            let it = exec.iteration(&base.shift_config(), &decode);
            let gemm_ms = it.gemm.as_millis() * plan.shift_gemm_penalty();
            rows.push(vec![
                model.name.clone(),
                format!("{strategy:?}"),
                format!("{:.1}", plan.total_bytes_per_gpu() as f64 / 1e9),
                format!("{:.1}%", plan.overhead_fraction() * 100.0),
                format!("{}", mem.kv_capacity_tokens),
                format!("{gemm_ms:.2}"),
            ]);
        }
    }
    print_table(
        out,
        "Ablation 2 — weight strategy (§3.3.2)",
        &["model", "strategy", "w/GPU (GB)", "mem ovh", "KV cap (tok)", "shift GEMM (ms)"],
        &rows,
    )?;
    writeln!(
        out,
        "Separate models buy back the slicing penalty for 1/SP extra memory —\n\
         the paper's chosen tradeoff."
    )
}

fn padding_cost(out: &mut dyn Write) -> io::Result<()> {
    let model = presets::llama_70b();
    let exec = ExecutionModel::new(node(), model);
    let mut rows = Vec::new();
    for batch_size in [1usize, 7, 8, 9, 64, 256] {
        let batch = BatchWork::uniform_decode(batch_size, 2048);
        let sp = exec.iteration(&ParallelConfig::sequence(8), &batch).total();
        let tp = exec.iteration(&ParallelConfig::tensor(8), &batch).total();
        let padded = (batch_size as u64).div_ceil(8) * 8;
        rows.push(vec![
            batch_size.to_string(),
            padded.to_string(),
            format!("{:.0}%", (padded as f64 / batch_size as f64 - 1.0) * 100.0),
            format!("{:.2}", sp.as_millis()),
            format!("{:.2}", tp.as_millis()),
        ]);
    }
    print_table(
        out,
        "Ablation 3 — SP decode padding (§3.2.1), decode at ctx 2048",
        &["batch", "padded to", "waste", "SP iter (ms)", "TP iter (ms)"],
        &rows,
    )?;
    writeln!(
        out,
        "Small decode batches pad up to the SP degree (batch 9 -> 16, 78% waste):\n\
         exactly why the shift config handles low-traffic decode."
    )
}

fn admission_mode(out: &mut dyn Write) -> io::Result<()> {
    // A KV-starved Mooncake-like slice: does recompute preemption beat
    // conservative full reservation?
    use sp_engine::AdmissionMode;
    // Llama-70B with FP16 KV is the cache-hungry case (§4.2.2: "the Llama
    // model did not sustain the traffic and context size").
    let model = presets::llama_70b();
    let trace = sp_workload::mooncake::MooncakeConfig {
        duration: Dur::from_secs(240.0),
        ..sp_workload::mooncake::MooncakeConfig::default()
    }
    .generate();

    let mut rows = Vec::new();
    for (name, mode) in [
        ("reserve-full", AdmissionMode::ReserveFull),
        ("preempt-restart", AdmissionMode::PreemptRestart),
    ] {
        let mut dep = Deployment::builder(node(), model.clone())
            .kind(DeploymentKind::Shift)
            .admission(mode)
            .build()
            .unwrap();
        let mut report = dep.run(&trace);
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", report.metrics_mut().ttft().median().unwrap()),
            format!("{:.2}", report.metrics_mut().completion().median().unwrap()),
            format!("{:.0}", report.combined_throughput()),
            format!("{:.2}", report.peak_kv_utilization()),
            report.preemptions().to_string(),
        ]);
    }
    print_table(
        out,
        "Ablation 4 — KV admission mode (Llama-70B FP16-KV, Mooncake slice)",
        &["mode", "TTFT p50(s)", "compl p50(s)", "tok/s", "peak KV", "preempts"],
        &rows,
    )?;
    writeln!(
        out,
        "reserve-full guarantees no mid-flight eviction; preempt-restart packs the\n\
         cache tighter at the cost of recompute work when pressure spikes."
    )
}

fn prefill_cap(out: &mut dyn Write) -> io::Result<()> {
    // Sarathi-style interference bound: cap prefill tokens per iteration
    // and watch the worst decode stall shrink while throughput dips.
    let model = presets::llama_70b();
    let trace = sp_workload::mixed::ProductionMixConfig::default().generate();
    let mut rows = Vec::new();
    for cap in [None, Some(4096u64), Some(2048), Some(1024), Some(512)] {
        let mut builder = Deployment::builder(node(), model.clone()).kind(DeploymentKind::Shift);
        if let Some(c) = cap {
            builder = builder.max_prefill_tokens(c);
        }
        let mut dep = builder.build().unwrap();
        let mut report = dep.run(&trace);
        rows.push(vec![
            cap.map_or("none".into(), |c| c.to_string()),
            format!("{:.0}", report.max_iteration_time().as_millis()),
            format!("{:.1}", report.metrics_mut().tpot().p99().unwrap() * 1e3),
            format!("{:.0}", report.combined_throughput()),
        ]);
    }
    print_table(
        out,
        "Ablation 5 — chunked-prefill cap (Sarathi-style), Llama-70B, production mix",
        &["prefill cap", "max stall (ms)", "TPOT p99 (ms)", "tok/s"],
        &rows,
    )?;
    writeln!(
        out,
        "Tighter caps bound the worst decode stall (and the TPOT tail) at a modest\n\
         throughput cost — orthogonal to, and composable with, the shift policy."
    )
}

pub fn run(out: &mut dyn Write) -> io::Result<()> {
    threshold_sweep(out)?;
    weight_strategy(out)?;
    padding_cost(out)?;
    admission_mode(out)?;
    prefill_cap(out)
}

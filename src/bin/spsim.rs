//! `spsim` — command-line front end for the Shift Parallelism simulator.
//!
//! ```text
//! spsim plan                      # capacity-plan all Table 4 models
//! spsim run   [options]           # run one deployment over a workload
//! spsim compare [options]         # run TP/DP/SP/Shift over a workload
//! spsim trace <name> [--out F]    # emit a workload as JSON lines
//!
//! options:
//!   --model  llama-70b|qwen-32b|llama-17b-16e|qwen-30b-a3b   (default llama-70b)
//!   --kind   tp|dp|sp|shift                                  (default shift)
//!   --trace  bursty|azure|mooncake|poisson|batch             (default poisson)
//!   --file   trace.jsonl      replay a saved trace instead of generating
//!   --requests N   --rate R   --input I   --output O   --seed S
//! ```

use shift_parallelism::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    flags
}

fn model_by_name(name: &str) -> Option<ModelConfig> {
    match name {
        "llama-70b" => Some(presets::llama_70b()),
        "qwen-32b" => Some(presets::qwen_32b()),
        "llama-17b-16e" => Some(presets::llama_17b_16e()),
        "qwen-30b-a3b" => Some(presets::qwen_30b_a3b()),
        _ => None,
    }
}

fn kind_by_name(name: &str) -> Option<DeploymentKind> {
    match name {
        "tp" => Some(DeploymentKind::TensorParallel),
        "dp" => Some(DeploymentKind::DataParallel),
        "sp" => Some(DeploymentKind::SequenceParallel),
        "shift" => Some(DeploymentKind::Shift),
        _ => None,
    }
}

fn build_trace(flags: &HashMap<String, String>) -> Result<Trace, String> {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let requests: usize = get("requests", "100").parse().map_err(|e| format!("--requests: {e}"))?;
    let rate: f64 = get("rate", "2.0").parse().map_err(|e| format!("--rate: {e}"))?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!("--rate: must be finite and positive, got {rate}"));
    }
    let input: u32 = get("input", "4096").parse().map_err(|e| format!("--input: {e}"))?;
    let output: u32 = get("output", "250").parse().map_err(|e| format!("--output: {e}"))?;
    let seed: u64 = get("seed", "0").parse().map_err(|e| format!("--seed: {e}"))?;

    if let Some(path) = flags.get("file") {
        return Trace::load(path).map_err(|e| format!("cannot load {path}: {e}"));
    }
    match get("trace", "poisson").as_str() {
        "bursty" => {
            Ok(BurstyConfig { seed: seed.wrapping_add(0xB5), ..BurstyConfig::default() }.generate())
        }
        "azure" => {
            Ok(AzureCodeConfig { seed: seed.wrapping_add(0xA2), ..AzureCodeConfig::default() }
                .generate())
        }
        "mooncake" => {
            Ok(MooncakeConfig { seed: seed.wrapping_add(0x30), ..MooncakeConfig::default() }
                .generate())
        }
        "poisson" => Ok(synthetic::poisson(requests, rate, input, output, seed)),
        "batch" => Ok(synthetic::uniform_batch(requests, input, output)),
        other => Err(format!("unknown trace '{other}'")),
    }
}

fn summarize(name: &str, report: &mut EngineReport) {
    let tput = report.combined_throughput();
    let preempt = report.preemptions();
    let rejected = report.rejected().len();
    let m = report.metrics_mut();
    println!(
        "{name:>6}  TTFT p50 {:7.0} ms  p99 {:8.0} ms | TPOT p50 {:5.1} ms | \
         compl p50 {:7.2} s | {tput:7.0} tok/s | done {} rej {rejected} preempt {preempt}",
        m.ttft().median().unwrap_or(0.0) * 1e3,
        m.ttft().p99().unwrap_or(0.0) * 1e3,
        m.tpot().median().unwrap_or(0.0) * 1e3,
        m.completion().median().unwrap_or(0.0),
        m.completed(),
    );
}

fn cmd_plan() -> ExitCode {
    let node = NodeSpec::p5en_48xlarge();
    for model in presets::all_table4() {
        match Deployment::auto_base(&node, &model, 0.9) {
            Ok(base) => {
                let plan = ShiftWeightPlan::new(&model, base, WeightStrategy::SeparateModels);
                println!(
                    "{:16} base {base}  weights/GPU {:.1} GB (+{:.1}% shift)  KV heads {}",
                    model.name,
                    plan.total_bytes_per_gpu() as f64 / 1e9,
                    plan.overhead_fraction() * 100.0,
                    model.kv_heads
                );
            }
            Err(e) => println!("{:16} no viable base: {e}", model.name),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_run(flags: &HashMap<String, String>, kinds: &[(&str, DeploymentKind)]) -> ExitCode {
    let model_name = flags.get("model").cloned().unwrap_or_else(|| "llama-70b".to_string());
    let Some(model) = model_by_name(&model_name) else {
        eprintln!("unknown model '{model_name}'");
        return ExitCode::FAILURE;
    };
    let trace = match build_trace(flags) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload: {} requests, {:.2}M tokens, span {:.0}s | model {}",
        trace.len(),
        trace.total_tokens() as f64 / 1e6,
        trace.span().as_secs(),
        model.name
    );
    for (name, kind) in kinds {
        let mut dep =
            match Deployment::builder(NodeSpec::p5en_48xlarge(), model.clone()).kind(*kind).build()
            {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{name}: cannot deploy: {e}");
                    return ExitCode::FAILURE;
                }
            };
        let mut report = dep.run(&trace);
        summarize(name, &mut report);
        if let Some((base, shift, switches)) = dep.shift_stats() {
            println!(
                "        shift policy: {base} base / {shift} shift iterations, \
                 {switches} switches"
            );
        }
    }
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        eprintln!("usage: spsim trace <bursty|azure|mooncake> [--out FILE]");
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    let mut with_name = flags.clone();
    with_name.insert("trace".into(), name.clone());
    let trace = match build_trace(&with_name) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let jsonl = trace.to_jsonl();
    match flags.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, jsonl) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} requests to {path}", trace.len());
        }
        None => println!("{jsonl}"),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("plan") => cmd_plan(),
        Some("run") => {
            let flags = parse_flags(&args[1..]);
            let kind_name = flags.get("kind").cloned().unwrap_or_else(|| "shift".to_string());
            let Some(kind) = kind_by_name(&kind_name) else {
                eprintln!("unknown kind '{kind_name}'");
                return ExitCode::FAILURE;
            };
            let label: &str = match kind_name.as_str() {
                "tp" => "TP",
                "dp" => "DP",
                "sp" => "SP",
                _ => "Shift",
            };
            cmd_run(&flags, &[(label, kind)])
        }
        Some("compare") => {
            let flags = parse_flags(&args[1..]);
            cmd_run(
                &flags,
                &[
                    ("TP", DeploymentKind::TensorParallel),
                    ("DP", DeploymentKind::DataParallel),
                    ("SP", DeploymentKind::SequenceParallel),
                    ("Shift", DeploymentKind::Shift),
                ],
            )
        }
        Some("trace") => cmd_trace(&args[1..]),
        _ => {
            eprintln!(
                "usage: spsim <plan|run|compare|trace> [options]\n\
                 see `src/bin/spsim.rs` header for the full option list"
            );
            ExitCode::FAILURE
        }
    }
}

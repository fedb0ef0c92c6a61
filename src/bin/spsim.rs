//! `spsim` — command-line front end for the Shift Parallelism simulator.
//!
//! ```text
//! spsim plan                      # capacity-plan all Table 4 models
//! spsim run   [options]           # run one deployment over a workload
//! spsim compare [options]         # run TP/DP/SP/Shift over a workload
//! spsim trace <name> [--out F] [workload numbers]   # emit a workload as JSON lines
//!
//! options:
//!   --model  llama-70b|qwen-32b|llama-17b-16e|qwen-30b-a3b   (default llama-70b)
//!   --kind   tp|dp|sp|shift          run only                (default shift)
//!   --trace  bursty|azure|mooncake|poisson|batch             (default poisson)
//!   --file   trace.jsonl      replay a saved trace instead of generating
//! workload numbers:
//!   --requests N (1..=1000000)   --rate R (finite, > 0)
//!   --input I (>= 1)   --output O   --seed S
//! ```
//!
//! Each subcommand accepts only its own flags, each once, and each with
//! a value. An unknown flag, a missing value or a bad number is an error
//! (exit code 1) naming the flag.

use shift_parallelism::prelude::*;
use shift_parallelism::workload::request::MAX_ARRIVAL_SECS;
use std::collections::HashMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// The flags every workload-generating subcommand accepts.
const WORKLOAD_FLAGS: [&str; 5] = ["requests", "rate", "input", "output", "seed"];

/// Largest `--requests`: bounds the trace a command line can allocate.
const MAX_REQUESTS: usize = 1_000_000;

type Flags = HashMap<String, String>;

/// Parses `--flag value` pairs, accepting only the flags in `own` and
/// [`WORKLOAD_FLAGS`] (or none at all when `own` is `None`).
fn parse_flags(args: &[String], own: Option<&[&str]>) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument '{arg}'"));
        };
        let known = own.is_some_and(|own| own.contains(&key) || WORKLOAD_FLAGS.contains(&key));
        if !known {
            return Err(format!("unknown flag --{key}"));
        }
        let Some(value) = args.next() else {
            return Err(format!("--{key}: missing value"));
        };
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key}: given more than once"));
        }
    }
    Ok(flags)
}

/// The number given for `--key` (or `default`), which must parse and
/// satisfy `valid`; `range` describes the valid values.
fn number<T>(
    flags: &Flags,
    key: &str,
    default: T,
    valid: impl Fn(T) -> bool,
    range: &str,
) -> Result<T, String>
where
    T: FromStr + Copy,
    T::Err: Display,
{
    let Some(raw) = flags.get(key) else { return Ok(default) };
    let value: T = raw.parse().map_err(|e| format!("--{key}: {e} (got '{raw}')"))?;
    if !valid(value) {
        return Err(format!("--{key}: must be {range}, got {raw}"));
    }
    Ok(value)
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

fn build_trace(flags: &Flags) -> Result<Trace, String> {
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let requests: usize =
        number(flags, "requests", 100, |n| (1..=MAX_REQUESTS).contains(&n), "in 1..=1000000")?;
    let rate: f64 =
        number(flags, "rate", 2.0, |r: f64| r.is_finite() && r > 0.0, "finite and positive")?;
    let input: u32 = number(flags, "input", 4096, |n| n >= 1, "at least 1")?;
    let output: u32 = number(flags, "output", 250, |_| true, "an unsigned 32-bit integer")?;
    let seed: u64 = number(flags, "seed", 0, |_| true, "an unsigned integer")?;

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
        "poisson" => {
            // Each gap is an exponential draw, below 709, over the rate:
            // under this floor a single gap could overflow.
            if !(709.0 / rate).is_finite() {
                return Err(format!("--rate: {rate:e} is too small to space arrivals"));
            }
            let trace = synthetic::poisson(requests, rate, input, output, seed);
            let last = trace.requests().last().map_or(0.0, |r| r.arrival.as_secs());
            if last > MAX_ARRIVAL_SECS {
                return Err(format!(
                    "--rate: {rate:e} puts the last of {requests} arrivals at {last:e} s, \
                     past the {MAX_ARRIVAL_SECS:e} s limit"
                ));
            }
            Ok(trace)
        }
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

fn cmd_plan() {
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
}

fn cmd_run(flags: &Flags, kinds: &[(&str, DeploymentKind)]) -> Result<(), String> {
    let model_name = flags.get("model").cloned().unwrap_or_else(|| "llama-70b".to_string());
    let model = model_by_name(&model_name).ok_or(format!("unknown model '{model_name}'"))?;
    let trace = build_trace(flags)?;
    println!(
        "workload: {} requests, {:.2}M tokens, span {:.0}s | model {}",
        trace.len(),
        trace.total_tokens() as f64 / 1e6,
        trace.span().as_secs(),
        model.name
    );
    for (name, kind) in kinds {
        let mut dep = Deployment::builder(NodeSpec::p5en_48xlarge(), model.clone())
            .kind(*kind)
            .build()
            .map_err(|e| format!("{name}: cannot deploy: {e}"))?;
        let mut report = dep.run(&trace);
        summarize(name, &mut report);
        if let Some((base, shift, switches)) = dep.shift_stats() {
            println!(
                "        shift policy: {base} base / {shift} shift iterations, \
                 {switches} switches"
            );
        }
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err("usage: spsim trace <bursty|azure|mooncake|poisson|batch> [--out FILE]".into());
    };
    let mut flags = parse_flags(&args[1..], Some(&["out"]))?;
    let out = flags.remove("out");
    flags.insert("trace".into(), name.clone());
    let trace = build_trace(&flags)?;
    let jsonl = trace.to_jsonl();
    match out {
        Some(path) => {
            std::fs::write(&path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {} requests to {path}", trace.len());
        }
        None => println!("{jsonl}"),
    }
    Ok(())
}

/// The flags `spsim run` and `spsim compare` accept beside
/// [`WORKLOAD_FLAGS`].
const RUN_FLAGS: [&str; 4] = ["model", "kind", "trace", "file"];
const COMPARE_FLAGS: [&str; 3] = ["model", "trace", "file"];

fn run_command(args: &[String]) -> Result<(), String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("plan") => {
            parse_flags(rest, None)?;
            cmd_plan();
            Ok(())
        }
        Some("run") => {
            let flags = parse_flags(rest, Some(&RUN_FLAGS))?;
            let kind_name = flags.get("kind").cloned().unwrap_or_else(|| "shift".to_string());
            let kind = kind_by_name(&kind_name).ok_or(format!("unknown kind '{kind_name}'"))?;
            let label: &str = match kind_name.as_str() {
                "tp" => "TP",
                "dp" => "DP",
                "sp" => "SP",
                _ => "Shift",
            };
            cmd_run(&flags, &[(label, kind)])
        }
        Some("compare") => {
            let flags = parse_flags(rest, Some(&COMPARE_FLAGS))?;
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
        Some("trace") => cmd_trace(rest),
        _ => Err("usage: spsim <plan|run|compare|trace> [options]\n\
                  see `src/bin/spsim.rs` header for the full option list"
            .into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_command(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

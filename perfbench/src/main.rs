//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dp_burst|shift_dynamic|shift_drain|dp_chaos> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload until `--seconds` are spent: untraced repetitions,
//! interleaved with traced ones under `--trace 1`, all at horizon fan-out
//! width 1, then one repetition at the library's default width. Timing
//! runs at width 1 because on small hosts the default width's wall time
//! varies too much from run to run to gate on (see `perfbench/README.md`);
//! the default width is still run, checked and its wall time recorded.
//! Host times are the fastest repetition (see `metrics::host_time`).
//! Every repetition must conserve requests, and all of them must produce
//! the same simulated output fingerprint and metrics. The last line of standard
//! output is one JSON object: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The lines before it record the host
//! and the checks.

use perfbench::metrics::{self, host_time, median, Metric};
use perfbench::workloads::{Rep, RunOpts, Size, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Repetitions (of each kind) a run makes however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let known = ["--workload", "--seed", "--seconds", "--trace"];
    if args.len() != 2 * known.len() || args.iter().step_by(2).any(|a| !known.contains(&&**a)) {
        return Err(format!("expected exactly {}", known.join(" <v> ") + " <v>"));
    }
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let plain = RunOpts { traced: false, threads: Some(1) };
    let traced = RunOpts { traced: true, threads: Some(1) };

    let mut untraced_reps: Vec<Rep> = Vec::new();
    let mut traced_reps: Vec<Rep> = Vec::new();
    loop {
        if args.trace {
            traced_reps.push(w.run(Size::Full, args.seed, traced));
        }
        untraced_reps.push(w.run(Size::Full, args.seed, plain));
        // Leave room for one more round: the default-width repetition.
        let round = start.elapsed() / untraced_reps.len() as u32;
        if untraced_reps.len() >= MIN_REPS && Instant::now() + round >= deadline {
            break;
        }
    }
    // Before the default-width repetition, whose pool threads bring their
    // own allocator arenas.
    let peak_rss_mb = peak_rss_mb();
    let default_width = w.run(Size::Full, args.seed, RunOpts { traced: args.trace, threads: None });

    // Checks: every repetition conserves requests and reproduces the
    // first one's simulated output exactly.
    let first = &untraced_reps[0];
    let all: Vec<&Rep> =
        untraced_reps.iter().chain(&traced_reps).chain(std::iter::once(&default_width)).collect();
    let failed = all
        .iter()
        .filter(|r| {
            let ok = r.outcome.conserves_requests()
                && r.fingerprint == first.fingerprint
                && r.outcome == first.outcome;
            if !ok {
                eprintln!(
                    "perfbench: {} repetition (traced {}, width {}) diverged: fingerprint \
                     {:016x} vs {:016x}, outcome {:?}",
                    w.name(),
                    r.layers.is_some(),
                    r.threads,
                    r.fingerprint,
                    first.fingerprint,
                    r.outcome
                );
            }
            !ok
        })
        .count();

    let metrics: Vec<Metric> = if args.trace {
        let walls = |reps: &[Rep]| host_time(reps.iter().map(|r| r.wall_s));
        let overhead_s = walls(&traced_reps) - walls(&untraced_reps);
        let per_rep: Vec<Vec<Metric>> =
            traced_reps.iter().map(|r| metrics::per_layer(r, overhead_s)).collect();
        per_rep[0]
            .iter()
            .enumerate()
            .map(|(i, &(name, unit, _))| (name, unit, median(per_rep.iter().map(|m| m[i].2))))
            .collect()
    } else {
        metrics::end_to_end(&untraced_reps, peak_rss_mb)
    };
    let finite = metrics.iter().all(|m| m.2.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not a finite number: {metrics:?}");
    }
    let correct = failed == 0 && finite;

    println!(
        "{{\"host\": {{\"available_parallelism\": {}, \"pool.threads\": {}, \"git_revision\": \
         \"{}\", \"build_profile\": \"{}\"}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sp_core::default_threads(),
        git_revision(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    println!(
        "{{\"checks\": {{\"workload\": \"{}\", \"seed\": {}, \"repetitions\": {}, \
         \"traced_repetitions\": {}, \"fingerprint\": \"{:016x}\", \"requests_sent\": {}, \
         \"completed\": {}, \"rejected\": {}, \"failed\": {}, \"ttft_samples\": {}, \
         \"wall_s\": {:?}, \"default_width\": {}, \"wall_s_default_width\": {}}}}}",
        w.name(),
        args.seed,
        all.len(),
        traced_reps.len(),
        first.fingerprint,
        first.outcome.sent,
        first.outcome.completed,
        first.outcome.rejected,
        first.outcome.failed,
        first.outcome.ttft_samples,
        untraced_reps.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        default_width.threads,
        default_width.wall_s,
    );
    let mut out = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{out}}}}}",
        all.len()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(f64::NAN);
    kb / 1024.0
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

//! Simulator self-benchmark: how fast does the simulator itself run,
//! and which optimization layer makes it so?
//!
//! Every measurement is a rung of an optimization ladder. A ladder is a
//! trace, an engine builder and an ordered list of rungs; each rung
//! runs the same fleet under one cluster loop (the one-event reference
//! loop, `ClusterSim::reference`, or the horizon-window loop), one
//! `FastPaths` rung of the engine and one fan-out width, so the gain of
//! each row over the one before it is the worth of the layer it adds:
//!
//! | ladder | fleet and trace | rungs |
//! |---|---|---|
//! | `dp_backlog` | 64 (smoke: 32) KV-bound SLO DP replicas, deep bursts | reference loop; window loop; `Indexed`; `Compiled`; `MacroSteps`; fan-out |
//! | `shift_decode_drain` | 64 Qwen-32B Shift engines, one burst then drain | `Indexed`; `Compiled`; `MacroSteps`; fan-out |
//! | `dp_chunked_kv_bound` | 64 DP replicas, chunked prefills, blocked queue | `Compiled`; `MacroSteps`; fan-out |
//!
//! The first two `dp_backlog` rungs run the `Reference` engine rung;
//! the fan-out rung is `MacroSteps` at the host's available parallelism,
//! skipped on a one-core host. Each rung runs one warmup and three
//! timed repeats and prints one row: median, min and max wall time,
//! events/s at the median (an event is one engine scheduling
//! iteration), the resident set at the end of a run (the largest of
//! the repeats), the width, and the gain over the previous row. Every rung's `EngineReport::dump` must equal
//! its ladder's first rung's, or the bench panics.
//!
//! ```text
//! cargo run --release -p sp-bench --bin simperf [-- --smoke] [-- --baseline ci/simperf_baseline.json]
//! ```
//!
//! * `--smoke` — the smaller traces (the CI gate). In smoke mode the
//!   `MacroSteps` row must gain at least 3x over `Compiled` on
//!   `shift_decode_drain` and 2x on `dp_chunked_kv_bound`, or the bench
//!   panics.
//! * `--baseline <path>` — compare each gated row's events/s against
//!   the floors in a committed baseline JSON and exit non-zero when one
//!   falls below 0.70x its floor or is missing.
//!
//! Every run prints its rows and their JSON on stdout; a full run also
//! writes the JSON to `BENCH_simperf.json`, the committed record, which
//! a smoke run leaves alone.

use shift_core::ShiftPolicy;
use sp_bench::scenarios::{chunked_kv_bound_engine, chunked_kv_bound_trace};
use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
use sp_engine::{ClusterSim, Engine, EngineConfig, FastPaths, RoutingKind};
use sp_metrics::{ClassSlo, Dur};
use sp_model::presets;
use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};
use sp_workload::bursty::BurstyConfig;
use sp_workload::{sizes::LengthDist, Trace};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Timed repeats per rung, after one warmup run.
const REPEATS: usize = 3;

/// The cluster loop a rung runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Loop {
    /// `ClusterSim::reference`: one event at a time, linear rescans.
    Reference,
    /// The horizon-window loop.
    Window,
}

/// One rung of a ladder.
struct Rung {
    name: &'static str,
    cluster: Loop,
    paths: FastPaths,
    /// Fan-out width; 0 stands for the host's available parallelism.
    threads: usize,
    /// In smoke mode, the least gain over the previous row this rung
    /// must show.
    min_gain: Option<f64>,
}

impl Rung {
    const fn new(name: &'static str, cluster: Loop, paths: FastPaths) -> Rung {
        Rung { name, cluster, paths, threads: 1, min_gain: None }
    }

    /// The `MacroSteps` rung at the host's available parallelism.
    const FAN_OUT: Rung =
        Rung { threads: 0, ..Rung::new("fan_out", Loop::Window, FastPaths::MacroSteps) };
}

/// A trace, an engine builder and the rungs to run them on.
struct Ladder {
    name: &'static str,
    replicas: usize,
    trace: Trace,
    engine: fn(FastPaths) -> Engine,
    rungs: Vec<Rung>,
}

/// One measured rung.
struct Row {
    name: String,
    cluster: Loop,
    paths: FastPaths,
    threads: usize,
    events: u64,
    /// Wall seconds of the timed repeats, sorted.
    walls: Vec<f64>,
    /// The largest resident set at the end of a timed run, fleet and
    /// report still live, in kB.
    rss_kb: u64,
    /// Median wall of the previous row over this row's.
    gain: Option<f64>,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<32} {:>9} {:>10} t{:<2} {:>10.3} ms [{:.3}, {:.3}] {:>12.0} events/s {:>8} kB",
            self.name,
            format!("{:?}", self.cluster),
            format!("{:?}", self.paths),
            self.threads,
            1e3 * self.median(),
            1e3 * self.min(),
            1e3 * self.max(),
            self.events_per_sec(),
            self.rss_kb,
        )?;
        match self.gain {
            Some(gain) => write!(f, " {gain:>6.2}x"),
            None => Ok(()),
        }
    }
}

impl Row {
    fn median(&self) -> f64 {
        self.walls[self.walls.len() / 2]
    }

    fn min(&self) -> f64 {
        self.walls[0]
    }

    fn max(&self) -> f64 {
        self.walls[self.walls.len() - 1]
    }

    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.median().max(1e-9)
    }
}

/// One single-GPU DP replica of the `dp_backlog` fleet: SLO classes and
/// a 24,576-token KV cache, so few sequences fit at once and bursts
/// pile into deep waiting queues.
fn backlog_engine(paths: FastPaths) -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    let config = EngineConfig {
        class_slo: Some(ClassSlo::default()),
        kv_capacity_tokens: 24_576,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        config,
    );
    engine.set_fast_paths(paths);
    engine
}

/// The deep-burst trace for `replicas` backlog replicas: offered load
/// scales with the replica count, and each burst brings 40 (smoke) or
/// 300 long prompts per replica.
fn backlog_trace(replicas: usize, smoke: bool) -> Trace {
    let r = replicas as f64;
    let (duration, base_rate, bursts, burst_depth) =
        if smoke { (30.0, 0.4 * r, 1, 40) } else { (120.0, 0.5 * r, 2, 300) };
    BurstyConfig {
        duration: Dur::from_secs(duration),
        base_rate,
        bursts,
        burst_size: burst_depth * replicas,
        burst_window: Dur::from_secs(5.0),
        base_input: LengthDist::LogNormal { median: 450.0, sigma: 0.6 },
        base_output: LengthDist::LogNormal { median: 120.0, sigma: 0.5 },
        burst_input: LengthDist::LogNormal { median: 2000.0, sigma: 0.8 },
        burst_output: LengthDist::LogNormal { median: 150.0, sigma: 0.5 },
        seed: 0x51_3E_9F,
    }
    .generate()
}

/// One 8-GPU paper node running the two-config Shift policy, so every
/// scheduling iteration prices both the base and the shifted layout.
fn shift_engine(paths: FastPaths) -> Engine {
    let config = EngineConfig { kv_capacity_tokens: 1_000_000, ..EngineConfig::default() };
    let mut engine = Engine::new(
        ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b()),
        Box::new(ShiftPolicy::with_default_threshold(ParallelConfig::new(4, 2))),
        config,
    );
    engine.set_fast_paths(paths);
    engine
}

/// One compressed burst of long, low-variance generations and almost no
/// trailing traffic, so nearly all decode work happens in the drain
/// after arrivals stop: long decode plateaus whose run length is set by
/// sequence finishes, not by arrivals cutting horizon windows.
fn drain_trace(replicas: usize, smoke: bool) -> Trace {
    let r = replicas as f64;
    let (burst_depth, out_median) = if smoke { (48, 1500.0) } else { (64, 5000.0) };
    BurstyConfig {
        duration: Dur::from_secs(2.0),
        base_rate: 0.05 * r,
        bursts: 1,
        burst_size: burst_depth * replicas,
        burst_window: Dur::from_secs(0.25),
        base_input: LengthDist::LogNormal { median: 150.0, sigma: 0.4 },
        base_output: LengthDist::LogNormal { median: 400.0, sigma: 0.4 },
        burst_input: LengthDist::LogNormal { median: 200.0, sigma: 0.3 },
        burst_output: LengthDist::LogNormal { median: out_median, sigma: 0.1 },
        seed: 0xDE_C0_DE,
    }
    .generate()
}

/// The three ladders, smallest first within each.
fn ladders(smoke: bool) -> Vec<Ladder> {
    use FastPaths::{Compiled, Indexed, MacroSteps, Reference};
    let macro_steps =
        |min_gain| Rung { min_gain, ..Rung::new("macro_steps", Loop::Window, MacroSteps) };
    let backlog_replicas = if smoke { 32 } else { 64 };
    vec![
        Ladder {
            name: "dp_backlog",
            replicas: backlog_replicas,
            trace: backlog_trace(backlog_replicas, smoke),
            engine: backlog_engine,
            rungs: vec![
                Rung::new("reference_loop", Loop::Reference, Reference),
                Rung::new("window_loop", Loop::Window, Reference),
                Rung::new("indexed", Loop::Window, Indexed),
                Rung::new("compiled", Loop::Window, Compiled),
                macro_steps(None),
                Rung::FAN_OUT,
            ],
        },
        Ladder {
            name: "shift_decode_drain",
            replicas: 64,
            trace: drain_trace(64, smoke),
            engine: shift_engine,
            rungs: vec![
                Rung::new("indexed", Loop::Window, Indexed),
                Rung::new("compiled", Loop::Window, Compiled),
                macro_steps(Some(3.0)),
                Rung::FAN_OUT,
            ],
        },
        Ladder {
            name: "dp_chunked_kv_bound",
            replicas: 64,
            trace: chunked_kv_bound_trace(64, smoke),
            engine: chunked_kv_bound_engine,
            rungs: vec![
                Rung::new("compiled", Loop::Window, Compiled),
                macro_steps(Some(2.0)),
                Rung::FAN_OUT,
            ],
        },
    ]
}

/// Resident set size of the process, in kB, from `/proc/self/status`
/// (`VmRSS`); 0 without procfs.
fn rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Host core count; 1 when the query fails.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The length and SipHash of a report dump: the dump check keeps this
/// rather than a whole dump alive, so the RSS column measures the
/// simulation alone.
fn digest(dump: &str) -> (usize, u64) {
    let mut hasher = DefaultHasher::new();
    dump.hash(&mut hasher);
    (dump.len(), hasher.finish())
}

/// Runs every rung of `ladder` — one warmup and [`REPEATS`] timed runs
/// each, the fleet built outside the timed region — and checks that
/// each run conserves requests and that each rung's warmup dumps the
/// same report as the ladder's first.
fn run_ladder(ladder: &Ladder, smoke: bool) -> Vec<Row> {
    let cores = available_parallelism();
    let mut first_dump = None;
    let mut rows: Vec<Row> = Vec::new();
    for rung in &ladder.rungs {
        let threads = if rung.threads == 0 { cores } else { rung.threads };
        let name = format!("{}/{}", ladder.name, rung.name);
        if rung.threads == 0 && cores < 2 {
            println!("{name}: skipped (single-core host, available_parallelism = {cores})");
            continue;
        }
        let mut walls = Vec::with_capacity(REPEATS);
        let (mut events, mut rss) = (0, 0);
        for repeat in 0..=REPEATS {
            let engines = (0..ladder.replicas).map(|_| (ladder.engine)(rung.paths)).collect();
            let policy = RoutingKind::default().policy();
            let mut sim = match rung.cluster {
                Loop::Reference => ClusterSim::reference(engines, policy),
                Loop::Window => ClusterSim::new(engines, policy).with_threads(threads),
            };
            let start = Instant::now();
            let report = sim.run(&ladder.trace);
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(
                report.records().len() + report.rejected().len() + report.failed().len(),
                ladder.trace.len(),
                "{name}: every request must complete, be rejected, or fail terminally"
            );
            if repeat == 0 {
                let dump = digest(&report.dump());
                assert_eq!(
                    *first_dump.get_or_insert(dump),
                    dump,
                    "{name}: report differs from the ladder's first rung"
                );
                events = report.iterations();
            } else {
                walls.push(wall);
                rss = rss.max(rss_kb());
            }
        }
        walls.sort_by(f64::total_cmp);
        let mut row = Row {
            name,
            cluster: rung.cluster,
            paths: rung.paths,
            threads,
            events,
            walls,
            rss_kb: rss,
            gain: None,
        };
        row.gain = rows.last().map(|prev| prev.median() / row.median().max(1e-9));
        println!("{row}");
        if let (true, Some(min), Some(gain)) = (smoke, rung.min_gain, row.gain) {
            assert!(gain >= min, "{}: {gain:.2}x over the previous row, below {min}x", row.name);
        }
        rows.push(row);
    }
    rows
}

fn render_json(mode: &str, ladders: &[(Ladder, Vec<Row>)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"simperf\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"available_parallelism\": {},\n", available_parallelism()));
    out.push_str(&format!("  \"repeats\": {REPEATS},\n"));
    out.push_str("  \"events\": \"engine scheduling iterations across all replicas\",\n");
    out.push_str("  \"ladders\": [\n");
    for (i, (ladder, rows)) in ladders.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"ladder\": \"{}\", \"replicas\": {}, \"requests\": {}, \"rows\": [\n",
            ladder.name,
            ladder.replicas,
            ladder.trace.len()
        ));
        for (j, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"name\": \"{}\", \"loop\": \"{:?}\", \"paths\": \"{:?}\", \
                 \"threads\": {}, \"events\": {}, \"wall_s_median\": {:.6}, \
                 \"wall_s_min\": {:.6}, \"wall_s_max\": {:.6}, \"events_per_sec\": {:.0}, \
                 \"rss_kb\": {}, \"gain\": {}}}{}\n",
                r.name,
                r.cluster,
                r.paths,
                r.threads,
                r.events,
                r.median(),
                r.min(),
                r.max(),
                r.events_per_sec(),
                r.rss_kb,
                r.gain.map_or("null".to_string(), |g| format!("{g:.2}")),
                if j + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("    ]}}{}\n", if i + 1 < ladders.len() { "," } else { "" }));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pulls `(name, events_per_sec)` pairs back out of a baseline JSON: one
/// row per line, as [`render_json`] writes them.
fn parse_baseline(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name_at) = line.find("\"name\": \"") else { continue };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else { continue };
        let name = rest[..name_end].to_string();
        let Some(eps_at) = line.find("\"events_per_sec\": ") else { continue };
        let eps_str: String = line[eps_at + 18..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(eps) = eps_str.parse::<f64>() {
            out.push((name, eps));
        }
    }
    out
}

/// Checks every floor in the baseline at `path` against `rows`; false
/// when one is missed.
fn check_baseline(path: &str, rows: &[&Row]) -> bool {
    let baseline = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let cores = available_parallelism();
    let mut ok = true;
    for (name, base_eps) in parse_baseline(&baseline) {
        let floor = 0.70 * base_eps;
        let Some(now) = rows.iter().find(|r| r.name == name) else {
            if name.ends_with("/fan_out") && cores < 2 {
                println!("baseline check {name}: skipped (single-core host)");
            } else {
                println!("baseline check {name}: MISSING");
                ok = false;
            }
            continue;
        };
        let eps = now.events_per_sec();
        let verdict = if eps < floor {
            ok = false;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "baseline check {name}: {eps:.0} events/s vs floor {floor:.0} ({base_eps:.0} committed) — {verdict}"
        );
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let baseline_path =
        args.iter().position(|a| a == "--baseline").and_then(|i| args.get(i + 1)).cloned();
    let mode = if smoke { "smoke" } else { "full" };

    let results: Vec<(Ladder, Vec<Row>)> = ladders(smoke)
        .into_iter()
        .map(|l| {
            println!("{}: {} replicas, {} requests", l.name, l.replicas, l.trace.len());
            let rows = run_ladder(&l, smoke);
            (l, rows)
        })
        .collect();
    let json = render_json(mode, &results);
    if !smoke {
        std::fs::write("BENCH_simperf.json", &json).expect("write BENCH_simperf.json");
    }
    println!("\n{json}");
    sp_bench::probes::print_profile();

    if let Some(path) = baseline_path {
        let rows: Vec<&Row> = results.iter().flat_map(|(_, rows)| rows).collect();
        if !check_baseline(&path, &rows) {
            eprintln!("simperf: events/s fell below a floor in {path}");
            std::process::exit(1);
        }
    }
}

//! Simulator self-benchmark: how fast does the simulator itself run?
//!
//! Measures wall-clock scheduling events per second and peak RSS of the
//! horizon-window cluster loop ([`ClusterSim`]) on bursty traces at 1,
//! 4, 16, and 64 replicas, plus its speedup over the one-event-at-a-time
//! linear-rescan loop (`ClusterSim::reference`, the reference mode kept
//! as an executable specification). Every run prints its results as
//! JSON on stdout; a full run also writes them to `BENCH_simperf.json`,
//! the committed record, which a smoke run leaves alone.
//!
//! Every cluster scenario runs at fan-out width 1 — the width that has
//! won on every host measured so far — except the
//! `parallel_r64_t{1,2,8}` thread sweep, which exists to measure width.
//!
//! ```text
//! cargo run --release -p sp-bench --bin simperf [-- --smoke] [-- --baseline ci/simperf_baseline.json]
//! ```
//!
//! * `--smoke` — small traces and replica counts (the CI gate). Smoke
//!   scenarios run one warmup iteration then best-of-3, so the gated
//!   numbers reflect a warm process rather than whichever cold-start
//!   hiccup the CI runner happened to have.
//! * `--baseline <path>` — compare events/sec against a committed
//!   baseline JSON and exit non-zero on a >30% regression in any
//!   scenario present in both runs.
//!
//! Besides the replica sweep and the window-vs-reference headline pair,
//! the bench measures `pricing_evals_per_sec`: every candidate shift
//! layout of an 8-GPU node priced through compiled [`ExecPlan`]s, against
//! the direct `try_iteration` fold, over the same batch stream, so the
//! ratio isolates the pricing layer.
//!
//! The replica sweep fans out across cores via
//! [`sp_bench::harness::parallel_sweep`]; the headline and pricing
//! pairs run sequentially afterwards so their ratios are measured
//! without CPU contention.
//!
//! The `parallel_r64_t{1,2,8}` scenarios measure the horizon-parallel
//! cluster engine at explicit fan-out widths on the 64-replica
//! deep-burst fleet; every scenario line records the `threads` it ran
//! at, and `parallel_scaling_t8` reports the t8/t1 events/sec ratio.
//! The JSON also records `available_parallelism` — the host core
//! count — and the baseline gate skips `parallel_r64_t8` on
//! single-core hosts, where thread fan-out cannot win by construction.
//!
//! Every engine pair is two rungs of the engine's one optimization
//! ladder (`Engine::set_fast_paths`): the window-vs-reference headline
//! runs `FastPaths::MacroSteps` against `FastPaths::Reference`, the
//! cluster direct-pricing scenario runs `FastPaths::Indexed`, and the
//! two macro-step pairs run `FastPaths::MacroSteps` against
//! `FastPaths::Compiled`, the per-iteration loop with every other layer
//! on.
//!
//! The `fastforward_r64` pair measures the decode fast-forward path:
//! the decode-heavy 64-replica shift cluster with steady-state
//! macro-stepping live versus the same fleet on the per-iteration loop.
//! Reports are byte-identical across the pair (pinned by the
//! fast-forward property suite); event counts are asserted equal here,
//! and in smoke mode the measured speedup is hard-gated at >=3x.
//!
//! The `steadyshape_r64` pair measures the same macro-steps over
//! KV-blocked wait queues on a KV-bound trace whose prefills chunk
//! across several iterations, against the same fleet on the
//! per-iteration loop. In smoke mode the measured speedup is hard-gated
//! at >=2x.

use shift_core::ShiftPolicy;
use sp_bench::harness::parallel_sweep;
use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
use sp_engine::{
    AutoscaleConfig, Autoscaler, ClusterSim, Engine, EngineConfig, EngineReport, FastPaths,
    FaultPlan, LoadBandPolicy, RetryPolicy, RoutingKind,
};
use sp_metrics::{ClassSlo, Dur};
use sp_model::presets;
use sp_parallel::{BatchWork, ChunkWork, ExecPlan, ExecutionModel, ParallelConfig, StaticPolicy};
use sp_workload::bursty::BurstyConfig;
use sp_workload::{sizes::LengthDist, Trace};
use std::time::Instant;

/// Sweep scenarios run unconstrained engines (ample KV).
const DEFAULT_KV: u64 = 1_000_000;
/// The headline pair runs KV-bound engines: few sequences fit at once,
/// so bursts pile into deep waiting queues — the backlog regime where
/// the pre-index admission scan went quadratic.
const BOUND_KV: u64 = 24_576;

/// One measured scenario.
struct Scenario {
    name: String,
    replicas: usize,
    /// Horizon-parallel fan-out width the simulation ran at (1 for the
    /// sequential reference and the non-cluster scenarios).
    threads: usize,
    requests: usize,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    peak_rss_kb: u64,
}

/// One single-GPU DP replica on the given ladder rung.
fn dp_engine(slo: Option<ClassSlo>, kv_capacity: u64, paths: FastPaths) -> Engine {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    let config =
        EngineConfig { class_slo: slo, kv_capacity_tokens: kv_capacity, ..EngineConfig::default() };
    let mut engine = Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        config,
    );
    engine.set_fast_paths(paths);
    engine
}

fn engines(n: usize, slo: Option<ClassSlo>, kv_capacity: u64, paths: FastPaths) -> Vec<Engine> {
    (0..n).map(|_| dp_engine(slo, kv_capacity, paths)).collect()
}

/// Engines for the decode-heavy shift clusters: 8-GPU paper nodes
/// running the two-config Shift policy, so every scheduling iteration
/// prices both the base and the shifted layout. `FastPaths::Indexed`
/// forces pricing back onto the `try_iteration` fold while keeping
/// every scheduler fast path, isolating pricing cost;
/// `FastPaths::Compiled` keeps exact compiled pricing but walks every
/// decode iteration through the per-iteration scheduler, isolating
/// macro-stepping.
fn shift_engines(n: usize, paths: FastPaths) -> Vec<Engine> {
    let node = NodeSpec::p5en_48xlarge();
    (0..n)
        .map(|_| {
            let config = EngineConfig { kv_capacity_tokens: DEFAULT_KV, ..EngineConfig::default() };
            let mut engine = Engine::new(
                ExecutionModel::new(node, presets::qwen_32b()),
                Box::new(ShiftPolicy::with_default_threshold(ParallelConfig::new(4, 2))),
                config,
            );
            engine.set_fast_paths(paths);
            engine
        })
        .collect()
}

/// A bursty trace whose offered load scales with the replica count, so
/// per-replica utilization stays comparable across the sweep.
/// `burst_depth` is the per-replica burst size — the headline scenario
/// raises it so engines carry deep waiting queues through each burst,
/// the regime where admission cost matters.
fn bursty_trace(replicas: usize, smoke: bool, burst_depth: usize) -> Trace {
    let r = replicas as f64;
    let (duration, base_rate, bursts) =
        if smoke { (30.0, 0.4 * r, 1) } else { (120.0, 0.5 * r, 2) };
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

/// A decode-heavy trace for the pricing pair: one deep synchronized
/// burst of short prompts with long, low-variance generations, on top
/// of a trickle of interactive traffic. After the burst prefills drain,
/// every replica settles into a long plateau of pure-decode iterations
/// over ~200 sequences — the regime where the direct per-chunk cost
/// fold dominates wall time.
fn decode_heavy_trace(replicas: usize, smoke: bool) -> Trace {
    let r = replicas as f64;
    let (duration, burst_depth, out_median) =
        if smoke { (15.0, 120, 800.0) } else { (20.0, 240, 1500.0) };
    BurstyConfig {
        duration: Dur::from_secs(duration),
        base_rate: 0.5 * r,
        bursts: 1,
        burst_size: burst_depth * replicas,
        burst_window: Dur::from_secs(2.0),
        base_input: LengthDist::LogNormal { median: 150.0, sigma: 0.4 },
        base_output: LengthDist::LogNormal { median: 400.0, sigma: 0.4 },
        burst_input: LengthDist::LogNormal { median: 200.0, sigma: 0.3 },
        burst_output: LengthDist::LogNormal { median: out_median, sigma: 0.25 },
        seed: 0xDE_C0_DE,
    }
    .generate()
}

/// The steady-state trace for the fast-forward pair: one compressed
/// burst of long, low-variance generations and almost no trailing
/// traffic, so nearly all decode work happens in the unbounded drain
/// window after arrivals stop. Every cluster-wide arrival cuts a
/// horizon window across all replicas (bounding any decode run at the
/// arrival instant), so the burst-then-drain shape is the regime the
/// fast-forward path targets: long uninterrupted decode plateaus whose
/// run length is set by sequence finishes, not by window edges.
fn fastforward_trace(replicas: usize, smoke: bool) -> Trace {
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

/// Trace for the shape-stable-window pair: a KV-bound steady state
/// threaded with chunked prefills. Inputs run ~3x the engines' token
/// budget, so each admission prefills across several per-iteration
/// steps, while long, low-variance outputs hold the decode plateau
/// between arrivals — the runs this path macro-steps — and the bounded
/// KV keeps a deep wait queue blocked, which a decode run probes only
/// at arrivals and deadline lapses instead of every iteration.
fn steadyshape_trace(replicas: usize, smoke: bool) -> Trace {
    let r = replicas as f64;
    let (duration, burst_depth, out_median) =
        if smoke { (2.0, 6, 400.0) } else { (8.0, 24, 700.0) };
    BurstyConfig {
        duration: Dur::from_secs(duration),
        base_rate: 0.2 * r,
        bursts: 1,
        burst_size: burst_depth * replicas,
        burst_window: Dur::from_secs(0.5),
        base_input: LengthDist::LogNormal { median: 5000.0, sigma: 0.3 },
        base_output: LengthDist::LogNormal { median: out_median, sigma: 0.2 },
        burst_input: LengthDist::LogNormal { median: 6000.0, sigma: 0.3 },
        burst_output: LengthDist::LogNormal { median: out_median, sigma: 0.2 },
        seed: 0x5A_FE_5A,
    }
    .generate()
}

/// Engines for the shape-stable pair: single-GPU DP replicas with a
/// small token budget (so the trace's inputs chunk across iterations),
/// bounded KV (so admission blocks), and SLO classes (so the run
/// probe's EDF deadline lapse is live), on the given ladder rung.
fn steadyshape_engines(n: usize, paths: FastPaths) -> Vec<Engine> {
    let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
    (0..n)
        .map(|_| {
            let config = EngineConfig {
                class_slo: Some(ClassSlo::default()),
                kv_capacity_tokens: BOUND_KV,
                max_batched_tokens: 2048,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(
                ExecutionModel::new(node, presets::qwen_32b()),
                Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
                config,
            );
            engine.set_fast_paths(paths);
            engine
        })
        .collect()
}

/// One warmup run then best-of-`runs`. Smoke mode gates absolute
/// events/sec against a committed baseline, and single cold-start runs
/// on shared CI runners were flaky enough to trip the 30% floor; the
/// warmup pays one-time costs (page faults, frequency ramp) and the max
/// keeps the least-contended repeat. `runs == 1` measures once, cold —
/// full mode keeps the old behavior.
fn best_of(runs: usize, mut run: impl FnMut() -> Scenario) -> Scenario {
    if runs <= 1 {
        return run();
    }
    let _warmup = run();
    (0..runs)
        .map(|_| run())
        .max_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec))
        .expect("runs >= 1")
}

/// Peak resident set size in kB since the last [`reset_peak_rss`],
/// from `/proc/self/status` (`VmHWM`). Zero on platforms without
/// procfs — the field is best-effort.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Resets the kernel's peak-RSS watermark to the current RSS by writing
/// `5` to `/proc/self/clear_refs`, so each scenario's `peak_rss_kb`
/// reports its own high-water mark instead of a process-lifetime
/// monotone max (which made every row after the largest scenario repeat
/// one shared number). Best-effort: on platforms without the file the
/// watermark stays monotone, as before.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Times one run — peak-RSS watermark reset, wall clock — as scenario
/// `name`; `run` returns its event count and whatever the caller checks
/// afterwards. Everything `run` needs is built before the call, outside
/// the timed region.
fn timed<R>(
    name: &str,
    replicas: usize,
    threads: usize,
    requests: usize,
    run: impl FnOnce() -> (u64, R),
) -> (Scenario, R) {
    reset_peak_rss();
    let start = Instant::now();
    let (events, out) = run();
    let wall_s = start.elapsed().as_secs_f64();
    let scenario = Scenario {
        name: name.to_string(),
        replicas,
        threads,
        requests,
        events,
        wall_s,
        events_per_sec: events as f64 / wall_s.max(1e-9),
        peak_rss_kb: peak_rss_kb(),
    };
    (scenario, out)
}

/// Times one run of a pre-built simulation over `trace` (events =
/// engine scheduling iterations) and asserts conservation: every
/// request completes, is rejected, or fails terminally.
fn measure(
    name: &str,
    replicas: usize,
    threads: usize,
    trace: &Trace,
    run: impl FnOnce(&Trace) -> EngineReport,
) -> (Scenario, EngineReport) {
    let (scenario, report) = timed(name, replicas, threads, trace.len(), || {
        let report = run(trace);
        (report.iterations(), report)
    });
    assert_eq!(
        report.records().len() + report.rejected().len() + report.failed().len(),
        trace.len(),
        "{name}: every request must complete, be rejected, or fail terminally"
    );
    (scenario, report)
}

/// A window-loop cluster over `engines` at fan-out width `threads`.
fn cluster(engines: Vec<Engine>, threads: usize) -> ClusterSim<Engine> {
    ClusterSim::new(engines, RoutingKind::default().policy()).with_threads(threads)
}

/// A width-1 fleet that starts at one replica and grows toward `peak`
/// on the load signal, so every dispatch pays the `pre_dispatch`
/// lifecycle sweep and the window loop absorbs spawn/retire churn.
fn autoscaled_fleet(peak: usize, slo: Option<ClassSlo>, kv_capacity: u64) -> ClusterSim<Engine> {
    let scaler = Autoscaler::new(
        AutoscaleConfig { cold_start: Dur::from_secs(2.0), min_replicas: 1, max_replicas: peak },
        Box::new(LoadBandPolicy::new(600.0, 80.0).smoothing(0.7).cooldown(Dur::from_secs(1.0))),
        move |_: usize| dp_engine(slo, kv_capacity, FastPaths::MacroSteps),
    );
    cluster(engines(1, slo, kv_capacity, FastPaths::MacroSteps), 1).with_autoscaler(scaler)
}

/// Every power-of-two `(sp, tp)` layout that fits an 8-GPU node and
/// shards the model — the candidate set a cost-driven shift deployment
/// prices when picking its base/shift pair. `compile` already rejects
/// exactly what `try_iteration` rejects, so the surviving plans and the
/// direct path price the same configurations.
fn shift_candidate_plans(exec: &ExecutionModel) -> Vec<ExecPlan> {
    let mut plans = Vec::new();
    for sp_pow in 0..4u32 {
        for tp_pow in 0..4u32 {
            let (sp, tp) = (1usize << sp_pow, 1usize << tp_pow);
            if sp * tp <= 8 {
                if let Ok(plan) = exec.compile(&ParallelConfig::new(sp, tp)) {
                    plans.push(plan);
                }
            }
        }
    }
    plans
}

/// A fixed window of decode-dominant batches echoing the decode-heavy
/// cluster scenario's plateau: 64–256 decode chunks at varied context
/// lengths, with a chunked-prefill rider in every 8th batch so the
/// prefill-linear-scale split stays on the measured path. The window is
/// pregenerated and cycled, keeping batch construction out of the
/// timed pricing loops.
fn pricing_batch_window() -> Vec<BatchWork> {
    (0..256usize)
        .map(|i| {
            let depth = 64 + (i * 37) % 193;
            let mut chunks: Vec<ChunkWork> = (0..depth)
                .map(|s| ChunkWork::decode(300 + ((i * 13 + s * 29) % 1500) as u64))
                .collect();
            if i % 8 == 0 {
                chunks.push(ChunkWork::prefill(512, 512 * (i % 4) as u64, i % 16 == 0));
            }
            BatchWork::new(chunks)
        })
        .collect()
}

/// Pricing-layer throughput: every candidate shift layout priced over a
/// stream of realistic batches. For these scenarios an *event is one
/// config evaluation* (batches × configurations), not a scheduling
/// iteration. `compiled` prices through one `price_all` pass — one
/// config-independent batch fold shared across all plans; the direct
/// side re-folds the whole batch per config via `try_iteration`, which
/// is exactly what policy pricing and `Engine::new` did before plans.
fn measure_pricing_evals(
    name: &str,
    replicas: usize,
    smoke: bool,
    exec: &ExecutionModel,
    compiled: bool,
) -> Scenario {
    let window = pricing_batch_window();
    let plans = shift_candidate_plans(exec);
    let configs: Vec<ParallelConfig> = plans.iter().map(|p| p.config()).collect();
    let rounds = if smoke { 300 * replicas } else { 1500 * replicas };
    let (scenario, ()) = timed(name, replicas, 1, rounds, || {
        let mut evals = 0u64;
        for r in 0..rounds {
            let batch = &window[r % window.len()];
            if compiled {
                let priced = exec.price_all(&plans, batch);
                evals += priced.len() as u64;
                std::hint::black_box(&priced);
            } else {
                for c in &configs {
                    std::hint::black_box(exec.iteration(c, batch).total());
                }
                evals += configs.len() as u64;
            }
        }
        (evals, ())
    });
    scenario
}

/// Host core count as reported by the standard library; 1 when the
/// query fails. Recorded per run so baseline numbers carry the
/// parallelism they were measured at, and consulted by the baseline
/// gate to skip thread-scaling floors on single-core hosts.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn render_json(
    mode: &str,
    scenarios: &[Scenario],
    speedup: f64,
    pricing: (f64, f64),
    parallel_scaling_t8: f64,
    fastforward_speedup: f64,
    steadyshape_speedup: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"simperf\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"available_parallelism\": {},\n", available_parallelism()));
    out.push_str(
        "  \"events\": \"engine scheduling iterations across all replicas\",\n  \"scenarios\": [\n",
    );
    for (i, s) in scenarios.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"replicas\": {}, \"threads\": {}, \"requests\": {}, \
             \"events\": {}, \"wall_s\": {:.4}, \"events_per_sec\": {:.0}, \
             \"peak_rss_kb\": {}}}{}\n",
            s.name,
            s.replicas,
            s.threads,
            s.requests,
            s.events,
            s.wall_s,
            s.events_per_sec,
            s.peak_rss_kb,
            if i + 1 < scenarios.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"speedup_vs_reference\": {speedup:.2},\n"));
    out.push_str(&format!("  \"parallel_scaling_t8\": {parallel_scaling_t8:.2},\n"));
    out.push_str(&format!("  \"fastforward_speedup\": {fastforward_speedup:.2},\n"));
    out.push_str(&format!("  \"steadyshape_speedup\": {steadyshape_speedup:.2},\n"));
    out.push_str(&format!("  \"pricing_evals_per_sec\": {:.0},\n", pricing.0));
    out.push_str(&format!("  \"pricing_speedup_vs_direct\": {:.2},\n", pricing.1));
    let peak = scenarios.iter().map(|s| s.peak_rss_kb).max().unwrap_or(0).max(peak_rss_kb());
    out.push_str(&format!("  \"peak_rss_kb\": {peak}\n}}\n"));
    out
}

/// Pulls `(name, events_per_sec)` pairs back out of a baseline JSON
/// written by [`render_json`] — field-order-dependent by construction,
/// which is fine for a file this binary itself produces.
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let baseline_path =
        args.iter().position(|a| a == "--baseline").and_then(|i| args.get(i + 1)).cloned();
    let mode = if smoke { "smoke" } else { "full" };

    // Replica sweep, one scoped thread per point. Wall-clock per point is
    // measured inside the point's own thread; the sweep points only
    // feed the events/sec curve, so cross-point CPU contention is an
    // acceptable trade for a much shorter bench.
    let replica_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16, 64] };
    let runs = if smoke { 3 } else { 1 };
    let mut scenarios = parallel_sweep(replica_counts, |&r| {
        let trace = bursty_trace(r, smoke, if smoke { 8 } else { 20 });
        // The single-replica point finishes in a few milliseconds; a
        // cold full-mode sample is dominated by first-touch page faults
        // and frequency ramp, so warm it like smoke mode does. The
        // larger points stay cold in full mode (one run each).
        let point_runs = if r == 1 { runs.max(3) } else { runs };
        best_of(point_runs, || {
            let mut sim = cluster(engines(r, None, DEFAULT_KV, FastPaths::MacroSteps), 1);
            measure(&format!("window_r{r}"), r, 1, &trace, |t| sim.run(t)).0
        })
    });

    // Headline pair: the optimized stack (horizon windows + indexed EDF
    // admission + allocation-free batch build) versus the executable
    // spec (one-event linear-rescan dispatch + linear admission scan), on a
    // deep-burst SLO trace at the largest sweep point, measured
    // back-to-back on a quiet process. The measured ratio is a lower
    // bound on the true win: the pre-PR code also paid O(W) queue
    // removals and a fresh allocation per batch build, which the
    // reference path does not reproduce.
    let headline_r = *replica_counts.last().expect("sweep is non-empty");
    let slo = Some(ClassSlo::default());
    let trace = bursty_trace(headline_r, smoke, if smoke { 40 } else { 300 });
    let window = best_of(runs, || {
        let mut sim = cluster(engines(headline_r, slo, BOUND_KV, FastPaths::MacroSteps), 1);
        measure(&format!("window_headline_r{headline_r}"), headline_r, 1, &trace, |t| sim.run(t)).0
    });
    // The executable specification: the one-event linear-rescan loop
    // over engines running the pre-index linear admission scan.
    let reference = best_of(runs, || {
        let mut sim = ClusterSim::reference(
            engines(headline_r, slo, BOUND_KV, FastPaths::Reference),
            RoutingKind::default().policy(),
        );
        measure(&format!("reference_r{headline_r}"), headline_r, 1, &trace, |t| sim.run(t)).0
    });
    assert_eq!(window.events, reference.events, "loops must execute identical event counts");
    let speedup = window.events_per_sec / reference.events_per_sec.max(1e-9);
    scenarios.push(window);
    scenarios.push(reference);

    // Autoscaled fleet: the same deep-burst SLO trace driven through a
    // fleet that starts at one replica and scales toward the headline
    // replica count on the load signal. Gated like the other cluster
    // scenarios so the per-dispatch lifecycle sweep and the
    // spawn/retire churn stay on the regression radar.
    scenarios.push(best_of(runs, || {
        let mut sim = autoscaled_fleet(headline_r, slo, BOUND_KV);
        let (scenario, report) =
            measure(&format!("autoscale_r{headline_r}"), headline_r, 1, &trace, |t| sim.run(t));
        assert!(
            report.fleet_timeline().peak_provisioned() > 1,
            "autoscale scenario must actually exercise replica churn"
        );
        scenario
    }));

    // Chaos fleet: the same autoscaled fleet under a seeded Poisson
    // crash schedule, so the fault-timer interleaving (salvage, backoff
    // redelivery, deficit respawn) is measured and gated rather than
    // only tested.
    let chaos_horizon = Dur::from_secs(if smoke { 30.0 } else { 120.0 });
    scenarios.push(best_of(runs, || {
        // MTTF of a quarter horizon: a handful of crashes per run, each
        // exercising salvage, backoff redelivery, and deficit respawn.
        let plan =
            FaultPlan::crashes_poisson(0xC4A5, chaos_horizon * 0.25, chaos_horizon, headline_r);
        let retry = RetryPolicy { max_retries: 3, base_backoff: Dur::from_secs(0.25) };
        let mut sim = autoscaled_fleet(headline_r, slo, BOUND_KV).with_faults(plan, retry);
        let (scenario, report) =
            measure(&format!("chaos_r{headline_r}"), headline_r, 1, &trace, |t| sim.run(t));
        assert!(report.fleet_timeline().crash_count() > 0, "chaos scenario must actually crash");
        scenario
    }));

    // Thread-scaling sweep: the 64-replica deep-burst headline fleet
    // stepped through the horizon-parallel engine at explicit fan-out
    // widths. All three widths produce byte-identical reports (pinned
    // by the property suite and the CI determinism job); the ratio
    // t8/t1 is the wall-clock payoff of parallel replica stepping on
    // this machine. Runs sequentially after the sweep so each width is
    // measured without cross-scenario CPU contention.
    let par_r = 64;
    let par_trace = bursty_trace(par_r, smoke, if smoke { 8 } else { 20 });
    let mut t1_eps = 0.0f64;
    let mut t8_eps = 0.0f64;
    for &t in &[1usize, 2, 8] {
        let s = best_of(runs, || {
            let mut sim = cluster(engines(par_r, None, DEFAULT_KV, FastPaths::MacroSteps), t);
            measure(&format!("parallel_r{par_r}_t{t}"), par_r, t, &par_trace, |tr| sim.run(tr)).0
        });
        if t == 1 {
            t1_eps = s.events_per_sec;
        }
        if t == 8 {
            t8_eps = s.events_per_sec;
        }
        scenarios.push(s);
    }
    let parallel_scaling = t8_eps / t1_eps.max(1e-9);

    // Pricing pair: one-pass `price_all` over compiled plans vs the
    // per-config `try_iteration` re-fold, over the same batch stream
    // and candidate-layout sweep, back-to-back on a quiet process. For
    // these two scenarios an event is one config evaluation, so both
    // sides execute identical event counts by construction.
    let pricing_r = headline_r;
    let pricing_exec = ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b());
    let compiled = best_of(runs, || {
        measure_pricing_evals(
            &format!("pricing_shift_r{pricing_r}"),
            pricing_r,
            smoke,
            &pricing_exec,
            true,
        )
    });
    let direct = best_of(runs, || {
        measure_pricing_evals(
            &format!("pricing_direct_r{pricing_r}"),
            pricing_r,
            smoke,
            &pricing_exec,
            false,
        )
    });
    assert_eq!(compiled.events, direct.events, "both paths price every (batch, config) pair");
    let pricing_eps = compiled.events_per_sec;
    let pricing_speedup = compiled.events_per_sec / direct.events_per_sec.max(1e-9);
    scenarios.push(compiled);
    scenarios.push(direct);

    // Cluster-level direct pricing (informational): the window loop
    // end to end on a decode-heavy shift-policy cluster with pricing
    // forced onto the direct fold. Bounds how much of a full simulation
    // run the pricing layer is worth.
    let cluster_trace = decode_heavy_trace(pricing_r, smoke);
    scenarios.push(best_of(runs, || {
        let mut sim = cluster(shift_engines(pricing_r, FastPaths::Indexed), 1);
        let name = format!("cluster_directprice_r{pricing_r}");
        measure(&name, pricing_r, 1, &cluster_trace, |t| sim.run(t)).0
    }));

    // Fast-forward pair: the decode-heavy shift cluster macro-stepped
    // through steady-state decode runs versus the same fleet forced
    // onto the per-iteration loop. Reports are byte-identical across
    // the pair (the fast-forward property suite pins this), and the
    // event counts are asserted equal here, so the events/sec ratio is
    // pure scheduler wall time. Gated at >=3x in smoke so the fast
    // path cannot silently stop engaging.
    let ff_r = 64;
    let ff_trace = fastforward_trace(ff_r, smoke);
    let ff = best_of(runs, || {
        let mut sim = cluster(shift_engines(ff_r, FastPaths::MacroSteps), 1);
        measure(&format!("fastforward_r{ff_r}"), ff_r, 1, &ff_trace, |t| sim.run(t)).0
    });
    let periter = best_of(runs, || {
        let mut sim = cluster(shift_engines(ff_r, FastPaths::Compiled), 1);
        measure(&format!("fastforward_periter_r{ff_r}"), ff_r, 1, &ff_trace, |t| sim.run(t)).0
    });
    assert_eq!(
        ff.events, periter.events,
        "fast-forward and per-iteration loops must execute identical event counts"
    );
    let fastforward_speedup = ff.events_per_sec / periter.events_per_sec.max(1e-9);
    if smoke {
        assert!(
            fastforward_speedup >= 3.0,
            "decode fast-forward must hold >=3x over the per-iteration loop in smoke \
             (got {fastforward_speedup:.2}x)"
        );
    }
    scenarios.push(ff);
    scenarios.push(periter);

    // Shape-stable window pair: the same engines with macro-steps
    // (running over their KV-blocked queues) against the per-iteration
    // loop, on a KV-bound trace whose
    // prefills chunk across iterations. Reports
    // are byte-identical across the pair (pinned by the fast-forward
    // property suite); event counts are asserted equal here, and smoke
    // hard-gates the ratio so the generalized path cannot silently
    // stop engaging.
    let ss_r = 64;
    let ss_trace = steadyshape_trace(ss_r, smoke);
    let ss = best_of(runs, || {
        let mut sim = cluster(steadyshape_engines(ss_r, FastPaths::MacroSteps), 1);
        measure(&format!("steadyshape_r{ss_r}"), ss_r, 1, &ss_trace, |t| sim.run(t)).0
    });
    let ss_periter = best_of(runs, || {
        let mut sim = cluster(steadyshape_engines(ss_r, FastPaths::Compiled), 1);
        measure(&format!("steadyshape_periter_r{ss_r}"), ss_r, 1, &ss_trace, |t| sim.run(t)).0
    });
    assert_eq!(
        ss.events, ss_periter.events,
        "shape-stable and per-iteration loops must execute identical event counts"
    );
    let steadyshape_speedup = ss.events_per_sec / ss_periter.events_per_sec.max(1e-9);
    if smoke {
        assert!(
            steadyshape_speedup >= 2.0,
            "shape-stable windows must hold >=2x over the per-iteration loop in smoke \
             (got {steadyshape_speedup:.2}x)"
        );
    }
    scenarios.push(ss);
    scenarios.push(ss_periter);

    let json = render_json(
        mode,
        &scenarios,
        speedup,
        (pricing_eps, pricing_speedup),
        parallel_scaling,
        fastforward_speedup,
        steadyshape_speedup,
    );
    if !smoke {
        std::fs::write("BENCH_simperf.json", &json).expect("write BENCH_simperf.json");
    }
    println!("{json}");
    println!(
        "window loop vs linear-rescan reference at {headline_r} replicas: {speedup:.2}x events/sec"
    );
    println!(
        "horizon-parallel stepping at {par_r} replicas: {parallel_scaling:.2}x events/sec at 8 threads vs 1"
    );
    println!(
        "compiled pricing vs direct try_iteration re-folds: {pricing_speedup:.2}x config evals/sec"
    );
    println!(
        "decode fast-forward at {ff_r} replicas: {fastforward_speedup:.2}x events/sec vs the per-iteration loop"
    );
    println!(
        "shape-stable windows at {ss_r} replicas: {steadyshape_speedup:.2}x events/sec vs the per-iteration loop"
    );
    sp_bench::probes::print_profile();

    if let Some(path) = baseline_path {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let cores = available_parallelism();
        let mut failed = false;
        for (name, base_eps) in parse_baseline(&baseline) {
            if name == "parallel_r64_t8" && cores < 2 {
                println!(
                    "baseline check {name}: skipped (single-core host, \
                     available_parallelism = {cores})"
                );
                continue;
            }
            let Some(now) = scenarios.iter().find(|s| s.name == name) else { continue };
            let floor = 0.70 * base_eps;
            let verdict = if now.events_per_sec < floor {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "baseline check {name}: {:.0} events/s vs floor {:.0} ({:.0} committed) — {verdict}",
                now.events_per_sec, floor, base_eps
            );
        }
        if failed {
            eprintln!("simperf: events/sec regressed >30% vs {path}");
            std::process::exit(1);
        }
    }
}

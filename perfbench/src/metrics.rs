//! The benchmark's metric tables: names, units and how each value is
//! taken from measured repetitions. `BENCHMARK.json` lists the same names.

use crate::probe::C;
use crate::workloads::Rep;
use sp_metrics::Quantiles;

/// A named, unit-carrying value.
pub type Metric = (&'static str, &'static str, f64);

/// The end-to-end metrics of one untraced run. Host times are the
/// fastest repetition (see [`host_time`]); simulated metrics (`sim_*`)
/// are identical in every repetition, which the caller checks.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let setup_s = host_time(reps.iter().map(Rep::setup_s));
    let wall_s = host_time(reps.iter().map(|r| r.wall_s));
    let o = &reps[0].outcome;
    vec![
        ("setup_s", "s", setup_s),
        ("wall_s", "s", wall_s),
        ("events_per_s", "1/s", o.iterations as f64 / wall_s),
        ("peak_rss_mb", "MB", peak_rss_mb),
        ("sim_ttft_p50_s", "s", o.ttft_p50_s),
        ("sim_ttft_p99_s", "s", o.ttft_p99_s),
        ("sim_tpot_p50_ms", "ms", o.tpot_p50_ms),
        ("sim_tpot_p99_ms", "ms", o.tpot_p99_ms),
        ("sim_combined_tok_per_s", "tokens/s", o.combined_tok_per_s),
        ("sim_slo_attainment", "share", o.slo_attainment),
        ("sim_served_share", "share", o.served_share()),
        ("sim_replica_s", "s", o.replica_s),
    ]
}

/// The per-layer metrics of one traced repetition. `overhead_s` is the
/// traced minus the untraced [`host_time`] of the same run's walls.
///
/// The cluster columns are thread-seconds: at fan-out width `w` the
/// cluster phases offer `w × (dispatch + drain + report)` of them, the
/// engine, router, autoscaler and spawner callbacks use what they are
/// timed for, and `cluster.unattributed_s` is the rest (the cluster
/// loop's own work plus idle pool threads), so the columns sum to the
/// total.
pub fn per_layer(rep: &Rep, overhead_s: f64) -> Vec<Metric> {
    let l = rep.layers.as_ref().expect("per-layer metrics need a traced repetition");
    let p = &l.probe;
    let o = &rep.outcome;
    let count = |c| p.get(c) as f64;
    let busy_s = [C::PushNs, C::StepOnceNs, C::StepRunNs, C::LoadNs, C::NodeReportNs]
        .into_iter()
        .map(|c| p.secs(c))
        .sum::<f64>();
    let thread_s = rep.threads as f64 * (l.dispatch_s + l.drain_s + l.report_s);
    let attributed = busy_s + p.secs(C::PickNs) + p.secs(C::DecideNs) + p.secs(C::SpawnNs);
    let events = o.iterations as f64;
    let run_events = count(C::RunEvents);
    let hits = count(C::StepRunHits);
    let switches = rep.deployment_switches.unwrap_or(p.get(C::Switches));
    vec![
        ("workload.gen_s", "s", rep.gen_s),
        ("workload.requests", "count", rep.trace.requests as f64),
        ("workload.prompt_tokens", "tokens", rep.trace.prompt_tokens as f64),
        ("workload.output_tokens", "tokens", rep.trace.output_tokens as f64),
        ("build.nodes", "count", rep.nodes as f64),
        ("build.nodes_s", "s", rep.build_s),
        ("cluster.dispatch_calls", "count", rep.trace.requests as f64),
        ("cluster.dispatch_s", "s", l.dispatch_s),
        ("cluster.drain_s", "s", l.drain_s),
        ("cluster.report_s", "s", l.report_s),
        ("cluster.unattributed_s", "s", thread_s - attributed),
        ("router.pick_calls", "count", count(C::PickCalls)),
        ("router.pick_s", "s", p.secs(C::PickNs)),
        ("engine.load_calls", "count", count(C::LoadCalls)),
        ("engine.load_s", "s", p.secs(C::LoadNs)),
        ("engine.events", "count", events),
        ("engine.push_calls", "count", count(C::PushCalls)),
        ("engine.push_s", "s", p.secs(C::PushNs)),
        ("engine.step_once_calls", "count", count(C::StepOnceCalls)),
        ("engine.step_once_s", "s", p.secs(C::StepOnceNs)),
        ("engine.step_run_calls", "count", count(C::StepRunCalls)),
        ("engine.step_run_hits", "count", hits),
        ("engine.step_run_s", "s", p.secs(C::StepRunNs)),
        ("engine.run_events", "count", run_events),
        ("engine.macro_share", "share", run_events / events.max(1.0)),
        ("engine.events_per_run", "events", if hits > 0.0 { run_events / hits } else { 0.0 }),
        ("engine.next_event_calls", "count", count(C::NextEventCalls)),
        ("engine.busy_s", "s", busy_s),
        ("engine.busy_share", "share", busy_s / thread_s),
        ("engine.batch_deferrals", "count", o.batch_deferrals as f64),
        ("engine.batch_sheds", "count", o.batch_sheds as f64),
        ("engine.preemptions", "count", o.preemptions as f64),
        ("engine.rejected", "count", o.rejected as f64),
        ("kv.peak_util", "share", o.kv_peak_util),
        ("policy.choose_calls", "count", count(C::ChooseCalls)),
        ("policy.choose_s", "s", p.secs(C::ChooseNs)),
        ("shift.base_share", "share", o.base_share),
        ("shift.switches", "count", switches as f64),
        ("autoscale.decide_calls", "count", count(C::DecideCalls)),
        ("autoscale.decide_s", "s", p.secs(C::DecideNs)),
        ("fleet.spawn_build_s", "s", p.secs(C::SpawnNs)),
        ("fleet.spawns", "count", o.spawns as f64),
        ("fleet.retires", "count", o.retires as f64),
        ("fleet.crashes", "count", o.crashes as f64),
        ("fleet.redispatches", "count", o.redispatches as f64),
        ("fleet.wasted_prefill_tokens", "tokens", o.wasted_prefill_tokens as f64),
        ("fleet.peak_provisioned", "count", o.peak_provisioned as f64),
        ("metrics.summarize_s", "s", l.summarize_s),
        ("metrics.ttft_samples", "count", o.ttft_samples as f64),
        ("pool.threads", "count", rep.threads as f64),
        ("trace.overhead_s", "s", overhead_s),
    ]
}

/// A run's host time: its fastest repetition. Every repetition does the
/// same deterministic work, and on a shared host interference only ever
/// adds time: other tenants slow the simulator down by up to ~1.8× in
/// phases of seconds, and some runs spend most of their time in such a
/// phase, which moves a median by the full factor. The fastest
/// repetition is the one least disturbed; a change that slows every
/// repetition still moves it.
pub fn host_time(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// The median of `xs`.
pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().collect::<Quantiles>().median().expect("median of no values")
}

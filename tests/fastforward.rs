//! Byte-identity properties and edge cases for the optimization ladder
//! and the cluster loops.
//!
//! The fast paths are *optimizations*, never behavior changes. On a lone
//! engine, the fast-forwarded run (`Engine::step_run` macro-stepping
//! steady-state decode runs) must reproduce the per-iteration
//! `FastPaths::Compiled` loop's report bit-for-bit. At cluster level,
//! windowed `ClusterSim` runs on every rung, and on the default rung at
//! every horizon width, must reproduce the executable spec — the
//! one-event `ClusterSim::reference` mode over `Reference`-rung engines — under
//! no faults, seeded fault plans, KV pressure and autoscaler churn, on
//! DP and Shift engines. Every comparison is an `EngineReport::dump`
//! (with timeline capture on, so it pins every iteration); the
//! edge-case tests pin the run-length boundaries (length-1 runs, caps
//! landing mid-run) individually.

mod support;

use proptest::prelude::*;
use shift_parallelism::engine::FastPaths;
use shift_parallelism::prelude::*;
use support::*;

/// An H200 derated to `mfu`. At the calibrated 0.55 decode attention is
/// memory bound; near 0.01 its ridge point meets decode attention's
/// arithmetic intensity, so a run's kernel can turn compute bound
/// partway through; far below that it is compute bound throughout.
fn derated_h200(mfu: f64) -> GpuSpec {
    GpuSpec { mfu, ..GpuSpec::h200() }
}

/// A Qwen-32B data-parallel replica like `dp_engine`'s, on a GPU
/// derated to `mfu`.
fn derated_dp_engine(mfu: f64, config: EngineConfig, paths: FastPaths) -> Engine {
    let node = NodeSpec::new(derated_h200(mfu), 1, InterconnectSpec::nvswitch());
    let mut e = Engine::new(
        ExecutionModel::new(node, presets::qwen_32b()),
        Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
        config,
    );
    e.set_fast_paths(paths);
    e
}

/// The KV-blocked regime: a tight cache, a small chunk budget (so
/// prompts prefill across many iterations, with decode runs between
/// them), and SLO-aware EDF admission (so the run probe's blocked
/// verdict lapses at a deadline and the shed path fires).
fn pressure_config(kv: u64) -> EngineConfig {
    EngineConfig { max_batched_tokens: 2048, class_slo: Some(ClassSlo::default()), ..config(kv) }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The core equivalence: a lone engine with fast-forward live must
    /// produce a bit-identical report to the same engine walking every
    /// iteration, across randomized traces and SLO admission —
    /// including the captured per-iteration timeline, so a run that
    /// mis-attributed even one iteration's end instant, duration,
    /// config, or KV reading fails here.
    #[test]
    fn fastforward_engine_matches_per_iteration(
        sized in arb_trace(&[30_000, 200_000]),
        use_slo in any::<bool>(),
    ) {
        let (kv, trace) = sized;
        let config = EngineConfig { class_slo: use_slo.then(ClassSlo::default), ..config(kv) };
        let run = |paths| dp_engine(config, paths).run(&trace).dump();
        assert_dumps_eq(
            &run(FastPaths::MacroSteps),
            &run(FastPaths::Compiled),
            "fast-forward vs the per-iteration engine",
        );
    }

    /// The same equivalence on Shift engines: a macro-step asks the
    /// policy once and records the rest of the run as repeated choices,
    /// so besides the report the policy's `(base, shift, switches)`
    /// counters must equal the per-iteration engine's, which asks once
    /// per iteration.
    #[test]
    fn fastforward_shift_engine_matches_per_iteration(
        sized in arb_trace(&[30_000, 200_000]),
        use_slo in any::<bool>(),
    ) {
        let (kv, trace) = sized;
        let config = EngineConfig { class_slo: use_slo.then(ClassSlo::default), ..config(kv) };
        let run = |paths| {
            let (mut engine, policy) = shift_engine(config, paths);
            (engine.run(&trace).dump(), shift_counts(&[policy]))
        };
        let (fast, fast_counts) = run(FastPaths::MacroSteps);
        let (slow, slow_counts) = run(FastPaths::Compiled);
        assert_dumps_eq(&fast, &slow, "fast-forward vs the per-iteration Shift engine");
        prop_assert_eq!(fast_counts, slow_counts);
    }

    /// Cluster-level equivalence, no faults, on fleets of 1 to 5
    /// replicas and of 12: every rung, and the default rung at every
    /// horizon width, must match the reference loop bit-for-bit. Runs
    /// here are cut by dispatch horizons, so the cap-clamp path is
    /// exercised on every arrival.
    #[test]
    fn fastforward_cluster_matches_per_iteration(
        sized in arb_trace(&[30_000, 200_000]),
        n_sel in 0usize..6,
    ) {
        let (kv, trace) = sized;
        let n = if n_sel == 5 { 12 } else { n_sel + 1 };
        assert_rungs_match(&Cluster::dp(n, config(kv)), &trace);
    }

    /// Cluster-level equivalence on Shift engines, whose macro-steps ask
    /// the policy once per run: reports and every replica's shift-policy
    /// counters match the reference loop, which asks once per iteration.
    #[test]
    fn fastforward_shift_cluster_matches_per_iteration(
        sized in arb_trace(&[30_000, 200_000]),
        n in 1usize..4,
    ) {
        let (kv, trace) = sized;
        assert_rungs_match(&Cluster { shift: true, ..Cluster::dp(n, config(kv)) }, &trace);
    }

    /// Cluster-level equivalence under seeded fault plans: crashes,
    /// slowdown windows, and route timeouts cut horizon windows at
    /// timer instants, so decode runs clamp at fault timers and re-enter
    /// after salvage/redelivery — all of it bit-identical to the
    /// reference loop on every rung and at every width.
    #[test]
    fn fastforward_cluster_matches_per_iteration_under_faults(
        sized in arb_trace(&[60_000]),
        n in 1usize..4,
        plan in arb_fault_plan(4),
        budget in 0u32..3,
    ) {
        let (kv, trace) = sized;
        let retry = RetryPolicy { max_retries: budget, base_backoff: Dur::from_secs(0.25) };
        let cluster = Cluster { faults: Some((plan, retry)), ..Cluster::dp(n, config(kv)) };
        assert_rungs_match(&cluster, &trace);
    }

    /// Cluster-level equivalence under KV pressure: prompts comparable
    /// to the cache with a 2048-token chunk budget, so prefills chunk
    /// across iterations between decode runs, arrivals land mid-window,
    /// admission blocks (with EDF deadline lapses and shed-path
    /// re-entries), and retirements re-open admission
    /// mid-horizon — with and without a fault plan cutting the windows
    /// at timer instants.
    #[test]
    fn fastforward_cluster_matches_per_iteration_under_kv_pressure(
        sized in arb_trace(&[16_384, 24_576]),
        n in 1usize..3,
        plan in prop_oneof![Just(FaultPlan::empty()), arb_fault_plan(2)],
    ) {
        let (kv, trace) = sized;
        let retry = RetryPolicy { max_retries: 2, base_backoff: Dur::from_secs(0.25) };
        let cluster = Cluster { faults: Some((plan, retry)), ..Cluster::dp(n, pressure_config(kv)) };
        assert_rungs_match(&cluster, &trace);
    }
}

/// Up to 24 requests for [`arb_step_config`]'s engines: prompts below
/// 800 tokens, so a budget of a few tokens still prefills them in a few
/// hundred steps, outputs below 120, arrivals in [0, 4) s, and on half
/// of them a cached prefix in one of three shared prefix groups.
fn arb_step_trace() -> impl Strategy<Value = Trace> {
    let req = (1u32..800, 1u32..120, 0.0f64..4.0, any::<bool>(), 0u8..6, 0.0f64..1.0);
    prop::collection::vec(req, 1..=24).prop_map(|reqs| {
        Trace::new(
            reqs.into_iter()
                .map(|(input, output, at, interactive, group, share)| {
                    let mut r = request(0, at, input, output, class(interactive));
                    if group < 3 {
                        r.prefix_group = Some(u64::from(group));
                        r.cached_prefix = (f64::from(input) * share) as u32;
                    }
                    r
                })
                .collect(),
        )
    })
}

/// Engine knobs that send a step down each of its two batch builds —
/// decodes as one closed-form lead, or a chunk per sequence — and
/// across the edge between them: speculative decoding, recompute
/// preemption, token budgets from a few tokens (fewer than the running
/// decodes, so the cursor rotates membership) up to the default, prefix
/// caching, and SLO admission, which defers batch prefills — most often
/// with a few sequences running and the rest queued behind `max_seqs`,
/// where an at-risk interactive request cannot shed its way in.
/// A tight cache holds 1,000 tokens, so recompute preemption preempts
/// and shared prefix groups contend for blocks.
fn arb_step_config() -> impl Strategy<Value = EngineConfig> {
    (
        0u8..3,
        prop_oneof![2u64..12, Just(256), Just(2048), Just(8192)],
        prop_oneof![2usize..5, Just(256)],
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (1u32..5, 0.0f64..0.9),
    )
        .prop_map(
            |(mode, budget, max_seqs, (tight, prefix_caching, slo), (draft, acceptance))| {
                let kv = if tight { 1_000 } else { 30_000 };
                EngineConfig {
                    max_batched_tokens: budget,
                    max_seqs,
                    spec_decode: (mode == 1).then(|| SpecDecode::new(draft, acceptance)),
                    admission: if mode == 2 {
                        AdmissionMode::PreemptRestart
                    } else {
                        AdmissionMode::ReserveFull
                    },
                    prefix_caching,
                    class_slo: slo.then(ClassSlo::default),
                    ..config(kv)
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A lone engine on every rung against the same engine on the
    /// `Reference` rung, under [`arb_step_config`]'s knobs: steps that
    /// price their decodes as a closed-form lead and steps that build a
    /// chunk per sequence must report the same, bit for bit. Shift
    /// engines price each step under one of two plans, and their policy
    /// counters must match too. Each rung takes over from the
    /// `Reference` rung after `handoff` steps, whose decodes advance
    /// unevenly, a chunk per sequence. With `equal_outputs`, sequences
    /// whose prefills land together finish on the same iteration, and
    /// SLO admission or a requeue admits them out of id order: every
    /// rung must record them in running order, as the reference does.
    #[test]
    fn every_rung_matches_the_reference_engine(
        trace in arb_step_trace(),
        config in arb_step_config(),
        shift in any::<bool>(),
        equal_outputs in any::<bool>(),
        handoff in prop_oneof![Just(0usize), 1usize..200],
    ) {
        let trace = if equal_outputs {
            Trace::with_ids(
                trace.requests().iter().map(|&r| Request { output_tokens: 24, ..r }).collect(),
            )
        } else {
            trace
        };
        let run = |paths| {
            let (mut engine, counts) = if shift {
                let (engine, policy) = shift_engine(config, FastPaths::Reference);
                (engine, Some(policy))
            } else {
                (dp_engine(config, FastPaths::Reference), None)
            };
            for &req in trace.requests() {
                engine.push_request(req);
            }
            for _ in 0..handoff {
                engine.step_once();
            }
            engine.set_fast_paths(paths);
            while !engine.is_idle() {
                if engine.step_run(None).is_none() {
                    engine.step_once();
                }
            }
            let counts = counts.map_or_else(Vec::new, |policy| shift_counts(&[policy]));
            (engine.take_report().dump(), counts)
        };
        let (want, want_counts) = run(FastPaths::Reference);
        for paths in [FastPaths::Indexed, FastPaths::Compiled, FastPaths::MacroSteps] {
            let (got, counts) = run(paths);
            assert_dumps_eq(&got, &want, &format!("the {paths:?} engine vs the Reference engine"));
            prop_assert_eq!(&counts, &want_counts);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The decode-run pricer against the plan, iteration by iteration:
    /// a random decode batch (each context its own length) advances
    /// `len` iterations, and every iteration's `ExecPlan::price` total
    /// must equal the pricer's two-term price bit for bit, and its
    /// memory-only price wherever `memory_bound` proves a stretch —
    /// the one from a random start to the run's end that the engine
    /// asks for, and a random inner one. Covers the preset models and
    /// both configurations a Shift policy registers, on three GPUs: the
    /// calibrated H200 (memory bound), a heavily derated one (compute
    /// bound), and one whose ridge point falls inside the run, so that
    /// runs turn compute bound partway and only stretches that end
    /// early are memory bound.
    #[test]
    fn decode_run_pricer_matches_the_plan_on_every_iteration(
        preset in 0usize..4,
        gpu in 0usize..3,
        mix in 0.0f64..1.0,
        contexts in prop_oneof![
            prop::collection::vec(0u64..50_000, 1..48),
            prop::collection::vec(0u64..64, 1..48),
        ],
        len in 1u64..400,
        cut in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let model = match preset {
            0 => presets::llama_70b(),
            1 => presets::qwen_32b(),
            2 => presets::qwen_30b_a3b(),
            _ => presets::llama_17b_16e(),
        };
        let n = contexts.len() as u64;
        let attended: u64 = contexts.iter().map(|c| c + 1).sum();
        prop_assume!(model.decode_batch_cost(n, attended + n * len).is_some());
        let h200 = GpuSpec::h200();
        let mfu = match gpu {
            0 => h200.mfu,
            1 => 0.001 + 0.002 * mix,
            _ => {
                // The mfu whose ridge equals the attention kernel's
                // FLOP/byte ratio at a point `mix` of the way between
                // the run's first and last iterations: the ratio grows
                // along a run (reads grow, the writes stay), so the
                // kernel turns compute bound near there.
                let intensity = |i: u64| {
                    let cost = model.decode_batch_cost(n, attended + n * i).unwrap();
                    cost.attn_flops / cost.total_kv_bytes() as f64
                };
                let (first, last) = (intensity(0), intensity(len - 1));
                let ridge = first + mix * (last - first);
                (ridge * h200.effective_mem_bw() / h200.dense_flops).min(1.0)
            }
        };
        let exec = ExecutionModel::new(
            NodeSpec::new(derated_h200(mfu), 8, InterconnectSpec::nvswitch()),
            model,
        );
        let batch = |i: u64| {
            BatchWork::new(contexts.iter().map(|c| ChunkWork::decode(c + i)).collect())
        };
        let s0 = exec.summarize(&batch(0));
        let s1 = exec.summarize(&batch(1));
        let (d_attn, d_kv) =
            (s1.cost.attn_flops - s0.cost.attn_flops, s1.cost.kv_read_bytes - s0.cost.kv_read_bytes);
        let bits = |d: Dur| d.as_secs().to_bits();
        let policy = ShiftPolicy::with_default_threshold(ParallelConfig::sequence(8));
        for config in policy.configurations() {
            let plan = exec.compile(&config).expect("every preset shards at degree 8");
            let pricer = plan.decode_run_pricer(&s0, d_attn, d_kv);
            let want: Vec<u64> =
                (0..len).map(|i| bits(plan.price(&exec.summarize(&batch(i))).total())).collect();
            for (i, &w) in (0..len).zip(&want) {
                prop_assert_eq!(bits(pricer.price(i)), w, "iteration {} under {}", i, config);
            }
            let start = (cut.0 * len as f64) as u64;
            let inner_end = start + (cut.1 * (len - start) as f64) as u64;
            for (from, to) in [(start, len - 1), (start, inner_end.min(len - 1))] {
                if pricer.memory_bound(from, to) {
                    for i in from..=to {
                        prop_assert_eq!(
                            bits(pricer.price_memory_bound(i)),
                            want[i as usize],
                            "iteration {} of the stretch {}..={} under {}", i, from, to, config
                        );
                    }
                }
            }
        }
    }

    /// The engine equivalence of `fastforward_engine_matches_per_iteration`
    /// on GPUs derated around and below decode attention's ridge point,
    /// so macro-stepped runs are priced with both roofline terms, or
    /// prove memory-bound stretches that end before the run does.
    #[test]
    fn fastforward_engine_matches_per_iteration_on_a_compute_bound_gpu(
        sized in arb_trace(&[30_000, 200_000]),
        mfu in prop_oneof![Just(0.002), 0.005f64..0.03],
        use_slo in any::<bool>(),
    ) {
        let (kv, trace) = sized;
        let config = EngineConfig { class_slo: use_slo.then(ClassSlo::default), ..config(kv) };
        let run = |paths| derated_dp_engine(mfu, config, paths).run(&trace).dump();
        assert_dumps_eq(
            &run(FastPaths::MacroSteps),
            &run(FastPaths::Compiled),
            "fast-forward vs the per-iteration engine on a compute-bound GPU",
        );
    }
}

/// Up to 8 requests with prompts of at most 48 tokens and outputs of 64
/// to 1,200, arriving in the first 3 s: decode runs whose contexts grow
/// many times over from short starts, so the attention kernel's
/// arithmetic intensity climbs along each run.
fn arb_short_prompt_trace() -> impl Strategy<Value = Trace> {
    let req = (1u32..48, 64u32..1_200, 0.0f64..3.0, any::<bool>());
    prop::collection::vec(req, 1..=8).prop_map(|reqs| {
        Trace::new(
            reqs.into_iter()
                .map(|(input, output, at, interactive)| {
                    request(0, at, input, output, class(interactive))
                })
                .collect(),
        )
    })
}

/// The mfu at which an H200's ridge point equals the arithmetic
/// intensity of Qwen-32B's decode attention at a mean context of
/// `context` tokens (a decode batch's intensity depends on its mean
/// context alone).
fn ridge_mfu_at(context: u64) -> f64 {
    let cost = presets::qwen_32b().decode_batch_cost(1, context + 1).expect("small batch");
    let intensity = cost.attn_flops / cost.total_kv_bytes() as f64;
    let h200 = GpuSpec::h200();
    (intensity * h200.effective_mem_bw() / h200.dense_flops).min(1.0)
}

/// Steps `node` through one window: every event strictly below `cap`,
/// by [`SimNode::step_run`] where `runs` allows it, as the cluster's
/// window loop does, else one [`SimNode::step_once`] at a time.
fn step_window<N: SimNode>(node: &mut N, cap: f64, runs: bool) {
    while node.next_event_time().is_some_and(|t| t.as_secs() < cap) {
        if !runs || node.step_run(Some(cap)).is_none() {
            node.step_once();
        }
    }
}

/// Feeds `trace` to `cut` and `whole`, then steps both through windows
/// whose widths cycle through `gaps` (0 puts the cap just above the
/// next event, so the window holds one iteration): `cut` macro-steps
/// its runs, which every cap cuts, and `whole` steps one iteration at a
/// time. After every window both must agree on the next event, on
/// `load()` and on `stats`; at the end their dumps must match. Before
/// window `salvage_at`, if given, both are salvaged as a crash would:
/// they must give back the same requests in the same order (the
/// running sequences in running order) and the same wasted prefill.
fn assert_window_cuts_invisible<N: SimNode>(
    mut cut: N,
    mut whole: N,
    trace: &Trace,
    gaps: &[f64],
    salvage_at: Option<usize>,
    stats: impl Fn(&N) -> Option<(u64, u64, u64)>,
) {
    for &req in trace.requests() {
        cut.push_request(req);
        whole.push_request(req);
    }
    let bits = |t: Option<SimTime>| t.map(|t| t.as_secs().to_bits());
    let salvage = |node: &mut N| {
        let work = node.take_unfinished();
        (work.requests.iter().map(|r| r.id).collect::<Vec<_>>(), work.wasted_prefill_tokens)
    };
    for (window, &gap) in gaps.iter().cycle().enumerate() {
        if salvage_at == Some(window) {
            assert_eq!(salvage(&mut cut), salvage(&mut whole), "salvage before window {window}");
        }
        let next = cut.next_event_time();
        assert_eq!(bits(next), bits(whole.next_event_time()), "next-event divergence");
        let Some(t) = next else { break };
        let cap = if gap == 0.0 { t.as_secs().next_up() } else { t.as_secs() + gap };
        step_window(&mut cut, cap, true);
        step_window(&mut whole, cap, false);
        assert_eq!(cut.load(), whole.load(), "load after the window capped at {cap}");
        assert_eq!(stats(&cut), stats(&whole), "policy counters after the window capped at {cap}");
    }
    assert_dumps_eq(
        &cut.take_report().dump(),
        &whole.take_report().dump(),
        "cut runs vs per-iteration stepping",
    );
}

/// Widths of the windows [`assert_window_cuts_invisible`] cycles
/// through: one-iteration windows, windows a few iterations wide and
/// windows that span whole runs.
fn arb_gaps() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(prop_oneof![Just(0.0), 1e-4f64..0.05, 0.05f64..4.0], 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A run cut by any caps, however many and however close, leaves
    /// the engine as if it had stepped each iteration: the same load
    /// after every window (a cut run's report totals wait in its cache
    /// until the run is settled, while the epoch and the load counters
    /// move per window), the same salvage when it crashes between two
    /// windows, and the same report at the end.
    #[test]
    fn window_cuts_leave_an_engine_unchanged(
        sized in arb_trace(&[30_000, 200_000]),
        gaps in arb_gaps(),
        use_slo in any::<bool>(),
        salvage_at in prop_oneof![Just(None), (1usize..40).prop_map(Some)],
    ) {
        let (kv, trace) = sized;
        let config = EngineConfig { class_slo: use_slo.then(ClassSlo::default), ..config(kv) };
        let engine = || dp_engine(config, FastPaths::MacroSteps);
        assert_window_cuts_invisible(engine(), engine(), &trace, &gaps, salvage_at, |_| None);
    }

    /// The same on a Shift `Deployment`, whose policy counters
    /// (`shift_stats`) must also match after every window: a cut run
    /// records its window's repeated choices before it returns.
    #[test]
    fn window_cuts_leave_a_shift_deployment_unchanged(
        sized in arb_trace(&[30_000]),
        gaps in arb_gaps(),
        use_slo in any::<bool>(),
    ) {
        let (_, trace) = sized;
        let deployment = || {
            let builder = Deployment::builder(NodeSpec::p5en_48xlarge(), presets::qwen_32b())
                .kind(DeploymentKind::Shift)
                .record_timeline(true);
            let builder = if use_slo { builder.class_slo(ClassSlo::default()) } else { builder };
            builder.build().expect("Qwen-32B deploys under Shift on 8 H200s")
        };
        assert_window_cuts_invisible(
            deployment(),
            deployment(),
            &trace,
            &gaps,
            None,
            Deployment::shift_stats,
        );
    }

    /// The engine equivalence on a GPU whose ridge point falls inside
    /// short-prompt, long-output decode runs: a run's mean context, and
    /// with it the attention kernel's intensity, grows along the run,
    /// so runs that start memory bound turn compute bound partway. A
    /// memory-bound stretch proof that checks the compute term at the
    /// wrong end of the stretch prices their compute-bound tail by the
    /// memory term, and fails here.
    #[test]
    fn fastforward_engine_matches_per_iteration_across_the_ridge(
        trace in arb_short_prompt_trace(),
        ridge_context in 4u64..600,
        use_slo in any::<bool>(),
    ) {
        let config = EngineConfig { class_slo: use_slo.then(ClassSlo::default), ..config(30_000) };
        let mfu = ridge_mfu_at(ridge_context);
        let run = |paths| derated_dp_engine(mfu, config, paths).run(&trace).dump();
        assert_dumps_eq(
            &run(FastPaths::MacroSteps),
            &run(FastPaths::Compiled),
            "fast-forward vs the per-iteration engine across the ridge",
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Cluster-level equivalence under autoscaler churn: spawns, warmup
    /// promotions, drains, and retires are coordination events between
    /// windows, so spawn/retire order, slot reuse and the lifecycle
    /// timeline must match the reference loop — and a drained-dry
    /// replica must retire at the same instant whether its final decode
    /// plateau was fast-forwarded or stepped one iteration at a time.
    #[test]
    fn fastforward_cluster_matches_per_iteration_with_autoscaling(
        trace in arb_dense_trace(),
        n in 1usize..4,
        hi in 150f64..1_500.0,
        lo in 20f64..120.0,
        cold_start in prop_oneof![Just(0.0f64), Just(2.5), Just(10.0)],
    ) {
        let scaling = Scaling { cold_start, hi, lo };
        let cluster = Cluster { scaling: Some(scaling), ..Cluster::dp(n, config(60_000)) };
        assert_rungs_match(&cluster, &trace);
    }
}

/// Run length 1: simultaneous arrivals whose outputs differ by exactly
/// one token make `min(decode_remaining)` hit 1 on every run after the
/// first finish — each macro-step advances a single iteration, retires
/// one sequence, and rebuilds. The degenerate run must still be
/// bit-identical to per-iteration stepping (and actually complete
/// everything).
#[test]
fn run_length_one_is_byte_identical() {
    let trace = Trace::with_ids(
        (0..6).map(|i| request(i, 0.0, 64, 3 + i as u32, RequestClass::Batch)).collect(),
    );
    let fast = dp_engine(config(100_000), FastPaths::MacroSteps).run(&trace);
    let slow = dp_engine(config(100_000), FastPaths::Compiled).run(&trace);
    assert_dumps_eq(&fast.dump(), &slow.dump(), "length-1 runs vs per-iteration stepping");
    assert_eq!(fast.records().len(), 6, "all staggered sequences must complete");
}

/// Runs `plan` over four 400-token decodes arriving at t = 0 on `n`
/// replicas through every rung and width against the reference loop.
fn assert_faulted_rungs_match(n: usize, plan: FaultPlan) {
    let trace =
        Trace::with_ids((0..4).map(|i| request(i, 0.0, 128, 400, RequestClass::Batch)).collect());
    let retry = RetryPolicy { max_retries: 2, base_backoff: Dur::from_secs(0.25) };
    let cluster = Cluster { faults: Some((plan, retry)), ..Cluster::dp(n, config(100_000)) };
    assert_rungs_match(&cluster, &trace);
}

/// A slowdown window edge landing mid-plateau: the window's start and
/// end are fault timers, so the horizon cap clamps a decode run partway
/// through, the slowdown factor changes, and the run resumes at the new
/// per-iteration duration. Both edges land strictly inside what would
/// otherwise be one long decode run.
#[test]
fn slowdown_edge_mid_run_is_byte_identical() {
    assert_faulted_rungs_match(
        1,
        FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_secs(1.0),
            fault: Fault::Slowdown { replica: 0, factor: 3.0, duration: Dur::from_secs(2.0) },
        }]),
    );
}

/// A crash timer landing inside a decode run: the run clamps at the
/// timer cap, the crash destroys the replica's in-flight work, and the
/// salvaged requests re-dispatch under retry — every salvage instant,
/// attempt count, and re-prefill must match the reference loop.
#[test]
fn crash_timer_mid_run_is_byte_identical() {
    assert_faulted_rungs_match(
        2,
        FaultPlan::new(vec![FaultEvent {
            at: SimTime::from_secs(1.5),
            fault: Fault::Crash { replica: 0 },
        }]),
    );
}

//! The serving engine: continuous batching with chunked prefill.

use crate::queue::{QueuePos, WaitQueue};
use crate::report::EngineReport;
use crate::seq::RunningSeq;
use sp_kvcache::KvCacheManager;
use sp_metrics::timeseries::{bin_edge, bin_index};
use sp_metrics::{ClassSlo, Dur, NodeLoad, RequestClass, RequestRecord, SimTime};
use sp_parallel::BatchSummary;
use sp_parallel::{
    BatchStats, BatchWork, ChunkWork, DecodeRunPricer, DecodeTermsTable, ExecPlan, ExecutionModel,
    ParallelConfig, ParallelismPolicy,
};
use sp_workload::{Request, Trace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Speculative decoding (§4.5): a free draft source (e.g. SuffixDecoding)
/// proposes `draft_len` tokens per decode step; the target model verifies
/// them in one pass and accepts a geometric prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecDecode {
    /// Draft tokens proposed per step.
    pub draft_len: u32,
    /// Probability each draft token matches the target distribution.
    pub acceptance: f64,
}

impl SpecDecode {
    /// Creates a speculative-decoding configuration.
    ///
    /// # Panics
    ///
    /// Panics if `draft_len` is zero or `acceptance` not in `[0, 1)`.
    pub fn new(draft_len: u32, acceptance: f64) -> SpecDecode {
        assert!(draft_len > 0, "draft length must be positive");
        assert!((0.0..1.0).contains(&acceptance), "acceptance must be in [0, 1), got {acceptance}");
        SpecDecode { draft_len, acceptance }
    }

    /// Expected tokens emitted per verification step:
    /// `Σ_{i=0}^{k} α^i = (1 − α^{k+1}) / (1 − α)`, always ≥ 1.
    pub fn expected_emitted(&self) -> f64 {
        (0..=self.draft_len).map(|i| self.acceptance.powi(i as i32)).sum()
    }
}

/// How the scheduler accounts for a request's KV footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionMode {
    /// Reserve the full prompt + output footprint at admission: decode can
    /// never overflow, at the cost of conservative concurrency.
    #[default]
    ReserveFull,
    /// Reserve only the prompt; decode tokens append incrementally. When
    /// the cache fills, the most recently admitted sequence is preempted
    /// and restarted (vLLM's recompute preemption). Admits more
    /// concurrency under pressure. Incompatible with speculative decoding.
    PreemptRestart,
}

/// Scheduler knobs (the vLLM analogues are noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Token budget per iteration — chunked prefill splits prompts to fit
    /// (`max_num_batched_tokens`).
    pub max_batched_tokens: u64,
    /// Maximum concurrently running sequences (`max_num_seqs`).
    pub max_seqs: usize,
    /// KV-cache capacity in tokens (derived from the memory plan).
    pub kv_capacity_tokens: u64,
    /// KV block size in tokens (`block_size`).
    pub block_tokens: u32,
    /// Bin width of the throughput time series in reports.
    pub throughput_bin: Dur,
    /// Speculative decoding, if enabled.
    pub spec_decode: Option<SpecDecode>,
    /// KV admission accounting.
    pub admission: AdmissionMode,
    /// Record a per-iteration [`crate::report::IterationEvent`] timeline
    /// in the report (costs memory on long runs; default off).
    pub record_timeline: bool,
    /// Honor each request's `cached_prefix` (vLLM automatic-prefix-caching
    /// analogue): admitted requests skip prefilling the cached tokens.
    /// The cached tokens still occupy KV space (they are reserved like any
    /// other context).
    pub prefix_caching: bool,
    /// Cap on *prefill* tokens per iteration (Sarathi-Serve-style): a cap
    /// below `max_batched_tokens` bounds the decode-latency interference
    /// a prefill burst can cause, trading some prefill throughput. `None`
    /// means prefill may fill the whole budget.
    pub max_prefill_tokens: Option<u64>,
    /// Which waiting request is admitted next.
    pub queue_policy: QueuePolicy,
    /// Per-class SLO targets. When set, admission becomes deadline-aware:
    /// the earliest salvageable TTFT deadline is admitted first (requests
    /// already past their deadline queue FCFS behind salvageable ones),
    /// batch-class prefills are deferred while a queued interactive
    /// request is at TTFT risk, and KV pressure may shed batch-class
    /// sequences still in prefill to make room for an at-risk interactive
    /// admission. Takes precedence over `queue_policy` for candidate
    /// selection.
    pub class_slo: Option<ClassSlo>,
}

/// Admission order among waiting requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Strict first-come-first-served (vLLM default).
    #[default]
    Fcfs,
    /// Interactive-class requests are admitted before batch-class ones
    /// (within a class, FCFS) — protects chatbot TTFT during batch bursts.
    InteractiveFirst,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_batched_tokens: 8192,
            max_seqs: 256,
            kv_capacity_tokens: 1_000_000,
            block_tokens: 16,
            throughput_bin: Dur::from_secs(1.0),
            spec_decode: None,
            admission: AdmissionMode::ReserveFull,
            record_timeline: false,
            prefix_caching: false,
            max_prefill_tokens: None,
            queue_policy: QueuePolicy::Fcfs,
            class_slo: None,
        }
    }
}

/// The engine's optimization ladder: which fast paths are live, ordered
/// from the executable specification up to the default. Each rung keeps
/// every layer below it and adds one; scheduling decisions and reports
/// are bit-identical on every rung — only the cost differs. Set with
/// [`Engine::set_fast_paths`]; consumed by the `simperf` bench to
/// measure each layer and by equivalence tests. Not part of the
/// supported API.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum FastPaths {
    /// The pre-optimization reference implementations, preserved as
    /// executable specifications of what the fast paths replaced: EDF
    /// admission is the linear `min_by` rescan (O(W) per candidate, two
    /// deadline evaluations per comparison), the `urgent` deferral
    /// check walks the whole queue, load snapshots fold over every
    /// queued and running request, direct `try_iteration` pricing, and
    /// one iteration per step.
    Reference,
    /// The indexed scheduler: wait-queue candidate selection from
    /// sorted deque indexes (O(1) amortized under a monotone clock) and
    /// O(1) load counters, with iteration pricing still on the direct
    /// `try_iteration` walk.
    Indexed,
    /// Plus compiled pricing: iterations evaluate the configuration's
    /// precompiled [`ExecPlan`] (bit-identical to the direct walk), and
    /// a step without speculative decoding whose decodes all fit the
    /// budget prices them as one closed-form lead instead of building a
    /// chunk per sequence.
    Compiled,
    /// Plus macro-steps: [`Engine::step_run`] advances shape-stable
    /// pure-decode runs in one window (the default).
    #[default]
    MacroSteps,
}

/// One serving engine over one attention-parallel GPU group.
///
/// Advances simulated time one iteration at a time: the scheduler builds a
/// batch (decodes first, then chunked prefill up to the token budget), the
/// deployment's policy picks the parallel configuration, and the execution
/// model prices the iteration.
///
/// # Examples
///
/// ```
/// use sp_cluster::NodeSpec;
/// use sp_engine::{Engine, EngineConfig};
/// use sp_model::presets;
/// use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};
/// use sp_workload::synthetic;
///
/// let exec = ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b());
/// let policy = StaticPolicy::new("SP", ParallelConfig::sequence(8));
/// let mut engine = Engine::new(exec, Box::new(policy), EngineConfig::default());
/// let report = engine.run(&synthetic::uniform_batch(4, 1024, 8));
/// assert_eq!(report.records().len(), 4);
/// ```
#[derive(Debug)]
pub struct Engine {
    exec: ExecutionModel,
    policy: Box<dyn ParallelismPolicy>,
    config: EngineConfig,
    kv: KvCacheManager,
    clock: SimTime,
    arrivals: VecDeque<Request>,
    /// Waiting requests in an indexed queue: candidate selection is at
    /// worst a binary search and removing the candidate O(1) amortized
    /// under every admission policy (a plain `VecDeque` rescans and
    /// shifts O(W) per admit — quadratic under backlog).
    waiting: WaitQueue,
    /// The running batch in admission order (admission numbers strictly
    /// increase along it).
    running: Vec<RunningSeq>,
    /// The decode epoch: how many uniform decode advances (one token for
    /// every decoding sequence) have run. A run iteration or a step's
    /// decode lead increments it and touches no sequence; each decoding
    /// sequence reads its progress off it (see [`RunningSeq::finish`]).
    epoch: u64,
    /// Admission numbers handed out so far.
    admissions: u64,
    /// `(finish epoch, admission number)` of every sequence in decode,
    /// as a min-heap: its length is the decode count, its top the
    /// earliest completion, and the entries at or below the epoch the
    /// sequences to retire, in running order. Kept current by every
    /// path that starts, advances unevenly or removes a decode (an
    /// uneven advance rebuilds it). Like `attended_offset`, kept and
    /// read only from [`FastPaths::Compiled`] up: lower rungs scan the
    /// batch instead, and [`Engine::set_fast_paths`] rebuilds both.
    finishes: BinaryHeap<Reverse<(u64, u64)>>,
    /// Σ [`RunningSeq::attended_offset`] over the sequences in decode,
    /// modulo 2^64: their attended positions sum to this plus the decode
    /// count times the epoch.
    attended_offset: u64,
    /// Rotating start index of the decode scan in
    /// [`Engine::build_batch`] — fairness under budget pressure.
    decode_cursor: usize,
    /// Sustained prefill throughput (tokens/s) at the full iteration
    /// budget, priced once at construction — the TTFT-estimate ingredient
    /// of [`Engine::load`] and the deadline-risk tests.
    prefill_rate: f64,
    /// Accumulates measurements across incremental [`Engine::step_once`]
    /// calls; taken (and reset) by [`Engine::take_report`]. An open
    /// decode run's totals wait in its [`RunCache`] until settled.
    report: EngineReport,
    /// Reusable `(running index, chunk)` buffer for
    /// [`Engine::build_batch`]; lives on the engine so the per-iteration
    /// batch build allocates nothing in steady state.
    scratch_assignments: Vec<(usize, ChunkWork)>,
    /// Reusable chunk buffer recycled through [`BatchWork::into_chunks`]
    /// after each iteration is priced and applied.
    scratch_chunks: Vec<ChunkWork>,
    /// Reusable buffer of the prefilling sequences' indices for the
    /// prefill passes in [`Engine::build_batch`].
    scratch_order: Vec<usize>,
    /// Which optimization layers are live (see [`FastPaths`]); the
    /// default runs them all.
    fast_paths: FastPaths,
    /// Σ `total_tokens` over `arrivals` + `waiting` — incremental load
    /// counter; see [`Engine::load`].
    queued_total_tokens: u64,
    /// Σ `input_tokens` over `arrivals` + `waiting`.
    queued_input_tokens: u64,
    /// Σ (prefill remaining + output remaining) over `running`.
    running_outstanding_tokens: u64,
    /// Σ prefill remaining over `running`.
    running_prefill_tokens: u64,
    /// One compiled pricing plan per policy configuration, built at
    /// construction: iteration pricing evaluates the plan (O(1) after the
    /// shared batch fold) instead of re-deriving layout and coefficients
    /// per call. Bit-identical to the direct walk; debug builds assert so
    /// on every evaluation.
    plans: Vec<ExecPlan>,
    /// Per plan, a run capture's batch-constant decode terms by batch
    /// size (exact; DESIGN.md decision 9), filled as sizes occur.
    decode_terms: Vec<DecodeTermsTable>,
    /// Configuration use since the engine was built, counted where the
    /// policy is asked (see [`Engine::note_plan`]). By plan index, so a
    /// step hashes no configuration.
    usage: PlanUsage,
    /// `usage` as the latest report took it (see
    /// [`Engine::take_report`]): the next report counts the difference.
    reported: PlanUsage,
    /// The plan of the latest iteration, `None` before a run's first
    /// (each [`Engine::run`] starts without one).
    last_plan: Option<usize>,
    /// Fault-injection slowdown multiplier on iteration durations
    /// (1.0 = healthy), applied to the healthy-hardware price: a product
    /// by 1.0 is exact, so a healthy price passes unchanged.
    slowdown: f64,
    /// The throughput bin the latest run iteration ended in, and its
    /// upper edge (see [`bin_edge`]) or a lower bound of it. The clock
    /// only moves forward until [`Engine::run`] restarts it, so any
    /// later iteration ending before the edge lies in the same bin:
    /// runs divide only at an edge. `(0, 0.0)` makes the next divide.
    run_bin: (usize, f64),
    /// Cross-window continuation of the decode-run linear summary (see
    /// [`RunCache`]). Horizon-parallel windows are cut at every cluster
    /// coordination point (arrival dispatches, fault timers), so a
    /// steady decode batch is re-entered many times; re-scanning the
    /// batch per window would dominate short windows. Dropped by
    /// anything that mutates the running batch outside a decode
    /// window's uniform advance: every per-iteration [`Engine::step`]
    /// (which may admit, shed, preempt, retire, or just grow contexts
    /// non-uniformly), a run whose retirement shrinks the batch, and
    /// crash salvage — each right after settling the run.
    run_cache: Option<RunCache>,
}

/// Iterations run under each of an engine's plans, and switches:
/// iterations whose plan differs from the previous iteration's.
#[derive(Debug, Clone)]
struct PlanUsage {
    iterations: Vec<u64>,
    switches: u64,
}

/// A running sequence's contribution to the outstanding-token load
/// signal: prompt tokens still to prefill plus output tokens still to
/// generate.
fn seq_outstanding(seq: &RunningSeq, epoch: u64) -> u64 {
    seq.prefill_remaining() + u64::from(seq.decode_remaining(epoch))
}

/// Releases a finished sequence's KV reservation and records its
/// completion at `clock`.
fn complete(kv: &mut KvCacheManager, report: &mut EngineReport, clock: SimTime, seq: &RunningSeq) {
    kv.release(seq.request.id);
    report.note_completion(RequestRecord {
        request_id: seq.request.id,
        class: seq.request.class,
        arrival: seq.request.arrival,
        first_token: seq.first_token.expect("finished implies first token"),
        finish: clock,
        input_tokens: seq.request.input_tokens,
        output_tokens: seq.request.output_tokens,
    });
}

/// The window stop rule `!(t < cap)`: the same one the cluster's
/// per-event window loop applies, and NaN-safe, which `t >= cap` would
/// not be.
#[inline]
fn capped(t: SimTime, cap: Option<f64>) -> bool {
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    cap.is_some_and(|c| !(t.as_secs() < c))
}

/// Closed-form pricing input for a decode run (see
/// [`Engine::linear_run_summary`]): the batch summary at run iteration
/// `k` is `s0` plus `k` times the per-iteration deltas, bit-identical
/// to the per-chunk fold of that iteration's batch.
#[derive(Debug, Clone, Copy)]
struct LinearRunSummary {
    /// The summary at run iteration 0.
    s0: BatchSummary,
    /// Attention-FLOP growth per iteration (every context +1 token).
    d_attn: f64,
    /// KV-read-byte growth per iteration.
    d_kv_read: u64,
}

/// One step's batch, as [`Engine::build_batch`] leaves it for pricing
/// and application.
#[derive(Debug)]
struct StepBatch {
    /// Plain one-token decodes priced as a closed-form lead
    /// ([`ExecutionModel::summarize_after_decodes`]) rather than as
    /// chunks: every sequence in decode and not finished. Zero when the
    /// decodes are per-sequence chunks in `work`.
    decodes: u64,
    /// The lead's attended positions, `context + 1` summed over it.
    attended: u64,
    /// The per-sequence chunks in `scratch_assignments` order: the
    /// prefills alone behind a decode lead, every chunk otherwise.
    work: BatchWork,
    /// Batch-class prefills the SLO rule deferred this step.
    deferred: u64,
}

/// A decode run carried across windows: while it is cached, every
/// running context has advanced exactly `base_k` iterations since
/// capture (windows advance all decode contexts
/// uniformly), so the batch is at iteration `base_k` of the captured
/// run — priced by `pricer` at `base_k + k` — and its earliest completion
/// is `end - base_k` iterations away. Everything is built once, at
/// capture, right after the run's one `choose`: the batch stats are
/// constant over the run and a choice depends only on them, so
/// `config` and `pricer` hold for every window that resumes it. A
/// resumed window needs no batch scan, no summary and no plan
/// evaluation — and, while `verdict` holds, no admission probe.
#[derive(Debug, Clone, Copy)]
struct RunCache {
    /// Iterations advanced since capture.
    base_k: u64,
    /// The capture's run length: iterations until its earliest
    /// completion. The closed form's exactness guard covers all of them.
    end: u64,
    /// Sequences in the batch, each emitting one token per iteration.
    seqs: usize,
    /// The configuration every iteration of the run executes under.
    config: ParallelConfig,
    /// `config`'s index in the engine's plans.
    plan: usize,
    /// `config`'s plan, partially evaluated for the run's closed-form
    /// summary line.
    pricer: DecodeRunPricer,
    /// Whether `pricer` proved iterations `base_k..end` a memory-bound
    /// stretch (see [`DecodeRunPricer::memory_bound`]). A stretch holds
    /// from any later first iteration too, so a window that finds the
    /// proof skips it; a window without it tries again from its own
    /// first iteration.
    memory_bound: bool,
    /// The latest admission probe's blocked verdict: `Some(bound)` as
    /// [`Engine::admission_blocked`] returned it, which a resumed window
    /// reuses while no arrival is due and the clock has not passed
    /// `bound`, exactly as an in-run boundary does. `None` makes the
    /// next window probe first: a probe found admission possible, or
    /// something outside the run's windows may have changed the queue
    /// or the KV cache (see `Engine::settle_run`).
    verdict: Option<Option<SimTime>>,
    /// Report totals of the run's windows not yet written to the
    /// report (see `Engine::settle_run`).
    tally: RunTally,
}

/// What a decode run's windows leave for its settle: report totals,
/// all under the run's one configuration and batch size. Each total is
/// an integer count, an integer token sum or a maximum, so writing them
/// once when the run is settled equals writing them per iteration bit
/// for bit.
#[derive(Debug, Clone, Copy, Default)]
struct RunTally {
    /// Iterations run.
    iterations: u64,
    /// End of the latest iteration (the makespan candidate).
    end: SimTime,
    /// Longest iteration.
    max_iteration: Dur,
    /// KV utilization, sampled at the first window. While a run is
    /// cached no reservation changes (anything that reserves or
    /// releases settles first), so the sample holds for every window.
    kv_util: f64,
    /// Iterations in the open segment (in bin `Engine::run_bin`), each
    /// of the batch's token count.
    seg_count: u64,
    /// End of the open segment's latest iteration.
    seg_t: SimTime,
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler limits are zero.
    pub fn new(
        exec: ExecutionModel,
        policy: Box<dyn ParallelismPolicy>,
        config: EngineConfig,
    ) -> Engine {
        assert!(config.max_batched_tokens > 0, "token budget must be positive");
        assert!(config.max_seqs > 0, "sequence limit must be positive");
        assert!(
            !(config.admission == AdmissionMode::PreemptRestart && config.spec_decode.is_some()),
            "recompute preemption does not compose with speculative decoding"
        );
        let kv = KvCacheManager::new(config.kv_capacity_tokens, config.block_tokens);
        // Compile one pricing plan per registered configuration up front:
        // every layout validation and coefficient derivation happens here,
        // once, instead of on every iteration.
        let plans = exec.compile_configs(&policy.configurations()).unwrap_or_else(|e| {
            panic!("cannot run {} on {}: {e}", policy.name(), exec.model().name)
        });
        // Price one budget-sized prefill chunk under every registered
        // configuration (one shared fold, one plan evaluation each) and
        // keep the fastest, whichever the policy would choose: this
        // reference pricing is not an iteration.
        let prefill_rate = {
            let tokens = config
                .max_prefill_tokens
                .unwrap_or(config.max_batched_tokens)
                .min(config.max_batched_tokens)
                .max(1);
            let work = BatchWork::new(vec![ChunkWork::prefill(tokens, 0, false)]);
            let best = exec
                .price_all(&plans, &work)
                .iter()
                .map(|it| it.total().as_secs())
                .fold(f64::INFINITY, f64::min);
            if best.is_finite() && best > 0.0 {
                tokens as f64 / best
            } else {
                0.0
            }
        };
        let usage = PlanUsage { iterations: vec![0; plans.len()], switches: 0 };
        Engine {
            exec,
            policy,
            config,
            kv,
            clock: SimTime::ZERO,
            arrivals: VecDeque::new(),
            waiting: WaitQueue::new(config.class_slo),
            running: Vec::new(),
            epoch: 0,
            admissions: 0,
            finishes: BinaryHeap::new(),
            attended_offset: 0,
            decode_cursor: 0,
            prefill_rate,
            report: Engine::fresh_report(&config),
            scratch_assignments: Vec::new(),
            scratch_chunks: Vec::new(),
            scratch_order: Vec::new(),
            fast_paths: FastPaths::default(),
            queued_total_tokens: 0,
            queued_input_tokens: 0,
            running_outstanding_tokens: 0,
            running_prefill_tokens: 0,
            reported: usage.clone(),
            usage,
            last_plan: None,
            decode_terms: vec![DecodeTermsTable::default(); plans.len()],
            plans,
            slowdown: 1.0,
            run_bin: (0, 0.0),
            run_cache: None,
        }
    }

    /// Sets the fault-injection slowdown multiplier: every subsequent
    /// iteration takes `factor`× its healthy duration until reset to 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "slowdown factor must be finite and positive");
        self.slowdown = factor;
    }

    /// The index of `config`'s compiled plan in `plans`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is not among the policy's `configurations()`:
    /// a policy may only return a registered configuration (the
    /// [`ParallelismPolicy`] contract).
    fn plan_index(&self, config: &ParallelConfig) -> usize {
        self.plans.iter().position(|p| p.config() == *config).unwrap_or_else(|| {
            panic!(
                "policy {} chose {config}, which is not among its configurations()",
                self.policy.name()
            )
        })
    }

    /// Prices a step's batch under plan `plan` on healthy hardware
    /// ([`Engine::step_run`] prices its runs from [`RunCache`]). Rungs
    /// at [`FastPaths::Compiled`] and above evaluate the compiled
    /// [`ExecPlan`] from one shared batch summary, with a decode lead
    /// priced in closed form and the prefill chunks folded on top —
    /// bit-identical to the direct walk (debug builds assert so on every
    /// call). When the closed form's exactness guard declines, the
    /// decodes are materialized as chunks and the whole batch is
    /// summarized chunk by chunk. Lower rungs price through
    /// `try_iteration` directly, the executable specification.
    fn price_step(&self, plan: usize, batch: &StepBatch) -> Dur {
        let _price_span = sp_core::profile::start(sp_core::profile::Phase::Pricing);
        let plan = &self.plans[plan];
        if self.fast_paths < FastPaths::Compiled {
            return self.exec.iteration(&plan.config(), &batch.work).total();
        }
        if batch.decodes == 0 {
            return self.exec.price_planned(plan, &batch.work).total();
        }
        // The batch the lead stands for, as the per-sequence build
        // makes it: the decodes in cursor order, then the prefills.
        let full = || {
            let mut chunks = self.cursor_decodes(0, 0);
            debug_assert_eq!(chunks.len() as u64, batch.decodes, "the lead counts every decode");
            chunks.extend_from_slice(batch.work.chunks());
            BatchWork::new(chunks)
        };
        let lead =
            self.exec.summarize_after_decodes(batch.decodes, batch.attended, batch.work.chunks());
        let Some(summary) = lead else {
            return self.exec.price_planned(plan, &full()).total();
        };
        let priced = plan.price(&summary);
        debug_assert_eq!(
            priced,
            self.exec.iteration(&plan.config(), &full()),
            "closed-form decode lead diverged from try_iteration under {}",
            plan.config()
        );
        priced.total()
    }

    /// A decode chunk for every running sequence in decode and not
    /// finished, at `grown` tokens past its context, in the order the
    /// per-sequence build visits them `k` steps from now: from the
    /// cursor's position `k` past the current one.
    fn cursor_decodes(&self, k: usize, grown: u64) -> Vec<ChunkWork> {
        let n = self.running.len();
        let epoch = self.epoch;
        (0..n)
            .map(|j| &self.running[(self.decode_cursor + j + k) % n])
            .filter(|seq| seq.in_decode() && !seq.finished(epoch))
            .map(|seq| ChunkWork::decode(seq.context_len(epoch) + grown))
            .collect()
    }

    /// Selects the rung of the optimization ladder the engine runs on
    /// (see [`FastPaths`]). Scheduling and reports are bit-identical on
    /// every rung — only the cost differs. Drops the run cache and
    /// rebuilds the decode aggregates, which only the rungs from
    /// [`FastPaths::Compiled`] up keep, so the new rung starts from a
    /// clean slate. Not part of the supported API.
    #[doc(hidden)]
    pub fn set_fast_paths(&mut self, paths: FastPaths) {
        self.settle_run();
        self.fast_paths = paths;
        self.rebuild_decodes();
        self.run_cache = None;
    }

    /// Attempts a shape-stable fast-forward: when the batch composition
    /// is provably invariant — every running sequence mid-decode, no
    /// spec-decode or preemption machinery armed, and admission
    /// impossible — advances up to the *run length* (the iteration
    /// count until the earliest completion, the caller cap, or an
    /// admission probe that fails) in one tight loop that skips batch
    /// rebuilding and queue scans, accumulating time and metrics in the
    /// exact same float-op order as the per-iteration path. Every
    /// observable effect — clock advances, report accumulation,
    /// retirement — happens at the same iteration and in the same order
    /// as that many per-iteration steps would produce; see DESIGN.md
    /// decision 13 for the equivalence argument. The batch stats are
    /// constant across the run, so the policy is asked once per run, at
    /// its capture (a run resumed from its `RunCache` not at all), where
    /// the engine also counts the switch into the run's plan; each
    /// window adds its iterations to that plan's count (decision 15).
    /// Every iteration is priced one way: from the run's closed-form
    /// `RunCache`, which also holds the run's report totals until they
    /// are settled (see `Engine::settle_run`).
    ///
    /// Admission is probed where a step would find it changed: at each
    /// iteration boundary where an arrival is due or the clock has
    /// passed the last probe's lapse instant, and at run start — except
    /// where a run resumed from its `RunCache` still holds the verdict
    /// its last window ended with, by that same rule. The probe does
    /// what that step would do first — ingests the due arrivals and
    /// checks the first step of the admission scan — and, when admission
    /// is still impossible, keeps going (decision 14).
    ///
    /// A pure-decode iteration costs one division and one compare: in a
    /// proven memory-bound stretch the attention kernel is priced by its
    /// memory term alone, and the stop rules and the throughput bin are
    /// only visited where the clock reaches a boundary (decision 13).
    ///
    /// `cap` is the caller's window bound: the run stops before any
    /// iteration whose event instant is not strictly below it, exactly
    /// as the per-event window loop would. Returns `None` whenever the
    /// shape-stability gates fail (any prefill in flight among them),
    /// the closed form's exactness guard declines the run, the first
    /// iteration is already outside the cap, or the probe at run start
    /// finds that a step would admit, reject or shed. Callers then run
    /// [`Engine::step_once`] at the same instant. A `None` changes
    /// nothing except, possibly, the probe's ingest: the first effect of
    /// that very `step_once`.
    pub fn step_run(&mut self, cap: Option<f64>) -> Option<crate::routing::RunAdvance> {
        // Cheap gates first; the admission probe only runs once they pass.
        if self.fast_paths < FastPaths::MacroSteps
            || self.config.spec_decode.is_some()
            || self.config.admission == AdmissionMode::PreemptRestart
            || self.running.is_empty()
            || self.running_prefill_tokens != 0
        {
            return None;
        }
        let n = self.running.len();
        if n as u64 > self.config.max_batched_tokens {
            return None; // budget-starved decode rotates batch membership per step
        }
        if capped(self.clock, cap) {
            // The cap closed the window before the first iteration (the
            // per-event loop would not have stepped either).
            return None;
        }
        // Admission must be impossible before the first iteration. A
        // resumed run keeps its latest probe's verdict where an in-run
        // boundary would (no arrival due, the clock not past the lapse
        // instant); anywhere else the probe runs, as it does at capture.
        // The verdict is taken out, so any early return leaves the next
        // window to probe.
        let proof = self.run_cache.as_mut().and_then(|cache| cache.verdict.take());
        let admit_bound = match proof {
            Some(bound)
                if self.next_arrival_secs() > self.clock.as_secs()
                    && !bound.is_some_and(|b| self.clock > b) =>
            {
                #[cfg(debug_assertions)]
                self.check_verdict(bound);
                bound
            }
            _ => {
                let _detect_span = sp_core::profile::start(sp_core::profile::Phase::WindowDetect);
                self.probe_admission()?
            }
        };

        // A pure-decode batch's stats are constant across the run.
        let stats = BatchStats { total_new_tokens: n as u64, num_seqs: n };
        // No prefill is in flight and finished sequences retire at once,
        // so every running sequence is a mid-stream decode: the decode
        // aggregates describe the whole batch. A cached run proves more:
        // the batch composition is exactly the capture's (any admission,
        // retire, shed, preemption, or prefill drops the cache), so its
        // pricer still holds and the earliest completion sits `base_k`
        // iterations closer than at capture. Re-entering the same steady
        // batch across many horizon windows is O(1) per window either way.
        debug_assert_eq!(self.finishes.len(), n, "a prefill-free batch is all decodes");
        let mut run = match self.run_cache {
            Some(cache) => {
                debug_assert_eq!(
                    self.next_finish() - self.epoch,
                    cache.end - cache.base_k,
                    "cached completion bound diverged from the finish heap"
                );
                cache
            }
            None => {
                let (_, attended) = self.decode_aggregates();
                let limit = (self.next_finish() - self.epoch) as u32;
                // A run past the closed form's exactness guard goes
                // through `step_once` — declined before the plan is
                // counted: every captured run runs at least one
                // iteration.
                let lin = self.linear_run_summary(n, attended, limit)?;
                let config = self.policy.choose(&stats);
                let plan = self.plan_index(&config);
                self.note_plan(plan);
                let terms = self.decode_terms[plan].terms(&self.plans[plan], &lin.s0);
                let pricer = self.plans[plan].decode_run_pricer_from(
                    terms,
                    &lin.s0,
                    lin.d_attn,
                    lin.d_kv_read,
                );
                let cache = RunCache {
                    base_k: 0,
                    end: u64::from(limit),
                    seqs: n,
                    config,
                    plan,
                    pricer,
                    memory_bound: false,
                    verdict: None,
                    tally: RunTally::default(),
                };
                self.run_cache = Some(cache);
                cache
            }
        };
        assert!(run.base_k < run.end, "a consumed run cache implies a retirement drop");
        if run.tally.iterations == 0 {
            run.tally.kv_util = self.kv.utilization();
        }
        debug_assert_eq!(run.tally.kv_util, self.kv.utilization(), "KV changed inside a run");
        // One proof covers the rest of the run: if the kernel is memory
        // bound at both ends of it, every iteration is priced by its
        // memory term alone.
        run.memory_bound = run.memory_bound || run.pricer.memory_bound(run.base_k, run.end - 1);
        let price_span = sp_core::profile::start(sp_core::profile::Phase::Pricing);
        let advance = if run.memory_bound {
            self.run_span(&run, cap, admit_bound, DecodeRunPricer::price_memory_bound)
        } else {
            self.run_span(&run, cap, admit_bound, DecodeRunPricer::price)
        };
        drop(price_span);
        let done = advance.events;

        // Apply the run to the O(1) scheduler state: every sequence
        // emitted one token per iteration, which the epoch counts.
        self.epoch += done;
        self.running_outstanding_tokens -= n as u64 * done;
        self.decode_cursor = self.decode_cursor.wrapping_add(done as usize);

        // Retire finished sequences exactly as the per-iteration step
        // does (completions can only land on the run's final iteration,
        // after all of its token attribution — same order as the slow
        // path), settling the run first: retirement ends the run. A
        // window cut before the earliest-completion bound cannot have
        // finished anything, so it touches no sequence at all.
        if done == run.end - run.base_k {
            self.settle_run();
            self.retire_finished();
        } else {
            debug_assert!(self.next_finish() > self.epoch, "a cut run finished a sequence");
        }
        // Retirement changes the batch: the cached summary is stale.
        if self.running.len() != n {
            self.run_cache = None;
        }
        Some(advance)
    }

    /// Advances `run` through one window, each iteration priced by
    /// `price` (one loop in source, compiled once per pricer), and
    /// writes the clock, the plan's count and the run's progress back.
    ///
    /// An iteration prices, advances the clock and compares it once,
    /// against `boundary`: the least clock at which a stop rule fires.
    /// The cap (`!(t < cap)`), a due arrival (`next <= t`), the lapse
    /// (`t > lapse`) and the bin edge (`t >= edge`) are each monotone in
    /// the clock, so each fires from a threshold on (decision 13). At
    /// the boundary a cold branch applies them as written and counts
    /// the open segment's iterations since `seg_from`.
    fn run_span(
        &mut self,
        run: &RunCache,
        cap: Option<f64>,
        mut admit_bound: Option<SimTime>,
        price: impl Fn(&DecodeRunPricer, u64) -> Dur,
    ) -> crate::routing::RunAdvance {
        let limit = run.end - run.base_k;
        let n = run.seqs;
        let mut tally = run.tally;
        let bin_w = self.config.throughput_bin.as_secs();
        let timeline = self.report.timeline_enabled();
        let slowdown = self.slowdown;
        // The boundary's fixed part: the cap, or −∞ (every iteration is
        // a boundary) with the timeline on. A NaN cap never gets here:
        // `step_run` stops before the first iteration under it.
        let fixed = if timeline { f64::NEG_INFINITY } else { cap.unwrap_or(f64::INFINITY) };
        let boundary_at =
            |arrival: f64, lapse: f64, edge: f64| fixed.min(arrival).min(lapse.next_up()).min(edge);
        // The loop's state lives in locals, so an iteration calls
        // nothing out of line; the clock is written back before any
        // probe (which reads it) and after the loop.
        let mut clock = self.clock;
        let mut next_arrival = self.next_arrival_secs();
        let mut lapse = admit_bound.map_or(f64::INFINITY, SimTime::as_secs);
        let (mut seg_bin, mut seg_edge) = self.run_bin;
        let mut boundary = boundary_at(next_arrival, lapse, seg_edge);
        let mut admissible = false;
        let mut last_t = clock;
        let mut duration = Dur::ZERO;
        let mut seg_from = 0;
        let mut done = 0;
        while done < limit {
            let base = price(&run.pricer, run.base_k + done);
            #[cfg(debug_assertions)]
            self.check_linear_price(&run.config, done, base);
            debug_assert!(base * slowdown >= duration, "a run iteration got cheaper");
            duration = base * slowdown;
            last_t = clock;
            clock += duration;
            done += 1;
            let t = clock.as_secs();
            if t < boundary {
                debug_assert!(
                    !capped(clock, cap) && next_arrival > t && t <= lapse && t < seg_edge,
                    "a stop rule fired before the boundary"
                );
                debug_assert_eq!(bin_index(t, bin_w), seg_bin, "an iteration left its bin");
            } else {
                // Throughput segment: iterations sharing a bin flush
                // closed-form; the open segment stays in the tally. The
                // clock only moves forward, so the bin can change only
                // once it reaches the open bin's edge: only then does it
                // divide.
                if t >= seg_edge {
                    let k = done - 1;
                    if k > seg_from {
                        tally.seg_count += k - seg_from;
                        tally.seg_t = last_t;
                    }
                    seg_from = k;
                    let idx = bin_index(t, bin_w);
                    if idx != seg_bin {
                        if tally.seg_count > 0 {
                            self.report.observe_tokens_run(tally.seg_t, n as f64, tally.seg_count);
                        }
                        seg_bin = idx;
                        tally.seg_count = 0;
                    }
                    seg_edge = bin_edge(idx, bin_w).unwrap_or(f64::INFINITY);
                }
                debug_assert_eq!(bin_index(t, bin_w), seg_bin, "an iteration left its bin");
                if timeline {
                    self.report.note_event(crate::report::IterationEvent {
                        end: clock,
                        duration,
                        config: run.config,
                        tokens: n as u64,
                        num_seqs: n,
                        kv_utilization: tally.kv_util,
                    });
                }
                // The next iteration's stop rules.
                if done < limit {
                    if capped(clock, cap) {
                        break;
                    }
                    if next_arrival <= t || t > lapse {
                        self.clock = clock;
                        let Some(bound) = self.probe_admission() else {
                            admissible = true;
                            break; // this step admits, rejects or sheds
                        };
                        admit_bound = bound;
                        lapse = bound.map_or(f64::INFINITY, SimTime::as_secs);
                        next_arrival = self.next_arrival_secs();
                    }
                }
                boundary = boundary_at(next_arrival, lapse, seg_edge);
            }
            #[cfg(debug_assertions)]
            if done < limit {
                self.clock = clock;
                self.check_verdict(admit_bound);
            }
        }
        self.clock = clock;
        self.run_bin = (seg_bin, seg_edge);
        debug_assert!(done >= 1, "iteration 0 passed the stop rules in `step_run`");
        self.usage.iterations[run.plan] += done;
        tally.seg_count += done - seg_from;
        tally.seg_t = clock;
        // The slowdown is fixed within a window and the price never
        // falls, so the window's longest iteration is its last; a
        // slowdown may end between windows.
        tally.max_iteration = tally.max_iteration.max(duration);
        tally.iterations += done;
        tally.end = clock;
        // A run stopped by a probe that found admission possible leaves
        // no proof behind: the next window probes again.
        let verdict = (!admissible).then_some(admit_bound);
        self.run_cache = Some(RunCache { base_k: run.base_k + done, verdict, tally, ..*run });
        crate::routing::RunAdvance { events: done, last: last_t }
    }

    /// Writes the run's accumulated report totals (see [`RunTally`])
    /// into the report, once per run rather than once per window. The
    /// totals are integer counts, integer token sums or maxima, so one
    /// late write equals the per-iteration writes bit for bit — provided
    /// nothing else writes the same throughput bin in between, which is
    /// why every path that writes the report outside a run, or ends a
    /// run, settles first: the start of [`Engine::step`], a run's final
    /// iteration before retirement, and [`Engine::take_report`],
    /// [`Engine::take_unfinished`], [`Engine::set_fast_paths`] and
    /// [`Engine::run`]. A new capture needs no settle: the cache is only
    /// dropped on those paths, right after they settle it. Settling
    /// touches no sequence: the windows already advanced the epoch.
    ///
    /// Settling also drops the run's admission verdict: the paths that
    /// settle may change the queue or the KV cache (a step admits,
    /// [`Engine::take_report`] releases shared prefixes), so the next
    /// window probes first.
    fn settle_run(&mut self) {
        let Some(cache) = &mut self.run_cache else { return };
        cache.verdict = None;
        let tally = std::mem::take(&mut cache.tally);
        if tally.iterations == 0 {
            return;
        }
        let tokens = cache.seqs as f64;
        if tally.seg_count > 0 {
            self.report.observe_tokens_run(tally.seg_t, tokens, tally.seg_count);
        }
        self.report.note_kv_utilization(tally.kv_util);
        self.report.note_run(tally.iterations, tally.end, tally.max_iteration);
    }

    /// The admission probe [`Engine::step_run`] runs where a step would
    /// admit: ingests the due arrivals, as that step's
    /// [`Engine::ingest_arrivals`] would first, then checks its
    /// [`Engine::admit`]'s first step with [`Engine::admission_blocked`].
    fn probe_admission(&mut self) -> Option<Option<SimTime>> {
        self.ingest_arrivals();
        let candidate = self.next_admission_candidate();
        self.admission_blocked(candidate)
    }

    /// The instant of the next queued arrival in seconds, infinite when
    /// none is queued.
    fn next_arrival_secs(&self) -> f64 {
        self.arrivals.front().map_or(f64::INFINITY, |front| front.arrival.as_secs())
    }

    /// Checks a blocked verdict that a run keeps without probing against
    /// [`Engine::admission_blocked`] at the current clock.
    #[cfg(debug_assertions)]
    fn check_verdict(&mut self, bound: Option<SimTime>) {
        let candidate = self.next_admission_candidate();
        assert_eq!(
            self.admission_blocked(candidate),
            Some(bound),
            "admission unblocked before its probe's lapse instant"
        );
    }

    /// [`Engine::admit`]'s first step at the current clock, without its
    /// effects: the candidate (`candidate`, from
    /// [`Engine::next_admission_candidate`]), the reject check, the
    /// reservation (a group join for a shared prefix) and the shed
    /// check. `None` when the step would admit, reject or shed.
    ///
    /// Otherwise admission is impossible, and `Some(bound)` says how
    /// long that lasts while the queue and the batch stay unchanged: a
    /// candidate chosen as the earliest salvageable EDF deadline stays
    /// the candidate until the clock passes that very deadline, so
    /// `bound` is the deadline. An expired EDF candidate (every deadline
    /// blown) and the deadline-free policies' candidates hold until the
    /// queue changes: `bound` is `None`.
    fn admission_blocked(&self, candidate: Option<QueuePos>) -> Option<Option<SimTime>> {
        if self.running.len() >= self.config.max_seqs || self.waiting.is_empty() {
            return Some(None);
        }
        let head = self.waiting.get(candidate?);
        if self.must_reject(head) || self.can_reserve_kv(head) || self.shed_could_admit(head) {
            return None;
        }
        Some(self.config.class_slo.and_then(|slo| {
            let deadline = slo.ttft_deadline(head.arrival, head.class);
            (deadline >= self.clock).then_some(deadline)
        }))
    }

    /// The closed-form summary of a `run_limit`-iteration decode run
    /// over `n` sequences whose attended positions sum to `attended` at
    /// iteration 0. Each iteration grows every context by one token, so
    /// iteration `k` attends `attended + k·n` positions and
    /// [`ModelConfig::decode_batch_cost`] prices it exactly. Its guard
    /// only tightens as the sum grows, so passing it one iteration past
    /// the run's end proves every iteration and both deltas exact
    /// integers below 2^53: `s0 + k·delta` then equals the per-chunk fold
    /// of iteration `k`'s batch bit for bit, in any chunk rotation.
    /// `None` when the guard declines; [`Engine::step_run`] then leaves
    /// the run to [`Engine::step_once`].
    ///
    /// [`ModelConfig::decode_batch_cost`]: sp_model::ModelConfig::decode_batch_cost
    fn linear_run_summary(
        &self,
        n: usize,
        attended: u64,
        run_limit: u32,
    ) -> Option<LinearRunSummary> {
        let decode = self.exec.decode_batch();
        let seqs = n as u64;
        let end = attended.checked_add(seqs.checked_mul(u64::from(run_limit))?)?;
        decode.cost(seqs, end)?;
        let c0 = decode.cost(seqs, attended)?;
        let c1 = decode.cost(seqs, attended + seqs)?;
        Some(LinearRunSummary {
            s0: BatchSummary { cost: c0, total_new_tokens: seqs, num_seqs: n },
            d_attn: c1.attn_flops - c0.attn_flops,
            d_kv_read: c1.kv_read_bytes - c0.kv_read_bytes,
        })
    }

    /// Checks a closed-form run price against the per-chunk reference
    /// walk of window iteration `k`'s materialized batch — never
    /// against the closed form `summarize` would also use. The window
    /// advances the epoch when it ends, so at iteration `k` every
    /// context has grown `k` tokens past what the epoch says.
    #[cfg(debug_assertions)]
    fn check_linear_price(&self, config: &ParallelConfig, k: u64, dur: Dur) {
        let work = BatchWork::new(self.cursor_decodes(k as usize, k));
        assert_eq!(work.num_seqs(), self.running.len(), "a run's batch is all decodes");
        assert_eq!(
            dur,
            self.exec.iteration(config, &work).total(),
            "closed-form run pricing diverged from try_iteration"
        );
    }

    /// The current simulated time.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Current KV-cache block utilization (0..=1) — observable mid-run
    /// through the incremental stepping API.
    pub fn kv_utilization(&self) -> f64 {
        self.kv.utilization()
    }

    /// Outstanding work in tokens (queued + admitted but unfinished) — the
    /// router's load signal. O(1): read off counters maintained at every
    /// queue transition (routers poll every replica per dispatch, so a
    /// fold over live state here made dispatch O(R × state)).
    pub fn outstanding_tokens(&self) -> u64 {
        if self.fast_paths == FastPaths::Reference {
            return self.outstanding_tokens_fold();
        }
        let fast = self.queued_total_tokens + self.running_outstanding_tokens;
        debug_assert_eq!(fast, self.outstanding_tokens_fold(), "load counters drifted");
        fast
    }

    /// The pre-counter outstanding-tokens fold over every queued and
    /// running request — the reference implementation
    /// [`Engine::outstanding_tokens`] is checked against in debug builds.
    fn outstanding_tokens_fold(&self) -> u64 {
        let queued: u64 =
            self.arrivals.iter().chain(self.waiting.iter()).map(Request::total_tokens).sum();
        let admitted: u64 = self.running.iter().map(|seq| seq_outstanding(seq, self.epoch)).sum();
        queued + admitted
    }

    /// Live load snapshot for deadline-aware routing: outstanding tokens
    /// (the classic JSQ signal) plus the ingredients of a TTFT estimate —
    /// queued prefill work, KV headroom, and this engine's prefill rate.
    /// O(1), like [`Engine::outstanding_tokens`].
    pub fn load(&self) -> NodeLoad {
        if self.fast_paths == FastPaths::Reference {
            return self.load_fold();
        }
        let load = NodeLoad {
            outstanding_tokens: self.queued_total_tokens + self.running_outstanding_tokens,
            queued_prefill_tokens: self.queued_input_tokens + self.running_prefill_tokens,
            kv_free_tokens: self.kv.free_tokens(),
            prefill_tokens_per_sec: self.prefill_rate,
        };
        debug_assert_eq!(load, self.load_fold(), "load counters drifted");
        load
    }

    /// The pre-counter load fold — reference implementation for
    /// [`Engine::load`].
    fn load_fold(&self) -> NodeLoad {
        let queued_prefill: u64 = self
            .arrivals
            .iter()
            .chain(self.waiting.iter())
            .map(|r| u64::from(r.input_tokens))
            .chain(self.running.iter().map(RunningSeq::prefill_remaining))
            .sum();
        NodeLoad {
            outstanding_tokens: self.outstanding_tokens_fold(),
            queued_prefill_tokens: queued_prefill,
            kv_free_tokens: self.kv.free_tokens(),
            prefill_tokens_per_sec: self.prefill_rate,
        }
    }

    /// Runs a whole trace to completion from simulated time zero and
    /// reports. The trace enters through [`Engine::push_request`], like
    /// any online arrival; an empty trace only rewinds the clock and
    /// resets the report.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails to make progress (internal bug
    /// guard).
    pub fn run(&mut self, trace: &Trace) -> EngineReport {
        self.settle_run();
        self.report = Engine::fresh_report(&self.config);
        self.reported = self.usage.clone();
        // A run from time zero has no previous iteration to switch from.
        self.last_plan = None;
        self.clock = SimTime::ZERO;
        self.run_bin = (0, 0.0);
        for &req in trace.requests() {
            self.push_request(req);
        }

        let mut guard: u64 = 0;
        let max_iterations = 200_000_000;
        while !self.is_idle() {
            guard += 1;
            assert!(guard < max_iterations, "simulation failed to terminate");
            // Fast-forward steady-state decode runs; fall back to the
            // per-iteration step everywhere else.
            if self.step_run(None).is_none() {
                self.step_once();
            }
        }
        self.take_report()
    }

    fn fresh_report(config: &EngineConfig) -> EngineReport {
        let mut report = EngineReport::new(config.throughput_bin);
        if config.record_timeline {
            report.enable_timeline();
        }
        report
    }

    /// True when no request is queued, admitted, or yet to arrive. An idle
    /// engine stays idle until [`Engine::push_request`] feeds it.
    pub fn is_idle(&self) -> bool {
        self.arrivals.is_empty() && self.waiting.is_empty() && self.running.is_empty()
    }

    /// Enqueues one request for online serving (the event-driven cluster
    /// router's entry point). Requests must be pushed in nondecreasing
    /// arrival order — the router dispatches them in global simulated-time
    /// order, so this holds by construction there.
    ///
    /// # Panics
    ///
    /// Panics if `req.arrival` precedes a previously pushed arrival.
    pub fn push_request(&mut self, req: Request) {
        if let Some(back) = self.arrivals.back() {
            assert!(
                back.arrival.as_secs() <= req.arrival.as_secs(),
                "requests must be pushed in arrival order"
            );
        }
        self.queued_total_tokens += req.total_tokens();
        self.queued_input_tokens += u64::from(req.input_tokens);
        self.arrivals.push_back(req);
    }

    /// The instant of this engine's next event, or `None` when idle: the
    /// current clock while work is queued or running (the next iteration
    /// completes "now" in event-queue terms), otherwise the next arrival.
    pub fn next_event_time(&self) -> Option<SimTime> {
        if !self.running.is_empty() || !self.waiting.is_empty() {
            return Some(self.clock);
        }
        self.arrivals.front().map(|r| self.clock.max(r.arrival))
    }

    /// Advances the simulation by one scheduling step, accumulating into
    /// the engine-owned report (see [`Engine::take_report`]). No-op when
    /// idle.
    pub fn step_once(&mut self) {
        if self.is_idle() {
            return;
        }
        self.step();
    }

    /// Finalizes an incremental run: returns (and resets) the accumulated
    /// report, with the iterations counted per configuration and the
    /// switches since the last report written into it.
    pub fn take_report(&mut self) -> EngineReport {
        self.settle_run();
        let (now, seen) = (&self.usage, &self.reported);
        for (i, plan) in self.plans.iter().enumerate() {
            let count = now.iterations[i] - seen.iterations[i];
            if count > 0 {
                self.report.note_config_usage(plan.config(), count);
            }
        }
        self.report.note_switches(now.switches - seen.switches);
        self.reported = self.usage.clone();
        std::mem::replace(&mut self.report, Engine::fresh_report(&self.config))
    }

    /// Iterations run under `config` since the engine was built, the
    /// open run's included.
    pub fn iterations_under(&self, config: ParallelConfig) -> u64 {
        let plans = self.plans.iter().zip(&self.usage.iterations);
        plans.filter(|(plan, _)| plan.config() == config).map(|(_, &n)| n).sum()
    }

    /// Switches since the engine was built: iterations whose
    /// configuration differs from the previous iteration's in the same
    /// run (a run's first iteration never switches).
    pub fn switches(&self) -> u64 {
        self.usage.switches
    }

    /// Makes `plan` the latest iteration's, counting a switch when it
    /// differs from the one before. Called where the policy is asked:
    /// before each step's iteration, and at a run's capture, whose
    /// iterations all run under one plan.
    fn note_plan(&mut self, plan: usize) {
        if self.last_plan.is_some_and(|last| last != plan) {
            self.usage.switches += 1;
        }
        self.last_plan = Some(plan);
    }

    /// Rips every unfinished request out of the engine, as a crash would:
    /// queued arrivals, waiting requests, and running sequences all come
    /// back (their KV reservations released, and with them the
    /// shared-prefix groups they were the last members of), with the
    /// prompt tokens already prefilled counted as wasted — a re-dispatched
    /// request pays full re-prefill because its KV cache died with the
    /// replica. Completed work already in the report is untouched.
    pub fn take_unfinished(&mut self) -> crate::fault::SalvagedWork {
        self.settle_run();
        self.run_cache = None;
        let mut salvaged = crate::fault::SalvagedWork::default();
        salvaged.requests.extend(std::mem::take(&mut self.arrivals));
        salvaged.requests.extend(self.waiting.drain());
        for seq in self.running.drain(..) {
            salvaged.wasted_prefill_tokens += seq.prefill_done;
            self.kv.release(seq.request.id);
            salvaged.requests.push(seq.request);
        }
        self.queued_total_tokens = 0;
        self.queued_input_tokens = 0;
        self.running_outstanding_tokens = 0;
        self.running_prefill_tokens = 0;
        self.finishes.clear();
        self.attended_offset = 0;
        salvaged
    }

    /// Executes one scheduling step: admit, batch, price, apply.
    fn step(&mut self) {
        // The step writes the report directly: the open run's totals go
        // first, so every throughput bin sees its adds in event order.
        self.settle_run();
        // A per-iteration step can mutate the batch arbitrarily (admit,
        // shed, preempt, retire, non-uniform context growth): any
        // cached run summary is stale.
        self.run_cache = None;
        self.ingest_arrivals();
        self.admit();
        if self.config.admission == AdmissionMode::PreemptRestart {
            self.reserve_decode_appends();
        }
        self.report.note_kv_utilization(self.kv.utilization());

        let Some(batch) = self.build_batch() else {
            // Nothing runnable now: jump to the next arrival.
            if let Some(next) = self.arrivals.front() {
                self.clock = self.clock.max(next.arrival);
                return;
            }
            // No arrivals left; waiting must be drainable next admit pass.
            assert!(
                self.running.is_empty() && self.waiting.is_empty(),
                "scheduler stalled with queued work"
            );
            return;
        };
        self.report.note_deferrals(batch.deferred);
        let stats = BatchStats {
            total_new_tokens: batch.decodes + batch.work.total_new_tokens(),
            num_seqs: batch.decodes as usize + batch.work.num_seqs(),
        };
        let config = self.policy.choose(&stats);
        let plan = self.plan_index(&config);
        self.note_plan(plan);
        self.usage.iterations[plan] += 1;
        let duration = self.price_step(plan, &batch) * self.slowdown;
        self.clock += duration;
        self.decode_cursor = self.decode_cursor.wrapping_add(1);

        // Apply results at iteration end. The throughput ledger counts
        // client-visible tokens: prompt tokens, emitted output tokens, and
        // the first output token each final prefill chunk produces.
        let mut ledger_tokens = batch.decodes;
        let mut finishing = false;
        if batch.decodes > 0 {
            // The lead's decodes are every decode, and emit one token
            // each: the epoch advances them all. It goes before any
            // prefill chunk: a sequence whose final prefill chunk emits
            // its first token now starts from the advanced epoch.
            self.epoch += 1;
            self.running_outstanding_tokens -= batch.decodes;
            finishing = self.next_finish() <= self.epoch;
        }
        // Decode chunks advance their sequences unevenly; the finish
        // heap is rebuilt once they are applied. Below `Compiled` the
        // decode aggregates are not kept (see `Engine::finishes`).
        let mut uneven = false;
        let keep = self.fast_paths >= FastPaths::Compiled;
        let epoch = self.epoch;
        let assignments = std::mem::take(&mut self.scratch_assignments);
        for &(seq_idx, chunk) in &assignments {
            let seq = &mut self.running[seq_idx];
            match chunk.kind {
                sp_parallel::ChunkKind::Decode => {
                    // A chunk of >1 tokens is a speculative verification;
                    // a 1-token chunk is a plain decode (possibly degraded
                    // from speculative under budget pressure) and emits
                    // exactly one token.
                    let emitted = match self.config.spec_decode {
                        Some(sd) if chunk.new_tokens > 1 => {
                            let raw = sd.expected_emitted() + seq.spec_carry;
                            let whole = (raw.floor() as u32).max(1);
                            seq.spec_carry = raw - f64::from(whole);
                            whole
                        }
                        _ => 1,
                    };
                    let emitted = emitted.min(seq.decode_remaining(epoch));
                    seq.finish -= u64::from(emitted);
                    uneven = true;
                    self.running_outstanding_tokens -= u64::from(emitted);
                    ledger_tokens += u64::from(emitted);
                }
                sp_parallel::ChunkKind::Prefill => {
                    seq.prefill_done += chunk.new_tokens;
                    self.running_outstanding_tokens -= chunk.new_tokens;
                    self.running_prefill_tokens -= chunk.new_tokens;
                    ledger_tokens += chunk.new_tokens;
                    if chunk.emits_logit {
                        seq.start_decode(self.clock, epoch);
                        if keep {
                            self.finishes.push(Reverse((seq.finish, seq.admitted)));
                            self.attended_offset =
                                self.attended_offset.wrapping_add(seq.attended_offset());
                        }
                        self.running_outstanding_tokens -= 1;
                        ledger_tokens += 1;
                    }
                }
            }
            finishing |= seq.finished(epoch);
        }
        self.scratch_assignments = assignments;
        if uneven && keep {
            self.rebuild_decodes();
        }
        self.report.note_iteration(self.clock, ledger_tokens, duration);
        self.report.note_event(crate::report::IterationEvent {
            end: self.clock,
            duration,
            config,
            tokens: ledger_tokens,
            num_seqs: stats.num_seqs,
            kv_utilization: self.kv.utilization(),
        });
        self.scratch_chunks = batch.work.into_chunks();
        // Only a sequence this iteration advanced can have finished:
        // every other path retires what it finishes. The `Reference`
        // rung scans regardless.
        if finishing || self.fast_paths == FastPaths::Reference {
            self.retire_finished();
        } else {
            debug_assert!(self.running.iter().all(|seq| !seq.finished(self.epoch)));
        }
    }

    /// Retires every finished sequence at the current clock: releases
    /// its KV reservation and records its completion, in running order.
    ///
    /// From [`FastPaths::Compiled`] up the finished sequences are the
    /// finish heap's entries at the epoch, popped in admission order,
    /// which is running order; each is found by binary search. Lower
    /// rungs scan the batch, as the executable specification.
    fn retire_finished(&mut self) {
        let epoch = self.epoch;
        if self.fast_paths < FastPaths::Compiled {
            let (clock, kv, report) = (self.clock, &mut self.kv, &mut self.report);
            self.running.retain(|seq| {
                let done = seq.finished(epoch);
                if done {
                    complete(kv, report, clock, seq);
                }
                !done
            });
            return;
        }
        while let Some(&Reverse((finish, admitted))) = self.finishes.peek() {
            if finish > epoch {
                break;
            }
            debug_assert_eq!(finish, epoch, "a sequence finished past its last token");
            self.finishes.pop();
            let at = self
                .running
                .binary_search_by_key(&admitted, |seq| seq.admitted)
                .expect("every finish entry names a running sequence");
            let seq = self.running.remove(at);
            self.attended_offset = self.attended_offset.wrapping_sub(seq.attended_offset());
            complete(&mut self.kv, &mut self.report, self.clock, &seq);
        }
    }

    /// The earliest finish epoch among the sequences in decode
    /// (`u64::MAX` when none decodes).
    fn next_finish(&self) -> u64 {
        let next = self.finishes.peek().map_or(u64::MAX, |Reverse((finish, _))| *finish);
        #[cfg(debug_assertions)]
        self.check_decodes();
        next
    }

    /// The sequences in decode: how many, and their attended positions
    /// (`context + 1`) summed, both read off the aggregates.
    fn decode_aggregates(&self) -> (u64, u64) {
        let n = self.finishes.len() as u64;
        #[cfg(debug_assertions)]
        self.check_decodes();
        (n, self.attended_offset.wrapping_add(n.wrapping_mul(self.epoch)))
    }

    /// Recomputes the finish heap and the attended offset from the
    /// running batch, after an uneven advance or a removal that the
    /// heap cannot pop. Reuses the heap's buffer.
    fn rebuild_decodes(&mut self) {
        let mut entries = std::mem::take(&mut self.finishes).into_vec();
        entries.clear();
        let mut offset = 0u64;
        for seq in self.running.iter().filter(|seq| seq.in_decode()) {
            entries.push(Reverse((seq.finish, seq.admitted)));
            offset = offset.wrapping_add(seq.attended_offset());
        }
        self.finishes = BinaryHeap::from(entries);
        self.attended_offset = offset;
    }

    /// Checks the decode aggregates against a fold over the running
    /// batch: the decode count, the attended sum, and the finish heap's
    /// entries (their count, earliest entry and sums).
    #[cfg(debug_assertions)]
    fn check_decodes(&self) {
        let decoding = || self.running.iter().filter(|seq| seq.in_decode());
        let attended =
            decoding().fold(0u64, |sum, seq| sum.wrapping_add(seq.context_len(self.epoch) + 1));
        let n = self.finishes.len() as u64;
        assert_eq!(decoding().count() as u64, n, "decode count drifted");
        assert_eq!(
            self.attended_offset.wrapping_add(n.wrapping_mul(self.epoch)),
            attended,
            "attended sum drifted"
        );
        let entry = |seq: &RunningSeq| (seq.finish, seq.admitted);
        let sums = |(a, b): (u64, u64), (f, s): (u64, u64)| (a.wrapping_add(f), b.wrapping_add(s));
        assert_eq!(
            self.finishes.peek().map(|e| e.0),
            decoding().map(entry).min(),
            "finish heap's top drifted"
        );
        assert_eq!(
            self.finishes.iter().map(|e| e.0).fold((0, 0), sums),
            decoding().map(entry).fold((0, 0), sums),
            "finish heap's entries drifted"
        );
        assert!(
            self.running.windows(2).all(|w| w[0].admitted < w[1].admitted),
            "running batch left admission order"
        );
    }

    /// Moves arrived requests into the waiting queue.
    fn ingest_arrivals(&mut self) {
        while let Some(front) = self.arrivals.front() {
            if front.arrival <= self.clock {
                self.waiting.push_back(self.arrivals.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
    }

    /// FCFS admission: reserve the full KV footprint (prompt + output)
    /// up-front, so decode can never overflow mid-flight. Head-of-line
    /// blocking is intentional — it reproduces the growing wait times of
    /// Figure 10 when the cache saturates.
    fn admit(&mut self) {
        if self.running.len() >= self.config.max_seqs || self.waiting.is_empty() {
            return;
        }
        let _admit_span = sp_core::profile::start(sp_core::profile::Phase::Admission);
        while self.running.len() < self.config.max_seqs {
            let Some(pos) = self.next_admission_candidate() else { break };
            let head = *self.waiting.get(pos);
            if self.must_reject(&head) {
                self.waiting.remove(pos);
                self.queued_total_tokens -= head.total_tokens();
                self.queued_input_tokens -= u64::from(head.input_tokens);
                self.report.note_rejection(head.id);
                continue;
            }
            let mut reserved = self.try_reserve_kv(&head);
            // SLO-aware shedding: an at-risk interactive admission may
            // evict batch-class sequences that have not yet emitted a
            // first token (their prefill restarts later; their SLO budget
            // is 30x looser). Each shed frees one reservation, so the
            // retry loop terminates.
            if !reserved {
                if let Some(slo) = self.config.class_slo {
                    if head.class == RequestClass::Interactive && self.ttft_at_risk(&head, &slo) {
                        while !reserved && self.shed_one_batch_prefill() {
                            reserved = self.try_reserve_kv(&head);
                        }
                    }
                }
            }
            if !reserved {
                break;
            }
            let req = self.waiting.remove(pos);
            self.queued_total_tokens -= req.total_tokens();
            self.queued_input_tokens -= u64::from(req.input_tokens);
            let mut seq = RunningSeq::new(req, self.admissions);
            self.admissions += 1;
            if self.config.prefix_caching {
                // The cached prefix is already resident: skip its prefill.
                // At least one prompt token must still be processed to
                // produce the first logit.
                seq.prefill_done =
                    u64::from(req.cached_prefix.min(req.input_tokens.saturating_sub(1)));
            }
            self.running_outstanding_tokens += seq_outstanding(&seq, self.epoch);
            self.running_prefill_tokens += seq.prefill_remaining();
            self.running.push(seq);
        }
    }

    /// True when `head` can never be admitted: it can never fit, has no
    /// prompt to prefill (no prefill chunk would ever emit its first
    /// token), or asks for no output (the first token it would emit is
    /// one more than it asked for, and its load count would go below
    /// zero). Admission rejects it rather than deadlock. A shared head
    /// never fits when its group's blocks plus its own exceed the pool,
    /// as each rounds up to whole blocks on its own.
    // This and the two KV reservation helpers below run once per
    // admission candidate; kept out of line, they stay out of
    // `step_run`'s body, whose run loop is the hot path.
    #[inline(never)]
    fn must_reject(&self, head: &Request) -> bool {
        let capacity = self.kv.capacity_tokens();
        let never_fits = if self.shared_group(head).is_some() {
            let block = u64::from(self.kv.block_tokens());
            let blocks = u64::from(head.cached_prefix).div_ceil(block)
                + self.footprint(head).div_ceil(block);
            blocks * block > capacity
        } else {
            head.total_tokens() > capacity
        };
        never_fits || head.input_tokens == 0 || head.output_tokens == 0
    }

    /// Shared-prefix memory: with prefix caching under full reservation,
    /// a request with a group id joins the group, whose shared allocation
    /// holds the cached tokens; `head` only reserves its fresh tokens +
    /// output.
    fn shared_group(&self, head: &Request) -> Option<u64> {
        let shares =
            self.config.prefix_caching && self.config.admission == AdmissionMode::ReserveFull;
        head.prefix_group.filter(|_| shares)
    }

    /// KV tokens `head`'s own reservation asks for under the admission
    /// mode.
    fn footprint(&self, head: &Request) -> u64 {
        match self.config.admission {
            AdmissionMode::ReserveFull if self.shared_group(head).is_some() => {
                head.total_tokens() - u64::from(head.cached_prefix.min(head.input_tokens))
            }
            AdmissionMode::ReserveFull => head.total_tokens(),
            AdmissionMode::PreemptRestart => u64::from(head.input_tokens),
        }
    }

    /// True when `head`'s KV reservation (its group join, if it shares a
    /// prefix) fits now.
    #[inline(never)]
    fn can_reserve_kv(&self, head: &Request) -> bool {
        let footprint = self.footprint(head);
        match self.shared_group(head) {
            Some(group) => self.kv.can_join(group, u64::from(head.cached_prefix), footprint),
            None => self.kv.can_reserve(head.id, footprint),
        }
    }

    /// Makes `head`'s KV reservation, joining its group if it shares a
    /// prefix; all or nothing.
    #[inline(never)]
    fn try_reserve_kv(&mut self, head: &Request) -> bool {
        let footprint = self.footprint(head);
        match self.shared_group(head) {
            Some(group) => {
                self.kv.try_join(group, u64::from(head.cached_prefix), head.id, footprint)
            }
            None => self.kv.try_reserve(head.id, footprint),
        }
    }

    /// True when the SLO shed path could free KV for `head`: an at-risk
    /// interactive candidate with a batch-class prefill in the batch.
    fn shed_could_admit(&self, head: &Request) -> bool {
        self.config.class_slo.is_some_and(|slo| {
            head.class == RequestClass::Interactive
                && self.ttft_at_risk(head, &slo)
                && self
                    .running
                    .iter()
                    .any(|s| s.request.class == RequestClass::Batch && s.first_token.is_none())
        })
    }

    /// Queue position of the next request to admit under the admission
    /// policy, from the [`WaitQueue`] indexes.
    ///
    /// With [`EngineConfig::class_slo`] set, admission is goodput-first
    /// EDF: earliest TTFT deadline first among requests whose deadline has
    /// not yet passed; requests that can no longer attain their SLO queue
    /// behind the salvageable ones (serving them first would burn
    /// capacity a salvageable deadline still needs). Ties break to the
    /// earlier queue position, so the order matches the linear scan this
    /// replaces exactly. Mutable only for the index's upkeep (see
    /// [`WaitQueue::edf_candidate`]).
    fn next_admission_candidate(&mut self) -> Option<QueuePos> {
        if self.waiting.is_empty() {
            return None;
        }
        if let Some(slo) = self.config.class_slo {
            if self.fast_paths == FastPaths::Reference {
                return self.naive_admission_candidate(slo);
            }
            return self.waiting.edf_candidate(self.clock);
        }
        match self.config.queue_policy {
            QueuePolicy::Fcfs => self.waiting.front_pos(),
            QueuePolicy::InteractiveFirst => {
                self.waiting.first_interactive_pos().or_else(|| self.waiting.front_pos())
            }
        }
    }

    /// The pre-index EDF candidate scan: `min_by` over the whole queue
    /// with the `(deadline expired, deadline)` key recomputed for both
    /// sides of every comparison, exactly as the scheduler worked before
    /// the queue grew its deadline index. Same result as
    /// [`WaitQueue::edf_candidate`], at O(W) per call.
    fn naive_admission_candidate(&self, slo: sp_metrics::ClassSlo) -> Option<QueuePos> {
        let key = |r: &Request| {
            let deadline = slo.ttft_deadline(r.arrival, r.class);
            (deadline < self.clock, deadline.as_secs())
        };
        self.waiting
            .iter_with_pos()
            .min_by(|a, b| key(a.1).partial_cmp(&key(b.1)).expect("deadlines are finite"))
            .map(|(pos, _)| pos)
    }

    /// True when `req`'s first token is in jeopardy: its TTFT deadline is
    /// still attainable, but the remaining slack after its own prefill
    /// would be under half the class budget. The margin makes the engine
    /// act *before* the deadline is blown, while leaving freshly arrived
    /// requests to queue politely.
    fn ttft_at_risk(&self, req: &Request, slo: &ClassSlo) -> bool {
        if self.prefill_rate <= 0.0 {
            return false;
        }
        let budget = slo.target_for(req.class).ttft;
        let deadline = req.arrival + budget;
        if deadline < self.clock {
            return false; // Already lost; don't harm others for it.
        }
        let own_prefill = Dur::from_secs(f64::from(req.input_tokens) / self.prefill_rate);
        self.clock + own_prefill + budget * 0.5 > deadline
    }

    /// Sheds the youngest running batch-class sequence still in prefill:
    /// releases its KV reservation and requeues the request (prefill
    /// restarts from scratch on readmission). Returns false when no
    /// sheddable sequence exists.
    fn shed_one_batch_prefill(&mut self) -> bool {
        let Some(victim_idx) = self
            .running
            .iter()
            .rposition(|s| s.request.class == RequestClass::Batch && s.first_token.is_none())
        else {
            return false;
        };
        let victim = self.running.remove(victim_idx);
        debug_assert!(!victim.in_decode(), "a shed victim holds no finish entry");
        self.running_outstanding_tokens -= seq_outstanding(&victim, self.epoch);
        self.running_prefill_tokens -= victim.prefill_remaining();
        self.queued_total_tokens += victim.request.total_tokens();
        self.queued_input_tokens += u64::from(victim.request.input_tokens);
        self.kv.release(victim.request.id);
        self.report.note_shed(victim.request.id);
        self.waiting.push_back(victim.request);
        true
    }

    /// PreemptRestart mode: reserve one KV token for every decode step the
    /// upcoming iteration will take; when the cache cannot supply them,
    /// preempt the most recently admitted sequence (recompute preemption)
    /// and restart it from the waiting queue.
    fn reserve_decode_appends(&mut self) {
        let mut idx = 0;
        let mut preempted_decode = false;
        while idx < self.running.len() {
            let seq = &self.running[idx];
            if !seq.in_decode() || seq.finished(self.epoch) {
                idx += 1;
                continue;
            }
            let id = seq.request.id;
            if self.kv.try_reserve(id, 1) {
                idx += 1;
                continue;
            }
            // Out of blocks: preempt the youngest sequence (possibly the
            // one we are reserving for) — it restarts from the queue.
            let victim_idx = self.running.len() - 1;
            let victim = self.running.remove(victim_idx);
            preempted_decode |= victim.in_decode();
            // The preempted request restarts from scratch, so its full
            // footprint moves back to the queued-side counters.
            self.running_outstanding_tokens -= seq_outstanding(&victim, self.epoch);
            self.running_prefill_tokens -= victim.prefill_remaining();
            self.queued_total_tokens += victim.request.total_tokens();
            self.queued_input_tokens += u64::from(victim.request.input_tokens);
            self.kv.release(victim.request.id);
            self.report.note_preemption(victim.request.id);
            self.waiting.push_front(victim.request);
            // Do not advance: retry the reservation for `idx` (now
            // possibly out of bounds if we preempted ourselves, which the
            // loop condition handles).
        }
        // The heap cannot pop a preempted decode.
        if preempted_decode && self.fast_paths >= FastPaths::Compiled {
            self.rebuild_decodes();
        }
    }

    /// Builds the iteration batch: all runnable decodes first, then prefill
    /// chunks in admission order until the token budget is spent.
    ///
    /// Without speculative decoding, on rungs from [`FastPaths::Compiled`]
    /// up, every decode is one token: when they all fit the budget, the
    /// decode aggregates give their count and attended positions, and
    /// they become the batch's closed-form decode lead (see
    /// [`StepBatch::decodes`]), with no chunk per sequence and no pass
    /// over them. Everywhere
    /// else each decode gets its own chunk: every runnable decode gets at
    /// least one token of progress whenever the budget allows, a
    /// speculative chunk (`draft_len + 1` tokens) that no longer fits
    /// degrades to a plain 1-token decode instead of dropping the
    /// sequence's step, and if even 1-token decodes exhaust the budget
    /// (more runnable decodes than `max_batched_tokens`), the scan
    /// starts from a cursor that rotates every iteration, so leftover
    /// sequences are first in line next iteration rather than starved
    /// behind the same earlier-admitted ones forever.
    ///
    /// On `Some`, the per-sequence assignments are left in
    /// `scratch_assignments` for the caller to apply (and hand back for
    /// reuse); all three scratch buffers are engine-owned so steady-state
    /// iterations allocate nothing here.
    fn build_batch(&mut self) -> Option<StepBatch> {
        let _build_span = sp_core::profile::start(sp_core::profile::Phase::BatchBuild);
        let mut budget = self.config.max_batched_tokens;
        let mut assignments = std::mem::take(&mut self.scratch_assignments);
        assignments.clear();
        let mut prefills = std::mem::take(&mut self.scratch_order);
        prefills.clear();

        let lead = self.config.spec_decode.is_none()
            && self.fast_paths >= FastPaths::Compiled
            && self.finishes.len() as u64 <= budget;
        let (mut decodes, mut attended) = (0, 0);
        if lead {
            (decodes, attended) = self.decode_aggregates();
            budget -= decodes;
        }
        // The prefills, in running order (none while the load counter
        // says no prompt token is left to prefill). Newer admissions
        // hold them, so the walk starts at the back and stops once their
        // remaining tokens add up to the counter.
        let mut left = self.running_prefill_tokens;
        for (i, seq) in self.running.iter().enumerate().rev() {
            if left == 0 {
                break;
            }
            if !seq.in_decode() {
                prefills.push(i);
                left -= seq.prefill_remaining();
            }
        }
        prefills.reverse();
        debug_assert!(
            prefills
                .iter()
                .copied()
                .eq((0..self.running.len()).filter(|&i| !self.running[i].in_decode())),
            "the tail walk missed a prefill"
        );
        if !lead {
            let epoch = self.epoch;
            // Visit every sequence once, starting at the cursor's
            // position: `(cursor + k) % n` for each `k`, with one modulo
            // per batch.
            let n = self.running.len();
            let mut i = if n == 0 { 0 } else { self.decode_cursor % n };
            for _ in 0..n {
                let seq = &self.running[i];
                let at = i;
                i += 1;
                if i == n {
                    i = 0;
                }
                if seq.in_decode() && !seq.finished(epoch) {
                    let context = seq.context_len(epoch);
                    let mut chunk = match self.config.spec_decode {
                        None => ChunkWork::decode(context),
                        Some(sd) => ChunkWork::speculative_decode(context, sd.draft_len),
                    };
                    if budget < chunk.new_tokens {
                        chunk = ChunkWork::decode(context);
                    }
                    if budget < chunk.new_tokens {
                        break;
                    }
                    budget -= chunk.new_tokens;
                    assignments.push((at, chunk));
                }
            }
        }
        let mut prefill_budget = budget.min(self.config.max_prefill_tokens.unwrap_or(u64::MAX));
        let mut deferred = 0u64;
        match self.config.class_slo {
            None => {
                for &i in &prefills {
                    if prefill_budget == 0 {
                        break;
                    }
                    let seq = &self.running[i];
                    let take = seq.prefill_remaining().min(prefill_budget);
                    let is_last = take == seq.prefill_remaining();
                    assignments.push((i, ChunkWork::prefill(take, seq.prefill_done, is_last)));
                    prefill_budget -= take;
                }
            }
            Some(slo) => {
                // Class-aware prefill: interactive prefills take the budget
                // first. While a queued interactive request is at TTFT risk,
                // batch prefills are skipped outright — iterations stay
                // short, so decode drains KV (and the at-risk request is
                // admitted) sooner in simulated wall-clock. A skipped batch
                // prefill is *deferred*, not dropped: it runs once the risk
                // clears. To guarantee progress, a batch prefill is never
                // skipped when it would be the only work in the batch (the
                // decode lead counts as work).
                //
                // The risk test runs at the first batch prefill it could
                // defer, and at most once; the `Reference` rung runs its
                // pre-index scan of every queued entry up front.
                let mut urgent = (self.fast_paths == FastPaths::Reference).then(|| {
                    self.waiting
                        .iter()
                        .any(|r| r.class == RequestClass::Interactive && self.ttft_at_risk(r, &slo))
                });
                // Interactive prefills first, then batch ones, each in
                // running order.
                let mut scheduled_interactive = false;
                for class in [RequestClass::Interactive, RequestClass::Batch] {
                    let is_batch = class == RequestClass::Batch;
                    for &i in &prefills {
                        let seq = &self.running[i];
                        if seq.request.class != class {
                            continue;
                        }
                        if is_batch
                            && (decodes > 0 || !assignments.is_empty())
                            && *urgent.get_or_insert_with(|| {
                                // Only a salvageable request can be at risk.
                                self.waiting
                                    .salvageable_interactive(self.clock)
                                    .any(|r| self.ttft_at_risk(r, &slo))
                            })
                        {
                            deferred += 1;
                            continue;
                        }
                        if prefill_budget == 0 {
                            if is_batch && scheduled_interactive {
                                deferred += 1;
                            }
                            continue;
                        }
                        let take = seq.prefill_remaining().min(prefill_budget);
                        let is_last = take == seq.prefill_remaining();
                        assignments.push((i, ChunkWork::prefill(take, seq.prefill_done, is_last)));
                        prefill_budget -= take;
                        if !is_batch {
                            scheduled_interactive = true;
                        }
                    }
                }
            }
        }
        self.scratch_order = prefills;

        if decodes == 0 && assignments.is_empty() {
            self.scratch_assignments = assignments;
            return None;
        }
        let mut chunks = std::mem::take(&mut self.scratch_chunks);
        chunks.clear();
        chunks.extend(assignments.iter().map(|&(_, c)| c));
        self.scratch_assignments = assignments;
        Some(StepBatch { decodes, attended, work: BatchWork::new(chunks), deferred })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_cluster::NodeSpec;
    use sp_model::presets;
    use sp_parallel::{ParallelConfig, StaticPolicy};
    use sp_workload::{synthetic, RequestClass};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn engine_with(config: EngineConfig, parallel: ParallelConfig) -> Engine {
        let exec = ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b());
        Engine::new(exec, Box::new(StaticPolicy::new("test", parallel)), config)
    }

    fn engine() -> Engine {
        engine_with(EngineConfig::default(), ParallelConfig::tensor(8))
    }

    #[test]
    fn empty_trace_reports_nothing() {
        let report = engine().run(&Trace::default());
        assert!(report.records().is_empty());
        assert_eq!(report.iterations(), 0);
    }

    #[test]
    fn single_request_completes_with_consistent_timestamps() {
        let mut e = engine();
        let report = e.run(&synthetic::single(4096, 16));
        assert_eq!(report.records().len(), 1);
        let r = &report.records()[0];
        assert!(r.first_token > r.arrival);
        assert!(r.finish > r.first_token);
        assert_eq!(r.output_tokens, 16);
        // 16 output tokens = 1 (from prefill) + 15 decode iterations,
        // plus 1 prefill iteration (4096 fits one 8192-token budget).
        assert_eq!(report.iterations(), 16);
    }

    #[test]
    fn long_prompt_is_chunked() {
        let mut e = engine();
        let report = e.run(&synthetic::single(20_000, 1));
        // ceil(20000 / 8192) = 3 prefill chunks; output 1 needs no decode.
        assert_eq!(report.iterations(), 3);
        assert_eq!(report.records().len(), 1);
    }

    #[test]
    fn token_accounting_is_conserved() {
        let mut e = engine();
        let trace = synthetic::uniform_batch(8, 1000, 50);
        let report = e.run(&trace);
        assert_eq!(report.metrics().total_tokens(), trace.total_tokens());
    }

    #[test]
    fn concurrent_requests_batch_together() {
        let mut e = engine();
        let report = e.run(&synthetic::uniform_batch(4, 1000, 10));
        // All four prefills fit one 8192-token iteration; decodes batch
        // 4-wide: 1 + 9 iterations total.
        assert_eq!(report.iterations(), 10);
    }

    #[test]
    fn zero_token_prompt_is_rejected_not_spun_on() {
        // A prompt with no tokens has no prefill chunk to emit its first
        // token: admitting it would leave it running forever. It must
        // land in `rejected()` while its neighbours complete.
        let trace = Trace::with_ids(
            [(0, 0), (1, 512), (2, 0)]
                .into_iter()
                .map(|(id, input)| Request {
                    id,
                    arrival: SimTime::from_secs(0.1 * id as f64),
                    input_tokens: input,
                    output_tokens: 8,
                    class: RequestClass::Interactive,
                    cached_prefix: 0,
                    prefix_group: None,
                })
                .collect(),
        );
        let report = engine().run(&trace);
        assert_eq!(report.rejected(), &[0, 2]);
        assert_eq!(report.records().len(), 1);
        assert_eq!(report.records()[0].request_id, 1);
    }

    #[test]
    fn zero_output_request_is_rejected_not_wrapped() {
        // A request for no output tokens would still emit a first token
        // when its prefill lands, taking one more from the load counter
        // than it added. It must land in `rejected()` while its
        // neighbours complete and the load drains to zero.
        let trace = Trace::with_ids(
            [(0, 8), (1, 0), (2, 8)]
                .into_iter()
                .map(|(id, output)| Request {
                    id,
                    arrival: SimTime::from_secs(0.1 * id as f64),
                    input_tokens: 16,
                    output_tokens: output,
                    class: RequestClass::Interactive,
                    cached_prefix: 0,
                    prefix_group: None,
                })
                .collect(),
        );
        let mut e = engine();
        let report = e.run(&trace);
        assert_eq!(report.rejected(), &[1]);
        assert_eq!(report.records().iter().map(|r| r.request_id).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(e.outstanding_tokens(), 0);
    }

    #[test]
    fn oversized_request_is_rejected_not_deadlocked() {
        let config = EngineConfig { kv_capacity_tokens: 1_000, ..EngineConfig::default() };
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        let trace = synthetic::uniform_batch(1, 5_000, 10);
        let report = e.run(&trace);
        assert!(report.records().is_empty());
        assert_eq!(report.rejected(), &[0]);
    }

    #[test]
    fn kv_pressure_serializes_requests() {
        // Two requests, cache fits only one at a time: the second must
        // wait for the first to finish.
        let config = EngineConfig { kv_capacity_tokens: 1_200, ..EngineConfig::default() };
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        let report = e.run(&synthetic::uniform_batch(2, 1_000, 8));
        assert_eq!(report.records().len(), 2);
        let a = &report.records()[0];
        let b = &report.records()[1];
        assert!(b.first_token >= a.finish, "second prefill must start after first completes");
        assert!(report.peak_kv_utilization() > 0.8);
    }

    #[test]
    fn max_seqs_caps_concurrency() {
        let config = EngineConfig { max_seqs: 2, ..EngineConfig::default() };
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        let report = e.run(&synthetic::uniform_batch(4, 100, 10));
        assert_eq!(report.records().len(), 4);
        // With only 2 running at a time, more iterations than the
        // unconstrained case (10).
        assert!(report.iterations() > 10);
    }

    #[test]
    fn arrivals_gate_scheduling() {
        let trace = synthetic::poisson(3, 0.5, 512, 4, 7);
        let mut e = engine();
        let report = e.run(&trace);
        assert_eq!(report.records().len(), 3);
        for (rec, req) in report.records().iter().zip(trace.requests()) {
            assert!(rec.arrival.as_secs() >= req.arrival.as_secs() - 1e-9);
            assert!(rec.first_token > rec.arrival);
        }
    }

    #[test]
    fn clock_is_monotone_across_iterations() {
        let mut e = engine();
        let report = e.run(&synthetic::poisson(20, 5.0, 800, 20, 3));
        assert!(report.makespan().as_secs() > 0.0);
        for r in report.records() {
            assert!(r.finish.as_secs() <= report.makespan().as_secs() + 1e-9);
        }
    }

    #[test]
    fn config_usage_records_every_iteration() {
        let mut e = engine();
        let report = e.run(&synthetic::uniform_batch(2, 1000, 5));
        let total: u64 = report.config_usage().values().sum();
        assert_eq!(total, report.iterations());
        assert_eq!(report.config_usage().len(), 1); // static policy
    }

    #[test]
    fn outstanding_tokens_drain_to_zero() {
        let exec = ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b());
        let mut e = Engine::new(
            exec,
            Box::new(StaticPolicy::new("TP", ParallelConfig::tensor(8))),
            EngineConfig::default(),
        );
        assert_eq!(e.outstanding_tokens(), 0);
        let _ = e.run(&synthetic::uniform_batch(2, 100, 5));
        assert_eq!(e.outstanding_tokens(), 0);
    }

    #[test]
    fn preempt_mode_admits_more_concurrency() {
        // Cache fits both prompts but not both full footprints: reserve-
        // full serializes, preempt-restart overlaps the prefills.
        let tight = EngineConfig { kv_capacity_tokens: 2_600, ..EngineConfig::default() };
        let trace = synthetic::uniform_batch(2, 1_000, 500);

        let mut conservative = engine_with(tight, ParallelConfig::tensor(8));
        let conservative_report = conservative.run(&trace);

        let preemptive = EngineConfig { admission: AdmissionMode::PreemptRestart, ..tight };
        let mut aggressive = engine_with(preemptive, ParallelConfig::tensor(8));
        let aggressive_report = aggressive.run(&trace);

        // Conservative: second request waits for the first to finish.
        let c = conservative_report.records();
        assert!(c[1].first_token >= c[0].finish);
        // Aggressive: both prefill immediately (TTFTs overlap).
        let a = aggressive_report.records();
        let min_first = a.iter().map(|r| r.first_token.as_secs()).fold(f64::INFINITY, f64::min);
        let max_first = a.iter().map(|r| r.first_token.as_secs()).fold(0.0, f64::max);
        assert!(
            max_first < c[0].finish.as_secs(),
            "both requests should start decoding before the first finishes \
             (got {min_first:.2}/{max_first:.2} vs {:.2})",
            c[0].finish.as_secs()
        );
        assert_eq!(aggressive_report.records().len(), 2);
    }

    #[test]
    fn preemption_fires_under_pressure_and_all_complete() {
        // 4 requests whose decode growth overflows the cache: recompute
        // preemption must fire, and every request must still finish.
        let config = EngineConfig {
            kv_capacity_tokens: 3_000,
            admission: AdmissionMode::PreemptRestart,
            ..EngineConfig::default()
        };
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        let report = e.run(&synthetic::uniform_batch(4, 500, 600));
        assert_eq!(report.records().len(), 4);
        assert!(report.preemptions() > 0, "expected recompute preemptions");
        assert!(report.peak_kv_utilization() > 0.9);
    }

    #[test]
    fn reserve_full_never_preempts() {
        let config = EngineConfig { kv_capacity_tokens: 3_000, ..EngineConfig::default() };
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        let report = e.run(&synthetic::uniform_batch(4, 500, 600));
        assert_eq!(report.preemptions(), 0);
        assert_eq!(report.records().len(), 4);
    }

    #[test]
    #[should_panic(expected = "speculative")]
    fn preemption_rejects_spec_decode() {
        let config = EngineConfig {
            admission: AdmissionMode::PreemptRestart,
            spec_decode: Some(SpecDecode::new(4, 0.5)),
            ..EngineConfig::default()
        };
        let _ = engine_with(config, ParallelConfig::tensor(8));
    }

    #[test]
    fn prefill_cap_bounds_interference() {
        // A huge prefill arrives while a request decodes: with an
        // uncapped budget the decode's TPOT absorbs whole 8k-chunk
        // iterations; a 1k cap keeps iterations short.
        let trace = Trace::new(vec![
            sp_workload::Request {
                id: 0,
                arrival: SimTime::ZERO,
                input_tokens: 64,
                output_tokens: 200,
                class: RequestClass::Interactive,
                cached_prefix: 0,
                prefix_group: None,
            },
            sp_workload::Request {
                id: 1,
                arrival: SimTime::from_secs(0.05),
                input_tokens: 60_000,
                output_tokens: 4,
                class: RequestClass::Batch,
                cached_prefix: 0,
                prefix_group: None,
            },
        ]);
        let max_stall = |cap: Option<u64>| {
            let config = EngineConfig { max_prefill_tokens: cap, ..EngineConfig::default() };
            let mut e = engine_with(config, ParallelConfig::tensor(8));
            let report = e.run(&trace);
            assert_eq!(report.records().len(), 2);
            report.max_iteration_time().as_millis()
        };
        let uncapped = max_stall(None);
        let capped = max_stall(Some(1024));
        assert!(
            capped < 0.35 * uncapped,
            "prefill cap should bound the worst stall: {capped:.1}ms vs {uncapped:.1}ms"
        );
    }

    #[test]
    fn interactive_first_queue_jumps_batch_backlog() {
        // A pile of batch requests queued ahead of one interactive
        // request: InteractiveFirst admits it first.
        let mut reqs: Vec<sp_workload::Request> = (0..30)
            .map(|i| sp_workload::Request {
                id: i,
                arrival: SimTime::ZERO,
                input_tokens: 8_000,
                output_tokens: 8,
                class: RequestClass::Batch,
                cached_prefix: 0,
                prefix_group: None,
            })
            .collect();
        reqs.push(sp_workload::Request {
            id: 30,
            arrival: SimTime::from_secs(0.01),
            input_tokens: 256,
            output_tokens: 16,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        });
        let trace = Trace::new(reqs);
        // Tight KV so the batch backlog actually queues.
        let ttft_of_interactive = |policy| {
            let config = EngineConfig {
                kv_capacity_tokens: 40_000,
                queue_policy: policy,
                ..EngineConfig::default()
            };
            let mut e = engine_with(config, ParallelConfig::tensor(8));
            let report = e.run(&trace);
            report
                .records()
                .iter()
                .find(|r| r.input_tokens == 256)
                .expect("interactive request completes")
                .ttft()
                .as_secs()
        };
        let fcfs = ttft_of_interactive(QueuePolicy::Fcfs);
        let priority = ttft_of_interactive(QueuePolicy::InteractiveFirst);
        assert!(
            priority < 0.5 * fcfs,
            "priority admission should cut interactive TTFT: {priority:.2}s vs {fcfs:.2}s"
        );
    }

    #[test]
    fn prefix_caching_skips_cached_prefill() {
        // Second turn of a conversation: 8k context of which 7k is
        // cached. With prefix caching the prefill processes ~1k tokens.
        let warm = Trace::new(vec![sp_workload::Request {
            id: 0,
            arrival: SimTime::ZERO,
            input_tokens: 8_000,
            output_tokens: 4,
            class: RequestClass::Interactive,
            cached_prefix: 7_000,
            prefix_group: None,
        }]);
        let ttft = |caching: bool| {
            let config = EngineConfig { prefix_caching: caching, ..EngineConfig::default() };
            let mut e = engine_with(config, ParallelConfig::tensor(8));
            let report = e.run(&warm);
            report.records()[0].ttft().as_secs()
        };
        let cold = ttft(false);
        let cached = ttft(true);
        assert!(cached < 0.4 * cold, "cached {cached:.4}s vs cold {cold:.4}s");
    }

    /// A request of `input` prompt tokens (`cached` of them a cached
    /// prefix of `group`) and `output` generated tokens.
    fn shared_request(
        id: u64,
        arrival_secs: f64,
        (input, cached, output): (u32, u32, u32),
        group: u64,
    ) -> sp_workload::Request {
        sp_workload::Request {
            id,
            arrival: SimTime::from_secs(arrival_secs),
            input_tokens: input,
            output_tokens: output,
            class: RequestClass::Interactive,
            cached_prefix: cached,
            prefix_group: Some(group),
        }
    }

    #[test]
    fn a_shared_prefix_is_freed_with_its_last_member() {
        // Group 0's 600-token prefix must leave the cache when request 0
        // finishes: the cache cannot hold it next to group 1's prefix
        // and request 1's own tokens.
        let config = EngineConfig {
            kv_capacity_tokens: 1_000,
            prefix_caching: true,
            ..EngineConfig::default()
        };
        let trace = Trace::with_ids(vec![
            shared_request(0, 0.0, (700, 600, 50), 0),
            shared_request(1, 5.0, (700, 600, 50), 1),
        ]);
        let report = engine_with(config, ParallelConfig::single()).run(&trace);
        assert_eq!(report.records().len(), 2);
        assert!(report.rejected().is_empty());
    }

    #[test]
    fn a_shared_request_whose_group_and_own_blocks_overflow_the_pool_is_rejected() {
        // 62 blocks of 16 tokens. The 490-token prefix takes 31 blocks
        // and the 500 fresh and generated tokens 32: 63 in all, though
        // the 990 tokens alone would fit in 62.
        let config = EngineConfig {
            kv_capacity_tokens: 1_000,
            prefix_caching: true,
            ..EngineConfig::default()
        };
        let trace = Trace::with_ids(vec![
            shared_request(0, 0.0, (500, 490, 490), 0),
            shared_request(1, 0.0, (500, 480, 400), 0),
        ]);
        let report = engine_with(config, ParallelConfig::single()).run(&trace);
        assert_eq!(report.rejected(), &[0]);
        assert_eq!(report.records().len(), 1);
    }

    #[test]
    fn shared_prefix_memory_admits_concurrent_branches() {
        // A parallel agent samples 3 candidate continuations of the SAME
        // 6k context concurrently (same prefix group). With shared prefix
        // memory the context is resident once (6k + 3 x 550 fits a 9k
        // cache, all branches run together); without sharing each branch
        // reserves the full 6.55k and they serialize.
        let branches: Vec<sp_workload::Request> = (0..3)
            .map(|b| sp_workload::Request {
                id: b,
                arrival: SimTime::ZERO,
                input_tokens: 6_500,
                output_tokens: 50,
                class: RequestClass::Interactive,
                cached_prefix: 6_000,
                prefix_group: Some(42),
            })
            .collect();
        let trace = Trace::with_ids(branches);
        let config = EngineConfig {
            kv_capacity_tokens: 9_000,
            prefix_caching: true,
            ..EngineConfig::default()
        };
        let run_last_finish = |trace: &Trace| {
            let mut e = engine_with(config, ParallelConfig::tensor(8));
            let report = e.run(trace);
            assert_eq!(report.records().len(), 3);
            report.records().iter().map(|r| r.finish.as_secs()).fold(0.0f64, f64::max)
        };
        let shared_makespan = run_last_finish(&trace);
        let no_group: Vec<sp_workload::Request> = trace
            .requests()
            .iter()
            .map(|r| sp_workload::Request { prefix_group: None, ..*r })
            .collect();
        let unshared_makespan = run_last_finish(&Trace::with_ids(no_group));
        assert!(
            shared_makespan < 0.6 * unshared_makespan,
            "shared branches should run concurrently: {shared_makespan:.2}s vs              serialized {unshared_makespan:.2}s"
        );
    }

    #[test]
    fn prefix_caching_clamps_fully_cached_prompts() {
        // cached_prefix >= input: at least one token must be processed.
        let trace = Trace::new(vec![sp_workload::Request {
            id: 0,
            arrival: SimTime::ZERO,
            input_tokens: 100,
            output_tokens: 4,
            class: RequestClass::Interactive,
            cached_prefix: 100,
            prefix_group: None,
        }]);
        let config = EngineConfig { prefix_caching: true, ..EngineConfig::default() };
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        let report = e.run(&trace);
        assert_eq!(report.records().len(), 1);
        assert!(report.records()[0].first_token > report.records()[0].arrival);
    }

    #[test]
    fn interactive_request_latency_reasonable() {
        // A lone 4k-prompt request on TP=8 should see a sub-second TTFT
        // (Figure 12 reports ~100 ms scale).
        let mut e = engine();
        let trace = Trace::new(vec![sp_workload::Request {
            id: 0,
            arrival: SimTime::ZERO,
            input_tokens: 4096,
            output_tokens: 250,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        }]);
        let mut report = e.run(&trace);
        let ttft = report.metrics_mut().ttft().median().unwrap();
        assert!(ttft < 0.5, "TTFT {ttft}s too slow");
        let tpot = report.metrics_mut().tpot().median().unwrap();
        assert!((0.002..0.05).contains(&tpot), "TPOT {tpot}s out of range");
    }

    #[test]
    fn stepping_api_matches_batch_run() {
        // push_request + step_once + take_report must reproduce run().
        let trace = synthetic::poisson(12, 4.0, 768, 24, 11);
        let batch = engine().run(&trace);

        let mut e = engine();
        for &req in trace.requests() {
            e.push_request(req);
        }
        let mut guard = 0;
        while !e.is_idle() {
            guard += 1;
            assert!(guard < 1_000_000);
            e.step_once();
        }
        let stepped = e.take_report();

        assert_eq!(stepped.dump(), batch.dump());
    }

    #[test]
    fn same_iteration_finishes_are_recorded_in_running_order() {
        // Interactive-first admission runs requests 2 and 3 ahead of 0
        // and 1. Their prompts prefill together and their outputs are
        // equal, so all four finish on one iteration: every rung must
        // record them in running order, not in id order.
        let trace = Trace::with_ids(
            [RequestClass::Batch, RequestClass::Batch]
                .into_iter()
                .chain([RequestClass::Interactive; 2])
                .enumerate()
                .map(|(id, class)| blocked_req(id as u64, 0.0, 64, 8, class))
                .collect(),
        );
        let config =
            EngineConfig { queue_policy: QueuePolicy::InteractiveFirst, ..EngineConfig::default() };
        for paths in
            [FastPaths::Reference, FastPaths::Indexed, FastPaths::Compiled, FastPaths::MacroSteps]
        {
            let mut e = engine_with(config, ParallelConfig::tensor(8));
            e.set_fast_paths(paths);
            let report = e.run(&trace);
            let order: Vec<u64> = report.records().iter().map(|r| r.request_id).collect();
            assert_eq!(order, [2, 3, 0, 1], "on {paths:?}");
            assert!(report.records().iter().all(|r| r.finish == report.records()[0].finish));
        }
    }

    /// A request for the KV-blocked traces below.
    fn blocked_req(
        id: u64,
        at: f64,
        input: u32,
        output: u32,
        class: RequestClass,
    ) -> sp_workload::Request {
        sp_workload::Request {
            id,
            arrival: SimTime::from_secs(at),
            input_tokens: input,
            output_tokens: output,
            class,
            cached_prefix: 0,
            prefix_group: None,
        }
    }

    /// Two long batch decodes fill an 8k-token cache, a third batch
    /// request is KV-blocked behind them, and a `late` request arrives
    /// at 0.5 s, mid-run.
    fn blocked_trace(late: RequestClass) -> Trace {
        Trace::with_ids(vec![
            blocked_req(0, 0.0, 1_000, 2_000, RequestClass::Batch),
            blocked_req(1, 0.0, 1_000, 2_000, RequestClass::Batch),
            blocked_req(2, 0.0, 2_500, 100, RequestClass::Batch),
            blocked_req(3, 0.5, 500, 100, late),
        ])
    }

    /// An EDF engine for [`blocked_trace`] on `paths`, timeline on so
    /// dumps pin every iteration.
    fn blocked_engine(paths: FastPaths) -> Engine {
        let config = EngineConfig {
            kv_capacity_tokens: 8_000,
            class_slo: Some(ClassSlo::default()),
            record_timeline: true,
            ..EngineConfig::default()
        };
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        e.set_fast_paths(paths);
        e
    }

    /// The run probe's verdict at `e`'s clock, without its ingest: when
    /// admission is blocked, the candidate's id and the verdict's lapse
    /// instant; `None` when a step would admit, reject or shed.
    fn verdict(e: &mut Engine) -> Option<(Option<u64>, Option<SimTime>)> {
        let candidate = e.next_admission_candidate();
        let bound = e.admission_blocked(candidate)?;
        Some((candidate.map(|pos| e.waiting.get(pos).id), bound))
    }

    /// Pushes `trace` and steps until both prompts are prefilled, with
    /// admission blocked on request 2 and request 3 not yet arrived.
    fn prefill_blocked(e: &mut Engine, trace: &Trace) {
        for &req in trace.requests() {
            e.push_request(req);
        }
        while e.running.is_empty() || e.running_prefill_tokens != 0 {
            e.step_once();
        }
        assert_eq!(e.running.len(), 2);
        let deadline = ClassSlo::default().ttft_deadline(SimTime::ZERO, RequestClass::Batch);
        assert_eq!(verdict(e), Some((Some(2), Some(deadline))), "request 2 is KV-blocked");
        assert!(e.clock() < SimTime::from_secs(0.5));
    }

    /// Runs `e` to idle the way [`Engine::run`] does.
    fn finish(e: &mut Engine) -> String {
        while !e.is_idle() {
            if e.step_run(None).is_none() {
                e.step_once();
            }
        }
        e.take_report().dump()
    }

    #[test]
    fn blocked_run_ingests_an_arrival_that_cannot_be_admitted() {
        // The batch arrival's deadline falls after the blocked head's,
        // so it cannot displace the candidate: the run ingests it at its
        // boundary, finds admission still blocked on the same head and
        // keeps going. The cap ends the run long before the batch
        // finishes, so the blocked state is still there to inspect.
        let trace = blocked_trace(RequestClass::Batch);
        let mut e = blocked_engine(FastPaths::MacroSteps);
        prefill_blocked(&mut e, &trace);
        let run = e.step_run(Some(1.0)).expect("a KV-blocked decode batch runs");
        assert!(run.last >= SimTime::from_secs(0.5), "one run covers the arrival's iteration");
        assert!(e.arrivals.is_empty(), "the run ingested the arrival");
        assert_eq!(e.waiting.iter().map(|r| r.id).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(verdict(&mut e).map(|v| v.0), Some(Some(2)), "blocked on the same head");
        let reference = blocked_engine(FastPaths::Reference).run(&trace).dump();
        assert_eq!(finish(&mut e), reference);
    }

    #[test]
    fn displacing_arrival_stops_the_run() {
        // An interactive arrival's deadline beats the blocked head's and it
        // fits the free KV: the run stops at its boundary, and the step
        // at that instant admits it.
        let trace = blocked_trace(RequestClass::Interactive);
        let mut e = blocked_engine(FastPaths::MacroSteps);
        prefill_blocked(&mut e, &trace);
        let run = e.step_run(None).expect("a KV-blocked decode batch runs");
        assert!(run.last < SimTime::from_secs(0.5) && e.clock() >= SimTime::from_secs(0.5));
        assert!(e.step_run(None).is_none(), "admission is possible at this instant");
        e.step_once();
        assert!(e.running.iter().any(|s| s.request.id == 3), "the step admitted the arrival");
        let reference = blocked_engine(FastPaths::Reference).run(&trace).dump();
        assert_eq!(finish(&mut e), reference);
    }

    #[test]
    fn run_stopped_by_a_probe_probes_again_on_resume() {
        // Two decodes run with nothing queued: the run-start verdict is
        // blocked until the queue changes. A third request arrives
        // mid-run and fits, so the in-run probe at its boundary finds
        // admission possible and stops the run. The verdict the run
        // started with no longer holds, although no arrival is due any
        // more and it has no lapse instant: the next window must probe
        // again, and decline.
        let trace = Trace::with_ids(vec![
            blocked_req(0, 0.0, 64, 2_000, RequestClass::Batch),
            blocked_req(1, 0.0, 64, 2_000, RequestClass::Batch),
            blocked_req(2, 0.5, 64, 100, RequestClass::Batch),
        ]);
        let mut e = engine();
        for &req in trace.requests() {
            e.push_request(req);
        }
        while e.running.len() < 2 || e.running_prefill_tokens != 0 {
            e.step_once();
        }
        assert_eq!(verdict(&mut e), Some((None, None)), "nothing queued: blocked for good");
        let run = e.step_run(None).expect("a pure-decode batch runs");
        assert!(run.last < SimTime::from_secs(0.5) && e.clock() >= SimTime::from_secs(0.5));
        assert!(e.arrivals.is_empty(), "the in-run probe ingested the arrival");
        assert_eq!(verdict(&mut e), None, "the arrival fits");
        assert!(e.step_run(None).is_none(), "the resumed window probes and declines");
        e.step_once();
        assert_eq!(e.running.len(), 3, "the step admitted the arrival");
        let mut reference = engine();
        reference.set_fast_paths(FastPaths::Reference);
        assert_eq!(finish(&mut e), reference.run(&trace).dump());
    }

    #[test]
    fn declined_run_then_step_equals_the_step_alone() {
        // A `None` may leave the probe's ingest behind; the `step_once`
        // every caller runs next must end where it alone would.
        let trace = blocked_trace(RequestClass::Interactive);
        let mut engines = [0, 1].map(|_| {
            let mut e = blocked_engine(FastPaths::MacroSteps);
            prefill_blocked(&mut e, &trace);
            while e.arrivals.front().is_some_and(|r| r.arrival > e.clock) {
                e.step_once();
            }
            e
        });
        let [declined, alone] = &mut engines;
        assert!(declined.step_run(None).is_none());
        assert!(declined.arrivals.is_empty(), "the declined run left its ingest behind");
        declined.step_once();
        alone.step_once();
        let state = |e: &mut Engine| {
            let waiting: Vec<u64> = e.waiting.iter().map(|r| r.id).collect();
            (e.report.dump(), e.clock, verdict(e), waiting)
        };
        assert_eq!(state(declined), state(alone));
        assert_eq!(finish(declined), finish(alone));
    }

    #[test]
    fn blocked_run_stops_when_the_head_deadline_lapses() {
        // An interactive head too large for the free KV blocks a batch
        // request that fits. Its TTFT deadline passes mid-run: from
        // there the batch request is the EDF candidate, so the run
        // stops at the first boundary past the deadline and the step at
        // that instant admits it.
        let trace = Trace::with_ids(vec![
            blocked_req(0, 0.0, 1_000, 2_000, RequestClass::Batch),
            blocked_req(1, 0.0, 1_000, 2_000, RequestClass::Batch),
            blocked_req(2, 0.01, 2_500, 100, RequestClass::Interactive),
            blocked_req(3, 0.01, 500, 100, RequestClass::Batch),
        ]);
        let deadline =
            ClassSlo::default().ttft_deadline(SimTime::from_secs(0.01), RequestClass::Interactive);
        let mut e = blocked_engine(FastPaths::MacroSteps);
        for &req in trace.requests() {
            e.push_request(req);
        }
        while e.running.is_empty() || e.running_prefill_tokens != 0 || !e.arrivals.is_empty() {
            e.step_once();
        }
        assert_eq!(e.running.len(), 2);
        assert_eq!(verdict(&mut e), Some((Some(2), Some(deadline))), "blocked until the deadline");
        let run = e.step_run(None).expect("a KV-blocked decode batch runs");
        assert!(
            run.last <= deadline && e.clock() > deadline,
            "stops at the first boundary past it"
        );
        assert_eq!(verdict(&mut e), None, "request 3 fits now that it is the candidate");
        assert!(e.step_run(None).is_none(), "admission is possible at this instant");
        e.step_once();
        assert!(e.running.iter().any(|s| s.request.id == 3), "the step admitted request 3");
        let reference = blocked_engine(FastPaths::Reference).run(&trace).dump();
        assert_eq!(finish(&mut e), reference);
    }

    #[test]
    fn step_run_declines_while_a_prefill_is_in_flight() {
        // A short prompt and a long one arrive together under a small
        // chunk budget: after the first iteration the short request
        // decodes while the long one is still mid-prefill. Any prefill
        // in flight sends the batch through `step_once`, so `step_run`
        // must decline without touching clock, report, run cache, or
        // decode cursor.
        let config = EngineConfig { max_batched_tokens: 2048, ..EngineConfig::default() };
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        let req = |id, input, output| sp_workload::Request {
            id,
            arrival: SimTime::ZERO,
            input_tokens: input,
            output_tokens: output,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        };
        e.push_request(req(0, 64, 100));
        e.push_request(req(1, 10_000, 10));
        e.step_once();
        assert!(e.running.iter().any(|s| s.in_decode() && !s.finished(e.epoch)));
        assert!(e.running_prefill_tokens > 2048, "the long prompt needs several more chunks");

        let snapshot =
            |e: &Engine| (e.clock, e.report.dump(), e.run_cache.is_some(), e.decode_cursor);
        let before = snapshot(&e);
        assert!(e.step_run(None).is_none());
        assert_eq!(snapshot(&e), before);

        // Once the prefill lands, the pure-decode batch macro-steps.
        while e.running_prefill_tokens != 0 {
            e.step_once();
        }
        assert!(e.step_run(None).is_some());
    }

    /// A policy registered for `registered` that counts its choices
    /// and answers `chosen`, which may lie outside its registered set.
    #[derive(Debug)]
    struct ProbePolicy {
        registered: ParallelConfig,
        chosen: ParallelConfig,
        calls: Arc<AtomicU64>,
    }

    impl ParallelismPolicy for ProbePolicy {
        fn choose(&self, _stats: &BatchStats) -> ParallelConfig {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.chosen
        }
        fn configurations(&self) -> Vec<ParallelConfig> {
            vec![self.registered]
        }
        fn name(&self) -> &str {
            "probe"
        }
    }

    /// An engine over `model` under a [`ProbePolicy`], and its call
    /// counter.
    fn probe_engine(
        model: sp_model::ModelConfig,
        chosen: ParallelConfig,
        paths: FastPaths,
    ) -> (Engine, Arc<AtomicU64>) {
        let calls = Arc::default();
        let policy = ProbePolicy {
            registered: ParallelConfig::tensor(8),
            chosen,
            calls: Arc::clone(&calls),
        };
        let exec = ExecutionModel::new(NodeSpec::p5en_48xlarge(), model);
        let mut e = Engine::new(exec, Box::new(policy), EngineConfig::default());
        e.set_fast_paths(paths);
        (e, calls)
    }

    #[test]
    fn step_run_declines_a_run_past_the_closed_form_guard() {
        // Enough layers that even a two-sequence decode batch's linear
        // FLOPs leave the exact-integer range of the closed form.
        let mut model = presets::qwen_32b();
        model.num_layers = 1 << 24;
        assert!(model.decode_batch_cost(2, 2).is_none(), "the closed form must decline");
        let trace = synthetic::uniform_batch(2, 64, 40);
        let calls = |c: &Arc<AtomicU64>| c.load(Ordering::Relaxed);

        let (mut e, probe) =
            probe_engine(model.clone(), ParallelConfig::tensor(8), FastPaths::default());
        for &req in trace.requests() {
            e.push_request(req);
        }
        e.step_once();
        while e.running_prefill_tokens != 0 {
            e.step_once();
        }
        assert_eq!(e.running.len(), 2, "a pure-decode batch of both requests");
        let snapshot =
            |e: &Engine| (e.clock, e.report.dump(), e.run_cache.is_some(), e.decode_cursor);
        let before = (snapshot(&e), calls(&probe));
        assert!(e.step_run(None).is_none());
        assert_eq!((snapshot(&e), calls(&probe)), before, "a declined run changes nothing");

        // Every iteration goes through `step_once`, whose decode lead
        // the guard declines too: those steps price the materialized
        // batch, so every rung reports exactly what the reference does.
        let run = |paths| {
            let (mut e, probe) = probe_engine(model.clone(), ParallelConfig::tensor(8), paths);
            let report = e.run(&trace);
            (report.dump(), calls(&probe))
        };
        let reference = run(FastPaths::Reference);
        assert_eq!(run(FastPaths::Compiled), reference);
        assert_eq!(run(FastPaths::MacroSteps), reference);
    }

    #[test]
    fn unregistered_config_panics_on_every_rung() {
        let trace = synthetic::uniform_batch(2, 64, 8);
        for paths in
            [FastPaths::Reference, FastPaths::Indexed, FastPaths::Compiled, FastPaths::MacroSteps]
        {
            let outcome = std::panic::catch_unwind(|| {
                let (mut e, _) =
                    probe_engine(presets::qwen_32b(), ParallelConfig::sequence(8), paths);
                e.run(&trace)
            });
            let payload = outcome.expect_err("an unregistered configuration must not be priced");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("policy probe") && message.contains("configurations()"),
                "unexpected panic message on {paths:?}: {message:?}"
            );
        }
    }

    #[test]
    fn next_event_time_tracks_arrivals_and_work() {
        let mut e = engine();
        assert_eq!(e.next_event_time(), None);
        e.push_request(sp_workload::Request {
            id: 0,
            arrival: SimTime::from_secs(3.0),
            input_tokens: 128,
            output_tokens: 4,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        });
        // Idle engine: next event is the pending arrival.
        assert_eq!(e.next_event_time(), Some(SimTime::from_secs(3.0)));
        e.step_once();
        // Work admitted: the next iteration completes "now".
        assert_eq!(e.next_event_time(), Some(e.clock()));
        while !e.is_idle() {
            e.step_once();
        }
        assert_eq!(e.next_event_time(), None);
        assert_eq!(e.take_report().records().len(), 1);
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn push_request_rejects_time_travel() {
        let mut e = engine();
        let req = |id, at| sp_workload::Request {
            id,
            arrival: SimTime::from_secs(at),
            input_tokens: 64,
            output_tokens: 4,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        };
        e.push_request(req(0, 5.0));
        e.push_request(req(1, 2.0));
    }

    #[test]
    fn failed_shared_prefix_admission_leaks_no_kv() {
        // Regression: admit() used to extend the shared-prefix group (and
        // register it live) BEFORE reserving the request's own footprint.
        // When the reserve then failed, the extension was never rolled
        // back, so the orphaned watermark squatted on blocks until the
        // cache wedged. Here request B's group extension fits but its
        // footprint does not, so B must wait for A — without B's dead
        // extension inflating utilization in the meantime.
        let a = sp_workload::Request {
            id: 0,
            arrival: SimTime::ZERO,
            input_tokens: 4_000,
            output_tokens: 400,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        };
        let b = sp_workload::Request {
            id: 1,
            arrival: SimTime::ZERO,
            input_tokens: 1_600,
            output_tokens: 100,
            class: RequestClass::Interactive,
            cached_prefix: 1_500,
            prefix_group: Some(7),
        };
        let config = EngineConfig {
            kv_capacity_tokens: 6_000,
            prefix_caching: true,
            ..EngineConfig::default()
        };
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        e.push_request(a);
        e.push_request(b);

        // Let A admit and run a few iterations; B's admission fails each
        // pass (extension 1500 fits the ~1600 free tokens, its 200-token
        // footprint then does not).
        for _ in 0..4 {
            e.step_once();
        }
        let occupied = e.kv_utilization();
        assert!(
            occupied < 0.8,
            "failed admission must not leave group tokens behind: {occupied:.3}"
        );
        // Repeated admit passes against the full cache must not creep.
        for _ in 0..8 {
            e.step_once();
            assert!((e.kv_utilization() - occupied).abs() < 1e-9);
        }

        let mut guard = 0;
        while !e.is_idle() {
            guard += 1;
            assert!(guard < 1_000_000);
            e.step_once();
        }
        let report = e.take_report();
        assert_eq!(report.records().len(), 2);
        assert_eq!(e.kv_utilization(), 0.0);
    }

    #[test]
    fn spec_decode_budget_pressure_starves_no_sequence() {
        // Regression: build_batch() used to stop at the first speculative
        // chunk that overflowed the token budget, always scanning from
        // sequence 0 — under budget pressure the tail of the running list
        // made zero progress until the head finished. Now over-budget
        // speculative chunks degrade to single-token decodes and the scan
        // rotates, so every runnable sequence advances every iteration.
        let config = EngineConfig {
            max_batched_tokens: 18, // two 8-token spec chunks + change
            spec_decode: Some(SpecDecode::new(7, 0.5)),
            ..EngineConfig::default()
        };
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        // 1-token prompts: all four prefills share one iteration, so the
        // finish spread below measures decode fairness alone.
        let report = e.run(&synthetic::uniform_batch(4, 1, 64));
        assert_eq!(report.records().len(), 4);
        let finishes: Vec<f64> = report.records().iter().map(|r| r.finish.as_secs()).collect();
        let spread = finishes.iter().fold(0.0f64, |m, &f| m.max(f))
            / finishes.iter().fold(f64::INFINITY, |m, &f| m.min(f));
        // Starved tails used to finish ~2x after the head pair.
        assert!(
            spread < 1.3,
            "decode progress should be fair under budget pressure: spread {spread:.2}"
        );
    }

    /// A batch decode, a long batch prompt prefilling beside it, and an
    /// interactive request held back by `max_seqs`. Once the interactive
    /// request is at TTFT risk, each step defers the lone batch prefill
    /// and runs the decode alone: the decode lead counts as work, though
    /// the step builds no chunk for it.
    #[test]
    fn urgent_interactive_work_defers_a_lone_batch_prefill_beside_decodes() {
        let config = EngineConfig {
            max_batched_tokens: 128,
            max_seqs: 2,
            class_slo: Some(ClassSlo::default()),
            record_timeline: true,
            ..EngineConfig::default()
        };
        let trace = Trace::with_ids(vec![
            blocked_req(0, 0.0, 64, 400, RequestClass::Batch),
            blocked_req(1, 0.0, 20_000, 10, RequestClass::Batch),
            blocked_req(2, 0.05, 100, 10, RequestClass::Interactive),
        ]);
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        for &req in trace.requests() {
            e.push_request(req);
        }
        let progress = |e: &Engine| -> Vec<(u64, u64, u32)> {
            e.running.iter().map(|s| (s.request.id, s.prefill_done, s.generated(e.epoch))).collect()
        };
        let mut deferring_steps = 0;
        while !e.is_idle() {
            let before = progress(&e);
            let deferrals = e.report.batch_deferrals();
            e.step_once();
            if e.report.batch_deferrals() == deferrals {
                continue;
            }
            deferring_steps += 1;
            assert_eq!(e.report.batch_deferrals(), deferrals + 1);
            let [(0, done0, gen0), (1, done1, gen1)] = before[..] else {
                panic!("the decode and the batch prefill run: {before:?}")
            };
            assert_eq!(
                progress(&e),
                [(0, done0, gen0 + 1), (1, done1, gen1)],
                "the decode advances alone"
            );
        }
        assert!(deferring_steps > 0, "the at-risk interactive request deferred nothing");
        let report = e.take_report();
        assert_eq!(report.records().len(), 3);
        let mut reference = engine_with(config, ParallelConfig::tensor(8));
        reference.set_fast_paths(FastPaths::Reference);
        assert_eq!(report.dump(), reference.run(&trace).dump());
    }

    /// An older batch-class prompt whose prefill is deferred while newer
    /// interactive requests decode behind it in the running order, and
    /// an at-risk interactive request held back by `max_seqs`: every
    /// step's prefill list is built from the batch's tail past decoding
    /// sequences.
    #[test]
    fn older_prefill_deferred_behind_newer_decodes_matches_the_reference() {
        let config = EngineConfig {
            max_batched_tokens: 128,
            max_seqs: 3,
            class_slo: Some(ClassSlo::default()),
            record_timeline: true,
            ..EngineConfig::default()
        };
        let trace = Trace::with_ids(vec![
            blocked_req(0, 0.0, 20_000, 10, RequestClass::Batch),
            blocked_req(1, 0.01, 64, 400, RequestClass::Interactive),
            blocked_req(2, 0.01, 64, 400, RequestClass::Interactive),
            blocked_req(3, 0.05, 100, 10, RequestClass::Interactive),
        ]);
        let mut e = engine_with(config, ParallelConfig::tensor(8));
        for &req in trace.requests() {
            e.push_request(req);
        }
        let mut deferred_behind = 0;
        while !e.is_idle() {
            let first_prefill = e.running.iter().position(|s| !s.in_decode());
            let behind =
                first_prefill.is_some_and(|p| e.running[p..].iter().any(|s| s.in_decode()));
            let deferrals = e.report.batch_deferrals();
            if e.step_run(None).is_none() {
                e.step_once();
            }
            if behind && e.report.batch_deferrals() > deferrals {
                deferred_behind += 1;
            }
        }
        assert!(deferred_behind > 0, "no step deferred the older prefill behind a decode");
        let report = e.take_report();
        assert_eq!(report.records().len(), 4);
        let mut reference = engine_with(config, ParallelConfig::tensor(8));
        reference.set_fast_paths(FastPaths::Reference);
        assert_eq!(report.dump(), reference.run(&trace).dump());
    }

    /// Sequence parallel above `threshold` sequences, tensor parallel at
    /// or below: a two-plan policy in the manner of Shift.
    #[derive(Debug)]
    struct SizePolicy {
        threshold: usize,
    }

    impl ParallelismPolicy for SizePolicy {
        fn choose(&self, stats: &BatchStats) -> ParallelConfig {
            if stats.num_seqs > self.threshold {
                ParallelConfig::sequence(8)
            } else {
                ParallelConfig::tensor(8)
            }
        }
        fn configurations(&self) -> Vec<ParallelConfig> {
            vec![ParallelConfig::sequence(8), ParallelConfig::tensor(8)]
        }
        fn name(&self) -> &str {
            "size"
        }
    }

    #[test]
    fn decode_terms_serve_recurring_batch_sizes_under_both_plans() {
        // Two waves of six requests, the second arriving after the first
        // drains. Each wave's decode batch shrinks from six sequences to
        // one as its outputs finish, so every batch size recurs: under
        // sequence parallelism above three sequences, tensor parallelism
        // at or below.
        let trace = Trace::with_ids(
            (0..12u64)
                .map(|id| {
                    let at = if id < 6 { 0.0 } else { 30.0 };
                    let output = 20 + 15 * (id % 6) as u32;
                    blocked_req(id, at, 256, output, RequestClass::Interactive)
                })
                .collect(),
        );
        let engine = |paths| {
            let exec = ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::qwen_32b());
            let config = EngineConfig { record_timeline: true, ..EngineConfig::default() };
            let mut e = Engine::new(exec, Box::new(SizePolicy { threshold: 3 }), config);
            e.set_fast_paths(paths);
            e
        };
        let mut e = engine(FastPaths::MacroSteps);
        let report = e.run(&trace);
        assert_eq!(report.dump(), engine(FastPaths::Compiled).run(&trace).dump());
        for (plan, table) in e.plans.iter().zip(&e.decode_terms) {
            assert!(
                table.hits() > 0,
                "no capture under {} was served from the table",
                plan.config()
            );
        }
    }
}

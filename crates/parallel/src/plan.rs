//! Compiled cost-model pricing: per-config plans evaluated from one
//! shared batch summary.
//!
//! [`ExecutionModel::try_iteration`] re-derives everything on every call:
//! it re-plans the KV shard layout, re-folds per-chunk [`StepCost`]s, and
//! rebuilds the per-layer collective byte formulas from model constants.
//! Policies that price several candidate `(SP, TP)` configurations per
//! scheduling step repeat the chunk fold once *per config*, even though
//! the fold is config-independent.
//!
//! This module splits the evaluation:
//!
//! * [`ExecutionModel::summarize`] reduces a [`BatchWork`] to a
//!   [`BatchSummary`] once, shared by every config: the leading decode
//!   chunks are priced in closed form from their count and summed
//!   context ([`ModelConfig::decode_batch_cost`]), and only the chunks
//!   after them (prefills, speculative verifies) are folded one by one.
//!   [`ExecutionModel::summarize_after_decodes`] takes that count and
//!   sum directly, so a scheduler that knows them never builds the
//!   decode chunks;
//! * [`ExecPlan`] (built once per config by [`ExecutionModel::compile`])
//!   holds the validated [`KvShardLayout`] and every config- and
//!   model-derived constant of the Table 2 cost terms: padding divisors,
//!   the per-layer collective byte coefficients, the streamed-weight
//!   constants, and copies of the roofline/α–β calibration;
//! * [`ExecPlan::price`] evaluates one summary in O(1).
//!
//! The cost terms are affine in the batch statistics for a fixed config,
//! but *folding* the α–β model into `a + b·n_pad` coefficients would
//! re-associate f64 sums and drift from the reference by rounding. The
//! plan instead precomputes only what is exact — integer byte
//! coefficients, divisors, the layout fraction — and replays the direct
//! path's remaining float operations in the same order, so every plan
//! evaluation is **bit-identical** to `try_iteration`. Debug builds
//! assert exactly that on every [`ExecutionModel::price_planned`] /
//! [`ExecutionModel::price_all`] call, and the
//! `compiled_pricing_matches_direct` property test pins it across
//! randomized models, configs, and batches.

use crate::complexity::ACTIVATION_BYTES;
use crate::config::{BatchWork, ChunkKind, ChunkWork, ParallelConfig};
use crate::exec::{EngineOverhead, ExecutionModel, IterationBreakdown};
use sp_cluster::{CollectiveModel, Roofline};
use sp_kvcache::layout::LayoutError;
use sp_kvcache::KvShardLayout;
use sp_metrics::Dur;
use sp_model::{ModelConfig, StepCost};

/// Config-independent statistics of one batch, shared by every plan
/// evaluation.
///
/// Produced by [`ExecutionModel::summarize`]; the chunk costs equal, bit
/// for bit, their sum in chunk order with the prefill-linear-scale
/// already applied, exactly as `try_iteration` folds them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSummary {
    /// Summed per-chunk costs (prefill linear FLOPs pre-scaled).
    pub cost: StepCost,
    /// Total new tokens across chunks (pre-padding).
    pub total_new_tokens: u64,
    /// Batched sequences (one chunk each).
    pub num_seqs: usize,
}

impl BatchSummary {
    /// Whether the summarized batch had no chunks.
    pub fn is_empty(&self) -> bool {
        self.num_seqs == 0
    }
}

/// How the per-iteration streamed weight bytes depend on the padded batch
/// size: a constant for dense models, the touched-expert formula for MoE.
#[derive(Debug, Clone, Copy)]
enum StreamedWeights {
    /// Dense: every iteration streams all weights.
    Dense(u64),
    /// MoE: non-routed params always stream; routed experts stream in
    /// proportion to how many the batch touches.
    Moe { non_routed: u64, routed_total: u64, active: u64, experts: u64, prec: u64 },
}

impl StreamedWeights {
    fn of(model: &ModelConfig) -> StreamedWeights {
        let prec = model.weight_precision.bytes();
        match model.moe {
            None => StreamedWeights::Dense(model.total_params() * prec),
            Some(moe) => {
                let routed_per_layer = u64::from(moe.num_experts)
                    * 3
                    * u64::from(model.hidden_size)
                    * u64::from(moe.expert_intermediate);
                let routed_total = u64::from(model.num_layers) * routed_per_layer;
                StreamedWeights::Moe {
                    non_routed: model.total_params() - routed_total,
                    routed_total,
                    active: u64::from(moe.active_experts),
                    experts: u64::from(moe.num_experts),
                    prec,
                }
            }
        }
    }

    /// Mirrors `ModelConfig::streamed_weight_bytes` with the model
    /// constants pre-folded.
    fn bytes(&self, batch_tokens: u64) -> u64 {
        match *self {
            StreamedWeights::Dense(bytes) => bytes,
            StreamedWeights::Moe { non_routed, routed_total, active, experts, prec } => {
                let touched = (batch_tokens * active).min(experts);
                (non_routed + routed_total * touched / experts) * prec
            }
        }
    }
}

/// One `(SP, TP)` configuration's precompiled pricing surface.
///
/// Holds everything `try_iteration` derives per call that does not depend
/// on the batch: the validated KV shard layout, the padding and divisor
/// constants, the per-layer collective byte coefficients, the
/// streamed-weight constants, and copies of the roofline, collective, and
/// overhead calibration. [`ExecPlan::price`] then evaluates a
/// [`BatchSummary`] in a handful of operations, bit-identical to the
/// direct path.
#[derive(Debug, Clone, Copy)]
pub struct ExecPlan {
    config: ParallelConfig,
    layout: KvShardLayout,
    /// SP degree (padding multiple).
    sp: u64,
    /// TP degree (weight-shard divisor).
    tp: u64,
    /// Group size `sp * tp`, the all-to-all #2 divisor.
    sp_tp: u64,
    /// `config.degree()` for overhead scaling.
    p: usize,
    /// SP group size for the all-to-all / all-gather collectives.
    sp_group: usize,
    /// TP group size for the all-reduce collective.
    tp_group: usize,
    /// `(sp * tp) as f64`, the GEMM FLOP divisor.
    gemm_div: f64,
    /// `degree as f64`, the attention FLOP divisor.
    attn_div: f64,
    /// Per-GPU share of KV traffic (`layout.shard_fraction()`).
    kv_frac: f64,
    /// Embedding row bytes `hidden_size × ACTIVATION_BYTES` (all-reduce
    /// and all-gather coefficient).
    embed_row_bytes: u64,
    /// QKV row bytes `(h + 2·h_kv·replication) × head_dim × act`
    /// (all-to-all #1 coefficient, before the `/tp` shard).
    qkv_row_bytes: u64,
    /// Attention-output row bytes `h × head_dim × act` (all-to-all #2
    /// coefficient, before the `/(sp·tp)` shard).
    out_row_bytes: u64,
    /// `num_layers as f64` for the per-layer collective sum.
    layers: f64,
    streamed: StreamedWeights,
    roofline: Roofline,
    collectives: CollectiveModel,
    overhead: EngineOverhead,
}

impl ExecPlan {
    /// The configuration this plan was compiled for.
    pub fn config(&self) -> ParallelConfig {
        self.config
    }

    /// The validated KV shard layout reused by every evaluation.
    pub fn layout(&self) -> KvShardLayout {
        self.layout
    }

    /// Times one iteration of a summarized batch under this plan.
    ///
    /// Replays `try_iteration`'s float operations in the same order with
    /// the config/model constants pre-folded, so the result is
    /// bit-identical to the direct path on the same batch.
    pub fn price(&self, summary: &BatchSummary) -> IterationBreakdown {
        if summary.is_empty() {
            return IterationBreakdown::default();
        }
        let n = summary.total_new_tokens;
        let n_pad = n.div_ceil(self.sp) * self.sp;
        let pad_ratio = n_pad as f64 / n as f64;
        let cost = &summary.cost;

        // --- GEMM: linear + logit FLOPs vs weight streaming ---
        let linear_flops_pg = cost.linear_flops * pad_ratio / self.gemm_div;
        let logit_flops_pg = cost.logit_flops / self.gemm_div;
        let weight_bytes_pg = self.streamed.bytes(n_pad) / self.tp;
        let gemm = self.roofline.kernel(linear_flops_pg + logit_flops_pg, weight_bytes_pg);

        // --- Attention: head-parallel across the whole group ---
        let attn_flops_pg = cost.attn_flops / self.attn_div;
        let kv_bytes_pg = (cost.total_kv_bytes() as f64 * self.kv_frac) as u64;
        let attention = self.roofline.kernel(attn_flops_pg, kv_bytes_pg);

        // --- Communication: Algorithm 1 lines 4, 6, 8, 11, 13 ---
        let ar_time =
            self.collectives.all_reduce((n_pad / self.sp) * self.embed_row_bytes, self.tp_group);
        let a2a_time = self
            .collectives
            .all_to_all((n_pad / self.sp) * self.qkv_row_bytes / self.tp, self.sp_group)
            + self.collectives.all_to_all(n_pad * self.out_row_bytes / self.sp_tp, self.sp_group);
        let ag_time = self.collectives.all_gather(n_pad * self.embed_row_bytes, self.sp_group);
        let communication = Dur::from_secs(
            self.layers * (2.0 * ar_time.as_secs() + a2a_time.as_secs()) + ag_time.as_secs(),
        );

        let overhead = self.overhead.for_batch(summary.num_seqs, self.p);

        IterationBreakdown { gemm, attention, communication, overhead }
    }

    /// Partially evaluates [`ExecPlan::price`] for a run of pure-decode
    /// iterations. Run iteration `i` shares every summary field with
    /// `s0` except two, which grow by a fixed step per iteration:
    /// `attn_flops = s0.attn_flops + i·d_attn` and `kv_read_bytes =
    /// s0.kv_read_bytes + i·d_kv_read`. The GEMM, communication, and
    /// overhead terms depend only on the shared fields and are priced
    /// here once; [`DecodeRunPricer::price`] then recomputes just the
    /// attention kernel per iteration, with the identical float
    /// operations in the identical order, so its totals are bit-equal
    /// to `self.price(summary_i).total()` for every iteration's
    /// summary.
    pub fn decode_run_pricer(
        &self,
        s0: &BatchSummary,
        d_attn: f64,
        d_kv_read: u64,
    ) -> DecodeRunPricer {
        let priced = self.price(s0);
        DecodeRunPricer {
            gemm: priced.gemm,
            communication: priced.communication,
            overhead: priced.overhead,
            attn0: s0.cost.attn_flops,
            d_attn,
            kv0: s0.cost.total_kv_bytes(),
            d_kv: d_kv_read,
            attn_div: self.attn_div,
            kv_frac: self.kv_frac,
            mem_bw: self.roofline.gpu().effective_mem_bw(),
            roofline: self.roofline,
        }
    }
}

/// The per-iteration residue of a partially evaluated decode-run plan
/// (see [`ExecPlan::decode_run_pricer`]): the batch-constant breakdown
/// terms, the run's attention-load line, and exactly the constants the
/// attention kernel needs.
///
/// Both attention inputs are non-decreasing in the run's iteration
/// index, so once [`DecodeRunPricer::memory_bound`] has shown a stretch
/// of iterations memory bound at its ends,
/// [`DecodeRunPricer::price_memory_bound`] prices each of them with the
/// memory term alone: one division per iteration instead of three.
#[derive(Debug, Clone, Copy)]
pub struct DecodeRunPricer {
    gemm: Dur,
    communication: Dur,
    overhead: Dur,
    /// Attention FLOPs at run iteration 0.
    attn0: f64,
    /// Attention-FLOP growth per iteration.
    d_attn: f64,
    /// KV traffic (reads plus the run-constant writes) at iteration 0.
    kv0: u64,
    /// KV-read growth per iteration.
    d_kv: u64,
    /// `degree as f64`, the attention FLOP divisor.
    attn_div: f64,
    /// Per-GPU share of KV traffic.
    kv_frac: f64,
    /// [`Roofline::memory`]'s divisor, the GPU's effective bandwidth.
    mem_bw: f64,
    roofline: Roofline,
}

impl DecodeRunPricer {
    /// The attention kernel's per-GPU FLOPs and per-GPU bytes at run
    /// iteration `i`, in `ExecPlan::price`'s float-op order.
    #[inline]
    fn attention_load(&self, i: u64) -> (f64, u64) {
        let attn_flops = self.attn0 + i as f64 * self.d_attn;
        let kv_bytes = self.kv0 + i * self.d_kv;
        (attn_flops / self.attn_div, (kv_bytes as f64 * self.kv_frac) as u64)
    }

    /// The left-to-right component sum of `price(...).total()`.
    #[inline]
    fn total(&self, attention: Dur) -> Dur {
        self.gemm + attention + self.communication + self.overhead
    }

    /// Total latency of run iteration `i`: the attention kernel's full
    /// roofline (both terms), then the same left-to-right component sum
    /// as `price(...).total()`.
    #[inline]
    pub fn price(&self, i: u64) -> Dur {
        let (flops, bytes) = self.attention_load(i);
        self.total(self.roofline.kernel(flops, bytes))
    }

    /// Whether run iterations `i..=j` are a *memory-bound stretch*: the
    /// attention kernel's compute term at `j` is at most its memory term
    /// at `i`. Both terms are non-decreasing in the iteration index
    /// (each is a chain of additions, multiplications by non-negative
    /// constants, divisions by positive constants and conversions, all
    /// of which round monotonically), so every iteration `k` between
    /// them has `compute(k) ≤ compute(j) ≤ memory(i) ≤ memory(k)`, and
    /// [`Roofline::kernel`]'s `max` returns the memory term bit for bit.
    ///
    /// Also proves [`DecodeRunPricer::price_memory_bound`]'s signed
    /// conversions exact, since the byte count and its per-GPU share
    /// stay below 2^63 up to `j`, and its memory term a valid [`Dur`],
    /// since the bandwidth is positive and the term at `j` finite.
    /// `false` when a proof fails (a compute-bound GPU, say);
    /// [`DecodeRunPricer::price`] then prices each iteration with both
    /// terms.
    pub fn memory_bound(&self, i: u64, j: u64) -> bool {
        /// 2^63, the first value an `i64` cannot hold.
        const I64_END: f64 = 9_223_372_036_854_775_808.0;
        debug_assert!(i <= j, "a stretch runs forward");
        let Some(bytes_j) = self.d_kv.checked_mul(j).and_then(|b| b.checked_add(self.kv0)) else {
            return false;
        };
        let monotone_and_signed =
            bytes_j < 1 << 63 && bytes_j as f64 * self.kv_frac < I64_END && self.d_attn >= 0.0;
        if !monotone_and_signed {
            return false;
        }
        let (flops_j, bytes_pg_j) = self.attention_load(j);
        if !(self.mem_bw > 0.0 && (bytes_pg_j as f64 / self.mem_bw).is_finite()) {
            return false;
        }
        let (_, bytes_i) = self.attention_load(i);
        self.roofline.compute(flops_j) <= self.roofline.memory(bytes_i)
    }

    /// Total latency of run iteration `i` inside a stretch that
    /// [`DecodeRunPricer::memory_bound`] proved: [`Roofline::memory`]'s
    /// formula on the iteration's per-GPU bytes, then the same component
    /// sum as [`DecodeRunPricer::price`], so the two are bit-equal
    /// there. The byte counts convert through `i64`, which rounds like
    /// the `u64` conversions for every value below 2^63 and costs one
    /// instruction where `u64` costs a branch sequence.
    #[inline]
    pub fn price_memory_bound(&self, i: u64) -> Dur {
        let bytes = (self.kv0 + i * self.d_kv) as i64;
        let bytes_pg = (bytes as f64 * self.kv_frac) as i64;
        // The stretch's proof bounds the quotient: `bytes_pg` lies in
        // `0..=` its value at the stretch's last iteration, below 2^63,
        // and the bandwidth is positive with a finite quotient there, so
        // it is finite and non-negative here too. `Dur::from_secs` would
        // check that again on every iteration.
        self.total(Dur::from_secs_unchecked(bytes_pg as f64 / self.mem_bw))
    }
}

impl ExecutionModel {
    /// Compiles the pricing plan for one configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] exactly when
    /// [`ExecutionModel::try_iteration`] would for the same config.
    pub fn compile(&self, config: &ParallelConfig) -> Result<ExecPlan, LayoutError> {
        let p = config.degree();
        let layout = KvShardLayout::for_model(&self.model, p)?;
        let sp = config.sp() as u64;
        let tp = config.tp() as u64;
        let head_dim = u64::from(self.model.head_dim);
        let qkv_width = u64::from(self.model.q_heads)
            + 2 * u64::from(self.model.kv_heads) * u64::from(layout.replication());
        Ok(ExecPlan {
            config: *config,
            layout,
            sp,
            tp,
            sp_tp: sp * tp,
            p,
            sp_group: config.sp(),
            tp_group: config.tp(),
            gemm_div: (sp * tp) as f64,
            attn_div: p as f64,
            kv_frac: layout.shard_fraction(),
            embed_row_bytes: u64::from(self.model.hidden_size) * ACTIVATION_BYTES,
            qkv_row_bytes: qkv_width * head_dim * ACTIVATION_BYTES,
            out_row_bytes: u64::from(self.model.q_heads) * head_dim * ACTIVATION_BYTES,
            layers: u64::from(self.model.num_layers) as f64,
            streamed: StreamedWeights::of(&self.model),
            roofline: self.roofline,
            collectives: self.collectives,
            overhead: self.overhead,
        })
    }

    /// Compiles a plan per configuration (e.g. a policy's candidate set).
    ///
    /// # Errors
    ///
    /// Returns the first [`LayoutError`] among the configs.
    pub fn compile_configs(
        &self,
        configs: &[ParallelConfig],
    ) -> Result<Vec<ExecPlan>, LayoutError> {
        configs.iter().map(|c| self.compile(c)).collect()
    }

    /// Folds a batch into the config-independent statistics every plan
    /// evaluation consumes — the chunk-cost sum (with the
    /// prefill-linear-scale applied per chunk, in chunk order, matching
    /// `try_iteration`), total new tokens, and sequence count.
    ///
    /// The batch's leading run of plain one-token decode chunks (where
    /// the scheduler puts every decode) is priced in closed form by
    /// [`ExecutionModel::summarize_after_decodes`]; when that formula's
    /// exactness guard declines, the whole batch folds chunk by chunk.
    pub fn summarize(&self, batch: &BatchWork) -> BatchSummary {
        let chunks = batch.chunks();
        let mut run = 0;
        let mut attended = 0u64;
        for c in chunks {
            if c.kind != ChunkKind::Decode || c.new_tokens != 1 || !c.emits_logit {
                break;
            }
            run += 1;
            attended = attended.saturating_add(c.past.saturating_add(1));
        }
        self.summarize_after_decodes(run as u64, attended, &chunks[run..])
            .unwrap_or_else(|| self.fold_onto(StepCost::default(), 0, chunks))
    }

    /// The summary of a batch that leads with `n` plain one-token decode
    /// chunks whose attended positions (`past + 1` each) sum to
    /// `attended`, followed by the chunks of `rest`: the decodes are
    /// priced in closed form by [`ModelConfig::decode_batch_cost`], and
    /// `rest` folds on top in order. Under that formula's exactness
    /// guard the decodes' per-chunk fold is integer arithmetic below
    /// 2^53, so the result equals, bit for bit, [`summarize`] of the
    /// materialized batch in any decode order. `None` when the guard
    /// declines; the caller then folds the materialized batch.
    ///
    /// [`summarize`]: ExecutionModel::summarize
    pub fn summarize_after_decodes(
        &self,
        n: u64,
        attended: u64,
        rest: &[ChunkWork],
    ) -> Option<BatchSummary> {
        let lead = self.model.decode_batch_cost(n, attended)?;
        Some(self.fold_onto(lead, n, rest))
    }

    /// Folds `rest`'s chunk costs onto `lead`, the summed cost of `n`
    /// one-token chunks, in chunk order (prefill linear FLOPs scaled
    /// per chunk, as `try_iteration` folds them).
    fn fold_onto(&self, lead: StepCost, n: u64, rest: &[ChunkWork]) -> BatchSummary {
        let mut cost = lead;
        let mut total_new_tokens = n;
        for c in rest {
            let mut cc = self.model.chunk_cost(c.new_tokens, c.past, u64::from(c.emits_logit));
            if c.kind == ChunkKind::Prefill {
                cc.linear_flops *= self.prefill_linear_scale;
            }
            cost = cost + cc;
            total_new_tokens += c.new_tokens;
        }
        BatchSummary { cost, total_new_tokens, num_seqs: n as usize + rest.len() }
    }

    /// Times one iteration through a compiled plan.
    ///
    /// Debug builds assert the result is bit-identical to
    /// [`ExecutionModel::try_iteration`] on every call; `try_iteration`
    /// stays the executable reference.
    pub fn price_planned(&self, plan: &ExecPlan, batch: &BatchWork) -> IterationBreakdown {
        let summary = self.summarize(batch);
        let out = plan.price(&summary);
        debug_assert_eq!(
            out,
            self.try_iteration(&plan.config(), batch)
                .expect("compiled plan implies a valid layout"),
            "compiled pricing diverged from try_iteration for {}",
            plan.config()
        );
        out
    }

    /// Prices one batch under every plan from a single shared summary —
    /// the multi-config fast path for policy pricing: the O(chunks) fold
    /// runs once, then each plan evaluates in O(1).
    ///
    /// Debug builds assert each evaluation against the direct path.
    pub fn price_all(&self, plans: &[ExecPlan], batch: &BatchWork) -> Vec<IterationBreakdown> {
        let summary = self.summarize(batch);
        plans
            .iter()
            .map(|plan| {
                let out = plan.price(&summary);
                debug_assert_eq!(
                    out,
                    self.try_iteration(&plan.config(), batch)
                        .expect("compiled plan implies a valid layout"),
                    "compiled pricing diverged from try_iteration for {}",
                    plan.config()
                );
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sp_cluster::NodeSpec;
    use sp_model::presets;

    fn exec(model: ModelConfig) -> ExecutionModel {
        ExecutionModel::new(NodeSpec::p5en_48xlarge(), model)
    }

    #[test]
    fn compile_rejects_what_try_iteration_rejects() {
        // Qwen-30B-A3B has 4 KV heads: degree 3 is unshardable.
        let e = exec(presets::qwen_30b_a3b());
        let bad = ParallelConfig::sequence(3);
        assert_eq!(
            e.compile(&bad).unwrap_err(),
            e.try_iteration(&bad, &BatchWork::uniform_decode(1, 16)).unwrap_err()
        );
        assert!(e.compile_configs(&[ParallelConfig::tensor(4), bad]).is_err());
    }

    #[test]
    fn empty_batch_prices_to_zero() {
        let e = exec(presets::llama_70b());
        let plan = e.compile(&ParallelConfig::tensor(8)).unwrap();
        let it = plan.price(&e.summarize(&BatchWork::default()));
        assert_eq!(it.total(), Dur::ZERO);
    }

    #[test]
    fn price_all_matches_per_config_iterations() {
        // A shift policy's candidate set: base (SP=4, TP=2) plus the
        // full-TP shift config, priced from one summary.
        let e = exec(presets::llama_70b());
        let configs = [ParallelConfig::new(4, 2), ParallelConfig::tensor(8)];
        let plans = e.compile_configs(&configs).unwrap();
        let batch = BatchWork::new(vec![
            ChunkWork::prefill(2048, 0, false),
            ChunkWork::decode(700),
            ChunkWork::decode(9001),
        ]);
        let priced = e.price_all(&plans, &batch);
        for (cfg, got) in configs.iter().zip(&priced) {
            assert_eq!(*got, e.iteration(cfg, &batch));
        }
    }

    #[test]
    fn moe_plan_streams_touched_experts() {
        // The MoE streamed-weight formula must survive constant folding:
        // a one-token decode touches few experts, a large prefill all.
        let e = exec(presets::qwen_30b_a3b());
        let plan = e.compile(&ParallelConfig::tensor(4)).unwrap();
        let small = plan.price(&e.summarize(&BatchWork::uniform_decode(1, 128)));
        let big = plan.price(&e.summarize(&BatchWork::single_prefill(10_000)));
        assert_eq!(
            small,
            e.iteration(&ParallelConfig::tensor(4), &BatchWork::uniform_decode(1, 128))
        );
        assert!(big.gemm > small.gemm);
    }

    #[test]
    fn prefill_scale_flows_through_summary() {
        let mut e = exec(presets::llama_70b());
        e.set_prefill_flops_scale(0.5);
        let plan = e.compile(&ParallelConfig::sequence(8)).unwrap();
        let batch = BatchWork::new(vec![ChunkWork::prefill(4999, 17, true), ChunkWork::decode(64)]);
        assert_eq!(
            plan.price(&e.summarize(&batch)),
            e.iteration(&ParallelConfig::sequence(8), &batch)
        );
    }

    /// Asserts `summarize`'s cost equals, bit for bit, the plain
    /// in-order fold of every chunk that `try_iteration` performs. The
    /// price alone can hide a drifted summary (the roofline `max` often
    /// masks attention FLOPs), so the summary is compared directly.
    fn assert_summary_is_plain_fold(e: &ExecutionModel, batch: &BatchWork) {
        assert_eq!(summary_bits(&e.summarize(batch)), summary_bits(&plain_fold(e, batch)));
    }

    /// The summary `try_iteration` folds: every chunk's cost in order.
    fn plain_fold(e: &ExecutionModel, batch: &BatchWork) -> BatchSummary {
        let cost = batch
            .chunks()
            .iter()
            .map(|c| {
                let mut cc = e.model().chunk_cost(c.new_tokens, c.past, u64::from(c.emits_logit));
                if c.kind == ChunkKind::Prefill {
                    cc.linear_flops *= e.prefill_linear_scale;
                }
                cc
            })
            .sum();
        BatchSummary {
            cost,
            total_new_tokens: batch.total_new_tokens(),
            num_seqs: batch.num_seqs(),
        }
    }

    /// A summary's fields as bits, so equality is bit-for-bit.
    fn summary_bits(s: &BatchSummary) -> [u64; 7] {
        let c = &s.cost;
        [
            c.linear_flops.to_bits(),
            c.attn_flops.to_bits(),
            c.logit_flops.to_bits(),
            c.kv_read_bytes,
            c.kv_write_bytes,
            s.total_new_tokens,
            s.num_seqs as u64,
        ]
    }

    #[test]
    fn summarize_falls_back_past_the_guard() {
        // Three Llama-70B decodes near 2^31 context attend more than
        // 2^53 FLOPs' worth of positions: the closed form declines and
        // the summary must still be the plain in-order fold.
        let mut e = exec(presets::llama_70b());
        e.set_prefill_flops_scale(0.6);
        let ctx = 1u64 << 31;
        let batch = BatchWork::new(vec![
            ChunkWork::decode(ctx),
            ChunkWork::decode(ctx + 7),
            ChunkWork::decode(ctx + 3),
            ChunkWork::prefill(777, 5, true),
        ]);
        assert!(e.model().decode_batch_cost(3, 3 * ctx + 13).is_none());
        assert_summary_is_plain_fold(&e, &batch);
        let config = ParallelConfig::tensor(8);
        assert_eq!(
            e.compile(&config).unwrap().price(&e.summarize(&batch)),
            e.iteration(&config, &batch)
        );
    }

    fn arb_prefill() -> impl Strategy<Value = ChunkWork> {
        (1u64..3000, 0u64..60_000, any::<bool>())
            .prop_map(|(new_tokens, past, emits)| ChunkWork::prefill(new_tokens, past, emits))
    }

    /// Random batches spanning the edge cases the plan must preserve:
    /// empty batches, SP padding (`n_pad > n` whenever the token total
    /// is not a multiple of SP), logit-emitting and silent chunks, and
    /// decode-led batches as large as the engine builds (up to 300
    /// decodes, then up to 3 prefills) whose contexts reach 2^34, so
    /// both the closed-form decode pricing and its fallback fold run.
    fn arb_batch() -> impl Strategy<Value = BatchWork> {
        let mixed = prop::collection::vec(
            (any::<bool>(), 1u64..3000, 0u64..60_000, any::<bool>()).prop_map(
                |(is_prefill, new_tokens, past, emits)| {
                    if is_prefill {
                        ChunkWork::prefill(new_tokens, past, emits)
                    } else {
                        ChunkWork::decode(past)
                    }
                },
            ),
            0..6,
        )
        .prop_map(BatchWork::new);
        // `shift` scales every context of a batch down together, so
        // batches land on both sides of the exactness guard.
        let decode_led = (
            prop::collection::vec(0u64..(1 << 34), 1..301),
            0u32..35,
            prop::collection::vec(arb_prefill(), 0..4),
        )
            .prop_map(|(raw, shift, prefills)| {
                let decodes = raw.into_iter().map(|r| ChunkWork::decode(r >> shift));
                BatchWork::new(decodes.chain(prefills).collect())
            });
        prop_oneof![mixed, decode_led]
    }

    /// What may follow a scheduler's decodes: prefill chunks,
    /// speculative verifies and plain decodes.
    fn arb_rest_chunk() -> impl Strategy<Value = ChunkWork> {
        prop_oneof![
            arb_prefill(),
            (0u64..60_000, 1u32..8)
                .prop_map(|(past, draft)| ChunkWork::speculative_decode(past, draft)),
            (0u64..60_000).prop_map(ChunkWork::decode),
        ]
    }

    proptest! {
        /// The closed-form decode lead a scheduler prices without
        /// building its chunks equals the summary of the materialized
        /// batch, bit for bit — `summarize`'s and the plain in-order fold
        /// of every chunk — and declines exactly where the guard does.
        #[test]
        fn summarize_after_decodes_matches_summarize(
            preset in 0usize..4,
            scale_prefill in any::<bool>(),
            contexts in prop::collection::vec(0u64..(1 << 34), 0..301),
            shift in 0u32..35,
            rest in prop::collection::vec(arb_rest_chunk(), 0..5),
        ) {
            let model = match preset {
                0 => presets::llama_70b(),
                1 => presets::qwen_32b(),
                2 => presets::qwen_30b_a3b(),
                _ => presets::llama_17b_16e(),
            };
            let mut e = exec(model);
            if scale_prefill {
                e.set_prefill_flops_scale(0.6);
            }
            let decodes: Vec<ChunkWork> =
                contexts.iter().map(|&c| ChunkWork::decode(c >> shift)).collect();
            let n = decodes.len() as u64;
            let attended: u64 = decodes.iter().map(|c| c.past + 1).sum();
            let full = BatchWork::new(decodes.into_iter().chain(rest.iter().copied()).collect());
            let got = e.summarize_after_decodes(n, attended, &rest);
            prop_assert_eq!(got.is_none(), e.model().decode_batch_cost(n, attended).is_none());
            if let Some(got) = got {
                prop_assert_eq!(summary_bits(&got), summary_bits(&e.summarize(&full)));
                prop_assert_eq!(summary_bits(&got), summary_bits(&plain_fold(&e, &full)));
            }
        }

        #[test]
        fn compiled_pricing_matches_direct(
            preset in 0usize..4,
            sp_pow in 0u32..4,
            tp_pow in 0u32..4,
            scale_prefill in any::<bool>(),
            batch in arb_batch(),
        ) {
            // qwen_30b_a3b (4 KV heads) exercises KV-head replication at
            // degree 8; llama_17b_16e covers a second MoE shape.
            let model = match preset {
                0 => presets::llama_70b(),
                1 => presets::qwen_32b(),
                2 => presets::qwen_30b_a3b(),
                _ => presets::llama_17b_16e(),
            };
            let mut e = exec(model);
            if scale_prefill {
                e.set_prefill_flops_scale(0.6);
            }
            let config = ParallelConfig::new(1 << sp_pow, 1 << tp_pow);
            match (e.compile(&config), e.try_iteration(&config, &batch)) {
                (Err(ce), Err(de)) => prop_assert_eq!(ce, de),
                (Ok(plan), Ok(direct)) => {
                    // Bit-identical, not approximately equal: the plan
                    // replays the direct path's float ops in order.
                    assert_summary_is_plain_fold(&e, &batch);
                    let summary = e.summarize(&batch);
                    prop_assert_eq!(plan.price(&summary), direct);
                    // And the asserting wrappers agree with themselves.
                    prop_assert_eq!(e.price_planned(&plan, &batch), direct);
                    prop_assert_eq!(e.price_all(&[plan], &batch), vec![direct]);
                }
                (c, d) => prop_assert!(
                    false,
                    "compile ({:?}) and try_iteration ({:?}) disagree on validity",
                    c.map(|p| p.config()),
                    d
                ),
            }
        }
    }
}

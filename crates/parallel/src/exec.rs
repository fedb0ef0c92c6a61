//! The Algorithm 1 cost walk: timing one serving iteration.
//!
//! Given a batch of chunks and an `(SP, TP)` configuration, the execution
//! model walks the combined-parallel forward pass of Algorithm 1 and
//! charges each resource:
//!
//! * **GEMM time** — per-GPU linear FLOPs `f(n,w)/(SP·TP)` roofline-maxed
//!   against weight streaming `w/TP` (SP replicates weights across the SP
//!   group — the root cause of SP's poor decode TPOT, Table 1);
//! * **attention time** — per-GPU attention FLOPs roofline-maxed against
//!   the per-GPU KV-cache traffic (including replication overhead when the
//!   degree exceeds the KV head count);
//! * **communication** — per layer: two TP all-reduces of the `n/SP × d`
//!   embedding and two SP all-to-alls of the head-sharded QKV/attention
//!   buffers, plus one final SP all-gather (Algorithm 1 lines 4, 6, 8, 11,
//!   13);
//! * **engine overhead** — the vLLM CPU cost per iteration that §4.4
//!   identifies as significant for small models.
//!
//! SP **load-balance padding** (§3.2.1) pads the batched tokens up to a
//! multiple of SP before splitting the sequence, charging the redundant
//! tokens' linear FLOPs and communication.

use crate::complexity::ACTIVATION_BYTES;
use crate::config::{BatchWork, ParallelConfig};
use sp_cluster::{CollectiveModel, NodeSpec, Roofline};
use sp_kvcache::layout::LayoutError;
use sp_kvcache::KvShardLayout;
use sp_metrics::Dur;
use sp_model::{DecodeBatchCost, ModelConfig};

/// Per-iteration CPU cost of the serving framework (scheduler, python
/// glue, sampling, worker coordination).
///
/// The per-sequence term scales with the parallel degree: every worker in
/// a TP/SP group handles each sequence's sampling metadata, which is the
/// "vLLM parallelization cost" §4.4 identifies as a large part of the
/// DP-vs-SP throughput gap (and why small MoE models lose so much
/// throughput when parallelized, Figure 17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOverhead {
    /// Cost paid by every iteration.
    pub base: Dur,
    /// Additional cost per batched sequence per GPU in the group.
    pub per_seq: Dur,
}

impl EngineOverhead {
    /// Calibrated vLLM v0.9-like overhead: ~2.5 ms per iteration plus
    /// 5 µs per sequence per worker.
    pub fn vllm_like() -> EngineOverhead {
        EngineOverhead { base: Dur::from_millis(2.5), per_seq: Dur::from_micros(5.0) }
    }

    /// No overhead (for isolating the forward-pass costs, Figure 15's
    /// "remove the forward pass" methodology in reverse).
    pub fn none() -> EngineOverhead {
        EngineOverhead { base: Dur::ZERO, per_seq: Dur::ZERO }
    }

    /// Overhead for one iteration of `seqs` batched sequences on a
    /// `degree`-GPU group.
    pub fn for_batch(&self, seqs: usize, degree: usize) -> Dur {
        self.base + self.per_seq * (seqs * degree) as f64
    }
}

impl Default for EngineOverhead {
    fn default() -> EngineOverhead {
        EngineOverhead::vllm_like()
    }
}

/// Where one iteration's time went — the Figure 15 cost breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IterationBreakdown {
    /// Linear-layer time (GEMM compute vs weight streaming roofline).
    pub gemm: Dur,
    /// Attention time (score/value compute vs KV traffic roofline).
    pub attention: Dur,
    /// Collective-communication time.
    pub communication: Dur,
    /// Serving-framework CPU overhead.
    pub overhead: Dur,
}

impl IterationBreakdown {
    /// Total iteration latency (components execute sequentially).
    pub fn total(&self) -> Dur {
        self.gemm + self.attention + self.communication + self.overhead
    }
}

/// Times iterations of one model on one node under any `(SP, TP)` config.
///
/// # Examples
///
/// ```
/// use sp_cluster::NodeSpec;
/// use sp_model::presets;
/// use sp_parallel::{BatchWork, ExecutionModel, ParallelConfig};
///
/// let exec = ExecutionModel::new(NodeSpec::p5en_48xlarge(), presets::llama_70b());
/// let decode = BatchWork::uniform_decode(1, 4096);
/// // Full TP minimizes decode latency (weights split 8 ways):
/// let tp = exec.iteration(&ParallelConfig::tensor(8), &decode).total();
/// let sp = exec.iteration(&ParallelConfig::sequence(8), &decode).total();
/// assert!(tp < sp);
/// ```
#[derive(Debug, Clone)]
pub struct ExecutionModel {
    pub(crate) node: NodeSpec,
    pub(crate) model: ModelConfig,
    pub(crate) overhead: EngineOverhead,
    pub(crate) roofline: Roofline,
    pub(crate) collectives: CollectiveModel,
    pub(crate) prefill_linear_scale: f64,
    /// `model`'s decode-batch constants, compiled at construction.
    pub(crate) decode: DecodeBatchCost,
}

impl ExecutionModel {
    /// Creates a model with the default (vLLM-like) engine overhead.
    pub fn new(node: NodeSpec, model: ModelConfig) -> ExecutionModel {
        ExecutionModel::with_overhead(node, model, EngineOverhead::default())
    }

    /// Creates a model with explicit engine overhead.
    ///
    /// # Panics
    ///
    /// Panics if `model` fails validation.
    pub fn with_overhead(
        node: NodeSpec,
        model: ModelConfig,
        overhead: EngineOverhead,
    ) -> ExecutionModel {
        model.validate().expect("invalid model config");
        ExecutionModel {
            roofline: Roofline::new(node.gpu),
            collectives: CollectiveModel::new(node.interconnect),
            decode: DecodeBatchCost::new(&model),
            node,
            model,
            overhead,
            prefill_linear_scale: 1.0,
        }
    }

    /// Scales the linear-layer FLOPs of *prefill* chunks — the hook used
    /// by SwiftKV-style prefill-compute reduction (§4.5).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn set_prefill_flops_scale(&mut self, scale: f64) {
        assert!(scale > 0.0 && scale <= 1.0, "prefill FLOPs scale must be in (0, 1]");
        self.prefill_linear_scale = scale;
    }

    /// The node this model runs on.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// The model being served.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// [`ModelConfig::decode_batch_cost`] of the served model, its
    /// constants compiled once at construction.
    pub fn decode_batch(&self) -> &DecodeBatchCost {
        &self.decode
    }

    /// The configured engine overhead.
    pub fn overhead(&self) -> EngineOverhead {
        self.overhead
    }

    /// Times one iteration, panicking on invalid configurations.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's degree exceeds the node or the KV
    /// heads cannot be distributed (see [`ExecutionModel::try_iteration`]).
    pub fn iteration(&self, config: &ParallelConfig, batch: &BatchWork) -> IterationBreakdown {
        self.try_iteration(config, batch)
            .unwrap_or_else(|e| panic!("cannot run {} on {}: {e}", config, self.model.name))
    }

    /// Times one iteration of `batch` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the KV heads cannot be evenly distributed
    /// or replicated across `config.degree()` GPUs.
    pub fn try_iteration(
        &self,
        config: &ParallelConfig,
        batch: &BatchWork,
    ) -> Result<IterationBreakdown, LayoutError> {
        let p = config.degree();
        let layout = KvShardLayout::for_model(&self.model, p)?;
        if batch.is_empty() {
            return Ok(IterationBreakdown::default());
        }

        let sp = config.sp() as u64;
        let tp = config.tp() as u64;
        let n = batch.total_new_tokens();
        // §3.2.1 load-balance padding: round the batch up to a multiple of
        // the SP degree so the sequence splits evenly.
        let n_pad = n.div_ceil(sp) * sp;
        let pad_ratio = n_pad as f64 / n as f64;

        // Accumulate per-chunk costs, applying the SwiftKV-style scale to
        // prefill linear FLOPs only.
        let cost: sp_model::StepCost = batch
            .chunks()
            .iter()
            .map(|c| {
                let mut cc = self.model.chunk_cost(c.new_tokens, c.past, u64::from(c.emits_logit));
                if c.kind == crate::config::ChunkKind::Prefill {
                    cc.linear_flops *= self.prefill_linear_scale;
                }
                cc
            })
            .sum();

        // --- GEMM: linear + logit FLOPs vs weight streaming ---
        let linear_flops_pg = cost.linear_flops * pad_ratio / (sp * tp) as f64;
        let logit_flops_pg = cost.logit_flops / (sp * tp) as f64;
        let weight_bytes_pg = self.model.streamed_weight_bytes(n_pad) / tp;
        let gemm = self.roofline.kernel(linear_flops_pg + logit_flops_pg, weight_bytes_pg);

        // --- Attention: head-parallel across the whole group ---
        let attn_flops_pg = cost.attn_flops / p as f64;
        // Per-GPU share of KV traffic; replication means each GPU still
        // holds (and reads) at least one full head.
        let kv_frac = f64::from(layout.heads_per_gpu()) / f64::from(self.model.kv_heads);
        let kv_bytes_pg = (cost.total_kv_bytes() as f64 * kv_frac) as u64;
        let attention = self.roofline.kernel(attn_flops_pg, kv_bytes_pg);

        // --- Communication: Algorithm 1 lines 4, 6, 8, 11, 13 ---
        let layers = u64::from(self.model.num_layers);
        let d = u64::from(self.model.hidden_size);
        let head_dim = u64::from(self.model.head_dim);
        let act = ACTIVATION_BYTES;

        // TP all-reduces the n/SP × d embedding after attention-o and after
        // mlp-down (lines 8, 11).
        let ar_bytes = (n_pad / sp) * d * act;
        let ar_time = self.collectives.all_reduce(ar_bytes, tp as usize);

        // SP all-to-all #1 (line 4): each rank's local QKV buffer,
        // n/SP rows × (h + 2·h_kv·replication)/TP head-columns. KV-cache
        // replication widens the send buffer (§3.2.1).
        let qkv_width = u64::from(self.model.q_heads)
            + 2 * u64::from(self.model.kv_heads) * u64::from(layout.replication());
        let a2a1_bytes = (n_pad / sp) * qkv_width * head_dim * act / tp;
        // SP all-to-all #2 (line 6): attention output, n rows ×
        // h/(SP·TP) head-columns per rank.
        let a2a2_bytes = n_pad * u64::from(self.model.q_heads) * head_dim * act / (sp * tp);
        let a2a_time = self.collectives.all_to_all(a2a1_bytes, sp as usize)
            + self.collectives.all_to_all(a2a2_bytes, sp as usize);

        // Final all-gather of output embeddings (line 13), once per pass.
        let ag_time = self.collectives.all_gather(n_pad * d * act, sp as usize);

        let communication = Dur::from_secs(
            layers as f64 * (2.0 * ar_time.as_secs() + a2a_time.as_secs()) + ag_time.as_secs(),
        );

        let overhead = self.overhead.for_batch(batch.num_seqs(), p);

        Ok(IterationBreakdown { gemm, attention, communication, overhead })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChunkWork;
    use proptest::prelude::*;
    use sp_model::presets;

    fn exec(model: ModelConfig) -> ExecutionModel {
        ExecutionModel::new(NodeSpec::p5en_48xlarge(), model)
    }

    fn exec_no_overhead(model: ModelConfig) -> ExecutionModel {
        ExecutionModel::with_overhead(NodeSpec::p5en_48xlarge(), model, EngineOverhead::none())
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let e = exec(presets::llama_70b());
        let it = e.iteration(&ParallelConfig::tensor(8), &BatchWork::default());
        assert_eq!(it.total(), Dur::ZERO);
    }

    #[test]
    fn sp_prefill_beats_tp_prefill() {
        // Figure 12: SP's all-to-all communication is far cheaper than
        // TP's all-reduce for large token counts.
        let e = exec_no_overhead(presets::llama_70b());
        let prefill = BatchWork::single_prefill(4096);
        let tp = e.iteration(&ParallelConfig::tensor(8), &prefill);
        let sp = e.iteration(&ParallelConfig::sequence(8), &prefill);
        assert!(sp.communication < tp.communication);
        let ratio = tp.total().as_secs() / sp.total().as_secs();
        assert!(
            (1.2..2.2).contains(&ratio),
            "TP/SP prefill ratio {ratio:.2}, expected ~1.5x (paper: 1.56x)"
        );
    }

    #[test]
    fn dp_prefill_is_much_slower_than_sp() {
        // Figure 13: up to 6.97x faster response than DP.
        let e = exec_no_overhead(presets::llama_70b());
        let prefill = BatchWork::single_prefill(4096);
        let dp = e.iteration(&ParallelConfig::single(), &prefill);
        let sp = e.iteration(&ParallelConfig::sequence(8), &prefill);
        let ratio = dp.total().as_secs() / sp.total().as_secs();
        assert!((4.0..9.0).contains(&ratio), "DP/SP prefill ratio {ratio:.2}");
    }

    #[test]
    fn tp_decode_beats_sp_decode_at_batch_one() {
        // Table 1: SP has the worst TPOT — weights are replicated across
        // the SP group so decode streams the full model per GPU.
        let e = exec(presets::llama_70b());
        let decode = BatchWork::uniform_decode(1, 4096);
        let tp = e.iteration(&ParallelConfig::tensor(8), &decode);
        let sp = e.iteration(&ParallelConfig::sequence(8), &decode);
        assert!(sp.gemm.as_secs() > 5.0 * tp.gemm.as_secs());
        assert!(tp.total() < sp.total());
    }

    #[test]
    fn tp_decode_tpot_matches_paper_magnitude() {
        // Figure 12: best TPOT ~9.3 ms for Llama-70B.
        let e = exec(presets::llama_70b());
        let decode = BatchWork::uniform_decode(1, 4096);
        let tpot = e.iteration(&ParallelConfig::tensor(8), &decode).total().as_millis();
        assert!((5.0..16.0).contains(&tpot), "TP decode TPOT {tpot:.1} ms");
    }

    #[test]
    fn sp_saturated_throughput_beats_tp() {
        // Figure 12: Shift/SP keeps ~1.5x the saturated throughput of TP.
        let e = exec(presets::llama_70b());
        let batch = BatchWork::new(vec![ChunkWork::prefill(2048, 0, false); 4]);
        let tokens = batch.total_new_tokens() as f64;
        let tp_tput = tokens / e.iteration(&ParallelConfig::tensor(8), &batch).total().as_secs();
        let sp_tput = tokens / e.iteration(&ParallelConfig::sequence(8), &batch).total().as_secs();
        let ratio = sp_tput / tp_tput;
        assert!((1.25..1.9).contains(&ratio), "SP/TP throughput ratio {ratio:.2}");
    }

    #[test]
    fn padding_penalizes_tiny_sp_batches() {
        // §3.2.1: batch 9 on SP=8 pads to 16 — measurable extra GEMM work
        // relative to the unpadded (1, 8) run of the same batch.
        let e = exec_no_overhead(presets::llama_70b());
        let batch = BatchWork::uniform_decode(9, 128);
        let sp = e.iteration(&ParallelConfig::sequence(8), &batch);
        let tp = e.iteration(&ParallelConfig::tensor(8), &batch);
        // Same linear FLOPs before padding; SP pays 16/9 of them (though
        // its GEMM may still be weight-bound). Check the compute side via
        // communication-free comparison of totals at least not absurd:
        assert!(sp.total() > tp.total());
    }

    #[test]
    fn moe_replication_enables_eight_gpus() {
        // Qwen-30B-A3B has 4 KV heads: degree 8 requires replication and
        // must succeed (§4.6), degree 3 must fail.
        let e = exec(presets::qwen_30b_a3b());
        let batch = BatchWork::uniform_decode(8, 1024);
        assert!(e.try_iteration(&ParallelConfig::sequence(8), &batch).is_ok());
        assert!(e.try_iteration(&ParallelConfig::sequence(3), &batch).is_err());
    }

    #[test]
    fn replication_keeps_per_gpu_kv_reads() {
        // With 4 KV heads on 8 GPUs each GPU still holds (and reads) one
        // full head, so decode attention does not get faster going from
        // degree 4 to degree 8 — the cost of replication (§3.2.1).
        let e = exec_no_overhead(presets::qwen_30b_a3b());
        let decode = BatchWork::uniform_decode(64, 32_768);
        let deg4 = e.iteration(&ParallelConfig::sequence(4), &decode).attention;
        let deg8 = e.iteration(&ParallelConfig::sequence(8), &decode).attention;
        assert_eq!(deg4, deg8, "replicated KV reads must not shrink");
        // Going from degree 2 to 4 (no replication yet) *does* halve reads.
        let deg2 = e.iteration(&ParallelConfig::sequence(2), &decode).attention;
        assert!(deg4 < deg2);
    }

    #[test]
    fn combined_config_interpolates_communication() {
        // (SP=4, TP=2) should communicate less than TP=8 but more than SP=8
        // for a prefill-heavy batch.
        let e = exec_no_overhead(presets::llama_70b());
        let batch = BatchWork::single_prefill(8192);
        let tp = e.iteration(&ParallelConfig::tensor(8), &batch).communication;
        let mixed = e.iteration(&ParallelConfig::new(4, 2), &batch).communication;
        let sp = e.iteration(&ParallelConfig::sequence(8), &batch).communication;
        assert!(sp < mixed && mixed < tp, "sp={sp} mixed={mixed} tp={tp}");
    }

    #[test]
    fn attention_dominates_long_contexts() {
        // Figure 13/15: throughput collapses at 128k context because
        // attention time dwarfs everything else.
        let e = exec(presets::llama_70b());
        let long = BatchWork::new(vec![ChunkWork::prefill(4096, 124_000, false); 4]);
        let it = e.iteration(&ParallelConfig::sequence(8), &long);
        assert!(it.attention > it.gemm);
        assert!(it.attention > it.communication);
    }

    #[test]
    fn single_gpu_has_no_communication() {
        let e = exec(presets::qwen_32b());
        let it = e.iteration(&ParallelConfig::single(), &BatchWork::single_prefill(1024));
        assert_eq!(it.communication, Dur::ZERO);
    }

    /// A prefill chunk, a plain decode or a speculative verification, at
    /// any context up to 100k tokens.
    fn arb_chunk() -> impl Strategy<Value = ChunkWork> {
        (0u8..3, 1u64..8192, 0u64..100_000, any::<bool>(), 1u32..8).prop_map(
            |(kind, tokens, past, last, draft)| match kind {
                0 => ChunkWork::prefill(tokens, past, last),
                1 => ChunkWork::decode(past),
                _ => ChunkWork::speculative_decode(past, draft),
            },
        )
    }

    proptest! {
        /// Adding a chunk to a batch, at any position, never lowers
        /// `try_iteration`'s total: for every preset, under every
        /// configuration a deployment registers (DP, TP, SP, Shift's
        /// bases and its shift configuration, a static combination).
        /// Lower bounds on a request's latency from the price of its
        /// own work alone rest on this.
        #[test]
        fn adding_a_chunk_never_lowers_the_price(
            chunks in prop::collection::vec(arb_chunk(), 0..8),
            extra in arb_chunk(),
            at in 0usize..8,
        ) {
            let mut grown = chunks.clone();
            grown.insert(at.min(chunks.len()), extra);
            let (batch, grown) = (BatchWork::new(chunks), BatchWork::new(grown));
            let mut priced = 0;
            for model in presets::all_table4().into_iter().chain([presets::llama_8b()]) {
                let e = exec(model);
                for config in [
                    ParallelConfig::single(),
                    ParallelConfig::tensor(8),
                    ParallelConfig::sequence(8),
                    ParallelConfig::new(4, 2),
                    ParallelConfig::new(2, 4),
                ] {
                    let (Ok(small), Ok(large)) =
                        (e.try_iteration(&config, &batch), e.try_iteration(&config, &grown))
                    else {
                        continue;
                    };
                    prop_assert!(
                        large.total() >= small.total(),
                        "{} under {config}: {:?} < {:?}",
                        e.model().name,
                        large.total(),
                        small.total()
                    );
                    priced += 1;
                }
            }
            prop_assert!(priced >= 20, "only {priced} model/config pairs priced");
        }

        #[test]
        fn iteration_time_monotone_in_batch(
            small in 1u64..2000, extra in 1u64..2000,
        ) {
            let e = exec(presets::qwen_32b());
            for config in [
                ParallelConfig::tensor(8),
                ParallelConfig::sequence(8),
                ParallelConfig::new(4, 2),
            ] {
                let a = e.iteration(&config, &BatchWork::single_prefill(small)).total();
                let b = e
                    .iteration(&config, &BatchWork::single_prefill(small + extra))
                    .total();
                prop_assert!(b >= a);
            }
        }

        #[test]
        fn all_components_finite_and_nonnegative(
            tokens in 1u64..50_000, past in 0u64..100_000,
            sp_pow in 0u32..4, tp_pow in 0u32..4,
        ) {
            let e = exec(presets::llama_70b());
            let config = ParallelConfig::new(1 << sp_pow, 1 << tp_pow);
            let batch = BatchWork::new(vec![ChunkWork::prefill(tokens, past, true)]);
            if let Ok(it) = e.try_iteration(&config, &batch) {
                for c in [it.gemm, it.attention, it.communication, it.overhead] {
                    prop_assert!(c.as_secs().is_finite() && c.as_secs() >= 0.0);
                }
                prop_assert!(it.total() > Dur::ZERO);
            }
        }
    }
}

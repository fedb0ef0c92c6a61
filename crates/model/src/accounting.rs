//! FLOP and byte accounting for prefill/decode steps.
//!
//! A serving iteration processes, for each request in the batch, a *chunk*
//! of `new_tokens` at context offset `past`. The cost of a chunk decomposes
//! into:
//!
//! * **linear FLOPs** — QKV/O/MLP GEMMs: `2 × active linear params` per
//!   token (compute-bound in prefill);
//! * **attention FLOPs** — score and value matmuls: `4 × h × head_dim ×
//!   context` per token (the quadratic term that dominates long contexts,
//!   Figure 13);
//! * **KV reads** — each new token's attention streams the KV cache of its
//!   context (memory-bound in decode);
//! * **KV writes** — each new token appends one KV entry;
//! * **logit FLOPs** — the LM head for tokens that emit a distribution.
//!
//! Weight streaming is *per iteration*, not per chunk, so it is exposed
//! separately ([`ModelConfig::active_weight_bytes`]) and added once by the
//! execution model.

use crate::config::ModelConfig;
use std::iter::Sum;
use std::ops::Add;

/// Queries per flash-attention tile: the KV cache is streamed from HBM
/// once per tile of this many query tokens.
pub const QUERY_TILE: u64 = 128;

/// Resource cost of processing one chunk (or a whole batch, by summation).
///
/// # Examples
///
/// ```
/// use sp_model::presets;
///
/// let m = presets::llama_70b();
/// let prefill = m.chunk_cost(4096, 0, 1);
/// let decode = m.chunk_cost(1, 4096, 1);
/// assert!(prefill.total_flops() > 1000.0 * decode.total_flops());
/// assert!(decode.kv_read_bytes > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepCost {
    /// GEMM FLOPs in QKV, O, and MLP projections.
    pub linear_flops: f64,
    /// Attention score/value FLOPs (grows with context).
    pub attn_flops: f64,
    /// LM-head FLOPs for logit-emitting tokens.
    pub logit_flops: f64,
    /// KV-cache bytes read by attention.
    pub kv_read_bytes: u64,
    /// KV-cache bytes written for the new tokens.
    pub kv_write_bytes: u64,
}

impl StepCost {
    /// All FLOPs in the chunk.
    pub fn total_flops(&self) -> f64 {
        self.linear_flops + self.attn_flops + self.logit_flops
    }

    /// All KV-cache HBM traffic in the chunk.
    pub fn total_kv_bytes(&self) -> u64 {
        self.kv_read_bytes + self.kv_write_bytes
    }
}

impl Add for StepCost {
    type Output = StepCost;
    fn add(self, rhs: StepCost) -> StepCost {
        StepCost {
            linear_flops: self.linear_flops + rhs.linear_flops,
            attn_flops: self.attn_flops + rhs.attn_flops,
            logit_flops: self.logit_flops + rhs.logit_flops,
            kv_read_bytes: self.kv_read_bytes + rhs.kv_read_bytes,
            kv_write_bytes: self.kv_write_bytes + rhs.kv_write_bytes,
        }
    }
}

impl Sum for StepCost {
    fn sum<I: Iterator<Item = StepCost>>(iter: I) -> StepCost {
        iter.fold(StepCost::default(), Add::add)
    }
}

impl ModelConfig {
    /// Active linear-layer parameters per token across all layers
    /// (excludes embeddings / LM head).
    pub fn linear_params_active(&self) -> u64 {
        u64::from(self.num_layers)
            * (self.attn_params_per_layer() + self.mlp_params_per_layer_active())
    }

    /// Cost of processing `new_tokens` tokens of one request whose KV cache
    /// already holds `past` tokens, emitting logits for `logit_tokens` of
    /// them (1 for the final prefill chunk and for every decode step, 0 for
    /// intermediate chunked-prefill chunks).
    ///
    /// # Panics
    ///
    /// Panics if `logit_tokens > new_tokens`.
    pub fn chunk_cost(&self, new_tokens: u64, past: u64, logit_tokens: u64) -> StepCost {
        assert!(logit_tokens <= new_tokens, "cannot emit logits for more tokens than processed");
        if new_tokens == 0 {
            return StepCost::default();
        }
        let n = new_tokens as f64;
        let linear_flops = 2.0 * self.linear_params_active() as f64 * n;

        // Token i (1-based) attends to `past + i` positions; summing gives
        // n·past + n(n+1)/2 attended positions in total.
        let attended = n * past as f64 + n * (n + 1.0) / 2.0;
        let attn_flops = 4.0
            * f64::from(self.q_heads)
            * f64::from(self.head_dim)
            * attended
            * f64::from(self.num_layers);

        let logit_flops =
            2.0 * f64::from(self.hidden_size) * f64::from(self.vocab_size) * logit_tokens as f64;

        // Flash-attention streams the KV cache once per query *tile*, not
        // per query: a decode step (1 query) re-reads its whole context,
        // while a prefill chunk amortizes the read across up to
        // QUERY_TILE queries — which is why prefill is compute-bound and
        // decode memory-bound.
        let tile = (new_tokens.min(QUERY_TILE)) as f64;
        let kv_read_bytes = (attended * self.kv_bytes_per_token() as f64 / tile) as u64;
        let kv_write_bytes = new_tokens * self.kv_bytes_per_token();

        StepCost { linear_flops, attn_flops, logit_flops, kv_read_bytes, kv_write_bytes }
    }

    /// Cost of a full un-chunked prefill of `prompt_tokens` (emits one
    /// logit for the first output token).
    pub fn prefill_cost(&self, prompt_tokens: u64) -> StepCost {
        self.chunk_cost(prompt_tokens, 0, 1)
    }

    /// Weight bytes actually streamed from HBM in one iteration processing
    /// `batch_tokens` tokens.
    ///
    /// Dense models stream all weights once per iteration. MoE models only
    /// touch the experts their tokens route to: with `k` of `E` experts
    /// active per token, a batch of `t` tokens touches at most
    /// `min(E, t·k)` routed experts. This is why MoE decode at batch size 1
    /// is so much faster than the total parameter count suggests.
    pub fn streamed_weight_bytes(&self, batch_tokens: u64) -> u64 {
        let prec = self.weight_precision.bytes();
        match self.moe {
            None => self.total_params() * prec,
            Some(moe) => {
                let routed_per_layer = u64::from(moe.num_experts)
                    * 3
                    * u64::from(self.hidden_size)
                    * u64::from(moe.expert_intermediate);
                let routed_total = u64::from(self.num_layers) * routed_per_layer;
                let non_routed = self.total_params() - routed_total;
                let touched =
                    (batch_tokens * u64::from(moe.active_experts)).min(u64::from(moe.num_experts));
                let streamed_routed = routed_total * touched / u64::from(moe.num_experts);
                (non_routed + streamed_routed) * prec
            }
        }
    }

    /// Cost of one decode step at context length `context` (emits one
    /// logit).
    pub fn decode_cost(&self, context: u64) -> StepCost {
        self.chunk_cost(1, context, 1)
    }

    /// Summed cost of `n` one-token decode chunks (`chunk_cost(1, c, 1)`
    /// each) whose attended positions `c + 1` add up to `attended_sum`,
    /// in O(1).
    ///
    /// Every field of a decode chunk is a product of integer model
    /// constants and its attended count, so the batch total depends only
    /// on `n` and `attended_sum`. The closed form is returned only when
    /// each field total is an integer below 2^53 (checked, without
    /// overflow); every per-chunk term and every partial sum is then an
    /// exactly representable integer too, so any fold order of the
    /// per-chunk costs produces these same bits. `None` means the
    /// totals leave that range and the caller must fold chunk by chunk.
    /// A caller that prices many batches of one model compiles the
    /// constants once with [`DecodeBatchCost::new`].
    pub fn decode_batch_cost(&self, n: u64, attended_sum: u64) -> Option<StepCost> {
        DecodeBatchCost::new(self).cost(n, attended_sum)
    }
}

/// [`ModelConfig::decode_batch_cost`] with the model's constants
/// compiled once: twice the active linear parameters, attention FLOPs
/// per attended position, logit FLOPs per sequence and KV bytes per
/// token. [`DecodeBatchCost::cost`] then takes the same integer
/// products under the same 2^53 guard, so it returns the same value.
///
/// # Examples
///
/// ```
/// use sp_model::{presets, DecodeBatchCost};
///
/// let m = presets::llama_70b();
/// let compiled = DecodeBatchCost::new(&m);
/// assert_eq!(compiled.cost(64, 64 * 4096), m.decode_batch_cost(64, 64 * 4096));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeBatchCost {
    /// `2 × linear_params_active()`, `None` when the product overflows
    /// (every batch then declines).
    linear_per_seq: Option<u64>,
    /// Attention FLOPs per attended position, over all layers.
    attn_per_position: u64,
    /// LM-head FLOPs of one emitted logit.
    logit_per_seq: u64,
    /// KV-cache bytes per token.
    kv_per_token: u64,
}

impl DecodeBatchCost {
    /// Compiles `model`'s decode-batch constants.
    pub fn new(model: &ModelConfig) -> DecodeBatchCost {
        DecodeBatchCost {
            linear_per_seq: model.linear_params_active().checked_mul(2),
            attn_per_position: 4
                * u64::from(model.q_heads)
                * u64::from(model.head_dim)
                * u64::from(model.num_layers),
            logit_per_seq: 2 * u64::from(model.hidden_size) * u64::from(model.vocab_size),
            kv_per_token: model.kv_bytes_per_token(),
        }
    }

    /// [`ModelConfig::decode_batch_cost`] of `n` decodes attending
    /// `attended_sum` positions in all.
    pub fn cost(&self, n: u64, attended_sum: u64) -> Option<StepCost> {
        /// Integers below 2^53 are exact in f64.
        const EXACT: u64 = 1 << 53;
        let exact = |v: Option<u64>| v.filter(|&v| v < EXACT);
        let kv = self.kv_per_token;
        let linear_flops = exact(self.linear_per_seq?.checked_mul(n))?;
        let attn_flops = exact(attended_sum.checked_mul(self.attn_per_position))?;
        let logit_flops = exact(self.logit_per_seq.checked_mul(n))?;
        Some(StepCost {
            linear_flops: linear_flops as f64,
            attn_flops: attn_flops as f64,
            logit_flops: logit_flops as f64,
            kv_read_bytes: exact(attended_sum.checked_mul(kv))?,
            kv_write_bytes: exact(n.checked_mul(kv))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use proptest::prelude::*;

    #[test]
    fn empty_chunk_is_free() {
        let m = presets::llama_70b();
        assert_eq!(m.chunk_cost(0, 100, 0), StepCost::default());
    }

    #[test]
    fn prefill_flops_near_2_n_params() {
        // Classic estimate: forward FLOPs ≈ 2 × params × tokens for short
        // contexts (attention negligible).
        let m = presets::llama_70b();
        let n = 128u64;
        let cost = m.prefill_cost(n);
        let estimate = 2.0 * m.active_params() as f64 * n as f64;
        let ratio = cost.total_flops() / estimate;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn chunked_prefill_linear_flops_sum_to_whole() {
        let m = presets::qwen_32b();
        let whole = m.prefill_cost(4096);
        let a = m.chunk_cost(2048, 0, 0);
        let b = m.chunk_cost(2048, 2048, 1);
        let sum = a + b;
        assert!((sum.linear_flops - whole.linear_flops).abs() < 1.0);
        assert!((sum.attn_flops - whole.attn_flops).abs() / whole.attn_flops < 1e-12);
        assert_eq!(sum.kv_write_bytes, whole.kv_write_bytes);
        assert_eq!(sum.logit_flops, whole.logit_flops);
    }

    #[test]
    fn decode_kv_reads_grow_with_context() {
        let m = presets::llama_70b();
        let short = m.decode_cost(1_000);
        let long = m.decode_cost(100_000);
        assert!(long.kv_read_bytes > 50 * short.kv_read_bytes);
    }

    #[test]
    fn moe_linear_flops_use_active_params_only() {
        let m = presets::qwen_30b_a3b();
        let dense_equivalent = 2.0 * m.linear_params_active() as f64;
        let cost = m.chunk_cost(1, 0, 0);
        assert!((cost.linear_flops - dense_equivalent).abs() < 1.0);
        // Sanity: far below what total params would give.
        let total_linear =
            u64::from(m.num_layers) * (m.attn_params_per_layer() + m.mlp_params_per_layer_total());
        assert!(cost.linear_flops < 0.2 * 2.0 * total_linear as f64);
    }

    #[test]
    fn step_cost_sums() {
        let m = presets::qwen_32b();
        let parts: StepCost = (0..4).map(|i| m.chunk_cost(10, i * 10, 0)).sum();
        let whole = m.chunk_cost(40, 0, 0);
        assert!((parts.linear_flops - whole.linear_flops).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "logits")]
    fn logit_tokens_bounded_by_new_tokens() {
        let _ = presets::qwen_32b().chunk_cost(1, 0, 2);
    }

    #[test]
    fn dense_streams_all_weights_regardless_of_batch() {
        let m = presets::llama_70b();
        assert_eq!(m.streamed_weight_bytes(1), m.weight_bytes());
        assert_eq!(m.streamed_weight_bytes(100_000), m.weight_bytes());
    }

    #[test]
    fn moe_small_batch_streams_few_experts() {
        let m = presets::qwen_30b_a3b(); // 128 experts, top-8
        let one = m.streamed_weight_bytes(1);
        let big = m.streamed_weight_bytes(10_000);
        assert_eq!(big, m.weight_bytes());
        // One token touches 8 of 128 experts: far less than total.
        assert!(one < m.weight_bytes() / 3, "one-token stream {one} vs total {}", m.weight_bytes());
        assert!(one >= m.active_weight_bytes() / 2);
    }

    #[test]
    fn moe_streamed_bytes_monotone_in_batch() {
        let m = presets::llama_17b_16e();
        let mut prev = 0;
        for t in [1u64, 2, 4, 8, 16, 32, 1000] {
            let s = m.streamed_weight_bytes(t);
            assert!(s >= prev);
            prev = s;
        }
        assert_eq!(prev, m.weight_bytes());
    }

    /// Bit-level equality, so `-0.0 != 0.0` and float fields are never
    /// compared approximately.
    fn same_bits(a: &StepCost, b: &StepCost) -> bool {
        a.linear_flops.to_bits() == b.linear_flops.to_bits()
            && a.attn_flops.to_bits() == b.attn_flops.to_bits()
            && a.logit_flops.to_bits() == b.logit_flops.to_bits()
            && a.kv_read_bytes == b.kv_read_bytes
            && a.kv_write_bytes == b.kv_write_bytes
    }

    #[test]
    fn empty_decode_batch_is_free() {
        let cost = presets::qwen_32b().decode_batch_cost(0, 0).unwrap();
        assert!(same_bits(&cost, &StepCost::default()));
    }

    #[test]
    fn decode_batch_guard_declines_exactly_at_2_pow_53() {
        // Llama-70B attention charges 4·64·128·80 FLOPs per attended
        // position, the first field to cross 2^53 as contexts grow: the
        // boundary sits near 3.4e9 attended positions, i.e. two
        // sequences at 2^31 context.
        let m = presets::llama_70b();
        let per_position = 4 * 64 * 128 * 80;
        let last_exact = ((1u64 << 53) - 1) / per_position;
        let at = m.decode_batch_cost(2, last_exact).expect("below 2^53 is exact");
        assert!(at.attn_flops < 9_007_199_254_740_992.0);
        assert!(m.decode_batch_cost(2, last_exact + 1).is_none());
        let ctx = 1u64 << 31;
        assert!(m.decode_batch_cost(1, ctx + 1).is_some());
        assert!(m.decode_batch_cost(2, 2 * (ctx + 1)).is_none());
        // Overflowing products decline rather than wrap.
        assert!(m.decode_batch_cost(u64::MAX, u64::MAX).is_none());
    }

    /// A batch size or attended sum for the guard property: by `mode`,
    /// a small random value, an unrestricted one, or the value `offset`
    /// away from one of `edges` (saturating).
    fn around(edges: &[u64], (mode, raw, offset): (usize, u64, i64)) -> u64 {
        match mode {
            0 => raw % (1 << 20),
            1 => raw,
            m => edges[(m - 2) % edges.len()].saturating_add_signed(offset),
        }
    }

    proptest! {
        /// A value compiled once prices every batch as
        /// `decode_batch_cost` does, and both equal the exact integer
        /// products, `Some` exactly when every field total lies below
        /// 2^53. Batch sizes and attended sums are drawn at random and
        /// around each field's last exact value.
        #[test]
        fn compiled_decode_batch_cost_matches_decode_batch_cost(
            preset in 0usize..4,
            n_pick in (0usize..5, any::<u64>(), -4i64..4),
            attended_pick in (0usize..4, any::<u64>(), -4i64..4),
        ) {
            let m = match preset {
                0 => presets::llama_70b(),
                1 => presets::qwen_32b(),
                2 => presets::qwen_30b_a3b(),
                _ => presets::llama_17b_16e(),
            };
            let compiled = DecodeBatchCost::new(&m);
            let linear = 2 * m.linear_params_active();
            let attn = 4 * u64::from(m.q_heads) * u64::from(m.head_dim) * u64::from(m.num_layers);
            let logit = 2 * u64::from(m.hidden_size) * u64::from(m.vocab_size);
            let kv = m.kv_bytes_per_token();
            let last_exact = |per: u64| ((1u64 << 53) - 1) / per;
            let n = around(&[last_exact(linear), last_exact(logit), last_exact(kv)], n_pick);
            let attended = around(&[last_exact(attn), last_exact(kv)], attended_pick);

            let wide = |a: u64, b: u64| u128::from(a) * u128::from(b);
            let fields = [
                wide(linear, n),
                wide(attended, attn),
                wide(logit, n),
                wide(attended, kv),
                wide(n, kv),
            ];
            let expected = fields.iter().all(|&f| f < 1 << 53).then(|| StepCost {
                linear_flops: fields[0] as f64,
                attn_flops: fields[1] as f64,
                logit_flops: fields[2] as f64,
                kv_read_bytes: fields[3] as u64,
                kv_write_bytes: fields[4] as u64,
            });
            let got = compiled.cost(n, attended);
            let direct = m.decode_batch_cost(n, attended);
            prop_assert_eq!(got.is_some(), expected.is_some(), "guard at n {}, attended {}", n, attended);
            prop_assert_eq!(direct.is_some(), expected.is_some());
            if let (Some(got), Some(direct), Some(expected)) = (got, direct, expected) {
                prop_assert!(same_bits(&got, &direct), "{got:?} vs {direct:?}");
                prop_assert!(same_bits(&got, &expected), "{got:?} vs {expected:?}");
            }
        }

        #[test]
        fn decode_batch_cost_matches_chunk_fold(
            preset in 0usize..4,
            contexts in prop::collection::vec(0u64..(1 << 20), 1..512),
        ) {
            let m = match preset {
                0 => presets::llama_70b(),
                1 => presets::qwen_32b(),
                2 => presets::qwen_30b_a3b(),
                _ => presets::llama_17b_16e(),
            };
            let folded: StepCost = contexts.iter().map(|&c| m.chunk_cost(1, c, 1)).sum();
            let attended: u64 = contexts.iter().map(|&c| c + 1).sum();
            let closed = m
                .decode_batch_cost(contexts.len() as u64, attended)
                .expect("contexts below 2^20 stay exact");
            prop_assert!(same_bits(&closed, &folded), "{closed:?} vs {folded:?}");
        }

        #[test]
        fn chunk_cost_additive_in_sequence(
            n1 in 1u64..2000, n2 in 1u64..2000, past in 0u64..10_000,
        ) {
            // Processing n1 then n2 tokens must cost the same attention
            // FLOPs as processing n1+n2 at once.
            let m = presets::llama_70b();
            let split = m.chunk_cost(n1, past, 0) + m.chunk_cost(n2, past + n1, 0);
            let whole = m.chunk_cost(n1 + n2, past, 0);
            prop_assert!((split.attn_flops - whole.attn_flops).abs()
                / whole.attn_flops.max(1.0) < 1e-9);
            prop_assert!((split.linear_flops - whole.linear_flops).abs()
                / whole.linear_flops.max(1.0) < 1e-9);
            prop_assert_eq!(split.kv_write_bytes, whole.kv_write_bytes);
        }

        #[test]
        fn costs_monotone_in_tokens(
            n in 1u64..5000, extra in 1u64..5000, past in 0u64..100_000,
        ) {
            let m = presets::qwen_32b();
            let small = m.chunk_cost(n, past, 0);
            let large = m.chunk_cost(n + extra, past, 0);
            prop_assert!(large.total_flops() > small.total_flops());
            prop_assert!(large.kv_read_bytes >= small.kv_read_bytes);
            prop_assert!(large.kv_write_bytes > small.kv_write_bytes);
        }
    }
}

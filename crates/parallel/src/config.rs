//! Parallelism configurations and per-iteration workload description.

use sp_model::{ModelConfig, StepCost};
use std::fmt;

/// One `(SP, TP)` configuration of an attention-parallel group.
///
/// The group spans `SP × TP` GPUs. Pure TP is `(1, P)`, pure SP is
/// `(P, 1)`, and Algorithm 1 handles any combination. Data parallelism is
/// expressed one level up (engine replicas), each replica typically
/// `(1, 1)`.
///
/// # Examples
///
/// ```
/// use sp_parallel::ParallelConfig;
///
/// let base = ParallelConfig::new(4, 2);
/// assert_eq!(base.degree(), 8);
/// assert_eq!(base.shift_config(), ParallelConfig::tensor(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParallelConfig {
    sp: usize,
    tp: usize,
}

impl ParallelConfig {
    /// Creates an `(SP, TP)` configuration.
    ///
    /// # Panics
    ///
    /// Panics if either degree is zero.
    pub fn new(sp: usize, tp: usize) -> ParallelConfig {
        assert!(sp > 0 && tp > 0, "parallel degrees must be positive");
        ParallelConfig { sp, tp }
    }

    /// Pure tensor parallelism across `degree` GPUs.
    pub fn tensor(degree: usize) -> ParallelConfig {
        ParallelConfig::new(1, degree)
    }

    /// Pure sequence parallelism across `degree` GPUs.
    pub fn sequence(degree: usize) -> ParallelConfig {
        ParallelConfig::new(degree, 1)
    }

    /// A single-GPU configuration (one DP replica).
    pub fn single() -> ParallelConfig {
        ParallelConfig::new(1, 1)
    }

    /// The SP degree.
    pub fn sp(&self) -> usize {
        self.sp
    }

    /// The TP degree.
    pub fn tp(&self) -> usize {
        self.tp
    }

    /// Total GPUs in the group: `SP × TP`.
    pub fn degree(&self) -> usize {
        self.sp * self.tp
    }

    /// The corresponding shift configuration: full TP over the same GPUs
    /// (`SP = 1, TP = SP × TP`), per §3.1.2.
    pub fn shift_config(&self) -> ParallelConfig {
        ParallelConfig::tensor(self.degree())
    }
}

impl fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(SP={}, TP={})", self.sp, self.tp)
    }
}

/// Whether a chunk is prompt processing or output generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// Prompt tokens entering the KV cache.
    Prefill,
    /// Output generation (one token, or a speculative draft verification).
    Decode,
}

/// The work one request contributes to one iteration: a chunk of
/// `new_tokens` processed at KV offset `past`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkWork {
    /// Prefill or decode.
    pub kind: ChunkKind,
    /// Tokens processed this iteration (prompt chunk, 1 decode token, or a
    /// `draft + 1`-token speculative verification).
    pub new_tokens: u64,
    /// Tokens already in this request's KV cache.
    pub past: u64,
    /// Whether this chunk emits logits (final prefill chunk; every decode).
    pub emits_logit: bool,
}

impl ChunkWork {
    /// A prefill chunk.
    pub fn prefill(new_tokens: u64, past: u64, is_last_chunk: bool) -> ChunkWork {
        ChunkWork { kind: ChunkKind::Prefill, new_tokens, past, emits_logit: is_last_chunk }
    }

    /// A decode step at context length `past`.
    pub fn decode(past: u64) -> ChunkWork {
        ChunkWork { kind: ChunkKind::Decode, new_tokens: 1, past, emits_logit: true }
    }

    /// A speculative-decoding verification step: the target model scores
    /// `draft_len + 1` tokens in one pass (§4.5).
    pub fn speculative_decode(past: u64, draft_len: u32) -> ChunkWork {
        ChunkWork {
            kind: ChunkKind::Decode,
            new_tokens: u64::from(draft_len) + 1,
            past,
            emits_logit: true,
        }
    }
}

/// Everything one iteration processes: the chunks of all batched requests.
///
/// # Examples
///
/// ```
/// use sp_parallel::{BatchWork, ChunkWork};
///
/// let batch = BatchWork::new(vec![
///     ChunkWork::prefill(2048, 0, false),
///     ChunkWork::decode(500),
///     ChunkWork::decode(900),
/// ]);
/// assert_eq!(batch.total_new_tokens(), 2050);
/// assert_eq!(batch.num_seqs(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchWork {
    chunks: Vec<ChunkWork>,
}

impl BatchWork {
    /// Creates a batch from per-request chunks.
    pub fn new(chunks: Vec<ChunkWork>) -> BatchWork {
        BatchWork { chunks }
    }

    /// Convenience: a single un-chunked prefill of `prompt` tokens.
    pub fn single_prefill(prompt: u64) -> BatchWork {
        BatchWork::new(vec![ChunkWork::prefill(prompt, 0, true)])
    }

    /// Convenience: `batch` decode steps, all at context `past`.
    pub fn uniform_decode(batch: usize, past: u64) -> BatchWork {
        BatchWork::new(vec![ChunkWork::decode(past); batch])
    }

    /// The chunks in this batch.
    pub fn chunks(&self) -> &[ChunkWork] {
        &self.chunks
    }

    /// Consumes the batch, returning the chunk buffer for reuse —
    /// schedulers that build a batch every iteration can recycle the
    /// allocation instead of paying for a fresh `Vec` each time.
    pub fn into_chunks(self) -> Vec<ChunkWork> {
        self.chunks
    }

    /// True if no work is scheduled.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Total new tokens across all chunks (the paper's "batched tokens per
    /// iteration" — the shift threshold input).
    pub fn total_new_tokens(&self) -> u64 {
        self.chunks.iter().map(|c| c.new_tokens).sum()
    }

    /// Number of sequences contributing work.
    pub fn num_seqs(&self) -> usize {
        self.chunks.len()
    }

    /// Aggregate model-level resource cost of this batch.
    pub fn step_cost(&self, model: &ModelConfig) -> StepCost {
        self.chunks
            .iter()
            .map(|c| model.chunk_cost(c.new_tokens, c.past, u64::from(c.emits_logit)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_model::presets;

    #[test]
    fn degree_is_product() {
        assert_eq!(ParallelConfig::new(4, 2).degree(), 8);
        assert_eq!(ParallelConfig::tensor(8).sp(), 1);
        assert_eq!(ParallelConfig::sequence(8).tp(), 1);
        assert_eq!(ParallelConfig::single().degree(), 1);
    }

    #[test]
    fn shift_config_spans_same_gpus() {
        let base = ParallelConfig::new(3, 2);
        let shift = base.shift_config();
        assert_eq!(shift.degree(), base.degree());
        assert_eq!(shift.sp(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_degree_rejected() {
        let _ = ParallelConfig::new(0, 4);
    }

    #[test]
    fn display_formats_both_degrees() {
        assert_eq!(ParallelConfig::new(4, 2).to_string(), "(SP=4, TP=2)");
    }

    #[test]
    fn batch_totals() {
        let b = BatchWork::new(vec![ChunkWork::prefill(100, 0, true), ChunkWork::decode(50)]);
        assert_eq!(b.total_new_tokens(), 101);
        assert_eq!(b.num_seqs(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn uniform_decode_builds_batch() {
        let b = BatchWork::uniform_decode(16, 1000);
        assert_eq!(b.total_new_tokens(), 16);
        assert!(b.chunks().iter().all(|c| c.past == 1000 && c.emits_logit));
    }

    #[test]
    fn step_cost_matches_manual_sum() {
        let m = presets::qwen_32b();
        let b = BatchWork::new(vec![ChunkWork::prefill(128, 0, false), ChunkWork::decode(256)]);
        let expected = m.chunk_cost(128, 0, 0) + m.chunk_cost(1, 256, 1);
        assert_eq!(b.step_cost(&m), expected);
    }
}

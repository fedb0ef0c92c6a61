//! Per-sequence KV accounting with admission control.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for the manager's `u64` ids: one multiply in
/// place of SipHash on every admission check, reservation and release.
/// The maps are lookup-only, so nothing observable depends on their
/// order. Their keys are the simulated trace's request and prefix-group
/// ids; a trace crafted to collide could only slow its own simulation.
/// The rotation moves the product's well-mixed high bits to the low
/// end, which the table indexes by.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, id: u64) {
        // 2^64 / φ, odd: multiplying by it permutes the ids.
        self.0 = (self.0 ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed by sequence or group id.
type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Counts the KV blocks each live sequence holds and admits new work only
/// if it fits.
///
/// Capacity is expressed in *tokens* (the deployment planner converts the
/// per-GPU HBM budget into tokens via the model's per-token KV bytes and
/// the shard layout). The manager charges whole blocks, so a sequence of
/// `t` tokens consumes `ceil(t / block_tokens)` blocks — the same internal
/// fragmentation real PagedAttention pays.
///
/// Blocks are *counted*, not named: any free block can serve any
/// sequence (PagedAttention has no external fragmentation), so nothing
/// observable depends on which block a sequence holds. A counted pool
/// makes [`KvCacheManager::try_reserve`], [`KvCacheManager::release`]
/// and [`KvCacheManager::shrink_group`] O(1) regardless of how many
/// blocks move.
///
/// # Examples
///
/// ```
/// use sp_kvcache::KvCacheManager;
///
/// let mut kv = KvCacheManager::new(64, 16);
/// assert!(kv.try_reserve(7, 40));       // 3 blocks
/// assert!(!kv.try_reserve(8, 40));      // only 1 block left
/// assert!(kv.try_reserve(8, 10));       // fits in the last block
/// ```
#[derive(Debug, Clone)]
pub struct KvCacheManager {
    block_tokens: u32,
    /// Whole blocks in the pool.
    total_blocks: u64,
    /// Blocks held by no sequence.
    free_blocks: u64,
    seqs: IdMap<SeqAlloc>,
    /// Shared prefix allocations: one growing sequence per group,
    /// attached to by many requests (multi-turn sessions). Stored under
    /// a separate id namespace so they never collide with request ids.
    groups: IdMap<u64>,
    used_tokens: u64,
    peak_used_tokens: u64,
}

#[derive(Debug, Clone)]
struct SeqAlloc {
    tokens: u64,
    /// `ceil(tokens / block_tokens)`: the blocks charged to the sequence.
    blocks: u64,
}

impl KvCacheManager {
    /// Creates a manager holding up to `capacity_tokens` tokens in blocks of
    /// `block_tokens`.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn new(capacity_tokens: u64, block_tokens: u32) -> KvCacheManager {
        assert!(block_tokens > 0, "block size must be positive");
        let total_blocks = capacity_tokens / u64::from(block_tokens);
        KvCacheManager {
            block_tokens,
            total_blocks,
            free_blocks: total_blocks,
            seqs: IdMap::default(),
            groups: IdMap::default(),
            used_tokens: 0,
            peak_used_tokens: 0,
        }
    }

    /// Grows the shared prefix allocation of `group` to at least
    /// `watermark` tokens (a no-op if already that large). Returns false
    /// (and changes nothing) if the pool cannot supply the blocks.
    ///
    /// Group allocations are ref-free high-water marks: a session's
    /// prefix only grows; [`KvCacheManager::release_group`] frees it when
    /// the session ends.
    pub fn try_extend_group(&mut self, group: u64, watermark: u64) -> bool {
        let current = self.groups.get(&group).copied().unwrap_or(0);
        if watermark <= current {
            return true;
        }
        let seq_key = Self::group_key(group);
        if !self.try_reserve(seq_key, watermark - current) {
            return false;
        }
        self.groups.insert(group, watermark);
        true
    }

    /// Tokens held by the shared prefix of `group` (0 if absent).
    pub fn group_tokens(&self, group: u64) -> u64 {
        self.groups.get(&group).copied().unwrap_or(0)
    }

    /// Shrinks the shared prefix of `group` back to `watermark` tokens,
    /// freeing whole blocks past it — the admission-failure undo for
    /// [`KvCacheManager::try_extend_group`]. A watermark of zero drops the
    /// group entirely. No-op if the group is absent or already at or
    /// below the watermark.
    pub fn shrink_group(&mut self, group: u64, watermark: u64) {
        let Some(&current) = self.groups.get(&group) else { return };
        if watermark >= current {
            return;
        }
        if watermark == 0 {
            self.release_group(group);
            return;
        }
        let alloc = self
            .seqs
            .get_mut(&Self::group_key(group))
            .expect("group watermark implies a live allocation");
        let keep_blocks = watermark.div_ceil(u64::from(self.block_tokens));
        self.free_blocks += alloc.blocks - keep_blocks;
        alloc.blocks = keep_blocks;
        self.used_tokens -= alloc.tokens - watermark;
        alloc.tokens = watermark;
        self.groups.insert(group, watermark);
    }

    /// Frees a session's shared prefix. No-op if absent.
    pub fn release_group(&mut self, group: u64) {
        if self.groups.remove(&group).is_some() {
            self.release(Self::group_key(group));
        }
    }

    fn group_key(group: u64) -> u64 {
        // Request ids are trace indices (small); fold groups into the top
        // half of the id space.
        group | (1 << 63)
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> u32 {
        self.block_tokens
    }

    /// Usable capacity in tokens (whole blocks only).
    pub fn capacity_tokens(&self) -> u64 {
        self.total_blocks * u64::from(self.block_tokens)
    }

    /// Tokens currently cached across all sequences.
    pub fn used_tokens(&self) -> u64 {
        self.used_tokens
    }

    /// High-water mark of cached tokens.
    pub fn peak_used_tokens(&self) -> u64 {
        self.peak_used_tokens
    }

    /// Free capacity in tokens, accounting for partially-filled tail blocks
    /// pessimistically (free blocks × block size).
    pub fn free_tokens(&self) -> u64 {
        self.free_blocks * u64::from(self.block_tokens)
    }

    /// Fraction of blocks in use (0 when the pool is empty).
    pub fn utilization(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            (self.total_blocks - self.free_blocks) as f64 / self.total_blocks as f64
        }
    }

    /// Number of live sequences.
    pub fn live_sequences(&self) -> usize {
        self.seqs.len()
    }

    /// True if appending `tokens` to sequence `seq` (creating it if absent)
    /// would succeed without evicting anything.
    pub fn can_reserve(&self, seq: u64, tokens: u64) -> bool {
        let have = self.seqs.get(&seq);
        let current = have.map_or(0, |s| s.tokens);
        let current_blocks = have.map_or(0, |s| s.blocks);
        let needed_blocks = (current + tokens).div_ceil(u64::from(self.block_tokens));
        needed_blocks.saturating_sub(current_blocks) <= self.free_blocks
    }

    /// Appends `tokens` to sequence `seq`, creating it if absent. Returns
    /// false (and changes nothing) if the pool cannot supply the blocks.
    pub fn try_reserve(&mut self, seq: u64, tokens: u64) -> bool {
        if !self.can_reserve(seq, tokens) {
            return false;
        }
        let entry = self.seqs.entry(seq).or_insert(SeqAlloc { tokens: 0, blocks: 0 });
        let needed_blocks = (entry.tokens + tokens).div_ceil(u64::from(self.block_tokens));
        if needed_blocks > entry.blocks {
            self.free_blocks -= needed_blocks - entry.blocks;
            entry.blocks = needed_blocks;
        }
        entry.tokens += tokens;
        self.used_tokens += tokens;
        self.peak_used_tokens = self.peak_used_tokens.max(self.used_tokens);
        true
    }

    /// Tokens held by sequence `seq`, 0 if absent.
    pub fn sequence_tokens(&self, seq: u64) -> u64 {
        self.seqs.get(&seq).map_or(0, |s| s.tokens)
    }

    /// Releases all blocks of sequence `seq`. Releasing an absent sequence
    /// is a no-op (idempotent teardown).
    pub fn release(&mut self, seq: u64) {
        if let Some(alloc) = self.seqs.remove(&seq) {
            self.used_tokens -= alloc.tokens;
            self.free_blocks += alloc.blocks;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reserve_rounds_up_to_blocks() {
        let mut kv = KvCacheManager::new(64, 16);
        assert!(kv.try_reserve(1, 17)); // 2 blocks
        assert_eq!(kv.free_tokens(), 32);
        assert_eq!(kv.sequence_tokens(1), 17);
    }

    #[test]
    fn incremental_appends_fill_tail_block() {
        let mut kv = KvCacheManager::new(32, 16);
        for _ in 0..16 {
            assert!(kv.try_reserve(1, 1));
        }
        assert_eq!(kv.free_tokens(), 16); // exactly one block used
    }

    #[test]
    fn rejected_reserve_changes_nothing() {
        let mut kv = KvCacheManager::new(16, 16);
        assert!(kv.try_reserve(1, 10));
        let before_used = kv.used_tokens();
        assert!(!kv.try_reserve(2, 100));
        assert_eq!(kv.used_tokens(), before_used);
        assert_eq!(kv.sequence_tokens(2), 0);
    }

    #[test]
    fn release_returns_all_blocks() {
        let mut kv = KvCacheManager::new(64, 16);
        assert!(kv.try_reserve(1, 50));
        kv.release(1);
        assert_eq!(kv.used_tokens(), 0);
        assert_eq!(kv.free_tokens(), 64);
        assert_eq!(kv.live_sequences(), 0);
    }

    #[test]
    fn release_absent_sequence_is_noop() {
        let mut kv = KvCacheManager::new(64, 16);
        kv.release(42);
        assert_eq!(kv.free_tokens(), 64);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut kv = KvCacheManager::new(64, 16);
        kv.try_reserve(1, 40);
        kv.release(1);
        kv.try_reserve(2, 10);
        assert_eq!(kv.peak_used_tokens(), 40);
    }

    #[test]
    fn group_extends_monotonically_and_shares() {
        let mut kv = KvCacheManager::new(160, 16);
        assert!(kv.try_extend_group(1, 50));
        assert_eq!(kv.group_tokens(1), 50);
        let used_after_first = kv.used_tokens();
        // Second turn with a larger watermark only pays the delta.
        assert!(kv.try_extend_group(1, 80));
        assert_eq!(kv.used_tokens(), used_after_first + 30);
        // Smaller watermark is free.
        assert!(kv.try_extend_group(1, 10));
        assert_eq!(kv.group_tokens(1), 80);
        kv.release_group(1);
        assert_eq!(kv.used_tokens(), 0);
        assert_eq!(kv.group_tokens(1), 0);
    }

    #[test]
    fn group_extension_respects_capacity() {
        let mut kv = KvCacheManager::new(64, 16);
        assert!(kv.try_extend_group(7, 48));
        assert!(!kv.try_extend_group(7, 200));
        assert_eq!(kv.group_tokens(7), 48, "failed extension must not corrupt");
    }

    #[test]
    fn groups_do_not_collide_with_request_ids() {
        let mut kv = KvCacheManager::new(160, 16);
        assert!(kv.try_reserve(1, 32)); // request id 1
        assert!(kv.try_extend_group(1, 32)); // group id 1
        assert_eq!(kv.sequence_tokens(1), 32);
        assert_eq!(kv.group_tokens(1), 32);
        kv.release(1);
        assert_eq!(kv.group_tokens(1), 32, "request release must not free the group");
    }

    #[test]
    fn shrink_group_rolls_back_an_extension() {
        let mut kv = KvCacheManager::new(160, 16);
        assert!(kv.try_extend_group(3, 48));
        let used = kv.used_tokens();
        assert!(kv.try_extend_group(3, 100));
        kv.shrink_group(3, 48);
        assert_eq!(kv.group_tokens(3), 48);
        assert_eq!(kv.used_tokens(), used);
        // Shrinking to zero drops the group entirely.
        kv.shrink_group(3, 0);
        assert_eq!(kv.group_tokens(3), 0);
        assert_eq!(kv.used_tokens(), 0);
        assert_eq!(kv.free_tokens(), 160);
    }

    #[test]
    fn shrink_group_is_noop_when_at_or_below_watermark() {
        let mut kv = KvCacheManager::new(160, 16);
        kv.shrink_group(9, 10); // absent group
        assert_eq!(kv.used_tokens(), 0);
        assert!(kv.try_extend_group(9, 32));
        kv.shrink_group(9, 64); // larger watermark: no-op
        assert_eq!(kv.group_tokens(9), 32);
        assert_eq!(kv.free_tokens(), 128);
    }

    #[test]
    fn capacity_truncates_partial_blocks() {
        let kv = KvCacheManager::new(100, 16);
        assert_eq!(kv.capacity_tokens(), 96);
    }

    #[test]
    fn exhaustion_refuses_and_release_restores() {
        let mut kv = KvCacheManager::new(32, 16);
        assert!(kv.try_reserve(1, 16));
        assert!(kv.try_reserve(2, 1));
        assert_eq!(kv.free_tokens(), 0);
        assert_eq!(kv.utilization(), 1.0);
        assert!(!kv.can_reserve(3, 1));
        assert!(!kv.try_reserve(3, 1));
        // A sequence's partially filled tail block still takes appends.
        assert!(kv.try_reserve(2, 15));
        assert!(!kv.try_reserve(2, 1));
        assert!(!kv.try_extend_group(1, 1));
        kv.release(1);
        assert_eq!(kv.free_tokens(), 16);
        assert!(kv.try_reserve(3, 16));
        assert_eq!(kv.live_sequences(), 2);
    }

    #[test]
    fn zero_capacity_manager_admits_nothing() {
        for capacity in [0, 15] {
            let mut kv = KvCacheManager::new(capacity, 16);
            assert_eq!(kv.capacity_tokens(), 0);
            assert_eq!(kv.free_tokens(), 0);
            assert_eq!(kv.utilization(), 0.0);
            assert!(!kv.try_reserve(1, 1));
            assert!(!kv.try_extend_group(1, 1));
            // Zero-token work needs no block.
            assert!(kv.try_reserve(2, 0));
            assert!(kv.try_extend_group(2, 0));
            assert_eq!(kv.used_tokens(), 0);
        }
    }

    /// One manager operation for the accounting property.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Reserve(u64, u64),
        Release(u64),
        ExtendGroup(u64, u64),
        ShrinkGroup(u64, u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..8, 1u64..40).prop_map(|(s, t)| Op::Reserve(s, t)),
            (0u64..8).prop_map(Op::Release),
            (0u64..4, 0u64..120).prop_map(|(g, w)| Op::ExtendGroup(g, w)),
            (0u64..4, 0u64..120).prop_map(|(g, w)| Op::ShrinkGroup(g, w)),
        ]
    }

    proptest! {
        #[test]
        fn accounting_invariants_hold(ops in prop::collection::vec(op(), 0..300)) {
            const BLOCK: u64 = 16;
            let mut kv = KvCacheManager::new(512, BLOCK as u32);
            let mut shadow: HashMap<u64, u64> = HashMap::new();
            let mut groups: HashMap<u64, u64> = HashMap::new();
            for op in ops {
                match op {
                    Op::Reserve(seq, tokens) => {
                        if kv.try_reserve(seq, tokens) {
                            *shadow.entry(seq).or_default() += tokens;
                        }
                    }
                    Op::Release(seq) => {
                        kv.release(seq);
                        shadow.remove(&seq);
                    }
                    Op::ExtendGroup(group, watermark) => {
                        let current = groups.get(&group).copied().unwrap_or(0);
                        if kv.try_extend_group(group, watermark) && watermark > current {
                            groups.insert(group, watermark);
                        }
                    }
                    Op::ShrinkGroup(group, watermark) => {
                        kv.shrink_group(group, watermark);
                        match groups.get(&group) {
                            Some(_) if watermark == 0 => {
                                groups.remove(&group);
                            }
                            Some(&current) if watermark < current => {
                                groups.insert(group, watermark);
                            }
                            _ => {}
                        }
                    }
                }
                let expected: u64 = shadow.values().chain(groups.values()).sum();
                prop_assert_eq!(kv.used_tokens(), expected);
                prop_assert!(kv.used_tokens() <= kv.capacity_tokens());
                for (&s, &t) in &shadow {
                    prop_assert_eq!(kv.sequence_tokens(s), t);
                }
                for (&g, &t) in &groups {
                    prop_assert_eq!(kv.group_tokens(g), t);
                }
                // Block conservation: every block is free or charged to
                // exactly one sequence, whole blocks per sequence.
                let held: u64 = shadow
                    .values()
                    .chain(groups.values())
                    .map(|&t| t.div_ceil(BLOCK) * BLOCK)
                    .sum();
                prop_assert_eq!(kv.free_tokens() + held, kv.capacity_tokens());
            }
        }

        #[test]
        fn can_reserve_agrees_with_try_reserve(
            seed in prop::collection::vec((0u64..4, 1u64..100), 0..100)
        ) {
            let mut kv = KvCacheManager::new(256, 16);
            for (seq, tokens) in seed {
                let predicted = kv.can_reserve(seq, tokens);
                let actual = kv.try_reserve(seq, tokens);
                prop_assert_eq!(predicted, actual);
            }
        }
    }
}

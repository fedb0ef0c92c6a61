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
/// makes [`KvCacheManager::try_reserve`], [`KvCacheManager::try_join`]
/// and [`KvCacheManager::release`] O(1) regardless of how many blocks
/// move.
///
/// A shared prefix (a multi-turn session's history) is owned by its
/// members: a sequence joins its group with [`KvCacheManager::try_join`],
/// which grows the group's allocation to the sequence's cached prefix,
/// and the group's blocks return to the pool when its last member is
/// released.
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
    /// Blocks held by no sequence or group.
    free_blocks: u64,
    seqs: IdMap<SeqAlloc>,
    /// The shared prefix group each member sequence joined (kept apart
    /// from `seqs`, whose entries every sequence pays for).
    member_of: IdMap<u64>,
    /// Shared prefix allocations of the groups with live members, keyed
    /// by group id (a namespace of its own, apart from sequence ids).
    groups: IdMap<GroupAlloc>,
    used_tokens: u64,
    peak_used_tokens: u64,
}

#[derive(Debug, Clone)]
struct SeqAlloc {
    tokens: u64,
    /// `ceil(tokens / block_tokens)`: the blocks charged to the sequence.
    blocks: u64,
}

#[derive(Debug, Clone)]
struct GroupAlloc {
    /// The longest cached prefix any live member joined with.
    tokens: u64,
    blocks: u64,
    /// Live sequences that joined the group.
    members: u32,
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
            member_of: IdMap::default(),
            groups: IdMap::default(),
            used_tokens: 0,
            peak_used_tokens: 0,
        }
    }

    /// Blocks a new sequence of `tokens` joining `group` with a cached
    /// prefix of `shared` tokens takes from the pool: its own blocks plus
    /// whatever growing the group's allocation to `shared` costs.
    fn join_blocks(&self, group: u64, shared: u64, tokens: u64) -> u64 {
        let block = u64::from(self.block_tokens);
        let held = self.groups.get(&group).map_or(0, |g| g.blocks);
        shared.div_ceil(block).saturating_sub(held) + tokens.div_ceil(block)
    }

    /// True if [`KvCacheManager::try_join`] of a new sequence of `tokens`
    /// to `group` with a cached prefix of `shared` tokens would succeed.
    pub fn can_join(&self, group: u64, shared: u64, tokens: u64) -> bool {
        self.join_blocks(group, shared, tokens) <= self.free_blocks
    }

    /// Admits the new sequence `seq` as a member of the shared prefix
    /// `group`, all or nothing: grows the group's allocation to at least
    /// `shared` tokens (creating it if the group has no live member) and
    /// reserves `tokens` for `seq` itself. Returns false (and changes
    /// nothing) if the pool cannot supply both. The group is freed with
    /// its last member (see [`KvCacheManager::release`]).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is already live.
    pub fn try_join(&mut self, group: u64, shared: u64, seq: u64, tokens: u64) -> bool {
        assert!(!self.seqs.contains_key(&seq), "sequence {seq} is already live");
        if !self.can_join(group, shared, tokens) {
            return false;
        }
        let block = u64::from(self.block_tokens);
        let alloc =
            self.groups.entry(group).or_insert(GroupAlloc { tokens: 0, blocks: 0, members: 0 });
        if shared > alloc.tokens {
            let blocks = shared.div_ceil(block);
            self.free_blocks -= blocks - alloc.blocks;
            self.used_tokens += shared - alloc.tokens;
            alloc.tokens = shared;
            alloc.blocks = blocks;
        }
        alloc.members += 1;
        let blocks = tokens.div_ceil(block);
        self.free_blocks -= blocks;
        self.seqs.insert(seq, SeqAlloc { tokens, blocks });
        self.member_of.insert(seq, group);
        self.used_tokens += tokens;
        self.peak_used_tokens = self.peak_used_tokens.max(self.used_tokens);
        true
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

    /// Number of live sequences (shared prefix groups not counted).
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

    /// Releases all blocks of sequence `seq`, and its shared prefix
    /// group's with the group's last member. Releasing an absent sequence
    /// is a no-op (idempotent teardown).
    pub fn release(&mut self, seq: u64) {
        let Some(alloc) = self.seqs.remove(&seq) else { return };
        self.used_tokens -= alloc.tokens;
        self.free_blocks += alloc.blocks;
        // Without a live shared-prefix group there is no member to look
        // up: skip hashing the key.
        if self.member_of.is_empty() {
            return;
        }
        let Some(group) = self.member_of.remove(&seq) else { return };
        let shared = self.groups.get_mut(&group).expect("a member implies a live group");
        shared.members -= 1;
        if shared.members == 0 {
            self.used_tokens -= shared.tokens;
            self.free_blocks += shared.blocks;
            self.groups.remove(&group);
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
        assert!(kv.try_join(1, 50, 10, 0));
        let used_after_first = kv.used_tokens();
        assert_eq!(used_after_first, 50);
        // A member with a longer prefix only pays the delta.
        assert!(kv.try_join(1, 80, 11, 0));
        assert_eq!(kv.used_tokens(), used_after_first + 30);
        // A shorter prefix is already resident.
        assert!(kv.try_join(1, 10, 12, 0));
        assert_eq!(kv.used_tokens(), 80);
        // The group outlives every member but its last.
        kv.release(10);
        kv.release(12);
        assert_eq!(kv.used_tokens(), 80);
        kv.release(11);
        assert_eq!(kv.used_tokens(), 0);
        assert_eq!(kv.free_tokens(), 160);
    }

    #[test]
    fn group_extension_respects_capacity() {
        let mut kv = KvCacheManager::new(64, 16);
        assert!(kv.try_join(7, 48, 1, 0));
        assert!(!kv.can_join(7, 200, 0));
        assert!(!kv.try_join(7, 200, 2, 0));
        // The group's share fits but the member's own tokens do not.
        assert!(!kv.try_join(7, 48, 2, 17));
        assert_eq!(kv.used_tokens(), 48, "failed join must not corrupt");
        assert_eq!(kv.sequence_tokens(2), 0);
        assert!(kv.try_join(7, 48, 2, 16));
        assert_eq!(kv.free_tokens(), 0);
    }

    #[test]
    fn groups_do_not_collide_with_request_ids() {
        let mut kv = KvCacheManager::new(160, 16);
        assert!(kv.try_reserve(1, 32)); // request id 1
        assert!(kv.try_join(1, 32, 2, 16)); // group id 1, request id 2
        assert_eq!(kv.sequence_tokens(1), 32);
        assert_eq!(kv.used_tokens(), 80);
        kv.release(1);
        assert_eq!(kv.used_tokens(), 48, "request release must not free the group");
        kv.release(2);
        assert_eq!(kv.used_tokens(), 0);
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
        assert!(!kv.try_join(1, 1, 4, 0));
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
            assert!(!kv.try_join(1, 1, 3, 0));
            // Zero-token work needs no block.
            assert!(kv.try_reserve(2, 0));
            assert!(kv.try_join(2, 0, 4, 0));
            assert_eq!(kv.used_tokens(), 0);
        }
    }

    /// One manager operation for the accounting property.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Reserve(u64, u64),
        Release(u64),
        /// `Join(group, shared, seq, tokens)`.
        Join(u64, u64, u64, u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..8, 1u64..40).prop_map(|(s, t)| Op::Reserve(s, t)),
            (0u64..8).prop_map(Op::Release),
            (0u64..4, 0u64..120, 0u64..8, 0u64..60).prop_map(|(g, w, s, t)| Op::Join(g, w, s, t)),
        ]
    }

    proptest! {
        #[test]
        fn accounting_invariants_hold(ops in prop::collection::vec(op(), 0..300)) {
            const BLOCK: u64 = 16;
            let mut kv = KvCacheManager::new(512, BLOCK as u32);
            // The naive model: each sequence's tokens and group, and each
            // group's prefix and member count.
            let mut seqs: HashMap<u64, (u64, Option<u64>)> = HashMap::new();
            let mut groups: HashMap<u64, (u64, u32)> = HashMap::new();
            for op in ops {
                match op {
                    Op::Reserve(seq, tokens) => {
                        if kv.try_reserve(seq, tokens) {
                            seqs.entry(seq).or_insert((0, None)).0 += tokens;
                        }
                    }
                    Op::Release(seq) => {
                        kv.release(seq);
                        if let Some((_, Some(group))) = seqs.remove(&seq) {
                            let members = &mut groups.get_mut(&group).expect("live group").1;
                            *members -= 1;
                            if *members == 0 {
                                groups.remove(&group);
                            }
                        }
                    }
                    Op::Join(group, shared, seq, tokens) => {
                        if seqs.contains_key(&seq) {
                            continue;
                        }
                        let (used, free) = (kv.used_tokens(), kv.free_tokens());
                        let predicted = kv.can_join(group, shared, tokens);
                        let joined = kv.try_join(group, shared, seq, tokens);
                        prop_assert_eq!(predicted, joined, "can_join disagrees with try_join");
                        if joined {
                            seqs.insert(seq, (tokens, Some(group)));
                            let entry = groups.entry(group).or_insert((0, 0));
                            *entry = (entry.0.max(shared), entry.1 + 1);
                        } else {
                            prop_assert_eq!(kv.used_tokens(), used, "a failed join changed usage");
                            prop_assert_eq!(kv.free_tokens(), free, "a failed join moved blocks");
                            prop_assert_eq!(kv.sequence_tokens(seq), 0);
                        }
                    }
                }
                let expected: u64 =
                    seqs.values().map(|s| s.0).chain(groups.values().map(|g| g.0)).sum();
                prop_assert_eq!(kv.used_tokens(), expected);
                prop_assert!(kv.used_tokens() <= kv.capacity_tokens());
                prop_assert_eq!(kv.live_sequences(), seqs.len());
                for (&s, &(t, _)) in &seqs {
                    prop_assert_eq!(kv.sequence_tokens(s), t);
                }
                // Block conservation: every block is free or charged to
                // exactly one sequence or live group, whole blocks each;
                // a group with no member left holds none.
                let held: u64 = seqs
                    .values()
                    .map(|s| s.0)
                    .chain(groups.values().map(|g| g.0))
                    .map(|t| t.div_ceil(BLOCK) * BLOCK)
                    .sum();
                prop_assert_eq!(kv.free_tokens() + held, kv.capacity_tokens());
            }
            // Releasing every sequence frees every group with it.
            for seq in seqs.keys() {
                kv.release(*seq);
            }
            prop_assert_eq!(kv.used_tokens(), 0);
            prop_assert_eq!(kv.free_tokens(), kv.capacity_tokens());
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

//! α–β cost models for the collectives used by inference parallelisms.
//!
//! Tensor parallelism pays two **all-reduces** per transformer layer;
//! Ulysses sequence parallelism pays two **all-to-alls** plus a final
//! **all-gather** (Algorithm 1 of the paper). The relative cost of these
//! collectives is the mechanism behind every throughput result in the
//! evaluation, so they are modelled explicitly with the standard
//! bandwidth-optimal algorithms:
//!
//! * ring all-reduce: `2(P-1)/P · V` bytes through each GPU's port,
//!   `2(P-1)` latency steps;
//! * ring all-gather / reduce-scatter: `(P-1)/P · V` bytes, `P-1` steps;
//! * all-to-all: each rank injects `(P-1)/P · V` bytes; on a full crossbar
//!   (NVSwitch) this is a single step, otherwise `P-1` steps.
//!
//! `V` is the *global* payload for all-reduce/all-gather (every rank ends
//! with `V` bytes) and the *per-rank send buffer* for all-to-all.

use crate::interconnect::InterconnectSpec;
use sp_metrics::Dur;

/// The collective operations the parallelisms issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Reduce + broadcast: every rank ends with the reduced payload.
    AllReduce,
    /// Every rank exchanges a distinct shard with every other rank.
    AllToAll,
    /// Every rank ends with the concatenation of all shards.
    AllGather,
    /// Inverse of all-gather: payload is reduced and scattered.
    ReduceScatter,
}

/// Times collectives over a given interconnect.
///
/// # Examples
///
/// ```
/// use sp_cluster::{CollectiveModel, InterconnectSpec};
///
/// let m = CollectiveModel::new(InterconnectSpec::nvswitch());
/// // Communication among 1 rank is free:
/// assert!(m.all_reduce(1 << 30, 1).is_zero());
/// // More ranks move more data for the same payload:
/// assert!(m.all_reduce(1 << 20, 8) > m.all_reduce(1 << 20, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveModel {
    interconnect: InterconnectSpec,
}

impl CollectiveModel {
    /// Creates a model over `interconnect`.
    pub fn new(interconnect: InterconnectSpec) -> CollectiveModel {
        CollectiveModel { interconnect }
    }

    /// The underlying interconnect.
    pub fn interconnect(&self) -> InterconnectSpec {
        self.interconnect
    }

    /// Time for a ring all-reduce of a `bytes`-byte payload across `ranks`.
    pub fn all_reduce(&self, bytes: u64, ranks: usize) -> Dur {
        if ranks <= 1 || bytes == 0 {
            return Dur::ZERO;
        }
        let p = ranks as f64;
        let vol = 2.0 * (p - 1.0) / p * bytes as f64;
        let steps = 2.0 * (p - 1.0);
        self.alpha_beta(vol, steps)
    }

    /// Time for a latency-optimized tree all-reduce (reduce + broadcast
    /// over a binary tree): `2·log2(P)` latency steps but `2·V` bytes
    /// through the bottleneck link. NCCL picks tree for small payloads;
    /// compare with the bandwidth-optimal ring of
    /// [`CollectiveModel::all_reduce`].
    pub fn all_reduce_tree(&self, bytes: u64, ranks: usize) -> Dur {
        if ranks <= 1 || bytes == 0 {
            return Dur::ZERO;
        }
        let steps = 2.0 * (ranks as f64).log2().ceil();
        self.alpha_beta(2.0 * bytes as f64, steps)
    }

    /// Time for an all-to-all where each rank sends a `send_bytes`-byte
    /// buffer, evenly sharded to the other ranks.
    pub fn all_to_all(&self, send_bytes: u64, ranks: usize) -> Dur {
        if ranks <= 1 || send_bytes == 0 {
            return Dur::ZERO;
        }
        let p = ranks as f64;
        let vol = (p - 1.0) / p * send_bytes as f64;
        let steps = if self.interconnect.full_crossbar { 1.0 } else { p - 1.0 };
        self.alpha_beta(vol, steps)
    }

    /// Time for a ring all-gather producing a `bytes`-byte result on every
    /// rank.
    pub fn all_gather(&self, bytes: u64, ranks: usize) -> Dur {
        if ranks <= 1 || bytes == 0 {
            return Dur::ZERO;
        }
        let p = ranks as f64;
        let vol = (p - 1.0) / p * bytes as f64;
        self.alpha_beta(vol, p - 1.0)
    }

    /// Time for a ring reduce-scatter of a `bytes`-byte payload.
    pub fn reduce_scatter(&self, bytes: u64, ranks: usize) -> Dur {
        // Same volume and steps as all-gather on a ring.
        self.all_gather(bytes, ranks)
    }

    /// Dispatches on [`CollectiveKind`].
    pub fn time(&self, kind: CollectiveKind, bytes: u64, ranks: usize) -> Dur {
        match kind {
            CollectiveKind::AllReduce => self.all_reduce(bytes, ranks),
            CollectiveKind::AllToAll => self.all_to_all(bytes, ranks),
            CollectiveKind::AllGather => self.all_gather(bytes, ranks),
            CollectiveKind::ReduceScatter => self.reduce_scatter(bytes, ranks),
        }
    }

    fn alpha_beta(&self, volume_bytes: f64, steps: f64) -> Dur {
        let bw = self.interconnect.effective_bw();
        Dur::from_secs(steps * self.interconnect.step_latency + volume_bytes / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> CollectiveModel {
        CollectiveModel::new(InterconnectSpec::nvswitch())
    }

    #[test]
    fn single_rank_is_free() {
        let m = model();
        for kind in [
            CollectiveKind::AllReduce,
            CollectiveKind::AllToAll,
            CollectiveKind::AllGather,
            CollectiveKind::ReduceScatter,
        ] {
            assert!(m.time(kind, 1 << 30, 1).is_zero(), "{kind:?} not free at 1 rank");
        }
    }

    #[test]
    fn zero_bytes_is_free() {
        let m = model();
        assert!(m.all_reduce(0, 8).is_zero());
        assert!(m.all_to_all(0, 8).is_zero());
    }

    #[test]
    fn all_reduce_costs_twice_all_gather_volume() {
        // For the same payload and rank count, ring all-reduce moves 2x the
        // bytes of all-gather; with latency subtracted the ratio is exactly 2.
        let m = model();
        let ranks = 8;
        let bytes = 1u64 << 30;
        let alpha = InterconnectSpec::nvswitch().step_latency;
        let ar = m.all_reduce(bytes, ranks).as_secs() - 2.0 * 7.0 * alpha;
        let ag = m.all_gather(bytes, ranks).as_secs() - 7.0 * alpha;
        assert!((ar / ag - 2.0).abs() < 1e-9);
    }

    #[test]
    fn crossbar_all_to_all_has_one_latency_step() {
        let nv = model();
        let mut pcie_spec = InterconnectSpec::pcie_gen5();
        // Same β so only the step count differs.
        pcie_spec.link_bw = InterconnectSpec::nvswitch().link_bw;
        pcie_spec.bw_efficiency = InterconnectSpec::nvswitch().bw_efficiency;
        pcie_spec.step_latency = InterconnectSpec::nvswitch().step_latency;
        let ring = CollectiveModel::new(pcie_spec);
        let diff = ring.all_to_all(1024, 8).as_secs() - nv.all_to_all(1024, 8).as_secs();
        let expected = 6.0 * pcie_spec.step_latency; // (P-1) - 1 extra steps
        assert!((diff - expected).abs() < 1e-12);
    }

    #[test]
    fn tree_wins_small_payloads_ring_wins_large() {
        let m = model();
        // 16 KB across 8 ranks: tree's 6 latency steps beat ring's 14.
        assert!(m.all_reduce_tree(16 << 10, 8) < m.all_reduce(16 << 10, 8));
        // 256 MB: ring's 2(P-1)/P volume factor beats tree's 2x.
        assert!(m.all_reduce(256 << 20, 8) < m.all_reduce_tree(256 << 20, 8));
    }

    #[test]
    fn table2_tp_vs_sp_asymmetry() {
        // Table 2: TP communicates c(n,w) while SP communicates c(n,w)/SP.
        // Model this with a fixed global activation payload: TP all-reduces
        // the whole payload, SP all-to-alls a 1/SP slice per rank. The SP
        // collective must be substantially cheaper.
        let m = model();
        let payload = 64u64 << 20; // 64 MiB of activations
        let p = 8;
        let tp_cost = m.all_reduce(payload, p);
        let sp_cost = m.all_to_all(payload / p as u64, p);
        assert!(
            tp_cost.as_secs() > 8.0 * sp_cost.as_secs(),
            "TP all-reduce ({tp_cost}) should dwarf SP all-to-all ({sp_cost})"
        );
    }

    proptest! {
        #[test]
        fn costs_monotone_in_bytes(
            a in 1u64..1_000_000_000u64,
            b in 1u64..1_000_000_000u64,
            ranks in 2usize..16,
        ) {
            let m = model();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            for kind in [
                CollectiveKind::AllReduce,
                CollectiveKind::AllToAll,
                CollectiveKind::AllGather,
                CollectiveKind::ReduceScatter,
            ] {
                prop_assert!(m.time(kind, lo, ranks) <= m.time(kind, hi, ranks));
            }
        }

        #[test]
        fn all_reduce_monotone_in_ranks(
            bytes in 1u64..1_000_000_000u64,
            r1 in 2usize..16,
            r2 in 2usize..16,
        ) {
            let m = model();
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            prop_assert!(m.all_reduce(bytes, lo) <= m.all_reduce(bytes, hi));
        }

        #[test]
        fn costs_are_finite_and_nonnegative(
            bytes in 0u64..u64::MAX / 4,
            ranks in 1usize..64,
        ) {
            let m = model();
            for kind in [
                CollectiveKind::AllReduce,
                CollectiveKind::AllToAll,
                CollectiveKind::AllGather,
                CollectiveKind::ReduceScatter,
            ] {
                let t = m.time(kind, bytes, ranks).as_secs();
                prop_assert!(t.is_finite() && t >= 0.0);
            }
        }
    }
}

//! The engine's indexed waiting queue.
//!
//! The scheduler used to keep waiting requests in a bare `VecDeque`:
//! every admission pass rescanned it for the next candidate (O(W)) and
//! evicted the winner with `VecDeque::remove` (O(W) shifting) — O(W²)
//! behaviour exactly when it hurts, under backlog. [`WaitQueue`] keeps
//! the same queue *order* but adds ordered indexes so candidate
//! selection and removal are O(log W) for FCFS, InteractiveFirst, and
//! EDF admission alike, with admission order unchanged.
//!
//! Ordering model: each entry gets a stable integer *position token*.
//! Back-pushes take increasing tokens, front-pushes decreasing ones, so
//! iterating tokens in ascending order replays the deque order exactly,
//! surviving arbitrary interleavings of `push_front` (preemption
//! requeues), `push_back` (arrivals, sheds) and mid-queue removals
//! (admissions, rejections).

use sp_metrics::{ClassSlo, SimTime};
use sp_workload::{Request, RequestClass};
use std::collections::{BTreeMap, BTreeSet};

/// Stable position token of a queued request. Ascending token order is
/// queue (front-to-back) order.
pub(crate) type QueuePos = i64;

/// Total-order bit encoding of a non-negative simulated instant:
/// for non-negative finite floats, `to_bits` is monotonic, so deadline
/// comparisons become integer comparisons. `-0.0` (bit pattern with the
/// sign bit set, which would sort above every positive value) is
/// normalized to `+0.0` first.
fn time_bits(t: SimTime) -> u64 {
    (t.as_secs() + 0.0).to_bits()
}

/// Indexed waiting queue: deque-ordered storage plus an EDF index on
/// TTFT deadlines, a position index of interactive-class entries and a
/// deadline index of interactive-class entries.
#[derive(Debug)]
pub(crate) struct WaitQueue {
    /// The queue proper, keyed by position token.
    by_pos: BTreeMap<QueuePos, Request>,
    /// Next token handed to a front push (decreasing).
    next_front: QueuePos,
    /// Next token handed to a back push (increasing).
    next_back: QueuePos,
    /// EDF index: `(TTFT-deadline bits, position)`. Deadlines are fixed
    /// per request (`arrival + class budget`), so entries never need
    /// rekeying. Maintained only when `slo` is set.
    edf: BTreeSet<(u64, QueuePos)>,
    /// Positions of interactive-class entries (InteractiveFirst lookup).
    interactive: BTreeSet<QueuePos>,
    /// Interactive-class entries by `(TTFT-deadline bits, position)`:
    /// the salvageable ones — deadline not yet passed — are a suffix.
    /// Maintained only when `slo` is set.
    interactive_edf: BTreeSet<(u64, QueuePos)>,
    /// Deadline source for the EDF index.
    slo: Option<ClassSlo>,
    /// Mutation counter, bumped on every push and removal. The engine's
    /// KV-blocked admission gate records the epoch it was armed under and
    /// treats any mutation as invalidating: a changed queue can change
    /// the admission candidate, so the gate's cached verdict is stale.
    epoch: u64,
}

impl WaitQueue {
    /// Creates an empty queue. `slo` enables the EDF deadline index.
    pub fn new(slo: Option<ClassSlo>) -> WaitQueue {
        WaitQueue {
            by_pos: BTreeMap::new(),
            next_front: -1,
            next_back: 0,
            edf: BTreeSet::new(),
            interactive: BTreeSet::new(),
            interactive_edf: BTreeSet::new(),
            slo,
            epoch: 0,
        }
    }

    /// Mutation epoch: changes whenever an entry is pushed or removed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when nothing waits.
    pub fn is_empty(&self) -> bool {
        self.by_pos.is_empty()
    }

    /// The waiting requests in queue (front-to-back) order.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.by_pos.values()
    }

    /// Queue-order iteration with position tokens — the reference
    /// (pre-index) admission scan needs positions to hand back.
    pub fn iter_with_pos(&self) -> impl Iterator<Item = (QueuePos, &Request)> {
        self.by_pos.iter().map(|(&p, r)| (p, r))
    }

    /// `req`'s TTFT-deadline key, when the deadline index is kept.
    fn deadline_key(&self, pos: QueuePos, req: &Request) -> Option<(u64, QueuePos)> {
        self.slo.map(|slo| (time_bits(slo.ttft_deadline(req.arrival, req.class)), pos))
    }

    fn index_insert(&mut self, pos: QueuePos, req: &Request) {
        let key = self.deadline_key(pos, req);
        if let Some(key) = key {
            self.edf.insert(key);
        }
        if req.class == RequestClass::Interactive {
            self.interactive.insert(pos);
            if let Some(key) = key {
                self.interactive_edf.insert(key);
            }
        }
    }

    /// Appends at the back of the queue.
    pub fn push_back(&mut self, req: Request) {
        let pos = self.next_back;
        self.next_back += 1;
        self.epoch += 1;
        self.index_insert(pos, &req);
        self.by_pos.insert(pos, req);
    }

    /// Prepends at the front of the queue (preemption requeues retry
    /// first).
    pub fn push_front(&mut self, req: Request) {
        let pos = self.next_front;
        self.next_front -= 1;
        self.epoch += 1;
        self.index_insert(pos, &req);
        self.by_pos.insert(pos, req);
    }

    /// The front entry's position, if any.
    pub fn front_pos(&self) -> Option<QueuePos> {
        self.by_pos.keys().next().copied()
    }

    /// The queued request at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not in the queue.
    pub fn get(&self, pos: QueuePos) -> &Request {
        self.by_pos.get(&pos).expect("position is queued")
    }

    /// Removes and returns the request at `pos`, O(log W).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not in the queue.
    pub fn remove(&mut self, pos: QueuePos) -> Request {
        let req = self.by_pos.remove(&pos).expect("position is queued");
        self.epoch += 1;
        let key = self.deadline_key(pos, &req);
        if let Some(key) = key {
            self.edf.remove(&key);
        }
        if req.class == RequestClass::Interactive {
            self.interactive.remove(&pos);
            if let Some(key) = key {
                self.interactive_edf.remove(&key);
            }
        }
        req
    }

    /// Position of the first interactive-class entry in queue order, if
    /// any.
    pub fn first_interactive_pos(&self) -> Option<QueuePos> {
        self.interactive.iter().next().copied()
    }

    /// The interactive-class requests whose TTFT deadline has not passed
    /// at `clock` (`deadline >= clock`), in deadline order — O(S log W)
    /// for S of them, skipping the expired ones a backlog piles up.
    /// Empty unless the queue keeps deadlines (`slo` set).
    pub fn salvageable_interactive(&self, clock: SimTime) -> impl Iterator<Item = &Request> {
        self.interactive_edf
            .range((time_bits(clock), QueuePos::MIN)..)
            .map(|(_, pos)| self.by_pos.get(pos).expect("indexed position is queued"))
    }

    /// Goodput-first EDF candidate at instant `clock`: the earliest
    /// deadline among *salvageable* entries (deadline not yet passed,
    /// i.e. `deadline >= clock`), falling back to the earliest deadline
    /// overall when every deadline is blown. Equal deadlines resolve to
    /// the earlier queue position. O(log W).
    ///
    /// This reproduces the old linear scan's `min_by` over the key
    /// `(deadline < clock, deadline)` with first-minimum (queue-order)
    /// tie-break: expired entries are exactly those whose deadline sorts
    /// below `clock`, so they form a prefix of the deadline-ordered
    /// index and a single successor query skips them.
    pub fn edf_candidate(&self, clock: SimTime) -> Option<QueuePos> {
        let salvageable = (time_bits(clock), QueuePos::MIN);
        self.edf.range(salvageable..).next().or_else(|| self.edf.iter().next()).map(|&(_, pos)| pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sp_metrics::{Dur, SloTarget};

    fn req(id: u64, at: f64, class: RequestClass) -> Request {
        Request {
            id,
            arrival: SimTime::from_secs(at),
            input_tokens: 100,
            output_tokens: 10,
            class,
            cached_prefix: 0,
            prefix_group: None,
        }
    }

    fn slo(interactive_ttft: f64, batch_ttft: f64) -> ClassSlo {
        ClassSlo {
            interactive: SloTarget {
                ttft: Dur::from_secs(interactive_ttft),
                tpot: Dur::from_secs(1.0),
            },
            batch: SloTarget { ttft: Dur::from_secs(batch_ttft), tpot: Dur::from_secs(1.0) },
        }
    }

    #[test]
    fn push_order_replays_a_deque() {
        let mut q = WaitQueue::new(None);
        q.push_back(req(0, 0.0, RequestClass::Batch));
        q.push_back(req(1, 0.0, RequestClass::Batch));
        q.push_front(req(2, 0.0, RequestClass::Batch));
        q.push_back(req(3, 0.0, RequestClass::Batch));
        q.push_front(req(4, 0.0, RequestClass::Batch));
        let ids: Vec<u64> = q.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![4, 2, 0, 1, 3]);
        assert_eq!(q.get(q.front_pos().unwrap()).id, 4);
        assert_eq!(q.iter().count(), 5);
    }

    #[test]
    fn remove_keeps_order_and_indexes() {
        let mut q = WaitQueue::new(None);
        q.push_back(req(0, 0.0, RequestClass::Batch));
        q.push_back(req(1, 0.0, RequestClass::Interactive));
        q.push_back(req(2, 0.0, RequestClass::Interactive));
        let first_interactive = q.first_interactive_pos().unwrap();
        assert_eq!(q.remove(first_interactive).id, 1);
        assert_eq!(q.get(q.first_interactive_pos().unwrap()).id, 2);
        let ids: Vec<u64> = q.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 2]);
        assert!(!q.is_empty());
    }

    #[test]
    fn edf_prefers_earliest_salvageable_deadline() {
        // Batch deadline 30 s, interactive 1 s. At clock 0 the
        // interactive deadline (arrival 5 → deadline 6) beats the batch
        // one (arrival 0 → deadline 30).
        let mut q = WaitQueue::new(Some(slo(1.0, 30.0)));
        q.push_back(req(0, 0.0, RequestClass::Batch));
        q.push_back(req(1, 5.0, RequestClass::Interactive));
        let pick = q.edf_candidate(SimTime::ZERO).unwrap();
        assert_eq!(q.get(pick).id, 1);
    }

    #[test]
    fn edf_expired_deadlines_queue_behind_salvageable() {
        // Interactive arrived at 0, deadline 1 — expired by clock 10.
        // Batch arrived at 0, deadline 30 — still salvageable, wins
        // despite the later deadline.
        let mut q = WaitQueue::new(Some(slo(1.0, 30.0)));
        q.push_back(req(0, 0.0, RequestClass::Interactive));
        q.push_back(req(1, 0.0, RequestClass::Batch));
        let pick = q.edf_candidate(SimTime::from_secs(10.0)).unwrap();
        assert_eq!(q.get(pick).id, 1);
        // Once everything is expired, the earliest deadline wins again.
        let pick = q.edf_candidate(SimTime::from_secs(100.0)).unwrap();
        assert_eq!(q.get(pick).id, 0);
    }

    proptest! {
        /// The interactive deadline index returns exactly the
        /// interactive entries a full walk finds unexpired, across
        /// random pushes, removals and clocks — including clocks equal
        /// to a queued deadline, where the entry still counts.
        #[test]
        fn salvageable_interactive_equals_full_walk(
            ops in prop::collection::vec((0u8..3, 0.0f64..20.0, any::<bool>()), 0..60),
            clocks in prop::collection::vec(0.0f64..25.0, 1..8),
        ) {
            let slo = slo(1.0, 30.0);
            let mut q = WaitQueue::new(Some(slo));
            for (id, &(op, at, interactive)) in ops.iter().enumerate() {
                let class =
                    if interactive { RequestClass::Interactive } else { RequestClass::Batch };
                match op {
                    0 => q.push_back(req(id as u64, at, class)),
                    1 => q.push_front(req(id as u64, at, class)),
                    _ => {
                        let nth = q.iter_with_pos().map(|(p, _)| p).nth(id % 5);
                        if let Some(pos) = nth {
                            q.remove(pos);
                        }
                    }
                }
                let deadlines: Vec<SimTime> =
                    q.iter().map(|r| slo.ttft_deadline(r.arrival, r.class)).collect();
                for clock in clocks.iter().map(|&c| SimTime::from_secs(c)).chain(deadlines) {
                    let mut indexed: Vec<u64> =
                        q.salvageable_interactive(clock).map(|r| r.id).collect();
                    let mut walked: Vec<u64> = q
                        .iter()
                        .filter(|r| r.class == RequestClass::Interactive)
                        .filter(|r| slo.ttft_deadline(r.arrival, r.class) >= clock)
                        .map(|r| r.id)
                        .collect();
                    indexed.sort_unstable();
                    walked.sort_unstable();
                    prop_assert_eq!(indexed, walked);
                }
            }
        }
    }

    #[test]
    fn edf_ties_resolve_to_queue_order() {
        let mut q = WaitQueue::new(Some(slo(1.0, 1.0)));
        q.push_back(req(7, 2.0, RequestClass::Batch));
        q.push_back(req(8, 2.0, RequestClass::Interactive));
        let pick = q.edf_candidate(SimTime::ZERO).unwrap();
        assert_eq!(q.get(pick).id, 7, "equal deadlines must pick the earlier position");
    }
}

//! The engine's indexed waiting queue.
//!
//! The scheduler used to keep waiting requests in a bare `VecDeque`:
//! every admission pass rescanned it for the next candidate (O(W)) and
//! evicted the winner with `VecDeque::remove` (O(W) shifting) — O(W²)
//! behaviour exactly when it hurts, under backlog. [`WaitQueue`] keeps
//! the same queue *order* but adds sorted indexes, so candidate
//! selection is at worst a binary search under FCFS, InteractiveFirst
//! and EDF admission alike, with admission order unchanged.
//!
//! Ordering model: each entry gets a stable integer *position*, its
//! offset in a deque of slots. Back-pushes take the next position past
//! the back, front-pushes the one before the front, so ascending
//! position order replays the deque order exactly, surviving arbitrary
//! interleavings of `push_front` (preemption requeues), `push_back`
//! (arrivals, sheds) and mid-queue removals (admissions, rejections).
//! A removed entry leaves a tombstone slot so later positions stay put;
//! tombstones at either end are trimmed, so an empty queue holds no
//! slots. Everything lives in contiguous ring buffers: a steady stream
//! of pushes and removals allocates nothing once the buffers have grown.
//!
//! The EDF index is one sorted deque of `(deadline, position)` keys per
//! request class. A class's TTFT budget is constant, so arrivals (pushed
//! in arrival order) append in deadline order; only out-of-order pushes
//! (shed requeues, `push_front`) insert by binary search. Each class
//! deque is split in two, and every candidate query first moves the
//! keys that expired at its clock from the front of the upper half to
//! the back of the lower one. Under a monotone clock each key crosses
//! once, the next salvageable candidate sits at the front of the upper
//! half, and both finding and removing it are O(1) amortized — so
//! asking again at every admission pass costs no more than remembering
//! the last answer would.

use sp_metrics::{ClassSlo, SimTime};
use sp_workload::{Request, RequestClass};
use std::collections::VecDeque;

/// Stable position of a queued request. Ascending position order is
/// queue (front-to-back) order.
pub(crate) type QueuePos = i64;

/// An EDF key: `(TTFT-deadline bits, position)`.
type EdfKey = (u64, QueuePos);

/// Total-order bit encoding of a non-negative simulated instant:
/// for non-negative finite floats, `to_bits` is monotonic, so deadline
/// comparisons become integer comparisons. `-0.0` (bit pattern with the
/// sign bit set, which would sort above every positive value) is
/// normalized to `+0.0` first.
fn time_bits(t: SimTime) -> u64 {
    (t.as_secs() + 0.0).to_bits()
}

/// Index of a request class in per-class tables.
fn class_index(class: RequestClass) -> usize {
    match class {
        RequestClass::Interactive => 0,
        RequestClass::Batch => 1,
    }
}

/// One class's EDF keys in ascending order, stored as `low ++ high`:
/// every key in `low` sorts below every key in `high`. Where the split
/// falls never changes a query's answer, only its cost; skipping
/// expired keys and removing a key from `high` both move keys from the
/// front of `high` into `low`, so each key crosses at most once.
#[derive(Debug, Default)]
struct EdfIndex {
    low: VecDeque<EdfKey>,
    high: VecDeque<EdfKey>,
}

impl EdfIndex {
    /// True when `key` belongs in `low` (sorts at or below its back).
    fn in_low(&self, key: EdfKey) -> bool {
        self.low.back().is_some_and(|&back| key <= back)
    }

    fn insert(&mut self, key: EdfKey) {
        let half = if self.in_low(key) { &mut self.low } else { &mut self.high };
        if half.back().is_none_or(|&back| back < key) {
            half.push_back(key); // the common case: an arrival
        } else {
            let i = half.partition_point(|&k| k < key);
            half.insert(i, key);
        }
    }

    /// Removes `key`. The admitted candidate is almost always the front
    /// of `high` (the earliest salvageable deadline) or of `low` (the
    /// oldest expired one), which pop without a search. Elsewhere in
    /// `low` this shifts at most the keys between it and the nearer end;
    /// in `high` the keys before it cross into `low` (each key crosses
    /// once), which leaves the next salvageable candidate at the front
    /// of `high`.
    fn remove(&mut self, key: EdfKey) {
        if self.high.front() == Some(&key) {
            self.high.pop_front();
        } else if self.low.front() == Some(&key) {
            self.low.pop_front();
        } else if self.in_low(key) {
            let i = self.low.binary_search(&key).expect("key is indexed");
            self.low.remove(i);
        } else {
            let i = self.high.binary_search(&key).expect("key is indexed");
            self.low.extend(self.high.drain(..i));
            self.high.pop_front();
        }
    }

    /// The smallest key at or above `from`. First moves the keys of
    /// `high` below `from` to the back of `low`; the answer is then the
    /// front of `high` unless `low` still holds keys at or above `from`
    /// (an out-of-order push, or a clock that went back), which one
    /// binary search finds.
    fn first_from(&mut self, from: EdfKey) -> Option<EdfKey> {
        while let Some(&key) = self.high.front().filter(|&&key| key < from) {
            self.high.pop_front();
            self.low.push_back(key);
        }
        if self.low.back().is_some_and(|&back| back >= from) {
            Some(self.low[self.low.partition_point(|&k| k < from)])
        } else {
            self.high.front().copied()
        }
    }

    /// The indexes into `low` and `high` from which every key sorts at
    /// or above `from`.
    fn split_at(&self, from: EdfKey) -> (usize, usize) {
        if self.low.back().is_some_and(|&back| back >= from) {
            (self.low.partition_point(|&k| k < from), 0)
        } else if self.high.front().is_some_and(|&front| front >= from) {
            (self.low.len(), 0)
        } else {
            (self.low.len(), self.high.partition_point(|&k| k < from))
        }
    }

    /// The keys at or above `from`, ascending.
    fn iter_from(&self, from: EdfKey) -> impl Iterator<Item = &EdfKey> {
        let (lo, hi) = self.split_at(from);
        self.low.range(lo..).chain(self.high.range(hi..))
    }

    /// The smallest key.
    fn first(&self) -> Option<EdfKey> {
        self.low.front().or_else(|| self.high.front()).copied()
    }

    fn clear(&mut self) {
        self.low.clear();
        self.high.clear();
    }
}

/// Indexed waiting queue: deque-ordered slots plus per-class EDF
/// indexes on TTFT deadlines and an ascending deque of interactive-class
/// positions. Queued entries are immutable; the engine re-asks for its
/// admission candidate at every pass rather than caching an answer, and
/// the indexes keep that O(1) amortized.
#[derive(Debug)]
pub(crate) struct WaitQueue {
    /// The queue proper: the entry at position `head + i` is
    /// `slots[i]`, `None` once removed. The front and back slots are
    /// always live (tombstones there are trimmed).
    slots: VecDeque<Option<Request>>,
    /// Position of `slots[0]`.
    head: QueuePos,
    /// Live entries.
    len: usize,
    /// EDF indexes, one per request class (see [`class_index`]).
    /// Deadlines are fixed per request (`arrival + class budget`), so
    /// keys never need rekeying. Maintained only when `slo` is set.
    edf: [EdfIndex; 2],
    /// Positions of interactive-class entries, ascending
    /// (InteractiveFirst lookup).
    interactive: VecDeque<QueuePos>,
    /// Deadline source for the EDF indexes.
    slo: Option<ClassSlo>,
}

impl WaitQueue {
    /// Creates an empty queue. `slo` enables the EDF deadline indexes.
    pub fn new(slo: Option<ClassSlo>) -> WaitQueue {
        WaitQueue {
            slots: VecDeque::new(),
            head: 0,
            len: 0,
            edf: Default::default(),
            interactive: VecDeque::new(),
            slo,
        }
    }

    /// True when nothing waits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The waiting requests in queue (front-to-back) order.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.slots.iter().flatten()
    }

    /// Queue-order iteration with positions — the reference (pre-index)
    /// admission scan needs positions to hand back.
    pub fn iter_with_pos(&self) -> impl Iterator<Item = (QueuePos, &Request)> {
        (self.head..).zip(&self.slots).filter_map(|(pos, slot)| slot.as_ref().map(|r| (pos, r)))
    }

    /// `req`'s EDF key, when the deadline indexes are kept.
    fn edf_key(&self, pos: QueuePos, req: &Request) -> Option<EdfKey> {
        self.slo.map(|slo| (time_bits(slo.ttft_deadline(req.arrival, req.class)), pos))
    }

    /// Indexes a new entry at `pos`. The interactive deque stays
    /// ascending because a new position is past the back or before the
    /// front of every queued one.
    fn index_insert(&mut self, pos: QueuePos, req: &Request, at_front: bool) {
        self.len += 1;
        if let Some(key) = self.edf_key(pos, req) {
            self.edf[class_index(req.class)].insert(key);
        }
        if req.class == RequestClass::Interactive {
            if at_front {
                self.interactive.push_front(pos);
            } else {
                self.interactive.push_back(pos);
            }
        }
    }

    /// Appends at the back of the queue. O(1) amortized.
    pub fn push_back(&mut self, req: Request) {
        let pos = self.head + self.slots.len() as QueuePos;
        self.slots.push_back(Some(req));
        self.index_insert(pos, &req, false);
    }

    /// Prepends at the front of the queue (preemption requeues retry
    /// first).
    pub fn push_front(&mut self, req: Request) {
        self.head -= 1;
        self.slots.push_front(Some(req));
        self.index_insert(self.head, &req, true);
    }

    /// The front entry's position, if any.
    pub fn front_pos(&self) -> Option<QueuePos> {
        (self.len > 0).then_some(self.head)
    }

    /// The slot index of `pos`, if `pos` is inside the slot range.
    fn slot(&self, pos: QueuePos) -> Option<usize> {
        usize::try_from(pos - self.head).ok().filter(|&i| i < self.slots.len())
    }

    /// The queued request at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not in the queue.
    pub fn get(&self, pos: QueuePos) -> &Request {
        self.slot(pos).and_then(|i| self.slots[i].as_ref()).expect("position is queued")
    }

    /// Removes and returns the request at `pos`. Index upkeep shifts at
    /// most the keys between the entry and the nearer end of each index
    /// deque, which is none for the candidate of any admission policy.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not in the queue.
    pub fn remove(&mut self, pos: QueuePos) -> Request {
        let req = self.slot(pos).and_then(|i| self.slots[i].take()).expect("position is queued");
        self.len -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.head += 1;
        }
        while self.slots.back().is_some_and(Option::is_none) {
            self.slots.pop_back();
        }
        if let Some(key) = self.edf_key(pos, &req) {
            self.edf[class_index(req.class)].remove(key);
        }
        if req.class == RequestClass::Interactive {
            if self.interactive.front() == Some(&pos) {
                self.interactive.pop_front();
            } else {
                let i =
                    self.interactive.binary_search(&pos).expect("interactive position is indexed");
                self.interactive.remove(i);
            }
        }
        req
    }

    /// Removes every entry, yielding them in queue order.
    pub fn drain(&mut self) -> impl Iterator<Item = Request> + '_ {
        self.len = 0;
        self.interactive.clear();
        for index in &mut self.edf {
            index.clear();
        }
        self.slots.drain(..).flatten()
    }

    /// Position of the first interactive-class entry in queue order, if
    /// any.
    pub fn first_interactive_pos(&self) -> Option<QueuePos> {
        self.interactive.front().copied()
    }

    /// The interactive-class requests whose TTFT deadline has not passed
    /// at `clock` (`deadline >= clock`), in deadline order — one binary
    /// search, then only the S of them, skipping the expired ones a
    /// backlog piles up. Empty unless the queue keeps deadlines (`slo`
    /// set).
    pub fn salvageable_interactive(&self, clock: SimTime) -> impl Iterator<Item = &Request> {
        self.edf[class_index(RequestClass::Interactive)]
            .iter_from((time_bits(clock), QueuePos::MIN))
            .map(|&(_, pos)| self.get(pos))
    }

    /// Goodput-first EDF candidate at instant `clock`: the earliest
    /// deadline among *salvageable* entries (deadline not yet passed,
    /// i.e. `deadline >= clock`), falling back to the earliest deadline
    /// overall when every deadline is blown. Equal deadlines resolve to
    /// the earlier queue position. Mutable only to move the keys that
    /// expired at `clock` below each index's split: the answer does not
    /// depend on the split, and under a monotone clock the lookup is
    /// then O(1) amortized (at worst one binary search per class).
    ///
    /// This reproduces the old linear scan's `min_by` over the key
    /// `(deadline < clock, deadline)` with first-minimum (queue-order)
    /// tie-break: expired entries are exactly those whose deadline sorts
    /// below `clock`, so they form a prefix of each class's index and
    /// one successor query per class skips them.
    pub fn edf_candidate(&mut self, clock: SimTime) -> Option<QueuePos> {
        let from = (time_bits(clock), QueuePos::MIN);
        let salvageable = self.edf.iter_mut().filter_map(|index| index.first_from(from)).min();
        salvageable
            .or_else(|| self.edf.iter().filter_map(EdfIndex::first).min())
            .map(|(_, pos)| pos)
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

    fn class(interactive: bool) -> RequestClass {
        if interactive {
            RequestClass::Interactive
        } else {
            RequestClass::Batch
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

    /// One step of the model-based property below.
    #[derive(Debug, Clone)]
    enum Op {
        PushBack {
            at: f64,
            interactive: bool,
        },
        PushFront {
            at: f64,
            interactive: bool,
        },
        /// Removes the `nth % len` live entry in queue order.
        Remove {
            nth: usize,
        },
        /// Removes the EDF candidate at `clock` (the admission path).
        RemoveCandidate {
            clock: f64,
        },
        /// Removes the entry at the front of one half of a class's EDF
        /// index (`low` or `high`), or without deadline indexes the
        /// first interactive entry.
        RemoveIndexFront {
            interactive: bool,
            low: bool,
        },
        Drain,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Arrivals and clocks on a coarse grid, so equal deadlines and
        // clocks equal to a deadline are common. Pushes outweigh
        // removals so the queue grows a backlog.
        (0u8..13, 0u8..16, any::<bool>(), 0usize..64, 0u8..24).prop_map(
            |(kind, at, interactive, nth, clock)| {
                let at = f64::from(at) * 0.5;
                match kind {
                    0..=3 => Op::PushBack { at, interactive },
                    4 | 5 => Op::PushFront { at, interactive },
                    6 | 7 => Op::Remove { nth },
                    8 | 9 => Op::RemoveCandidate { clock: f64::from(clock) * 0.5 },
                    10 | 11 => Op::RemoveIndexFront { interactive, low: nth % 2 == 0 },
                    _ => Op::Drain,
                }
            },
        )
    }

    proptest! {
        /// The queue against a naive model — a `Vec` in queue order,
        /// scanned linearly for every answer — across random pushes at
        /// both ends, removals anywhere (the EDF candidate among them)
        /// and drains, with and without deadline indexes. After every
        /// operation, at non-monotone clocks, at clocks equal to a
        /// queued deadline and over many equal deadlines, the queue
        /// order and each admission policy's candidate must agree:
        /// FCFS's front, InteractiveFirst's first interactive entry,
        /// the salvageable interactive entries in deadline order, and
        /// EDF's `min_by` over `(deadline < clock, deadline)` with the
        /// first minimum winning.
        #[test]
        fn wait_queue_matches_naive_model(
            ops in prop::collection::vec(arb_op(), 0..80),
            clocks in prop::collection::vec((0u8..24).prop_map(|k| f64::from(k) * 0.5), 1..6),
            with_slo in any::<bool>(),
        ) {
            let slo = slo(1.0, 4.0);
            let mut q = WaitQueue::new(with_slo.then_some(slo));
            let mut model: Vec<Request> = Vec::new();
            let deadline = |r: &Request| slo.ttft_deadline(r.arrival, r.class);
            let naive_edf = |model: &[Request], clock: SimTime| {
                let key = |r: &Request| (deadline(r) < clock, deadline(r).as_secs());
                model
                    .iter()
                    .min_by(|a, b| key(a).partial_cmp(&key(b)).expect("finite"))
                    .map(|r| r.id)
            };
            for (id, op) in ops.into_iter().enumerate() {
                let id = id as u64;
                match op {
                    Op::PushBack { at, interactive } => {
                        let r = req(id, at, class(interactive));
                        q.push_back(r);
                        model.push(r);
                    }
                    Op::PushFront { at, interactive } => {
                        let r = req(id, at, class(interactive));
                        q.push_front(r);
                        model.insert(0, r);
                    }
                    Op::Remove { nth } if !model.is_empty() => {
                        let nth = nth % model.len();
                        let pos = q.iter_with_pos().nth(nth).expect("live entry").0;
                        prop_assert_eq!(q.remove(pos).id, model.remove(nth).id);
                    }
                    Op::RemoveCandidate { clock } if with_slo && !model.is_empty() => {
                        let clock = SimTime::from_secs(clock);
                        let pos = q.edf_candidate(clock).expect("non-empty queue");
                        let want = naive_edf(&model, clock).expect("non-empty model");
                        prop_assert_eq!(q.remove(pos).id, want);
                        model.retain(|r| r.id != want);
                    }
                    Op::RemoveIndexFront { interactive, low } => {
                        let pos = if with_slo {
                            let index = &q.edf[class_index(class(interactive))];
                            let half = if low { &index.low } else { &index.high };
                            half.front().map(|&(_, pos)| pos)
                        } else {
                            q.first_interactive_pos().filter(|_| interactive)
                        };
                        if let Some(pos) = pos {
                            let id = q.remove(pos).id;
                            let nth = model.iter().position(|r| r.id == id).expect("queued");
                            model.remove(nth);
                        }
                    }
                    Op::Drain => {
                        let drained: Vec<u64> = q.drain().map(|r| r.id).collect();
                        let want: Vec<u64> = model.drain(..).map(|r| r.id).collect();
                        prop_assert_eq!(drained, want);
                    }
                    Op::Remove { .. } | Op::RemoveCandidate { .. } => {}
                }

                let ids: Vec<u64> = q.iter().map(|r| r.id).collect();
                let want: Vec<u64> = model.iter().map(|r| r.id).collect();
                prop_assert_eq!(&ids, &want);
                prop_assert_eq!(q.is_empty(), model.is_empty());
                let with_pos: Vec<u64> = q.iter_with_pos().map(|(p, r)| {
                    assert_eq!(q.get(p).id, r.id);
                    r.id
                }).collect();
                prop_assert_eq!(&with_pos, &want);
                prop_assert_eq!(q.front_pos().map(|p| q.get(p).id), model.first().map(|r| r.id));
                prop_assert_eq!(
                    q.first_interactive_pos().map(|p| q.get(p).id),
                    model.iter().find(|r| r.class == RequestClass::Interactive).map(|r| r.id)
                );
                let queued_deadlines = model.iter().map(deadline);
                for clock in clocks.iter().map(|&c| SimTime::from_secs(c)).chain(queued_deadlines) {
                    let got = q.edf_candidate(clock).map(|p| q.get(p).id);
                    let salvageable: Vec<u64> =
                        q.salvageable_interactive(clock).map(|r| r.id).collect();
                    if with_slo {
                        prop_assert_eq!(got, naive_edf(&model, clock));
                        let mut walked: Vec<&Request> = model
                            .iter()
                            .filter(|r| r.class == RequestClass::Interactive)
                            .filter(|r| deadline(r) >= clock)
                            .collect();
                        walked.sort_by(|a, b| {
                            deadline(a).as_secs().partial_cmp(&deadline(b).as_secs()).expect("finite")
                        });
                        let walked: Vec<u64> = walked.iter().map(|r| r.id).collect();
                        prop_assert_eq!(salvageable, walked);
                    } else {
                        prop_assert_eq!(got, None);
                        prop_assert!(salvageable.is_empty());
                    }
                }
            }
        }
    }
}

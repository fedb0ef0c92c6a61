//! Cluster-routing records: which replica served each request, and how
//! loaded every replica was when the router decided.
//!
//! The event-driven cluster simulation (`sp-engine`'s `ClusterSim`)
//! dispatches each request at its arrival instant using live load
//! signals. These types preserve that decision trail in reports so the
//! Figure 16 production analyses can correlate tail latencies with
//! routing behaviour.

use crate::timeseries::BinnedSeries;
use crate::units::{Dur, SimTime};

/// A replica's live load, snapshotted at a routing instant.
///
/// Raw outstanding-token counts over-divert when TTFT is not
/// queue-dominated (ROADMAP "smarter load signals"), so the snapshot also
/// carries the ingredients of a *time-to-first-token* estimate: how much
/// prefill work is queued ahead, how fast this replica retires prefill
/// tokens, and how much KV headroom is left for admission.
///
/// # Aggregate semantics
///
/// A snapshot may describe a *group* of replicas (a nested cluster or a
/// whole fleet tier exposed as one routing node). Aggregation folds
/// capacity-style signals additively: `outstanding_tokens`,
/// `queued_prefill_tokens` and `kv_free_tokens` are sums across members,
/// and `prefill_tokens_per_sec` adds because members prefill
/// concurrently. The summed `kv_free_tokens` is the group's total KV
/// headroom — it deliberately *overstates* what any single request can
/// use, because one request must fit a single member's cache.
/// [`NodeLoad::min_kv_free_tokens`] carries the conservative
/// complement: the headroom of the most-congested member, i.e. the
/// admission room a consumer is guaranteed regardless of which member
/// the group's internal router picks. For a single engine the two
/// fields are equal.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeLoad {
    /// Queued + admitted-but-unfinished work in tokens (the classic JSQ
    /// signal).
    pub outstanding_tokens: u64,
    /// Prompt tokens that must be prefilled before a new arrival's own
    /// prefill can finish: waiting prompts plus admitted-but-incomplete
    /// prefill remainders.
    pub queued_prefill_tokens: u64,
    /// Unreserved KV-cache tokens — admission headroom. For aggregated
    /// snapshots this is the *sum* across members (total group capacity,
    /// an upper bound for any single request — see "Aggregate
    /// semantics").
    pub kv_free_tokens: u64,
    /// Unreserved KV-cache tokens of the most-congested member — the
    /// guaranteed per-request admission headroom of an aggregated
    /// snapshot. Equals `kv_free_tokens` for a single engine.
    pub min_kv_free_tokens: u64,
    /// Sustained prefill throughput estimate, tokens/second (from the
    /// replica's execution model at its full iteration budget).
    pub prefill_tokens_per_sec: f64,
}

impl NodeLoad {
    /// Estimated time until a request with `input_tokens` of prompt and a
    /// KV footprint of `footprint_tokens` would emit its first token on
    /// this replica: drain the prefill queue ahead of it, prefill its own
    /// prompt, plus a KV-blocked penalty when the cache lacks headroom
    /// (the deficit must be freed by decode drain before admission, which
    /// the prefill-rate proxy undercounts — so it is weighted up).
    ///
    /// A snapshot with no prefill-rate sample (`prefill_tokens_per_sec <=
    /// 0.0`) yields [`Dur::MAX`]: an unknown rate cannot *promise* a
    /// first token, so the estimate is unbounded rather than zero. The
    /// zero it used to return made every cold replica look instantly
    /// available — deadline-aware routers dogpiled a freshly added
    /// replica no matter how deep its queue grew, because its estimate
    /// never moved off zero. When every replica is rate-less the
    /// estimates tie at `MAX` and TTFT-ranked policies degrade to their
    /// outstanding-token tie-breaks, preserving the old
    /// fall-back-to-JSQ behaviour. Live engines never hit this path:
    /// they seed the rate from their compiled plan set at construction.
    pub fn estimated_ttft(&self, input_tokens: u64, footprint_tokens: u64) -> Dur {
        if self.prefill_tokens_per_sec <= 0.0 {
            return Dur::MAX;
        }
        let prefill = (self.queued_prefill_tokens + input_tokens) as f64;
        let mut secs = prefill / self.prefill_tokens_per_sec;
        if footprint_tokens > self.kv_free_tokens {
            let deficit = (footprint_tokens - self.kv_free_tokens) as f64;
            secs += 4.0 * deficit / self.prefill_tokens_per_sec;
        }
        Dur::from_secs(secs)
    }
}

/// One routing decision: `request_id` went to `replica` at instant `at`,
/// when that replica had `load_tokens` outstanding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingDecision {
    /// The dispatched request.
    pub request_id: u64,
    /// Index of the chosen replica (local to the routing tier that made
    /// the decision).
    pub replica: usize,
    /// Dispatch instant (the request's arrival time).
    pub at: SimTime,
    /// The chosen replica's outstanding tokens at dispatch.
    pub load_tokens: u64,
}

/// One load observation of one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaLoadSample {
    /// Replica index.
    pub replica: usize,
    /// Observation instant.
    pub at: SimTime,
    /// Outstanding work in tokens (queued + admitted but unfinished).
    pub outstanding_tokens: u64,
}

/// A per-replica load time series, sampled at routing instants.
///
/// Every dispatch samples each routable replica's outstanding tokens.
/// Stored densely that is one sample per replica per dispatch, yet
/// between two dispatches most replicas neither leave the routable set
/// nor change load. The series therefore keeps the dispatch instants
/// once, plus *runs*: a replica's unchanged load over consecutive
/// dispatches is one `(replica, from, to, tokens)` entry. Storage grows
/// with the number of load *changes*, not with dispatches × replicas.
///
/// Recording is incremental too. [`ReplicaLoadSeries::record_dispatch`]
/// takes the full sample set and fixes the *members* (the replicas
/// sampled there); [`ReplicaLoadSeries::record_changes`] records a
/// dispatch with the same members from only the loads that changed.
/// Every member's latest run stays *open* — it extends to the latest
/// dispatch without being touched — until a full record, an
/// [`ReplicaLoadSeries::absorb`] or [`ReplicaLoadSeries::take`] closes
/// it.
///
/// The encoding is lossless: [`ReplicaLoadSeries::samples`] yields the
/// dense sequence — dispatch order, replica-ascending within a dispatch
/// — and [`ReplicaLoadSeries::peak`] and [`ReplicaLoadSeries::mean`]
/// equal the dense formulas bit for bit, however the dispatches were
/// recorded.
///
/// # Examples
///
/// ```
/// use sp_metrics::{ReplicaLoadSeries, SimTime};
///
/// let mut s = ReplicaLoadSeries::new();
/// s.record_dispatch(SimTime::from_secs(1.0), [(0, 500), (1, 0)]);
/// s.record_changes(SimTime::from_secs(2.0), [(1, 40)]);
/// assert_eq!(s.replica_count(), 2);
/// assert_eq!(s.peak(0), 500);
/// assert_eq!(s.mean(1), 20.0);
/// assert_eq!(s.samples().count(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplicaLoadSeries {
    /// Instant of every recorded dispatch, in recording order.
    dispatches: Vec<SimTime>,
    /// Runs ordered by `(from, replica)` — the order they were opened in.
    runs: Vec<LoadRun>,
    /// Per replica: index in `runs` of its latest run, the only one a
    /// later dispatch may extend.
    latest: Vec<Option<usize>>,
    /// Replicas sampled at the latest dispatch, ascending. Their latest
    /// runs are open (`to == OPEN`).
    members: Vec<usize>,
    replica_count: usize,
}

/// One replica's unchanged load over the dispatches `from..to`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LoadRun {
    replica: usize,
    from: usize,
    /// End dispatch (exclusive), or [`OPEN`]: the run extends to the
    /// latest dispatch.
    to: usize,
    tokens: u64,
}

/// The `to` of a run that extends to the latest dispatch.
const OPEN: usize = usize::MAX;

impl LoadRun {
    /// Number of dispatches a closed run covers.
    fn len(&self) -> u64 {
        (self.to - self.from) as u64
    }
}

impl ReplicaLoadSeries {
    /// Creates an empty series.
    pub fn new() -> ReplicaLoadSeries {
        ReplicaLoadSeries::default()
    }

    /// Records one dispatch at `at` with the full sample set: the
    /// `(replica, outstanding tokens)` of every replica sampled there, in
    /// ascending replica order. These replicas become the members that
    /// [`ReplicaLoadSeries::record_changes`] assumes. A replica that was
    /// sampled at the previous dispatch with the same load extends its
    /// run; any other sample opens a new run.
    pub fn record_dispatch(&mut self, at: SimTime, loads: impl IntoIterator<Item = (usize, u64)>) {
        self.close_runs();
        let d = self.dispatches.len();
        self.dispatches.push(at);
        for (replica, tokens) in loads {
            debug_assert!(
                self.members.last().is_none_or(|&p| p < replica),
                "dispatch samples must be replica-ascending"
            );
            self.members.push(replica);
            if replica >= self.latest.len() {
                self.latest.resize(replica + 1, None);
            }
            self.replica_count = self.replica_count.max(replica + 1);
            if let Some(k) = self.latest[replica] {
                let run = &mut self.runs[k];
                if run.to == d && run.tokens == tokens {
                    run.to = OPEN;
                    continue;
                }
            }
            self.latest[replica] = Some(self.runs.len());
            self.runs.push(LoadRun { replica, from: d, to: OPEN, tokens });
        }
    }

    /// Records one dispatch at `at` whose sampled replicas are exactly
    /// the previous dispatch's, from the loads that may have changed
    /// since: `changed` lists `(replica, outstanding tokens)` in
    /// ascending replica order, members only. A listed load equal to the
    /// replica's previous one is no change; every unlisted member keeps
    /// its previous load. Costs O(changes), and leaves the series exactly
    /// as [`ReplicaLoadSeries::record_dispatch`] with every member's load
    /// would.
    pub fn record_changes(&mut self, at: SimTime, changed: impl IntoIterator<Item = (usize, u64)>) {
        let d = self.dispatches.len();
        self.dispatches.push(at);
        let mut prev: Option<usize> = None;
        for (replica, tokens) in changed {
            debug_assert!(prev.is_none_or(|p| p < replica), "changes must be replica-ascending");
            debug_assert!(
                self.members.binary_search(&replica).is_ok(),
                "changed replica {replica} is not a member"
            );
            prev = Some(replica);
            let k = self.latest[replica].expect("a member has a latest run");
            let run = &mut self.runs[k];
            debug_assert_eq!(run.to, OPEN, "a member's latest run is open");
            if run.tokens == tokens {
                continue;
            }
            run.to = d;
            self.latest[replica] = Some(self.runs.len());
            self.runs.push(LoadRun { replica, from: d, to: OPEN, tokens });
        }
    }

    /// Closes every open run at the latest dispatch and clears the
    /// members.
    fn close_runs(&mut self) {
        let d = self.dispatches.len();
        for &replica in &self.members {
            let k = self.latest[replica].expect("a member has a latest run");
            self.runs[k].to = d;
        }
        self.members.clear();
    }

    /// Closes the open runs and takes the series, leaving an empty one.
    pub fn take(&mut self) -> ReplicaLoadSeries {
        self.close_runs();
        std::mem::take(self)
    }

    /// `run` with its end resolved: an open run ends at the latest
    /// dispatch.
    fn closed(&self, run: &LoadRun) -> LoadRun {
        LoadRun { to: run.to.min(self.dispatches.len()), ..*run }
    }

    /// All samples in recording order: dispatch by dispatch, and within
    /// a dispatch by ascending replica.
    pub fn samples(&self) -> LoadSamples<'_> {
        LoadSamples {
            series: self,
            next_dispatch: 0,
            opened: 0,
            active: Vec::new(),
            merged: Vec::new(),
            cursor: 0,
        }
    }

    /// Number of distinct replicas observed (max index + 1).
    pub fn replica_count(&self) -> usize {
        self.replica_count
    }

    /// True if no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    fn runs_of(&self, replica: usize) -> impl Iterator<Item = LoadRun> + '_ {
        self.runs.iter().filter(move |r| r.replica == replica).map(|r| self.closed(r))
    }

    /// Peak outstanding tokens observed for `replica` (0 if never seen).
    pub fn peak(&self, replica: usize) -> u64 {
        self.runs_of(replica).map(|r| r.tokens).max().unwrap_or(0)
    }

    /// Mean outstanding tokens over `replica`'s samples (0.0 if never
    /// seen).
    pub fn mean(&self, replica: usize) -> f64 {
        let (sum, count) = self
            .runs_of(replica)
            .fold((0u64, 0u64), |(s, n), r| (s + r.tokens * r.len(), n + r.len()));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Absorbs `other`, shifting its replica indices past this series' —
    /// merged reports keep per-tier replica identities distinct. The
    /// absorbed dispatches follow this series' own. Closes both series'
    /// open runs: the next record must be a full
    /// [`ReplicaLoadSeries::record_dispatch`].
    pub fn absorb(&mut self, mut other: ReplicaLoadSeries) {
        self.close_runs();
        other.close_runs();
        let offset = self.replica_count;
        let dispatch_base = self.dispatches.len();
        let run_base = self.runs.len();
        self.dispatches.extend(other.dispatches);
        self.runs.extend(other.runs.into_iter().map(|r| LoadRun {
            replica: r.replica + offset,
            from: r.from + dispatch_base,
            to: r.to + dispatch_base,
            ..r
        }));
        self.latest.extend(other.latest.into_iter().map(|k| k.map(|k| k + run_base)));
        self.replica_count = offset + other.replica_count;
    }
}

/// Series are equal when they record the same dispatches and runs —
/// hence the same samples — whether or not their runs are still open.
impl PartialEq for ReplicaLoadSeries {
    fn eq(&self, other: &ReplicaLoadSeries) -> bool {
        self.dispatches == other.dispatches
            && self.replica_count == other.replica_count
            && self.runs.len() == other.runs.len()
            && self.runs.iter().zip(&other.runs).all(|(a, b)| self.closed(a) == other.closed(b))
    }
}

/// The dense sample sequence of a [`ReplicaLoadSeries`] (see
/// [`ReplicaLoadSeries::samples`]).
///
/// Sweeps the dispatches in order, keeping the runs that cover the
/// current dispatch sorted by replica: runs that ended drop out, runs
/// opening there merge in. Each sample costs O(1) amortized.
#[derive(Debug, Clone)]
pub struct LoadSamples<'a> {
    series: &'a ReplicaLoadSeries,
    /// The next dispatch to sweep to; the one being yielded is the one
    /// before it.
    next_dispatch: usize,
    /// Runs `..opened` have joined the sweep.
    opened: usize,
    /// Indices of the runs covering the current dispatch,
    /// replica-ascending.
    active: Vec<usize>,
    /// Scratch for the next dispatch's `active`.
    merged: Vec<usize>,
    /// Next position in `active` to yield.
    cursor: usize,
}

impl LoadSamples<'_> {
    /// Sweeps to dispatch `next_dispatch`.
    fn sweep(&mut self) {
        let runs = &self.series.runs;
        let d = self.next_dispatch;
        self.next_dispatch += 1;
        let end = self.opened + runs[self.opened..].partition_point(|r| r.from <= d);
        self.merged.clear();
        let mut live = self.active.iter().copied().filter(|&k| runs[k].to > d).peekable();
        let mut fresh = (self.opened..end).peekable();
        loop {
            let next = match (live.peek(), fresh.peek()) {
                (Some(&a), Some(&b)) if runs[a].replica < runs[b].replica => live.next(),
                (_, Some(_)) => fresh.next(),
                (Some(_), None) => live.next(),
                (None, None) => break,
            };
            self.merged.extend(next);
        }
        self.opened = end;
        std::mem::swap(&mut self.active, &mut self.merged);
        self.cursor = 0;
    }
}

impl Iterator for LoadSamples<'_> {
    type Item = ReplicaLoadSample;

    fn next(&mut self) -> Option<ReplicaLoadSample> {
        let series = self.series;
        loop {
            if let Some(&k) = self.active.get(self.cursor) {
                self.cursor += 1;
                let run = series.runs[k];
                return Some(ReplicaLoadSample {
                    replica: run.replica,
                    at: series.dispatches[self.next_dispatch - 1],
                    outstanding_tokens: run.tokens,
                });
            }
            if self.next_dispatch >= series.dispatches.len() {
                return None;
            }
            self.sweep();
        }
    }
}

/// A replica lifecycle transition (autoscaling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaEventKind {
    /// The replica was provisioned; cost accrues from here. A cold-start
    /// delay separates this from [`ReplicaEventKind::Ready`].
    Spawned,
    /// The replica finished warming up and became routable.
    Ready,
    /// The replica stopped receiving new work and began draining its
    /// in-flight sequences.
    DrainStarted,
    /// The replica drained dry and was removed; cost stops accruing.
    Retired,
    /// The replica died abruptly (fault injection): cost stops accruing
    /// at the crash instant — even mid-warmup — and its in-flight work
    /// is lost (KV gone, requests re-dispatched from scratch).
    Crashed,
}

/// A per-request fault-recovery transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestFaultKind {
    /// The request was re-dispatched after losing its replica; `attempt`
    /// counts retries consumed so far (1 = first re-dispatch).
    Redispatched {
        /// Retry attempts consumed, including this one.
        attempt: u32,
    },
    /// The request exhausted its retry budget and was abandoned.
    Failed {
        /// Retry attempts consumed before giving up.
        attempts: u32,
    },
}

/// One request-level fault event: `request_id` transitioned at `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestFaultEvent {
    /// The affected request.
    pub request_id: u64,
    /// Transition instant.
    pub at: SimTime,
    /// What happened.
    pub kind: RequestFaultKind,
}

/// A request that exhausted its retry budget and was never served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FailedRequest {
    /// The abandoned request.
    pub request_id: u64,
    /// Retry attempts consumed (equals the configured budget).
    pub attempts: u32,
}

/// One replica lifecycle event: `replica` transitioned at instant `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaEvent {
    /// Stable replica slot index (reused slots keep the same index across
    /// tenants; the event order disambiguates).
    pub replica: usize,
    /// Transition instant.
    pub at: SimTime,
    /// What happened.
    pub kind: ReplicaEventKind,
}

/// The fleet's replica lifecycle trail and its cost accounting.
///
/// Records every spawn / ready / drain / retire transition in time order
/// and derives the *replica-seconds* cost metric from it: each replica
/// pays from [`ReplicaEventKind::Spawned`] (provisioning starts billing,
/// including the cold-start warmup) until [`ReplicaEventKind::Retired`]
/// (or the query horizon for replicas still up). A fixed fleet of `R`
/// replicas over a makespan `T` therefore costs exactly `R x T`, which is
/// the baseline autoscaling is measured against.
///
/// # Examples
///
/// ```
/// use sp_metrics::{FleetTimeline, ReplicaEventKind, SimTime};
///
/// let mut t = FleetTimeline::new();
/// t.record(0, SimTime::ZERO, ReplicaEventKind::Spawned);
/// t.record(0, SimTime::ZERO, ReplicaEventKind::Ready);
/// t.record(1, SimTime::from_secs(10.0), ReplicaEventKind::Spawned);
/// t.record(1, SimTime::from_secs(30.0), ReplicaEventKind::Retired);
/// assert_eq!(t.replica_seconds(SimTime::from_secs(100.0)), 100.0 + 20.0);
/// assert_eq!(t.peak_provisioned(), 2);
/// ```
/// The canonical total order for merging same-window fleet events back
/// into the global event order: ascending instant (`total_cmp`, so NaN
/// sorts last) with ties broken by replica slot index, matching the
/// one-event cluster loop's lowest-slot-first tie-break. Horizon-parallel simulations sort
/// concurrently-collected per-replica events with this order before
/// folding them into reports, which is what keeps merged reports
/// byte-identical across thread counts.
pub fn window_event_order(a: &(SimTime, usize), b: &(SimTime, usize)) -> std::cmp::Ordering {
    a.0.as_secs().total_cmp(&b.0.as_secs()).then(a.1.cmp(&b.1))
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTimeline {
    events: Vec<ReplicaEvent>,
    replica_count: usize,
    request_faults: Vec<RequestFaultEvent>,
    wasted_prefill_tokens: u64,
    recovery_secs: f64,
    recoveries: u64,
}

impl FleetTimeline {
    /// Creates an empty timeline.
    pub fn new() -> FleetTimeline {
        FleetTimeline::default()
    }

    /// Records one lifecycle transition. Events must be recorded in
    /// nondecreasing time order (as a simulation emits them).
    pub fn record(&mut self, replica: usize, at: SimTime, kind: ReplicaEventKind) {
        self.replica_count = self.replica_count.max(replica + 1);
        self.events.push(ReplicaEvent { replica, at, kind });
    }

    /// Records a batch of same-window transitions in the canonical merge
    /// order ([`window_event_order`]): a horizon-parallel simulation
    /// collects events from concurrently-stepped replicas and must
    /// append them exactly as the sequential event order would have, or
    /// timelines stop being byte-identical across thread counts.
    pub fn record_batch(&mut self, batch: &mut [(SimTime, usize, ReplicaEventKind)]) {
        batch.sort_by(|a, b| window_event_order(&(a.0, a.1), &(b.0, b.1)));
        for &(at, replica, kind) in batch.iter() {
            self.record(replica, at, kind);
        }
    }

    /// All events in recording (time) order.
    pub fn events(&self) -> &[ReplicaEvent] {
        &self.events
    }

    /// True if no lifecycle event was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of distinct replica slots observed (max index + 1).
    pub fn replica_count(&self) -> usize {
        self.replica_count
    }

    /// Provisioned spans per slot: `(replica, spawned, retired)` with
    /// `None` for spans still open. Slots retired and respawned yield
    /// multiple spans.
    fn spans(&self) -> Vec<(usize, SimTime, Option<SimTime>)> {
        let mut open: Vec<Option<SimTime>> = vec![None; self.replica_count];
        let mut spans = Vec::new();
        for e in &self.events {
            match e.kind {
                ReplicaEventKind::Spawned => open[e.replica] = Some(e.at),
                // A crash closes the span at the crash instant exactly like
                // a retire — in particular a replica that dies *mid-warmup*
                // stops billing right there, not at its would-be Ready time
                // (spans never look at Ready at all).
                ReplicaEventKind::Retired | ReplicaEventKind::Crashed => {
                    if let Some(from) = open[e.replica].take() {
                        spans.push((e.replica, from, Some(e.at)));
                    }
                }
                ReplicaEventKind::Ready | ReplicaEventKind::DrainStarted => {}
            }
        }
        for (replica, o) in open.into_iter().enumerate() {
            if let Some(from) = o {
                spans.push((replica, from, None));
            }
        }
        spans
    }

    /// Total replica-seconds provisioned up to `horizon`: the fleet cost
    /// metric. Spans still open at the horizon are clamped to it.
    pub fn replica_seconds(&self, horizon: SimTime) -> f64 {
        self.spans()
            .into_iter()
            .map(|(_, from, to)| {
                to.map_or(horizon, |t| t.min(horizon)).since(from.min(horizon)).as_secs()
            })
            .sum()
    }

    /// Replicas provisioned (spawned, not yet retired) at instant `t`.
    pub fn provisioned_at(&self, t: SimTime) -> usize {
        self.spans()
            .into_iter()
            .filter(|&(_, from, to)| from <= t && to.is_none_or(|r| t < r))
            .count()
    }

    /// Peak number of simultaneously provisioned replicas.
    pub fn peak_provisioned(&self) -> usize {
        let mut up = 0usize;
        let mut peak = 0usize;
        for e in &self.events {
            match e.kind {
                ReplicaEventKind::Spawned => {
                    up += 1;
                    peak = peak.max(up);
                }
                ReplicaEventKind::Retired | ReplicaEventKind::Crashed => {
                    up = up.saturating_sub(1);
                }
                ReplicaEventKind::Ready | ReplicaEventKind::DrainStarted => {}
            }
        }
        peak
    }

    /// Records one request-level fault transition (re-dispatch or terminal
    /// failure). Like replica events, these arrive in time order.
    pub fn record_request_fault(&mut self, request_id: u64, at: SimTime, kind: RequestFaultKind) {
        self.request_faults.push(RequestFaultEvent { request_id, at, kind });
    }

    /// All request-level fault events in recording (time) order.
    pub fn request_faults(&self) -> &[RequestFaultEvent] {
        &self.request_faults
    }

    /// Adds prompt tokens whose prefill work was destroyed by a crash
    /// (the KV is gone, so a re-dispatched request pays full re-prefill).
    pub fn note_wasted_prefill(&mut self, tokens: u64) {
        self.wasted_prefill_tokens += tokens;
    }

    /// Total prompt tokens prefilled and then lost to crashes.
    pub fn wasted_prefill_tokens(&self) -> u64 {
        self.wasted_prefill_tokens
    }

    /// Adds one recovery observation: the span from a request losing its
    /// replica to its successful re-dispatch.
    pub fn note_recovery(&mut self, took: Dur) {
        self.recovery_secs += took.as_secs();
        self.recoveries += 1;
    }

    /// Number of successful re-dispatches observed.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Mean crash-to-re-dispatch recovery time in seconds (0.0 when no
    /// recovery happened).
    pub fn mean_recovery_secs(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_secs / self.recoveries as f64
        }
    }

    /// Number of replica crashes recorded.
    pub fn crash_count(&self) -> usize {
        self.events.iter().filter(|e| e.kind == ReplicaEventKind::Crashed).count()
    }

    /// The replica-seconds *cost series*: provisioned replica-seconds per
    /// `bin` up to `horizon` — plot it against the latency series to see
    /// what each burst's scale-out cost bought.
    pub fn cost_series(&self, bin: Dur, horizon: SimTime) -> BinnedSeries {
        let mut series = BinnedSeries::new(bin);
        for (_, from, to) in self.spans() {
            series.record_span(from.min(horizon), to.map_or(horizon, |t| t.min(horizon)), 1.0);
        }
        series
    }

    /// Absorbs `other`, shifting its replica indices past this
    /// timeline's, mirroring [`ReplicaLoadSeries::absorb`] so merged
    /// reports keep the two views' replica identities aligned.
    pub fn absorb(&mut self, other: FleetTimeline) {
        let offset = self.replica_count;
        for mut e in other.events {
            e.replica += offset;
            self.replica_count = self.replica_count.max(e.replica + 1);
            self.events.push(e);
        }
        self.request_faults.extend(other.request_faults);
        self.wasted_prefill_tokens += other.wasted_prefill_tokens;
        self.recovery_secs += other.recovery_secs;
        self.recoveries += other.recoveries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn window_event_order_sorts_by_instant_then_slot_with_nan_last() {
        let t = |s: f64| SimTime::from_secs(s);
        let mut evs = [(t(2.0), 0), (t(1.0), 3), (t(1.0), 1), (t(0.5), 9)];
        evs.sort_by(window_event_order);
        assert_eq!(
            evs.iter().map(|&(at, r)| (at.as_secs(), r)).collect::<Vec<_>>(),
            vec![(0.5, 9), (1.0, 1), (1.0, 3), (2.0, 0)]
        );
        // Positive NaN (total_cmp) sorts after every finite instant.
        let nan = SimTime::from_secs(0.0) + Dur::from_secs(1.0) * f64::NAN;
        assert!(window_event_order(&(t(1e12), 7), &(nan, 0)).is_lt());
    }

    #[test]
    fn record_batch_appends_in_canonical_merge_order() {
        let t = |s: f64| SimTime::from_secs(s);
        let mut sequential = FleetTimeline::new();
        sequential.record(1, t(1.0), ReplicaEventKind::Retired);
        sequential.record(4, t(1.0), ReplicaEventKind::Retired);
        sequential.record(0, t(3.0), ReplicaEventKind::Retired);
        let mut merged = FleetTimeline::new();
        let mut batch = vec![
            (t(3.0), 0, ReplicaEventKind::Retired),
            (t(1.0), 4, ReplicaEventKind::Retired),
            (t(1.0), 1, ReplicaEventKind::Retired),
        ];
        merged.record_batch(&mut batch);
        assert_eq!(merged, sequential);
    }

    #[test]
    fn empty_series_reports_zero() {
        let s = ReplicaLoadSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.replica_count(), 0);
        assert_eq!(s.peak(3), 0);
        assert_eq!(s.mean(3), 0.0);
    }

    #[test]
    fn peak_and_mean_are_per_replica() {
        let mut s = ReplicaLoadSeries::new();
        s.record_dispatch(SimTime::from_secs(0.0), [(0, 100)]);
        s.record_dispatch(SimTime::from_secs(1.0), [(0, 300), (1, 50)]);
        assert_eq!(s.replica_count(), 2);
        assert_eq!(s.peak(0), 300);
        assert_eq!(s.mean(0), 200.0);
        assert_eq!(s.peak(1), 50);
    }

    #[test]
    fn estimated_ttft_orders_by_prefill_queue_not_raw_tokens() {
        // Replica A: small prefill queue but many outstanding (decode)
        // tokens. Replica B: fewer outstanding tokens but a huge prompt
        // queued ahead. A JSQ router prefers B; the TTFT estimate must
        // prefer A.
        let a = NodeLoad {
            outstanding_tokens: 50_000,
            queued_prefill_tokens: 1_000,
            kv_free_tokens: 100_000,
            min_kv_free_tokens: 100_000,
            prefill_tokens_per_sec: 10_000.0,
        };
        let b = NodeLoad {
            outstanding_tokens: 30_000,
            queued_prefill_tokens: 25_000,
            kv_free_tokens: 100_000,
            min_kv_free_tokens: 100_000,
            prefill_tokens_per_sec: 10_000.0,
        };
        assert!(a.estimated_ttft(500, 600) < b.estimated_ttft(500, 600));
    }

    #[test]
    fn estimated_ttft_penalizes_kv_deficit() {
        let free = NodeLoad {
            outstanding_tokens: 0,
            queued_prefill_tokens: 0,
            kv_free_tokens: 10_000,
            min_kv_free_tokens: 10_000,
            prefill_tokens_per_sec: 10_000.0,
        };
        let full = NodeLoad { kv_free_tokens: 100, min_kv_free_tokens: 100, ..free };
        assert!(full.estimated_ttft(500, 1_000) > free.estimated_ttft(500, 1_000));
        // Zero-rate snapshots (no throughput sample) are unbounded rather
        // than dividing by zero — and rather than the old `Dur::ZERO`,
        // which read as "instantly available".
        let dead = NodeLoad::default();
        assert_eq!(dead.estimated_ttft(500, 1_000), Dur::MAX);
    }

    #[test]
    fn cold_replica_with_queued_work_is_never_estimated_instant() {
        // Regression (cold-replica dogpile): a replica with no prefill-rate
        // sample used to estimate TTFT = 0 regardless of its queue, so
        // TTFT-ranked routers kept picking it while its backlog mounted.
        // Its estimate must be *unbounded*, i.e. worse than any replica
        // with a real rate — no matter how loaded the warm one is.
        let cold = NodeLoad {
            outstanding_tokens: 9_000,
            queued_prefill_tokens: 8_000,
            kv_free_tokens: 50_000,
            min_kv_free_tokens: 50_000,
            prefill_tokens_per_sec: 0.0,
        };
        let warm = NodeLoad {
            outstanding_tokens: 60_000,
            queued_prefill_tokens: 45_000,
            kv_free_tokens: 1_000,
            min_kv_free_tokens: 1_000,
            prefill_tokens_per_sec: 20_000.0,
        };
        assert!(cold.estimated_ttft(500, 600) > warm.estimated_ttft(500, 600));
        // But two rate-less replicas still tie (so TTFT-ranked policies
        // degrade to their outstanding-token tie-breaks, not to herding).
        let also_cold = NodeLoad { outstanding_tokens: 1, ..cold };
        assert_eq!(cold.estimated_ttft(500, 600), also_cold.estimated_ttft(500, 600));
    }

    #[test]
    fn replica_seconds_accounts_spawn_to_retire() {
        let mut t = FleetTimeline::new();
        // Slot 0: up for the whole run. Slot 1: spawned at 10, warmed at
        // 15, retired at 40 — pays for the warmup too.
        t.record(0, SimTime::ZERO, ReplicaEventKind::Spawned);
        t.record(0, SimTime::ZERO, ReplicaEventKind::Ready);
        t.record(1, SimTime::from_secs(10.0), ReplicaEventKind::Spawned);
        t.record(1, SimTime::from_secs(15.0), ReplicaEventKind::Ready);
        t.record(1, SimTime::from_secs(35.0), ReplicaEventKind::DrainStarted);
        t.record(1, SimTime::from_secs(40.0), ReplicaEventKind::Retired);
        let horizon = SimTime::from_secs(100.0);
        assert_eq!(t.replica_seconds(horizon), 100.0 + 30.0);
        assert_eq!(t.peak_provisioned(), 2);
        assert_eq!(t.provisioned_at(SimTime::from_secs(20.0)), 2);
        assert_eq!(t.provisioned_at(SimTime::from_secs(50.0)), 1);
        // The cost series conserves the same total.
        let series = t.cost_series(Dur::from_secs(10.0), horizon);
        assert!((series.total() - 130.0).abs() < 1e-9);
    }

    #[test]
    fn replica_seconds_handles_slot_reuse_and_horizon_clamp() {
        let mut t = FleetTimeline::new();
        // Slot 0 serves two tenants: [0, 10) and [20, open).
        t.record(0, SimTime::ZERO, ReplicaEventKind::Spawned);
        t.record(0, SimTime::from_secs(10.0), ReplicaEventKind::Retired);
        t.record(0, SimTime::from_secs(20.0), ReplicaEventKind::Spawned);
        assert_eq!(t.replica_seconds(SimTime::from_secs(50.0)), 10.0 + 30.0);
        // Horizon before the second spawn: only the first span counts.
        assert_eq!(t.replica_seconds(SimTime::from_secs(15.0)), 10.0);
        assert_eq!(t.peak_provisioned(), 1);
    }

    #[test]
    fn crash_while_warming_stops_billing_at_the_crash_instant() {
        // Regression: a replica spawned at 10 with a 10 s cold start dies
        // at 15, *before* its would-be Ready at 20. Billing must stop at
        // the crash instant (5 replica-seconds), not run on to Ready.
        let mut t = FleetTimeline::new();
        t.record(0, SimTime::from_secs(10.0), ReplicaEventKind::Spawned);
        t.record(0, SimTime::from_secs(15.0), ReplicaEventKind::Crashed);
        assert_eq!(t.replica_seconds(SimTime::from_secs(100.0)), 5.0);
        assert_eq!(t.provisioned_at(SimTime::from_secs(12.0)), 1);
        assert_eq!(t.provisioned_at(SimTime::from_secs(18.0)), 0);
        assert_eq!(t.crash_count(), 1);
    }

    #[test]
    fn crash_closes_spans_and_decrements_peak_like_retire() {
        let mut t = FleetTimeline::new();
        t.record(0, SimTime::ZERO, ReplicaEventKind::Spawned);
        t.record(0, SimTime::ZERO, ReplicaEventKind::Ready);
        t.record(1, SimTime::from_secs(5.0), ReplicaEventKind::Spawned);
        t.record(1, SimTime::from_secs(5.0), ReplicaEventKind::Ready);
        t.record(1, SimTime::from_secs(20.0), ReplicaEventKind::Crashed);
        // Slot 1 respawns after the crash: peak stays 2, not 3.
        t.record(1, SimTime::from_secs(30.0), ReplicaEventKind::Spawned);
        assert_eq!(t.peak_provisioned(), 2);
        let horizon = SimTime::from_secs(40.0);
        assert_eq!(t.replica_seconds(horizon), 40.0 + 15.0 + 10.0);
    }

    #[test]
    fn fault_accounting_accumulates_and_absorbs() {
        let mut a = FleetTimeline::new();
        a.record_request_fault(
            7,
            SimTime::from_secs(1.0),
            RequestFaultKind::Redispatched { attempt: 1 },
        );
        a.note_wasted_prefill(500);
        a.note_recovery(Dur::from_secs(2.0));
        let mut b = FleetTimeline::new();
        b.record_request_fault(
            9,
            SimTime::from_secs(3.0),
            RequestFaultKind::Failed { attempts: 3 },
        );
        b.note_wasted_prefill(250);
        b.note_recovery(Dur::from_secs(4.0));
        a.absorb(b);
        assert_eq!(a.request_faults().len(), 2);
        assert_eq!(a.wasted_prefill_tokens(), 750);
        assert_eq!(a.recoveries(), 2);
        assert!((a.mean_recovery_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_absorb_offsets_replica_indices() {
        let mut a = FleetTimeline::new();
        a.record(0, SimTime::ZERO, ReplicaEventKind::Spawned);
        a.record(1, SimTime::ZERO, ReplicaEventKind::Spawned);
        let mut b = FleetTimeline::new();
        b.record(0, SimTime::from_secs(1.0), ReplicaEventKind::Spawned);
        a.absorb(b);
        assert_eq!(a.replica_count(), 3);
        assert_eq!(a.events().last().unwrap().replica, 2);
    }

    #[test]
    fn absorb_offsets_replica_indices() {
        let mut a = ReplicaLoadSeries::new();
        a.record_dispatch(SimTime::from_secs(0.0), [(0, 10), (1, 20)]);
        let mut b = ReplicaLoadSeries::new();
        b.record_dispatch(SimTime::from_secs(1.0), [(0, 30)]);
        a.absorb(b);
        assert_eq!(a.replica_count(), 3);
        assert_eq!(a.peak(2), 30);
        assert_eq!(a.samples().count(), 3);
    }

    #[test]
    fn unchanged_loads_extend_one_run() {
        let mut s = ReplicaLoadSeries::new();
        for i in 0..100 {
            s.record_dispatch(SimTime::from_secs(f64::from(i)), [(0, 7), (3, 9)]);
        }
        assert_eq!(s.runs.len(), 2, "an unchanged load is one run per replica");
        // Leaving the routable set ends the run even at an equal load.
        s.record_dispatch(SimTime::from_secs(100.0), [(3, 9)]);
        s.record_dispatch(SimTime::from_secs(101.0), [(0, 7), (3, 9)]);
        assert_eq!(s.runs.len(), 3);
        assert_eq!(s.samples().count(), 203);
        assert_eq!(s.mean(0), 7.0);
    }

    /// The dense one-sample-per-entry series the run-length encoding
    /// must reproduce.
    #[derive(Debug, Default)]
    struct DenseSeries {
        samples: Vec<ReplicaLoadSample>,
        replica_count: usize,
    }

    impl DenseSeries {
        fn record(&mut self, replica: usize, at: SimTime, outstanding_tokens: u64) {
            self.replica_count = self.replica_count.max(replica + 1);
            self.samples.push(ReplicaLoadSample { replica, at, outstanding_tokens });
        }

        fn peak(&self, replica: usize) -> u64 {
            let of = self.samples.iter().filter(|s| s.replica == replica);
            of.map(|s| s.outstanding_tokens).max().unwrap_or(0)
        }

        fn mean(&self, replica: usize) -> f64 {
            let xs: Vec<u64> = self
                .samples
                .iter()
                .filter(|s| s.replica == replica)
                .map(|s| s.outstanding_tokens)
                .collect();
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<u64>() as f64 / xs.len() as f64
            }
        }

        fn absorb(&mut self, other: DenseSeries) {
            let offset = self.replica_count;
            for mut s in other.samples {
                s.replica += offset;
                self.replica_count = self.replica_count.max(s.replica + 1);
                self.samples.push(s);
            }
        }
    }

    /// One dispatch of a generated script: a routable mask over six
    /// replicas (values of 64 and up mean "all routable", so long runs
    /// occur) and each replica's load, drawn from a small alphabet so
    /// loads repeat often.
    type Script = Vec<(u32, Vec<u64>)>;

    fn script() -> impl Strategy<Value = Script> {
        prop::collection::vec((0u32..96, prop::collection::vec(0u64..4, 6)), 0..40)
    }

    fn replay(script: &Script, t0: f64, runs: &mut ReplicaLoadSeries, dense: &mut DenseSeries) {
        const ALPHABET: [u64; 4] = [0, 100, 100, 7_000];
        for (d, (mask, loads)) in script.iter().enumerate() {
            let at = SimTime::from_secs(t0 + (d / 2) as f64);
            let sampled: Vec<(usize, u64)> = (0..6)
                .filter(|&r| *mask >= 64 || mask & (1 << r) != 0)
                .map(|r| (r, ALPHABET[loads[r] as usize]))
                .collect();
            for &(r, tokens) in &sampled {
                dense.record(r, at, tokens);
            }
            runs.record_dispatch(at, sampled);
        }
    }

    fn assert_lossless(runs: &ReplicaLoadSeries, dense: &DenseSeries) {
        assert_eq!(runs.samples().collect::<Vec<_>>(), dense.samples);
        assert_eq!(runs.replica_count(), dense.replica_count);
        assert_eq!(runs.is_empty(), dense.samples.is_empty());
        for r in 0..=dense.replica_count {
            assert_eq!(runs.peak(r), dense.peak(r), "peak of replica {r}");
            assert_eq!(runs.mean(r).to_bits(), dense.mean(r).to_bits(), "mean of replica {r}");
        }
    }

    /// One dispatch of a generated delta script: `keep` re-samples the
    /// previous dispatch's members (a delta record) and `listed` picks
    /// the members whose load is re-read, possibly unchanged; otherwise
    /// `mask` draws a new membership (join, leave, rejoin) sampled in
    /// full.
    type DeltaScript = Vec<(bool, u32, Vec<u64>, u32)>;

    fn delta_script() -> impl Strategy<Value = DeltaScript> {
        let step = (any::<bool>(), 0u32..96, prop::collection::vec(0u64..4, 6), 0u32..64);
        prop::collection::vec(step, 0..40)
    }

    /// Replays `script` into `delta` through `record_changes` wherever
    /// the membership is unchanged, and into `dense` through full
    /// `record_dispatch` calls only. The first dispatch is always a
    /// full record.
    fn replay_delta(
        script: &DeltaScript,
        t0: f64,
        delta: &mut ReplicaLoadSeries,
        dense: &mut ReplicaLoadSeries,
    ) {
        const ALPHABET: [u64; 4] = [0, 100, 100, 7_000];
        let mut members: Vec<usize> = Vec::new();
        let mut loads = [0u64; 6];
        for (d, (keep, mask, drawn, listed)) in script.iter().enumerate() {
            let at = SimTime::from_secs(t0 + (d / 2) as f64);
            if *keep && d > 0 {
                let changed: Vec<(usize, u64)> = members
                    .iter()
                    .filter(|&&r| listed & (1 << r) != 0)
                    .map(|&r| {
                        loads[r] = ALPHABET[drawn[r] as usize];
                        (r, loads[r])
                    })
                    .collect();
                delta.record_changes(at, changed);
            } else {
                members = (0..6).filter(|&r| *mask >= 64 || mask & (1 << r) != 0).collect();
                for &r in &members {
                    loads[r] = ALPHABET[drawn[r] as usize];
                }
                delta.record_dispatch(at, members.iter().map(|&r| (r, loads[r])));
            }
            dense.record_dispatch(at, members.iter().map(|&r| (r, loads[r])));
        }
    }

    fn assert_same_series(delta: &ReplicaLoadSeries, dense: &ReplicaLoadSeries) {
        assert_eq!(delta.samples().collect::<Vec<_>>(), dense.samples().collect::<Vec<_>>());
        assert_eq!(delta, dense);
        assert_eq!(delta.replica_count(), dense.replica_count());
        assert_eq!(delta.is_empty(), dense.is_empty());
        for r in 0..=dense.replica_count() {
            assert_eq!(delta.peak(r), dense.peak(r), "peak of replica {r}");
            assert_eq!(delta.mean(r).to_bits(), dense.mean(r).to_bits(), "mean of replica {r}");
        }
    }

    #[test]
    fn unlisted_members_keep_their_load() {
        let mut s = ReplicaLoadSeries::new();
        s.record_dispatch(SimTime::from_secs(0.0), [(0, 7), (3, 9)]);
        for i in 1..100 {
            s.record_changes(SimTime::from_secs(f64::from(i)), []);
        }
        s.record_changes(SimTime::from_secs(100.0), [(0, 7), (3, 10)]);
        assert_eq!(s.runs.len(), 3, "an unchanged or re-listed equal load opens no run");
        assert_eq!(s.samples().count(), 202);
        assert_eq!(s.mean(0), 7.0);
        let taken = s.take();
        assert!(s.is_empty());
        assert!(taken.runs.iter().all(|r| r.to != OPEN), "taking closes every run");
        assert_eq!(taken.mean(3), (100.0 * 9.0 + 10.0) / 101.0);
    }

    proptest! {
        #[test]
        fn delta_recording_equals_dense_recording(
            a in delta_script(),
            b in delta_script(),
            tail in delta_script(),
        ) {
            let (mut delta, mut dense) = (ReplicaLoadSeries::new(), ReplicaLoadSeries::new());
            replay_delta(&a, 0.0, &mut delta, &mut dense);
            assert_same_series(&delta, &dense);
            let (mut delta_b, mut dense_b) = (ReplicaLoadSeries::new(), ReplicaLoadSeries::new());
            replay_delta(&b, 100.0, &mut delta_b, &mut dense_b);
            delta.absorb(delta_b);
            dense.absorb(dense_b);
            assert_same_series(&delta, &dense);
            // Recording continues after an absorb, from a full record.
            replay_delta(&tail, 200.0, &mut delta, &mut dense);
            assert_same_series(&delta, &dense);
            assert_same_series(&delta.take(), &dense.take());
        }

        #[test]
        fn run_length_series_is_lossless(a in script(), b in script(), tail in script()) {
            let (mut runs, mut dense) = (ReplicaLoadSeries::new(), DenseSeries::default());
            replay(&a, 0.0, &mut runs, &mut dense);
            assert_lossless(&runs, &dense);
            let (mut runs_b, mut dense_b) = (ReplicaLoadSeries::new(), DenseSeries::default());
            replay(&b, 100.0, &mut runs_b, &mut dense_b);
            assert_lossless(&runs_b, &dense_b);
            runs.absorb(runs_b);
            dense.absorb(dense_b);
            assert_lossless(&runs, &dense);
            // Recording continues after an absorb.
            replay(&tail, 200.0, &mut runs, &mut dense);
            assert_lossless(&runs, &dense);
        }
    }
}

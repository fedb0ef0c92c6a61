//! Cluster-routing records: the load signals the router reads, which
//! replica served each request, and the fleet's replica lifecycle.
//!
//! The event-driven cluster simulation (`sp-engine`'s `ClusterSim`)
//! dispatches each request at its arrival instant from live [`NodeLoad`]
//! snapshots. Reports keep the decision trail ([`RoutingDecision`]: the
//! chosen replica and its outstanding tokens at dispatch) and the
//! [`FleetTimeline`] of spawns, drains, retires, crashes and request
//! faults, from which the replica-seconds cost metric is derived.

use crate::units::{Dur, SimTime};

/// A replica's live load, snapshotted at a routing instant.
///
/// Raw outstanding-token counts over-divert when TTFT is not
/// queue-dominated (ROADMAP "smarter load signals"), so the snapshot also
/// carries the ingredients of a *time-to-first-token* estimate: how much
/// prefill work is queued ahead, how fast this replica retires prefill
/// tokens, and how much KV headroom is left for admission.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeLoad {
    /// Queued + admitted-but-unfinished work in tokens (the classic JSQ
    /// signal).
    pub outstanding_tokens: u64,
    /// Prompt tokens that must be prefilled before a new arrival's own
    /// prefill can finish: waiting prompts plus admitted-but-incomplete
    /// prefill remainders.
    pub queued_prefill_tokens: u64,
    /// Unreserved KV-cache tokens — admission headroom.
    pub kv_free_tokens: u64,
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
    /// Stable slot index of the chosen replica.
    pub replica: usize,
    /// Dispatch instant (the request's arrival time).
    pub at: SimTime,
    /// The chosen replica's outstanding tokens at dispatch.
    pub load_tokens: u64,
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

    /// Provisioned spans: `(spawned, retired)` with `None` for spans
    /// still open. Slots retired and respawned yield multiple spans.
    fn spans(&self) -> Vec<(SimTime, Option<SimTime>)> {
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
                        spans.push((from, Some(e.at)));
                    }
                }
                ReplicaEventKind::Ready | ReplicaEventKind::DrainStarted => {}
            }
        }
        spans.extend(open.into_iter().flatten().map(|from| (from, None)));
        spans
    }

    /// Total replica-seconds provisioned up to `horizon`: the fleet cost
    /// metric. Spans still open at the horizon are clamped to it.
    pub fn replica_seconds(&self, horizon: SimTime) -> f64 {
        self.spans()
            .into_iter()
            .map(|(from, to)| {
                to.map_or(horizon, |t| t.min(horizon)).since(from.min(horizon)).as_secs()
            })
            .sum()
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn estimated_ttft_orders_by_prefill_queue_not_raw_tokens() {
        // Replica A: small prefill queue but many outstanding (decode)
        // tokens. Replica B: fewer outstanding tokens but a huge prompt
        // queued ahead. A JSQ router prefers B; the TTFT estimate must
        // prefer A.
        let a = NodeLoad {
            outstanding_tokens: 50_000,
            queued_prefill_tokens: 1_000,
            kv_free_tokens: 100_000,
            prefill_tokens_per_sec: 10_000.0,
        };
        let b = NodeLoad {
            outstanding_tokens: 30_000,
            queued_prefill_tokens: 25_000,
            kv_free_tokens: 100_000,
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
            prefill_tokens_per_sec: 10_000.0,
        };
        let full = NodeLoad { kv_free_tokens: 100, ..free };
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
            prefill_tokens_per_sec: 0.0,
        };
        let warm = NodeLoad {
            outstanding_tokens: 60_000,
            queued_prefill_tokens: 45_000,
            kv_free_tokens: 1_000,
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
    fn fault_accounting_accumulates() {
        let mut t = FleetTimeline::new();
        t.record_request_fault(
            7,
            SimTime::from_secs(1.0),
            RequestFaultKind::Redispatched { attempt: 1 },
        );
        t.record_request_fault(
            9,
            SimTime::from_secs(3.0),
            RequestFaultKind::Failed { attempts: 3 },
        );
        t.note_wasted_prefill(500);
        t.note_wasted_prefill(250);
        t.note_recovery(Dur::from_secs(2.0));
        t.note_recovery(Dur::from_secs(4.0));
        assert_eq!(t.request_faults().len(), 2);
        assert_eq!(t.wasted_prefill_tokens(), 750);
        assert_eq!(t.recoveries(), 2);
        assert!((t.mean_recovery_secs() - 3.0).abs() < 1e-12);
    }
}

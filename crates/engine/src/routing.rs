//! Online load-aware routing: the event-driven multi-replica co-simulation.
//!
//! The paper's production fleet (Fig. 16, Table 5) sits behind a router
//! that reacts to live load. Splitting a trace offline and running the
//! replicas one after another cannot reproduce that: routing decisions
//! must be made *at each request's arrival instant*, against the load the
//! replicas actually have at that moment. [`ClusterSim`] provides the
//! event loop — it advances replicas in global simulated-time order and
//! dispatches each request on arrival via a pluggable [`RoutingPolicy`] —
//! and [`SimNode`] is the stepping interface replicas expose. A node is
//! one replica: an [`Engine`], or a single-engine deployment built on
//! one (`shift_core::Deployment`). There is one routing tier: a cluster
//! is not itself a node, so clusters do not nest.

use crate::autoscale::{Autoscaler, FleetSignal, ScaleAction};
use crate::engine::Engine;
use crate::fault::{Fault, FaultEvent, FaultPlan, RetryPolicy, SalvagedWork};
use crate::report::EngineReport;
use sp_metrics::{
    ClassSlo, Dur, FailedRequest, FleetTimeline, NodeLoad, ReplicaEventKind, RequestClass,
    RequestFaultKind, RoutingDecision, SimTime,
};
use sp_workload::{Request, Trace};
use std::collections::{HashMap, VecDeque};

/// Picks a replica for each request as it arrives.
///
/// `loads` holds each replica's live [`NodeLoad`] snapshot at the
/// dispatch instant — outstanding tokens (the classic JSQ signal) plus
/// the ingredients of a TTFT estimate for deadline-aware policies.
/// Policies may keep state (round-robin cursors, cumulative assignment
/// ledgers), hence `&mut self`. Policies are `Send`, so a whole
/// [`ClusterSim`] is too.
pub trait RoutingPolicy: std::fmt::Debug + Send {
    /// The policy's display name.
    fn name(&self) -> &str;

    /// Chooses a replica index in `0..loads.len()` for `req`.
    fn pick(&mut self, req: &Request, loads: &[NodeLoad]) -> usize;
}

/// Index of the replica with the least outstanding work (ties to the
/// lowest index — `min_by_key` keeps the first minimum).
fn least_outstanding(loads: &[NodeLoad]) -> usize {
    loads
        .iter()
        .enumerate()
        .min_by_key(|&(_, l)| l.outstanding_tokens)
        .map(|(i, _)| i)
        .expect("at least one replica")
}

/// Join-shortest-outstanding-tokens: send each request to the replica
/// with the least live outstanding work (ties to the lowest index). The
/// online analogue of join-shortest-queue, using the same load signal the
/// engines already expose.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinShortestOutstanding;

impl RoutingPolicy for JoinShortestOutstanding {
    fn name(&self) -> &str {
        "join-shortest-outstanding"
    }

    fn pick(&mut self, _req: &Request, loads: &[NodeLoad]) -> usize {
        least_outstanding(loads)
    }
}

/// Join-shortest-queue ranked by estimated TTFT: send each request to
/// the replica whose [`NodeLoad::estimated_ttft`] for *this* request is
/// lowest, instead of the replica with the least raw outstanding tokens.
///
/// Outstanding tokens overweight decode backlogs: a replica carrying
/// long generations looks busy, yet prefills a new prompt nearly as fast
/// as an idle one (decode iterations are short and the prompt chunks in
/// alongside them), while a replica with a deep prefill queue delays the
/// new prompt directly. Ranking by the TTFT estimate routes around
/// prefill queues and KV pressure and ignores harmless decode work.
/// Ties — including the cold start where no replica reports a prefill
/// rate and every estimate saturates at [`Dur::MAX`] — break by
/// outstanding tokens and then lowest index, so the policy degrades to
/// plain JSQ exactly when the TTFT signal carries no information. A
/// *single* rate-less replica among warm ones is never preferred: its
/// unbounded estimate loses to any priced one (the cold-replica dogpile
/// fix in [`NodeLoad::estimated_ttft`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct JsqByTtft;

impl RoutingPolicy for JsqByTtft {
    fn name(&self) -> &str {
        "jsq-by-ttft"
    }

    fn pick(&mut self, req: &Request, loads: &[NodeLoad]) -> usize {
        let input = u64::from(req.input_tokens);
        let footprint = req.total_tokens();
        loads
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.estimated_ttft(input, footprint)
                    .as_secs()
                    .total_cmp(&b.estimated_ttft(input, footprint).as_secs())
                    .then(a.outstanding_tokens.cmp(&b.outstanding_tokens))
            })
            .map(|(i, _)| i)
            .expect("at least one replica")
    }
}

/// Round-robin: replica `k mod n` for the `k`-th request, load-blind.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn pick(&mut self, _req: &Request, loads: &[NodeLoad]) -> usize {
        let i = self.next % loads.len();
        self.next = self.next.wrapping_add(1);
        i
    }
}

/// The offline static split, replayed online: each request goes to the
/// replica with the least *cumulative assigned* tokens so far (ties to
/// the lowest index), ignoring live load. Splitting a trace up front
/// this way and running each share on its own replica gives the same
/// records, so it serves as the pre-event-driven baseline in
/// comparisons.
#[derive(Debug, Clone, Default)]
pub struct StaticSplit {
    assigned: Vec<u64>,
}

impl RoutingPolicy for StaticSplit {
    fn name(&self) -> &str {
        "static-split"
    }

    fn pick(&mut self, req: &Request, loads: &[NodeLoad]) -> usize {
        self.assigned.resize(loads.len().max(self.assigned.len()), 0);
        let i = (0..loads.len()).min_by_key(|&i| self.assigned[i]).expect("at least one replica");
        self.assigned[i] += req.total_tokens();
        i
    }
}

/// Deadline-aware routing (ROADMAP "SLO-aware admission and routing"):
/// each replica's [`NodeLoad`] yields a time-to-first-token estimate, and
/// interactive requests go to a replica that can still meet their TTFT
/// SLO.
///
/// * Interactive: among replicas whose estimated TTFT fits the
///   interactive budget (*feasible* replicas), pick the least-outstanding
///   one — load-balance inside the feasible set rather than herding onto
///   the single fastest replica. When no replica is feasible, pick the
///   minimum-ETA replica (least-bad). Ties to the lowest index.
/// * Batch: join-shortest-outstanding. Batch deadlines are ~30x looser,
///   so raw load balance maximizes their throughput without displacing
///   interactive traffic (the per-replica engines handle intra-node
///   priority).
#[derive(Debug, Clone, Copy)]
pub struct EarliestDeadlineFeasible {
    slo: ClassSlo,
}

impl EarliestDeadlineFeasible {
    /// Creates the policy with the given per-class targets.
    pub fn new(slo: ClassSlo) -> EarliestDeadlineFeasible {
        EarliestDeadlineFeasible { slo }
    }
}

impl Default for EarliestDeadlineFeasible {
    fn default() -> EarliestDeadlineFeasible {
        EarliestDeadlineFeasible::new(ClassSlo::default())
    }
}

impl RoutingPolicy for EarliestDeadlineFeasible {
    fn name(&self) -> &str {
        "earliest-deadline-feasible"
    }

    fn pick(&mut self, req: &Request, loads: &[NodeLoad]) -> usize {
        if req.class == RequestClass::Batch {
            return least_outstanding(loads);
        }
        let input = u64::from(req.input_tokens);
        let footprint = req.total_tokens();
        let budget = self.slo.target_for(req.class).ttft;
        let etas: Vec<Dur> = loads.iter().map(|l| l.estimated_ttft(input, footprint)).collect();
        let feasible = loads
            .iter()
            .enumerate()
            .filter(|&(i, _)| etas[i] <= budget)
            .min_by_key(|&(_, l)| l.outstanding_tokens)
            .map(|(i, _)| i);
        feasible.unwrap_or_else(|| {
            // Least-bad fallback. ETA ties (e.g. several cold replicas
            // saturating at `Dur::MAX`) break by outstanding tokens so
            // the policy degrades to JSQ instead of herding onto the
            // lowest index.
            etas.iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.as_secs()
                        .total_cmp(&b.1.as_secs())
                        .then(loads[a.0].outstanding_tokens.cmp(&loads[b.0].outstanding_tokens))
                })
                .map(|(i, _)| i)
                .expect("at least one replica")
        })
    }
}

/// Routing policy selector — the builder-friendly, copyable handle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RoutingKind {
    /// [`JoinShortestOutstanding`] (the online default).
    #[default]
    JoinShortestOutstanding,
    /// [`JsqByTtft`] — JSQ ranked by per-request TTFT estimates.
    JsqByTtft,
    /// [`RoundRobin`].
    RoundRobin,
    /// [`StaticSplit`] — the offline greedy baseline.
    StaticSplit,
    /// [`EarliestDeadlineFeasible`] with the given per-class targets.
    EarliestDeadlineFeasible(ClassSlo),
}

impl RoutingKind {
    /// Instantiates the policy.
    pub fn policy(self) -> Box<dyn RoutingPolicy> {
        match self {
            RoutingKind::JoinShortestOutstanding => Box::new(JoinShortestOutstanding),
            RoutingKind::JsqByTtft => Box::new(JsqByTtft),
            RoutingKind::RoundRobin => Box::new(RoundRobin::default()),
            RoutingKind::StaticSplit => Box::new(StaticSplit::default()),
            RoutingKind::EarliestDeadlineFeasible(slo) => {
                Box::new(EarliestDeadlineFeasible::new(slo))
            }
        }
    }
}

/// The incremental stepping interface a cluster node exposes so
/// [`ClusterSim`] can co-simulate many of them in global time order.
///
/// A node is one replica with its own queue and clock: an [`Engine`],
/// or a wrapper that forwards to one (a single-engine
/// `shift_core::Deployment`, a test stub). [`ClusterSim`] does not
/// implement it, so a report's routing trail and fleet timeline always
/// belong to the one cluster that cut it.
///
/// Nodes are `Send`: between coordination events their states are
/// disjoint, so [`ClusterSim`] steps them from pool worker threads
/// during horizon-parallel windows (nothing is shared — each worker owns
/// one slot's node exclusively for the window).
///
/// What [`SimNode::next_event_time`] and [`SimNode::load`] report may
/// change only through the `&mut self` methods: the cluster caches both
/// per node and refreshes them after each `&mut` call (debug builds
/// check the cache on every read). `load().outstanding_tokens` must
/// equal [`SimNode::outstanding_tokens`]: the cluster reads outstanding
/// work off the cached load (debug builds check the two agree at every
/// refresh).
pub trait SimNode: Send {
    /// Enqueues a request (dispatch) — requests arrive in nondecreasing
    /// arrival order.
    fn push_request(&mut self, req: Request);

    /// Advances this node by one scheduling event. No-op when idle.
    fn step_once(&mut self);

    /// Instant of this node's next event, or `None` when idle. Never
    /// NaN: a NaN instant has no place in the global event order, and
    /// debug builds of [`ClusterSim`] panic on one, in either mode.
    fn next_event_time(&self) -> Option<SimTime>;

    /// Live outstanding work in tokens — the routing load signal.
    fn outstanding_tokens(&self) -> u64;

    /// Full load snapshot for deadline-aware routing. The default carries
    /// only `outstanding_tokens` (TTFT-estimate fields zeroed), under
    /// which [`NodeLoad::estimated_ttft`] saturates at [`Dur::MAX`] for
    /// every node alike and deadline-aware policies degrade to
    /// join-shortest-outstanding through their tie-breaks.
    fn load(&self) -> NodeLoad {
        NodeLoad { outstanding_tokens: self.outstanding_tokens(), ..NodeLoad::default() }
    }

    /// Finalizes and returns the node's accumulated report.
    fn take_report(&mut self) -> EngineReport;

    /// Rips out every unfinished request for crash salvage (the node's
    /// KV state is considered lost). The default salvages nothing —
    /// nodes that don't queue work internally have nothing to lose.
    fn take_unfinished(&mut self) -> SalvagedWork {
        SalvagedWork::default()
    }

    /// Applies a duration multiplier to the node's subsequent work
    /// (`1.0` restores full speed). The default ignores it.
    fn set_slowdown(&mut self, _factor: f64) {}

    /// Advances this node through a *run* of steady-state events in one
    /// call — the decode fast-forward. `cap` bounds the run: no event
    /// at an instant not strictly below it may be stepped (`None` is
    /// unbounded, for drain loops). Implementations must either advance
    /// at least one event and return its summary, or return `None`, and
    /// callers then run [`SimNode::step_once`] at the same instant. A
    /// `None` may change only what that `step_once` would change first
    /// ([`Engine::step_run`] may leave its admission probe's ingest
    /// behind). The default never fast-forwards.
    fn step_run(&mut self, _cap: Option<f64>) -> Option<RunAdvance> {
        None
    }
}

/// Summary of a fast-forwarded run of events (see
/// [`SimNode::step_run`]).
#[derive(Debug, Clone, Copy)]
pub struct RunAdvance {
    /// Number of events advanced (≥ 1).
    pub events: u64,
    /// Instant of the final event stepped — what the per-event loop's
    /// `last` would hold. Run instants are nondecreasing, so this is
    /// also their max.
    pub last: SimTime,
}

impl SimNode for Engine {
    fn push_request(&mut self, req: Request) {
        Engine::push_request(self, req);
    }

    fn step_once(&mut self) {
        Engine::step_once(self);
    }

    fn next_event_time(&self) -> Option<SimTime> {
        Engine::next_event_time(self)
    }

    fn outstanding_tokens(&self) -> u64 {
        Engine::outstanding_tokens(self)
    }

    fn load(&self) -> NodeLoad {
        Engine::load(self)
    }

    fn take_report(&mut self) -> EngineReport {
        Engine::take_report(self)
    }

    fn take_unfinished(&mut self) -> SalvagedWork {
        Engine::take_unfinished(self)
    }

    fn set_slowdown(&mut self, factor: f64) {
        Engine::set_slowdown(self, factor);
    }

    fn step_run(&mut self, cap: Option<f64>) -> Option<RunAdvance> {
        Engine::step_run(self, cap)
    }
}

/// A node's next event instant, checked against the [`SimNode`]
/// contract: both cluster loops read every instant through here.
fn next_event<N: SimNode>(node: &N) -> Option<SimTime> {
    let t = node.next_event_time();
    debug_assert!(
        !t.is_some_and(|t| t.as_secs().is_nan()),
        "SimNode contract violation: NaN next-event time"
    );
    t
}

/// A replica slot's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SlotState {
    /// Routable: the router may pick it.
    Active,
    /// Provisioned but inside its cold-start delay; becomes routable at
    /// the first dispatch at or after `ready_at`.
    Warming {
        /// Instant the warmup completes.
        ready_at: SimTime,
    },
    /// Excluded from routing; retires once its in-flight work drains.
    Draining,
}

/// One replica slot. Slots are *stable*: a retired replica's slot is
/// never shifted out — the node is taken out, and a later scale-out may
/// install a new tenant in the same slot. Routing decisions and load
/// samples record slot indices, so replica identities in reports stay
/// stable across the whole run.
///
/// A slot caches its node's `next_event_time()` and `load()`. A node's
/// state changes only through `&mut` access, and every such access goes
/// through [`Slot::with_node`], which refreshes the cache afterwards —
/// so the cache always equals what the node would report, and window
/// stepping and the fleet's [`Routable`] snapshot read it instead of
/// calling into every node. Debug builds check every cached read
/// against the live node. The node sits behind a `Box` so the slot
/// vector the window loop walks stays dense.
#[derive(Debug)]
struct Slot<N> {
    node: Option<Box<N>>,
    state: SlotState,
    /// The node's next event instant (`None` when idle or empty).
    next: Option<SimTime>,
    /// The node's load snapshot (default when empty).
    load: NodeLoad,
    /// Listed in [`ClusterSim::touched`]: reached through `with_node`
    /// since the last [`ClusterSim::sync_routable`].
    touched: bool,
}

impl<N: SimNode> Slot<N> {
    fn new(node: Option<N>, state: SlotState) -> Slot<N> {
        let mut slot = Slot {
            node: node.map(Box::new),
            state,
            next: None,
            load: NodeLoad::default(),
            touched: false,
        };
        slot.refresh();
        slot
    }

    /// Re-reads the cached values from the node.
    fn refresh(&mut self) {
        (self.next, self.load) = match self.node.as_deref() {
            Some(node) => {
                let load = node.load();
                debug_assert_eq!(
                    load.outstanding_tokens,
                    node.outstanding_tokens(),
                    "SimNode contract violation: load disagrees with outstanding_tokens"
                );
                (next_event(node), load)
            }
            None => (None, NodeLoad::default()),
        };
    }

    /// Runs `f` on the node, then refreshes the cache: the only way to
    /// reach a slotted node mutably. `None` when the slot is empty.
    /// Callers list the slot in [`ClusterSim::touched`] (see
    /// [`ClusterSim::with_node`]).
    fn with_node<R>(&mut self, f: impl FnOnce(&mut N) -> R) -> Option<R> {
        let out = f(self.node.as_deref_mut()?);
        self.refresh();
        Some(out)
    }

    /// Installs `node` in this (empty) slot.
    fn install(&mut self, node: N, state: SlotState) {
        debug_assert!(self.node.is_none(), "installing over a live tenant");
        *self = Slot::new(Some(node), state);
    }

    /// Removes the node, leaving an empty `Active` slot.
    fn take_node(&mut self) -> Option<N> {
        let node = self.node.take()?;
        *self = Slot::new(None, SlotState::Active);
        Some(*node)
    }

    /// The cached next event instant.
    fn next(&self) -> Option<SimTime> {
        debug_assert_eq!(
            self.next,
            self.node.as_deref().and_then(next_event),
            "stale slot cache: next event"
        );
        self.next
    }

    /// The cached load snapshot.
    fn load(&self) -> NodeLoad {
        debug_assert_eq!(
            self.load,
            self.node.as_deref().map_or_else(NodeLoad::default, SimNode::load),
            "stale slot cache: load"
        );
        self.load
    }
}

/// A fault-displaced request waiting out its retry backoff.
#[derive(Debug)]
struct PendingRetry {
    /// Redelivery instant (`lost_at` + backoff).
    at: SimTime,
    /// Insertion sequence — the total-order tie-break for simultaneous
    /// redeliveries.
    seq: u64,
    /// Which attempt this redelivery is (1-based).
    attempt: u32,
    /// When the request lost its previous dispatch.
    lost_at: SimTime,
    req: Request,
}

/// Which fault timer fires next. Same-instant timers resolve in this
/// declaration order (plan faults, then slowdown-window ends, then retry
/// redeliveries), so the global event order is total.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TimerChoice {
    /// The next [`FaultPlan`] event.
    Fault,
    /// The end of the slowdown window at this index of `slow_until`.
    SlowEnd(usize),
    /// The head of the pending-retry queue.
    Retry,
}

/// Fault-injection state of a [`ClusterSim`]. Fault timers are
/// coordination events in the global event order: the window mode cuts
/// its horizon windows at each pending timer and fires it between
/// windows, and the reference mode interleaves timers with node events
/// one at a time, so both modes stay byte-identical under the same plan.
#[derive(Debug)]
struct FaultState {
    /// The schedule, in firing order; `cursor` is the next unfired event.
    plan: Vec<FaultEvent>,
    cursor: usize,
    retry: RetryPolicy,
    /// Fault-displaced requests awaiting redelivery, sorted by
    /// `(at, seq)`: redeliveries pop the front in O(1).
    pending: VecDeque<PendingRetry>,
    /// Total tokens parked in `pending` (counted as outstanding work so
    /// drivers waiting on `outstanding_tokens == 0` don't stop early).
    pending_tokens: u64,
    next_seq: u64,
    /// True arrival instant of every request whose `arrival` field was
    /// rewritten (dispatch-time clamp or retry redelivery), keyed by
    /// request id. Patched back into the records at report time so TTFT
    /// counts the backoff the user actually waited.
    origin_arrival: HashMap<u64, SimTime>,
    /// Retry attempts consumed per request id. Lookup-only bookkeeping —
    /// iteration order never matters.
    attempts: HashMap<u64, u32>,
    /// Requests whose retry budget ran out.
    failed: Vec<FailedRequest>,
    /// Open slowdown windows: `(end instant, slot)`.
    slow_until: Vec<(SimTime, usize)>,
    /// Crashed replicas not yet replaced by a spawn — the autoscaler's
    /// scale-out signal.
    crash_deficit: usize,
    /// A `RouteTimeout` fault has fired and will consume the next
    /// dispatch.
    route_timeout_armed: bool,
    /// The fault clock: the latest instant the fleet has witnessed
    /// (dispatches, node events, fired timers). Timers scheduled in the
    /// past fire "now" — never before it — so event time stays monotone.
    now: SimTime,
}

impl FaultState {
    fn new(plan: FaultPlan, retry: RetryPolicy) -> FaultState {
        FaultState {
            plan: plan.events().to_vec(),
            cursor: 0,
            retry,
            pending: VecDeque::new(),
            pending_tokens: 0,
            next_seq: 0,
            origin_arrival: HashMap::new(),
            attempts: HashMap::new(),
            failed: Vec::new(),
            slow_until: Vec::new(),
            crash_deficit: 0,
            route_timeout_armed: false,
            now: SimTime::ZERO,
        }
    }

    /// The earliest unfired timer, clamped to the fault clock. Ties
    /// break by [`TimerChoice`] declaration order, then by window index.
    fn peek_timer(&self) -> Option<(SimTime, TimerChoice)> {
        let mut best: Option<(SimTime, u8, usize, TimerChoice)> = None;
        let offer = |cand: (SimTime, u8, usize, TimerChoice),
                     best: &mut Option<(SimTime, u8, usize, TimerChoice)>| {
            let better = match best {
                None => true,
                Some(b) => cand
                    .0
                    .as_secs()
                    .total_cmp(&b.0.as_secs())
                    .then(cand.1.cmp(&b.1))
                    .then(cand.2.cmp(&b.2))
                    .is_lt(),
            };
            if better {
                *best = Some(cand);
            }
        };
        if let Some(e) = self.plan.get(self.cursor) {
            offer((e.at.max(self.now), 0, 0, TimerChoice::Fault), &mut best);
        }
        for (j, &(end, _)) in self.slow_until.iter().enumerate() {
            offer((end.max(self.now), 1, j, TimerChoice::SlowEnd(j)), &mut best);
        }
        if let Some(p) = self.pending.front() {
            offer((p.at.max(self.now), 2, 0, TimerChoice::Retry), &mut best);
        }
        best.map(|(t, _, _, c)| (t, c))
    }
}

/// The fleet's persistent routing snapshot: the routable slots'
/// loads, the position↔slot map and the lifecycle counts, kept across
/// dispatches. A dispatch refreshes only the entries of slots listed in
/// [`ClusterSim::touched`], so routing and autoscaling pay for what
/// changed since the last dispatch, not for the fleet's size. Any membership
/// change (spawn, warm-up, drain, retire, crash) marks it stale and
/// the next read rebuilds it with one scan. Debug builds check it
/// against a fresh scan at every read.
#[derive(Debug, Default, PartialEq)]
struct Routable {
    /// Routable slot indices, ascending: position → slot.
    slots: Vec<usize>,
    /// Each routable slot's load, by position.
    loads: Vec<NodeLoad>,
    /// Slot → position in `slots` (`None`: not routable).
    pos: Vec<Option<usize>>,
    /// Provisioned slots inside their cold-start delay.
    warming: usize,
    /// Provisioned slots draining toward retirement.
    draining: usize,
    /// The lowest empty slot, which the next spawn reuses.
    first_free: Option<usize>,
    /// A membership change happened since the last rebuild.
    stale: bool,
}

impl Routable {
    /// The snapshot of `slots`, by one scan.
    fn scan<N: SimNode>(slots: &[Slot<N>]) -> Routable {
        let mut r = Routable { pos: vec![None; slots.len()], ..Routable::default() };
        for (i, s) in slots.iter().enumerate() {
            if s.node.is_none() {
                r.first_free.get_or_insert(i);
                continue;
            }
            match s.state {
                SlotState::Active => {
                    r.pos[i] = Some(r.slots.len());
                    r.slots.push(i);
                    r.loads.push(s.load());
                }
                SlotState::Warming { .. } => r.warming += 1,
                SlotState::Draining => r.draining += 1,
            }
        }
        r
    }

    /// Provisioned replicas: routable, warming or draining.
    fn live(&self) -> usize {
        self.slots.len() + self.warming + self.draining
    }
}

impl<N: SimNode> ClusterSim<N> {
    /// Runs `f` on slot `i`'s node (see [`Slot::with_node`]) and lists
    /// the slot as touched.
    fn with_node<R>(&mut self, i: usize, f: impl FnOnce(&mut N) -> R) -> Option<R> {
        let out = self.slots[i].with_node(f)?;
        self.touch(i);
        Some(out)
    }

    /// Lists slot `i` in [`ClusterSim::touched`] (once).
    fn touch(&mut self, i: usize) {
        if !self.slots[i].touched {
            self.slots[i].touched = true;
            self.touched.push(i);
        }
    }

    /// Brings the routable snapshot up to date: a rebuild after a
    /// membership change, otherwise a refresh of the touched slots'
    /// entries only. Either way the touched list starts over.
    fn sync_routable(&mut self) {
        if self.routable.stale {
            self.routable = Routable::scan(&self.slots);
        }
        for &i in &self.touched {
            if let Some(p) = self.routable.pos[i] {
                self.routable.loads[p] = self.slots[i].load();
            }
            self.slots[i].touched = false;
        }
        self.touched.clear();
        debug_assert!(
            self.routable == Routable::scan(&self.slots),
            "stale routable snapshot: a slot changed without being touched"
        );
    }

    /// Number of provisioned nodes (routable, warming or draining).
    pub fn node_count(&self) -> usize {
        self.slots.iter().filter(|s| s.node.is_some()).count()
    }

    /// Slot `i`'s next event, read from the node itself rather than the
    /// slot cache: the reference mode's path.
    fn next_event_of(&self, i: usize) -> Option<SimTime> {
        self.slots[i].node.as_deref().and_then(next_event)
    }

    /// The globally earliest pending event, by linear rescan: a fault
    /// timer (`None`) or slot `i`'s next node event (`Some(i)`). Timers
    /// win ties, so a crash scheduled exactly at an arrival instant
    /// lands before that dispatch; node ties break to the lowest slot
    /// index (`min_by` keeps the first minimum). O(R) per call — the
    /// reference mode's whole advance, and the single-event step of both
    /// modes.
    fn earliest_event(&self) -> Option<(SimTime, Option<usize>)> {
        let node = (0..self.slots.len())
            .filter_map(|i| self.next_event_of(i).map(|t| (t, Some(i))))
            .min_by(|a, b| a.0.as_secs().total_cmp(&b.0.as_secs()));
        match (self.next_timer_time(), node) {
            (Some(tt), Some((nt, _))) if tt.as_secs().total_cmp(&nt.as_secs()).is_le() => {
                Some((tt, None))
            }
            (Some(tt), None) => Some((tt, None)),
            (_, node) => node,
        }
    }

    /// Instant of the cluster's next event (the earliest node event or
    /// fault timer), or `None` when all idle.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.earliest_event().map(|(t, _)| t)
    }

    /// Advances the cluster by one event — the globally earliest node
    /// event or fault timer (see [`ClusterSim::next_event_time`]). No-op
    /// when every node is idle and no timer is pending.
    pub fn step_once(&mut self) {
        match self.earliest_event() {
            None => {}
            Some((_, None)) => self.fire_next_timer(),
            Some((_, Some(i))) => self.step_node(i),
        }
    }

    /// Steps slot `i` by one event. A draining slot whose final event
    /// just fired retires at that event's instant, and the fault clock
    /// advances to it.
    fn step_node(&mut self, i: usize) {
        let Some(t) = self.next_event_of(i) else { return };
        self.with_node(i, |n| n.step_once()).expect("a pending event implies a node");
        if let Some(f) = self.faults.as_mut() {
            f.now = f.now.max(t);
        }
        self.maybe_retire(i, t);
    }

    /// Retires slot `i` if it is draining and idle: takes its report and
    /// removes the node. Returns whether it retired.
    fn maybe_retire(&mut self, i: usize, at: SimTime) -> bool {
        let slot = &self.slots[i];
        if slot.state != SlotState::Draining || slot.next().is_some() {
            return false;
        }
        if slot.node.as_deref().is_none_or(|n| n.outstanding_tokens() != 0) {
            return false;
        }
        let mut node = self.slots[i].take_node().expect("draining slot holds a node");
        self.routable.stale = true;
        self.retired.push(node.take_report());
        self.timeline.record(i, at, ReplicaEventKind::Retired);
        true
    }

    /// Provisions one replica (a scale-out decision at instant `now`),
    /// reusing the lowest free slot if any. No-op at `max_replicas`.
    fn spawn(&mut self, now: SimTime) {
        // Every spawn attempt repays one unit of crash deficit — even
        // one clamped away at `max_replicas`, or the deficit signal
        // would re-fire forever against a full fleet.
        if let Some(f) = self.faults.as_mut() {
            f.crash_deficit = f.crash_deficit.saturating_sub(1);
        }
        let config = self.autoscaler.as_ref().expect("spawn requires an autoscaler").config;
        self.sync_routable();
        if self.routable.live() >= config.max_replicas {
            return;
        }
        let node = {
            let scaler = self.autoscaler.as_mut().expect("spawn requires an autoscaler");
            let node = (scaler.spawner)(scaler.spawned);
            scaler.spawned += 1;
            node
        };
        let i = match self.routable.first_free {
            Some(i) => i,
            None => {
                self.slots.push(Slot::new(None, SlotState::Active));
                self.slots.len() - 1
            }
        };
        self.timeline.record(i, now, ReplicaEventKind::Spawned);
        self.routable.stale = true;
        let ready_at = now + config.cold_start;
        if ready_at <= now {
            self.slots[i].install(node, SlotState::Active);
            self.timeline.record(i, now, ReplicaEventKind::Ready);
        } else {
            self.slots[i].install(node, SlotState::Warming { ready_at });
        }
    }

    /// Starts drain-then-retire on slot `i` (a scale-in decision at
    /// instant `now`). No-op unless the slot is routable, and ignored
    /// when the routable fleet is at `min_replicas`. An already-idle
    /// victim retires immediately.
    fn drain(&mut self, i: usize, now: SimTime) {
        let config = self.autoscaler.as_ref().expect("drain requires an autoscaler").config;
        if self.slots[i].node.is_none() || self.slots[i].state != SlotState::Active {
            return;
        }
        self.sync_routable();
        if self.routable.slots.len() <= config.min_replicas {
            return;
        }
        self.slots[i].state = SlotState::Draining;
        self.routable.stale = true;
        self.timeline.record(i, now, ReplicaEventKind::DrainStarted);
        self.maybe_retire(i, now);
    }

    /// Lifecycle work at a dispatch instant, before routing: warmed-up
    /// replicas join the routable set, idle draining slots retire, and
    /// the scale policy observes the routable loads and acts. A fleet
    /// without an autoscaler skips all of it — no slot ever leaves
    /// `Active`, so the fixed-fleet dispatch path is unchanged. The
    /// warm-up and retire scans run only while some slot is warming or
    /// draining.
    fn pre_dispatch(&mut self, now: SimTime) {
        if self.autoscaler.is_none() {
            return;
        }
        self.sync_routable();
        if self.routable.warming > 0 {
            for i in 0..self.slots.len() {
                if let SlotState::Warming { ready_at } = self.slots[i].state {
                    if ready_at <= now && self.slots[i].node.is_some() {
                        self.slots[i].state = SlotState::Active;
                        self.routable.stale = true;
                        self.timeline.record(i, ready_at, ReplicaEventKind::Ready);
                    }
                }
            }
        }
        if self.routable.draining > 0 {
            for i in 0..self.slots.len() {
                self.maybe_retire(i, now);
            }
        }

        // The scale policy sees the routable loads — the same signal
        // (and sampling cadence) the router acts on.
        self.sync_routable();
        let mut actions = {
            let scaler = self.autoscaler.as_mut().expect("checked above");
            let mut actions = std::mem::take(&mut scaler.actions);
            actions.clear();
            let crash_deficit = self.faults.as_ref().map_or(0, |f| f.crash_deficit);
            let signal = FleetSignal {
                now,
                loads: &self.routable.loads,
                warming: self.routable.warming,
                draining: self.routable.draining,
                crash_deficit,
            };
            scaler.policy.decide(&signal, &mut actions);
            actions
        };
        if !actions.is_empty() {
            // Drain targets name positions in the snapshot the policy
            // saw; resolve them before any action changes membership.
            let targets: Vec<Option<usize>> = actions
                .iter()
                .filter_map(|a| match *a {
                    ScaleAction::Drain { replica } => {
                        Some(self.routable.slots.get(replica).copied())
                    }
                    ScaleAction::Spawn => None,
                })
                .collect();
            let mut targets = targets.into_iter();
            for action in actions.drain(..) {
                match action {
                    ScaleAction::Spawn => self.spawn(now),
                    ScaleAction::Drain { .. } => {
                        if let Some(slot) = targets.next().flatten() {
                            self.drain(slot, now);
                        }
                    }
                }
            }
        }
        self.autoscaler.as_mut().expect("checked above").actions = actions;
    }

    /// Routes `req` on the routable loads, returning the chosen slot
    /// index.
    fn route(&mut self, req: &Request) -> usize {
        self.sync_routable();
        let r = &self.routable;
        assert!(!r.slots.is_empty(), "no routable replica (min_replicas >= 1 guards this)");
        let pick = self.policy.pick(req, &r.loads).min(r.loads.len() - 1);
        let slot = r.slots[pick];
        self.decisions.push(RoutingDecision {
            request_id: req.id,
            replica: slot,
            at: req.arrival,
            load_tokens: r.loads[pick].outstanding_tokens,
        });
        slot
    }

    fn push_to(&mut self, slot: usize, req: Request) {
        self.with_node(slot, |n| n.push_request(req)).expect("routed to a live slot");
    }

    /// Dispatches one request at instant `now`: lifecycle work, then
    /// routing, then enqueue. Returns the chosen slot, or `None` when a
    /// fault consumed the dispatch (armed route timeout, or no routable
    /// replica left) and the request re-entered under the retry policy.
    ///
    /// With faults attached, the enqueued copy's `arrival` is clamped to
    /// the fault clock (engines require nondecreasing arrivals, and
    /// redeliveries happen after later work was pushed); the true
    /// arrival is remembered and patched back at report time. Without
    /// faults the clamp never fires and this is exactly the pre-fault
    /// dispatch path.
    fn dispatch(&mut self, req: Request, now: SimTime) -> Option<usize> {
        let _dispatch_span = sp_core::profile::start(sp_core::profile::Phase::Dispatch);
        self.pre_dispatch(now);
        if self.faults.is_none() {
            let slot = self.route(&req);
            self.push_to(slot, req);
            return Some(slot);
        }
        {
            let f = self.faults.as_mut().expect("checked above");
            f.now = f.now.max(now);
            if f.route_timeout_armed {
                f.route_timeout_armed = false;
                self.requeue_after_fault(req, now);
                return None;
            }
        }
        self.sync_routable();
        if self.routable.slots.is_empty() {
            // Every replica is dead (crashes ignore `min_replicas`).
            // The request waits out a backoff and tries again — by then
            // the autoscaler may have replaced the losses.
            self.requeue_after_fault(req, now);
            return None;
        }
        let slot = self.route(&req);
        let f = self.faults.as_mut().expect("checked above");
        let push = if req.arrival.as_secs() < f.now.as_secs() {
            f.origin_arrival.entry(req.id).or_insert(req.arrival);
            Request { arrival: f.now, ..req }
        } else {
            req
        };
        self.push_to(slot, push);
        Some(slot)
    }

    /// Re-enters a fault-displaced request under the retry policy:
    /// consumes one attempt, then either parks it behind an exponential
    /// backoff or — budget exhausted — records a terminal failure.
    fn requeue_after_fault(&mut self, req: Request, at: SimTime) {
        let f = self.faults.as_mut().expect("fault requeue requires fault state");
        f.origin_arrival.entry(req.id).or_insert(req.arrival);
        let attempts = f.attempts.entry(req.id).or_insert(0);
        *attempts += 1;
        let attempt = *attempts;
        if attempt > f.retry.max_retries {
            f.failed.push(FailedRequest { request_id: req.id, attempts: f.retry.max_retries });
            self.timeline.record_request_fault(
                req.id,
                at,
                RequestFaultKind::Failed { attempts: f.retry.max_retries },
            );
            return;
        }
        let deliver = at + f.retry.backoff_for(attempt);
        let seq = f.next_seq;
        f.next_seq += 1;
        let key = (deliver.as_secs().to_bits(), seq);
        let pos = f.pending.partition_point(|p| (p.at.as_secs().to_bits(), p.seq) <= key);
        f.pending_tokens += req.total_tokens();
        f.pending.insert(pos, PendingRetry { at: deliver, seq, attempt, lost_at: at, req });
    }

    /// Kills the tenant of slot `i` at instant `at`: its report is kept
    /// (completed work survives), its unfinished requests are salvaged
    /// into the retry queue with their prefill progress written off (the
    /// KV cache died with the replica), and the slot retires *without*
    /// draining. Crashing an empty slot is a no-op.
    fn crash(&mut self, i: usize, at: SimTime) {
        if i >= self.slots.len() || self.slots[i].node.is_none() {
            return;
        }
        let mut node = self.slots[i].take_node().expect("checked above");
        self.routable.stale = true;
        let salvage = node.take_unfinished();
        self.retired.push(node.take_report());
        self.timeline.record(i, at, ReplicaEventKind::Crashed);
        self.timeline.note_wasted_prefill(salvage.wasted_prefill_tokens);
        {
            let f = self.faults.as_mut().expect("crash requires fault state");
            f.crash_deficit += 1;
            // The slowdown window dies with its tenant.
            f.slow_until.retain(|&(_, s)| s != i);
        }
        let mut requests = salvage.requests;
        requests.sort_by(|a, b| {
            a.arrival.as_secs().total_cmp(&b.arrival.as_secs()).then(a.id.cmp(&b.id))
        });
        for req in requests {
            self.requeue_after_fault(req, at);
        }
    }

    /// Instant of the earliest unfired fault timer, if any.
    fn next_timer_time(&self) -> Option<SimTime> {
        self.faults.as_ref().and_then(FaultState::peek_timer).map(|(t, _)| t)
    }

    /// Fires exactly the earliest fault timer, if any.
    fn fire_next_timer(&mut self) {
        let Some((tt, choice)) = self.faults.as_ref().and_then(FaultState::peek_timer) else {
            return;
        };
        let f = self.faults.as_mut().expect("peeked above");
        f.now = f.now.max(tt);
        match choice {
            TimerChoice::Fault => {
                let event = f.plan[f.cursor];
                f.cursor += 1;
                match event.fault {
                    Fault::Crash { replica } => self.crash(replica, tt),
                    Fault::Slowdown { replica, factor, duration } => {
                        if replica < self.slots.len() {
                            let slowed = self.with_node(replica, |n| n.set_slowdown(factor));
                            if slowed.is_some() {
                                let f = self.faults.as_mut().expect("fault state");
                                // A new window replaces any open one.
                                f.slow_until.retain(|&(_, s)| s != replica);
                                f.slow_until.push((tt + duration, replica));
                            }
                        }
                    }
                    Fault::RouteTimeout => f.route_timeout_armed = true,
                }
            }
            TimerChoice::SlowEnd(j) => {
                let (_, slot) = f.slow_until.remove(j);
                self.with_node(slot, |n| n.set_slowdown(1.0));
            }
            TimerChoice::Retry => {
                let p = f.pending.pop_front().expect("a retry timer implies a pending retry");
                f.pending_tokens -= p.req.total_tokens();
                // Full re-prefill: the cached prefix (and any prefix
                // group sharing) died with the replica's KV cache.
                let req = Request { arrival: tt, cached_prefix: 0, prefix_group: None, ..p.req };
                if self.dispatch(req, tt).is_some() {
                    self.timeline.record_request_fault(
                        p.req.id,
                        tt,
                        RequestFaultKind::Redispatched { attempt: p.attempt },
                    );
                    self.timeline.note_recovery(tt.since(p.lost_at));
                }
            }
        }
    }

    /// Total outstanding work in tokens: every live node's, plus the
    /// requests parked behind a retry backoff, so a driver waiting for
    /// zero does not stop while a retry is pending. Read off the slot
    /// caches.
    pub fn outstanding_tokens(&self) -> u64 {
        let parked = self.faults.as_ref().map_or(0, |f| f.pending_tokens);
        parked + self.slots.iter().map(|s| s.load().outstanding_tokens).sum::<u64>()
    }

    /// Finalizes an incremental run: merges retired and live per-node
    /// reports and attaches the accumulated decision trail and lifecycle
    /// timeline (both reset). With faults attached, every
    /// record whose `arrival` was rewritten (dispatch clamp or retry
    /// redelivery) is patched back to its true arrival *before* the
    /// merge replays it into the latency metrics, so TTFT and E2E count
    /// the backoff the user actually waited; terminal failures ride
    /// along via [`EngineReport::failed`].
    pub fn take_report(&mut self) -> EngineReport {
        let mut merged = EngineReport::new(self.throughput_bin);
        let origin = self.faults.as_mut().map(|f| std::mem::take(&mut f.origin_arrival));
        let mut reports = std::mem::take(&mut self.retired);
        for i in 0..self.slots.len() {
            reports.extend(self.with_node(i, SimNode::take_report));
        }
        for mut report in reports {
            if let Some(origin) = &origin {
                for r in report.records_mut() {
                    if let Some(&arrival) = origin.get(&r.request_id) {
                        r.arrival = arrival;
                    }
                }
            }
            merged.merge(report);
        }
        if let Some(f) = self.faults.as_mut() {
            merged.note_failures(std::mem::take(&mut f.failed));
            f.attempts.clear();
        }
        merged.set_routing(std::mem::take(&mut self.decisions));
        merged.set_fleet_timeline(std::mem::take(&mut self.timeline));
        merged
    }

    /// Consumes the simulation, returning its live nodes.
    pub fn into_nodes(self) -> Vec<N> {
        self.slots.into_iter().filter_map(|s| s.node.map(|n| *n)).collect()
    }
}

/// Event-driven multi-replica co-simulation.
///
/// Replicas advance in global simulated-time order; each request is
/// dispatched *at its arrival instant* to the replica the
/// [`RoutingPolicy`] picks from live `outstanding_tokens`. The merged
/// report carries the routing decision trail, each decision with the
/// chosen replica's load at dispatch.
///
/// Only coordination events — dispatch arrivals and fault timers — read
/// or write cross-replica state, so the simulation advances in *horizon
/// windows*: between two coordination instants every slot steps on its
/// own (fast-forwarding steady-state runs through [`SimNode::step_run`],
/// fanned out across threads when [`ClusterSim::set_threads`] allows),
/// and the per-slot results merge back in canonical order. Reports are
/// byte-identical, at every thread width, to the one-event-at-a-time
/// reference mode that `ClusterSim::reference` builds: the executable
/// specification.
///
/// Attach an [`Autoscaler`] with [`ClusterSim::with_autoscaler`] to let
/// a [`crate::autoscale::ScalePolicy`] grow and shrink the fleet
/// mid-trace on the load signal (scale-out with a cold-start delay,
/// drain-then-retire on the way down); the report then also carries the
/// replica lifecycle timeline and its replica-seconds cost accounting.
///
/// # Examples
///
/// ```
/// use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
/// use sp_engine::routing::{ClusterSim, RoutingKind};
/// use sp_engine::{Engine, EngineConfig};
/// use sp_model::presets;
/// use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};
/// use sp_workload::synthetic;
///
/// let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
/// let replicas = (0..2)
///     .map(|_| {
///         Engine::new(
///             ExecutionModel::new(node, presets::qwen_32b()),
///             Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
///             EngineConfig::default(),
///         )
///     })
///     .collect();
/// let mut sim = ClusterSim::new(replicas, RoutingKind::default().policy());
/// let report = sim.run(&synthetic::poisson(8, 4.0, 512, 8, 1));
/// assert_eq!(report.records().len(), 8);
/// assert_eq!(report.routing_decisions().len(), 8);
/// ```
#[derive(Debug)]
pub struct ClusterSim<N: SimNode> {
    slots: Vec<Slot<N>>,
    policy: Box<dyn RoutingPolicy>,
    throughput_bin: Dur,
    /// Decision trail accumulated across dispatches; taken with the
    /// report. `RoutingDecision::replica` holds the stable slot index.
    decisions: Vec<RoutingDecision>,
    /// Replica lifecycle events + replica-seconds accounting.
    timeline: FleetTimeline,
    /// Reports of retired replicas, merged into the final report.
    retired: Vec<EngineReport>,
    /// Scale-out / drain-then-retire decision machinery, if attached.
    autoscaler: Option<Autoscaler<N>>,
    /// Fault-injection machinery, if attached. `None` leaves every
    /// dispatch and event-loop path exactly as the fault-free build.
    faults: Option<FaultState>,
    /// The routable set the router and the autoscaler read.
    routable: Routable,
    /// Slots reached through [`Slot::with_node`] since the last
    /// [`ClusterSim::sync_routable`] (each listed once, flagged by
    /// [`Slot::touched`]): the only slots whose load can have changed
    /// since.
    touched: Vec<usize>,
    /// The one-event reference mode (see [`ClusterSim::reference`]),
    /// fixed at construction.
    reference: bool,
    /// Fan-out width for horizon windows (see
    /// [`ClusterSim::set_threads`]); `1` steps windows inline.
    threads: usize,
    /// Scratch buffers for window stepping, reused across windows to
    /// keep the hot path allocation-free.
    window_pending: Vec<usize>,
    window_outcomes: Vec<WindowOutcome>,
    window_retires: Vec<(SimTime, usize)>,
    /// Fan-out result buffer for [`sp_core::map_into`], reused across
    /// windows like the other scratch.
    window_results: Vec<Option<WindowOutcome>>,
}

/// One slot's result for one horizon window.
#[derive(Debug, Clone, Copy)]
struct WindowOutcome {
    slot: usize,
    /// Instant of the last event stepped (a draining slot retires at
    /// it, as it would right after that event in the one-event loop).
    last: SimTime,
    /// Max event instant stepped — folded into the fault clock `f.now`
    /// (per-slot max of maxes equals the one-event loop's running max).
    hi: SimTime,
}

/// Raw base pointer to the slot vector, handed to pool workers. Each
/// worker dereferences only the slots assigned to it, so the `&mut`
/// accesses are disjoint.
struct SlotsPtr<N>(*mut Slot<N>);
impl<N> Clone for SlotsPtr<N> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<N> Copy for SlotsPtr<N> {}
// SAFETY: workers access disjoint slots (each index is claimed exactly
// once per window), and `N: Send` via the `SimNode` supertrait.
unsafe impl<N: Send> Send for SlotsPtr<N> {}
unsafe impl<N: Send> Sync for SlotsPtr<N> {}

/// Steps one slot's node while its next event lies strictly below
/// `cap` (`None`: until idle) — the stop rule `!(t < cap)` that
/// [`Engine::step_run`] also applies inside a run. Runs on a pool
/// worker (or inline); touches nothing but the node itself.
fn step_slot<N: SimNode>(node: &mut N, cap: Option<f64>) -> Option<WindowOutcome> {
    let mut stepped: Option<WindowOutcome> = None;
    let mut steps: u64 = 0;
    while let Some(t) = next_event(node) {
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if cap.is_some_and(|c| !(t.as_secs() < c)) {
            break;
        }
        // Try a fast-forward run first: the node advances a whole
        // steady-state stretch in one call (re-checking the cap per
        // event internally). Run instants are nondecreasing, so folding
        // the run's final instant equals folding each one.
        let (last, events) = match node.step_run(cap) {
            Some(run) => (run.last, run.events),
            None => {
                node.step_once();
                (t, 1)
            }
        };
        let hi = stepped.map_or(last, |o| o.hi.max(last));
        stepped = Some(WindowOutcome { slot: usize::MAX, last, hi });
        steps += events;
        assert!(steps < 400_000_000, "cluster simulation failed to terminate");
    }
    stepped
}

impl<N: SimNode> ClusterSim<N> {
    /// Creates a co-simulation over `nodes` with the given router.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<N>, policy: Box<dyn RoutingPolicy>) -> ClusterSim<N> {
        assert!(!nodes.is_empty(), "cluster simulation needs at least one node");
        let mut timeline = FleetTimeline::new();
        let slots: Vec<Slot<N>> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, n)| {
                timeline.record(i, SimTime::ZERO, ReplicaEventKind::Spawned);
                timeline.record(i, SimTime::ZERO, ReplicaEventKind::Ready);
                Slot::new(Some(n), SlotState::Active)
            })
            .collect();
        ClusterSim {
            slots,
            policy,
            throughput_bin: Dur::from_secs(1.0),
            decisions: Vec::new(),
            timeline,
            retired: Vec::new(),
            autoscaler: None,
            faults: None,
            routable: Routable { stale: true, ..Routable::default() },
            touched: Vec::new(),
            reference: false,
            threads: sp_core::default_threads(),
            window_pending: Vec::new(),
            window_outcomes: Vec::new(),
            window_retires: Vec::new(),
            window_results: Vec::new(),
        }
    }

    /// Creates the co-simulation in its reference mode, kept as an
    /// executable specification: it advances by stepping the single
    /// globally earliest event — node event or fault timer — found by a
    /// linear rescan of every slot, and never fast-forwards through
    /// [`SimNode::step_run`], steps horizon windows or fans out across
    /// threads, at any [`ClusterSim::set_threads`] width. The mode is
    /// fixed for the simulation's lifetime; everything else (builders,
    /// dispatch, lifecycle, faults, report assembly) is shared with the
    /// window mode, so the byte-identity properties between the two pin
    /// exactly the window loop.
    ///
    /// It exists for two consumers only — the byte-identity tests
    /// (window-mode runs must match it exactly) and the
    /// `simperf` bench bin (which measures the window loop's speedup
    /// against it). It is not part of the supported API.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    #[doc(hidden)]
    pub fn reference(nodes: Vec<N>, policy: Box<dyn RoutingPolicy>) -> ClusterSim<N> {
        ClusterSim { reference: true, ..ClusterSim::new(nodes, policy) }
    }

    /// Sets the fan-out width for horizon windows (clamped to at least
    /// 1; `1` steps windows inline on the calling thread). The default
    /// comes from [`sp_core::default_threads`] — `SP_THREADS` or the
    /// machine's available parallelism. Reports are byte-identical for
    /// every width.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Builder form of [`ClusterSim::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> ClusterSim<N> {
        self.set_threads(threads);
        self
    }

    /// The current horizon-window fan-out width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches an autoscaler: at every dispatch instant its
    /// [`crate::autoscale::ScalePolicy`] observes the routable loads and
    /// may provision replicas (routable after the configured cold-start
    /// delay) or drain-then-retire them. Without this, the fleet is
    /// fixed and dispatch behaves exactly as before.
    pub fn with_autoscaler(mut self, scaler: Autoscaler<N>) -> ClusterSim<N> {
        self.autoscaler = Some(scaler);
        self
    }

    /// Attaches a fault-injection plan and retry policy: plan events
    /// fire as timers in the global event order (crashes salvage and
    /// re-dispatch work under `retry`), and the report gains the
    /// crash/redispatch/failure accounting. Injecting
    /// [`FaultPlan::empty`] is byte-identical to no injection.
    pub fn with_faults(mut self, plan: FaultPlan, retry: RetryPolicy) -> ClusterSim<N> {
        self.faults = Some(FaultState::new(plan, retry));
        self
    }

    /// Sets the merged report's throughput bin width (default 1 s).
    pub fn throughput_bin(mut self, bin: Dur) -> ClusterSim<N> {
        self.throughput_bin = bin;
        self
    }

    /// Steps every node event strictly before `horizon` and every fault
    /// timer at or before it (`None`: until idle), so a timer wins a tie
    /// with a node event and a crash scheduled exactly at an arrival
    /// instant lands before that dispatch.
    ///
    /// The reference mode steps the globally earliest event one at a
    /// time. The window mode cuts a horizon window at each timer and
    /// fires the timer between windows on the coordinator. One timer
    /// query per window suffices: plan cursors, slowdown ends and retry
    /// redeliveries only change when a timer fires or a dispatch runs,
    /// and the clamped redelivery instant `max(at, f.now)` cannot move
    /// while every stepped event is earlier than it.
    fn advance_to(&mut self, horizon: Option<SimTime>) {
        let mut guard: u64 = 0;
        if self.reference {
            let h = horizon.map(SimTime::as_secs);
            while let Some((t, next)) = self.earliest_event() {
                match next {
                    None if h.is_none_or(|h| t.as_secs() <= h) => self.fire_next_timer(),
                    Some(i) if h.is_none_or(|h| t.as_secs() < h) => self.step_node(i),
                    _ => break,
                }
                guard += 1;
                assert!(guard < 400_000_000, "cluster simulation failed to terminate");
            }
            return;
        }
        while let Some(tt) =
            self.next_timer_time().filter(|tt| horizon.is_none_or(|h| tt.as_secs() <= h.as_secs()))
        {
            self.step_window(Some(tt.as_secs()));
            self.fire_next_timer();
            guard += 1;
            assert!(guard < 400_000_000, "cluster simulation failed to terminate");
        }
        self.step_window(horizon.map(SimTime::as_secs));
    }

    /// Runs one horizon window: steps every slot up to `cap`
    /// (concurrently when `threads > 1`), then merges the per-slot
    /// results back into the global order — the fault clock advances to
    /// the max stepped instant, then drained-dry draining slots retire
    /// sorted by (instant, slot), exactly the order the one-event loop
    /// retires them in.
    fn step_window(&mut self, cap: Option<f64>) {
        let mut outcomes = std::mem::take(&mut self.window_outcomes);
        outcomes.clear();
        // Only slots whose cached next event lies below the cap have
        // anything to step; the rest are skipped without a node call.
        let due = |slot: &Slot<N>| slot.next().is_some_and(|t| cap.is_none_or(|c| t.as_secs() < c));
        if self.threads <= 1 {
            for i in 0..self.slots.len() {
                if !due(&self.slots[i]) {
                    continue;
                }
                if let Some(o) = self.with_node(i, |n| step_slot(n, cap)).flatten() {
                    outcomes.push(WindowOutcome { slot: i, ..o });
                }
            }
        } else {
            let mut pending = std::mem::take(&mut self.window_pending);
            pending.clear();
            pending.extend((0..self.slots.len()).filter(|&i| due(&self.slots[i])));
            let base = SlotsPtr(self.slots.as_mut_ptr());
            let mut results = std::mem::take(&mut self.window_results);
            sp_core::map_into(
                self.threads,
                &pending,
                |&i| {
                    // Not redundant: edition-2021 precise capture would
                    // otherwise capture the raw-pointer *field* (not
                    // Sync); rebinding forces capture of the whole
                    // `Send + Sync` wrapper.
                    #[allow(clippy::redundant_locals)]
                    let base = base;
                    // SAFETY: `pending` holds each slot index at most
                    // once and only this closure invocation touches
                    // slot `i`, so the `&mut` access is unaliased; the
                    // pointer stays valid for the whole fan-out (`self`
                    // is borrowed).
                    let slot = unsafe { &mut *base.0.add(i) };
                    slot.with_node(|n| step_slot(n, cap)).expect("pending slot holds a node")
                },
                &mut results,
            );
            for (&i, o) in pending.iter().zip(&results) {
                self.touch(i);
                if let Some(o) = *o {
                    outcomes.push(WindowOutcome { slot: i, ..o });
                }
            }
            self.window_results = results;
            self.window_pending = pending;
        }

        // Merge: fault clock first (retires and timer clamps read it),
        // then retires in (instant, slot) order.
        let _merge_span = sp_core::profile::start(sp_core::profile::Phase::Merge);
        let hi = outcomes.iter().map(|o| o.hi).reduce(SimTime::max);
        if let (Some(f), Some(hi)) = (self.faults.as_mut(), hi) {
            f.now = f.now.max(hi);
        }
        let mut retires = std::mem::take(&mut self.window_retires);
        retires.clear();
        retires.extend(
            outcomes
                .iter()
                .filter(|o| self.slots[o.slot].state == SlotState::Draining)
                .map(|o| (o.last, o.slot)),
        );
        retires.sort_by(sp_metrics::window_event_order);
        for &(t, i) in &retires {
            self.maybe_retire(i, t);
        }
        self.window_retires = retires;
        self.window_outcomes = outcomes;
    }

    /// Dispatches one request at its arrival instant: advances every
    /// node up to the arrival, runs autoscaler lifecycle work (warmups,
    /// retires, scale decisions), reads the routable loads, routes, and
    /// enqueues. Requests must be pushed in nondecreasing arrival order
    /// (as [`ClusterSim::run`] does for a trace). Routing decisions
    /// accumulate until [`ClusterSim::take_report`].
    pub fn push_request(&mut self, req: Request) {
        // Bring every node's local clock up to this arrival so the load
        // signal reflects work actually still outstanding now.
        self.advance_to(Some(req.arrival));
        self.dispatch(req, req.arrival);
    }

    /// Runs `trace` to completion: dispatch at arrival instants, then
    /// drain, then merge per-node reports (plus the decision trail).
    /// Remaining fault timers (backoffs, trailing plan events) fire
    /// during the drain too, so salvaged requests finish — or fail
    /// terminally — before the report is cut.
    ///
    /// # Panics
    ///
    /// Panics if the co-simulation fails to make progress (internal bug
    /// guard).
    pub fn run(&mut self, trace: &Trace) -> EngineReport {
        self.decisions.reserve(trace.len());
        for &req in trace.requests() {
            self.push_request(req);
        }
        self.advance_to(None);
        self.take_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use sp_cluster::{GpuSpec, InterconnectSpec, NodeSpec};
    use sp_model::presets;
    use sp_parallel::{ExecutionModel, ParallelConfig, StaticPolicy};
    use sp_workload::RequestClass;

    fn req(id: u64, at: f64, input: u32, output: u32) -> Request {
        Request {
            id,
            arrival: SimTime::from_secs(at),
            input_tokens: input,
            output_tokens: output,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        }
    }

    fn loads(outstanding: &[u64]) -> Vec<NodeLoad> {
        outstanding
            .iter()
            .map(|&l| NodeLoad { outstanding_tokens: l, ..NodeLoad::default() })
            .collect()
    }

    fn engines(n: usize) -> Vec<Engine> {
        engines_with(n, EngineConfig::default())
    }

    /// `n` one-GPU Qwen-32B engines under `config`: a DP deployment's
    /// replicas.
    fn engines_with(n: usize, config: EngineConfig) -> Vec<Engine> {
        let node = NodeSpec::new(GpuSpec::h200(), 1, InterconnectSpec::nvswitch());
        (0..n)
            .map(|_| {
                Engine::new(
                    ExecutionModel::new(node, presets::qwen_32b()),
                    Box::new(StaticPolicy::new("DP", ParallelConfig::single())),
                    config,
                )
            })
            .collect()
    }

    #[test]
    fn jsq_picks_least_loaded_with_ties_to_lowest_index() {
        let mut p = JoinShortestOutstanding;
        let r = req(0, 0.0, 100, 10);
        assert_eq!(p.pick(&r, &loads(&[500, 200, 900])), 1);
        assert_eq!(p.pick(&r, &loads(&[300, 300, 300])), 0);
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobin::default();
        let r = req(0, 0.0, 100, 10);
        let picks: Vec<usize> = (0..5).map(|_| p.pick(&r, &loads(&[0, 0, 0]))).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn static_split_balances_uniform_load() {
        let mut p = StaticSplit::default();
        let mut counts = [0; 4];
        for r in sp_workload::synthetic::uniform_batch(100, 1000, 100).requests() {
            counts[p.pick(r, &loads(&[0; 4]))] += 1;
        }
        assert_eq!(counts, [25; 4]);
    }

    #[test]
    fn static_split_balances_skewed_sizes() {
        // Alternating huge and tiny requests.
        let mut p = StaticSplit::default();
        let mut work = [0u64; 2];
        for i in 0..40u64 {
            let r = req(i, i as f64 * 0.01, if i % 2 == 0 { 8000 } else { 100 }, 10);
            work[p.pick(&r, &loads(&[0; 2]))] += r.total_tokens();
        }
        let imbalance = work[0].max(work[1]) as f64 / work[0].min(work[1]) as f64;
        assert!(imbalance < 1.2, "static split imbalance {imbalance}");
    }

    #[test]
    fn edf_routes_interactive_to_feasible_replica() {
        // Replica 0: lighter raw load, but a prefill queue too deep to
        // make the 1 s interactive TTFT. Replica 1: heavier outstanding
        // but feasible. JSQ prefers 0; EDF must send interactive traffic
        // to 1 and keep batch traffic on JSQ.
        let snapshot = vec![
            NodeLoad {
                outstanding_tokens: 10_000,
                queued_prefill_tokens: 40_000,
                kv_free_tokens: 1_000_000,
                prefill_tokens_per_sec: 20_000.0,
            },
            NodeLoad {
                outstanding_tokens: 15_000,
                queued_prefill_tokens: 2_000,
                kv_free_tokens: 1_000_000,
                prefill_tokens_per_sec: 20_000.0,
            },
        ];
        let mut edf = EarliestDeadlineFeasible::default();
        let mut jsq = JoinShortestOutstanding;
        let interactive = req(0, 0.0, 500, 10);
        assert_eq!(jsq.pick(&interactive, &snapshot), 0);
        assert_eq!(edf.pick(&interactive, &snapshot), 1);
        let batch = Request { class: RequestClass::Batch, ..interactive };
        assert_eq!(edf.pick(&batch, &snapshot), 0, "batch follows JSQ");

        // No feasible replica: least-bad ETA wins.
        let swamped: Vec<NodeLoad> = snapshot
            .iter()
            .map(|l| NodeLoad { queued_prefill_tokens: l.queued_prefill_tokens + 100_000, ..*l })
            .collect();
        assert_eq!(edf.pick(&interactive, &swamped), 1);
    }

    #[test]
    fn jsq_by_ttft_ignores_decode_backlog_and_degrades_to_jsq() {
        // Replica 0 carries a huge decode backlog (large outstanding, no
        // prefill queue); replica 1 has little outstanding but a deep
        // prefill queue. JSQ picks 1; TTFT ranking picks 0.
        let snapshot = vec![
            NodeLoad {
                outstanding_tokens: 50_000,
                queued_prefill_tokens: 0,
                kv_free_tokens: 1_000_000,
                prefill_tokens_per_sec: 20_000.0,
            },
            NodeLoad {
                outstanding_tokens: 8_000,
                queued_prefill_tokens: 30_000,
                kv_free_tokens: 1_000_000,
                prefill_tokens_per_sec: 20_000.0,
            },
        ];
        let r = req(0, 0.0, 500, 10);
        assert_eq!(JoinShortestOutstanding.pick(&r, &snapshot), 1);
        assert_eq!(JsqByTtft.pick(&r, &snapshot), 0);
        // Without a prefill-rate estimate every ETA saturates at
        // `Dur::MAX` and the tie-break reproduces plain JSQ.
        assert_eq!(JsqByTtft.pick(&r, &loads(&[500, 200, 900])), 1);
        assert_eq!(JsqByTtft.pick(&r, &loads(&[300, 300, 300])), 0);
    }

    #[test]
    fn jsq_by_ttft_spreads_prompt_bursts_better_than_jsq() {
        // Three long generations at t=0 land 2-vs-1 across two replicas
        // (JSQ ties to the lowest index), so replica 0 carries twice the
        // outstanding decode work. A prompt-heavy burst then arrives.
        // Plain JSQ piles the burst onto replica 1 until its outstanding
        // tokens catch up with replica 0's decode backlog — but decode
        // backlog barely delays a new prefill, so those prompts queue
        // behind each other for nothing. TTFT ranking spreads the burst
        // by actual prefill wait and must win on tail TTFT.
        let bursty = || {
            let mut t: Vec<Request> = (0..3).map(|i| req(i, 0.0, 200, 12_000)).collect();
            t.extend((0..12u64).map(|i| req(3 + i, 0.5 + 0.02 * i as f64, 6_000, 8)));
            Trace::with_ids(t)
        };
        let burst_ttft_tail = |kind: RoutingKind| {
            let mut sim = ClusterSim::new(engines(2), kind.policy());
            let report = sim.run(&bursty());
            let mut ttfts: Vec<f64> = report
                .records()
                .iter()
                .filter(|r| r.input_tokens == 6_000)
                .map(|r| r.ttft().as_secs())
                .collect();
            assert_eq!(ttfts.len(), 12, "every burst prompt completes");
            ttfts.sort_by(f64::total_cmp);
            ttfts[ttfts.len() - 2]
        };
        let jsq = burst_ttft_tail(RoutingKind::JoinShortestOutstanding);
        let by_ttft = burst_ttft_tail(RoutingKind::JsqByTtft);
        assert!(
            by_ttft < jsq,
            "TTFT-ranked JSQ tail TTFT {by_ttft:.3}s must beat plain JSQ {jsq:.3}s"
        );
    }

    #[test]
    fn busy_replica_receives_no_new_work() {
        // Acceptance: a replica buried under a long prefill must receive
        // nothing while an idle replica takes every arrival.
        let mut sim = ClusterSim::new(engines(2), RoutingKind::JoinShortestOutstanding.policy());
        let mut trace: Vec<Request> = vec![req(0, 0.0, 120_000, 512)];
        trace.extend((1..9).map(|i| req(i, 0.05 * i as f64, 256, 16)));
        let report = sim.run(&Trace::with_ids(trace));

        let d = report.routing_decisions();
        assert_eq!(d.len(), 9);
        assert_eq!(d[0].replica, 0, "first request ties to replica 0");
        for dec in &d[1..] {
            assert_eq!(
                dec.replica, 1,
                "request {} routed to the busy replica at load {}",
                dec.request_id, dec.load_tokens
            );
        }
        assert_eq!(report.records().len(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        let _ = ClusterSim::new(engines(0), RoutingKind::default().policy());
    }

    #[test]
    fn dp_throughput_scales_with_replicas() {
        let trace = sp_workload::synthetic::uniform_batch(64, 2048, 16);
        let makespan = |n| {
            let mut sim = ClusterSim::new(engines(n), RoutingKind::default().policy());
            sim.run(&trace).makespan().as_secs()
        };
        let speedup = makespan(1) / makespan(8);
        assert!(speedup > 4.0, "8-replica speedup only {speedup:.2}x");
    }

    #[test]
    fn online_run_merges_exactly_the_per_replica_work() {
        // Merge correctness: compare the merged report against
        // independently-run replicas fed the per-decision shards.
        let trace = sp_workload::synthetic::poisson(48, 30.0, 640, 12, 21);
        let mut sim = ClusterSim::new(engines(3), RoutingKind::JoinShortestOutstanding.policy());
        let report = sim.run(&trace);

        // Every request completed exactly once, with its original id.
        let mut ids: Vec<u64> = report.records().iter().map(|r| r.request_id).collect();
        ids.sort_unstable();
        let mut expected: Vec<u64> = trace.requests().iter().map(|r| r.id).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected, "merged ids must match the trace without collisions");

        // Rebuild the per-replica shards from the decision trail and run
        // them on fresh engines: merged totals must equal the sums.
        let decisions = report.routing_decisions();
        assert_eq!(decisions.len(), trace.len());
        let mut shards: Vec<Vec<Request>> = vec![Vec::new(); 3];
        for d in decisions {
            let req = trace.requests().iter().find(|r| r.id == d.request_id).unwrap();
            shards[d.replica].push(*req);
        }
        let mut replica_token_sum = 0u64;
        let mut replica_iter_sum = 0u64;
        for shard in shards {
            let fresh = engines(1).pop().unwrap().run(&Trace::with_ids(shard));
            replica_token_sum += fresh.metrics().total_tokens();
            replica_iter_sum += fresh.iterations();
        }
        assert_eq!(report.metrics().total_tokens(), replica_token_sum);
        assert_eq!(report.iterations(), replica_iter_sum);
        assert_eq!(report.metrics().total_tokens(), trace.total_tokens());
    }

    /// A bursty Poisson trace with a handful of long-decode "agentic"
    /// requests up front. The long decodes pin KV blocks on whichever
    /// replica admits them for minutes of simulated time — an asymmetry
    /// the static token-count split cannot see, so it keeps sending half
    /// of every burst into the congested replica's admission queue.
    fn bursty_trace_with_long_decodes(seed: u64) -> Trace {
        let mut reqs: Vec<Request> = sp_workload::bursty::BurstyConfig {
            duration: Dur::from_secs(300.0),
            base_rate: 1.0,
            bursts: 4,
            burst_size: 12,
            burst_window: Dur::from_secs(10.0),
            seed,
            ..sp_workload::bursty::BurstyConfig::default()
        }
        .generate()
        .requests()
        .to_vec();
        // The lognormal sampler occasionally emits a request larger than
        // the tight KV cap used here; such a request could never admit,
        // so drop it to keep every request completable.
        reqs.retain(|r| r.total_tokens() <= 15_000);
        for (k, at) in [5.0, 9.0, 13.0, 17.0, 21.0].iter().enumerate() {
            let mut long = req(10_000 + k as u64, *at, 500, 6_000);
            long.class = RequestClass::Batch;
            reqs.push(long);
        }
        Trace::new(reqs)
    }

    #[test]
    fn jsq_beats_static_split_on_bursty_p99_ttft() {
        // With KV-constrained replicas, requests that cannot admit wait
        // in queue — exactly the load signal join-shortest-outstanding
        // reacts to. The static split keeps feeding the replica whose
        // cache the long decodes pinned, so its admission queue (and the
        // TTFT tail) grows; JSQ diverts bursts to the replica that is
        // actually draining.
        let trace = bursty_trace_with_long_decodes(0xB5_257);
        let run = |kind: RoutingKind| {
            let tight = EngineConfig { kv_capacity_tokens: 20_000, ..EngineConfig::default() };
            ClusterSim::new(engines_with(2, tight), kind.policy()).run(&trace)
        };
        let mut split = run(RoutingKind::StaticSplit);
        let mut jsq = run(RoutingKind::JoinShortestOutstanding);

        assert_eq!(jsq.records().len(), trace.len());
        assert_eq!(split.records().len(), trace.len());
        let p99 = |r: &mut EngineReport| r.metrics_mut().ttft().quantile(0.99).expect("non-empty");
        let (split_p99, jsq_p99) = (p99(&mut split), p99(&mut jsq));
        assert!(
            jsq_p99 < split_p99,
            "JSQ p99 TTFT {jsq_p99:.3}s must beat the static split {split_p99:.3}s"
        );
        // The decision trail shows the diversion: not a 50/50 split.
        let to_first = jsq.routing_decisions().iter().filter(|d| d.replica == 0).count();
        let total = jsq.routing_decisions().len();
        assert!(to_first != total / 2 || total % 2 == 1, "expected a load-skewed split");
    }

    #[test]
    fn routing_is_deterministic() {
        let trace = sp_workload::bursty::BurstyConfig {
            duration: sp_metrics::Dur::from_secs(60.0),
            base_rate: 1.0,
            bursts: 2,
            burst_size: 30,
            ..sp_workload::bursty::BurstyConfig::default()
        }
        .generate();
        let decide = || {
            let mut sim =
                ClusterSim::new(engines(2), RoutingKind::JoinShortestOutstanding.policy());
            sim.run(&trace).routing_decisions().to_vec()
        };
        let a = decide();
        let b = decide();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same trace must yield the same routing decisions");
    }

    #[test]
    fn every_arrival_is_dispatched_and_sampled() {
        let trace = sp_workload::synthetic::poisson(40, 20.0, 512, 8, 3);
        let mut sim = ClusterSim::new(engines(4), RoutingKind::RoundRobin.policy());
        let report = sim.run(&trace);
        assert_eq!(report.routing_decisions().len(), 40);
        assert_eq!(report.records().len(), 40);
    }

    #[test]
    fn spawned_engine_seeds_prefill_rate_from_compiled_plans() {
        // An engine straight out of construction — exactly what an
        // autoscaler's spawner builds — must already report a real
        // prefill rate from its compiled plan set, so deadline-aware
        // routers see its capacity before it has served anything.
        let e = engines(1).pop().unwrap();
        assert!(
            e.load().prefill_tokens_per_sec > 0.0,
            "fresh engine must price its prefill rate at construction"
        );
    }

    #[test]
    fn ttft_routing_never_dogpiles_a_rateless_replica() {
        // Regression (cold-replica dogpile): a replica with no prefill
        // rate sample used to estimate TTFT as *zero*, so TTFT-ranked
        // and deadline-aware routers piled every request onto it. Its
        // estimate now saturates at `Dur::MAX`: a warm replica — even a
        // heavily loaded one — must win.
        let warm = NodeLoad {
            outstanding_tokens: 30_000,
            queued_prefill_tokens: 10_000,
            kv_free_tokens: 1_000_000,
            prefill_tokens_per_sec: 20_000.0,
        };
        let cold = NodeLoad {
            outstanding_tokens: 0,
            queued_prefill_tokens: 0,
            kv_free_tokens: 1_000_000,
            prefill_tokens_per_sec: 0.0,
        };
        let r = req(0, 0.0, 500, 10);
        assert_eq!(JsqByTtft.pick(&r, &[warm, cold]), 0, "TTFT ranking must avoid the cold one");
        let mut edf = EarliestDeadlineFeasible::default();
        assert_eq!(edf.pick(&r, &[warm, cold]), 0, "EDF must treat the cold one as infeasible");
        // Two rateless replicas tie at MAX and degrade to JSQ on the
        // outstanding tie-break instead of herding onto index 0.
        let colder = NodeLoad { outstanding_tokens: 400, ..cold };
        assert_eq!(JsqByTtft.pick(&r, &[colder, cold]), 1);
        assert_eq!(edf.pick(&r, &[colder, cold]), 1);
    }

    /// Replays a fixed `(at, action)` script: each action fires at the
    /// first dispatch at or after its instant. Deterministic by
    /// construction.
    #[derive(Debug)]
    struct ScriptedScale {
        script: Vec<(f64, ScaleAction)>,
        next: usize,
    }

    impl ScriptedScale {
        fn new(script: Vec<(f64, ScaleAction)>) -> ScriptedScale {
            ScriptedScale { script, next: 0 }
        }
    }

    impl crate::autoscale::ScalePolicy for ScriptedScale {
        fn name(&self) -> &str {
            "scripted"
        }

        fn decide(&mut self, signal: &FleetSignal<'_>, actions: &mut Vec<ScaleAction>) {
            while self.next < self.script.len() && signal.now.as_secs() >= self.script[self.next].0
            {
                actions.push(self.script[self.next].1);
                self.next += 1;
            }
        }
    }

    fn scripted_scaler(
        config: crate::autoscale::AutoscaleConfig,
        script: Vec<(f64, ScaleAction)>,
    ) -> Autoscaler<Engine> {
        Autoscaler::new(config, Box::new(ScriptedScale::new(script)), |_| engines(1).pop().unwrap())
    }

    fn steady_trace(n: u64, gap: f64) -> Trace {
        Trace::with_ids((0..n).map(|i| req(i, i as f64 * gap, 512, 8)).collect::<Vec<_>>())
    }

    #[test]
    fn never_firing_autoscaler_is_byte_identical_to_fixed_fleet() {
        use crate::autoscale::{AutoscaleConfig, NeverScale};
        let trace = steady_trace(40, 0.25);
        let fixed = ClusterSim::new(engines(2), RoutingKind::JsqByTtft.policy()).run(&trace);
        let scaler = Autoscaler::new(AutoscaleConfig::default(), Box::new(NeverScale), |_| {
            engines(1).pop().unwrap()
        });
        let auto = ClusterSim::new(engines(2), RoutingKind::JsqByTtft.policy())
            .with_autoscaler(scaler)
            .run(&trace);
        assert_eq!(fixed.dump(), auto.dump());
    }

    #[test]
    fn autoscaled_cluster_spawns_and_retires_on_schedule() {
        use crate::autoscale::AutoscaleConfig;
        use sp_metrics::ReplicaEventKind;
        let config =
            AutoscaleConfig { cold_start: Dur::from_secs(2.0), min_replicas: 1, max_replicas: 4 };
        let script = vec![(1.0, ScaleAction::Spawn), (30.0, ScaleAction::Drain { replica: 1 })];
        let trace = steady_trace(80, 0.5);
        let mut sim = ClusterSim::new(engines(1), RoutingKind::JoinShortestOutstanding.policy())
            .with_autoscaler(scripted_scaler(config, script));
        let report = sim.run(&trace);

        assert_eq!(report.records().len(), 80, "drain must not drop in-flight work");
        let tl = report.fleet_timeline();
        let kinds = |k: ReplicaEventKind| tl.events().iter().filter(|e| e.kind == k).count();
        assert_eq!(kinds(ReplicaEventKind::Spawned), 2, "initial replica + one scale-out");
        assert_eq!(kinds(ReplicaEventKind::DrainStarted), 1);
        assert_eq!(kinds(ReplicaEventKind::Retired), 1);
        let spawned = tl
            .events()
            .iter()
            .find(|e| e.replica == 1 && e.kind == ReplicaEventKind::Spawned)
            .expect("scale-out recorded");
        let ready = tl
            .events()
            .iter()
            .find(|e| e.replica == 1 && e.kind == ReplicaEventKind::Ready)
            .expect("warmup completion recorded");
        assert_eq!(ready.at.since(spawned.at).as_secs(), 2.0, "cold start is paid in full");
        // No dispatch lands on the new replica before it is ready.
        for d in report.routing_decisions() {
            if d.replica == 1 {
                assert!(d.at >= ready.at, "request routed to a warming replica at {:?}", d.at);
            }
        }
        // Replica 1 lives for part of the run, so the fleet bills less
        // than two always-on replicas.
        let makespan = report.makespan();
        let rs = tl.replica_seconds(makespan);
        assert!(rs > makespan.as_secs(), "more than one replica existed");
        assert!(rs < 2.0 * makespan.as_secs(), "replica 1 must not bill the full run");
        assert_eq!(tl.peak_provisioned(), 2);
    }

    #[test]
    fn retire_then_respawn_reuses_the_slot_and_matches_reference() {
        // Retiring a replica and later installing a new tenant in the
        // same slot must keep slot indices stable: an implementation
        // that removes the node from the vector (shifting indices)
        // diverges from the one-event reference loop here.
        use crate::autoscale::AutoscaleConfig;
        use sp_metrics::ReplicaEventKind;
        let config =
            AutoscaleConfig { cold_start: Dur::from_secs(1.0), min_replicas: 1, max_replicas: 2 };
        let script = || vec![(5.0, ScaleAction::Drain { replica: 1 }), (15.0, ScaleAction::Spawn)];
        let trace = steady_trace(60, 0.5);
        let windowed = ClusterSim::new(engines(2), RoutingKind::JoinShortestOutstanding.policy())
            .with_autoscaler(scripted_scaler(config, script()))
            .run(&trace);
        let reference =
            ClusterSim::reference(engines(2), RoutingKind::JoinShortestOutstanding.policy())
                .with_autoscaler(scripted_scaler(config, script()))
                .run(&trace);

        assert_eq!(windowed.dump(), reference.dump());

        // The respawn reused slot 1: two Spawned events on the same
        // stable replica index, one Retired between them.
        let slot1: Vec<ReplicaEventKind> = windowed
            .fleet_timeline()
            .events()
            .iter()
            .filter(|e| e.replica == 1)
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            slot1,
            vec![
                ReplicaEventKind::Spawned,
                ReplicaEventKind::Ready,
                ReplicaEventKind::DrainStarted,
                ReplicaEventKind::Retired,
                ReplicaEventKind::Spawned,
                ReplicaEventKind::Ready,
            ]
        );
    }

    #[test]
    fn autoscaler_clamps_at_min_and_max_bounds() {
        use crate::autoscale::AutoscaleConfig;
        use sp_metrics::ReplicaEventKind;
        // min == max == 2: every scripted action must be ignored and the
        // run must stay byte-identical to the fixed fleet.
        let config =
            AutoscaleConfig { cold_start: Dur::from_secs(1.0), min_replicas: 2, max_replicas: 2 };
        let script = vec![
            (1.0, ScaleAction::Drain { replica: 0 }),
            (2.0, ScaleAction::Spawn),
            (3.0, ScaleAction::Spawn),
        ];
        let trace = steady_trace(40, 0.25);
        let fixed =
            ClusterSim::new(engines(2), RoutingKind::JoinShortestOutstanding.policy()).run(&trace);
        let clamped = ClusterSim::new(engines(2), RoutingKind::JoinShortestOutstanding.policy())
            .with_autoscaler(scripted_scaler(config, script))
            .run(&trace);
        assert_eq!(fixed.dump(), clamped.dump());
        let tl = clamped.fleet_timeline();
        assert_eq!(tl.peak_provisioned(), 2);
        assert!(tl.events().iter().all(
            |e| e.kind != ReplicaEventKind::DrainStarted && e.kind != ReplicaEventKind::Retired
        ));
    }

    fn crash_at(at: f64, replica: usize) -> FaultEvent {
        FaultEvent { at: SimTime::from_secs(at), fault: Fault::Crash { replica } }
    }

    #[test]
    fn crash_salvages_inflight_work_and_redispatches_with_full_reprefill() {
        // A huge prompt lands on replica 0 and dies with it mid-prefill;
        // the salvaged request must re-enter after its backoff, complete
        // on the survivor, and the report must account the wasted
        // prefill, the recovery time, and a TTFT that includes the
        // backoff (arrival patched back to the true instant).
        let mut trace: Vec<Request> = vec![req(0, 0.0, 100_000, 64)];
        trace.extend((1..4).map(|i| req(i, 0.1 * i as f64, 256, 16)));
        let plan = FaultPlan::new(vec![crash_at(0.5, 0)]);
        let mut sim = ClusterSim::new(engines(2), RoutingKind::JoinShortestOutstanding.policy())
            .with_faults(plan, RetryPolicy::default());
        let report = sim.run(&Trace::with_ids(trace));

        assert_eq!(report.records().len(), 4, "every request completes exactly once");
        let mut ids: Vec<u64> = report.records().iter().map(|r| r.request_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        assert!(report.failed().is_empty());

        let tl = report.fleet_timeline();
        assert_eq!(tl.crash_count(), 1);
        assert!(tl.wasted_prefill_tokens() > 0, "mid-prefill work died with the KV cache");
        assert!(tl.recoveries() >= 1);
        assert!(
            tl.mean_recovery_secs() >= 1.0,
            "recovery waits out at least the base backoff, got {}",
            tl.mean_recovery_secs()
        );
        let redispatched: Vec<_> = tl
            .request_faults()
            .iter()
            .filter(|e| matches!(e.kind, RequestFaultKind::Redispatched { .. }))
            .collect();
        assert!(!redispatched.is_empty());
        assert!(redispatched.iter().any(|e| e.request_id == 0));

        // Request 0's record keeps its true arrival, so its TTFT covers
        // the crash wait + backoff + full re-prefill.
        let r0 = report.records().iter().find(|r| r.request_id == 0).expect("completed");
        assert_eq!(r0.arrival.as_secs(), 0.0, "arrival patched back to the true instant");
        assert!(
            r0.ttft().as_secs() >= 1.5,
            "TTFT must include crash wait + backoff, got {}",
            r0.ttft().as_secs()
        );
    }

    #[test]
    fn exhausted_retry_budget_is_a_terminal_failure_with_budget_attempts() {
        // One replica, killed while serving the only request, never
        // replaced: every backoff redelivery finds no routable replica
        // and burns an attempt, so the request must fail terminally with
        // exactly `max_retries` attempts on record.
        let retry = RetryPolicy { max_retries: 2, base_backoff: Dur::from_secs(1.0) };
        let plan = FaultPlan::new(vec![crash_at(0.5, 0)]);
        let mut sim = ClusterSim::new(engines(1), RoutingKind::JoinShortestOutstanding.policy())
            .with_faults(plan, retry);
        let report = sim.run(&Trace::with_ids(vec![req(0, 0.0, 50_000, 64)]));

        assert!(report.records().is_empty(), "the only replica died and never came back");
        assert_eq!(report.failed(), &[FailedRequest { request_id: 0, attempts: 2 }]);
        let tl = report.fleet_timeline();
        assert_eq!(tl.crash_count(), 1);
        assert!(tl
            .request_faults()
            .iter()
            .any(|e| e.kind == RequestFaultKind::Failed { attempts: 2 }));
    }

    #[test]
    fn zero_retry_budget_fails_on_first_fault() {
        let retry = RetryPolicy { max_retries: 0, base_backoff: Dur::from_secs(1.0) };
        let plan = FaultPlan::new(vec![crash_at(0.5, 0)]);
        let mut sim = ClusterSim::new(engines(2), RoutingKind::JoinShortestOutstanding.policy())
            .with_faults(plan, retry);
        let report = sim.run(&Trace::with_ids(vec![req(0, 0.0, 50_000, 64)]));
        assert!(report.records().is_empty());
        assert_eq!(report.failed(), &[FailedRequest { request_id: 0, attempts: 0 }]);
    }

    #[test]
    fn slowdown_window_stretches_the_run_then_recovers() {
        // A compute-bound batch (everything arrives at t=0), so the
        // makespan tracks iteration durations, not arrival spread.
        let trace = Trace::with_ids((0..16).map(|i| req(i, 0.0, 8_000, 64)).collect::<Vec<_>>());
        let run_with = |plan: FaultPlan| {
            let mut sim =
                ClusterSim::new(engines(1), RoutingKind::JoinShortestOutstanding.policy())
                    .with_faults(plan, RetryPolicy::default());
            sim.run(&trace).makespan().as_secs()
        };
        let base = run_with(FaultPlan::empty());
        let slow = |duration: f64| {
            FaultPlan::new(vec![FaultEvent {
                at: SimTime::ZERO,
                fault: Fault::Slowdown {
                    replica: 0,
                    factor: 4.0,
                    duration: Dur::from_secs(duration),
                },
            }])
        };
        let slowed_throughout = run_with(slow(10_000.0));
        let slowed_briefly = run_with(slow(0.05));
        assert!(
            slowed_throughout > base * 1.5,
            "4x slowdown must stretch the run: base {base}, slowed {slowed_throughout}"
        );
        assert!(
            slowed_briefly < slowed_throughout,
            "recovering mid-run must beat staying slow: {slowed_briefly} vs {slowed_throughout}"
        );
    }

    #[test]
    fn route_timeout_consumes_an_attempt_and_redispatches() {
        let plan =
            FaultPlan::new(vec![FaultEvent { at: SimTime::ZERO, fault: Fault::RouteTimeout }]);
        let mut sim = ClusterSim::new(engines(1), RoutingKind::JoinShortestOutstanding.policy())
            .with_faults(plan, RetryPolicy::default());
        let report = sim.run(&Trace::with_ids(vec![req(0, 0.0, 512, 8)]));

        assert_eq!(report.records().len(), 1);
        assert!(report.failed().is_empty());
        let r0 = &report.records()[0];
        assert_eq!(r0.arrival.as_secs(), 0.0, "true arrival survives the timeout detour");
        assert!(r0.ttft().as_secs() >= 1.0, "the backoff counts toward TTFT");
        let tl = report.fleet_timeline();
        assert_eq!(tl.crash_count(), 0);
        assert!(tl
            .request_faults()
            .iter()
            .any(|e| e.kind == RequestFaultKind::Redispatched { attempt: 1 }));
        // The timed-out dispatch records no routing decision; the
        // redelivery does.
        assert_eq!(report.routing_decisions().len(), 1);
        assert!(report.routing_decisions()[0].at.as_secs() >= 1.0);
    }

    #[test]
    fn crash_while_warming_stops_billing_at_the_crash_instant() {
        // Satellite regression: a replica dying inside its cold-start
        // window must bill replica-seconds only up to the crash, not to
        // its would-be Ready instant (nor the end of the run).
        use crate::autoscale::AutoscaleConfig;
        let config =
            AutoscaleConfig { cold_start: Dur::from_secs(10.0), min_replicas: 1, max_replicas: 2 };
        let script = vec![(1.0, ScaleAction::Spawn)];
        let plan = FaultPlan::new(vec![crash_at(3.0, 1)]);
        let trace = steady_trace(40, 0.5);
        let mut sim = ClusterSim::new(engines(1), RoutingKind::JoinShortestOutstanding.policy())
            .with_autoscaler(scripted_scaler(config, script))
            .with_faults(plan, RetryPolicy::default());
        let report = sim.run(&trace);

        assert_eq!(report.records().len(), 40, "the warming replica held no work to lose");
        let tl = report.fleet_timeline();
        let slot1: Vec<ReplicaEventKind> =
            tl.events().iter().filter(|e| e.replica == 1).map(|e| e.kind).collect();
        assert_eq!(slot1, vec![ReplicaEventKind::Spawned, ReplicaEventKind::Crashed]);
        // Spawn fires at the first dispatch at/after t=1.0 (the arrival
        // at exactly 1.0), crash at 3.0: slot 1 bills exactly 2 s.
        let makespan = report.makespan();
        let rs = tl.replica_seconds(makespan);
        let expected = makespan.as_secs() + 2.0;
        assert!(
            (rs - expected).abs() < 1e-9,
            "warming crash must bill to the crash instant: {rs} vs {expected}"
        );
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_injection() {
        let trace = steady_trace(40, 0.25);
        let plain = ClusterSim::new(engines(2), RoutingKind::JsqByTtft.policy()).run(&trace);
        let faulted = ClusterSim::new(engines(2), RoutingKind::JsqByTtft.policy())
            .with_faults(FaultPlan::empty(), RetryPolicy::default())
            .run(&trace);
        assert_eq!(plain.dump(), faulted.dump());
        assert!(faulted.failed().is_empty());
        assert_eq!(faulted.fleet_timeline().crash_count(), 0);

        let reference = ClusterSim::reference(engines(2), RoutingKind::JsqByTtft.policy())
            .with_faults(FaultPlan::empty(), RetryPolicy::default())
            .run(&trace);
        assert_eq!(plain.dump(), reference.dump());
    }

    #[test]
    fn window_and_reference_loops_stay_lockstep_under_a_mixed_fault_plan() {
        let plan = || {
            FaultPlan::new(vec![
                crash_at(2.0, 0),
                FaultEvent {
                    at: SimTime::from_secs(4.0),
                    fault: Fault::Slowdown {
                        replica: 1,
                        factor: 2.5,
                        duration: Dur::from_secs(3.0),
                    },
                },
                FaultEvent { at: SimTime::from_secs(5.0), fault: Fault::RouteTimeout },
                crash_at(8.0, 1),
            ])
        };
        let retry = RetryPolicy { max_retries: 3, base_backoff: Dur::from_secs(0.5) };
        let trace = steady_trace(60, 0.25);
        let windowed = ClusterSim::new(engines(3), RoutingKind::JoinShortestOutstanding.policy())
            .with_faults(plan(), retry)
            .run(&trace);
        let reference =
            ClusterSim::reference(engines(3), RoutingKind::JoinShortestOutstanding.policy())
                .with_faults(plan(), retry)
                .run(&trace);

        assert_eq!(windowed.dump(), reference.dump());
        assert_eq!(windowed.fleet_timeline().crash_count(), 2);
        // Conservation: completed + failed covers the whole trace.
        assert_eq!(windowed.records().len() + windowed.failed().len(), 60);
    }

    #[test]
    fn crash_deficit_autoscaling_replaces_lost_capacity() {
        // LoadBandPolicy sees the crash deficit and respawns: after the
        // crash, a fresh replica must appear (Spawned after Crashed) and
        // every request must still complete.
        use crate::autoscale::{AutoscaleConfig, LoadBandPolicy};
        let config =
            AutoscaleConfig { cold_start: Dur::from_secs(1.0), min_replicas: 2, max_replicas: 4 };
        let policy = LoadBandPolicy::new(f64::MAX, 0.0).smoothing(1.0);
        let scaler = Autoscaler::new(config, Box::new(policy), |_| engines(1).pop().unwrap());
        let plan = FaultPlan::new(vec![crash_at(2.0, 0)]);
        let trace = steady_trace(80, 0.25);
        let mut sim = ClusterSim::new(engines(2), RoutingKind::JoinShortestOutstanding.policy())
            .with_autoscaler(scaler)
            .with_faults(plan, RetryPolicy::default());
        let report = sim.run(&trace);

        assert_eq!(report.records().len(), 80);
        assert!(report.failed().is_empty());
        let tl = report.fleet_timeline();
        assert_eq!(tl.crash_count(), 1);
        let crash_t = tl
            .events()
            .iter()
            .find(|e| e.kind == ReplicaEventKind::Crashed)
            .expect("crash recorded")
            .at;
        assert!(
            tl.events().iter().any(|e| e.kind == ReplicaEventKind::Spawned && e.at >= crash_t),
            "the deficit must trigger a replacement spawn"
        );
    }

    /// A toy node whose `load()` and `next_event_time()` change on every
    /// `&mut` call, so a slot cache that misses a refresh after any of
    /// them is stale — unlike an [`Engine`], whose next event and load
    /// do not move on `set_slowdown` or `take_report`. It serves its
    /// queue one request per event, first come first served.
    #[derive(Debug)]
    struct StubNode {
        queue: std::collections::VecDeque<Request>,
        clock: SimTime,
        factor: f64,
        /// `&mut` calls so far.
        touches: u64,
        /// `step_run` calls so far, declined ones included.
        step_runs: u64,
        report: EngineReport,
    }

    impl StubNode {
        fn new() -> StubNode {
            StubNode {
                queue: std::collections::VecDeque::new(),
                clock: SimTime::ZERO,
                factor: 1.0,
                touches: 0,
                step_runs: 0,
                report: EngineReport::new(Dur::from_secs(1.0)),
            }
        }

        /// Service time of `req`: stretched by the slowdown, and shifted
        /// later by every `&mut` call the node has seen.
        fn service(&self, req: &Request) -> Dur {
            Dur::from_secs(
                1e-4 * req.total_tokens() as f64 * self.factor + 1e-6 * self.touches as f64,
            )
        }
    }

    impl SimNode for StubNode {
        fn push_request(&mut self, req: Request) {
            self.touches += 1;
            self.queue.push_back(req);
        }

        fn step_once(&mut self) {
            self.touches += 1;
            let Some(t) = self.next_event_time() else { return };
            let req = self.queue.pop_front().expect("a pending event implies a request");
            self.clock = t;
            self.report.note_iteration(t, req.total_tokens(), Dur::ZERO);
            self.report.note_config_usage(ParallelConfig::single(), 1);
            self.report.note_completion(sp_metrics::RequestRecord {
                request_id: req.id,
                class: req.class,
                arrival: req.arrival,
                first_token: t,
                finish: t,
                input_tokens: req.input_tokens,
                output_tokens: req.output_tokens,
            });
        }

        fn next_event_time(&self) -> Option<SimTime> {
            let head = self.queue.front()?;
            Some(self.clock.max(head.arrival) + self.service(head))
        }

        fn outstanding_tokens(&self) -> u64 {
            self.queue.iter().map(Request::total_tokens).sum()
        }

        fn load(&self) -> NodeLoad {
            let queued_prefill = self.queue.iter().map(|r| u64::from(r.input_tokens)).sum();
            NodeLoad {
                outstanding_tokens: self.outstanding_tokens(),
                queued_prefill_tokens: queued_prefill,
                kv_free_tokens: 1_000_000 - self.touches,
                prefill_tokens_per_sec: 20_000.0 / self.factor,
            }
        }

        fn take_report(&mut self) -> EngineReport {
            self.touches += 1;
            std::mem::replace(&mut self.report, EngineReport::new(Dur::from_secs(1.0)))
        }

        fn take_unfinished(&mut self) -> SalvagedWork {
            self.touches += 1;
            SalvagedWork { requests: self.queue.drain(..).collect(), wasted_prefill_tokens: 0 }
        }

        fn set_slowdown(&mut self, factor: f64) {
            self.touches += 1;
            self.factor = factor;
        }

        /// Steps up to three events below `cap` — every other call
        /// declines, so both the run and the single-step paths run.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        fn step_run(&mut self, cap: Option<f64>) -> Option<RunAdvance> {
            self.step_runs += 1;
            if self.touches.is_multiple_of(2) {
                return None;
            }
            let mut run: Option<RunAdvance> = None;
            while let Some(t) = self.next_event_time() {
                if cap.is_some_and(|c| !(t.as_secs() < c)) || run.is_some_and(|r| r.events == 3) {
                    break;
                }
                self.step_once();
                run = Some(RunAdvance { events: run.map_or(1, |r| r.events + 1), last: t });
            }
            run
        }
    }

    #[test]
    fn slot_cache_tracks_every_mutable_node_access() {
        // Every `&mut` call moves the stub's load and next event, so in
        // debug builds a missed cache refresh trips the stale-cache
        // assertion on the next cached read; the windowed loop (which
        // scans the cache) must also match the reference loop (which
        // reads nodes directly). Crashes salvage (`take_unfinished`),
        // slowdowns start and end (`set_slowdown`), the scripted scaler
        // spawns, drains and retires (`take_report`), and a mid-run
        // report cut takes every live node's report.
        use crate::autoscale::AutoscaleConfig;
        let plan = || {
            FaultPlan::new(vec![
                crash_at(2.0, 0),
                FaultEvent {
                    at: SimTime::from_secs(3.0),
                    fault: Fault::Slowdown {
                        replica: 1,
                        factor: 3.0,
                        duration: Dur::from_secs(2.0),
                    },
                },
                FaultEvent { at: SimTime::from_secs(4.0), fault: Fault::RouteTimeout },
                crash_at(9.0, 3),
            ])
        };
        let retry = RetryPolicy { max_retries: 3, base_backoff: Dur::from_secs(0.5) };
        let config =
            AutoscaleConfig { cold_start: Dur::from_secs(0.5), min_replicas: 1, max_replicas: 4 };
        let scaler = || {
            let script = vec![
                (1.0, ScaleAction::Spawn),
                (6.0, ScaleAction::Drain { replica: 1 }),
                (8.0, ScaleAction::Spawn),
            ];
            Autoscaler::new(config, Box::new(ScriptedScale::new(script)), |_| StubNode::new())
        };
        let stubs = || (0..3).map(|_| StubNode::new()).collect::<Vec<_>>();
        let trace: Vec<Request> =
            (0..120).map(|i| req(i, i as f64 * 0.1, 200 + (i as u32 % 5) * 300, 8)).collect();
        let (head, tail) = trace.split_at(60);
        let tail = Trace::with_ids(tail.to_vec());

        let mut reference = ClusterSim::reference(stubs(), RoutingKind::JsqByTtft.policy())
            .with_autoscaler(scaler())
            .with_faults(plan(), retry);
        for &r in head {
            reference.push_request(r);
        }
        let expected = [reference.take_report(), reference.run(&tail)];
        for threads in [1, 2, 8] {
            let mut sim = ClusterSim::new(stubs(), RoutingKind::JsqByTtft.policy())
                .with_threads(threads)
                .with_autoscaler(scaler())
                .with_faults(plan(), retry);
            for &r in head {
                sim.push_request(r);
            }
            let got = [sim.take_report(), sim.run(&tail)];
            for (got, want) in got.iter().zip(&expected) {
                assert_eq!(got.dump(), want.dump(), "width {threads}");
            }
        }
        let crashes = expected.iter().map(|r| r.fleet_timeline().crash_count()).sum::<usize>();
        assert_eq!(crashes, 2);
        let tl = expected[1].fleet_timeline();
        assert!(tl.events().iter().any(|e| e.kind == ReplicaEventKind::Retired));
        let served = expected.iter().map(|r| r.records().len() + r.failed().len()).sum::<usize>();
        assert_eq!(served, 120, "every request completes or fails exactly once");
    }

    #[test]
    fn reference_mode_never_fast_forwards_at_any_width() {
        // The spec stays independent of the fast path: a reference-mode
        // cluster steps every event through `step_once` at any fan-out
        // width, while the window mode tries `step_run` on the same
        // trace. Both report the same.
        let trace: Vec<Request> =
            (0..40).map(|i| req(i, i as f64 * 0.05, 200 + (i as u32 % 4) * 300, 8)).collect();
        let trace = Trace::with_ids(trace);
        let run = |mut sim: ClusterSim<StubNode>| {
            let dump = sim.run(&trace).dump();
            (dump, sim.into_nodes().iter().map(|n| n.step_runs).sum::<u64>())
        };
        let stubs = || (0..3).map(|_| StubNode::new()).collect::<Vec<_>>();
        let policy = || RoutingKind::JoinShortestOutstanding.policy();
        let (windowed, window_runs) = run(ClusterSim::new(stubs(), policy()).with_threads(1));
        assert!(window_runs > 0, "the window mode fast-forwards through step_run");
        for threads in [1, 2, 8] {
            let (spec, spec_runs) =
                run(ClusterSim::reference(stubs(), policy()).with_threads(threads));
            assert_eq!(spec_runs, 0, "the reference mode called step_run at width {threads}");
            assert_eq!(spec, windowed, "width {threads}");
        }
    }

    #[test]
    fn cluster_outstanding_tokens_count_parked_retries() {
        // A crash parks its salvage behind a retry backoff. That work is
        // still outstanding: a driver waiting for zero must not stop.
        let big = req(0, 0.0, 100_000, 64);
        let plan = FaultPlan::new(vec![crash_at(0.5, 0)]);
        let mut sim = ClusterSim::new(engines(2), RoutingKind::JoinShortestOutstanding.policy())
            .with_faults(plan, RetryPolicy::default());
        sim.push_request(big);
        // Dispatching at 0.6 fires the crash at 0.5 first; request 0
        // then waits out its backoff until 1.5.
        sim.push_request(req(1, 0.6, 256, 16));
        assert!(sim.outstanding_tokens() > big.total_tokens(), "parked work is outstanding");
        let report = sim.run(&Trace::default());
        assert_eq!(report.records().len(), 2, "the parked request completes after its backoff");
    }
}

//! Forwarding wrappers that time the simulator's layers from outside.
//!
//! The cluster loop calls back into replicas, the router, the autoscaler
//! and the per-iteration parallelism policy through four public traits
//! ([`SimNode`], [`RoutingPolicy`], [`ScalePolicy`],
//! [`ParallelismPolicy`]). Each wrapper here forwards **every** trait
//! method, defaulted ones included, to the wrapped value: a wrapper that
//! fell back to a default `SimNode::step_run` (which never
//! fast-forwards) would silently turn macro-stepping off and measure a
//! different program.
//!
//! Each wrapper counts into its own counters and adds them to the
//! shared [`Probe`] when it is dropped, so replicas stepped on different
//! pool threads never write to one cache line.

use sp_engine::{
    EngineReport, FleetSignal, RoutingPolicy, RunAdvance, SalvagedWork, ScaleAction, ScalePolicy,
    SimNode,
};
use sp_metrics::{NodeLoad, SimTime};
use sp_parallel::{BatchStats, ParallelConfig, ParallelismPolicy};
use sp_workload::Request;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// One counter slot. `*Ns` slots hold nanoseconds; `LastStepEnd` holds
/// the latest end of a node step, in nanoseconds since the probe's epoch
/// (merged by maximum, every other slot by sum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C {
    PushCalls,
    PushNs,
    StepOnceCalls,
    StepOnceNs,
    StepRunCalls,
    StepRunHits,
    RunEvents,
    StepRunNs,
    NextEventCalls,
    LoadCalls,
    LoadNs,
    NodeReportCalls,
    NodeReportNs,
    PickCalls,
    PickNs,
    ChooseCalls,
    ChooseNs,
    Switches,
    DecideCalls,
    DecideNs,
    SpawnNs,
    LastStepEnd,
}

const SLOTS: usize = C::LastStepEnd as usize + 1;

/// A fixed set of counters. Atomic only because
/// [`ParallelismPolicy::choose`] takes `&self` and the policy must be
/// `Sync`; every counter is a statistic that publishes no other data, so
/// `Relaxed` suffices, and totals are read only after the pool threads
/// that stepped the replicas have been joined.
#[derive(Debug, Default)]
struct Counters([AtomicU64; SLOTS]);

impl Counters {
    /// Adds without a read-modify-write: a wrapper's own counters are
    /// only ever updated by the one thread that is stepping its replica
    /// (or the engine that owns its policy), so the cheaper load and
    /// store lose nothing and keep the timing overhead down.
    fn add(&self, c: C, v: u64) {
        let slot = &self.0[c as usize];
        slot.store(slot.load(Relaxed) + v, Relaxed);
    }

    fn get(&self, c: C) -> u64 {
        self.0[c as usize].load(Relaxed)
    }

    fn absorb(&self, other: &Counters) {
        for (i, v) in other.0.iter().enumerate() {
            let v = v.load(Relaxed);
            if i == C::LastStepEnd as usize {
                self.0[i].fetch_max(v, Relaxed);
            } else {
                self.0[i].fetch_add(v, Relaxed);
            }
        }
    }
}

/// The shared sink every wrapper of one simulation reports into.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    totals: Counters,
}

impl Probe {
    /// A fresh probe whose epoch is now.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe { epoch: Instant::now(), totals: Counters::default() })
    }

    /// A counter total (complete once every wrapper has been dropped).
    pub fn get(&self, c: C) -> u64 {
        self.totals.get(c)
    }

    /// A nanosecond total, in seconds.
    pub fn secs(&self, c: C) -> f64 {
        self.get(c) as f64 * 1e-9
    }

    /// The latest end of any node step, if a node stepped.
    pub fn last_step_end(&self) -> Option<Instant> {
        let ns = self.get(C::LastStepEnd);
        (ns > 0).then(|| self.epoch + std::time::Duration::from_nanos(ns))
    }

    /// Times `f` as one replica spawn (construction inside the
    /// autoscaler's spawner).
    pub fn time_spawn<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.totals.0[C::SpawnNs as usize].fetch_add(ns, Relaxed);
        out
    }
}

/// A wrapper's own counters, added to the probe on drop.
#[derive(Debug)]
struct Local {
    counters: Counters,
    probe: Arc<Probe>,
}

impl Local {
    fn new(probe: &Arc<Probe>) -> Local {
        Local { counters: Counters::default(), probe: Arc::clone(probe) }
    }

    fn count(&self, c: C) {
        self.counters.add(c, 1);
    }

    fn time<R>(&self, calls: C, ns: C, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.counters.add(ns, start.elapsed().as_nanos() as u64);
        self.counters.add(calls, 1);
        out
    }

    /// [`Local::time`] for node steps, also recording when the step ended
    /// so the drain phase can be told apart from the report merge.
    fn time_step<R>(&self, calls: C, ns: C, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.counters.add(ns, (end - start).as_nanos() as u64);
        self.counters.add(calls, 1);
        let since_epoch = (end - self.probe.epoch).as_nanos() as u64;
        let last = &self.counters.0[C::LastStepEnd as usize];
        last.store(last.load(Relaxed).max(since_epoch), Relaxed);
        out
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.probe.totals.absorb(&self.counters);
    }
}

/// A replica whose pushes, steps, load snapshots and report hand-offs are
/// counted and timed, and whose next-event queries are counted.
#[derive(Debug)]
pub struct TimedNode<N> {
    inner: N,
    local: Local,
}

impl<N> TimedNode<N> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: N, probe: &Arc<Probe>) -> TimedNode<N> {
        TimedNode { inner, local: Local::new(probe) }
    }

    /// The wrapped replica.
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<N: SimNode> SimNode for TimedNode<N> {
    fn push_request(&mut self, req: Request) {
        self.local.time(C::PushCalls, C::PushNs, || self.inner.push_request(req));
    }

    fn step_once(&mut self) {
        self.local.time_step(C::StepOnceCalls, C::StepOnceNs, || self.inner.step_once());
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.local.count(C::NextEventCalls);
        self.inner.next_event_time()
    }

    fn outstanding_tokens(&self) -> u64 {
        self.local.time(C::LoadCalls, C::LoadNs, || self.inner.outstanding_tokens())
    }

    fn load(&self) -> NodeLoad {
        self.local.time(C::LoadCalls, C::LoadNs, || self.inner.load())
    }

    fn take_report(&mut self) -> EngineReport {
        self.local.time(C::NodeReportCalls, C::NodeReportNs, || self.inner.take_report())
    }

    fn take_unfinished(&mut self) -> SalvagedWork {
        self.inner.take_unfinished()
    }

    fn set_slowdown(&mut self, factor: f64) {
        self.inner.set_slowdown(factor);
    }

    fn step_run(&mut self, cap: Option<f64>) -> Option<RunAdvance> {
        let run = self.local.time_step(C::StepRunCalls, C::StepRunNs, || self.inner.step_run(cap));
        if let Some(r) = run {
            self.local.count(C::StepRunHits);
            self.local.counters.add(C::RunEvents, r.events);
        }
        run
    }
}

/// A router whose picks are counted and timed.
#[derive(Debug)]
pub struct TimedRouter {
    inner: Box<dyn RoutingPolicy>,
    local: Local,
}

impl TimedRouter {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn RoutingPolicy>, probe: &Arc<Probe>) -> TimedRouter {
        TimedRouter { inner, local: Local::new(probe) }
    }
}

impl RoutingPolicy for TimedRouter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, req: &Request, loads: &[NodeLoad]) -> usize {
        self.local.time(C::PickCalls, C::PickNs, || self.inner.pick(req, loads))
    }
}

/// A scale policy whose decisions are counted and timed.
#[derive(Debug)]
pub struct TimedScale {
    inner: Box<dyn ScalePolicy>,
    local: Local,
}

impl TimedScale {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn ScalePolicy>, probe: &Arc<Probe>) -> TimedScale {
        TimedScale { inner, local: Local::new(probe) }
    }
}

impl ScalePolicy for TimedScale {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, signal: &FleetSignal<'_>, actions: &mut Vec<ScaleAction>) {
        self.local.time(C::DecideCalls, C::DecideNs, || self.inner.decide(signal, actions));
    }
}

/// A parallelism policy whose per-iteration choices are counted and
/// timed, and whose configuration switches (a choice that differs from
/// the previous one) are counted.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: Box<dyn ParallelismPolicy>,
    /// The previous choice as `sp << 32 | tp`; 0 before the first.
    last: AtomicU64,
    local: Local,
}

impl TimedPolicy {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn ParallelismPolicy>, probe: &Arc<Probe>) -> TimedPolicy {
        TimedPolicy { inner, last: AtomicU64::new(0), local: Local::new(probe) }
    }
}

impl ParallelismPolicy for TimedPolicy {
    fn choose(&self, stats: &BatchStats) -> ParallelConfig {
        let config = self.local.time(C::ChooseCalls, C::ChooseNs, || self.inner.choose(stats));
        let key = (config.sp() as u64) << 32 | config.tp() as u64;
        let last = self.last.swap(key, Relaxed);
        if last != 0 && last != key {
            self.local.count(C::Switches);
        }
        config
    }

    fn configurations(&self) -> Vec<ParallelConfig> {
        self.inner.configurations()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

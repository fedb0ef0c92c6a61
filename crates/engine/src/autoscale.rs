//! Load-signal autoscaling for the cluster co-simulation.
//!
//! The paper's premise is that real traffic is *dynamic* — bursty agentic
//! phases alternating with idle (Fig. 8) — and a fleet provisioned for
//! the burst peak wastes most of its replica-seconds in the valleys. This
//! module closes the ROADMAP's last open loop: a pluggable
//! [`ScalePolicy`] watches the same smoothed per-replica load signal the
//! router samples at every dispatch ([`sp_metrics::NodeLoad`] snapshots,
//! the outstanding-token series) and emits two decisions mid-trace:
//!
//! * **Scale-out** — provision a replica. It spends a configurable
//!   cold-start delay warming up (model load, compiling its `ExecPlan`
//!   set — spawned engines price their plans at construction, they are
//!   not cloned) before joining the routable set.
//! * **Drain-then-retire** — stop routing to a victim replica, let its
//!   in-flight sequences finish, then remove it. Nothing is killed or
//!   re-queued, so no request is ever dropped or served twice by a scale
//!   decision.
//!
//! Cost is accounted in *replica-seconds* ([`sp_metrics::FleetTimeline`]):
//! every replica pays from spawn (including warmup) to retirement. The
//! `autoscale` bench bin reports that cost against Interactive p99 TTFT
//! on the bursty trace.

use sp_metrics::{Dur, NodeLoad, SimTime};
use std::fmt;

/// Fleet-level autoscaling bounds, enforced by the simulation regardless
/// of what the [`ScalePolicy`] asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Delay between a scale-out decision and the new replica becoming
    /// routable (model load, plan compilation, warmup). The replica
    /// *pays* replica-seconds from the decision instant.
    pub cold_start: Dur,
    /// The routable fleet never shrinks below this many replicas
    /// (drain requests beyond it are ignored). Must be at least 1.
    pub min_replicas: usize,
    /// Total provisioned replicas (routable + warming + draining) never
    /// exceed this (spawn requests beyond it are ignored).
    pub max_replicas: usize,
}

impl Default for AutoscaleConfig {
    /// One always-on replica, headroom for eight, 10 s cold start.
    fn default() -> AutoscaleConfig {
        AutoscaleConfig { cold_start: Dur::from_secs(10.0), min_replicas: 1, max_replicas: 8 }
    }
}

impl AutoscaleConfig {
    /// Panics if the bounds are vacuous.
    pub(crate) fn validate(&self) {
        assert!(self.min_replicas >= 1, "autoscaling needs at least one routable replica");
        assert!(
            self.max_replicas >= self.min_replicas,
            "max_replicas {} below min_replicas {}",
            self.max_replicas,
            self.min_replicas
        );
    }
}

/// What the scale policy sees at a decision instant: the load snapshot
/// of every *routable* replica plus the fleet's in-flight lifecycle
/// state. Decisions are evaluated at dispatch instants, on the same
/// snapshot the router then picks from, so the policy watches exactly
/// the loads the routing decisions record.
#[derive(Debug)]
pub struct FleetSignal<'a> {
    /// The decision instant (the arriving request's timestamp).
    pub now: SimTime,
    /// Live loads of the routable replicas, in ascending slot order.
    /// Positions index into this snapshot (see
    /// [`ScaleAction::Drain`]), not global slot ids.
    pub loads: &'a [NodeLoad],
    /// Replicas provisioned but still inside their cold-start delay.
    pub warming: usize,
    /// Replicas draining toward retirement (no longer routable).
    pub draining: usize,
    /// Replicas lost to crashes and not yet replaced by a spawn. Crash
    /// loss is capacity the load signal has not felt yet (the EWMA lags),
    /// so policies should treat a nonzero deficit as an immediate
    /// scale-out signal.
    pub crash_deficit: usize,
}

/// One scale decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Provision one replica; it becomes routable after the configured
    /// cold-start delay. Ignored when the fleet is at `max_replicas`.
    Spawn,
    /// Drain-then-retire the routable replica at position `replica` of
    /// [`FleetSignal::loads`]: it stops receiving new work immediately,
    /// finishes its in-flight sequences, and is then removed. Ignored
    /// when the routable fleet is at `min_replicas`.
    Drain {
        /// Position in the [`FleetSignal::loads`] snapshot.
        replica: usize,
    },
}

/// Watches the fleet's load signal and decides when to grow or shrink.
///
/// Policies may keep state (smoothers, cooldown clocks), hence
/// `&mut self`. They must be deterministic: the same signal sequence
/// must yield the same actions, or runs stop being reproducible (and
/// the window/reference equivalence property stops holding). Policies
/// are `Send` so autoscaled [`crate::ClusterSim`]s can be stepped from
/// pool worker threads during horizon-parallel windows.
pub trait ScalePolicy: fmt::Debug + Send {
    /// The policy's display name.
    fn name(&self) -> &str;

    /// Appends scale actions for this instant (usually zero or one).
    fn decide(&mut self, signal: &FleetSignal<'_>, actions: &mut Vec<ScaleAction>);
}

/// A policy that never scales — the autoscaled simulation collapses to
/// the fixed fleet exactly (a byte-identity pinned by the property
/// suite), making it the safe default and the equivalence baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverScale;

impl ScalePolicy for NeverScale {
    fn name(&self) -> &str {
        "never-scale"
    }

    fn decide(&mut self, _signal: &FleetSignal<'_>, _actions: &mut Vec<ScaleAction>) {}
}

/// Hysteresis band over the smoothed mean outstanding-token load: scale
/// out when the smoothed per-replica load rises above the high
/// watermark, drain the least-loaded replica when it falls below the
/// low one, with an action cooldown so one burst doesn't trigger a
/// spawn storm.
///
/// The load signal is an exponentially weighted moving average of the
/// mean outstanding tokens per routable replica, updated at every
/// dispatch (the router's sampling cadence). Shrinking waits until no
/// replica is warming or draining, so the fleet never chases its own
/// transients.
#[derive(Debug, Clone)]
pub struct LoadBandPolicy {
    scale_out_above: f64,
    drain_below: f64,
    alpha: f64,
    cooldown: Dur,
    smoothed: Option<f64>,
    last_action: Option<SimTime>,
}

impl LoadBandPolicy {
    /// Creates the band policy with the given watermarks, in outstanding
    /// tokens per routable replica (smoothing 0.3, cooldown 10 s).
    ///
    /// # Panics
    ///
    /// Panics unless `scale_out_above > drain_below >= 0`.
    pub fn new(scale_out_above: f64, drain_below: f64) -> LoadBandPolicy {
        assert!(
            scale_out_above > drain_below && drain_below >= 0.0,
            "watermarks must satisfy scale_out_above > drain_below >= 0"
        );
        LoadBandPolicy {
            scale_out_above,
            drain_below,
            alpha: 0.3,
            cooldown: Dur::from_secs(10.0),
            smoothed: None,
            last_action: None,
        }
    }

    /// Sets the EWMA smoothing factor in `(0, 1]` (1 = no smoothing).
    pub fn smoothing(mut self, alpha: f64) -> LoadBandPolicy {
        assert!(alpha > 0.0 && alpha <= 1.0, "smoothing factor must be in (0, 1]");
        self.alpha = alpha;
        self
    }

    /// Sets the minimum time between scale actions.
    pub fn cooldown(mut self, cooldown: Dur) -> LoadBandPolicy {
        self.cooldown = cooldown;
        self
    }
}

impl ScalePolicy for LoadBandPolicy {
    fn name(&self) -> &str {
        "load-band"
    }

    fn decide(&mut self, signal: &FleetSignal<'_>, actions: &mut Vec<ScaleAction>) {
        if signal.crash_deficit > 0 {
            // Crash-induced capacity loss: replace the dead replicas
            // immediately instead of waiting for the smoothed load to
            // climb — the EWMA lags, and the salvaged requests are
            // already queued behind their backoff.
            actions.extend(std::iter::repeat_n(ScaleAction::Spawn, signal.crash_deficit));
            self.last_action = Some(signal.now);
            return;
        }
        if signal.loads.is_empty() {
            return;
        }
        let mean = signal.loads.iter().map(|l| l.outstanding_tokens).sum::<u64>() as f64
            / signal.loads.len() as f64;
        let smoothed = match self.smoothed {
            None => mean,
            Some(prev) => prev + self.alpha * (mean - prev),
        };
        self.smoothed = Some(smoothed);
        let cooled = self
            .last_action
            .is_none_or(|t| signal.now.since(t).as_secs() >= self.cooldown.as_secs());
        if !cooled {
            return;
        }
        if smoothed > self.scale_out_above {
            actions.push(ScaleAction::Spawn);
            self.last_action = Some(signal.now);
        } else if smoothed < self.drain_below && signal.warming == 0 && signal.draining == 0 {
            let victim = signal
                .loads
                .iter()
                .enumerate()
                .min_by_key(|&(_, l)| l.outstanding_tokens)
                .map(|(i, _)| i)
                .expect("loads is nonempty");
            actions.push(ScaleAction::Drain { replica: victim });
            self.last_action = Some(signal.now);
        }
    }
}

/// The autoscaler a cluster simulation carries: bounds, the decision
/// policy, and the spawner that builds replacement replicas.
///
/// The spawner is called with the spawn ordinal (0 for the first
/// scale-out) and must construct a *fresh* node — for engines that
/// means `Engine::new`, which compiles the replica's `ExecPlan` set and
/// prices its prefill rate on spin-up (the ROADMAP's "recompile plan
/// sets on replica spin-up instead of cloning engines"). A freshly
/// spawned engine therefore reports a real `prefill_tokens_per_sec`
/// from its first load snapshot, so deadline-aware routers see its true
/// capacity instead of a cold zero.
pub struct Autoscaler<N> {
    pub(crate) config: AutoscaleConfig,
    pub(crate) policy: Box<dyn ScalePolicy>,
    pub(crate) spawner: Box<dyn FnMut(usize) -> N + Send>,
    pub(crate) spawned: usize,
    /// Scratch for per-dispatch decisions, reused to keep the dispatch
    /// hot path allocation-free.
    pub(crate) actions: Vec<ScaleAction>,
}

impl<N> Autoscaler<N> {
    /// Creates an autoscaler.
    ///
    /// # Panics
    ///
    /// Panics if `config` is vacuous (`min_replicas == 0` or
    /// `max_replicas < min_replicas`).
    pub fn new(
        config: AutoscaleConfig,
        policy: Box<dyn ScalePolicy>,
        spawner: impl FnMut(usize) -> N + Send + 'static,
    ) -> Autoscaler<N> {
        config.validate();
        Autoscaler { config, policy, spawner: Box::new(spawner), spawned: 0, actions: Vec::new() }
    }
}

impl<N> fmt::Debug for Autoscaler<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Autoscaler")
            .field("config", &self.config)
            .field("policy", &self.policy)
            .field("spawned", &self.spawned)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(outstanding: u64) -> NodeLoad {
        NodeLoad { outstanding_tokens: outstanding, ..NodeLoad::default() }
    }

    fn signal(now: f64, loads: &[NodeLoad]) -> FleetSignal<'_> {
        FleetSignal {
            now: SimTime::from_secs(now),
            loads,
            warming: 0,
            draining: 0,
            crash_deficit: 0,
        }
    }

    #[test]
    fn band_policy_spawns_above_high_watermark() {
        let mut p = LoadBandPolicy::new(1_000.0, 100.0).smoothing(1.0);
        let mut actions = Vec::new();
        p.decide(&signal(0.0, &[load(5_000)]), &mut actions);
        assert_eq!(actions, vec![ScaleAction::Spawn]);
    }

    #[test]
    fn band_policy_drains_least_loaded_below_low_watermark() {
        let mut p = LoadBandPolicy::new(10_000.0, 1_000.0).smoothing(1.0);
        let mut actions = Vec::new();
        p.decide(&signal(0.0, &[load(900), load(20), load(600)]), &mut actions);
        assert_eq!(actions, vec![ScaleAction::Drain { replica: 1 }]);
    }

    #[test]
    fn band_policy_holds_inside_the_band() {
        let mut p = LoadBandPolicy::new(10_000.0, 1_000.0).smoothing(1.0);
        let mut actions = Vec::new();
        p.decide(&signal(0.0, &[load(5_000)]), &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn cooldown_paces_consecutive_actions() {
        let mut p =
            LoadBandPolicy::new(1_000.0, 100.0).smoothing(1.0).cooldown(Dur::from_secs(10.0));
        let mut actions = Vec::new();
        p.decide(&signal(0.0, &[load(5_000)]), &mut actions);
        p.decide(&signal(5.0, &[load(5_000)]), &mut actions);
        assert_eq!(actions.len(), 1, "second decision inside the cooldown must hold");
        p.decide(&signal(10.0, &[load(5_000)]), &mut actions);
        assert_eq!(actions.len(), 2, "cooldown expired");
    }

    #[test]
    fn smoothing_filters_a_single_spike() {
        let mut p =
            LoadBandPolicy::new(1_000.0, 0.1).smoothing(0.2).cooldown(Dur::from_secs(100.0));
        let mut actions = Vec::new();
        // Long quiet phase, then one spike: the EWMA must not clear the
        // high watermark off a single sample.
        for i in 0..20 {
            p.decide(&signal(i as f64, &[load(10)]), &mut actions);
        }
        p.decide(&signal(20.0, &[load(4_000)]), &mut actions);
        assert!(actions.is_empty(), "one spike must not trigger scale-out");
        // A sustained surge does.
        for i in 21..40 {
            p.decide(&signal(i as f64, &[load(4_000)]), &mut actions);
        }
        assert_eq!(actions, vec![ScaleAction::Spawn]);
    }

    #[test]
    fn drain_waits_for_inflight_lifecycle_to_settle() {
        let mut p = LoadBandPolicy::new(10_000.0, 1_000.0).smoothing(1.0);
        let mut actions = Vec::new();
        let loads = [load(10), load(10)];
        let sig = FleetSignal {
            now: SimTime::ZERO,
            loads: &loads,
            warming: 1,
            draining: 0,
            crash_deficit: 0,
        };
        p.decide(&sig, &mut actions);
        assert!(actions.is_empty(), "no shrink while a replica is warming");
    }

    #[test]
    fn crash_deficit_spawns_immediately_ignoring_band_and_cooldown() {
        let mut p =
            LoadBandPolicy::new(10_000.0, 1_000.0).smoothing(1.0).cooldown(Dur::from_secs(100.0));
        let mut actions = Vec::new();
        // Load is deep inside the drain band, yet two crashed replicas
        // must be replaced right away.
        let loads = [load(10)];
        let sig = FleetSignal {
            now: SimTime::from_secs(3.0),
            loads: &loads,
            warming: 0,
            draining: 0,
            crash_deficit: 2,
        };
        p.decide(&sig, &mut actions);
        assert_eq!(actions, vec![ScaleAction::Spawn, ScaleAction::Spawn]);
        // The replacement counts as an action: the cooldown now paces
        // ordinary band decisions.
        actions.clear();
        p.decide(&signal(4.0, &[load(50_000)]), &mut actions);
        assert!(actions.is_empty(), "inside cooldown after the deficit spawn");
    }

    #[test]
    #[should_panic(expected = "at least one routable replica")]
    fn zero_min_replicas_rejected() {
        let _ = Autoscaler::<u32>::new(
            AutoscaleConfig { min_replicas: 0, ..AutoscaleConfig::default() },
            Box::new(NeverScale),
            |_| 0,
        );
    }
}

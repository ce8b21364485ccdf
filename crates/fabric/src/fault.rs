//! Deterministic fault injection: seeded, virtual-time schedules of crashes,
//! restarts, partitions, delay spikes, and message-drop windows.
//!
//! A [`FaultPlan`] is data — an ordered list of `(virtual time, action)`
//! pairs — applied to a fabric with [`crate::Fabric::apply_fault_plan`].
//! Because the plan is pure data and the simulator is deterministic, a seed
//! pins the *entire* failure schedule: a failing chaos run is reproduced by
//! re-running the same `(workload seed, plan)` pair.
//!
//! Every fault kind shares the fabric's crash semantics (§7.7): affected
//! messages vanish *silently* (the response sender parks in the graveyard),
//! never as an eager error — clients learn about failures only through
//! timeouts, exactly like a real one-sided RDMA deployment.

use swarm_sim::{Nanos, SimRng};

use crate::node::NodeId;

/// The label of [`FaultPlan::random`]'s private stream.
const PLAN_RNG_LABEL: u64 = 0xFA17;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash a memory node: requests from now on vanish silently and the
    /// membership service may eventually declare it dead.
    Crash(NodeId),
    /// Restart a crashed node (memory contents retained, §7.7).
    Restart(NodeId),
    /// Cut the switch ports to a node: messages to/from it vanish silently,
    /// but the node stays *alive* — leases keep renewing, so unlike a crash
    /// the membership service never declares it dead.
    Partition(NodeId),
    /// Reconnect a partitioned node.
    Heal(NodeId),
    /// Add `extra_ns` of one-way latency on every message to/from `node`
    /// for the next `duration_ns` of virtual time (a congested or flapping
    /// link).
    DelaySpike {
        /// Affected node.
        node: NodeId,
        /// Extra one-way latency per message.
        extra_ns: Nanos,
        /// Window length from the moment the action fires.
        duration_ns: Nanos,
    },
    /// Drop each message to/from `node` with probability `permille`/1000
    /// for the next `duration_ns` of virtual time. Drops draw from the
    /// simulation RNG, so a seed fixes which messages die.
    DropWindow {
        /// Affected node.
        node: NodeId,
        /// Drop probability in 1/1000ths (1000 = drop everything).
        permille: u16,
        /// Window length from the moment the action fires.
        duration_ns: Nanos,
    },
}

impl FaultAction {
    /// The memory node this action targets.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultAction::Crash(n)
            | FaultAction::Restart(n)
            | FaultAction::Partition(n)
            | FaultAction::Heal(n) => n,
            FaultAction::DelaySpike { node, .. } | FaultAction::DropWindow { node, .. } => node,
        }
    }
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::Crash(n) => write!(f, "crash {n}"),
            FaultAction::Restart(n) => write!(f, "restart {n}"),
            FaultAction::Partition(n) => write!(f, "partition {n}"),
            FaultAction::Heal(n) => write!(f, "heal {n}"),
            FaultAction::DelaySpike {
                node,
                extra_ns,
                duration_ns,
            } => write!(f, "delay {node} +{extra_ns}ns for {duration_ns}ns"),
            FaultAction::DropWindow {
                node,
                permille,
                duration_ns,
            } => write!(f, "drop {node} {permille}/1000 for {duration_ns}ns"),
        }
    }
}

/// A seeded, virtual-time schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<(Nanos, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (healthy run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an action at virtual time `at`.
    pub fn at(mut self, at: Nanos, action: FaultAction) -> Self {
        self.events.push((at, action));
        self
    }

    /// Crash `node` at `at`.
    pub fn crash_at(self, at: Nanos, node: NodeId) -> Self {
        self.at(at, FaultAction::Crash(node))
    }

    /// Restart `node` at `at`.
    pub fn restart_at(self, at: Nanos, node: NodeId) -> Self {
        self.at(at, FaultAction::Restart(node))
    }

    /// Partition `node` from `at` until `until`.
    pub fn partition_between(self, at: Nanos, until: Nanos, node: NodeId) -> Self {
        assert!(until > at, "partition window must have positive length");
        self.at(at, FaultAction::Partition(node))
            .at(until, FaultAction::Heal(node))
    }

    /// Add `extra_ns` one-way latency to `node` during `[at, at + duration)`.
    pub fn delay_spike(self, at: Nanos, node: NodeId, extra_ns: Nanos, duration_ns: Nanos) -> Self {
        self.at(
            at,
            FaultAction::DelaySpike {
                node,
                extra_ns,
                duration_ns,
            },
        )
    }

    /// Drop messages to/from `node` with probability `permille`/1000 during
    /// `[at, at + duration)`.
    pub fn drop_window(self, at: Nanos, node: NodeId, permille: u16, duration_ns: Nanos) -> Self {
        assert!(permille <= 1000, "permille is out of 1000");
        self.at(
            at,
            FaultAction::DropWindow {
                node,
                permille,
                duration_ns,
            },
        )
    }

    /// The scheduled events, in insertion order (application order at equal
    /// times follows the simulator's deterministic tie-break).
    pub fn events(&self) -> &[(Nanos, FaultAction)] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a deterministic pseudo-random plan over `nodes` memory
    /// nodes within `[horizon/8, horizon)`: a mix of crash/restart pairs,
    /// partition windows, delay spikes, and drop windows. The same seed
    /// always yields the same plan. It draws from the private stream
    /// `SimRng::from_seed(seed, PLAN_RNG_LABEL)`, so generating a plan
    /// consumes nothing from (and thus perturbs nothing in) a simulation's
    /// stream.
    pub fn random(seed: u64, nodes: usize, horizon: Nanos) -> Self {
        assert!(nodes >= 1);
        assert!(horizon >= 8);
        let rng = SimRng::from_seed(seed, PLAN_RNG_LABEL);
        let n_events = 2 + rng.rand_range(0, 3) as usize;
        let mut plan = FaultPlan::new();
        for _ in 0..n_events {
            let node = NodeId(rng.rand_range(0, nodes as u64) as usize);
            let at = rng.rand_range(horizon / 8, horizon / 2);
            // Clamped so tiny horizons still yield valid (positive-length)
            // windows.
            let dur = rng.rand_range(horizon / 16, horizon / 4).max(1);
            plan = match rng.rand_range(0, 4) {
                0 => plan.crash_at(at, node).restart_at(at + dur, node),
                1 => plan.partition_between(at, at + dur, node),
                2 => plan.delay_spike(at, node, rng.rand_range(5_000, 25_000), dur),
                _ => plan.drop_window(at, node, rng.rand_range(100, 700) as u16, dur),
            };
        }
        plan
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.events.is_empty() {
            return write!(f, "(no faults)");
        }
        for (i, (at, a)) in self.events.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "t={at}ns: {a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events_in_order() {
        let p = FaultPlan::new()
            .crash_at(100, NodeId(1))
            .restart_at(300, NodeId(1))
            .partition_between(50, 80, NodeId(0));
        assert_eq!(p.len(), 4);
        assert_eq!(p.events()[0], (100, FaultAction::Crash(NodeId(1))));
        assert_eq!(p.events()[3], (80, FaultAction::Heal(NodeId(0))));
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(42, 4, 1_000_000);
        let b = FaultPlan::random(42, 4, 1_000_000);
        assert_eq!(a, b);
        let c = FaultPlan::random(43, 4, 1_000_000);
        assert_ne!(a, c, "different seeds should differ");
        assert!(!a.is_empty());
    }

    #[test]
    fn random_plan_handles_tiny_horizons() {
        // Durations are clamped to >= 1 ns, so even the minimum horizon
        // yields valid positive-length windows for every seed.
        for seed in 0..200 {
            let _ = FaultPlan::random(seed, 2, 8);
        }
    }

    #[test]
    fn random_plan_nodes_are_in_range() {
        for seed in 0..50 {
            for (_, a) in FaultPlan::random(seed, 3, 500_000).events() {
                assert!(a.node().0 < 3);
            }
        }
    }

    #[test]
    fn display_is_humane() {
        let p = FaultPlan::new().crash_at(10, NodeId(2));
        assert_eq!(format!("{p}"), "t=10ns: crash mn2");
        assert_eq!(format!("{}", FaultPlan::new()), "(no faults)");
    }
}

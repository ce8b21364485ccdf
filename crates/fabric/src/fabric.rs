//! The fabric: memory nodes, the shared switch, and global traffic stats.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use swarm_sim::{FifoResource, Nanos, OneshotSender, Sim, SimRng};

use crate::config::FabricConfig;
use crate::endpoint::{Endpoint, Messages};
use crate::fault::{FaultAction, FaultPlan};
use crate::node::{Node, NodeId};
use crate::op::OpResult;

/// Aggregate traffic counters (drives the paper's IO-bandwidth numbers,
/// Table 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Total messages that entered the fabric.
    pub messages: u64,
    /// Total request + response bytes.
    pub bytes: u64,
    /// Hedge requests issued (tail-latency mitigation): extra copies of a
    /// quorum request sent after the per-destination p99 delay elapsed.
    /// Always 0 with hedging disabled.
    pub hedges_fired: u64,
    /// Hedges whose response arrived in time to count toward completing the
    /// operation that fired them.
    pub hedges_won: u64,
    /// Hedges whose response was not needed (the original quorum completed
    /// first); their delivery is idempotently discarded.
    pub duplicates_discarded: u64,
}

impl std::ops::AddAssign for TrafficStats {
    // Field-exhaustive so aggregation (e.g. a sharded cluster summing its
    // per-shard fabrics) cannot silently drop a counter added later.
    fn add_assign(&mut self, rhs: TrafficStats) {
        let TrafficStats {
            messages,
            bytes,
            hedges_fired,
            hedges_won,
            duplicates_discarded,
        } = rhs;
        self.messages += messages;
        self.bytes += bytes;
        self.hedges_fired += hedges_fired;
        self.hedges_won += hedges_won;
        self.duplicates_discarded += duplicates_discarded;
    }
}

/// Per-node injected-fault state (see [`FaultPlan`]). Windows are stored as
/// absolute virtual-time horizons so queries are O(1) cell reads on the hot
/// path; a healthy fabric pays nothing but the branch.
struct FaultState {
    partitioned: Vec<bool>,
    delay_until: Vec<Nanos>,
    delay_extra: Vec<Nanos>,
    drop_until: Vec<Nanos>,
    drop_permille: Vec<u16>,
}

impl FaultState {
    fn new(n: usize) -> Self {
        FaultState {
            partitioned: vec![false; n],
            delay_until: vec![0; n],
            delay_extra: vec![0; n],
            drop_until: vec![0; n],
            drop_permille: vec![0; n],
        }
    }
}

pub(crate) struct FabricInner {
    pub(crate) sim: Sim,
    pub(crate) cfg: FabricConfig,
    pub(crate) nodes: Vec<Rc<Node>>,
    pub(crate) switch: FifoResource,
    /// Response senders owned by crashed nodes: kept alive so the client
    /// side observes *silence* (failure detection is timeout-driven, §7.7),
    /// not an eager error.
    pub(crate) graveyard: RefCell<Vec<OneshotSender<Vec<OpResult>>>>,
    /// Messages in flight, each stepped through its stages by the executor.
    pub(crate) messages: RefCell<Messages>,
    pub(crate) endpoints: Cell<usize>,
    pub(crate) stats: Cell<TrafficStats>,
    /// Stream for per-message draws (wire jitter, drop rolls): the shared
    /// simulation stream, or a private fork per `FabricConfig::rng_label`.
    pub(crate) rng: SimRng,
    faults: RefCell<FaultState>,
}

/// Handle to the simulated disaggregated-memory fabric.
#[derive(Clone)]
pub struct Fabric {
    pub(crate) inner: Rc<FabricInner>,
}

impl Fabric {
    /// Creates a fabric with `num_nodes` memory nodes.
    pub fn new(sim: &Sim, cfg: FabricConfig, num_nodes: usize) -> Self {
        assert!(num_nodes >= 1, "fabric needs at least one memory node");
        let rng = sim.fork_rng(cfg.rng_label);
        Fabric {
            inner: Rc::new(FabricInner {
                sim: sim.clone(),
                cfg,
                nodes: (0..num_nodes).map(|_| Node::new(sim)).collect(),
                switch: FifoResource::new(sim),
                graveyard: RefCell::new(Vec::new()),
                messages: RefCell::new(Messages::default()),
                endpoints: Cell::new(0),
                stats: Cell::new(TrafficStats::default()),
                rng,
                faults: RefCell::new(FaultState::new(num_nodes)),
            }),
        }
    }

    /// The simulation this fabric runs in.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The latency-model configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.inner.cfg
    }

    /// Number of memory nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Access to a memory node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> Rc<Node> {
        Rc::clone(&self.inner.nodes[id.0])
    }

    /// [`Fabric::node`] without the handle: for code that only looks at the
    /// node while it holds the fabric anyway (every message does).
    pub(crate) fn node_ref(&self, id: NodeId) -> &Node {
        &self.inner.nodes[id.0]
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.num_nodes()).map(NodeId).collect()
    }

    /// Crashes a node: requests arriving from now on are dropped silently.
    pub fn crash_node(&self, id: NodeId) {
        self.inner.nodes[id.0].crash();
    }

    /// Restarts a crashed node (memory contents retained, §7.7).
    pub fn restart_node(&self, id: NodeId) {
        self.inner.nodes[id.0].restart();
    }

    /// Cuts the switch ports to `id`: messages to/from it vanish silently
    /// until [`Fabric::heal_node`]. The node itself stays alive, so —
    /// unlike a crash — lease-based membership keeps considering it healthy.
    pub fn partition_node(&self, id: NodeId) {
        self.inner.faults.borrow_mut().partitioned[id.0] = true;
    }

    /// Reconnects a partitioned node.
    pub fn heal_node(&self, id: NodeId) {
        self.inner.faults.borrow_mut().partitioned[id.0] = false;
    }

    /// True while `id` is cut off by a partition.
    pub fn is_partitioned(&self, id: NodeId) -> bool {
        self.inner.faults.borrow().partitioned[id.0]
    }

    /// Adds `extra_ns` one-way latency on messages to/from `id` until
    /// virtual time `until` (overwrites any previous spike on the node).
    pub fn delay_node(&self, id: NodeId, extra_ns: Nanos, until: Nanos) {
        let mut f = self.inner.faults.borrow_mut();
        f.delay_extra[id.0] = extra_ns;
        f.delay_until[id.0] = until;
    }

    /// Drops each message to/from `id` with probability `permille`/1000
    /// until virtual time `until` (overwrites any previous window). Drops
    /// draw from the simulation RNG, so a seed fixes which messages die.
    pub fn drop_node(&self, id: NodeId, permille: u16, until: Nanos) {
        assert!(permille <= 1000, "permille is out of 1000");
        let mut f = self.inner.faults.borrow_mut();
        f.drop_permille[id.0] = permille;
        f.drop_until[id.0] = until;
    }

    /// Schedules every event of `plan` onto the simulation. Windowed
    /// actions (delay spikes, drop windows) expire on their own; explicit
    /// pairs (crash/restart, partition/heal) last until their counterpart.
    pub fn apply_fault_plan(&self, plan: &FaultPlan) {
        for &(at, action) in plan.events() {
            // Fail fast at apply time: a bad plan panicking inside a
            // scheduled closure mid-simulation would not name the culprit.
            assert!(
                action.node().0 < self.num_nodes(),
                "fault plan targets {} but the fabric has {} nodes (action: {action})",
                action.node(),
                self.num_nodes()
            );
            // A weak handle: the `Sim` owns this closure and the fabric owns
            // the `Sim`, so a strong one would keep the whole cluster alive
            // through any event scheduled past the end of the run.
            let fabric = Rc::downgrade(&self.inner);
            self.inner.sim.schedule_at(at, move |sim| {
                let Some(inner) = fabric.upgrade() else {
                    return;
                };
                let fabric = Fabric { inner };
                let now = sim.now();
                match action {
                    FaultAction::Crash(n) => fabric.crash_node(n),
                    FaultAction::Restart(n) => fabric.restart_node(n),
                    FaultAction::Partition(n) => fabric.partition_node(n),
                    FaultAction::Heal(n) => fabric.heal_node(n),
                    FaultAction::DelaySpike {
                        node,
                        extra_ns,
                        duration_ns,
                    } => fabric.delay_node(node, extra_ns, now + duration_ns),
                    FaultAction::DropWindow {
                        node,
                        permille,
                        duration_ns,
                    } => fabric.drop_node(node, permille, now + duration_ns),
                }
            });
        }
    }

    /// Extra one-way latency currently injected on `node`'s links (0 when
    /// no delay spike is active).
    pub(crate) fn fault_extra_ns(&self, node: NodeId) -> Nanos {
        let f = self.inner.faults.borrow();
        if self.inner.sim.now() < f.delay_until[node.0] {
            f.delay_extra[node.0]
        } else {
            0
        }
    }

    /// Per-message silence check: true if the message must vanish because
    /// the node is partitioned or an active drop window's coin flip says
    /// so. Draws from this fabric's RNG stream *only* inside an active drop
    /// window, so healthy runs keep their RNG stream bit-identical.
    pub(crate) fn fault_silences(&self, node: NodeId) -> bool {
        let permille = {
            let f = self.inner.faults.borrow();
            if f.partitioned[node.0] {
                return true;
            }
            if self.inner.sim.now() < f.drop_until[node.0] {
                f.drop_permille[node.0]
            } else {
                return false;
            }
        };
        self.inner.rng.rand_range(0, 1000) < permille as u64
    }

    /// Creates a client endpoint with its own dedicated CPU core.
    pub fn endpoint(&self) -> Endpoint {
        let cpu = FifoResource::new(&self.inner.sim);
        self.endpoint_with_cpu(cpu)
    }

    /// Creates a client endpoint sharing an existing CPU core (models two
    /// hyperthreads or co-located client threads).
    pub fn endpoint_with_cpu(&self, cpu: FifoResource) -> Endpoint {
        let id = self.inner.endpoints.get();
        self.inner.endpoints.set(id + 1);
        Endpoint::new(self.clone(), id, cpu)
    }

    /// Global traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.inner.stats.get()
    }

    pub(crate) fn account(&self, bytes: usize) {
        let mut s = self.inner.stats.get();
        s.messages += 1;
        s.bytes += bytes as u64;
        self.inner.stats.set(s);
    }

    /// Records one hedge request fired (tail-latency layer).
    pub fn note_hedge_fired(&self) {
        let mut s = self.inner.stats.get();
        s.hedges_fired += 1;
        self.inner.stats.set(s);
    }

    /// Records a hedge whose response counted toward its operation.
    pub fn note_hedge_won(&self) {
        let mut s = self.inner.stats.get();
        s.hedges_won += 1;
        self.inner.stats.set(s);
    }

    /// Records a hedge whose response was superfluous and discarded.
    pub fn note_duplicate_discarded(&self) {
        let mut s = self.inner.stats.get();
        s.duplicates_discarded += 1;
        self.inner.stats.set(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_exposes_nodes() {
        let sim = Sim::new(1);
        let f = Fabric::new(&sim, FabricConfig::default(), 4);
        assert_eq!(f.num_nodes(), 4);
        assert_eq!(f.node_ids().len(), 4);
        f.crash_node(NodeId(2));
        assert!(!f.node(NodeId(2)).is_alive());
        assert!(f.node(NodeId(1)).is_alive());
    }

    #[test]
    fn hedge_counters_accumulate_and_merge_exhaustively() {
        let sim = Sim::new(1);
        let f = Fabric::new(&sim, FabricConfig::default(), 1);
        f.note_hedge_fired();
        f.note_hedge_fired();
        f.note_hedge_won();
        f.note_duplicate_discarded();
        let s = f.stats();
        assert_eq!(
            (s.hedges_fired, s.hedges_won, s.duplicates_discarded),
            (2, 1, 1)
        );
        // Every hedge either wins or is discarded.
        assert_eq!(s.hedges_won + s.duplicates_discarded, s.hedges_fired);

        // AddAssign (the shard aggregation path) carries the new counters.
        let mut total = TrafficStats::default();
        total += s;
        total += s;
        assert_eq!(total.hedges_fired, 4);
        assert_eq!(total.hedges_won, 2);
        assert_eq!(total.duplicates_discarded, 2);
    }

    #[test]
    fn endpoints_get_distinct_ids() {
        let sim = Sim::new(1);
        let f = Fabric::new(&sim, FabricConfig::default(), 1);
        let a = f.endpoint();
        let b = f.endpoint();
        assert_ne!(a.id(), b.id());
    }
}

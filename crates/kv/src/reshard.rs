//! Elastic resharding: online shard split/merge with linearizable
//! ownership handoff.
//!
//! The paper's deployment model (and [`crate::ShardSpec`]) freezes the
//! keyspace layout at build time. This module is the live-reconfiguration
//! subsystem on top of it: a generation-stamped routing table
//! ([`ShardMap`]) plus an online migration protocol that moves a key range
//! from the replica group that owns it onto a freshly built one — while
//! concurrent clients keep getting linearizable answers.
//!
//! # The routing table
//!
//! An elastic family sits *inside* one static shard (one image of
//! `ShardSpec::shard_of`, fixed forever so static deployments never
//! reshuffle) and refines it: the family owns a 16-bit *split space*, keys
//! land in it via a second, independent hash ([`split_point`]), and a
//! [`ShardMap`] maps contiguous segments of that space to replica *groups*.
//! The epoch-0 map assigns the full range to group 0 — the classic layout.
//! Every ownership transfer bumps the map's `epoch`; a client holding a
//! stale map has its request bounced with [`KvError::WrongShard`]`{ epoch }`
//! and re-resolves.
//!
//! # The migration protocol (copy, double-write, seal)
//!
//! An [`ElasticShard`] family wraps one static shard's base group and runs
//! migrations as simulation tasks:
//!
//! 1. **Window open.** A fresh destination group is built mid-run from the
//!    family's `StoreBuilder` with an RNG label derived from `(base label,
//!    RESHARD role, group ordinal)` — the same private-stream convention as
//!    `build_one_shard`, so the new group's randomness is isolated by
//!    construction. The moving range `[lo, hi]` enters a *double-write
//!    window*: every mutation of a covered key applies to the source and,
//!    if the source applied (or timed out ambiguously), mirrors to the
//!    destination — both under that key's FIFO lock.
//! 2. **Paced copy.** The copy driver walks the live keys of the range in
//!    sorted order (one key per `pace_ns`, 2 µs unless the event says
//!    otherwise), and under each key's lock overwrites the
//!    destination with the source's current value (or deletes a key the
//!    source no longer has — merges fold onto a group holding stale
//!    pre-split state). Mutations serialize with the copy through the same
//!    locks, so source order ≡ destination order per key.
//! 3. **Drain + seal.** After the walk, the driver waits until no mutation
//!    is inside the window (an `inflight` count, incremented in the same
//!    synchronous region as the under-lock ownership re-check), then
//!    *synchronously* bumps the epoch and assigns the range to the
//!    destination. Any mirror failure poisons the window instead: the
//!    migration aborts, the source keeps ownership, and nothing the
//!    destination holds was ever readable.
//!
//! Reads never lock: a read resolves its group against the authoritative
//! map at invocation, and a straggler source read racing the seal overlaps
//! the ownership transfer in real time, so linearizing it before the seal
//! is always legal. Timed-out (ambiguous) mutations are mirrored too —
//! the checker's apply-or-discard semantics cover both the copy driver
//! preserving and overwriting their effect.
//!
//! The same machinery rebuilds a replica group after a permanent crash
//! ([`ElasticShard::rebuild`]): once the membership service declares a
//! node dead, the group's whole span migrates onto a spare built fresh.
//!
//! Everything here is deterministic: labeled RNG streams only, sorted key
//! walks, FIFO locks, constant pacing — a migration replays bit-identically
//! across `ShardMode::{SingleSim, Threads}` (the `reshard_chaos` suite
//! pins it).

use std::cell::{Cell, RefCell};
use std::collections::{hash_map::Entry, BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

use swarm_fabric::{Endpoint, FaultPlan, TrafficStats};
use swarm_sim::{join_boxed, oneshot, BoxFuture, FifoResource, Nanos, OneshotSender, Sim};

use crate::builder::{Protocol, StoreBuilder, StoreCluster};
use crate::client::StoreClient;
use crate::cluster::{derive_label, ROLE_RESHARD};
use crate::repair::RepairStats;
use crate::store::{KvError, KvResult, KvStore, ScanItems};

/// Pacing of a migration copy stream unless the event overrides it: one key
/// every 2 µs (500 K keys/s) — fast enough to finish a quick split inside a
/// bench run, slow enough that foreground traffic keeps the upper hand on the
/// shared fabric.
const DEFAULT_PACE_NS: Nanos = 2_000;

/// Seed of the split hash. Independent of the key→shard hash
/// (`ShardSpec::shard_of`) so a split cuts each shard's keys afresh.
const SPLIT_HASH_SEED: u64 = 0x0052_4553_4841;

/// Size of a family's split space (16-bit points).
const SPLIT_SPACE: u32 = 1 << 16;

/// Bounces a client retries before surfacing [`KvError::WrongShard`].
/// Each bounce refreshes the cached map, so more than one per op needs a
/// seal racing every refresh — in practice the error never escapes.
const MAX_BOUNCES: usize = 16;

/// Modeled cost of one bounced request (the wasted half-roundtrip before
/// the client re-resolves with a fresh map).
const BOUNCE_NS: Nanos = 500;

/// Poll period of the window-drain and window-wait loops.
const DRAIN_POLL_NS: Nanos = 200;

/// Poll period while a rebuild waits for the membership verdict.
const DEAD_POLL_NS: Nanos = 100_000;

/// Pause between copy-driver retries of a timed-out source read or
/// destination write.
const COPY_RETRY_NS: Nanos = 5_000;

/// Copy-driver attempts per key before the window is poisoned.
const COPY_RETRIES: usize = 8;

/// The point a key occupies in its family's 16-bit split space: a pure
/// function of the key, independent of the routing hash, stable across
/// runs and processes (golden-pinned alongside `ShardSpec::shard_of`).
pub fn split_point(key: u64) -> u16 {
    (swarm_core::xxh64(&key.to_le_bytes(), SPLIT_HASH_SEED) & 0xFFFF) as u16
}

/// One contiguous run of the split space mapped to a replica group
/// (inclusive bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First split point of the run.
    pub start: u16,
    /// Last split point of the run (inclusive).
    pub end: u16,
    /// Owning replica group.
    pub group: usize,
}

/// The generation-stamped routing table of one elastic family: which
/// replica group owns each segment of the split space, plus the epoch that
/// every handoff bumps. `ShardMap::base()` (epoch 0) maps the whole space to
/// group 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    epoch: u64,
    /// Sorted by `start`, covering the whole split space with no gaps or
    /// overlaps.
    segments: Vec<Segment>,
}

impl ShardMap {
    /// The epoch-0 map: the full range on group 0.
    pub fn base() -> Self {
        ShardMap {
            epoch: 0,
            segments: vec![Segment {
                start: 0,
                end: u16::MAX,
                group: 0,
            }],
        }
    }

    /// Current generation; bumped by every [`ShardMap::assign`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The replica group owning `key` under this map.
    pub fn owner_of(&self, key: u64) -> usize {
        self.owner_of_point(split_point(key))
    }

    /// The group owning split point `p`.
    pub fn owner_of_point(&self, p: u16) -> usize {
        self.segments
            .iter()
            .find(|seg| seg.start <= p && p <= seg.end)
            .expect("segments cover the split space")
            .group
    }

    /// The segments, sorted by start.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Reassigns `[lo, hi]` to `group` and bumps the epoch: the seal of an
    /// ownership handoff. Adjacent same-group segments coalesce, so a merge
    /// restores the pre-split map shape.
    pub fn assign(&mut self, lo: u16, hi: u16, group: usize) {
        assert!(lo <= hi, "segment bounds out of order");
        let old = std::mem::take(&mut self.segments);
        let mut segs: Vec<Segment> = Vec::with_capacity(old.len() + 2);
        for seg in old {
            // `lo > 0` / `hi < MAX` are implied by the guards, so the ±1
            // arithmetic cannot wrap.
            if seg.start < lo {
                segs.push(Segment {
                    start: seg.start,
                    end: seg.end.min(lo - 1),
                    group: seg.group,
                });
            }
            if seg.end > hi {
                segs.push(Segment {
                    start: seg.start.max(hi + 1),
                    end: seg.end,
                    group: seg.group,
                });
            }
        }
        segs.push(Segment {
            start: lo,
            end: hi,
            group,
        });
        segs.sort_unstable_by_key(|s| s.start);
        let mut merged: Vec<Segment> = Vec::with_capacity(segs.len());
        for seg in segs {
            match merged.last_mut() {
                Some(last)
                    if last.group == seg.group && last.end as u32 + 1 == seg.start as u32 =>
                {
                    last.end = seg.end;
                }
                _ => merged.push(seg),
            }
        }
        self.segments = merged;
        self.epoch += 1;
    }
}

/// A scheduled resharding action, carried by
/// [`ShardRunOptions::reshards`](crate::ShardRunOptions::reshards): at
/// `at_ns` on shard `shard`'s family, run `action`.
#[derive(Debug, Clone)]
pub struct ReshardEvent {
    /// The (static) shard whose family runs the action.
    pub shard: usize,
    /// Virtual time the action fires.
    pub at_ns: Nanos,
    /// What to do.
    pub action: ReshardAction,
    /// Per-key copy pacing override (`None` = one key every 2 µs).
    pub pace_ns: Option<Nanos>,
    /// A fault plan applied to the freshly built destination group's
    /// fabric the instant it exists — the mid-migration chaos hook.
    pub dest_faults: Option<FaultPlan>,
}

impl ReshardEvent {
    /// A split of `permille`/1000 of shard `shard`'s range at `at_ns`.
    pub fn split(shard: usize, at_ns: Nanos, permille: u32) -> Self {
        ReshardEvent {
            shard,
            at_ns,
            action: ReshardAction::Split { permille },
            pace_ns: None,
            dest_faults: None,
        }
    }

    /// A merge of `group` back into the base group at `at_ns`.
    pub fn merge(shard: usize, at_ns: Nanos, group: usize) -> Self {
        ReshardEvent {
            shard,
            at_ns,
            action: ReshardAction::Merge { group },
            pace_ns: None,
            dest_faults: None,
        }
    }

    /// A membership-driven rebuild of `group` (waiting on `dead_node`'s
    /// death verdict) at `at_ns`.
    pub fn rebuild(shard: usize, at_ns: Nanos, group: usize, dead_node: usize) -> Self {
        ReshardEvent {
            shard,
            at_ns,
            action: ReshardAction::Rebuild { group, dead_node },
            pace_ns: None,
            dest_faults: None,
        }
    }

    /// Overrides the copy pacing.
    pub fn pace_ns(mut self, ns: Nanos) -> Self {
        self.pace_ns = Some(ns);
        self
    }

    /// Faults the destination group from birth.
    pub fn dest_faults(mut self, plan: FaultPlan) -> Self {
        self.dest_faults = Some(plan);
        self
    }
}

/// The three reconfigurations the migration machinery implements.
#[derive(Debug, Clone)]
pub enum ReshardAction {
    /// Split the top `permille`/1000 of the family's split space onto a
    /// freshly built group.
    Split {
        /// Fraction of the space to move, in thousandths (1..=999).
        permille: u32,
    },
    /// Fold `group`'s span back onto the family's base group.
    Merge {
        /// The group to retire (must currently own exactly one segment).
        group: usize,
    },
    /// Once the membership service declares `dead_node` dead, move
    /// `group`'s whole span onto a spare group built fresh — replica
    /// replacement after a permanent crash.
    Rebuild {
        /// The group with the dead node.
        group: usize,
        /// Node index the verdict is awaited for.
        dead_node: usize,
    },
}

/// `Send` snapshot of a family's migration counters (a bit-parity witness
/// alongside histories and traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReshardStats {
    /// Final routing-table epoch.
    pub epoch: u64,
    /// Replica groups built over the family's lifetime (incl. base).
    pub groups: usize,
    /// Migrations sealed (ownership actually moved).
    pub sealed: u64,
    /// Migrations aborted by a poisoned window.
    pub aborted: u64,
    /// Requests bounced with a stale epoch.
    pub bounces: u64,
    /// Keys walked by copy drivers.
    pub keys_copied: u64,
    /// Mutations double-written during windows.
    pub mirrored: u64,
    /// Virtual time of the last seal.
    pub last_seal_ns: Option<Nanos>,
}

/// An active double-write window: `[lo, hi]` of the family's split space
/// is moving from `source` to `dest`.
struct Window {
    source: usize,
    dest: usize,
    lo: u16,
    hi: u16,
    /// A mirror failed: abort instead of sealing.
    poisoned: Cell<bool>,
    /// Mutations currently between the under-lock window check and the
    /// end of their mirror: the seal waits for zero.
    inflight: Cell<usize>,
}

/// Per-key FIFO locks serializing window mutations with the copy driver.
/// An entry in the table means "locked"; its queue holds the waiters in
/// arrival order.
#[derive(Default)]
struct KeyLocks {
    queues: RefCell<HashMap<u64, VecDeque<OneshotSender<()>>>>,
}

impl KeyLocks {
    async fn lock(self: &Rc<Self>, key: u64) -> KeyGuard {
        let waiter = {
            let mut queues = self.queues.borrow_mut();
            match queues.entry(key) {
                Entry::Occupied(mut held) => {
                    let (tx, rx) = oneshot::<()>();
                    held.get_mut().push_back(tx);
                    Some(rx)
                }
                Entry::Vacant(free) => {
                    free.insert(VecDeque::new());
                    None
                }
            }
        };
        if let Some(rx) = waiter {
            rx.await;
        }
        KeyGuard {
            locks: Rc::clone(self),
            key,
        }
    }
}

/// Releases its key on drop, handing the lock to the next waiter FIFO.
struct KeyGuard {
    locks: Rc<KeyLocks>,
    key: u64,
}

impl Drop for KeyGuard {
    fn drop(&mut self) {
        let mut queues = self.locks.queues.borrow_mut();
        let Entry::Occupied(mut held) = queues.entry(self.key) else {
            unreachable!("dropping a guard for an unlocked key");
        };
        match held.get_mut().pop_front() {
            Some(next) => next.send(()),
            None => {
                held.remove();
            }
        }
    }
}

/// One elastic shard family: a base replica group plus every group built
/// by splits/rebuilds, the authoritative [`ShardMap`] over them, and the
/// migration machinery. Clients are [`ElasticClient`]s minted with
/// [`ElasticShard::client`].
///
/// A family always spans exactly one static shard: its map is
/// `ShardMap::base()` refined by handoffs. The family's clusters must carry
/// labeled RNG streams (`build_one_shard` /
/// `build_labeled` set them), which is what keeps a family's execution
/// bit-identical however many other families run beside it.
pub struct ElasticShard {
    sim: Sim,
    builder: StoreBuilder,
    base_label: u64,
    map: RefCell<ShardMap>,
    groups: RefCell<Vec<StoreCluster>>,
    locks: Rc<KeyLocks>,
    /// `Rc` so repair defer predicates can watch the active window
    /// without holding the family alive (`new_group` takes `&self`).
    window: Rc<RefCell<Option<Window>>>,
    /// Reserved client id for migration drivers (top of `max_clients`).
    mig_id: usize,
    /// Deadline [`ElasticShard::arm_repair`] armed the family's repair
    /// agents until; fresh destination groups arm themselves against it.
    repair_until: Cell<Option<Nanos>>,
    bounces: Cell<u64>,
    keys_copied: Cell<u64>,
    mirrored: Cell<u64>,
    sealed: Cell<u64>,
    aborted: Cell<u64>,
    last_seal_ns: Cell<Option<Nanos>>,
}

impl ElasticShard {
    /// Wraps `base` — already built from `builder`'s configuration with
    /// RNG label `base_label` — as a family's group 0.
    ///
    /// # Panics
    ///
    /// Panics for FUSEE (no index enumeration or membership service to
    /// drive migrations) and when `builder` reserves fewer than 2 client
    /// ids (the top id belongs to the migration driver).
    pub fn new(sim: &Sim, builder: &StoreBuilder, base: StoreCluster, base_label: u64) -> Rc<Self> {
        assert!(
            builder.protocol() != Protocol::Fusee,
            "elastic resharding runs on the Cluster substrate (RAW / SWARM-KV / DM-ABD)"
        );
        let mig_id = builder.max_client_count().checked_sub(1).unwrap();
        assert!(
            mig_id >= 1,
            "elastic resharding reserves the top client id for the migration \
             driver: configure StoreBuilder::max_clients(workers + 1)"
        );
        Rc::new(ElasticShard {
            sim: sim.clone(),
            builder: builder.clone(),
            base_label,
            map: RefCell::new(ShardMap::base()),
            groups: RefCell::new(vec![base]),
            locks: Rc::new(KeyLocks::default()),
            window: Rc::new(RefCell::new(None)),
            mig_id,
            repair_until: Cell::new(None),
            bounces: Cell::new(0),
            keys_copied: Cell::new(0),
            mirrored: Cell::new(0),
            sealed: Cell::new(0),
            aborted: Cell::new(0),
            last_seal_ns: Cell::new(None),
        })
    }

    /// Builds the base group itself (label-forked via
    /// `StoreBuilder::build_labeled`) and wraps it.
    pub fn build(sim: &Sim, builder: &StoreBuilder, base_label: u64) -> Rc<Self> {
        let base = builder.build_labeled(sim, base_label);
        Self::new(sim, builder, base, base_label)
    }

    /// Snapshot of the authoritative routing table.
    pub fn map(&self) -> ShardMap {
        self.map.borrow().clone()
    }

    /// Current routing epoch.
    pub fn epoch(&self) -> u64 {
        self.map.borrow().epoch()
    }

    /// Number of replica groups built so far (including retired ones).
    pub fn num_groups(&self) -> usize {
        self.groups.borrow().len()
    }

    /// Group `g`'s cluster (inspection / fault injection).
    pub fn group(&self, g: usize) -> StoreCluster {
        self.groups.borrow()[g].clone()
    }

    /// Mints client `id` (one per application thread, `id < max_clients -
    /// 1`): per-group store clients are created lazily, all sharing one
    /// CPU core, exactly like a [`crate::ShardRouter`]'s thread model.
    pub fn client(self: &Rc<Self>, id: usize) -> Rc<ElasticClient> {
        assert!(
            id < self.mig_id,
            "client id {id} collides with the reserved migration driver id {}",
            self.mig_id
        );
        Rc::new(ElasticClient {
            shard: Rc::clone(self),
            id,
            cpu: FifoResource::new(&self.sim),
            cached: RefCell::new(self.map.borrow().clone()),
            clients: RefCell::new(Vec::new()),
        })
    }

    /// Bulk-loads `key = value` into its owning group (control plane).
    pub fn load_key(&self, key: u64, value: &[u8]) {
        let g = self.map.borrow().owner_of(key);
        self.groups.borrow()[g].load_key(key, value);
    }

    /// Aggregate fabric traffic, summed in group order.
    pub fn traffic(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for cluster in self.groups.borrow().iter() {
            total += cluster.fabric().stats();
        }
        total
    }

    /// Migration counters (a parity witness; `Send`).
    pub fn stats(&self) -> ReshardStats {
        ReshardStats {
            epoch: self.epoch(),
            groups: self.num_groups(),
            sealed: self.sealed.get(),
            aborted: self.aborted.get(),
            bounces: self.bounces.get(),
            keys_copied: self.keys_copied.get(),
            mirrored: self.mirrored.get(),
            last_seal_ns: self.last_seal_ns.get(),
        }
    }

    /// Arms anti-entropy repair on every group of the family until
    /// `deadline` (no-op unless the family's `StoreBuilder` configured
    /// [`crate::RepairConfig`]). Each group's agent defers keys inside an
    /// active double-write window to the migration machinery: the window
    /// already mirrors every covered mutation, and the seal (or abort)
    /// decides ownership — repair reconciling mid-handoff state would
    /// only duplicate that work against a moving target. Groups built
    /// after this call (split/rebuild destinations) arm themselves
    /// against the same deadline the moment they exist.
    pub fn arm_repair(&self, deadline: Nanos) {
        self.repair_until.set(Some(deadline));
        for cluster in self.groups.borrow().iter() {
            self.arm_group_repair(cluster, deadline);
        }
    }

    fn arm_group_repair(&self, cluster: &StoreCluster, deadline: Nanos) {
        let Some(agent) = cluster.repair() else {
            return;
        };
        let window = Rc::clone(&self.window);
        agent.set_defer(Some(Rc::new(move |key| {
            window.borrow().as_ref().is_some_and(|w| {
                let p = split_point(key);
                w.lo <= p && p <= w.hi
            })
        })));
        agent.arm_until(deadline);
    }

    /// Anti-entropy counters summed over every group's repair agent;
    /// `None` when the family was built without repair.
    pub fn repair_stats(&self) -> Option<RepairStats> {
        let groups = self.groups.borrow();
        let mut agents = groups.iter().filter_map(|c| c.repair()).peekable();
        agents.peek()?;
        let mut total = RepairStats::default();
        for agent in agents {
            total += agent.stats();
        }
        Some(total)
    }

    /// Spawns `ev` as a simulation task: sleep to `ev.at_ns`, then run the
    /// action (waiting out any migration already in flight).
    pub fn run_event(self: &Rc<Self>, ev: &ReshardEvent) {
        let this = Rc::clone(self);
        let ev = ev.clone();
        self.sim.clone().spawn(async move {
            this.sim.sleep_until(ev.at_ns).await;
            let pace = ev.pace_ns.unwrap_or(DEFAULT_PACE_NS);
            match ev.action {
                ReshardAction::Split { permille } => {
                    this.split(permille, pace, ev.dest_faults.as_ref()).await;
                }
                ReshardAction::Merge { group } => {
                    this.merge(group, pace).await;
                }
                ReshardAction::Rebuild { group, dead_node } => {
                    this.rebuild(group, dead_node, pace, ev.dest_faults.as_ref())
                        .await;
                }
            }
        });
    }

    /// Splits the top `permille`/1000 of the split space onto a fresh
    /// group. Returns whether the handoff sealed (an aborted window leaves
    /// ownership unchanged).
    pub async fn split(
        &self,
        permille: u32,
        pace_ns: Nanos,
        dest_faults: Option<&FaultPlan>,
    ) -> bool {
        assert!(
            (1..=999).contains(&permille),
            "split permille must be within 1..=999"
        );
        self.wait_no_window().await;
        let span = (SPLIT_SPACE * permille / 1000).max(1);
        let lo = (SPLIT_SPACE - span) as u16;
        let hi = u16::MAX;
        // Synchronous from ownership check to window activation: no other
        // migration can slip in between.
        let source = {
            let map = self.map.borrow();
            let owner = map.owner_of_point(lo);
            assert_eq!(
                owner,
                map.owner_of_point(hi),
                "split range must be wholly owned by one group"
            );
            owner
        };
        let dest = self.new_group(dest_faults);
        self.activate(source, dest, lo, hi);
        self.move_range(source, dest, lo, hi, pace_ns).await
    }

    /// Folds `group`'s span back onto the base group (group 0). The group
    /// must own exactly one segment (what a split produced).
    pub async fn merge(&self, group: usize, pace_ns: Nanos) -> bool {
        assert!(group != 0, "the base group cannot merge into itself");
        self.wait_no_window().await;
        let (lo, hi) = self.sole_span(group, "merge");
        self.activate(group, 0, lo, hi);
        self.move_range(group, 0, lo, hi, pace_ns).await
    }

    /// Replica replacement: waits for `group`'s membership service to
    /// declare `dead_node` dead, then moves the group's whole span onto a
    /// spare group built fresh. Returns `false`, counted as an abort, when
    /// the group's watcher runs out (or was never armed) without that
    /// verdict: nothing can declare the node dead any more.
    pub async fn rebuild(
        &self,
        group: usize,
        dead_node: usize,
        pace_ns: Nanos,
        dest_faults: Option<&FaultPlan>,
    ) -> bool {
        let membership = self.groups.borrow()[group]
            .membership()
            .expect("rebuild is membership-driven (Cluster substrate only)")
            .clone();
        while !membership.is_declared_dead(dead_node) {
            if self.sim.now() >= membership.watched_until() {
                self.aborted.set(self.aborted.get() + 1);
                return false;
            }
            self.sim.sleep_ns(DEAD_POLL_NS).await;
        }
        self.wait_no_window().await;
        let (lo, hi) = self.sole_span(group, "rebuild");
        let dest = self.new_group(dest_faults);
        self.activate(group, dest, lo, hi);
        self.move_range(group, dest, lo, hi, pace_ns).await
    }

    /// The span of the one segment `group` owns (what a split produced):
    /// the range a merge or rebuild (`op`, for the panic) moves whole.
    fn sole_span(&self, group: usize, op: &str) -> (u16, u16) {
        let map = self.map.borrow();
        let mut owned = map.segments().iter().filter(|seg| seg.group == group);
        match (owned.next(), owned.next()) {
            (Some(seg), None) => (seg.start, seg.end),
            _ => panic!("{op} expects group {group} to own exactly one segment"),
        }
    }

    /// Builds the next destination group with a label derived from the
    /// family base — private streams by construction (synchronous). Its
    /// membership watcher is armed to the base group's deadline, so a group
    /// built mid-run can be rebuilt in turn.
    fn new_group(&self, faults: Option<&FaultPlan>) -> usize {
        let ordinal = self.groups.borrow().len();
        let label = derive_label(self.base_label, ROLE_RESHARD, ordinal as u64);
        let cluster = self.builder.build_labeled(&self.sim, label);
        if let Some(plan) = faults {
            cluster.fabric().apply_fault_plan(plan);
        }
        if let (Some(base), Some(fresh)) =
            (self.groups.borrow()[0].membership(), cluster.membership())
        {
            if base.watched_until() > self.sim.now() {
                fresh.watch_until(base.watched_until());
            }
        }
        if let Some(deadline) = self.repair_until.get() {
            self.arm_group_repair(&cluster, deadline);
        }
        self.groups.borrow_mut().push(cluster);
        ordinal
    }

    fn activate(&self, source: usize, dest: usize, lo: u16, hi: u16) {
        let prev = self.window.replace(Some(Window {
            source,
            dest,
            lo,
            hi,
            poisoned: Cell::new(false),
            inflight: Cell::new(0),
        }));
        assert!(prev.is_none(), "one migration at a time per family");
    }

    async fn wait_no_window(&self) {
        while self.window.borrow().is_some() {
            self.sim.sleep_ns(DRAIN_POLL_NS).await;
        }
    }

    /// The copy driver: paced sorted walk, per-key lock, overwrite-or-
    /// delete on the destination, then drain and seal (or abort).
    async fn move_range(
        &self,
        source: usize,
        dest: usize,
        lo: u16,
        hi: u16,
        pace_ns: Nanos,
    ) -> bool {
        let keys = self.range_keys(source, dest, lo, hi);
        let (src, dst) = {
            let groups = self.groups.borrow();
            (
                groups[source].client(self.mig_id),
                groups[dest].client(self.mig_id),
            )
        };
        for key in keys {
            self.sim.sleep_ns(pace_ns).await;
            let guard = self.locks.lock(key).await;
            self.copy_one(&src, &dst, key).await;
            drop(guard);
            self.keys_copied.set(self.keys_copied.get() + 1);
            if self.window_poisoned() {
                break;
            }
        }
        // Drain the double-write window. The final zero check and the
        // seal below share one synchronous region, so a mutation either
        // held `inflight` here or re-checks ownership after the seal and
        // bounces to the destination.
        loop {
            let inflight = self
                .window
                .borrow()
                .as_ref()
                .expect("window active through its own migration")
                .inflight
                .get();
            if inflight == 0 {
                break;
            }
            self.sim.sleep_ns(DRAIN_POLL_NS).await;
        }
        let window = self
            .window
            .borrow_mut()
            .take()
            .expect("window active through its own migration");
        if window.poisoned.get() {
            self.aborted.set(self.aborted.get() + 1);
            false
        } else {
            self.map
                .borrow_mut()
                .assign(window.lo, window.hi, window.dest);
            self.sealed.set(self.sealed.get() + 1);
            self.last_seal_ns.set(Some(self.sim.now()));
            true
        }
    }

    /// Synchronizes one key from source to destination under its lock:
    /// destination ends holding exactly the source's current state.
    async fn copy_one(&self, src: &Rc<StoreClient>, dst: &Rc<StoreClient>, key: u64) {
        let mut value = None;
        let mut ok = false;
        for _ in 0..COPY_RETRIES {
            match src.get(key).await {
                Ok(v) => {
                    value = v;
                    ok = true;
                    break;
                }
                Err(KvError::Timeout) => self.sim.sleep_ns(COPY_RETRY_NS).await,
                Err(_) => break,
            }
        }
        if !ok {
            self.poison();
            return;
        }
        for _ in 0..COPY_RETRIES {
            let r = match &value {
                Some(v) => src_to_dest(dst.insert(key, (**v).clone()).await),
                None => match dst.delete(key).await {
                    // Absent on the destination too: nothing to undo.
                    Err(KvError::NotFound) | Err(KvError::Deleted) => CopyStep::Done,
                    r => src_to_dest(r),
                },
            };
            match r {
                CopyStep::Done => return,
                CopyStep::Retry => self.sim.sleep_ns(COPY_RETRY_NS).await,
                CopyStep::Fail => break,
            }
        }
        self.poison();
    }

    /// The sorted union of live keys on source and destination within
    /// `[lo, hi]` (control-plane snapshot): the copy walk. The destination
    /// side matters for merges, where the base group still holds stale
    /// pre-split state that must be overwritten or deleted.
    fn range_keys(&self, source: usize, dest: usize, lo: u16, hi: u16) -> Vec<u64> {
        let groups = self.groups.borrow();
        let index_keys = |g: usize| {
            groups[g]
                .swarm()
                .expect("elastic resharding runs on the Cluster substrate")
                .index()
                .keys_sorted()
        };
        let mut union: BTreeSet<u64> = index_keys(source).into_iter().collect();
        union.extend(index_keys(dest));
        union
            .into_iter()
            .filter(|&k| {
                let p = split_point(k);
                lo <= p && p <= hi
            })
            .collect()
    }

    fn window_poisoned(&self) -> bool {
        self.window
            .borrow()
            .as_ref()
            .is_some_and(|w| w.poisoned.get())
    }

    fn poison(&self) {
        if let Some(w) = self.window.borrow().as_ref() {
            w.poisoned.set(true);
        }
    }

    /// The group a request for `key` addressed to `group` should really go
    /// to: `Ok` when `group` owns it, the bounce error otherwise.
    fn dispatch_check(&self, key: u64, group: usize) -> KvResult<()> {
        let map = self.map.borrow();
        if map.owner_of(key) == group {
            Ok(())
        } else {
            self.bounces.set(self.bounces.get() + 1);
            Err(KvError::WrongShard { epoch: map.epoch() })
        }
    }

    /// `Some(dest)` when `key` on `group` is inside the active double-
    /// write window.
    fn mirror_dest(&self, key: u64, group: usize) -> Option<usize> {
        let window = self.window.borrow();
        let w = window.as_ref()?;
        let p = split_point(key);
        (w.source == group && w.lo <= p && p <= w.hi).then_some(w.dest)
    }

    fn window_enter(&self) {
        let window = self.window.borrow();
        let w = window.as_ref().expect("window checked in the same region");
        w.inflight.set(w.inflight.get() + 1);
    }

    fn window_exit(&self) {
        let window = self.window.borrow();
        let w = window.as_ref().expect("the drain waits for inflight zero");
        w.inflight.set(w.inflight.get() - 1);
    }
}

enum CopyStep {
    Done,
    Retry,
    Fail,
}

fn src_to_dest(r: KvResult<()>) -> CopyStep {
    match r {
        Ok(()) => CopyStep::Done,
        Err(KvError::Timeout) => CopyStep::Retry,
        Err(_) => CopyStep::Fail,
    }
}

/// One application thread of an elastic shard family: implements
/// [`KvStore`] by resolving each key's owning group against a cached
/// [`ShardMap`], refreshing on [`KvError::WrongShard`] bounces, and
/// double-writing mutations inside migration windows.
pub struct ElasticClient {
    shard: Rc<ElasticShard>,
    id: usize,
    /// One CPU core shared by every per-group client (one app thread).
    cpu: FifoResource,
    cached: RefCell<ShardMap>,
    /// Per-group store clients, minted on first use.
    clients: RefCell<Vec<Option<Rc<StoreClient>>>>,
}

/// The three mutations, payload owned (mirroring needs it twice).
enum MutOp {
    Update(Vec<u8>),
    Insert(Vec<u8>),
    Delete,
}

impl ElasticClient {
    /// The family this client routes into.
    pub fn family(&self) -> &Rc<ElasticShard> {
        &self.shard
    }

    fn client_for(&self, g: usize) -> Rc<StoreClient> {
        let mut clients = self.clients.borrow_mut();
        if clients.len() <= g {
            clients.resize(g + 1, None);
        }
        clients[g]
            .get_or_insert_with(|| {
                self.shard.groups.borrow()[g].client_with_cpu(self.id, self.cpu.clone())
            })
            .clone()
    }

    fn refresh(&self) {
        *self.cached.borrow_mut() = self.shard.map.borrow().clone();
    }

    /// Resolves `key`'s group: route by the cached map, let the
    /// authoritative side bounce stale epochs, pay the bounce and retry
    /// with a refreshed map.
    async fn resolve(&self, key: u64) -> KvResult<usize> {
        let mut last = KvError::WrongShard { epoch: 0 };
        for _ in 0..MAX_BOUNCES {
            let g = self.cached.borrow().owner_of(key);
            match self.shard.dispatch_check(key, g) {
                Ok(()) => return Ok(g),
                Err(e) => {
                    last = e;
                    self.shard.sim.sleep_ns(BOUNCE_NS).await;
                    self.refresh();
                }
            }
        }
        Err(last)
    }

    async fn mutate(&self, key: u64, op: MutOp) -> KvResult<()> {
        let mut bounces = 0;
        loop {
            let g = self.resolve(key).await?;
            let guard = self.shard.locks.lock(key).await;
            // Re-check under the lock — a seal may have landed while we
            // waited. From here to `window_enter` is synchronous, so the
            // seal's drain either saw our inflight increment or we see
            // its epoch bump.
            if let Err(e) = self.shard.dispatch_check(key, g) {
                drop(guard);
                bounces += 1;
                if bounces >= MAX_BOUNCES {
                    return Err(e);
                }
                self.refresh();
                continue;
            }
            let mut mirror = self.shard.mirror_dest(key, g);
            if mirror.is_some() {
                self.shard.window_enter();
            }
            let r = self.apply(g, key, &op).await;
            if mirror.is_none() {
                // A window may have opened while the op was in flight. Its
                // copy snapshot was taken before our effect landed, so an
                // insert racing the activation would reach neither the
                // walk nor the double-write: re-check and mirror late.
                mirror = self.shard.mirror_dest(key, g);
                if mirror.is_some() {
                    self.shard.window_enter();
                }
            }
            if let Some(dest) = mirror {
                // Mirror what applied — and what *may* have applied: a
                // timed-out mutation's messages can still land on the
                // source, so the destination must assume they did.
                if matches!(r, Ok(()) | Err(KvError::Timeout)) {
                    self.mirror(dest, key, &op).await;
                }
                self.shard.window_exit();
            }
            drop(guard);
            return r;
        }
    }

    async fn apply(&self, g: usize, key: u64, op: &MutOp) -> KvResult<()> {
        let client = self.client_for(g);
        match op {
            MutOp::Update(v) => client.update(key, v.clone()).await,
            MutOp::Insert(v) => client.insert(key, v.clone()).await,
            MutOp::Delete => client.delete(key).await,
        }
    }

    /// Applies `op`'s effect to the destination group. Upserts stand in
    /// for updates (the destination may not hold the key yet); an absent
    /// delete is success. Any other failure poisons the window, which
    /// aborts the seal — the destination never becomes authoritative
    /// while missing a completed write.
    async fn mirror(&self, dest: usize, key: u64, op: &MutOp) {
        let client = self.client_for(dest);
        let r = match op {
            MutOp::Update(v) | MutOp::Insert(v) => client.insert(key, v.clone()).await,
            MutOp::Delete => match client.delete(key).await {
                Err(KvError::NotFound) | Err(KvError::Deleted) => Ok(()),
                r => r,
            },
        };
        match r {
            Ok(()) => self.shard.mirrored.set(self.shard.mirrored.get() + 1),
            Err(_) => self.shard.poison(),
        }
    }
}

impl KvStore for ElasticClient {
    async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        // Reads never lock: the resolved group is authoritative at
        // invocation, and a read racing a seal overlaps it in real time,
        // so linearizing before the handoff is always legal (the source
        // is frozen once sealed — no writer touches it again).
        let g = self.resolve(key).await?;
        self.client_for(g).get(key).await
    }

    async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.mutate(key, MutOp::Update(value)).await
    }

    async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.mutate(key, MutOp::Insert(value)).await
    }

    async fn delete(&self, key: u64) -> KvResult<()> {
        self.mutate(key, MutOp::Delete).await
    }

    /// Group-fanout range read, the [`crate::ShardRouter`]'s shape: scan
    /// every group the cached map names as an owner, keep a pair only from
    /// its key's owner (a former owner still holds the frozen copies of the
    /// keys it handed off), merge ascending, truncate to `limit`. Those
    /// copies also fill a page without yielding pairs, so a group that
    /// returned a full page is known only up to the page's last key: the
    /// merge stops at the smallest such key and the next pass resumes
    /// behind it. A stale map pays one bounce and is refreshed first — it
    /// would read handed-off keys from their frozen copies.
    async fn scan(&self, start: u64, limit: usize) -> KvResult<ScanItems> {
        if self.cached.borrow().epoch() != self.shard.epoch() {
            self.shard.bounces.set(self.shard.bounces.get() + 1);
            self.shard.sim.sleep_ns(BOUNCE_NS).await;
            self.refresh();
        }
        let map = self.cached.borrow().clone();
        let owners: BTreeSet<usize> = map.segments().iter().map(|seg| seg.group).collect();
        let clients: Vec<_> = owners.iter().map(|&g| (g, self.client_for(g))).collect();
        let mut merged = ScanItems::new();
        let mut from = start;
        while merged.len() < limit {
            let want = limit - merged.len();
            let pages = join_boxed(
                clients
                    .iter()
                    .map(|(_, c)| {
                        Box::pin(c.scan(from, want)) as BoxFuture<'_, KvResult<ScanItems>>
                    })
                    .collect(),
            )
            .await;
            let mut horizon = u64::MAX;
            let mut pass = ScanItems::new();
            for (&(g, _), page) in clients.iter().zip(pages) {
                let page = page?;
                if page.len() == want {
                    horizon = horizon.min(page[want - 1].0);
                }
                pass.extend(page.into_iter().filter(|&(k, _)| map.owner_of(k) == g));
            }
            pass.retain(|&(k, _)| k <= horizon);
            pass.sort_unstable_by_key(|&(k, _)| k);
            merged.extend(pass);
            if horizon == u64::MAX {
                break;
            }
            from = horizon + 1;
        }
        merged.truncate(limit);
        Ok(merged)
    }

    fn rounds(&self) -> u64 {
        self.clients
            .borrow()
            .iter()
            .flatten()
            .map(|c| c.rounds())
            .sum()
    }

    fn endpoint(&self) -> Rc<Endpoint> {
        // The base-group endpoint stands in for this application thread;
        // every per-group client shares its CPU core (cf. ShardRouter).
        self.client_for(0).endpoint()
    }

    fn client_id(&self) -> usize {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::HistoryRecorder;
    use swarm_sim::NANOS_PER_MILLI;

    fn tagged(tag: u64) -> Vec<u8> {
        let mut v = vec![0u8; 64];
        v[..8].copy_from_slice(&tag.to_le_bytes());
        v
    }

    fn builder() -> StoreBuilder {
        StoreBuilder::new(Protocol::SafeGuess)
            .value_size(64)
            .max_clients(3)
            .op_deadline_ns(2 * NANOS_PER_MILLI)
    }

    #[test]
    fn base_map_matches_shard_spec_everywhere() {
        // A family refines one static shard: before any handoff its map
        // owns every key exactly as the one-shard spec does.
        let spec = crate::ShardSpec::new(1);
        let map = ShardMap::base();
        assert_eq!(map.epoch(), 0);
        for key in (0..4096).chain([u64::MAX, 1 << 40]) {
            assert_eq!(map.owner_of(key), spec.shard_of(key), "key {key}");
        }
    }

    #[test]
    fn assign_trims_merges_and_bumps_the_epoch() {
        let mut map = ShardMap::base();
        map.assign(0x8000, 0xFFFF, 1);
        assert_eq!(map.epoch(), 1);
        assert_eq!(
            map.segments(),
            &[
                Segment {
                    start: 0,
                    end: 0x7FFF,
                    group: 0
                },
                Segment {
                    start: 0x8000,
                    end: 0xFFFF,
                    group: 1
                },
            ]
        );
        assert_eq!(map.owner_of_point(0x7FFF), 0);
        assert_eq!(map.owner_of_point(0x8000), 1);
        // Splitting the split: carve the middle out of group 1's span.
        map.assign(0xA000, 0xBFFF, 2);
        assert_eq!(map.epoch(), 2);
        assert_eq!(map.segments().len(), 4);
        assert_eq!(map.owner_of_point(0xA500), 2);
        assert_eq!(map.owner_of_point(0xC000), 1);
        // Merging back coalesces to the original single segment.
        map.assign(0xA000, 0xBFFF, 1);
        map.assign(0x8000, 0xFFFF, 0);
        assert_eq!(
            map.segments(),
            &[Segment {
                start: 0,
                end: 0xFFFF,
                group: 0
            }]
        );
        assert_eq!(map.epoch(), 4);
    }

    #[test]
    fn split_points_are_pinned() {
        // The split hash is part of the persistent layout contract, like
        // ShardSpec::shard_of: these goldens pin it.
        let golden: Vec<u16> = (0..8).map(split_point).collect();
        assert_eq!(
            golden,
            vec![29433, 33090, 38295, 38672, 2063, 17788, 28566, 28637]
        );
        assert_eq!(split_point(u64::MAX), 21492);
    }

    #[test]
    fn stale_map_bounces_then_resolves() {
        let sim = Sim::new(21);
        let family = ElasticShard::build(&sim, &builder(), 0xE1A5_0001);
        for k in 0..64u64 {
            family.load_key(k, &tagged(100 + k));
        }
        let client = family.client(0);
        // Pick a key the split will move, then seal a split directly so
        // the client's cached epoch-0 map goes stale.
        let moved = (0..64u64)
            .find(|&k| split_point(k) >= 0x8000)
            .expect("some preloaded key lands in the top half");
        let f2 = Rc::clone(&family);
        let sealed = sim.block_on(async move { f2.split(500, 100, None).await });
        assert!(sealed, "unfaulted split must seal");
        assert_eq!(family.epoch(), 1);
        let f3 = Rc::clone(&family);
        let got = sim.block_on(async move { client.get(moved).await });
        assert_eq!(value_of(&got), 100 + moved);
        assert!(
            f3.stats().bounces >= 1,
            "the stale epoch-0 map must bounce at least once"
        );
    }

    fn value_of(r: &KvResult<Option<Rc<Vec<u8>>>>) -> u64 {
        crate::recorder::value_tag(r.as_ref().unwrap().as_ref().unwrap())
    }

    #[test]
    fn wrong_shard_error_carries_the_epoch() {
        let sim = Sim::new(22);
        let family = ElasticShard::build(&sim, &builder(), 0xE1A5_0002);
        family.load_key(7, &tagged(7));
        let f2 = Rc::clone(&family);
        sim.block_on(async move {
            f2.split(250, 50, None).await;
        });
        let moved = (0..u64::MAX).find(|&k| split_point(k) >= 0xC000).unwrap();
        // Address the wrong group directly: the dispatch check bounces
        // with the current epoch.
        let wrong = family.map().owner_of(moved) ^ 1;
        assert_eq!(
            family.dispatch_check(moved, wrong),
            Err(KvError::WrongShard { epoch: 1 })
        );
    }

    #[test]
    fn concurrent_writes_during_split_linearize_and_land_on_the_destination() {
        let sim = Sim::new(23);
        let b = builder();
        let family = ElasticShard::build(&sim, &b, 0xE1A5_0003);
        let n_keys = 96u64;
        let rec = HistoryRecorder::new(&sim);
        for k in 0..n_keys {
            family.load_key(k, &tagged(1_000 + k));
            rec.set_initial(k, &tagged(1_000 + k));
        }
        let client = rec.wrap(family.client(0));
        let writer = rec.wrap(family.client(1));

        // A writer hammers every key while the split runs underneath.
        let s2 = sim.clone();
        sim.spawn(async move {
            for round in 0u64..4 {
                for k in 0..n_keys {
                    let _ = writer.update(k, tagged(2_000 + round * n_keys + k)).await;
                    s2.sleep_ns(500).await;
                }
            }
        });
        let f2 = Rc::clone(&family);
        let sealed = Rc::new(Cell::new(false));
        let sealed2 = Rc::clone(&sealed);
        sim.spawn(async move {
            sealed2.set(f2.split(500, 1_000, None).await);
        });
        sim.run();
        assert!(sealed.get(), "unfaulted split must seal");
        let stats = family.stats();
        assert!(stats.mirrored > 0, "the window must double-write");
        assert!(stats.keys_copied > 0);

        // Post-seal reads come from the destination and must observe the
        // final writes; the whole history must linearize per key.
        let final_reads = sim.block_on({
            let client = Rc::clone(&client);
            async move {
                let mut tags = Vec::new();
                for k in 0..n_keys {
                    tags.push(value_of(&client.get(k).await));
                }
                tags
            }
        });
        for (k, tag) in final_reads.iter().enumerate() {
            assert_eq!(*tag, 2_000 + 3 * n_keys + k as u64, "key {k}");
        }
        rec.history().check().expect("split run must linearize");
    }

    #[test]
    fn merge_restores_base_ownership_and_deletes_stale_state() {
        let sim = Sim::new(24);
        let family = ElasticShard::build(&sim, &builder(), 0xE1A5_0004);
        for k in 0..64u64 {
            family.load_key(k, &tagged(500 + k));
        }
        let f2 = Rc::clone(&family);
        let client = family.client(0);
        sim.block_on(async move {
            assert!(f2.split(500, 100, None).await);
            // Mutate moved keys on the new owner, delete one: the base
            // group still holds its stale pre-split copies.
            let moved: Vec<u64> = (0..64).filter(|&k| split_point(k) >= 0x8000).collect();
            assert!(!moved.is_empty());
            for &k in &moved {
                client.update(k, tagged(9_000 + k)).await.unwrap();
            }
            client.delete(moved[0]).await.unwrap();
            assert!(f2.merge(1, 100).await);
            // Back on the base group: fresh values, and the deleted key
            // stays deleted (no resurrection from stale state).
            assert_eq!(f2.map().segments().len(), 1);
            assert_eq!(client.get(moved[0]).await.unwrap(), None);
            for &k in &moved[1..] {
                assert_eq!(value_of(&client.get(k).await), 9_000 + k);
            }
        });
        assert_eq!(family.epoch(), 2);
    }

    #[test]
    fn scan_after_a_split_returns_every_key_once_in_order() {
        let sim = Sim::new(30);
        let family = ElasticShard::build(&sim, &builder(), 0xE1A5_0009);
        let n = 64u64;
        for k in 0..n {
            family.load_key(k, &tagged(400 + k));
        }
        // Minted before the split: their epoch-0 maps go stale at the seal,
        // and only `client`'s is refreshed (by its deletes) before it scans.
        let (client, stale) = (family.client(0), family.client(1));
        let f2 = Rc::clone(&family);
        sim.block_on(async move {
            assert!(f2.split(500, 100, None).await);
            // Delete handed-off keys on their new owner: the base group's
            // frozen copies of them must neither resurface nor crowd its
            // own keys out of a short page.
            let moved: Vec<u64> = (0..n).filter(|&k| split_point(k) >= 0x8000).collect();
            for &k in &moved[..4] {
                client.delete(k).await.unwrap();
            }
            let live: Vec<u64> = (0..n).filter(|k| !moved[..4].contains(k)).collect();
            for (c, limit) in [(&client, n as usize), (&client, 8), (&stale, 8)] {
                let got = c.scan(0, limit).await.unwrap();
                let keys: Vec<u64> = got.iter().map(|&(k, _)| k).collect();
                assert_eq!(keys, live[..limit.min(live.len())], "limit {limit}");
                for (k, v) in got {
                    assert_eq!(crate::recorder::value_tag(&v), 400 + k);
                }
            }
        });
    }

    #[test]
    fn crashed_destination_poisons_the_window_and_aborts() {
        let sim = Sim::new(25);
        let family = ElasticShard::build(&sim, &builder(), 0xE1A5_0005);
        for k in 0..64u64 {
            family.load_key(k, &tagged(300 + k));
        }
        // Kill every destination node from birth: the copy driver cannot
        // land a single key, poisons the window, and the abort leaves the
        // base group owning everything.
        let faults = (0..4).fold(FaultPlan::new(), |p, n| {
            p.crash_at(1, swarm_fabric::NodeId(n))
        });
        let f2 = Rc::clone(&family);
        let sealed = sim.block_on(async move { f2.split(500, 100, Some(&faults)).await });
        assert!(!sealed, "a dead destination must abort the handoff");
        let stats = family.stats();
        assert_eq!(stats.aborted, 1);
        assert_eq!(stats.sealed, 0);
        assert_eq!(family.epoch(), 0, "an aborted window never bumps the epoch");
        // The family still serves everything from the base group.
        let client = family.client(0);
        let tag = sim.block_on(async move { value_of(&client.get(5).await) });
        assert_eq!(tag, 305);
    }

    #[test]
    fn rebuild_replaces_a_group_after_membership_declares_death() {
        let sim = Sim::new(26);
        let b = builder();
        let family = ElasticShard::build(&sim, &b, 0xE1A5_0006);
        for k in 0..64u64 {
            family.load_key(k, &tagged(700 + k));
        }
        let base = family.group(0);
        base.membership()
            .expect("SWARM-KV has a membership service")
            .watch_until(20 * NANOS_PER_MILLI);
        // Crash a base-group node permanently at 1 ms; the rebuild event
        // waits for the verdict, then migrates the whole span to a spare.
        base.fabric()
            .apply_fault_plan(&FaultPlan::new().crash_at(NANOS_PER_MILLI, swarm_fabric::NodeId(1)));
        family.run_event(&ReshardEvent::rebuild(0, NANOS_PER_MILLI, 0, 1).pace_ns(1_000));
        sim.run();
        let stats = family.stats();
        assert_eq!(stats.sealed, 1, "the rebuild must seal");
        assert_eq!(family.epoch(), 1);
        assert_eq!(family.num_groups(), 2);
        // Everything now serves from the spare group.
        assert_eq!(
            family.map().segments(),
            &[Segment {
                start: 0,
                end: 0xFFFF,
                group: 1
            }]
        );
        let client = family.client(0);
        let tag = sim.block_on(async move { value_of(&client.get(9).await) });
        assert_eq!(tag, 709);
    }

    /// A group built mid-run is watched like the base group, so it can be
    /// rebuilt in turn, and a rebuild whose verdict can no longer arrive
    /// aborts. Bounded by `run_until`: a rebuild that polls forever fails
    /// the counters below instead of hanging the suite.
    #[test]
    fn a_built_group_can_be_rebuilt_and_a_late_rebuild_aborts() {
        let ms = NANOS_PER_MILLI;
        let sim = Sim::new(27);
        let family = ElasticShard::build(&sim, &builder(), 0xE1A5_0007);
        for k in 0..64u64 {
            family.load_key(k, &tagged(800 + k));
        }
        let watch = family.group(0).membership().expect("SWARM-KV").clone();
        watch.watch_until(10 * ms);
        // The split builds group 1, whose node 2 dies at 2 ms; the rebuild
        // of group 1 waits for *its* watcher's verdict.
        let dies = FaultPlan::new().crash_at(2 * ms, swarm_fabric::NodeId(2));
        family.run_event(
            &ReshardEvent::split(0, 0, 500)
                .pace_ns(1_000)
                .dest_faults(dies),
        );
        family.run_event(&ReshardEvent::rebuild(0, 2 * ms, 1, 2).pace_ns(1_000));
        // Past the watch deadline nothing can declare base node 1 dead.
        family.run_event(&ReshardEvent::rebuild(0, 11 * ms, 0, 1));
        sim.run_until(50 * ms);
        let stats = family.stats();
        assert_eq!(stats.sealed, 2, "the split and the rebuild of group 1 seal");
        assert_eq!(stats.aborted, 1, "the late rebuild aborts");
        assert_eq!(family.num_groups(), 3);
        assert_eq!(
            family.map().owner_of_point(u16::MAX),
            2,
            "group 2 replaced group 1"
        );
        assert_eq!(
            family.group(2).membership().unwrap().watched_until(),
            10 * ms
        );
    }

    #[test]
    fn family_repair_heals_divergence_and_arms_fresh_groups() {
        use crate::repair::{divergent_stamp_pairs, RepairConfig};
        let sim = Sim::new(28);
        let b = builder().repair(RepairConfig::default());
        let family = ElasticShard::build(&sim, &b, 0xE1A5_0007);
        for k in 0..64u64 {
            family.load_key(k, &tagged(800 + k));
        }
        // Wipe one replica behind the store's back — only anti-entropy
        // heals silent divergence (no client ever touches the key again).
        let base = family.group(0);
        let c = base
            .swarm()
            .expect("SWARM-KV runs on the Cluster substrate")
            .clone();
        let info = c.index().peek(3).expect("loaded");
        let l = &info.layouts[1];
        for j in 0..l.meta_bufs as u64 {
            c.fabric()
                .node(l.node)
                .mem()
                .write_u64(l.meta_addr + 8 * j, 0);
        }
        assert_eq!(divergent_stamp_pairs(&c), 1);
        family.arm_repair(2 * NANOS_PER_MILLI);
        // A split mid-run: the fresh destination group must arm its own
        // agent against the same deadline, and window keys defer to the
        // migration until the seal.
        family.run_event(&ReshardEvent::split(0, 500_000, 500).pace_ns(1_000));
        sim.run();
        assert_eq!(family.num_groups(), 2);
        assert!(family.stats().sealed == 1, "unfaulted split must seal");
        assert_eq!(
            divergent_stamp_pairs(&c),
            0,
            "repair must heal the wiped replica after the window closes"
        );
        let stats = family.repair_stats().expect("repair configured");
        assert!(stats.rounds > 0, "both groups' agents must run rounds");
        assert!(
            stats.deltas_applied >= 1,
            "the wipe needs at least one delta"
        );
    }

    #[test]
    fn repair_stats_is_none_without_repair_config() {
        let sim = Sim::new(29);
        let family = ElasticShard::build(&sim, &builder(), 0xE1A5_0008);
        assert_eq!(family.repair_stats(), None);
    }

    #[test]
    fn key_locks_are_fifo_and_exclusive() {
        let sim = Sim::new(27);
        let locks = Rc::new(KeyLocks::default());
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let locks = Rc::clone(&locks);
            let order = Rc::clone(&order);
            let s = sim.clone();
            sim.spawn(async move {
                // Stagger arrivals so the queue order is deterministic.
                s.sleep_ns(10 * i as u64).await;
                let guard = locks.lock(42).await;
                order.borrow_mut().push((i, "in"));
                s.sleep_ns(1_000).await;
                order.borrow_mut().push((i, "out"));
                drop(guard);
            });
        }
        sim.run();
        assert_eq!(
            *order.borrow(),
            vec![
                (0, "in"),
                (0, "out"),
                (1, "in"),
                (1, "out"),
                (2, "in"),
                (2, "out")
            ]
        );
        assert!(locks.queues.borrow().is_empty(), "all locks released");
    }
}

//! Elastic resharding: online shard splits and replica-group rebuilds with
//! a linearizable ownership handoff.
//!
//! The paper's deployment model (and [`crate::ShardSpec`]) freezes the
//! keyspace layout at build time. This module is the live-reconfiguration
//! subsystem on top of it: a generation-stamped routing table
//! ([`ShardMap`]) plus an online migration that moves a key range from the
//! replica group that owns it onto a freshly built one — while concurrent
//! clients keep getting linearizable answers.
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
//! # One migration: Copy → Drain → Publish
//!
//! An [`ElasticShard`] family runs each [`ReshardEvent`] as a simulation
//! task ([`ElasticShard::migrate`]). The two [`ReshardAction`]s differ only
//! in how they resolve the moving range `[lo, hi]` and its source group: a
//! split takes the top `permille`/1000 of the split space, a rebuild waits
//! for the membership verdict on a dead node and takes the group's whole
//! segment. Both then build the destination group from the family's
//! `StoreBuilder` with an RNG label derived from `(base label, RESHARD
//! role, group ordinal)` — the same private-stream convention as
//! `build_one_shard`, so the new group's randomness is isolated by
//! construction — open the range's *double-write window*, and hand one
//! migration to one driver, which steps it through three phases:
//!
//! 1. **Copy.** The driver walks the source's live keys of the range in
//!    sorted order (one key per `pace_ns`, 2 µs unless the event says
//!    otherwise), and under each key's FIFO lock overwrites the
//!    destination with the source's current value. Meanwhile every
//!    mutation of a covered key applies to the source and, if the source
//!    applied (or timed out ambiguously), mirrors to the destination under
//!    the same lock, so source order ≡ destination order per key. A copy
//!    or mirror step that fails for good poisons the migration and ends
//!    the walk.
//! 2. **Drain.** The driver waits until no mutation is inside the window:
//!    each one is counted from its under-lock ownership re-check to the end
//!    of its mirror.
//! 3. **Publish.** In the same synchronous region as Drain's final check,
//!    the window closes and, unless the migration is poisoned, the epoch
//!    bumps with the range assigned to the destination: the migration is
//!    done.
//!
//! Every other way out is an abort with an [`AbortReason`] — an event the
//! family cannot carry out, a verdict that never came, a poisoned copy, a
//! wait past its deadline — and leaves the source owning the range:
//! nothing the destination holds was ever readable. Each of the driver's
//! waits checks a deadline on its poll tick, so every migration ends: the
//! window-wait and Drain poll every 200 ns for at most 1 s, the membership
//! verdict every 100 µs until the group's watcher runs out.
//!
//! Reads never lock: a read resolves its group against the authoritative
//! map at invocation, and a straggler source read racing the seal overlaps
//! the ownership transfer in real time, so linearizing it before the seal
//! is always legal. Timed-out (ambiguous) mutations are mirrored too —
//! the checker's apply-or-discard semantics cover both the copy driver
//! preserving and overwriting their effect.
//!
//! Everything here is deterministic: labeled RNG streams only, sorted key
//! walks, FIFO locks, constant pacing — a migration replays bit-identically
//! across `ShardMode::{SingleSim, Threads}` (the `reshard_chaos` suite
//! pins it).

use std::cell::{Cell, RefCell};
use std::collections::{hash_map::Entry, BTreeSet, HashMap, VecDeque};
use std::future::Future;
use std::rc::Rc;

use swarm_fabric::{Endpoint, FaultPlan, TrafficStats};
use swarm_sim::{
    join_boxed, oneshot, BoxFuture, FifoResource, Nanos, OneshotSender, Sim, NANOS_PER_SEC,
};

use crate::builder::{Protocol, StoreBuilder, StoreCluster};
use crate::client::StoreClient;
use crate::cluster::{derive_label, ROLE_RESHARD};
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

/// Poll period of the window-wait and of Drain.
const DRAIN_POLL_NS: Nanos = 200;

/// How long the window-wait and Drain each poll before the migration
/// aborts. Far past the longest migration a bench runs (about a quarter
/// second at `bench_reshard --full`) and the longest Drain a chaos run
/// sees: with a dead destination, every mutation entering the window
/// spends a whole 2 ms op deadline on its mirror, and the windows of two
/// clients can overlap for many of those in a row.
const WAIT_DEADLINE_NS: Nanos = NANOS_PER_SEC;

/// Poll period while a rebuild waits for the membership verdict.
const DEAD_POLL_NS: Nanos = 100_000;

/// Pause between copy-driver retries of a timed-out source read or
/// destination write.
const COPY_RETRY_NS: Nanos = 5_000;

/// Copy-driver attempts per step before the migration is poisoned.
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

    /// Current generation; every handoff bumps it.
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

    /// Reassigns `[lo, hi]` (`lo <= hi`) to `group` and bumps the epoch:
    /// the seal of an ownership handoff. `group` is always freshly built,
    /// so every group owns at most one segment and no two neighbours share
    /// an owner — there is nothing to coalesce.
    fn assign(&mut self, lo: u16, hi: u16, group: usize) {
        let mut segs = Vec::with_capacity(self.segments.len() + 2);
        for seg in std::mem::take(&mut self.segments) {
            // `lo > 0` / `hi < MAX` are implied by the guards, so the ±1
            // arithmetic cannot wrap.
            if seg.start < lo {
                segs.push(Segment {
                    end: seg.end.min(lo - 1),
                    ..seg
                });
            }
            if seg.end > hi {
                segs.push(Segment {
                    start: seg.start.max(hi + 1),
                    ..seg
                });
            }
        }
        segs.push(Segment {
            start: lo,
            end: hi,
            group,
        });
        segs.sort_unstable_by_key(|s| s.start);
        self.segments = segs;
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
        Self::new(shard, at_ns, ReshardAction::Split { permille })
    }

    /// A membership-driven rebuild of `group` (waiting on `dead_node`'s
    /// death verdict) at `at_ns`.
    pub fn rebuild(shard: usize, at_ns: Nanos, group: usize, dead_node: usize) -> Self {
        Self::new(shard, at_ns, ReshardAction::Rebuild { group, dead_node })
    }

    fn new(shard: usize, at_ns: Nanos, action: ReshardAction) -> Self {
        ReshardEvent {
            shard,
            at_ns,
            action,
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

/// The two ways a migration resolves its moving range.
#[derive(Debug, Clone)]
pub enum ReshardAction {
    /// Split the top `permille`/1000 of the family's split space onto a
    /// freshly built group.
    Split {
        /// Fraction of the space to move, in thousandths (1..=999).
        permille: u32,
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

/// Why a migration ended without moving ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A split's `permille` is outside `1..=999`.
    Permille,
    /// The split range is not owned by one group.
    Span,
    /// The group to rebuild does not own exactly one segment.
    Segments,
    /// Nothing declared the node dead: the group does not exist, or its
    /// membership watcher ran out (or was never armed) first.
    NoVerdict,
    /// `dest_faults` targets a node the destination group does not have.
    FaultPlan,
    /// The family's previous migration still held the window after 1 s.
    Busy,
    /// A copy or mirror step failed for good.
    Poisoned,
    /// Mutations were still inside the window after 1 s of Drain.
    Drain,
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
    /// Migrations aborted, whatever the [`AbortReason`].
    pub aborted: u64,
    /// Requests bounced with a stale epoch.
    pub bounces: u64,
    /// Keys walked by Copy.
    pub keys_copied: u64,
    /// Mutations double-written during windows.
    pub mirrored: u64,
    /// Virtual time of the last seal.
    pub last_seal_ns: Option<Nanos>,
}

/// One migration: `[lo, hi]` of the family's split space moving from group
/// `source` to group `dest`. It holds the family's double-write window
/// from the moment the destination exists until Publish.
struct Migration {
    source: usize,
    dest: usize,
    lo: u16,
    hi: u16,
    /// A copy or mirror step failed: Publish aborts instead of sealing.
    poisoned: Cell<bool>,
    /// Mutations between their under-lock window check and the end of
    /// their mirror, one per live [`Mirror`]: Drain waits for zero.
    inflight: Cell<usize>,
}

impl Migration {
    fn covers(&self, key: u64) -> bool {
        let p = split_point(key);
        self.lo <= p && p <= self.hi
    }
}

/// A mutation inside a migration's window: one count of its `inflight`,
/// released on drop. It owns the migration, so a mirror that outlives a
/// Drain which gave up releases a count nobody waits on any more.
struct Mirror(Rc<Migration>);

impl Drop for Mirror {
    fn drop(&mut self) {
        self.0.inflight.set(self.0.inflight.get() - 1);
    }
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
    /// The migration holding the double-write window.
    window: RefCell<Option<Rc<Migration>>>,
    /// Reserved client id for migration drivers (top of `max_clients`).
    mig_id: usize,
    /// The counters; `epoch` and `groups` are read off the map and the
    /// group list instead.
    stats: Cell<ReshardStats>,
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
        let mig_id = builder.max_client_count().saturating_sub(1);
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
            window: RefCell::new(None),
            mig_id,
            stats: Cell::new(ReshardStats::default()),
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
            ..self.stats.get()
        }
    }

    fn count(&self, bump: impl FnOnce(&mut ReshardStats)) {
        let mut stats = self.stats.get();
        bump(&mut stats);
        self.stats.set(stats);
    }

    /// Spawns [`ElasticShard::migrate`] of `ev` as a simulation task.
    pub fn run_event(self: &Rc<Self>, ev: &ReshardEvent) {
        let (this, ev) = (Rc::clone(self), ev.clone());
        self.sim.spawn(async move {
            // The outcome is counted in the family's stats.
            let _ = this.migrate(&ev).await;
        });
    }

    /// Runs `ev` to its end: sleeps to `ev.at_ns`, resolves the moving
    /// range and builds the destination, then drives the migration through
    /// Copy, Drain and Publish. `Ok` when it sealed, the reason when it
    /// aborted; [`ElasticShard::stats`] counts both.
    pub async fn migrate(&self, ev: &ReshardEvent) -> Result<(), AbortReason> {
        self.sim.sleep_until(ev.at_ns).await;
        let faults = ev.dest_faults.as_ref();
        let opened = match ev.action {
            ReshardAction::Split { permille } => self.split(permille, faults).await,
            ReshardAction::Rebuild { group, dead_node } => {
                self.rebuild(group, dead_node, faults).await
            }
        };
        let end = match opened {
            Ok(m) => self.drive(&m, ev.pace_ns.unwrap_or(DEFAULT_PACE_NS)).await,
            Err(why) => Err(why),
        };
        let now = self.sim.now();
        self.count(|s| match end {
            Ok(()) => {
                s.sealed += 1;
                s.last_seal_ns = Some(now);
            }
            Err(_) => s.aborted += 1,
        });
        end
    }

    /// A split: the top `permille`/1000 of the split space, which one
    /// group must own, moves to a fresh group.
    async fn split(
        &self,
        permille: u32,
        faults: Option<&FaultPlan>,
    ) -> Result<Rc<Migration>, AbortReason> {
        if !(1..=999).contains(&permille) {
            return Err(AbortReason::Permille);
        }
        self.window_wait().await?;
        let span = (SPLIT_SPACE * permille / 1000).max(1);
        let (lo, hi) = ((SPLIT_SPACE - span) as u16, u16::MAX);
        // Synchronous from the ownership check to the window opening: no
        // other migration can slip in between.
        let source = self.map.borrow().owner_of_point(lo);
        if self.map.borrow().owner_of_point(hi) != source {
            return Err(AbortReason::Span);
        }
        self.open(source, lo, hi, faults)
    }

    /// Replica replacement: once `group`'s membership service declares
    /// `dead_node` dead, the group's one segment moves to a fresh group.
    /// The verdict's deadline is the group's watcher: past it nothing can
    /// declare the node dead any more.
    async fn rebuild(
        &self,
        group: usize,
        dead_node: usize,
        faults: Option<&FaultPlan>,
    ) -> Result<Rc<Migration>, AbortReason> {
        let membership = self
            .groups
            .borrow()
            .get(group)
            .and_then(|c| c.membership().cloned());
        let membership = membership.ok_or(AbortReason::NoVerdict)?;
        while !membership.is_declared_dead(dead_node) {
            if self.sim.now() >= membership.watched_until() {
                return Err(AbortReason::NoVerdict);
            }
            self.sim.sleep_ns(DEAD_POLL_NS).await;
        }
        self.window_wait().await?;
        let map = self.map.borrow().clone();
        let mut owned = map.segments().iter().filter(|s| s.group == group);
        let (Some(seg), None) = (owned.next(), owned.next()) else {
            return Err(AbortReason::Segments);
        };
        self.open(group, seg.start, seg.end, faults)
    }

    /// The window-wait: polls until no migration holds the family's window,
    /// for at most [`WAIT_DEADLINE_NS`].
    async fn window_wait(&self) -> Result<(), AbortReason> {
        let deadline = self.sim.now() + WAIT_DEADLINE_NS;
        while self.window.borrow().is_some() {
            if self.sim.now() >= deadline {
                return Err(AbortReason::Busy);
            }
            self.sim.sleep_ns(DRAIN_POLL_NS).await;
        }
        Ok(())
    }

    /// Builds the destination and opens the window over `[lo, hi]`, which
    /// the caller found free in this same synchronous region.
    fn open(
        &self,
        source: usize,
        lo: u16,
        hi: u16,
        faults: Option<&FaultPlan>,
    ) -> Result<Rc<Migration>, AbortReason> {
        let nodes = self.groups.borrow()[source].fabric().num_nodes();
        if faults.is_some_and(|p| p.events().iter().any(|(_, a)| a.node().0 >= nodes)) {
            return Err(AbortReason::FaultPlan);
        }
        let m = Rc::new(Migration {
            source,
            dest: self.new_group(faults),
            lo,
            hi,
            poisoned: Cell::new(false),
            inflight: Cell::new(0),
        });
        *self.window.borrow_mut() = Some(Rc::clone(&m));
        Ok(m)
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
        self.groups.borrow_mut().push(cluster);
        ordinal
    }

    /// The migration driver: steps `m` through Copy, Drain and Publish (see
    /// the module docs).
    async fn drive(&self, m: &Migration, pace_ns: Nanos) -> Result<(), AbortReason> {
        // Copy. A destination is built empty, so the source's keys are the
        // walk.
        let entries = self.groups.borrow()[m.source]
            .swarm()
            .map(|c| c.index().entries_sorted())
            .unwrap_or_default();
        let (src, dst) = {
            let groups = self.groups.borrow();
            (
                groups[m.source].client(self.mig_id),
                groups[m.dest].client(self.mig_id),
            )
        };
        for (key, _) in entries.into_iter().filter(|&(k, _)| m.covers(k)) {
            self.sim.sleep_ns(pace_ns).await;
            let guard = self.locks.lock(key).await;
            if !self.copy_one(&src, &dst, key).await {
                m.poisoned.set(true);
            }
            drop(guard);
            self.count(|s| s.keys_copied += 1);
            if m.poisoned.get() {
                break;
            }
        }
        // Drain. Its final zero check and Publish share one synchronous
        // region, so a mutation either holds a `Mirror` here or re-checks
        // ownership after the seal and bounces to the destination.
        let deadline = self.sim.now() + WAIT_DEADLINE_NS;
        while m.inflight.get() > 0 && self.sim.now() < deadline {
            self.sim.sleep_ns(DRAIN_POLL_NS).await;
        }
        // Publish.
        self.window.replace(None);
        if m.inflight.get() > 0 {
            Err(AbortReason::Drain)
        } else if m.poisoned.get() {
            Err(AbortReason::Poisoned)
        } else {
            self.map.borrow_mut().assign(m.lo, m.hi, m.dest);
            Ok(())
        }
    }

    /// Synchronizes one key from source to destination under its lock: the
    /// destination ends holding exactly the source's current state. False
    /// when a step failed for good.
    async fn copy_one(&self, src: &StoreClient, dst: &StoreClient, key: u64) -> bool {
        let Ok(value) = self.retry(|| src.get(key)).await else {
            return false;
        };
        let r = match &value {
            Some(v) => self.retry(|| dst.insert(key, (**v).clone())).await,
            None => absent_is_done(self.retry(|| dst.delete(key)).await),
        };
        r.is_ok()
    }

    /// One copy step: up to [`COPY_RETRIES`] attempts, each timeout
    /// followed by a [`COPY_RETRY_NS`] pause; any other result is final.
    async fn retry<T, F>(&self, mut step: impl FnMut() -> F) -> KvResult<T>
    where
        F: Future<Output = KvResult<T>>,
    {
        let mut r = Err(KvError::Timeout);
        for _ in 0..COPY_RETRIES {
            r = step().await;
            if !matches!(r, Err(KvError::Timeout)) {
                break;
            }
            self.sim.sleep_ns(COPY_RETRY_NS).await;
        }
        r
    }

    /// The group a request for `key` addressed to `group` should really go
    /// to: `Ok` when `group` owns it, the bounce error otherwise.
    fn dispatch_check(&self, key: u64, group: usize) -> KvResult<()> {
        let map = self.map.borrow();
        if map.owner_of(key) == group {
            Ok(())
        } else {
            self.count(|s| s.bounces += 1);
            Err(KvError::WrongShard { epoch: map.epoch() })
        }
    }

    /// Counts a mutation of `key` on `group` into the migration whose
    /// window covers it: the mutation must mirror to that migration's
    /// destination, and Drain waits until the [`Mirror`] drops.
    fn enter_window(&self, key: u64, group: usize) -> Option<Mirror> {
        let m = self.window.borrow().clone();
        let m = m.filter(|m| m.source == group && m.covers(key))?;
        m.inflight.set(m.inflight.get() + 1);
        Some(Mirror(m))
    }
}

/// A delete that finds the key already absent has nothing to undo.
fn absent_is_done(r: KvResult<()>) -> KvResult<()> {
    match r {
        Err(KvError::NotFound | KvError::Deleted) => Ok(()),
        r => r,
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
            // waited. From here to `enter_window` is synchronous, so Drain
            // either counts this mutation or we see its epoch bump.
            if let Err(e) = self.shard.dispatch_check(key, g) {
                drop(guard);
                bounces += 1;
                if bounces >= MAX_BOUNCES {
                    return Err(e);
                }
                self.refresh();
                continue;
            }
            let mirror = self.shard.enter_window(key, g);
            let r = self.apply(g, key, &op).await;
            // A window may have opened while the op was in flight. Its
            // copy snapshot was taken before our effect landed, so an
            // insert racing the opening would reach neither the walk nor
            // the double-write: re-check and mirror late.
            let mirror = mirror.or_else(|| self.shard.enter_window(key, g));
            // Mirror what applied — and what *may* have applied: a
            // timed-out mutation's messages can still land on the source,
            // so the destination must assume they did.
            if let Some(m) = &mirror {
                if matches!(r, Ok(()) | Err(KvError::Timeout)) {
                    self.mirror(m, key, &op).await;
                }
            }
            drop(mirror);
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

    /// Applies `op`'s effect to the migration's destination. Upserts stand
    /// in for updates (the destination may not hold the key yet); an absent
    /// delete is success. Any other failure poisons the migration, which
    /// aborts the seal — the destination never becomes authoritative while
    /// missing a completed write.
    async fn mirror(&self, m: &Mirror, key: u64, op: &MutOp) {
        let client = self.client_for(m.0.dest);
        let r = match op {
            MutOp::Update(v) | MutOp::Insert(v) => client.insert(key, v.clone()).await,
            MutOp::Delete => absent_is_done(client.delete(key).await),
        };
        match r {
            Ok(()) => self.shard.count(|s| s.mirrored += 1),
            Err(_) => m.0.poisoned.set(true),
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
            self.shard.count(|s| s.bounces += 1);
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
    use swarm_fabric::NodeId;
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

    /// A split of `permille`/1000 of the family's space starting now.
    fn split_now(permille: u32, pace_ns: Nanos) -> ReshardEvent {
        ReshardEvent::split(0, 0, permille).pace_ns(pace_ns)
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
    fn assign_trims_and_bumps_the_epoch() {
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
        // A rebuild replaces one group's whole segment.
        map.assign(0, 0x7FFF, 3);
        assert_eq!(map.owner_of_point(0), 3);
        assert_eq!(map.segments().len(), 4);
        assert_eq!(map.epoch(), 3);
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
        let end = sim.block_on(async move { f2.migrate(&split_now(500, 100)).await });
        assert_eq!(end, Ok(()), "unfaulted split must seal");
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
            assert_eq!(f2.migrate(&split_now(250, 50)).await, Ok(()));
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
        let end = Rc::new(Cell::new(None));
        let end2 = Rc::clone(&end);
        sim.spawn(async move {
            end2.set(Some(f2.migrate(&split_now(500, 1_000)).await));
        });
        sim.run();
        assert_eq!(end.get(), Some(Ok(())), "unfaulted split must seal");
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
        rec.take_history()
            .check()
            .expect("split run must linearize");
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
            assert_eq!(f2.migrate(&split_now(500, 100)).await, Ok(()));
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
        // land a single key, poisons the migration, and the abort leaves
        // the base group owning everything.
        let faults = (0..4).fold(FaultPlan::new(), |p, n| p.crash_at(1, NodeId(n)));
        let f2 = Rc::clone(&family);
        let ev = split_now(500, 100).dest_faults(faults);
        let end = sim.block_on(async move { f2.migrate(&ev).await });
        assert_eq!(end, Err(AbortReason::Poisoned));
        let stats = family.stats();
        assert_eq!(stats.aborted, 1);
        assert_eq!(stats.sealed, 0);
        assert_eq!(family.epoch(), 0, "an aborted window never bumps the epoch");
        // The family still serves everything from the base group.
        let client = family.client(0);
        let tag = sim.block_on(async move { value_of(&client.get(5).await) });
        assert_eq!(tag, 305);
    }

    /// The destination dies as Copy starts, halfway through Copy, or once
    /// the walk is over and Drain waits on a mutation: every case aborts
    /// inside the `run_until` bound, the source still owning the range.
    #[test]
    fn a_destination_crash_in_any_phase_ends_the_migration() {
        let ms = NANOS_PER_MILLI;
        let moving: Vec<u64> = (0..64).filter(|&k| split_point(k) >= 0x8000).collect();
        let walk = moving.len() as u64;
        for walked in [0, walk / 2, walk] {
            let sim = Sim::new(31);
            let family = ElasticShard::build(&sim, &builder(), 0xE1A5_000A);
            for k in 0..64u64 {
                family.load_key(k, &tagged(900 + k));
            }
            // A writer on the moving keys keeps mutations inside the
            // window, so Drain has something to wait for.
            let (writer, s2, keys) = (family.client(0), sim.clone(), moving.clone());
            sim.spawn(async move {
                for round in 0..40u64 {
                    for &k in &keys {
                        let _ = writer.update(k, tagged(round)).await;
                        s2.sleep_ns(300).await;
                    }
                }
            });
            // The probe crashes every destination node the first time the
            // window is open with `walked` keys behind the walk.
            let hit = Rc::new(Cell::new(false));
            let (f, s3, hit2) = (Rc::clone(&family), sim.clone(), Rc::clone(&hit));
            sim.spawn(async move {
                while !hit2.get() && s3.now() < 5 * ms {
                    if f.window.borrow().is_some() && f.stats().keys_copied == walked {
                        (0..4).for_each(|n| f.group(1).crash_node(NodeId(n)));
                        hit2.set(true);
                    }
                    s3.sleep_ns(100).await;
                }
            });
            let end = Rc::new(Cell::new(None));
            let (f, end2) = (Rc::clone(&family), Rc::clone(&end));
            sim.spawn(async move {
                let ev = ReshardEvent::split(0, 10_000, 500).pace_ns(1_000);
                end2.set(Some(f.migrate(&ev).await));
            });
            sim.run_until(50 * ms);
            assert!(hit.get(), "{walked} keys walked: the probe never fired");
            let stats = family.stats();
            assert_eq!(stats.sealed + stats.aborted, 1, "{walked} keys walked");
            assert_eq!(end.get(), Some(Err(AbortReason::Poisoned)), "{walked}");
            assert_eq!(family.epoch(), 0);
        }
    }

    /// An event the family cannot carry out aborts with its reason instead
    /// of panicking the driver.
    #[test]
    fn unworkable_events_abort_with_a_reason() {
        use AbortReason::{NoVerdict, Permille, Span};
        let sim = Sim::new(32);
        let family = ElasticShard::build(&sim, &builder(), 0xE1A5_000B);
        family
            .group(0)
            .membership()
            .expect("SWARM-KV")
            .watch_until(NANOS_PER_MILLI);
        let f = Rc::clone(&family);
        let ends = sim.block_on(async move {
            let bad_plan = FaultPlan::new().crash_at(1, NodeId(9));
            let mut ends = Vec::new();
            for ev in [
                split_now(0, 100),
                split_now(1_000, 100),
                ReshardEvent::rebuild(0, 0, 7, 1),
                ReshardEvent::rebuild(0, 0, 0, 99),
                split_now(500, 100).dest_faults(bad_plan),
                split_now(500, 100),
                // Group 0 owns [0, 0x7FFF] now, group 1 the rest.
                split_now(750, 100),
            ] {
                ends.push(f.migrate(&ev).await);
            }
            ends
        });
        assert_eq!(
            ends,
            [
                Err(Permille),
                Err(Permille),
                Err(NoVerdict),
                Err(NoVerdict),
                Err(AbortReason::FaultPlan),
                Ok(()),
                Err(Span),
            ]
        );
        let stats = family.stats();
        assert_eq!((stats.sealed, stats.aborted, stats.groups), (1, 6, 2));
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
            .apply_fault_plan(&FaultPlan::new().crash_at(NANOS_PER_MILLI, NodeId(1)));
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
    /// rebuilt in turn; a rebuild whose verdict can no longer arrive, or
    /// of a group that owns nothing any more, aborts. Bounded by
    /// `run_until`: a rebuild that polls forever fails the counters below
    /// instead of hanging the suite.
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
        let dies = FaultPlan::new().crash_at(2 * ms, NodeId(2));
        family.run_event(
            &ReshardEvent::split(0, 0, 500)
                .pace_ns(1_000)
                .dest_faults(dies),
        );
        family.run_event(&ReshardEvent::rebuild(0, 2 * ms, 1, 2).pace_ns(1_000));
        // Past the watch deadline nothing can declare base node 1 dead.
        family.run_event(&ReshardEvent::rebuild(0, 11 * ms, 0, 1));
        // Group 1 was replaced: it owns no segment to rebuild again.
        family.run_event(&ReshardEvent::rebuild(0, 12 * ms, 1, 2));
        sim.run_until(50 * ms);
        let stats = family.stats();
        assert_eq!(stats.sealed, 2, "the split and the rebuild of group 1 seal");
        assert_eq!(
            stats.aborted, 2,
            "the late rebuild and the second of group 1 abort"
        );
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

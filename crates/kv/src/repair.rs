//! Background anti-entropy: digest-based delta sync between replica pairs.
//!
//! SWARM's protocols keep replicas convergent only through client writes —
//! every write touches a full quorum, so under the paper's failure model a
//! missed replica is caught by the next write (or the next read's
//! write-back). After PR 3's fault windows that is no longer enough: a
//! replica behind a drop window can hold stale In-n-Out max-register state
//! *indefinitely* if no later write happens to land on that key — a
//! read-repair-only world, ROADMAP item 2.
//!
//! This module closes the gap with a deterministic background repair agent
//! per replica group. Each round it reconciles every replica pair against
//! the group's designated replica using one of two strategies (the
//! `Baseline` and `BucketDispatcher` of the delta-state sync harness in
//! `mbrdg/xp`):
//!
//! * [`RepairStrategy::Full`] — baseline: exchange every key's stamp.
//! * [`RepairStrategy::Buckets`] — the default: hash-bucketed digests over
//!   the keyspace; only mismatched buckets haul stamps.
//!
//! A round is "pick a selection, haul it": `Full` selects every entry,
//! `Buckets` the entries of the buckets whose digests disagree.
//!
//! Mismatched entries are repaired through the existing max-register merge:
//! read the winner replica's current maximum, CAS-MAX it into the loser.
//! Repair can therefore never regress a committed write — it is exactly one
//! more writer applying `MAX`, idempotent and commutative with foreground
//! traffic. Keys inside a live reshard double-write window are *deferred*
//! (the migration driver owns them; see `ElasticShard::arm_repair`), and
//! every round is bounded by a deadline so crashed-node silence cannot wedge
//! the agent.
//!
//! Determinism: the agent draws salts from a private stream forked from
//! `(sim seed, cluster label, ROLE_REPAIR)` and submits through its *own*
//! endpoint — with repair disabled nothing is minted and nothing draws, so
//! all existing goldens stay bit-identical.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use swarm_core::{
    InnOutClient, InnOutHandle, InnOutReplica, NodeHealth, QuorumClient, ReplicaClient, ReplicaSet,
    Rounds,
};
use swarm_fabric::{repair_entry_stamp, NodeId, Op, RepairEntry, RepairSel, RepairTable};
use swarm_sim::{timeout_at, Nanos, SimRng, TimedOut, NANOS_PER_MILLI};

use crate::cluster::{derive_label, Cluster, KeyInfo, ROLE_REPAIR};

/// Base RNG label for repair agents on clusters built without an explicit
/// `rng_label` (hand-built test clusters); labeled clusters derive from
/// their own label so shards stay mutually independent.
const REPAIR_RNG_BASE: u64 = 0x5245_5041_4952_4121; // "REPAIR A!"

/// Virtual time between background rounds: frequent enough to converge
/// inside a bench window, rare enough that repair traffic stays a
/// background hum.
pub(crate) const REPAIR_PERIOD_NS: Nanos = 50_000;
/// Digest bucket count of [`RepairStrategy::Buckets`] per replica pair.
pub(crate) const REPAIR_BUCKETS: u32 = 64;
/// Round budget of [`RepairHandle::converge`].
pub(crate) const MAX_CONVERGE_ROUNDS: u32 = 16;

/// Digest strategy of one anti-entropy agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// Exchange every key's stamp (the baseline full state exchange).
    Full,
    /// Exchange per-bucket digests; haul stamps only for mismatched buckets.
    Buckets,
}

impl RepairStrategy {
    /// Stable lowercase name (bench CSV column).
    pub fn name(self) -> &'static str {
        match self {
            RepairStrategy::Full => "full",
            RepairStrategy::Buckets => "buckets",
        }
    }

    /// All strategies, in baseline-to-cheapest order.
    pub fn all() -> [RepairStrategy; 2] {
        [RepairStrategy::Full, RepairStrategy::Buckets]
    }
}

/// Anti-entropy agent configuration. The period, bucket count and
/// convergence budget are constants: `REPAIR_PERIOD_NS`,
/// `REPAIR_BUCKETS`, `MAX_CONVERGE_ROUNDS`.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Digest strategy.
    pub strategy: RepairStrategy,
    /// Deadline for one reconciliation round; a round that cannot finish
    /// (crashed replicas answer with silence) is abandoned and retried next
    /// period.
    pub round_deadline_ns: Nanos,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            strategy: RepairStrategy::Buckets,
            round_deadline_ns: 2 * NANOS_PER_MILLI,
        }
    }
}

impl RepairConfig {
    /// [`Default`] with the given strategy.
    pub fn with_strategy(strategy: RepairStrategy) -> Self {
        RepairConfig {
            strategy,
            ..Default::default()
        }
    }
}

/// Counters of one repair agent — part of the bit-parity witness set, like
/// `ReshardStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Reconciliation rounds started.
    pub rounds: u64,
    /// Message series the agent submitted (its endpoint's series count).
    pub round_trips: u64,
    /// Request + response bytes the agent moved (digests, stamps, and the
    /// delta reads/writes themselves).
    pub bytes_exchanged: u64,
    /// Digest buckets that compared unequal across all rounds.
    pub buckets_mismatched: u64,
    /// Entries hauled by a bucket selection that turned out equal
    /// (bucket-granularity collateral).
    pub false_matches: u64,
    /// Max-register deltas written into a stale replica.
    pub deltas_applied: u64,
    /// Key visits skipped because the key sat in a reshard double-write
    /// window (the migration driver owns it).
    pub deferred: u64,
    /// Rounds abandoned at their deadline (unreachable replicas).
    pub timeouts: u64,
}

impl std::ops::AddAssign for RepairStats {
    fn add_assign(&mut self, rhs: RepairStats) {
        // Field-exhaustive destructuring: adding a counter without summing
        // it here becomes a compile error.
        let RepairStats {
            rounds,
            round_trips,
            bytes_exchanged,
            buckets_mismatched,
            false_matches,
            deltas_applied,
            deferred,
            timeouts,
        } = rhs;
        self.rounds += rounds;
        self.round_trips += round_trips;
        self.bytes_exchanged += bytes_exchanged;
        self.buckets_mismatched += buckets_mismatched;
        self.false_matches += false_matches;
        self.deltas_applied += deltas_applied;
        self.deferred += deferred;
        self.timeouts += timeouts;
    }
}

/// The repair-table entry of `info`'s replica `r`: its `meta_bufs`-word
/// metadata array.
fn repair_entry(info: &KeyInfo, r: usize, meta_bufs: usize) -> RepairEntry {
    RepairEntry {
        id: info.key,
        addr: info.layout.meta_addr(r),
        words: meta_bufs as u32,
    }
}

/// One replica pair of one replica group: the designated replica (index 0)
/// against replica `b_replica`, over the same keys in the same table order.
struct RepairPair {
    node_a: NodeId,
    node_b: NodeId,
    b_replica: usize,
    a_table: RepairTable,
    b_table: RepairTable,
    infos: Vec<Rc<KeyInfo>>,
}

/// A repair defer predicate: keys answering `true` are skipped this round
/// (mid-migration ranges; see `ElasticShard`).
pub type DeferFn = Rc<dyn Fn(u64) -> bool>;

struct RepairInner {
    cluster: Cluster,
    cfg: RepairConfig,
    /// The agent as an In-n-Out client. Its own endpoint: repair traffic
    /// lands in `TrafficStats` like any client's, and its series/bytes are
    /// the agent's `round_trips`/`bytes_exchanged`. Its writer id for delta
    /// writes is the reserved top client id, shared with the migration
    /// driver — never concurrently, thanks to window deferral.
    client: Rc<InnOutClient>,
    rng: SimRng,
    stats: RefCell<RepairStats>,
    /// Keys for which `defer(key)` is true are skipped this round
    /// (mid-migration ranges; see `ElasticShard`).
    defer: RefCell<Option<DeferFn>>,
    armed: Cell<bool>,
}

/// Handle to one cluster's anti-entropy agent (cheaply cloneable).
#[derive(Clone)]
pub struct RepairHandle {
    inner: Rc<RepairInner>,
}

impl RepairHandle {
    /// Creates an (un-armed) agent for `cluster`. Mints a dedicated
    /// endpoint and forks a private RNG stream; building a handle has no
    /// effect on the simulation until a round runs.
    pub fn new(cluster: &Cluster, cfg: RepairConfig) -> RepairHandle {
        let cc = cluster.config();
        let label = derive_label(cc.rng_label.unwrap_or(REPAIR_RNG_BASE), ROLE_REPAIR, 0);
        let rng = cluster.sim().fork_rng(Some(label));
        // Its quorum state is never used: the agent reads and writes single
        // replicas. Carrying it (once per agent) keeps one client type for
        // every In-n-Out handle.
        let quorum = QuorumClient::new(
            cluster.sim(),
            NodeHealth::new(cc.nodes),
            cc.quorum,
            Rounds::new(),
            None,
        );
        let ep = Rc::new(cluster.fabric().endpoint());
        let writer = cc.max_clients - 1;
        let client = InnOutClient::new(quorum, ep, writer, 0, *cluster.shape(), cc.inplace);
        RepairHandle {
            inner: Rc::new(RepairInner {
                client,
                cluster: cluster.clone(),
                cfg,
                rng,
                stats: RefCell::new(RepairStats::default()),
                defer: RefCell::new(None),
                armed: Cell::new(false),
            }),
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &RepairConfig {
        &self.inner.cfg
    }

    /// Current counters. `round_trips`/`bytes_exchanged` are read off the
    /// agent's endpoint, so they count *everything* it moved — summaries
    /// and deltas alike.
    pub fn stats(&self) -> RepairStats {
        let mut s = *self.inner.stats.borrow();
        let ep = self.inner.client.ep.stats();
        s.round_trips = ep.series;
        s.bytes_exchanged = ep.bytes_out + ep.bytes_in;
        s
    }

    /// Installs (or clears) the defer predicate: keys answering `true` are
    /// skipped, counted in [`RepairStats::deferred`].
    pub fn set_defer(&self, defer: Option<DeferFn>) {
        *self.inner.defer.borrow_mut() = defer;
    }

    /// Submits one op and unwraps its (kind-checked) result; `None` means
    /// the reply was dropped or malformed — the round retries later.
    async fn op(&self, node: NodeId, op: Op) -> Option<swarm_fabric::OpResult> {
        let ep = &self.inner.client.ep;
        ep.submit(node, vec![op]).await?.into_iter().next()
    }

    /// The round's work list: live keys (minus deferred ones) grouped by
    /// replica-node vector, one pair per non-designated replica. Everything
    /// is enumerated in sorted key / node order, so the plan is identical
    /// across `ShardMode`s.
    fn pair_plan(&self) -> Vec<RepairPair> {
        let cluster = &self.inner.cluster;
        let defer = self.inner.defer.borrow().clone();
        let mut deferred = 0u64;
        let mut groups: BTreeMap<Vec<usize>, Vec<Rc<KeyInfo>>> = BTreeMap::new();
        for (key, info) in cluster.index().entries_sorted() {
            if defer.as_ref().is_some_and(|d| d(key)) {
                deferred += 1;
                continue;
            }
            let l = &info.layout;
            groups
                .entry((0..l.replicas()).map(|r| l.node(r).0).collect())
                .or_default()
                .push(info);
        }
        self.inner.stats.borrow_mut().deferred += deferred;
        let k = cluster.shape().meta_bufs;
        let mut pairs = Vec::new();
        for (nodes, infos) in groups {
            for b_replica in 1..nodes.len() {
                pairs.push(RepairPair {
                    node_a: NodeId(nodes[0]),
                    node_b: NodeId(nodes[b_replica]),
                    b_replica,
                    a_table: Rc::new(infos.iter().map(|i| repair_entry(i, 0, k)).collect()),
                    b_table: Rc::new(
                        infos
                            .iter()
                            .map(|i| repair_entry(i, b_replica, k))
                            .collect(),
                    ),
                    infos: infos.clone(),
                });
            }
        }
        pairs
    }

    /// Reconciles one pair — pick a selection, haul it; returns the number
    /// of deltas it applied, or `None` if a reply was lost (retry next
    /// round).
    async fn sync_pair(&self, p: &RepairPair) -> Option<usize> {
        if p.infos.is_empty() {
            return Some(0);
        }
        let sel = match self.inner.cfg.strategy {
            RepairStrategy::Full => RepairSel::All,
            RepairStrategy::Buckets => {
                let salt = self.inner.rng.rand_u64();
                let ids = self.mismatched_buckets(p, salt).await?;
                self.inner.stats.borrow_mut().buckets_mismatched += ids.len() as u64;
                if ids.is_empty() {
                    return Some(0);
                }
                RepairSel::Buckets {
                    ids: Rc::new(ids),
                    buckets: REPAIR_BUCKETS,
                    salt,
                }
            }
        };
        self.sync_selected(p, &sel).await
    }

    /// Sorted bucket ids whose digests disagree between the pair's sides.
    async fn mismatched_buckets(&self, p: &RepairPair, salt: u64) -> Option<Vec<u32>> {
        let digest = |table: &RepairTable| Op::RepairDigest {
            table: Rc::clone(table),
            buckets: REPAIR_BUCKETS,
            salt,
        };
        let da = self.op(p.node_a, digest(&p.a_table)).await?.digests()?;
        let db = self.op(p.node_b, digest(&p.b_table)).await?.digests()?;
        Some(
            (0..REPAIR_BUCKETS)
                .filter(|&b| da[b as usize] != db[b as usize])
                .collect(),
        )
    }

    /// Hauls the selected entries' stamps from both sides and repairs the
    /// unequal ones. Under a bucket selection the hauled-but-equal entries
    /// are the selection's collateral, counted as `false_matches`.
    async fn sync_selected(&self, p: &RepairPair, sel: &RepairSel) -> Option<usize> {
        let stamps = |table: &RepairTable| Op::RepairStamps {
            table: Rc::clone(table),
            sel: sel.clone(),
        };
        let sa = self.op(p.node_a, stamps(&p.a_table)).await?.stamps()?;
        let sb = self.op(p.node_b, stamps(&p.b_table)).await?.stamps()?;
        // The selection predicate is pure, so both sides report the same
        // entries in table order; recompute the index mapping locally.
        debug_assert_eq!(sa.len(), sel.count(&p.a_table));
        let selected = (0..p.infos.len()).filter(|&i| sel.selects(&p.a_table[i]));
        let mut diffs = 0;
        for (j, i) in selected.enumerate() {
            if sa[j] != sb[j] {
                self.repair_one(p, i, sa[j], sb[j]).await?;
                diffs += 1;
            }
        }
        if matches!(sel, RepairSel::Buckets { .. }) {
            self.inner.stats.borrow_mut().false_matches += (sa.len() - diffs) as u64;
        }
        Some(diffs)
    }

    /// Repairs one entry: read the winner replica's current maximum, MAX it
    /// into the loser. A plain max-register write — idempotent, commutative
    /// with foreground writes, never a regression.
    async fn repair_one(&self, p: &RepairPair, i: usize, sa: u64, sb: u64) -> Option<()> {
        let info = &p.infos[i];
        let (winner, loser) = if sa >= sb {
            (0, p.b_replica)
        } else {
            (p.b_replica, 0)
        };
        let handle = InnOutHandle::new(&self.inner.client, Rc::clone(info));
        let replica = |r: usize| -> InnOutReplica<KeyInfo> { ReplicaSet::replica(&handle, r) };
        let snap = replica(winner).read().await;
        let val = match snap.value {
            Some(v) => v,
            None => replica(winner).fetch(snap.token).await,
        };
        if val.is_initial() {
            return Some(());
        }
        replica(loser).write(val).await;
        self.inner.cluster.note_repaired(info.key);
        self.inner.stats.borrow_mut().deltas_applied += 1;
        Some(())
    }

    /// Runs one reconciliation round over every pair; returns the number of
    /// deltas applied (0 = the keyspace digested clean).
    pub async fn run_round(&self) -> usize {
        self.inner.stats.borrow_mut().rounds += 1;
        let mut diffs = 0;
        for p in self.pair_plan() {
            // A lost reply counts as residual divergence: never report a
            // round that couldn't verify as clean.
            diffs += self.sync_pair(&p).await.unwrap_or(1);
        }
        diffs
    }

    /// [`run_round`](Self::run_round) bounded by `deadline`: an abandoned
    /// round (crashed replicas answer with silence) counts a timeout and
    /// reports residual divergence.
    pub async fn run_round_until(&self, deadline: Nanos) -> usize {
        let sim = self.inner.cluster.sim().clone();
        match timeout_at(&sim, deadline, &mut Box::pin(self.run_round())).await {
            Ok(diffs) => diffs,
            Err(TimedOut) => {
                self.inner.stats.borrow_mut().timeouts += 1;
                1
            }
        }
    }

    /// Runs bounded rounds until one digests clean; returns `(rounds,
    /// converged)`.
    pub async fn converge(&self) -> (u32, bool) {
        for r in 1..=MAX_CONVERGE_ROUNDS {
            let deadline = self.inner.cluster.sim().now() + self.inner.cfg.round_deadline_ns;
            if self.run_round_until(deadline).await == 0 {
                return (r, true);
            }
        }
        (MAX_CONVERGE_ROUNDS, false)
    }

    /// Arms the background loop: one bounded round every
    /// `REPAIR_PERIOD_NS` until `deadline`. Idempotent (the first arm
    /// wins); the loop is *bounded* so `Sim::run`'s drain-the-queue
    /// semantics still terminate.
    pub fn arm_until(&self, deadline: Nanos) {
        if self.inner.armed.replace(true) {
            return;
        }
        let h = self.clone();
        let sim = self.inner.cluster.sim().clone();
        let round_deadline_ns = self.inner.cfg.round_deadline_ns;
        self.inner.cluster.sim().spawn(async move {
            while sim.now() + REPAIR_PERIOD_NS <= deadline {
                sim.sleep_ns(REPAIR_PERIOD_NS).await;
                let round_deadline = (sim.now() + round_deadline_ns).min(deadline);
                h.run_round_until(round_deadline).await;
            }
        });
    }
}

/// Control-plane divergence metric (no simulated network cost): the number
/// of (key, replica) pairs whose max stamp differs from the key's
/// designated replica. Usable with repair disabled — it is the bench's
/// "how bad did the fault window hurt" and "did repair finish" probe.
pub fn divergent_stamp_pairs(cluster: &Cluster) -> u64 {
    let fabric = cluster.fabric();
    let k = cluster.shape().meta_bufs;
    let mut divergent = 0;
    for (_, info) in cluster.index().entries_sorted() {
        let stamp_of = |r: usize| {
            let node = fabric.node(info.layout.node(r));
            repair_entry_stamp(node.mem(), &repair_entry(&info, r, k))
        };
        let designated = stamp_of(0);
        for r in 1..info.layout.replicas() {
            if stamp_of(r) != designated {
                divergent += 1;
            }
        }
    }
    divergent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::store::KvStore;
    use crate::{Protocol, StoreBuilder, StoreCluster};
    use swarm_core::{innout_hash, Stamp};
    use swarm_sim::Sim;

    const N_KEYS: u64 = 16;

    /// A loaded SWARM-KV store through the front door, plus its substrate
    /// (which the repair agent works on directly).
    fn store(seed: u64) -> (Sim, StoreCluster, Cluster) {
        let sim = Sim::new(seed);
        let store = StoreBuilder::new(Protocol::SafeGuess).build_cluster(&sim);
        store.load_keys(N_KEYS, |k| vec![k as u8; 64]);
        let c = store.swarm().expect("SafeGuess runs on a Cluster").clone();
        (sim, store, c)
    }

    fn cluster(seed: u64) -> (Sim, Cluster) {
        let (sim, _, c) = store(seed);
        (sim, c)
    }

    /// Wipes replica `r` of `key` back to its allocated (all-zero) state,
    /// as if the loader's write never reached it.
    fn wipe_replica(c: &Cluster, key: u64, r: usize) {
        let info = c.index().peek(key).expect("loaded");
        let l = &info.layout;
        for j in 0..c.shape().meta_bufs as u64 {
            c.fabric()
                .node(l.node(r))
                .mem()
                .write_u64(l.meta_addr(r) + 8 * j, 0);
        }
    }

    /// Pokes replica `r` of `key` into the state a completed VERIFIED write
    /// of `value` at stamp `seq` would leave (what a write that reached
    /// only this replica before a fault window looks like).
    fn poke_newer(c: &Cluster, key: u64, r: usize, seq: u64, value: &[u8]) {
        let info = c.index().peek(key).expect("loaded");
        let l = &info.layout;
        let node = c.fabric().node(l.node(r));
        let stamp = Stamp::verified(seq, crate::LOADER_TID);
        let word = (stamp.pack48() << 16) | c.loader_slot() as u64;
        let slot_addr = l
            .slot_addr(c.shape(), r, c.loader_slot())
            .expect("unowned slot");
        node.mem().write_u64(slot_addr, word);
        node.mem()
            .write_u64(slot_addr + 8, innout_hash(word, value));
        node.mem().write(slot_addr + 16, value);
        node.mem().write_u64(l.meta_addr(r), word);
    }

    #[test]
    fn full_repair_converges_a_wiped_replica() {
        let (sim, c) = cluster(21);
        wipe_replica(&c, 3, 1);
        assert_eq!(divergent_stamp_pairs(&c), 1);
        let h = RepairHandle::new(&c, RepairConfig::with_strategy(RepairStrategy::Full));
        let (hc, cc) = (h.clone(), c.clone());
        sim.block_on(async move {
            let (rounds, converged) = hc.converge().await;
            assert!(converged, "full repair must converge");
            assert!(rounds <= 3, "one repair + one clean round, got {rounds}");
            assert_eq!(divergent_stamp_pairs(&cc), 0);
        });
        let s = h.stats();
        assert!(s.deltas_applied >= 1);
        assert!(s.round_trips > 0 && s.bytes_exchanged > 0);
        assert_eq!(s.timeouts, 0);
        assert!(c.repair_mark(3) > 0, "repair must bump the key's mark");
    }

    /// Divergence where the *non-designated* replica holds the newer stamp:
    /// repair must flow the newer value toward the designated replica —
    /// never regress it — and a client read afterwards sees the new value.
    #[test]
    fn repair_flows_toward_the_higher_stamp() {
        let (sim, store, c) = store(22);
        let newer = vec![0xABu8; 64];
        poke_newer(&c, 5, 1, 2, &newer);
        assert_eq!(divergent_stamp_pairs(&c), 1);
        for strategy in RepairStrategy::all() {
            // Re-diverging an already-converged cluster is a no-op for the
            // later strategies; the first converge does the real work and
            // the rest pin idempotence.
            let h = RepairHandle::new(&c, RepairConfig::with_strategy(strategy));
            let hc = h.clone();
            sim.block_on(async move {
                let (_, converged) = hc.converge().await;
                assert!(converged, "{} must converge", strategy.name());
            });
        }
        assert_eq!(divergent_stamp_pairs(&c), 0);
        let client = store.client(0);
        sim.block_on(async move {
            let got = client.get(5).await.expect("no timeout").expect("present");
            assert_eq!(*got, newer, "repair replicated the newer value");
        });
    }

    /// The digest strategies converge on the same divergence while moving
    /// strictly fewer bytes than the full state exchange.
    #[test]
    fn bucketed_strategies_exchange_fewer_bytes_than_full() {
        let keys = 1_024u64;
        let mut bytes = Vec::new();
        for strategy in RepairStrategy::all() {
            let sim = Sim::new(33);
            let c = Cluster::new(&sim, ClusterConfig::default());
            c.load_keys(keys, |k| vec![k as u8; 64]);
            for &k in &[3, 77, 130] {
                wipe_replica(&c, k, 1);
            }
            assert_eq!(divergent_stamp_pairs(&c), 3);
            // Replica placement splits 1 024 keys into ~256-key groups; the
            // digest pass only wins while REPAIR_BUCKETS < group size.
            let h = RepairHandle::new(&c, RepairConfig::with_strategy(strategy));
            let (hc, cc) = (h.clone(), c.clone());
            sim.block_on(async move {
                let (_, converged) = hc.converge().await;
                assert!(converged, "{} must converge", strategy.name());
                assert_eq!(divergent_stamp_pairs(&cc), 0);
            });
            bytes.push((strategy, h.stats().bytes_exchanged));
        }
        let full = bytes[0].1;
        for &(strategy, b) in &bytes[1..] {
            assert!(
                b < full,
                "{} moved {b} B, full moved {full} B",
                strategy.name()
            );
        }
    }

    /// An insert from a client that has not cached the key allocates fresh
    /// buffers before the index answers `Exists`, then writes through the
    /// live mapping: the fresh buffers are orphans. Repair and the
    /// divergence probe must walk the allocation the index names, or they
    /// digest the orphan and never see the live key diverge.
    #[test]
    fn repair_follows_the_index_after_an_insert_over_a_live_key() {
        let (sim, store, c) = store(66);
        let client = store.client(0);
        sim.block_on(async move {
            client
                .insert(4, vec![0xCD; 64])
                .await
                .expect("an insert over a live key updates it");
        });
        let h = RepairHandle::new(&c, RepairConfig::with_strategy(RepairStrategy::Full));
        // The write itself contacted a majority only; heal that first so the
        // one divergence left is the one injected below.
        let hc = h.clone();
        sim.block_on(async move { hc.converge().await });
        wipe_replica(&c, 4, 1);
        assert!(
            divergent_stamp_pairs(&c) >= 1,
            "the probe must see the indexed allocation's stale replica"
        );
        let before = h.stats().deltas_applied;
        let (hc, cc) = (h.clone(), c.clone());
        sim.block_on(async move {
            let (_, converged) = hc.converge().await;
            assert!(converged, "repair must converge");
            assert_eq!(divergent_stamp_pairs(&cc), 0);
        });
        assert!(h.stats().deltas_applied > before, "the live key was healed");
    }

    /// Keys inside a migration window are the driver's business: the defer
    /// predicate leaves them divergent and counts them, and clearing it
    /// lets repair finish the job.
    #[test]
    fn deferred_keys_are_left_to_the_migration() {
        let (sim, c) = cluster(44);
        wipe_replica(&c, 7, 2);
        let h = RepairHandle::new(&c, RepairConfig::with_strategy(RepairStrategy::Buckets));
        h.set_defer(Some(Rc::new(|key| key == 7)));
        let (hc, cc) = (h.clone(), c.clone());
        sim.block_on(async move {
            let (_, converged) = hc.converge().await;
            assert!(converged, "the non-deferred keyspace digests clean");
            assert_eq!(
                divergent_stamp_pairs(&cc),
                1,
                "the deferred key must stay untouched"
            );
            hc.set_defer(None);
            let (_, converged) = hc.converge().await;
            assert!(converged);
            assert_eq!(divergent_stamp_pairs(&cc), 0);
        });
        assert!(h.stats().deferred > 0);
    }

    /// Repairing and re-running is a no-op: a second converge on a clean
    /// cluster applies zero deltas (idempotence of MAX-merge repair).
    #[test]
    fn repair_is_idempotent() {
        let (sim, c) = cluster(55);
        for strategy in RepairStrategy::all() {
            wipe_replica(&c, 9, 1);
            let h = RepairHandle::new(&c, RepairConfig::with_strategy(strategy));
            sim.block_on(async move {
                h.converge().await;
                let before = h.stats().deltas_applied;
                let (rounds, converged) = h.converge().await;
                assert!(converged && rounds == 1, "clean cluster: one clean round");
                assert_eq!(h.stats().deltas_applied, before, "no new deltas");
            });
        }
    }
}

//! The key-value client: SWARM-KV, DM-ABD and RAW behind one type.
//!
//! A [`KvClient`] is one application thread. It resolves key locations
//! through its LFU cache or the index (§5.2), builds per-key register
//! handles over the cluster's In-n-Out replicas, and executes the §5.3
//! protocols. The [`Proto`] selects the replication machinery:
//!
//! * [`Proto::SafeGuess`] — SWARM-KV: Safe-Guess + timestamp locks.
//! * [`Proto::Abd`] — DM-ABD: classic ABD over the same substrate (run it on
//!   a cluster configured with `inplace = false, meta_bufs = 1`).
//! * [`Proto::Raw`] — RAW: unreplicated direct reads/writes, no concurrency
//!   control (the latency lower bound; "not useful in practice", §7).

use std::cell::RefCell;
use std::rc::Rc;

use swarm_core::{
    Abd, HedgeConfig, Hedger, InnOutReplica, NodeHealth, ReliableMaxReg, Rounds, SafeGuess,
    TsGuesser, TsLock, TsLockSet, WritePath,
};
use swarm_fabric::Endpoint;
use swarm_sim::{join2, FifoResource, GuessClock, Nanos, SimRng};

use crate::cache::LfuCache;
use crate::cluster::{derive_label, Cluster, KeyInfo, ROLE_CACHE, ROLE_CLOCK};
use crate::index::InsertOutcome;
use crate::store::{with_deadline, KvError, KvResult, KvStore, KvStoreExt, ScanItems};

/// Replication protocol driven by a [`KvClient`]. Crate-private: it
/// encodes "not FUSEE" in the type; callers pick a `Protocol` on the
/// `StoreBuilder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Proto {
    /// SWARM-KV (Safe-Guess + In-n-Out).
    SafeGuess,
    /// DM-ABD baseline.
    Abd,
    /// RAW unreplicated baseline.
    Raw,
}

/// Capacity of the client-side location cache (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheCapacity {
    /// No eviction: every key location seen stays cached (the default).
    Unbounded,
    /// At most this many entries, with sampled-LFU eviction (Figure 6
    /// limits it to 5 MiB worth of entries).
    Entries(usize),
}

impl CacheCapacity {
    /// The entry bound handed to the LFU cache.
    pub(crate) fn entry_limit(self) -> usize {
        match self {
            // Large enough to never evict, small enough that arithmetic on
            // it cannot overflow.
            CacheCapacity::Unbounded => usize::MAX / 2,
            CacheCapacity::Entries(n) => n,
        }
    }
}

/// Per-client knobs.
#[derive(Debug, Clone)]
pub struct KvClientConfig {
    /// Location-cache capacity.
    pub cache: CacheCapacity,
    /// Overall per-operation deadline. `None` (the default) lets an
    /// operation wait indefinitely — the replicated protocols are live as
    /// long as a majority is reachable, so under the paper's failure model
    /// no bound is needed. With a bound, an operation that cannot finish in
    /// time (e.g. its quorum is unreachable) returns
    /// [`crate::KvError::Timeout`] instead of blocking forever; its effect
    /// on the store is then *ambiguous* — in-flight messages may still
    /// land, exactly like a client crash mid-operation (§7.7).
    pub op_deadline_ns: Option<Nanos>,
    /// Tail-latency hedging (off by default; see [`HedgeConfig`]).
    pub hedge: HedgeConfig,
}

impl Default for KvClientConfig {
    fn default() -> Self {
        KvClientConfig {
            cache: CacheCapacity::Unbounded,
            op_deadline_ns: None,
            hedge: HedgeConfig::disabled(),
        }
    }
}

type SgReg = SafeGuess<ReliableMaxReg<InnOutReplica>>;
type AbdReg = Abd<ReliableMaxReg<InnOutReplica>>;

enum HandleKind {
    Sg(SgReg),
    Abd(AbdReg),
    Raw {
        node: swarm_fabric::NodeId,
        addr: u64,
        len: usize,
    },
}

/// A cached per-key access handle (the 24–32 B location record of §5.2,
/// including In-n-Out's cached metadata word for SWARM-KV).
pub struct KeyHandle {
    kind: HandleKind,
    /// Allocation generation of the replicas behind this handle; index
    /// cleanups are conditioned on it so a stale handle can never unmap a
    /// re-inserted key's fresh mapping.
    generation: u64,
    /// Cluster repair mark at build time. A handle built before an
    /// anti-entropy pass rewrote this key's replicas may cache metadata
    /// (e.g. In-n-Out's cached word) older than the repaired state; the
    /// cache hit path drops such handles instead of serving them.
    repair_mark: u64,
}

/// One client thread of a key-value store.
pub struct KvClient {
    cluster: Cluster,
    proto: Proto,
    client_id: usize,
    ep: Rc<Endpoint>,
    health: Rc<NodeHealth>,
    rounds: Rounds,
    guesser: Rc<TsGuesser>,
    cache: RefCell<LfuCache<Rc<KeyHandle>>>,
    /// Stream for this client's own draws (cache-eviction sampling); the
    /// clock draws from its own sibling stream.
    rng: SimRng,
    op_deadline_ns: Option<Nanos>,
    /// Tail-latency hedger shared by all of this client's registers;
    /// `None` (the default) is bit-identical to the pre-hedging code.
    hedger: Option<Hedger>,
}

impl KvClient {
    /// Creates client `client_id` (must be `< cluster.config().max_clients`
    /// for replicated protocols), on a dedicated CPU core or sharing an
    /// existing one. A cross-shard router passes the same core to its
    /// per-shard clients so that the set models *one* application thread,
    /// not one per shard. Minted by `StoreCluster::client`.
    pub(crate) fn with_cpu(
        cluster: &Cluster,
        proto: Proto,
        client_id: usize,
        cfg: KvClientConfig,
        cpu: Option<FifoResource>,
    ) -> Rc<Self> {
        let cc = cluster.config();
        if proto != Proto::Raw {
            assert!(
                client_id < cc.max_clients,
                "client id beyond configured max_clients"
            );
        }
        let sim = cluster.sim().clone();
        let ep = Rc::new(match cpu {
            Some(cpu) => cluster.fabric().endpoint_with_cpu(cpu),
            None => cluster.fabric().endpoint(),
        });
        let health = NodeHealth::new(cc.nodes);
        cluster.membership().subscribe(Rc::clone(&health));
        // With a cluster rng label, the clock and the cache draw from
        // private per-client streams; otherwise from the shared one (the
        // historical, bit-compatible behavior).
        let fork = |role: u64| match cc.rng_label {
            Some(l) => sim.fork_rng(derive_label(l, role, client_id as u64)),
            None => SimRng::shared(&sim),
        };
        let clock = Rc::new(GuessClock::with_rng(
            &sim,
            fork(ROLE_CLOCK),
            cc.clock_skew_ns,
            cc.clock_drift_ppm,
            (cc.clock_skew_ns / 2).max(1),
        ));
        let guesser = Rc::new(TsGuesser::new(clock, client_id as u8));
        Rc::new(KvClient {
            cluster: cluster.clone(),
            proto,
            client_id,
            ep,
            health,
            rounds: Rounds::new(),
            guesser,
            cache: RefCell::new(LfuCache::new(cfg.cache.entry_limit())),
            rng: fork(ROLE_CACHE),
            op_deadline_ns: cfg.op_deadline_ns,
            hedger: Hedger::new(cfg.hedge, cc.nodes, Some(cluster.fabric().clone())),
        })
    }

    /// Cache hit/miss statistics.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.borrow().stats()
    }

    fn build_handle(&self, info: &Rc<KeyInfo>) -> Rc<KeyHandle> {
        let cc = self.cluster.config();
        let sim = self.cluster.sim();
        let kind = match self.proto {
            Proto::Raw => {
                let l = &info.layouts[0];
                HandleKind::Raw {
                    node: l.node,
                    addr: l.meta_addr + (l.meta_bufs * 8) as u64,
                    len: cc.value_size,
                }
            }
            Proto::SafeGuess | Proto::Abd => {
                let replicas: Vec<InnOutReplica> = info
                    .layouts
                    .iter()
                    .enumerate()
                    .map(|(i, l)| {
                        InnOutReplica::new(
                            Rc::clone(&self.ep),
                            l.clone(),
                            self.client_id,
                            cc.inplace && i == 0,
                            self.rounds.clone(),
                        )
                    })
                    .collect();
                let m = ReliableMaxReg::with_hedger(
                    sim,
                    replicas,
                    info.replica_nodes.iter().map(|n| n.0).collect(),
                    0,
                    Rc::clone(&self.health),
                    cc.quorum,
                    self.rounds.clone(),
                    self.hedger.clone(),
                );
                match self.proto {
                    Proto::Abd => HandleKind::Abd(Abd::new(m, self.client_id as u8)),
                    _ => {
                        // Lazy per-writer locks: a cache miss stores only
                        // this recipe; `TsLock`s materialize on the slow
                        // paths that actually touch them (building
                        // `max_clients` locks eagerly dominated miss cost
                        // at 64 clients).
                        let quorum = cc.quorum;
                        let sim = sim.clone();
                        let ep = Rc::clone(&self.ep);
                        let health = Rc::clone(&self.health);
                        let rounds = self.rounds.clone();
                        let info = Rc::clone(info);
                        let tsl = TsLockSet::new(cc.max_clients, move |w| {
                            let words: Vec<(swarm_fabric::NodeId, u64)> = info
                                .replica_nodes
                                .iter()
                                .zip(info.tsl_base(ep.fabric()))
                                .map(|(&n, &base)| (n, base + 8 * w as u64))
                                .collect();
                            TsLock::new(
                                &sim,
                                Rc::clone(&ep),
                                words,
                                Rc::clone(&health),
                                quorum,
                                rounds.clone(),
                            )
                        });
                        HandleKind::Sg(SafeGuess::new(
                            m,
                            Rc::new(tsl),
                            Rc::clone(&self.guesser),
                            self.rounds.clone(),
                        ))
                    }
                }
            }
        };
        Rc::new(KeyHandle {
            kind,
            generation: info.generation,
            repair_mark: self.cluster.repair_mark(info.key),
        })
    }

    /// Resolves the handle for `key`: cache hit is free; a miss costs one
    /// index roundtrip (§7.1). `force_index` bypasses the cache (used after
    /// observing a tombstone through possibly-stale cached replicas,
    /// §5.3.3).
    async fn handle_for(&self, key: u64, force_index: bool) -> Option<Rc<KeyHandle>> {
        if !force_index {
            let mark = self.cluster.repair_mark(key);
            let mut cache = self.cache.borrow_mut();
            if let Some(h) = cache.get(key) {
                if h.repair_mark == mark {
                    return Some(Rc::clone(h));
                }
                // Repair rewrote this key's replicas after the handle was
                // built: its cached metadata may predate the repaired
                // state, so drop it and re-resolve through the index.
                cache.remove(key);
            }
        }
        self.rounds.bump();
        let info = self.cluster.index().get(key).await?;
        let h = self.build_handle(&info);
        self.cache
            .borrow_mut()
            .insert(&self.rng, key, Rc::clone(&h));
        Some(h)
    }

    fn uncache(&self, key: u64) {
        self.cache.borrow_mut().remove(key);
    }

    /// Writes through a handle. `Err(Deleted)` if a tombstone rejected the
    /// write; `Err(Timeout)` if the unreplicated RAW node stopped answering.
    /// The payload arrives `Rc`-shared: retries and replica fan-out bump a
    /// refcount instead of deep-copying the value.
    async fn write_via(&self, h: &KeyHandle, value: Rc<Vec<u8>>) -> KvResult<()> {
        match &h.kind {
            HandleKind::Raw { node, addr, .. } => {
                self.rounds.bump();
                self.ep
                    .write(*node, *addr, value)
                    .await
                    .ok_or(KvError::Timeout)
            }
            HandleKind::Sg(reg) => match reg.write(value).await {
                WritePath::Deleted => Err(KvError::Deleted),
                _ => Ok(()),
            },
            HandleKind::Abd(reg) => {
                if reg.write(value).await {
                    Ok(())
                } else {
                    Err(KvError::Deleted)
                }
            }
        }
    }

    async fn read_via(&self, h: &KeyHandle) -> KvResult<ReadResult> {
        match &h.kind {
            HandleKind::Raw { node, addr, len } => {
                self.rounds.bump();
                match self.ep.read(*node, *addr, *len).await {
                    Some(bytes) => Ok(ReadResult::Value(Rc::new(bytes))),
                    None => Err(KvError::Timeout),
                }
            }
            HandleKind::Sg(reg) => {
                let out = reg.read().await;
                Ok(if out.value.is_tombstone() {
                    ReadResult::Deleted
                } else if out.value.is_initial() {
                    ReadResult::Missing
                } else {
                    ReadResult::Value(out.value.into_value())
                })
            }
            HandleKind::Abd(reg) => {
                let v = reg.read().await;
                Ok(if v.is_tombstone() {
                    ReadResult::Deleted
                } else if v.is_initial() {
                    ReadResult::Missing
                } else {
                    ReadResult::Value(v.into_value())
                })
            }
        }
    }
}

enum ReadResult {
    Value(Rc<Vec<u8>>),
    Deleted,
    Missing,
}

impl KvClient {
    /// `get` (§5.3.4): locate replicas (cache or index), SWARM read. A
    /// tombstone through a cached handle flushes the cache and retries once
    /// through the index (the key may have been re-inserted elsewhere).
    async fn get_inner(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        for attempt in 0..2 {
            let Some(h) = self.handle_for(key, attempt > 0).await else {
                return Ok(None);
            };
            match self.read_via(&h).await? {
                ReadResult::Value(v) => return Ok(Some(v)),
                ReadResult::Missing => return Ok(None),
                ReadResult::Deleted => {
                    self.uncache(key);
                    if attempt > 0 {
                        return Ok(None);
                    }
                }
            }
        }
        Ok(None)
    }

    /// `update` (§5.3.3): SWARM write to the located replicas; a write
    /// rejected by a tombstone flushes the cache, cleans the index mapping
    /// and retries once.
    async fn update_inner(&self, key: u64, value: Rc<Vec<u8>>) -> KvResult<()> {
        for attempt in 0..2 {
            let Some(h) = self.handle_for(key, attempt > 0).await else {
                return Err(KvError::NotIndexed);
            };
            match self.write_via(&h, value.clone()).await {
                Ok(()) => return Ok(()),
                Err(KvError::Deleted) => {
                    self.uncache(key);
                    if attempt > 0 {
                        // Still tombstoned through fresh state: clean up the
                        // stale mapping in the background (the deleter may
                        // have failed) — but only the generation we saw
                        // tombstoned, never a re-inserter's fresh mapping.
                        let index = self.cluster.index().clone();
                        let generation = h.generation;
                        self.cluster.sim().spawn(async move {
                            index
                                .remove_if(key, |cur| cur.generation == generation)
                                .await;
                        });
                        return Err(KvError::Deleted);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("second attempt returns")
    }

    /// `insert` (§5.3.1): allocate fresh replicas from the client's pool and
    /// replicate the value *in parallel* with the index insertion — one
    /// roundtrip in the common case. If a live mapping exists, the insert
    /// turns into an update on the existing replicas.
    async fn insert_inner(&self, key: u64, value: Rc<Vec<u8>>) -> KvResult<()> {
        // Fast path: known key -> plain update.
        if self.cache.borrow_mut().get(key).is_some()
            && self.update_inner(key, value.clone()).await.is_ok()
        {
            return Ok(());
        }
        let info = self.cluster.alloc_key(key);
        let h = self.build_handle(&info);
        let index = self.cluster.index().clone();
        let ins = index.try_insert(key, Rc::clone(&info));
        let write = self.write_via(&h, value.clone());
        let ((outcome, existing), _wrote) = join2(ins, write).await;
        match outcome {
            InsertOutcome::Inserted => {
                self.cache.borrow_mut().insert(&self.rng, key, h);
                Ok(())
            }
            InsertOutcome::Full => Err(KvError::IndexFull),
            InsertOutcome::Exists => {
                // Someone holds a mapping: write through it instead (our
                // fresh buffers stay unindexed and are recycled).
                let existing = existing.expect("Exists implies a mapping");
                let h2 = self.build_handle(&existing);
                match self.write_via(&h2, value.clone()).await {
                    Ok(()) => {
                        self.cache.borrow_mut().insert(&self.rng, key, h2);
                        Ok(())
                    }
                    Err(KvError::Deleted) => {
                        // The existing mapping is tombstoned: overwrite it
                        // with our fresh replicas (§5.3.1 "a mapping to
                        // replicas marked for deletion is overwritten").
                        self.rounds.bump();
                        index.set(key, Rc::clone(&info)).await;
                        self.cache.borrow_mut().insert(&self.rng, key, h);
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }

    /// `delete` (§5.3.2): a SWARM write of the maximum timestamp, then an
    /// asynchronous index unmap.
    async fn delete_inner(&self, key: u64) -> KvResult<()> {
        // Deletes resolve through the *index*, never the location cache: a
        // stale cached handle would tombstone a superseded replica
        // generation while the unmap below removed the current one —
        // leaving live, never-tombstoned replicas unreachable through the
        // index but writable through other clients' caches (an anomaly the
        // chaos suite caught at seed 3299909641).
        self.rounds.bump();
        let Some(info) = self.cluster.index().get(key).await else {
            self.uncache(key);
            return Err(KvError::NotFound);
        };
        let h = self.build_handle(&info);
        match &h.kind {
            HandleKind::Raw { .. } => {
                self.rounds.bump();
            }
            HandleKind::Sg(reg) => reg.write_tombstone().await,
            HandleKind::Abd(reg) => reg.write_tombstone().await,
        }
        self.uncache(key);
        // Unmap exactly the generation that was tombstoned; a concurrent
        // re-insert's fresh mapping must survive this delete.
        let index = self.cluster.index().clone();
        let generation = info.generation;
        self.cluster.sim().spawn(async move {
            index
                .remove_if(key, |cur| cur.generation == generation)
                .await;
        });
        Ok(())
    }
}

impl KvStore for KvClient {
    /// `get` (§5.3.4), bounded by the configured per-op deadline.
    async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        with_deadline(self.cluster.sim(), self.op_deadline_ns, self.get_inner(key)).await
    }

    /// `update` (§5.3.3), bounded by the configured per-op deadline.
    async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        with_deadline(
            self.cluster.sim(),
            self.op_deadline_ns,
            self.update_inner(key, Rc::new(value)),
        )
        .await
    }

    /// `insert` (§5.3.1), bounded by the configured per-op deadline.
    async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        with_deadline(
            self.cluster.sim(),
            self.op_deadline_ns,
            self.insert_inner(key, Rc::new(value)),
        )
        .await
    }

    /// `delete` (§5.3.2), bounded by the configured per-op deadline.
    async fn delete(&self, key: u64) -> KvResult<()> {
        with_deadline(
            self.cluster.sim(),
            self.op_deadline_ns,
            self.delete_inner(key),
        )
        .await
    }

    /// Ordered range read: one index roundtrip enumerates up to `limit`
    /// live keys `>= start`, then their values are fetched as one pipelined
    /// [`KvStoreExt::multi_get`] batch (so N cached keys cost roughly one
    /// quorum roundtrip, not N). Keys that vanish or fault mid-scan are
    /// dropped — a scan is best-effort per key, not a snapshot.
    async fn scan(&self, start: u64, limit: usize) -> KvResult<ScanItems> {
        with_deadline(self.cluster.sim(), self.op_deadline_ns, async move {
            self.rounds.bump();
            let keys = self.cluster.index().range_keys(start, limit).await;
            let values = self.multi_get(&keys).await;
            Ok(keys
                .into_iter()
                .zip(values)
                .filter_map(|(k, v)| match v {
                    Ok(Some(v)) => Some((k, v)),
                    _ => None,
                })
                .collect())
        })
        .await
    }

    fn rounds(&self) -> u64 {
        self.rounds.get()
    }

    fn endpoint(&self) -> Rc<Endpoint> {
        Rc::clone(&self.ep)
    }

    fn client_id(&self) -> usize {
        self.client_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, StoreBuilder, StoreClient};
    use swarm_sim::Sim;

    /// A SWARM-KV client over `keys` loaded keys, minted through the
    /// builder; the test below reaches into its private handle cache.
    fn swarm_client(sim: &Sim, keys: u64) -> Rc<KvClient> {
        let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(sim);
        cluster.load_keys(keys, |k| vec![k as u8; 64]);
        match &*cluster.client(0) {
            StoreClient::Swarm(client) => Rc::clone(client),
            StoreClient::Fusee(_) => unreachable!("SafeGuess builds a swarm client"),
        }
    }

    /// Satellite bugfix pin: a cached [`KeyHandle`] built before a repair
    /// pass must not be served after one — its cached metadata could be
    /// older than what repair replicated. The cache hit path version-checks
    /// the cluster repair mark and rebuilds the handle on mismatch.
    #[test]
    fn repair_invalidates_cached_handles() {
        let sim = Sim::new(11);
        let client = swarm_client(&sim, 4);
        sim.block_on(async move {
            let h1 = client.handle_for(3, false).await.expect("key 3 loaded");
            let h2 = client.handle_for(3, false).await.expect("key 3 cached");
            assert!(Rc::ptr_eq(&h1, &h2), "cache hit returns the same handle");

            // Anti-entropy rewrites key 3's replicas: the next resolve must
            // rebuild the handle instead of serving the stale one.
            client.cluster.note_repaired(3);
            let h3 = client.handle_for(3, false).await.expect("key 3 indexed");
            assert!(
                !Rc::ptr_eq(&h2, &h3),
                "a handle built before repair must not survive one"
            );

            // The rebuilt handle carries the new mark and is cached again.
            let h4 = client.handle_for(3, false).await.expect("key 3 cached");
            assert!(Rc::ptr_eq(&h3, &h4), "post-repair handle caches normally");

            // Other keys' handles are untouched by key 3's repair.
            let o1 = client.handle_for(1, false).await.expect("key 1 loaded");
            client.cluster.note_repaired(3);
            let h5 = client.handle_for(3, false).await.expect("key 3 indexed");
            assert!(!Rc::ptr_eq(&h4, &h5), "every repair bumps the mark");
            let o2 = client.handle_for(1, false).await.expect("key 1 cached");
            assert!(Rc::ptr_eq(&o1, &o2), "unrepaired keys keep their handle");
        });
    }
}

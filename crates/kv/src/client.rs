//! The client: all four evaluated systems behind one type.
//!
//! A [`StoreClient`] is one application thread. The type itself is the
//! protocol-independent shell — its fabric endpoint, roundtrip counter,
//! client id, the per-operation deadline and the one [`KvStore`]
//! implementation — around one of two *paths*:
//!
//! * [`SwarmPath`] (this file) resolves key locations through its LFU cache
//!   or the index (§5.2), builds per-key register handles over the
//!   cluster's In-n-Out replicas, and executes the §5.3 protocols. Its
//!   [`Proto`] selects the replication machinery: [`Proto::SafeGuess`] —
//!   SWARM-KV, Safe-Guess + timestamp locks; [`Proto::Abd`] — DM-ABD,
//!   classic ABD over the same substrate (on a cluster configured with
//!   `inplace = false, meta_bufs = 1`); [`Proto::Raw`] — RAW, unreplicated
//!   direct reads/writes with no concurrency control (the latency lower
//!   bound; "not useful in practice", §7).
//! * `FuseePath` (`fusee.rs`) is the FAST '23 comparator's roundtrip model.
//!
//! A deadline, a crash phase or a span at the operation boundary has one
//! place to land for all four systems: the `impl KvStore` below.

use std::cell::RefCell;
use std::future::Future;
use std::pin::{pin, Pin};
use std::rc::Rc;

use swarm_core::{
    Abd, HedgeConfig, Hedger, InnOutClient, InnOutHandle, InnOutReplica, MVal, MaxRegister,
    NodeHealth, QuorumClient, ReliableMaxReg, Rounds, SafeGuess, TsGuesser, TsLock, TsLocks,
    WritePath,
};
use swarm_fabric::{Endpoint, NodeId};
use swarm_sim::{
    join2, join_boxed, timeout_at, BoxFuture, FifoResource, GuessClock, Nanos, Sim, SimRng,
    TimedOut,
};

use crate::builder::{ClusterKind, StoreCluster};
use crate::cache::LfuCache;
use crate::cluster::{Cluster, KeyInfo, ROLE_CACHE, ROLE_CLOCK};
use crate::fusee::FuseePath;
use crate::index::Swap;
use crate::store::{KvError, KvResult, KvStore, ScanItems};

/// Replication protocol driven by a [`SwarmPath`]. Crate-private: it
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

/// Per-client knobs, set through the `StoreBuilder`.
#[derive(Debug, Clone)]
pub(crate) struct ClientConfig {
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

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            cache: CacheCapacity::Unbounded,
            op_deadline_ns: None,
            hedge: HedgeConfig::disabled(),
        }
    }
}

/// The per-protocol half of a client.
enum Path {
    /// RAW / SWARM-KV / DM-ABD.
    Swarm(SwarmPath),
    /// FUSEE.
    Fusee(FuseePath),
}

/// One client thread of any of the four stores.
pub struct StoreClient {
    pub(crate) sim: Sim,
    client_id: usize,
    pub(crate) ep: Rc<Endpoint>,
    pub(crate) rounds: Rounds,
    op_deadline_ns: Option<Nanos>,
    path: Path,
}

impl StoreClient {
    /// Creates client `id` of `cluster` (must be `< max_clients` for the
    /// replicated protocols), on a dedicated CPU core or sharing an
    /// existing one. A cross-shard router passes the same core to its
    /// per-shard clients so that the set models *one* application thread,
    /// not one per shard. Minted by `StoreCluster::client`.
    pub(crate) fn new(cluster: &StoreCluster, id: usize, cpu: Option<FifoResource>) -> Rc<Self> {
        let cfg = &cluster.client_cfg;
        let ep = Rc::new(match cpu {
            Some(cpu) => cluster.fabric().endpoint_with_cpu(cpu),
            None => cluster.fabric().endpoint(),
        });
        let rounds = Rounds::new();
        let path = match &cluster.kind {
            ClusterKind::Swarm(c, proto) => {
                let (ep, rounds) = (Rc::clone(&ep), rounds.clone());
                Path::Swarm(SwarmPath::new(c, *proto, id, cfg, ep, rounds))
            }
            ClusterKind::Fusee(c) => Path::Fusee(FuseePath::new(c, id, cfg)),
        };
        Rc::new(StoreClient {
            sim: cluster.sim().clone(),
            client_id: id,
            ep,
            rounds,
            op_deadline_ns: cfg.op_deadline_ns,
            path,
        })
    }

    /// Location-cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        match &self.path {
            Path::Swarm(p) => p.cache.borrow().stats(),
            Path::Fusee(p) => p.cache_stats(),
        }
    }

    /// Runs one operation under the client's deadline: on expiry it is
    /// abandoned — already-submitted messages still take effect, like a
    /// client crash mid-operation (§7.7) — and [`KvError::Timeout`] is
    /// returned. With no deadline the operation is awaited as it is. The
    /// operation is pinned in its caller's frame (`pin!`), so neither case
    /// moves or boxes it.
    async fn with_deadline<T>(
        &self,
        op: Pin<&mut impl Future<Output = KvResult<T>>>,
    ) -> KvResult<T> {
        let Some(d) = self.op_deadline_ns else {
            return op.await;
        };
        match timeout_at(&self.sim, self.sim.now() + d, op).await {
            Ok(r) => r,
            Err(TimedOut) => Err(KvError::Timeout),
        }
    }
}

impl KvStore for StoreClient {
    /// `get` (§5.3.4), bounded by the configured per-op deadline — as are
    /// the four below.
    async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        self.with_deadline(pin!(async {
            match &self.path {
                Path::Swarm(p) => p.get(self, key).await,
                Path::Fusee(p) => p.get(self, key).await,
            }
        }))
        .await
    }

    /// `update` (§5.3.3).
    async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.with_deadline(pin!(async {
            match &self.path {
                Path::Swarm(p) => p.update(self, key, Rc::new(value)).await,
                Path::Fusee(p) => p.update(self, key, value).await,
            }
        }))
        .await
    }

    /// `insert` (§5.3.1).
    async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.with_deadline(pin!(async {
            match &self.path {
                Path::Swarm(p) => p.insert(self, key, Rc::new(value)).await,
                Path::Fusee(p) => p.insert(self, key, value).await,
            }
        }))
        .await
    }

    /// `delete` (§5.3.2).
    async fn delete(&self, key: u64) -> KvResult<()> {
        self.with_deadline(pin!(async {
            match &self.path {
                Path::Swarm(p) => p.delete(self, key).await,
                Path::Fusee(p) => p.delete(self, key).await,
            }
        }))
        .await
    }

    /// Ordered range read: one index roundtrip enumerates up to `limit`
    /// live keys `>= start`, then their values are fetched by concurrent
    /// per-key `get`s (so N cached keys cost roughly one quorum roundtrip,
    /// not N). Keys that vanish or fault mid-scan are dropped — a scan is
    /// best-effort per key, not a snapshot.
    async fn scan(&self, start: u64, limit: usize) -> KvResult<ScanItems> {
        self.with_deadline(pin!(async {
            self.rounds.bump();
            let keys = match &self.path {
                Path::Swarm(p) => p.cluster.index().range_keys(start, limit).await,
                Path::Fusee(p) => p.index().range_keys(start, limit).await,
            };
            let values = join_boxed(
                keys.iter()
                    .map(|&k| Box::pin(self.get(k)) as BoxFuture<'_, _>)
                    .collect(),
            )
            .await;
            Ok(keys
                .into_iter()
                .zip(values)
                .filter_map(|(k, v)| match v {
                    Ok(Some(v)) => Some((k, v)),
                    _ => None,
                })
                .collect())
        }))
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

/// A cached per-key access handle: §5.2's location record. The paper
/// caches 24–32 B per key (the replicas' addresses plus, for SWARM-KV,
/// In-n-Out's cached metadata word). Here the addresses live once, in the
/// key's index record that every client's handle points at, and the
/// client's quorum state lives once per client; what a handle holds of its
/// own is one allocation of the words it learns per replica (the cached
/// metadata word, the next ring position, the highest stamp known stored).
/// At 3 replicas, 4 clients and 64 B values a cached handle costs at most
/// 280 B of host heap in at most 4 allocations, its cache slot and the
/// key's writer-ring table included (`tests/footprint.rs`). The key's index
/// record is `replicas().key()`; its allocation generation conditions index
/// cleanups, so a stale handle can never unmap a re-inserted key's fresh
/// mapping.
type KeyHandle = ReliableMaxReg<InnOutReplica<KeyInfo>>;

/// `TSL[w]` of one key: writer `w`'s lock is built on the slow path that
/// needs it, from the client's context and the key's lock words.
struct KeyLocks<'a> {
    client: &'a InnOutClient,
    info: &'a KeyInfo,
}

impl TsLocks for KeyLocks<'_> {
    fn lock(&self, w: usize) -> TsLock {
        let (c, q, l) = (self.client, &self.client.quorum, &self.info.layout);
        let bases = self.info.tsl_base(c.ep.fabric(), c.shape.max_writers);
        let words = bases
            .iter()
            .enumerate()
            .map(|(r, &base)| (l.node(r), base + 8 * w as u64))
            .collect();
        let (ep, health) = (Rc::clone(&c.ep), Rc::clone(&q.health));
        TsLock::new(&q.sim, ep, words, health, q.cfg, q.rounds.clone())
    }
}

/// The RAW / SWARM-KV / DM-ABD side of a [`StoreClient`]: location cache,
/// per-key register handles and the §5.3 operations. The client's endpoint,
/// roundtrip counter and id live in the [`StoreClient`] every method is
/// handed as `c`; its quorum state, endpoint and writer id once more in the
/// context all of its handles share.
struct SwarmPath {
    cluster: Cluster,
    proto: Proto,
    /// What every register handle of this client shares.
    client: Rc<InnOutClient>,
    guesser: Rc<TsGuesser>,
    cache: RefCell<LfuCache<KeyHandle>>,
    /// Stream for this client's own draws (cache-eviction sampling); the
    /// clock draws from its own sibling stream.
    rng: SimRng,
}

impl SwarmPath {
    /// The path state of client `client_id`, over its endpoint `ep` and
    /// roundtrip counter `rounds`.
    fn new(
        cluster: &Cluster,
        proto: Proto,
        client_id: usize,
        cfg: &ClientConfig,
        ep: Rc<Endpoint>,
        rounds: Rounds,
    ) -> Self {
        let cc = cluster.config();
        if proto != Proto::Raw {
            assert!(
                client_id < cc.max_clients,
                "client id beyond configured max_clients"
            );
        }
        let sim = cluster.sim();
        let health = NodeHealth::new(cc.nodes);
        cluster.membership().subscribe(Rc::clone(&health));
        // The clock and the cache each draw from their own per-client
        // stream.
        let clock = Rc::new(GuessClock::new(
            sim,
            sim.fork_rng(cc.role_label(ROLE_CLOCK, client_id)),
            cc.clock_skew_ns,
            cc.clock_drift_ppm,
            (cc.clock_skew_ns / 2).max(1),
        ));
        let guesser = Rc::new(TsGuesser::new(clock, client_id as u8));
        let cache = RefCell::new(LfuCache::new(cfg.cache.entry_limit()));
        let rng = sim.fork_rng(cc.role_label(ROLE_CACHE, client_id));
        // One hedger for all of this client's registers; `None` (the
        // default) is bit-identical to the pre-hedging code.
        let hedger = Hedger::new(cfg.hedge, cc.nodes, Some(cluster.fabric().clone()));
        let quorum = QuorumClient::new(sim, health, cc.quorum, rounds, hedger);
        SwarmPath {
            cluster: cluster.clone(),
            proto,
            client: InnOutClient::new(quorum, ep, client_id, 0, *cluster.shape(), cc.inplace),
            guesser,
            cache,
            rng,
        }
    }

    /// This client's handle on the key `info` records. Pure: draws nothing
    /// and schedules nothing.
    fn build_handle(&self, info: &Rc<KeyInfo>) -> KeyHandle {
        ReliableMaxReg::over(InnOutHandle::new(&self.client, Rc::clone(info)))
    }

    /// Resolves the handle for `key`: cache hit is free; a miss costs one
    /// index roundtrip (§7.1). `force_index` bypasses the cache (used after
    /// observing a tombstone through possibly-stale cached replicas,
    /// §5.3.3).
    async fn handle_for(&self, c: &StoreClient, key: u64, force_index: bool) -> Option<KeyHandle> {
        if !force_index {
            if let Some(h) = self.cache.borrow_mut().get(key) {
                return Some(h.clone());
            }
        }
        c.rounds.bump();
        let info = self.cluster.index().get(key).await?;
        let h = self.build_handle(&info);
        self.cache.borrow_mut().insert(&self.rng, key, h.clone());
        Some(h)
    }

    fn uncache(&self, key: u64) {
        self.cache.borrow_mut().remove(key);
    }

    /// SWARM-KV's register over `h`, for one operation.
    fn safe_guess<'a>(&'a self, h: &'a KeyHandle) -> SafeGuess<KeyHandle, KeyLocks<'a>> {
        let locks = KeyLocks {
            client: &self.client,
            info: h.replicas().key(),
        };
        let rounds = self.client.quorum.rounds.clone();
        SafeGuess::new(h.clone(), locks, Rc::clone(&self.guesser), rounds)
    }

    /// DM-ABD's register over `h`, for one operation.
    fn abd(&self, h: &KeyHandle) -> Abd<KeyHandle> {
        Abd::new(h.clone(), self.client.writer as u8)
    }

    /// RAW's one copy of `h`'s key: the in-place region of replica 0.
    fn raw_addr(&self, h: &KeyHandle) -> (NodeId, u64) {
        let l = &h.replicas().key().layout;
        (l.node(0), l.inplace_addr(self.cluster.shape()))
    }

    /// Writes through `h`. `Err(Deleted)` if a tombstone rejected the
    /// write; `Err(Timeout)` if the unreplicated RAW node stopped answering.
    /// The payload arrives `Rc`-shared: retries and replica fan-out bump a
    /// refcount instead of deep-copying the value.
    async fn write(&self, c: &StoreClient, h: &KeyHandle, value: Rc<Vec<u8>>) -> KvResult<()> {
        match self.proto {
            Proto::Raw => {
                c.rounds.bump();
                let (node, addr) = self.raw_addr(h);
                c.ep.write(node, addr, value).await.ok_or(KvError::Timeout)
            }
            Proto::SafeGuess => match self.safe_guess(h).write(value).await {
                WritePath::Deleted => Err(KvError::Deleted),
                _ => Ok(()),
            },
            Proto::Abd => {
                if self.abd(h).write(value).await {
                    Ok(())
                } else {
                    Err(KvError::Deleted)
                }
            }
        }
    }

    async fn read(&self, c: &StoreClient, h: &KeyHandle) -> KvResult<ReadResult> {
        let v = match self.proto {
            Proto::Raw => {
                c.rounds.bump();
                let (node, addr) = self.raw_addr(h);
                return match c
                    .ep
                    .read(node, addr, self.cluster.config().value_size)
                    .await
                {
                    Some(bytes) => Ok(ReadResult::Value(Rc::new(bytes))),
                    None => Err(KvError::Timeout),
                };
            }
            Proto::SafeGuess => self.safe_guess(h).read().await.value,
            Proto::Abd => self.abd(h).read().await,
        };
        Ok(if v.is_tombstone() {
            ReadResult::Deleted
        } else if v.is_initial() {
            ReadResult::Missing
        } else {
            ReadResult::Value(v.into_value())
        })
    }
}

/// The index expectation "the key still maps to allocation `generation`".
fn holds(generation: u64) -> impl FnOnce(Option<&Rc<KeyInfo>>) -> bool {
    move |cur| cur.is_some_and(|cur| cur.generation == generation)
}

enum ReadResult {
    Value(Rc<Vec<u8>>),
    Deleted,
    Missing,
}

impl SwarmPath {
    /// `get` (§5.3.4): locate replicas (cache or index), SWARM read. A
    /// tombstone through a cached handle flushes the cache and retries once
    /// through the index (the key may have been re-inserted elsewhere).
    async fn get(&self, c: &StoreClient, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        for attempt in 0..2 {
            let Some(h) = self.handle_for(c, key, attempt > 0).await else {
                return Ok(None);
            };
            match self.read(c, &h).await? {
                ReadResult::Value(v) => return Ok(Some(v)),
                ReadResult::Missing => return Ok(None),
                ReadResult::Deleted => self.uncache(key),
            }
        }
        Ok(None)
    }

    /// `update` (§5.3.3): SWARM write to the located replicas; a write
    /// rejected by a tombstone flushes the cache, cleans the index mapping
    /// and retries once.
    async fn update(&self, c: &StoreClient, key: u64, value: Rc<Vec<u8>>) -> KvResult<()> {
        let mut through_index = false;
        loop {
            let Some(h) = self.handle_for(c, key, through_index).await else {
                return Err(KvError::NotIndexed);
            };
            let settled = self.write(c, &h, value.clone()).await;
            if settled != Err(KvError::Deleted) {
                return settled;
            }
            self.uncache(key);
            if through_index {
                // Still tombstoned through fresh state: clean up the stale
                // mapping in the background (the deleter may have failed) —
                // but only the generation we saw tombstoned, never a
                // re-inserter's fresh mapping.
                self.unmap_generation(key, h.replicas().key().generation);
                return settled;
            }
            through_index = true;
        }
    }

    /// Unmaps `key` in the background if the index still holds allocation
    /// `generation` of it. The task holds no hedge ticket and ends after its
    /// one index roundtrip.
    fn unmap_generation(&self, key: u64, generation: u64) {
        let index = self.cluster.index().clone();
        self.cluster.sim().spawn(async move {
            index.swap(key, holds(generation), None).await;
        });
    }

    /// `insert` (§5.3.1): allocate fresh replicas from the client's pool and
    /// replicate the value *in parallel* with the index insertion — one
    /// roundtrip in the common case. If a live mapping exists, the insert
    /// turns into an update on the existing replicas.
    async fn insert(&self, c: &StoreClient, key: u64, value: Rc<Vec<u8>>) -> KvResult<()> {
        // Fast path: known key -> plain update.
        if self.cache.borrow_mut().get(key).is_some()
            && self.update(c, key, value.clone()).await.is_ok()
        {
            return Ok(());
        }
        let info = self.cluster.alloc_key(key);
        let h = self.build_handle(&info);
        let index = self.cluster.index();
        let ins = index.swap(key, |cur| cur.is_none(), Some(Rc::clone(&info)));
        let write = self.write(c, &h, value.clone());
        let (outcome, _wrote) = join2(ins, write).await;
        let existing = match outcome {
            Swap::Done => {
                self.cache.borrow_mut().insert(&self.rng, key, h);
                return Ok(());
            }
            Swap::Full => return Err(KvError::IndexFull),
            Swap::Refused(existing) => existing,
        };
        // Someone holds a mapping: write through it instead (our fresh
        // buffers stay unindexed and are recycled).
        if let Some(existing) = existing {
            let h2 = self.build_handle(&existing);
            let settled = self.write(c, &h2, value.clone()).await;
            if settled != Err(KvError::Deleted) {
                if settled.is_ok() {
                    self.cache.borrow_mut().insert(&self.rng, key, h2);
                }
                return settled;
            }
            // The existing mapping is tombstoned: overwrite exactly that
            // generation with our fresh replicas (§5.3.1 "a mapping to
            // replicas marked for deletion is overwritten").
            c.rounds.bump();
            let seen = holds(existing.generation);
            if let Swap::Done = index.swap(key, seen, Some(Rc::clone(&info))).await {
                self.cache.borrow_mut().insert(&self.rng, key, h);
                return Ok(());
            }
        }
        // Another client changed the mapping first: its generation stands,
        // and the insert becomes an update through whatever is mapped now.
        self.update(c, key, value).await
    }

    /// `delete` (§5.3.2): a SWARM write of the maximum timestamp, then an
    /// asynchronous index unmap.
    async fn delete(&self, c: &StoreClient, key: u64) -> KvResult<()> {
        // Deletes resolve through the *index*, never the location cache: a
        // stale cached handle would tombstone a superseded replica
        // generation while the unmap below removed the current one —
        // leaving live, never-tombstoned replicas unreachable through the
        // index but writable through other clients' caches (an anomaly the
        // chaos suite caught at seed 3299909641).
        c.rounds.bump();
        let Some(info) = self.cluster.index().get(key).await else {
            self.uncache(key);
            return Err(KvError::NotFound);
        };
        match self.proto {
            Proto::Raw => c.rounds.bump(),
            // Both replicated protocols write the tombstone straight into
            // the max register (§5.3.2).
            Proto::SafeGuess | Proto::Abd => {
                self.build_handle(&info).write(MVal::tombstone()).await
            }
        }
        self.uncache(key);
        // Unmap exactly the generation that was tombstoned; a concurrent
        // re-insert's fresh mapping must survive this delete.
        self.unmap_generation(key, info.generation);
        Ok(())
    }
}

#[cfg(test)]
impl StoreClient {
    /// The FUSEE path of a client known to be FUSEE's (unit tests reach
    /// the paths' private state through these two).
    pub(crate) fn fusee_path(&self) -> &FuseePath {
        match &self.path {
            Path::Fusee(p) => p,
            Path::Swarm(_) => panic!("not a FUSEE client"),
        }
    }

    fn swarm_path(&self) -> &SwarmPath {
        match &self.path {
            Path::Swarm(p) => p,
            Path::Fusee(_) => panic!("a FUSEE client"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, StoreBuilder};

    /// A SWARM-KV client over `keys` loaded keys, minted through the
    /// builder; the test below reaches into its private handle cache.
    fn swarm_client(sim: &Sim, keys: u64) -> Rc<StoreClient> {
        let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(sim);
        cluster.load_keys(keys, |k| vec![k as u8; 64]);
        cluster.client(0)
    }

    /// A cache hit returns the handle the miss built, not a rebuilt one.
    #[test]
    fn a_cache_hit_returns_the_same_handle() {
        let sim = Sim::new(11);
        let client = swarm_client(&sim, 4);
        sim.block_on(async move {
            let (c, path) = (&*client, client.swarm_path());
            let h1 = path.handle_for(c, 3, false).await.expect("key 3 loaded");
            let h2 = path.handle_for(c, 3, false).await.expect("key 3 cached");
            assert!(
                Rc::ptr_eq(h1.replicas(), h2.replicas()),
                "cache hit returns the same handle"
            );
        });
    }
}

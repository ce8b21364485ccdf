//! Keyspace sharding: many independent replica groups behind one store.
//!
//! The paper evaluates one replica group; production-scale keyspaces are
//! *partitioned*. A [`ShardedCluster`] stands up N completely independent
//! [`StoreCluster`]s — each with its own fabric, index, membership, and
//! replica groups, any [`Protocol`] — on one simulation, and a
//! [`ShardRouter`] client routes every operation to the shard that owns its
//! key via the stateless hash mapping in [`ShardSpec`].
//!
//! # Shard independence
//!
//! Shards share nothing but the simulation clock. Each shard's fabric,
//! index, clocks, and caches draw from *private* RNG streams forked from
//! `(simulation seed, shard label)` (see `swarm_sim::SimRng`), so what
//! happens on one shard — extra retries, a fault plan's message drops, a
//! crashed node — cannot perturb another shard's execution. Traffic that
//! touches only shard `s` replays bit-identically whatever fault plan is
//! applied to shard `t != s`; the chaos suite asserts exactly that.
//!
//! # Routing
//!
//! [`ShardSpec::shard_of`] hashes the key id (workload key ids are already
//! hash-scrambled, but routing re-hashes so the mapping is independent of
//! the workload's scramble) and reduces modulo the shard count. The mapping
//! is a pure function of `(key, shard count)`: stable across runs, seeds,
//! and processes. A [`ShardRouter`] holds one per-shard client minted with a
//! **shared CPU core**, so a router models one application thread that
//! happens to talk to many shards — not one thread per shard.
//!
//! Batched multi-key operations are the blanket [`crate::KvStoreExt`]
//! ones: every element routes like a single-key op (absorbing
//! [`KvError::WrongShard`] bounces), all elements fly concurrently, and
//! results come back in input order.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use swarm_fabric::{Endpoint, TrafficStats};
use swarm_sim::{join_boxed, BoxFuture, FifoResource, Sim};

use crate::builder::{Protocol, StoreClient, StoreCluster};
use crate::cluster::derive_label;
use crate::reshard::ShardMap;
use crate::store::{KvError, KvResult, KvStore, ScanItems};

/// Base label the per-shard RNG streams are derived from (see
/// `ClusterConfig::rng_label`).
const SHARD_RNG_BASE: u64 = 0x5A4D_5348_4152_4421;

/// Seed of the key→shard routing hash. Changing it reshuffles every
/// sharded keyspace; tests pin the resulting mapping.
const SHARD_HASH_SEED: u64 = 0x0053_4841_5244;

/// [`KvError::WrongShard`] bounces a router absorbs per operation before
/// giving up. Each bounce refreshes the cached routing table from the
/// router's map source, so exhausting the cap means the authority kept
/// moving ownership between every refresh and retry — at that point the op
/// surfaces [`KvError::Timeout`] instead of spinning forever.
const MAX_WRONG_SHARD_RETRIES: usize = 8;

/// The keyspace partitioning: shard count plus the stateless hash-based
/// key→shard mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    shards: usize,
}

impl ShardSpec {
    /// A spec over `shards` shards (`shards >= 1`).
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a cluster has at least one shard");
        ShardSpec { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: a pure function of `(key, shard count)` —
    /// stable across runs, seeds, and thread counts.
    pub fn shard_of(&self, key: u64) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (swarm_core::xxh64(&key.to_le_bytes(), SHARD_HASH_SEED) % self.shards as u64) as usize
    }

    /// The RNG label shard `s` (and everything built under it) forks its
    /// private streams from.
    pub(crate) fn rng_label(&self, s: usize) -> u64 {
        derive_label(SHARD_RNG_BASE, s as u64, self.shards as u64)
    }
}

/// N independent [`StoreCluster`]s (one per shard) on one simulation,
/// with the [`ShardSpec`] that partitions the keyspace across them.
/// Cheaply cloneable. Built by `StoreBuilder::shards(n)` +
/// `StoreBuilder::build_sharded`.
#[derive(Clone)]
pub struct ShardedCluster {
    sim: Sim,
    spec: ShardSpec,
    shards: Vec<StoreCluster>,
    protocol: Protocol,
}

impl ShardedCluster {
    pub(crate) fn from_shards(sim: &Sim, spec: ShardSpec, shards: Vec<StoreCluster>) -> Self {
        assert_eq!(spec.shards(), shards.len());
        let protocol = shards[0].protocol();
        ShardedCluster {
            sim: sim.clone(),
            spec,
            shards,
            protocol,
        }
    }

    /// The keyspace partitioning.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The protocol every shard runs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.spec.shards()
    }

    /// Shard `s`'s cluster (its own fabric, index, membership): the handle
    /// for per-shard inspection and fault injection —
    /// `cluster.shard(s).fabric().apply_fault_plan(..)` faults one shard
    /// without touching the others.
    pub fn shard(&self, s: usize) -> &StoreCluster {
        &self.shards[s]
    }

    /// All shards, in shard order.
    pub fn shards(&self) -> &[StoreCluster] {
        &self.shards
    }

    /// The shard cluster owning `key`.
    pub fn shard_for(&self, key: u64) -> &StoreCluster {
        &self.shards[self.spec.shard_of(key)]
    }

    /// The simulation driving every shard.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Bulk-loads `key = value` into its owning shard (control plane).
    pub fn load_key(&self, key: u64, value: &[u8]) {
        self.shard_for(key).load_key(key, value);
    }

    /// Bulk-loads keys `0..n` with `make_value(key)` payloads, each into
    /// its owning shard.
    pub fn load_keys(&self, n: u64, mut make_value: impl FnMut(u64) -> Vec<u8>) {
        for key in 0..n {
            self.load_key(key, &make_value(key));
        }
    }

    /// Creates router `id`: one application thread with a client on every
    /// shard, all sharing a single CPU core.
    pub fn router(&self, id: usize) -> Rc<ShardRouter> {
        let cpu = FifoResource::new(&self.sim);
        let clients = self
            .shards
            .iter()
            .map(|c| c.client_with_cpu(id, cpu.clone()))
            .collect();
        Rc::new(ShardRouter {
            spec: self.spec,
            map: RefCell::new(ShardMap::base(self.spec)),
            map_source: RefCell::new(None),
            wrong_shard_bounces: Cell::new(0),
            clients,
            client_id: id,
            routed: vec![Cell::new(0); self.spec.shards()],
        })
    }

    /// Creates routers `0..n`.
    pub fn routers(&self, n: usize) -> Vec<Rc<ShardRouter>> {
        (0..n).map(|i| self.router(i)).collect()
    }

    /// Aggregate fabric traffic across all shards.
    pub fn stats(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for s in self.per_shard_stats() {
            total += s;
        }
        total
    }

    /// Per-shard fabric traffic, in shard order (the load-imbalance view).
    pub fn per_shard_stats(&self) -> Vec<TrafficStats> {
        self.shards.iter().map(|c| c.fabric().stats()).collect()
    }
}

/// One application thread of a sharded store: implements [`KvStore`] by
/// routing each operation to the shard that owns its key.
pub struct ShardRouter {
    spec: ShardSpec,
    /// The generation-stamped routing table (see `crate::reshard`). A
    /// static sharded cluster holds the epoch-0 base map, whose ownership
    /// is bit-for-bit [`ShardSpec::shard_of`]; elastic handoffs refine it.
    map: RefCell<ShardMap>,
    /// Where a [`KvError::WrongShard`] bounce refreshes the cached map
    /// from (`None` on a static cluster: nothing ever moves, so the map
    /// can only be refreshed to itself).
    map_source: RefCell<Option<Rc<dyn Fn() -> ShardMap>>>,
    /// [`KvError::WrongShard`] bounces absorbed (each one refreshed the
    /// map and retried).
    wrong_shard_bounces: Cell<u64>,
    /// One client per shard, all sharing this router's CPU core.
    clients: Vec<Rc<StoreClient>>,
    client_id: usize,
    /// Operations routed to each shard (the per-shard load counters the
    /// scale bench reports imbalance from).
    routed: Vec<Cell<u64>>,
}

impl ShardRouter {
    /// The keyspace partitioning this router routes by.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The routing table this router resolves owners against (epoch 0 for
    /// a static cluster).
    pub fn map(&self) -> ShardMap {
        self.map.borrow().clone()
    }

    /// Installs the authority a [`KvError::WrongShard`] bounce refreshes
    /// the cached routing table from (e.g. a control-plane lookup). Without
    /// one, bounces still count and retry, but against the same stale map.
    pub fn set_map_source(&self, source: Option<Rc<dyn Fn() -> ShardMap>>) {
        *self.map_source.borrow_mut() = source;
    }

    /// [`KvError::WrongShard`] bounces this router has absorbed.
    pub fn wrong_shard_bounces(&self) -> u64 {
        self.wrong_shard_bounces.get()
    }

    /// The per-shard client for shard `s` (escape hatch).
    pub fn shard_client(&self, s: usize) -> &Rc<StoreClient> {
        &self.clients[s]
    }

    /// Operations this router has routed to each shard, in shard order.
    pub fn routed_per_shard(&self) -> Vec<u64> {
        self.routed.iter().map(Cell::get).collect()
    }

    /// Aggregate location-cache `(hits, misses)` across the per-shard
    /// clients.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.clients.iter().fold((0, 0), |(h, m), c| {
            let (ch, cm) = c.cache_stats();
            (h + ch, m + cm)
        })
    }

    fn route(&self, key: u64) -> Rc<StoreClient> {
        let s = self.map.borrow().owner_of(key);
        self.routed[s].set(self.routed[s].get() + 1);
        Rc::clone(&self.clients[s])
    }

    /// One absorbed bounce: count it and refresh the cached map from the
    /// authority (when one is installed).
    fn bounce(&self) {
        self.wrong_shard_bounces
            .set(self.wrong_shard_bounces.get() + 1);
        if let Some(source) = self.map_source.borrow().clone() {
            *self.map.borrow_mut() = source();
        }
    }

    /// Runs `attempt` against `key`'s current owner, absorbing
    /// [`KvError::WrongShard`] bounces: each one refreshes the routing
    /// table and re-resolves, at most [`MAX_WRONG_SHARD_RETRIES`] times.
    /// Past the cap the op surfaces [`KvError::Timeout`] — a router must
    /// never spin unboundedly against an authority that keeps resealing.
    async fn bounded_wrong_shard<T, F, Fut>(&self, key: u64, mut attempt: F) -> KvResult<T>
    where
        F: FnMut(Rc<StoreClient>) -> Fut,
        Fut: Future<Output = KvResult<T>>,
    {
        for _ in 0..MAX_WRONG_SHARD_RETRIES {
            match attempt(self.route(key)).await {
                Err(KvError::WrongShard { .. }) => self.bounce(),
                r => return r,
            }
        }
        Err(KvError::Timeout)
    }
}

impl KvStore for ShardRouter {
    async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        self.bounded_wrong_shard(key, |c| async move { c.get(key).await })
            .await
    }

    async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.bounded_wrong_shard(key, |c| {
            let value = value.clone();
            async move { c.update(key, value).await }
        })
        .await
    }

    async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.bounded_wrong_shard(key, |c| {
            let value = value.clone();
            async move { c.insert(key, value).await }
        })
        .await
    }

    async fn delete(&self, key: u64) -> KvResult<()> {
        self.bounded_wrong_shard(key, |c| async move { c.delete(key).await })
            .await
    }

    /// Shard-fanout range read: every shard owns a hash-scattered slice of
    /// the keyspace, so a range `[start, start+limit)` can live anywhere —
    /// the router scans *all* shards concurrently (each shard's index walk
    /// is ordered), merges the per-shard results by key, and truncates to
    /// `limit`. Per-shard errors propagate; routing counters tick once per
    /// shard scanned.
    async fn scan(&self, start: u64, limit: usize) -> KvResult<ScanItems> {
        let futs: Vec<BoxFuture<'_, KvResult<ScanItems>>> = self
            .clients
            .iter()
            .enumerate()
            .map(|(s, client)| {
                self.routed[s].set(self.routed[s].get() + 1);
                let client = Rc::clone(client);
                Box::pin(async move { client.scan(start, limit).await }) as BoxFuture<'_, _>
            })
            .collect();
        let mut merged = Vec::new();
        for shard_result in join_boxed(futs).await {
            merged.extend(shard_result?);
        }
        merged.sort_unstable_by_key(|&(k, _)| k);
        merged.truncate(limit);
        Ok(merged)
    }

    fn rounds(&self) -> u64 {
        self.clients.iter().map(|c| c.rounds()).sum()
    }

    fn endpoint(&self) -> Rc<Endpoint> {
        // The shard-0 endpoint stands in for "this application thread":
        // every per-shard endpoint shares the router's one CPU core, so
        // charging client-side work here occupies the same core the
        // per-shard submissions serialize on.
        self.clients[0].endpoint()
    }

    fn client_id(&self) -> usize {
        self.client_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_mapping_is_total_and_stable() {
        let spec = ShardSpec::new(4);
        let spec2 = ShardSpec::new(4);
        let mut seen = [0u64; 4];
        for key in 0..4096 {
            let s = spec.shard_of(key);
            assert!(s < 4);
            assert_eq!(s, spec2.shard_of(key), "mapping must be stateless");
            seen[s] += 1;
        }
        // A hash split of 4096 keys over 4 shards is near-even.
        for (s, &n) in seen.iter().enumerate() {
            assert!((824..=1224).contains(&n), "shard {s} owns {n} of 4096 keys");
        }
    }

    #[test]
    fn shard_mapping_matches_pinned_goldens() {
        // The key→shard hash is part of the persistent layout contract: a
        // sharded deployment reloaded under a new binary must route every
        // key to the shard that owns its data. These values pin the
        // mapping; if this test fails, the routing hash changed and every
        // sharded keyspace would reshuffle.
        let spec4 = ShardSpec::new(4);
        let spec16 = ShardSpec::new(16);
        let golden4: Vec<usize> = (0..16).map(|k| spec4.shard_of(k)).collect();
        let golden16: Vec<usize> = (0..16).map(|k| spec16.shard_of(k)).collect();
        assert_eq!(
            golden4,
            vec![2, 1, 2, 1, 3, 2, 3, 0, 1, 2, 0, 0, 0, 3, 3, 0]
        );
        assert_eq!(
            golden16,
            vec![6, 5, 6, 9, 3, 10, 3, 12, 5, 10, 4, 12, 12, 15, 11, 0]
        );
        assert_eq!(spec4.shard_of(u64::MAX), 2);
        assert_eq!(spec16.shard_of(1 << 20), 11);
        // The epoch-0 routing table must reproduce the stateless mapping
        // bit for bit — upgrading routers from raw `shard_of` lookups to
        // `ShardMap::owner_of` reshuffles nothing on a static cluster.
        let map4 = ShardMap::base(spec4);
        let map16 = ShardMap::base(spec16);
        assert_eq!(map4.epoch(), 0);
        assert_eq!(map16.epoch(), 0);
        let map_golden4: Vec<usize> = (0..16).map(|k| map4.owner_of(k)).collect();
        let map_golden16: Vec<usize> = (0..16).map(|k| map16.owner_of(k)).collect();
        assert_eq!(map_golden4, golden4);
        assert_eq!(map_golden16, golden16);
        for key in (0..4096).chain([u64::MAX, 1 << 20, 0xDEAD_BEEF]) {
            assert_eq!(map4.owner_of(key), spec4.shard_of(key), "key {key}");
            assert_eq!(map16.owner_of(key), spec16.shard_of(key), "key {key}");
        }
    }

    #[test]
    fn single_shard_spec_maps_everything_to_zero() {
        let spec = ShardSpec::new(1);
        for key in [0, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(spec.shard_of(key), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        ShardSpec::new(0);
    }

    fn test_router(sim: &Sim) -> Rc<ShardRouter> {
        crate::StoreBuilder::new(Protocol::SafeGuess)
            .value_size(64)
            .max_clients(1)
            .shards(2)
            .build_sharded(sim)
            .router(0)
    }

    #[test]
    fn wrong_shard_bounces_refresh_the_map_then_succeed() {
        let sim = Sim::new(31);
        let router = test_router(&sim);
        // An authority whose map moves once: after a refresh, attempts
        // against the "new" epoch succeed.
        let refreshed = Rc::new(Cell::new(0u64));
        let src = Rc::clone(&refreshed);
        router.set_map_source(Some(Rc::new(move || {
            src.set(src.get() + 1);
            let mut m = ShardMap::base(ShardSpec::new(2));
            m.assign(0, 0x8000, 0xFFFF, 1);
            m
        })));
        let r2 = Rc::clone(&router);
        let got = sim.block_on(async move {
            let mut failures = 3;
            r2.bounded_wrong_shard(7, |_| {
                let attempt_fails = failures > 0;
                failures -= 1;
                async move {
                    if attempt_fails {
                        Err(KvError::WrongShard { epoch: 1 })
                    } else {
                        Ok(42u64)
                    }
                }
            })
            .await
        });
        assert_eq!(got, Ok(42));
        assert_eq!(router.wrong_shard_bounces(), 3);
        assert_eq!(refreshed.get(), 3, "every bounce refreshes from the source");
        assert_eq!(
            router.map().epoch(),
            1,
            "the refreshed map is the cached one"
        );
    }

    #[test]
    fn wrong_shard_retries_are_bounded_and_surface_timeout() {
        let sim = Sim::new(32);
        let router = test_router(&sim);
        let attempts = Rc::new(Cell::new(0u64));
        let a2 = Rc::clone(&attempts);
        let r2 = Rc::clone(&router);
        // An authority that keeps moving ownership: every attempt bounces.
        // The router must give up instead of spinning forever.
        let got: KvResult<()> = sim.block_on(async move {
            r2.bounded_wrong_shard(7, |_| {
                a2.set(a2.get() + 1);
                async { Err(KvError::WrongShard { epoch: 9 }) }
            })
            .await
        });
        assert_eq!(got, Err(KvError::Timeout));
        assert_eq!(attempts.get(), MAX_WRONG_SHARD_RETRIES as u64);
        assert_eq!(router.wrong_shard_bounces(), MAX_WRONG_SHARD_RETRIES as u64);
    }

    #[test]
    fn non_bounce_errors_pass_through_without_retry() {
        let sim = Sim::new(33);
        let router = test_router(&sim);
        let attempts = Rc::new(Cell::new(0u64));
        let a2 = Rc::clone(&attempts);
        let r2 = Rc::clone(&router);
        let got: KvResult<()> = sim.block_on(async move {
            r2.bounded_wrong_shard(7, |_| {
                a2.set(a2.get() + 1);
                async { Err(KvError::NotFound) }
            })
            .await
        });
        assert_eq!(got, Err(KvError::NotFound));
        assert_eq!(attempts.get(), 1, "only WrongShard retries");
        assert_eq!(router.wrong_shard_bounces(), 0);
    }
}

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
//! The layout is fixed at build time: a key's shard never changes, so a
//! router never needs to re-resolve one.

use std::cell::Cell;
use std::rc::Rc;

use swarm_fabric::{Endpoint, TrafficStats};
use swarm_sim::{join_boxed, BoxFuture, FifoResource, Sim};

use crate::builder::{Protocol, StoreCluster};
use crate::client::StoreClient;
use crate::cluster::derive_label;
use crate::store::{KvResult, KvStore, ScanItems};

/// Base label the per-shard RNG streams are derived from (see
/// `ClusterConfig::rng_label`).
const SHARD_RNG_BASE: u64 = 0x5A4D_5348_4152_4421;

/// Seed of the key→shard routing hash. Changing it reshuffles every
/// sharded keyspace; tests pin the resulting mapping.
const SHARD_HASH_SEED: u64 = 0x0053_4841_5244;

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

    /// `key`'s owning shard's client; counts the routed op.
    fn route(&self, key: u64) -> &StoreClient {
        let s = self.spec.shard_of(key);
        self.routed[s].set(self.routed[s].get() + 1);
        &self.clients[s]
    }
}

impl KvStore for ShardRouter {
    async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        self.route(key).get(key).await
    }

    async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.route(key).update(key, value).await
    }

    async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.route(key).insert(key, value).await
    }

    async fn delete(&self, key: u64) -> KvResult<()> {
        self.route(key).delete(key).await
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

    /// A router is one client: its per-shard clients share one core and
    /// one op stream, so spreading a closed-loop client's ops over more
    /// shards does not buy it throughput. At one op in flight that pins the
    /// op stream; at four the shared core too (a core per shard client
    /// reads 1.33x here).
    #[test]
    fn a_router_is_one_client_whatever_the_shard_count() {
        use swarm_workload::{Workload, WorkloadSpec, Zipfian};
        let throughput = |shards: usize, concurrency: usize| {
            let sim = Sim::new(48);
            let cluster = crate::StoreBuilder::new(Protocol::SafeGuess)
                .value_size(64)
                .max_clients(2)
                .shards(shards)
                .build_sharded(&sim);
            let mut wl = Workload::ycsb(WorkloadSpec::C, 512, 64);
            wl.keys = Zipfian::uniform(512);
            cluster.load_keys(512, |k| wl.value_for(k, 0));
            let cfg = crate::RunConfig {
                warmup_ops: 200,
                measure_ops: 2_000,
                concurrency,
                ..Default::default()
            };
            crate::run_workload(&sim, &cluster.routers(2), &wl, &cfg).throughput_ops()
        };
        for concurrency in [1, 4] {
            let (one, four) = (throughput(1, concurrency), throughput(4, concurrency));
            assert!(
                four <= 1.05 * one,
                "2 routers at concurrency {concurrency}: {four:.0} ops/s on 4 shards \
                 against {one:.0} on 1"
            );
        }
    }

    #[test]
    fn non_bounce_errors_pass_through_without_retry() {
        // A static router makes exactly one attempt, on the owning shard,
        // and hands that shard client's answer back — errors included.
        let sim = Sim::new(33);
        let cluster = crate::StoreBuilder::new(Protocol::SafeGuess)
            .value_size(64)
            .max_clients(1)
            .shards(2)
            .build_sharded(&sim);
        let router = cluster.router(0);
        let key = 7;
        let r2 = Rc::clone(&router);
        let got = sim.block_on(async move { r2.update(key, vec![0u8; 64]).await });
        assert_eq!(got, Err(crate::KvError::NotIndexed), "never inserted");
        let mut routed = vec![0; 2];
        routed[cluster.spec().shard_of(key)] = 1;
        assert_eq!(router.routed_per_shard(), routed, "one attempt, no retry");
    }
}

//! FUSEE-like baseline (FAST '23): a synchronously replicated disaggregated
//! KV modeled at the roundtrip level the paper measures.
//!
//! FUSEE is a closed comparator here, so this is a *model*, faithful to the
//! behavior SWARM's evaluation reports (§7.1, Table 2, Table 3):
//!
//! * **updates** take 4 sequential roundtrips — write the new out-of-place
//!   block to ALL replicas, CAS the primary index pointer, propagate to the
//!   backup pointer, and a read-back/validation round; conflicting updates
//!   on hot keys pay a 5th roundtrip for the pointer-CAS retry.
//! * **gets** run in 1 roundtrip when the client's cached pointer is still
//!   current, and 2 roundtrips otherwise (index lookup then data read); a
//!   stale cached pointer additionally *wastes* one data-read's bandwidth
//!   (§7.6 reports 13% wasted optimistic gets). Staleness detection stands
//!   in for FUSEE's self-verifying reads: the model consults the key's
//!   committed version, exactly what FUSEE's embedded checks reveal.
//! * **replication factor**: synchronous replication tolerates 1 failure
//!   with only 2 replicas (Table 3).
//! * **failures**: recovery requires detecting the crash and running a
//!   multi-phase ownership transfer; the paper cites tens of milliseconds of
//!   unavailability (§7.7). The model has no recovery: a crashed replica
//!   surfaces as `KvError::Timeout`.
//! * **inserts and deletes** change the index mapping unconditionally
//!   (`Index::swap` expecting anything): an insert installs a fresh
//!   allocation over whatever is mapped, a delete unmaps it. The model has no
//!   tombstones, so a client with a cached pointer keeps reading the old
//!   blocks; this is outside the checked model — the chaos suites run FUSEE
//!   on preloaded keys only (`full_mix` off), as the paper evaluates it.
//!
//! The cluster runs on the same [`ClusterConfig`] as the other three
//! systems (nodes, value size, fabric, index capacity, RNG label); what is
//! FUSEE's own is the four constants below. The client side is
//! [`FuseePath`], one of the two paths behind `StoreClient`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use swarm_core::{Hedger, QuorumRound};
use swarm_fabric::{Fabric, NodeId, Op, Payload};
use swarm_sim::{join_boxed, BoxFuture, Nanos, Sim, SimRng};

use crate::cache::LfuCache;
use crate::client::{ClientConfig, StoreClient};
use crate::cluster::{land, substrate, ClusterConfig, ROLE_CACHE};
use crate::index::{Index, Swap};
use crate::store::{KvError, KvResult};

/// Replicas per key: 2 suffice for 1 failure under synchronous replication.
const REPLICAS: usize = 2;
/// Out-of-place blocks in a key's ring on each replica.
const RING: u64 = 4;
/// Client-side work per get (self-verifying reconstruction + checksum):
/// FUSEE's 1-RTT gets measure 2.9 µs vs RAW's 1.9 µs (§7.1).
const GET_OVERHEAD_NS: Nanos = 800;
/// Client-side work per update (CRC + multi-WQE preparation per phase).
const UPDATE_OVERHEAD_NS: Nanos = 1_300;

/// Per-key state: replica block rings + the two pointer words.
pub struct FuseeKeyInfo {
    /// The key.
    pub key: u64,
    /// Replica nodes.
    pub replica_nodes: Vec<NodeId>,
    /// Base address of the block ring on each replica.
    pub ring_base: Vec<u64>,
    /// `(node, addr)` of the primary index-pointer word.
    pub ptr_primary: (NodeId, u64),
    /// `(node, addr)` of the backup pointer word.
    pub ptr_backup: (NodeId, u64),
    /// Committed version (the model's stand-in for FUSEE's self-verifying
    /// pointer checks).
    pub version: Cell<u64>,
}

struct ClusterInner {
    sim: Sim,
    fabric: Fabric,
    cfg: ClusterConfig,
    index: Index<Rc<FuseeKeyInfo>>,
}

/// A FUSEE cluster (own fabric + index).
#[derive(Clone)]
pub struct FuseeCluster {
    inner: Rc<ClusterInner>,
}

impl FuseeCluster {
    /// Creates the cluster: `cfg`'s nodes, value size, fabric, index
    /// capacity and RNG label; its replication knobs are the other three
    /// systems' and are not read.
    pub fn new(sim: &Sim, cfg: ClusterConfig) -> Self {
        let (fabric, index) = substrate(sim, &cfg);
        FuseeCluster {
            inner: Rc::new(ClusterInner {
                sim: sim.clone(),
                fabric,
                index,
                cfg,
            }),
        }
    }

    /// The fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// The simulation.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.cfg
    }

    fn block_len(&self) -> u64 {
        // [version 8 | value].
        8 + self.inner.cfg.value_size as u64
    }

    /// Allocates per-key state (control plane).
    pub fn alloc_key(&self, key: u64) -> Rc<FuseeKeyInfo> {
        self.place_key(key, None)
    }

    /// Bulk-loads a key (control plane, version 1).
    pub fn load_key(&self, key: u64, value: &[u8]) -> Rc<FuseeKeyInfo> {
        assert_eq!(value.len(), self.inner.cfg.value_size);
        let info = self.place_key(key, Some(value));
        self.inner.index.load(key, Rc::clone(&info));
        info
    }

    /// Allocates `key`'s ring on each replica and its two pointer words,
    /// each node resolved once, and — given a `value` — loads it as version
    /// 1 in the same pass.
    fn place_key(&self, key: u64, value: Option<&[u8]>) -> Rc<FuseeKeyInfo> {
        let cfg = &self.inner.cfg;
        // A loaded key starts at version 1, an allocated one at 0.
        let version = u64::from(value.is_some());
        let slot = version % RING;
        // One `[version | value]` block serves every replica.
        let block = value.map(|v| Payload::new([&version.to_le_bytes()[..], v].concat()));
        let start = (swarm_core::xxh64(&key.to_le_bytes(), 0xFACE) % cfg.nodes as u64) as usize;
        let replica_nodes: Vec<NodeId> = (0..REPLICAS)
            .map(|i| NodeId((start + i) % cfg.nodes))
            .collect();
        let ring_base: Vec<u64> = replica_nodes
            .iter()
            .map(|&n| {
                let node = self.inner.fabric.node(n);
                let base = node.alloc(RING * self.block_len(), 8);
                if let Some(block) = &block {
                    let addr = base + slot * self.block_len();
                    land(&node, addr, block, 0..block.len());
                }
                base
            })
            .collect();
        let ptr_word = |n: NodeId| {
            let node = self.inner.fabric.node(n);
            let addr = node.alloc(8, 8);
            if value.is_some() {
                node.mem().write_u64(addr, (version << 16) | slot);
            }
            (n, addr)
        };
        let ptr_primary = ptr_word(replica_nodes[0]);
        let ptr_backup = ptr_word(replica_nodes[1]);
        Rc::new(FuseeKeyInfo {
            key,
            replica_nodes,
            ring_base,
            ptr_primary,
            ptr_backup,
            version: Cell::new(version),
        })
    }

    /// Bulk-loads keys `0..n`.
    pub fn load_keys(&self, n: u64, mut make_value: impl FnMut(u64) -> Vec<u8>) {
        for key in 0..n {
            self.load_key(key, &make_value(key));
        }
    }

    /// Modeled per-key memory (Table 3): one live block per replica + the
    /// pointer words + key record.
    pub fn modeled_bytes_per_key(&self) -> u64 {
        REPLICAS as u64 * self.block_len() + 16 + 24
    }
}

struct CacheEntry {
    info: Rc<FuseeKeyInfo>,
    /// Version this client last observed committed.
    version: u64,
}

/// FUSEE's side of a `StoreClient`: its pointer cache and the roundtrips
/// of the four operations. The client's endpoint, roundtrip counter and
/// deadline live in the `StoreClient` every method is handed as `c`.
pub(crate) struct FuseePath {
    cluster: FuseeCluster,
    cache: RefCell<LfuCache<Rc<CacheEntry>>>,
    /// Stream for cache-eviction sampling (shared unless the cluster has an
    /// rng label).
    rng: SimRng,
    /// Gets that had to re-fetch due to a stale cached pointer, and gets
    /// served fully from the cached pointer (§7.1's bimodality). Unread
    /// outside tests until ROADMAP item 4's spans report them.
    stale_gets: Cell<u64>,
    fresh_gets: Cell<u64>,
    /// Tail-latency hedger for the block read and block write rounds
    /// (`None` by default). The pointer CAS is never hedged: a duplicate CAS
    /// is not idempotent, its second copy could observe and clobber a
    /// concurrent writer's pointer.
    hedger: Option<Hedger>,
}

impl FuseePath {
    /// The path state of client `client_id`.
    pub(crate) fn new(cluster: &FuseeCluster, client_id: usize, cfg: &ClientConfig) -> Self {
        let cc = cluster.config();
        FuseePath {
            cluster: cluster.clone(),
            cache: RefCell::new(LfuCache::new(cfg.cache.entry_limit())),
            rng: cluster.sim().fork_rng(cc.role_label(ROLE_CACHE, client_id)),
            stale_gets: Cell::new(0),
            fresh_gets: Cell::new(0),
            hedger: Hedger::new(cfg.hedge, cc.nodes, Some(cluster.fabric().clone())),
        }
    }

    /// `(fresh, stale)` cached-pointer get counts.
    #[cfg(test)]
    fn get_stats(&self) -> (u64, u64) {
        (self.fresh_gets.get(), self.stale_gets.get())
    }

    /// Cache hit/miss statistics.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        self.cache.borrow().stats()
    }

    /// The index a scan walks.
    pub(crate) fn index(&self) -> &Index<Rc<FuseeKeyInfo>> {
        &self.cluster.inner.index
    }

    /// Reads one replica block. `Ok(None)` if the block was recycled by a
    /// newer update; `Err(Timeout)` if the node stopped answering.
    async fn read_block(
        &self,
        c: &StoreClient,
        info: &FuseeKeyInfo,
        version: u64,
    ) -> KvResult<Option<Vec<u8>>> {
        c.rounds.bump();
        self.read_block_via(c, self.hedger.as_ref(), info, version)
            .await
    }

    /// The block read as a one-response round over the primary with the
    /// backup as the hedge's spare: synchronous replication wrote the
    /// committed block to *every* replica before the pointer CAS, and the
    /// embedded version check rejects recycled slots, so either copy is
    /// authoritative. With `hedger = None` it costs bandwidth but no counted
    /// roundtrip — the wasted optimistic read of a stale get, whose latency
    /// overlaps the index lookup.
    async fn read_block_via(
        &self,
        c: &StoreClient,
        hedger: Option<&Hedger>,
        info: &FuseeKeyInfo,
        version: u64,
    ) -> KvResult<Option<Vec<u8>>> {
        let block_len = self.cluster.block_len();
        let slot = version % RING;
        let nodes = &info.replica_nodes;
        let copies = [(0, nodes[0].0), (1, nodes[1].0)];
        let mut round = QuorumRound::new(&c.sim, hedger, None, 1, &copies, |i| {
            let addr = info.ring_base[i] + slot * block_len;
            let len = block_len as usize;
            let reply = c.ep.submit(nodes[i], vec![Op::Read { addr, len }]);
            async move { reply.await?.into_iter().next()?.read() }
        });
        round.complete(|| ()).await;
        let (_, bytes) = round.finish().next().expect("completed round has a result");
        let bytes = bytes.ok_or(KvError::Timeout)?;
        let v = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        if v == version {
            Ok(Some(bytes[8..].to_vec()))
        } else {
            Ok(None) // Block was recycled by a newer update.
        }
    }

    /// One replica's block write (update RTT 1) as a one-response round
    /// whose spare is the same replica: the hedge is a duplicate of the same
    /// write (same bytes, same address — idempotent) racing the straggling
    /// ack.
    async fn write_block(&self, c: &StoreClient, node: NodeId, addr: u64, data: &Payload) {
        let copies = [(0, node.0); 2];
        let hedger = self.hedger.as_ref();
        let mut round = QuorumRound::new(&c.sim, hedger, None, 1, &copies, |_| {
            let ack = c.ep.submit(
                node,
                vec![Op::Write {
                    addr,
                    data: Rc::clone(data),
                }],
            );
            async move {
                ack.await;
            }
        });
        round.complete(|| ()).await;
        drop(round.finish());
    }

    async fn lookup(&self, c: &StoreClient, key: u64) -> Option<Rc<CacheEntry>> {
        if let Some(e) = self.cache.borrow_mut().get(key) {
            return Some(Rc::clone(e));
        }
        c.rounds.bump();
        let info = self.index().get(key).await?;
        let e = Rc::new(CacheEntry {
            version: info.version.get(),
            info,
        });
        self.cache
            .borrow_mut()
            .insert(&self.rng, key, Rc::clone(&e));
        Some(e)
    }

    pub(crate) async fn get(&self, c: &StoreClient, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        c.ep.work(GET_OVERHEAD_NS).await;
        let cached = self.cache.borrow_mut().get(key).map(Rc::clone);
        match cached {
            Some(e) if e.version == e.info.version.get() => {
                // Fresh cached pointer: 1 roundtrip.
                self.fresh_gets.set(self.fresh_gets.get() + 1);
                Ok(self.read_block(c, &e.info, e.version).await?.map(Rc::new))
            }
            Some(e) => {
                // Stale pointer (§7.1): the optimistic read is wasted; the
                // index is consulted and the new block read — 2 roundtrips
                // of latency, 3 messages of bandwidth.
                self.stale_gets.set(self.stale_gets.get() + 1);
                let wasted = self.read_block_via(c, None, &e.info, e.version);
                let index_lookup = async {
                    c.rounds.bump();
                    self.index().get(key).await
                };
                let (_, info) = swarm_sim::join2(wasted, index_lookup).await;
                let Some(info) = info else {
                    return Ok(None);
                };
                let version = info.version.get();
                let v = self.read_block(c, &info, version).await?;
                self.cache.borrow_mut().insert(
                    &self.rng,
                    key,
                    Rc::new(CacheEntry { version, info }),
                );
                Ok(v.map(Rc::new))
            }
            None => {
                // Cache miss: index then data — 2 roundtrips.
                let Some(e) = self.lookup(c, key).await else {
                    return Ok(None);
                };
                Ok(self.read_block(c, &e.info, e.version).await?.map(Rc::new))
            }
        }
    }

    pub(crate) async fn update(&self, c: &StoreClient, key: u64, value: Vec<u8>) -> KvResult<()> {
        c.ep.work(UPDATE_OVERHEAD_NS).await;
        let Some(e) = self.lookup(c, key).await else {
            return Err(KvError::NotIndexed);
        };
        let info = &e.info;
        let block_len = self.cluster.block_len();

        // RTT 1: write the new block to ALL replicas (synchronous
        // replication needs every replica).
        let new_version = info.version.get() + 1;
        let slot = new_version % RING;
        c.rounds.bump();
        let mut block = Vec::with_capacity(block_len as usize);
        block.extend_from_slice(&new_version.to_le_bytes());
        block.extend_from_slice(&value);
        // One block buffer, Rc-shared across the replica fan-out (the old
        // code deep-copied it once per replica).
        let block: Payload = block.into();
        // Synchronous replication must ack *every* replica, so each
        // replica's write is its own round.
        let writes: Vec<BoxFuture<'_, ()>> = info
            .replica_nodes
            .iter()
            .zip(&info.ring_base)
            .map(|(&n, &base)| {
                Box::pin(self.write_block(c, n, base + slot * block_len, &block)) as _
            })
            .collect();
        join_boxed(writes).await;

        // RTT 2: CAS the primary pointer; a concurrent update forces a
        // retry (hot keys take 5 roundtrips, Table 2).
        let mut expected = (e.version << 16) | (e.version % RING);
        let new_ptr = (new_version << 16) | slot;
        loop {
            c.rounds.bump();
            let prev =
                c.ep.cas(info.ptr_primary.0, info.ptr_primary.1, expected, new_ptr)
                    .await
                    .ok_or(KvError::Timeout)?;
            if prev == expected {
                break;
            }
            if prev >= new_ptr {
                // Lost to a pointer at or past our version; FUSEE
                // serializes via the index — our value is superseded, treat
                // as applied. The committed version must catch up to the
                // pointer we just observed: a writer that crashed or timed
                // out after its pointer CAS landed leaves the in-memory
                // pointer ahead of the model's committed version, and this
                // observation is exactly FUSEE's self-verifying resolution
                // of such orphaned updates (§7.7).
                if info.version.get() < prev >> 16 {
                    info.version.set(prev >> 16);
                }
                return Ok(());
            }
            expected = prev;
        }
        if info.version.get() < new_version {
            info.version.set(new_version);
        }

        // RTT 3: propagate to the backup pointer.
        c.rounds.bump();
        c.ep.write(
            info.ptr_backup.0,
            info.ptr_backup.1,
            new_ptr.to_le_bytes().to_vec(),
        )
        .await;

        // RTT 4: read-back validation.
        c.rounds.bump();
        let _ = c.ep.read(info.ptr_primary.0, info.ptr_primary.1, 8).await;

        self.cache.borrow_mut().insert(
            &self.rng,
            key,
            Rc::new(CacheEntry {
                version: new_version,
                info: Rc::clone(info),
            }),
        );
        Ok(())
    }

    pub(crate) async fn insert(&self, c: &StoreClient, key: u64, value: Vec<u8>) -> KvResult<()> {
        let info = self.cluster.alloc_key(key);
        c.rounds.bump();
        // An unconditional overwrite (module docs). The capacity check rides
        // the swap roundtrip atomically, so concurrent inserts cannot race
        // past the cap.
        if let Swap::Full = self.index().swap(key, |_| true, Some(info)).await {
            return Err(KvError::IndexFull);
        }
        self.update(c, key, value).await
    }

    pub(crate) async fn delete(&self, c: &StoreClient, key: u64) -> KvResult<()> {
        if self.lookup(c, key).await.is_none() {
            return Err(KvError::NotFound);
        }
        c.rounds.bump();
        self.index().swap(key, |_| true, None).await;
        self.cache.borrow_mut().remove(key);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheCapacity, KvStore, Protocol, StoreBuilder, StoreCluster};

    /// FUSEE with a 1024-entry location cache per client.
    fn builder() -> StoreBuilder {
        StoreBuilder::new(Protocol::Fusee).cache(CacheCapacity::Entries(1024))
    }

    fn setup(seed: u64, builder: StoreBuilder) -> (Sim, StoreCluster) {
        let sim = Sim::new(seed);
        let cluster = builder.build_cluster(&sim);
        cluster.load_keys(16, |k| vec![k as u8; 64]);
        (sim, cluster)
    }

    #[test]
    fn get_after_load_returns_value() {
        let (sim, cluster) = setup(1, builder());
        let c = cluster.client(0);
        let v = sim.block_on(async move { c.get(3).await });
        assert_eq!(*v.unwrap().unwrap(), vec![3u8; 64]);
    }

    #[test]
    fn update_takes_four_rounds_and_get_one_when_fresh() {
        let (sim, cluster) = setup(2, builder());
        let c = cluster.client(0);
        sim.block_on(async move {
            c.get(1).await.unwrap(); // warm the cache (2 rtts)
            let r0 = c.rounds();
            c.update(1, vec![9u8; 64]).await.unwrap();
            assert_eq!(c.rounds() - r0, 4, "update rtts");
            let r0 = c.rounds();
            assert_eq!(*c.get(1).await.unwrap().unwrap(), vec![9u8; 64]);
            assert_eq!(c.rounds() - r0, 1, "fresh get rtts");
        });
    }

    #[test]
    fn stale_cached_pointer_costs_two_rounds() {
        let (sim, cluster) = setup(3, builder());
        let a = cluster.client(0);
        let b = cluster.client(1);
        sim.block_on(async move {
            a.get(1).await.unwrap(); // A caches v1
            b.update(1, vec![7u8; 64]).await.unwrap(); // B moves to v2
            let r0 = a.rounds();
            assert_eq!(*a.get(1).await.unwrap().unwrap(), vec![7u8; 64]);
            assert_eq!(a.rounds() - r0, 2, "stale get rtts");
            assert_eq!(a.fusee_path().get_stats().1, 1);
        });
    }

    #[test]
    fn index_capacity_rejects_fresh_inserts() {
        let sim = Sim::new(9);
        let cluster = builder().index_capacity(4).build_cluster(&sim);
        cluster.load_keys(4, |k| vec![k as u8; 64]);
        let c = cluster.client(0);
        sim.block_on(async move {
            assert_eq!(
                c.insert(100, vec![1u8; 64]).await,
                Err(KvError::IndexFull),
                "fresh insert beyond capacity"
            );
            // Overwriting an existing key is not a fresh mapping.
            c.insert(2, vec![2u8; 64]).await.unwrap();
        });
    }

    #[test]
    fn concurrent_inserts_cannot_race_past_the_capacity() {
        let sim = Sim::new(10);
        let cluster = builder().index_capacity(6).build_cluster(&sim);
        cluster.load_keys(4, |k| vec![k as u8; 64]);
        let c = cluster.client(0);
        sim.block_on(async move {
            // 4 concurrent fresh inserts with only 2 free slots: exactly 2
            // must land; the capacity check rides the set roundtrip, so the
            // in-flight inserts cannot all pass a stale pre-check.
            let results = join_boxed(
                (100..104u64)
                    .map(|k| {
                        Box::pin(c.insert(k, vec![k as u8; 64])) as BoxFuture<'_, KvResult<()>>
                    })
                    .collect(),
            )
            .await;
            let ok = results.iter().filter(|r| r.is_ok()).count();
            let full = results
                .iter()
                .filter(|r| **r == Err(KvError::IndexFull))
                .count();
            assert_eq!((ok, full), (2, 2), "{results:?}");
        });
        let index = &cluster.fusee().expect("FUSEE").inner.index;
        assert_eq!(index.len(), 6, "index must not exceed its capacity");
    }

    #[test]
    fn hedged_client_keeps_roundtrip_accounting() {
        // Hedge duplicates ride inside existing phases: the pinned RTT
        // counts (update = 4, fresh get = 1) must not move when hedging is
        // enabled.
        let (sim, cluster) = setup(5, builder().hedge(swarm_core::HedgeConfig::on()));
        let c = cluster.client(0);
        sim.block_on(async move {
            c.get(1).await.unwrap(); // warm the cache
            let r0 = c.rounds();
            c.update(1, vec![9u8; 64]).await.unwrap();
            assert_eq!(c.rounds() - r0, 4, "hedged update rtts");
            let r0 = c.rounds();
            assert_eq!(*c.get(1).await.unwrap().unwrap(), vec![9u8; 64]);
            assert_eq!(c.rounds() - r0, 1, "hedged fresh get rtts");
        });
    }

    #[test]
    fn memory_model_is_two_replicas() {
        let sim = Sim::new(4);
        let cluster = builder().value_size(1024).build_cluster(&sim);
        let per_key = cluster.modeled_bytes_per_key();
        assert!((2 * 1024..2 * 1024 + 128).contains(&(per_key as usize)));
    }
}

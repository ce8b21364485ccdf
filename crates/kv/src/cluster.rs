//! Cluster setup: memory-node layout allocation and bulk loading.
//!
//! A [`Cluster`] owns the fabric and the index, which is the one map from a
//! key to its live allocation ([`KeyInfo`]): every client resolves a key
//! through it, so no two clients can disagree about which buffers are
//! live. Allocation itself is a control-plane
//! action — the paper's clients pre-allocate cleared buffers so inserts
//! complete in one roundtrip (§5.3.1) — and bulk loading (the YCSB load
//! phase, which the paper does not measure) pokes node memory directly.
//!
//! What a key is given when it is placed is what Table 3 counts
//! ([`Cluster::modeled_bytes_per_key`]): per replica the metadata words and
//! one out-of-place slot (the loader's), plus the in-place region at the
//! designated replica. The rest comes out of the node's pool — the bump
//! allocator standing in for §5.3.1's pre-allocated buffers — when somebody
//! first needs it: a writer's ring of out-of-place slots on its first write
//! of the key at that replica (`swarm_core::InnOutLayout`), the key's
//! timestamp-lock words on the first slow path that locks it
//! ([`KeyInfo::tsl_base`]). Node memory therefore grows with the
//! `(key, writer)` pairs that wrote, not with `keys × max_clients`.

use std::cell::OnceCell;
use std::ops::Range;
use std::rc::Rc;

use swarm_core::{innout_hash, InnOutLayout, InnOutShape, QuorumConfig, Stamp};
use swarm_fabric::{Fabric, FabricConfig, Node, NodeId, Payload, CHUNK_BYTES};
use swarm_sim::Sim;

use crate::index::Index;
use crate::membership::Membership;

/// Thread id reserved for the control-plane loader (must never collide with
/// a client tid; clients are numbered from 0).
pub const LOADER_TID: u8 = 254;

/// Out-of-place slots per writer per key (ring-recycled).
pub(crate) const OOP_SLOTS_PER_WRITER: usize = 2;

/// Cluster shape and protocol parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Memory nodes (the paper's testbed has 4).
    pub nodes: usize,
    /// Replicas per key (3 by default; 5/7 in Figure 10).
    pub replicas: usize,
    /// Fixed value size in bytes.
    pub value_size: usize,
    /// Maximum client count (sizes metadata arrays, lock words, slot rings).
    pub max_clients: usize,
    /// In-n-Out metadata words per key (§4.4; the paper recommends one per
    /// client, Figure 13).
    pub meta_bufs: usize,
    /// Whether VERIFIED writes lazily store in-place data at the designated
    /// replica (`false` = the "Out-P." variant of Figure 9).
    pub inplace: bool,
    /// Fabric wire jitter and RNG stream (the rest of the latency model is
    /// `swarm_fabric`'s constant table).
    pub fabric: FabricConfig,
    /// Quorum timing.
    pub quorum: QuorumConfig,
    /// Client clock skew bound in nanoseconds (guess quality, §6).
    pub clock_skew_ns: i64,
    /// Client clock drift in ppm.
    pub clock_drift_ppm: f64,
    /// Maximum live index mappings (`None` = unbounded); inserts beyond it
    /// fail with `KvError::IndexFull`.
    pub index_capacity: Option<usize>,
    /// RNG-stream label for everything this cluster builds (fabric jitter,
    /// index jitter, client clocks and caches). `None` (the default) draws
    /// from the simulation's shared stream. `Some(label)` forks private
    /// per-role streams from `(sim seed, label)`, so nothing that happens in
    /// this cluster can perturb — or be perturbed by — any other cluster on
    /// the same `Sim`. Only `StoreBuilder::build_sharded` sets it, one label
    /// per shard ([`crate::ShardSpec`]).
    pub(crate) rng_label: Option<u64>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            replicas: 3,
            value_size: 64,
            max_clients: 4,
            meta_bufs: 4,
            inplace: true,
            fabric: FabricConfig::default(),
            quorum: QuorumConfig::default(),
            clock_skew_ns: 400,
            clock_drift_ppm: 5.0,
            index_capacity: None,
            rng_label: None,
        }
    }
}

impl ClusterConfig {
    /// The label of the stream instance `id` of `role` draws from (see
    /// `Sim::fork_rng`): derived from the cluster rng label, or none (the
    /// shared stream) without one.
    pub(crate) fn role_label(&self, role: u64, id: usize) -> Option<u64> {
        self.rng_label.map(|l| derive_label(l, role, id as u64))
    }
}

/// Derives a sub-stream label from a cluster label, a role tag, and an
/// instance id (splitmix-style mixing; collisions across distinct inputs
/// are no worse than random).
pub(crate) fn derive_label(base: u64, role: u64, id: u64) -> u64 {
    let mut z = base
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(role)
        .wrapping_mul(0xBF58476D1CE4E5B9)
        .wrapping_add(id);
    z ^= z >> 29;
    z.wrapping_mul(0x94D049BB133111EB)
}

/// Role tags for [`derive_label`].
const ROLE_FABRIC: u64 = 1;
const ROLE_INDEX: u64 = 2;
pub(crate) const ROLE_CLOCK: u64 = 3;
pub(crate) const ROLE_CACHE: u64 = 4;

/// The fabric and the index every cluster stands on — FUSEE's too — built
/// from the one place their shape is configured: `cfg`'s nodes, fabric
/// model, index capacity and RNG label.
pub(crate) fn substrate<L: Clone + 'static>(sim: &Sim, cfg: &ClusterConfig) -> (Fabric, Index<L>) {
    let mut fabric_cfg = cfg.fabric.clone();
    fabric_cfg.rng_label = fabric_cfg.rng_label.or(cfg.role_label(ROLE_FABRIC, 0));
    let index_rng = sim.fork_rng(cfg.role_label(ROLE_INDEX, 0));
    let wire = fabric_cfg.wire;
    let fabric = Fabric::new(sim, fabric_cfg, cfg.nodes);
    (fabric, Index::new(sim, cfg.index_capacity, wire, index_rng))
}

/// Puts `image[range]` at `addr` on `node` the way a data-path write of
/// those bytes would leave them: held by reference if longer than one chunk
/// ([`CHUNK_BYTES`]), copied if not (`swarm_fabric::NodeMemory`, *Shared
/// runs*). The bulk loaders' one way to land a key.
pub(crate) fn land(node: &Node, addr: u64, image: &Payload, range: Range<usize>) {
    if range.len() > CHUNK_BYTES {
        node.mem().write_shared(addr, image, range);
    } else {
        node.mem().write(addr, &image[range]);
    }
}

/// Control-plane record of one key's replica allocation: the one index
/// record every client's handle on the key points at.
#[derive(Debug)]
pub struct KeyInfo {
    /// The key.
    pub key: u64,
    /// Allocation generation (re-inserts after delete get fresh buffers).
    pub generation: u64,
    /// Where the key's register lives; replica 0 is the in-place-designated
    /// one.
    pub layout: InnOutLayout,
    /// Per replica: base address of `max_clients` timestamp-lock words, once
    /// drawn ([`KeyInfo::tsl_base`]).
    tsl_base: OnceCell<Box<[u64]>>,
}

impl AsRef<InnOutLayout> for KeyInfo {
    fn as_ref(&self) -> &InnOutLayout {
        &self.layout
    }
}

impl KeyInfo {
    /// Per replica, the base address of `writers` timestamp-lock words.
    /// Only Safe-Guess's slow path touches them, so they are drawn from the
    /// replica nodes the first time any client asks; every client of the key
    /// shares this record and so sees the same words.
    pub fn tsl_base(&self, fabric: &Fabric, writers: usize) -> &[u64] {
        self.tsl_base.get_or_init(|| {
            let l = &self.layout;
            (0..l.replicas())
                .map(|r| fabric.node(l.node(r)).alloc(8 * writers as u64, 8))
                .collect()
        })
    }
}

struct Inner {
    sim: Sim,
    fabric: Fabric,
    cfg: ClusterConfig,
    /// The register shape of every key.
    shape: InnOutShape,
    index: Index<Rc<KeyInfo>>,
    membership: Membership,
    generation: std::cell::Cell<u64>,
}

/// Handle to a cluster (cheaply cloneable).
#[derive(Clone)]
pub struct Cluster {
    inner: Rc<Inner>,
}

impl Cluster {
    /// Creates a cluster: fabric + index + membership.
    pub fn new(sim: &Sim, cfg: ClusterConfig) -> Self {
        assert!(cfg.replicas >= 1);
        assert!(cfg.max_clients >= 1 && cfg.max_clients <= 200);
        assert!(cfg.meta_bufs >= 1);
        let (fabric, index) = substrate(sim, &cfg);
        let membership = Membership::with_default_detection(sim, &fabric);
        // One slot past the writers' shares for the loader: owned by no
        // writer, except that a lone client's ring takes it in.
        let oop_slots = cfg.max_clients * OOP_SLOTS_PER_WRITER + 1;
        let shape = InnOutShape::new(cfg.meta_bufs, cfg.value_size, oop_slots, cfg.max_clients);
        Cluster {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                fabric,
                shape,
                index,
                cfg,
                membership,
                generation: std::cell::Cell::new(0),
            }),
        }
    }

    /// The simulation.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.cfg
    }

    /// The register shape of every key.
    pub fn shape(&self) -> &InnOutShape {
        &self.inner.shape
    }

    /// The out-of-place slot the bulk loader writes: the last one.
    pub fn loader_slot(&self) -> u16 {
        (self.inner.shape.oop_slots - 1) as u16
    }

    /// The index service.
    pub fn index(&self) -> &Index<Rc<KeyInfo>> {
        &self.inner.index
    }

    /// The membership service.
    pub fn membership(&self) -> &Membership {
        &self.inner.membership
    }

    /// Replica node ids for `key`: `replicas` consecutive nodes starting at
    /// a key-hashed offset (spreads load; with 4 nodes and 5+ replicas some
    /// nodes host 2 replicas, as in §7.5).
    pub fn replica_nodes_for(&self, key: u64) -> Vec<NodeId> {
        let cfg = &self.inner.cfg;
        let start = (swarm_core::xxh64(&key.to_le_bytes(), 0xC0FFEE) % cfg.nodes as u64) as usize;
        (0..cfg.replicas)
            .map(|i| NodeId((start + i) % cfg.nodes))
            .collect()
    }

    /// Allocates buffers for one key on its replica nodes (control plane:
    /// clients draw from pre-allocated pools, §5.3.1).
    pub fn alloc_key(&self, key: u64) -> Rc<KeyInfo> {
        self.place_key(key, None)
    }

    /// Bulk-loads `key = value` (control plane, no network cost): allocates
    /// buffers, pokes replica memory into the state a completed `VERIFIED`
    /// write would leave, and registers the index mapping.
    pub fn load_key(&self, key: u64, value: &[u8]) -> Rc<KeyInfo> {
        assert_eq!(value.len(), self.inner.cfg.value_size, "fixed-size values");
        let info = self.place_key(key, Some(value));
        self.inner.index.load(key, Rc::clone(&info));
        info
    }

    /// Allocates `key`'s buffers and — given a `value` — loads it.
    fn place_key(&self, key: u64, value: Option<&[u8]>) -> Rc<KeyInfo> {
        let (cfg, shape, fabric) = (&self.inner.cfg, &self.inner.shape, &self.inner.fabric);
        let layout = InnOutLayout::allocate(fabric, shape, &self.replica_nodes_for(key));
        if let Some(value) = value {
            // The loader's slot, hence the word and the hash bound to it, is
            // the same on every replica, so one image `[word | hash | value |
            // hash]` holds all a load writes: the out-of-place slot `[word |
            // hash | value]`, the metadata word, and the in-place `[value |
            // hash]`. Every replica's slot and the in-place region land as
            // that one image.
            let loader_slot = self.loader_slot();
            let word = (Stamp::verified(1, LOADER_TID).pack48() << 16) | loader_slot as u64;
            let hash = innout_hash(word, value).to_le_bytes();
            let image = Payload::new([&word.to_le_bytes()[..], &hash, value, &hash].concat());
            let slot_len = 16 + cfg.value_size;
            for r in 0..layout.replicas() {
                let node = fabric.node(layout.node(r));
                let slot = layout.slot_addr_on(shape, r, loader_slot, &node);
                land(&node, slot, &image, 0..slot_len);
                // Metadata word 0 points at it.
                node.mem().write(layout.meta_addr(r), &image[..8]);
                // In-place copy at the designated replica (RAW keeps its one
                // copy there, so that region exists also with `inplace` off).
                if cfg.inplace && r == 0 {
                    land(&node, layout.inplace_addr(shape), &image, 16..image.len());
                }
            }
        }
        let generation = self.inner.generation.get();
        self.inner.generation.set(generation + 1);
        Rc::new(KeyInfo {
            key,
            generation,
            layout,
            tsl_base: OnceCell::new(),
        })
    }

    /// Bulk-loads keys `0..n` with `make_value(key)` payloads.
    pub fn load_keys(&self, n: u64, mut make_value: impl FnMut(u64) -> Vec<u8>) {
        for key in 0..n {
            self.load_key(key, &make_value(key));
        }
    }

    /// Crashes a memory node (Figure 11).
    pub fn crash_node(&self, node: NodeId) {
        self.inner.fabric.crash_node(node);
    }

    /// *Modeled* per-key disaggregated-memory footprint in bytes, counting
    /// live data once (slot rings are recycled storage): per replica one
    /// out-of-place value + slot header + metadata array (+ lock words for
    /// Safe-Guess), plus the in-place copy at the designated replica, plus
    /// §5.2's 24 B key record at the index. This is the accounting behind
    /// Table 3. The host's records are larger and are not modelled: at 3
    /// replicas, 4 clients and 64 B values a loaded key's [`KeyInfo`] and
    /// index entry take 162 B of heap, and a client's cached handle on it
    /// 274 B in 3 allocations (`tests/footprint.rs` bounds them at 200 B
    /// and 280 B).
    pub fn modeled_bytes_per_key(&self, with_tslocks: bool) -> u64 {
        let cfg = &self.inner.cfg;
        let per_replica = (16 + cfg.value_size) as u64
            + 8 * cfg.meta_bufs as u64
            + if with_tslocks {
                8 * cfg.max_clients as u64
            } else {
                0
            };
        let inplace = if cfg.inplace {
            (cfg.value_size + 8) as u64
        } else {
            0
        };
        cfg.replicas as u64 * per_replica + inplace + 24 // key record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_placement_is_deterministic_and_spread() {
        let sim = Sim::new(1);
        let c = Cluster::new(&sim, ClusterConfig::default());
        let a = c.replica_nodes_for(1);
        let b = c.replica_nodes_for(1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Different keys should land on different starting nodes sometimes.
        let starts: std::collections::HashSet<_> =
            (0..32).map(|k| c.replica_nodes_for(k)[0]).collect();
        assert!(starts.len() > 1);
    }

    #[test]
    fn seven_replicas_on_four_nodes_reuse_nodes() {
        let sim = Sim::new(2);
        let c = Cluster::new(
            &sim,
            ClusterConfig {
                replicas: 7,
                ..Default::default()
            },
        );
        let nodes = c.replica_nodes_for(3);
        assert_eq!(nodes.len(), 7);
        let distinct: std::collections::HashSet<_> = nodes.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn load_key_registers_index_and_memory() {
        let sim = Sim::new(3);
        let c = Cluster::new(&sim, ClusterConfig::default());
        let v = vec![7u8; 64];
        let info = c.load_key(9, &v);
        assert!(c.index().peek(9).is_some());
        assert_eq!(info.layout.replicas(), 3);
        // Every replica is in the state a completed VERIFIED write by the
        // loader leaves: its slot holds `[word | hash | value]`, metadata
        // word 0 points at it, the other words are clear; the designated
        // replica alone also holds the in-place `[value | hash]`.
        let word = (Stamp::verified(1, LOADER_TID).pack48() << 16) | c.loader_slot() as u64;
        let hash = innout_hash(word, &v).to_le_bytes();
        let slot = [&word.to_le_bytes()[..], &hash, &v].concat();
        let l = &info.layout;
        for i in 0..l.replicas() {
            let node = c.fabric().node(l.node(i));
            let slot_addr = l
                .slot_addr(c.shape(), i, c.loader_slot())
                .expect("unowned slot");
            assert_eq!(node.mem().read(slot_addr, 16 + 64), slot, "replica {i}");
            let mut region = word.to_le_bytes().to_vec();
            region.resize(c.shape().meta_bufs * 8, 0);
            if i == 0 {
                region.extend_from_slice(&v);
                region.extend_from_slice(&hash);
            }
            assert_eq!(
                node.mem().read(l.meta_addr(i), region.len()),
                region,
                "replica {i}"
            );
        }
    }

    #[test]
    fn modeled_bytes_match_table3_shape() {
        // 1 KiB values, 4 clients, 3 replicas: SWARM ~4.1 KiB/key,
        // DM-ABD-like (no inplace, 1 buf, no locks) ~3.1 KiB/key.
        let sim = Sim::new(4);
        let swarm = Cluster::new(
            &sim,
            ClusterConfig {
                value_size: 1024,
                ..Default::default()
            },
        );
        let abd = Cluster::new(
            &sim,
            ClusterConfig {
                value_size: 1024,
                meta_bufs: 1,
                inplace: false,
                ..Default::default()
            },
        );
        let s = swarm.modeled_bytes_per_key(true);
        let a = abd.modeled_bytes_per_key(false);
        assert!(s > a);
        let ratio = s as f64 / a as f64;
        assert!((1.2..1.5).contains(&ratio), "SWARM/DM-ABD ratio {ratio}");
    }

    use crate::{CacheCapacity, KvStore, Protocol, StoreBuilder};

    /// Bytes drawn so far from each memory node.
    fn drawn(c: &Cluster) -> Vec<u64> {
        let fabric = c.fabric();
        fabric
            .node_ids()
            .iter()
            .map(|&n| fabric.node(n).allocated_bytes())
            .collect()
    }

    /// Replicas of `key` on which the ring holding slot `slot` was drawn.
    fn rings_of(c: &Cluster, key: u64, slot: u16) -> u64 {
        let l = &c.index().peek(key).expect("loaded").layout;
        let drawn = (0..l.replicas()).filter(|&r| l.slot_addr(c.shape(), r, slot).is_some());
        drawn.count() as u64
    }

    /// Node memory drawn per key is Table 3's accounting
    /// ([`Cluster::modeled_bytes_per_key`]) term for term; after that only
    /// writes draw — a get's write-back included — one ring where they land.
    #[test]
    fn node_memory_per_key_is_what_table3_counts() {
        const KEYS: u64 = 100;
        let sim = Sim::new(5);
        let store = StoreBuilder::new(Protocol::SafeGuess).build_cluster(&sim);
        let c = store.swarm().expect("SafeGuess runs on a Cluster").clone();
        assert_eq!(drawn(&c).iter().sum::<u64>(), 0);
        store.load_keys(KEYS, |k| vec![k as u8; 64]);
        // Two modeled terms are not node memory after a load: the 24 B key
        // record lives in the index, and the timestamp-lock words are drawn
        // by the first slow path that locks the key.
        let cfg = c.config();
        let lock_words = (cfg.replicas * 8 * cfg.max_clients) as u64;
        let per_key = c.modeled_bytes_per_key(true) - 24 - lock_words;
        assert_eq!(per_key, (16 + 64 + 8 * 4) * 3 + 64 + 8);
        let loaded = drawn(&c);
        assert_eq!(loaded.iter().sum::<u64>(), KEYS * per_key);

        // A get ends with Algorithm 8's write-back, and that is a write: the
        // replica its majority read skipped gets the value again, in a slot
        // of the reader's ring. So a first get draws at most one ring per
        // key (replicas - majority), and a repeated one — the handle now
        // knows the value is stored everywhere — none.
        let ring = c.shape().ring_len();
        assert_eq!(ring, (OOP_SLOTS_PER_WRITER * (16 + 64)) as u64);
        let reader = store.client(0);
        for pass in 0..2 {
            let before: u64 = drawn(&c).iter().sum();
            let reader = Rc::clone(&reader);
            sim.block_on(async move {
                for key in 0..KEYS {
                    let got = reader.get(key).await.expect("get").expect("loaded");
                    assert_eq!(*got, vec![key as u8; 64]);
                }
            });
            let rings: u64 = (0..KEYS).map(|key| rings_of(&c, key, 0)).sum();
            assert!((0..KEYS).all(|key| rings_of(&c, key, 0) <= 1));
            let expect = if pass == 0 { rings * ring } else { 0 };
            assert_eq!(drawn(&c).iter().sum::<u64>() - before, expect);
        }

        // One update by client 1 (slots 2 and 3): one ring on every replica
        // it wrote, nothing anywhere else.
        let before = drawn(&c);
        let writer = store.client(1);
        sim.block_on(async move { writer.update(7, vec![0xEE; 64]).await.expect("update") });
        let info = c.index().peek(7).expect("loaded");
        let l = &info.layout;
        for (n, (&before, &after)) in before.iter().zip(&drawn(&c)).enumerate() {
            let wrote = (0..l.replicas())
                .any(|r| l.node(r) == NodeId(n) && l.slot_addr(c.shape(), r, 2).is_some());
            assert_eq!(after - before, if wrote { ring } else { 0 }, "node {n}");
        }
        assert!(rings_of(&c, 7, 2) > (cfg.replicas / 2) as u64, "majority");
        assert!(info.tsl_base.get().is_none(), "the fast path takes no lock");
        assert_eq!(rings_of(&c, 7, 4), 0, "client 2 never wrote");
    }

    /// A handle rebuilt after the bounded cache evicted it writes into the
    /// ring its predecessor drew: rings belong to the key's layout, not to a
    /// handle.
    #[test]
    fn a_handle_rebuilt_after_eviction_reuses_its_ring() {
        let sim = Sim::new(12);
        let store = StoreBuilder::new(Protocol::SafeGuess)
            .cache(CacheCapacity::Entries(1))
            .build_cluster(&sim);
        store.load_keys(4, |k| vec![k as u8; 64]);
        let c = store.swarm().expect("SafeGuess runs on a Cluster").clone();
        let loaded: u64 = drawn(&c).iter().sum();
        let client = store.client(0);
        sim.block_on(async move {
            client.update(2, vec![0xA0; 64]).await.expect("update");
            let (_, misses) = client.cache_stats();
            // One entry: resolving key 3 evicts key 2's handle, and the
            // updates below go through a rebuilt one — past a full turn of
            // the ring (2 slots per writer).
            client.get(3).await.expect("get");
            for i in 1..=4 {
                client.update(2, vec![0xA0 + i; 64]).await.expect("update");
            }
            assert_eq!(client.cache_stats().1, misses + 2, "key 2 was re-resolved");
            let got = client.get(2).await.expect("get").expect("present");
            assert_eq!(*got, vec![0xA4; 64]);
        });
        // Everything drawn since the load is client 0's ring, once on each
        // replica it reached: of key 2 by its updates, of key 3 by the get's
        // write-back.
        assert!(rings_of(&c, 2, 0) >= 2, "a write reaches a majority");
        let ring = c.shape().ring_len();
        assert_eq!(
            drawn(&c).iter().sum::<u64>() - loaded,
            (rings_of(&c, 2, 0) + rings_of(&c, 3, 0)) * ring
        );
        assert_eq!(rings_of(&c, 0, 0) + rings_of(&c, 1, 0), 0);
    }

    #[test]
    fn lock_words_are_drawn_once_for_all_clients() {
        let sim = Sim::new(6);
        let c = Cluster::new(&sim, ClusterConfig::default());
        let info = c.load_key(1, &[1u8; 64]);
        let loaded = drawn(&c);
        let words = info.tsl_base(c.fabric(), 4).to_vec();
        assert_eq!(words.len(), 3);
        for (r, &base) in words.iter().enumerate() {
            assert_eq!(
                base,
                loaded[info.layout.node(r).0],
                "bump-allocated on the replica's node"
            );
        }
        let total = |d: Vec<u64>| d.iter().sum::<u64>();
        assert_eq!(total(drawn(&c)) - total(loaded), 3 * 8 * 4);
        // Every later asker — any client's handle holds the same record —
        // gets the same words and draws nothing.
        let again = c.index().peek(1).expect("loaded");
        assert_eq!(again.tsl_base(c.fabric(), 4), &words[..]);
        assert_eq!(total(drawn(&c)), 3 * (112 + 32) + 72);
    }
}

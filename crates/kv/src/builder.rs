//! Unified construction of all four evaluated stores.
//!
//! [`StoreBuilder`] is the one entry point for standing up a store:
//! pick a [`Protocol`], tweak cluster/client knobs fluently, then
//! [`StoreBuilder::build_cluster`] and hand out per-thread clients with
//! [`StoreCluster::client`]. All four run on one [`ClusterConfig`]: SWARM-KV,
//! DM-ABD and RAW on a [`Cluster`], FUSEE on a [`FuseeCluster`] that reads
//! its nodes, value size, fabric, index capacity and RNG label from the same
//! configuration — and all four are driven through one client type,
//! [`StoreClient`].

use std::rc::Rc;

use swarm_fabric::{Fabric, NodeId};
use swarm_sim::Sim;

use crate::client::{CacheCapacity, ClientConfig, Proto, StoreClient};
use crate::cluster::{Cluster, ClusterConfig};
use crate::fusee::FuseeCluster;
use crate::membership::Membership;
use crate::shard::{ShardSpec, ShardedCluster};

/// The four systems of the paper's evaluation (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// RAW: unreplicated direct reads/writes — the latency lower bound.
    Raw,
    /// SWARM-KV: Safe-Guess + In-n-Out, single-roundtrip replication.
    SafeGuess,
    /// DM-ABD: classic ABD over the same substrate.
    Abd,
    /// FUSEE (FAST '23): synchronously replicated baseline.
    Fusee,
}

impl Protocol {
    /// All four systems, in the order the paper's tables list them.
    pub fn all() -> [Protocol; 4] {
        [
            Protocol::Raw,
            Protocol::SafeGuess,
            Protocol::Abd,
            Protocol::Fusee,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Raw => "RAW",
            Protocol::SafeGuess => "SWARM-KV",
            Protocol::Abd => "DM-ABD",
            Protocol::Fusee => "FUSEE",
        }
    }
}

/// Fluent construction of any of the four stores: protocol × cluster config
/// × client config.
///
/// Protocol invariants are pinned at build time, so a builder sweep over
/// [`Protocol::all`] with shared knobs yields exactly the paper's setups:
/// RAW is always unreplicated with one metadata word, and DM-ABD always
/// runs without in-place data on a single shared metadata word (§7's
/// configurations).
///
/// ```
/// use swarm_kv::{KvStore, Protocol, StoreBuilder};
/// use swarm_sim::Sim;
///
/// let sim = Sim::new(1);
/// let cluster = StoreBuilder::new(Protocol::SafeGuess)
///     .value_size(64)
///     .max_clients(2)
///     .build_cluster(&sim);
/// cluster.load_keys(8, |k| vec![k as u8; 64]);
/// let client = cluster.client(0);
/// let value = sim.block_on(async move { client.get(3).await });
/// assert_eq!(*value.unwrap().unwrap(), vec![3u8; 64]);
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    protocol: Protocol,
    cluster: ClusterConfig,
    client: ClientConfig,
    shards: usize,
}

impl StoreBuilder {
    /// Starts a builder for `protocol` with the paper's default
    /// configuration.
    pub fn new(protocol: Protocol) -> Self {
        StoreBuilder {
            protocol,
            cluster: ClusterConfig::default(),
            client: ClientConfig::default(),
            shards: 1,
        }
    }

    /// The protocol this builder constructs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Fixed value size in bytes (applies to every protocol).
    pub fn value_size(mut self, bytes: usize) -> Self {
        self.cluster.value_size = bytes;
        self
    }

    /// Replicas per key for the [`Cluster`]-based protocols. Ignored by RAW,
    /// which is unreplicated by definition, and by FUSEE, whose synchronous
    /// scheme is modeled at its 2 replicas.
    pub fn replicas(mut self, n: usize) -> Self {
        self.cluster.replicas = n;
        self
    }

    /// Maximum client count (sizes metadata arrays, lock words, slot rings).
    pub fn max_clients(mut self, n: usize) -> Self {
        self.cluster.max_clients = n;
        self
    }

    /// In-n-Out metadata words per key (§4.4). Pinned to 1 for RAW and
    /// DM-ABD at build time.
    pub fn meta_bufs(mut self, n: usize) -> Self {
        self.cluster.meta_bufs = n;
        self
    }

    /// Whether VERIFIED writes lazily store in-place data (`false` = the
    /// "Out-P." variant of Figure 9). Pinned off for DM-ABD at build time.
    pub fn inplace(mut self, yes: bool) -> Self {
        self.cluster.inplace = yes;
        self
    }

    /// Caps the index at this many live mappings; inserts beyond it fail
    /// with [`crate::KvError::IndexFull`] (applies to every protocol).
    pub fn index_capacity(mut self, cap: usize) -> Self {
        self.cluster.index_capacity = Some(cap);
        self
    }

    /// Per-client location-cache capacity (Figure 6 bounds it).
    pub fn cache(mut self, cache: CacheCapacity) -> Self {
        self.client.cache = cache;
        self
    }

    /// Per-operation deadline for every minted client: an operation that
    /// cannot finish in time (e.g. its quorum is unreachable) returns
    /// [`crate::KvError::Timeout`] instead of blocking forever. The chaos
    /// harness sets this so workloads stay live under arbitrary fault
    /// plans; the default (`None`) waits indefinitely.
    pub fn op_deadline_ns(mut self, ns: swarm_sim::Nanos) -> Self {
        self.client.op_deadline_ns = Some(ns);
        self
    }

    /// Partitions the keyspace over `n` independent shards (default 1).
    /// Build with [`StoreBuilder::build_sharded`]; every shard gets its own
    /// fabric, index, membership and replica groups with this builder's
    /// configuration, and clients route through
    /// [`crate::ShardRouter`]s minted by [`crate::ShardedCluster::router`].
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "a cluster has at least one shard");
        self.shards = n;
        self
    }

    /// Tail-latency hedging for every minted client (see
    /// [`swarm_core::HedgeConfig`]). Off by default — with
    /// `HedgeConfig::disabled()` (or this setter never called) no hedger is
    /// minted, no extra timers are scheduled, no RNG is drawn, and all
    /// existing executions replay bit-identically. Applies to the
    /// [`Cluster`]-based protocols *and* FUSEE (which hedges its data reads
    /// and block fan-out).
    pub fn hedge(mut self, cfg: swarm_core::HedgeConfig) -> Self {
        self.client.hedge = cfg;
        self
    }

    /// Replaces the whole cluster configuration (the escape hatch for knobs
    /// without a fluent setter, e.g. wire jitter, the widen floor or clock
    /// skew; the rest of the fabric's latency model is the constant table of
    /// `swarm_fabric`, `ISSUE_NS` … `HEADER_BYTES`). It is the one
    /// substrate configuration: all four protocols run on it.
    pub fn cluster_config(mut self, cfg: ClusterConfig) -> Self {
        self.cluster = cfg;
        self
    }

    /// The cluster configuration with the protocol's invariants pinned.
    fn effective_cluster_config(&self) -> ClusterConfig {
        let mut cfg = self.cluster.clone();
        match self.protocol {
            Protocol::Raw => {
                cfg.replicas = 1;
                cfg.meta_bufs = 1;
            }
            Protocol::Abd => {
                cfg.inplace = false;
                cfg.meta_bufs = 1;
            }
            Protocol::SafeGuess | Protocol::Fusee => {}
        }
        cfg
    }

    /// Builds the cluster-side state (fabric, index, membership, key
    /// allocator). Clients are then minted with [`StoreCluster::client`].
    ///
    /// # Panics
    ///
    /// Panics if [`StoreBuilder::shards`] was set above 1 — a multi-shard
    /// builder must go through [`StoreBuilder::build_sharded`], which
    /// builds one cluster per shard.
    pub fn build_cluster(&self, sim: &Sim) -> StoreCluster {
        assert_eq!(
            self.shards, 1,
            "multi-shard builders build with build_sharded"
        );
        let cfg = self.effective_cluster_config();
        let kind = match self.protocol {
            Protocol::Raw => ClusterKind::Swarm(Cluster::new(sim, cfg), Proto::Raw),
            Protocol::SafeGuess => ClusterKind::Swarm(Cluster::new(sim, cfg), Proto::SafeGuess),
            Protocol::Abd => ClusterKind::Swarm(Cluster::new(sim, cfg), Proto::Abd),
            Protocol::Fusee => ClusterKind::Fusee(FuseeCluster::new(sim, cfg)),
        };
        StoreCluster {
            kind,
            protocol: self.protocol,
            client_cfg: self.client.clone(),
        }
    }

    /// Builds one independent [`StoreCluster`] per configured shard on the
    /// shared simulation. Each shard carries this builder's full
    /// configuration but draws from its own private RNG streams, so no
    /// shard's execution can perturb another's (see [`crate::ShardSpec`]).
    pub fn build_sharded(&self, sim: &Sim) -> ShardedCluster {
        let spec = ShardSpec::new(self.shards);
        let shards = (0..self.shards)
            .map(|s| {
                let mut b = self.clone();
                b.shards = 1;
                b.cluster.rng_label = Some(spec.rng_label(s));
                b.build_cluster(sim)
            })
            .collect();
        ShardedCluster::from_shards(sim, spec, shards)
    }
}

/// The substrate a store stands on; the three [`Cluster`]-based systems
/// carry which of them they are.
#[derive(Clone)]
pub(crate) enum ClusterKind {
    Swarm(Cluster, Proto),
    Fusee(FuseeCluster),
}

/// A built store cluster: the protocol-appropriate substrate plus the client
/// configuration to mint [`StoreClient`]s from. Cheaply cloneable.
#[derive(Clone)]
pub struct StoreCluster {
    pub(crate) kind: ClusterKind,
    protocol: Protocol,
    pub(crate) client_cfg: ClientConfig,
}

impl StoreCluster {
    /// The protocol this cluster runs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Creates client `id` (one per application thread).
    pub fn client(&self, id: usize) -> Rc<StoreClient> {
        StoreClient::new(self, id, None)
    }

    /// Creates client `id` sharing an existing CPU core. Cross-shard
    /// routers mint their per-shard clients this way so the whole set
    /// models one application thread.
    pub fn client_with_cpu(&self, id: usize, cpu: swarm_sim::FifoResource) -> Rc<StoreClient> {
        StoreClient::new(self, id, Some(cpu))
    }

    /// Creates clients `0..n`.
    pub fn clients(&self, n: usize) -> Vec<Rc<StoreClient>> {
        (0..n).map(|i| self.client(i)).collect()
    }

    /// Bulk-loads `key = value` (control plane, the unmeasured YCSB load
    /// phase).
    pub fn load_key(&self, key: u64, value: &[u8]) {
        match &self.kind {
            ClusterKind::Swarm(c, _) => drop(c.load_key(key, value)),
            ClusterKind::Fusee(c) => drop(c.load_key(key, value)),
        }
    }

    /// Bulk-loads keys `0..n` with `make_value(key)` payloads.
    pub fn load_keys(&self, n: u64, mut make_value: impl FnMut(u64) -> Vec<u8>) {
        for key in 0..n {
            self.load_key(key, &make_value(key));
        }
    }

    /// The simulation driving this cluster.
    pub fn sim(&self) -> &Sim {
        match &self.kind {
            ClusterKind::Swarm(c, _) => c.sim(),
            ClusterKind::Fusee(c) => c.sim(),
        }
    }

    /// The fabric (traffic statistics, node access).
    pub fn fabric(&self) -> &Fabric {
        match &self.kind {
            ClusterKind::Swarm(c, _) => c.fabric(),
            ClusterKind::Fusee(c) => c.fabric(),
        }
    }

    /// Crashes a memory node (Figure 11).
    pub fn crash_node(&self, node: NodeId) {
        self.fabric().crash_node(node);
    }

    /// The lease-based membership service — only the [`Cluster`]-based
    /// protocols have one; FUSEE recovers through its own multi-phase
    /// ownership transfer instead.
    pub fn membership(&self) -> Option<&Membership> {
        match &self.kind {
            ClusterKind::Swarm(c, _) => Some(c.membership()),
            ClusterKind::Fusee(_) => None,
        }
    }

    /// *Modeled* per-key disaggregated-memory footprint in bytes (the
    /// Table 3 accounting, protocol-appropriate).
    pub fn modeled_bytes_per_key(&self) -> u64 {
        match &self.kind {
            // Unreplicated: one value + key record.
            ClusterKind::Swarm(c, Proto::Raw) => (c.config().value_size + 24) as u64,
            // Safe-Guess carries per-writer timestamp-lock words.
            ClusterKind::Swarm(c, Proto::SafeGuess) => c.modeled_bytes_per_key(true),
            ClusterKind::Swarm(c, Proto::Abd) => c.modeled_bytes_per_key(false),
            ClusterKind::Fusee(c) => c.modeled_bytes_per_key(),
        }
    }

    /// Index traffic in bytes, where the substrate accounts it separately
    /// from the fabric (FUSEE's model folds index cost into its roundtrip
    /// counts instead).
    pub fn index_bytes(&self) -> u64 {
        match &self.kind {
            ClusterKind::Swarm(c, _) => c.index().traffic().1,
            ClusterKind::Fusee(_) => 0,
        }
    }

    /// The underlying [`Cluster`] for RAW / SWARM-KV / DM-ABD (escape
    /// hatch).
    pub fn swarm(&self) -> Option<&Cluster> {
        match &self.kind {
            ClusterKind::Swarm(c, _) => Some(c),
            ClusterKind::Fusee(_) => None,
        }
    }

    /// The underlying [`FuseeCluster`] (escape hatch).
    pub fn fusee(&self) -> Option<&FuseeCluster> {
        match &self.kind {
            ClusterKind::Swarm(..) => None,
            ClusterKind::Fusee(c) => Some(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_invariants_are_pinned_at_build() {
        // Sweeping knobs over all protocols must not un-pin the paper's
        // per-system configuration.
        let b = StoreBuilder::new(Protocol::Raw).replicas(5).meta_bufs(8);
        let cfg = b.effective_cluster_config();
        assert_eq!(cfg.replicas, 1, "RAW is unreplicated");
        assert_eq!(cfg.meta_bufs, 1);

        let b = StoreBuilder::new(Protocol::Abd).inplace(true).meta_bufs(8);
        let cfg = b.effective_cluster_config();
        assert!(!cfg.inplace, "DM-ABD has no in-place data");
        assert_eq!(cfg.meta_bufs, 1);

        let b = StoreBuilder::new(Protocol::SafeGuess)
            .replicas(5)
            .meta_bufs(8);
        let cfg = b.effective_cluster_config();
        assert_eq!((cfg.replicas, cfg.meta_bufs), (5, 8));
    }

    #[test]
    #[should_panic(expected = "build_sharded")]
    fn multi_shard_builder_refuses_unsharded_build() {
        // A builder carrying shards > 1 must never silently produce one
        // replica group (e.g. a bench feeding a sharded ExpParams into the
        // unsharded build path).
        let sim = Sim::new(1);
        let _ = StoreBuilder::new(Protocol::SafeGuess)
            .shards(4)
            .build_cluster(&sim);
    }

    #[test]
    fn fusee_keeps_its_own_replication_factor() {
        let sim = Sim::new(1);
        let cluster = StoreBuilder::new(Protocol::Fusee)
            .value_size(128)
            .replicas(7)
            .build_cluster(&sim);
        // Two `[version | value]` blocks, two pointer words, the key record:
        // the value size crosses substrates, the replica count does not.
        assert_eq!(cluster.modeled_bytes_per_key(), 2 * (8 + 128) + 16 + 24);
    }
}

//! The store interface shared by SWARM-KV, DM-ABD, RAW and FUSEE, with
//! typed results ([`KvError`]).

use std::future::Future;
use std::rc::Rc;

use swarm_fabric::Endpoint;
use swarm_sim::Nanos;

/// Why a store operation could not be applied.
///
/// Absence observed by a *read* is not an error — [`KvStore::get`] returns
/// `Ok(None)` for a key that is unindexed or deleted, since "absent" is a
/// perfectly linearizable answer. Errors are reserved for *mutations* the
/// store refused and for operational faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvError {
    /// The key has no index mapping (e.g. `delete` of an absent key).
    NotFound,
    /// The key's replicas hold a tombstone: it was deleted and not yet
    /// re-inserted, and §5.3.3 rejects writes through tombstones.
    Deleted,
    /// The index refused a new mapping because it is at capacity
    /// (see `ClusterConfig::index_capacity`).
    IndexFull,
    /// The operation did not complete in time. Two sources: the client's
    /// per-op deadline (`StoreBuilder::op_deadline_ns`), which every
    /// protocol honours once it is set, and the silence of a memory node
    /// on an unreplicated path (RAW, FUSEE's fixed replica sets); without
    /// a deadline the replicated protocols widen their quorums past dead
    /// nodes instead (§7.7). The effect is ambiguous: messages already
    /// sent may still land, like a client crash mid-operation.
    Timeout,
    /// `update` addressed a key that was never inserted: updates require an
    /// existing mapping (§5.3.3) — use `insert` for fresh keys.
    NotIndexed,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::NotFound => f.write_str("key not found"),
            KvError::Deleted => f.write_str("key is deleted (tombstone)"),
            KvError::IndexFull => f.write_str("index at capacity"),
            KvError::Timeout => f.write_str("memory node stopped answering"),
            KvError::NotIndexed => f.write_str("key has no index mapping"),
        }
    }
}

impl std::error::Error for KvError {}

/// Result of a store operation.
pub type KvResult<T> = Result<T, KvError>;

/// What a [`KvStore::scan`] returns: `(key, value)` pairs ascending by key.
pub type ScanItems = Vec<(u64, Rc<Vec<u8>>)>;

/// A key-value store client, one per application thread.
///
/// All methods take `&self`; handles use interior mutability so a client can
/// drive several concurrent operations (§7.2's 1–8 ops in flight).
pub trait KvStore {
    /// Reads a key. `Ok(None)` if absent (unindexed or deleted).
    fn get(&self, key: u64) -> impl Future<Output = KvResult<Option<Rc<Vec<u8>>>>> + '_;

    /// Overwrites a key. Errors with [`KvError::NotIndexed`] if the key was
    /// never inserted and [`KvError::Deleted`] through a tombstone (§5.3.3).
    fn update(&self, key: u64, value: Vec<u8>) -> impl Future<Output = KvResult<()>> + '_;

    /// Inserts a key (turns into an update if a live mapping exists,
    /// §5.3.1). Errors with [`KvError::IndexFull`] if the index is at
    /// capacity.
    fn insert(&self, key: u64, value: Vec<u8>) -> impl Future<Output = KvResult<()>> + '_;

    /// Deletes a key. Errors with [`KvError::NotFound`] if it was absent.
    fn delete(&self, key: u64) -> impl Future<Output = KvResult<()>> + '_;

    /// Ordered range read (YCSB E): up to `limit` live `(key, value)` pairs
    /// with `key >= start`, ascending by key. Best-effort per key: a key
    /// that disappears between the index walk and the value fetch is simply
    /// absent from the result (a scan is not a snapshot).
    fn scan(&self, start: u64, limit: usize) -> impl Future<Output = KvResult<ScanItems>> + '_;

    /// A plain [`KvStore::insert`] that drops its lease argument: nothing
    /// in this workspace expires keys, and no store here overrides this
    /// body. It stays only because the benchmark's `TracedStore`
    /// (`benchmark/src/trace.rs`) implements it; ROADMAP item 8 deletes
    /// both.
    fn insert_ttl(
        &self,
        key: u64,
        value: Vec<u8>,
        ttl_ns: Option<Nanos>,
    ) -> impl Future<Output = KvResult<()>> + '_ {
        let _ = ttl_ns;
        self.insert(key, value)
    }

    /// Cumulative foreground roundtrips performed by this client (the
    /// runner differences this around sequential ops for Table 2).
    fn rounds(&self) -> u64;

    /// This client's fabric endpoint (CPU + traffic accounting).
    fn endpoint(&self) -> Rc<Endpoint>;

    /// Client id (0-based).
    fn client_id(&self) -> usize;
}

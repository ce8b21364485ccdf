//! The reliable index service (§5.2).
//!
//! SWARM-KV "is oblivious to the choice of index, as long as it is reliable
//! and allows clients to set and get the replicas associated to a key in a
//! single roundtrip in the common case". The paper uses FUSEE's index
//! modified for strong consistency; we model it as a fault-tolerant keyed
//! service running on traditional servers: every operation costs one
//! roundtrip of the same wire model as the fabric plus a small service time,
//! serialized through the index server's CPU.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use swarm_sim::{oneshot, FifoResource, Jitter, Nanos, Sim, SimRng};

/// Outcome of [`Index::try_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome<L> {
    /// The mapping was created.
    Inserted,
    /// A live mapping already exists, and this is it (the caller falls back
    /// to an update through it, §5.3.1).
    Exists(L),
    /// The index is at capacity and refused the new mapping.
    Full,
}

struct Inner<L> {
    sim: Sim,
    rng: SimRng,
    /// The one key→location map, ordered: scans and control-plane walks
    /// read it in key order without sorting.
    map: RefCell<BTreeMap<u64, L>>,
    capacity: Option<usize>,
    cpu: FifoResource,
    wire: Jitter,
    service_ns: Nanos,
    ops: Cell<u64>,
    bytes: Cell<u64>,
}

/// A strongly consistent, always-available index mapping keys to replica
/// locations `L`.
pub struct Index<L> {
    inner: Rc<Inner<L>>,
}

impl<L> Clone for Index<L> {
    fn clone(&self) -> Self {
        Index {
            inner: Rc::clone(&self.inner),
        }
    }
}

/// Modeled wire size of one index request+response (key + location record).
pub const INDEX_MSG_BYTES: u64 = 24 + 24 + 60;

impl<L: Clone + 'static> Index<L> {
    /// Creates an index whose operations each cost one roundtrip over
    /// `wire` — the fabric's own one-way model, so a replaced fabric
    /// reaches the index leg too — and that [`Index::try_insert`] caps at
    /// `capacity` live mappings (`None` = unbounded). Control-plane
    /// [`Index::load`] ignores the cap: bulk loading models a
    /// pre-provisioned keyspace. Latency jitter draws from `rng`: a sharded
    /// cluster gives each shard's index a private fork so its draws cannot
    /// perturb other shards (see `Sim::fork_rng`).
    pub fn new(sim: &Sim, capacity: Option<usize>, wire: Jitter, rng: SimRng) -> Self {
        Index {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                rng,
                map: RefCell::new(BTreeMap::new()),
                capacity,
                cpu: FifoResource::new(sim),
                wire,
                service_ns: 150,
                ops: Cell::new(0),
                bytes: Cell::new(0),
            }),
        }
    }

    async fn roundtrip(&self) {
        let inner = &self.inner;
        inner.ops.set(inner.ops.get() + 1);
        inner.bytes.set(inner.bytes.get() + INDEX_MSG_BYTES);
        let out = inner.wire.sample_rng(&inner.rng);
        let (tx, rx) = oneshot::<()>();
        let this = Rc::clone(inner);
        let sim = inner.sim.clone();
        sim.clone().schedule_after(out, move |s| {
            // Server-side service, then the reply flies back.
            let (_, done) = this.cpu.reserve(this.service_ns);
            let back = this.wire.sample_rng(&this.rng);
            s.schedule_at(done + back, move |_| tx.send(()));
        });
        rx.await;
    }

    /// Looks up a key (1 RTT).
    pub async fn get(&self, key: u64) -> Option<L> {
        self.roundtrip().await;
        self.inner.map.borrow().get(&key).cloned()
    }

    /// Inserts a mapping unless one exists (1 RTT). On `Exists` the caller
    /// receives the existing mapping. On `Full` the mapping count is at the
    /// configured capacity and nothing was inserted.
    pub async fn try_insert(&self, key: u64, loc: L) -> InsertOutcome<L> {
        self.roundtrip().await;
        let mut map = self.inner.map.borrow_mut();
        match map.get(&key) {
            Some(existing) => InsertOutcome::Exists(existing.clone()),
            None if self.inner.capacity.is_some_and(|cap| map.len() >= cap) => InsertOutcome::Full,
            None => {
                map.insert(key, loc);
                InsertOutcome::Inserted
            }
        }
    }

    /// Overwrites a mapping unconditionally (1 RTT).
    pub async fn set(&self, key: u64, loc: L) {
        self.roundtrip().await;
        self.inner.map.borrow_mut().insert(key, loc);
    }

    /// Like [`Index::set`], but refuses a *new* mapping when the index is at
    /// capacity (1 RTT). The capacity check happens atomically with the
    /// insertion — after the roundtrip — so concurrent inserts cannot race
    /// past the cap. Returns whether the mapping was stored.
    pub async fn set_within_capacity(&self, key: u64, loc: L) -> bool {
        self.roundtrip().await;
        let mut map = self.inner.map.borrow_mut();
        if !map.contains_key(&key) && self.inner.capacity.is_some_and(|cap| map.len() >= cap) {
            return false;
        }
        map.insert(key, loc);
        true
    }

    /// Removes a mapping (1 RTT).
    pub async fn remove(&self, key: u64) {
        self.roundtrip().await;
        self.inner.map.borrow_mut().remove(&key);
    }

    /// Removes a mapping only if `pred` accepts the current one (1 RTT,
    /// check atomic with the removal). A deleter uses this to unmap exactly
    /// the generation it tombstoned: unconditional removal would let a
    /// delete racing a re-insert unmap the re-inserter's *fresh* — never
    /// tombstoned — replicas. Returns whether a mapping was removed.
    pub async fn remove_if(&self, key: u64, pred: impl FnOnce(&L) -> bool) -> bool {
        self.roundtrip().await;
        let mut map = self.inner.map.borrow_mut();
        if map.get(&key).is_some_and(pred) {
            map.remove(&key);
            true
        } else {
            false
        }
    }

    /// Ordered range lookup: up to `limit` live keys `>= start`, ascending,
    /// in one roundtrip (1 RTT). This is the index-side half of a scan
    /// (YCSB E): the index server walks its mapping in key order and
    /// returns the matching keys; the client then fetches the values
    /// through its normal read path. Each returned key adds its wire cost
    /// to the traffic counters on top of the base request size.
    pub async fn range_keys(&self, start: u64, limit: usize) -> Vec<u64> {
        self.roundtrip().await;
        let keys: Vec<u64> = self
            .inner
            .map
            .borrow()
            .range(start..)
            .take(limit)
            .map(|(&k, _)| k)
            .collect();
        // 8 bytes per returned key on the reply wire.
        self.inner
            .bytes
            .set(self.inner.bytes.get() + 8 * keys.len() as u64);
        keys
    }

    /// Control-plane bulk insert: no network cost (used by experiment
    /// loaders, which the paper does not measure).
    pub fn load(&self, key: u64, loc: L) {
        self.inner.map.borrow_mut().insert(key, loc);
    }

    /// Control-plane lookup without network cost (tests / recycling scans).
    pub fn peek(&self, key: u64) -> Option<L> {
        self.inner.map.borrow().get(&key).cloned()
    }

    /// Control-plane enumeration of the live keys, ascending (no network
    /// cost). The migration copy driver walks a shard's keyspace with it;
    /// key order makes the walk independent of insertion history, so a
    /// migration replays bit-identically.
    pub fn keys_sorted(&self) -> Vec<u64> {
        self.inner.map.borrow().keys().copied().collect()
    }

    /// Control-plane enumeration of the live mappings, ascending by key (no
    /// network cost): what repair and the divergence probe walk, so they
    /// see exactly the allocations a client would be routed to.
    pub fn entries_sorted(&self) -> Vec<(u64, L)> {
        let map = self.inner.map.borrow();
        map.iter().map(|(&k, loc)| (k, loc.clone())).collect()
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.inner.map.borrow().len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(operations served, bytes transferred)`.
    pub fn traffic(&self) -> (u64, u64) {
        (self.inner.ops.get(), self.inner.bytes.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(sim: &Sim, capacity: Option<usize>) -> Index<u32> {
        Index::new(sim, capacity, Jitter::fabric(640.0), SimRng::shared(sim))
    }

    #[test]
    fn get_set_remove_roundtrip() {
        let sim = Sim::new(1);
        let idx = index(&sim, None);
        let i2 = idx.clone();
        sim.block_on(async move {
            assert_eq!(i2.get(5).await, None);
            i2.set(5, 99).await;
            assert_eq!(i2.get(5).await, Some(99));
            i2.remove(5).await;
            assert_eq!(i2.get(5).await, None);
        });
        assert_eq!(idx.traffic().0, 5);
    }

    #[test]
    fn lookup_costs_one_roundtrip() {
        let sim = Sim::new(2);
        let idx = index(&sim, None);
        let s = sim.clone();
        let rtt = sim.block_on(async move {
            let t0 = s.now();
            idx.get(1).await;
            s.now() - t0
        });
        assert!((1_000..3_000).contains(&rtt), "index RTT {rtt}");
    }

    #[test]
    fn try_insert_detects_existing() {
        let sim = Sim::new(3);
        let idx = index(&sim, None);
        sim.block_on(async move {
            assert_eq!(idx.try_insert(7, 1).await, InsertOutcome::Inserted);
            assert_eq!(idx.try_insert(7, 2).await, InsertOutcome::Exists(1));
            assert_eq!(idx.get(7).await, Some(1));
        });
    }

    #[test]
    fn capacity_bounds_try_insert_but_not_load() {
        let sim = Sim::new(5);
        let idx = index(&sim, Some(2));
        sim.block_on({
            let idx = idx.clone();
            async move {
                assert_eq!(idx.try_insert(1, 1).await, InsertOutcome::Inserted);
                assert_eq!(idx.try_insert(2, 2).await, InsertOutcome::Inserted);
                assert_eq!(idx.try_insert(3, 3).await, InsertOutcome::Full);
                // Existing keys are still found, not rejected.
                assert_eq!(idx.try_insert(1, 9).await, InsertOutcome::Exists(1));
                // Removal frees a slot.
                idx.remove(1).await;
                assert_eq!(idx.try_insert(3, 3).await, InsertOutcome::Inserted);
            }
        });
        assert_eq!(idx.len(), 2, "at capacity");
        // Control-plane loading is exempt (pre-provisioned keyspace).
        idx.load(99, 0);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn load_and_peek_are_free() {
        let sim = Sim::new(4);
        let idx = index(&sim, None);
        idx.load(1, 10);
        assert_eq!(idx.peek(1), Some(10));
        assert_eq!(idx.traffic(), (0, 0));
        assert_eq!(idx.len(), 1);
    }
}

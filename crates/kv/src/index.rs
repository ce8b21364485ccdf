//! The reliable index service (§5.2).
//!
//! SWARM-KV "is oblivious to the choice of index, as long as it is reliable
//! and allows clients to set and get the replicas associated to a key in a
//! single roundtrip in the common case". The paper uses FUSEE's index
//! modified for strong consistency; we model it as a fault-tolerant keyed
//! service running on traditional servers: every operation costs one
//! roundtrip of the same wire model as the fabric plus a small service time,
//! serialized through the index server's CPU.
//!
//! Every mapping change is one conditional write, [`Index::swap`]: the
//! caller names the mapping it expects (absent, or the allocation
//! generation it saw) and the server checks and changes it atomically.
//! §5.3.1's "a mapping to replicas marked for deletion is overwritten" is
//! then a compare-and-swap on the tombstoned generation, so two clients that
//! saw the same tombstone cannot each install a generation of their own.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use swarm_sim::{oneshot, FifoResource, Jitter, Nanos, Sim, SimRng};

/// Outcome of [`Index::swap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Swap<L> {
    /// The expectation held and the change was applied.
    Done,
    /// The expectation failed; this is the current mapping (`None`: the key
    /// is unmapped). Nothing changed.
    Refused(Option<L>),
    /// The change would add a mapping to an index at capacity. Nothing
    /// changed.
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
    /// reaches the index leg too — and that [`Index::swap`] caps at
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
        let out = inner.wire.sample(&inner.rng);
        let (tx, rx) = oneshot::<()>();
        let this = Rc::clone(inner);
        let sim = inner.sim.clone();
        sim.clone().schedule_after(out, move |s| {
            // Server-side service, then the reply flies back.
            let (_, done) = this.cpu.reserve(this.service_ns);
            let back = this.wire.sample(&this.rng);
            s.schedule_at(done + back, move |_| tx.send(()));
        });
        rx.await;
    }

    /// Looks up a key (1 RTT).
    pub async fn get(&self, key: u64) -> Option<L> {
        self.roundtrip().await;
        self.inner.map.borrow().get(&key).cloned()
    }

    /// The one mapping change (1 RTT): if `expect` accepts the current
    /// mapping of `key` (`None`: unmapped), `key` maps to `new` (`None`:
    /// unmapped) and the outcome is [`Swap::Done`]; otherwise nothing changes
    /// and the current mapping comes back in [`Swap::Refused`]. The check and
    /// the change happen atomically, after the roundtrip. The capacity refuses
    /// only a new mapping for an absent key ([`Swap::Full`]), so concurrent
    /// inserts cannot race past the cap. A client names the mapping it saw —
    /// absent for an insert, the generation it tombstoned for an overwrite
    /// or an unmap — so a change racing another client's cannot undo it.
    pub async fn swap(
        &self,
        key: u64,
        expect: impl FnOnce(Option<&L>) -> bool,
        new: Option<L>,
    ) -> Swap<L> {
        self.roundtrip().await;
        let mut map = self.inner.map.borrow_mut();
        let cur = map.get(&key);
        if !expect(cur) {
            return Swap::Refused(cur.cloned());
        }
        let absent = cur.is_none();
        match new {
            Some(_) if absent && self.inner.capacity.is_some_and(|cap| map.len() >= cap) => {
                Swap::Full
            }
            Some(loc) => {
                map.insert(key, loc);
                Swap::Done
            }
            None => {
                map.remove(&key);
                Swap::Done
            }
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
        Index::new(sim, capacity, Jitter::fabric(640.0), sim.rng().clone())
    }

    /// Expects whatever is mapped: an unconditional set or remove.
    fn any(_: Option<&u32>) -> bool {
        true
    }

    /// Expects the key unmapped: an insert.
    fn absent(cur: Option<&u32>) -> bool {
        cur.is_none()
    }

    #[test]
    fn get_set_remove_roundtrip() {
        let sim = Sim::new(1);
        let idx = index(&sim, None);
        let i2 = idx.clone();
        sim.block_on(async move {
            assert_eq!(i2.get(5).await, None);
            assert_eq!(i2.swap(5, any, Some(99)).await, Swap::Done);
            assert_eq!(i2.get(5).await, Some(99));
            assert_eq!(i2.swap(5, any, None).await, Swap::Done);
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
    fn swap_expecting_absent_returns_the_existing_mapping() {
        let sim = Sim::new(3);
        let idx = index(&sim, None);
        sim.block_on(async move {
            assert_eq!(idx.swap(7, absent, Some(1)).await, Swap::Done);
            assert_eq!(idx.swap(7, absent, Some(2)).await, Swap::Refused(Some(1)));
            assert_eq!(idx.get(7).await, Some(1));
        });
    }

    /// A generation stands for what a client saw: once another client has
    /// replaced it, a change that names it is refused and learns the mapping
    /// that replaced it, for the overwrite and the unmap alike.
    #[test]
    fn swap_expecting_a_superseded_generation_is_refused() {
        let sim = Sim::new(6);
        let idx = index(&sim, None);
        idx.load(3, 10);
        sim.block_on(async move {
            let saw = |g| move |cur: Option<&u32>| cur == Some(&g);
            assert_eq!(idx.swap(3, saw(10), Some(14)).await, Swap::Done);
            assert_eq!(
                idx.swap(3, saw(10), Some(15)).await,
                Swap::Refused(Some(14))
            );
            assert_eq!(idx.swap(3, saw(10), None).await, Swap::Refused(Some(14)));
            assert_eq!(idx.get(3).await, Some(14));
            assert_eq!(idx.swap(3, saw(14), None).await, Swap::Done);
            assert_eq!(idx.swap(3, saw(14), None).await, Swap::Refused(None));
        });
    }

    #[test]
    fn capacity_bounds_new_mappings_but_not_load() {
        let sim = Sim::new(5);
        let idx = index(&sim, Some(2));
        sim.block_on({
            let idx = idx.clone();
            async move {
                assert_eq!(idx.swap(1, absent, Some(1)).await, Swap::Done);
                assert_eq!(idx.swap(2, absent, Some(2)).await, Swap::Done);
                assert_eq!(idx.swap(3, absent, Some(3)).await, Swap::Full);
                assert_eq!(idx.swap(3, any, Some(3)).await, Swap::Full);
                // Existing keys are still found, not rejected, and may be
                // overwritten at capacity.
                assert_eq!(idx.swap(1, absent, Some(9)).await, Swap::Refused(Some(1)));
                assert_eq!(idx.swap(2, any, Some(8)).await, Swap::Done);
                // Removal frees a slot.
                assert_eq!(idx.swap(1, any, None).await, Swap::Done);
                assert_eq!(idx.swap(3, absent, Some(3)).await, Swap::Done);
            }
        });
        assert_eq!(idx.len(), 2, "at capacity");
        assert_eq!(idx.peek(2), Some(8));
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

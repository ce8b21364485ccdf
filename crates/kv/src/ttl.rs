//! Lease-stamped TTL traffic: a [`TtlStore`] wrapper that makes expired
//! keys read as absent, with expiry modeled for the checker as a legal
//! linearization point.
//!
//! # How expiry stays linearizable
//!
//! A TTL is client-observable state with no dedicated delete message: the
//! key simply *becomes* absent when virtual time passes the lease. The
//! checker is taught this by pushing one **ambiguous delete** per expired
//! lease at the expiry instant (`KvHistory::expire`): an ambiguous op may
//! be applied at any legal point after everything that completed before
//! the expiry instant, or discarded entirely (e.g. when a later write
//! "resurrected" the key before anyone observed the expiry). Pre-expiry
//! reads of `Some` and post-expiry reads of `None` both linearize against
//! that single flexible event, and no checker search changes are needed —
//! delete is already legal in any state.
//!
//! # Wire format
//!
//! Every value stored through the wrapper carries an 8-byte little-endian
//! expiry prefix (`u64::MAX` = never expires). [`TtlStore::stamp_never`]
//! pre-stamps bulk-loaded values so the strip on read is uniform; history
//! recorders should sit *outside* the wrapper so they see unstamped
//! payloads (tags stay stable whether or not TTL is in play).

use std::cell::RefCell;
use std::rc::Rc;

use swarm_fabric::Endpoint;
use swarm_sim::{Nanos, Sim};

use crate::store::{KvError, KvResult, KvStore, ScanItems};

/// Expiry sentinel: the value never expires.
pub const TTL_NEVER: u64 = u64::MAX;

/// Prefixes `value` with an explicit expiry stamp (the [`TtlStore`] wire
/// format: 8 bytes little-endian expiry, then the payload).
pub fn ttl_stamp(value: &[u8], expiry_ns: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + value.len());
    v.extend_from_slice(&expiry_ns.to_le_bytes());
    v.extend_from_slice(value);
    v
}

/// Prefixes `value` with the never-expires stamp — bulk loaders must
/// pre-stamp values this way when the run reads through a [`TtlStore`].
pub fn ttl_stamp_never(value: &[u8]) -> Vec<u8> {
    ttl_stamp(value, TTL_NEVER)
}

/// A [`KvStore`] wrapper adding TTL leases (see the module docs).
///
/// All values pass through stamped with an expiry prefix; reads and scans
/// strip the prefix and turn a passed lease into absence (`Ok(None)` /
/// omission from scan results). Leases granted through
/// [`KvStore::insert_ttl`] are tracked so a test harness can replay their
/// expiry instants into a history via [`TtlStore::take_expired`].
pub struct TtlStore<S> {
    inner: Rc<S>,
    sim: Sim,
    leases: RefCell<Vec<(u64, Nanos)>>,
}

impl<S: KvStore> TtlStore<S> {
    /// Wraps `inner`, stamping expiries from `sim`'s virtual clock.
    pub fn new(sim: &Sim, inner: Rc<S>) -> Rc<Self> {
        Rc::new(TtlStore {
            inner,
            sim: sim.clone(),
            leases: RefCell::new(Vec::new()),
        })
    }

    /// Leases granted via [`KvStore::insert_ttl`] whose expiry has passed,
    /// as `(key, expiry_ns)` pairs; drains them so each expiry is reported
    /// once. Feed these to `KvHistory::expire` (or
    /// `HistoryRecorder::note_expiry`) before checking a recorded history.
    pub fn take_expired(&self) -> Vec<(u64, Nanos)> {
        let now = self.sim.now();
        let mut leases = self.leases.borrow_mut();
        let (expired, live): (Vec<_>, Vec<_>) = leases.drain(..).partition(|&(_, at)| at <= now);
        *leases = live;
        expired
    }

    /// Strips the expiry prefix; `None` if the lease has passed.
    fn strip_live(&self, v: &[u8]) -> Option<Rc<Vec<u8>>> {
        let expiry = u64::from_le_bytes(
            v[..8]
                .try_into()
                .expect("TtlStore read a value without an expiry stamp"),
        );
        if self.sim.now() >= expiry {
            None
        } else {
            Some(Rc::new(v[8..].to_vec()))
        }
    }
}

impl<S: KvStore> KvStore for TtlStore<S> {
    /// Reads through the wrapper: an expired lease reads as `Ok(None)`
    /// (checked against virtual *response* time, like a server evaluating
    /// the lease when it serves the read).
    async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        let r = self.inner.get(key).await?;
        Ok(r.and_then(|v| self.strip_live(&v)))
    }

    /// Overwrites with a never-expiring value — an update "resurrects" an
    /// expired-but-unreclaimed key, which is linearizable because the
    /// checker's expiry delete is ambiguous (discardable).
    async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.inner.update(key, ttl_stamp_never(&value)).await
    }

    /// Inserts a never-expiring value.
    async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.inner.insert(key, ttl_stamp_never(&value)).await
    }

    async fn delete(&self, key: u64) -> KvResult<()> {
        self.inner.delete(key).await
    }

    /// Scans through the wrapper: expired entries are omitted, live ones
    /// have their stamps stripped.
    async fn scan(&self, start: u64, limit: usize) -> KvResult<ScanItems> {
        let items = self.inner.scan(start, limit).await?;
        Ok(items
            .into_iter()
            .filter_map(|(k, v)| self.strip_live(&v).map(|v| (k, v)))
            .collect())
    }

    /// Inserts with a lease: after `ttl_ns` the key reads as absent. The
    /// lease is recorded for [`TtlStore::take_expired`] unless the insert
    /// was refused: a timed-out insert may still land, and tracking one
    /// that did not is harmless (its expiry is an ambiguous delete, which
    /// the checker may discard).
    async fn insert_ttl(&self, key: u64, value: Vec<u8>, ttl_ns: Option<Nanos>) -> KvResult<()> {
        let Some(ttl) = ttl_ns else {
            return self.insert(key, value).await;
        };
        let expiry = self.sim.now() + ttl;
        let r = self.inner.insert(key, ttl_stamp(&value, expiry)).await;
        if matches!(r, Ok(()) | Err(KvError::Timeout)) {
            self.leases.borrow_mut().push((key, expiry));
        }
        r
    }

    fn rounds(&self) -> u64 {
        self.inner.rounds()
    }

    fn endpoint(&self) -> Rc<Endpoint> {
        self.inner.endpoint()
    }

    fn client_id(&self) -> usize {
        self.inner.client_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistoryRecorder, Protocol, StoreBuilder, StoreClient};

    fn tagged(tag: u64) -> Vec<u8> {
        let mut v = vec![0u8; 64];
        v[..8].copy_from_slice(&tag.to_le_bytes());
        v
    }

    #[test]
    fn leases_expire_and_reads_turn_absent() {
        let sim = Sim::new(21);
        let cluster = StoreBuilder::new(Protocol::SafeGuess)
            .value_size(72)
            .build_cluster(&sim);
        cluster.load_keys(2, |k| ttl_stamp_never(&tagged(1_000 + k)));
        let ttl = TtlStore::new(&sim, cluster.client(0));
        let s = sim.clone();
        sim.block_on({
            let ttl = Rc::clone(&ttl);
            async move {
                // Bulk-loaded values read back unstamped.
                let v = ttl.get(0).await.unwrap().unwrap();
                assert_eq!(crate::value_tag(&v), 1_000);

                ttl.insert_ttl(9, tagged(7), Some(1_000_000)).await.unwrap();
                let v = ttl.get(9).await.unwrap().expect("lease still live");
                assert_eq!(crate::value_tag(&v), 7);

                s.sleep_ns(2_000_000).await;
                assert_eq!(ttl.get(9).await.unwrap(), None, "lease passed");
                // Unleased keys are unaffected.
                assert!(ttl.get(0).await.unwrap().is_some());
            }
        });
        let expired = ttl.take_expired();
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, 9);
        assert!(ttl.take_expired().is_empty(), "each expiry reports once");
    }

    #[test]
    fn update_resurrects_and_scan_filters() {
        let sim = Sim::new(22);
        let cluster = StoreBuilder::new(Protocol::SafeGuess)
            .value_size(72)
            .build_cluster(&sim);
        cluster.load_keys(4, |k| ttl_stamp_never(&tagged(1_000 + k)));
        let ttl = TtlStore::new(&sim, cluster.client(0));
        let s = sim.clone();
        sim.block_on(async move {
            ttl.insert_ttl(2, tagged(5), Some(1_000)).await.unwrap();
            s.sleep_ns(1_000_000).await;
            assert_eq!(ttl.get(2).await.unwrap(), None);
            // Scan omits the expired key but keeps its live neighbors.
            let items = ttl.scan(0, 16).await.unwrap();
            let keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
            assert_eq!(keys, vec![0, 1, 3]);
            // An update through the wrapper resurrects the key forever.
            ttl.update(2, tagged(6)).await.unwrap();
            let v = ttl.get(2).await.unwrap().expect("resurrected");
            assert_eq!(crate::value_tag(&v), 6);
        });
    }

    #[test]
    fn recorded_ttl_history_linearizes_with_expiry_events() {
        let sim = Sim::new(23);
        let cluster = StoreBuilder::new(Protocol::SafeGuess)
            .value_size(72)
            .build_cluster(&sim);
        cluster.load_keys(2, |k| ttl_stamp_never(&tagged(1_000 + k)));
        // Recorder OUTSIDE the wrapper: it sees unstamped payloads.
        let rec = HistoryRecorder::new(&sim);
        for k in 0..2 {
            rec.set_initial(k, &tagged(1_000 + k));
        }
        let ttl = TtlStore::new(&sim, cluster.client(0));
        let store = rec.wrap(Rc::clone(&ttl));
        let s = sim.clone();
        sim.block_on(async move {
            store.insert_ttl(5, tagged(9), Some(500_000)).await.unwrap();
            let v = store.get(5).await.unwrap().expect("pre-expiry read");
            assert_eq!(crate::value_tag(&v), 9);
            s.sleep_ns(1_000_000).await;
            assert_eq!(store.get(5).await.unwrap(), None, "post-expiry read");
        });
        for (key, at) in ttl.take_expired() {
            rec.note_expiry(key, at);
        }
        rec.take_history()
            .check()
            .expect("expiry must be a legal linearization point");
    }

    /// A store whose inserts apply and then report `Timeout`: the write
    /// landed, its reply was lost.
    struct LostInsertReply(Rc<StoreClient>);

    impl KvStore for LostInsertReply {
        async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
            self.0.get(key).await
        }

        async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
            self.0.update(key, value).await
        }

        async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
            self.0.insert(key, value).await?;
            Err(KvError::Timeout)
        }

        async fn delete(&self, key: u64) -> KvResult<()> {
            self.0.delete(key).await
        }

        async fn scan(&self, start: u64, limit: usize) -> KvResult<ScanItems> {
            self.0.scan(start, limit).await
        }

        fn rounds(&self) -> u64 {
            self.0.rounds()
        }

        fn endpoint(&self) -> Rc<Endpoint> {
            self.0.endpoint()
        }

        fn client_id(&self) -> usize {
            self.0.client_id()
        }
    }

    /// A leased insert that timed out may still have landed; its lease must
    /// be tracked, or a get after expiry reads `None` with no expiry event
    /// to explain it and the checker rejects a correct history.
    #[test]
    fn a_timed_out_leased_insert_still_reports_its_expiry() {
        let sim = Sim::new(24);
        let cluster = StoreBuilder::new(Protocol::SafeGuess)
            .value_size(72)
            .build_cluster(&sim);
        let rec = HistoryRecorder::new(&sim);
        let ttl = TtlStore::new(&sim, Rc::new(LostInsertReply(cluster.client(0))));
        let store = rec.wrap(Rc::clone(&ttl));
        let s = sim.clone();
        sim.block_on(async move {
            let r = store.insert_ttl(5, tagged(9), Some(500_000)).await;
            assert_eq!(r, Err(KvError::Timeout));
            let v = store.get(5).await.unwrap().expect("the insert landed");
            assert_eq!(crate::value_tag(&v), 9);
            s.sleep_ns(1_000_000).await;
            assert_eq!(store.get(5).await.unwrap(), None, "post-expiry read");
        });
        for (key, at) in ttl.take_expired() {
            rec.note_expiry(key, at);
        }
        rec.take_history()
            .check()
            .expect("the timed-out insert's expiry must be reported");
    }
}

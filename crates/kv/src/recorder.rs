//! History recording for linearizability checking: wrap any [`KvStore`] in
//! a [`RecordingStore`] and every operation's invocation/response virtual
//! times and observed result are appended to a shared
//! [`KvHistory`](swarm_core::KvHistory).
//!
//! The wrapper implements [`KvStore`] itself, so it slots in anywhere a
//! store does — under the YCSB [`runner`](crate::run_workload), under a
//! client's concurrent ops (each is recorded as its own overlapping
//! operation), or under hand-written chaos workloads. Error returns are recorded with
//! their semantics: a `NotFound`-style rejection *observed absence*; a
//! [`KvError::Timeout`] leaves the operation's effect **ambiguous** (it may
//! still land via in-flight messages), which the checker treats as
//! apply-or-discard.
//!
//! The checker takes a history of any length: a run over wrapped stores
//! (a chaos cell, a `bench_shards` or `bench_scenarios` cell) records
//! every op, and the history stays resident until
//! [`HistoryRecorder::take_history`] hands it over.

use std::cell::RefCell;
use std::rc::Rc;

use swarm_core::{xxh64, KvHistory, KvOpKind};
use swarm_fabric::Endpoint;
use swarm_sim::Sim;

use crate::store::{KvError, KvResult, KvStore, ScanItems};

/// Derives the checker's `u64` value tag from stored bytes: the first 8
/// bytes little-endian (values of 8+ bytes with distinct prefixes — e.g.
/// `Workload::value_for` payloads or tag-prefixed chaos values — map to
/// distinct tags), or an xxh64 for shorter payloads.
pub fn value_tag(value: &[u8]) -> u64 {
    if value.len() >= 8 {
        u64::from_le_bytes(value[..8].try_into().unwrap())
    } else {
        xxh64(value, 0x7A65)
    }
}

struct Inner {
    sim: Sim,
    history: RefCell<KvHistory>,
}

/// A shared history sink. Clone-cheap; one recorder typically spans every
/// client of a run so the history captures true cross-client concurrency.
#[derive(Clone)]
pub struct HistoryRecorder {
    inner: Rc<Inner>,
}

impl HistoryRecorder {
    /// Creates an empty recorder stamping times from `sim`.
    pub fn new(sim: &Sim) -> Self {
        HistoryRecorder {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                history: RefCell::new(KvHistory::new()),
            }),
        }
    }

    /// Declares `key` bulk-loaded with `value` before the recorded run
    /// starts (its tag seeds the checker's initial state).
    pub fn set_initial(&self, key: u64, value: &[u8]) {
        self.inner
            .history
            .borrow_mut()
            .set_initial(key, value_tag(value));
    }

    /// Wraps a store so its operations are recorded into this history.
    pub fn wrap<S: KvStore>(&self, store: Rc<S>) -> Rc<RecordingStore<S>> {
        Rc::new(RecordingStore {
            store,
            rec: self.clone(),
        })
    }

    /// Operations recorded so far.
    pub fn len(&self) -> usize {
        self.inner.history.borrow().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.history.borrow().is_empty()
    }

    /// Takes the recorded history, leaving the recorder empty.
    pub fn take_history(&self) -> KvHistory {
        self.inner.history.replace(KvHistory::new())
    }
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Definite(KvOpKind),
    Ambiguous(KvOpKind),
}

/// Maps a mutation result to its history semantics. `intended` is the
/// state change the mutation would apply if it succeeded.
fn mutation_outcome(r: &KvResult<()>, intended: KvOpKind) -> Outcome {
    match r {
        Ok(()) => Outcome::Definite(intended),
        // The effect may or may not have landed: client-crash semantics.
        Err(KvError::Timeout) => Outcome::Ambiguous(intended),
        // The store observed absence and applied nothing.
        Err(KvError::NotFound) | Err(KvError::NotIndexed) | Err(KvError::Deleted) => {
            Outcome::Definite(KvOpKind::FailAbsent)
        }
        // Capacity is a global resource, not per-key state: a refusal is
        // legal at any point and changes nothing.
        Err(KvError::IndexFull) => Outcome::Definite(KvOpKind::FailNoop),
    }
}

/// A [`KvStore`] that records every operation into a shared
/// [`HistoryRecorder`]. Minted with [`HistoryRecorder::wrap`].
pub struct RecordingStore<S> {
    store: Rc<S>,
    rec: HistoryRecorder,
}

impl<S: KvStore> RecordingStore<S> {
    /// Records this client's operation on `key`, invoked at `invoke`.
    fn record(&self, key: u64, invoke: u64, outcome: Outcome) {
        let (now, client) = (self.rec.inner.sim.now(), Some(self.store.client_id()));
        let mut h = self.rec.inner.history.borrow_mut();
        match outcome {
            Outcome::Definite(kind) => h.record(client, key, invoke, Some(now), kind),
            Outcome::Ambiguous(kind) => h.record(client, key, invoke, None, kind),
        }
    }
}

impl<S: KvStore> KvStore for RecordingStore<S> {
    async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        let invoke = self.rec.inner.sim.now();
        let r = self.store.get(key).await;
        let outcome = match &r {
            Ok(Some(v)) => Outcome::Definite(KvOpKind::Get(Some(value_tag(v)))),
            Ok(None) => Outcome::Definite(KvOpKind::Get(None)),
            // A failed read observed nothing and changed nothing.
            Err(_) => Outcome::Definite(KvOpKind::FailNoop),
        };
        self.record(key, invoke, outcome);
        r
    }

    async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        let tag = value_tag(&value);
        let invoke = self.rec.inner.sim.now();
        let r = self.store.update(key, value).await;
        self.record(key, invoke, mutation_outcome(&r, KvOpKind::Update(tag)));
        r
    }

    async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        let tag = value_tag(&value);
        let invoke = self.rec.inner.sim.now();
        let r = self.store.insert(key, value).await;
        self.record(key, invoke, mutation_outcome(&r, KvOpKind::Insert(tag)));
        r
    }

    async fn delete(&self, key: u64) -> KvResult<()> {
        let invoke = self.rec.inner.sim.now();
        let r = self.store.delete(key).await;
        self.record(key, invoke, mutation_outcome(&r, KvOpKind::Delete));
        r
    }

    /// Records each `(key, value)` a scan returned as its own overlapping
    /// `Get(Some(tag))` spanning the whole scan. Keys the scan *omitted*
    /// are not recorded as absent: a shard-fanout scan cannot distinguish
    /// "never existed" from "vanished mid-flight", so only positive
    /// observations are claimed (conservative, still catches stale values).
    async fn scan(&self, start: u64, limit: usize) -> KvResult<ScanItems> {
        let invoke = self.rec.inner.sim.now();
        let r = self.store.scan(start, limit).await;
        if let Ok(items) = &r {
            for (key, value) in items {
                self.record(
                    *key,
                    invoke,
                    Outcome::Definite(KvOpKind::Get(Some(value_tag(value)))),
                );
            }
        }
        r
    }

    fn rounds(&self) -> u64 {
        self.store.rounds()
    }

    fn endpoint(&self) -> Rc<Endpoint> {
        self.store.endpoint()
    }

    fn client_id(&self) -> usize {
        self.store.client_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, StoreBuilder};
    use swarm_core::KvOpKind;
    use swarm_sim::{join_boxed, BoxFuture};

    fn tagged(tag: u64) -> Vec<u8> {
        let mut v = vec![0u8; 64];
        v[..8].copy_from_slice(&tag.to_le_bytes());
        v
    }

    #[test]
    fn value_tag_is_prefix_or_hash() {
        assert_eq!(value_tag(&tagged(77)), 77);
        assert_eq!(value_tag(&[1, 2, 3]), value_tag(&[1, 2, 3]));
        assert_ne!(value_tag(&[1, 2, 3]), value_tag(&[1, 2, 4]));
    }

    #[test]
    fn recorded_run_produces_a_checkable_history() {
        let sim = Sim::new(11);
        let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(&sim);
        cluster.load_keys(4, |k| tagged(1_000 + k));
        let rec = HistoryRecorder::new(&sim);
        for k in 0..4 {
            rec.set_initial(k, &tagged(1_000 + k));
        }
        let client = rec.wrap(cluster.client(0));
        let rec2 = rec.clone();
        sim.block_on(async move {
            assert_eq!(value_tag(&client.get(2).await.unwrap().unwrap()), 1_002);
            client.update(2, tagged(5)).await.unwrap();
            client.delete(3).await.unwrap();
            assert_eq!(client.get(3).await.unwrap(), None);
            client.insert(9, tagged(6)).await.unwrap();
        });
        let h = rec2.take_history();
        assert_eq!(h.len(), 5);
        assert_eq!(h.definite_ops(), 5);
        h.check().expect("sequential run must linearize");
        assert!(rec2.is_empty(), "take_history drains");
    }

    /// A run shaped like the benchmark's `hotkey_16c` (Fig. 12): 16
    /// clients on one key, YCSB A, 70 000 ops recorded and checked whole.
    #[test]
    fn sixteen_clients_on_one_key_linearize_at_bench_volume() {
        use swarm_workload::{Workload, WorkloadSpec};
        let sim = Sim::new(16);
        let cluster = StoreBuilder::new(Protocol::SafeGuess)
            .max_clients(16)
            .build_cluster(&sim);
        let wl = Workload::ycsb(WorkloadSpec::A, 1, 64);
        let rec = HistoryRecorder::new(&sim);
        cluster.load_keys(1, |k| {
            let v = wl.value_for(k, 0);
            rec.set_initial(k, &v);
            v
        });
        let stores: Vec<_> = cluster
            .clients(16)
            .into_iter()
            .map(|c| rec.wrap(c))
            .collect();
        let cfg = crate::RunConfig {
            warmup_ops: 10_000,
            measure_ops: 60_000,
            ..Default::default()
        };
        crate::run_workload(&sim, &stores, &wl, &cfg);
        let h = rec.take_history();
        assert_eq!(h.len(), 70_000);
        h.check().expect("the hot key linearizes");
    }

    #[test]
    fn batched_multi_ops_record_each_element() {
        let sim = Sim::new(12);
        let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(&sim);
        cluster.load_keys(8, |k| tagged(1_000 + k));
        let rec = HistoryRecorder::new(&sim);
        for k in 0..8 {
            rec.set_initial(k, &tagged(1_000 + k));
        }
        let client = rec.wrap(cluster.client(0));
        sim.block_on(async move {
            type Got = KvResult<Option<Rc<Vec<u8>>>>;
            let gets: Vec<BoxFuture<'_, Got>> =
                (0..4).map(|k| Box::pin(client.get(k)) as _).collect();
            for r in join_boxed(gets).await {
                r.unwrap();
            }
        });
        let h = rec.take_history();
        assert_eq!(h.len(), 4, "one record per concurrent op");
        assert!(h.is_linearizable());
        // The ops overlap in time: all share the invoke instant.
        let invokes: Vec<u64> = h.ops().iter().map(|o| o.invoke).collect();
        assert!(invokes.windows(2).all(|w| w[0] == w[1]));
    }

    /// One row per result: what each mutation result means to the checker.
    #[test]
    fn every_mutation_result_has_its_history_semantics() {
        let intended = KvOpKind::Update(7);
        // No wildcard: a new `KvError` variant fails to compile here until
        // it gets a row.
        let expected = |r: &KvResult<()>| match r {
            Ok(()) => Outcome::Definite(intended),
            Err(KvError::Timeout) => Outcome::Ambiguous(intended),
            Err(KvError::NotFound | KvError::NotIndexed | KvError::Deleted) => {
                Outcome::Definite(KvOpKind::FailAbsent)
            }
            Err(KvError::IndexFull) => Outcome::Definite(KvOpKind::FailNoop),
        };
        let results = [
            Ok(()),
            Err(KvError::Timeout),
            Err(KvError::NotFound),
            Err(KvError::NotIndexed),
            Err(KvError::Deleted),
            Err(KvError::IndexFull),
        ];
        for r in &results {
            assert_eq!(mutation_outcome(r, intended), expected(r), "{r:?}");
        }
    }

    #[test]
    fn timeout_is_recorded_as_ambiguous() {
        let sim = Sim::new(13);
        let cluster = StoreBuilder::new(Protocol::Raw)
            .op_deadline_ns(200_000)
            .build_cluster(&sim);
        cluster.load_keys(2, |k| tagged(1_000 + k));
        let rec = HistoryRecorder::new(&sim);
        rec.set_initial(0, &tagged(1_000));
        rec.set_initial(1, &tagged(1_001));
        // Crash the node hosting key 0's single replica.
        let node = cluster.swarm().unwrap().replica_nodes_for(0)[0];
        cluster.crash_node(node);
        let client = rec.wrap(cluster.client(0));
        sim.block_on(async move {
            assert_eq!(
                client.update(0, tagged(9)).await,
                Err(crate::KvError::Timeout)
            );
        });
        let h = rec.take_history();
        assert_eq!(h.len(), 1);
        assert_eq!(h.definite_ops(), 0, "timeout must be ambiguous");
        assert_eq!(h.ops()[0].kind, KvOpKind::Update(9));
        assert!(h.is_linearizable());
    }
}

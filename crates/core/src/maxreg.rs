//! Reliable wait-free max register over fallible replicas (Appendix A,
//! Algorithm 8), with the paper's deployment optimizations (§6):
//! operations optimistically contact a mere majority of the replicas
//! (chosen per register to spread load) and widen to all replicas when a
//! response is slow; a per-client local cache makes the write-back phase of
//! reads free in the common case.
//!
//! How a quorum wait is staged — optimistic send, hedge at the tracked RTT
//! percentile, widen deadline, suspicion, ticket settlement — is
//! [`QuorumRound`]'s business and documented there once. This module only
//! chooses each round's inputs: how many responses it needs, the candidate
//! order (unsuspected replicas in rotation order, then suspected ones; a
//! write skips replicas the cache proves current; the payload chase lists
//! its one replica twice so its hedge is a same-replica duplicate), and the
//! request to send. [`ReliableMaxReg::with_hedger`] attaches the client's
//! [`Hedger`]; without one no round has a hedge stage.

use std::cell::RefCell;
use std::rc::Rc;

use std::future::Future;

use swarm_sim::Sim;

use crate::round::QuorumRound;
use crate::stamp::Stamp;
use crate::traits::{
    Hedger, MaxRegister, NodeHealth, QuorumConfig, ReplicaClient, Rounds, Snapshot,
};
use crate::value::MVal;

struct Inner<R> {
    sim: Sim,
    replicas: Vec<R>,
    /// Node id hosting each replica (indexes [`NodeHealth`]; a node may
    /// host several replicas when replicas > nodes, §7.5).
    node_of: Vec<usize>,
    /// Preferred contact order (rotated per register by key hash, §6), as
    /// `(replica, node)` round candidates.
    prefer: Vec<(usize, usize)>,
    /// Highest stamp known to be stored at each replica.
    cache: RefCell<Vec<Stamp>>,
    health: Rc<NodeHealth>,
    cfg: QuorumConfig,
    rounds: Rounds,
    /// Roundtrips of background work (verified upgrades, replica refresh):
    /// counted separately so per-operation accounting (Table 2) is clean.
    bg_rounds: Rounds,
    /// Tail-latency hedging (shared per client, like `health`); `None` —
    /// the default — is bit-identical to the pre-hedging code.
    hedger: Option<Hedger>,
}

/// Majority-replicated max register (the `M` of ABD and Safe-Guess).
pub struct ReliableMaxReg<R> {
    inner: Rc<Inner<R>>,
}

impl<R> Clone for ReliableMaxReg<R> {
    fn clone(&self) -> Self {
        ReliableMaxReg {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<R: ReplicaClient> ReliableMaxReg<R> {
    /// Creates a register over `replicas`, contacting them in an order
    /// rotated by `rotation` (derived from the key hash by the KV layer).
    pub fn new(
        sim: &Sim,
        replicas: Vec<R>,
        node_of: Vec<usize>,
        rotation: usize,
        health: Rc<NodeHealth>,
        cfg: QuorumConfig,
        rounds: Rounds,
    ) -> Self {
        Self::with_hedger(sim, replicas, node_of, rotation, health, cfg, rounds, None)
    }

    /// [`ReliableMaxReg::new`] with an optional per-client [`Hedger`] for
    /// the register's quorum rounds.
    #[allow(clippy::too_many_arguments)]
    pub fn with_hedger(
        sim: &Sim,
        replicas: Vec<R>,
        node_of: Vec<usize>,
        rotation: usize,
        health: Rc<NodeHealth>,
        cfg: QuorumConfig,
        rounds: Rounds,
        hedger: Option<Hedger>,
    ) -> Self {
        let n = replicas.len();
        assert!(n >= 1, "register needs at least one replica");
        assert_eq!(node_of.len(), n, "one hosting node per replica");
        let prefer = (0..n)
            .map(|i| (i + rotation) % n)
            .map(|i| (i, node_of[i]))
            .collect();
        ReliableMaxReg {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                replicas,
                node_of,
                prefer,
                cache: RefCell::new(vec![Stamp::ZERO; n]),
                health,
                cfg,
                rounds,
                bg_rounds: Rounds::new(),
                hedger,
            }),
        }
    }

    /// Number of replicas.
    pub fn num_replicas(&self) -> usize {
        self.inner.replicas.len()
    }

    fn majority(&self) -> usize {
        self.num_replicas() / 2 + 1
    }

    /// The roundtrip counter used by this register.
    pub fn rounds(&self) -> &Rounds {
        &self.inner.rounds
    }

    /// Round candidates: unsuspected replicas first (in rotation order),
    /// then suspected ones.
    fn contact_order(&self) -> Vec<(usize, usize)> {
        let inner = &self.inner;
        let suspected = |&(_, node): &(usize, usize)| inner.health.is_suspected(node);
        let mut order: Vec<_> = inner
            .prefer
            .iter()
            .copied()
            .filter(|c| !suspected(c))
            .collect();
        order.extend(inner.prefer.iter().copied().filter(suspected));
        order
    }

    fn note_stored(&self, idx: usize, stamp: Stamp) {
        let mut cache = self.inner.cache.borrow_mut();
        if stamp > cache[idx] {
            cache[idx] = stamp;
        }
    }

    /// A quorum round of this register's client: its hedger, its node
    /// health and widen timing.
    fn round<'a, T, F, M>(
        &'a self,
        needed: usize,
        cands: &'a [(usize, usize)],
        make: M,
    ) -> QuorumRound<'a, T, M>
    where
        F: Future<Output = T> + 'static,
        M: FnMut(usize) -> F,
    {
        let inner = &*self.inner;
        QuorumRound::new(
            &inner.sim,
            inner.hedger.as_ref(),
            Some((&*inner.health, &inner.cfg)),
            needed,
            cands,
            make,
        )
    }

    /// The write-to-majority core (Algorithm 8 `inner_write`): returns once
    /// `v` is stored at a majority, costing 0 RTTs when the cache already
    /// proves it, 1 RTT commonly, more when quorums must widen.
    async fn inner_write(&self, v: &MVal, rounds: &Rounds) {
        let n = self.num_replicas();
        let maj = self.majority();
        let already: Vec<bool> = {
            let cache = self.inner.cache.borrow();
            (0..n).map(|i| cache[i] >= v.stamp).collect()
        };
        let good = already.iter().filter(|&&b| b).count();
        if good >= maj {
            // 0-RTT fast path; refresh stale replicas in the background.
            for (i, stored) in already.iter().enumerate() {
                if !stored {
                    self.write_replica_bg(i, v.clone());
                }
            }
            return;
        }

        rounds.bump();
        let mut order = self.contact_order();
        order.retain(|&(i, _)| !already[i]);
        let mut round = self.round(maj - good, &order, |i| {
            self.inner.replicas[i].clone().write(v.clone())
        });
        round.complete(|| rounds.bump()).await;
        for (i, ()) in round.finish() {
            self.note_stored(i, v.stamp);
            self.inner.health.clear(self.inner.node_of[i]);
        }
    }

    fn write_replica_bg(&self, idx: usize, v: MVal) {
        let this = self.clone();
        let fut = self.inner.replicas[idx].clone().write(v.clone());
        self.inner.sim.spawn(async move {
            fut.await;
            this.note_stored(idx, v.stamp);
        });
    }

    /// Reads snapshots from a majority; returns `(replica_idx, snapshot)`
    /// pairs for the responders.
    async fn read_majority(&self) -> Vec<(usize, Snapshot)> {
        let inner = &self.inner;
        inner.rounds.bump();
        let order = self.contact_order();
        let mut round = self.round(self.majority(), &order, |i| {
            inner.replicas[i].clone().read()
        });
        round.complete(|| inner.rounds.bump()).await;
        let mut out = Vec::new();
        for (i, snap) in round.finish() {
            self.note_stored(i, snap.stamp);
            inner.health.clear(inner.node_of[i]);
            out.push((i, snap));
        }
        out
    }

    /// Resolves the full value of the maximum among `snaps`, fetching the
    /// payload if the winning replica answered stamp-only. Clients never
    /// cache values (the paper's clients cache only ~24–32 B locations,
    /// §5.2); read-read monotonicity comes from the write-back phase plus
    /// quorum intersection.
    ///
    /// Returns `None` if the payload chase timed out (the hosting node
    /// crashed between the snapshot and the fetch); the caller re-runs the
    /// quorum read, which is safe (max registers are monotone) and live (a
    /// majority stays reachable).
    async fn resolve_max(&self, snaps: Vec<(usize, Snapshot)>) -> Option<MVal> {
        // Among replicas reporting the maximal stamp, prefer one that could
        // return the payload in the same roundtrip (the in-place-designated
        // replica) so no pointer chase is needed.
        let best = snaps
            .into_iter()
            .max_by_key(|(_, s)| (s.stamp, s.value.is_some()))
            .expect("majority read returned no snapshots");
        let (idx, snap) = best;
        let v = match snap.value {
            Some(v) => v,
            None => {
                // Payload not co-located: chase it (the replica client
                // counts the chase roundtrips itself). Only one replica has
                // the payload, so the hedge's spare is that replica again —
                // safe here: one response is needed and fetches are
                // idempotent.
                let chase = [(idx, self.inner.node_of[idx]); 2];
                let mut round = self.round(1, &chase, |i| {
                    self.inner.replicas[i].clone().fetch(snap.token)
                });
                if round.wait().await.is_err() {
                    return None;
                }
                let (_, v) = round
                    .finish()
                    .next()
                    .expect("completed fetch quorum has a result");
                self.note_stored(idx, v.stamp);
                v
            }
        };
        Some(v)
    }
}

impl<R: ReplicaClient> MaxRegister for ReliableMaxReg<R> {
    fn write(&self, v: MVal) -> impl std::future::Future<Output = ()> + 'static {
        let this = self.clone();
        async move { this.inner_write(&v, &this.inner.rounds.clone()).await }
    }

    fn read(&self) -> impl std::future::Future<Output = MVal> + 'static {
        let this = self.clone();
        async move {
            let v = loop {
                let snaps = this.read_majority().await;
                if let Some(v) = this.resolve_max(snaps).await {
                    break v;
                }
                // Payload chase timed out (node crashed mid-read): retry
                // against the surviving majority.
            };
            // Write-back so later reads cannot observe an older maximum
            // (Algorithm 8 line 20); free when the cache already proves
            // majority storage.
            this.inner_write(&v, &this.inner.rounds.clone()).await;
            v
        }
    }

    fn read_stamp(&self) -> impl std::future::Future<Output = Stamp> + 'static {
        let this = self.clone();
        async move {
            let snaps = this.read_majority().await;
            snaps.iter().map(|(_, s)| s.stamp).max().unwrap()
        }
    }

    fn write_bg(&self, v: MVal) {
        let this = self.clone();
        self.inner.sim.spawn(async move {
            let bg = this.inner.bg_rounds.clone();
            this.inner_write(&v, &bg).await;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_replica::{SimReplica, SimReplicaState};

    fn setup(seed: u64, n: usize) -> (Sim, Vec<Rc<SimReplicaState>>, ReliableMaxReg<SimReplica>) {
        let sim = Sim::new(seed);
        let states: Vec<_> = (0..n).map(|_| SimReplicaState::new()).collect();
        let replicas: Vec<_> = states
            .iter()
            .map(|s| SimReplica::new(&sim, Rc::clone(s), 700))
            .collect();
        let reg = ReliableMaxReg::new(
            &sim,
            replicas,
            (0..n).collect(),
            0,
            NodeHealth::new(n),
            QuorumConfig::default(),
            Rounds::new(),
        );
        (sim, states, reg)
    }

    #[test]
    fn read_after_write_sees_value() {
        let (sim, _, reg) = setup(1, 3);
        let v = sim.block_on(async move {
            reg.write(MVal::new(Stamp::verified(4, 1), vec![42])).await;
            reg.read().await
        });
        assert_eq!(**v.value(), vec![42]);
    }

    #[test]
    fn write_reaches_only_majority_synchronously() {
        let (sim, states, reg) = setup(2, 3);
        sim.block_on(async move {
            reg.write(MVal::new(Stamp::verified(1, 0), vec![7])).await;
        });
        let stored = states
            .iter()
            .filter(|s| s.current().stamp == Stamp::verified(1, 0))
            .count();
        assert!(stored >= 2, "write not at a majority");
    }

    #[test]
    fn tolerates_minority_crash() {
        let (sim, states, reg) = setup(3, 3);
        states[0].crash();
        let v = sim.block_on(async move {
            reg.write(MVal::new(Stamp::verified(9, 2), vec![9])).await;
            reg.read().await
        });
        assert_eq!(v.stamp, Stamp::verified(9, 2));
    }

    #[test]
    fn suspected_node_is_skipped_next_time() {
        let (sim, states, reg) = setup(4, 3);
        states[0].crash();
        let rounds = reg.rounds().clone();
        let sim2 = sim.clone();
        sim.block_on(async move {
            // First op pays the widen timeout…
            let t0 = sim2.now();
            reg.write(MVal::new(Stamp::verified(1, 0), vec![1])).await;
            let first = sim2.now() - t0;
            // …subsequent ops avoid the crashed node entirely.
            let t0 = sim2.now();
            reg.write(MVal::new(Stamp::verified(2, 0), vec![2])).await;
            let second = sim2.now() - t0;
            assert!(first > second * 2, "first={first} second={second}");
        });
        assert!(rounds.get() >= 3);
    }

    #[test]
    fn read_read_monotonicity_under_concurrent_writes() {
        // One reader reads repeatedly while two writers write increasing
        // stamps; returned stamps must be monotone per reader.
        let (sim, _, reg) = setup(5, 5);
        for tid in 0..2u8 {
            let w = reg.clone();
            let sim2 = sim.clone();
            sim.spawn(async move {
                for i in 1..30u64 {
                    w.write(MVal::new(Stamp::verified(i, tid), vec![i as u8]))
                        .await;
                    sim2.sleep_ns(sim2.rand_range(1, 2_000)).await;
                }
            });
        }
        let r = reg.clone();
        let sim3 = sim.clone();
        sim.spawn(async move {
            let mut prev = Stamp::ZERO;
            for _ in 0..50 {
                let v = r.read().await;
                assert!(v.stamp >= prev, "read-read monotonicity violated");
                prev = v.stamp;
                sim3.sleep_ns(sim3.rand_range(1, 1_000)).await;
            }
        });
        sim.run();
    }

    #[test]
    fn cached_majority_makes_writeback_free() {
        let (sim, _, reg) = setup(6, 3);
        let rounds = reg.rounds().clone();
        sim.block_on(async move {
            reg.write(MVal::new(Stamp::verified(1, 0), vec![1])).await;
            let after_write = reg.rounds().get();
            // Quiescent read: 1 RTT quorum read + 0 RTT write-back.
            reg.read().await;
            assert_eq!(reg.rounds().get() - after_write, 1);
        });
        assert!(rounds.get() >= 2);
    }

    #[test]
    fn read_stamp_is_single_round() {
        let (sim, _, reg) = setup(7, 3);
        sim.block_on(async move {
            reg.write(MVal::new(Stamp::verified(3, 1), vec![3])).await;
            let before = reg.rounds().get();
            let s = reg.read_stamp().await;
            assert_eq!(s, Stamp::verified(3, 1));
            assert_eq!(reg.rounds().get() - before, 1);
        });
    }
}

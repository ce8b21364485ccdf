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
//! request to send. A register is one pointer to its [`ReplicaSet`], which
//! reaches the client's [`QuorumClient`] (with the client's [`Hedger`],
//! if any; without one no round has a hedge stage).
//!
//! Suspicion follows [`NodeHealth`]'s one rule: silent at a widen deadline
//! suspects, any reply clears. The rounds apply both halves; this module
//! adds only the clear when a background refresh (`write_replica_bg`)
//! returns. Those refreshes go to the replicas the cache shows stale,
//! which after a widen are exactly the suspected ones, so they are the
//! replies that heal a false suspicion.
//!
//! [`Hedger`]: crate::Hedger

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use swarm_sim::Sim;

use crate::round::QuorumRound;
use crate::stamp::Stamp;
use crate::traits::{
    MaxRegister, NodeHealth, QuorumClient, QuorumConfig, ReplicaClient, ReplicaSet, Rounds,
    Snapshot,
};
use crate::value::MVal;

/// The [`ReplicaSet`] of replica clients that are self-contained values
/// (such as [`crate::SimReplica`]): the register's own list of them and of
/// their nodes, with its client's quorum state.
pub struct Replicas<R> {
    quorum: QuorumClient,
    replicas: Vec<R>,
    node_of: Vec<usize>,
    rotation: usize,
    stored: Box<[Cell<Stamp>]>,
}

impl<R: ReplicaClient> Replicas<R> {
    /// `replicas`, hosted on `node_of`, contacted in an order rotated by
    /// `rotation`, for the client `quorum` describes.
    pub fn new(
        quorum: QuorumClient,
        replicas: Vec<R>,
        node_of: Vec<usize>,
        rotation: usize,
    ) -> Rc<Self> {
        assert_eq!(
            node_of.len(),
            replicas.len(),
            "one hosting node per replica"
        );
        let stored = replicas.iter().map(|_| Cell::new(Stamp::ZERO)).collect();
        Rc::new(Replicas {
            quorum,
            replicas,
            node_of,
            rotation,
            stored,
        })
    }
}

impl<R: ReplicaClient> ReplicaSet<R> for Replicas<R> {
    fn quorum(&self) -> &QuorumClient {
        &self.quorum
    }

    fn len(&self) -> usize {
        self.replicas.len()
    }

    fn node(&self, i: usize) -> usize {
        self.node_of[i]
    }

    fn rotation(&self) -> usize {
        self.rotation
    }

    fn replica(this: &Rc<Self>, i: usize) -> R {
        this.replicas[i].clone()
    }

    fn stored(&self, i: usize) -> Stamp {
        self.stored[i].get()
    }

    fn note_stored(&self, i: usize, stamp: Stamp) {
        self.stored[i].set(self.stored[i].get().max(stamp));
    }
}

/// Majority-replicated max register (the `M` of ABD and Safe-Guess).
pub struct ReliableMaxReg<R: ReplicaClient> {
    set: Rc<R::Set>,
}

impl<R: ReplicaClient> Clone for ReliableMaxReg<R> {
    fn clone(&self) -> Self {
        ReliableMaxReg {
            set: Rc::clone(&self.set),
        }
    }
}

impl<R: ReplicaClient<Set = Replicas<R>>> ReliableMaxReg<R> {
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
        let quorum = QuorumClient::new(sim, health, cfg, rounds, None);
        Self::over(Replicas::new(quorum, replicas, node_of, rotation))
    }
}

impl<R: ReplicaClient> ReliableMaxReg<R> {
    /// The register one client holds through `set`. Construction draws
    /// nothing and schedules nothing.
    pub fn over(set: Rc<R::Set>) -> Self {
        assert!(!set.is_empty(), "register needs at least one replica");
        ReliableMaxReg { set }
    }

    /// The replica set this register stands on.
    pub fn replicas(&self) -> &Rc<R::Set> {
        &self.set
    }

    fn majority(&self) -> usize {
        self.set.len() / 2 + 1
    }

    fn quorum(&self) -> &QuorumClient {
        self.set.quorum()
    }

    /// The roundtrip counter used by this register.
    pub fn rounds(&self) -> &Rounds {
        &self.quorum().rounds
    }

    fn replica(&self, i: usize) -> R {
        <R::Set as ReplicaSet<R>>::replica(&self.set, i)
    }

    /// Round candidates: unsuspected replicas first (in rotation order),
    /// then suspected ones.
    fn contact_order(&self) -> Vec<(usize, usize)> {
        let set = &*self.set;
        let n = set.len();
        let health = &set.quorum().health;
        let prefer = (0..n)
            .map(|k| (k + set.rotation()) % n)
            .map(|i| (i, set.node(i)));
        let suspected = |&(_, node): &(usize, usize)| health.is_suspected(node);
        let mut order: Vec<_> = prefer.clone().filter(|c| !suspected(c)).collect();
        order.extend(prefer.filter(suspected));
        order
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
        let q = self.quorum();
        QuorumRound::new(
            &q.sim,
            q.hedger.as_ref(),
            Some((&*q.health, &q.cfg)),
            needed,
            cands,
            make,
        )
    }

    /// The write-to-majority core (Algorithm 8 `inner_write`): returns once
    /// `v` is stored at a majority, costing 0 RTTs when the cache already
    /// proves it, 1 RTT commonly, more when quorums must widen.
    async fn inner_write(&self, v: &MVal, rounds: &Rounds) {
        let n = self.set.len();
        let maj = self.majority();
        let already: Vec<bool> = (0..n).map(|i| self.set.stored(i) >= v.stamp).collect();
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
        let mut round = self.round(maj - good, &order, |i| self.replica(i).write(v.clone()));
        round.complete(|| rounds.bump()).await;
        for (i, ()) in round.finish() {
            self.set.note_stored(i, v.stamp);
        }
    }

    fn write_replica_bg(&self, idx: usize, v: MVal) {
        let this = self.clone();
        let fut = self.replica(idx).write(v.clone());
        self.quorum().sim.spawn(async move {
            fut.await;
            this.set.note_stored(idx, v.stamp);
            this.quorum().health.clear(this.set.node(idx));
        });
    }

    /// Reads snapshots from a majority; returns `(replica_idx, snapshot)`
    /// pairs for the responders.
    async fn read_majority(&self) -> Vec<(usize, Snapshot)> {
        let rounds = self.rounds();
        rounds.bump();
        let order = self.contact_order();
        let mut round = self.round(self.majority(), &order, |i| self.replica(i).read());
        round.complete(|| rounds.bump()).await;
        let mut out = Vec::new();
        for (i, snap) in round.finish() {
            self.set.note_stored(i, snap.stamp);
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
                let chase = [(idx, self.set.node(idx)); 2];
                let mut round = self.round(1, &chase, |i| self.replica(i).fetch(snap.token));
                if round.wait().await.is_err() {
                    return None;
                }
                let (_, v) = round
                    .finish()
                    .next()
                    .expect("completed fetch quorum has a result");
                self.set.note_stored(idx, v.stamp);
                v
            }
        };
        Some(v)
    }
}

impl<R: ReplicaClient> MaxRegister for ReliableMaxReg<R> {
    fn write(&self, v: MVal) -> impl std::future::Future<Output = ()> + 'static {
        let this = self.clone();
        async move { this.inner_write(&v, &this.rounds().clone()).await }
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
            this.inner_write(&v, &this.rounds().clone()).await;
            v
        }
    }

    /// The maximum stamp at a majority. A tombstone not yet known to be
    /// stored at a majority is written back before it is returned: a delete
    /// that timed out may have reached a minority only, and a caller that
    /// acts on "deleted" (unmapping the key's generation) must not leave
    /// other clients, whose quorums miss that replica, writing and reading
    /// the generation as live. Once a majority is known to hold it, nothing
    /// is sent.
    fn read_stamp(&self) -> impl std::future::Future<Output = Stamp> + 'static {
        let this = self.clone();
        async move {
            let snaps = this.read_majority().await;
            let max = snaps.iter().map(|(_, s)| s.stamp).max().unwrap();
            let proven = (0..this.set.len()).filter(|&i| this.set.stored(i) >= max);
            if max.is_tombstone() && proven.count() < this.majority() {
                this.inner_write(&MVal::tombstone(), this.rounds()).await;
            }
            max
        }
    }

    fn write_bg(&self, v: MVal) {
        let this = self.clone();
        // Background roundtrips (verified upgrades, replica refresh) stay
        // out of the client's per-operation count (Table 2).
        self.quorum().sim.spawn(async move {
            this.inner_write(&v, &Rounds::new()).await;
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
    fn a_falsely_suspected_node_is_trusted_again_once_a_refresh_reaches_it() {
        let (sim, states, reg) = setup(8, 3);
        let sim2 = sim.clone();
        sim.block_on(async move {
            let health = Rc::clone(&reg.quorum().health);
            reg.write(MVal::new(Stamp::verified(1, 0), vec![1])).await;
            // One write's reply from replica 1 misses the widen deadline:
            // the write completes on replicas 0 and 2, node 1 is suspected.
            states[1].set_extra_delay(50_000);
            reg.write(MVal::new(Stamp::verified(2, 0), vec![2])).await;
            assert!(health.is_suspected(1));
            states[1].set_extra_delay(0);
            // A read skips node 1; its free write-back refreshes replica 1,
            // the one the cache shows stale, in the background.
            assert_eq!(reg.read().await.stamp, Stamp::verified(2, 0));
            sim2.sleep_ns(10_000).await;
            assert_eq!(states[1].current().stamp, Stamp::verified(2, 0));
            assert!(!health.is_suspected(1), "the refresh's reply clears it");
            // The next read contacts replicas 0 and 1 optimistically again:
            // with replica 2 stalled it still needs no widen.
            states[2].set_extra_delay(50_000);
            let (t0, rounds) = (sim2.now(), reg.rounds().get());
            reg.read().await;
            assert!(sim2.now() - t0 < 6_000, "the read waited for the widen");
            assert_eq!(reg.rounds().get() - rounds, 1);
        });
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
                    sim2.sleep_ns(sim2.rng().rand_range(1, 2_000)).await;
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
                sim3.sleep_ns(sim3.rng().rand_range(1, 1_000)).await;
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

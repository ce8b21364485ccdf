//! Timestamp locks (§3.3, Algorithms 4/9): SWARM's novel wait-free
//! conflict-resolution primitive.
//!
//! A timestamp lock arbitrates, per guessed timestamp, between a writer that
//! wants to *re-execute* its write with a fresher timestamp and readers that
//! want to *return* the value at the guessed timestamp. Both race to record
//! `(ts, mode)` in a majority of 2f+1 fallible CAS objects (one 8 B word per
//! memory node); whoever hears the opposite mode — or any higher timestamp —
//! loses. Unlike a readers–writer lock it is never unlocked, only re-locked
//! at higher timestamps, and both sides may lose simultaneously.

use std::cell::Cell;
use std::rc::Rc;

use swarm_fabric::{Endpoint, NodeId};
use swarm_sim::Sim;

use crate::round::QuorumRound;
use crate::traits::{NodeHealth, QuorumConfig, Rounds};

/// Lock mode: who is trying to claim the timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// A reader wants to return the value at this timestamp.
    Read,
    /// The writer wants to re-execute its write with a different timestamp.
    Write,
}

impl LockMode {
    fn bit(self) -> u64 {
        match self {
            LockMode::Read => 0,
            LockMode::Write => 1,
        }
    }
}

/// Packs `(i, tid, mode)` into a CAS word: `[i:39][tid:8][mode:1]` — numeric
/// comparison of `word >> 1` is exactly lexicographic `(i, tid)` order, and
/// `⊥` is 0 (real guesses always have `i >= 1`).
fn pack(ts: (u64, u8), mode: LockMode) -> u64 {
    (ts.0 << 9) | ((ts.1 as u64) << 1) | mode.bit()
}

fn ts_part(word: u64) -> u64 {
    word >> 1
}

/// One timestamp lock: a CAS word at the same offset on each replica node.
pub struct TsLock {
    inner: Rc<TsLockInner>,
}

impl Clone for TsLock {
    fn clone(&self) -> Self {
        TsLock {
            inner: Rc::clone(&self.inner),
        }
    }
}

struct TsLockInner {
    sim: Sim,
    ep: Rc<Endpoint>,
    /// `(node, address)` of each CAS object (2f+1 of them).
    words: Vec<(NodeId, u64)>,
    /// Maps word index -> health index (node id) for suspicion.
    health: Rc<NodeHealth>,
    cfg: QuorumConfig,
    rounds: Rounds,
}

impl TsLock {
    /// Creates a lock over CAS words at `words` (one per replica node),
    /// accessed through `ep`.
    pub fn new(
        sim: &Sim,
        ep: Rc<Endpoint>,
        words: Vec<(NodeId, u64)>,
        health: Rc<NodeHealth>,
        cfg: QuorumConfig,
        rounds: Rounds,
    ) -> Self {
        assert!(!words.is_empty());
        TsLock {
            inner: Rc::new(TsLockInner {
                sim: sim.clone(),
                ep,
                words,
                health,
                cfg,
                rounds,
            }),
        }
    }

    /// Tries to lock timestamp `ts = (i, tid)` in `mode`.
    ///
    /// Guarantees (Appendix B): **true safety** — returns `true` when no
    /// conflicting call (opposite mode at `ts`, or any call at a higher
    /// timestamp) precedes or runs concurrently; **true exclusion** —
    /// `TRYLOCK(ts, READ)` and `TRYLOCK(ts, WRITE)` never both return `true`;
    /// and **wait-freedom**.
    pub async fn try_lock(&self, ts: (u64, u8), mode: LockMode) -> bool {
        let inner = &self.inner;
        let desired = pack(ts, mode);
        let target = ts_part(desired);
        let n = inner.words.len();
        let maj = n / 2 + 1;
        // Track the most CAS roundtrips any contributing word needed.
        let max_iters: Rc<Cell<u64>> = Rc::new(Cell::new(0));

        let make = |idx: usize| {
            let ep = Rc::clone(&inner.ep);
            let (node, addr) = inner.words[idx];
            let iters = Rc::clone(&max_iters);
            async move {
                // Local view starts at ⊥ on every call (Algorithm 4 line 4).
                let mut read: u64 = 0;
                let mut used: u64 = 0;
                while ts_part(read) < target {
                    used += 1;
                    let prev = match ep.cas(node, addr, read, desired).await {
                        Some(p) => p,
                        None => {
                            // Simulation wind-down; treat as unresponsive.
                            std::future::pending::<()>().await;
                            unreachable!()
                        }
                    };
                    if prev == read {
                        read = desired;
                        break;
                    }
                    read = prev;
                }
                iters.set(iters.get().max(used));
                read
            }
        };

        // Preferred subset: unsuspected word replicas first.
        let suspected = |i: &usize| inner.health.is_suspected(inner.words[*i].0 .0);
        let order: Vec<(usize, usize)> = (0..n)
            .filter(|i| !suspected(i))
            .chain((0..n).filter(suspected))
            .map(|i| (i, inner.words[i].0 .0))
            .collect();
        let widen = Some((&*inner.health, &inner.cfg));
        let mut round = QuorumRound::new(&inner.sim, None, widen, maj, &order, make);
        round.complete(|| ()).await;
        // Decision (Algorithm 4 lines 11–13) over the completed majority.
        let observed: Vec<u64> = round.finish().map(|(_, word)| word).collect();
        inner.rounds.add(max_iters.get().max(1));

        if observed.iter().any(|&w| ts_part(w) > target) {
            return false;
        }
        if observed.iter().any(|&w| w == pack(ts, opposite(mode))) {
            return false;
        }
        true
    }
}

fn opposite(m: LockMode) -> LockMode {
    match m {
        LockMode::Read => LockMode::Write,
        LockMode::Write => LockMode::Read,
    }
}

/// Where a Safe-Guess register finds `TSL[tid]`, writer `tid`'s timestamp
/// lock (§3.1). Safe-Guess asks only on its slow paths (a possibly stale
/// guess, a twice-seen read), so a source may build the lock when asked;
/// building one is pure (no RNG, no simulated time), so when it happens
/// cannot perturb deterministic replay.
pub trait TsLocks {
    /// Writer `tid`'s lock.
    fn lock(&self, tid: usize) -> TsLock;
}

/// A register's per-writer timestamp locks, built up front (tests and
/// small fixed-writer setups).
pub struct TsLockSet {
    locks: Vec<TsLock>,
}

impl TsLockSet {
    /// The set of `locks`, writer `tid`'s at index `tid`.
    pub fn eager(locks: Vec<TsLock>) -> Self {
        TsLockSet { locks }
    }

    /// Writer `tid`'s lock.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn get(&self, tid: usize) -> TsLock {
        self.locks[tid].clone()
    }
}

impl TsLocks for Rc<TsLockSet> {
    fn lock(&self, tid: usize) -> TsLock {
        self.get(tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_fabric::{Fabric, FabricConfig};

    fn setup(seed: u64, nodes: usize) -> (Sim, Fabric, Vec<(NodeId, u64)>) {
        let sim = Sim::new(seed);
        let fabric = Fabric::new(&sim, FabricConfig::default(), nodes);
        let words: Vec<(NodeId, u64)> = fabric
            .node_ids()
            .into_iter()
            .map(|id| (id, fabric.node(id).alloc(8, 8)))
            .collect();
        (sim, fabric, words)
    }

    fn lock_for(sim: &Sim, fabric: &Fabric, words: &[(NodeId, u64)]) -> TsLock {
        TsLock::new(
            sim,
            Rc::new(fabric.endpoint()),
            words.to_vec(),
            NodeHealth::new(fabric.num_nodes()),
            QuorumConfig::default(),
            Rounds::new(),
        )
    }

    #[test]
    fn uncontended_lock_succeeds() {
        let (sim, fabric, words) = setup(1, 3);
        let l = lock_for(&sim, &fabric, &words);
        let ok = sim.block_on(async move { l.try_lock((5, 1), LockMode::Write).await });
        assert!(ok);
    }

    #[test]
    fn higher_timestamp_defeats_lower() {
        let (sim, fabric, words) = setup(2, 3);
        let l1 = lock_for(&sim, &fabric, &words);
        let l2 = lock_for(&sim, &fabric, &words);
        let (a, b) = sim.block_on(async move {
            let a = l1.try_lock((9, 0), LockMode::Read).await;
            let b = l2.try_lock((5, 0), LockMode::Write).await;
            (a, b)
        });
        assert!(a);
        assert!(!b, "lower timestamp locked after higher");
    }

    #[test]
    fn opposite_modes_exclude() {
        // One after the other: whoever comes second must fail.
        let (sim, fabric, words) = setup(3, 3);
        let l1 = lock_for(&sim, &fabric, &words);
        let l2 = lock_for(&sim, &fabric, &words);
        let (a, b) = sim.block_on(async move {
            let a = l1.try_lock((7, 2), LockMode::Write).await;
            let b = l2.try_lock((7, 2), LockMode::Read).await;
            (a, b)
        });
        assert!(a);
        assert!(!b);
    }

    #[test]
    fn exclusion_holds_under_concurrency_many_seeds() {
        // True exclusion: READ and WRITE at the same ts never both succeed,
        // under racing clients across many random schedules.
        for seed in 0..50 {
            let (sim, fabric, words) = setup(1000 + seed, 3);
            let l1 = lock_for(&sim, &fabric, &words);
            let l2 = lock_for(&sim, &fabric, &words);
            let res: Rc<std::cell::RefCell<Vec<(LockMode, bool)>>> =
                Rc::new(std::cell::RefCell::new(Vec::new()));
            for (l, mode, delay) in [(l1, LockMode::Read, 0u64), (l2, LockMode::Write, 1)] {
                let res = Rc::clone(&res);
                let sim2 = sim.clone();
                sim.spawn(async move {
                    sim2.sleep_ns(delay * sim2.rng().rand_range(0, 800)).await;
                    let ok = l.try_lock((11, 3), mode).await;
                    res.borrow_mut().push((mode, ok));
                });
            }
            sim.run();
            let res = res.borrow();
            let both = res.iter().filter(|(_, ok)| *ok).count();
            assert!(both <= 1, "seed {seed}: both modes locked ts");
        }
    }

    #[test]
    fn relock_same_mode_same_ts_succeeds() {
        let (sim, fabric, words) = setup(4, 3);
        let l = lock_for(&sim, &fabric, &words);
        let l2 = l.clone();
        let (a, b) = sim.block_on(async move {
            let a = l.try_lock((4, 0), LockMode::Read).await;
            let b = l2.try_lock((4, 0), LockMode::Read).await;
            (a, b)
        });
        assert!(a && b, "same-mode relock should succeed");
    }

    #[test]
    fn survives_minority_crash() {
        let (sim, fabric, words) = setup(5, 3);
        fabric.crash_node(NodeId(0));
        let l = lock_for(&sim, &fabric, &words);
        let ok = sim.block_on(async move { l.try_lock((6, 1), LockMode::Write).await });
        assert!(ok);
    }

    #[test]
    fn true_safety_unconflicted_call_wins() {
        // A call with the highest timestamp and no opposite-mode rival must
        // return true even after unrelated lower-ts activity.
        let (sim, fabric, words) = setup(6, 5);
        let l1 = lock_for(&sim, &fabric, &words);
        let l2 = lock_for(&sim, &fabric, &words);
        let ok = sim.block_on(async move {
            l1.try_lock((3, 0), LockMode::Write).await;
            l2.try_lock((8, 1), LockMode::Read).await
        });
        assert!(ok);
    }
}

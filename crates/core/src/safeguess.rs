//! Safe-Guess (§3): SWARM's core replication protocol.
//!
//! Safe-Guess implements a linearizable, wait-free multi-writer multi-reader
//! register whose reads and writes complete in a single roundtrip in the
//! common case (no failures, no contention, nearly synchronized clocks).
//! Writes *guess* an ordering timestamp instead of discovering one (saving
//! ABD's first roundtrip) and verify the guess with a parallel read; stale
//! guesses are resolved through the per-writer timestamp lock, which lets the
//! writer safely re-execute with a fresh timestamp only once no reader can
//! ever return the guessed one.

use std::collections::HashMap;
use std::rc::Rc;

use crate::stamp::{Stamp, TsGuesser};
use crate::traits::{MaxRegister, Rounds};
use crate::tslock::{LockMode, TsLockSet, TsLocks};
use crate::value::MVal;

/// Outcome labels for a completed write (used by the evaluation to explain
/// roundtrip distributions, §7.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePath {
    /// Fresh guess confirmed by the parallel read: one roundtrip.
    Fast,
    /// Guess possibly stale, but a reader locked it (so it must have been
    /// fresh): write is already linearized.
    LockedByReader,
    /// Guess locked out; write re-executed with a verified timestamp.
    Reexecuted,
    /// The register holds the delete tombstone: the write cannot take
    /// effect until the key is re-inserted (SWARM-KV semantics, §5.3.2).
    Deleted,
}

/// Result of a Safe-Guess read: the value, the path taken, and how many
/// iterations of the read loop were needed (bounded by `2 * writers + 1`,
/// Appendix C.2).
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// The linearized value (may be the tombstone).
    pub value: MVal,
    /// Which protocol path produced it.
    pub path: ReadPath,
    /// Read-loop iterations used.
    pub iterations: u32,
}

/// Outcome labels for a completed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Found a `VERIFIED` tuple (common case, one roundtrip).
    FastVerified,
    /// Confirmed a guessed tuple by double-read + read-lock.
    LockedGuess,
    /// Returned an earlier tuple after seeing two writes from one writer
    /// (the wait-free escape hatch, Algorithm 3 lines 23–24).
    SecondFromWriter,
}

/// A Safe-Guess-replicated register over any reliable max register `M` and a
/// source `L` of per-writer timestamp locks.
pub struct SafeGuess<M, L = Rc<TsLockSet>> {
    m: M,
    /// `TSL[tid]` — one lock per potential writer (§3.1, footnote 2),
    /// fetched only on the slow paths that touch them.
    tsl: L,
    guesser: Rc<TsGuesser>,
    rounds: Rounds,
}

impl<M: Clone, L: Clone> Clone for SafeGuess<M, L> {
    fn clone(&self) -> Self {
        SafeGuess {
            m: self.m.clone(),
            tsl: self.tsl.clone(),
            guesser: Rc::clone(&self.guesser),
            rounds: self.rounds.clone(),
        }
    }
}

impl<M: MaxRegister, L: TsLocks> SafeGuess<M, L> {
    /// Creates a register handle for the writer identified by `guesser`'s
    /// tid. `tsl` must yield one lock per potential writer, indexed by tid.
    pub fn new(m: M, tsl: L, guesser: Rc<TsGuesser>, rounds: Rounds) -> Self {
        SafeGuess {
            m,
            tsl,
            guesser,
            rounds,
        }
    }

    /// The underlying max register.
    pub fn max_register(&self) -> &M {
        &self.m
    }

    /// Writes `v` (Algorithm 2). Wait-free; single roundtrip on the fast
    /// path. Returns which path was taken. The payload may be an
    /// already-shared `Rc<Vec<u8>>` (no copy) or a plain `Vec<u8>`.
    pub async fn write(&self, v: impl Into<Rc<Vec<u8>>>) -> WritePath {
        let stamp = self.guesser.guess();
        let w = MVal::new(stamp, v);

        // In parallel: write the guessed tuple and read the register
        // (stamp-only read suffices for the freshness check, Appendix A.2).
        let (m_stamp, ()) = swarm_sim::join2(self.m.read_stamp(), self.m.write(w.clone())).await;
        // The read overlapped the write: together they are one roundtrip.
        self.rounds.uncount(1);

        if m_stamp <= w.stamp {
            // Fast path: the guess was fresh and our write is linearized.
            // Mark it VERIFIED in the background to speed up readers.
            self.m.write_bg(w.with_verified());
            return WritePath::Fast;
        }

        // Slow path: the guess may have been stale. Detecting staleness is
        // impossible here; instead, lock readers out of the guessed
        // timestamp so re-execution cannot make the value readable twice.
        self.guesser.resync();
        let tid = self.guesser.tid();
        if self
            .tsl
            .lock(tid as usize)
            .try_lock(w.stamp.key(), LockMode::Write)
            .await
        {
            if m_stamp.is_tombstone() {
                // The key was deleted; nothing can overwrite the tombstone.
                return WritePath::Deleted;
            }
            // No reader can ever return the guessed tuple; re-execute with a
            // timestamp provably fresh (> the stamp the parallel read saw).
            let fresh = Stamp::verified(m_stamp.i + 1, tid);
            self.m.write(w.restamped(fresh)).await;
            WritePath::Reexecuted
        } else {
            // A reader locked the guessed timestamp in read mode, which
            // means it deemed the guess fresh: the write is linearized as-is.
            WritePath::LockedByReader
        }
    }

    /// Reads the register (Algorithm 3). Wait-free: returns within
    /// `2 * writers + 1` iterations (Appendix C.2).
    pub async fn read(&self) -> ReadOutcome {
        let mut seen: HashMap<u8, MVal> = HashMap::new();
        let mut iterations = 0u32;
        loop {
            iterations += 1;
            let m = self.m.read().await;
            if m.stamp.verified {
                return ReadOutcome {
                    value: m,
                    path: ReadPath::FastVerified, // Fast path.
                    iterations,
                };
            }
            let tid = m.stamp.tid;
            // NOT a collapsible match: a failed read-lock must fall through
            // to re-reading, never to the second-tuple arm below — the lock
            // fails exactly when the writer holds the write lock and will
            // re-execute, so returning the guess here would let two reads
            // observe it at different timestamps (new-old inversion).
            #[allow(clippy::collapsible_match)]
            match seen.get(&tid) {
                Some(prev) if prev.stamp == m.stamp => {
                    // Seen twice: the stamp was fresh (Lemma C.1). Ensure the
                    // writer will never re-execute by read-locking it.
                    if self
                        .tsl
                        .lock(tid as usize)
                        .try_lock(m.stamp.key(), LockMode::Read)
                        .await
                    {
                        self.m.write_bg(m.with_verified());
                        return ReadOutcome {
                            value: m,
                            path: ReadPath::LockedGuess,
                            iterations,
                        };
                    }
                }
                Some(prev) => {
                    // A second, different tuple from the same writer: its
                    // first write must have completed, so it is safe to
                    // return (wait-free escape hatch).
                    return ReadOutcome {
                        value: prev.clone(),
                        path: ReadPath::SecondFromWriter,
                        iterations,
                    };
                }
                None => {}
            }
            seen.insert(tid, m);
        }
    }

    /// Convenience: read just the bytes.
    pub async fn read_value(&self) -> Vec<u8> {
        (**self.read().await.value.value()).clone()
    }

    /// The roundtrip counter shared with the underlying register and locks.
    pub fn rounds(&self) -> &Rounds {
        &self.rounds
    }
}

/// The ABD baseline (Algorithm 1) over the same reliable max register:
/// strongly consistent, wait-free, but writes always pay the extra
/// timestamp-discovery roundtrip.
pub struct Abd<M> {
    m: M,
    tid: u8,
}

impl<M: Clone> Clone for Abd<M> {
    fn clone(&self) -> Self {
        Abd {
            m: self.m.clone(),
            tid: self.tid,
        }
    }
}

impl<M: MaxRegister> Abd<M> {
    /// Creates an ABD register handle for writer `tid`.
    pub fn new(m: M, tid: u8) -> Self {
        Abd { m, tid }
    }

    /// The underlying max register.
    pub fn max_register(&self) -> &M {
        &self.m
    }

    /// Writes `v`: reads a fresh timestamp, then writes (two phases).
    /// Returns `false` if the register holds a delete tombstone. Accepts a
    /// shared `Rc<Vec<u8>>` payload like [`SafeGuess::write`].
    pub async fn write(&self, v: impl Into<Rc<Vec<u8>>>) -> bool {
        let cur = self.m.read_stamp().await;
        if cur.is_tombstone() {
            return false;
        }
        let fresh = Stamp::verified(cur.i + 1, self.tid);
        self.m.write(MVal::new(fresh, v)).await;
        true
    }

    /// Reads the register.
    pub async fn read(&self) -> MVal {
        self.m.read().await
    }
}

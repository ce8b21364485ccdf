//! SWARM's core protocols (SOSP '24): Safe-Guess, In-n-Out, timestamp locks,
//! reliable max registers, and the ABD baseline.
//!
//! The stack, bottom-up:
//!
//! 1. [`InnOutReplica`] — a per-node max register for large values with
//!    single-roundtrip conditional updates and *no compute at the memory
//!    node* (§4: in-place reads validated by hash, out-of-place fallback,
//!    CAS-emulated MAX, per-writer metadata buffers).
//! 2. [`ReliableMaxReg`] — majority replication of fallible max registers
//!    (Appendix A), with the deployment optimizations of §6 (optimistic
//!    majority quorums, widen-on-timeout, client-side caching).
//! 3. [`TsLock`] — the wait-free timestamp lock arbitrating between a writer
//!    re-executing a possibly-stale guess and readers returning it (§3.3).
//! 4. [`SafeGuess`] — the replication protocol: linearizable, wait-free
//!    reads/writes in one roundtrip in the common case (§3). [`Abd`] is the
//!    classic two-phase-write baseline (§2.3).
//!
//! Layers 2 and 3 (and FUSEE's block reads and writes in `swarm-kv`) wait
//! for their replicas through one staged [`QuorumRound`]: optimistic send,
//! hedge, widen deadline, finish.
//!
//! `SafeGuess` is generic over any [`MaxRegister`]; production composes it
//! with `ReliableMaxReg<InnOutReplica>` (that composition *is* SWARM), while
//! tests also run it over idealized [`SimReplica`]s to isolate protocol
//! logic from In-n-Out.
//!
//! # Examples
//!
//! A single SWARM register over a 3-node fabric:
//!
//! ```
//! use std::rc::Rc;
//! use swarm_sim::{Sim, GuessClock};
//! use swarm_fabric::{Fabric, FabricConfig};
//! use swarm_core::{
//!     InnOutClient, InnOutHandle, InnOutLayout, InnOutReplica, InnOutShape, NodeHealth,
//!     QuorumClient, QuorumConfig, ReliableMaxReg, Rounds, SafeGuess, TsGuesser, TsLock,
//!     TsLockSet,
//! };
//!
//! let sim = Sim::new(7);
//! let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
//! let ep = Rc::new(fabric.endpoint());
//! let health = NodeHealth::new(3);
//! let rounds = Rounds::new();
//!
//! // One In-n-Out replica per node (in-place data at replica 0 only), and
//! // writer 0's handle on it.
//! let shape = InnOutShape::new(1, 16, 8, 8);
//! let layout = Rc::new(InnOutLayout::allocate(&fabric, &shape, &fabric.node_ids()));
//! let quorum = QuorumClient::new(&sim, Rc::clone(&health), QuorumConfig::default(),
//!                                rounds.clone(), None);
//! let client = InnOutClient::new(quorum, Rc::clone(&ep), 0, 0, shape, true);
//! let m: ReliableMaxReg<InnOutReplica> =
//!     ReliableMaxReg::over(InnOutHandle::new(&client, layout));
//!
//! // Timestamp locks: one 8 B CAS word per node, per writer (1 writer here).
//! let words = fabric.node_ids().iter()
//!     .map(|&n| (n, fabric.node(n).alloc(8, 8))).collect();
//! let tsl = Rc::new(TsLockSet::eager(vec![TsLock::new(
//!     &sim, Rc::clone(&ep), words, Rc::clone(&health),
//!     QuorumConfig::default(), rounds.clone())]));
//! let guesser = Rc::new(TsGuesser::new(Rc::new(GuessClock::perfect(&sim)), 0));
//! let reg = SafeGuess::new(m, tsl, guesser, rounds);
//!
//! sim.block_on(async move {
//!     reg.write(vec![42u8; 16]).await;
//!     assert_eq!(reg.read_value().await, vec![42u8; 16]);
//! });
//! ```

mod hash;
mod innout;
mod linearize;
mod maxreg;
mod round;
mod safeguess;
mod sim_replica;
mod stamp;
mod traits;
mod tslock;
mod value;

pub use hash::{innout_hash, xxh64};
pub use innout::{InnOutClient, InnOutHandle, InnOutLayout, InnOutReplica, InnOutShape};
pub use linearize::{KvHistory, KvHistoryOp, KvOpKind, NonLinearizable};
pub use maxreg::{ReliableMaxReg, Replicas};
pub use round::QuorumRound;
pub use safeguess::{Abd, ReadOutcome, ReadPath, SafeGuess, WritePath};
pub use sim_replica::{SimReplica, SimReplicaState};
pub use stamp::{Stamp, TsGuesser, I_MAX, TICK_NS};
pub use traits::{
    HedgeConfig, HedgeTicket, Hedger, MaxRegister, NodeHealth, QuorumClient, QuorumConfig,
    ReplicaClient, ReplicaSet, Rounds, RttTracker, Snapshot,
};
pub use tslock::{LockMode, TsLock, TsLockSet, TsLocks};
pub use value::MVal;

//! Idealized in-simulation replica used to validate protocol logic.
//!
//! `SimReplica` is a max register held by a *compute-capable* process: the
//! MAX is applied atomically at a single instant, values always travel with
//! the stamp, and message delays are randomized per leg. It isolates the
//! Safe-Guess / reliable-max-register / timestamp-lock logic from In-n-Out,
//! so linearizability stress tests can attribute failures precisely, and it
//! doubles as the message-passing baseline the paper contrasts with
//! disaggregated memory ("implementing these primitive max registers over
//! message passing with compute-capable replicas is simple", §4).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use swarm_sim::{Nanos, Sim};

use crate::maxreg::Replicas;
use crate::traits::{ReplicaClient, Snapshot};
use crate::value::MVal;

/// Shared state of one idealized replica process.
#[derive(Debug)]
pub struct SimReplicaState {
    state: RefCell<MVal>,
    alive: Cell<bool>,
    extra_delay_ns: Cell<Nanos>,
}

impl SimReplicaState {
    /// Creates an initial-valued replica.
    pub fn new() -> Rc<Self> {
        Rc::new(SimReplicaState {
            state: RefCell::new(MVal::initial()),
            alive: Cell::new(true),
            extra_delay_ns: Cell::new(0),
        })
    }

    /// Crashes the replica: requests go unanswered from now on.
    pub fn crash(&self) {
        self.alive.set(false);
    }

    /// Injects a fixed extra service delay into every subsequent request
    /// (a delay spike, for tail-latency tests); `0` restores normal speed.
    pub fn set_extra_delay(&self, ns: Nanos) {
        self.extra_delay_ns.set(ns);
    }

    /// Current stored maximum (test inspection).
    pub fn current(&self) -> MVal {
        self.state.borrow().clone()
    }
}

impl Default for SimReplicaState {
    fn default() -> Self {
        SimReplicaState {
            state: RefCell::new(MVal::initial()),
            alive: Cell::new(true),
            extra_delay_ns: Cell::new(0),
        }
    }
}

/// Client handle to a [`SimReplicaState`].
#[derive(Clone)]
pub struct SimReplica {
    sim: Sim,
    state: Rc<SimReplicaState>,
    /// Mean one-way delay; actual legs are uniform in `[mean/2, 3*mean/2)`.
    half_rtt_ns: Nanos,
}

impl SimReplica {
    /// Creates a client handle with the given mean one-way delay.
    pub fn new(sim: &Sim, state: Rc<SimReplicaState>, half_rtt_ns: Nanos) -> Self {
        SimReplica {
            sim: sim.clone(),
            state,
            half_rtt_ns,
        }
    }

    fn leg(&self) -> Nanos {
        let h = self.half_rtt_ns.max(2);
        self.sim.rng().rand_range(h / 2, h + h / 2)
    }

    async fn if_dead_hang_forever(&self) {
        if !self.state.alive.get() {
            std::future::pending::<()>().await;
        }
    }

    /// Serves an injected delay spike, if one is active. Sleeps only when a
    /// spike is set, so spike-free executions replay bit-identically.
    async fn spike(&self) {
        let extra = self.state.extra_delay_ns.get();
        if extra > 0 {
            self.sim.sleep_ns(extra).await;
        }
    }
}

impl ReplicaClient for SimReplica {
    type Set = Replicas<SimReplica>;

    async fn write(self, v: MVal) {
        self.sim.sleep_ns(self.leg()).await;
        self.if_dead_hang_forever().await;
        self.spike().await;
        {
            // Atomic MAX at a single instant: the idealization.
            let mut cur = self.state.state.borrow_mut();
            if v > *cur {
                *cur = v;
            }
        }
        self.sim.sleep_ns(self.leg()).await;
    }

    async fn read(self) -> Snapshot {
        self.sim.sleep_ns(self.leg()).await;
        self.if_dead_hang_forever().await;
        self.spike().await;
        let cur = self.state.state.borrow().clone();
        self.sim.sleep_ns(self.leg()).await;
        Snapshot {
            stamp: cur.stamp,
            token: cur.stamp.pack48(),
            value: Some(cur),
        }
    }

    async fn fetch(self, _token: u64) -> MVal {
        self.sim.sleep_ns(self.leg()).await;
        self.if_dead_hang_forever().await;
        self.spike().await;
        let cur = self.state.state.borrow().clone();
        self.sim.sleep_ns(self.leg()).await;
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::Stamp;

    #[test]
    fn write_applies_max_only() {
        let sim = Sim::new(1);
        let st = SimReplicaState::new();
        let r = SimReplica::new(&sim, Rc::clone(&st), 500);
        let (r1, r2) = (r.clone(), r.clone());
        sim.block_on(async move {
            r1.write(MVal::new(Stamp::verified(5, 0), vec![5])).await;
            r2.write(MVal::new(Stamp::verified(3, 0), vec![3])).await;
        });
        assert_eq!(st.current().stamp, Stamp::verified(5, 0));
        assert_eq!(**st.current().value(), vec![5]);
    }

    #[test]
    fn read_returns_snapshot_with_value() {
        let sim = Sim::new(2);
        let st = SimReplicaState::new();
        let r = SimReplica::new(&sim, Rc::clone(&st), 500);
        let (w, rd) = (r.clone(), r.clone());
        let snap = sim.block_on(async move {
            w.write(MVal::new(Stamp::guessed(9, 1), vec![7; 8])).await;
            rd.read().await
        });
        assert_eq!(snap.stamp, Stamp::guessed(9, 1));
        assert_eq!(**snap.value.unwrap().value(), vec![7; 8]);
    }

    #[test]
    fn crashed_replica_is_silent() {
        let sim = Sim::new(3);
        let st = SimReplicaState::new();
        st.crash();
        let r = SimReplica::new(&sim, Rc::clone(&st), 500);
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            r.read().await;
            done2.set(true);
        });
        sim.run();
        assert!(!done.get());
    }
}

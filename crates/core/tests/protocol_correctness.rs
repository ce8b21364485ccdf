//! End-to-end correctness of the protocol stack: linearizability (checked
//! against the atomic-register spec on randomized schedules), wait-freedom
//! bounds, and fault tolerance — the properties Appendices B/C prove.

use std::cell::RefCell;
use std::rc::Rc;

use swarm_core::{
    Abd, InnOutClient, InnOutHandle, InnOutLayout, InnOutReplica, InnOutShape, KvHistory, KvOpKind,
    MVal, MaxRegister, NodeHealth, QuorumClient, QuorumConfig, ReliableMaxReg, Rounds, SafeGuess,
    SimReplica, SimReplicaState, TsGuesser, TsLock, TsLockSet, WritePath,
};
use swarm_fabric::{Fabric, FabricConfig, NodeId};
use swarm_sim::{GuessClock, Sim};

const VALUE_LEN: usize = 16;

fn encode(v: u64) -> Vec<u8> {
    let mut b = v.to_le_bytes().to_vec();
    b.resize(VALUE_LEN, 0);
    b
}

fn decode(b: &[u8]) -> u64 {
    if b.is_empty() {
        return 0;
    }
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// Builds one Safe-Guess register per client over idealized replicas with
/// *badly skewed* clocks (to exercise the stale-guess slow path).
fn sim_replica_registers(
    sim: &Sim,
    n_replicas: usize,
    n_clients: usize,
    skew_ns: i64,
) -> Vec<SafeGuess<ReliableMaxReg<SimReplica>>> {
    let states: Vec<_> = (0..n_replicas).map(|_| SimReplicaState::new()).collect();
    // Timestamp-lock words live on a dedicated fabric (CAS objects).
    let fabric = Fabric::new(sim, FabricConfig::default(), n_replicas);
    let words: Vec<(NodeId, u64)> = fabric
        .node_ids()
        .into_iter()
        .map(|id| (id, fabric.node(id).alloc(8 * n_clients as u64, 8)))
        .collect();
    (0..n_clients)
        .map(|tid| {
            let health = NodeHealth::new(n_replicas);
            let rounds = Rounds::new();
            let replicas: Vec<_> = states
                .iter()
                .map(|s| SimReplica::new(sim, Rc::clone(s), 700))
                .collect();
            let m = ReliableMaxReg::new(
                sim,
                replicas,
                (0..n_replicas).collect(),
                tid,
                Rc::clone(&health),
                QuorumConfig::default(),
                rounds.clone(),
            );
            let ep = Rc::new(fabric.endpoint());
            let tsl: Vec<TsLock> = (0..n_clients)
                .map(|w| {
                    let w_words: Vec<(NodeId, u64)> = words
                        .iter()
                        .map(|&(n, base)| (n, base + 8 * w as u64))
                        .collect();
                    TsLock::new(
                        sim,
                        Rc::clone(&ep),
                        w_words,
                        Rc::clone(&health),
                        QuorumConfig::default(),
                        rounds.clone(),
                    )
                })
                .collect();
            let clock = Rc::new(GuessClock::new(
                sim,
                sim.rng().clone(),
                skew_ns,
                20.0,
                skew_ns / 4,
            ));
            let guesser = Rc::new(TsGuesser::new(clock, tid as u8));
            SafeGuess::new(m, Rc::new(TsLockSet::eager(tsl)), guesser, rounds)
        })
        .collect()
}

/// Builds one full-SWARM register per client: In-n-Out replicas + timestamp
/// locks on a shared fabric (this composition is the production SWARM).
fn swarm_registers(
    sim: &Sim,
    fabric: &Fabric,
    n_clients: usize,
    meta_bufs: usize,
    skew_ns: i64,
) -> Vec<SafeGuess<ReliableMaxReg<InnOutReplica>>> {
    let n_nodes = fabric.num_nodes();
    let shape = InnOutShape::new(meta_bufs, VALUE_LEN, n_clients * 8, n_clients);
    let layout = Rc::new(InnOutLayout::allocate(fabric, &shape, &fabric.node_ids()));
    let lock_words: Vec<(NodeId, u64)> = fabric
        .node_ids()
        .into_iter()
        .map(|id| (id, fabric.node(id).alloc(8 * n_clients as u64, 8)))
        .collect();
    (0..n_clients)
        .map(|tid| {
            let health = NodeHealth::new(n_nodes);
            let rounds = Rounds::new();
            let ep = Rc::new(fabric.endpoint());
            let quorum = QuorumClient::new(
                sim,
                Rc::clone(&health),
                QuorumConfig::default(),
                rounds.clone(),
                None,
            );
            // Rotated by tid: clients contact different first majorities.
            let client = InnOutClient::new(quorum, Rc::clone(&ep), tid, tid, shape, true);
            let m = ReliableMaxReg::over(InnOutHandle::new(&client, Rc::clone(&layout)));
            let tsl: Vec<TsLock> = (0..n_clients)
                .map(|w| {
                    let w_words: Vec<(NodeId, u64)> = lock_words
                        .iter()
                        .map(|&(n, base)| (n, base + 8 * w as u64))
                        .collect();
                    TsLock::new(
                        sim,
                        Rc::clone(&ep),
                        w_words,
                        Rc::clone(&health),
                        QuorumConfig::default(),
                        rounds.clone(),
                    )
                })
                .collect();
            let clock = Rc::new(GuessClock::new(
                sim,
                sim.rng().clone(),
                skew_ns,
                10.0,
                skew_ns / 4,
            ));
            let guesser = Rc::new(TsGuesser::new(clock, tid as u8));
            SafeGuess::new(m, Rc::new(TsLockSet::eager(tsl)), guesser, rounds)
        })
        .collect()
}

/// A single register as a KV history: key 0, holding tag 0 before the run;
/// a write is an `Insert`, a read a `Get`.
fn register_history() -> KvHistory {
    let mut h = KvHistory::new();
    h.set_initial(0, 0);
    h
}

/// Runs a randomized workload over per-client register handles and checks
/// the recorded history against the atomic-register specification.
fn run_linearizability_workload<M: MaxRegister>(
    sim: &Sim,
    regs: Vec<SafeGuess<M>>,
    ops_per_client: usize,
    write_prob_pct: u64,
) -> KvHistory {
    let history = Rc::new(RefCell::new(register_history()));
    let n_clients = regs.len();
    for (tid, reg) in regs.into_iter().enumerate() {
        let sim2 = sim.clone();
        let history = Rc::clone(&history);
        sim.spawn(async move {
            for k in 0..ops_per_client {
                sim2.sleep_ns(sim2.rng().rand_range(1, 4_000)).await;
                let invoke = sim2.now();
                if sim2.rng().rand_range(0, 100) < write_prob_pct {
                    // Unique value per (client, op index).
                    let v = 1 + (tid * ops_per_client + k) as u64;
                    reg.write(encode(v)).await;
                    history
                        .borrow_mut()
                        .push(0, invoke, sim2.now(), KvOpKind::Insert(v));
                } else {
                    let out = reg.read().await;
                    assert!(
                        out.iterations <= 2 * n_clients as u32 + 1,
                        "wait-freedom bound exceeded: {} iters",
                        out.iterations
                    );
                    let v = decode(out.value.value());
                    history
                        .borrow_mut()
                        .push(0, invoke, sim2.now(), KvOpKind::Get(Some(v)));
                }
            }
        });
    }
    sim.run();
    Rc::try_unwrap(history).unwrap().into_inner()
}

#[test]
fn safeguess_is_linearizable_over_ideal_replicas() {
    // Well-synchronized clocks: mostly fast paths.
    for seed in 0..30 {
        let sim = Sim::new(seed);
        let regs = sim_replica_registers(&sim, 3, 3, 200);
        let h = run_linearizability_workload(&sim, regs, 6, 50);
        assert!(h.is_linearizable(), "seed {seed}: non-linearizable history");
    }
}

#[test]
fn safeguess_is_linearizable_with_bad_clocks() {
    // Clocks skewed by ±40 µs: many stale guesses exercise the timestamp
    // lock and write re-execution, which must stay linearizable.
    for seed in 0..30 {
        let sim = Sim::new(1_000 + seed);
        let regs = sim_replica_registers(&sim, 3, 3, 40_000);
        let h = run_linearizability_workload(&sim, regs, 6, 60);
        assert!(h.is_linearizable(), "seed {seed}: non-linearizable history");
    }
}

#[test]
fn full_swarm_stack_is_linearizable() {
    // Safe-Guess over In-n-Out over the torn-write fabric.
    for seed in 0..20 {
        let sim = Sim::new(2_000 + seed);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
        let regs = swarm_registers(&sim, &fabric, 3, 1, 5_000);
        let h = run_linearizability_workload(&sim, regs, 5, 50);
        assert!(h.is_linearizable(), "seed {seed}: non-linearizable history");
    }
}

#[test]
fn full_swarm_stack_survives_minority_crash() {
    for seed in 0..10 {
        let sim = Sim::new(3_000 + seed);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
        let regs = swarm_registers(&sim, &fabric, 2, 1, 1_000);
        // Crash one node mid-run.
        let f2 = fabric.clone();
        sim.schedule_after(30_000, move |_| f2.crash_node(NodeId(1)));
        let h = run_linearizability_workload(&sim, regs, 8, 50);
        assert!(h.is_linearizable(), "seed {seed}: non-linearizable history");
        assert_eq!(h.len(), 16, "seed {seed}: some op never completed");
    }
}

#[test]
fn abd_is_linearizable() {
    for seed in 0..20 {
        let sim = Sim::new(4_000 + seed);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
        // ABD over the same In-n-Out substrate (this is DM-ABD's register).
        let regs: Vec<Abd<_>> = swarm_registers(&sim, &fabric, 3, 1, 0)
            .into_iter()
            .enumerate()
            .map(|(tid, sg)| Abd::new(sg.max_register().clone(), tid as u8))
            .collect();
        let history = Rc::new(RefCell::new(register_history()));
        for (tid, reg) in regs.into_iter().enumerate() {
            let sim2 = sim.clone();
            let history = Rc::clone(&history);
            sim.spawn(async move {
                for k in 0..5usize {
                    sim2.sleep_ns(sim2.rng().rand_range(1, 4_000)).await;
                    let invoke = sim2.now();
                    if sim2.rng().rand_range(0, 100) < 50 {
                        let v = 1 + (tid * 5 + k) as u64;
                        reg.write(encode(v)).await;
                        history
                            .borrow_mut()
                            .push(0, invoke, sim2.now(), KvOpKind::Insert(v));
                    } else {
                        let out = reg.read().await;
                        let v = decode(out.value());
                        history
                            .borrow_mut()
                            .push(0, invoke, sim2.now(), KvOpKind::Get(Some(v)));
                    }
                }
            });
        }
        sim.run();
        let h = Rc::try_unwrap(history).unwrap().into_inner();
        assert!(h.is_linearizable(), "seed {seed}: ABD non-linearizable");
    }
}

#[test]
fn well_synced_solo_writes_take_fast_path() {
    let sim = Sim::new(42);
    let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
    let regs = swarm_registers(&sim, &fabric, 1, 1, 0);
    let reg = regs.into_iter().next().unwrap();
    let sim2 = sim.clone();
    sim.block_on(async move {
        for i in 0..20u64 {
            let path = reg.write(encode(i + 1)).await;
            assert_eq!(path, WritePath::Fast, "uncontended write left fast path");
            sim2.sleep_ns(5_000).await;
            assert_eq!(decode(&reg.read_value().await), i + 1);
        }
    });
}

#[test]
fn tombstone_blocks_later_writes() {
    let sim = Sim::new(43);
    let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
    let regs = swarm_registers(&sim, &fabric, 2, 1, 0);
    let mut it = regs.into_iter();
    let a = it.next().unwrap();
    let b = it.next().unwrap();
    let sim2 = sim.clone();
    sim.block_on(async move {
        a.write(encode(7)).await;
        a.max_register().write(MVal::tombstone()).await;
        sim2.sleep_ns(2_000).await;
        let path = b.write(encode(9)).await;
        assert_eq!(path, WritePath::Deleted);
        let out = b.read().await;
        assert!(out.value.is_tombstone(), "read did not observe tombstone");
    });
}

#[test]
fn stale_guess_goes_slow_path_and_still_linearizes() {
    // Writer B's clock is far behind: its guess is stale; it must detect the
    // conflict and re-execute (or be saved by a reader lock), never losing
    // the write or corrupting order.
    for seed in 0..10 {
        let sim = Sim::new(5_000 + seed);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
        let regs = swarm_registers(&sim, &fabric, 2, 1, 0);
        let mut it = regs.into_iter();
        let a = it.next().unwrap();
        let b = it.next().unwrap();
        let sim2 = sim.clone();
        let paths = sim.block_on(async move {
            // A writes with a high (clock-driven) timestamp.
            a.write(encode(1)).await;
            sim2.sleep_ns(100_000).await; // A's guess is now ~100 µs ahead…
            a.write(encode(2)).await;
            // …B writes immediately after with a *forced* stale guess: its
            // clock is fine, but A re-used high stamps; emulate staleness by
            // writing twice quickly (second guess > first but < A's next).
            let p1 = b.write(encode(3)).await;
            let v = a.read().await;
            (p1, v.value)
        });
        // Whatever path B took, the register must hold a single coherent
        // maximum that A's read returns.
        let (_, v) = paths;
        assert!(
            [2u64, 3u64].contains(&decode(v.value())),
            "seed {seed}: read returned {}",
            decode(v.value())
        );
    }
}

//! Using SWARM's core building blocks directly — without the key-value
//! store: a single Safe-Guess register over In-n-Out replicas, showing the
//! fast/slow write paths and the timestamp lock in action.
//!
//! ```sh
//! cargo run -p swarm-examples --example replicated_register
//! ```

use std::rc::Rc;

use swarm_core::{
    InnOutClient, InnOutHandle, InnOutLayout, InnOutReplica, InnOutShape, NodeHealth, QuorumClient,
    QuorumConfig, ReliableMaxReg, Rounds, SafeGuess, TsGuesser, TsLock, TsLockSet, WritePath,
};
use swarm_fabric::{Fabric, FabricConfig, NodeId};
use swarm_sim::{GuessClock, Sim};

const WRITERS: usize = 2;
const VALUE: usize = 32;

/// The register's shape: a metadata word and two slots per writer.
fn shape() -> InnOutShape {
    InnOutShape::new(WRITERS, VALUE, 2 * WRITERS, WRITERS)
}

fn make_register(
    sim: &Sim,
    fabric: &Fabric,
    layout: &Rc<InnOutLayout>,
    lock_words: &[(NodeId, u64)],
    tid: usize,
    skew_ns: i64,
) -> SafeGuess<ReliableMaxReg<InnOutReplica>> {
    let ep = Rc::new(fabric.endpoint());
    let health = NodeHealth::new(fabric.num_nodes());
    let rounds = Rounds::new();
    let cfg = QuorumConfig::default();
    let quorum = QuorumClient::new(sim, Rc::clone(&health), cfg, rounds.clone(), None);
    let client = InnOutClient::new(quorum, Rc::clone(&ep), tid, 0, shape(), true);
    let m = ReliableMaxReg::over(InnOutHandle::new(&client, Rc::clone(layout)));
    let tsl: Vec<TsLock> = (0..WRITERS)
        .map(|w| {
            let words = lock_words
                .iter()
                .map(|&(n, base)| (n, base + 8 * w as u64))
                .collect();
            TsLock::new(
                sim,
                Rc::clone(&ep),
                words,
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
        skew_ns / 2 + 1,
    ));
    SafeGuess::new(
        m,
        Rc::new(TsLockSet::eager(tsl)),
        Rc::new(TsGuesser::new(clock, tid as u8)),
        rounds,
    )
}

fn main() {
    let sim = Sim::new(5);
    let fabric = Fabric::new(&sim, FabricConfig::default(), 3);

    // One In-n-Out register replica per node + per-writer lock words.
    let layout = Rc::new(InnOutLayout::allocate(
        &fabric,
        &shape(),
        &fabric.node_ids(),
    ));
    let lock_words: Vec<_> = fabric
        .node_ids()
        .into_iter()
        .map(|n| (n, fabric.node(n).alloc(8 * WRITERS as u64, 8)))
        .collect();

    // Writer 0 has a good clock; writer 1's clock lags by ~50 µs, so its
    // guessed timestamps are often stale.
    let w0 = make_register(&sim, &fabric, &layout, &lock_words, 0, 100);
    let w1 = make_register(&sim, &fabric, &layout, &lock_words, 1, 50_000);

    let sim2 = sim.clone();
    sim.block_on(async move {
        // Uncontended, well-synchronized: the fast path, one roundtrip.
        let path = w0.write(vec![1u8; VALUE]).await;
        println!("writer 0 (good clock):  {path:?}");
        assert_eq!(path, WritePath::Fast);

        sim2.sleep_ns(2_000).await;

        // Interleave the two writers. Writer 1's skewed clock makes some of
        // its guesses stale: those writes take the slow path, lock readers
        // out via the timestamp lock, and re-execute with a provably fresh
        // timestamp. No value is lost and no read can oscillate.
        let mut slow = 0;
        let mut last = 0u8;
        for i in 0..12u8 {
            let p0 = w0.write(vec![2 * i; VALUE]).await;
            let p1 = w1.write(vec![100 + i; VALUE]).await;
            last = 100 + i;
            for (w, p) in [(0, p0), (1, p1)] {
                if p != WritePath::Fast {
                    slow += 1;
                    println!("  writer {w} write #{i}: {p:?} (stale guess resolved safely)");
                }
            }
            sim2.sleep_ns(1_000).await;
        }
        println!("slow path taken {slow} time(s) out of 24 writes");

        let out = w0.read().await;
        println!(
            "final read: value[0]={} stamp={} via {:?} in {} iteration(s)",
            out.value.value()[0],
            out.value.stamp,
            out.path,
            out.iterations
        );
        let _ = last;
        println!(
            "whichever writer's stamp is higher wins; the register is linearizable either way"
        );
    });
}

//! Microsecond-scale session store that rides through a memory-node crash —
//! the availability story of §7.7: no downtime, no reconfiguration, just
//! quorums that widen past the dead node.
//!
//! ```sh
//! cargo run -p swarm-examples --example failover_session_store --release
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use swarm_fabric::NodeId;
use swarm_kv::{KvStore, Protocol, StoreBuilder};
use swarm_sim::{Sim, NANOS_PER_MICRO, NANOS_PER_MILLI};

const SESSIONS: u64 = 512;

fn main() {
    let sim = Sim::new(99);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(64)
        .build_cluster(&sim);
    cluster.load_keys(SESSIONS, |k| session_record(k, 0));
    cluster
        .membership()
        .expect("SWARM-KV has a membership service")
        .watch_until(40 * NANOS_PER_MILLI);

    // Crash one of the 4 memory nodes 5 ms in.
    let c2 = cluster.clone();
    sim.schedule_at(5 * NANOS_PER_MILLI, move |_| {
        println!("[t={:>6.2} ms] memory node 2 CRASHES", 5.0);
        c2.crash_node(NodeId(2));
    });

    let failures = Rc::new(RefCell::new(0u64));
    let slow_ops = Rc::new(RefCell::new(Vec::new()));
    for cid in 0..4usize {
        let client = cluster.client(cid);
        let sim2 = sim.clone();
        let failures = Rc::clone(&failures);
        let slow = Rc::clone(&slow_ops);
        sim.spawn(async move {
            let mut version = 0u64;
            while sim2.now() < 30 * NANOS_PER_MILLI {
                let key = sim2.rng().rand_range(0, SESSIONS);
                version += 1;
                let t0 = sim2.now();
                let ok = if sim2.rng().rand_range(0, 100) < 70 {
                    matches!(client.get(key).await, Ok(Some(_)))
                } else {
                    client
                        .update(key, session_record(key, version))
                        .await
                        .is_ok()
                };
                let lat = sim2.now() - t0;
                if !ok {
                    *failures.borrow_mut() += 1;
                }
                if lat > 5 * NANOS_PER_MICRO {
                    slow.borrow_mut().push((sim2.now(), lat));
                }
                sim2.sleep_ns(1_000).await;
            }
        });
    }
    sim.run();

    println!(
        "30 ms of traffic across the crash: {} failed operations (expected 0)",
        failures.borrow()
    );
    let slow = slow_ops.borrow();
    println!("operations slower than 5 us: {}", slow.len());
    for (at, lat) in slow.iter().take(8) {
        println!(
            "  t={:>6.2} ms  latency {:>6.2} us  (quorum widened past the dead node)",
            *at as f64 / 1e6,
            *lat as f64 / 1e3
        );
    }
    assert_eq!(*failures.borrow(), 0, "SWARM-KV must stay available");
    let after_grace = slow
        .iter()
        .filter(|(at, _)| *at > 8 * NANOS_PER_MILLI)
        .count();
    println!(
        "slow ops after the 3 ms post-crash grace period: {after_grace} \
         (suspicion converges; steady state restored)"
    );
}

fn session_record(key: u64, version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 64];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v[16..24].copy_from_slice(&0xC0FFEEu64.to_le_bytes());
    v
}

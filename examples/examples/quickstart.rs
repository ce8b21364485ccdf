//! Quickstart: stand up a simulated disaggregated-memory cluster through
//! `StoreBuilder`, run SWARM-KV operations against it, and print what they
//! cost.
//!
//! ```sh
//! cargo run -p swarm-examples --example quickstart
//! ```

use swarm_kv::{KvError, KvStore, Protocol, StoreBuilder};
use swarm_sim::{join_boxed, BoxFuture, Sim};

fn main() {
    // A deterministic simulation: 4 memory nodes, 3 replicas per key.
    let sim = Sim::new(2024);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(64)
        .max_clients(2)
        .build_cluster(&sim);

    // Pre-load a few keys (the YCSB load phase).
    cluster.load_keys(16, |k| {
        let mut v = format!("value-{k:03}").into_bytes();
        v.resize(64, b'.');
        v
    });

    // Two independent client threads.
    let alice = cluster.client(0);
    let bob = cluster.client(1);

    let sim2 = sim.clone();
    sim.block_on(async move {
        let timed = |label: &str, t0, t1| {
            println!("{label:<28} {:>7.2} us", (t1 - t0) as f64 / 1e3);
        };

        // A get: one roundtrip to a majority of the replicas.
        let t0 = sim2.now();
        let v = alice.get(3).await.unwrap().expect("key 3 was loaded");
        timed("alice.get(3)", t0, sim2.now());
        println!("  -> {:?}...", std::str::from_utf8(&v[..12]).unwrap());

        // An update: Safe-Guess guesses a timestamp and writes in one
        // roundtrip; the parallel read confirms the guess was fresh.
        let t0 = sim2.now();
        alice.update(3, vec![b'A'; 64]).await.unwrap();
        timed("alice.update(3)", t0, sim2.now());

        // Bob reads Alice's write — strong consistency, no coordination.
        let t0 = sim2.now();
        let v = bob.get(3).await.unwrap().unwrap();
        timed("bob.get(3)", t0, sim2.now());
        assert_eq!(*v, vec![b'A'; 64]);

        // Four gets in flight at once: the quorum reads overlap, so the
        // four cost about one roundtrip of latency — not four.
        let t0 = sim2.now();
        let gets = [4, 5, 6, 7].map(|k| Box::pin(alice.get(k)) as BoxFuture<'_, _>);
        let quotes = join_boxed(gets.into()).await;
        timed("alice.get([4,5,6,7]) joined", t0, sim2.now());
        assert!(quotes.iter().all(|r| matches!(r, Ok(Some(_)))));

        // Insert a brand-new key: replica allocation + index insertion run
        // in parallel with the replicated write (one roundtrip).
        let t0 = sim2.now();
        bob.insert(100, vec![b'N'; 64]).await.unwrap();
        timed("bob.insert(100)", t0, sim2.now());

        // Delete: a write of the maximum timestamp that nothing can
        // overwrite until the key is re-inserted. The typed API says *why*
        // a later write is refused.
        alice.delete(3).await.unwrap();
        assert_eq!(bob.get(3).await.unwrap(), None, "deleted key must be gone");
        let refused = bob.update(3, vec![0; 64]).await.unwrap_err();
        assert!(matches!(refused, KvError::Deleted | KvError::NotIndexed));
        println!("delete(3): subsequent get -> None, update refused: {refused}");

        // Roundtrip accounting.
        println!(
            "alice performed {} foreground roundtrips in total",
            alice.rounds()
        );
    });
    println!("virtual time elapsed: {:.1} us", sim.now() as f64 / 1e3);
}

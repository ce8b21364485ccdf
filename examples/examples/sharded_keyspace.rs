//! Sharded keyspace: partition a store over four independent replica
//! groups and drive it through cross-shard routers.
//!
//! Each shard is a complete cluster — its own fabric, index, membership,
//! replica groups — and a `ShardRouter` is one application thread that
//! routes every operation to the shard owning its key (a stateless hash,
//! `ShardSpec::shard_of`). Shards fail independently: crashing a node in
//! one shard leaves the other shards' executions untouched.
//!
//! ```sh
//! cargo run -p swarm-examples --example sharded_keyspace
//! ```

use swarm_kv::{KvStore, Protocol, StoreBuilder};
use swarm_sim::{join_boxed, BoxFuture, Sim};

fn main() {
    let sim = Sim::new(77);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(64)
        .max_clients(3)
        .shards(4)
        .build_sharded(&sim);

    // Bulk loading routes each key to its owning shard.
    cluster.load_keys(1024, |k| {
        let mut v = format!("tenant-{k:04}").into_bytes();
        v.resize(64, b'.');
        v
    });
    let spec = cluster.spec();
    println!("4 shards; key 7 lives on shard {}", spec.shard_of(7));

    // Two router threads, each with a client on every shard.
    let alice = cluster.router(0);
    let bob = cluster.router(1);

    let s = sim.clone();
    sim.block_on(async move {
        // Single-key ops route transparently.
        let v = alice.get(7).await.unwrap().unwrap();
        println!("get(7) -> {:?}", String::from_utf8_lossy(&v[..11]));
        bob.update(7, {
            let mut v = b"updated-007".to_vec();
            v.resize(64, b'.');
            v
        })
        .await
        .unwrap();
        let v = alice.get(7).await.unwrap().unwrap();
        println!(
            "after bob's update -> {:?}",
            String::from_utf8_lossy(&v[..11])
        );

        // Cross-shard gets in flight at once: every key routes to its
        // owning shard, and results return in input order.
        let keys: Vec<u64> = (0..16).collect();
        let t0 = s.now();
        let gets = keys
            .iter()
            .map(|&k| Box::pin(alice.get(k)) as BoxFuture<'_, _>);
        let got = join_boxed(gets.collect()).await;
        println!(
            "{} concurrent gets across 4 shards: {} found, {} ns",
            keys.len(),
            got.iter().filter(|r| matches!(r, Ok(Some(_)))).count(),
            s.now() - t0,
        );
    });

    // Shards fail independently: kill a node in key 7's shard.
    let owner = spec.shard_of(7);
    cluster
        .shard(owner)
        .fabric()
        .crash_node(swarm_fabric::NodeId(0));
    println!("crashed node 0 of shard {owner}; other shards' fabrics untouched");
    for (i, st) in cluster.per_shard_stats().iter().enumerate() {
        println!("  shard {i}: {} messages, {} bytes", st.messages, st.bytes);
    }
}

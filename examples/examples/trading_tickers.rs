//! Trading-style workload: a small set of hot ticker symbols updated by a
//! market-data feed while trading engines read them at microsecond scale —
//! the "data stores in trading systems" use case the paper's introduction
//! motivates. Compares SWARM-KV against DM-ABD under the same feed; the
//! engines snapshot their watchlists with all of a watchlist's gets in
//! flight at once (`join_boxed`).
//!
//! ```sh
//! cargo run -p swarm-examples --example trading_tickers --release
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use swarm_kv::{KvResult, KvStore, Protocol, StoreBuilder};
use swarm_sim::{join_boxed, BoxFuture, Histogram, Sim, NANOS_PER_MICRO};

const TICKERS: u64 = 32;
const FEED_UPDATES: usize = 2_000;
const SNAPSHOTS_PER_ENGINE: usize = 500;
const WATCHLIST: usize = 8;

fn quote(seq: u64) -> Vec<u8> {
    // [price | size | seq | padding] — a fixed 64 B quote record.
    let mut v = vec![0u8; 64];
    v[..8].copy_from_slice(&(10_000 + seq % 100).to_le_bytes());
    v[8..16].copy_from_slice(&(100 + seq % 7).to_le_bytes());
    v[16..24].copy_from_slice(&seq.to_le_bytes());
    v
}

fn run(proto: Protocol, label: &str) {
    let sim = Sim::new(7);
    let cluster = StoreBuilder::new(proto)
        .value_size(64)
        .max_clients(4)
        .meta_bufs(4)
        .build_cluster(&sim);
    cluster.load_keys(TICKERS, quote);

    // One feed writer, three trading engines.
    let feed = cluster.client(0);
    let engines: Vec<_> = (1..4).map(|i| cluster.client(i)).collect();

    let snap_lat = Rc::new(RefCell::new(Histogram::new()));
    let write_lat = Rc::new(RefCell::new(Histogram::new()));
    let stale_reads = Rc::new(RefCell::new(0u64));

    {
        let sim2 = sim.clone();
        let write_lat = Rc::clone(&write_lat);
        sim.spawn(async move {
            for seq in 0..FEED_UPDATES as u64 {
                let t = sim2.now();
                feed.update(seq % TICKERS, quote(seq)).await.unwrap();
                write_lat.borrow_mut().record(sim2.now() - t);
                sim2.sleep_ns(2 * NANOS_PER_MICRO).await; // ~500k quotes/s
            }
        });
    }
    for engine in engines {
        let sim2 = sim.clone();
        let snap_lat = Rc::clone(&snap_lat);
        let stale = Rc::clone(&stale_reads);
        sim.spawn(async move {
            let mut last_seen = vec![0u64; TICKERS as usize];
            for i in 0..SNAPSHOTS_PER_ENGINE {
                // An 8-ticker watchlist snapshot, all 8 gets in flight at
                // once: ~1 quorum roundtrip for all 8 keys.
                let keys: Vec<u64> = (0..WATCHLIST as u64)
                    .map(|j| (i as u64 * 7 + j * 3) % TICKERS)
                    .collect();
                let t = sim2.now();
                type Quote = KvResult<Option<Rc<Vec<u8>>>>;
                let gets = keys
                    .iter()
                    .map(|&k| Box::pin(engine.get(k)) as BoxFuture<'_, Quote>);
                let quotes = join_boxed(gets.collect()).await;
                snap_lat.borrow_mut().record(sim2.now() - t);
                for (j, q) in quotes.into_iter().enumerate() {
                    let q = q.unwrap().expect("tickers never deleted");
                    let seq = u64::from_le_bytes(q[16..24].try_into().unwrap());
                    let key = keys[j] as usize;
                    // Linearizability: sequence numbers never go backwards.
                    if seq < last_seen[key] {
                        *stale.borrow_mut() += 1;
                    }
                    last_seen[key] = seq.max(last_seen[key]);
                }
                sim2.sleep_ns(500).await;
            }
        });
    }
    sim.run();

    let mut r = snap_lat.borrow_mut();
    let mut w = write_lat.borrow_mut();
    println!(
        "{label:<10} {WATCHLIST}-key snapshots: median {:>5.2} us  p99 {:>5.2} us   quotes: median {:>5.2} us  p99 {:>5.2} us   stale reads: {}",
        r.median() as f64 / 1e3,
        r.percentile(99.0) as f64 / 1e3,
        w.median() as f64 / 1e3,
        w.percentile(99.0) as f64 / 1e3,
        stale_reads.borrow(),
    );
    assert_eq!(*stale_reads.borrow(), 0, "monotonic reads violated");
}

fn main() {
    println!(
        "hot-ticker store: 1 feed writer at ~500k quotes/s, 3 engines snapshotting watchlists"
    );
    run(Protocol::SafeGuess, "SWARM-KV");
    run(Protocol::Abd, "DM-ABD");
    println!("SWARM-KV sustains the same consistency at roughly half the snapshot latency.");
}

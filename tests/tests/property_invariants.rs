//! Property tests on the core data structures and protocol invariants:
//! each property runs on 64 seeded cases (`swarm_tests::for_each_case`),
//! its inputs drawn from the case's `SimRng`.

use std::rc::Rc;

use swarm_core::{
    innout_hash, xxh64, KvHistory, KvOpKind, LockMode, NodeHealth, QuorumConfig, Rounds, Stamp,
    TsLock,
};
use swarm_fabric::{Fabric, FabricConfig, NodeId};
use swarm_kv::{KvResult, KvStore, LfuCache, Protocol, StoreBuilder};
use swarm_sim::{join_boxed, BoxFuture, Histogram, Sim, SimRng};
use swarm_tests::{coin, for_each_case};
use swarm_workload::Zipfian;

/// Random bytes, `len` of them drawn from `[lo, hi)`.
fn bytes(rng: &SimRng, lo: u64, hi: u64) -> Vec<u8> {
    (0..rng.rand_range(lo, hi))
        .map(|_| rng.rand_u64() as u8)
        .collect()
}

/// Stamp packing is a bijection and preserves order.
#[test]
fn stamp_pack_roundtrips_and_orders() {
    for_each_case(0x57A3, |rng| {
        let stamp = || Stamp {
            i: rng.rand_range(0, 1 << 39),
            tid: rng.rand_u64() as u8,
            verified: coin(rng),
        };
        let (a, b) = (stamp(), stamp());
        assert_eq!(Stamp::unpack48(a.pack48()), a);
        assert_eq!(a < b, a.pack48() < b.pack48());
    });
}

/// Any single-byte corruption of a buffer changes its hash, so torn
/// In-n-Out reads cannot validate.
#[test]
fn corruption_never_validates() {
    for_each_case(0xC022, |rng| {
        let data = bytes(rng, 1, 512);
        let meta = rng.rand_u64();
        let mut bad = data.clone();
        bad[rng.rand_range(0, data.len() as u64) as usize] ^= rng.rand_range(1, 256) as u8;
        assert_ne!(innout_hash(meta, &bad), innout_hash(meta, &data));
    });
}

/// xxh64 is a function of `(data, seed)` and differs across seeds.
#[test]
fn hash_determinism() {
    for_each_case(0x4A54, |rng| {
        let (data, seed) = (bytes(rng, 0, 256), rng.rand_u64());
        assert_eq!(xxh64(&data, seed), xxh64(&data, seed));
        if !data.is_empty() {
            assert_ne!(xxh64(&data, seed), xxh64(&data, seed.wrapping_add(1)));
        }
    });
}

/// Zipfian samples stay in range for arbitrary uniform inputs.
#[test]
fn zipfian_in_range() {
    for_each_case(0x21BF, |rng| {
        let n = rng.rand_range(1, 50_000);
        assert!(Zipfian::new(n, 0.99, true).sample(rng.rand_f64()) < n);
    });
}

/// The LFU cache never exceeds capacity and `get` after `insert` hits.
#[test]
fn lfu_capacity_invariant() {
    for_each_case(0x1F00, |rng| {
        let cap = rng.rand_range(1, 32) as usize;
        let evict = Sim::new(1).rng().clone();
        let mut cache: LfuCache<u32> = LfuCache::new(cap);
        for _ in 0..rng.rand_range(1, 200) {
            let key = rng.rand_range(0, 64);
            if coin(rng) {
                cache.insert(&evict, key, key as u32);
                assert_eq!(cache.get(key), Some(&(key as u32)));
            } else {
                cache.remove(key);
                assert_eq!(cache.get(key), None);
            }
            assert!(cache.len() <= cap);
        }
    });
}

/// Histogram percentiles are monotone in p.
#[test]
fn percentiles_are_monotone() {
    for_each_case(0x9C71, |rng| {
        let mut h = Histogram::new();
        for _ in 0..rng.rand_range(1, 256) {
            h.record(rng.rand_range(0, 1_000_000));
        }
        let mut prev = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev);
            prev = v;
        }
    });
}

/// Histories with no two ops overlapping, built from a register model, are
/// always accepted by the linearizability checker.
#[test]
fn checker_accepts_sequential_histories() {
    for_each_case(0x5E90, |rng| {
        let mut h = KvHistory::new();
        h.set_initial(0, 0);
        let mut value = 0u64;
        let mut t = 0u64;
        for _ in 0..rng.rand_range(1, 12) {
            let invoke = t;
            t += 2;
            if coin(rng) {
                value = rng.rand_range(1, 16);
                h.push(0, invoke, t, KvOpKind::Insert(value));
            } else {
                h.push(0, invoke, t, KvOpKind::Get(Some(value)));
            }
            t += 1;
        }
        assert!(h.is_linearizable());
    });
}

/// One client's batch of concurrent ops is equivalent to the same calls one
/// at a time: for any seed, key subset, and value tag — and with a second
/// client concurrently hammering a disjoint key range — updates and then
/// gets, each batch all in flight at once (`join_boxed`), observe exactly
/// the values the equivalent `update`/`get` calls, issued in order,
/// produce (linearizability preserved under concurrency).
#[test]
fn batched_ops_match_sequential() {
    for_each_case(0xBA7C, |rng| {
        let seed = rng.rand_range(0, 200);
        // Keys are the set bits of `mask`: 1..=16 distinct keys.
        let mask = rng.rand_range(1, 1 << 16);
        let keys: Vec<u64> = (0..16).filter(|b| mask & (1 << b) != 0).collect();
        let tag = rng.rand_range(0, 200) as u8;
        let value = move |k: u64| vec![tag ^ k as u8; 64];

        let run = |batched: bool| -> Vec<Option<Vec<u8>>> {
            let sim = Sim::new(10_000 + seed);
            let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(&sim);
            cluster.load_keys(64, |k| vec![k as u8; 64]);
            // Concurrent background traffic on a disjoint key range.
            let noisy = cluster.client(1);
            let sim2 = sim.clone();
            sim.spawn(async move {
                for i in 0..24u64 {
                    let k = 32 + sim2.rng().rand_range(0, 32);
                    noisy.update(k, vec![i as u8; 64]).await.unwrap();
                }
            });
            let client = cluster.client(0);
            let keys = keys.clone();
            sim.block_on(async move {
                if batched {
                    let updates: Vec<BoxFuture<'_, KvResult<()>>> = keys
                        .iter()
                        .map(|&k| Box::pin(client.update(k, value(k))) as _)
                        .collect();
                    for r in join_boxed(updates).await {
                        r.unwrap();
                    }
                    type Got = KvResult<Option<Rc<Vec<u8>>>>;
                    let gets: Vec<BoxFuture<'_, Got>> =
                        keys.iter().map(|&k| Box::pin(client.get(k)) as _).collect();
                    join_boxed(gets)
                        .await
                        .into_iter()
                        .map(|r| r.unwrap().map(|v| (*v).clone()))
                        .collect()
                } else {
                    for &k in &keys {
                        client.update(k, value(k)).await.unwrap();
                    }
                    let mut out = Vec::with_capacity(keys.len());
                    for &k in &keys {
                        out.push(client.get(k).await.unwrap().map(|v| (*v).clone()));
                    }
                    out
                }
            })
        };

        let batched = run(true);
        assert_eq!(batched, run(false));
        for (i, got) in batched.iter().enumerate() {
            assert_eq!(got.as_deref(), Some(&value(keys[i])[..]));
        }
    });
}

/// Timestamp-lock true exclusion under randomized schedules: for any
/// seed and timestamp, READ and WRITE mode never both acquire.
#[test]
fn tslock_exclusion() {
    for_each_case(0x7510, |rng| {
        let sim = Sim::new(rng.rand_range(0, 5_000));
        let ts_i = rng.rand_range(1, 1_000);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
        let words: Vec<(NodeId, u64)> = fabric
            .node_ids()
            .into_iter()
            .map(|id| (id, fabric.node(id).alloc(8, 8)))
            .collect();
        let mk = || {
            TsLock::new(
                &sim,
                std::rc::Rc::new(fabric.endpoint()),
                words.clone(),
                NodeHealth::new(3),
                QuorumConfig::default(),
                Rounds::new(),
            )
        };
        let (l1, l2) = (mk(), mk());
        let results = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for (l, mode) in [(l1, LockMode::Read), (l2, LockMode::Write)] {
            let sim2 = sim.clone();
            let results = std::rc::Rc::clone(&results);
            sim.spawn(async move {
                sim2.sleep_ns(sim2.rng().rand_range(0, 2_000)).await;
                let ok = l.try_lock((ts_i, 0), mode).await;
                results.borrow_mut().push(ok);
            });
        }
        sim.run();
        let wins = results.borrow().iter().filter(|&&b| b).count();
        assert!(wins <= 1, "both lock modes succeeded");
    });
}

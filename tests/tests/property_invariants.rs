//! Property-based tests (proptest) on the core data structures and
//! protocol invariants.

use proptest::prelude::*;

use swarm_core::{
    innout_hash, xxh64, History, LockMode, NodeHealth, OpKind, QuorumConfig, Rounds, Stamp, TsLock,
};
use swarm_fabric::{Fabric, FabricConfig, FaultPlan, NodeId};
use swarm_kv::{
    divergent_stamp_pairs, HistoryRecorder, KvStore, KvStoreExt, LfuCache, Protocol, RepairConfig,
    RepairStrategy, StoreBuilder,
};
use swarm_sim::{Histogram, Sim, NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_workload::Zipfian;

proptest! {
    /// Stamp packing is a bijection and preserves order.
    #[test]
    fn stamp_pack_roundtrips_and_orders(
        i1 in 0u64..(1 << 39), t1 in 0u8..=255, v1 in any::<bool>(),
        i2 in 0u64..(1 << 39), t2 in 0u8..=255, v2 in any::<bool>(),
    ) {
        let a = Stamp { i: i1, tid: t1, verified: v1 };
        let b = Stamp { i: i2, tid: t2, verified: v2 };
        prop_assert_eq!(Stamp::unpack48(a.pack48()), a);
        prop_assert_eq!(a < b, a.pack48() < b.pack48());
    }

    /// Any single-byte corruption of a buffer changes its hash, so torn
    /// In-n-Out reads cannot validate.
    #[test]
    fn corruption_never_validates(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        pos in any::<prop::sample::Index>(),
        flip in 1u8..=255,
        meta in any::<u64>(),
    ) {
        let h = innout_hash(meta, &data);
        let mut bad = data.clone();
        let p = pos.index(bad.len());
        bad[p] ^= flip;
        prop_assert_ne!(innout_hash(meta, &bad), h);
    }

    /// xxh64 matches itself across chunked recomputation (determinism) and
    /// differs across seeds.
    #[test]
    fn hash_determinism(data in proptest::collection::vec(any::<u8>(), 0..256), seed in any::<u64>()) {
        prop_assert_eq!(xxh64(&data, seed), xxh64(&data, seed));
        if !data.is_empty() {
            prop_assert_ne!(xxh64(&data, seed), xxh64(&data, seed.wrapping_add(1)));
        }
    }

    /// Zipfian samples stay in range for arbitrary uniform inputs.
    #[test]
    fn zipfian_in_range(n in 1u64..50_000, u in 0.0f64..1.0) {
        let z = Zipfian::new(n, 0.99, true);
        prop_assert!(z.sample(u) < n);
    }

    /// The LFU cache never exceeds capacity and `get` after `insert` hits.
    #[test]
    fn lfu_capacity_invariant(
        cap in 1usize..32,
        ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..200),
    ) {
        let rng = swarm_sim::SimRng::shared(&Sim::new(1));
        let mut cache: LfuCache<u32> = LfuCache::new(cap);
        for (key, is_insert) in ops {
            let key = key as u64 % 64;
            if is_insert {
                cache.insert(&rng, key, key as u32);
                prop_assert_eq!(cache.get(key), Some(&(key as u32)));
            } else {
                cache.remove(key);
                prop_assert_eq!(cache.get(key), None);
            }
            prop_assert!(cache.len() <= cap);
        }
    }

    /// Histogram percentiles are monotone in p.
    #[test]
    fn percentiles_are_monotone(samples in proptest::collection::vec(0u64..1_000_000, 1..256)) {
        let mut h = Histogram::new();
        for s in &samples {
            h.record(*s);
        }
        let mut prev = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= prev);
            prev = v;
        }
    }

    /// Sequential histories built from a register model are always accepted
    /// by the linearizability checker.
    #[test]
    fn checker_accepts_sequential_histories(ops in proptest::collection::vec((any::<bool>(), 1u64..16), 1..12)) {
        let mut h = History::new();
        let mut value = 0u64;
        let mut t = 0u64;
        for (is_write, v) in ops {
            let invoke = t;
            t += 2;
            if is_write {
                value = v;
                h.push(invoke, t, OpKind::Write(v));
            } else {
                h.push(invoke, t, OpKind::Read(value));
            }
            t += 1;
        }
        prop_assert!(h.is_linearizable());
    }

    /// Batched multi-ops are equivalent to the sequential single-key calls:
    /// for any seed, key subset, and value tag — and with a second client
    /// concurrently hammering a disjoint key range — `multi_update` +
    /// `multi_get` observe exactly the values the equivalent sequential
    /// `update`/`get` calls produce (linearizability preserved under
    /// batching).
    #[test]
    fn batched_ops_match_sequential(seed in 0u64..200, mask in 1u16..=u16::MAX, tag in 0u8..200) {
        // Keys are the set bits of `mask`: 1..=16 distinct keys.
        let keys: Vec<u64> = (0..16).filter(|b| mask & (1 << b) != 0).collect();
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
                    let k = 32 + sim2.rand_range(0, 32);
                    noisy.update(k, vec![i as u8; 64]).await.unwrap();
                }
            });
            let client = cluster.client(0);
            let keys = keys.clone();
            sim.block_on(async move {
                let pairs: Vec<(u64, Vec<u8>)> =
                    keys.iter().map(|&k| (k, value(k))).collect();
                if batched {
                    for r in client.multi_update(&pairs).await {
                        r.unwrap();
                    }
                    client
                        .multi_get(&keys)
                        .await
                        .into_iter()
                        .map(|r| r.unwrap().map(|v| (*v).clone()))
                        .collect()
                } else {
                    for (k, v) in pairs {
                        client.update(k, v).await.unwrap();
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
        let sequential = run(false);
        prop_assert_eq!(&batched, &sequential);
        for (i, got) in batched.iter().enumerate() {
            prop_assert_eq!(got.as_deref(), Some(&value(keys[i])[..]));
        }
    }

    /// Timestamp-lock true exclusion under randomized schedules: for any
    /// seed and timestamp, READ and WRITE mode never both acquire.
    #[test]
    fn tslock_exclusion(seed in 0u64..5_000, ts_i in 1u64..1_000) {
        let sim = Sim::new(seed);
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
                sim2.sleep_ns(sim2.rand_range(0, 2_000)).await;
                let ok = l.try_lock((ts_i, 0), mode).await;
                results.borrow_mut().push(ok);
            });
        }
        sim.run();
        let wins = results.borrow().iter().filter(|&&b| b).count();
        prop_assert!(wins <= 1, "both lock modes succeeded");
    }
}

proptest! {
    /// The repair delta stream is a CAS-MAX merge, so it *commutes* with
    /// concurrent foreground writes (per-key linearizability holds with the
    /// agent armed during a fault window, for any seed, drop rate, and
    /// digest strategy) and is *idempotent* (replaying the whole protocol
    /// over converged replicas applies zero further deltas).
    #[test]
    fn repair_deltas_commute_with_writes_and_are_idempotent(
        seed in 0u64..500,
        permille in 100u16..600,
        strategy_idx in 0usize..2,
    ) {
        const KEYS: u64 = 32;
        const VALUE_SIZE: usize = 64;
        let tagged = |tag: u64| {
            let mut v = vec![0u8; VALUE_SIZE];
            v[..8].copy_from_slice(&tag.to_le_bytes());
            v
        };
        let strategy = RepairStrategy::all()[strategy_idx];
        let sim = Sim::new(30_000 + seed);
        let cluster = StoreBuilder::new(Protocol::SafeGuess)
            .value_size(VALUE_SIZE)
            .max_clients(3)
            .op_deadline_ns(2 * NANOS_PER_MILLI)
            .repair(RepairConfig::with_strategy(strategy))
            .build_cluster(&sim);
        cluster.load_keys(KEYS, |k| tagged((1 << 32) + k));
        let rec = HistoryRecorder::new(&sim);
        for k in 0..KEYS {
            rec.set_initial(k, &tagged((1 << 32) + k));
        }
        cluster.fabric().apply_fault_plan(&FaultPlan::new().drop_window(
            10 * NANOS_PER_MICRO,
            NodeId(0),
            permille,
            300 * NANOS_PER_MICRO,
        ));

        // The agent replays delta rounds *while* the writers run — the
        // commutativity half of the property.
        let agent = cluster.repair().expect("repair configured").clone();
        agent.arm_until(NANOS_PER_MILLI);
        let tag = std::rc::Rc::new(std::cell::Cell::new(0u64));
        for cid in 0..2 {
            let store = rec.wrap(cluster.client(cid));
            let sim2 = sim.clone();
            let tag = std::rc::Rc::clone(&tag);
            sim.spawn(async move {
                for _ in 0..20u32 {
                    sim2.sleep_ns(sim2.rand_range(1, 30 * NANOS_PER_MICRO)).await;
                    let key = sim2.rand_range(0, KEYS);
                    if sim2.rand_range(0, 2) == 0 {
                        let _ = store.get(key).await;
                    } else {
                        let t = tag.get() + 1;
                        tag.set(t);
                        let _ = store.update(key, tagged(t)).await;
                    }
                }
            });
        }
        sim.run();
        let checked = rec.take_history().check();
        prop_assert!(
            checked.is_ok(),
            "history with interleaved repair does not linearize: {:?}",
            checked.err()
        );

        let c = cluster.swarm().expect("SWARM-KV").clone();
        let a2 = agent.clone();
        let (_, converged) = sim.block_on(async move { a2.converge().await });
        prop_assert!(converged, "repair must converge within its round budget");
        prop_assert_eq!(divergent_stamp_pairs(&c), 0);

        // Idempotence: a second full protocol replay moves nothing.
        let deltas_before = agent.stats().deltas_applied;
        let a3 = agent.clone();
        let (_, converged2) = sim.block_on(async move { a3.converge().await });
        prop_assert!(converged2);
        prop_assert_eq!(agent.stats().deltas_applied, deltas_before);
        prop_assert_eq!(divergent_stamp_pairs(&c), 0);
    }
}

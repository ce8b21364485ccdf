//! End-to-end tests of the four key-value stores: protocol semantics
//! (§5.3), Table 2 roundtrip counts, §7.1 latency calibration, and the
//! unified `StoreBuilder` + typed `KvStore` surface, including one client's
//! concurrent ops.

use std::future::Future;
use std::rc::Rc;

use swarm_kv::{
    run_workload, CacheCapacity, ClusterConfig, KvError, KvStore, Protocol, RunConfig,
    StoreBuilder, StoreCluster,
};
use swarm_sim::{join_boxed, BoxFuture, Jitter, Sim};
use swarm_workload::{ScenarioMix, ScenarioOpClass, Workload};

/// Boxes one op for `join_boxed`, which runs a list of them concurrently
/// and returns their results in input order.
fn boxed<'a, T>(op: impl Future<Output = T> + 'a) -> BoxFuture<'a, T> {
    Box::pin(op)
}

fn built(sim: &Sim, proto: Protocol, n_keys: u64) -> StoreCluster {
    let cluster = StoreBuilder::new(proto).build_cluster(sim);
    cluster.load_keys(n_keys, |k| vec![k as u8; 64]);
    cluster
}

#[test]
fn swarm_kv_get_update_delete_reinsert() {
    let sim = Sim::new(1);
    let cluster = built(&sim, Protocol::SafeGuess, 8);
    let c = cluster.client(0);
    sim.block_on(async move {
        assert_eq!(*c.get(3).await.unwrap().unwrap(), vec![3u8; 64]);
        c.update(3, vec![9u8; 64]).await.unwrap();
        assert_eq!(*c.get(3).await.unwrap().unwrap(), vec![9u8; 64]);
        c.delete(3).await.unwrap();
        assert_eq!(c.get(3).await, Ok(None));
        // Depending on whether the deleter's asynchronous index unmap has
        // landed, the rejected update sees the tombstone or the missing
        // mapping — both refuse the write.
        let err = c.update(3, vec![1u8; 64]).await.unwrap_err();
        assert!(
            matches!(err, KvError::Deleted | KvError::NotIndexed),
            "update after delete: {err:?}"
        );
        // Re-insert through fresh replicas (§5.3.1).
        c.insert(3, vec![5u8; 64]).await.unwrap();
        assert_eq!(*c.get(3).await.unwrap().unwrap(), vec![5u8; 64]);
    });
}

#[test]
fn swarm_kv_insert_fresh_key_is_visible_to_other_clients() {
    let sim = Sim::new(2);
    let cluster = built(&sim, Protocol::SafeGuess, 4);
    let a = cluster.client(0);
    let b = cluster.client(1);
    sim.block_on(async move {
        assert_eq!(b.get(100).await, Ok(None), "unindexed key must miss");
        a.insert(100, vec![0xAA; 64]).await.unwrap();
        assert_eq!(*b.get(100).await.unwrap().unwrap(), vec![0xAA; 64]);
    });
}

#[test]
fn updates_by_one_client_are_read_by_another() {
    let sim = Sim::new(3);
    let cluster = built(&sim, Protocol::SafeGuess, 4);
    let a = cluster.client(0);
    let b = cluster.client(1);
    sim.block_on(async move {
        for i in 1..20u8 {
            a.update(2, vec![i; 64]).await.unwrap();
            assert_eq!(*b.get(2).await.unwrap().unwrap(), vec![i; 64]);
        }
    });
}

/// The shared suite of the acceptance criteria: every protocol constructed
/// through `StoreBuilder`, exercised through the typed `KvStore` trait, one
/// op at a time and several in flight.
#[test]
fn store_builder_shared_suite_covers_all_four_protocols() {
    for (i, proto) in Protocol::all().into_iter().enumerate() {
        let sim = Sim::new(40 + i as u64);
        let cluster = built(&sim, proto, 16);
        assert_eq!(cluster.protocol(), proto);
        let c = cluster.client(0);
        sim.block_on(async move {
            // An ordered range read: the same index walk and batch of gets
            // whichever path serves them.
            let scanned = c.scan(2, 4).await.unwrap();
            let expect: Vec<_> = (2..6u64).map(|k| (k, Rc::new(vec![k as u8; 64]))).collect();
            assert_eq!(scanned, expect, "{}: scan", proto.name());
            assert_eq!(c.scan(14, 4).await.unwrap().len(), 2, "{}", proto.name());

            // Typed single-key ops.
            assert_eq!(
                *c.get(3).await.unwrap().unwrap(),
                vec![3u8; 64],
                "{}: get",
                proto.name()
            );
            c.update(3, vec![9u8; 64]).await.unwrap();
            assert_eq!(*c.get(3).await.unwrap().unwrap(), vec![9u8; 64]);
            c.insert(200, vec![7u8; 64]).await.unwrap();
            assert_eq!(*c.get(200).await.unwrap().unwrap(), vec![7u8; 64]);
            assert_eq!(c.get(999).await, Ok(None), "{}: absent key", proto.name());

            // Concurrent ops return element-wise results in input order.
            let updates = (4..8u64).map(|k| boxed(c.update(k, vec![k as u8 + 100; 64])));
            let updated = join_boxed(updates.collect()).await;
            assert!(updated.iter().all(|r| r.is_ok()), "{}", proto.name());
            let keys: Vec<u64> = (4..8).collect();
            let got = join_boxed(keys.iter().map(|&k| boxed(c.get(k))).collect()).await;
            for (j, r) in got.iter().enumerate() {
                assert_eq!(
                    **r.as_ref().unwrap().as_ref().unwrap(),
                    vec![keys[j] as u8 + 100; 64],
                    "{}: concurrent get [{j}]",
                    proto.name()
                );
            }
            let inserts = (300..303u64).map(|k| boxed(c.insert(k, vec![k as u8; 64])));
            let inserted = join_boxed(inserts.collect()).await;
            assert!(inserted.iter().all(|r| r.is_ok()), "{}", proto.name());

            // Delete semantics (RAW has no tombstones, so absence through
            // the asynchronous index unmap is not deterministic there).
            if proto != Protocol::Raw {
                c.delete(200).await.unwrap();
                assert_eq!(c.get(200).await, Ok(None), "{}: deleted", proto.name());
                assert_eq!(c.delete(999).await, Err(KvError::NotFound));
            }
        });

        // One op deadline for all four: under a bound no roundtrip fits in,
        // each of the five operations gives up with `Timeout` at the bound;
        // under a roomy one they all complete.
        for (deadline_ns, timed_out) in [(100, true), (1_000_000, false)] {
            let sim = Sim::new(50 + i as u64);
            let cluster = StoreBuilder::new(proto)
                .op_deadline_ns(deadline_ns)
                .build_cluster(&sim);
            cluster.load_keys(16, |k| vec![k as u8; 64]);
            let (c, s) = (cluster.client(0), sim.clone());
            sim.block_on(async move {
                let t0 = s.now();
                let results = [
                    c.get(3).await.map(drop),
                    c.update(3, vec![9u8; 64]).await,
                    c.insert(200, vec![7u8; 64]).await,
                    c.scan(2, 4).await.map(drop),
                    c.delete(4).await,
                ];
                let name = proto.name();
                if timed_out {
                    assert_eq!(results, [Err(KvError::Timeout); 5], "{name}");
                    assert_eq!(s.now() - t0, 5 * deadline_ns, "{name}");
                } else {
                    assert_eq!(results, [Ok(()); 5], "{name}");
                }
            });
        }
    }
}

/// All four protocols run on the one substrate configuration: replacing it
/// wholesale must reach FUSEE's fabric too, or the comparison is between
/// different testbeds.
#[test]
fn a_replaced_cluster_config_reaches_all_four_protocols() {
    for (i, proto) in Protocol::all().into_iter().enumerate() {
        let sim = Sim::new(60 + i as u64);
        let mut cfg = ClusterConfig::default();
        cfg.nodes = 6;
        // Ten times the default one-way wire latency.
        cfg.fabric.wire = Jitter::fabric(6_400.0);
        let cluster = StoreBuilder::new(proto)
            .cluster_config(cfg)
            .build_cluster(&sim);
        assert_eq!(cluster.fabric().num_nodes(), 6, "{}", proto.name());
        cluster.load_keys(8, |k| vec![k as u8; 64]);
        let (c, s) = (cluster.client(0), sim.clone());
        sim.block_on(async move {
            c.get(3).await.unwrap().unwrap(); // resolve the location first
            let t0 = s.now();
            assert_eq!(*c.get(3).await.unwrap().unwrap(), vec![3u8; 64]);
            let took = s.now() - t0;
            assert!(took > 10_000, "{}: get took {took} ns", proto.name());
        });
    }
}

/// ...and the index: its roundtrip rides the same wire model, so under a
/// fixed 10× wire a fresh client's first get (location-cache miss, one
/// index lookup) outlasts its second (hit) by the index leg alone — two
/// 6.4 µs flights plus the service time.
#[test]
fn a_replaced_fabric_model_reaches_the_index() {
    for (i, proto) in Protocol::all().into_iter().enumerate() {
        let sim = Sim::new(70 + i as u64);
        let mut cfg = ClusterConfig::default();
        cfg.fabric.wire = Jitter::fixed(6_400.0);
        let cluster = StoreBuilder::new(proto)
            .cluster_config(cfg)
            .build_cluster(&sim);
        cluster.load_keys(8, |k| vec![k as u8; 64]);
        let (c, s) = (cluster.client(0), sim.clone());
        sim.block_on(async move {
            let t0 = s.now();
            c.get(3).await.unwrap().unwrap();
            let t1 = s.now();
            c.get(3).await.unwrap().unwrap();
            let (miss, hit) = (t1 - t0, s.now() - t1);
            let index_leg = miss - hit;
            assert!(
                index_leg > 10_000,
                "{}: index leg took {index_leg} ns",
                proto.name()
            );
        });
    }
}

/// §7.2: 8 concurrent gets of independent *cached* keys on one client
/// cost about one quorum roundtrip of latency, not eight.
#[test]
fn concurrent_gets_of_cached_keys_take_one_roundtrip_not_n() {
    let sim = Sim::new(44);
    let cluster = built(&sim, Protocol::SafeGuess, 16);
    let c = cluster.client(0);
    let s = sim.clone();
    sim.block_on(async move {
        let keys: Vec<u64> = (0..8).collect();
        // Warm the location cache.
        for &k in &keys {
            c.get(k).await.unwrap();
        }
        // One-at-a-time baseline.
        let t0 = s.now();
        for &k in &keys {
            c.get(k).await.unwrap();
        }
        let sequential = s.now() - t0;
        // All eight in flight at once.
        let t0 = s.now();
        let got = join_boxed(keys.iter().map(|&k| boxed(c.get(k))).collect()).await;
        let batched = s.now() - t0;
        assert!(got.iter().all(|r| matches!(r, Ok(Some(_)))));
        // The 8 quorum reads overlap in flight; what still serializes is
        // work-request submission on the client CPU (§7.2's wall). The
        // eight must land far below 8 sequential roundtrips.
        let single = sequential / 8;
        assert!(
            batched < 3 * single,
            "8 concurrent gets should cost ~1 RTT of latency: {batched} ns vs single {single} ns"
        );
        assert!(
            2 * batched < sequential,
            "8 concurrent gets must beat half of 8 sequential ones: {batched} vs {sequential} ns"
        );
    });
}

#[test]
fn index_capacity_surfaces_index_full() {
    let sim = Sim::new(45);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .index_capacity(8)
        .build_cluster(&sim);
    cluster.load_keys(8, |k| vec![k as u8; 64]);
    let c = cluster.client(0);
    sim.block_on(async move {
        assert_eq!(
            c.insert(100, vec![1u8; 64]).await,
            Err(KvError::IndexFull),
            "fresh insert beyond index capacity"
        );
        // Existing keys still update fine.
        c.insert(3, vec![2u8; 64]).await.unwrap();
    });
}

#[test]
fn dm_abd_and_raw_basics() {
    let sim = Sim::new(4);
    let ac = built(&sim, Protocol::Abd, 4);
    let rc = built(&sim, Protocol::Raw, 4);
    let abd = ac.client(0);
    let raw = rc.client(0);
    sim.block_on(async move {
        assert_eq!(*abd.get(1).await.unwrap().unwrap(), vec![1u8; 64]);
        abd.update(1, vec![7u8; 64]).await.unwrap();
        assert_eq!(*abd.get(1).await.unwrap().unwrap(), vec![7u8; 64]);
        assert_eq!(*raw.get(1).await.unwrap().unwrap(), vec![1u8; 64]);
        raw.update(1, vec![8u8; 64]).await.unwrap();
        assert_eq!(*raw.get(1).await.unwrap().unwrap(), vec![8u8; 64]);
    });
}

/// Table 2: common-case roundtrip counts per system.
#[test]
fn table2_roundtrip_counts() {
    let run_one = |seed: u64, proto: Protocol| {
        let sim = Sim::new(seed);
        let cluster = built(&sim, proto, 64);
        let clients = vec![cluster.client(0)];
        run_workload(
            &sim,
            &clients,
            &Workload::ycsb(ScenarioMix::B, 64, 64),
            &RunConfig {
                warmup_ops: 2_000,
                measure_ops: 2_000,
                record_rtts: true,
                ..Default::default()
            },
        )
    };

    let stats = run_one(5, Protocol::SafeGuess);
    assert!(
        stats.rtt_fraction(ScenarioOpClass::Get, 1) > 0.95,
        "SWARM gets in 1 RTT: {}",
        stats.rtt_fraction(ScenarioOpClass::Get, 1)
    );
    assert!(
        stats.rtt_fraction(ScenarioOpClass::Update, 1) > 0.90,
        "SWARM updates in 1 RTT: {}",
        stats.rtt_fraction(ScenarioOpClass::Update, 1)
    );
    assert_eq!(stats.rtt_percentile(ScenarioOpClass::Get, 99.0), 1);

    let stats = run_one(6, Protocol::Abd);
    assert!(
        stats.rtt_fraction(ScenarioOpClass::Get, 2) > 0.9,
        "DM-ABD gets in 2 RTTs: {}",
        stats.rtt_fraction(ScenarioOpClass::Get, 2)
    );
    assert!(
        stats.rtt_fraction(ScenarioOpClass::Update, 2) > 0.9,
        "DM-ABD updates in 2 RTTs: {}",
        stats.rtt_fraction(ScenarioOpClass::Update, 2)
    );

    let stats = run_one(7, Protocol::Fusee);
    let f1 = stats.rtt_fraction(ScenarioOpClass::Get, 1);
    let f2 = stats.rtt_fraction(ScenarioOpClass::Get, 2);
    assert!(f1 + f2 > 0.99, "FUSEE gets 1-2 RTTs: {f1}+{f2}");
    assert!(f1 > 0.5, "most FUSEE gets cached: {f1}");
    assert!(
        stats.rtt_fraction(ScenarioOpClass::Update, 4) > 0.9,
        "FUSEE updates in 4 RTTs: {}",
        stats.rtt_fraction(ScenarioOpClass::Update, 4)
    );

    let stats = run_one(8, Protocol::Raw);
    assert!(stats.rtt_fraction(ScenarioOpClass::Get, 1) > 0.99);
    assert!(stats.rtt_fraction(ScenarioOpClass::Update, 1) > 0.99);
}

/// §7.1 calibration: median latencies must land near the paper's
/// measurements (RAW 1.9/1.6 µs, SWARM 2.4/3.1 µs, DM-ABD 4.3/4.9 µs,
/// FUSEE ~2.9 µs fresh gets / 8.5 µs updates).
#[test]
fn latency_medians_match_paper_shape() {
    let cfg = RunConfig {
        warmup_ops: 2_000,
        measure_ops: 10_000,
        ..Default::default()
    };
    let wl = Workload::ycsb(ScenarioMix::B, 1_000, 64);
    let medians = |seed: u64, proto: Protocol| {
        let sim = Sim::new(seed);
        let cluster = built(&sim, proto, 1_000);
        let clients = cluster.clients(4);
        let stats = run_workload(&sim, &clients, &wl, &cfg);
        (
            stats.lat(ScenarioOpClass::Get).median() as f64 / 1e3,
            stats.lat(ScenarioOpClass::Update).median() as f64 / 1e3,
        )
    };

    let (raw_get, raw_upd) = medians(10, Protocol::Raw);
    let (sw_get, sw_upd) = medians(11, Protocol::SafeGuess);
    let (abd_get, abd_upd) = medians(12, Protocol::Abd);
    let (fu_get, fu_upd) = medians(13, Protocol::Fusee);

    eprintln!("medians (µs): RAW {raw_get:.2}/{raw_upd:.2}  SWARM {sw_get:.2}/{sw_upd:.2}  DM-ABD {abd_get:.2}/{abd_upd:.2}  FUSEE {fu_get:.2}/{fu_upd:.2}");

    // Absolute calibration, ±30% of the paper's medians.
    let near = |x: f64, target: f64| (x - target).abs() / target < 0.30;
    assert!(near(raw_get, 1.9), "RAW get {raw_get:.2} vs 1.9");
    assert!(near(raw_upd, 1.6), "RAW update {raw_upd:.2} vs 1.6");
    assert!(near(sw_get, 2.4), "SWARM get {sw_get:.2} vs 2.4");
    assert!(near(sw_upd, 3.1), "SWARM update {sw_upd:.2} vs 3.1");
    assert!(near(abd_get, 4.3), "DM-ABD get {abd_get:.2} vs 4.3");
    assert!(near(abd_upd, 4.9), "DM-ABD update {abd_upd:.2} vs 4.9");
    assert!(near(fu_upd, 8.5), "FUSEE update {fu_upd:.2} vs 8.5");

    // Relative ordering (the paper's headline claims).
    assert!(raw_get < sw_get && sw_get < fu_get.max(abd_get));
    assert!(sw_upd < abd_upd && abd_upd < fu_upd);
}

#[test]
fn cache_miss_costs_an_index_roundtrip() {
    let sim = Sim::new(14);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .cache(CacheCapacity::Entries(4))
        .build_cluster(&sim);
    cluster.load_keys(64, |k| vec![k as u8; 64]);
    let c = cluster.client(0);
    sim.block_on(async move {
        c.get(1).await.unwrap().unwrap(); // miss -> index (2 rtts total)
        let r0 = c.rounds();
        c.get(1).await.unwrap().unwrap(); // hit  (1 rtt)
        let hit_rtts = c.rounds() - r0;
        assert_eq!(hit_rtts, 1);
        // A never-before-touched key always misses the cache.
        let r0 = c.rounds();
        c.get(40).await.unwrap().unwrap();
        let miss_rtts = c.rounds() - r0;
        assert_eq!(miss_rtts, 2, "cache miss should add exactly 1 RTT");
    });
}

#[test]
fn runner_reports_throughput_and_latency() {
    let sim = Sim::new(15);
    let cluster = built(&sim, Protocol::SafeGuess, 128);
    let clients = cluster.clients(2);
    let stats = run_workload(
        &sim,
        &clients,
        &Workload::ycsb(ScenarioMix::A, 128, 64),
        &RunConfig {
            warmup_ops: 200,
            measure_ops: 1_000,
            ..Default::default()
        },
    );
    assert_eq!(stats.measured_ops, 1_000);
    assert_eq!(stats.failed_ops, 0);
    assert!(
        stats.throughput_ops() > 50_000.0,
        "{}",
        stats.throughput_ops()
    );
    assert!(stats.lat(ScenarioOpClass::Get).len() > 300);
    assert!(stats.lat(ScenarioOpClass::Update).len() > 300);
}

#[test]
fn concurrent_ops_increase_throughput() {
    let tput = |conc: usize| {
        let sim = Sim::new(16);
        let cluster = built(&sim, Protocol::SafeGuess, 512);
        let clients = cluster.clients(4);
        run_workload(
            &sim,
            &clients,
            &Workload::ycsb(ScenarioMix::B, 512, 64),
            &RunConfig {
                warmup_ops: 500,
                measure_ops: 4_000,
                concurrency: conc,
                ..Default::default()
            },
        )
        .throughput_ops()
    };
    let t1 = tput(1);
    let t3 = tput(3);
    assert!(
        t3 > t1 * 1.5,
        "3 concurrent ops should raise throughput: {t1} -> {t3}"
    );
}

// ---- KvError paths under injected faults ----

#[test]
fn timeout_is_surfaced_not_panicked_when_the_quorum_is_unreachable() {
    // Crash every memory node: no quorum can form. With a per-op deadline
    // the replicated store must *return* `Timeout`, not hang or panic.
    for proto in [Protocol::SafeGuess, Protocol::Abd] {
        let sim = Sim::new(40);
        let cluster = StoreBuilder::new(proto)
            .op_deadline_ns(500_000)
            .build_cluster(&sim);
        cluster.load_keys(4, |k| vec![k as u8; 64]);
        for n in cluster.fabric().node_ids() {
            cluster.crash_node(n);
        }
        let c = cluster.client(0);
        sim.block_on(async move {
            assert_eq!(c.get(1).await, Err(KvError::Timeout), "{proto:?} get");
            assert_eq!(
                c.update(1, vec![7u8; 64]).await,
                Err(KvError::Timeout),
                "{proto:?} update"
            );
        });
    }
}

#[test]
fn raw_times_out_when_its_single_replica_is_partitioned() {
    let sim = Sim::new(41);
    let cluster = StoreBuilder::new(Protocol::Raw)
        .op_deadline_ns(300_000)
        .build_cluster(&sim);
    cluster.load_keys(4, |k| vec![k as u8; 64]);
    let node = cluster.swarm().unwrap().replica_nodes_for(2)[0];
    cluster.fabric().partition_node(node);
    let c = cluster.client(0);
    let cluster2 = cluster.clone();
    sim.block_on(async move {
        assert_eq!(c.get(2).await, Err(KvError::Timeout));
        // Healing the partition restores the key: memory was never lost.
        cluster2.fabric().heal_node(node);
        assert_eq!(*c.get(2).await.unwrap().unwrap(), vec![2u8; 64]);
    });
}

#[test]
fn index_full_and_not_found_are_unchanged_mid_partition() {
    // Partition one node: the replicated store stays available via quorum
    // widening, and the *semantic* errors keep their meaning — a full index
    // still refuses fresh mappings with IndexFull (not Timeout), and a
    // delete of an absent key still reports NotFound.
    let sim = Sim::new(42);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .index_capacity(4)
        .op_deadline_ns(2_000_000)
        .build_cluster(&sim);
    cluster.load_keys(4, |k| vec![k as u8; 64]);
    cluster.fabric().partition_node(swarm_fabric::NodeId(1));
    let c = cluster.client(0);
    sim.block_on(async move {
        assert_eq!(
            c.insert(100, vec![1u8; 64]).await,
            Err(KvError::IndexFull),
            "capacity refusal must survive a partition"
        );
        assert_eq!(
            c.delete(200).await,
            Err(KvError::NotFound),
            "absent-key delete must survive a partition"
        );
        // Existing keys stay readable and writable through the quorum.
        c.update(1, vec![9u8; 64]).await.unwrap();
        assert_eq!(*c.get(1).await.unwrap().unwrap(), vec![9u8; 64]);
    });
}

#[test]
fn fusee_surfaces_timeout_under_crash() {
    let sim = Sim::new(43);
    let cluster = StoreBuilder::new(Protocol::Fusee)
        .op_deadline_ns(500_000)
        .build_cluster(&sim);
    cluster.load_keys(8, |k| vec![k as u8; 64]);
    for n in cluster.fabric().node_ids() {
        cluster.crash_node(n);
    }
    let c = cluster.client(0);
    sim.block_on(async move {
        assert_eq!(c.get(1).await, Err(KvError::Timeout));
        assert_eq!(c.update(1, vec![7u8; 64]).await, Err(KvError::Timeout));
    });
}

// ---------------------------------------------------------------------------
// Sharded clusters and the cross-shard router.

/// Every protocol works sharded: keys land on their owning shard, reads
/// through a router see writes through another router, and only the owning
/// shard's index carries the mapping.
#[test]
fn sharded_cluster_basics_across_all_protocols() {
    for proto in Protocol::all() {
        let sim = Sim::new(51);
        let cluster = StoreBuilder::new(proto)
            .shards(4)
            .max_clients(2)
            .build_sharded(&sim);
        cluster.load_keys(64, |k| vec![k as u8; 64]);
        // Loading routed by ownership: the four shard indexes partition the
        // keyspace (the Cluster-based protocols expose their index sizes).
        if cluster.shard(0).swarm().is_some() {
            let indexed: usize = (0..4)
                .map(|s| cluster.shard(s).swarm().unwrap().index().len())
                .sum();
            assert_eq!(
                indexed,
                64,
                "{}: shard indexes must partition",
                proto.name()
            );
        }
        let a = cluster.router(0);
        let b = cluster.router(1);
        sim.block_on(async move {
            assert_eq!(*a.get(3).await.unwrap().unwrap(), vec![3u8; 64]);
            b.update(3, vec![9u8; 64]).await.unwrap();
            assert_eq!(
                *a.get(3).await.unwrap().unwrap(),
                vec![9u8; 64],
                "{}: cross-router visibility",
                proto.name()
            );
        });
    }
}

/// Concurrent gets through one router land on their owning shards and
/// return in input order, whatever shards the keys hash to, including
/// duplicates.
#[test]
fn cross_shard_concurrent_gets_preserve_input_order() {
    let sim = Sim::new(52);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .shards(8)
        .max_clients(2)
        .build_sharded(&sim);
    cluster.load_keys(256, |k| vec![k as u8; 64]);
    let r = cluster.router(0);
    // Keys deliberately out of order, spanning shards, with a duplicate.
    let keys: Vec<u64> = vec![200, 3, 77, 3, 255, 0, 131, 64, 19];
    sim.block_on(async move {
        let got = join_boxed(keys.iter().map(|&k| boxed(r.get(k))).collect()).await;
        assert_eq!(got.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(
                **got[i].as_ref().unwrap().as_ref().unwrap(),
                vec![k as u8; 64],
                "result {i} must be key {k}'s value"
            );
        }
        // Every get routed like a sequential one: one tick on its
        // owning shard's counter, nothing anywhere else.
        let mut expected = vec![0u64; 8];
        for &k in &keys {
            expected[r.spec().shard_of(k)] += 1;
        }
        assert_eq!(r.routed_per_shard(), expected);
    });
}

/// Concurrent mutations through one router route per shard and report
/// per-op results in input order.
#[test]
fn cross_shard_concurrent_updates_and_inserts_route_correctly() {
    let sim = Sim::new(53);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .shards(4)
        .max_clients(2)
        .build_sharded(&sim);
    cluster.load_keys(32, |k| vec![k as u8; 64]);
    let r = cluster.router(0);
    sim.block_on(async move {
        let updates = (0..32).map(|k| boxed(r.update(k, vec![0xA0; 64])));
        assert!(join_boxed(updates.collect())
            .await
            .iter()
            .all(Result::is_ok));
        // Updating a never-inserted key fails on its own, in place.
        let mixed = vec![
            boxed(r.update(1, vec![1; 64])),
            boxed(r.update(999, vec![2; 64])),
        ];
        let res = join_boxed(mixed).await;
        assert_eq!(res[0], Ok(()));
        assert_eq!(res[1], Err(KvError::NotIndexed));
        // Fresh inserts land on their owning shards and read back anywhere.
        let inserts = (1000..1032).map(|k| boxed(r.insert(k, vec![0xB0; 64])));
        assert!(join_boxed(inserts.collect())
            .await
            .iter()
            .all(Result::is_ok));
        for k in 1000..1032 {
            assert_eq!(*r.get(k).await.unwrap().unwrap(), vec![0xB0; 64]);
        }
    });
}

/// One shard hitting its index capacity must refuse inserts with
/// `IndexFull` while every other shard keeps accepting.
#[test]
fn per_shard_index_full_leaves_other_shards_accepting() {
    let sim = Sim::new(54);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .shards(4)
        .max_clients(2)
        .index_capacity(4)
        .build_sharded(&sim);
    let spec = cluster.spec();
    // Fill shard 0 to its cap through the control plane.
    let shard0_keys: Vec<u64> = (0..).filter(|&k| spec.shard_of(k) == 0).take(4).collect();
    for &k in &shard0_keys {
        cluster.load_key(k, &[k as u8; 64]);
    }
    let r = cluster.router(0);
    sim.block_on(async move {
        // A fresh insert owned by shard 0 must be refused...
        let fresh0 = (1_000_000..).find(|&k| spec.shard_of(k) == 0).unwrap();
        assert_eq!(
            r.insert(fresh0, vec![7u8; 64]).await,
            Err(KvError::IndexFull),
            "shard 0 is at capacity"
        );
        // ...while inserts owned by the other shards all succeed.
        for s in 1..4 {
            let k = (2_000_000..).find(|&k| spec.shard_of(k) == s).unwrap();
            r.insert(k, vec![8u8; 64]).await.unwrap();
            assert_eq!(*r.get(k).await.unwrap().unwrap(), vec![8u8; 64]);
        }
    });
}

/// The YCSB runner drives routers exactly like plain clients, and the
/// router's routed-op counters plus the per-shard fabric stats account for
/// all the traffic.
#[test]
fn runner_drives_sharded_routers_with_per_shard_stats() {
    let sim = Sim::new(55);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .shards(4)
        .max_clients(3)
        .build_sharded(&sim);
    cluster.load_keys(512, |k| vec![k as u8; 64]);
    let routers = cluster.routers(3);
    let stats = run_workload(
        &sim,
        &routers,
        &Workload::ycsb(ScenarioMix::B, 512, 64),
        &RunConfig {
            warmup_ops: 200,
            measure_ops: 2_000,
            ..Default::default()
        },
    );
    assert_eq!(stats.measured_ops, 2_000);
    assert_eq!(stats.failed_ops, 0);
    assert!(stats.throughput_ops() > 0.0);
    // Every shard saw traffic, and the aggregate equals the per-shard sum.
    let per_shard = cluster.per_shard_stats();
    assert!(per_shard.iter().all(|s| s.messages > 0));
    let total = cluster.stats();
    assert_eq!(
        total.messages,
        per_shard.iter().map(|s| s.messages).sum::<u64>()
    );
    // Routed-op counters cover warmup + measured ops across the routers.
    let routed: u64 = routers
        .iter()
        .map(|r| r.routed_per_shard().iter().sum::<u64>())
        .sum();
    assert!(routed >= 2_200, "routers routed only {routed} ops");
}

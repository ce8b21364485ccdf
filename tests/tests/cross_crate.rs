//! Cross-crate integration tests: the full SWARM-KV stack (workload
//! generator -> KV client -> Safe-Guess -> In-n-Out -> fabric) exercised
//! end to end through the `StoreBuilder` front door, including the paper's
//! headline comparative claims.

use std::cell::RefCell;
use std::rc::Rc;

use swarm_core::{KvHistory, KvOpKind};
use swarm_fabric::NodeId;
use swarm_kv::{run_workload, KvStore, Protocol, RunConfig, StoreBuilder, StoreCluster};
use swarm_sim::{Sim, NANOS_PER_MILLI};
use swarm_workload::{ScenarioMix, ScenarioOpClass, Workload};

/// A cluster whose loaded values encode the key in the first 8 bytes.
fn cluster(sim: &Sim, proto: Protocol, n_keys: u64) -> StoreCluster {
    let c = StoreBuilder::new(proto).build_cluster(sim);
    c.load_keys(n_keys, |k| {
        let mut v = vec![0u8; 64];
        v[..8].copy_from_slice(&k.to_le_bytes());
        v
    });
    c
}

#[test]
fn same_seed_reproduces_identical_results() {
    let run = || {
        let sim = Sim::new(77);
        let c = cluster(&sim, Protocol::SafeGuess, 256);
        let clients = c.clients(4);
        let stats = run_workload(
            &sim,
            &clients,
            &Workload::ycsb(ScenarioMix::A, 256, 64),
            &RunConfig {
                warmup_ops: 200,
                measure_ops: 2_000,
                ..Default::default()
            },
        );
        (
            stats.measured_ops,
            stats.lat(ScenarioOpClass::Get).mean(),
            stats.lat(ScenarioOpClass::Update).mean(),
            stats.end_ns,
        )
    };
    assert_eq!(run(), run(), "simulation is not deterministic");
}

#[test]
fn headline_claims_hold_under_ycsb_a() {
    // §7.1's ordering claims on workload A (contended mix). The builder
    // pins DM-ABD's out-of-place single-metadata-word configuration.
    let median = |proto: Protocol| {
        let sim = Sim::new(3);
        let c = cluster(&sim, proto, 2_000);
        let clients = c.clients(4);
        let stats = run_workload(
            &sim,
            &clients,
            &Workload::ycsb(ScenarioMix::A, 2_000, 64),
            &RunConfig {
                warmup_ops: 4_000,
                measure_ops: 12_000,
                ..Default::default()
            },
        );
        (
            stats.lat(ScenarioOpClass::Get).median(),
            stats.lat(ScenarioOpClass::Update).median(),
        )
    };
    let (sg_get, sg_upd) = median(Protocol::SafeGuess);
    let (abd_get, abd_upd) = median(Protocol::Abd);
    assert!(
        sg_get < abd_get && sg_upd < abd_upd,
        "SWARM-KV must beat DM-ABD: get {sg_get} vs {abd_get}, update {sg_upd} vs {abd_upd}"
    );
}

#[test]
fn kv_store_is_linearizable_under_concurrency_and_crash() {
    // Record a per-key history through the full stack and check it against
    // the atomic-register spec, while a memory node dies mid-run.
    for seed in 0..8 {
        let sim = Sim::new(9_000 + seed);
        let c = cluster(&sim, Protocol::SafeGuess, 4);
        let history = Rc::new(RefCell::new(KvHistory::new()));
        history.borrow_mut().set_initial(0, 0);
        let counter = Rc::new(std::cell::Cell::new(0u64));
        for cid in 0..3usize {
            let client = c.client(cid);
            let sim2 = sim.clone();
            let history = Rc::clone(&history);
            let counter = Rc::clone(&counter);
            sim.spawn(async move {
                for _ in 0..6 {
                    sim2.sleep_ns(sim2.rng().rand_range(1, 5_000)).await;
                    let invoke = sim2.now();
                    if sim2.rng().rand_range(0, 100) < 50 {
                        // Offset write values so they never collide with the
                        // key id the loader encoded in the initial value.
                        let v = counter.get() + 1_000;
                        counter.set(counter.get() + 1);
                        let mut bytes = vec![0u8; 64];
                        bytes[..8].copy_from_slice(&v.to_le_bytes());
                        client.update(2, bytes).await.unwrap();
                        history
                            .borrow_mut()
                            .push(0, invoke, sim2.now(), KvOpKind::Insert(v));
                    } else {
                        let got = client.get(2).await.unwrap().expect("key 2 never deleted");
                        let v = u64::from_le_bytes(got[..8].try_into().unwrap());
                        // The loaded value encodes the key (2); map it to the
                        // checker's initial value 0.
                        let v = if v == 2 { 0 } else { v };
                        history
                            .borrow_mut()
                            .push(0, invoke, sim2.now(), KvOpKind::Get(Some(v)));
                    }
                }
            });
        }
        let c2 = c.clone();
        sim.schedule_after(20_000, move |_| c2.crash_node(NodeId(1)));
        sim.run();
        let h = Rc::try_unwrap(history).unwrap().into_inner();
        assert_eq!(h.len(), 18, "seed {seed}: ops lost");
        assert!(h.is_linearizable(), "seed {seed}: non-linearizable");
    }
}

#[test]
fn availability_through_crash_no_failed_ops() {
    let sim = Sim::new(5);
    let c = cluster(&sim, Protocol::SafeGuess, 1_000);
    c.membership().unwrap().watch_until(20 * NANOS_PER_MILLI);
    let clients = c.clients(4);
    let c2 = c.clone();
    sim.schedule_after(2 * NANOS_PER_MILLI, move |_| c2.crash_node(NodeId(0)));
    let stats = run_workload(
        &sim,
        &clients,
        &Workload::ycsb(ScenarioMix::A, 1_000, 64),
        &RunConfig {
            warmup_ops: 0,
            measure_ops: 20_000,
            concurrency: 2,
            ..Default::default()
        },
    );
    assert_eq!(stats.measured_ops, 20_000);
    assert_eq!(stats.failed_ops, 0, "SWARM-KV lost availability");
    // Tail latency shows the brief quorum-widening spikes, but the median
    // stays microsecond-scale.
    let mut g = stats.lat(ScenarioOpClass::Get);
    assert!(g.median() < 6_000, "median {}", g.median());
}

#[test]
fn value_sizes_roundtrip_through_the_whole_stack() {
    for &vs in &[16usize, 256, 4096] {
        let sim = Sim::new(6);
        let c = StoreBuilder::new(Protocol::SafeGuess)
            .value_size(vs)
            .build_cluster(&sim);
        c.load_keys(8, |_| vec![0u8; vs]);
        let a = c.client(0);
        let b = c.client(1);
        sim.block_on(async move {
            let payload: Vec<u8> = (0..vs).map(|i| (i * 31 % 251) as u8).collect();
            a.update(5, payload.clone()).await.unwrap();
            assert_eq!(*b.get(5).await.unwrap().unwrap(), payload, "size {vs}");
        });
    }
}

#[test]
fn deletes_are_visible_across_clients_with_stale_caches() {
    let sim = Sim::new(7);
    let c = cluster(&sim, Protocol::SafeGuess, 8);
    let a = c.client(0);
    let b = c.client(1);
    sim.block_on(async move {
        // B caches the location first.
        assert!(b.get(1).await.unwrap().is_some());
        // A deletes; B's cached replicas hold the tombstone.
        a.delete(1).await.unwrap();
        assert_eq!(b.get(1).await, Ok(None), "stale cache must see tombstone");
        assert!(b.update(1, vec![9u8; 64]).await.is_err());
    });
}

#[test]
fn steady_state_kv_traffic_schedules_no_boxed_closures() {
    // Location-cache misses pay index roundtrips (which legitimately use
    // boxed scheduled actions), but cached steady-state gets/updates must
    // ride the executor's closure-free timer path end to end — this is the
    // allocation profile the hot-path figures run in.
    let sim = Sim::new(11);
    let c = cluster(&sim, Protocol::SafeGuess, 64);
    let a = c.client(0);
    let sim2 = sim.clone();
    sim.block_on(async move {
        // Warm the location cache (index misses box closures; that's fine).
        for k in 0..64 {
            assert!(a.get(k).await.unwrap().is_some());
        }
        let boxed_before = sim2.counters().boxed_events;
        let timers_before = sim2.counters().timer_events;
        for i in 0..256u64 {
            let k = i % 64;
            a.update(k, vec![i as u8; 64]).await.unwrap();
            assert!(a.get(k).await.unwrap().is_some());
        }
        let after = sim2.counters();
        assert_eq!(
            after.boxed_events, boxed_before,
            "cached steady-state KV ops must not schedule boxed closures"
        );
        assert!(after.timer_events > timers_before, "ops must use timers");
    });
}

#[test]
fn seed_sweep_reruns_are_bit_identical() {
    // ≥4 seeds, each executed twice: traffic counters, measured latency
    // bits, final virtual time, and the executor's event/poll counters (a
    // proxy for the exact event firing order) must all reproduce exactly.
    let run = |seed: u64| {
        let sim = Sim::new(seed);
        let c = cluster(&sim, Protocol::SafeGuess, 128);
        let clients = c.clients(2);
        let stats = run_workload(
            &sim,
            &clients,
            &Workload::ycsb(ScenarioMix::B, 128, 64),
            &RunConfig {
                warmup_ops: 50,
                measure_ops: 600,
                ..Default::default()
            },
        );
        (
            stats.measured_ops,
            stats.end_ns,
            stats.lat(ScenarioOpClass::Get).mean().to_bits(),
            stats.lat(ScenarioOpClass::Update).mean().to_bits(),
            c.fabric().stats(),
            sim.counters(),
        )
    };
    for seed in [42u64, 43, 44, 45, 46] {
        assert_eq!(run(seed), run(seed), "seed {seed} diverged across reruns");
    }
}

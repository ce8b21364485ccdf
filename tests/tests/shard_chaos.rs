//! Chaos and determinism for sharded clusters: shard *independence* (a
//! fault plan aimed at one shard must not perturb any other shard's
//! execution), cross-shard linearizability through routers under faults,
//! and bit-identical reproduction of sharded sweeps.
//!
//! The independence property leans on per-shard private RNG streams (see
//! `swarm_sim::SimRng`): all shards share one simulation, but every
//! shard's fabric jitter, drop rolls, index jitter, clocks, and caches
//! fork from `(seed, shard label)`. The workers here likewise draw their
//! op mix from forked streams, so the only channel left between shards is
//! virtual time itself — which faults do not bend.

use std::cell::Cell;
use std::rc::Rc;

use swarm_core::KvHistory;
use swarm_fabric::{FaultPlan, TrafficStats};
use swarm_kv::{
    run_workload, HistoryRecorder, Protocol, RunConfig, ShardMode, ShardedCluster, StoreBuilder,
};
use swarm_sim::{Sim, NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_tests::{
    assert_linearizable, cell, planned, seeds, shard_fault_plan, tagged, MixedWorker, PlannedCase,
    INITIAL_TAG_BASE, OP_DEADLINE_NS, VALUE_SIZE,
};
use swarm_workload::{Workload, WorkloadSpec};

const SHARDS: usize = 3;
const CLIENTS_PER_SHARD: usize = 2;
const OPS_PER_WORKER: u64 = 30;
const KEYS_PER_SHARD: usize = 8;

fn build(sim: &Sim, shards: usize) -> ShardedCluster {
    StoreBuilder::new(Protocol::SafeGuess)
        .value_size(VALUE_SIZE)
        .max_clients(CLIENTS_PER_SHARD * shards)
        .op_deadline_ns(OP_DEADLINE_NS)
        .shards(shards)
        .build_sharded(sim)
}

/// Arms every shard's membership watcher for the length of a chaos run.
fn watch(cluster: &ShardedCluster, shards: usize) {
    for s in 0..shards {
        if let Some(m) = cluster.shard(s).membership() {
            m.watch_until(5 * NANOS_PER_MILLI);
        }
    }
}

/// Worker `id` of a run: a full-mix stream over `keys` from a private
/// forked stream (`label + id`), so its op choices cannot shift with
/// another shard's draws; tags start at `id << 24`.
fn worker(sim: &Sim, label: u64, id: usize, keys: Vec<u64>) -> MixedWorker {
    MixedWorker {
        rng: sim.fork_rng(Some(label + id as u64)),
        keys,
        ops: OPS_PER_WORKER,
        tag: Rc::new(Cell::new((id as u64) << 24)),
        full_mix: true,
    }
}

/// One sharded chaos run with per-shard pinned traffic: every worker
/// drives only keys owned by its shard. Returns each shard's recorded
/// history and traffic counters.
fn run_pinned(seed: u64, fault_shard: Option<usize>) -> Vec<(KvHistory, TrafficStats)> {
    let sim = Sim::new(seed);
    let cluster = build(&sim, SHARDS);
    let spec = cluster.spec();

    // The first KEYS_PER_SHARD keys owned by each shard, deterministically.
    let shard_keys: Vec<Vec<u64>> = (0..SHARDS)
        .map(|s| {
            (0u64..)
                .filter(|&k| spec.shard_of(k) == s)
                .take(KEYS_PER_SHARD)
                .collect()
        })
        .collect();

    let recorders: Vec<HistoryRecorder> = (0..SHARDS).map(|_| HistoryRecorder::new(&sim)).collect();
    for (s, keys) in shard_keys.iter().enumerate() {
        for (i, &k) in keys.iter().enumerate() {
            let v = tagged(INITIAL_TAG_BASE + (s * KEYS_PER_SHARD + i) as u64);
            cluster.load_key(k, &v);
            recorders[s].set_initial(k, &v);
        }
    }
    watch(&cluster, SHARDS);
    if let Some(f) = fault_shard {
        cluster
            .shard(f)
            .fabric()
            .apply_fault_plan(&shard_fault_plan());
    }
    for s in 0..SHARDS {
        for c in 0..CLIENTS_PER_SHARD {
            let id = s * CLIENTS_PER_SHARD + c;
            worker(&sim, 0xB0B0, id, shard_keys[s].clone())
                .spawn(&sim, recorders[s].wrap(cluster.shard(s).client(id)));
        }
    }
    sim.run();
    recorders
        .into_iter()
        .enumerate()
        .map(|(s, rec)| (rec.take_history(), cluster.shard(s).fabric().stats()))
        .collect()
}

/// The independence property: faulting shard 0 must leave shards 1 and 2
/// with *bit-identical* histories and traffic counters versus a fault-free
/// run — while visibly perturbing shard 0 itself.
#[test]
fn fault_on_one_shard_leaves_other_shards_bit_identical() {
    for seed in seeds(11, 1, 3) {
        let healthy = run_pinned(seed, None);
        let faulted = run_pinned(seed, Some(0));
        assert_ne!(
            healthy[0].1, faulted[0].1,
            "seed {seed}: the fault plan must actually perturb shard 0"
        );
        assert_eq!(
            healthy[1..],
            faulted[1..],
            "seed {seed}: a shard-0 fault changed another shard's history or traffic"
        );
        // And everything that survived still linearizes, fault or not.
        let histories = healthy.iter().chain(&faulted).map(|(h, _)| h);
        assert_linearizable(histories, &cell("run_pinned", Some(0), seed));
    }
}

/// Cross-shard traffic through routers stays linearizable per key while
/// fault plans play out on two different shards at once.
#[test]
fn cross_shard_router_histories_linearize_under_faults() {
    for seed in seeds(21, 1, 2) {
        let (h, stats) = run_routed(seed);
        assert_eq!(
            h.len() as u64,
            3 * OPS_PER_WORKER,
            "seed {seed}: ops lost from the routed history"
        );
        assert!(stats.messages > 0, "seed {seed}: no traffic");
        assert_linearizable([&h], &cell("run_routed", (), seed));
    }
}

/// One routed chaos run: 3 routers fire a mixed stream over the whole
/// keyspace while shards 0 and 2 run fault plans.
fn run_routed(seed: u64) -> (KvHistory, TrafficStats) {
    let sim = Sim::new(seed);
    let cluster = build(&sim, 4);
    let rec = HistoryRecorder::new(&sim);
    let n_keys = 16u64;
    for k in 0..n_keys {
        let v = tagged(INITIAL_TAG_BASE + k);
        cluster.load_key(k, &v);
        rec.set_initial(k, &v);
    }
    watch(&cluster, 4);
    cluster
        .shard(0)
        .fabric()
        .apply_fault_plan(&shard_fault_plan());
    cluster
        .shard(2)
        .fabric()
        .apply_fault_plan(&FaultPlan::random(seed, 4, 500 * NANOS_PER_MICRO));
    for cid in 0..3 {
        worker(&sim, 0xC1D0, cid, (0..n_keys).collect()).spawn(&sim, rec.wrap(cluster.router(cid)));
    }
    sim.run();
    (rec.take_history(), cluster.stats())
}

/// Sharded chaos runs reproduce bit for bit from their seed, and the seed
/// actually feeds the execution.
#[test]
fn sharded_runs_reproduce_bit_identically_per_seed() {
    let first = run_routed(7);
    assert_eq!(first, run_routed(7), "rerun diverged");
    assert_ne!(
        first.0,
        run_routed(8).0,
        "the seed is not feeding the sharded run"
    );
}

/// The independence property under the one-`Sim`-per-shard threaded
/// driver: faulting shard 0 of a planned multi-thread run must leave every
/// other shard's outcome — history, traffic, statistics, results — *equal*
/// to the fault-free run's: the same contract
/// `fault_on_one_shard_leaves_other_shards_bit_identical` proves on a shared
/// simulation, re-proven where each shard lives on its own OS thread.
#[test]
fn threaded_driver_fault_on_one_shard_leaves_others_bit_identical() {
    let cfg = RunConfig {
        warmup_ops: 0,
        measure_ops: 180,
        ..Default::default()
    };
    let case = PlannedCase {
        watch_until_ns: Some(5 * NANOS_PER_MILLI),
        ..PlannedCase::new(SHARDS, CLIENTS_PER_SHARD, 24, cfg)
    };
    let faulted_case = PlannedCase {
        faults: vec![(0, shard_fault_plan())],
        ..case.clone()
    };
    let mut perturbed = 0;
    let seeds = seeds(71, 1, 2);
    for &seed in &seeds {
        let healthy = planned(seed, ShardMode::Threads(SHARDS), &case);
        let faulted = planned(seed, ShardMode::Threads(SHARDS), &faulted_case);
        perturbed += usize::from(healthy.shard(0).traffic != faulted.shard(0).traffic);
        assert_eq!(
            healthy.per_shard()[1..],
            faulted.per_shard()[1..],
            "seed {seed}: a shard-0 fault changed another shard's outcome"
        );
        let what = cell("planned, shard 0 faulted", ShardMode::Threads(SHARDS), seed);
        assert_linearizable(faulted.histories(), &what);
    }
    // 60 ops a shard: a seed whose shard 0 has no message at the crashed node
    // inside the fault windows exists (seed 94), so the plan must bite on
    // most seeds, not on each.
    assert!(
        perturbed * 4 >= seeds.len() * 3,
        "the fault plan perturbed shard 0 on {perturbed} of {} seeds",
        seeds.len()
    );
}

/// A multi-seed sharded sweep — the bench_shards shape in miniature — is
/// bit-identical cell for cell between one-thread and threaded execution,
/// and across reruns.
#[test]
fn sharded_sweep_is_thread_count_invariant_and_rerunnable() {
    let cells: Vec<(u64, usize)> = seeds(31, 1, 3)
        .into_iter()
        .flat_map(|seed| [(seed, 1usize), (seed, 4)])
        .collect();
    let run = |&(seed, shards): &(u64, usize)| {
        let sim = Sim::new(seed);
        let cluster = build(&sim, shards);
        cluster.load_keys(64, |k| tagged(INITIAL_TAG_BASE + k));
        let routers = cluster.routers(2);
        let stats = run_workload(
            &sim,
            &routers,
            &Workload::ycsb(WorkloadSpec::B, 64, VALUE_SIZE),
            &RunConfig {
                warmup_ops: 50,
                measure_ops: 400,
                ..Default::default()
            },
        );
        let routed: Vec<u64> = routers.iter().flat_map(|r| r.routed_per_shard()).collect();
        (stats, cluster.stats(), routed)
    };
    let sequential = swarm_bench::sweep_on(1, &cells, run);
    let threaded = swarm_bench::sweep_on(4, &cells, run);
    let rerun = swarm_bench::sweep_on(1, &cells, run);
    for (((seed, shards), s), (t, r)) in cells
        .iter()
        .zip(&sequential)
        .zip(threaded.iter().zip(&rerun))
    {
        assert_eq!(s, t, "seed {seed}/{shards} shards: threaded diverged");
        assert_eq!(s, r, "seed {seed}/{shards} shards: rerun diverged");
    }
}

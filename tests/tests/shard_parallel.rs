//! Bit-parity of the one-`Sim`-per-shard parallel driver: a planned
//! sharded workload must produce *identical* per-shard histories, traffic
//! counters, and statistics whether the shards run sequentially on one
//! thread, work-stealing on N OS threads, or all together on one shared
//! simulation — across seeds, batch sizes, and mid-run per-shard fault
//! plans.
//!
//! This is the contract that makes threaded sharded runs trustworthy: any
//! cross-thread nondeterminism, any hidden shared-stream RNG draw, or any
//! event-order dependence between shards would show up here as a byte
//! diff.

use swarm_fabric::{FaultPlan, NodeId};
use swarm_kv::{
    plan_workload, run_sharded_plan, OpOutcome, Protocol, RunConfig, ShardMode, ShardRunOptions,
    ShardSpec, ShardedRun, StoreBuilder,
};
use swarm_sim::{NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_workload::{Workload, WorkloadSpec};

const SHARDS: usize = 4;
const ROUTERS: usize = 3;
const N_KEYS: u64 = 96;
const VALUE_SIZE: usize = 64;

fn builder() -> StoreBuilder {
    StoreBuilder::new(Protocol::SafeGuess)
        .value_size(VALUE_SIZE)
        .max_clients(ROUTERS)
        .op_deadline_ns(2 * NANOS_PER_MILLI)
        .shards(SHARDS)
}

fn workload() -> Workload {
    Workload::ycsb(WorkloadSpec::A, N_KEYS, VALUE_SIZE)
}

fn run(seed: u64, mode: ShardMode, batch: usize, faults: Vec<(usize, FaultPlan)>) -> ShardedRun {
    let b = builder();
    let wl = workload();
    let cfg = RunConfig {
        warmup_ops: 60,
        measure_ops: 300,
        batch,
        ..Default::default()
    };
    let plan = plan_workload(seed, ShardSpec::new(SHARDS), &wl, &cfg, ROUTERS);
    let opts = ShardRunOptions {
        preload_keys: Some(N_KEYS),
        faults,
        record_history: true,
        collect_results: true,
        watch_until_ns: Some(5 * NANOS_PER_MILLI),
        ..Default::default()
    };
    run_sharded_plan(&b, seed, &plan, &wl, &opts, mode)
}

/// Everything two runs must agree on, byte for byte. Latency histograms
/// have no equality; the histories (every op's invoke/response virtual
/// times and observed result) are the stronger witness, and the throughput
/// bits + op counts pin the derived statistics.
fn assert_runs_identical(a: &ShardedRun, b: &ShardedRun, what: &str) {
    assert_eq!(a.histories(), b.histories(), "{what}: histories diverged");
    assert_eq!(
        a.per_shard_traffic(),
        b.per_shard_traffic(),
        "{what}: per-shard traffic diverged"
    );
    assert_eq!(
        a.total_traffic(),
        b.total_traffic(),
        "{what}: aggregate traffic diverged"
    );
    assert_eq!(a.results(), b.results(), "{what}: op results diverged");
    let (sa, sb) = (a.merged_stats(), b.merged_stats());
    assert_eq!(sa.measured_ops, sb.measured_ops, "{what}: measured ops");
    assert_eq!(sa.failed_ops, sb.failed_ops, "{what}: failed ops");
    assert_eq!(
        (sa.start_ns, sa.end_ns),
        (sb.start_ns, sb.end_ns),
        "{what}: measurement window"
    );
    assert_eq!(
        sa.throughput_ops().to_bits(),
        sb.throughput_ops().to_bits(),
        "{what}: throughput bits"
    );
    for (s, (oa, ob)) in a.per_shard().iter().zip(b.per_shard()).enumerate() {
        assert_eq!(
            oa.stats.measured_ops, ob.stats.measured_ops,
            "{what}: shard {s} measured ops"
        );
        assert_eq!(
            (oa.stats.start_ns, oa.stats.end_ns),
            (ob.stats.start_ns, ob.stats.end_ns),
            "{what}: shard {s} window"
        );
    }
}

/// The tentpole contract: threaded ≡ sequential ≡ single-Sim, for several
/// seeds and for `ShardMode::Threads(n)`, n ∈ {1, 2, cores}.
#[test]
fn threaded_sequential_and_single_sim_are_bit_identical() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for seed in [41u64, 42, 43, 44] {
        let sequential = run(seed, ShardMode::Sequential, 1, Vec::new());
        for (mode, name) in [
            (ShardMode::Threads(1), "threads=1"),
            (ShardMode::Threads(2), "threads=2"),
            (ShardMode::Threads(cores), "threads=cores"),
            (ShardMode::SingleSim, "single-sim"),
        ] {
            let other = run(seed, mode, 1, Vec::new());
            assert_runs_identical(&sequential, &other, &format!("seed {seed}, {name}"));
        }
        // The seed must actually feed the execution.
        let other_seed = run(seed + 100, ShardMode::Sequential, 1, Vec::new());
        assert_ne!(
            sequential.histories(),
            other_seed.histories(),
            "seed {seed}: distinct seeds must diverge"
        );
        // And every mode's history linearizes per shard.
        for (s, h) in sequential.histories().into_iter().enumerate() {
            h.check()
                .unwrap_or_else(|e| panic!("seed {seed}: shard {s} does not linearize: {e}"));
        }
    }
}

/// Parity holds for pipelined cross-shard batches too (each router batch
/// splits into per-shard slices), and batched results still reassemble
/// into input order.
#[test]
fn batched_parity_and_input_order_reassembly() {
    for seed in [61u64, 62] {
        let sequential = run(seed, ShardMode::Sequential, 8, Vec::new());
        let threaded = run(seed, ShardMode::Threads(2), 8, Vec::new());
        let shared = run(seed, ShardMode::SingleSim, 8, Vec::new());
        assert_runs_identical(
            &sequential,
            &threaded,
            &format!("seed {seed}, batched threads"),
        );
        assert_runs_identical(
            &sequential,
            &shared,
            &format!("seed {seed}, batched single-sim"),
        );

        let results = sequential.results();
        assert_eq!(results.len(), ROUTERS);
        assert_eq!(
            results.iter().map(Vec::len).sum::<usize>(),
            360,
            "seed {seed}: every planned op yields exactly one outcome"
        );
    }
}

/// Reads of preloaded keys reassemble to the exact preloaded payloads: on
/// a read-only workload every outcome is the `value_for(key, 0)` payload,
/// whichever shard served it and whichever thread drove that shard.
#[test]
fn read_only_results_match_preloaded_values() {
    let b = builder();
    let wl = Workload::ycsb(WorkloadSpec::C, N_KEYS, VALUE_SIZE);
    let cfg = RunConfig {
        warmup_ops: 0,
        measure_ops: 240,
        batch: 8,
        ..Default::default()
    };
    let plan = plan_workload(77, ShardSpec::new(SHARDS), &wl, &cfg, ROUTERS);
    let opts = ShardRunOptions {
        preload_keys: Some(N_KEYS),
        collect_results: true,
        ..Default::default()
    };
    let sequential = run_sharded_plan(&b, 77, &plan, &wl, &opts, ShardMode::Sequential);
    let threaded = run_sharded_plan(&b, 77, &plan, &wl, &opts, ShardMode::Threads(2));
    assert_eq!(sequential.results(), threaded.results());
    for router_results in sequential.results() {
        for outcome in router_results {
            match outcome {
                OpOutcome::Value(v) => {
                    assert_eq!(v.len(), VALUE_SIZE);
                }
                other => panic!("read-only run on preloaded keys must hit: {other:?}"),
            }
        }
    }
    let stats = sequential.merged_stats();
    assert_eq!(stats.measured_ops, 240);
    assert_eq!(
        stats.failed_ops, 0,
        "no absent reads on a preloaded keyspace"
    );
}

/// The fault plan of the chaos suite, aimed at one shard.
fn shard_fault_plan() -> FaultPlan {
    let us = NANOS_PER_MICRO;
    FaultPlan::new()
        .crash_at(60 * us, NodeId(0))
        .restart_at(300 * us, NodeId(0))
        .drop_window(80 * us, NodeId(2), 400, 250 * us)
}

/// Parity holds with per-shard fault plans playing out mid-run: crashes,
/// restarts, and drop windows on two different shards perturb those
/// shards identically in every mode.
#[test]
fn parity_holds_under_per_shard_fault_plans() {
    for seed in [51u64, 52] {
        let faults = || {
            vec![
                (0usize, shard_fault_plan()),
                (2usize, FaultPlan::random(seed, 4, 500 * NANOS_PER_MICRO)),
            ]
        };
        let sequential = run(seed, ShardMode::Sequential, 1, faults());
        let threaded = run(seed, ShardMode::Threads(2), 1, faults());
        let shared = run(seed, ShardMode::SingleSim, 1, faults());
        assert_runs_identical(
            &sequential,
            &threaded,
            &format!("seed {seed}, faulted threads"),
        );
        assert_runs_identical(
            &sequential,
            &shared,
            &format!("seed {seed}, faulted single-sim"),
        );
        // The faults must actually bite, and everything still linearizes.
        let healthy = run(seed, ShardMode::Sequential, 1, Vec::new());
        assert_ne!(
            healthy.per_shard_traffic()[0],
            sequential.per_shard_traffic()[0],
            "seed {seed}: the fault plan must perturb shard 0"
        );
        for (s, h) in sequential.histories().into_iter().enumerate() {
            h.check().unwrap_or_else(|e| {
                panic!("seed {seed}: faulted shard {s} does not linearize: {e}")
            });
        }
    }
}

/// Hedged runs keep the full parity contract: with hedging armed
/// aggressively (`min_samples = 2`) and a delay-spike plan making hedges
/// actually fire, threaded ≡ sequential ≡ single-Sim byte for byte, the
/// merged traffic reports a balanced hedge budget, and every per-shard
/// history still linearizes.
#[test]
fn hedged_runs_are_bit_identical_across_all_shard_modes() {
    let run_hedged = |seed: u64, mode: ShardMode| {
        let b = builder().hedge(swarm_kv::HedgeConfig {
            min_samples: 2,
            ..swarm_kv::HedgeConfig::on()
        });
        let wl = workload();
        let cfg = RunConfig {
            warmup_ops: 60,
            measure_ops: 300,
            ..Default::default()
        };
        let plan = plan_workload(seed, ShardSpec::new(SHARDS), &wl, &cfg, ROUTERS);
        let opts = ShardRunOptions {
            preload_keys: Some(N_KEYS),
            faults: vec![(
                1usize,
                FaultPlan::new().delay_spike(
                    40 * NANOS_PER_MICRO,
                    NodeId(1),
                    15 * NANOS_PER_MICRO,
                    400 * NANOS_PER_MICRO,
                ),
            )],
            record_history: true,
            collect_results: true,
            watch_until_ns: Some(5 * NANOS_PER_MILLI),
            ..Default::default()
        };
        run_sharded_plan(&b, seed, &plan, &wl, &opts, mode)
    };
    for seed in [71u64, 72] {
        let sequential = run_hedged(seed, ShardMode::Sequential);
        let threaded = run_hedged(seed, ShardMode::Threads(2));
        let shared = run_hedged(seed, ShardMode::SingleSim);
        assert_runs_identical(
            &sequential,
            &threaded,
            &format!("seed {seed}, hedged threads"),
        );
        assert_runs_identical(
            &sequential,
            &shared,
            &format!("seed {seed}, hedged single-sim"),
        );
        let total = sequential.total_traffic();
        assert_eq!(
            total.hedges_fired,
            total.hedges_won + total.duplicates_discarded,
            "seed {seed}: hedge budget leaked across shards"
        );
        for (s, h) in sequential.histories().into_iter().enumerate() {
            h.check().unwrap_or_else(|e| {
                panic!("seed {seed}: hedged shard {s} does not linearize: {e}")
            });
        }
    }
}

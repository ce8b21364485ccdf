//! Bit-parity of the one-`Sim`-per-shard parallel driver: a planned
//! sharded workload must produce *equal* runs — per-shard histories,
//! traffic counters, statistics down to every latency sample, op outcomes —
//! whether the shards run one after another on one thread, work-stealing
//! on N OS threads, or all together on one shared simulation — across
//! seeds and mid-run per-shard fault plans.
//!
//! This is the contract that makes threaded sharded runs trustworthy: any
//! cross-thread nondeterminism, any hidden shared-stream RNG draw, or any
//! event-order dependence between shards would show up here as a
//! difference under `ShardedRun`'s `==`.

use swarm_fabric::{FaultPlan, NodeId};
use swarm_kv::{OpOutcome, RunConfig, ShardMode};
use swarm_sim::{NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_tests::{
    across_modes, cell, chaos_hedge, planned, shard_fault_plan, PlannedCase, VALUE_SIZE,
};
use swarm_workload::WorkloadSpec;

const SHARDS: usize = 4;
const ROUTERS: usize = 3;
const N_KEYS: u64 = 96;

fn case(faults: Vec<(usize, FaultPlan)>) -> PlannedCase {
    let cfg = RunConfig {
        warmup_ops: 60,
        measure_ops: 300,
        ..Default::default()
    };
    PlannedCase {
        watch_until_ns: Some(5 * NANOS_PER_MILLI),
        faults,
        ..PlannedCase::new(SHARDS, ROUTERS, N_KEYS, cfg)
    }
}

/// The tentpole contract: single-Sim ≡ `ShardMode::Threads(n)` for
/// n ∈ {1, 2, cores}, for several seeds.
#[test]
fn threaded_sequential_and_single_sim_are_bit_identical() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let case = case(Vec::new());
    for seed in [41u64, 42, 43, 44] {
        let run = across_modes(seed, &case, "fault-free");
        let mode = ShardMode::Threads(cores);
        assert_eq!(
            run,
            planned(seed, mode, &case),
            "{}",
            cell("fault-free", mode, seed)
        );
        // The seed must actually feed the execution.
        assert_ne!(
            run.histories(),
            planned(seed + 100, ShardMode::Threads(1), &case).histories(),
            "seed {seed}: distinct seeds must diverge"
        );
    }
}

/// Every mode's per-shard outcomes reassemble into each router's input
/// order, one outcome per planned op.
#[test]
fn results_reassemble_into_input_order_across_all_modes() {
    for seed in [61u64, 62] {
        let results = across_modes(seed, &case(Vec::new()), "reassembly").results();
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
    let cfg = RunConfig {
        warmup_ops: 0,
        measure_ops: 240,
        ..Default::default()
    };
    let case = PlannedCase {
        spec: WorkloadSpec::C,
        ..PlannedCase::new(SHARDS, ROUTERS, N_KEYS, cfg)
    };
    let run = planned(77, ShardMode::Threads(1), &case);
    assert_eq!(run, planned(77, ShardMode::Threads(2), &case));
    for outcome in run.results().into_iter().flatten() {
        match outcome {
            OpOutcome::Value(v) => assert_eq!(v.len(), VALUE_SIZE),
            other => panic!("read-only run on preloaded keys must hit: {other:?}"),
        }
    }
    let stats = run.merged_stats();
    assert_eq!(stats.measured_ops, 240);
    assert_eq!(
        stats.failed_ops, 0,
        "no absent reads on a preloaded keyspace"
    );
}

/// Parity holds with per-shard fault plans playing out mid-run: crashes,
/// restarts, and drop windows on two different shards perturb those
/// shards identically in every mode.
#[test]
fn parity_holds_under_per_shard_fault_plans() {
    for seed in [51u64, 52] {
        let faults = vec![
            (0, shard_fault_plan()),
            (2, FaultPlan::random(seed, 4, 500 * NANOS_PER_MICRO)),
        ];
        let run = across_modes(seed, &case(faults), "faulted");
        // The faults must actually bite.
        assert_ne!(
            planned(seed, ShardMode::Threads(1), &case(Vec::new()))
                .shard(0)
                .traffic,
            run.shard(0).traffic,
            "seed {seed}: the fault plan must perturb shard 0"
        );
    }
}

/// Hedged runs keep the full parity contract: with hedging armed
/// aggressively (`min_samples = 2`) and a delay-spike plan making hedges
/// actually fire, every mode agrees, the merged traffic reports a balanced
/// hedge budget, and every per-shard history still linearizes.
#[test]
fn hedged_runs_are_bit_identical_across_all_shard_modes() {
    let us = NANOS_PER_MICRO;
    let spike = FaultPlan::new().delay_spike(40 * us, NodeId(1), 15 * us, 400 * us);
    let case = PlannedCase {
        hedge: Some(chaos_hedge()),
        ..case(vec![(1, spike)])
    };
    for seed in [71u64, 72] {
        let total = across_modes(seed, &case, "hedged").total_traffic();
        assert_eq!(
            total.hedges_fired,
            total.hedges_won + total.duplicates_discarded,
            "seed {seed}: hedge budget leaked across shards"
        );
    }
}

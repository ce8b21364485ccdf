//! Chaos and bit-parity for *online resharding*: a planned sharded run
//! with mid-run migration events (split, destination-crash abort, rebuild
//! after a permanent node death) must stay per-key linearizable under
//! node crashes, and the whole migration — epochs, seals, bounces, copied
//! keys, every op's invoke/response times — must replay bit-identically
//! whether the shards run sequentially, on OS threads, or on one shared
//! simulation.
//!
//! `SWARM_CHAOS_SEEDS=N` widens the seed sweep (default 4, the
//! acceptance floor).

use swarm_fabric::{FaultPlan, NodeId};
use swarm_kv::{
    plan_workload, run_sharded_plan, Protocol, ReshardEvent, RunConfig, ShardMode, ShardRunOptions,
    ShardSpec, ShardedRun, StoreBuilder,
};
use swarm_sim::{NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_workload::{Workload, WorkloadSpec};

const SHARDS: usize = 2;
const ROUTERS: usize = 2;
const N_KEYS: u64 = 96;
const VALUE_SIZE: usize = 64;

/// The elastic driver reserves the top client id for its migration task,
/// so the builder must mint one more client than the run has routers.
fn builder() -> StoreBuilder {
    StoreBuilder::new(Protocol::SafeGuess)
        .value_size(VALUE_SIZE)
        .max_clients(ROUTERS + 1)
        .op_deadline_ns(2 * NANOS_PER_MILLI)
        .shards(SHARDS)
}

fn workload() -> Workload {
    Workload::ycsb(WorkloadSpec::A, N_KEYS, VALUE_SIZE)
}

/// Seeds per scenario: 4 by default (the pinned acceptance floor),
/// `SWARM_CHAOS_SEEDS=N` for deeper local sweeps.
fn chaos_seeds() -> Vec<u64> {
    let n = swarm_bench::env_knob("SWARM_CHAOS_SEEDS", "a positive integer like 16", |n| {
        *n > 0
    })
    .unwrap_or(4u64);
    (0..n).map(|i| 0x2E5A_4D00 + i * 6007).collect()
}

fn run(
    seed: u64,
    mode: ShardMode,
    reshards: Vec<ReshardEvent>,
    faults: Vec<(usize, FaultPlan)>,
) -> ShardedRun {
    let b = builder();
    let wl = workload();
    let cfg = RunConfig {
        warmup_ops: 40,
        measure_ops: 260,
        batch: 1,
        ..Default::default()
    };
    let plan = plan_workload(seed, ShardSpec::new(SHARDS), &wl, &cfg, ROUTERS);
    let opts = ShardRunOptions {
        preload_keys: Some(N_KEYS),
        faults,
        record_history: true,
        collect_results: true,
        watch_until_ns: Some(20 * NANOS_PER_MILLI),
        reshards,
        repair_until_ns: None,
    };
    run_sharded_plan(&b, seed, &plan, &wl, &opts, mode)
}

/// Everything two runs must agree on, byte for byte — the
/// `shard_parallel` witness set plus the per-shard migration counters.
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
    for (s, (oa, ob)) in a.per_shard().iter().zip(b.per_shard()).enumerate() {
        assert_eq!(
            oa.reshard, ob.reshard,
            "{what}: shard {s} migration counters diverged"
        );
        assert_eq!(
            (oa.stats.start_ns, oa.stats.end_ns),
            (ob.stats.start_ns, ob.stats.end_ns),
            "{what}: shard {s} window"
        );
    }
}

fn assert_linearizable(r: &ShardedRun, what: &str) {
    for (s, h) in r.histories().into_iter().enumerate() {
        h.check()
            .unwrap_or_else(|e| panic!("{what}: shard {s} does not linearize: {e}"));
    }
}

/// A split of shard 1's upper half, landing while the measured workload
/// is in full flight.
fn split_event() -> ReshardEvent {
    ReshardEvent::split(1, 40 * NANOS_PER_MICRO, 500).pace_ns(500)
}

/// Healthy split mid-run: the migration seals, advances the epoch, moves
/// keys — and the entire run, migration included, is bit-identical in
/// every [`ShardMode`].
#[test]
fn split_mid_run_is_bit_identical_across_modes() {
    for (i, seed) in chaos_seeds().into_iter().enumerate() {
        let sequential = run(seed, ShardMode::Sequential, vec![split_event()], Vec::new());
        for (mode, name) in [
            (ShardMode::Threads(2), "threads=2"),
            (ShardMode::SingleSim, "single-sim"),
        ] {
            let other = run(seed, mode, vec![split_event()], Vec::new());
            assert_runs_identical(&sequential, &other, &format!("seed {seed}, {name}"));
        }
        assert_linearizable(&sequential, &format!("seed {seed}, healthy split"));

        let stats = sequential.per_shard()[1]
            .reshard
            .expect("shard 1 ran with a migration event");
        assert_eq!(stats.sealed, 1, "seed {seed}: the split must seal");
        assert_eq!(
            stats.aborted, 0,
            "seed {seed}: no aborts on a healthy split"
        );
        assert_eq!(stats.epoch, 1, "seed {seed}: seal bumps the routing epoch");
        assert_eq!(stats.groups, 2, "seed {seed}: the split adds one group");
        assert!(
            stats.keys_copied > 0,
            "seed {seed}: the split must move keys"
        );
        assert!(
            sequential.per_shard()[0].reshard.is_none(),
            "seed {seed}: shard 0 had no events and stays a plain cluster"
        );

        if i == 0 {
            // The seed must actually feed the execution.
            let other_seed = run(
                seed + 101,
                ShardMode::Sequential,
                vec![split_event()],
                Vec::new(),
            );
            assert_ne!(
                sequential.histories(),
                other_seed.histories(),
                "distinct seeds must diverge"
            );
        }
    }
}

/// A node of the *source* group crashes mid-window and restarts. The
/// migration driver retries through it, foreground ops time out and
/// resolve as ambiguous — and every mode still agrees bit for bit, every
/// per-key history still linearizes.
#[test]
fn source_crash_mid_migration_stays_linearizable() {
    let us = NANOS_PER_MICRO;
    for seed in chaos_seeds() {
        let faults = || {
            vec![(
                1usize,
                FaultPlan::new()
                    .crash_at(60 * us, NodeId(1))
                    .restart_at(400 * us, NodeId(1))
                    .drop_window(80 * us, NodeId(3), 400, 200 * us),
            )]
        };
        let events = || vec![ReshardEvent::split(1, 40 * us, 500).pace_ns(2_000)];
        let sequential = run(seed, ShardMode::Sequential, events(), faults());
        let threaded = run(seed, ShardMode::Threads(2), events(), faults());
        let shared = run(seed, ShardMode::SingleSim, events(), faults());
        assert_runs_identical(
            &sequential,
            &threaded,
            &format!("seed {seed}, crash threads"),
        );
        assert_runs_identical(
            &sequential,
            &shared,
            &format!("seed {seed}, crash single-sim"),
        );
        assert_linearizable(&sequential, &format!("seed {seed}, source crash"));

        // The migration must terminate one way or the other, and the
        // fault must actually bite the shard it targets.
        let stats = sequential.per_shard()[1].reshard.expect("migration ran");
        assert_eq!(
            stats.sealed + stats.aborted,
            1,
            "seed {seed}: the migration must terminate"
        );
        let healthy = run(seed, ShardMode::Sequential, events(), Vec::new());
        assert_ne!(
            healthy.per_shard_traffic()[1],
            sequential.per_shard_traffic()[1],
            "seed {seed}: the fault plan must perturb shard 1"
        );
    }
}

/// The *destination* group dies wholesale mid-copy: the window poisons,
/// the migration aborts, ownership never moves (epoch stays 0), no op is
/// lost — identically in every mode.
#[test]
fn dest_crash_aborts_the_migration_everywhere() {
    let us = NANOS_PER_MICRO;
    for seed in chaos_seeds().into_iter().take(2) {
        let events = || {
            let mut plan = FaultPlan::new();
            for n in 0..4 {
                plan = plan.crash_at(70 * us, NodeId(n));
            }
            vec![ReshardEvent::split(1, 40 * us, 500)
                .pace_ns(2_000)
                .dest_faults(plan)]
        };
        let sequential = run(seed, ShardMode::Sequential, events(), Vec::new());
        let threaded = run(seed, ShardMode::Threads(2), events(), Vec::new());
        let shared = run(seed, ShardMode::SingleSim, events(), Vec::new());
        assert_runs_identical(
            &sequential,
            &threaded,
            &format!("seed {seed}, abort threads"),
        );
        assert_runs_identical(
            &sequential,
            &shared,
            &format!("seed {seed}, abort single-sim"),
        );
        assert_linearizable(&sequential, &format!("seed {seed}, dest crash"));

        let stats = sequential.per_shard()[1].reshard.expect("migration ran");
        assert_eq!(stats.aborted, 1, "seed {seed}: a dead destination aborts");
        assert_eq!(stats.sealed, 0, "seed {seed}: no seal after an abort");
        assert_eq!(
            stats.epoch, 0,
            "seed {seed}: ownership never moves off the source"
        );
        assert_eq!(
            stats.groups, 2,
            "seed {seed}: the doomed destination group was built"
        );
    }
}

/// Membership-driven replica replacement: a node dies permanently, the
/// lease monitor declares it dead, and a scheduled `Rebuild` migrates the
/// group's whole range onto a fresh replica group — sealing, advancing
/// the epoch, and replaying bit-identically in every mode.
#[test]
fn rebuild_replaces_a_dead_group_mid_run() {
    let ms = NANOS_PER_MILLI;
    for seed in chaos_seeds().into_iter().take(2) {
        let faults = || vec![(0usize, FaultPlan::new().crash_at(ms, NodeId(1)))];
        let events = || vec![ReshardEvent::rebuild(0, 2 * ms, 0, 1).pace_ns(1_000)];
        let sequential = run(seed, ShardMode::Sequential, events(), faults());
        let threaded = run(seed, ShardMode::Threads(2), events(), faults());
        let shared = run(seed, ShardMode::SingleSim, events(), faults());
        assert_runs_identical(
            &sequential,
            &threaded,
            &format!("seed {seed}, rebuild threads"),
        );
        assert_runs_identical(
            &sequential,
            &shared,
            &format!("seed {seed}, rebuild single-sim"),
        );
        assert_linearizable(&sequential, &format!("seed {seed}, rebuild"));

        let stats = sequential.per_shard()[0].reshard.expect("rebuild ran");
        assert_eq!(stats.sealed, 1, "seed {seed}: the rebuild must seal");
        assert_eq!(stats.epoch, 1, "seed {seed}: the rebuild bumps the epoch");
        assert_eq!(stats.groups, 2, "seed {seed}: a fresh group was built");
        assert!(
            stats.keys_copied > 0,
            "seed {seed}: the rebuild must copy the keyspace"
        );
    }
}

//! Chaos and bit-parity for *online resharding*: a planned sharded run
//! with mid-run migration events (split, destination-crash abort, rebuild
//! after a permanent node death) must stay per-key linearizable under
//! node crashes, and the whole migration — epochs, seals, bounces, copied
//! keys, every op's invoke/response times — must replay bit-identically
//! whether the shards run one after another, on OS threads, or on one
//! shared simulation (`swarm_tests::across_modes`).

use swarm_fabric::{FaultPlan, NodeId};
use swarm_kv::{ReshardEvent, ReshardStats, RunConfig, ShardMode, ShardedRun};
use swarm_sim::{NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_tests::{across_modes, planned, seeds, PlannedCase};

const SHARDS: usize = 2;
const ROUTERS: usize = 2;
const N_KEYS: u64 = 96;

/// 4 seeds per scenario unless widened.
fn sweep_seeds() -> Vec<u64> {
    seeds(0x2E5A_4D00, 6007, 4)
}

/// The elastic driver reserves the top client id for its migration task,
/// so the store mints one more client than the run has routers.
fn case(reshards: Vec<ReshardEvent>, faults: Vec<(usize, FaultPlan)>) -> PlannedCase {
    let cfg = RunConfig {
        warmup_ops: 40,
        measure_ops: 260,
        ..Default::default()
    };
    PlannedCase {
        max_clients: ROUTERS + 1,
        watch_until_ns: Some(20 * NANOS_PER_MILLI),
        faults,
        reshards,
        ..PlannedCase::new(SHARDS, ROUTERS, N_KEYS, cfg)
    }
}

/// A split of shard 1's upper half, landing while the measured workload
/// is in full flight.
fn split_event(pace_ns: u64) -> ReshardEvent {
    ReshardEvent::split(1, 40 * NANOS_PER_MICRO, 500).pace_ns(pace_ns)
}

fn migration(run: &ShardedRun, shard: usize) -> ReshardStats {
    run.shard(shard)
        .reshard
        .expect("the shard ran with a migration event")
}

/// Healthy split mid-run: the migration seals, advances the epoch, moves
/// keys — and the entire run, migration included, is bit-identical in
/// every [`ShardMode`].
#[test]
fn split_mid_run_is_bit_identical_across_modes() {
    let case = case(vec![split_event(500)], Vec::new());
    for (i, seed) in sweep_seeds().into_iter().enumerate() {
        let run = across_modes(seed, &case, "healthy split");
        let stats = migration(&run, 1);
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
            run.shard(0).reshard.is_none(),
            "seed {seed}: shard 0 had no events and stays a plain cluster"
        );
        if i == 0 {
            // The seed must actually feed the execution.
            let other_seed = planned(seed + 101, ShardMode::Threads(1), &case);
            assert_ne!(
                run.histories(),
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
    let crash = FaultPlan::new()
        .crash_at(60 * us, NodeId(1))
        .restart_at(400 * us, NodeId(1))
        .drop_window(80 * us, NodeId(3), 400, 200 * us);
    let healthy = case(vec![split_event(2_000)], Vec::new());
    let crashed = case(vec![split_event(2_000)], vec![(1, crash)]);
    for seed in sweep_seeds() {
        let run = across_modes(seed, &crashed, "source crash");
        // The migration must terminate one way or the other, and the
        // fault must actually bite the shard it targets.
        let stats = migration(&run, 1);
        assert_eq!(
            stats.sealed + stats.aborted,
            1,
            "seed {seed}: the migration must terminate"
        );
        assert_ne!(
            planned(seed, ShardMode::Threads(1), &healthy)
                .shard(1)
                .traffic,
            run.shard(1).traffic,
            "seed {seed}: the fault plan must perturb shard 1"
        );
    }
}

/// The *destination* group dies wholesale mid-copy: the window poisons,
/// the migration aborts, ownership never moves (epoch stays 0), no op is
/// lost — identically in every mode.
#[test]
fn dest_crash_aborts_the_migration_everywhere() {
    let dest_dies = (0..4).fold(FaultPlan::new(), |plan, n| {
        plan.crash_at(70 * NANOS_PER_MICRO, NodeId(n))
    });
    let case = case(vec![split_event(2_000).dest_faults(dest_dies)], Vec::new());
    for seed in sweep_seeds().into_iter().take(2) {
        let run = across_modes(seed, &case, "dest crash");
        let stats = migration(&run, 1);
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
    let case = case(
        vec![ReshardEvent::rebuild(0, 2 * ms, 0, 1).pace_ns(1_000)],
        vec![(0, FaultPlan::new().crash_at(ms, NodeId(1)))],
    );
    for seed in sweep_seeds().into_iter().take(2) {
        let run = across_modes(seed, &case, "rebuild");
        let stats = migration(&run, 0);
        assert_eq!(stats.sealed, 1, "seed {seed}: the rebuild must seal");
        assert_eq!(stats.epoch, 1, "seed {seed}: the rebuild bumps the epoch");
        assert_eq!(stats.groups, 2, "seed {seed}: a fresh group was built");
        assert!(
            stats.keys_copied > 0,
            "seed {seed}: the rebuild must copy the keyspace"
        );
    }
}

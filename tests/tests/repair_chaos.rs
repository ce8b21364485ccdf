//! Chaos and bit-parity for *background anti-entropy repair*: a planned
//! sharded run with repair armed must stay per-key linearizable under
//! fault windows, its repair counters (rounds, deltas, bytes) must replay
//! bit-identically whether the shards run sequentially, on OS threads, or
//! on one shared simulation — and the repair must actually matter: with it
//! off, a drop window leaves replicas divergent forever; with it on, every
//! replica pair converges.
//!
//! `SWARM_CHAOS_SEEDS=N` widens the seed sweep (default 4, the
//! acceptance floor).

use swarm_fabric::{FaultPlan, NodeId};
use swarm_kv::{
    divergent_stamp_pairs, plan_workload, run_sharded_plan, run_workload, Protocol, RepairConfig,
    RepairStrategy, ReshardEvent, RunConfig, ShardMode, ShardRunOptions, ShardSpec, ShardedRun,
    StoreBuilder,
};
use swarm_sim::{Nanos, Sim, NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_workload::{Workload, WorkloadSpec};

const SHARDS: usize = 2;
const ROUTERS: usize = 2;
const N_KEYS: u64 = 96;
const VALUE_SIZE: usize = 64;

/// The repair agent (and an elastic family's migration driver) writes with
/// the reserved top client id, so the builder mints one more than the run
/// has routers.
fn builder(repair: Option<RepairConfig>) -> StoreBuilder {
    let b = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(VALUE_SIZE)
        .max_clients(ROUTERS + 1)
        .op_deadline_ns(2 * NANOS_PER_MILLI)
        .shards(SHARDS);
    match repair {
        Some(cfg) => b.repair(cfg),
        None => b,
    }
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

/// A 300-permille drop window on one replica node of shard 1: enough loss
/// to strand stale max registers behind completed quorum writes.
fn drop_faults() -> Vec<(usize, FaultPlan)> {
    let us = NANOS_PER_MICRO;
    vec![(
        1usize,
        FaultPlan::new().drop_window(30 * us, NodeId(0), 300, 400 * us),
    )]
}

fn run(
    seed: u64,
    mode: ShardMode,
    repair: Option<RepairConfig>,
    repair_until_ns: Option<Nanos>,
    reshards: Vec<ReshardEvent>,
    faults: Vec<(usize, FaultPlan)>,
) -> ShardedRun {
    let b = builder(repair);
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
        watch_until_ns: None,
        reshards,
        repair_until_ns,
    };
    run_sharded_plan(&b, seed, &plan, &wl, &opts, mode)
}

/// Everything two runs must agree on, byte for byte — the
/// `reshard_chaos` witness set plus the per-shard repair counters.
fn assert_runs_identical(a: &ShardedRun, b: &ShardedRun, what: &str) {
    assert_eq!(a.histories(), b.histories(), "{what}: histories diverged");
    assert_eq!(
        a.per_shard_traffic(),
        b.per_shard_traffic(),
        "{what}: per-shard traffic diverged"
    );
    assert_eq!(a.results(), b.results(), "{what}: op results diverged");
    let (sa, sb) = (a.merged_stats(), b.merged_stats());
    assert_eq!(sa.measured_ops, sb.measured_ops, "{what}: measured ops");
    assert_eq!(sa.failed_ops, sb.failed_ops, "{what}: failed ops");
    for (s, (oa, ob)) in a.per_shard().iter().zip(b.per_shard()).enumerate() {
        assert_eq!(
            oa.repair, ob.repair,
            "{what}: shard {s} repair counters diverged"
        );
        assert_eq!(
            oa.reshard, ob.reshard,
            "{what}: shard {s} migration counters diverged"
        );
    }
}

fn assert_linearizable(r: &ShardedRun, what: &str) {
    for (s, h) in r.histories().into_iter().enumerate() {
        h.check()
            .unwrap_or_else(|e| panic!("{what}: shard {s} does not linearize: {e}"));
    }
}

/// Repair armed under a drop window: bit-identical across every mode and
/// strategy, linearizable, and the agent does real work on the lossy
/// shard.
#[test]
fn repair_under_drops_is_bit_identical_across_modes() {
    let until = Some(3 * NANOS_PER_MILLI);
    let mut deltas_across_seeds = 0u64;
    for seed in chaos_seeds() {
        let cfg = || Some(RepairConfig::default());
        let sequential = run(
            seed,
            ShardMode::Sequential,
            cfg(),
            until,
            Vec::new(),
            drop_faults(),
        );
        for (mode, name) in [
            (ShardMode::Threads(2), "threads=2"),
            (ShardMode::SingleSim, "single-sim"),
        ] {
            let other = run(seed, mode, cfg(), until, Vec::new(), drop_faults());
            assert_runs_identical(&sequential, &other, &format!("seed {seed}, {name}"));
        }
        assert_linearizable(&sequential, &format!("seed {seed}, repair under drops"));

        for (s, o) in sequential.per_shard().iter().enumerate() {
            let stats = o.repair.expect("repair configured on every shard");
            assert!(
                stats.rounds > 0,
                "seed {seed}: shard {s} must run repair rounds"
            );
        }
        deltas_across_seeds += sequential.per_shard()[1]
            .repair
            .expect("repair configured")
            .deltas_applied;
    }
    assert!(
        deltas_across_seeds > 0,
        "across the seed sweep the lossy shard must need at least one delta"
    );
}

/// Every strategy replays bit-identically (one seed, the three-way mode
/// cross is covered above; here the strategy axis gets the same witness).
#[test]
fn every_strategy_is_bit_identical_across_modes() {
    let until = Some(3 * NANOS_PER_MILLI);
    let seed = chaos_seeds()[0];
    for strategy in RepairStrategy::all() {
        let cfg = || Some(RepairConfig::with_strategy(strategy));
        let sequential = run(
            seed,
            ShardMode::Sequential,
            cfg(),
            until,
            Vec::new(),
            drop_faults(),
        );
        let threaded = run(
            seed,
            ShardMode::Threads(2),
            cfg(),
            until,
            Vec::new(),
            drop_faults(),
        );
        assert_runs_identical(
            &sequential,
            &threaded,
            &format!("strategy {}", strategy.name()),
        );
        assert_linearizable(&sequential, &format!("strategy {}", strategy.name()));
    }
}

/// Repair and an elastic split in the same run: window keys defer to the
/// migration, the split seals, and the whole composition — migration
/// counters and repair counters — replays bit-identically.
#[test]
fn repair_composes_with_resharding_bit_identically() {
    let until = Some(3 * NANOS_PER_MILLI);
    let events = || vec![ReshardEvent::split(1, 40 * NANOS_PER_MICRO, 500).pace_ns(500)];
    for seed in chaos_seeds().into_iter().take(2) {
        let cfg = || Some(RepairConfig::default());
        let sequential = run(
            seed,
            ShardMode::Sequential,
            cfg(),
            until,
            events(),
            drop_faults(),
        );
        for (mode, name) in [
            (ShardMode::Threads(2), "threads=2"),
            (ShardMode::SingleSim, "single-sim"),
        ] {
            let other = run(seed, mode, cfg(), until, events(), drop_faults());
            assert_runs_identical(&sequential, &other, &format!("seed {seed}, {name}"));
        }
        assert_linearizable(&sequential, &format!("seed {seed}, repair + split"));

        let stats = sequential.per_shard()[1]
            .reshard
            .expect("shard 1 ran a migration");
        assert_eq!(stats.sealed, 1, "seed {seed}: the split must seal");
        let repair = sequential.per_shard()[1]
            .repair
            .expect("repair configured on the elastic family");
        assert!(repair.rounds > 0, "seed {seed}: the family runs repair");
    }
}

/// With repair off the run is byte-identical to one built without any
/// repair config at all: configuring nothing and arming nothing are the
/// same execution (the "disabled repair changes no goldens" guarantee,
/// one level up from the bench goldens).
#[test]
fn unarmed_repair_config_changes_nothing() {
    let seed = chaos_seeds()[0];
    let plain = run(
        seed,
        ShardMode::Sequential,
        None,
        None,
        Vec::new(),
        drop_faults(),
    );
    let configured_unarmed = run(
        seed,
        ShardMode::Sequential,
        Some(RepairConfig::default()),
        None,
        Vec::new(),
        drop_faults(),
    );
    assert_eq!(plain.histories(), configured_unarmed.histories());
    assert_eq!(
        plain.per_shard_traffic(),
        configured_unarmed.per_shard_traffic()
    );
    assert_eq!(plain.results(), configured_unarmed.results());
    assert!(
        plain.per_shard()[0].repair.is_none(),
        "an unconfigured run reports no repair counters"
    );
    let unarmed = configured_unarmed.per_shard()[0]
        .repair
        .expect("configured run reports counters");
    assert_eq!(
        unarmed.rounds, 0,
        "an unarmed agent never runs a round (and thus never perturbs traffic)"
    );
}

/// The ground truth behind all of the above, on one cluster where the
/// replica state can be scanned directly: a drop window strands divergent
/// replicas; without repair they stay divergent however long the
/// simulation idles, and with repair every pair converges.
#[test]
fn divergence_persists_without_repair_and_heals_with_it() {
    let run_cell = |seed: u64, converge: bool| -> (u64, u64) {
        let sim = Sim::new(seed);
        let cluster = StoreBuilder::new(Protocol::SafeGuess)
            .value_size(VALUE_SIZE)
            .max_clients(3)
            .op_deadline_ns(2 * NANOS_PER_MILLI)
            .repair(RepairConfig::default())
            .build_cluster(&sim);
        let wl = workload();
        cluster.load_keys(N_KEYS, |k| wl.value_for(k, 0));
        cluster
            .fabric()
            .apply_fault_plan(&FaultPlan::new().drop_window(
                30 * NANOS_PER_MICRO,
                NodeId(0),
                300,
                400 * NANOS_PER_MICRO,
            ));
        let clients = vec![cluster.client(0), cluster.client(1)];
        let rc = RunConfig {
            warmup_ops: 0,
            measure_ops: 400,
            ..Default::default()
        };
        run_workload(&sim, &clients, &wl, &rc);
        let c = cluster.swarm().expect("SWARM-KV").clone();
        let before = divergent_stamp_pairs(&c);
        if converge {
            let agent = cluster.repair().expect("repair configured").clone();
            let (_, converged) = sim.block_on(async move { agent.converge().await });
            assert!(converged, "seed {seed}: repair must converge");
        } else {
            // Idle the simulation well past every deadline: nothing in the
            // foreground protocol heals a key no one writes again.
            let s2 = sim.clone();
            sim.block_on(async move { s2.sleep_ns(10 * NANOS_PER_MILLI).await });
        }
        (before, divergent_stamp_pairs(&c))
    };

    let mut stranded_anywhere = false;
    for seed in chaos_seeds().into_iter().take(2) {
        let (before_off, after_off) = run_cell(seed, false);
        assert_eq!(
            before_off, after_off,
            "seed {seed}: without repair, divergence never heals on its own"
        );
        let (before_on, after_on) = run_cell(seed, true);
        assert_eq!(
            before_on, before_off,
            "seed {seed}: both cells run the identical foreground phase"
        );
        assert_eq!(after_on, 0, "seed {seed}: repair heals every pair");
        stranded_anywhere |= before_off > 0;
    }
    assert!(
        stranded_anywhere,
        "the drop window must strand at least one stale replica across the sweep"
    );
}

//! Chaos and bit-parity for *background anti-entropy repair*: a planned
//! sharded run with repair armed must stay per-key linearizable under
//! fault windows, its repair counters (rounds, deltas, bytes) must replay
//! bit-identically whether the shards run one after another, on OS threads,
//! or on one shared simulation (`swarm_tests::across_modes`) — and the
//! repair must actually matter: with it off, a drop window leaves replicas
//! divergent forever; with it on, every replica pair converges.

use swarm_fabric::{FaultPlan, NodeId};
use swarm_kv::{
    divergent_stamp_pairs, run_workload, Protocol, RepairConfig, RepairStrategy, ReshardEvent,
    RunConfig, ShardMode, StoreBuilder,
};
use swarm_sim::{Sim, NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_tests::{across_modes, planned, seeds, PlannedCase, OP_DEADLINE_NS, VALUE_SIZE};
use swarm_workload::{Workload, WorkloadSpec};

const SHARDS: usize = 2;
const ROUTERS: usize = 2;
const N_KEYS: u64 = 96;

/// 4 seeds per scenario unless widened.
fn sweep_seeds() -> Vec<u64> {
    seeds(0x2E5A_4D00, 6007, 4)
}

/// A 300-permille drop window on one replica node: enough loss to strand
/// stale max registers behind completed quorum writes.
fn drop_window() -> FaultPlan {
    let us = NANOS_PER_MICRO;
    FaultPlan::new().drop_window(30 * us, NodeId(0), 300, 400 * us)
}

/// The drop window on shard 1, under a store configured with `repair`; no
/// agent armed yet. The repair agent (and an elastic family's migration
/// driver) writes with the reserved top client id, so the store mints one
/// more client than the run has routers.
fn case(repair: Option<RepairConfig>) -> PlannedCase {
    let cfg = RunConfig {
        warmup_ops: 40,
        measure_ops: 260,
        ..Default::default()
    };
    PlannedCase {
        max_clients: ROUTERS + 1,
        repair,
        faults: vec![(1, drop_window())],
        ..PlannedCase::new(SHARDS, ROUTERS, N_KEYS, cfg)
    }
}

/// [`case`] with every shard's agent armed for 3 ms.
fn armed(repair: RepairConfig) -> PlannedCase {
    PlannedCase {
        repair_until_ns: Some(3 * NANOS_PER_MILLI),
        ..case(Some(repair))
    }
}

/// Repair armed under a drop window: bit-identical across every mode,
/// linearizable, and the agent does real work on the lossy shard.
#[test]
fn repair_under_drops_is_bit_identical_across_modes() {
    let case = armed(RepairConfig::default());
    let mut deltas_across_seeds = 0u64;
    for seed in sweep_seeds() {
        let run = across_modes(seed, &case, "repair under drops");
        for (s, o) in run.per_shard().iter().enumerate() {
            let stats = o.repair.expect("repair configured on every shard");
            assert!(
                stats.rounds > 0,
                "seed {seed}: shard {s} must run repair rounds"
            );
        }
        deltas_across_seeds += run.shard(1).repair.expect("configured").deltas_applied;
    }
    assert!(
        deltas_across_seeds > 0,
        "across the seed sweep the lossy shard must need at least one delta"
    );
}

/// Every strategy replays bit-identically (one seed; the seed axis is
/// covered above, here the strategy axis gets the same witness).
#[test]
fn every_strategy_is_bit_identical_across_modes() {
    for strategy in RepairStrategy::all() {
        let case = armed(RepairConfig::with_strategy(strategy));
        across_modes(sweep_seeds()[0], &case, strategy.name());
    }
}

/// Repair and an elastic split in the same run: window keys defer to the
/// migration, the split seals, and the whole composition — migration
/// counters and repair counters — replays bit-identically.
#[test]
fn repair_composes_with_resharding_bit_identically() {
    let case = PlannedCase {
        reshards: vec![ReshardEvent::split(1, 40 * NANOS_PER_MICRO, 500).pace_ns(500)],
        ..armed(RepairConfig::default())
    };
    for seed in sweep_seeds().into_iter().take(2) {
        let run = across_modes(seed, &case, "repair + split");
        let stats = run.shard(1).reshard.expect("shard 1 ran a migration");
        assert_eq!(stats.sealed, 1, "seed {seed}: the split must seal");
        let repair = run
            .shard(1)
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
    let seed = sweep_seeds()[0];
    let plain = planned(seed, ShardMode::Threads(1), &case(None));
    let unarmed = planned(
        seed,
        ShardMode::Threads(1),
        &case(Some(RepairConfig::default())),
    );
    for (p, u) in plain.per_shard().iter().zip(unarmed.per_shard()) {
        assert!(
            p.repair.is_none(),
            "an unconfigured run reports no repair counters"
        );
        assert_eq!(
            u.repair.expect("configured run reports counters").rounds,
            0,
            "an unarmed agent never runs a round (and thus never perturbs traffic)"
        );
        // Everything else a shard reports is the same.
        assert_eq!(
            (&p.stats, &p.traffic, &p.history, &p.results, &p.reshard),
            (&u.stats, &u.traffic, &u.history, &u.results, &u.reshard)
        );
    }
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
            .op_deadline_ns(OP_DEADLINE_NS)
            .repair(RepairConfig::default())
            .build_cluster(&sim);
        let wl = Workload::ycsb(WorkloadSpec::A, N_KEYS, VALUE_SIZE);
        cluster.load_keys(N_KEYS, |k| wl.value_for(k, 0));
        cluster.fabric().apply_fault_plan(&drop_window());
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
    for seed in sweep_seeds().into_iter().take(2) {
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

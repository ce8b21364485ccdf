//! Deterministic chaos suite: seeded fault plans × all four protocols,
//! every surviving history checked against the multi-key linearizability
//! spec (conf_sosp_MuratBXZAG24 Appendix C; §7.7 failure handling).
//!
//! Every run is pinned by a `(protocol, fault plan, seed)` triple; a failure
//! prints it, and `run_chaos` with the same triple reproduces the execution
//! bit for bit (see `TESTING.md`). The sweeps take their seed lists from
//! `swarm_tests::seeds`, which is also how they are widened.

use std::cell::Cell;
use std::rc::Rc;

use swarm_core::KvHistory;
use swarm_fabric::{FaultPlan, NodeId, TrafficStats};
use swarm_kv::{
    run_workload, HedgeConfig, HistoryRecorder, Protocol, RunConfig, StoreBuilder, StoreCluster,
};
use swarm_sim::{Sim, NANOS_PER_MILLI};
use swarm_tests::{
    assert_linearizable, cell, chaos_hedge, seeds, tagged, MixedWorker, PlanKind, INITIAL_TAG_BASE,
    OP_DEADLINE_NS, VALUE_SIZE,
};
use swarm_workload::{ScenarioMix, Workload, Zipfian};

const KEYS: u64 = 12;
const CLIENTS: usize = 3;
const OPS_PER_CLIENT: u64 = 24;
/// Seeds of the unhedged sweeps: 2 per (protocol, plan) cell unless widened.
const SEED_BASE: u64 = 0xC4A0_5000;
/// Seeds of the hedged sweep: 4 per cell unless widened.
const HEDGED_SEED_BASE: u64 = 0xC4A0_6000;
const SEED_STRIDE: u64 = 7919;

fn build(proto: Protocol, sim: &Sim, hedge: Option<HedgeConfig>) -> StoreCluster {
    let mut b = StoreBuilder::new(proto)
        .value_size(VALUE_SIZE)
        .max_clients(CLIENTS)
        .op_deadline_ns(OP_DEADLINE_NS);
    if let Some(cfg) = hedge {
        b = b.hedge(cfg);
    }
    let cluster = b.build_cluster(sim);
    cluster.load_keys(KEYS, |k| tagged(INITIAL_TAG_BASE + k));
    cluster
}

type ChaosRun = (KvHistory, TrafficStats, FaultPlan);

/// One chaos run: `CLIENTS` workers fire a mixed Get/Update/Insert/Delete
/// stream at a small keyspace while the fault plan plays out; returns the
/// recorded history, the fabric traffic counters and the concrete plan.
/// `hedge: None` never touches the hedge knob (the pre-hedging build path).
fn run_chaos(proto: Protocol, kind: PlanKind, seed: u64, hedge: Option<HedgeConfig>) -> ChaosRun {
    run_plan(proto, seed, hedge, |nodes| kind.plan(seed, nodes))
}

/// [`run_chaos`] under the plan `plan` builds for the cluster's node count.
fn run_plan(
    proto: Protocol,
    seed: u64,
    hedge: Option<HedgeConfig>,
    plan: impl FnOnce(usize) -> FaultPlan,
) -> ChaosRun {
    let sim = Sim::new(seed);
    let cluster = build(proto, &sim, hedge);
    let rec = HistoryRecorder::new(&sim);
    for k in 0..KEYS {
        rec.set_initial(k, &tagged(INITIAL_TAG_BASE + k));
    }
    if let Some(m) = cluster.membership() {
        m.watch_until(5 * NANOS_PER_MILLI);
    }
    let plan = plan(cluster.fabric().num_nodes());
    cluster.fabric().apply_fault_plan(&plan);

    // One tag counter across all clients, so the checker can tell every
    // write apart.
    let tag = Rc::new(Cell::new(0u64));
    for cid in 0..CLIENTS {
        let worker = MixedWorker {
            rng: sim.rng().clone(),
            keys: (0..KEYS).collect(),
            ops: OPS_PER_CLIENT,
            tag: Rc::clone(&tag),
            full_mix: matches!(proto, Protocol::SafeGuess | Protocol::Abd),
        };
        worker.spawn(&sim, rec.wrap(cluster.client(cid)));
    }
    sim.run();
    (rec.take_history(), cluster.fabric().stats(), plan)
}

/// Every protocol × every fault plan × `seeds`, run on the bench sweep
/// driver's worker threads (cells are independent seeded simulations) and
/// checked in deterministic cell order: no op lost from the history, and
/// the history linearizes.
fn sweep(seeds: &[u64], hedge: Option<HedgeConfig>) -> Vec<((Protocol, PlanKind, u64), ChaosRun)> {
    let mut cells = Vec::new();
    for proto in Protocol::all() {
        for kind in PlanKind::all() {
            cells.extend(seeds.iter().map(|&seed| (proto, kind, seed)));
        }
    }
    let runs = swarm_bench::sweep(&cells, |&(p, k, s)| run_chaos(p, k, s, hedge));
    for (&(proto, kind, seed), (h, _, plan)) in cells.iter().zip(&runs) {
        let what = format!("{}\nfault plan:\n{plan}", cell(proto.name(), kind, seed));
        assert_eq!(
            h.len() as u64,
            CLIENTS as u64 * OPS_PER_CLIENT,
            "ops lost from the history: {what}"
        );
        assert_linearizable([h], &what);
    }
    cells.into_iter().zip(runs).collect()
}

/// The headline sweep: seeds × fault plans × all four protocols; every
/// surviving history must linearize.
#[test]
fn all_protocols_stay_linearizable_under_every_fault_plan() {
    let runs = sweep(&seeds(SEED_BASE, SEED_STRIDE, 2), None);
    for ((proto, kind, seed), (_, stats, _)) in &runs {
        let what = cell(proto.name(), kind, *seed);
        assert!(stats.messages > 0, "no traffic: {what}");
    }
    // 4 protocols x 5 plans x >=2 seeds.
    assert!(runs.len() >= 40, "sweep shrank: {} cells", runs.len());
}

/// The threaded sweep must be invisible in the results: running the same
/// chaos cells on several worker threads yields bit-identical histories,
/// traffic counters, and fault plans, cell for cell, as the one-thread run.
#[test]
fn threaded_chaos_sweep_matches_sequential_cell_for_cell() {
    let cells: Vec<_> = Protocol::all()
        .into_iter()
        .flat_map(|p| [(p, PlanKind::Random, 5u64), (p, PlanKind::JitterAndDrop, 6)])
        .collect();
    let run = |&(proto, kind, seed): &(Protocol, PlanKind, u64)| run_chaos(proto, kind, seed, None);
    let sequential = swarm_bench::sweep_on(1, &cells, run);
    let threaded = swarm_bench::sweep_on(4, &cells, run);
    for (((proto, kind, seed), s), t) in cells.iter().zip(&sequential).zip(&threaded) {
        assert_eq!(
            s,
            t,
            "threaded sweep diverged: {}",
            cell(proto.name(), kind, *seed)
        );
    }
}

/// Determinism guard for the whole harness: the same `(workload seed, fault
/// plan)` pair must reproduce the history and the global traffic counters
/// bit for bit, and a different seed must actually change the execution.
#[test]
fn same_seed_reproduces_bit_identical_histories_and_traffic() {
    for proto in Protocol::all() {
        let run = |seed| run_chaos(proto, PlanKind::Random, seed, None);
        let first = run(7);
        assert_eq!(first, run(7), "{}: rerun diverged", proto.name());
        assert_ne!(
            first.0,
            run(8).0,
            "{}: seed is not feeding the run",
            proto.name()
        );
    }
}

/// The hedged sweep: all four protocols with hedging armed aggressively
/// (`min_samples = 2`) under every fault plan × 4 seeds unless widened (CI
/// runs 1 000: `./ci.sh`'s chaos-release stage). Every surviving
/// history must still linearize — which also proves duplicate delivery
/// never double-applies, since a double-applied update or a resurrected
/// delete would surface as a read observing an impossible value — and the
/// hedge budget must balance exactly: `fired == won + discarded`, even
/// when op deadlines cancel hedged ops mid-flight (the `HedgeTicket`
/// drop-settles).
#[test]
fn hedged_runs_stay_linearizable_under_every_fault_plan() {
    let runs = sweep(
        &seeds(HEDGED_SEED_BASE, SEED_STRIDE, 4),
        Some(chaos_hedge()),
    );
    let mut fired_total = 0u64;
    for ((proto, kind, seed), (_, stats, _)) in &runs {
        assert_eq!(
            stats.hedges_fired,
            stats.hedges_won + stats.duplicates_discarded,
            "hedge budget leaked (fired != won + discarded): {}",
            cell(proto.name(), kind, *seed)
        );
        fired_total += stats.hedges_fired;
    }
    // 4 protocols x 5 plans x 4 seeds, and the sweep must actually hedge.
    assert!(runs.len() >= 80, "sweep shrank: {} cells", runs.len());
    assert!(
        fired_total > 0,
        "no hedge ever fired across the hedged sweep"
    );
}

/// The cells of the 1 000-seed hedged sweep that once failed, one per
/// defect they exposed; each must linearize and balance the hedge budget.
/// (a) a background write parked past its widen deadline kept its hedge
/// ticket; (b) two inserts over one tombstoned generation each installed
/// their own, orphaning the first; (c) a tombstone seen at a minority drove
/// an unmap while other clients' quorums still saw the generation live.
/// The four `Random` cells are spelled out as the plans the generator drew
/// for them when they failed, so they keep their schedules whatever
/// `FaultPlan::random` draws today.
#[test]
fn hedged_cells_of_the_three_defects_stay_fixed() {
    let mn = NodeId;
    for (proto, seed, plan) in [
        // (a), Random
        (
            Protocol::SafeGuess,
            3298947619,
            FaultPlan::new()
                .partition_between(189_474, 286_274, mn(2))
                .crash_at(233_567, mn(1))
                .restart_at(267_161, mn(1))
                .crash_at(247_676, mn(1))
                .restart_at(368_612, mn(1))
                .delay_spike(239_350, mn(1), 10_999, 60_842),
        ),
        // (b), Random
        (
            Protocol::SafeGuess,
            3300325525,
            FaultPlan::new()
                .crash_at(76_906, mn(2))
                .restart_at(113_351, mn(2))
                .partition_between(86_866, 183_169, mn(3))
                .partition_between(236_389, 289_432, mn(1))
                .crash_at(96_991, mn(0))
                .restart_at(209_005, mn(0)),
        ),
        // (c), Random
        (
            Protocol::Abd,
            3303944508,
            FaultPlan::new()
                .partition_between(149_139, 255_399, mn(3))
                .crash_at(92_509, mn(1))
                .restart_at(185_166, mn(1))
                .crash_at(154_577, mn(0))
                .restart_at(244_589, mn(0))
                .partition_between(67_186, 123_725, mn(3)),
        ),
        // (c), Random
        (
            Protocol::Abd,
            3303999941,
            FaultPlan::new()
                .delay_spike(71_775, mn(2), 21_194, 114_752)
                .drop_window(161_536, mn(2), 592, 98_029)
                .delay_spike(165_863, mn(3), 15_208, 80_846)
                .partition_between(98_378, 185_864, mn(0)),
        ),
        // (c)
        (
            Protocol::Abd,
            3304166240,
            PlanKind::JitterAndDrop.plan(3304166240, 4),
        ),
    ] {
        let (h, stats, plan) = run_plan(proto, seed, Some(chaos_hedge()), |nodes| {
            assert_eq!(nodes, 4, "the cells' plans name four memory nodes");
            plan
        });
        let what = format!("{} / seed {seed}\nfault plan:\n{plan}", proto.name());
        assert_linearizable([&h], &what);
        assert_eq!(
            stats.hedges_fired,
            stats.hedges_won + stats.duplicates_discarded,
            "hedge budget leaked (fired != won + discarded): {what}"
        );
    }
}

/// Bit-parity of the off switch and reproducibility of the on switch:
/// building with `HedgeConfig::disabled()` is byte-identical (history,
/// traffic counters, fault plan) to never touching the hedge knob at all,
/// and hedged runs reproduce bit-for-bit under the same seed.
#[test]
fn disabled_hedging_is_bit_identical_and_hedged_runs_reproduce() {
    for proto in Protocol::all() {
        for kind in [PlanKind::JitterAndDrop, PlanKind::Random] {
            let run = |hedge| run_chaos(proto, kind, 11, hedge);
            let what = cell(proto.name(), kind, 11);
            assert_eq!(
                run(None),
                run(Some(HedgeConfig::disabled())),
                "HedgeConfig::disabled() perturbed the run: {what}"
            );
            assert_eq!(
                run(Some(chaos_hedge())),
                run(Some(chaos_hedge())),
                "hedged run diverged across reruns: {what}"
            );
        }
    }
}

/// A minority crash must not cost the replicated protocols a single
/// operation: every op completes unambiguously (availability, §7.7).
#[test]
fn replicated_protocols_lose_nothing_to_a_minority_crash() {
    for proto in [Protocol::SafeGuess, Protocol::Abd] {
        for seed in seeds(SEED_BASE, SEED_STRIDE, 2) {
            let (h, _, _) = run_chaos(proto, PlanKind::CrashOne, seed, None);
            assert_eq!(
                h.definite_ops(),
                h.len(),
                "ops timed out despite a live quorum: {}",
                cell(proto.name(), PlanKind::CrashOne, seed)
            );
        }
    }
}

/// The runner hook: any YCSB workload emits a checkable history when its
/// stores ride through a `HistoryRecorder`, here with a crash+restart plan
/// underneath the measured run.
#[test]
fn runner_workloads_emit_checkable_histories_under_chaos() {
    let n_keys = 512u64;
    let sim = Sim::new(0xBEEF);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(VALUE_SIZE)
        .op_deadline_ns(OP_DEADLINE_NS)
        .build_cluster(&sim);
    let rec = HistoryRecorder::new(&sim);
    cluster.load_keys(n_keys, |k| {
        let v = tagged(INITIAL_TAG_BASE + k);
        rec.set_initial(k, &v);
        v
    });
    cluster
        .membership()
        .unwrap()
        .watch_until(20 * NANOS_PER_MILLI);
    cluster
        .fabric()
        .apply_fault_plan(&PlanKind::CrashRestart.plan(1, cluster.fabric().num_nodes()));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|cid| rec.wrap(cluster.client(cid)))
        .collect();
    let workload = Workload {
        spec: ScenarioMix::A,
        keys: Zipfian::new(n_keys, 0.2, true),
        value_size: VALUE_SIZE,
    };
    let stats = run_workload(
        &sim,
        &clients,
        &workload,
        &RunConfig {
            warmup_ops: 0,
            measure_ops: 1_200,
            ..Default::default()
        },
    );
    assert_eq!(stats.measured_ops, 1_200);
    let h = rec.take_history();
    assert!(h.len() >= 1_200, "runner ops missing from the history");
    assert_linearizable([&h], "YCSB-A over SWARM-KV / CrashRestart / seed 0xBEEF");
}

/// The checker is not a rubber stamp: corrupting a recorded history (a read
/// that observed a value nobody wrote) must fail the check.
#[test]
fn checker_rejects_a_corrupted_chaos_history() {
    let (h, _, _) = run_chaos(Protocol::SafeGuess, PlanKind::CrashRestart, 3, None);
    h.check().expect("the genuine history linearizes");
    let mut bad = h.clone();
    let end = bad.ops().iter().filter_map(|o| o.ret).max().unwrap();
    bad.push(0, end + 1, end + 2, swarm_core::KvOpKind::Get(Some(0xDEAD)));
    assert!(
        bad.check().is_err(),
        "a phantom read of an unwritten value must be rejected"
    );
}

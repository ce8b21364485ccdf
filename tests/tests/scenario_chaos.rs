//! Scenario-engine chaos suite: scan-heavy scenario streams driven through
//! the history recorder while seeded fault plans play out, every surviving
//! history checked for linearizability — including two op shapes the base
//! chaos suite never exercises:
//!
//! * **scans** (YCSB E): each returned `(key, value)` pair is recorded as
//!   an overlapping read observation, so a scan that stitches together a
//!   torn view would fail the checker;
//! * **fresh keys**: the scenario's keyspace is wider than what is loaded,
//!   so some inserts create keys that later gets and scans observe.
//!
//! Cells are pinned `(protocol, fault plan, seed)` triples (the base
//! suite's reproducibility convention, see `TESTING.md`); replaying one is
//! a matter of calling `run_cell` with the printed triple. The sweep runs
//! on the tombstone-backed protocols (SWARM and DM-ABD), matching the base
//! suite's insert/delete gating; the fault-free scan-equivalence property
//! in `scenario_props.rs` covers all four protocols.

use swarm_core::{KvHistory, KvOpKind};
use swarm_fabric::FaultPlan;
use swarm_kv::{run_scenario, HistoryRecorder, Protocol, ScenarioRunConfig, StoreBuilder};
use swarm_sim::{Sim, NANOS_PER_MILLI};
use swarm_tests::{
    assert_linearizable, cell, seeds, tagged, PlanKind, INITIAL_TAG_BASE, OP_DEADLINE_NS,
};
use swarm_workload::{Phase, ScenarioMix, ScenarioOpClass, ScenarioSpec};

/// Keys bulk-loaded before the run.
const KEYS: u64 = 16;
/// The scenario's keyspace: the top 8 keys start absent, and only the
/// run's inserts create them.
const SPACE: u64 = KEYS + 8;
/// Logical value bytes (what `tagged` builds). Scenario write tags are
/// `key * GOLDEN + stream_index`, disjoint from the bulk-load tags.
const CAP: usize = swarm_tests::VALUE_SIZE;
const CLIENTS: usize = 2;

/// The scenario under test: a scan-heavy YCSB-E phase, then an
/// insert-bearing YCSB-D phase with the hot set rotated.
fn spec() -> ScenarioSpec {
    ScenarioSpec::new("scan_chaos", SPACE)
        .phase(Phase::new(60, ScenarioMix::E).theta(0.9))
        .phase(Phase::new(60, ScenarioMix::D).rotate(SPACE / 2))
        .scan_max_len(8)
}

struct CellOutcome {
    history: KvHistory,
    plan: FaultPlan,
    scans: u64,
    scanned_items: u64,
    /// Inserts that returned, of keys the load left absent.
    fresh_inserts: u64,
}

fn run_cell(proto: Protocol, kind: PlanKind, seed: u64) -> CellOutcome {
    let sim = Sim::new(seed);
    let cluster = StoreBuilder::new(proto)
        .value_size(CAP)
        .max_clients(CLIENTS)
        .op_deadline_ns(OP_DEADLINE_NS)
        .build_cluster(&sim);
    cluster.load_keys(KEYS, |k| tagged(INITIAL_TAG_BASE + k));
    if let Some(m) = cluster.membership() {
        m.watch_until(5 * NANOS_PER_MILLI);
    }
    let plan = kind.plan(seed, cluster.fabric().num_nodes());
    cluster.fabric().apply_fault_plan(&plan);

    let rec = HistoryRecorder::new(&sim);
    for k in 0..KEYS {
        rec.set_initial(k, &tagged(INITIAL_TAG_BASE + k));
    }
    let stores: Vec<_> = (0..CLIENTS).map(|i| rec.wrap(cluster.client(i))).collect();

    let spec = spec();
    let cfg = ScenarioRunConfig {
        seed,
        value_cap: CAP,
    };
    let stats = run_scenario(&sim, &stores, &spec, &cfg);

    let history = rec.take_history();
    let fresh_inserts = history
        .ops()
        .iter()
        .filter(|o| o.key >= KEYS && o.ret.is_some() && matches!(o.kind, KvOpKind::Insert(_)))
        .count() as u64;
    CellOutcome {
        history,
        plan,
        scans: stats.lat(ScenarioOpClass::Scan).len() as u64,
        scanned_items: stats.scanned_items,
        fresh_inserts,
    }
}

/// The headline sweep: {SWARM, DM-ABD} × {crash-restart, jitter+drop} × 4
/// seeds (unless widened); every history with scans and fresh-key inserts
/// interleaved into the fault window must linearize.
#[test]
fn scan_scenarios_stay_linearizable_under_faults() {
    let mut cells = Vec::new();
    for proto in [Protocol::SafeGuess, Protocol::Abd] {
        for kind in [PlanKind::CrashRestart, PlanKind::JitterAndDrop] {
            for seed in seeds(0x5CE4_A000, 7919, 4) {
                cells.push((proto, kind, seed));
            }
        }
    }
    let results = swarm_bench::sweep(&cells, |&(p, k, s)| run_cell(p, k, s));

    let mut total_scanned = 0;
    let mut total_fresh = 0;
    for ((proto, kind, seed), r) in cells.iter().zip(results) {
        let what = format!(
            "{} ({} fresh-key inserts)\nfault plan:\n{}",
            cell(proto.name(), kind, *seed),
            r.fresh_inserts,
            r.plan
        );
        assert!(r.scans > 0, "the YCSB-E phase ran no scans: {what}");
        total_scanned += r.scanned_items;
        total_fresh += r.fresh_inserts;
        assert_linearizable([&r.history], &what);
    }
    assert!(cells.len() >= 16, "sweep shrank: {} cells", cells.len());
    assert!(total_scanned > 0, "no scan returned a single item");
    assert!(
        total_fresh > 0,
        "no insert created a key the load left absent — fresh keys went untested"
    );
}

/// Replay guard (the `TESTING.md` convention): the same `(protocol, plan,
/// seed)` triple reproduces the recorded history — including every scan
/// observation — bit for bit.
#[test]
fn scenario_chaos_cells_replay_bit_identically() {
    let a = run_cell(Protocol::SafeGuess, PlanKind::JitterAndDrop, 0x5CE4_A001);
    let b = run_cell(Protocol::SafeGuess, PlanKind::JitterAndDrop, 0x5CE4_A001);
    assert_eq!(a.plan, b.plan, "fault plan diverged across reruns");
    assert_eq!(a.history, b.history, "history diverged across reruns");
    assert_eq!(
        (a.scans, a.scanned_items, a.fresh_inserts),
        (b.scans, b.scanned_items, b.fresh_inserts),
        "counters diverged across reruns"
    );
    let c = run_cell(Protocol::SafeGuess, PlanKind::JitterAndDrop, 0x5CE4_A002);
    assert_ne!(a.history, c.history, "seed is not feeding the run");
}

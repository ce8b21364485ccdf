//! Scenario-engine chaos suite: scan-heavy and TTL-churn scenario streams
//! driven through the history recorder while seeded fault plans play out,
//! every surviving history checked for linearizability — including the two
//! op shapes the base chaos suite never exercises:
//!
//! * **scans** (YCSB E): each returned `(key, value)` pair is recorded as
//!   an overlapping read observation, so a scan that stitches together a
//!   torn cross-shard view would fail the checker;
//! * **TTL expiry**: leases granted mid-run expire mid-run, and each
//!   expiry is replayed into the history as an ambiguous delete at the
//!   expiry instant (`KvHistory::expire`) — the checker then proves that a
//!   pre-expiry `Some` and a post-expiry `None` of the same key are both
//!   legal observations of one flexible event.
//!
//! Cells are pinned `(protocol, fault plan, seed)` triples (the base
//! suite's reproducibility convention, see `TESTING.md`); replaying one is
//! a matter of calling `run_cell` with the printed triple. The sweep runs
//! on the tombstone-backed protocols (SWARM and DM-ABD), matching the base
//! suite's insert/delete gating; the fault-free scan-equivalence property
//! in `scenario_props.rs` covers all four protocols.

use std::rc::Rc;

use swarm_core::KvHistory;
use swarm_fabric::FaultPlan;
use swarm_kv::{
    run_scenario, ttl_stamp_never, HistoryRecorder, Protocol, ScenarioRunConfig, StoreBuilder,
};
use swarm_sim::{Sim, NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_tests::{
    assert_linearizable, cell, seeds, tagged, PlanKind, INITIAL_TAG_BASE, OP_DEADLINE_NS,
};
use swarm_workload::{Phase, ScenarioMix, ScenarioOpClass, ScenarioSpec, TtlSpec};

const KEYS: u64 = 16;
/// Logical value bytes (what `tagged` builds); register slots are
/// provisioned at `CAP + 8` for the TTL expiry stamp. Scenario write tags
/// are `key * GOLDEN + stream_index`, disjoint from the bulk-load tags.
const CAP: usize = swarm_tests::VALUE_SIZE;
const CLIENTS: usize = 2;

/// The scan+TTL scenario under test: a scan-heavy YCSB-E phase, then an
/// insert-bearing YCSB-D phase with the hot set rotated, every insert
/// carrying a 150 µs lease over a dedicated 8-key expiring range.
fn spec() -> ScenarioSpec {
    ScenarioSpec::new("scan_ttl_chaos", KEYS)
        .phase(Phase::new(60, ScenarioMix::E).theta(0.9))
        .phase(Phase::new(60, ScenarioMix::D).rotate(KEYS / 2))
        .scan_max_len(8)
        .ttl(TtlSpec {
            insert_pct: 100,
            ttl_ns: 150 * NANOS_PER_MICRO,
            ttl_keys: 8,
        })
}

struct CellOutcome {
    history: KvHistory,
    plan: FaultPlan,
    scans: u64,
    scanned_items: u64,
    leases_granted: u64,
    leases_expired: u64,
}

fn run_cell(proto: Protocol, kind: PlanKind, seed: u64) -> CellOutcome {
    let sim = Sim::new(seed);
    let cluster = StoreBuilder::new(proto)
        .value_size(CAP + 8)
        .max_clients(CLIENTS + 1)
        .op_deadline_ns(OP_DEADLINE_NS)
        .build_cluster(&sim);
    cluster.load_keys(KEYS, |k| ttl_stamp_never(&tagged(INITIAL_TAG_BASE + k)));
    if let Some(m) = cluster.membership() {
        m.watch_until(5 * NANOS_PER_MILLI);
    }
    let plan = kind.plan(seed, cluster.fabric().num_nodes());
    cluster.fabric().apply_fault_plan(&plan);

    let rec = HistoryRecorder::new(&sim);
    for k in 0..KEYS {
        rec.set_initial(k, &tagged(INITIAL_TAG_BASE + k));
    }
    // Recorder OUTSIDE the TTL wrapper: it sees unstamped payloads, and
    // expired keys read as recorded absences.
    let ttls: Vec<_> = (0..CLIENTS)
        .map(|i| swarm_kv::TtlStore::new(&sim, cluster.client(i)))
        .collect();
    let stores: Vec<_> = ttls.iter().map(|t| rec.wrap(Rc::clone(t))).collect();

    let spec = spec();
    let cfg = ScenarioRunConfig {
        seed,
        value_cap: CAP,
    };
    let stats = run_scenario(&sim, &stores, &spec, &cfg);

    let mut leases_granted = 0;
    let mut leases_expired = 0;
    for t in &ttls {
        for (key, at) in t.take_expired() {
            rec.note_expiry(key, at);
            leases_expired += 1;
        }
    }
    leases_granted += stats.lat(ScenarioOpClass::Insert).len() as u64;
    CellOutcome {
        history: rec.take_history(),
        plan,
        scans: stats.lat(ScenarioOpClass::Scan).len() as u64,
        scanned_items: stats.scanned_items,
        leases_granted,
        leases_expired,
    }
}

/// The headline sweep: {SWARM, DM-ABD} × {crash-restart, jitter+drop} × 4
/// seeds (unless widened); every history with scans and TTL expiries
/// interleaved into the fault window must linearize.
#[test]
fn scan_and_ttl_scenarios_stay_linearizable_under_faults() {
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
    let mut total_expired = 0;
    for ((proto, kind, seed), r) in cells.iter().zip(results) {
        let what = format!(
            "{} ({} leases expired)\nfault plan:\n{}",
            cell(proto.name(), kind, *seed),
            r.leases_expired,
            r.plan
        );
        assert!(r.scans > 0, "the YCSB-E phase ran no scans: {what}");
        total_scanned += r.scanned_items;
        total_expired += r.leases_expired;
        assert!(
            r.leases_expired <= r.leases_granted,
            "more expiries than leases: {what}"
        );
        assert_linearizable([&r.history], &what);
    }
    assert!(cells.len() >= 16, "sweep shrank: {} cells", cells.len());
    assert!(total_scanned > 0, "no scan returned a single item");
    assert!(
        total_expired > 0,
        "no lease expired anywhere in the sweep — the TTL path went untested"
    );
}

/// Replay guard (the `TESTING.md` convention): the same `(protocol, plan,
/// seed)` triple reproduces the recorded history — including every scan
/// observation and expiry instant — bit for bit.
#[test]
fn scenario_chaos_cells_replay_bit_identically() {
    let a = run_cell(Protocol::SafeGuess, PlanKind::JitterAndDrop, 0x5CE4_A001);
    let b = run_cell(Protocol::SafeGuess, PlanKind::JitterAndDrop, 0x5CE4_A001);
    assert_eq!(a.plan, b.plan, "fault plan diverged across reruns");
    assert_eq!(a.history, b.history, "history diverged across reruns");
    assert_eq!(
        (a.scans, a.scanned_items, a.leases_granted, a.leases_expired),
        (b.scans, b.scanned_items, b.leases_granted, b.leases_expired),
        "counters diverged across reruns"
    );
    let c = run_cell(Protocol::SafeGuess, PlanKind::JitterAndDrop, 0x5CE4_A002);
    assert_ne!(a.history, c.history, "seed is not feeding the run");
}

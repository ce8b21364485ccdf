//! Deterministic chaos suite: seeded fault plans × all four protocols,
//! every surviving history checked against the multi-key linearizability
//! spec (conf_sosp_MuratBXZAG24 Appendix C; §7.7 failure handling).
//!
//! Every run is pinned by a `(workload seed, fault plan)` pair; a failure
//! message prints both, and re-running with the same pair reproduces the
//! execution bit for bit (see `TESTING.md`). `SWARM_CHAOS_SEEDS=N` widens
//! the sweep to `N` seeds per (protocol, plan) cell — CI uses the quick
//! default.

use std::cell::Cell;
use std::rc::Rc;

use swarm_core::KvHistory;
use swarm_fabric::{FaultPlan, NodeId, TrafficStats};
use swarm_kv::{
    run_workload, HedgeConfig, HistoryRecorder, KvStore, Protocol, RunConfig, StoreBuilder,
    StoreCluster,
};
use swarm_sim::{Sim, NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_workload::{Workload, WorkloadSpec, Zipfian};

const KEYS: u64 = 12;
const VALUE_SIZE: usize = 64;
const CLIENTS: usize = 3;
const OPS_PER_CLIENT: u64 = 24;
/// Tag space for bulk-loaded values, disjoint from the tags workers write.
const INITIAL_TAG_BASE: u64 = 1 << 32;

/// A 64 B value whose first 8 bytes carry the checker tag.
fn tagged(tag: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_SIZE];
    v[..8].copy_from_slice(&tag.to_le_bytes());
    v
}

/// Seeds per (protocol, plan) cell: 2 by default (the pinned CI quick set),
/// `SWARM_CHAOS_SEEDS=N` for deeper local sweeps. An unparsable value is
/// ignored with a one-time warning (the shared `swarm_bench::env_knob`
/// convention) — a silently shrunken sweep would report clean runs that
/// never executed.
fn chaos_seeds() -> Vec<u64> {
    let n = swarm_bench::env_knob("SWARM_CHAOS_SEEDS", "a positive integer like 400", |n| {
        *n > 0
    })
    .unwrap_or(2u64);
    (0..n).map(|i| 0xC4A0_5000 + i * 7919).collect()
}

/// The swept fault plans (the acceptance floor is 4; `Random` adds seeded
/// grab-bag schedules on top).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanKind {
    /// One node dies mid-run and never comes back.
    CrashOne,
    /// A node dies and restarts (memory intact) while traffic continues.
    CrashRestart,
    /// A switch partition cuts a node off — silence without lease expiry —
    /// then heals.
    Partition,
    /// A latency spike on one node plus a 40% message-drop window on
    /// another: the protocols' widen/retry machinery under stress.
    JitterAndDrop,
    /// A seeded pseudo-random mixture of all of the above.
    Random,
}

impl PlanKind {
    fn all() -> [PlanKind; 5] {
        [
            PlanKind::CrashOne,
            PlanKind::CrashRestart,
            PlanKind::Partition,
            PlanKind::JitterAndDrop,
            PlanKind::Random,
        ]
    }

    /// The concrete schedule for this kind under `seed`, over `nodes`
    /// memory nodes. Victim nodes are seed-rotated so sweeps hit different
    /// replica sets.
    fn plan(self, seed: u64, nodes: usize) -> FaultPlan {
        let us = NANOS_PER_MICRO;
        let a = NodeId(seed as usize % nodes);
        let b = NodeId((seed as usize + 1) % nodes);
        match self {
            PlanKind::CrashOne => FaultPlan::new().crash_at(80 * us, a),
            PlanKind::CrashRestart => FaultPlan::new()
                .crash_at(60 * us, a)
                .restart_at(260 * us, a),
            PlanKind::Partition => FaultPlan::new().partition_between(70 * us, 280 * us, a),
            PlanKind::JitterAndDrop => FaultPlan::new()
                .delay_spike(40 * us, a, 15 * us, 250 * us)
                .drop_window(60 * us, b, 400, 220 * us),
            PlanKind::Random => FaultPlan::random(seed, nodes, 500 * us),
        }
    }
}

/// The hedge config for chaos runs: `min_samples` drops to 2 so the
/// per-node RTT trackers form estimates — and hedges actually arm — within
/// a 72-op run; everything else stays at the production defaults.
fn chaos_hedge() -> HedgeConfig {
    HedgeConfig {
        min_samples: 2,
        ..HedgeConfig::on()
    }
}

fn build(proto: Protocol, sim: &Sim, hedge: Option<HedgeConfig>) -> StoreCluster {
    let mut b = StoreBuilder::new(proto)
        .value_size(VALUE_SIZE)
        .max_clients(CLIENTS + 1)
        // Chaos plans can make quorums unreachable (e.g. RAW's single
        // replica crashing); the deadline keeps every worker live and turns
        // the lost op into an *ambiguous* history entry.
        .op_deadline_ns(2 * NANOS_PER_MILLI);
    if let Some(cfg) = hedge {
        b = b.hedge(cfg);
    }
    let cluster = b.build_cluster(sim);
    cluster.load_keys(KEYS, |k| tagged(INITIAL_TAG_BASE + k));
    cluster
}

/// One chaos run: `CLIENTS` workers fire a mixed Get/Update/Insert/Delete
/// stream at a small keyspace while the fault plan plays out; returns the
/// recorded history and the fabric traffic counters.
fn run_chaos(proto: Protocol, kind: PlanKind, seed: u64) -> (KvHistory, TrafficStats, FaultPlan) {
    run_chaos_with(proto, kind, seed, None)
}

/// [`run_chaos`] with an explicit hedge configuration (`None` = the knob
/// is never touched, the pre-hedging build path).
fn run_chaos_with(
    proto: Protocol,
    kind: PlanKind,
    seed: u64,
    hedge: Option<HedgeConfig>,
) -> (KvHistory, TrafficStats, FaultPlan) {
    let sim = Sim::new(seed);
    let cluster = build(proto, &sim, hedge);
    let rec = HistoryRecorder::new(&sim);
    for k in 0..KEYS {
        rec.set_initial(k, &tagged(INITIAL_TAG_BASE + k));
    }
    if let Some(m) = cluster.membership() {
        m.watch_until(5 * NANOS_PER_MILLI);
    }
    let plan = kind.plan(seed, cluster.fabric().num_nodes());
    cluster.fabric().apply_fault_plan(&plan);

    // Deletes and re-inserts are only coherent on the tombstone-backed
    // protocols: SWARM and DM-ABD propagate deletion through the replicas
    // themselves (§5.3.2), so a stale location cache still observes it. RAW
    // and (our model of) FUSEE have no tombstones — a deleted key's old
    // bytes stay live under other clients' cached locations — matching the
    // paper, which evaluates those baselines on preloaded keyspaces only.
    let full_mix = matches!(proto, Protocol::SafeGuess | Protocol::Abd);

    // Unique write tags across all clients (so the checker can tell every
    // write apart).
    let tag = Rc::new(Cell::new(0u64));
    for cid in 0..CLIENTS {
        let store = rec.wrap(cluster.client(cid));
        let sim2 = sim.clone();
        let tag = Rc::clone(&tag);
        sim.spawn(async move {
            for _ in 0..OPS_PER_CLIENT {
                sim2.sleep_ns(sim2.rand_range(1, 40 * NANOS_PER_MICRO))
                    .await;
                let key = sim2.rand_range(0, KEYS);
                let t = tag.get() + 1;
                tag.set(t);
                // Results are intentionally not unwrapped: under faults,
                // errors (and their absence observations) are part of the
                // history being checked.
                match sim2.rand_range(0, 100) {
                    0..=49 => {
                        let _ = store.get(key).await;
                    }
                    50..=79 => {
                        let _ = store.update(key, tagged(t)).await;
                    }
                    80..=91 if full_mix => {
                        let _ = store.insert(key, tagged(t)).await;
                    }
                    _ if full_mix => {
                        let _ = store.delete(key).await;
                    }
                    _ => {
                        let _ = store.get(key).await;
                    }
                }
            }
        });
    }
    sim.run();
    (rec.take_history(), cluster.fabric().stats(), plan)
}

/// The headline sweep: seeds × fault plans × all four protocols; every
/// surviving history must linearize. Cells are independent seeded
/// simulations, so they run on `SWARM_BENCH_THREADS` worker threads through
/// the bench sweep driver and are asserted in deterministic cell order.
#[test]
fn all_protocols_stay_linearizable_under_every_fault_plan() {
    let mut cells = Vec::new();
    for proto in Protocol::all() {
        for kind in PlanKind::all() {
            for seed in chaos_seeds() {
                cells.push((proto, kind, seed));
            }
        }
    }
    let results = swarm_bench::sweep(&cells, |&(proto, kind, seed)| run_chaos(proto, kind, seed));
    for ((proto, kind, seed), (h, stats, plan)) in cells.iter().zip(results) {
        assert_eq!(
            h.len() as u64,
            CLIENTS as u64 * OPS_PER_CLIENT,
            "{} / {kind:?} / seed {seed}: ops lost from the history",
            proto.name()
        );
        assert!(
            stats.messages > 0,
            "{} / {kind:?} / seed {seed}: no traffic",
            proto.name()
        );
        if let Err(e) = h.check() {
            panic!(
                "{} is NOT linearizable under {kind:?}, seed {seed}: {e}\n\
                 ({} of {} ops completed unambiguously)\nfault plan:\n{}",
                proto.name(),
                h.definite_ops(),
                h.len(),
                plan,
            );
        }
    }
    // 4 protocols x 5 plans x >=2 seeds.
    assert!(cells.len() >= 40, "sweep shrank: {} cells", cells.len());
}

/// The threaded sweep must be invisible in the results: running the same
/// chaos cells on several worker threads yields bit-identical histories,
/// traffic counters, and fault plans, cell for cell, as the sequential run.
#[test]
fn threaded_chaos_sweep_matches_sequential_cell_for_cell() {
    let cells: Vec<_> = Protocol::all()
        .into_iter()
        .flat_map(|p| [(p, PlanKind::Random, 5u64), (p, PlanKind::JitterAndDrop, 6)])
        .collect();
    let run = |&(proto, kind, seed): &(Protocol, PlanKind, u64)| run_chaos(proto, kind, seed);
    let sequential = swarm_bench::sweep_on(1, &cells, run);
    let threaded = swarm_bench::sweep_on(4, &cells, run);
    for (((proto, kind, seed), s), t) in cells.iter().zip(&sequential).zip(&threaded) {
        assert_eq!(
            s,
            t,
            "{} / {kind:?} / seed {seed}: threaded sweep diverged from sequential",
            proto.name()
        );
    }
}

/// Determinism guard for the whole harness: the same `(workload seed, fault
/// plan)` pair must reproduce the history and the global traffic counters
/// bit for bit, and a different seed must actually change the execution.
#[test]
fn same_seed_reproduces_bit_identical_histories_and_traffic() {
    for proto in Protocol::all() {
        let (h1, s1, p1) = run_chaos(proto, PlanKind::Random, 7);
        let (h2, s2, p2) = run_chaos(proto, PlanKind::Random, 7);
        assert_eq!(p1, p2, "{}: plan diverged across reruns", proto.name());
        assert_eq!(h1, h2, "{}: history diverged across reruns", proto.name());
        assert_eq!(s1, s2, "{}: traffic diverged across reruns", proto.name());
        let (h3, _, _) = run_chaos(proto, PlanKind::Random, 8);
        assert_ne!(h1, h3, "{}: seed is not feeding the run", proto.name());
    }
}

/// The hedged sweep: all four protocols with hedging armed aggressively
/// (`min_samples = 2`) under every fault plan × 4 seeds. Every surviving
/// history must still linearize — which also proves duplicate delivery
/// never double-applies, since a double-applied update or a resurrected
/// delete would surface as a read observing an impossible value — and the
/// hedge budget must balance exactly: `fired == won + discarded`, even
/// when op deadlines cancel hedged ops mid-flight (the `HedgeTicket`
/// drop-settles).
#[test]
fn hedged_runs_stay_linearizable_under_every_fault_plan() {
    let seeds: Vec<u64> = (0..4u64).map(|i| 0xC4A0_6000 + i * 7919).collect();
    let mut cells = Vec::new();
    for proto in Protocol::all() {
        for kind in PlanKind::all() {
            for &seed in &seeds {
                cells.push((proto, kind, seed));
            }
        }
    }
    let results = swarm_bench::sweep(&cells, |&(proto, kind, seed)| {
        run_chaos_with(proto, kind, seed, Some(chaos_hedge()))
    });
    let mut fired_total = 0u64;
    for ((proto, kind, seed), (h, stats, plan)) in cells.iter().zip(results) {
        assert_eq!(
            h.len() as u64,
            CLIENTS as u64 * OPS_PER_CLIENT,
            "{} / {kind:?} / seed {seed}: ops lost from the hedged history",
            proto.name()
        );
        assert_eq!(
            stats.hedges_fired,
            stats.hedges_won + stats.duplicates_discarded,
            "{} / {kind:?} / seed {seed}: hedge budget leaked \
             (fired != won + discarded)",
            proto.name()
        );
        fired_total += stats.hedges_fired;
        if let Err(e) = h.check() {
            panic!(
                "{} hedged is NOT linearizable under {kind:?}, seed {seed}: {e}\n\
                 ({} of {} ops completed unambiguously)\nfault plan:\n{}",
                proto.name(),
                h.definite_ops(),
                h.len(),
                plan,
            );
        }
    }
    // 4 protocols x 5 plans x 4 seeds, and the sweep must actually hedge.
    assert!(cells.len() >= 80, "sweep shrank: {} cells", cells.len());
    assert!(
        fired_total > 0,
        "no hedge ever fired across the hedged sweep"
    );
}

/// Bit-parity of the off switch and reproducibility of the on switch:
/// building with `HedgeConfig::disabled()` is byte-identical (history,
/// traffic counters, fault plan) to never touching the hedge knob at all,
/// and hedged runs reproduce bit-for-bit under the same seed.
#[test]
fn disabled_hedging_is_bit_identical_and_hedged_runs_reproduce() {
    for proto in Protocol::all() {
        for kind in [PlanKind::JitterAndDrop, PlanKind::Random] {
            let base = run_chaos_with(proto, kind, 11, None);
            let off = run_chaos_with(proto, kind, 11, Some(HedgeConfig::disabled()));
            assert_eq!(
                base,
                off,
                "{} / {kind:?}: HedgeConfig::disabled() perturbed the run",
                proto.name()
            );
            let on1 = run_chaos_with(proto, kind, 11, Some(chaos_hedge()));
            let on2 = run_chaos_with(proto, kind, 11, Some(chaos_hedge()));
            assert_eq!(
                on1,
                on2,
                "{} / {kind:?}: hedged run diverged across reruns",
                proto.name()
            );
        }
    }
}

/// A minority crash must not cost the replicated protocols a single
/// operation: every op completes unambiguously (availability, §7.7).
#[test]
fn replicated_protocols_lose_nothing_to_a_minority_crash() {
    for proto in [Protocol::SafeGuess, Protocol::Abd] {
        for seed in chaos_seeds() {
            let (h, _, _) = run_chaos(proto, PlanKind::CrashOne, seed);
            assert_eq!(
                h.definite_ops(),
                h.len(),
                "{} / seed {seed}: ops timed out despite a live quorum",
                proto.name()
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
        .op_deadline_ns(2 * NANOS_PER_MILLI)
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
    // A near-uniform key distribution keeps every per-key subhistory well
    // under the checker's 128-op bound.
    let workload = Workload {
        spec: WorkloadSpec::A,
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
    h.check()
        .expect("YCSB-A over SWARM-KV with crash+restart must linearize");
}

/// The checker is not a rubber stamp: corrupting a recorded history (a read
/// that observed a value nobody wrote) must fail the check.
#[test]
fn checker_rejects_a_corrupted_chaos_history() {
    let (h, _, _) = run_chaos(Protocol::SafeGuess, PlanKind::CrashRestart, 3);
    h.check().expect("the genuine history linearizes");
    let mut bad = h.clone();
    let end = bad.ops().iter().filter_map(|o| o.ret).max().unwrap();
    bad.push(0, end + 1, end + 2, swarm_core::KvOpKind::Get(Some(0xDEAD)));
    assert!(
        bad.check().is_err(),
        "a phantom read of an unwritten value must be rejected"
    );
}

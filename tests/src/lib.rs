//! The one chaos harness. The fault-injection suites under `tests/tests`
//! (`chaos`, `shard_chaos`, `scenario_chaos`, and the mode-parity suite
//! `shard_parallel`) are tables
//! over what lives here: the seed list, the fault-plan table, the mixed-op
//! worker, the planned sharded run, and the two assertions every cell ends
//! in — "every history linearizes" and, through `ShardedRun`'s `==`, "these
//! two runs are one run". A failure prints the cell's replay triple
//! ([`cell`]); `TESTING.md` (*Reproducing a failure*) is the recipe from
//! there. [`for_each_case`] is the seeded-case loop of the two property
//! suites.

use std::cell::Cell;
use std::fmt::Debug;
use std::rc::Rc;

use swarm_core::{KvHistory, KvHistoryOp};
use swarm_fabric::{FaultPlan, NodeId};
use swarm_kv::{
    plan_workload, run_sharded_plan, HedgeConfig, KvStore, Protocol, RunConfig, ShardMode,
    ShardRunOptions, ShardSpec, ShardedRun, StoreBuilder,
};
use swarm_sim::{Nanos, Sim, SimRng, NANOS_PER_MICRO, NANOS_PER_MILLI};
use swarm_workload::{Workload, WorkloadSpec};

/// Value bytes of every chaos store.
pub const VALUE_SIZE: usize = 64;
/// Tag space of bulk-loaded values, disjoint from every tag a worker writes.
pub const INITIAL_TAG_BASE: u64 = 1 << 32;
/// Fault plans can make a quorum unreachable (RAW's single replica
/// crashing); the per-op deadline keeps every worker live and turns the
/// lost op into an *ambiguous* history entry.
pub const OP_DEADLINE_NS: Nanos = 2 * NANOS_PER_MILLI;

/// A [`VALUE_SIZE`] value whose first 8 bytes carry the checker tag.
pub fn tagged(tag: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_SIZE];
    v[..8].copy_from_slice(&tag.to_le_bytes());
    v
}

/// The seed list `base + i * stride` of a sweep: `floor` seeds by default
/// (the pinned set `cargo test` runs), `SWARM_CHAOS_SEEDS=N` of them when
/// that is more, for a deeper hunt — this is the knob's only reader. An
/// unparsable value is ignored with a one-time warning (the
/// `swarm_bench::env_knob` convention): a silently shrunken sweep would
/// report clean runs that never executed.
pub fn seeds(base: u64, stride: u64, floor: u64) -> Vec<u64> {
    let n = swarm_bench::env_knob("SWARM_CHAOS_SEEDS", "a positive integer like 400", |n| {
        *n > 0
    })
    .map_or(floor, |n: u64| n.max(floor));
    (0..n).map(|i| base + i * stride).collect()
}

/// The swept fault plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
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
    /// Every kind, in sweep order.
    pub fn all() -> [PlanKind; 5] {
        use PlanKind::*;
        [CrashOne, CrashRestart, Partition, JitterAndDrop, Random]
    }

    /// The concrete schedule for this kind under `seed`, over `nodes`
    /// memory nodes. Victim nodes are seed-rotated so sweeps hit different
    /// replica sets.
    pub fn plan(self, seed: u64, nodes: usize) -> FaultPlan {
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

/// The fault plan aimed at one shard's fabric: a crash+restart plus a drop
/// window — the fault kinds that perturb timing *and* consume RNG draws on
/// the shard they hit.
pub fn shard_fault_plan() -> FaultPlan {
    let us = NANOS_PER_MICRO;
    FaultPlan::new()
        .crash_at(60 * us, NodeId(0))
        .restart_at(300 * us, NodeId(0))
        .drop_window(80 * us, NodeId(2), 400, 250 * us)
}

/// The hedge config of chaos runs: `min_samples` drops to 2 so the per-node
/// RTT trackers form estimates — and hedges actually arm — within a run of
/// a few dozen ops; everything else stays at the production defaults.
pub fn chaos_hedge() -> HedgeConfig {
    HedgeConfig {
        min_samples: 2,
        ..HedgeConfig::on()
    }
}

/// One mixed Get/Update/Insert/Delete worker (50/30/12/8).
pub struct MixedWorker {
    /// Where pauses, keys and op choices are drawn from: the simulation's
    /// shared stream, or a private fork so another shard's draws cannot
    /// shift this worker's.
    pub rng: SimRng,
    /// The keys the worker picks from, uniformly.
    pub keys: Vec<u64>,
    /// Operations to issue.
    pub ops: u64,
    /// Last write tag handed out; bumped before every op, so tags are unique
    /// among the workers sharing the cell (and across workers whose cells
    /// start far apart).
    pub tag: Rc<Cell<u64>>,
    /// Deletes and re-inserts are only coherent on the tombstone-backed
    /// protocols: SWARM and DM-ABD propagate deletion through the replicas
    /// themselves (§5.3.2), so a stale location cache still observes it. RAW
    /// and (our model of) FUSEE have no tombstones — a deleted key's old
    /// bytes stay live under other clients' cached locations — matching the
    /// paper, which evaluates those baselines on preloaded keyspaces only.
    /// `false` turns the insert/delete share into gets.
    pub full_mix: bool,
}

impl MixedWorker {
    /// Spawns the worker against `store`. Results are intentionally not
    /// unwrapped: under faults, errors (and their absence observations) are
    /// part of the history being checked.
    pub fn spawn<S: KvStore + 'static>(self, sim: &Sim, store: Rc<S>) {
        let (sim2, w) = (sim.clone(), self);
        sim.spawn(async move {
            for _ in 0..w.ops {
                sim2.sleep_ns(w.rng.rand_range(1, 40 * NANOS_PER_MICRO))
                    .await;
                let key = w.keys[w.rng.rand_range(0, w.keys.len() as u64) as usize];
                let tag = w.tag.get() + 1;
                w.tag.set(tag);
                let _ = match w.rng.rand_range(0, 100) {
                    50..=79 => store.update(key, tagged(tag)).await,
                    80..=91 if w.full_mix => store.insert(key, tagged(tag)).await,
                    92.. if w.full_mix => store.delete(key).await,
                    _ => store.get(key).await.map(drop),
                };
            }
        });
    }
}

/// One planned sharded run, as data: the store, the YCSB workload, and what
/// happens around it. Suites keep a base case and override fields per test.
#[derive(Debug, Clone)]
pub struct PlannedCase {
    /// Static shards.
    pub shards: usize,
    /// Router streams the workload is planned across, one client id each
    /// per shard.
    pub routers: usize,
    /// Preloaded keyspace `0..keys`.
    pub keys: u64,
    /// The YCSB mix.
    pub spec: WorkloadSpec,
    /// Warm-up and measured ops.
    pub cfg: RunConfig,
    /// Hedging, when the case arms it.
    pub hedge: Option<HedgeConfig>,
    /// Until when every shard's membership watcher runs.
    pub watch_until_ns: Option<Nanos>,
    /// Fault plans by shard.
    pub faults: Vec<(usize, FaultPlan)>,
}

impl PlannedCase {
    /// YCSB A over `keys` keys on `shards` fault-free static shards,
    /// histories recorded, nothing else armed.
    pub fn new(shards: usize, routers: usize, keys: u64, cfg: RunConfig) -> Self {
        PlannedCase {
            shards,
            routers,
            keys,
            spec: WorkloadSpec::A,
            cfg,
            hedge: None,
            watch_until_ns: None,
            faults: Vec::new(),
        }
    }
}

/// Plans `case` from `seed` and runs it under `mode`: SWARM-KV shards with
/// the chaos deadline, keys preloaded, every op outcome kept.
pub fn planned(seed: u64, mode: ShardMode, case: &PlannedCase) -> ShardedRun {
    let mut b = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(VALUE_SIZE)
        .max_clients(case.routers)
        .op_deadline_ns(OP_DEADLINE_NS)
        .shards(case.shards);
    if let Some(hedge) = case.hedge {
        b = b.hedge(hedge);
    }
    let wl = Workload::ycsb(case.spec, case.keys, VALUE_SIZE);
    let plan = plan_workload(
        seed,
        ShardSpec::new(case.shards),
        &wl,
        &case.cfg,
        case.routers,
    );
    let opts = ShardRunOptions {
        faults: case.faults.clone(),
        collect_results: true,
        watch_until_ns: case.watch_until_ns,
    };
    run_sharded_plan(&b, seed, &plan, &wl, &opts, mode)
}

/// Runs `case` once per [`ShardMode`] — solo simulations driven one after
/// another, on two OS threads, and all shards on one shared simulation —
/// requires the three runs equal in everything a run reports and every
/// per-shard history linearizable, and returns the first.
pub fn across_modes(seed: u64, case: &PlannedCase, what: &str) -> ShardedRun {
    let base = planned(seed, ShardMode::Threads(1), case);
    for mode in [ShardMode::Threads(2), ShardMode::SingleSim] {
        let other = planned(seed, mode, case);
        assert_eq!(base, other, "{}", cell(what, mode, seed));
    }
    assert_linearizable(base.histories(), &cell(what, ShardMode::Threads(1), seed));
    base
}

/// The one failure line: the triple that replays a cell bit for bit — what
/// ran, the fault plan kind or shard mode it ran under, and the seed.
pub fn cell(what: &str, plan: impl Debug, seed: u64) -> String {
    format!("{what} / {plan:?} / seed {seed}")
}

/// Panics, naming `cell`, unless every history linearizes. The message
/// lists, by invocation time, the failing key's ops that overlap the
/// failure window (`NonLinearizable::since..=at`) and its ambiguous ops
/// invoked by then: each op's invoke and return instants (or "ambiguous"),
/// what it did, and its client.
pub fn assert_linearizable<'a>(histories: impl IntoIterator<Item = &'a KvHistory>, cell: &str) {
    for (i, h) in histories.into_iter().enumerate() {
        let Err(e) = h.check() else { continue };
        let in_window = |o: &&KvHistoryOp| {
            o.key == e.key && o.invoke <= e.at && o.ret.is_none_or(|r| r >= e.since)
        };
        let mut ops: Vec<_> = h.ops().iter().filter(in_window).collect();
        ops.sort_by_key(|o| o.invoke);
        let mut lines = String::new();
        for o in &ops {
            let ret = o.ret.map_or("ambiguous".into(), |r| r.to_string());
            let client = o.client.map_or("?".into(), |c| c.to_string());
            let line = format!(
                "\n  {:>9} {ret:>9}  {:?}  client {client}",
                o.invoke, o.kind
            );
            lines.push_str(&line);
        }
        panic!(
            "NOT linearizable: {e} in history {i} ({} of {} ops completed unambiguously)\n{cell}\n\
             key {}, its {} ops in the window, by invocation:\n     invoke    return{lines}",
            h.definite_ops(),
            h.len(),
            e.key,
            ops.len(),
        );
    }
}

/// A fair coin off a property case's stream.
pub fn coin(rng: &SimRng) -> bool {
    rng.rand_u64() & 1 == 1
}

/// Runs `property` on 64 seeded cases, case `i` drawing its inputs from
/// `SimRng::from_seed(seed, i)` — nothing is shrunk, so a failure names the
/// `(seed, case)` pair on stderr, which is all it takes to rerun that case
/// alone.
pub fn for_each_case(seed: u64, property: impl Fn(&SimRng)) {
    struct Named(u64, u64);
    impl Drop for Named {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "property failed on case SimRng::from_seed({:#x}, {})",
                    self.0, self.1
                );
            }
        }
    }
    for case in 0..64 {
        let _named = Named(seed, case);
        property(&SimRng::from_seed(seed, case));
    }
}

//! One-`Sim`-per-shard parallel execution of sharded workloads.
//!
//! [`ShardedCluster`](crate::ShardedCluster) builds every shard on a single
//! event loop: correct, provably independent per shard (see
//! [`crate::ShardSpec`]), and serialized onto one core. This module is the
//! multi-core driver: the workload is **planned up front** into per-shard op
//! streams, then every shard runs on its *own* `Sim::new(seed)` — solo on
//! the calling thread, or work-stealing on OS threads — and the per-shard
//! outcomes merge in deterministic shard order.
//!
//! # Why the executions line up bit for bit
//!
//! Three facts make the modes interchangeable:
//!
//! 1. Every random draw a shard makes comes from a private stream forked
//!    from `(simulation seed, shard label)` — never from the shared stream
//!    ([`StoreBuilder::build_one_shard`] sets the same labels
//!    `build_sharded` would).
//! 2. The op streams are **pre-planned** from per-router forked streams
//!    ([`swarm_sim::SimRng::from_seed`]), so no runtime draw depends on
//!    cross-shard scheduling.
//! 3. The simulator orders events by `(time, sequence)` and sequence
//!    numbers respect creation order, so a shard's events keep their
//!    relative order whether or not another shard's events interleave.
//!
//! Therefore `Threads(n)` ≡ `SingleSim` for every `n`, per shard, bit for
//! bit — histories, traffic counters, latencies: two [`ShardedRun`]s of one
//! plan compare equal with `==`. The test suite's `shard_parallel` asserts
//! exactly this across seeds, thread counts, and per-shard fault plans.
//!
//! Every op of a planned run goes down the same op path as
//! [`run_workload`](crate::run_workload) and
//! [`run_scenario`](crate::run_scenario) — one `execute`, one `RunStats`
//! (see `exec.rs`); what differs is the op *source* and the client model
//! around it. Under `run_workload` over routers, ops are drawn from the
//! shared stream at runtime and a router's per-shard clients share one CPU
//! core. Cross-shard CPU sharing cannot exist once shards live on
//! different OS threads, so here the source is the pre-planned stream and
//! each `(router, shard)` pair is its own client. Numbers from the two are
//! each deterministic but not comparable to one another.
//!
//! # Thread confinement
//!
//! A `Sim` is `!Send` (Rc-based wakers); each worker thread *constructs*
//! its shard's `Sim` + [`StoreCluster`] locally and only the `Send`
//! [`ShardOutcome`] crosses threads. [`par_map`] is the loop that does it —
//! the same one `swarm_bench::sweep` runs its cells on — and the caller
//! passes the thread count: nothing in this crate reads the environment or
//! counts cores.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use swarm_core::KvHistory;
use swarm_fabric::{FaultPlan, TrafficStats};
use swarm_sim::{Nanos, Sim, SimRng};
use swarm_workload::{OpType, ScenarioOp, Workload};

use crate::builder::{StoreBuilder, StoreCluster};
use crate::cluster::derive_label;
use crate::exec::{OpOutcome, OpSource, Run, RunStats, Worker};
use crate::recorder::HistoryRecorder;
use crate::runner::RunConfig;
use crate::shard::ShardSpec;

/// Base label the per-router planning streams fork from. Distinct from the
/// shard labels (`SHARD_RNG_BASE`) and the chaos-worker labels, so planned
/// op streams never collide with substrate streams.
const PLAN_RNG_BASE: u64 = 0x504C_414E_0050_4C4E;

/// How to drive the per-shard simulations of a planned run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// All shards on one shared `Sim` (the classic `ShardedCluster`
    /// shape): the cross-check that per-shard solo executions replay the
    /// shared-simulation ones.
    SingleSim,
    /// One solo `Sim` per shard, shards claimed work-stealing by this many
    /// OS threads; `Threads(1)` drives them one after another on the calling
    /// thread.
    Threads(usize),
}

/// One pre-planned operation: what to do, against which key, carrying the
/// globally unique version its payload is derived from
/// (`Workload::value_for(key, version)` is pure, so payloads need not be
/// materialized until execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedOp {
    /// The router (logical application thread) this op belongs to.
    pub router: usize,
    /// Position in that router's op stream (reassembly index).
    pub pos: usize,
    /// Operation kind.
    pub op: OpType,
    /// Target key.
    pub key: u64,
    /// Globally unique payload version (assigned in planning order).
    pub version: u64,
}

/// A workload partitioned up front into per-shard, per-router op streams:
/// [`crate::ShardRouter`]'s stateless grouping, applied before execution
/// instead of per call. Built by [`plan_workload`]; executed by
/// [`run_sharded_plan`].
pub struct WorkloadPlan {
    spec: ShardSpec,
    routers: usize,
    /// The run configuration the plan was cut to.
    cfg: RunConfig,
    /// Ops per router (warm-up + measured), for result reassembly.
    per_router_ops: Vec<usize>,
    /// `streams[shard][router]` = that router's `(measured, op)` pairs on
    /// that shard, in stream order.
    streams: Vec<Vec<Vec<(bool, PlannedOp)>>>,
}

impl WorkloadPlan {
    /// Number of router streams.
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// Total planned ops (warm-up + measured) across all routers.
    pub fn ops_total(&self) -> u64 {
        self.per_router_ops.iter().map(|&n| n as u64).sum()
    }

    /// Planned ops per shard, in shard order (warm-up + measured): the
    /// routed-load view, deterministic before anything runs — what the
    /// scale bench reports imbalance from.
    pub fn per_shard_op_counts(&self) -> Vec<u64> {
        self.streams
            .iter()
            .map(|routers| routers.iter().map(|ops| ops.len() as u64).sum())
            .collect()
    }
}

/// Plans `cfg.warmup_ops + cfg.measure_ops` operations of `workload`
/// across `routers` logical application threads, pre-routed onto the
/// shards of `spec`.
///
/// Each router draws its `(op, key)` stream from a private fork of
/// `(seed, router label)` — the same fork-label scheme the shards
/// themselves use — so the plan depends only on `(seed, spec, workload,
/// cfg, routers)`, never on execution interleaving. Versions are assigned
/// globally in planning order, so every mutation payload is unique, as
/// under [`run_workload`](crate::run_workload).
///
/// # Panics
///
/// Panics on knobs the planned driver does not support (`concurrency > 1`,
/// pacing, deadlines, time series, roundtrip recording, prewarm): those
/// describe runtime feedback loops that cannot be planned ahead, so they
/// stay with `run_workload`.
pub fn plan_workload(
    seed: u64,
    spec: ShardSpec,
    workload: &Workload,
    cfg: &RunConfig,
    routers: usize,
) -> WorkloadPlan {
    assert!(routers >= 1, "a plan needs at least one router stream");
    assert!(
        cfg.concurrency == 1
            && cfg.pace_ns.is_none()
            && cfg.deadline_ns.is_none()
            && cfg.bucket_ns.is_none()
            && cfg.prewarm_keys.is_none()
            && !cfg.record_rtts,
        "the planned shard driver supports warmup/measure only; \
         use run_workload for paced, deadlined, or rtt-recorded runs"
    );

    let mut streams: Vec<Vec<Vec<(bool, PlannedOp)>>> =
        vec![vec![Vec::new(); routers]; spec.shards()];
    let mut per_router_ops = Vec::with_capacity(routers);
    let mut version = 0u64;
    // `r` is a router *id* (rng label, `PlannedOp::router`), not just an
    // index into `streams` — iterator rewrites obscure that.
    #[allow(clippy::needless_range_loop)]
    for r in 0..routers {
        let share =
            |total: u64| total / routers as u64 + u64::from((r as u64) < total % routers as u64);
        let warm = share(cfg.warmup_ops);
        let meas = share(cfg.measure_ops);
        per_router_ops.push((warm + meas) as usize);
        let rng = SimRng::from_seed(seed, derive_label(PLAN_RNG_BASE, r as u64, routers as u64));
        let mut pos = 0usize;
        for (phase_ops, measured) in [(warm, false), (meas, true)] {
            for _ in 0..phase_ops {
                let (op, key) = workload.next_op(rng.rand_u64(), rng.rand_f64());
                version += 1;
                let planned = PlannedOp {
                    router: r,
                    pos,
                    op,
                    key,
                    version,
                };
                streams[spec.shard_of(key)][r].push((measured, planned));
                pos += 1;
            }
        }
    }
    WorkloadPlan {
        spec,
        routers,
        cfg: cfg.clone(),
        per_router_ops,
        streams,
    }
}

/// What to set up around a planned run, per shard. Every planned run
/// first bulk-loads keys `0..workload.keys.n()` with
/// `workload.value_for(key, 0)` payloads, each into its owning shard.
#[derive(Debug, Clone, Default)]
pub struct ShardRunOptions {
    /// Fault plans by shard index, applied to that shard's fabric before
    /// workers start. Pair with `StoreBuilder::op_deadline_ns` so workers
    /// stay live when a fault makes a quorum unreachable.
    pub faults: Vec<(usize, FaultPlan)>,
    /// Keep every op's [`OpOutcome`] for input-order reassembly via
    /// [`ShardedRun::results`]. Off for benches (memory).
    pub collect_results: bool,
    /// Run each shard's membership watcher until this virtual time.
    pub watch_until_ns: Option<Nanos>,
}

/// Everything that leaves one shard's simulation: plain `Send` data — the
/// `Sim`, its wakers, and every `Rc` stay confined to the thread that
/// built them. Equality is over every field (see [`ShardedRun`]).
#[derive(Debug, PartialEq)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: usize,
    /// This shard's measured-op statistics.
    pub stats: RunStats,
    /// This shard's fabric traffic after the simulation fully drained.
    pub traffic: TrafficStats,
    /// Every op the shard ran, recorded (linearizability-checkable, and
    /// the strongest bit-parity witness).
    pub history: KvHistory,
    /// `(router, pos, outcome)` per op (when
    /// [`ShardRunOptions::collect_results`]), by router, in stream order.
    pub results: Vec<(usize, usize, OpOutcome)>,
}

/// A completed planned run: per-shard outcomes in shard order, plus the
/// deterministic merges. Identical whatever [`ShardMode`] produced it, and
/// `==` is that claim in full: every shard's statistics (each latency
/// histogram as its multiset of samples), traffic, history and op
/// outcomes.
#[derive(Debug, PartialEq)]
pub struct ShardedRun {
    per_shard: Vec<ShardOutcome>,
    per_router_ops: Vec<usize>,
}

impl ShardedRun {
    /// Per-shard outcomes, in shard order.
    pub fn per_shard(&self) -> &[ShardOutcome] {
        &self.per_shard
    }

    /// One shard's outcome.
    pub fn shard(&self, s: usize) -> &ShardOutcome {
        &self.per_shard[s]
    }

    /// Aggregate run statistics: the per-shard [`RunStats`] folded in shard
    /// order ([`RunStats::merge`]).
    pub fn merged_stats(&self) -> RunStats {
        let mut out = RunStats::default();
        for o in &self.per_shard {
            out.merge(&o.stats);
        }
        out
    }

    /// Aggregate fabric traffic across shards.
    pub fn total_traffic(&self) -> TrafficStats {
        let mut total = TrafficStats::default();
        for o in &self.per_shard {
            total += o.traffic;
        }
        total
    }

    /// Per-shard recorded histories, in shard order.
    pub fn histories(&self) -> Vec<&KvHistory> {
        self.per_shard.iter().map(|o| &o.history).collect()
    }

    /// Every op's outcome reassembled into input order:
    /// `results()[router][pos]`, each router's ops in the order it issued
    /// them. Requires [`ShardRunOptions::collect_results`].
    pub fn results(&self) -> Vec<Vec<OpOutcome>> {
        let mut out: Vec<Vec<Option<OpOutcome>>> =
            self.per_router_ops.iter().map(|&n| vec![None; n]).collect();
        for o in &self.per_shard {
            for (router, pos, outcome) in &o.results {
                out[*router][*pos] = Some(outcome.clone());
            }
        }
        out.into_iter()
            .map(|router| {
                router
                    .into_iter()
                    .map(|r| r.expect("run with collect_results: every op lands exactly once"))
                    .collect()
            })
            .collect()
    }
}

/// Executes a [`WorkloadPlan`] against `builder`'s sharded store under
/// `mode`, returning per-shard outcomes merged in shard order.
///
/// The outcome is bit-identical across every mode and thread count: the
/// whole point of the pre-planned driver. `builder` must be configured
/// with the same shard count the plan was cut for, and with `max_clients`
/// covering the plan's router count.
pub fn run_sharded_plan(
    builder: &StoreBuilder,
    seed: u64,
    plan: &WorkloadPlan,
    workload: &Workload,
    opts: &ShardRunOptions,
    mode: ShardMode,
) -> ShardedRun {
    assert_eq!(
        builder.num_shards(),
        plan.spec.shards(),
        "builder and plan disagree on the shard count"
    );
    let shards = plan.spec.shards();
    let per_shard = match mode {
        ShardMode::SingleSim => {
            run_shards_on_one_sim(builder, seed, plan, workload, opts, 0..shards)
        }
        ShardMode::Threads(n) => {
            let ids: Vec<usize> = (0..shards).collect();
            par_map(n, &ids, |&s| {
                run_one_shard(builder, seed, plan, workload, opts, s)
            })
        }
    };
    ShardedRun {
        per_shard,
        per_router_ops: plan.per_router_ops.clone(),
    }
}

/// Builds, preloads, faults, and runs shard `s` of `plan` alone on its own
/// `Sim::new(seed)`, on the calling thread: the per-shard entry behind
/// [`run_sharded_plan`]'s solo modes, public so a caller with many plans
/// (`bench_shards`) can put every `(plan, shard)` job on one [`par_map`] and
/// merge each plan's outcomes in shard order itself.
pub fn run_one_shard(
    builder: &StoreBuilder,
    seed: u64,
    plan: &WorkloadPlan,
    workload: &Workload,
    opts: &ShardRunOptions,
    s: usize,
) -> ShardOutcome {
    run_shards_on_one_sim(builder, seed, plan, workload, opts, s..s + 1)
        .pop()
        .expect("one shard in, one outcome out")
}

/// The one way a shard is reached: builds the given shards on one
/// `Sim::new(seed)` (all clusters, then all workers, in shard order), drains
/// it, and extracts their outcomes. One shard is a solo run; every shard is
/// [`ShardMode::SingleSim`].
fn run_shards_on_one_sim(
    builder: &StoreBuilder,
    seed: u64,
    plan: &WorkloadPlan,
    workload: &Workload,
    opts: &ShardRunOptions,
    shards: std::ops::Range<usize>,
) -> Vec<ShardOutcome> {
    let sim = Sim::new(seed);
    let clusters: Vec<StoreCluster> = shards
        .clone()
        .map(|s| builder.build_one_shard(&sim, s))
        .collect();
    let tasks: Vec<ShardTasks> = shards
        .clone()
        .zip(&clusters)
        .map(|(s, cluster)| setup_shard(&sim, cluster, plan, workload, opts, s))
        .collect();
    sim.run();
    shards
        .zip(clusters.iter().zip(tasks))
        .map(|(s, (cluster, tasks))| finish_shard(s, cluster, plan, tasks))
        .collect()
}

/// Maps `f` over `items` on up to `threads` OS threads and returns the
/// results in item order: the workspace's one work-stealing loop, behind
/// [`ShardMode::Threads`] and `swarm_bench::sweep`. Workers claim the next
/// unstarted item from a shared counter, so long and short items balance
/// automatically; `threads <= 1` runs strictly sequentially on the calling
/// thread. `f` must return only `Send` data — a `Sim` and everything built
/// on it stay confined to the worker that made them.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                *slots[i].lock().expect("par_map slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("par_map slot poisoned")
                .expect("every claimed item stores a result")
        })
        .collect()
}

/// The shard-confined run state workers write into.
struct ShardTasks {
    rec: HistoryRecorder,
    run: Rc<Run>,
    /// Under [`ShardRunOptions::collect_results`], per spawned worker: its
    /// router and its ops' outcomes in stream order.
    outcomes: Vec<(usize, Rc<RefCell<Vec<OpOutcome>>>)>,
}

/// Preloads, watches, faults, and spawns shard `s`'s workers — identically
/// whether `sim` is the shard's solo simulation or a shared one.
fn setup_shard(
    sim: &Sim,
    cluster: &StoreCluster,
    plan: &WorkloadPlan,
    workload: &Workload,
    opts: &ShardRunOptions,
    s: usize,
) -> ShardTasks {
    let rec = HistoryRecorder::new(sim);
    // Ascending key order: each shard loads exactly the keys it owns, in
    // the same order in every mode.
    for key in 0..workload.keys.n() {
        if plan.spec.shard_of(key) == s {
            let v = workload.value_for(key, 0);
            cluster.load_key(key, &v);
            rec.set_initial(key, &v);
        }
    }
    if let Some(deadline) = opts.watch_until_ns {
        if let Some(m) = cluster.membership() {
            m.watch_until(deadline);
        }
    }
    for (fault_shard, fault_plan) in &opts.faults {
        if *fault_shard == s {
            cluster.fabric().apply_fault_plan(fault_plan);
        }
    }

    let run = Rc::new(Run::default());
    let mut outcomes = Vec::new();
    for r in 0..plan.routers {
        let stream = &plan.streams[s][r];
        if stream.is_empty() {
            continue;
        }
        let sink = opts
            .collect_results
            .then(|| Rc::new(RefCell::new(Vec::new())));
        outcomes.extend(sink.iter().map(|sink| (r, Rc::clone(sink))));
        let payloads = workload.clone();
        let ops: Vec<_> = stream
            .iter()
            .map(|&(measured, o)| {
                let op = ScenarioOp::ycsb(o.op, o.key, o.version, workload.value_size);
                (measured, op)
            })
            .collect();
        let worker = Worker {
            source: OpSource::Planned(ops.into_iter()),
            cfg: plan.cfg.clone(),
            value: move |key, version, _size| payloads.value_for(key, version),
            run: Rc::clone(&run),
            outcomes: sink,
        };
        worker.spawn(sim, rec.wrap(cluster.client(r)));
    }
    ShardTasks { rec, run, outcomes }
}

/// Extracts the `Send` outcome once shard `s`'s simulation drained.
fn finish_shard(
    s: usize,
    cluster: &StoreCluster,
    plan: &WorkloadPlan,
    tasks: ShardTasks,
) -> ShardOutcome {
    assert_eq!(
        tasks.run.active.get(),
        0,
        "shard {s}: simulation drained with workers still pending \
         (set StoreBuilder::op_deadline_ns when running fault plans)"
    );
    // A worker's outcomes are in its stream's order, so they pair off with
    // the plan's ops for that `(shard, router)`.
    let results = tasks
        .outcomes
        .iter()
        .flat_map(|(r, outcomes)| {
            let planned = plan.streams[s][*r].iter().map(|(_, op)| op);
            planned
                .zip(outcomes.take())
                .map(|(op, outcome)| (op.router, op.pos, outcome))
        })
        .collect();
    ShardOutcome {
        shard: s,
        stats: tasks.run.stats.take(),
        traffic: cluster.fabric().stats(),
        history: tasks.rec.take_history(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;
    use swarm_workload::WorkloadSpec;

    #[test]
    fn plan_partitions_every_op_exactly_once() {
        let spec = ShardSpec::new(4);
        let wl = Workload::ycsb(WorkloadSpec::A, 256, 64);
        let cfg = RunConfig {
            warmup_ops: 37,
            measure_ops: 101,
            ..Default::default()
        };
        let plan = plan_workload(7, spec, &wl, &cfg, 3);
        assert_eq!(plan.ops_total(), 138);
        assert_eq!(plan.per_shard_op_counts().iter().sum::<u64>(), 138);
        assert_eq!(plan.routers(), 3);
        // Uneven splits: 37 = 13+12+12, 101 = 34+34+33.
        assert_eq!(plan.per_router_ops, vec![13 + 34, 12 + 34, 12 + 33]);
        // Every (router, pos) appears exactly once, on its key's shard.
        let mut seen = std::collections::BTreeSet::new();
        for (s, routers) in plan.streams.iter().enumerate() {
            for (_, op) in routers.iter().flatten() {
                assert!(seen.insert((op.router, op.pos)), "duplicate op");
                assert_eq!(spec.shard_of(op.key), s);
            }
        }
        assert_eq!(seen.len(), 138);
    }

    #[test]
    fn plan_versions_are_dense_and_measurement_starts_after_warmup() {
        let spec = ShardSpec::new(2);
        let wl = Workload::ycsb(WorkloadSpec::B, 128, 64);
        let cfg = RunConfig {
            warmup_ops: 10,
            measure_ops: 10,
            ..Default::default()
        };
        let plan = plan_workload(3, spec, &wl, &cfg, 1);
        let mut versions: Vec<_> = plan
            .streams
            .iter()
            .flat_map(|routers| &routers[0])
            .map(|&(measured, op)| (op.pos, op.version, measured))
            .collect();
        versions.sort_unstable();
        assert_eq!(versions.len(), 20);
        for (i, &(pos, version, measured)) in versions.iter().enumerate() {
            assert_eq!(pos, i);
            assert_eq!(version, i as u64 + 1, "versions are global and dense");
            assert_eq!(measured, pos >= 10, "phase boundary respected at op {pos}");
        }
    }

    #[test]
    fn plan_is_deterministic_and_seed_sensitive() {
        let spec = ShardSpec::new(3);
        let wl = Workload::ycsb(WorkloadSpec::B, 512, 64);
        let cfg = RunConfig {
            warmup_ops: 20,
            measure_ops: 60,
            ..Default::default()
        };
        let keys = |seed: u64| -> Vec<u64> {
            let plan = plan_workload(seed, spec, &wl, &cfg, 2);
            let mut ops: Vec<(usize, usize, u64)> = plan
                .streams
                .iter()
                .flatten()
                .flatten()
                .map(|(_, o)| (o.router, o.pos, o.key))
                .collect();
            ops.sort_unstable();
            ops.into_iter().map(|(_, _, k)| k).collect()
        };
        assert_eq!(keys(5), keys(5), "same seed, same plan");
        assert_ne!(keys(5), keys(6), "the seed feeds the plan");
    }

    /// A run shaped like the benchmark's `hotkey_16c` (Fig. 12): 16
    /// clients on one key, YCSB A, 70 000 ops recorded and checked whole.
    #[test]
    fn sixteen_clients_on_one_key_linearize_at_bench_volume() {
        let builder = StoreBuilder::new(Protocol::SafeGuess).max_clients(16);
        let wl = Workload::ycsb(WorkloadSpec::A, 1, 64);
        let cfg = RunConfig {
            warmup_ops: 10_000,
            measure_ops: 60_000,
            ..Default::default()
        };
        let plan = plan_workload(16, ShardSpec::new(1), &wl, &cfg, 16);
        let opts = ShardRunOptions::default();
        let run = run_sharded_plan(&builder, 16, &plan, &wl, &opts, ShardMode::Threads(1));
        let h = run.histories()[0];
        assert_eq!(h.len(), 70_000);
        h.check().expect("the hot key linearizes");
    }

    /// `Threads(1)` — every shard's solo `Sim` driven sequentially on the
    /// calling thread — and `Threads(2)` are one run.
    #[test]
    fn threads_one_matches_sequential() {
        let builder = StoreBuilder::new(Protocol::SafeGuess)
            .value_size(64)
            .max_clients(2)
            .shards(2);
        let wl = Workload::ycsb(WorkloadSpec::B, 64, 64);
        let cfg = RunConfig {
            warmup_ops: 10,
            measure_ops: 50,
            ..Default::default()
        };
        let opts = ShardRunOptions::default();
        let plan = plan_workload(9, ShardSpec::new(2), &wl, &cfg, 2);
        let run = |mode| run_sharded_plan(&builder, 9, &plan, &wl, &opts, mode);
        assert_eq!(run(ShardMode::Threads(1)), run(ShardMode::Threads(2)));
    }

    /// `==` on a run is field-exhaustive: a difference in any one witness —
    /// the shard index, a latency sample, a traffic counter, a recorded op,
    /// an op outcome — is a difference of the runs.
    #[test]
    fn run_equality_covers_every_field() {
        type Tweak<'a> = &'a dyn Fn(&mut ShardOutcome);
        let run = |tweak: Tweak| {
            let mut stats = RunStats {
                measured_ops: 2,
                start_ns: 100,
                end_ns: 900,
                ..Default::default()
            };
            stats.latency[0].record(700);
            stats.latency[0].record(300);
            let mut history = KvHistory::new();
            history.push(7, 100, 400, swarm_core::KvOpKind::Get(Some(1)));
            let mut shard = ShardOutcome {
                shard: 0,
                stats,
                traffic: TrafficStats::default(),
                history,
                results: vec![(0, 0, OpOutcome::Value(vec![1])), (0, 1, OpOutcome::Done)],
            };
            tweak(&mut shard);
            ShardedRun {
                per_shard: vec![shard],
                per_router_ops: vec![2],
            }
        };
        let base = run(&|_| {});
        assert_eq!(base, run(&|_| {}));
        // Recording order is not part of a histogram's value; a sample is.
        assert_eq!(
            base,
            run(&|o| {
                o.stats.latency[0] = Default::default();
                o.stats.latency[0].record(300);
                o.stats.latency[0].record(700);
            })
        );
        // Naming every field, with no `..`, makes a new field fail to
        // compile here until it gets a tweak below.
        let ShardOutcome {
            shard: _,
            stats: _,
            traffic: _,
            history: _,
            results: _,
        } = &base.per_shard[0];
        let tweaks: [(&str, Tweak); 8] = [
            ("shard", &|o| o.shard += 1),
            ("latency sample", &|o| o.stats.latency[0].record(301)),
            ("latency class", &|o| o.stats.latency.swap(0, 1)),
            ("failed ops", &|o| o.stats.failed_ops += 1),
            ("window", &|o| o.stats.end_ns += 1),
            ("traffic", &|o| o.traffic.messages += 1),
            ("history", &|o| o.history = KvHistory::new()),
            ("op outcome", &|o| o.results[1].2 = OpOutcome::Absent),
        ];
        for (what, tweak) in tweaks {
            assert_ne!(base, run(tweak), "{what} is not compared");
        }
        let mut other_plan = run(&|_| {});
        other_plan.per_router_ops = vec![3];
        assert_ne!(base, other_plan, "per-router op counts are not compared");
    }
}

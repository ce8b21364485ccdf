//! The one op path: how an operation is executed against a [`KvStore`]
//! and accounted. The paper's evaluation (§7.1–§7.2) is one loop — clients
//! issue ops and record latency and roundtrips — and this module holds the
//! only copy of it: [`execute`] (the one `match` over op kinds that calls
//! store methods), [`RunStats::record`], [`Worker::spawn`] and [`drive`].
//! The two drivers — `run_workload` and `run_scenario` — differ only in
//! their [`OpSource`].
//!
//! The unit of work is the six-class [`ScenarioOp`]; a YCSB op is its
//! four-class case, built by the same [`ScenarioOp::new`]. Every payload is
//! `scenario_value(key, version, size)` at the worker's one value size.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use swarm_sim::{Histogram, Nanos, Sim, TimeSeries, NANOS_PER_MILLI, NANOS_PER_SEC};
use swarm_workload::{scenario_value, ScenarioOp, ScenarioOpClass, Workload};

use crate::runner::RunConfig;
use crate::store::{KvResult, KvStore};

/// Number of operation classes ([`ScenarioOpClass::all`]).
const CLASSES: usize = 6;

/// Client-side CPU work per operation (workload generation, cache lookup,
/// completion processing) in nanoseconds, paid by every driver's workers.
/// Table 3's CPU% counts the same charge.
pub const OP_OVERHEAD_NS: Nanos = 1_000;

/// Collected results of a run, whichever driver produced it. Equality is
/// over every field, a latency histogram counting as its multiset of samples.
#[derive(Debug, Default, PartialEq)]
pub struct RunStats {
    /// Latency histogram per operation class, indexed by
    /// `ScenarioOpClass as usize` (reporting order; see [`RunStats::lat`]).
    pub latency: [Histogram; CLASSES],
    /// Roundtrip-count histogram per operation class (`rtts -> ops`), same
    /// indexing (see [`RunStats::rtt_counts`]). Filled only under
    /// `RunConfig::record_rtts`.
    pub rtts: [BTreeMap<u64, u64>; CLASSES],
    /// Per-bucket throughput/latency over time (`RunConfig::bucket_ns`).
    pub series: Option<TimeSeries>,
    /// Measured operations completed (one RMW counts once).
    pub measured_ops: u64,
    /// Operations that returned failure/absence (a `Get`/`Rmw` of an
    /// absent key counts here).
    pub failed_ops: u64,
    /// Total items returned across all scans.
    pub scanned_items: u64,
    /// First measured-op start time.
    pub start_ns: Nanos,
    /// Last measured-op completion time.
    pub end_ns: Nanos,
}

impl RunStats {
    /// Overall measured throughput in operations per second.
    pub fn throughput_ops(&self) -> f64 {
        if self.end_ns <= self.start_ns {
            return 0.0;
        }
        self.measured_ops as f64 * NANOS_PER_SEC as f64 / (self.end_ns - self.start_ns) as f64
    }

    /// Latency histogram for one class (empty histogram if none ran).
    pub fn lat(&self, class: ScenarioOpClass) -> Histogram {
        self.latency[class as usize].clone()
    }

    /// Roundtrip counts (`rtts -> ops`) for one class.
    pub fn rtt_counts(&self, class: ScenarioOpClass) -> &BTreeMap<u64, u64> {
        &self.rtts[class as usize]
    }

    /// Fraction of `class` operations that used exactly `r` roundtrips.
    pub fn rtt_fraction(&self, class: ScenarioOpClass, r: u64) -> f64 {
        let m = self.rtt_counts(class);
        let total: u64 = m.values().sum();
        if total == 0 {
            return 0.0;
        }
        *m.get(&r).unwrap_or(&0) as f64 / total as f64
    }

    /// The roundtrip count at percentile `p` for `class`.
    pub fn rtt_percentile(&self, class: ScenarioOpClass, p: f64) -> u64 {
        let m = self.rtt_counts(class);
        let total: u64 = m.values().sum();
        let target = (p / 100.0 * total as f64).ceil() as u64;
        let mut acc = 0;
        for (&rtts, &ops) in m {
            acc += ops;
            if acc >= target {
                return rtts;
            }
        }
        0
    }

    /// Accounts one measured operation that ran over `[t0, t1]`.
    pub(crate) fn record(&mut self, class: ScenarioOpClass, t0: Nanos, t1: Nanos, ok: bool) {
        if self.measured_ops == 0 {
            self.start_ns = t0;
        }
        self.measured_ops += 1;
        self.end_ns = self.end_ns.max(t1);
        if !ok {
            self.failed_ops += 1;
        }
        self.latency[class as usize].record(t1 - t0);
        if let Some(series) = &mut self.series {
            series.record(t1, t1 - t0);
        }
    }
}

/// What one executed op produced, as far as its accounting goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Executed {
    Done,
    /// A scan that returned this many items.
    Scanned(u64),
    /// An error, or an observed absence: absence counts as failure, like
    /// YCSB's not-found.
    Failed,
}

fn wrote(r: KvResult<()>) -> Executed {
    match r {
        Ok(()) => Executed::Done,
        Err(_) => Executed::Failed,
    }
}

/// Executes one operation against `store`, writing `value_size`-byte
/// payloads. Payloads are built only for mutating ops, at the moment they
/// are issued (`scenario_value` is pure, so the laziness cannot perturb the
/// execution).
pub(crate) async fn execute<S: KvStore>(store: &S, op: ScenarioOp, value_size: usize) -> Executed {
    let value = |key, version| scenario_value(key, version, value_size);
    match op {
        ScenarioOp::Get { key } => match store.get(key).await {
            Ok(Some(_)) => Executed::Done,
            Ok(None) | Err(_) => Executed::Failed,
        },
        ScenarioOp::Update { key, version } => wrote(store.update(key, value(key, version)).await),
        ScenarioOp::Insert { key, version } => wrote(store.insert(key, value(key, version)).await),
        ScenarioOp::Delete { key } => wrote(store.delete(key).await),
        ScenarioOp::Scan { start, limit } => match store.scan(start, limit).await {
            Ok(items) => Executed::Scanned(items.len() as u64),
            Err(_) => Executed::Failed,
        },
        // Read-modify-write: the read's observation feeds the write in a
        // real application; here only the latency of the two dependent
        // legs matters.
        ScenarioOp::Rmw { key, version } => match store.get(key).await {
            Ok(Some(_)) => wrote(store.update(key, value(key, version)).await),
            Ok(None) | Err(_) => Executed::Failed,
        },
    }
}

/// The run-wide op budget the workers of a [`OpSource::Drawn`] run share.
pub(crate) struct Budget {
    pub warmup_left: u64,
    pub measure_left: u64,
    /// Last payload version handed out (unique per mutation).
    pub version: u64,
}

/// Where a worker's operations come from — the one thing the two drivers
/// differ in.
pub(crate) enum OpSource {
    /// `run_workload`: slots are claimed from the shared [`Budget`], and
    /// each op is drawn from the simulation's RNG stream only once its
    /// client CPU work is paid.
    Drawn {
        workload: Workload,
        budget: Rc<RefCell<Budget>>,
    },
    /// `run_scenario`: pre-materialised `(measured, op)` pairs.
    Planned(std::vec::IntoIter<(bool, ScenarioOp)>),
}

impl OpSource {
    /// Claims the next op slot: whether it is measured, or `None` when the
    /// source is exhausted.
    fn claim(&mut self) -> Option<bool> {
        match self {
            OpSource::Drawn { budget, .. } => {
                let mut b = budget.borrow_mut();
                if b.warmup_left > 0 {
                    b.warmup_left -= 1;
                    Some(false)
                } else if b.measure_left > 0 {
                    b.measure_left -= 1;
                    Some(true)
                } else {
                    None
                }
            }
            OpSource::Planned(ops) => ops.as_slice().first().map(|&(measured, _)| measured),
        }
    }

    /// Materialises the claimed op.
    fn take(&mut self, sim: &Sim) -> ScenarioOp {
        match self {
            OpSource::Drawn { workload, budget } => {
                // Draw, then bump the version, and only after the worker's
                // CPU work: the `table2`/`fig5` ≡ `BENCH_seed.json` contract
                // pins this order.
                let rng = sim.rng();
                let (class, key) = workload.next_op(rng.rand_u64(), rng.rand_f64());
                let mut b = budget.borrow_mut();
                b.version += 1;
                // No scan limit: `run_workload` refuses a mix with scans.
                ScenarioOp::new(class, key, b.version, 0)
            }
            OpSource::Planned(ops) => ops.next().expect("a claimed op").1,
        }
    }
}

/// The state a run's workers share: the statistics they record into and
/// how many of them are still running.
#[derive(Default)]
pub(crate) struct Run {
    pub stats: RefCell<RunStats>,
    pub active: Cell<usize>,
}

/// One client worker: its op source, the knobs that pace it, the size of
/// the payloads it writes, and the run it records into.
pub(crate) struct Worker {
    pub source: OpSource,
    /// The per-op knobs; the volume knobs belong to whoever built `source`.
    pub cfg: RunConfig,
    /// Every mutation writes `scenario_value(key, version, value_size)`.
    pub value_size: usize,
    pub run: Rc<Run>,
}

impl Worker {
    /// Spawns the worker loop on `sim` against `store`: claim an op, pay
    /// its client CPU work, execute it, record it — until the source runs
    /// dry or the deadline passes.
    pub(crate) fn spawn<S: KvStore + 'static>(mut self, sim: &Sim, store: Rc<S>) {
        self.run.active.set(self.run.active.get() + 1);
        let sim2 = sim.clone();
        sim.spawn(async move {
            let (sim, cfg) = (sim2, &self.cfg);
            if let Some(n) = cfg.prewarm_keys {
                for key in 0..n {
                    let _ = store.get(key).await;
                }
            }
            let mut next_at = sim.now();
            loop {
                if cfg.pace_ns.is_some() {
                    sim.sleep_until(next_at).await;
                }
                let Some(measured) = self.source.claim() else {
                    break;
                };
                next_at += cfg.pace_ns.unwrap_or(0);
                if cfg.deadline_ns.is_some_and(|d| sim.now() >= d) {
                    break;
                }
                // Client-side CPU work (keeps per-core throughput honest, §7.2).
                store.endpoint().work(OP_OVERHEAD_NS).await;
                let op = self.source.take(&sim);

                let (r0, t0) = (store.rounds(), sim.now());
                let result = execute(&*store, op, self.value_size).await;
                let t1 = sim.now();

                if measured {
                    let mut stats = self.run.stats.borrow_mut();
                    stats.record(op.class(), t0, t1, result != Executed::Failed);
                    if let Executed::Scanned(items) = result {
                        stats.scanned_items += items;
                    }
                    // The delta is this op's own only if nothing else of
                    // the client's was in flight: the workers of one client
                    // share it at concurrency > 1.
                    if cfg.record_rtts && cfg.concurrency <= 1 {
                        let used = store.rounds() - r0;
                        *stats.rtts[op.class() as usize].entry(used).or_insert(0) += 1;
                    }
                }
            }
            self.run.active.set(self.run.active.get() - 1);
        });
    }
}

/// Drives `sim` until every worker of `run` finished, then returns the
/// collected statistics. Background tasks may continue; the stats are
/// already final.
pub(crate) fn drive(sim: &Sim, run: &Run) -> RunStats {
    loop {
        sim.run_until(sim.now() + 50 * NANOS_PER_MILLI);
        if run.active.get() == 0 {
            break;
        }
        assert!(
            sim.live_tasks() > 0,
            "simulation drained with workers still pending"
        );
    }
    run.stats.take()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, StoreBuilder};
    use swarm_workload::ScenarioMix;

    /// The workers of one client share its roundtrip counter, so a per-op
    /// delta exists only at concurrency 1; above it nothing is recorded
    /// rather than each op being charged its neighbours' roundtrips.
    #[test]
    fn rtts_are_recorded_only_at_concurrency_one() {
        let run = |concurrency: usize| {
            let sim = Sim::new(7);
            let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(&sim);
            cluster.load_keys(64, |k| vec![k as u8; 64]);
            crate::run_workload(
                &sim,
                &cluster.clients(1),
                &Workload::ycsb(ScenarioMix::B, 64, 64),
                &RunConfig {
                    warmup_ops: 100,
                    measure_ops: 400,
                    record_rtts: true,
                    concurrency,
                    ..Default::default()
                },
            )
        };
        let sequential = run(1);
        let recorded: u64 = sequential.rtt_counts(ScenarioOpClass::Get).values().sum();
        assert_eq!(recorded, sequential.lat(ScenarioOpClass::Get).len() as u64);
        let overlapped = run(4);
        assert_eq!(overlapped.measured_ops, 400);
        for class in ScenarioOpClass::all() {
            assert!(overlapped.rtt_counts(class).is_empty(), "{class:?}");
        }
    }
}

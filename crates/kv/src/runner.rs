//! YCSB workload runner: the run parameters ([`RunConfig`]) and the
//! runtime-drawn driver ([`run_workload`]) of the one op path in `exec.rs`,
//! which collects the statistics the paper's figures report (latency
//! histograms/CDFs, throughput, per-op roundtrips, time series around
//! failures).

use std::cell::RefCell;
use std::rc::Rc;

use swarm_sim::{Nanos, Sim, TimeSeries};
use swarm_workload::Workload;

use crate::exec::{drive, Budget, OpSource, Run, RunStats, Worker};
use crate::store::KvStore;

/// Run parameters. Every op also costs its client `OP_OVERHEAD_NS` (1 µs,
/// `exec.rs`) of CPU work.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Unmeasured warm-up operations (total across clients).
    pub warmup_ops: u64,
    /// Measured operations (total across clients).
    pub measure_ops: u64,
    /// Concurrent operations per client (§7.2: 1–8).
    pub concurrency: usize,
    /// Record a time series with this bucket width (Figure 11).
    pub bucket_ns: Option<Nanos>,
    /// Stop issuing operations after this virtual time (Figure 11 runs for
    /// a fixed duration instead of an op count).
    pub deadline_ns: Option<Nanos>,
    /// Record per-op roundtrip counts. Recorded at concurrency 1 and batch
    /// 1 only: with several of a client's ops in flight its roundtrip
    /// counter has no per-op delta to attribute, and the run records none.
    pub record_rtts: bool,
    /// Open-loop pacing: issue one op per worker every this many
    /// nanoseconds (Table 3 fixes clients at 200 kops each).
    pub pace_ns: Option<Nanos>,
    /// Touch every key in `0..n` once per client before the warm-up
    /// (steady-state location caches, as after the paper's 1M-op warm-up).
    pub prewarm_keys: Option<u64>,
    /// Operations per pipelined batch: each worker claims up to this many
    /// ops at once and issues them as one concurrent round, so a batch of
    /// independent keys costs ~1 quorum roundtrip. `1` (the default) is the
    /// classic sequential per-op loop.
    pub batch: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup_ops: 10_000,
            measure_ops: 50_000,
            concurrency: 1,
            bucket_ns: None,
            deadline_ns: None,
            record_rtts: false,
            pace_ns: None,
            prewarm_keys: None,
            batch: 1,
        }
    }
}

/// Runs `workload` against the given store handles (one per client,
/// `cfg.concurrency` workers each) and returns the collected statistics.
/// Drives the simulation internally.
///
/// This is the runtime-drawn driver of the one op path (`exec.rs`):
/// workers claim op slots from a run-wide budget and draw each `(op, key)`
/// from the simulation's RNG stream.
pub fn run_workload<S: KvStore + 'static>(
    sim: &Sim,
    stores: &[Rc<S>],
    workload: &Workload,
    cfg: &RunConfig,
) -> RunStats {
    let run = Rc::new(Run::default());
    run.stats.borrow_mut().series = cfg.bucket_ns.map(TimeSeries::new);
    let budget = Rc::new(RefCell::new(Budget {
        warmup_left: cfg.warmup_ops,
        measure_left: cfg.measure_ops,
        version: 0,
    }));
    for store in stores {
        for _ in 0..cfg.concurrency {
            let payloads = workload.clone();
            Worker {
                source: OpSource::Drawn {
                    workload: workload.clone(),
                    batch: cfg.batch.max(1) as u64,
                    budget: Rc::clone(&budget),
                },
                cfg: cfg.clone(),
                value: move |key, version, _size| payloads.value_for(key, version),
                run: Rc::clone(&run),
                outcomes: None,
            }
            .spawn(sim, Rc::clone(store));
        }
    }
    drive(sim, &run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, StoreBuilder};
    use swarm_workload::WorkloadSpec;

    #[test]
    fn batched_pacing_is_per_op_not_per_batch() {
        // Open-loop pacing must yield the same average op rate whatever the
        // batch size: a batch of N advances the schedule by N paces.
        let tput = |batch: usize| {
            let sim = Sim::new(22);
            let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(&sim);
            cluster.load_keys(256, |k| vec![k as u8; 64]);
            run_workload(
                &sim,
                &cluster.clients(2),
                &Workload::ycsb(WorkloadSpec::B, 256, 64),
                &RunConfig {
                    warmup_ops: 0,
                    measure_ops: 2_000,
                    pace_ns: Some(20_000), // 50 kops per worker, far above op cost
                    batch,
                    ..Default::default()
                },
            )
            .throughput_ops()
        };
        let sequential = tput(1);
        let batched = tput(4);
        let ratio = batched / sequential;
        assert!(
            (0.8..1.25).contains(&ratio),
            "batch=4 must keep the paced rate: {batched} vs {sequential} ops/s"
        );
    }

    #[test]
    fn batched_mode_completes_the_requested_volume() {
        let run = |batch: usize| {
            let sim = Sim::new(21);
            let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(&sim);
            cluster.load_keys(256, |k| vec![k as u8; 64]);
            run_workload(
                &sim,
                &cluster.clients(2),
                &Workload::ycsb(WorkloadSpec::B, 256, 64),
                &RunConfig {
                    warmup_ops: 100,
                    measure_ops: 2_000,
                    batch,
                    ..Default::default()
                },
            )
        };
        let sequential = run(1);
        let batched = run(8);
        assert_eq!(batched.measured_ops, 2_000);
        assert_eq!(batched.failed_ops, 0);
        // Batching must raise throughput: 8 independent keys cost ~1 quorum
        // roundtrip instead of 8 sequential ones. The per-op CPU work
        // (`OP_OVERHEAD_NS`, 1 µs) and work-request submission still
        // serialize on the client core, so against a ~2.2 µs sequential get
        // the gain is capped near (1 + 2.2) / 1 = 3.2x; this seed measures
        // 1.91x.
        assert!(
            batched.throughput_ops() > 1.75 * sequential.throughput_ops(),
            "batch=8 should beat sequential: {} vs {}",
            batched.throughput_ops(),
            sequential.throughput_ops()
        );
    }
}

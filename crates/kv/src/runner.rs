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
    /// Record per-op roundtrip counts. Recorded at concurrency 1 only:
    /// with several of a client's ops in flight its roundtrip counter has
    /// no per-op delta to attribute, and the run records none.
    pub record_rtts: bool,
    /// Open-loop pacing: issue one op per worker every this many
    /// nanoseconds (Table 3 fixes clients at 200 kops each).
    pub pace_ns: Option<Nanos>,
    /// Touch every key in `0..n` once per client before the warm-up
    /// (steady-state location caches, as after the paper's 1M-op warm-up).
    pub prewarm_keys: Option<u64>,
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
///
/// # Panics
///
/// Panics if the mix has a scan or read-modify-write share: this driver
/// draws YCSB's four classes only (`run_scenario` runs all six).
pub fn run_workload<S: KvStore + 'static>(
    sim: &Sim,
    stores: &[Rc<S>],
    workload: &Workload,
    cfg: &RunConfig,
) -> RunStats {
    let mix = workload.spec;
    assert!(
        mix.scan_pct == 0 && mix.rmw_pct == 0,
        "run_workload draws no scans or RMWs, but the mix has a {}% scan and a {}% RMW share",
        mix.scan_pct,
        mix.rmw_pct
    );
    let run = Rc::new(Run::default());
    run.stats.borrow_mut().series = cfg.bucket_ns.map(TimeSeries::new);
    let budget = Rc::new(RefCell::new(Budget {
        warmup_left: cfg.warmup_ops,
        measure_left: cfg.measure_ops,
        version: 0,
    }));
    for store in stores {
        for _ in 0..cfg.concurrency {
            Worker {
                source: OpSource::Drawn {
                    workload: workload.clone(),
                    budget: Rc::clone(&budget),
                },
                cfg: cfg.clone(),
                value_size: workload.value_size,
                run: Rc::clone(&run),
            }
            .spawn(sim, Rc::clone(store));
        }
    }
    drive(sim, &run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreClient;
    use swarm_workload::ScenarioMix;

    /// A mix with a scan or RMW share is refused before anything runs, and
    /// the message names the shares.
    #[test]
    #[should_panic(expected = "has a 10% scan and a 20% RMW share")]
    fn a_mix_with_scans_or_rmws_is_refused() {
        let mix = ScenarioMix {
            get_pct: 60,
            update_pct: 10,
            insert_pct: 0,
            delete_pct: 0,
            scan_pct: 10,
            rmw_pct: 20,
        };
        run_workload::<StoreClient>(
            &Sim::new(1),
            &[],
            &Workload::ycsb(mix, 64, 64),
            &RunConfig::default(),
        );
    }
}

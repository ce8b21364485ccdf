//! Scenario runner: feeds a time-phased [`ScenarioSpec`] op stream —
//! including scans and read-modify-writes — to the one op path in
//! `exec.rs` as a pre-materialised source, against any [`KvStore`], and
//! returns the same [`RunStats`] every driver returns.
//!
//! # Determinism
//!
//! The whole operation stream is materialized up front from
//! `spec.ops(cfg.seed)` (pure in `(seed, spec)`) and dealt round-robin to
//! the client handles; each worker then executes its slice sequentially on
//! the shared deterministic `Sim`. Nothing on this path draws from the
//! simulator RNG, so a scenario run is bit-identical given the same
//! `(seed, spec, store configuration)` — the property `bench_scenarios`
//! relies on for machine-diffable reports.

use std::rc::Rc;

use swarm_sim::Sim;
use swarm_workload::{scenario_value, ScenarioOp, ScenarioSpec};

use crate::exec::{drive, OpSource, Run, RunStats, Worker};
use crate::runner::RunConfig;
use crate::store::KvStore;

/// Scenario run parameters.
#[derive(Debug, Clone)]
pub struct ScenarioRunConfig {
    /// Seed of the scenario op stream (`ScenarioSpec::ops(seed)`).
    pub seed: u64,
    /// Register slot capacity every stored payload is padded to. In-n-Out
    /// registers (like FUSEE's blocks) are fixed-size slots, so a run's
    /// cluster is provisioned for the scenario's *largest* value
    /// (`ValueSizeDist::max_size`) and smaller logical payloads ship
    /// zero-padded — set the `StoreBuilder::value_size` to this.
    pub value_cap: usize,
}

impl Default for ScenarioRunConfig {
    fn default() -> Self {
        ScenarioRunConfig {
            seed: 1,
            value_cap: 64,
        }
    }
}

/// A mutation payload: the logical `scenario_value` zero-padded to the
/// provisioned slot capacity (the first-8-bytes tag is preserved).
fn payload(key: u64, version: u64, size: usize, cap: usize) -> Vec<u8> {
    assert!(
        size <= cap,
        "scenario value of {size} bytes exceeds the {cap}-byte slot capacity"
    );
    let mut v = scenario_value(key, version, size);
    v.resize(cap, 0);
    v
}

/// Runs the scenario stream against the given store handles (the stream is
/// dealt round-robin across them; each handle executes its slice
/// sequentially, every op measured) and returns the collected statistics.
/// Drives the simulation internally.
pub fn run_scenario<S: KvStore + 'static>(
    sim: &Sim,
    stores: &[Rc<S>],
    spec: &ScenarioSpec,
    cfg: &ScenarioRunConfig,
) -> RunStats {
    assert!(
        !stores.is_empty(),
        "a scenario run needs at least one client"
    );
    let ops = spec.ops(cfg.seed);
    let n_workers = stores.len().min(ops.len().max(1));
    // Every op is measured.
    let mut slices: Vec<Vec<(bool, ScenarioOp)>> = vec![Vec::new(); n_workers];
    for (i, op) in ops.into_iter().enumerate() {
        slices[i % n_workers].push((true, op));
    }

    let run = Rc::new(Run::default());
    let cap = cfg.value_cap;
    for (store, slice) in stores.iter().zip(slices) {
        Worker {
            source: OpSource::Planned(slice.into_iter()),
            cfg: RunConfig::default(),
            value: move |key, version, size| payload(key, version, size, cap),
            run: Rc::clone(&run),
        }
        .spawn(sim, Rc::clone(store));
    }
    drive(sim, &run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, StoreBuilder};
    use swarm_workload::{Phase, ScenarioMix, ScenarioOpClass, ValueSizeDist};

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new("mixed", 64)
            .phase(Phase::new(150, ScenarioMix::E).theta(0.9))
            .phase(Phase::new(150, ScenarioMix::F).theta(0.99).rotate(32))
            .values(ValueSizeDist::Bimodal {
                small: 32,
                large: 64,
                large_pct: 10,
            })
    }

    #[test]
    fn scenario_run_covers_scans_and_rmws() {
        let sim = Sim::new(31);
        let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(&sim);
        cluster.load_keys(64, |k| vec![k as u8; 64]);
        let clients: Vec<_> = (0..2).map(|i| cluster.client(i)).collect();
        let stats = run_scenario(&sim, &clients, &spec(), &ScenarioRunConfig::default());
        assert_eq!(stats.measured_ops, 300);
        assert!(!stats.lat(ScenarioOpClass::Scan).is_empty(), "E ran scans");
        assert!(!stats.lat(ScenarioOpClass::Rmw).is_empty(), "F ran RMWs");
        assert!(stats.scanned_items > 0);
        assert!(stats.throughput_ops() > 0.0);
        // All 64 keys are loaded, so gets/scans/RMWs only fail when an
        // insert has not yet landed — bounded by the insert count.
        assert!(stats.failed_ops <= stats.lat(ScenarioOpClass::Insert).len() as u64);
    }

    #[test]
    fn scenario_run_is_deterministic() {
        let run = || {
            let sim = Sim::new(32);
            let cluster = StoreBuilder::new(Protocol::Fusee).build_cluster(&sim);
            cluster.load_keys(64, |k| vec![k as u8; 64]);
            let clients: Vec<_> = (0..2).map(|i| cluster.client(i)).collect();
            let stats = run_scenario(&sim, &clients, &spec(), &ScenarioRunConfig::default());
            (
                stats.measured_ops,
                stats.failed_ops,
                stats.scanned_items,
                stats.end_ns,
                stats.lat(ScenarioOpClass::Scan).median(),
            )
        };
        assert_eq!(run(), run(), "same seed+spec+store must replay identically");
    }
}

//! Scenario runner: feeds a time-phased [`ScenarioSpec`] op stream —
//! including scans and read-modify-writes — to the one op path in
//! `exec.rs` as a pre-materialised source, against any [`KvStore`], and
//! returns the same [`RunStats`] every driver returns. A run has one value
//! size: every payload it writes is [`ScenarioRunConfig::value_cap`] bytes.
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
    /// Size of every payload the run writes, `scenario_value(key, version,
    /// value_cap)`. In-n-Out registers (like FUSEE's blocks) are fixed-size
    /// slots, so set the cluster's `StoreBuilder::value_size` to this.
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
            value: move |key, version| scenario_value(key, version, cap),
            run: Rc::clone(&run),
        }
        .spawn(sim, Rc::clone(store));
    }
    drive(sim, &run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{KvResult, ScanItems};
    use crate::{Protocol, StoreBuilder};
    use swarm_workload::{Phase, ScenarioMix, ScenarioOpClass};

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new("mixed", 64)
            .phase(Phase::new(150, ScenarioMix::E).theta(0.9))
            .phase(Phase::new(150, ScenarioMix::F).theta(0.99).rotate(32))
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

    /// Hands every op to a client, noting the size of each payload it
    /// writes.
    struct SizeProbe {
        client: Rc<crate::StoreClient>,
        sizes: std::cell::RefCell<Vec<usize>>,
    }

    impl KvStore for SizeProbe {
        async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
            self.client.get(key).await
        }
        async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
            self.sizes.borrow_mut().push(value.len());
            self.client.update(key, value).await
        }
        async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
            self.sizes.borrow_mut().push(value.len());
            self.client.insert(key, value).await
        }
        async fn delete(&self, key: u64) -> KvResult<()> {
            self.client.delete(key).await
        }
        async fn scan(&self, start: u64, limit: usize) -> KvResult<ScanItems> {
            self.client.scan(start, limit).await
        }
        fn rounds(&self) -> u64 {
            self.client.rounds()
        }
        fn endpoint(&self) -> Rc<swarm_fabric::Endpoint> {
            self.client.endpoint()
        }
        fn client_id(&self) -> usize {
            self.client.client_id()
        }
    }

    #[test]
    fn every_payload_is_value_cap_bytes() {
        let sim = Sim::new(33);
        let cap = 200;
        let cluster = StoreBuilder::new(Protocol::SafeGuess)
            .value_size(cap)
            .build_cluster(&sim);
        cluster.load_keys(64, |k| scenario_value(k, 0, cap));
        let probes: Vec<_> = (0..2)
            .map(|i| {
                Rc::new(SizeProbe {
                    client: cluster.client(i),
                    sizes: Default::default(),
                })
            })
            .collect();
        let mixes = ScenarioSpec::new("writes", 64)
            .phase(Phase::new(100, ScenarioMix::A))
            .phase(Phase::new(100, ScenarioMix::D))
            .phase(Phase::new(100, ScenarioMix::F));
        let cfg = ScenarioRunConfig {
            seed: 5,
            value_cap: cap,
        };
        run_scenario(&sim, &probes, &mixes, &cfg);
        let sizes: Vec<usize> = probes.iter().flat_map(|p| p.sizes.take()).collect();
        assert!(
            sizes.len() > 50,
            "updates, inserts and RMWs ran: {}",
            sizes.len()
        );
        assert!(sizes.iter().all(|&n| n == cap), "{sizes:?}");
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

//! Flash crowd: a time-phased scenario whose Zipfian hot set rotates
//! mid-run, driven through the scenario engine against a sharded
//! SWARM-KV cluster.
//!
//! `ScenarioSpec::flash_crowd` schedules three phases over one keyspace:
//! a calm third (theta 0.9), a crowd third at maximum skew with the hot
//! set rotated halfway across the keyspace, then a calm third again. The
//! op stream is pure in `(seed, spec)`, so the run below is
//! bit-reproducible. Running each phase as its own one-phase spec (the
//! replay trick from `TESTING.md` — rotation is absolute, not
//! cumulative) shows the crowd moving load between shards: watch the
//! per-shard routed-op imbalance jump in phase 2 and relax again in
//! phase 3. The full sweep over both protocols is `bench_scenarios`;
//! every knob is documented in `docs/SCENARIOS.md`.
//!
//! ```sh
//! cargo run --release -p swarm-examples --example flash_crowd
//! ```

use swarm_kv::{run_scenario, Protocol, ScenarioRunConfig, StoreBuilder};
use swarm_sim::Sim;
use swarm_workload::{scenario_value, ScenarioMix, ScenarioOpClass, ScenarioSpec};

const KEYS: u64 = 4096;
const OPS: usize = 6000;
const VALUE: usize = 64;
const ROUTERS: usize = 4;

fn main() {
    let sim = Sim::new(0xF1A5);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(VALUE)
        .max_clients(ROUTERS)
        .shards(4)
        .build_sharded(&sim);
    cluster.load_keys(KEYS, |k| scenario_value(k, 0, VALUE));
    let routers = cluster.routers(ROUTERS);

    // The canonical three-phase schedule, split into one spec per phase so
    // each phase's stats print separately. `spec.phases` holds the exact
    // (ops, mix, theta, rotation) tuples the whole-run spec would execute.
    let whole = ScenarioSpec::flash_crowd("flash_crowd", ScenarioMix::B, KEYS, OPS);
    println!(
        "flash crowd: {} ops over {} keys, YCSB B, {} phases\n",
        whole.total_ops(),
        whole.n_keys,
        whole.phases.len()
    );

    let mut routed_before = vec![0u64; cluster.num_shards()];
    for (i, phase) in whole.phases.iter().enumerate() {
        let spec = ScenarioSpec::new(format!("phase{i}"), KEYS).phase(*phase);
        let cfg = ScenarioRunConfig {
            // Distinct stream seed per phase, like slicing the whole run.
            seed: 42 + i as u64,
            value_cap: VALUE,
        };
        let stats = run_scenario(&sim, &routers, &spec, &cfg);

        // Router counters are cumulative; the per-phase load is the delta.
        let routed_now: Vec<u64> =
            routers
                .iter()
                .fold(vec![0u64; cluster.num_shards()], |mut acc, r| {
                    for (s, n) in r.routed_per_shard().iter().enumerate() {
                        acc[s] += n;
                    }
                    acc
                });
        let phase_load: Vec<u64> = routed_now
            .iter()
            .zip(&routed_before)
            .map(|(now, before)| now - before)
            .collect();
        routed_before = routed_now;
        let max = *phase_load.iter().max().unwrap() as f64;
        let mean = phase_load.iter().sum::<u64>() as f64 / phase_load.len() as f64;

        println!(
            "phase {i}: theta {:.2}, rotation {:>5}  ->  {:>6.0} ops/s, \
             get p50 {:>5} ns, p99 {:>5} ns",
            phase.theta,
            phase.rotation,
            stats.throughput_ops(),
            stats.lat(ScenarioOpClass::Get).percentile(50.0),
            stats.lat(ScenarioOpClass::Get).percentile(99.0),
        );
        println!(
            "         per-shard ops {:?}, imbalance {:.2}x\n",
            phase_load,
            max / mean
        );
    }
}

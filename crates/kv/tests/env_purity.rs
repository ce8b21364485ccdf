//! `swarm_kv` is a function of its arguments: the harness's environment
//! knobs are read in `swarm-bench` and never reach the library.
//!
//! One test, alone in this file, so it owns its process's environment.

use swarm_kv::{plan_workload, run_workload, Protocol, RunConfig, ShardSpec, StoreBuilder};
use swarm_sim::Sim;
use swarm_workload::{Workload, WorkloadSpec};

#[test]
fn harness_environment_does_not_reach_the_library() {
    std::env::set_var("SWARM_BENCH_OPS_SCALE", "0.01");
    std::env::set_var("SWARM_BENCH_THREADS", "1");
    let cfg = RunConfig {
        warmup_ops: 0,
        measure_ops: 2_000,
        ..Default::default()
    };
    let wl = Workload::ycsb(WorkloadSpec::B, 256, 64);

    let sim = Sim::new(5);
    let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(&sim);
    cluster.load_keys(256, |k| vec![k as u8; 64]);
    let stats = run_workload(&sim, &cluster.clients(2), &wl, &cfg);
    assert_eq!(
        stats.measured_ops, 2_000,
        "run_workload runs what it is given"
    );

    let plan = plan_workload(5, ShardSpec::new(2), &wl, &cfg, 2);
    assert_eq!(
        plan.ops_total(),
        2_000,
        "plan_workload plans what it is given"
    );
}

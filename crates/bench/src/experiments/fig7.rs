//! Figure 7: per-core throughput–latency of SWARM-KV and DM-ABD, YCSB A and
//! B, varying the number of concurrent operations per client from 1 to 8.
//!
//! Cells run threaded through the sweep driver (`SWARM_BENCH_THREADS`) and
//! merge in deterministic cell order.

use crate::{mean_latency_ns, run_system, sweep, write_csv, ExpParams, Protocol};
use swarm_workload::ScenarioMix;

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let base = ExpParams {
        n_keys: 100_000,
        warmup_ops: 30_000,
        measure_ops: 80_000,
        ..Default::default()
    }
    .sized(quick);

    let mut cells = Vec::new();
    for (wl_name, spec) in [("A", ScenarioMix::A), ("B", ScenarioMix::B)] {
        for sys in [Protocol::SafeGuess, Protocol::Abd] {
            for conc in 1..=8usize {
                cells.push((wl_name, spec, sys, conc));
            }
        }
    }
    let results = sweep(&cells, |&(_, spec, sys, conc)| {
        let p = ExpParams {
            concurrency: conc,
            ..base.clone()
        };
        let (stats, _, _) = run_system(p.seed, sys, &p, spec, |_| {});
        let kops_per_core = stats.throughput_ops() / 1e3 / p.clients as f64;
        let avg = mean_latency_ns(&stats) / 1e3;
        (kops_per_core, avg)
    });

    let mut results = results.into_iter();
    for (wl_name, _) in [("A", ScenarioMix::A), ("B", ScenarioMix::B)] {
        println!("Figure 7: YCSB {wl_name}, per-core throughput vs average latency");
        println!(
            "{:<10} {:>5} {:>12} {:>12}",
            "system", "conc", "kops/core", "avg_lat_us"
        );
        for sys in [Protocol::SafeGuess, Protocol::Abd] {
            let mut rows = Vec::new();
            for conc in 1..=8usize {
                let (kops_per_core, avg) = results.next().expect("one result per cell");
                println!(
                    "{:<10} {:>5} {:>12.0} {:>12.2}",
                    sys.name(),
                    conc,
                    kops_per_core,
                    avg
                );
                rows.push(format!("{conc},{kops_per_core:.1},{avg:.3}"));
            }
            write_csv(
                "fig7",
                &format!("ycsb{wl_name}_{}", sys.name()),
                "concurrency,kops_per_core,avg_latency_us",
                &rows,
            );
        }
    }
    println!("\npaper: SWARM-KV YCSB A: 264 kops @2.7us (1 op) -> ~640 kops max;");
    println!(
        "       YCSB B: 389 kops @2.4us -> 1030 kops max @5 ops; wall from CPU submission cost"
    );
}

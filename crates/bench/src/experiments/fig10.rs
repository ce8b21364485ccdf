//! Figure 10: impact of the replication factor (3, 5, 7 replicas per key)
//! on median latency (whiskers P1/P99) and per-client throughput, SWARM-KV
//! vs DM-ABD, YCSB B. With only 4 memory nodes, 5 and 7 replicas co-locate
//! some replicas (§7.5).

use crate::{run_system, write_csv, ExpParams, Protocol};
use swarm_workload::{ScenarioMix, ScenarioOpClass};

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let p0 = ExpParams {
        n_keys: 20_000,
        warmup_ops: 20_000,
        measure_ops: 60_000,
        ..Default::default()
    }
    .sized(quick);
    println!("Figure 10: replication factor sweep, YCSB B");
    println!(
        "{:<10} {:>9} {:>18} {:>20} {:>12}",
        "system", "replicas", "get med(p1/p99)us", "update med(p1/p99)us", "kops/client"
    );
    for sys in [Protocol::SafeGuess, Protocol::Abd] {
        let mut rows = Vec::new();
        for replicas in [3usize, 5, 7] {
            let p = ExpParams {
                replicas,
                ..p0.clone()
            };
            let (stats, _, _) = run_system(p.seed, sys, &p, ScenarioMix::B, |_| {});
            let mut g = stats.lat(ScenarioOpClass::Get);
            let mut u = stats.lat(ScenarioOpClass::Update);
            let t = stats.throughput_ops() / 1e3 / p.clients as f64;
            println!(
                "{:<10} {:>9} {:>7.2} ({:.2}/{:.2}) {:>9.2} ({:.2}/{:.2}) {:>12.0}",
                sys.name(),
                replicas,
                g.median() as f64 / 1e3,
                g.percentile(1.0) as f64 / 1e3,
                g.percentile(99.0) as f64 / 1e3,
                u.median() as f64 / 1e3,
                u.percentile(1.0) as f64 / 1e3,
                u.percentile(99.0) as f64 / 1e3,
                t,
            );
            rows.push(format!(
                "{replicas},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{t:.1}",
                g.median() as f64 / 1e3,
                g.percentile(1.0) as f64 / 1e3,
                g.percentile(99.0) as f64 / 1e3,
                u.median() as f64 / 1e3,
                u.percentile(1.0) as f64 / 1e3,
                u.percentile(99.0) as f64 / 1e3,
            ));
        }
        write_csv(
            "fig10",
            sys.name(),
            "replicas,get_med,get_p1,get_p99,upd_med,upd_p1,upd_p99,kops_per_client",
            &rows,
        );
    }
    println!("\npaper: SWARM-KV 2.3us gets / 3.0us updates @3 replicas; +0.2us gets and");
    println!("       +0.5us updates per 2 extra replicas; tput -9% (3->5), -7% (5->7)");
}

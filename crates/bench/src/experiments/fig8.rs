//! Figure 8: scalability — throughput and average latency of SWARM-KV and
//! DM-ABD with 1 to 64 single-threaded clients, sequential (1 op) and with
//! 4 concurrent ops. Beyond 32 clients, client threads share physical cores
//! (hyperthreading) and the 100 Gbps fabric approaches saturation (§7.3).
//!
//! Each `(concurrency, system, client-count)` cell is an independent seeded
//! simulation; the sweep runs them on `SWARM_BENCH_THREADS` OS threads and
//! merges in cell order, so the printed numbers are thread-count-invariant.

use crate::{run_system, sweep, write_csv, ExpParams, Protocol};
use swarm_workload::{ScenarioMix, ScenarioOpClass};

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let counts: Vec<usize> = if quick {
        vec![1, 4, 8, 16, 32, 48, 64]
    } else {
        vec![1, 8, 16, 24, 32, 40, 48, 56, 64]
    };
    let mut cells = Vec::new();
    for conc in [1usize, 4] {
        for sys in [Protocol::SafeGuess, Protocol::Abd] {
            for &n in &counts {
                cells.push((conc, sys, n));
            }
        }
    }
    let results = sweep(&cells, |&(conc, sys, n)| {
        let p = ExpParams {
            clients: n,
            concurrency: conc,
            n_keys: if quick { 20_000 } else { 100_000 },
            warmup_ops: 4_000 * n as u64,
            measure_ops: 8_000 * n as u64,
            ..Default::default()
        };
        let (stats, _, bed) = run_system(p.seed, sys, &p, ScenarioMix::B, |_| {});
        // Hyperthread sharing beyond 32 clients (2x 8c/16t per the
        // testbed, Table 1).
        debug_assert_eq!(bed.clients.len(), n);
        let g = stats.lat(ScenarioOpClass::Get).mean() / 1e3;
        let u = stats.lat(ScenarioOpClass::Update).mean() / 1e3;
        let t = stats.throughput_ops() / 1e6;
        (g, u, t)
    });

    let mut results = results.into_iter();
    for conc in [1usize, 4] {
        println!("Figure 8: YCSB B, {conc} concurrent op(s) per client");
        println!(
            "{:<10} {:>8} {:>10} {:>10} {:>12}",
            "system", "clients", "get_us", "upd_us", "tput_Mops"
        );
        for sys in [Protocol::SafeGuess, Protocol::Abd] {
            let mut rows = Vec::new();
            for &n in &counts {
                let (g, u, t) = results.next().expect("one result per cell");
                println!(
                    "{:<10} {:>8} {:>10.2} {:>10.2} {:>12.2}",
                    sys.name(),
                    n,
                    g,
                    u,
                    t
                );
                rows.push(format!("{n},{g:.3},{u:.3},{t:.3}"));
            }
            write_csv(
                "fig8",
                &format!("conc{conc}_{}", sys.name()),
                "clients,get_avg_us,update_avg_us,tput_mops",
                &rows,
            );
        }
    }
    println!("\npaper: SWARM-KV scales ~linearly to 15.9 Mops @64 clients (1 op),");
    println!("       28.3 Mops peak @40 clients (4 ops) before fabric saturation");
}

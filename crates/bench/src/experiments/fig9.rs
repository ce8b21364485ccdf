//! Figure 9: impact of value size (16 B – 8 KiB) on SWARM-KV latency and
//! throughput, for YCSB A and B, compared against a SWARM-KV variant
//! without in-place updates ("Out-P.").
//!
//! Cells run threaded through the sweep driver (`SWARM_BENCH_THREADS`) and
//! merge in deterministic cell order.

use crate::{run_system, sweep, write_csv, ExpParams, Protocol};
use swarm_workload::{OpType, WorkloadSpec};

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let sizes = [16usize, 64, 256, 1024, 4096, 8192];
    let mut cells = Vec::new();
    for (wl_name, spec) in [("A", WorkloadSpec::A), ("B", WorkloadSpec::B)] {
        for inplace in [true, false] {
            for &vs in &sizes {
                cells.push((wl_name, spec, inplace, vs));
            }
        }
    }
    let results = sweep(&cells, |&(_, spec, inplace, vs)| {
        let p = ExpParams {
            value_size: vs,
            inplace,
            n_keys: if quick { 20_000 } else { 100_000 },
            warmup_ops: if quick { 20_000 } else { 100_000 },
            measure_ops: if quick { 40_000 } else { 400_000 },
            concurrency: 4,
            ..Default::default()
        };
        let (stats, _, _) = run_system(p.seed, Protocol::SafeGuess, &p, spec, |_| {});
        let g = stats.lat(OpType::Get).mean() / 1e3;
        let u = stats.lat(OpType::Update).mean() / 1e3;
        let t = stats.throughput_ops() / 1e6;
        (g, u, t)
    });

    let mut results = results.into_iter();
    for (wl_name, _) in [("A", WorkloadSpec::A), ("B", WorkloadSpec::B)] {
        println!("Figure 9: YCSB {wl_name}, value-size sweep");
        println!(
            "{:<10} {:>8} {:>10} {:>10} {:>12}",
            "variant", "size", "get_us", "upd_us", "tput_Mops"
        );
        for inplace in [true, false] {
            let name = if inplace { "In-n-Out" } else { "Out-P." };
            let mut rows = Vec::new();
            for &vs in &sizes {
                let (g, u, t) = results.next().expect("one result per cell");
                println!("{:<10} {:>8} {:>10.2} {:>10.2} {:>12.3}", name, vs, g, u, t);
                rows.push(format!("{vs},{g:.3},{u:.3},{t:.3}"));
            }
            write_csv(
                "fig9",
                &format!("ycsb{wl_name}_{name}"),
                "value_bytes,get_avg_us,update_avg_us,tput_mops",
                &rows,
            );
        }
    }
    println!("\npaper: latency grows linearly with value size; 8 KiB still single-digit us;");
    println!("       gets with in-place data are ~33% faster at 8 KiB; updates equal;");
    println!("       In-n-Out gives higher total throughput (+50% at 8 KiB, YCSB B)");
}

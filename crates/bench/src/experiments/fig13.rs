//! Figure 13 / §7.9: scalability of the CAS-emulated max register — vary
//! the number of In-n-Out 8 B metadata buffers per key (1, 4, 16, 64) with
//! 64 clients, YCSB B. More buffers make 1-roundtrip updates common (each
//! writer CASes its own word) at the price of slightly larger reads.
//!
//! Cells run threaded through the sweep driver (`SWARM_BENCH_THREADS`) and
//! merge in deterministic cell order.

use crate::{report_cdf, run_system, sweep, write_csv, ExpParams, Protocol};
use swarm_workload::{ScenarioMix, ScenarioOpClass};

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    println!("Figure 13: metadata buffers per key, 64 clients, YCSB B");
    let cells = [1usize, 4, 16, 64];
    let results = sweep(&cells, |&bufs| {
        let p = ExpParams {
            clients: 64,
            meta_bufs: Some(bufs),
            n_keys: if quick { 5_000 } else { 100_000 },
            warmup_ops: if quick { 30_000 } else { 500_000 },
            measure_ops: if quick { 60_000 } else { 1_000_000 },
            ..Default::default()
        };
        let (stats, _, _) = run_system(p.seed, Protocol::SafeGuess, &p, ScenarioMix::B, |rc| {
            rc.record_rtts = true;
            rc.prewarm_keys = Some(p.n_keys); // steady-state caches
        });
        let one_rtt = stats.rtt_fraction(ScenarioOpClass::Update, 1) * 100.0;
        (
            stats.lat(ScenarioOpClass::Get),
            stats.lat(ScenarioOpClass::Update),
            one_rtt,
        )
    });

    let mut rows = Vec::new();
    for (&bufs, (mut get, mut upd, one_rtt)) in cells.iter().zip(results) {
        println!("{bufs} buffer(s):");
        report_cdf("fig13", &format!("{bufs}bufs_get"), &mut get);
        report_cdf("fig13", &format!("{bufs}bufs_update"), &mut upd);
        println!("    updates completing in 1 rtt: {one_rtt:.0}%");
        rows.push(format!("{bufs},{one_rtt:.1}"));
    }
    write_csv(
        "fig13",
        "one_rtt_updates",
        "meta_bufs,percent_updates_1rtt",
        &rows,
    );
    println!("\npaper: 1-rtt updates 23% (1 buf) / 57% (4) / 86% (16) / 99% (64);");
    println!("       gets median grows 3.1 -> 3.6 us from 1 to 64 buffers");
}

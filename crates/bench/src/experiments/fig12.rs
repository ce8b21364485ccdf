//! Figure 12: extreme contention — 16 clients hammering a single key with
//! YCSB A. SWARM-KV gets stay live but their tail degrades (iterating and
//! helping the max register); updates stay within a few roundtrips thanks
//! to the per-writer metadata buffers. DM-ABD degrades much more (§7.8).

use crate::{report_cdfs, run_system, write_csv, ExpParams, Protocol};
use swarm_workload::{OpType, WorkloadSpec};

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let p = ExpParams {
        n_keys: 1,
        clients: 16,
        warmup_ops: 4_000,
        measure_ops: 40_000,
        ..Default::default()
    }
    .sized(quick);
    println!("Figure 12: single key, 16 clients, YCSB A");
    for sys in [Protocol::SafeGuess, Protocol::Abd] {
        let (stats, _, _) = run_system(p.seed, sys, &p, WorkloadSpec::A, |rc| {
            rc.record_rtts = true;
        });
        println!("{}:", sys.name());
        report_cdfs("fig12", sys.name(), &stats);
        // §7.8's roundtrip breakdown.
        let mut rows = Vec::new();
        for op in [OpType::Get, OpType::Update] {
            for r in 1..=6u64 {
                let f = stats.rtt_fraction(op, r);
                if f > 0.001 {
                    println!("    {op:?} in {r} rtt(s): {:.1}%", f * 100.0);
                    rows.push(format!("{op:?},{r},{:.3}", f * 100.0));
                }
            }
        }
        write_csv(
            "fig12",
            &format!("{}_rtts", sys.name()),
            "op,rtts,percent",
            &rows,
        );
    }
    println!("\npaper (SWARM-KV): gets p99 ~30us (14% 1-rtt, 8% 2-rtt, 78% more);");
    println!("       updates <=4 rtts, p99 ~10us (73% 1-rtt); DM-ABD far worse");
}

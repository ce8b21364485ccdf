//! Table 2: number of roundtrips for gets and updates — common case and
//! 99th percentile — under YCSB B (§7.1's standard workload).

use crate::{run_system, write_csv, ExpParams, Protocol};
use swarm_workload::{ScenarioMix, ScenarioOpClass};

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let p = ExpParams {
        n_keys: 10_000,
        warmup_ops: 60_000, // covers the key space so locations are cached
        measure_ops: 60_000,
        ..Default::default()
    }
    .sized(quick);

    println!("Table 2: roundtrips for gets and updates (common / P99)");
    println!(
        "{:<10} {:>12} {:>14} {:>9} {:>11}",
        "system", "get common", "update common", "get p99", "update p99"
    );
    let mut rows = Vec::new();
    for sys in Protocol::all() {
        let (stats, _, _) = run_system(p.seed, sys, &p, ScenarioMix::B, |rc| {
            rc.record_rtts = true;
            // Table 2 reports the steady state: all locations cached.
            rc.prewarm_keys = Some(p.n_keys);
        });
        let common = |op: ScenarioOpClass| {
            // The most frequent roundtrip count.
            stats
                .rtt_counts(op)
                .iter()
                .max_by_key(|&(_, &c)| c)
                .map(|(&r, _)| r)
                .unwrap_or(0)
        };
        let (gc, uc) = (
            common(ScenarioOpClass::Get),
            common(ScenarioOpClass::Update),
        );
        let gp = stats.rtt_percentile(ScenarioOpClass::Get, 99.0);
        let up = stats.rtt_percentile(ScenarioOpClass::Update, 99.0);
        println!(
            "{:<10} {:>12} {:>14} {:>9} {:>11}",
            sys.name(),
            gc,
            uc,
            gp,
            up
        );
        rows.push(format!("{},{gc},{uc},{gp},{up}", sys.name()));
    }
    write_csv(
        "table2",
        "roundtrips",
        "system,get_common,update_common,get_p99,update_p99",
        &rows,
    );
    println!("\npaper: RAW 1/1/1/1, SWARM-KV 1/1/1/1, DM-ABD 2/2/2/2, FUSEE 1-2/4/2/5");
}

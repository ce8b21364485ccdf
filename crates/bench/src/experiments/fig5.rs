//! Figure 5: latency CDFs of RAW, SWARM-KV, DM-ABD and FUSEE with YCSB
//! workload B, Zipfian keys, 4 clients, 100 K keys, 64 B values.

use crate::{report_cdfs, run_system, ExpParams, Protocol};
use swarm_workload::ScenarioMix;

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let p = ExpParams::default().sized(quick);
    println!(
        "Figure 5: latency CDFs, YCSB B, {} keys, {} clients",
        p.n_keys, p.clients
    );
    for sys in Protocol::all() {
        let (stats, _, _) = run_system(p.seed, sys, &p, ScenarioMix::B, |_| {});
        println!("{}:", sys.name());
        report_cdfs("fig5", sys.name(), &stats);
    }
    println!("\npaper medians (us): gets RAW 1.9 / SWARM 2.4 / FUSEE 2.9 / DM-ABD 4.3");
    println!("                    updates RAW 1.6 / SWARM 3.1 / DM-ABD 4.9 / FUSEE 8.5");
}

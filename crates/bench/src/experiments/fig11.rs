//! Figure 11: latency and throughput of a SWARM-KV client around the crash
//! of a memory node (at t = 0 in the plot; mid-run here). Availability is
//! uninterrupted: operations merely widen their quorums to additional
//! replicas; latency rises briefly (timeouts + lost in-place data +
//! lost unanimity) and recovers as subsequent writes rebuild state (§7.7).

use crate::{build, run_workload, write_csv, ExpParams, Protocol};
use swarm_fabric::NodeId;
use swarm_sim::{Sim, NANOS_PER_MILLI};
use swarm_workload::ScenarioMix;

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let p = ExpParams {
        n_keys: if quick { 10_000 } else { 100_000 },
        warmup_ops: 0,
        measure_ops: u64::MAX / 2,
        concurrency: 2,
        ..Default::default()
    };
    let crash_at = 100 * NANOS_PER_MILLI;
    let end_at = 400 * NANOS_PER_MILLI;

    let sim = Sim::new(p.seed);
    let bed = build(&sim, Protocol::SafeGuess, &p);
    bed.cluster
        .membership()
        .expect("SWARM-KV has a membership service")
        .watch_until(end_at);
    let c2 = bed.cluster.clone();
    sim.schedule_at(crash_at, move |_| {
        c2.crash_node(NodeId(0));
        eprintln!("[sim] crashed memory node 0");
    });

    let mut rc = p.run_config();
    rc.deadline_ns = Some(end_at);
    rc.bucket_ns = Some(2 * NANOS_PER_MILLI);
    let wl = p.workload(ScenarioMix::A);
    let stats = run_workload(&sim, &bed.clients, &wl, &rc);

    println!("Figure 11: SWARM-KV around a memory-node crash (t=0 at the crash)");
    println!("{:>10} {:>12} {:>12}", "t_ms", "kops", "avg_lat_us");
    let series = stats.series.expect("time series enabled");
    let mut rows = Vec::new();
    let mut min_tput = f64::MAX;
    let mut before = 0.0;
    let mut after_spike = 0.0_f64;
    for (start, count, mean_lat) in series.buckets() {
        let t_ms = (start as f64 - crash_at as f64) / 1e6;
        let kops = count as f64 / (series.bucket_ns() as f64 / 1e9) / 1e3;
        if count > 0 && start > 10 * NANOS_PER_MILLI && start < end_at - 4 * NANOS_PER_MILLI {
            if start < crash_at {
                before = kops;
            } else {
                min_tput = min_tput.min(kops);
                after_spike = after_spike.max(mean_lat / 1e3);
            }
        }
        if (-40.0..=240.0).contains(&t_ms) {
            println!("{:>10.1} {:>12.1} {:>12.2}", t_ms, kops, mean_lat / 1e3);
        }
        rows.push(format!("{t_ms:.2},{kops:.2},{:.3}", mean_lat / 1e3));
    }
    write_csv("fig11", "timeline", "t_ms,kops,avg_latency_us", &rows);
    println!(
        "\nthroughput before crash {:.0} kops, minimum after {:.0} kops, peak avg latency {:.1} us",
        before, min_tput, after_spike
    );
    println!("paper: no downtime; latency spikes briefly, recovers within seconds;");
    println!("       synchronous systems (FUSEE) take tens of ms of unavailability instead");
}

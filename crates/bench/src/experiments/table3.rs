//! Table 3: resource consumption — per-client CPU utilization, cache size,
//! IO bandwidth, and disaggregated-memory footprint — for 1 M keys, 1 KiB
//! values, YCSB B, 4 clients at 200 kops each.
//!
//! Memory is the modeled live footprint (rings are recycled storage, as the
//! paper's GC would reclaim them); CPU follows the polling-client model:
//! a client core is busy for the whole operation (issue + poll) plus
//! per-op application work.

use crate::{mean_latency_ns, run_system, write_csv, ExpParams, Protocol};
use swarm_kv::OP_OVERHEAD_NS;
use swarm_sim::NANOS_PER_SEC;
use swarm_workload::WorkloadSpec;

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let n_keys_model = 1_000_000u64; // Table 3's accounting keyspace
    let p0 = ExpParams {
        n_keys: if quick { 50_000 } else { 1_000_000 },
        value_size: 1024,
        warmup_ops: if quick { 20_000 } else { 200_000 },
        measure_ops: if quick { 80_000 } else { 800_000 },
        ..Default::default()
    };
    let pace_ns = 5_000; // 200 kops per client
    println!("Table 3: resource consumption (1 KiB values, 4 clients x 200 kops, YCSB B)");
    println!(
        "{:<10} {:>7} {:>11} {:>10} {:>12}",
        "system", "CPU%", "cache_MiB", "IO_Gbps", "mem_GiB"
    );
    let mut rows = Vec::new();
    for sys in Protocol::all() {
        let p = p0.clone();
        let (stats, _, bed) = run_system(p.seed, sys, &p, WorkloadSpec::B, |rc| {
            rc.pace_ns = Some(pace_ns);
        });
        let dur_ns = (stats.end_ns - stats.start_ns).max(1);

        // CPU%: polling clients are busy for issue + poll + app work, the
        // per-op charge every driver's workers pay.
        let avg_lat = mean_latency_ns(&stats);
        let rate_per_client = NANOS_PER_SEC as f64 / pace_ns as f64;
        let busy_ns = avg_lat + OP_OVERHEAD_NS as f64;
        let cpu_pct = (rate_per_client * busy_ns / NANOS_PER_SEC as f64 * 100.0).min(100.0);

        // Cache: entries * modeled entry bytes, for the 1M-key keyspace.
        let entry_bytes = if sys == Protocol::SafeGuess { 32 } else { 24 };
        let cache_mib = n_keys_model as f64 * entry_bytes as f64 / (1 << 20) as f64;

        // IO: fabric bytes + index bytes over the measured window, scaled to
        // the full 800 kops rate. (FUSEE's model folds index cost into its
        // own roundtrips, so its index_bytes is 0.)
        let fabric_bytes = bed.cluster.fabric().stats().bytes;
        let io_gbps = (fabric_bytes + bed.cluster.index_bytes()) as f64 * 8.0 / dur_ns as f64;

        // Disaggregated memory: modeled per-key footprint x 1M keys.
        let per_key = bed.cluster.modeled_bytes_per_key();
        let mem_gib = per_key as f64 * n_keys_model as f64 / (1u64 << 30) as f64;

        println!(
            "{:<10} {:>7.1} {:>11.1} {:>10.2} {:>12.2}",
            sys.name(),
            cpu_pct,
            cache_mib,
            io_gbps,
            mem_gib
        );
        rows.push(format!(
            "{},{cpu_pct:.1},{cache_mib:.1},{io_gbps:.2},{mem_gib:.2}",
            sys.name()
        ));
    }
    write_csv(
        "table3",
        "resources",
        "system,cpu_pct,cache_mib,io_gbps,mem_gib",
        &rows,
    );
    println!("\npaper: RAW 46.6%/22.9/6.55/0.95, DM-ABD 99.0%/22.9/6.99/3.00,");
    println!("       SWARM-KV 61.3%/30.5/7.41/4.06, FUSEE 74.2%/22.9/8.15/2.04");
}

//! Online-resharding bench (beyond the paper): the throughput/latency
//! timeline of a SWARM-KV replica group before, during, and after an
//! elastic split migrates half its keyspace to a freshly built group —
//! under the YCSB A mix (50/50 read/update, Zipfian .99 hot keys).
//!
//! Two cells run on their own seeded `Sim`s: a *static* control (the same
//! elastic family, no migration) and the *split* cell, whose migration
//! driver copies the upper half-range key by key behind a double-write
//! window, then seals ownership with an epoch bump. The interesting
//! numbers are the throughput dip while the copier contends for per-key
//! locks and the clean recovery once the seal lands — availability is
//! never interrupted, exactly like the paper's memory-node-crash timeline
//! (Figure 11), but for a *planned* reconfiguration.
//!
//! **stdout is the deterministic report** (simulated metrics only; safe
//! to diff across thread counts and hosts). Wall-clock seconds per cell
//! go to **stderr** and `*_wall.csv`. Default is a quick 2^13-key run;
//! `--full` loads 2^16 keys and stretches the timeline. The headline — the
//! dip while the migration copies, the recovery after the seal — is
//! asserted on every run, so the bench needs its unscaled volume: under
//! `SWARM_BENCH_OPS_SCALE` the workload ends before the split starts.

use std::time::Instant;

use crate::{
    env_scaled_keys, report_wall, run_workload, sweep, sweep_threads, write_csv, ExpParams,
    Protocol,
};
use swarm_kv::{ElasticShard, ReshardEvent};
use swarm_sim::{Nanos, Sim, NANOS_PER_MILLI};
use swarm_workload::WorkloadSpec;

/// Base RNG label of the elastic family (group g derives its own stream
/// from this, so the whole bench is a pure function of the seed).
const BASE_LABEL: u64 = 0xE1A5_BEA4_0001;

/// Keys moved per pace tick: the migration copies one key per
/// `PACE_NS`, slow enough to stretch the window across many buckets.
const PACE_NS: Nanos = 1_000;

struct Cell {
    split: bool,
}

struct CellResult {
    buckets: Vec<(Nanos, u64, f64)>,
    bucket_ns: Nanos,
    tput_kops: f64,
    measured_ops: u64,
    stats: swarm_kv::ReshardStats,
    wall_secs: f64,
}

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let n_keys: u64 = if quick { 1 << 13 } else { 1 << 16 };
    let split_at = if quick { 40 } else { 100 } * NANOS_PER_MILLI;
    let end_at = if quick { 140 } else { 400 } * NANOS_PER_MILLI;
    eprintln!(
        "bench_reshard: {} sweep thread(s), 2 cells",
        sweep_threads()
    );

    let p = ExpParams {
        n_keys,
        warmup_ops: 0,
        measure_ops: u64::MAX / 2,
        concurrency: 2,
        meta_bufs: Some(4),
        ..Default::default()
    };

    let cells = [Cell { split: false }, Cell { split: true }];
    let results = sweep(&cells, |cell| {
        let wall = Instant::now();
        let sim = Sim::new(p.seed);
        // One extra client id: the family reserves the top one for its
        // migration driver.
        let builder = p.builder(Protocol::SafeGuess).max_clients(p.clients + 1);
        let family = ElasticShard::build(&sim, &builder, BASE_LABEL);
        let wl = p.workload(WorkloadSpec::A);
        for k in 0..env_scaled_keys(p.n_keys) {
            family.load_key(k, &wl.value_for(k, 0));
        }
        let clients: Vec<_> = (0..p.clients).map(|i| family.client(i)).collect();
        if cell.split {
            family.run_event(&ReshardEvent::split(0, split_at, 500).pace_ns(PACE_NS));
        }
        let mut rc = p.run_config();
        rc.deadline_ns = Some(end_at);
        rc.bucket_ns = Some(2 * NANOS_PER_MILLI);
        let stats = run_workload(&sim, &clients, &wl, &rc);
        let series = stats.series.as_ref().expect("time series enabled");
        CellResult {
            buckets: series.buckets().collect(),
            bucket_ns: series.bucket_ns(),
            tput_kops: stats.throughput_ops() / 1e3,
            measured_ops: stats.measured_ops,
            stats: family.stats(),
            wall_secs: wall.elapsed().as_secs_f64(),
        }
    });
    let [base, split] = <[CellResult; 2]>::try_from(results)
        .unwrap_or_else(|_| unreachable!("two cells, two results"));

    println!(
        "bench_reshard: SWARM-KV elastic split, YCSB A (Zipfian .99), {} keys, \
         {} clients (t=0 at the split)",
        n_keys, p.clients
    );
    let seal_at = split
        .stats
        .last_seal_ns
        .expect("the split must seal before the deadline");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "t_ms", "base_kops", "split_kops", "lat_us"
    );
    let to_kops = |count: u64, bucket_ns: Nanos| count as f64 / (bucket_ns as f64 / 1e9) / 1e3;
    let mut rows = Vec::new();
    let mut phase = [(0.0, 0u64); 3]; // (kops sum, buckets) before / during / after
    for (&(start, bc, _), &(_, sc, lat)) in base.buckets.iter().zip(&split.buckets) {
        let t_ms = (start as f64 - split_at as f64) / 1e6;
        let (bk, sk) = (to_kops(bc, base.bucket_ns), to_kops(sc, split.bucket_ns));
        // Skip the partial first/last buckets when averaging phases.
        if sc > 0 && start > 4 * NANOS_PER_MILLI && start < end_at - 4 * NANOS_PER_MILLI {
            let i = if start + split.bucket_ns <= split_at {
                0
            } else if start < seal_at {
                1
            } else {
                2
            };
            phase[i].0 += sk;
            phase[i].1 += 1;
        }
        if (-20.0..=80.0).contains(&t_ms) {
            println!(
                "{:>10.1} {:>12.1} {:>12.1} {:>12.2}",
                t_ms,
                bk,
                sk,
                lat / 1e3
            );
        }
        rows.push(format!("{t_ms:.2},{bk:.2},{sk:.2},{:.3}", lat / 1e3));
    }
    write_csv(
        "bench_reshard",
        "timeline",
        "t_ms,base_kops,split_kops,split_avg_latency_us",
        &rows,
    );

    let avg = |(sum, n): (f64, u64)| sum / (n.max(1) as f64);
    let (before, during, after) = (avg(phase[0]), avg(phase[1]), avg(phase[2]));
    let s = &split.stats;
    println!(
        "\nsplit: sealed {} (epoch {}, {} groups) after {:.1} ms; \
         {} keys copied, {} writes mirrored, {} stale-epoch bounces",
        s.sealed,
        s.epoch,
        s.groups,
        (seal_at - split_at) as f64 / 1e6,
        s.keys_copied,
        s.mirrored,
        s.bounces
    );
    println!(
        "throughput kops: control {:.1} overall; split {before:.1} before / {during:.1} during / \
         {after:.1} after",
        base.tput_kops
    );
    println!(
        "measured ops: control {}, split {}",
        base.measured_ops, split.measured_ops
    );
    println!("expectation: throughput dips while the copier holds per-key locks and");
    println!("every moved-range write double-writes; it recovers to the baseline as");
    println!("soon as the seal bumps the epoch. No downtime, no failed ops: stale");
    println!("routers bounce once, refresh their map, and retry within the op.");

    report_wall(
        "bench_reshard",
        "wall",
        "cell",
        [("control", base.wall_secs), ("split", split.wall_secs)],
    );

    // The headline, asserted on every run (quick and full): the migration
    // runs under traffic, dips throughput while it copies, and recovers.
    assert_eq!(s.sealed, 1, "the split seals once");
    assert!(
        phase[1].1 > 0 && phase[2].1 > 0,
        "the split must be measured during and after the migration \
         ({} / {} buckets): the workload ended before it",
        phase[1].1,
        phase[2].1
    );
    assert!(s.mirrored > 0, "no write hit the double-write window");
    assert!(s.bounces > 0, "no router bounced off the sealed epoch");
    assert!(
        during < before,
        "no dip during the migration: {during:.1} vs {before:.1} kops before"
    );
    assert!(
        after >= 0.95 * before,
        "no recovery after the seal: {after:.1} vs {before:.1} kops before"
    );
}

//! Sharded-keyspace scale bench (beyond the paper): aggregate throughput
//! and per-shard load imbalance as the keyspace partitions over 1→16
//! shards, under a uniform workload and the YCSB Zipfian (.99) hot-key mix.
//!
//! The sweep is *weak scaling* — client threads grow with the shard count
//! (a fixed count per shard) because that is exactly what sharding buys: a
//! single replica group saturates its switch fabric near the paper's
//! Figure 8 peak, while S shards offer S independent fabrics. Each cell
//! reports aggregate throughput, per-thread throughput, scaling efficiency
//! versus the 1-shard cell, and the per-shard routed-op imbalance
//! (max/mean; 1.00 = perfectly balanced). Under Zipfian .99 the hottest
//! key alone draws ~8% of all traffic, so whichever shard owns it becomes
//! the hot shard — visible directly in the imbalance column.
//!
//! # Execution model
//!
//! Every cell pre-plans its op streams ([`crate::plan_workload`]) and every
//! shard of every cell runs on its **own seeded `Sim`**
//! (`swarm_kv::run_one_shard`). The bench is one flat [`crate::sweep`] over
//! `(cell, shard)` jobs on the harness's one thread budget
//! (`SWARM_BENCH_THREADS`), and each cell's shard outcomes merge in shard
//! order — so all simulated numbers are bit-identical at any thread count.
//! Every shard records every op, and its whole history must linearize
//! (`KvHistory::check`, on the job's thread): a check prints nothing unless
//! it fails, and then the bench stops naming the cell, the shard and the
//! failure window.
//!
//! **stdout is the deterministic report** (simulated metrics only; safe to
//! diff across thread counts and hosts). Wall-clock seconds go to
//! **stderr** and `cells_wall.csv`, since elapsed time is inherently
//! nondeterministic; a cell's wall figure is the *sum of its shards'
//! seconds* (shards of one cell run wherever the sweep puts them, so the
//! sum — the cell's host cost — is the figure that means the same thing at
//! every thread count).
//!
//! Default is a quick mode over a 2^17-key space; `--full` loads the
//! million-key space.

use std::time::Instant;

use crate::{plan_workload, report_wall, sweep, sweep_threads, write_csv, ExpParams, Protocol};
use swarm_kv::{run_one_shard, RunStats, ShardRunOptions, ShardSpec};
use swarm_workload::{WorkloadSpec, Zipfian};

/// Client threads (routers) per shard: enough that a single group runs
/// close to its fabric's saturation knee, so added shards buy throughput.
const CLIENTS_PER_SHARD: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dist {
    Uniform,
    Zipfian99,
}

impl Dist {
    fn name(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Zipfian99 => "zipf.99",
        }
    }
}

/// One cell's results: simulated metrics (deterministic) plus the measured
/// wall-clock seconds (not).
struct CellResult {
    tput_mops: f64,
    measured_ops: u64,
    op_imbalance: f64,
    msg_imbalance: f64,
    wall_secs: f64,
}

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let n_keys: u64 = if quick { 1 << 17 } else { 1 << 20 };
    let shard_counts: [usize; 5] = [1, 2, 4, 8, 16];

    // Plan every cell up front (cheap next to running it): the jobs below
    // borrow the plans.
    let mut planned = Vec::new();
    for dist in [Dist::Uniform, Dist::Zipfian99] {
        for &shards in &shard_counts {
            let clients = CLIENTS_PER_SHARD * shards;
            let p = ExpParams {
                n_keys,
                clients,
                shards,
                // One metadata buffer per client would dominate the per-key
                // footprint at 96 clients; pin the paper's 4-client default.
                meta_bufs: Some(4),
                warmup_ops: 500 * clients as u64,
                measure_ops: 1_500 * clients as u64,
                ..Default::default()
            };
            let mut workload = p.workload(WorkloadSpec::B);
            if dist == Dist::Uniform {
                workload.keys = Zipfian::uniform(workload.keys.n());
            }
            let plan = plan_workload(
                p.seed,
                ShardSpec::new(shards),
                &workload,
                &p.run_config(),
                clients,
            );
            planned.push((p, workload, plan, dist));
        }
    }
    let jobs: Vec<(usize, usize)> = planned
        .iter()
        .enumerate()
        .flat_map(|(c, (p, ..))| (0..p.shards).map(move |s| (c, s)))
        .collect();
    eprintln!(
        "bench_shards: {} sweep thread(s), {} (cell, shard) jobs",
        sweep_threads(),
        jobs.len()
    );
    let opts = ShardRunOptions::default();
    let mut outcomes = sweep(&jobs, |&(c, s)| {
        let (p, workload, plan, dist) = &planned[c];
        let wall = Instant::now();
        let mut out = run_one_shard(
            &p.builder(Protocol::SafeGuess),
            p.seed,
            plan,
            workload,
            &opts,
            s,
        );
        // Every shard's whole history linearizes; it is dropped once checked.
        let checked = std::mem::take(&mut out.history).check();
        checked.unwrap_or_else(|e| panic!("bench_shards {:?} shard {s}: {e}", (dist, p.shards)));
        (out, wall.elapsed().as_secs_f64())
    })
    .into_iter();

    let max_over_mean = |counts: &[u64]| {
        let mean = counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64;
        counts.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
    };
    // Jobs are in (cell, shard) order, so each cell's outcomes are the next
    // `shards` of them, in shard order.
    let mut results = planned.iter().map(|(p, _, plan, _)| {
        let mut stats = RunStats::default();
        let mut per_shard_msgs = Vec::new();
        let mut wall_secs = 0.0;
        for (out, secs) in outcomes.by_ref().take(p.shards) {
            stats.merge(&out.stats);
            per_shard_msgs.push(out.traffic.messages);
            wall_secs += secs;
        }
        CellResult {
            tput_mops: stats.throughput_ops() / 1e6,
            measured_ops: stats.measured_ops,
            // The plan knows every op's owning shard before anything runs:
            // the routed-load imbalance is a pure function of (seed,
            // workload).
            op_imbalance: max_over_mean(&plan.per_shard_op_counts()),
            // The fabric-level view of the same skew: message counts
            // include retries and replica fan-out, so a hot shard's extra
            // quorum traffic shows up here even when op routing alone would
            // hide it.
            msg_imbalance: max_over_mean(&per_shard_msgs),
            wall_secs,
        }
    });

    let mut walls = Vec::new();
    for dist in [Dist::Uniform, Dist::Zipfian99] {
        println!(
            "bench_shards: SWARM-KV, YCSB B mix, {} distribution, {} keys, \
             {CLIENTS_PER_SHARD} clients/shard, one Sim per shard",
            dist.name(),
            n_keys
        );
        println!(
            "{:>7} {:>8} {:>11} {:>13} {:>9} {:>11} {:>11}",
            "shards", "clients", "tput_Mops", "per_client_k", "scale_eff", "op_imbal", "msg_imbal"
        );
        let mut rows = Vec::new();
        let mut base_per_client = 0.0;
        for &shards in &shard_counts {
            let r = results.next().expect("one result per cell");
            let clients = CLIENTS_PER_SHARD * shards;
            let per_client = r.tput_mops * 1e3 / clients as f64;
            if shards == 1 {
                base_per_client = per_client;
            }
            // Weak-scaling efficiency: per-client throughput retained
            // relative to the 1-shard cell.
            let eff = per_client / base_per_client;
            println!(
                "{:>7} {:>8} {:>11.2} {:>13.1} {:>9.2} {:>10.2}x {:>10.2}x",
                shards, clients, r.tput_mops, per_client, eff, r.op_imbalance, r.msg_imbalance
            );
            rows.push(format!(
                "{shards},{clients},{:.4},{per_client:.2},{eff:.3},{:.3},{:.3},{}",
                r.tput_mops, r.op_imbalance, r.msg_imbalance, r.measured_ops
            ));
            walls.push((format!("{}/{shards}", dist.name()), r.wall_secs));
        }
        write_csv(
            "bench_shards",
            dist.name(),
            "shards,clients,tput_mops,per_client_kops,scale_eff,op_imbalance,msg_imbalance,measured_ops",
            &rows,
        );
        println!();
    }
    println!("expectation: uniform throughput grows at least linearly with shards");
    println!("(every router scatters its ops over every shard, so per-shard");
    println!("pipelining deepens as clients grow with the shard count); Zipfian");
    println!(".99 concentrates ~8% of ops on the hot key's shard, so imbalance");
    println!("rises well above 1.0x and hot-shard queuing taxes the aggregate.");
    // The goldens pin this sentence; since the flat sweep the wall figure is
    // each cell's summed shard seconds (module docs), no efficiency ratio.
    println!("Wall-clock per cell and its weak-scaling efficiency (stderr +");
    println!("*_wall.csv) track the real multi-core speedup of one-Sim-per-shard");
    println!("execution.");
    report_wall("bench_shards", "cells_wall", "cell", walls);
}

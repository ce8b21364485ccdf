//! Sharded-keyspace scale bench (beyond the paper): aggregate throughput
//! and per-shard load imbalance as the keyspace partitions over 1→16
//! shards, under a uniform workload and the YCSB Zipfian (.99) hot-key mix.
//!
//! The sweep is *weak scaling*: client threads grow with the shard count
//! (a fixed count per shard). Every client is one `ShardRouter`, the
//! paper's client (§7.2): one application thread with one core and one
//! closed-loop op stream, whatever the shard count. Each cell reports
//! aggregate throughput, per-client throughput, scaling efficiency versus
//! the 1-shard cell, and the per-shard imbalance (max/mean; 1.00 =
//! perfectly balanced) of routed ops and of fabric messages. Under Zipfian
//! .99 the hottest key alone draws ~8% of all traffic, so whichever shard
//! owns it becomes the hot shard — visible directly in the imbalance
//! columns.
//!
//! The claim, asserted in-binary on every run (quick, `--full`, and the
//! goldens' volume): with uniform keys a client keeps its 1-shard rate at
//! every shard count (`scale_eff` within [0.95, 1.05]), so sharding buys
//! aggregate throughput by adding replica groups, not per-client speed; and
//! at 16 shards Zipfian .99's op imbalance is above uniform's.
//!
//! # Execution model
//!
//! Every cell is one seeded `Sim` running [`crate::run_workload`] over
//! `routers(6 × shards)` of a `ShardedCluster` — the driver every figure
//! uses — and the cells are one [`crate::sweep`] on the harness's thread
//! budget, so all simulated numbers are bit-identical at any thread count.
//! Every router is wrapped by `HistoryRecorder`, and a cell's whole history
//! must linearize (`KvHistory::check`, on the cell's thread): a check
//! prints nothing unless it fails, and then the bench stops naming the cell
//! and the failure window.
//!
//! **stdout is the deterministic report** (simulated metrics only; safe to
//! diff across thread counts and hosts). Each cell's wall-clock seconds go
//! to **stderr** and `cells_wall.csv`.
//!
//! Default is a quick mode over a 2^17-key space; `--full` loads the
//! million-key space.

use std::rc::Rc;
use std::time::Instant;

use crate::{
    env_scaled_keys, report_wall, run_workload, sweep, sweep_threads, write_csv, ExpParams,
    Protocol,
};
use swarm_kv::HistoryRecorder;
use swarm_sim::Sim;
use swarm_workload::{ScenarioMix, Zipfian};

/// Client threads (routers) per shard: enough that a single group runs
/// close to its fabric's saturation knee.
const CLIENTS_PER_SHARD: usize = 6;

/// The shard counts swept, per distribution.
const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// The band uniform `scale_eff` must stay in at every shard count.
const UNIFORM_EFF: (f64, f64) = (0.95, 1.05);

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

fn max_over_mean(counts: &[u64]) -> f64 {
    let mean = counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64;
    counts.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
}

/// Runs one `(distribution, shards)` cell on its own `Sim` and checks its
/// whole history.
fn run_cell(dist: Dist, shards: usize, n_keys: u64) -> CellResult {
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
    let mut workload = p.workload(ScenarioMix::B);
    if dist == Dist::Uniform {
        workload.keys = Zipfian::uniform(workload.keys.n());
    }
    let wall = Instant::now();
    let sim = Sim::new(p.seed);
    let cluster = p.builder(Protocol::SafeGuess).build_sharded(&sim);
    let rec = HistoryRecorder::new(&sim);
    cluster.load_keys(workload.keys.n(), |k| {
        let v = workload.value_for(k, 0);
        rec.set_initial(k, &v);
        v
    });
    let routers = cluster.routers(clients);
    let stores: Vec<_> = routers.iter().map(|r| rec.wrap(Rc::clone(r))).collect();
    let stats = run_workload(&sim, &stores, &workload, &p.run_config());
    // The whole history linearizes; it is dropped once checked.
    let checked = rec.take_history().check();
    checked.unwrap_or_else(|e| panic!("bench_shards {} / {shards} shards: {e}", dist.name()));

    let mut routed = vec![0u64; shards];
    for r in &routers {
        for (s, n) in r.routed_per_shard().into_iter().enumerate() {
            routed[s] += n;
        }
    }
    let msgs: Vec<u64> = cluster
        .per_shard_stats()
        .iter()
        .map(|t| t.messages)
        .collect();
    CellResult {
        tput_mops: stats.throughput_ops() / 1e6,
        measured_ops: stats.measured_ops,
        op_imbalance: max_over_mean(&routed),
        // The fabric-level view of the same skew: message counts include
        // retries and replica fan-out, so a hot shard's extra quorum
        // traffic shows up here even when op routing alone would hide it.
        msg_imbalance: max_over_mean(&msgs),
        wall_secs: wall.elapsed().as_secs_f64(),
    }
}

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let n_keys: u64 = if quick { 1 << 17 } else { 1 << 20 };
    let dists = [Dist::Uniform, Dist::Zipfian99];
    // The sweep claims cells in list order: largest first, so the 16-shard
    // cells do not finish alone at the end. They print by (dist, shards).
    let cells: Vec<(Dist, usize)> = SHARD_COUNTS
        .iter()
        .rev()
        .flat_map(|&shards| dists.map(|dist| (dist, shards)))
        .collect();
    eprintln!(
        "bench_shards: {} sweep thread(s), {} cells",
        sweep_threads(),
        cells.len()
    );
    let results = sweep(&cells, |&(dist, shards)| run_cell(dist, shards, n_keys));

    let mut walls = Vec::new();
    // (distribution, shards, scale_eff, op imbalance) per cell.
    let mut claims = Vec::new();
    for dist in dists {
        println!(
            "bench_shards: SWARM-KV, YCSB B mix, {} distribution, {} keys, \
             {CLIENTS_PER_SHARD} clients/shard, one router per client",
            dist.name(),
            env_scaled_keys(n_keys)
        );
        println!(
            "{:>7} {:>8} {:>11} {:>13} {:>9} {:>11} {:>11}",
            "shards", "clients", "tput_Mops", "per_client_k", "scale_eff", "op_imbal", "msg_imbal"
        );
        let mut rows = Vec::new();
        let mut base_per_client = 0.0;
        for shards in SHARD_COUNTS {
            let r = &results[cells
                .iter()
                .position(|&c| c == (dist, shards))
                .expect("a cell")];
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
            claims.push((dist, shards, eff, r.op_imbalance));
        }
        write_csv(
            "bench_shards",
            dist.name(),
            "shards,clients,tput_mops,per_client_kops,scale_eff,op_imbalance,msg_imbalance,measured_ops",
            &rows,
        );
        println!();
    }

    // The claim, asserted on every run (quick, full, and the goldens').
    let (lo, hi) = UNIFORM_EFF;
    for &(dist, shards, eff, _) in &claims {
        assert!(
            dist != Dist::Uniform || (lo..=hi).contains(&eff),
            "uniform scale_eff at {shards} shards is {eff:.3}, outside [{lo}, {hi}]"
        );
    }
    let imbalance_at_16 = |d: Dist| {
        claims
            .iter()
            .find(|&&(dist, shards, ..)| dist == d && shards == 16)
            .map(|&(.., imbalance)| imbalance)
            .expect("the 16-shard cells ran")
    };
    let (uniform, zipf) = (
        imbalance_at_16(Dist::Uniform),
        imbalance_at_16(Dist::Zipfian99),
    );
    assert!(
        zipf > uniform,
        "zipf.99 op imbalance at 16 shards ({zipf:.2}x) is not above uniform's ({uniform:.2}x)"
    );

    println!("expectation: a client is one router (one core, one closed-loop op");
    println!("stream) whatever the shard count, so under uniform keys per-client");
    println!("throughput holds (scale_eff within {lo:.2}-{hi:.2}, asserted) while the");
    println!("aggregate grows with the clients the added replica groups serve;");
    println!("Zipfian .99 concentrates ~8% of ops on the hot key's shard, so its op");
    println!("imbalance at 16 shards exceeds uniform's (asserted) and hot-shard");
    println!("queuing lowers its per-client rate.");
    println!("Wall-clock seconds per cell: stderr + cells_wall.csv.");
    report_wall("bench_shards", "cells_wall", "cell", walls);
}

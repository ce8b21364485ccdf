//! Scenario-engine bench (beyond the paper): drives the time-phased
//! `swarm_workload::ScenarioSpec` op streams — YCSB A–F including scans, a
//! flash-crowd variant of each (dynamic skew with the hot set rotated
//! mid-run), and YCSB B at 8 KiB values — against SWARM-KV and FUSEE on a
//! 4-shard cluster. Each cell has one value size: 64 B, or 8 KiB for
//! `bigval`.
//!
//! It reports like every other experiment: one stdout row per (scenario,
//! protocol) and `target/experiments/bench_scenarios/cells.csv` with each
//! cell's routed ops per shard and per-class latency percentiles. The
//! expectations it prints are asserted on every run. See
//! `docs/SCENARIOS.md` for the scenario cookbook and the output's columns.
//!
//! # Execution model
//!
//! Every cell (scenario × protocol) builds its own seeded `Sim` with a
//! 4-shard `ShardedCluster` and drives the *same* pre-materialized op
//! stream (`ScenarioSpec::ops(seed)` is pure in `(seed, spec)`) through
//! cross-shard routers, so scans exercise the shard-fanout range-read path
//! and per-shard routed-op counts expose the skew each phase creates.
//! Cells run on `SWARM_BENCH_THREADS` OS threads via [`crate::sweep`]
//! and are merged in deterministic cell order, so stdout and `cells.csv`
//! are bit-identical at any thread count. Every SWARM-KV cell's whole
//! history must linearize; a check prints nothing unless it fails, and
//! then the bench stops naming the cell and the failure window. FUSEE
//! cells are not checked: its insert and delete are outside the checked
//! model (`swarm_kv`'s `fusee.rs`).
//!
//! **stdout is the deterministic report** (simulated metrics only).
//! Wall-clock seconds per cell go to **stderr** and `wall.csv`.
//!
//! Default is a quick mode (~2 K ops per scenario over a 2 K-key space);
//! `--full` scales to 40 K ops over 64 K keys.

use std::rc::Rc;
use std::time::Instant;

use crate::{env_scaled_keys, report_wall, sweep, write_csv, Protocol};
use swarm_fabric::TrafficStats;
use swarm_kv::{run_scenario, HistoryRecorder, ScenarioRunConfig, StoreBuilder};
use swarm_sim::{Nanos, Sim};
use swarm_workload::{scenario_value, ScenarioMix, ScenarioOpClass, ScenarioSpec};

/// Keyspace shards per cell; scans fan out to all of them.
const SHARDS: usize = 4;
/// Router (client) threads per cell.
const CLIENTS: usize = 4;
/// Value size of every scenario but `bigval`, bytes.
const VALUE_SIZE: usize = 64;
/// `bigval`'s value size, bytes.
const BIG_VALUE_SIZE: usize = 8 * 1024;

/// The two protocols every scenario runs on: the paper's system and the
/// strongest baseline with a comparable feature surface.
const SYSTEMS: [(Protocol, &str); 2] = [
    (Protocol::SafeGuess, "swarm-kv"),
    (Protocol::Fusee, "fusee"),
];

/// The latency summary `cells.csv` carries per op class, in ns
/// (`Histogram::percentile(100.0)` is the maximum).
const PERCENTILES: [(&str, f64); 5] = [
    ("p50", 50.0),
    ("p90", 90.0),
    ("p99", 99.0),
    ("p999", 99.9),
    ("max", 100.0),
];

struct Cell {
    spec: ScenarioSpec,
    /// Size of every value the cell loads and writes, bytes.
    value_size: usize,
    sys: Protocol,
    seed: u64,
}

struct CellResult {
    measured_ops: u64,
    failed_ops: u64,
    scanned_items: u64,
    tput_kops: f64,
    /// Per op class, in `ScenarioOpClass::all()` order: the sample count
    /// and, unless it is 0, the [`PERCENTILES`].
    lat: [(usize, Option<[Nanos; 5]>); 6],
    routed: Vec<u64>,
    imbalance: f64,
    cache_hits: u64,
    cache_misses: u64,
    traffic: TrafficStats,
    wall_secs: f64,
}

impl CellResult {
    /// `class`'s percentile `i` of [`PERCENTILES`]; `None` if it had no op.
    fn percentile(&self, class: ScenarioOpClass, i: usize) -> Option<Nanos> {
        self.lat[class as usize].1.map(|p| p[i])
    }
}

fn run_cell(cell: &Cell) -> CellResult {
    let cap = cell.value_size;
    let wall = Instant::now();
    let sim = Sim::new(cell.seed);
    let cluster = StoreBuilder::new(cell.sys)
        .shards(SHARDS)
        .value_size(cap)
        .max_clients(CLIENTS)
        .build_sharded(&sim);
    // Every op is recorded.
    let rec = HistoryRecorder::new(&sim);
    cluster.load_keys(cell.spec.n_keys, |k| {
        let v = scenario_value(k, 0, cap);
        rec.set_initial(k, &v);
        v
    });
    let routers = cluster.routers(CLIENTS);
    let cfg = ScenarioRunConfig {
        seed: cell.seed,
        value_cap: cap,
    };
    let stores: Vec<_> = routers.iter().map(|r| rec.wrap(Rc::clone(r))).collect();
    let stats = run_scenario(&sim, &stores, &cell.spec, &cfg);
    // FUSEE's insert and delete are outside the checked model (`fusee.rs`).
    if cell.sys == Protocol::SafeGuess {
        let checked = rec.take_history().check();
        checked.unwrap_or_else(|e| panic!("bench_scenarios: {} on SWARM-KV: {e}", cell.spec.name));
    }

    let mut routed = vec![0u64; SHARDS];
    for r in &routers {
        for (s, n) in r.routed_per_shard().into_iter().enumerate() {
            routed[s] += n;
        }
    }
    let mean = routed.iter().sum::<u64>() as f64 / SHARDS as f64;
    let imbalance = routed.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);
    let (cache_hits, cache_misses) = routers.iter().fold((0, 0), |(h, m), r| {
        let (ch, cm) = r.cache_stats();
        (h + ch, m + cm)
    });
    let lat = ScenarioOpClass::all().map(|c| {
        let mut h = stats.lat(c);
        let n = h.len();
        (
            n,
            (n > 0).then(|| PERCENTILES.map(|(_, p)| h.percentile(p))),
        )
    });
    CellResult {
        measured_ops: stats.measured_ops,
        failed_ops: stats.failed_ops,
        scanned_items: stats.scanned_items,
        tput_kops: stats.throughput_ops() / 1e3,
        lat,
        routed,
        imbalance,
        cache_hits,
        cache_misses,
        traffic: cluster.stats(),
        wall_secs: wall.elapsed().as_secs_f64(),
    }
}

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let n_keys = env_scaled_keys(if quick { 2_048 } else { 1 << 16 });
    // The large-value scenario stores 8 KiB slots; keep its keyspace small
    // enough that bulk loading stays a footnote.
    let big_keys = n_keys.min(2_048);
    let base_ops = if quick { 2_100 } else { 42_000 };
    let ops = match crate::ops_scale() {
        Some(scale) => ((base_ops as f64 * scale) as usize).max(150),
        None => base_ops,
    };

    // Each scenario with its value size.
    let mut specs: Vec<(ScenarioSpec, usize)> = Vec::new();
    for (letter, mix) in ScenarioMix::ycsb_all() {
        let l = letter.to_ascii_lowercase();
        specs.push((
            ScenarioSpec::ycsb(format!("ycsb_{l}_static"), mix, n_keys, ops),
            VALUE_SIZE,
        ));
        specs.push((
            ScenarioSpec::flash_crowd(format!("ycsb_{l}_flash"), mix, n_keys, ops),
            VALUE_SIZE,
        ));
    }
    specs.push((
        ScenarioSpec::ycsb("bigval", ScenarioMix::B, big_keys, ops),
        BIG_VALUE_SIZE,
    ));

    let cells: Vec<Cell> = specs
        .iter()
        .enumerate()
        .flat_map(|(i, (spec, value_size))| {
            SYSTEMS.map(|(sys, _)| Cell {
                spec: spec.clone(),
                value_size: *value_size,
                sys,
                // Both protocols of a scenario share one seed, so they face
                // the byte-identical op stream.
                seed: 0xA11CE + i as u64,
            })
        })
        .collect();

    println!(
        "bench_scenarios: {} scenarios x {} protocols, {SHARDS} shards, {CLIENTS} routers, \
         {n_keys} keys, {ops} ops/scenario",
        specs.len(),
        SYSTEMS.len()
    );
    println!(
        "{:<16} {:>9} {:>7} {:>6} {:>10} {:>9} {:>9} {:>8} {:>7} {:>9} {:>9} {:>9} {:>8} {:>8} \
         {:>9} {:>11}",
        "scenario",
        "system",
        "ops",
        "fail",
        "tput_kops",
        "p50_us",
        "p99_us",
        "scanned",
        "imbal",
        "upd_p99",
        "scan_p99",
        "rmw_p99",
        "c_hits",
        "c_misses",
        "msgs",
        "bytes"
    );

    let results = sweep(&cells, run_cell);

    let us = |ns: Nanos| ns as f64 / 1e3;
    let mut header = vec!["scenario".to_string(), "system".to_string()];
    header.extend((0..SHARDS).map(|s| format!("routed_shard{s}")));
    for c in ScenarioOpClass::all() {
        header.push(format!("{}_count", c.name()));
        header.extend(PERCENTILES.map(|(p, _)| format!("{}_{p}_ns", c.name())));
    }
    let mut rows = Vec::new();
    for ((spec, _), pair) in specs.iter().zip(results.chunks(SYSTEMS.len())) {
        for ((_, sys_name), r) in SYSTEMS.iter().zip(pair) {
            // An empty class prints `-`, not a latency of 0.
            let pct_us = |c, i| {
                r.percentile(c, i)
                    .map_or("-".to_string(), |ns| format!("{:.2}", us(ns)))
            };
            let p99_us = |c| pct_us(c, 2);
            println!(
                "{:<16} {:>9} {:>7} {:>6} {:>10.1} {:>9} {:>9} {:>8} {:>6.2}x {:>9} {:>9} \
                 {:>9} {:>8} {:>8} {:>9} {:>11}",
                spec.name,
                sys_name,
                r.measured_ops,
                r.failed_ops,
                r.tput_kops,
                pct_us(ScenarioOpClass::Get, 0),
                p99_us(ScenarioOpClass::Get),
                r.scanned_items,
                r.imbalance,
                p99_us(ScenarioOpClass::Update),
                p99_us(ScenarioOpClass::Scan),
                p99_us(ScenarioOpClass::Rmw),
                r.cache_hits,
                r.cache_misses,
                r.traffic.messages,
                r.traffic.bytes
            );
            let mut row = vec![spec.name.clone(), sys_name.to_string()];
            row.extend(r.routed.iter().map(u64::to_string));
            for (n, summary) in &r.lat {
                row.push(n.to_string());
                row.extend(summary.map_or_else(Default::default, |p| p.map(|ns| ns.to_string())));
            }
            rows.push(row.join(","));
        }
    }
    write_csv("bench_scenarios", "cells", &header.join(","), &rows);
    let cell_names: Vec<String> = specs
        .iter()
        .flat_map(|(spec, _)| SYSTEMS.map(|(_, sys_name)| format!("{} / {sys_name}", spec.name)))
        .collect();
    report_wall(
        "bench_scenarios",
        "wall",
        "cell",
        cell_names.iter().zip(results.iter().map(|r| r.wall_secs)),
    );

    // The expectations printed below, asserted on every run (quick and full).
    for (name, r) in cell_names.iter().zip(&results) {
        assert_eq!(r.failed_ops, 0, "{name}: failed ops");
    }
    for (j, (_, sys)) in SYSTEMS.iter().enumerate() {
        let cell = |name: &str| {
            let i = specs
                .iter()
                .position(|(s, _)| s.name == name)
                .expect("stock scenario");
            &results[i * SYSTEMS.len() + j]
        };
        for name in ["ycsb_e_static", "ycsb_e_flash"] {
            assert!(
                cell(name).scanned_items > 0,
                "{name} / {sys}: nothing scanned"
            );
        }
        for l in ["a", "b", "c", "d", "f"] {
            let flash = cell(&format!("ycsb_{l}_flash")).imbalance;
            let stat = cell(&format!("ycsb_{l}_static")).imbalance;
            assert!(
                flash < stat,
                "ycsb_{l} / {sys}: flash-crowd imbalance {flash:.2} is not below static {stat:.2}"
            );
        }
        let big = cell("bigval").percentile(ScenarioOpClass::Update, 2);
        let small = cell("ycsb_b_static").percentile(ScenarioOpClass::Update, 2);
        assert!(
            big > small,
            "bigval / {sys}: update p99 {big:?} ns is not above ycsb_b_static's {small:?}"
        );
    }
    println!("\nexpectation (asserted): flash-crowd phases rotate the hot set, so the");
    println!("hot shard moves mid-run and per-shard routed counts even out relative");
    println!("to the static Zipfian cells (imbal lower for A-D and F; YCSB-E scans");
    println!("fan out to all shards, scanned > 0); bigval (YCSB B at 8 KiB values)");
    println!("has a longer update p99 than ycsb_b_static at 64 B; no cell fails an op.");
}

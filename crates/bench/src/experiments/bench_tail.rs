//! Tail-latency bench (beyond the paper): p99/p999 under delay spikes,
//! with and without hedged quorum requests.
//!
//! Four cells — {calm, spike} × {unhedged, hedged} — run the identical
//! YCSB B phase on their own seeded `Sim`s. The spike
//! plan injects rotating one-node delay bursts (+15 µs one-way, 120 µs
//! long, every 400 µs, node `i % 4`): an op whose optimistic quorum
//! includes the spiked node stalls until the widen deadline fires, so the
//! unhedged get *and* update tails sit at the widen floor while the median
//! stays healthy. The widen suspects the spiked node only until its next
//! reply, so once the burst has moved on every node is contacted
//! optimistically again and the next burst stalls writes as much as reads.
//! Hedged cells instead send one extra copy to a spare quorum member after
//! the per-destination p99-tracked delay (`RttTracker`, `HEDGE_DELAY_PCT`
//! over the last `RTT_WINDOW` samples; at most `MAX_HEDGES_INFLIGHT` per
//! client) and complete as soon as either copy answers, pulling the tail
//! back near the healthy p99.
//!
//! The widen floor is raised to 20 µs in *all* cells so the hedged-vs-
//! unhedged gap is attributable to hedging alone, not to a config skew.
//!
//! **stdout is the deterministic report** (simulated metrics only — the
//! table, and `cells.csv` with each latency class's count, p50, p90, p99,
//! p999 and max; byte-identical across reruns and `SWARM_BENCH_THREADS`).
//! Wall-clock seconds go to **stderr** and `*_wall.csv`. Default is a quick 40 K-op run per cell;
//! `--full` measures 400 K ops per cell (pinned in `BENCH_pr9.json`).

use std::time::Instant;

use crate::{
    env_scaled_keys, report_wall, run_workload, sweep, sweep_threads, write_csv, ExpParams,
    Protocol,
};
use swarm_fabric::{FaultPlan, NodeId, TrafficStats};
use swarm_kv::{CacheCapacity, ClusterConfig, HedgeConfig, RunStats, StoreBuilder};
use swarm_sim::{Nanos, Sim, NANOS_PER_MILLI};
use swarm_workload::{OpType, WorkloadSpec};

/// Minimum wait before a stalled quorum widens, all cells (see module doc).
const WIDEN_FLOOR_NS: Nanos = 20_000;
/// One-way extra latency on the spiked node. Must exceed the widen floor
/// roundtrip so a spiked replica never answers before the widen path does.
const SPIKE_EXTRA_NS: Nanos = 15_000;
/// Length of each delay burst.
const SPIKE_LEN_NS: Nanos = 120_000;
/// Start-to-start spacing of consecutive bursts (rotating over the nodes).
const SPIKE_EVERY_NS: Nanos = 400_000;
/// First burst: past bulk load, inside the prewarm/warm-up phase.
const SPIKE_FROM_NS: Nanos = 2 * NANOS_PER_MILLI;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Plan {
    Calm,
    Spike,
}

#[derive(Clone, Copy)]
struct Cell {
    plan: Plan,
    hedged: bool,
}

impl Cell {
    fn name(&self) -> String {
        format!(
            "{}/{}",
            match self.plan {
                Plan::Calm => "calm",
                Plan::Spike => "spike",
            },
            if self.hedged { "hedged" } else { "unhedged" },
        )
    }
}

struct CellResult {
    cell: Cell,
    stats: RunStats,
    traffic: TrafficStats,
    wall_secs: f64,
}

/// `count` rotating one-node delay bursts starting at [`SPIKE_FROM_NS`].
fn spike_plan(nodes: usize, count: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for i in 0..count {
        plan = plan.delay_spike(
            SPIKE_FROM_NS + i * SPIKE_EVERY_NS,
            NodeId(i as usize % nodes),
            SPIKE_EXTRA_NS,
            SPIKE_LEN_NS,
        );
    }
    plan
}

fn run_cell(p: &ExpParams, cell: Cell, spike_count: u64) -> CellResult {
    let wall = Instant::now();
    let sim = Sim::new(p.seed);
    // The widen floor is set through the full cluster config *before* the
    // fluent knobs (which write into it), so every `ExpParams` field still
    // applies on top.
    let mut cc = ClusterConfig::default();
    cc.quorum.widen_timeout_ns = WIDEN_FLOOR_NS;
    let mut builder = StoreBuilder::new(Protocol::SafeGuess)
        .cluster_config(cc)
        .value_size(p.value_size)
        .replicas(p.replicas)
        .max_clients(p.clients)
        .meta_bufs(p.meta_bufs.unwrap_or(p.clients))
        .inplace(p.inplace)
        .cache(CacheCapacity::Unbounded);
    if cell.hedged {
        builder = builder.hedge(HedgeConfig::on());
    }
    let cluster = builder.build_cluster(&sim);
    let wl = p.workload(WorkloadSpec::B);
    cluster.load_keys(env_scaled_keys(p.n_keys), |k| wl.value_for(k, 0));
    if cell.plan == Plan::Spike {
        cluster
            .fabric()
            .apply_fault_plan(&spike_plan(4, spike_count));
    }
    let clients: Vec<_> = (0..p.clients).map(|i| cluster.client(i)).collect();
    let mut rc = p.run_config();
    rc.prewarm_keys = Some(p.n_keys);
    let stats = run_workload(&sim, &clients, &wl, &rc);
    CellResult {
        cell,
        stats,
        traffic: cluster.fabric().stats(),
        wall_secs: wall.elapsed().as_secs_f64(),
    }
}

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let p = ExpParams {
        n_keys: 1 << 14,
        warmup_ops: if quick { 10_000 } else { 50_000 },
        measure_ops: if quick { 40_000 } else { 400_000 },
        concurrency: 1,
        ..Default::default()
    };
    // Bursts must outlast the run (a tail that goes calm near the end would
    // dilute the unhedged p99): ~1.2 ops/µs aggregate puts the quick run
    // near 45 ms; schedule generously past both modes' horizons.
    let spike_count: u64 = if quick { 500 } else { 3_000 };

    let cells: Vec<Cell> = [Plan::Calm, Plan::Spike]
        .iter()
        .flat_map(|&plan| [false, true].map(|hedged| Cell { plan, hedged }))
        .collect();
    eprintln!(
        "bench_tail: {} sweep thread(s), {} cells",
        sweep_threads(),
        cells.len()
    );
    let mut results = sweep(&cells, |&cell| run_cell(&p, cell, spike_count));

    println!(
        "bench_tail: SWARM-KV tail latency, YCSB B over {} keys, {} clients, widen floor {} us",
        env_scaled_keys(p.n_keys),
        p.clients,
        WIDEN_FLOOR_NS / 1_000
    );
    println!(
        "spike plan: +{} us one-way on node i%4, {} us bursts every {} us",
        SPIKE_EXTRA_NS / 1_000,
        SPIKE_LEN_NS / 1_000,
        SPIKE_EVERY_NS / 1_000
    );
    println!(
        "{:>22} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
        "cell", "get_p50", "get_p99", "get_p999", "upd_p99", "fired", "won", "dup"
    );
    let mut rows = Vec::new();
    for r in &mut results {
        let (mut get, mut upd) = (r.stats.lat(OpType::Get), r.stats.lat(OpType::Update));
        let t = &r.traffic;
        println!(
            "{:>22} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>7} {:>7} {:>7}",
            r.cell.name(),
            get.median() as f64 / 1e3,
            get.percentile(99.0) as f64 / 1e3,
            get.p999() as f64 / 1e3,
            upd.percentile(99.0) as f64 / 1e3,
            t.hedges_fired,
            t.hedges_won,
            t.duplicates_discarded
        );
        // Each latency class's count, p50, p90, p99, p999 and max (ns).
        let mut row = r.cell.name();
        for h in [&mut get, &mut upd] {
            row += &format!(
                ",{},{},{},{},{},{}",
                h.len(),
                h.median(),
                h.percentile(90.0),
                h.percentile(99.0),
                h.p999(),
                h.max()
            );
        }
        rows.push(format!(
            "{row},{},{},{}",
            t.hedges_fired, t.hedges_won, t.duplicates_discarded
        ));
    }
    write_csv(
        "bench_tail",
        "cells",
        "cell,get_count,get_p50_ns,get_p90_ns,get_p99_ns,get_p999_ns,get_max_ns,\
         update_count,update_p50_ns,update_p90_ns,update_p99_ns,update_p999_ns,update_max_ns,\
         hedges_fired,hedges_won,duplicates_discarded",
        &rows,
    );

    // The headline claims, asserted on every run (quick and full).
    let summaries: Vec<(Cell, Nanos, Nanos)> = results
        .iter_mut()
        .map(|r| {
            let mut get = r.stats.lat(OpType::Get);
            (r.cell, get.median(), get.percentile(99.0))
        })
        .collect();
    let find = |plan: Plan, hedged: bool| {
        summaries
            .iter()
            .find(|(c, _, _)| c.plan == plan && c.hedged == hedged)
            .expect("all four cells ran")
    };
    let (_, _, un99) = find(Plan::Spike, false);
    let (_, _, he99) = find(Plan::Spike, true);
    assert!(
        2 * he99 <= *un99,
        "hedging must at least halve the spiked get p99 ({he99} vs {un99} ns)"
    );
    for &plan in &[Plan::Calm, Plan::Spike] {
        let (_, un50, _) = find(plan, false);
        let (_, he50, _) = find(plan, true);
        assert!(
            *he50 as f64 <= *un50 as f64 * 1.05,
            "hedging must not regress the median by more than 5% ({he50} vs {un50} ns)"
        );
    }
    for r in &results {
        let t = &r.traffic;
        if r.cell.hedged {
            assert_eq!(
                t.hedges_won + t.duplicates_discarded,
                t.hedges_fired,
                "{}: every fired hedge settles exactly once",
                r.cell.name()
            );
        } else {
            assert_eq!(
                (t.hedges_fired, t.hedges_won, t.duplicates_discarded),
                (0, 0, 0),
                "{}: disabled hedging must leave the counters untouched",
                r.cell.name()
            );
        }
    }
    let spiked_hedged = results
        .iter()
        .find(|r| r.cell.plan == Plan::Spike && r.cell.hedged)
        .expect("all four cells ran");
    assert!(
        spiked_hedged.traffic.hedges_fired > 0,
        "the spiked hedged cell must actually hedge"
    );

    println!("\nexpectation: the spike parks unhedged stragglers at the widen floor, so the");
    println!(
        "unhedged spiked get and update p99s sit near {} us while the median stays",
        WIDEN_FLOOR_NS / 1_000
    );
    println!("healthy (a spiked node is suspected only until it answers again); hedged");
    println!("cells re-issue to a spare replica after the tracked per-node p99 and pull the");
    println!("tail back near the calm p99 at the cost of a small duplicate-message budget.");

    report_wall(
        "bench_tail",
        "wall",
        "cell",
        results.iter().map(|r| (r.cell.name(), r.wall_secs)),
    );
}

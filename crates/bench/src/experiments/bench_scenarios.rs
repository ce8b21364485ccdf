//! Scenario-engine bench (ROADMAP item 3's report harness): drives the
//! time-phased `swarm_workload::ScenarioSpec` op streams — YCSB A–F
//! including scans, a flash-crowd variant of each (dynamic skew with the
//! hot set rotated mid-run), a TTL-churn scenario (lease-stamped inserts
//! expiring mid-run), and a bimodal large-value scenario — against SWARM-KV
//! and FUSEE on a 4-shard cluster, and renders one JSON + HTML
//! [`crate::Report`] per scenario under `target/reports/`.
//!
//! See `docs/SCENARIOS.md` for the scenario cookbook and the field-by-field
//! report reference.
//!
//! # Execution model
//!
//! Every cell (scenario × protocol) builds its own seeded `Sim` with a
//! 4-shard `ShardedCluster` and drives the *same* pre-materialized op
//! stream (`ScenarioSpec::ops(seed)` is pure in `(seed, spec)`) through
//! cross-shard routers, so scans exercise the shard-fanout range-read path
//! and per-shard routed-op counts expose the skew each phase creates.
//! Cells run on `SWARM_BENCH_THREADS` OS threads via [`crate::sweep`]
//! and are merged in deterministic cell order. stdout and every report
//! file are bit-identical at any thread count.
//!
//! **stdout is the deterministic report** (simulated metrics only).
//! Wall-clock seconds per cell go to **stderr** and `wall.csv`; nothing
//! wall-clock-derived reaches the report files, which is what makes them
//! safe to byte-diff across reruns and hosts (the `scenario-smoke` CI stage
//! does exactly that).
//!
//! Default is a quick mode (~2 K ops per scenario over a 2 K-key space);
//! `--full` scales to 40 K ops over 64 K keys.

use std::rc::Rc;
use std::time::Instant;

use crate::{env_scaled_keys, report_wall, sweep, Protocol, Report};
use swarm_fabric::TrafficStats;
use swarm_kv::{run_scenario, ttl_stamp_never, ScenarioRunConfig, StoreBuilder, TtlStore};
use swarm_sim::Sim;
use swarm_workload::{
    scenario_value, ScenarioMix, ScenarioOpClass, ScenarioSpec, TtlSpec, ValueSizeDist,
};

/// Keyspace shards per cell; scans fan out to all of them.
const SHARDS: usize = 4;
/// Router (client) threads per cell.
const CLIENTS: usize = 4;

/// The two protocols every scenario runs on: the paper's system and the
/// strongest baseline with a comparable feature surface.
const SYSTEMS: [(Protocol, &str); 2] = [
    (Protocol::SafeGuess, "swarm-kv"),
    (Protocol::Fusee, "fusee"),
];

struct Cell {
    spec: ScenarioSpec,
    sys: Protocol,
    seed: u64,
}

struct CellResult {
    measured_ops: u64,
    failed_ops: u64,
    scanned_items: u64,
    tput_kops: f64,
    /// `(class name, summary JSON)` per op class, in fixed class order.
    class_json: Vec<(&'static str, String)>,
    get_p50_us: f64,
    get_p99_us: f64,
    routed: Vec<u64>,
    imbalance: f64,
    cache_hits: u64,
    cache_misses: u64,
    traffic: TrafficStats,
    expired_leases: u64,
    wall_secs: f64,
}

fn run_cell(cell: &Cell) -> CellResult {
    let cap = cell.spec.values.max_size();
    let ttl = cell.spec.ttl.is_some();
    // In-n-Out registers (and FUSEE blocks) are fixed-size slots: provision
    // for the largest scenario value, plus the 8-byte expiry stamp when the
    // run goes through a TtlStore.
    let slot = cap + if ttl { 8 } else { 0 };
    let wall = Instant::now();
    let sim = Sim::new(cell.seed);
    let cluster = StoreBuilder::new(cell.sys)
        .shards(SHARDS)
        .value_size(slot)
        .max_clients(CLIENTS)
        .build_sharded(&sim);
    cluster.load_keys(cell.spec.n_keys, |k| {
        let v = scenario_value(k, 0, cap);
        if ttl {
            ttl_stamp_never(&v)
        } else {
            v
        }
    });
    let routers = cluster.routers(CLIENTS);
    let cfg = ScenarioRunConfig {
        seed: cell.seed,
        value_cap: cap,
        ..Default::default()
    };
    let (stats, expired_leases) = if ttl {
        let stores: Vec<_> = routers
            .iter()
            .map(|r| TtlStore::new(&sim, Rc::clone(r)))
            .collect();
        let stats = run_scenario(&sim, &stores, &cell.spec, &cfg);
        let expired = stores.iter().map(|s| s.take_expired().len() as u64).sum();
        (stats, expired)
    } else {
        (run_scenario(&sim, &routers, &cell.spec, &cfg), 0)
    };

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
    let class_json = ScenarioOpClass::all()
        .iter()
        .map(|&c| (c.name(), stats.lat(c).summary_json()))
        .collect();
    let mut get = stats.lat(ScenarioOpClass::Get);
    let (get_p50_us, get_p99_us) = if get.is_empty() {
        (0.0, 0.0)
    } else {
        (get.median() as f64 / 1e3, get.percentile(99.0) as f64 / 1e3)
    };
    CellResult {
        measured_ops: stats.measured_ops,
        failed_ops: stats.failed_ops,
        scanned_items: stats.scanned_items,
        tput_kops: stats.throughput_ops() / 1e3,
        class_json,
        get_p50_us,
        get_p99_us,
        routed,
        imbalance,
        cache_hits,
        cache_misses,
        traffic: cluster.stats(),
        expired_leases,
        wall_secs: wall.elapsed().as_secs_f64(),
    }
}

fn ttl_json(spec: &ScenarioSpec) -> String {
    match spec.ttl {
        None => "null".to_string(),
        Some(t) => format!(
            r#"{{"insert_pct":{},"ttl_ns":{},"ttl_keys":{}}}"#,
            t.insert_pct, t.ttl_ns, t.ttl_keys
        ),
    }
}

fn values_json(spec: &ScenarioSpec) -> String {
    match spec.values {
        ValueSizeDist::Fixed(n) => format!(r#"{{"fixed":{n}}}"#),
        ValueSizeDist::Bimodal {
            small,
            large,
            large_pct,
        } => format!(r#"{{"small":{small},"large":{large},"large_pct":{large_pct}}}"#),
    }
}

fn phases_json(spec: &ScenarioSpec) -> String {
    let phases: Vec<String> = spec
        .phases
        .iter()
        .map(|p| {
            format!(
                r#"{{"ops":{},"theta":{:.2},"rotation":{}}}"#,
                p.ops, p.theta, p.rotation
            )
        })
        .collect();
    format!("[{}]", phases.join(","))
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

    let mut specs: Vec<ScenarioSpec> = Vec::new();
    for (letter, mix) in ScenarioMix::ycsb_all() {
        let l = letter.to_ascii_lowercase();
        specs.push(ScenarioSpec::ycsb(
            format!("ycsb_{l}_static"),
            mix,
            n_keys,
            ops,
        ));
        specs.push(ScenarioSpec::flash_crowd(
            format!("ycsb_{l}_flash"),
            mix,
            n_keys,
            ops,
        ));
    }
    // 50 µs leases expire well inside even the smoke-scale run, so the
    // expired_leases counter is live at any SWARM_BENCH_OPS_SCALE.
    specs.push(
        ScenarioSpec::ycsb("ttl_churn", ScenarioMix::D, n_keys, ops).ttl(TtlSpec::always(50_000)),
    );
    specs.push(
        ScenarioSpec::ycsb("bigval", ScenarioMix::B, big_keys, ops)
            .values(ValueSizeDist::small_dominant()),
    );

    let cells: Vec<Cell> = specs
        .iter()
        .enumerate()
        .flat_map(|(i, spec)| {
            SYSTEMS.map(|(sys, _)| Cell {
                spec: spec.clone(),
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
        "{:<16} {:>9} {:>7} {:>6} {:>10} {:>9} {:>9} {:>8} {:>7}",
        "scenario", "system", "ops", "fail", "tput_kops", "p50_us", "p99_us", "scanned", "imbal"
    );

    let results = sweep(&cells, run_cell);

    let mut reports = 0usize;
    for (i, spec) in specs.iter().enumerate() {
        let mut rep = Report::new(
            spec.name.clone(),
            format!("SWARM scenario report: {}", spec.name),
        );
        rep.section("scenario")
            .str("name", &spec.name)
            .int("n_keys", spec.n_keys)
            .int("total_keys", spec.total_keys())
            .int("total_ops", spec.total_ops() as u64)
            .raw("phases", phases_json(spec))
            .raw("values", values_json(spec))
            .raw("ttl", ttl_json(spec))
            .int("scan_max_len", spec.scan_max_len as u64)
            .int("shards", SHARDS as u64)
            .int("clients", CLIENTS as u64);
        for (j, (_, sys_name)) in SYSTEMS.iter().enumerate() {
            let r = &results[i * SYSTEMS.len() + j];
            println!(
                "{:<16} {:>9} {:>7} {:>6} {:>10.1} {:>9.2} {:>9.2} {:>8} {:>6.2}x",
                spec.name,
                sys_name,
                r.measured_ops,
                r.failed_ops,
                r.tput_kops,
                r.get_p50_us,
                r.get_p99_us,
                r.scanned_items,
                r.imbalance
            );
            let routed = format!(
                "[{}]",
                r.routed
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
            rep.section(format!("protocol {sys_name}"))
                .str("protocol", sys_name)
                .int("measured_ops", r.measured_ops)
                .int("failed_ops", r.failed_ops)
                .int("scanned_items", r.scanned_items)
                .int("expired_leases", r.expired_leases)
                .num("tput_kops", r.tput_kops);
            for (class, json) in &r.class_json {
                rep.raw(&format!("lat_{class}"), json.clone());
            }
            rep.raw("routed_per_shard", routed)
                .num("shard_imbalance", r.imbalance)
                .int("cache_hits", r.cache_hits)
                .int("cache_misses", r.cache_misses)
                .int("fabric_messages", r.traffic.messages)
                .int("fabric_bytes", r.traffic.bytes)
                .int("hedges_fired", r.traffic.hedges_fired)
                .int("hedges_won", r.traffic.hedges_won)
                .int("duplicates_discarded", r.traffic.duplicates_discarded);
        }
        match rep.write() {
            Ok((json_path, html_path)) => {
                reports += 1;
                println!(
                    "  report: {} + {}",
                    json_path.display(),
                    html_path.display()
                );
            }
            Err(e) => eprintln!("warn: cannot write report {}: {e}", spec.name),
        }
    }
    let cell_names = specs
        .iter()
        .flat_map(|spec| SYSTEMS.map(|(_, sys_name)| format!("{} / {sys_name}", spec.name)));
    report_wall(
        "bench_scenarios",
        "wall",
        "cell",
        cell_names.zip(results.iter().map(|r| r.wall_secs)),
    );
    println!("\nwrote {reports} scenario reports (JSON + HTML) under target/reports/");
    println!("expectation: flash-crowd phases rotate the hot set, so the hot shard");
    println!("moves mid-run and per-shard routed counts even out relative to the");
    println!("static Zipfian cells, while the crowd phase's p99 reflects the");
    println!("tighter skew; YCSB-E scans fan out to all shards (scanned > 0);");
    println!("ttl_churn retires every leased key (expired_leases > 0); bigval's");
    println!("8 KiB tail stretches update tails without moving the small-value");
    println!("median.");
}

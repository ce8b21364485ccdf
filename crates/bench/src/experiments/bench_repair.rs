//! Anti-entropy repair bench (beyond the paper): convergence time and
//! bytes moved per digest strategy after a fault window leaves replicas
//! silently divergent.
//!
//! Two cells — one per [`RepairStrategy`] — run the *identical*
//! foreground phase on their own seeded `Sim`s: load the keyspace, then
//! hammer it with YCSB A while one replica node drops 30% of its messages.
//! Writes that reach a quorum but miss the lossy replica leave stale
//! In-n-Out max registers behind, and nothing in the foreground protocol
//! ever heals a key that is not written again. When the window closes the
//! divergence count is bit-identical across cells (same seed, repair not
//! yet running); each cell then drives its repair agent to convergence and
//! reports rounds, round trips, deltas, and bytes.
//!
//! The interesting comparison is bytes: `full` hauls every stamp every
//! round, `buckets` pays `REPAIR_BUCKETS` digests per replica pair and
//! hauls only mismatched buckets — the same exactness, fewer bytes as the
//! keyspace grows. A strategy that moves no fewer bytes than `full`, or
//! needs more rounds, fails the run.
//!
//! **stdout is the deterministic report** (simulated metrics only; safe to
//! diff across hosts and thread counts). Wall-clock seconds per cell go to
//! **stderr** and `*_wall.csv`. Default is a quick 2^14-key run; `--full`
//! loads the acceptance-scale 2^20 keys.

use std::time::Instant;

use crate::{
    env_scaled_keys, report_wall, run_workload, sweep, sweep_threads, write_csv, ExpParams,
    Protocol,
};
use swarm_fabric::{FaultPlan, NodeId};
use swarm_kv::{divergent_stamp_pairs, RepairConfig, RepairStats, RepairStrategy};
use swarm_sim::{Nanos, Sim, NANOS_PER_MILLI};
use swarm_workload::WorkloadSpec;

/// Message-drop probability of the lossy replica node during the window.
const DROP_PERMILLE: u16 = 300;

struct CellResult {
    strategy: RepairStrategy,
    divergent_before: u64,
    divergent_after: u64,
    rounds: u32,
    converged: bool,
    converge_ms: f64,
    stats: RepairStats,
    wall_secs: f64,
}

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let n_keys: u64 = if quick { 1 << 14 } else { 1 << 20 };
    let drop_from: Nanos = NANOS_PER_MILLI;
    let drop_until: Nanos = if quick { 21 } else { 41 } * NANOS_PER_MILLI;
    eprintln!("bench_repair: {} sweep thread(s), 2 cells", sweep_threads());

    let p = ExpParams {
        n_keys,
        warmup_ops: 0,
        measure_ops: u64::MAX / 2,
        concurrency: 2,
        meta_bufs: Some(4),
        ..Default::default()
    };

    let cells = RepairStrategy::all();
    let results = sweep(&cells, |&strategy| {
        let wall = Instant::now();
        let sim = Sim::new(p.seed);
        // A generous round deadline: at acceptance scale one round may
        // apply thousands of deltas, and an abandoned round only re-scans.
        let cfg = RepairConfig {
            round_deadline_ns: 50 * NANOS_PER_MILLI,
            ..RepairConfig::with_strategy(strategy)
        };
        let builder = p
            .builder(Protocol::SafeGuess)
            .op_deadline_ns(2 * NANOS_PER_MILLI)
            .repair(cfg);
        let cluster = builder.build_cluster(&sim);
        let wl = p.workload(WorkloadSpec::A);
        cluster.load_keys(env_scaled_keys(p.n_keys), |k| wl.value_for(k, 0));
        cluster
            .fabric()
            .apply_fault_plan(&FaultPlan::new().drop_window(
                drop_from,
                NodeId(0),
                DROP_PERMILLE,
                drop_until - drop_from,
            ));
        let clients: Vec<_> = (0..p.clients).map(|i| cluster.client(i)).collect();
        let mut rc = p.run_config();
        rc.deadline_ns = Some(drop_until);
        run_workload(&sim, &clients, &wl, &rc);

        let c = cluster
            .swarm()
            .expect("SWARM-KV runs on the Cluster substrate")
            .clone();
        let divergent_before = divergent_stamp_pairs(&c);
        let agent = cluster.repair().expect("repair configured").clone();
        let t0 = sim.now();
        let a2 = agent.clone();
        let (rounds, converged) = sim.block_on(async move { a2.converge().await });
        CellResult {
            strategy,
            divergent_before,
            divergent_after: divergent_stamp_pairs(&c),
            rounds,
            converged,
            converge_ms: (sim.now() - t0) as f64 / 1e6,
            stats: agent.stats(),
            wall_secs: wall.elapsed().as_secs_f64(),
        }
    });

    let loaded = env_scaled_keys(p.n_keys);
    println!(
        "bench_repair: SWARM-KV anti-entropy, YCSB A over {} keys, {} clients, \
         {DROP_PERMILLE}-permille drop window of {} ms on one replica node",
        loaded,
        p.clients,
        (drop_until - drop_from) / NANOS_PER_MILLI
    );
    let divergent = results[0].divergent_before;
    for r in &results {
        assert_eq!(
            r.divergent_before,
            divergent,
            "{}: the foreground phase must be bit-identical across cells",
            r.strategy.name()
        );
    }
    println!("divergent (key, replica) pairs after the window: {divergent}");
    println!(
        "{:>14} {:>7} {:>10} {:>8} {:>12} {:>12} {:>14} {:>10}",
        "strategy", "rounds", "conv_ms", "deltas", "round_trips", "false_pos", "bytes", "residual"
    );
    let mut rows = Vec::new();
    for r in &results {
        assert!(
            r.converged && r.divergent_after == 0,
            "{}: every replica pair must converge within the round budget \
             ({} residual after {} rounds)",
            r.strategy.name(),
            r.divergent_after,
            r.rounds
        );
        println!(
            "{:>14} {:>7} {:>10.2} {:>8} {:>12} {:>12} {:>14} {:>10}",
            r.strategy.name(),
            r.rounds,
            r.converge_ms,
            r.stats.deltas_applied,
            r.stats.round_trips,
            r.stats.false_matches,
            r.stats.bytes_exchanged,
            r.divergent_after
        );
        rows.push(format!(
            "{},{},{},{:.3},{},{},{},{},{}",
            r.strategy.name(),
            r.divergent_before,
            r.rounds,
            r.converge_ms,
            r.stats.deltas_applied,
            r.stats.round_trips,
            r.stats.false_matches,
            r.stats.bytes_exchanged,
            r.divergent_after
        ));
    }
    write_csv(
        "bench_repair",
        "strategies",
        "strategy,divergent_before,rounds,converge_ms,deltas,round_trips,false_matches,bytes,residual",
        &rows,
    );

    // `all()` is baseline first: every other strategy must earn its place
    // against it, so a dominated one cannot ship.
    let (full_bytes, full_rounds) = (results[0].stats.bytes_exchanged, results[0].rounds);
    let mut vs_full = Vec::new();
    for r in &results[1..] {
        let (name, bytes, rounds) = (r.strategy.name(), r.stats.bytes_exchanged, r.rounds);
        assert!(
            bytes < full_bytes && rounds <= full_rounds,
            "{name} must move fewer bytes than the full exchange in no more rounds \
             ({bytes} B in {rounds} vs {full_bytes} B in {full_rounds})"
        );
        let pct = 100.0 * bytes as f64 / full_bytes as f64;
        vs_full.push(format!("{name} {pct:.1}%"));
    }
    println!("\nbytes vs full: {}", vs_full.join(", "));
    println!("expectation: both strategies repair the same deltas and end at zero");
    println!("residual divergence; full pays stamp bytes linear in the keyspace every");
    println!("round, while the digest strategies pay per-bucket summaries plus only the");
    println!("mismatched buckets — the gap widens with the keyspace (try --full).");

    report_wall(
        "bench_repair",
        "wall",
        "strategy",
        results.iter().map(|r| (r.strategy.name(), r.wall_secs)),
    );
}

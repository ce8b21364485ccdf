//! Experiment harness for the SWARM evaluation (§7).
//!
//! One executable, `swarm-bench <experiment> [--full]`, regenerates every
//! table and figure of the paper plus the beyond-paper benches. The
//! [`EXPERIMENTS`] registry is the only list of what exists: `main`'s
//! dispatch and usage text and the smoke test all read it, and each entry's
//! module under [`experiments`] documents what it reproduces and how.
//!
//! `--full` selects paper-scale op counts (default is a quick mode sized to
//! finish in seconds each); `main` is its only reader and hands every
//! experiment a `quick` flag. Every experiment reports the same way: the
//! rows the paper reports as a stdout table, and series as CSVs under
//! `target/experiments/<experiment>/` through [`write_csv`].
//!
//! The long sweeps (`fig7`–`fig9`, `fig13`, the `bench_*` set) run their
//! independent `(seed, config)` cells on `SWARM_BENCH_THREADS` OS threads
//! (default: all cores) via [`sweep`]; results are merged in deterministic
//! cell order, so every number is identical at any thread count. That is
//! the one thread budget: `bench_shards`, whose cells each run one `Sim` per
//! shard, sweeps `(cell, shard)` jobs on it. Wall-clock time is the one
//! nondeterministic output; it goes to stderr and `*wall.csv` through
//! [`report_wall`], never to stdout.
//!
//! This crate is also the one reader of environment variables
//! (`envknob.rs`): `SWARM_BENCH_THREADS` in [`sweep_threads`],
//! `SWARM_BENCH_OPS_SCALE` in `runner.rs` — whose [`run_workload`] and
//! [`plan_workload`] scale the `RunConfig` and then call the `swarm_kv`
//! functions of the same names, which run exactly what they are handed —
//! and `SWARM_CHAOS_SEEDS` in the chaos suites through [`env_knob`].
//!
//! Every system under test is built through [`swarm_kv::StoreBuilder`], so
//! the four protocols share one construction and measurement path.
//!
//! One executable rather than one per experiment because the release
//! profile's fat LTO re-optimises the whole workspace per link: 15 links
//! cost ~180 s per rebuild on a 2-core host, one costs ~40 s.

#![warn(missing_docs)]

mod envknob;
pub mod experiments;
mod runner;
mod sweep;

pub use envknob::env_knob;
pub use experiments::{Experiment, EXPERIMENTS};
pub use runner::{env_scaled_keys, ops_scale, plan_workload, run_workload};
pub use sweep::{sweep, sweep_on, sweep_threads};

use std::io::Write as _;
use std::rc::Rc;

use swarm_kv::{
    CacheCapacity, KvStore, RunConfig, RunStats, StoreBuilder, StoreClient, StoreCluster,
};
use swarm_sim::{Histogram, Sim};
use swarm_workload::{OpType, Workload, WorkloadSpec};

pub use swarm_kv::Protocol;

/// Common experiment parameters (defaults follow §7: 3 replicas, 100 K keys,
/// 64 B values, 4 clients, warm-up then measurement).
#[derive(Debug, Clone)]
pub struct ExpParams {
    /// RNG seed.
    pub seed: u64,
    /// Number of keys.
    pub n_keys: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Number of clients.
    pub clients: usize,
    /// Concurrent ops per client.
    pub concurrency: usize,
    /// Replicas per key.
    pub replicas: usize,
    /// In-n-Out metadata buffers per key (`None` = one per client, the
    /// paper's recommendation).
    pub meta_bufs: Option<usize>,
    /// In-place data at the designated replica (`false` = "Out-P.").
    pub inplace: bool,
    /// Warm-up ops (total).
    pub warmup_ops: u64,
    /// Measured ops (total).
    pub measure_ops: u64,
    /// Location-cache entries per client (`None` = unbounded).
    pub cache_entries: Option<usize>,
    /// Keyspace shards (1 = the paper's single replica group; more builds
    /// a `ShardedCluster` driven through cross-shard routers).
    pub shards: usize,
}

impl Default for ExpParams {
    fn default() -> Self {
        ExpParams {
            seed: 42,
            n_keys: 100_000,
            value_size: 64,
            clients: 4,
            concurrency: 1,
            replicas: 3,
            meta_bufs: None,
            inplace: true,
            warmup_ops: 50_000,
            measure_ops: 100_000,
            cache_entries: None,
            shards: 1,
        }
    }
}

impl ExpParams {
    /// Scales warm-up/measurement to the paper's 1 M + 1 M unless `quick`.
    pub fn sized(mut self, quick: bool) -> Self {
        if !quick {
            self.warmup_ops = 1_000_000;
            self.measure_ops = 1_000_000;
        }
        self
    }

    /// The [`StoreBuilder`] for this experiment and system (protocol
    /// invariants — RAW unreplicated, DM-ABD out-of-place — are pinned by
    /// the builder itself). Carries `shards` too, so a multi-shard
    /// `ExpParams` fed to the unsharded [`build`] fails loudly instead of
    /// silently running one replica group.
    pub fn builder(&self, sys: Protocol) -> StoreBuilder {
        StoreBuilder::new(sys)
            .shards(self.shards)
            .value_size(self.value_size)
            .replicas(self.replicas)
            .max_clients(self.clients.max(1))
            .meta_bufs(self.meta_bufs.unwrap_or(self.clients.max(1)))
            .inplace(self.inplace)
            .cache(match self.cache_entries {
                Some(n) => CacheCapacity::Entries(n),
                None => CacheCapacity::Unbounded,
            })
    }

    /// The YCSB workload object for this experiment (keyspace shrunk under
    /// `SWARM_BENCH_OPS_SCALE`, consistently with [`build`]).
    pub fn workload(&self, spec: WorkloadSpec) -> Workload {
        Workload::ycsb(spec, env_scaled_keys(self.n_keys), self.value_size)
    }

    /// The runner configuration for this experiment.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            warmup_ops: self.warmup_ops,
            measure_ops: self.measure_ops,
            concurrency: self.concurrency,
            ..Default::default()
        }
    }
}

/// A fully built system under test: the cluster plus one client handle per
/// client thread, all four protocols behind the same types.
pub struct Testbed {
    /// The cluster-side state.
    pub cluster: StoreCluster,
    /// One client handle per client thread.
    pub clients: Vec<Rc<StoreClient>>,
}

/// Builds (and bulk-loads) one system under test.
pub fn build(sim: &Sim, sys: Protocol, p: &ExpParams) -> Testbed {
    let n_keys = env_scaled_keys(p.n_keys);
    let wl = p.workload(WorkloadSpec::C);
    let cluster = p.builder(sys).build_cluster(sim);
    cluster.load_keys(n_keys, |k| wl.value_for(k, 0));
    let clients = cluster.clients(p.clients);
    // The testbed has 32 physical client cores (Table 1: 4 servers with
    // 2 x 8c/16t); beyond 32 clients, threads share cores via
    // hyperthreading and per-thread CPU work slows down (§7.3).
    if p.clients > 32 {
        for c in &clients {
            c.endpoint().set_cpu_scale(1.5);
        }
    }
    Testbed { cluster, clients }
}

/// Builds, runs the workload, and returns the stats (plus the sim and the
/// testbed for resource inspection).
pub fn run_system(
    seed: u64,
    sys: Protocol,
    p: &ExpParams,
    spec: WorkloadSpec,
    tweak: impl FnOnce(&mut RunConfig),
) -> (RunStats, Sim, Testbed) {
    let sim = Sim::new(seed);
    let bed = build(&sim, sys, p);
    let mut rc = p.run_config();
    tweak(&mut rc);
    let wl = p.workload(spec);
    let stats = run_workload(&sim, &bed.clients, &wl, &rc);
    (stats, sim, bed)
}

/// Mean latency over every op class, in ns (0 when nothing was measured).
pub fn mean_latency_ns(stats: &RunStats) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for h in &stats.latency {
        sum += h.mean() * h.len() as f64;
        n += h.len() as u64;
    }
    sum / n.max(1) as f64
}

/// [`report_cdf`] for a run's gets and updates, as series `<name>_get` and
/// `<name>_update`.
pub fn report_cdfs(exp: &str, name: &str, stats: &RunStats) {
    for (op, suffix) in [(OpType::Get, "get"), (OpType::Update, "update")] {
        report_cdf(exp, &format!("{name}_{suffix}"), &mut stats.lat(op));
    }
}

/// Prints a latency summary and writes its CDF (200 evenly spaced points) as
/// a CSV series.
pub fn report_cdf(exp: &str, series_name: &str, hist: &mut Histogram) {
    if hist.is_empty() {
        println!("  {series_name}: (no samples)");
        return;
    }
    println!(
        "  {series_name}: median={:.2}us p1={:.2}us p99={:.2}us mean={:.2}us n={}",
        hist.median() as f64 / 1e3,
        hist.percentile(1.0) as f64 / 1e3,
        hist.percentile(99.0) as f64 / 1e3,
        hist.mean() / 1e3,
        hist.len(),
    );
    let rows: Vec<String> = hist
        .cdf(200)
        .into_iter()
        .map(|(ns, pct)| format!("{:.3},{:.2}", ns as f64 / 1e3, pct))
        .collect();
    write_csv(exp, series_name, "latency_us,percentile", &rows);
}

/// Writes experiment output under `target/experiments/<exp>/<series>.csv`.
pub fn write_csv(exp: &str, series: &str, header: &str, rows: &[String]) {
    let dir = std::path::Path::new("target/experiments").join(exp);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warn: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{}.csv", series.replace([' ', '/'], "_")));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{header}");
            for r in rows {
                let _ = writeln!(f, "{r}");
            }
        }
        Err(e) => eprintln!("warn: cannot write {path:?}: {e}"),
    }
}

/// Per-cell wall-clock seconds, the one nondeterministic output of a bench:
/// one `  wall <cell>: <secs>s` line each on stderr plus
/// `target/experiments/<exp>/<series>.csv` with header `<key>,wall_secs` —
/// never stdout, which stays byte-identical across reruns and thread knobs.
pub fn report_wall<N: std::fmt::Display>(
    exp: &str,
    series: &str,
    key: &str,
    cells: impl IntoIterator<Item = (N, f64)>,
) {
    let rows: Vec<String> = cells
        .into_iter()
        .map(|(name, secs)| {
            eprintln!("  wall {name}: {secs:.3}s");
            format!("{name},{secs:.4}")
        })
        .collect();
    write_csv(exp, series, &format!("{key},wall_secs"), &rows);
}

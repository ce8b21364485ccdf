//! The experiments `swarm-bench` can run, one module each, and the
//! [`EXPERIMENTS`] registry that lists them.
//!
//! Every module exposes `run(quick)`: `quick` is the default volume (sized
//! to finish in seconds), `!quick` the paper's (`--full`). An experiment
//! prints its deterministic report on stdout (pinned byte for byte by
//! `crates/bench/goldens/<name>.stdout`) and writes its CSVs under
//! `target/experiments/<name>/`. Adding one means adding its module and its
//! row here — dispatch, usage text and smoke test pick it up from the row;
//! `crates/bench/goldens/check.sh` names the volume its golden is pinned at.

pub mod bench_scenarios;
pub mod bench_shards;
pub mod bench_tail;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod table3;

/// One runnable experiment: a row of [`EXPERIMENTS`].
pub struct Experiment {
    /// What `swarm-bench <name>` selects; also the experiment's module, its
    /// directory under `target/experiments/` and its golden's file stem.
    pub name: &'static str,
    /// The table, figure or question it reproduces (usage text).
    pub reproduces: &'static str,
    /// Runs it; the argument is `quick` (`false` under `--full`).
    pub run: fn(bool),
}

/// One row per `module: "what it reproduces"`; the module's name is the
/// experiment's name and its `run` the entry point.
macro_rules! registry {
    ($($name:ident: $reproduces:literal,)*) => {
        &[$(Experiment {
            name: stringify!($name),
            reproduces: $reproduces,
            run: $name::run,
        }),*]
    };
}

/// Every experiment: the paper's tables and figures in §7 order, then the
/// beyond-paper benches.
pub const EXPERIMENTS: &[Experiment] = registry! {
    table2: "roundtrips per op, common case & P99",
    fig5: "latency CDFs, 4 systems, YCSB B",
    fig6: "latency CDFs with 1 M keys and 5 MiB caches",
    fig7: "per-core throughput-latency, 1-8 concurrent ops",
    fig8: "scalability, 1-64 clients",
    fig9: "value-size sweep, In-n-Out vs pure out-of-place",
    fig10: "replication factor 3/5/7",
    table3: "resource consumption",
    fig11: "memory-node crash timeline",
    fig12: "extreme contention on a single key",
    fig13: "number of In-n-Out metadata buffers",
    bench_shards: "beyond the paper: 1-16 shard weak scaling and per-shard load imbalance",
    bench_tail: "beyond the paper: p99/p999 under delay spikes, hedged vs unhedged",
    bench_scenarios: "beyond the paper: YCSB A-F, flash crowds, 8 KiB values on 4 shards",
};

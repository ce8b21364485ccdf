//! The experiments `swarm-bench` can run, one module each, and the
//! [`EXPERIMENTS`] registry that lists them.
//!
//! Every module exposes `run(quick)`: `quick` is the default volume (sized
//! to finish in seconds), `!quick` the paper's (`--full`). An experiment
//! prints its deterministic report on stdout (pinned byte for byte by
//! `crates/bench/goldens/<name>.stdout`) and writes its CSVs under
//! `target/experiments/<name>/`. Adding one means adding its module and its
//! row here — usage text, smoke test and goldens check pick it up from the
//! row.

pub mod bench_multiget;
pub mod bench_repair;
pub mod bench_reshard;
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
    /// What `swarm-bench <name>` selects; also the experiment's directory
    /// under `target/experiments/` and its golden's file stem.
    pub name: &'static str,
    /// The table, figure or question it reproduces (usage text).
    pub reproduces: &'static str,
    /// Runs it; the argument is `quick` (`false` under `--full`).
    pub run: fn(bool),
}

/// Every experiment, the paper's tables and figures in §7 order, then the
/// beyond-paper benches.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table2",
        reproduces: "roundtrips per op, common case & P99",
        run: table2::run,
    },
    Experiment {
        name: "fig5",
        reproduces: "latency CDFs, 4 systems, YCSB B",
        run: fig5::run,
    },
    Experiment {
        name: "fig6",
        reproduces: "latency CDFs with 1 M keys and 5 MiB caches",
        run: fig6::run,
    },
    Experiment {
        name: "fig7",
        reproduces: "per-core throughput-latency, 1-8 concurrent ops",
        run: fig7::run,
    },
    Experiment {
        name: "fig8",
        reproduces: "scalability, 1-64 clients",
        run: fig8::run,
    },
    Experiment {
        name: "fig9",
        reproduces: "value-size sweep, In-n-Out vs pure out-of-place",
        run: fig9::run,
    },
    Experiment {
        name: "fig10",
        reproduces: "replication factor 3/5/7",
        run: fig10::run,
    },
    Experiment {
        name: "table3",
        reproduces: "resource consumption",
        run: table3::run,
    },
    Experiment {
        name: "fig11",
        reproduces: "memory-node crash timeline",
        run: fig11::run,
    },
    Experiment {
        name: "fig12",
        reproduces: "extreme contention on a single key",
        run: fig12::run,
    },
    Experiment {
        name: "fig13",
        reproduces: "number of In-n-Out metadata buffers",
        run: fig13::run,
    },
    Experiment {
        name: "bench_multiget",
        reproduces: "beyond the paper: batch size vs latency of the pipelined multi-ops",
        run: bench_multiget::run,
    },
    Experiment {
        name: "bench_shards",
        reproduces: "beyond the paper: 1-16 shard weak scaling and per-shard load imbalance",
        run: bench_shards::run,
    },
    Experiment {
        name: "bench_reshard",
        reproduces: "beyond the paper: throughput timeline across an online shard split",
        run: bench_reshard::run,
    },
    Experiment {
        name: "bench_repair",
        reproduces: "beyond the paper: anti-entropy convergence and bytes per digest strategy",
        run: bench_repair::run,
    },
    Experiment {
        name: "bench_tail",
        reproduces: "beyond the paper: p99/p999 under delay spikes, hedged vs unhedged",
        run: bench_tail::run,
    },
    Experiment {
        name: "bench_scenarios",
        reproduces: "beyond the paper: YCSB A-F, flash crowds, TTL churn, bimodal values; JSON + HTML reports",
        run: bench_scenarios::run,
    },
];

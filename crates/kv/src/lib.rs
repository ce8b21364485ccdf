//! SWARM-KV (§5): a low-latency, strongly consistent, highly available
//! disaggregated key-value store — plus the paper's three baselines, behind
//! one typed store API.
//!
//! # The store API
//!
//! * [`StoreBuilder`] constructs any of the four evaluated systems
//!   ([`Protocol::SafeGuess`] = SWARM-KV, [`Protocol::Abd`] = DM-ABD,
//!   [`Protocol::Raw`], [`Protocol::Fusee`]) through one fluent interface
//!   over one substrate configuration ([`ClusterConfig`] — FUSEE reads its
//!   nodes, value size, fabric, index capacity and RNG label from it too):
//!   `build_cluster()` then `client(id)` per application thread.
//! * [`StoreClient`] is the client of all four: one endpoint, roundtrip
//!   counter, per-operation deadline and `impl KvStore` around the
//!   protocol's own path.
//! * [`KvStore`] is the typed operation trait: `get` returns
//!   `Ok(Some(value))` / `Ok(None)`, mutations return `Result<(), KvError>`
//!   where [`KvError`] distinguishes `NotFound`, `Deleted`, `IndexFull`,
//!   `Timeout` and `NotIndexed`.
//! * Past one replica group, `StoreBuilder::shards(n)` + `build_sharded`
//!   partition the keyspace over independent shard clusters behind
//!   [`ShardRouter`] clients ([`ShardSpec`] is the stateless key→shard
//!   hash; each shard draws from private RNG streams so faults on one
//!   shard cannot perturb another — see [`ShardedCluster`]).
//!
//! ```
//! use swarm_kv::{CacheCapacity, KvStore, Protocol, StoreBuilder};
//! use swarm_sim::Sim;
//!
//! let sim = Sim::new(7);
//! let cluster = StoreBuilder::new(Protocol::SafeGuess)
//!     .value_size(64)
//!     .max_clients(2)
//!     .cache(CacheCapacity::Entries(1024))
//!     .build_cluster(&sim);
//! cluster.load_keys(8, |k| vec![k as u8; 64]);
//! let client = cluster.client(0);
//! sim.block_on(async move {
//!     client.update(3, vec![9u8; 64]).await.expect("key 3 is indexed");
//!     let v3 = client.get(3).await.unwrap().expect("key 3 is live");
//!     assert_eq!(*v3, vec![9u8; 64]);
//! });
//! ```
//!
//! # Inside
//!
//! * [`Protocol::SafeGuess`] is **SWARM-KV**: clients access key-value
//!   pairs replicated over memory nodes directly, with single-roundtrip
//!   `insert`/`update`/`get`/`delete` in the common case.
//! * [`Protocol::Abd`] is **DM-ABD**: the same substrate driven by classic
//!   ABD with pure out-of-place updates (no in-place data, one shared
//!   metadata word) — the "good engineering solution using known
//!   techniques" (§7).
//! * [`Protocol::Raw`] is **RAW**: unreplicated, no concurrency control;
//!   the latency lower bound.
//! * [`Protocol::Fusee`] models **FUSEE** (FAST '23), the state-of-the-art
//!   synchronously replicated disaggregated KV the paper compares against.
//!
//! The first three are one path inside [`StoreClient`] (`client.rs`,
//! selected by a crate-private `Proto`) over a [`Cluster`]; FUSEE is the
//! other (`fusee.rs`) over a [`FuseeCluster`], whose own parameters — 2
//! replicas, a ring of 4 blocks, 800 / 1 300 ns of client work per get /
//! update — are constants beside the model. Everything at the operation
//! boundary (deadline, scan, accounting) is written once, in the shell.
//!
//! Supporting services: a reliable [`Index`] (§5.2), an approximated-LFU
//! location [`cache`](LfuCache) (§7.1), and a lease-based [`Membership`]
//! service standing in for uKharon (§5.4). For correctness testing,
//! [`HistoryRecorder`] wraps any store so every operation lands in a
//! multi-key history checkable with `swarm_core::KvHistory` — the
//! machinery behind the chaos suite (see `TESTING.md`).
//!
//! # Driving a store: one op path, two sources
//!
//! The paper's evaluation is one loop — clients issue ops against a store
//! and record latency and roundtrips — and the crate has one copy of it
//! (`exec.rs`): one `execute` of a six-class op (a YCSB op is the
//! four-class case) against any [`KvStore`], one worker loop, one result
//! type ([`RunStats`], indexed by `ScenarioOpClass`). The two drivers
//! differ only in where a worker's ops come from:
//!
//! * [`run_workload`] draws YCSB ops from the simulation's RNG stream at
//!   runtime against a shared op budget — with several ops in flight per
//!   client ([`RunConfig::concurrency`], §7.2), paced, deadlined, counting
//!   per-op roundtrips. This is what the paper's figures run.
//! * [`run_scenario`] feeds a pre-materialised time-phased `ScenarioSpec`
//!   stream (scans, read-modify-writes, inserts), dealt round-robin to the
//!   clients, every payload [`ScenarioRunConfig::value_cap`] bytes.
//!
//! Either runs over any store handles: plain clients, [`ShardRouter`]s of a
//! [`ShardedCluster`] (one application thread per router, whatever the
//! shard count), or either of them wrapped by [`HistoryRecorder::wrap`],
//! the one place a run is recorded for the linearizability checker.
//!
//! # A function of its arguments
//!
//! Nothing in this crate (or in `swarm-sim`, `swarm-fabric`, `swarm-core`,
//! `swarm-workload` below it) reads an environment variable, counts the
//! host's cores or starts a thread: a driver runs exactly the
//! [`RunConfig`] it is handed on the simulation it is handed. The
//! harness's knobs (`SWARM_BENCH_OPS_SCALE`, `SWARM_BENCH_THREADS`,
//! `SWARM_CHAOS_SEEDS`) are read in `swarm-bench`, which scales the config
//! and spreads independent simulations over threads *before* calling in
//! here — so a seeded call into this crate replays identically under any
//! environment.

#![warn(missing_docs)]

mod builder;
mod cache;
mod client;
mod cluster;
mod exec;
mod fusee;
mod index;
mod membership;
mod recorder;
mod runner;
mod scenario_run;
mod shard;
mod store;

pub use builder::{Protocol, StoreBuilder, StoreCluster};
pub use cache::LfuCache;
pub use client::{CacheCapacity, StoreClient};
pub use cluster::{Cluster, ClusterConfig, KeyInfo, LOADER_TID};
pub use exec::{RunStats, OP_OVERHEAD_NS};
pub use fusee::FuseeCluster;
pub use index::{Index, Swap, INDEX_MSG_BYTES};
pub use membership::Membership;
pub use recorder::{value_tag, HistoryRecorder, RecordingStore};
pub use runner::{run_workload, RunConfig};
pub use scenario_run::{run_scenario, ScenarioRunConfig};
pub use shard::{ShardRouter, ShardSpec, ShardedCluster};
pub use store::{KvError, KvResult, KvStore, ScanItems};
pub use swarm_core::HedgeConfig;

//! Simulated RDMA-style disaggregated-memory fabric.
//!
//! This crate replaces the paper's hardware testbed (4 client servers + 4
//! memory nodes, ConnectX NICs, one 100 Gbps switch — Table 1). It preserves
//! exactly the three properties SWARM requires of the disaggregation
//! technology (§2.1):
//!
//! 1. **Plain reads and writes that need not be atomic.** Large writes apply
//!    to node memory in cache-line-sized chunks over time, so a concurrent
//!    read can observe *torn* data and concurrent writes can clobber each
//!    other — the failure mode In-n-Out's hash validation exists to detect.
//! 2. **A 64-bit atomic compare-and-swap** applied at a single instant.
//! 3. **FIFO pipelining**: operations submitted in one batch over the same
//!    queue pair execute in order at the node and complete in one roundtrip.
//!
//! The latency model has four components, each calibrated against the paper's
//! RAW baseline (§7.1): client CPU issue cost per message series (~200 ns,
//! §7.2), wire/switch propagation with lognormal jitter, store-and-forward
//! serialization at 100 Gbps, and node-side service. All but the jitter are
//! one table of constants (`config.rs`: `ISSUE_NS` … `HEADER_BYTES`). Crash
//! injection drops requests silently (a crashed memory node never answers;
//! clients fail over by timeout, §7.7). [`FaultPlan`] generalizes crash
//! injection into seeded, virtual-time chaos schedules — restarts, switch
//! partitions, delay spikes, probabilistic drop windows — all sharing the
//! same silence semantics.
//!
//! The verb set, [`Op`], is the paper's one-sided Read, Write and CAS: a
//! memory node applies them and computes nothing else.
//!
//! # Examples
//!
//! ```
//! use swarm_sim::Sim;
//! use swarm_fabric::{Fabric, FabricConfig};
//!
//! let sim = Sim::new(1);
//! let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
//! let addr = fabric.node(0.into()).alloc(64, 8);
//! let ep = fabric.endpoint();
//! let sim2 = sim.clone();
//! sim.block_on(async move {
//!     ep.write(0.into(), addr, vec![7u8; 64]).await.unwrap();
//!     let data = ep.read(0.into(), addr, 64).await.unwrap();
//!     assert_eq!(data, vec![7u8; 64]);
//!     assert!(sim2.now() > 1_000); // a realistic roundtrip elapsed
//! });
//! ```

mod config;
mod endpoint;
mod fabric;
mod fault;
mod mem;
mod node;
mod op;

pub use config::{chunk_ns, FabricConfig, CHUNK_BYTES};
pub use endpoint::Endpoint;
pub use fabric::{Fabric, TrafficStats};
pub use fault::{FaultAction, FaultPlan};
pub use mem::NodeMemory;
pub use node::{Node, NodeId};
pub use op::{Op, OpResult, Payload};

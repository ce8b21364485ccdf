//! Fabric latency-model configuration.
//!
//! The model is one calibrated table: the constants below stand for the
//! paper's one testbed (§7: 100 Gbps RDMA, 4 memory nodes, 4 clients), and
//! are calibrated so the RAW (unreplicated) key-value baseline reproduces
//! the paper's measured medians — 1.9 µs gets and 1.6 µs updates with 64 B
//! values (§7.1) — on which every comparative claim is anchored. Only the
//! wire's jitter and the RNG stream are per-fabric settings
//! ([`FabricConfig`]).

use swarm_sim::{Jitter, Nanos};

/// CPU cost for a client core to issue one message series (§7.2 reports
/// 200+ ns per series of RDMA operations).
pub(crate) const ISSUE_NS: Nanos = 250;
/// Link bandwidth in bytes per nanosecond (100 Gbps = 12.5 B/ns); the
/// shared switch serializes at the same rate (`link_ns`).
pub(crate) const LINK_BYTES_PER_NS: f64 = 12.5;
/// Fixed node-side service cost per inbound message.
pub(crate) const NODE_FIXED_NS: Nanos = 60;
/// Extra node-side cost for serving a READ (DMA fetch of the payload).
pub(crate) const READ_EXTRA_NS: Nanos = 290;
/// Memory-write application granularity: a write lands in chunks of this
/// many bytes; concurrent readers can observe torn data in between.
pub const CHUNK_BYTES: usize = 256;
/// Memory bandwidth while applying write chunks (bytes per nanosecond).
pub(crate) const MEM_BYTES_PER_NS: f64 = 25.0;
/// Request/response header bytes (RoCE/IB + transport overheads).
pub(crate) const HEADER_BYTES: usize = 30;

/// Nanoseconds to push `bytes` through one link.
pub(crate) fn link_ns(bytes: usize) -> Nanos {
    (bytes as f64 / LINK_BYTES_PER_NS).ceil() as Nanos
}

/// Nanoseconds to apply one write chunk to node memory.
pub fn chunk_ns() -> Nanos {
    (CHUNK_BYTES as f64 / MEM_BYTES_PER_NS).ceil() as Nanos
}

/// The per-fabric part of the latency model; the rest is the calibrated
/// table above.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// One-way propagation (NIC + switch hop) jitter distribution.
    pub wire: Jitter,
    /// RNG stream for this fabric's per-message draws (wire jitter, fault
    /// drop rolls). `None` (the default) uses the simulation's shared
    /// stream — the historical behavior. `Some(label)` forks a private
    /// stream from `(sim seed, label)` so this fabric's draws cannot
    /// perturb — and are unperturbed by — any other subsystem; sharded
    /// clusters give every shard its own label (see `swarm_sim::SimRng`).
    pub rng_label: Option<u64>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            wire: Jitter::fabric(640.0),
            rng_label: None,
        }
    }
}

impl FabricConfig {
    /// A deterministic configuration with zero jitter, for protocol tests
    /// that assert exact roundtrip counts and timings.
    pub fn deterministic() -> Self {
        FabricConfig {
            wire: Jitter::fixed(640.0),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_100gbps() {
        assert!((LINK_BYTES_PER_NS - 12.5).abs() < 1e-9);
        assert_eq!(link_ns(125), 10);
    }

    #[test]
    fn chunk_time_positive() {
        assert!(chunk_ns() >= 1);
    }
}

//! The harness's runners: `swarm_kv`'s, run at the smoke scale.
//!
//! `SWARM_BENCH_OPS_SCALE` (a positive float, e.g. `0.01`) shrinks every
//! experiment's volume so the smoke test and the goldens exercise each full
//! pipeline in a fraction of the quick-mode time. This module is the only
//! place the scale is read and applied: [`run_workload`] scales the
//! [`RunConfig`] it is handed and passes it to `swarm_kv::run_workload` —
//! which runs exactly what it is given — and [`env_scaled_keys`] scales a
//! keyspace. An experiment that
//! sizes something else by hand (`bench_scenarios`' op count,
//! `bench_multiget`'s trials) reads [`ops_scale`] from here too.

use std::rc::Rc;

use swarm_kv::{KvStore, RunConfig, RunStats};
use swarm_sim::Sim;
use swarm_workload::Workload;

use crate::envknob::env_knob;

/// The volume scale requested via `SWARM_BENCH_OPS_SCALE` (a positive float,
/// e.g. `0.01`), or `None` if the variable is unset or unparsable. An
/// unparsable value is ignored with a one-time warning on stderr (the
/// shared [`env_knob`] convention).
pub fn ops_scale() -> Option<f64> {
    env_knob(
        "SWARM_BENCH_OPS_SCALE",
        "a positive float like 0.01",
        |s: &f64| s.is_finite() && *s > 0.0,
    )
}

#[cfg(test)]
fn parse_ops_scale(raw: Option<&str>) -> Option<f64> {
    crate::envknob::parse_knob(
        "SWARM_BENCH_OPS_SCALE",
        raw,
        "a positive float like 0.01",
        |s: &f64| s.is_finite() && *s > 0.0,
    )
}

/// The keyspace size after applying `SWARM_BENCH_OPS_SCALE`: bulk loading
/// dominates wall time in unoptimized builds, and key-distribution
/// properties do not matter for a smoke run. Used by both [`crate::build`]
/// and [`crate::ExpParams::workload`] so loaded and sampled keyspaces always
/// agree.
pub fn env_scaled_keys(n_keys: u64) -> u64 {
    ops_scale().map_or(n_keys, |scale| scaled_keys(n_keys, scale))
}

/// `n` keys at `scale`, never below 64 (or `n` itself when smaller).
fn scaled_keys(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale) as u64).clamp(64.min(n), n)
}

/// Applies `scale` to every volume knob of `cfg`: op counts, prewarm keys,
/// and the virtual-time deadline (`None` = unchanged).
fn scaled_by(cfg: &RunConfig, scale: Option<f64>) -> RunConfig {
    let Some(scale) = scale else {
        return cfg.clone();
    };
    let scaled = |n: u64| ((n as f64 * scale) as u64).max(1);
    RunConfig {
        warmup_ops: if cfg.warmup_ops > 0 {
            scaled(cfg.warmup_ops)
        } else {
            0
        },
        measure_ops: scaled(cfg.measure_ops),
        // Scaled like the keyspace, so prewarming still covers the keyspace
        // it is meant to warm.
        prewarm_keys: cfg.prewarm_keys.map(|n| scaled_keys(n, scale)),
        deadline_ns: cfg.deadline_ns.map(scaled),
        ..cfg.clone()
    }
}

/// [`swarm_kv::run_workload`] over `cfg` scaled by `SWARM_BENCH_OPS_SCALE`.
pub fn run_workload<S: KvStore + 'static>(
    sim: &Sim,
    stores: &[Rc<S>],
    workload: &Workload,
    cfg: &RunConfig,
) -> RunStats {
    swarm_kv::run_workload(sim, stores, workload, &scaled_by(cfg, ops_scale()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unparsable_ops_scale_is_ignored_with_warning() {
        // The parse-failure path: the config must come back unchanged.
        assert_eq!(parse_ops_scale(Some("banana")), None);
        assert_eq!(parse_ops_scale(Some("")), None);
        assert_eq!(parse_ops_scale(Some("-0.5")), None, "negative scales");
        assert_eq!(parse_ops_scale(Some("inf")), None, "non-finite scales");
        let cfg = RunConfig {
            warmup_ops: 123,
            measure_ops: 456,
            ..Default::default()
        };
        let scaled = scaled_by(&cfg, parse_ops_scale(Some("banana")));
        assert_eq!(scaled.warmup_ops, 123);
        assert_eq!(scaled.measure_ops, 456);
    }

    #[test]
    fn valid_ops_scale_shrinks_volume_knobs() {
        assert_eq!(parse_ops_scale(Some("0.5")), Some(0.5));
        assert_eq!(parse_ops_scale(None), None);
        let cfg = RunConfig {
            warmup_ops: 100,
            measure_ops: 1_000,
            ..Default::default()
        };
        let scaled = scaled_by(&cfg, Some(0.1));
        assert_eq!(scaled.warmup_ops, 10);
        assert_eq!(scaled.measure_ops, 100);
    }
}

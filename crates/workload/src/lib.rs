//! YCSB-style workload generation (§7: "We run YCSB workloads A (50% gets
//! and 50% updates) and B (95% gets and 5% updates) with Zipfian (.99) key
//! distribution").
//!
//! The Zipfian sampler is the standard Gray et al. rejection-free generator
//! (the one YCSB itself uses), with a multiplicative hash scramble so that
//! popular keys are spread across the key space rather than clustered at
//! small ids.
//!
//! Beyond the static [`Workload`] mixes, the [`scenario`](ScenarioSpec)
//! layer adds time-phased specs: per-phase op mixes covering the full YCSB
//! A–F family (scans and read-modify-writes included), per-phase Zipfian
//! theta and hot-set rotation for flash crowds. Scenario op streams are pure in `(seed, spec)` — see
//! `docs/SCENARIOS.md` for the cookbook.

#![warn(missing_docs)]

mod scenario;
mod spec;
mod zipfian;

pub use scenario::{
    scenario_value, Phase, ScenarioMix, ScenarioOp, ScenarioOpClass, ScenarioSpec, ScenarioStream,
};
pub use spec::{OpType, Workload, WorkloadSpec};
pub use zipfian::Zipfian;

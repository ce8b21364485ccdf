//! YCSB-style workload generation (§7: "We run YCSB workloads A (50% gets
//! and 50% updates) and B (95% gets and 5% updates) with Zipfian (.99) key
//! distribution").
//!
//! The Zipfian sampler is the standard Gray et al. rejection-free generator
//! (the one YCSB itself uses), with a multiplicative hash scramble so that
//! popular keys are spread across the key space rather than clustered at
//! small ids.
//!
//! One set of op types serves both drivers: a [`ScenarioMix`] (YCSB A–F),
//! a [`ScenarioOpClass`], a [`ScenarioOp`] and one payload,
//! [`scenario_value`]. A static [`Workload`] is a mix plus a key
//! distribution, drawn at runtime; a YCSB figure's mix is the four-class
//! case (no scans, no read-modify-writes). The [`scenario`](ScenarioSpec)
//! layer adds time-phased specs: per-phase mixes, Zipfian theta and
//! hot-set rotation for flash crowds. Scenario op streams are pure in
//! `(seed, spec)` — see `docs/SCENARIOS.md` for the cookbook.

#![warn(missing_docs)]

mod scenario;
mod spec;
mod zipfian;

pub use scenario::{
    scenario_value, Phase, ScenarioMix, ScenarioOp, ScenarioOpClass, ScenarioSpec, ScenarioStream,
};
pub use spec::Workload;

/// The mix type under its former name, kept only because the fixed
/// benchmark package (`benchmark/`) names it; use [`ScenarioMix`].
pub type WorkloadSpec = ScenarioMix;

/// The op class type under its former name, kept only because the fixed
/// benchmark package (`benchmark/`) names it; use [`ScenarioOpClass`].
pub type OpType = ScenarioOpClass;
pub use zipfian::Zipfian;

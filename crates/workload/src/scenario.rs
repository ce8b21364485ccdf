//! Time-phased scenario specifications: dynamic skew and the full YCSB
//! A–F mix family (including scans and read-modify-writes).
//!
//! A [`ScenarioSpec`] is a *schedule* of [`Phase`]s. Each phase carries its
//! own operation mix ([`ScenarioMix`]), Zipfian skew (`theta`), and hot-set
//! rotation, so a scenario can model a flash crowd: the hot keys move
//! mid-run when one phase's `rotation` differs from the previous phase's.
//!
//! # Determinism
//!
//! The operation stream is a **pure function of `(seed, spec)`**: the
//! generator's only entropy source is a self-contained splitmix64 stream
//! seeded from the scenario seed, so `spec.ops(seed)` regenerates
//! bit-identically on every call, in every process, at any thread count.
//! (A property test pins exactly that.) Replaying one phase of a run needs
//! nothing but the `(seed, spec)` pair and the phase index — see
//! TESTING.md's scenario replay conventions.
//!
//! # Example
//!
//! ```
//! use swarm_workload::{Phase, ScenarioMix, ScenarioOp, ScenarioSpec};
//!
//! // A flash crowd: 200 calm YCSB-B ops, then 200 ops with the hot set
//! // rotated to a different key region, then calm again.
//! let spec = ScenarioSpec::new("flash", 10_000)
//!     .phase(Phase::new(200, ScenarioMix::B).theta(0.9))
//!     .phase(Phase::new(200, ScenarioMix::A).theta(0.99).rotate(5_000))
//!     .phase(Phase::new(200, ScenarioMix::B).theta(0.9));
//! let ops = spec.ops(42);
//! assert_eq!(ops.len(), 600);
//! assert_eq!(ops, spec.ops(42), "pure in (seed, spec)");
//! assert!(ops.iter().all(|op| match *op {
//!     ScenarioOp::Scan { start, .. } => start < 10_000,
//!     op => op.key() < 10_000,
//! }));
//! ```

use crate::zipfian::{scramble64, Zipfian};

/// One operation class a scenario mix can emit (the histogram axis of
/// scenario reports). [`ScenarioOp::class`] maps a concrete operation back
/// to its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioOpClass {
    /// Point read.
    Get,
    /// Point overwrite.
    Update,
    /// Insert (an upsert, §5.3.1).
    Insert,
    /// Point delete.
    Delete,
    /// Ordered range read (YCSB E).
    Scan,
    /// Read-modify-write: a get followed by an update of the same key
    /// (YCSB F).
    Rmw,
}

impl ScenarioOpClass {
    /// All classes, in reporting order.
    pub fn all() -> [ScenarioOpClass; 6] {
        [
            ScenarioOpClass::Get,
            ScenarioOpClass::Update,
            ScenarioOpClass::Insert,
            ScenarioOpClass::Delete,
            ScenarioOpClass::Scan,
            ScenarioOpClass::Rmw,
        ]
    }

    /// Lower-case display name (report field keys).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioOpClass::Get => "get",
            ScenarioOpClass::Update => "update",
            ScenarioOpClass::Insert => "insert",
            ScenarioOpClass::Delete => "delete",
            ScenarioOpClass::Scan => "scan",
            ScenarioOpClass::Rmw => "rmw",
        }
    }
}

/// One fully resolved operation of a scenario stream. Every field a driver
/// needs — key, write version, scan bounds — is baked in at generation
/// time, so executing the stream draws no further randomness. A payload's
/// size is the run's, not the op's (`swarm_kv::ScenarioRunConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioOp {
    /// Read `key`.
    Get {
        /// The key to read.
        key: u64,
    },
    /// Overwrite `key` with the payload [`scenario_value`] derives from
    /// `(key, version)`.
    Update {
        /// The key to overwrite.
        key: u64,
        /// Monotone stream-unique version (the payload tag seed).
        version: u64,
    },
    /// Insert `key` with the payload [`scenario_value`] derives from
    /// `(key, version)`.
    Insert {
        /// The key to insert.
        key: u64,
        /// Monotone stream-unique version (the payload tag seed).
        version: u64,
    },
    /// Delete `key`.
    Delete {
        /// The key to delete.
        key: u64,
    },
    /// Ordered range read: up to `limit` live keys starting at `start`,
    /// ascending (YCSB E).
    Scan {
        /// First key of the range (inclusive).
        start: u64,
        /// Maximum number of keys to return.
        limit: usize,
    },
    /// Read `key`, then overwrite it with a fresh payload (YCSB F's
    /// read-modify-write).
    Rmw {
        /// The key to read and overwrite.
        key: u64,
        /// Monotone stream-unique version (the payload tag seed).
        version: u64,
    },
}

impl ScenarioOp {
    /// The four-class case: a YCSB `(op, key, version)` draw as a resolved
    /// operation.
    pub fn ycsb(op: crate::OpType, key: u64, version: u64) -> ScenarioOp {
        match op {
            crate::OpType::Get => ScenarioOp::Get { key },
            crate::OpType::Update => ScenarioOp::Update { key, version },
            crate::OpType::Insert => ScenarioOp::Insert { key, version },
            crate::OpType::Delete => ScenarioOp::Delete { key },
        }
    }

    /// The operation's class (histogram axis).
    pub fn class(&self) -> ScenarioOpClass {
        match self {
            ScenarioOp::Get { .. } => ScenarioOpClass::Get,
            ScenarioOp::Update { .. } => ScenarioOpClass::Update,
            ScenarioOp::Insert { .. } => ScenarioOpClass::Insert,
            ScenarioOp::Delete { .. } => ScenarioOpClass::Delete,
            ScenarioOp::Scan { .. } => ScenarioOpClass::Scan,
            ScenarioOp::Rmw { .. } => ScenarioOpClass::Rmw,
        }
    }

    /// The primary key the operation addresses (a scan's range start).
    pub fn key(&self) -> u64 {
        match *self {
            ScenarioOp::Get { key }
            | ScenarioOp::Update { key, .. }
            | ScenarioOp::Insert { key, .. }
            | ScenarioOp::Delete { key }
            | ScenarioOp::Rmw { key, .. } => key,
            ScenarioOp::Scan { start, .. } => start,
        }
    }
}

/// A six-way operation mix (percentages must sum to 100). Extends the
/// four-way [`crate::WorkloadSpec`] with scans and read-modify-writes,
/// which completes the standard YCSB core workload family A–F.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioMix {
    /// Percent of point reads.
    pub get_pct: u64,
    /// Percent of point overwrites.
    pub update_pct: u64,
    /// Percent of inserts.
    pub insert_pct: u64,
    /// Percent of deletes.
    pub delete_pct: u64,
    /// Percent of ordered range reads (scans).
    pub scan_pct: u64,
    /// Percent of read-modify-writes.
    pub rmw_pct: u64,
}

impl ScenarioMix {
    const ZERO: ScenarioMix = ScenarioMix {
        get_pct: 0,
        update_pct: 0,
        insert_pct: 0,
        delete_pct: 0,
        scan_pct: 0,
        rmw_pct: 0,
    };

    /// YCSB A — update heavy: 50% gets, 50% updates.
    pub const A: ScenarioMix = ScenarioMix {
        get_pct: 50,
        update_pct: 50,
        ..Self::ZERO
    };

    /// YCSB B — read mostly: 95% gets, 5% updates.
    pub const B: ScenarioMix = ScenarioMix {
        get_pct: 95,
        update_pct: 5,
        ..Self::ZERO
    };

    /// YCSB C — read only: 100% gets.
    pub const C: ScenarioMix = ScenarioMix {
        get_pct: 100,
        ..Self::ZERO
    };

    /// YCSB D — read latest: 95% gets, 5% inserts.
    pub const D: ScenarioMix = ScenarioMix {
        get_pct: 95,
        insert_pct: 5,
        ..Self::ZERO
    };

    /// YCSB E — short ranges: 95% scans, 5% inserts.
    pub const E: ScenarioMix = ScenarioMix {
        scan_pct: 95,
        insert_pct: 5,
        ..Self::ZERO
    };

    /// YCSB F — read-modify-write: 50% gets, 50% RMWs.
    pub const F: ScenarioMix = ScenarioMix {
        get_pct: 50,
        rmw_pct: 50,
        ..Self::ZERO
    };

    /// The six standard mixes with their YCSB letters, in order.
    pub fn ycsb_all() -> [(&'static str, ScenarioMix); 6] {
        [
            ("A", ScenarioMix::A),
            ("B", ScenarioMix::B),
            ("C", ScenarioMix::C),
            ("D", ScenarioMix::D),
            ("E", ScenarioMix::E),
            ("F", ScenarioMix::F),
        ]
    }

    /// Picks an operation class from a uniform draw in `[0, 100)`.
    ///
    /// # Panics
    ///
    /// Panics if the percentages do not sum to 100.
    pub fn pick(&self, roll: u64) -> ScenarioOpClass {
        assert_eq!(
            self.get_pct
                + self.update_pct
                + self.insert_pct
                + self.delete_pct
                + self.scan_pct
                + self.rmw_pct,
            100,
            "scenario mix percentages must sum to 100"
        );
        let mut edge = self.get_pct;
        if roll < edge {
            return ScenarioOpClass::Get;
        }
        edge += self.update_pct;
        if roll < edge {
            return ScenarioOpClass::Update;
        }
        edge += self.insert_pct;
        if roll < edge {
            return ScenarioOpClass::Insert;
        }
        edge += self.delete_pct;
        if roll < edge {
            return ScenarioOpClass::Delete;
        }
        edge += self.scan_pct;
        if roll < edge {
            return ScenarioOpClass::Scan;
        }
        ScenarioOpClass::Rmw
    }
}

impl From<crate::WorkloadSpec> for ScenarioMix {
    /// Widens a four-way mix (no scans, no RMWs) into the six-way form.
    fn from(s: crate::WorkloadSpec) -> Self {
        ScenarioMix {
            get_pct: s.get_pct,
            update_pct: s.update_pct,
            insert_pct: s.insert_pct,
            delete_pct: s.delete_pct,
            ..Self::ZERO
        }
    }
}

impl From<crate::OpType> for ScenarioOpClass {
    /// The four YCSB op kinds are the first four classes.
    fn from(op: crate::OpType) -> Self {
        match op {
            crate::OpType::Get => ScenarioOpClass::Get,
            crate::OpType::Update => ScenarioOpClass::Update,
            crate::OpType::Insert => ScenarioOpClass::Insert,
            crate::OpType::Delete => ScenarioOpClass::Delete,
        }
    }
}

/// One phase of a scenario: an operation count plus the mix/skew/rotation
/// that govern it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Number of operations this phase emits.
    pub ops: usize,
    /// The operation mix.
    pub mix: ScenarioMix,
    /// Zipfian skew parameter in `[0, 1)`; `0.0` is uniform, `0.99` the
    /// YCSB default.
    pub theta: f64,
    /// Hot-set rotation: ranks are offset by this amount *before* the hash
    /// scramble, so two phases with different rotations have (almost
    /// entirely) disjoint hot sets over the same keyspace. `rotation = 0`
    /// reproduces [`Zipfian::ycsb`]'s mapping bit for bit.
    pub rotation: u64,
}

impl Phase {
    /// A phase of `ops` operations with mix `mix`, YCSB-default skew
    /// (`theta = 0.99`), and no rotation.
    pub fn new(ops: usize, mix: ScenarioMix) -> Self {
        Phase {
            ops,
            mix,
            theta: 0.99,
            rotation: 0,
        }
    }

    /// Sets the Zipfian skew (`0.0` = uniform; must be `< 1`).
    pub fn theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Rotates the hot set: offsets sampled ranks by `rotation` before the
    /// hash scramble (see [`Phase::rotation`]).
    pub fn rotate(mut self, rotation: u64) -> Self {
        self.rotation = rotation;
        self
    }
}

/// A complete scenario: a named schedule of [`Phase`]s over one keyspace.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (report section titles, CSV file stems).
    pub name: String,
    /// Keys in the main keyspace (`0..n_keys` are assumed bulk-loaded).
    pub n_keys: u64,
    /// The phase schedule, executed in order.
    pub phases: Vec<Phase>,
    /// Upper bound on scan lengths; each scan draws a limit uniformly from
    /// `1..=scan_max_len`.
    pub scan_max_len: usize,
}

impl ScenarioSpec {
    /// A scenario over `0..n_keys` with no phases yet and scans of up to 16
    /// keys.
    pub fn new(name: impl Into<String>, n_keys: u64) -> Self {
        assert!(n_keys > 0, "a scenario needs a non-empty keyspace");
        ScenarioSpec {
            name: name.into(),
            n_keys,
            phases: Vec::new(),
            scan_max_len: 16,
        }
    }

    /// Appends a phase to the schedule.
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Sets the scan-length upper bound (`>= 1`).
    pub fn scan_max_len(mut self, len: usize) -> Self {
        assert!(len >= 1, "scans return at least one key");
        self.scan_max_len = len;
        self
    }

    /// A single-phase YCSB scenario: `ops` operations of `mix` at the
    /// default skew (`theta = 0.99`).
    pub fn ycsb(name: impl Into<String>, mix: ScenarioMix, n_keys: u64, ops: usize) -> Self {
        Self::new(name, n_keys).phase(Phase::new(ops, mix))
    }

    /// The canonical flash-crowd schedule: a calm third at moderate skew, a
    /// crowd third at maximum skew with the hot set rotated halfway across
    /// the keyspace, then a calm third again. Total `ops` operations.
    pub fn flash_crowd(name: impl Into<String>, mix: ScenarioMix, n_keys: u64, ops: usize) -> Self {
        let third = ops / 3;
        Self::new(name, n_keys)
            .phase(Phase::new(third, mix).theta(0.9))
            .phase(
                Phase::new(ops - 2 * third, mix)
                    .theta(0.99)
                    .rotate(n_keys / 2),
            )
            .phase(Phase::new(third, mix).theta(0.9))
    }

    /// Total operations across all phases.
    pub fn total_ops(&self) -> usize {
        self.phases.iter().map(|p| p.ops).sum()
    }

    /// The stream of operations for `seed`, generated lazily. Pure in
    /// `(seed, spec)`: the same pair regenerates the identical stream.
    pub fn stream(&self, seed: u64) -> ScenarioStream<'_> {
        ScenarioStream {
            spec: self,
            rng: StreamRng::new(seed),
            phase: 0,
            emitted_in_phase: 0,
            emitted_total: 0,
            keys: None,
        }
    }

    /// The full operation vector for `seed` (see [`ScenarioSpec::stream`]).
    pub fn ops(&self, seed: u64) -> Vec<ScenarioOp> {
        self.stream(seed).collect()
    }
}

/// Deterministic per-`(key, version)` payload of exactly `size` bytes: the
/// first 8 bytes are a little-endian tag unique per `(key, version)` (what
/// `swarm_kv::value_tag` recovers), the rest a tag-derived pattern.
/// Mirrors `Workload::value_for` with an explicit size.
pub fn scenario_value(key: u64, version: u64, size: usize) -> Vec<u8> {
    let mut v = vec![0u8; size];
    let tag = key
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(version)
        .to_le_bytes();
    for (i, b) in v.iter_mut().enumerate() {
        *b = tag[i % 8] ^ (i as u8);
    }
    v[..8.min(size)].copy_from_slice(&tag[..8.min(size)]);
    v
}

/// Lazy scenario op generator (see [`ScenarioSpec::stream`]).
///
/// The per-phase Zipfian sampler is built on phase entry; every draw comes
/// from one self-contained splitmix64 stream, so the iterator is pure in
/// `(seed, spec)` and allocation-light.
pub struct ScenarioStream<'a> {
    spec: &'a ScenarioSpec,
    rng: StreamRng,
    phase: usize,
    emitted_in_phase: usize,
    emitted_total: u64,
    keys: Option<Zipfian>,
}

impl Iterator for ScenarioStream<'_> {
    type Item = ScenarioOp;

    fn next(&mut self) -> Option<ScenarioOp> {
        // Advance past exhausted (or empty) phases.
        loop {
            let phase = self.spec.phases.get(self.phase)?;
            if self.emitted_in_phase < phase.ops {
                break;
            }
            self.phase += 1;
            self.emitted_in_phase = 0;
            self.keys = None;
        }
        let phase = self.spec.phases[self.phase];
        let keys = self
            .keys
            .get_or_insert_with(|| Zipfian::new(self.spec.n_keys, phase.theta, true));
        self.emitted_in_phase += 1;
        let version = self.emitted_total;
        self.emitted_total += 1;

        let class = phase.mix.pick(self.rng.roll(100));
        let rank_u = self.rng.next_f64();
        let key = sample_rotated(keys, rank_u, phase.rotation);
        Some(match class {
            ScenarioOpClass::Get => ScenarioOp::Get { key },
            ScenarioOpClass::Update => ScenarioOp::Update { key, version },
            ScenarioOpClass::Insert => ScenarioOp::Insert { key, version },
            ScenarioOpClass::Delete => ScenarioOp::Delete { key },
            ScenarioOpClass::Scan => ScenarioOp::Scan {
                start: key,
                limit: 1 + self.rng.roll(self.spec.scan_max_len as u64) as usize,
            },
            ScenarioOpClass::Rmw => ScenarioOp::Rmw { key, version },
        })
    }
}

/// Samples a key with the phase's hot-set rotation: the Zipfian *rank* is
/// offset (mod `n`) before the hash scramble, so rotation moves which keys
/// are hot without changing the rank distribution. At `rotation = 0` this
/// is exactly `Zipfian::sample`.
fn sample_rotated(z: &Zipfian, u: f64, rotation: u64) -> u64 {
    let rank = z.sample_rank(u);
    scramble64((rank + rotation) % z.n()) % z.n()
}

/// Self-contained splitmix64 stream: the scenario generator's only entropy
/// source. Kept private to this crate so scenario purity cannot silently
/// grow a dependency on simulator RNG state.
#[derive(Debug, Clone)]
struct StreamRng {
    state: u64,
}

impl StreamRng {
    fn new(seed: u64) -> Self {
        // One warm-up step decorrelates small consecutive seeds.
        let mut s = StreamRng {
            state: seed ^ 0xA076_1D64_78BD_642F,
        };
        s.next_u64();
        s
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, n)`.
    fn roll(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn six_mix_spec(ops: usize) -> ScenarioSpec {
        let mix = ScenarioMix {
            get_pct: 30,
            update_pct: 20,
            insert_pct: 20,
            delete_pct: 10,
            scan_pct: 10,
            rmw_pct: 10,
        };
        ScenarioSpec::new("six", 1_000).phase(Phase::new(ops, mix))
    }

    /// Every materialised stream (`run_scenario`) holds one op per element:
    /// two words and a tag.
    #[test]
    fn an_op_is_three_words() {
        assert_eq!(std::mem::size_of::<ScenarioOp>(), 24);
    }

    #[test]
    fn stream_is_pure_in_seed_and_spec() {
        let spec = six_mix_spec(500);
        let a = spec.ops(7);
        let b = spec.ops(7);
        assert_eq!(a, b, "same (seed, spec) must regenerate bit-identically");
        let c = spec.ops(8);
        assert_ne!(a, c, "a different seed must produce a different stream");
    }

    #[test]
    fn phases_emit_exactly_their_op_counts() {
        let spec = ScenarioSpec::new("phases", 100)
            .phase(Phase::new(10, ScenarioMix::A))
            .phase(Phase::new(0, ScenarioMix::B))
            .phase(Phase::new(5, ScenarioMix::C));
        assert_eq!(spec.total_ops(), 15);
        assert_eq!(spec.ops(1).len(), 15);
        // The last 5 ops come from the read-only phase.
        let ops = spec.ops(1);
        assert!(ops[10..]
            .iter()
            .all(|op| op.class() == ScenarioOpClass::Get));
    }

    #[test]
    fn mixes_sum_to_100_and_pick_covers_all_classes() {
        for (_, mix) in ScenarioMix::ycsb_all() {
            for roll in 0..100 {
                let _ = mix.pick(roll); // would panic on a bad sum
            }
        }
        let e_scans = (0..100)
            .filter(|&r| ScenarioMix::E.pick(r) == ScenarioOpClass::Scan)
            .count();
        assert_eq!(e_scans, 95);
        let f_rmws = (0..100)
            .filter(|&r| ScenarioMix::F.pick(r) == ScenarioOpClass::Rmw)
            .count();
        assert_eq!(f_rmws, 50);
    }

    #[test]
    fn keys_stay_in_range_and_scans_respect_bounds() {
        let spec = six_mix_spec(2_000);
        for op in spec.ops(3) {
            match op {
                ScenarioOp::Scan { start, limit } => {
                    assert!(start < spec.n_keys);
                    assert!((1..=spec.scan_max_len).contains(&limit));
                }
                op => assert!(op.key() < spec.n_keys),
            }
        }
    }

    #[test]
    fn rotation_zero_matches_plain_ycsb_sampling() {
        let z = Zipfian::ycsb(10_000);
        let mut rng = StreamRng::new(9);
        for _ in 0..5_000 {
            let u = rng.next_f64();
            assert_eq!(sample_rotated(&z, u, 0), z.sample(u));
        }
    }

    #[test]
    fn rotation_moves_the_hot_set() {
        // The most frequent key under rotation 0 and rotation n/2 must
        // differ: the whole point of a flash crowd.
        let spec0 = ScenarioSpec::new("r0", 10_000).phase(Phase::new(20_000, ScenarioMix::C));
        let spec1 =
            ScenarioSpec::new("r1", 10_000).phase(Phase::new(20_000, ScenarioMix::C).rotate(5_000));
        let top = |spec: &ScenarioSpec| {
            let mut counts = std::collections::HashMap::new();
            for op in spec.ops(4) {
                *counts.entry(op.key()).or_insert(0u32) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap()
        };
        let (k0, c0) = top(&spec0);
        let (k1, c1) = top(&spec1);
        assert_ne!(k0, k1, "rotation must move the hottest key");
        // Both phases are equally skewed.
        assert!(c0 > 200 && c1 > 200, "hot keys stay hot: {c0} {c1}");
    }

    #[test]
    fn scenario_values_are_distinct_and_sized() {
        assert_eq!(scenario_value(1, 0, 64).len(), 64);
        assert_ne!(scenario_value(1, 0, 64), scenario_value(2, 0, 64));
        assert_ne!(scenario_value(1, 0, 64), scenario_value(1, 1, 64));
        // The tag prefix round-trips through a first-8-bytes-LE reader.
        let v = scenario_value(3, 7, 64);
        let tag = u64::from_le_bytes(v[..8].try_into().unwrap());
        assert_eq!(tag, 3u64.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7));
    }

    #[test]
    fn versions_are_stream_unique() {
        let spec = six_mix_spec(1_000);
        let mut seen = std::collections::HashSet::new();
        for op in spec.ops(6) {
            let v = match op {
                ScenarioOp::Update { version, .. }
                | ScenarioOp::Insert { version, .. }
                | ScenarioOp::Rmw { version, .. } => version,
                _ => continue,
            };
            assert!(seen.insert(v), "duplicate version {v}");
        }
    }

    #[test]
    fn flash_crowd_preset_has_three_phases() {
        let spec = ScenarioSpec::flash_crowd("fc", ScenarioMix::B, 1_000, 300);
        assert_eq!(spec.phases.len(), 3);
        assert_eq!(spec.total_ops(), 300);
        assert_eq!(spec.phases[1].rotation, 500);
        assert!(spec.phases[1].theta > spec.phases[0].theta);
    }
}

//! The runtime-drawn YCSB workload: a mix plus a key distribution.

use crate::scenario::{scenario_value, ScenarioMix, ScenarioOpClass};
use crate::zipfian::Zipfian;

/// A workload: a mix plus a key distribution.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Operation mix.
    pub spec: ScenarioMix,
    /// Key sampler.
    pub keys: Zipfian,
    /// Value size in bytes.
    pub value_size: usize,
}

impl Workload {
    /// YCSB workload over `n_keys` keys with the given mix and value size.
    pub fn ycsb(spec: ScenarioMix, n_keys: u64, value_size: usize) -> Self {
        Workload {
            spec,
            keys: Zipfian::ycsb(n_keys),
            value_size,
        }
    }

    /// Draws the next `(class, key)` pair from two uniform samples.
    pub fn next_op(&self, roll: u64, u: f64) -> (ScenarioOpClass, u64) {
        (self.spec.pick(roll % 100), self.keys.sample(u))
    }

    /// The payload of `(key, version)`: [`scenario_value`] at this
    /// workload's value size.
    pub fn value_for(&self, key: u64, version: u64) -> Vec<u8> {
        scenario_value(key, version, self.value_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_pick_respects_mix() {
        let w = Workload::ycsb(ScenarioMix::B, 10, 8);
        let gets = (0..100)
            .filter(|&roll| w.next_op(roll, 0.5).0 == ScenarioOpClass::Get)
            .count();
        assert_eq!(gets, 95);
    }

    #[test]
    fn workload_a_is_half_updates() {
        let w = Workload::ycsb(ScenarioMix::A, 10, 8);
        let updates = (0..100)
            .filter(|&roll| w.next_op(roll, 0.5).0 == ScenarioOpClass::Update)
            .count();
        assert_eq!(updates, 50);
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_panics() {
        let bad = ScenarioMix {
            get_pct: 10,
            update_pct: 10,
            ..ScenarioMix::C
        };
        Workload::ycsb(bad, 10, 8).next_op(5, 0.5);
    }

    #[test]
    fn values_differ_by_key_and_version() {
        let w = Workload::ycsb(ScenarioMix::C, 10, 64);
        assert_eq!(w.value_for(1, 0).len(), 64);
        assert_ne!(w.value_for(1, 0), w.value_for(2, 0));
        assert_ne!(w.value_for(1, 0), w.value_for(1, 1));
    }

    #[test]
    fn value_for_matches_the_byte_at_a_time_definition() {
        for size in [0usize, 1, 7, 8, 9, 64, 255, 257, 1000, 8192] {
            let w = Workload::ycsb(ScenarioMix::A, 10, size);
            for (key, version) in [(0u64, 0u64), (3, 9), (u64::MAX, 1 << 40)] {
                let tag = key
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(version)
                    .to_le_bytes();
                let reference: Vec<u8> = (0..size).map(|i| tag[i % 8] ^ (i as u8)).collect();
                assert_eq!(w.value_for(key, version), reference, "size {size}");
            }
        }
    }

    #[test]
    fn next_op_uses_distribution() {
        let w = Workload::ycsb(ScenarioMix::A, 100, 8);
        let (op, key) = w.next_op(0, 0.5);
        assert_eq!(op, ScenarioOpClass::Get);
        assert!(key < 100);
    }
}

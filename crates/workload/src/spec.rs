//! Workload mixes and the operation stream generator.

use crate::zipfian::Zipfian;

/// One key-value operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpType {
    /// Read a key.
    Get,
    /// Overwrite a key's value.
    Update,
    /// Insert a new key.
    Insert,
    /// Remove a key.
    Delete,
}

/// An operation mix (percentages must sum to 100).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Percent of gets.
    pub get_pct: u64,
    /// Percent of updates.
    pub update_pct: u64,
    /// Percent of inserts.
    pub insert_pct: u64,
    /// Percent of deletes.
    pub delete_pct: u64,
}

impl WorkloadSpec {
    /// YCSB workload A: 50% gets, 50% updates.
    pub const A: WorkloadSpec = WorkloadSpec {
        get_pct: 50,
        update_pct: 50,
        insert_pct: 0,
        delete_pct: 0,
    };

    /// YCSB workload B: 95% gets, 5% updates.
    pub const B: WorkloadSpec = WorkloadSpec {
        get_pct: 95,
        update_pct: 5,
        insert_pct: 0,
        delete_pct: 0,
    };

    /// YCSB workload C: read-only.
    pub const C: WorkloadSpec = WorkloadSpec {
        get_pct: 100,
        update_pct: 0,
        insert_pct: 0,
        delete_pct: 0,
    };

    /// YCSB workload D (read latest): 95% gets, 5% inserts. The "latest"
    /// aspect lives in the key distribution the caller pairs it with; the
    /// mix itself is what distinguishes D from B.
    pub const D: WorkloadSpec = WorkloadSpec {
        get_pct: 95,
        update_pct: 0,
        insert_pct: 5,
        delete_pct: 0,
    };

    /// Picks an [`OpType`] from a uniform draw in `[0, 100)`.
    ///
    /// # Panics
    ///
    /// Panics if the percentages do not sum to 100.
    pub fn pick(&self, roll: u64) -> OpType {
        assert_eq!(
            self.get_pct + self.update_pct + self.insert_pct + self.delete_pct,
            100,
            "workload percentages must sum to 100"
        );
        if roll < self.get_pct {
            OpType::Get
        } else if roll < self.get_pct + self.update_pct {
            OpType::Update
        } else if roll < self.get_pct + self.update_pct + self.insert_pct {
            OpType::Insert
        } else {
            OpType::Delete
        }
    }
}

/// A workload: a mix plus a key distribution.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Operation mix.
    pub spec: WorkloadSpec,
    /// Key sampler.
    pub keys: Zipfian,
    /// Value size in bytes.
    pub value_size: usize,
}

impl Workload {
    /// YCSB workload over `n_keys` keys with the given mix and value size.
    pub fn ycsb(spec: WorkloadSpec, n_keys: u64, value_size: usize) -> Self {
        Workload {
            spec,
            keys: Zipfian::ycsb(n_keys),
            value_size,
        }
    }

    /// Draws the next `(op, key)` pair from two uniform samples.
    pub fn next_op(&self, roll: u64, u: f64) -> (OpType, u64) {
        (self.spec.pick(roll % 100), self.keys.sample(u))
    }

    /// Deterministic per-(key, version) value payload of `value_size` bytes.
    ///
    /// Byte `i` is `tag[i % 8] ^ (i as u8)` for the little-endian bytes of
    /// `tag = key * 0x9E3779B97F4A7C15 + version`: a pattern that repeats
    /// every 256 bytes, so one block is built a word at a time and copied.
    pub fn value_for(&self, key: u64, version: u64) -> Vec<u8> {
        let n = self.value_size;
        let tag = key.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(version);
        let mut block = [0u8; 256];
        for (j, w) in block[..n.min(256).next_multiple_of(8)]
            .chunks_exact_mut(8)
            .enumerate()
        {
            // Byte indices `8j..8j + 8`, one per lane; `8j + 7 < 256`, so
            // no lane carries into the next.
            let index = 0x0101_0101_0101_0101 * (8 * j as u64) + 0x0706_0504_0302_0100;
            w.copy_from_slice(&(tag ^ index).to_le_bytes());
        }
        let mut v = Vec::with_capacity(n);
        while n - v.len() >= 256 {
            v.extend_from_slice(&block);
        }
        v.extend_from_slice(&block[..n - v.len()]);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_pick_respects_mix() {
        let mut gets = 0;
        for roll in 0..100 {
            if WorkloadSpec::B.pick(roll) == OpType::Get {
                gets += 1;
            }
        }
        assert_eq!(gets, 95);
    }

    #[test]
    fn workload_a_is_half_updates() {
        let updates = (0..100)
            .filter(|&r| WorkloadSpec::A.pick(r) == OpType::Update)
            .count();
        assert_eq!(updates, 50);
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_panics() {
        let bad = WorkloadSpec {
            get_pct: 10,
            update_pct: 10,
            insert_pct: 0,
            delete_pct: 0,
        };
        bad.pick(5);
    }

    #[test]
    fn values_differ_by_key_and_version() {
        let w = Workload::ycsb(WorkloadSpec::C, 10, 64);
        assert_eq!(w.value_for(1, 0).len(), 64);
        assert_ne!(w.value_for(1, 0), w.value_for(2, 0));
        assert_ne!(w.value_for(1, 0), w.value_for(1, 1));
    }

    #[test]
    fn value_for_matches_the_byte_at_a_time_definition() {
        for size in [0usize, 1, 7, 8, 9, 64, 255, 257, 1000, 8192] {
            let w = Workload::ycsb(WorkloadSpec::A, 10, size);
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
        let w = Workload::ycsb(WorkloadSpec::A, 100, 8);
        let (op, key) = w.next_op(0, 0.5);
        assert_eq!(op, OpType::Get);
        assert!(key < 100);
    }
}

//! Client-side location cache with approximated-LFU replacement.
//!
//! Clients cache the location of a key's replicas (≈24 B per key; 32 B in
//! SWARM-KV since entries also carry In-n-Out's cached metadata word) so
//! repeat accesses bypass the index (§5.2). The 1M-key experiment (Figure 6)
//! limits this cache to 5 MiB and uses "an approximation of LFU" — we use
//! sampled-LFU eviction (pick the least-frequently-used among a small random
//! sample), the standard approximation.

use std::collections::HashMap;

use swarm_sim::SimRng;

/// How many occupied slots an eviction samples.
const SAMPLE: usize = 8;

/// A fixed-capacity key→value cache with sampled-LFU eviction.
pub struct LfuCache<V> {
    cap: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Option<(u64, V, u32)>>,
    free: Vec<usize>,
    hits: u64,
    misses: u64,
}

impl<V> LfuCache<V> {
    /// Creates a cache holding at most `cap` entries (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1);
        LfuCache {
            cap,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up `key`, bumping its frequency.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        match self.map.get(&key) {
            Some(&slot) => {
                self.hits += 1;
                let entry = self.slots[slot].as_mut().unwrap();
                entry.2 = entry.2.saturating_add(1);
                Some(&self.slots[slot].as_ref().unwrap().1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key`, evicting a sampled-LFU victim if full. `rng` supplies
    /// the (deterministic) sampling randomness — the owning client's
    /// stream, so a bounded cache in one shard cannot perturb another's.
    pub fn insert(&mut self, rng: &SimRng, key: u64, value: V) {
        if let Some(&slot) = self.map.get(&key) {
            let e = self.slots[slot].as_mut().unwrap();
            e.1 = value;
            e.2 = e.2.saturating_add(1);
            return;
        }
        if self.map.len() >= self.cap {
            self.evict_one(rng);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some((key, value, 1));
                s
            }
            None => {
                self.slots.push(Some((key, value, 1)));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
    }

    /// Removes `key` if present (cache flush after a delete, §5.3.3).
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let slot = self.map.remove(&key)?;
        let (_, v, _) = self.slots[slot].take().unwrap();
        self.free.push(slot);
        Some(v)
    }

    fn evict_one(&mut self, rng: &SimRng) {
        debug_assert!(!self.map.is_empty());
        let n = self.slots.len();
        let mut victim: Option<(usize, u32)> = None;
        let mut tried = 0;
        while tried < SAMPLE * 3 && victim.map(|_| tried < SAMPLE).unwrap_or(true) {
            let s = rng.rand_range(0, n as u64) as usize;
            tried += 1;
            if let Some((_, _, freq)) = &self.slots[s] {
                match victim {
                    Some((_, best)) if *freq >= best => {}
                    _ => victim = Some((s, *freq)),
                }
            }
        }
        let (slot, _) = victim.expect("non-empty cache must yield a victim");
        let (key, _, _) = self.slots[slot].take().unwrap();
        self.map.remove(&key);
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_sim::Sim;

    #[test]
    fn basic_get_insert_remove() {
        let rng = Sim::new(1).rng().clone();
        let mut c: LfuCache<u32> = LfuCache::new(4);
        c.insert(&rng, 1, 10);
        assert_eq!(c.get(1), Some(&10));
        assert_eq!(c.get(2), None);
        assert_eq!(c.remove(1), Some(10));
        assert_eq!(c.get(1), None);
        assert_eq!(c.stats(), (1, 2));
    }

    #[test]
    fn capacity_is_enforced() {
        let rng = Sim::new(2).rng().clone();
        let mut c: LfuCache<u32> = LfuCache::new(8);
        for k in 0..100 {
            c.insert(&rng, k, k as u32);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn hot_entries_survive_eviction() {
        let rng = Sim::new(3).rng().clone();
        let mut c: LfuCache<u32> = LfuCache::new(16);
        // Make keys 0..4 hot.
        for k in 0..4 {
            c.insert(&rng, k, 0);
        }
        for _ in 0..50 {
            for k in 0..4 {
                c.get(k);
            }
        }
        // Flood with cold keys.
        for k in 100..400 {
            c.insert(&rng, k, 0);
        }
        let survivors = (0..4).filter(|&k| c.get(k).is_some()).count();
        assert!(survivors >= 3, "hot keys evicted: {survivors}/4 left");
    }

    #[test]
    fn reinsert_updates_value() {
        let rng = Sim::new(4).rng().clone();
        let mut c: LfuCache<u32> = LfuCache::new(2);
        c.insert(&rng, 1, 10);
        c.insert(&rng, 1, 20);
        assert_eq!(c.get(1), Some(&20));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn slot_reuse_after_remove() {
        let rng = Sim::new(5).rng().clone();
        let mut c: LfuCache<u32> = LfuCache::new(2);
        c.insert(&rng, 1, 1);
        c.insert(&rng, 2, 2);
        c.remove(1);
        c.insert(&rng, 3, 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(3), Some(&3));
    }
}

//! Deterministic random streams: the simulation's shared stream and private
//! streams seeded from `(seed, label)`.
//!
//! Every random draw in the workspace — wire jitter, clock offsets, cache
//! eviction, workload sampling — goes through a [`SimRng`]. A `Sim` owns
//! one, its *shared* stream ([`Sim::rng`]); independent subsystems draw
//! from *private* ones instead ([`SimRng::from_seed`], [`Sim::fork_rng`]),
//! because an extra draw in one (say, a fault-injected message drop) would
//! otherwise shift the shared stream for everything built on the same
//! `Sim`, so a fault plan aimed at one shard would perturb every other
//! shard's execution. A private stream is seeded purely from `(simulation
//! seed, label)` and consumes nothing from the shared one: two runs with
//! the same seed give every label the same draw sequence, regardless of
//! what any other stream does in between.
//!
//! The generator and both derived draws are part of the seed contract (the
//! quick `table2`/`fig5` numbers and every replayed run rest on them):
//! xoshiro256++ seeded through SplitMix64 (Blackman & Vigna, 2021; vendored
//! as `rand::rngs::SmallRng`), 53-bit `f64`s, and Lemire's unbiased bounded
//! ranges (2019). The tests below pin the first draws of both kinds of
//! stream.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

#[cfg(doc)]
use crate::executor::Sim;

/// A deterministic random stream. Cheaply cloneable; clones share the same
/// state.
#[derive(Clone, Debug)]
pub struct SimRng(Rc<RefCell<SmallRng>>);

/// splitmix64 finalizer: full-avalanche mixing for seed derivation.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// A stream seeded directly from `seed`: `Sim::new(seed)`'s shared
    /// stream.
    pub(crate) fn seeded(seed: u64) -> Self {
        SimRng(Rc::new(RefCell::new(SmallRng::seed_from_u64(seed))))
    }

    /// The private stream `Sim::new(seed).fork_rng(Some(label))` returns,
    /// without needing a `Sim`.
    ///
    /// This is the bridge between one *root seed* and many independent
    /// simulations: every `Sim::new(seed)` — however many of them exist, on
    /// whatever threads — forks the same private stream for the same label,
    /// and this constructor lets a workload planner draw from those streams
    /// *before* (or without) building any simulation. The one-`Sim`-per-
    /// shard driver in `swarm-kv` leans on this: shard simulations all carry
    /// the root seed, per-shard divergence comes entirely from fork labels,
    /// and the pre-partitioned op streams are planned from the same labels
    /// on the coordinating thread.
    pub fn from_seed(seed: u64, label: u64) -> Self {
        Self::seeded(splitmix64(seed ^ splitmix64(label)))
    }

    /// Draws a uniformly random `u64`.
    pub fn rand_u64(&self) -> u64 {
        self.0.borrow_mut().next_u64()
    }

    /// Draws a uniformly random value in `[0, 1)`.
    pub fn rand_f64(&self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.rand_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a uniformly random value in `[lo, hi)`, unbiased via Lemire's
    /// widening-multiply method (one draw per attempt, rejecting the few
    /// that would favour low values).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn rand_range(&self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let n = hi - lo;
        loop {
            let x = self.rand_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n || low >= n.wrapping_neg() % n {
                return lo + (m >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;

    #[test]
    fn first_draws_are_pinned() {
        // Literal values of the generator the seed contract rests on: a
        // different generator, seeding, `f64` or range mapping fails here
        // instead of silently moving every simulated number.
        let sim = Sim::new(42);
        let rng = sim.rng();
        assert_eq!(
            [(); 3].map(|_| rng.rand_u64()),
            [
                15021278609987233951,
                5881210131331364753,
                18149643915985481100
            ]
        );
        assert_eq!(
            [(); 2].map(|_| rng.rand_f64()),
            [0.7011355981347556, 0.793504489691729]
        );
        assert_eq!([(); 2].map(|_| rng.rand_range(0, 1000)), [588, 125]);
        // A width-1 range returns its only member and still consumes a draw.
        assert_eq!(rng.rand_range(5, 6), 5);
        assert_eq!(rng.rand_u64(), 3831705504650218695);

        let fork = SimRng::from_seed(42, 7);
        assert_eq!(
            [(); 3].map(|_| fork.rand_u64()),
            [
                714532490285697850,
                14734027452058226545,
                17787581430263840407
            ]
        );
        assert_eq!(fork.rand_f64(), 0.1222595502942635);
        assert_eq!(fork.rand_range(10, 20), 13);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SimRng::from_seed(7, 0);
        let b = SimRng::from_seed(7, 0);
        for _ in 0..64 {
            assert_eq!(a.rand_u64(), b.rand_u64());
        }
        let c = SimRng::from_seed(8, 0);
        assert_ne!(a.rand_u64(), c.rand_u64());
    }

    #[test]
    fn f64_unit_interval() {
        let r = Sim::new(1).rng().clone();
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&r.rand_f64()));
        }
    }

    #[test]
    fn range_draws_stay_in_bounds() {
        let f = Sim::new(2).fork_rng(Some(0xABCD));
        for _ in 0..1000 {
            let v = f.rand_range(10, 20);
            assert!((10..20).contains(&v));
        }
        let x = f.rand_f64();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn range_bounds_respected() {
        let r = Sim::new(2).rng().clone();
        for _ in 0..10_000 {
            assert!((10..20).contains(&r.rand_range(10, 20)));
        }
        // A width-1 range must always return its only member.
        assert_eq!(r.rand_range(5, 6), 5);
    }

    #[test]
    fn bounded_sampling_is_roughly_uniform() {
        let r = Sim::new(3).rng().clone();
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.rand_range(0, 8) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn shared_handle_is_the_global_stream() {
        // Interleaved draws through a clone and through the sim's own handle
        // come from one stream: a second seeded sim replays the merged
        // sequence.
        let sim = Sim::new(9);
        let rng = sim.rng().clone();
        let merged = [rng.rand_u64(), sim.rng().rand_u64(), rng.rand_u64()];
        let replay = Sim::new(9);
        let expect = [(); 3].map(|_| replay.rng().rand_u64());
        assert_eq!(merged, expect);
    }

    #[test]
    fn unlabelled_fork_is_the_shared_stream() {
        let sim = Sim::new(9);
        let merged = [sim.fork_rng(None).rand_u64(), sim.rng().rand_u64()];
        let replay = Sim::new(9);
        assert_eq!(merged, [(); 2].map(|_| replay.rng().rand_u64()));
    }

    #[test]
    fn forks_are_independent_of_global_draws() {
        // Same (seed, label) must yield the same fork stream no matter how
        // many global draws happen around it.
        let a = {
            let sim = Sim::new(7);
            let f = sim.fork_rng(Some(3));
            (0..4).map(|_| f.rand_u64()).collect::<Vec<_>>()
        };
        let b = {
            let sim = Sim::new(7);
            for _ in 0..100 {
                sim.rng().rand_u64(); // global churn a fault plan might cause
            }
            let f = sim.fork_rng(Some(3));
            sim.rng().rand_u64();
            (0..4).map(|_| f.rand_u64()).collect::<Vec<_>>()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn forks_do_not_consume_the_global_stream() {
        let plain = {
            let sim = Sim::new(5);
            [sim.rng().rand_u64(), sim.rng().rand_u64()]
        };
        let with_fork = {
            let sim = Sim::new(5);
            let f = sim.fork_rng(Some(1));
            let first = sim.rng().rand_u64();
            f.rand_u64();
            [first, sim.rng().rand_u64()]
        };
        assert_eq!(plain, with_fork);
    }

    #[test]
    fn distinct_labels_and_seeds_give_distinct_streams() {
        let sim = Sim::new(11);
        let a = sim.fork_rng(Some(0));
        let b = sim.fork_rng(Some(1));
        assert_ne!(
            (0..4).map(|_| a.rand_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.rand_u64()).collect::<Vec<_>>()
        );
        let other_seed = Sim::new(12).fork_rng(Some(0));
        let again = Sim::new(11).fork_rng(Some(0));
        assert_ne!(again.rand_u64(), other_seed.rand_u64());
    }

    #[test]
    fn from_seed_matches_fork_rng() {
        // The sim-free constructor must be byte-compatible with forking off
        // a live simulation — it is how pre-planned workload streams and
        // per-shard simulations on other threads line up.
        let via_sim: Vec<u64> = {
            let f = Sim::new(77).fork_rng(Some(0xD00D));
            (0..8).map(|_| f.rand_u64()).collect()
        };
        let direct: Vec<u64> = {
            let f = SimRng::from_seed(77, 0xD00D);
            (0..8).map(|_| f.rand_u64()).collect()
        };
        assert_eq!(via_sim, direct);
    }
}

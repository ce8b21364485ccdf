//! Deterministic RNG streams: the shared simulation stream, or private
//! forks of it.
//!
//! Historically every random draw — wire jitter, clock offsets, workload
//! sampling — came from the one seeded generator inside [`Sim`]. That is
//! fine for a single cluster, but it couples otherwise independent
//! subsystems: an extra draw in one (say, a fault-injected message drop)
//! shifts the stream for everything built on the same `Sim`, so a fault
//! plan aimed at one shard would perturb every other shard's execution.
//!
//! [`SimRng`] decouples them. A handle is either *shared* — delegating to
//! the `Sim`'s global stream, byte-for-byte compatible with the historical
//! behavior — or *private*: its own generator seeded purely from
//! `(simulation seed, label)` by [`Sim::fork_rng`], consuming nothing from
//! the global stream. Two runs with the same seed give every
//! `fork_rng(label)` the same draw sequence, regardless of what any other
//! stream does in between — which is exactly the isolation sharded
//! clusters need.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::executor::Sim;

/// A deterministic random stream: the simulation's shared stream, or a
/// private fork of it. Cheaply cloneable; clones share the same state.
#[derive(Clone)]
pub struct SimRng {
    kind: Kind,
}

#[derive(Clone)]
enum Kind {
    /// Delegates to the `Sim`'s global generator (the historical behavior).
    Shared(Sim),
    /// An independent generator; draws consume nothing from the global
    /// stream.
    Private(Rc<RefCell<SmallRng>>),
}

/// splitmix64 finalizer: full-avalanche mixing for seed derivation.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// The shared stream of `sim` (draws interleave with every other shared
    /// user, exactly like calling `sim.rand_*` directly).
    pub fn shared(sim: &Sim) -> Self {
        SimRng {
            kind: Kind::Shared(sim.clone()),
        }
    }

    /// A private stream seeded from `(seed, label)` (used by
    /// [`Sim::fork_rng`]).
    pub(crate) fn forked(seed: u64, label: u64) -> Self {
        let derived = splitmix64(seed ^ splitmix64(label));
        SimRng {
            kind: Kind::Private(Rc::new(RefCell::new(SmallRng::seed_from_u64(derived)))),
        }
    }

    /// The exact stream `Sim::new(seed).fork_rng(label)` would return,
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
        Self::forked(seed, label)
    }

    /// Draws a uniformly random `u64`.
    pub fn rand_u64(&self) -> u64 {
        match &self.kind {
            Kind::Shared(sim) => sim.rand_u64(),
            Kind::Private(rng) => rng.borrow_mut().random(),
        }
    }

    /// Draws a uniformly random value in `[0, 1)`.
    pub fn rand_f64(&self) -> f64 {
        match &self.kind {
            Kind::Shared(sim) => sim.rand_f64(),
            Kind::Private(rng) => rng.borrow_mut().random::<f64>(),
        }
    }

    /// Draws a uniformly random value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn rand_range(&self, lo: u64, hi: u64) -> u64 {
        match &self.kind {
            Kind::Shared(sim) => sim.rand_range(lo, hi),
            Kind::Private(rng) => {
                assert!(lo < hi, "empty range");
                rng.borrow_mut().random_range(lo..hi)
            }
        }
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            Kind::Shared(_) => f.write_str("SimRng::Shared"),
            Kind::Private(_) => f.write_str("SimRng::Private"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_handle_is_the_global_stream() {
        // Interleaved draws through a shared handle and through the sim must
        // come from one stream: a second seeded sim replays the merged
        // sequence.
        let sim = Sim::new(9);
        let rng = SimRng::shared(&sim);
        let merged = [rng.rand_u64(), sim.rand_u64(), rng.rand_u64()];
        let replay = Sim::new(9);
        let expect = [replay.rand_u64(), replay.rand_u64(), replay.rand_u64()];
        assert_eq!(merged, expect);
    }

    #[test]
    fn forks_are_independent_of_global_draws() {
        // Same (seed, label) must yield the same fork stream no matter how
        // many global draws happen around it.
        let a = {
            let sim = Sim::new(7);
            let f = sim.fork_rng(3);
            (0..4).map(|_| f.rand_u64()).collect::<Vec<_>>()
        };
        let b = {
            let sim = Sim::new(7);
            for _ in 0..100 {
                sim.rand_u64(); // global churn a fault plan might cause
            }
            let f = sim.fork_rng(3);
            sim.rand_u64();
            (0..4).map(|_| f.rand_u64()).collect::<Vec<_>>()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn forks_do_not_consume_the_global_stream() {
        let plain = {
            let sim = Sim::new(5);
            [sim.rand_u64(), sim.rand_u64()]
        };
        let with_fork = {
            let sim = Sim::new(5);
            let f = sim.fork_rng(1);
            let first = sim.rand_u64();
            f.rand_u64();
            [first, sim.rand_u64()]
        };
        assert_eq!(plain, with_fork);
    }

    #[test]
    fn distinct_labels_and_seeds_give_distinct_streams() {
        let sim = Sim::new(11);
        let a = sim.fork_rng(0);
        let b = sim.fork_rng(1);
        assert_ne!(
            (0..4).map(|_| a.rand_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.rand_u64()).collect::<Vec<_>>()
        );
        let other_seed = Sim::new(12).fork_rng(0);
        let again = Sim::new(11).fork_rng(0);
        assert_ne!(again.rand_u64(), other_seed.rand_u64());
    }

    #[test]
    fn from_seed_matches_fork_rng() {
        // The sim-free constructor must be byte-compatible with forking off
        // a live simulation — it is how pre-planned workload streams and
        // per-shard simulations on other threads line up.
        let via_sim: Vec<u64> = {
            let f = Sim::new(77).fork_rng(0xD00D);
            (0..8).map(|_| f.rand_u64()).collect()
        };
        let direct: Vec<u64> = {
            let f = SimRng::from_seed(77, 0xD00D);
            (0..8).map(|_| f.rand_u64()).collect()
        };
        assert_eq!(via_sim, direct);
    }

    #[test]
    fn range_draws_stay_in_bounds() {
        let f = Sim::new(2).fork_rng(0xABCD);
        for _ in 0..1000 {
            let v = f.rand_range(10, 20);
            assert!((10..20).contains(&v));
        }
        let x = f.rand_f64();
        assert!((0.0..1.0).contains(&x));
    }
}

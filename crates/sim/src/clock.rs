//! Loosely synchronized per-client clocks for timestamp guessing.
//!
//! SWARM clients guess write timestamps from "a loosely synchronized
//! TSC-based clock that they re-synchronize every time they guess a stale
//! timestamp" (§6). We model each client clock as true virtual time plus a
//! bounded offset and a parts-per-million drift. [`GuessClock::resync`]
//! shrinks the offset, mimicking the paper's resynchronization on a detected
//! stale guess.

use std::cell::Cell;

use crate::executor::Sim;
use crate::rng::SimRng;
use crate::time::Nanos;

/// A drifting, offset, loosely synchronized clock.
pub struct GuessClock {
    sim: Sim,
    /// Stream the offset/resync draws come from (private for clocks that
    /// must not perturb other subsystems' streams).
    rng: SimRng,
    /// Fixed-point offset from true time, in nanoseconds (may be negative).
    offset_ns: Cell<i64>,
    /// Drift in parts per million (positive = runs fast).
    drift_ppm: f64,
    /// Virtual time at which the clock was last synchronized.
    synced_at: Cell<Nanos>,
    /// Maximum |offset| right after a resync.
    resync_bound_ns: i64,
}

impl GuessClock {
    /// Creates a clock with initial offset uniform in `±initial_bound_ns` and
    /// the given drift, drawing its offsets from `rng` (the shared
    /// [`Sim::rng`] or a private [`Sim::fork_rng`] stream).
    pub fn new(
        sim: &Sim,
        rng: SimRng,
        initial_bound_ns: i64,
        drift_ppm: f64,
        resync_bound_ns: i64,
    ) -> Self {
        let off = if initial_bound_ns == 0 {
            0
        } else {
            rng.rand_range(0, 2 * initial_bound_ns as u64) as i64 - initial_bound_ns
        };
        GuessClock {
            sim: sim.clone(),
            rng,
            offset_ns: Cell::new(off),
            drift_ppm,
            synced_at: Cell::new(0),
            resync_bound_ns,
        }
    }

    /// A perfectly synchronized clock (no offset, no drift).
    pub fn perfect(sim: &Sim) -> Self {
        Self::new(sim, sim.rng().clone(), 0, 0.0, 0)
    }

    /// Reads the local clock, in nanoseconds.
    pub fn read_ns(&self) -> Nanos {
        let now = self.sim.now();
        let since_sync = now.saturating_sub(self.synced_at.get()) as f64;
        let drifted = (since_sync * self.drift_ppm / 1e6) as i64;
        let local = now as i64 + self.offset_ns.get() + drifted;
        local.max(0) as Nanos
    }

    /// Re-synchronizes: the new offset is uniform in `±resync_bound_ns`.
    ///
    /// Called by writers when they discover they guessed a stale timestamp.
    pub fn resync(&self) {
        let b = self.resync_bound_ns;
        let off = if b == 0 {
            0
        } else {
            self.rng.rand_range(0, 2 * b as u64) as i64 - b
        };
        self.offset_ns.set(off);
        self.synced_at.set(self.sim.now());
    }

    /// Current offset from true time including drift, in nanoseconds.
    pub fn current_error_ns(&self) -> i64 {
        let now = self.sim.now();
        let since_sync = now.saturating_sub(self.synced_at.get()) as f64;
        self.offset_ns.get() + (since_sync * self.drift_ppm / 1e6) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NANOS_PER_SEC;

    #[test]
    fn perfect_clock_tracks_virtual_time() {
        let sim = Sim::new(1);
        let c = GuessClock::perfect(&sim);
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep_ns(12_345).await;
            assert_eq!(c.read_ns(), 12_345);
        });
    }

    #[test]
    fn offset_is_bounded() {
        let sim = Sim::new(2);
        for _ in 0..32 {
            let c = GuessClock::new(&sim, sim.rng().clone(), 500, 0.0, 100);
            assert!(c.current_error_ns().abs() <= 500);
            c.resync();
            assert!(c.current_error_ns().abs() <= 100);
        }
    }

    #[test]
    fn drift_accumulates_until_resync() {
        let sim = Sim::new(3);
        let c = GuessClock::new(&sim, sim.rng().clone(), 0, 100.0, 0); // 100 ppm fast
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep_ns(NANOS_PER_SEC).await; // 1 s -> 100 µs of drift
            let err = c.current_error_ns();
            assert!((99_000..101_000).contains(&err), "err {err}");
            c.resync();
            assert_eq!(c.current_error_ns(), 0);
        });
    }

    #[test]
    fn read_is_monotone_under_positive_drift() {
        let sim = Sim::new(4);
        let c = GuessClock::new(&sim, sim.rng().clone(), 0, 50.0, 0);
        let s = sim.clone();
        sim.block_on(async move {
            let mut prev = c.read_ns();
            for _ in 0..10 {
                s.sleep_ns(1_000).await;
                let v = c.read_ns();
                assert!(v >= prev);
                prev = v;
            }
        });
    }
}

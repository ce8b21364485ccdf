//! Zipfian key sampler (Gray et al., "Quickly generating billion-record
//! synthetic databases", SIGMOD '94 — the algorithm YCSB uses).

/// Zipfian distribution over `0..n` with parameter `theta` (YCSB default
/// 0.99), plus an optional hash scramble decorrelating rank from key id.
/// `theta = 0` degenerates to the uniform distribution (every key equally
/// likely — the sharded scale bench's balanced-load workload).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scramble: bool,
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Exact for the sizes used here (<= a few million); O(n) once at setup.
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl Zipfian {
    /// Creates a sampler over `n` items with parameter `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `[0, 1)`.
    pub fn new(n: u64, theta: f64, scramble: bool) -> Self {
        assert!(n > 0);
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            scramble,
        }
    }

    /// YCSB's default: theta = 0.99, scrambled.
    pub fn ycsb(n: u64) -> Self {
        Self::new(n, 0.99, true)
    }

    /// The uniform distribution over `0..n` (`theta = 0`; the Gray et al.
    /// recurrence collapses to `rank = u * n` exactly). Unscrambled: with
    /// no rank skew there is nothing to decorrelate, and skipping the
    /// scramble keeps every key's probability exactly `1/n` (`hash % n`
    /// collides occasionally).
    pub fn uniform(n: u64) -> Self {
        Self::new(n, 0.0, false)
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws one key in `0..n` from a uniform sample `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> u64 {
        let rank = self.sample_rank(u);
        if self.scramble {
            // Fibonacci-hash scramble, bijective over 0..n via re-ranking.
            scramble64(rank) % self.n
        } else {
            rank
        }
    }

    /// Draws the popularity *rank* (0 = hottest) in `0..n` from a uniform
    /// sample `u ∈ [0, 1)`, before any scramble. The scenario engine uses
    /// this to rotate hot sets: offset the rank, then scramble.
    pub fn sample_rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        rank.min(self.n - 1)
    }

    /// Probability of the most popular (rank-0) item.
    pub fn top_probability(&self) -> f64 {
        1.0 / self.zetan
    }
}

pub(crate) fn scramble64(x: u64) -> u64 {
    // splitmix64 finalizer: bijective on u64, excellent diffusion.
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipfian::ycsb(1000);
        for u in uniform_stream(1, 10_000) {
            assert!(z.sample(u) < 1000);
        }
    }

    #[test]
    fn unscrambled_rank0_frequency_matches_theory() {
        let z = Zipfian::new(10_000, 0.99, false);
        let n = 200_000;
        let hits = uniform_stream(2, n)
            .into_iter()
            .filter(|&u| z.sample(u) == 0)
            .count();
        let expected = z.top_probability();
        let got = hits as f64 / n as f64;
        assert!(
            (got - expected).abs() / expected < 0.1,
            "rank-0 freq {got}, expected {expected}"
        );
    }

    #[test]
    fn distribution_is_heavily_skewed() {
        // With theta=.99 over 100k keys, the top ~1% of keys should draw a
        // large fraction of accesses.
        let z = Zipfian::new(100_000, 0.99, false);
        let samples: Vec<u64> = uniform_stream(3, 100_000)
            .into_iter()
            .map(|u| z.sample(u))
            .collect();
        let hot = samples.iter().filter(|&&k| k < 1_000).count();
        let frac = hot as f64 / samples.len() as f64;
        assert!(frac > 0.3, "hot-key fraction only {frac}");
    }

    #[test]
    fn scramble_spreads_hot_keys() {
        let z = Zipfian::ycsb(100_000);
        let samples: Vec<u64> = uniform_stream(4, 50_000)
            .into_iter()
            .map(|u| z.sample(u))
            .collect();
        // The most frequent key should NOT be key 0 after scrambling (with
        // overwhelming probability).
        let mut counts = std::collections::HashMap::new();
        for s in &samples {
            *counts.entry(*s).or_insert(0u32) += 1;
        }
        let (&top, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert_ne!(top, 0, "scramble left rank 0 at key 0");
        // Still skewed: top key sampled much more than uniform share.
        assert!(counts[&top] as f64 > 50.0 * (50_000.0 / 100_000.0));
    }

    #[test]
    fn scramble_collisions_are_birthday_bounded() {
        // `hash % n` does collide occasionally (as in YCSB itself); the rate
        // among the 1000 hottest ranks must stay at birthday-paradox levels,
        // not systematic clustering.
        let z = Zipfian::ycsb(100_000);
        let mut seen = std::collections::HashSet::new();
        let mut collisions = 0;
        for rank in 0..1_000u64 {
            if !seen.insert(scramble64(rank) % z.n) {
                collisions += 1;
            }
        }
        assert!(
            collisions <= 15,
            "too many hot-rank collisions: {collisions}"
        );
    }

    #[test]
    fn uniform_theta_zero_is_flat() {
        let z = Zipfian::uniform(1_000);
        let n = 200_000;
        let mut counts = vec![0u32; 1_000];
        for u in uniform_stream(8, n) {
            counts[z.sample(u) as usize] += 1;
        }
        // Every key sampled, none wildly over-represented: max/mean well
        // under the ~13x a theta=.99 Zipfian would show.
        let max = *counts.iter().max().unwrap() as f64;
        let mean = n as f64 / 1_000.0;
        assert!(counts.iter().all(|&c| c > 0), "a key was never sampled");
        assert!(max / mean < 1.5, "uniform max/mean {:.2}", max / mean);
    }

    #[test]
    fn uniform_rank_is_u_times_n() {
        let z = Zipfian::uniform(10_000);
        for u in uniform_stream(9, 1_000) {
            assert_eq!(z.sample(u), (u * 10_000.0) as u64);
        }
    }
}

//! Latency jitter distributions.
//!
//! Real RDMA roundtrip latencies are tightly concentrated with a long right
//! tail (switch queuing, cache misses, occasional preemption). We model the
//! per-message wire jitter as a lognormal around a base value plus a rare
//! heavy-tail spike; this reproduces the shape of the paper's latency CDFs
//! (steep body, visible P99 shoulder) without hardware.
//!
//! Implemented from scratch on top of uniform `f64`s (Box–Muller) so we do
//! not need `rand_distr`.

use crate::rng::SimRng;
use crate::time::Nanos;

/// A jitter model: lognormal body plus a rare additive tail spike.
#[derive(Debug, Clone, Copy)]
pub struct Jitter {
    /// Median of the lognormal body, in nanoseconds.
    pub median_ns: f64,
    /// Sigma of the underlying normal (0 = deterministic).
    pub sigma: f64,
    /// Probability of an additional tail spike per sample.
    pub tail_prob: f64,
    /// Mean of the (exponential) tail spike, in nanoseconds.
    pub tail_mean_ns: f64,
}

impl Jitter {
    /// A deterministic "jitter" that always returns `median_ns`.
    pub fn fixed(median_ns: f64) -> Self {
        Jitter {
            median_ns,
            sigma: 0.0,
            tail_prob: 0.0,
            tail_mean_ns: 0.0,
        }
    }

    /// Standard fabric jitter used by the evaluation: a narrow lognormal with
    /// a ~0.7% exponential tail.
    pub fn fabric(median_ns: f64) -> Self {
        Jitter {
            median_ns,
            sigma: 0.06,
            tail_prob: 0.007,
            tail_mean_ns: 900.0,
        }
    }

    /// Draws one sample from `rng`, in nanoseconds. Subsystems with a
    /// private [`SimRng`] (e.g. per-shard fabrics) pass it so their jitter
    /// draws cannot perturb any other stream.
    pub fn sample(&self, rng: &SimRng) -> Nanos {
        let mut v = self.median_ns;
        if self.sigma > 0.0 {
            let z = standard_normal_rng(rng);
            v *= (self.sigma * z).exp();
        }
        if self.tail_prob > 0.0 && rng.rand_f64() < self.tail_prob {
            v += exponential_rng(rng, self.tail_mean_ns);
        }
        v.max(0.0) as Nanos
    }
}

/// Draws a standard normal from the given stream via Box–Muller.
fn standard_normal_rng(rng: &SimRng) -> f64 {
    // Avoid ln(0).
    let u1 = rng.rand_f64().max(1e-12);
    let u2 = rng.rand_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws an exponential with the given mean from the given stream.
fn exponential_rng(rng: &SimRng, mean: f64) -> f64 {
    let u = rng.rand_f64().max(1e-12);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    #[test]
    fn fixed_jitter_is_constant() {
        let sim = Sim::new(3);
        let j = Jitter::fixed(650.0);
        for _ in 0..16 {
            assert_eq!(j.sample(sim.rng()), 650);
        }
    }

    #[test]
    fn lognormal_median_is_close() {
        let sim = Sim::new(4);
        let j = Jitter {
            median_ns: 1000.0,
            sigma: 0.1,
            tail_prob: 0.0,
            tail_mean_ns: 0.0,
        };
        let mut samples: Vec<Nanos> = (0..20_001).map(|_| j.sample(sim.rng())).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        assert!(
            (900..1100).contains(&median),
            "median {median} too far from 1000"
        );
    }

    #[test]
    fn exponential_mean_is_close() {
        let rng = Sim::new(5).rng().clone();
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| exponential_rng(&rng, 500.0)).sum();
        let mean = sum / n as f64;
        assert!((450.0..550.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn normal_mean_and_var_are_close() {
        let rng = Sim::new(6).rng().clone();
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal_rng(&rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn tail_spikes_are_rare_but_present() {
        let sim = Sim::new(7);
        let j = Jitter {
            median_ns: 100.0,
            sigma: 0.0,
            tail_prob: 0.05,
            tail_mean_ns: 10_000.0,
        };
        let n = 20_000;
        let spikes = (0..n).filter(|_| j.sample(sim.rng()) > 1_000).count();
        let frac = spikes as f64 / n as f64;
        assert!((0.03..0.07).contains(&frac), "spike fraction {frac}");
    }
}

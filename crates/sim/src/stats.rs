//! Measurement utilities: exact-percentile histograms and time-bucketed
//! series (for the failure-timeline experiment, Figure 11).

use crate::time::Nanos;

/// Exact-percentile latency recorder.
///
/// Stores every sample (experiments record ~10^6 samples, i.e. a few MiB) so
/// percentiles and CDFs are exact rather than approximated, matching how the
/// paper reports P1/median/P99 and full CDFs.
#[derive(Debug, Default, Clone)]
pub struct Histogram {
    samples: Vec<Nanos>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (nanoseconds).
    pub fn record(&mut self, v: Nanos) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Returns the `p`-th percentile (0.0–100.0) in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Nanos {
        assert!(!self.samples.is_empty(), "empty histogram");
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p / 100.0) * (n as f64 - 1.0)).round() as usize;
        self.samples[rank.min(n - 1)]
    }

    /// Median, in nanoseconds.
    pub fn median(&mut self) -> Nanos {
        self.percentile(50.0)
    }

    /// The 99.9th percentile, in nanoseconds (tail-latency reporting).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn p999(&mut self) -> Nanos {
        self.percentile(99.9)
    }

    /// Arithmetic mean, in nanoseconds.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&v| v as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Maximum sample, in nanoseconds.
    pub fn max(&mut self) -> Nanos {
        assert!(!self.samples.is_empty(), "empty histogram");
        self.ensure_sorted();
        *self.samples.last().unwrap()
    }

    /// Evenly spaced CDF points `(latency_ns, percentile)`; `points` >= 2.
    pub fn cdf(&mut self, points: usize) -> Vec<(Nanos, f64)> {
        assert!(points >= 2);
        if self.samples.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (0..points)
            .map(|i| {
                let frac = i as f64 / (points - 1) as f64;
                let rank = (frac * (n as f64 - 1.0)).round() as usize;
                (self.samples[rank.min(n - 1)], frac * 100.0)
            })
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// Two histograms are equal when they hold the same multiset of samples:
/// recording order and whether a percentile was ever asked for are not
/// part of the value.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        let sorted = |h: &Histogram| {
            let mut samples = h.samples.clone();
            samples.sort_unstable();
            samples
        };
        self.samples.len() == other.samples.len() && sorted(self) == sorted(other)
    }
}

/// Fixed-width time-bucketed series: counts and latency sums per bucket.
///
/// Used to plot throughput/latency against virtual time around injected
/// failures (Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket_ns: Nanos,
    counts: Vec<u64>,
    sums: Vec<u128>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    pub fn new(bucket_ns: Nanos) -> Self {
        assert!(bucket_ns > 0);
        TimeSeries {
            bucket_ns,
            counts: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Records an operation that completed at `at` with latency `latency_ns`.
    pub fn record(&mut self, at: Nanos, latency_ns: Nanos) {
        let idx = (at / self.bucket_ns) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
            self.sums.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.sums[idx] += latency_ns as u128;
    }

    /// Adds another series' buckets into this one (same bucket width).
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.bucket_ns, other.bucket_ns, "bucket widths differ");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
            self.sums.resize(other.sums.len(), 0);
        }
        for (i, (&c, &s)) in other.counts.iter().zip(&other.sums).enumerate() {
            self.counts[i] += c;
            self.sums[i] += s;
        }
    }

    /// Bucket width in nanoseconds.
    pub fn bucket_ns(&self) -> Nanos {
        self.bucket_ns
    }

    /// Iterator of `(bucket_start_ns, ops_in_bucket, mean_latency_ns)`.
    pub fn buckets(&self) -> impl Iterator<Item = (Nanos, u64, f64)> + '_ {
        self.counts.iter().enumerate().map(move |(i, &c)| {
            let mean = if c == 0 {
                0.0
            } else {
                self.sums[i] as f64 / c as f64
            };
            (i as Nanos * self.bucket_ns, c, mean)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 100);
        // Rank = round(0.5 * 99) = 50, i.e. the 51st smallest value.
        assert_eq!(h.median(), 51);
        assert_eq!(h.percentile(99.0), 99);
    }

    #[test]
    fn median_of_odd_count() {
        let mut h = Histogram::new();
        for v in [5u64, 1, 9, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.median(), 5);
    }

    #[test]
    fn cdf_is_monotonic() {
        let mut h = Histogram::new();
        let mut x = 123456789u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x >> 40);
        }
        let cdf = h.cdf(32);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn timeseries_buckets_and_throughput() {
        let mut ts = TimeSeries::new(1_000);
        ts.record(100, 10);
        ts.record(900, 30);
        ts.record(1_500, 50);
        let buckets: Vec<_> = ts.buckets().collect();
        assert_eq!(buckets[0], (0, 2, 20.0));
        assert_eq!(buckets[1], (1_000, 1, 50.0));
    }

    #[test]
    fn timeseries_merge_adds_bucketwise() {
        let mut a = TimeSeries::new(1_000);
        a.record(100, 10);
        let mut b = TimeSeries::new(1_000);
        b.record(900, 30);
        b.record(2_500, 50);
        a.merge(&b);
        let buckets: Vec<_> = a.buckets().collect();
        assert_eq!(
            buckets,
            vec![(0, 2, 20.0), (1_000, 0, 0.0), (2_000, 1, 50.0)]
        );
    }

    #[test]
    fn p999_tracks_the_extreme_tail() {
        let mut h = Histogram::new();
        // 499 fast samples and one straggler: under the nearest-rank
        // convention (rank = round(p/100 * (n-1)), shared with the fig5
        // goldens) p99 stays fast while p999 lands on the straggler.
        for _ in 0..499 {
            h.record(10);
        }
        h.record(1_000_000);
        assert_eq!(h.percentile(99.0), 10);
        assert_eq!(h.p999(), 1_000_000);
    }

    #[test]
    fn equality_is_over_the_multiset_of_samples() {
        let of = |samples: &[u64]| {
            let mut h = Histogram::new();
            samples.iter().for_each(|&v| h.record(v));
            h
        };
        let mut asked = of(&[3, 1, 2, 2]);
        asked.median();
        assert_eq!(
            asked,
            of(&[2, 3, 2, 1]),
            "order and sortedness are not value"
        );
        assert_ne!(of(&[1, 2, 2]), of(&[1, 1, 2]), "same length, same set");
        assert_ne!(of(&[1, 2]), of(&[1, 2, 2]));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), 3);
    }
}

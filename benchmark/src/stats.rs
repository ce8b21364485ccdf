//! The few statistics the benchmark reports: medians over repetitions, the
//! quiet-machine time of a measured phase, quartile spread (the same quartiles Python's
//! `statistics.quantiles(values, n=4)` gives), and the rule for which tail
//! percentile a sample supports.

use swarm_sim::Histogram;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The host ns one measured phase takes when nothing else slows the machine,
/// from the lap durations of several repetitions of it: lap by lap, the
/// shortest any repetition took, summed. Neighbours on a shared host only
/// ever add to a lap, and in bursts shorter than a repetition, so the
/// shortest of ten is the program's own time; whole-repetition medians of
/// the same code spread by 10 to 20 % from run to run where this spreads by
/// 2 to 7 %. The price is a bias towards the cheapest simulation seed of each
/// lap, the same on both sides of a comparison.
///
/// How many laps a repetition has hangs on its count of store calls, which
/// differs a little between simulation seeds: laps beyond the shortest
/// repetition's count are taken into its last lap.
///
/// # Panics
///
/// Panics without repetitions or on one without laps.
pub fn quiet_ns(reps: &[&[u64]]) -> u64 {
    let laps = reps.iter().map(|r| r.len()).min().expect("no repetitions");
    assert!(laps > 0, "a repetition without laps");
    (0..laps)
        .map(|j| {
            let lap = |r: &&[u64]| -> u64 {
                if j + 1 < laps {
                    r[j]
                } else {
                    r[j..].iter().sum()
                }
            };
            reps.iter().map(lap).min().expect("no repetitions")
        })
        .sum()
}

/// Distance between the first and third quartile as a share of the median
/// (0 with fewer than two values, where no quartile is defined). Quartiles
/// follow Python's default "exclusive" method: position `i * (n + 1) / 4`,
/// interpolated, clamped to the sample.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let below = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - below as f64;
        v[below - 1] + (v[below] - v[below - 1]) * frac
    };
    let mid = quartile(2);
    if mid == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)).abs() / mid.abs()
}

/// A latency class summarised the way the benchmark reports it: median, 99th
/// percentile, and the sample count that says whether the tail is supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Samples in the class.
    pub samples: usize,
    /// Median, simulated ns (0 for an empty class).
    pub p50: u64,
    /// 99th percentile, simulated ns (0 for an empty class).
    pub p99: u64,
}

impl LatencySummary {
    /// Summarises a histogram (sorts it on first use).
    pub fn of(hist: &mut Histogram) -> Self {
        if hist.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            samples: hist.len(),
            p50: hist.percentile(50.0),
            p99: hist.percentile(99.0),
        }
    }

    /// A percentile is reported only with at least ten samples beyond it;
    /// for the 99th that is a thousand samples.
    pub fn tail_supported(&self) -> bool {
        samples_beyond(self.samples, 99.0) >= 10
    }
}

/// How many of `samples` lie beyond percentile `p`.
pub fn samples_beyond(samples: usize, p: f64) -> usize {
    (samples as f64 * (100.0 - p) / 100.0).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_time_is_the_sum_of_each_laps_shortest() {
        // A burst hit laps 1 and 2 of the first repetition and lap 0 of the
        // second; between them every lap was seen undisturbed once.
        assert_eq!(quiet_ns(&[&[10, 30, 31], &[25, 11, 12]]), 10 + 11 + 12);
        assert_eq!(quiet_ns(&[&[10, 11, 12]]), 33);
        // A repetition with an extra lap has it taken into the last one.
        assert_eq!(quiet_ns(&[&[10, 11, 4, 5], &[12, 9, 10]]), 10 + 9 + 9);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        assert!((quartile_spread(&[13.0, 10.0, 11.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(20_000, 99.0), 200);
        let mut h = Histogram::new();
        for i in 0..999 {
            h.record(i);
        }
        let short = LatencySummary::of(&mut h);
        assert_eq!(short.samples, 999);
        assert!(!short.tail_supported());
        h.record(999);
        let enough = LatencySummary::of(&mut h);
        assert!(enough.tail_supported());
        assert_eq!(enough.p50, 500);
        assert_eq!(enough.p99, 989);
        assert_eq!(LatencySummary::of(&mut Histogram::new()).samples, 0);
    }
}

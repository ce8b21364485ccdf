//! `--compare A.json B.json`: every end-to-end metric of every workload in
//! two `results.json` files, B's change against A shown beside the metric's
//! bound. A metric whose repetitions spread wider than its bound on either
//! side is reported as unresolved, never as unchanged.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::quartile_spread;
use crate::workloads::NAMES;

/// The outcome for one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Identical values.
    Same,
    /// Differs by no more than the bound.
    Within,
    /// Better by more than the bound (two single runs do not make a claim;
    /// see the README for the ten-pair rule).
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Run-to-run spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Within => "within bound",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric: its median and its repetitions' spread.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Reported value (median over repetitions for host metrics).
    pub value: f64,
    /// Quartile spread of the repetitions as a share of their median.
    pub spread: f64,
}

/// By what share of `a` the value `b` is worse (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges B against A for metric `m`.
pub fn judge(m: &EndToEnd, a: Reading, b: Reading) -> Verdict {
    let delta = worse_by(m.better, a.value, b.value);
    if a.spread.max(b.spread) > m.bound {
        Verdict::Unresolved
    } else if delta > m.bound {
        Verdict::Worse
    } else if delta < -m.bound {
        Verdict::Better
    } else if a.value == b.value {
        Verdict::Same
    } else {
        Verdict::Within
    }
}

fn reading(results: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?;
    let reps: Vec<f64> = m
        .get("reps")
        .map(|r| r.elements().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        spread: quartile_spread(&reps),
    })
}

fn setting<'a>(results: &'a Json, key: &str) -> Option<&'a Json> {
    results.get("settings")?.get(key)
}

/// Compares two parsed result files; returns the report and whether any
/// metric got worse by more than its bound.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (side, r) in [("A", a), ("B", b)] {
        if setting(r, "smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{side} is a --smoke run (or no results file): not comparable"
            ));
        }
    }
    for key in ["seed", "seconds"] {
        if setting(a, key) != setting(b, key) {
            return Err(format!("A and B were run with different --{key}"));
        }
    }
    let mut out = format!(
        "{:<18} {:>14} -> {:>14} {:<6} {:>9}  {:>6}  {:>13}  verdict\n",
        "metric", "A", "B", "unit", "worse by", "bound", "rep spread A/B"
    );
    let mut any_worse = false;
    for workload in NAMES {
        out.push_str(workload);
        out.push('\n');
        for m in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(a, workload, m.name), reading(b, workload, m.name))
            else {
                out.push_str(&format!("  {:<16} missing on one side\n", m.name));
                continue;
            };
            let verdict = judge(m, ra, rb);
            any_worse |= verdict == Verdict::Worse;
            out.push_str(&format!(
                "  {:<16} {:>14.6} -> {:>14.6} {:<6} {:>+8.2}%  {:>5.1}%  {:>5.1}% /{:>5.1}%  {}\n",
                m.name,
                ra.value,
                rb.value,
                m.unit,
                worse_by(m.better, ra.value, rb.value) * 100.0,
                m.bound * 100.0,
                ra.spread * 100.0,
                rb.spread * 100.0,
                verdict.label()
            ));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_ops() -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == "host_ops_per_s")
            .unwrap()
    }

    fn steady(value: f64) -> Reading {
        Reading {
            value,
            spread: 0.01,
        }
    }

    /// `value` made worse by `share` of itself, for a higher-is-better metric.
    fn dropped(value: f64, share: f64) -> f64 {
        value * (1.0 - share)
    }

    #[test]
    fn a_drop_beyond_the_bound_is_flagged_and_one_inside_it_passes() {
        let m = host_ops();
        let a = steady(200_000.0);
        let beyond = steady(dropped(a.value, m.bound + 0.01));
        let inside = steady(dropped(a.value, m.bound / 3.0));
        assert_eq!(judge(m, a, beyond), Verdict::Worse);
        assert_eq!(judge(m, a, inside), Verdict::Within);
        assert_eq!(
            judge(m, a, steady(a.value * (1.0 + 2.0 * m.bound))),
            Verdict::Better
        );
        assert_eq!(judge(m, a, a), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = Reading {
            value: dropped(200_000.0, host_ops().bound + 0.01),
            spread: host_ops().bound + 0.01,
        };
        assert_eq!(
            judge(host_ops(), steady(200_000.0), noisy),
            Verdict::Unresolved
        );
    }

    #[test]
    fn lower_is_better_metrics_worsen_upward() {
        let m = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let exact = |value| Reading { value, spread: 0.0 };
        assert_eq!(
            judge(m, exact(1.0), exact(1.0 + m.bound + 0.01)),
            Verdict::Worse
        );
        assert_eq!(judge(m, exact(1.0), exact(0.5)), Verdict::Better);
    }

    fn results(host_reps: [f64; 3], smoke: bool) -> Json {
        let metric = |value: f64, reps: &[f64]| {
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str("x")),
                (
                    "reps",
                    Json::Arr(reps.iter().map(|r| Json::Num(*r)).collect()),
                ),
            ])
        };
        let metrics = Json::Obj(
            END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "host_ops_per_s" {
                        metric(host_reps[1], &host_reps)
                    } else {
                        metric(100.0, &[])
                    };
                    (m.name.to_string(), v)
                })
                .collect(),
        );
        let workloads = Json::Obj(
            NAMES
                .iter()
                .map(|w| {
                    let run = Json::obj([("metrics", metrics.clone())]);
                    (w.to_string(), Json::obj([("end_to_end", run)]))
                })
                .collect(),
        );
        Json::obj([
            (
                "settings",
                Json::obj([
                    ("seed", Json::Num(42.0)),
                    ("seconds", Json::Num(10.0)),
                    ("smoke", Json::Bool(smoke)),
                ]),
            ),
            ("workloads", workloads),
        ])
    }

    #[test]
    fn compare_reads_result_files_end_to_end() {
        let bound = host_ops().bound;
        let around = |mid: f64| [mid - 1_000.0, mid, mid + 1_000.0];
        let a = results(around(200_000.0), false);
        let beyond = results(around(dropped(200_000.0, bound + 0.01)), false);
        let inside = results(around(dropped(200_000.0, bound / 3.0)), false);
        let (report, worse) = compare(&a, &beyond).unwrap();
        assert!(worse, "{report}");
        assert_eq!(report.matches("WORSE").count(), NAMES.len());
        let (report, worse) = compare(&a, &inside).unwrap();
        assert!(!worse, "{report}");
        let mid = dropped(200_000.0, bound + 0.01);
        let noisy = results([mid * (1.0 - bound), mid, mid * (1.0 + bound)], false);
        let (report, worse) = compare(&a, &noisy).unwrap();
        assert!(!worse && report.contains("unresolved"), "{report}");
        assert!(compare(&a, &results([1.0, 1.0, 1.0], true)).is_err());
    }
}

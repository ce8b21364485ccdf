//! Warn-once parsing of the harness's environment knobs.
//!
//! `SWARM_BENCH_OPS_SCALE`, `SWARM_BENCH_THREADS` and `SWARM_CHAOS_SEEDS`
//! pick volumes, host threads and sweep widths (none of them retunes a
//! protocol), and all follow one convention: unset means "use the default",
//! a valid value applies, and garbage is *ignored with a one-time warning on
//! stderr* — never a panic (a bench must not die over a typo) and never
//! silence (a silently shrunken chaos sweep would report clean runs that
//! never executed). This module is the single implementation of that
//! convention and the workspace's one reader of environment variables: the
//! five library crates below `swarm-bench` are functions of their arguments
//! (ci.sh's `env-purity` stage greps for it). Each knob's call site supplies
//! only its name, validity predicate, and an example of a well-formed value.

use std::collections::BTreeSet;
use std::str::FromStr;
use std::sync::Mutex;

/// Env-var names already warned about (one warning per knob per process).
static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Reads and parses the environment knob `name`. Returns `None` when the
/// variable is unset *or* unparsable/invalid; the latter also prints a
/// one-time warning naming the knob, the rejected value, and `expected`
/// (e.g. `"a positive float like 0.01"`).
pub fn env_knob<T, F>(name: &'static str, expected: &str, valid: F) -> Option<T>
where
    T: FromStr,
    F: Fn(&T) -> bool,
{
    parse_knob(name, std::env::var(name).ok().as_deref(), expected, valid)
}

/// [`env_knob`] with the raw value passed explicitly (unit-testable without
/// touching the process environment).
pub fn parse_knob<T, F>(
    name: &'static str,
    raw: Option<&str>,
    expected: &str,
    valid: F,
) -> Option<T>
where
    T: FromStr,
    F: Fn(&T) -> bool,
{
    let raw = raw?;
    match raw.parse::<T>() {
        Ok(v) if valid(&v) => Some(v),
        _ => {
            if WARNED.lock().expect("warn set poisoned").insert(name) {
                eprintln!("warn: ignoring {name}={raw:?}: expected {expected}");
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_is_none_without_warning() {
        let v: Option<f64> = parse_knob("TEST_KNOB_UNSET", None, "a float", |_| true);
        assert_eq!(v, None);
        assert!(!WARNED.lock().unwrap().contains("TEST_KNOB_UNSET"));
    }

    #[test]
    fn valid_values_parse() {
        assert_eq!(
            parse_knob("TEST_KNOB_OK", Some("0.25"), "a float", |v: &f64| *v > 0.0),
            Some(0.25)
        );
        assert_eq!(
            parse_knob("TEST_KNOB_OK2", Some("8"), "an int", |v: &usize| *v >= 1),
            Some(8)
        );
    }

    #[test]
    fn garbage_is_rejected_with_one_warning() {
        let parse = || -> Option<u64> {
            parse_knob("TEST_KNOB_BAD", Some("banana"), "a positive integer", |v| {
                *v > 0
            })
        };
        assert_eq!(parse(), None);
        assert!(WARNED.lock().unwrap().contains("TEST_KNOB_BAD"));
        // A second rejection parses the same way; the warn set keeps the
        // name so stderr is not spammed per call.
        assert_eq!(parse(), None);
    }

    #[test]
    fn validity_predicate_rejects_out_of_domain_values() {
        // Parsable but invalid: negative, zero, and non-finite floats.
        for bad in ["-0.5", "0", "inf", "NaN"] {
            let v: Option<f64> =
                parse_knob("TEST_KNOB_DOMAIN", Some(bad), "positive", |v: &f64| {
                    v.is_finite() && *v > 0.0
                });
            assert_eq!(v, None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn each_knob_warns_independently() {
        let a: Option<u64> = parse_knob("TEST_KNOB_A", Some("x"), "an int", |_| true);
        let b: Option<u64> = parse_knob("TEST_KNOB_B", Some("y"), "an int", |_| true);
        assert_eq!((a, b), (None, None));
        let warned = WARNED.lock().unwrap();
        assert!(warned.contains("TEST_KNOB_A") && warned.contains("TEST_KNOB_B"));
    }
}

//! Smoke test over the registry: every `swarm_bench::EXPERIMENTS` entry runs
//! to completion through the `swarm-bench` executable in quick mode (op
//! counts shrunk via `SWARM_BENCH_OPS_SCALE`), exits 0, and writes at least
//! one non-empty CSV of simulated data under `target/experiments/<name>/`
//! (a `*wall.csv` of wall-clock seconds does not count) — or sits in
//! [`SKIPPED`] with the reason. `main`'s argument handling and the
//! registry's one-to-one match with the stdout goldens are pinned beside
//! it.

use std::path::Path;
use std::process::{Command, Output};

use swarm_bench::EXPERIMENTS;

const EXE: &str = env!("CARGO_BIN_EXE_swarm-bench");

/// Experiments whose in-binary assertions need unscaled volume, so a 1 %
/// run fails by design; `crates/bench/goldens/check.sh` (ci.sh's
/// `stdout-parity` stage) runs them unscaled for the same reason.
const SKIPPED: &[(&str, &str)] = &[(
    "bench_tail",
    "asserts hedging halves the spiked get p99, which needs enough \
         samples past the 99th percentile",
)];

fn swarm_bench(args: &[&str], cwd: &Path) -> Output {
    std::fs::create_dir_all(cwd).unwrap();
    Command::new(EXE)
        .args(args)
        .current_dir(cwd)
        // Tiny op counts: enough to exercise the full pipeline.
        .env("SWARM_BENCH_OPS_SCALE", "0.01")
        .output()
        .unwrap_or_else(|e| panic!("swarm-bench {args:?}: failed to spawn: {e}"))
}

fn workdir(test: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("swarm-bench-{test}-{}", std::process::id()))
}

#[test]
fn every_bench_binary_runs_and_writes_csv() {
    for (name, _) in SKIPPED {
        assert!(
            EXPERIMENTS.iter().any(|e| e.name == *name),
            "skip list names {name}, which is not in the registry"
        );
    }
    let workdir = workdir("smoke");
    for exp in EXPERIMENTS {
        let name = exp.name;
        if let Some((_, reason)) = SKIPPED.iter().find(|(skipped, _)| *skipped == name) {
            eprintln!("{name}: skipped — {reason}");
            continue;
        }
        let cwd = workdir.join(name);
        let out = swarm_bench(&[name], &cwd);
        assert!(
            out.status.success(),
            "{name}: exited {:?}\nstdout:\n{}\nstderr:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(
            !out.stdout.is_empty(),
            "{name}: produced no stdout in quick mode"
        );
        let exp_dir = cwd.join("target/experiments").join(name);
        assert!(
            writes_data_csv(&exp_dir),
            "{name}: no non-empty CSV other than *wall.csv under {}",
            exp_dir.display()
        );
    }
    let _ = std::fs::remove_dir_all(&workdir);
}

#[test]
fn missing_or_unknown_experiment_prints_usage_and_exits_2() {
    let cwd = workdir("usage");
    for args in [&[][..], &["fig99"], &["--full"], &["fig5", "--fast"]] {
        let out = swarm_bench(args, &cwd);
        assert_eq!(out.status.code(), Some(2), "swarm-bench {args:?}");
        assert!(
            out.stdout.is_empty(),
            "swarm-bench {args:?}: usage is stderr"
        );
        let usage = String::from_utf8_lossy(&out.stderr);
        assert!(usage.contains("usage: swarm-bench <experiment> [--full]"));
        for exp in EXPERIMENTS {
            assert!(
                usage
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(exp.name)),
                "swarm-bench {args:?}: usage does not list {}:\n{usage}",
                exp.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

/// Every registered experiment has a stdout golden, and every golden names
/// a registered experiment: an unpinned experiment or an orphaned golden
/// fails here rather than slipping past `crates/bench/goldens/check.sh`.
#[test]
fn every_experiment_has_a_golden_and_every_golden_an_experiment() {
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens");
    for exp in EXPERIMENTS {
        let golden = goldens.join(format!("{}.stdout", exp.name));
        assert!(
            golden.is_file(),
            "{}: no golden at {}",
            exp.name,
            golden.display()
        );
    }
    for entry in std::fs::read_dir(&goldens).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "stdout") {
            let stem = path.file_stem().unwrap().to_string_lossy();
            assert!(
                EXPERIMENTS.iter().any(|e| e.name == stem),
                "{}: golden of no registered experiment",
                path.display()
            );
        }
    }
}

/// Whether `dir` holds a CSV with a header and at least one data row whose
/// stem does not end in `wall` (wall-clock seconds are not simulated data).
fn writes_data_csv(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .filter(|p| {
            p.file_stem()
                .is_some_and(|s| !s.to_string_lossy().ends_with("wall"))
        })
        .any(|p| {
            std::fs::read_to_string(p).is_ok_and(|s| {
                let mut lines = s.lines().filter(|l| !l.trim().is_empty());
                lines.next().is_some() && lines.next().is_some()
            })
        })
}

//! The repo's benchmark. One invocation runs one workload in this process
//! and prints, as its last line of standard output, one JSON object with the
//! run's verdict and metrics; without `--workload` it runs all five, each in
//! a process of its own, and writes `out/results.json`. See `README.md`.

mod clock;
mod compare;
mod json;
mod metrics;
mod micro;
mod report;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use workloads::{Def, NAMES, SMOKE_SHRINK};

const DEFAULT_SEED: u64 = 42;
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke] [--out DIR]\n       benchmark/run.sh --compare A.json B.json\n\
workloads: ycsb_b_64 ycsb_a_8k hotkey_16c spike_hedged flash_4shard (default: all five, \
untraced and traced, one process each)";

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// One workload in this process; `None` runs all five in child processes.
    pub workload: Option<String>,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the repetition loop measures for.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// 1/20 of the volume: exercises the harness, compares with nothing.
    pub smoke: bool,
    /// Where result and trace files go.
    pub out: PathBuf,
    /// `--compare A B`.
    pub compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut it, arg)?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                cli.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                cli.seconds = value(&mut it, arg)?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 600")?;
            }
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = PathBuf::from(value(&mut it, arg)?),
            "--compare" => {
                cli.compare = Some((
                    PathBuf::from(value(&mut it, arg)?),
                    PathBuf::from(value(&mut it, arg)?),
                ));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// `run_workload` silently rescales volumes from `SWARM_BENCH_OPS_SCALE`,
/// and other `SWARM_*` knobs retune hedging, repair and threading: with any
/// of them set the numbers are not the benchmark's, so it refuses to start.
pub fn swarm_vars(vars: impl Iterator<Item = String>) -> Vec<String> {
    let mut set: Vec<String> = vars.filter(|k| k.starts_with("SWARM_")).collect();
    set.sort();
    set
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the run ran on and with: printed first, stored with every result.
fn header(cli: &Cli) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds as f64)),
        ("smoke", Json::Bool(cli.smoke)),
    ])
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    let io = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    std::fs::write(path, doc.to_line() + "\n").map_err(io)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn result_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("result-{workload}-trace{}.json", u8::from(trace)))
}

/// One workload, in this process.
fn run_one(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let def = Def::named(workload, cli.smoke).expect("parse_cli checked the name");
    let header = header(cli);
    println!(
        "swarm-benchmark {workload} trace={} {}",
        u8::from(cli.trace),
        header.to_line()
    );
    if cli.smoke {
        println!("SMOKE RUN: 1/{SMOKE_SHRINK} volume, not comparable with anything");
    }
    let run = if cli.trace {
        report::run_traced(&def, cli, &header)?
    } else {
        report::run_untraced(&def, cli)
    };
    for m in &run.metrics {
        println!("{}", m.line());
    }
    for p in &run.problems {
        println!("INVALID: {p}");
    }
    write_json(
        &result_path(&cli.out, workload, cli.trace),
        &run.detail(&header),
    )?;
    println!("{}", run.result_line().to_line());
    Ok(if run.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// All five workloads, untraced then traced, each in its own process (so
/// peak memory and cold set-up are per workload); merges their result files
/// into `results.json`.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut workloads = Vec::new();
    let mut all_ok = true;
    for workload in NAMES {
        let mut runs = Vec::new();
        for (kind, trace) in [("end_to_end", false), ("per_layer", true)] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&cli.out)
                .stdout(Stdio::piped());
            if cli.smoke {
                cmd.arg("--smoke");
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            let stdout = child.stdout.take().expect("stdout is piped");
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                // The child's last line is its machine-readable result; the
                // merged file carries it, so keep the console readable.
                if !line.starts_with('{') {
                    println!("{line}");
                }
            }
            let status = child.wait().map_err(|e| format!("{workload}: {e}"))?;
            if !status.success() {
                println!("{workload} trace={}: FAILED ({status})", u8::from(trace));
                all_ok = false;
            }
            let detail = read_json(&result_path(&cli.out, workload, trace))?;
            runs.push((kind, detail));
        }
        workloads.push((workload, Json::obj(runs)));
    }
    let results = Json::obj([
        ("settings", header(cli)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = cli.out.join("results.json");
    write_json(&path, &results)?;
    println!("wrote {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &cli.compare {
        let (report, any_worse) = compare::compare(&read_json(a)?, &read_json(b)?)?;
        print!("{report}");
        return Ok(if any_worse {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let set = swarm_vars(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: SWARM_* variables rescale or retune the code under \
             measurement; unset them",
            set.join(", ")
        ));
    }
    match &cli.workload {
        Some(workload) => run_one(&cli, workload),
        None => run_all(&cli),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn swarm_variables_are_found_and_others_ignored() {
        let env = [
            "PATH",
            "SWARM_BENCH_OPS_SCALE",
            "HOME",
            "SWARM_HEDGE_DELAY_PCT",
            "XSWARM_",
        ];
        assert_eq!(
            swarm_vars(env.iter().map(|s| s.to_string())),
            ["SWARM_BENCH_OPS_SCALE", "SWARM_HEDGE_DELAY_PCT"]
        );
        assert!(swarm_vars(["PATH".to_string()].into_iter()).is_empty());
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = cli(&[
            "--workload",
            "ycsb_a_8k",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("ycsb_a_8k"));
        assert_eq!((c.seed, c.seconds, c.trace, c.smoke), (7, 12, false, false));
        assert!(
            cli(&["--workload", "ycsb_a_8k", "--trace", "1"])
                .unwrap()
                .trace
        );
        assert!(cli(&["--trace", "--smoke"]).unwrap().trace, "bare --trace");
        let defaults = cli(&[]).unwrap();
        assert_eq!(defaults.workload, None);
        assert_eq!(
            (defaults.seed, defaults.seconds),
            (DEFAULT_SEED, DEFAULT_SECONDS)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds"],
            &["--compare", "a.json"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }
}

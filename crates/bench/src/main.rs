//! `swarm-bench <experiment> [--full]`: runs one entry of
//! [`swarm_bench::EXPERIMENTS`]. The only reader of the command line; a
//! missing or unknown experiment prints the usage (from the registry) and
//! exits 2.

use swarm_bench::EXPERIMENTS;

fn usage() -> ! {
    eprintln!("usage: swarm-bench <experiment> [--full]\n\nexperiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<16} {}", e.name, e.reproduces);
    }
    std::process::exit(2);
}

fn main() {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let [name] = names.as_slice() else { usage() };
    let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        usage()
    };
    let quick = match flags.as_slice() {
        [] => true,
        [f] if f == "--full" => false,
        _ => usage(),
    };
    (exp.run)(quick);
}

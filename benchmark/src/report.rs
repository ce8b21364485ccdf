//! One run of one workload: the repetition loop, the validity step, and the
//! metrics — end to end for an untraced run, per layer for a traced one.

use std::time::Instant;

use swarm_kv::Protocol;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quiet_ns, LatencySummary};
use crate::trace::{write_trace, OpClass, OpSpan};
use crate::workloads::{run_rep, side_run, Def, Rep, SimOutcome};
use crate::{micro, Cli};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit, from the same table.
    pub unit: &'static str,
    /// Direction, from the same table.
    pub better: Better,
    /// The reported value: as measured, or made from the repetitions'.
    pub value: f64,
    /// Per-repetition values behind it (empty if it is no host timing).
    pub reps: Vec<f64>,
    /// Samples behind a percentile.
    pub samples: Option<usize>,
}

impl Measured {
    /// The human-readable line: name, value, unit, direction, sample count,
    /// range over repetitions (for `host_ops_per_s`, of whole measured
    /// phases: the reported value is faster than most of them).
    pub fn line(&self) -> String {
        let mut s = format!(
            "{:<32} {:>18.6} {:<6} {} is better",
            self.name,
            self.value,
            self.unit,
            self.better.name()
        );
        if let Some(n) = self.samples {
            s.push_str(&format!("  (n={n})"));
        }
        if self.reps.len() > 1 {
            let lo = self.reps.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = self.reps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            s.push_str(&format!(
                "  ({} repetitions: {lo:.6} .. {hi:.6})",
                self.reps.len()
            ));
        }
        s
    }

    fn detail(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
        ];
        if !self.reps.is_empty() {
            let reps = self.reps.iter().map(|r| Json::Num(*r)).collect();
            pairs.push(("reps", Json::Arr(reps)));
        }
        if let Some(n) = self.samples {
            pairs.push(("samples", Json::Num(n as f64)));
        }
        Json::obj(pairs)
    }
}

/// A finished run.
pub struct Run {
    /// Measured-phase operations over all repetitions.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Repetitions measured.
    pub reps: usize,
    /// The metrics, in table order.
    pub metrics: Vec<Measured>,
    /// What the validity step found wrong (empty: the run is correct).
    pub problems: Vec<String>,
}

impl Run {
    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics` with a value and a unit each.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let v = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
            (m.name, v)
        });
        Json::obj([
            ("correct", Json::Bool(self.problems.is_empty())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The result file: the result object plus repetitions, sample counts,
    /// problems and the header.
    pub fn detail(&self, header: &Json) -> Json {
        Json::obj([
            ("header", header.clone()),
            ("correct", Json::Bool(self.problems.is_empty())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("reps", Json::Num(self.reps as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| (m.name, m.detail()))),
            ),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Collects measurements by name and lays them out in a metric table's
/// order, refusing a name the table lacks or a table entry left unset.
struct Collector {
    values: Vec<Raw>,
}

/// A measurement before the table gives it a unit and a direction.
struct Raw {
    name: &'static str,
    value: f64,
    reps: Vec<f64>,
    samples: Option<usize>,
}

impl Collector {
    fn new() -> Self {
        Collector { values: Vec::new() }
    }

    fn push(&mut self, name: &'static str, value: f64, reps: Vec<f64>, samples: Option<usize>) {
        self.values.push(Raw {
            name,
            value,
            reps,
            samples,
        });
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.push(name, value, Vec::new(), None);
    }

    fn set_samples(&mut self, name: &'static str, value: f64, samples: usize) {
        self.push(name, value, Vec::new(), Some(samples));
    }

    fn set_median(&mut self, name: &'static str, reps: Vec<f64>) {
        self.push(name, median(&reps), reps, None);
    }

    fn in_order(mut self, table: &[(&'static str, &'static str, Better)]) -> Vec<Measured> {
        let ordered: Vec<Measured> = table
            .iter()
            .map(|&(name, unit, better)| {
                let at = self
                    .values
                    .iter()
                    .position(|m| m.name == name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured"));
                let raw = self.values.swap_remove(at);
                Measured {
                    name,
                    unit,
                    better,
                    value: raw.value,
                    reps: raw.reps,
                    samples: raw.samples,
                }
            })
            .collect();
        assert!(
            self.values.is_empty(),
            "measured but not declared: {:?}",
            self.values.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        ordered
    }
}

/// Peak resident set (`VmHWM`) of this process so far, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measured operations per host second with the machine's other tenants
/// taken out: one repetition's operations over [`quiet_ns`] of all of them.
fn quiet_ops_per_s(reps: &[Rep]) -> f64 {
    let laps: Vec<&[u64]> = reps.iter().map(|r| r.laps.as_slice()).collect();
    reps[0].sim.measured_ops as f64 * 1e9 / quiet_ns(&laps) as f64
}

/// Set-up seconds with the other tenants taken out the same way: build,
/// bulk load and warm-up each at the shortest any repetition took.
fn quiet_setup_s(reps: &[Rep]) -> f64 {
    let phases: Vec<[u64; 3]> = reps.iter().map(Rep::setup_phases_ns).collect();
    let phases: Vec<&[u64]> = phases.iter().map(|p| p.as_slice()).collect();
    quiet_ns(&phases) as f64 / 1e9
}

/// (a)/(b): a repetition, traced or not, must report the same simulated
/// metrics, traffic and executor counters as the first one of its seed.
pub fn outcome_problems(what: &str, first: &SimOutcome, other: &SimOutcome) -> Option<String> {
    (other != first)
        .then(|| format!("{what} differs from the first of its seed: {other:?} vs {first:?}"))
}

/// The most frequent roundtrip count among `class` spans (`None` if none).
fn modal_rtts(spans: &[OpSpan], class: OpClass) -> Option<u32> {
    let mut counts = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.class == class) {
        *counts.entry(s.rtts).or_insert(0u64) += 1;
    }
    counts.into_iter().max_by_key(|&(_, n)| n).map(|(r, _)| r)
}

/// (d) Table 2: on the paper's standard cell a get and an update most often
/// take one roundtrip. Checked on traced repetitions, which have warm
/// location caches and per-operation roundtrip counts.
fn table2_problems(def: &Def, what: &str, spans: &[OpSpan]) -> Vec<String> {
    if def.name != "ycsb_b_64" {
        return Vec::new();
    }
    [OpClass::Get, OpClass::Update]
        .into_iter()
        .filter_map(|class| match modal_rtts(spans, class) {
            Some(1) => None,
            other => Some(format!(
                "{what}: most frequent roundtrip count of {class:?} is {other:?}, Table 2 says 1"
            )),
        })
        .collect()
}

/// The checks every run makes: (a)/(b) repetitions of one simulation seed
/// agree exactly, nothing failed, the tails have their samples, and (c) the
/// recorded side-run passes `KvHistory::check`. Returns the problems found.
fn validity(def: &Def, cli: &Cli, reps: &[&Rep]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        let first = reps
            .iter()
            .find(|r| r.seed == rep.seed)
            .expect("rep is in reps");
        problems.extend(outcome_problems(
            &format!("repetition {i}"),
            &first.sim,
            &rep.sim,
        ));
        if rep.sim.measured_ops != def.measure_ops {
            problems.push(format!(
                "repetition {i} measured {} operations, the workload has {}",
                rep.sim.measured_ops, def.measure_ops
            ));
        }
        if rep.sim.failed_ops != 0 {
            problems.push(format!(
                "{} operations failed in repetition {i}",
                rep.sim.failed_ops
            ));
        }
    }
    let side = side_run(def, def.sub_seed(cli.seed, 0));
    if let Err(e) = &side.check {
        problems.push(format!(
            "side-run of {} operations is not linearizable: {e}",
            side.ops
        ));
    }
    if side.failed_ops != 0 {
        problems.push(format!("{} side-run operations failed", side.failed_ops));
    }
    problems
}

/// A percentile is reported only with at least ten samples beyond it. A
/// smoke run is too short for its tails and is not comparable anyway.
fn tail_problems(cli: &Cli, classes: &[(&str, LatencySummary)]) -> Vec<String> {
    classes
        .iter()
        .filter(|(_, lat)| !cli.smoke && !lat.tail_supported())
        .map(|(class, lat)| {
            format!(
                "{class} p99 has {} samples, fewer than ten beyond it",
                lat.samples
            )
        })
        .collect()
}

/// A latency class over a run's simulations: the mean of their medians, the
/// mean of their 99th percentiles, and the one with the fewest samples (a
/// percentile needs its samples in each simulation).
///
/// Percentiles of the pooled samples would be simpler, but on `ycsb_b_64`
/// three simulations in ten leave some hot key in a state where several per
/// cent of gets take a second roundtrip, and their p99 is 5.6 µs against the
/// others' 4.1 µs. The pooled p99 sits on the edge of that population and
/// moved by 12 to 23 % between the quartiles of ten seeds; the mean of the
/// ten p99s moves with how many such simulations a seed draws, 5 to 9 %.
struct ClassMean {
    p50: f64,
    p99: f64,
    fewest: LatencySummary,
}

impl ClassMean {
    fn over(sims: &[Rep], class: fn(&SimOutcome) -> LatencySummary) -> Self {
        let mean = |of: fn(LatencySummary) -> u64| {
            sims.iter().map(|r| of(class(&r.sim)) as f64).sum::<f64>() / sims.len() as f64
        };
        ClassMean {
            p50: mean(|l| l.p50),
            p99: mean(|l| l.p99),
            fewest: sims
                .iter()
                .map(|r| class(&r.sim))
                .min_by_key(|l| l.samples)
                .expect("a run has simulations"),
        }
    }
}

/// The untraced run: one repetition per sub-seed, then round again for as
/// long as `--seconds` lasts; simulated metrics over the first round,
/// host throughput and set-up time from the quietest laps and phases of
/// every repetition.
pub fn run_untraced(def: &Def, cli: &Cli) -> Run {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < def.sub_seeds || started.elapsed().as_secs() < cli.seconds {
        reps.push(run_rep(def, def.sub_seed(cli.seed, reps.len()), false));
    }
    let mut problems = validity(def, cli, &reps.iter().collect::<Vec<_>>());

    let sims = &reps[..def.sub_seeds];
    let (mut ops, mut sim_ns, mut messages, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    for rep in sims {
        ops += rep.sim.measured_ops;
        sim_ns += rep.sim.sim_span.1 - rep.sim.sim_span.0;
        messages += rep.sim.traffic.messages;
        bytes += rep.sim.traffic.bytes;
    }
    let get = ClassMean::over(sims, |s| s.get);
    let update = ClassMean::over(sims, |s| s.update);
    problems.extend(tail_problems(
        cli,
        &[("get", get.fewest), ("update", update.fewest)],
    ));

    let mut c = Collector::new();
    c.set_samples("get_p50_ns", get.p50, get.fewest.samples);
    c.set_samples("get_p99_ns", get.p99, get.fewest.samples);
    c.set_samples("update_p50_ns", update.p50, update.fewest.samples);
    c.set_samples("update_p99_ns", update.p99, update.fewest.samples);
    c.set("sim_ops_per_s", ops as f64 * 1e9 / sim_ns as f64);
    c.set("msgs_per_op", messages as f64 / ops as f64);
    c.set("bytes_per_op", bytes as f64 / ops as f64);
    c.push(
        "host_ops_per_s",
        quiet_ops_per_s(&reps),
        reps.iter().map(Rep::host_ops_per_s).collect(),
        None,
    );
    c.push(
        "setup_s",
        quiet_setup_s(&reps),
        reps.iter().map(Rep::setup_s).collect(),
        None,
    );
    c.set("peak_rss_mb", peak_rss_mb());
    Run {
        attempted: reps.iter().map(|r| r.sim.measured_ops).sum(),
        failed: reps.iter().map(|r| r.sim.failed_ops).sum(),
        reps: reps.len(),
        metrics: c.in_order(&END_TO_END.map(|m| (m.name, m.unit, m.better))),
        problems,
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Mean roundtrips of `class` spans and the share that took exactly one.
fn roundtrips(spans: &[OpSpan], class: OpClass) -> (f64, f64) {
    let (mut n, mut rtts, mut single) = (0u64, 0u64, 0u64);
    for s in spans.iter().filter(|s| s.class == class) {
        n += 1;
        rtts += u64::from(s.rtts);
        single += u64::from(s.rtts == 1);
    }
    (share(rtts, n), share(single, n))
}

/// The traced run: pairs of an untraced and a traced repetition of the
/// first sub-seed for `--seconds`, the last traced repetition's spans written
/// to `trace-<workload>.json`, then every per-layer metric.
pub fn run_traced(def: &Def, cli: &Cli, header: &Json) -> Result<Run, String> {
    let calib = micro::calib_ns();
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let seed = def.sub_seed(cli.seed, 0);
    while plain.is_empty() || started.elapsed().as_secs() < cli.seconds {
        plain.push(run_rep(def, seed, false));
        traced.push(run_rep(def, seed, true));
    }
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();

    let checking = Instant::now();
    let mut problems = validity(def, cli, &all);
    let last = traced.last().expect("at least one pair ran");
    let trace = last.trace.as_ref().expect("traced repetitions keep spans");
    let spans = &trace.ops;
    problems.extend(table2_problems(def, "traced repetition", spans));
    problems.extend(tail_problems(
        cli,
        &[("get", last.sim.get), ("update", last.sim.update)],
    ));
    let validity_s = checking.elapsed().as_secs_f64();

    let path = cli.out.join(format!("trace-{}.json", def.name));
    write_trace(&path, header, &last.phases, last.sim.sim_span, trace)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {} ({} operation spans)", path.display(), spans.len());

    let s = &last.sim;
    let ops = s.measured_ops as f64;
    let over = |f: fn(&Rep) -> f64| -> Vec<f64> { all.iter().map(|r| f(r)).collect() };
    let mut c = Collector::new();

    c.set(
        "sim.events_per_op",
        s.counters.events_scheduled as f64 / ops,
    );
    c.set("sim.polls_per_op", s.counters.tasks_polled as f64 / ops);
    c.set(
        "sim.boxed_events_per_op",
        s.counters.boxed_events as f64 / ops,
    );
    c.set("sim.timer_event_ns", micro::timer_event_ns());
    let (record, first_p99) = micro::histogram();
    c.set("sim.histogram_record_ns", record);
    c.set("sim.histogram_first_p99_ms", first_p99);

    c.set("fabric.loopback_read64_ns", micro::loopback_ns(false));
    c.set("fabric.loopback_write8k_ns", micro::loopback_ns(true));
    let (read, write) = micro::mem_8k_ns();
    c.set("fabric.mem_read8k_ns", read);
    c.set("fabric.mem_write8k_ns", write);
    c.set("fabric.mem_alloc_mb_per_s", micro::mem_alloc_mb_per_s());
    c.set(
        "fabric.hedges_per_kop",
        s.traffic.hedges_fired as f64 / ops * 1e3,
    );
    c.set(
        "fabric.hedge_win_share",
        share(s.traffic.hedges_won, s.traffic.hedges_fired),
    );
    c.set(
        "fabric.dup_discarded_per_kop",
        s.traffic.duplicates_discarded as f64 / ops * 1e3,
    );

    let (h64, h8k, innout) = micro::hashes_ns();
    c.set("core.xxh64_64B_ns", h64);
    c.set("core.xxh64_8KiB_ns", h8k);
    c.set("core.innout_hash_8KiB_ns", innout);
    let (get_rtts, get_fast) = roundtrips(spans, OpClass::Get);
    let (update_rtts, update_fast) = roundtrips(spans, OpClass::Update);
    c.set("core.rtts_per_get", get_rtts);
    c.set("core.rtts_per_update", update_rtts);
    c.set("core.fast_path_share_get", get_fast);
    c.set("core.fast_path_share_update", update_fast);
    let [m_read, m_write, sg_read, sg_write] = micro::registers_ns();
    c.set("core.maxreg_read_ns", m_read);
    c.set("core.maxreg_write_ns", m_write);
    c.set("core.safeguess_read_ns", sg_read);
    c.set("core.safeguess_write_ns", sg_write);
    let (observe, estimate) = micro::rtt_tracker_ns();
    c.set("core.rtt_tracker_observe_ns", observe);
    c.set("core.rtt_tracker_estimate_ns", estimate);
    c.set("core.check_ops_per_s", micro::check_ops_per_s());

    let [zipf, next_op, value_for, scenario_op] = micro::workload_ns();
    c.set("workload.zipfian_sample_ns", zipf);
    c.set("workload.next_op_ns", next_op);
    c.set("workload.value_for_8KiB_ns", value_for);
    c.set("workload.scenario_op_ns", scenario_op);

    c.set_median("kv.build_s", over(Rep::build_s));
    c.set_median(
        "kv.preload_key_ns",
        all.iter()
            .map(|r| r.preload_s() * 1e9 / def.loaded_keys as f64)
            .collect(),
    );
    c.set_median("kv.warmup_s", over(Rep::warmup_s));
    c.set("kv.setup_cold_s", plain[0].setup_s());
    c.set(
        "kv.cache_hit_share",
        share(s.cache.0, s.cache.0 + s.cache.1),
    );
    let busiest = s.routed.iter().copied().max().unwrap_or(0) as f64;
    let mean = s.routed.iter().sum::<u64>() as f64 / s.routed.len().max(1) as f64;
    c.set(
        "kv.routed_imbalance",
        if mean > 0.0 { busiest / mean } else { 1.0 },
    );
    c.set_samples("kv.rmw_p50_ns", s.rmw.p50 as f64, s.rmw.samples);
    c.set_samples("kv.insert_p50_ns", s.insert.p50 as f64, s.insert.samples);
    const HOST_NS: [(&str, &str); 4] = [
        ("kv.swarm.get_host_ns", "kv.swarm.update_host_ns"),
        ("kv.abd.get_host_ns", "kv.abd.update_host_ns"),
        ("kv.fusee.get_host_ns", "kv.fusee.update_host_ns"),
        ("kv.raw.get_host_ns", "kv.raw.update_host_ns"),
    ];
    for (protocol, (get_name, update_name)) in micro::PROTOCOLS.iter().zip(HOST_NS) {
        let (get, update) = micro::kv_host_ns(*protocol);
        c.set(get_name, get);
        c.set(update_name, update);
    }
    // Accuracy: the eight simulated medians of the standard cell against
    // Fig. 5's.
    const P50_NS: [(&str, &str); 3] = [
        ("kv.abd.get_p50_ns", "kv.abd.update_p50_ns"),
        ("kv.fusee.get_p50_ns", "kv.fusee.update_p50_ns"),
        ("kv.raw.get_p50_ns", "kv.raw.update_p50_ns"),
    ];
    let mut worst_err = 0.0f64;
    let mut against_paper = |protocol: Protocol, (get, update): (u64, u64)| {
        let (paper_get, paper_update) = micro::paper_median_ns(protocol);
        for (ours, paper) in [(get as f64, paper_get), (update as f64, paper_update)] {
            worst_err = worst_err.max((ours - paper).abs() / paper * 100.0);
        }
    };
    against_paper(
        Protocol::SafeGuess,
        micro::ycsb_b_medians(Protocol::SafeGuess, seed),
    );
    for (protocol, (get_name, update_name)) in micro::PROTOCOLS[1..].iter().zip(P50_NS) {
        let medians = micro::ycsb_b_medians(*protocol, seed);
        against_paper(*protocol, medians);
        c.set(get_name, medians.0 as f64);
        c.set(update_name, medians.1 as f64);
    }
    c.set("kv.paper_median_err_pct", worst_err);
    let (scan_host, scan_sim) = micro::scan_us(seed);
    c.set("kv.scan_host_us", scan_host);
    c.set("kv.scan_sim_us", scan_sim);

    c.set(
        "bench.trace_overhead_pct",
        (quiet_ops_per_s(&plain) / quiet_ops_per_s(&traced) - 1.0) * 100.0,
    );
    c.set_median(
        "bench.oncpu_share",
        all.iter().map(|r| r.oncpu_share).collect(),
    );
    c.set_median(
        "bench.stats_extract_ms",
        all.iter().map(|r| r.extract_s() * 1e3).collect(),
    );
    c.set("bench.calib_ns", calib);
    c.set("bench.validity_s", validity_s);

    Ok(Run {
        attempted: s.measured_ops * all.len() as u64,
        failed: all.iter().map(|r| r.sim.failed_ops).sum(),
        reps: all.len(),
        metrics: c.in_order(&PER_LAYER.map(|m| (m.name, m.unit, m.better))),
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_fabric::TrafficStats;
    use swarm_sim::SimCounters;

    fn outcome() -> SimOutcome {
        SimOutcome {
            measured_ops: 1_000,
            failed_ops: 0,
            get: LatencySummary {
                samples: 950,
                p50: 2_226,
                p99: 3_966,
            },
            update: LatencySummary {
                samples: 50,
                p50: 2_451,
                p99: 5_546,
            },
            insert: LatencySummary::default(),
            rmw: LatencySummary::default(),
            sim_span: (100, 900_100),
            traffic: TrafficStats {
                messages: 2_550,
                bytes: 359_000,
                ..Default::default()
            },
            counters: SimCounters::default(),
            cache: (900, 100),
            routed: vec![],
        }
    }

    /// The acceptance demonstration: a repetition whose `TrafficStats`
    /// differs by one message fails the validity step.
    #[test]
    fn a_perturbed_repetition_is_caught() {
        let first = outcome();
        assert_eq!(outcome_problems("repetition 1", &first, &outcome()), None);
        let mut perturbed = outcome();
        perturbed.traffic.messages += 1;
        let problem = outcome_problems("repetition 2", &first, &perturbed).unwrap();
        assert!(problem.starts_with("repetition 2 differs"), "{problem}");
    }

    fn span(class: OpClass, rtts: u32) -> OpSpan {
        OpSpan {
            id: 0,
            parent: 0,
            class,
            key: 0,
            start: 0,
            end: 1,
            rtts,
        }
    }

    #[test]
    fn roundtrip_statistics_are_per_class() {
        let spans = [
            span(OpClass::Get, 1),
            span(OpClass::Get, 1),
            span(OpClass::Get, 3),
            span(OpClass::Update, 2),
        ];
        assert_eq!(modal_rtts(&spans, OpClass::Get), Some(1));
        assert_eq!(modal_rtts(&spans, OpClass::Update), Some(2));
        assert_eq!(modal_rtts(&spans, OpClass::Scan), None);
        let (mean, fast) = roundtrips(&spans, OpClass::Get);
        assert!((mean - 5.0 / 3.0).abs() < 1e-12 && (fast - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(roundtrips(&spans, OpClass::Delete), (0.0, 0.0));
        let standard = Def::named("ycsb_b_64", false).unwrap();
        assert_eq!(
            table2_problems(&standard, "t", &spans).len(),
            1,
            "updates took 2"
        );
        let other = Def::named("hotkey_16c", false).unwrap();
        assert!(table2_problems(&other, "t", &spans).is_empty());
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let mut c = Collector::new();
        for m in &END_TO_END {
            c.set_median(m.name, vec![1.5, 2.5, 3.5]);
        }
        let run = Run {
            attempted: 3_000,
            failed: 0,
            reps: 3,
            metrics: c.in_order(&END_TO_END.map(|m| (m.name, m.unit, m.better))),
            problems: vec![],
        };
        let line = Json::parse(&run.result_line().to_line()).unwrap();
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap().members();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, m), declared) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, declared.name);
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(2.5));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(declared.unit));
            assert_eq!(m.members().len(), 2);
        }
        let detail = run.detail(&Json::Null);
        let reps = detail
            .get("metrics")
            .unwrap()
            .get("setup_s")
            .unwrap()
            .get("reps")
            .unwrap();
        assert_eq!(reps.elements().len(), 3);
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn a_missing_metric_is_a_harness_bug() {
        Collector::new().in_order(&[("setup_s", "s", Better::Lower)]);
    }
}

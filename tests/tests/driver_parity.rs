//! Pinned digests of the two op drivers — `run_workload` and
//! `run_scenario` — at fixed seeds.
//!
//! Each cell digests everything a driver reports: `(measured_ops,
//! failed_ops, start_ns, end_ns, scanned_items, rtts, time series, each
//! class's sorted samples)` plus the fabric traffic the run generated. The
//! simulation is deterministic, so a digest moves only when a driver moves
//! an RNG draw, an await point, or an accounting rule. The expected values
//! were generated on the commit
//! *before* the drivers were collapsed onto one op path (ISSUE 12); a
//! refactor of the drivers must not change one of them. Removing a driver
//! mode removes its cells; the remaining values stay as pinned. The two
//! `planned/*` cells went with their driver, the pre-planned
//! one-`Sim`-per-shard one; the other 17 digests stayed as pinned.
//!
//! The `hedged/*`, `widen/*` and `tslock/*` cells pin the staged quorum wait
//! itself — hedge fire/win/discard under delay spikes on all four protocols,
//! op-deadline cancellation between fire and settle, widen + suspicion +
//! payload-chase timeouts under crashes, and the timestamp-lock round under
//! contention — and additionally digest the clients' roundtrip counters and
//! the executor's event counters, so a moved timer shows even where no
//! latency sample moves. They were generated on the commit *before* the six
//! quorum waits were collapsed onto one staged round (ISSUE 14).
//!
//! `workload/concurrency4` was re-pinned once, when a max-register stamp read
//! began writing back a tombstone it sees at a minority (a delete still in
//! flight, in that cell) before returning it. `scenario/*` were re-pinned
//! twice: when lease-carrying inserts went and the two cells began running
//! over plain clients, and when the scenario stream stopped drawing a value
//! size per op (a run writes `value_cap`-byte payloads only). `hedged/spike-swarm`, `hedged/spike-abd`,
//! `hedged/deadline-cancel-swarm`, `widen/crash-swarm` and `widen/crash-abd`
//! were re-pinned once, when any reply from a suspected node began clearing
//! its suspicion (a node a spike or a crash got suspected is contacted
//! optimistically again once it answers); the cells without a widen deadline
//! or without a timed-out round stayed as pinned.
//!
//! To regenerate after an intended behaviour change, run
//! `cargo test -p swarm-tests --test driver_parity -- --nocapture` and copy
//! the printed `("name", 0x...)` table over `PINNED`.

use swarm_fabric::{FaultPlan, NodeId, TrafficStats};
use swarm_kv::{
    run_scenario, run_workload, HedgeConfig, KvStore, Protocol, RunConfig, RunStats,
    ScenarioRunConfig, StoreBuilder,
};
use swarm_sim::{Histogram, Nanos, Sim, NANOS_PER_MICRO};
use swarm_workload::{Phase, ScenarioMix, ScenarioOpClass, ScenarioSpec, Workload, WorkloadSpec};

const PINNED: &[(&str, u64)] = &[
    ("workload/sequential", 0xdbe1ce5522b69754),
    ("workload/sequential-fusee", 0xbbed51cae4feaefe),
    ("workload/concurrency4", 0xd9c8e5094c0f6e11),
    ("workload/paced-deadlined-series", 0x73f197255edc157a),
    ("workload/rtts-prewarm", 0xe753d822b99377b3),
    ("workload/rtts-prewarm-abd", 0x731efd48fce98460),
    ("workload/routed", 0x493847e73cb75811),
    ("scenario/swarm", 0xb86acf460afa244d),
    ("scenario/fusee", 0xf105b1c9f7acb1ea),
    ("hedged/spike-swarm", 0x5b54d2dfee4b3579),
    ("hedged/spike-abd", 0x04aae4b305bc5114),
    ("hedged/spike-raw", 0x96e38c8846bf13d7),
    ("hedged/spike-fusee", 0xb9eb20ddd798a363),
    ("hedged/deadline-cancel-swarm", 0x05fba5e96504e24b),
    ("widen/crash-swarm", 0x61eca8332c7f8d6f),
    ("widen/crash-abd", 0xa13aa2035b7acb8b),
    ("tslock/one-key-16-clients", 0x63019e638d7cfc92),
];

/// A mix with all four YCSB classes, so inserts, deletes, and the failed
/// gets that follow a delete are all on the digested path.
const MIXED: WorkloadSpec = WorkloadSpec {
    get_pct: 50,
    update_pct: 30,
    insert_pct: 10,
    delete_pct: 10,
};

const N_KEYS: u64 = 128;

#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A histogram's sample count and every sample, ascending.
    fn hist(&mut self, mut h: Histogram) {
        self.u64(h.len() as u64);
        if !h.is_empty() {
            // `cdf(n)` over `n` samples returns exactly rank 0..n.
            for (ns, _) in h.cdf(h.len().max(2)) {
                self.u64(ns);
            }
        }
    }

    fn traffic(&mut self, t: TrafficStats) {
        for v in [
            t.messages,
            t.bytes,
            t.hedges_fired,
            t.hedges_won,
            t.duplicates_discarded,
        ] {
            self.u64(v);
        }
    }

    fn run_stats(&mut self, s: &RunStats) {
        for v in [
            s.measured_ops,
            s.failed_ops,
            s.start_ns,
            s.end_ns,
            s.scanned_items,
        ] {
            self.u64(v);
        }
        for (i, class) in ScenarioOpClass::all().into_iter().enumerate() {
            for (&rtts, &ops) in s.rtt_counts(class) {
                self.u64(i as u64);
                self.u64(rtts);
                self.u64(ops);
            }
        }
        if let Some(series) = &s.series {
            for (at, n, mean) in series.buckets() {
                self.u64(at);
                self.u64(n);
                self.u64(mean.to_bits());
            }
        }
        for class in ScenarioOpClass::all() {
            self.hist(s.lat(class));
        }
    }

    fn finish(self) -> u64 {
        swarm_core::xxh64(&self.0, 12)
    }
}

/// One `run_workload` cell over a single replica group.
fn workload_cell(seed: u64, protocol: Protocol, clients: usize, cfg: RunConfig) -> u64 {
    let sim = Sim::new(seed);
    let cluster = StoreBuilder::new(protocol)
        .value_size(64)
        .max_clients(clients)
        .build_cluster(&sim);
    let wl = Workload::ycsb(MIXED, N_KEYS, 64);
    cluster.load_keys(N_KEYS, |k| wl.value_for(k, 0));
    let stats = run_workload(&sim, &cluster.clients(clients), &wl, &cfg);
    let mut d = Digest::default();
    d.run_stats(&stats);
    d.traffic(cluster.fabric().stats());
    d.u64(sim.now());
    d.finish()
}

/// What a [`staged_cell`] runs under.
struct Staging {
    /// `None` = the hedge knob is never touched.
    hedge: Option<HedgeConfig>,
    op_deadline_ns: Option<Nanos>,
    faults: FaultPlan,
}

/// Hedging armed after two samples per node, so estimates form (and hedges
/// fire) within a few hundred ops; everything else at the defaults.
fn eager_hedge() -> HedgeConfig {
    HedgeConfig {
        min_samples: 2,
        ..HedgeConfig::on()
    }
}

/// `bursts` delay bursts of +15 us one-way, 60 us long, one every 100 us
/// from 10 us on, each on `width` adjacent nodes rotating over the four.
fn spike_plan(bursts: u64, width: usize) -> FaultPlan {
    let us = NANOS_PER_MICRO;
    let mut plan = FaultPlan::new();
    for i in 0..bursts {
        for w in 0..width {
            let node = NodeId((i as usize + w) % 4);
            plan = plan.delay_spike((10 + 100 * i) * us, node, 15 * us, 60 * us);
        }
    }
    plan
}

/// Node `i % 4` crashes every 300 us from 50 us on and restarts 150 us
/// later, `cycles` times: one node down at a time, a majority always up.
fn crash_plan(cycles: u64) -> FaultPlan {
    let us = NANOS_PER_MICRO;
    let mut plan = FaultPlan::new();
    for i in 0..cycles {
        let node = NodeId(i as usize % 4);
        plan = plan
            .crash_at((50 + 300 * i) * us, node)
            .restart_at((200 + 300 * i) * us, node);
    }
    plan
}

/// One `run_workload` cell under a fault plan, optionally hedged and
/// deadlined. Digests the run's stats, the traffic (hedge counters
/// included), every client's roundtrip count and the executor's event
/// counters; returns the traffic too so the caller can assert the cell
/// exercises what its name says.
fn staged_cell(
    seed: u64,
    protocol: Protocol,
    clients: usize,
    wl: &Workload,
    cfg: RunConfig,
    staging: Staging,
) -> (u64, RunStats, TrafficStats) {
    let sim = Sim::new(seed);
    let mut builder = StoreBuilder::new(protocol)
        .value_size(64)
        .max_clients(clients);
    if let Some(hedge) = staging.hedge {
        builder = builder.hedge(hedge);
    }
    if let Some(ns) = staging.op_deadline_ns {
        builder = builder.op_deadline_ns(ns);
    }
    let cluster = builder.build_cluster(&sim);
    cluster.load_keys(N_KEYS, |k| wl.value_for(k, 0));
    cluster.fabric().apply_fault_plan(&staging.faults);
    let stores = cluster.clients(clients);
    let stats = run_workload(&sim, &stores, wl, &cfg);
    let traffic = cluster.fabric().stats();
    let mut d = Digest::default();
    d.run_stats(&stats);
    d.traffic(traffic);
    for c in &stores {
        d.u64(c.rounds());
    }
    let c = sim.counters();
    for v in [
        c.events_scheduled,
        c.timer_events,
        c.boxed_events,
        c.tasks_spawned,
    ] {
        d.u64(v);
    }
    d.u64(sim.now());
    (d.finish(), stats, traffic)
}

/// The cells that pin the staged quorum wait (see the module docs), each
/// with an assertion that it reaches the stage it is named after.
fn staged_cells() -> Vec<(&'static str, u64)> {
    // Gets and updates only: every op succeeds unless a deadline cancels it.
    let mixed = Workload::ycsb(WorkloadSpec::A, N_KEYS, 64);
    let cfg = RunConfig {
        warmup_ops: 100,
        measure_ops: 1_500,
        ..Default::default()
    };
    let mut out = Vec::new();

    for (name, seed, protocol) in [
        ("hedged/spike-swarm", 401, Protocol::SafeGuess),
        ("hedged/spike-abd", 402, Protocol::Abd),
        ("hedged/spike-raw", 403, Protocol::Raw),
        ("hedged/spike-fusee", 404, Protocol::Fusee),
    ] {
        let staging = Staging {
            hedge: Some(eager_hedge()),
            op_deadline_ns: None,
            faults: spike_plan(200, 1),
        };
        let (digest, stats, t) = staged_cell(seed, protocol, 4, &mixed, cfg.clone(), staging);
        assert_eq!(stats.failed_ops, 0, "{name}: spikes only delay");
        assert_eq!(
            t.hedges_fired,
            t.hedges_won + t.duplicates_discarded,
            "{name}"
        );
        // RAW has no quorum to hedge; the other three must fire and win.
        let hedges = protocol != Protocol::Raw;
        assert_eq!(t.hedges_won > 0, hedges, "{name}: {t:?}");
        assert_eq!(t.duplicates_discarded > 0, hedges, "{name}: {t:?}");
        out.push((name, digest));
    }

    // Two of a key's three replicas spiked at once: the hedge's spare is
    // slow too, so the 8 us op deadline cancels ops between fire and settle
    // and the dropped tickets must still balance the budget.
    let staging = Staging {
        hedge: Some(eager_hedge()),
        op_deadline_ns: Some(8 * NANOS_PER_MICRO),
        faults: spike_plan(200, 2),
    };
    let (digest, stats, t) = staged_cell(405, Protocol::SafeGuess, 4, &mixed, cfg.clone(), staging);
    assert!(stats.failed_ops > 0, "no op hit its deadline");
    assert!(t.hedges_fired > 0, "no hedge fired");
    assert_eq!(t.hedges_fired, t.hedges_won + t.duplicates_discarded);
    out.push(("hedged/deadline-cancel-swarm", digest));

    for (name, seed, protocol) in [
        ("widen/crash-swarm", 406, Protocol::SafeGuess),
        ("widen/crash-abd", 407, Protocol::Abd),
    ] {
        let staging = Staging {
            hedge: None,
            op_deadline_ns: None,
            faults: crash_plan(40),
        };
        let (digest, stats, t) = staged_cell(seed, protocol, 4, &mixed, cfg.clone(), staging);
        assert_eq!(stats.failed_ops, 0, "{name}: a majority stays reachable");
        assert_eq!(t.hedges_fired, 0, "{name}");
        out.push((name, digest));
    }

    // Sixteen clients on one key of the loaded store: guesses collide, so
    // writers and readers arbitrate through `TsLock::try_lock`.
    let hot = Workload::ycsb(WorkloadSpec::A, 1, 64);
    let staging = Staging {
        hedge: None,
        op_deadline_ns: None,
        faults: FaultPlan::new(),
    };
    let (digest, stats, _) = staged_cell(408, Protocol::SafeGuess, 16, &hot, cfg, staging);
    assert_eq!(stats.failed_ops, 0);
    out.push(("tslock/one-key-16-clients", digest));
    out
}

/// `run_workload` through cross-shard routers.
fn routed_cell(seed: u64) -> u64 {
    let sim = Sim::new(seed);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .value_size(64)
        .max_clients(2)
        .shards(3)
        .build_sharded(&sim);
    let wl = Workload::ycsb(MIXED, N_KEYS, 64);
    cluster.load_keys(N_KEYS, |k| wl.value_for(k, 0));
    let cfg = RunConfig {
        warmup_ops: 50,
        measure_ops: 400,
        ..Default::default()
    };
    let routers = cluster.routers(2);
    let stats = run_workload(&sim, &routers, &wl, &cfg);
    let mut d = Digest::default();
    d.run_stats(&stats);
    for t in cluster.per_shard_stats() {
        d.traffic(t);
    }
    for r in &routers {
        for n in r.routed_per_shard() {
            d.u64(n);
        }
    }
    d.finish()
}

/// `run_scenario` over plain clients: scans, RMWs, inserts, a mid-run
/// hot-set rotation.
fn scenario_cell(seed: u64, protocol: Protocol) -> u64 {
    let sim = Sim::new(seed);
    let cluster = StoreBuilder::new(protocol)
        .value_size(64)
        .max_clients(3)
        .build_cluster(&sim);
    cluster.load_keys(64, |k| vec![k as u8; 64]);
    let clients: Vec<_> = (0..3).map(|i| cluster.client(i)).collect();
    let spec = ScenarioSpec::new("parity", 64)
        .phase(Phase::new(150, ScenarioMix::E).theta(0.9))
        .phase(Phase::new(150, ScenarioMix::F).theta(0.99).rotate(32))
        .phase(Phase::new(100, ScenarioMix::from(MIXED)));
    let cfg = ScenarioRunConfig {
        seed: seed ^ 0x5CE9,
        ..Default::default()
    };
    let stats = run_scenario(&sim, &clients, &spec, &cfg);
    let mut d = Digest::default();
    d.run_stats(&stats);
    d.traffic(cluster.fabric().stats());
    d.u64(sim.now());
    d.finish()
}

fn cells() -> Vec<(&'static str, u64)> {
    let base = RunConfig {
        warmup_ops: 100,
        measure_ops: 600,
        ..Default::default()
    };
    let mut cells = vec![
        (
            "workload/sequential",
            workload_cell(101, Protocol::SafeGuess, 4, base.clone()),
        ),
        (
            "workload/sequential-fusee",
            workload_cell(102, Protocol::Fusee, 2, base.clone()),
        ),
        (
            "workload/concurrency4",
            workload_cell(
                105,
                Protocol::SafeGuess,
                2,
                RunConfig {
                    concurrency: 4,
                    ..base.clone()
                },
            ),
        ),
        (
            "workload/paced-deadlined-series",
            workload_cell(
                106,
                Protocol::SafeGuess,
                2,
                RunConfig {
                    measure_ops: 100_000,
                    pace_ns: Some(8 * NANOS_PER_MICRO),
                    deadline_ns: Some(3_000 * NANOS_PER_MICRO),
                    bucket_ns: Some(500 * NANOS_PER_MICRO),
                    ..base.clone()
                },
            ),
        ),
        (
            "workload/rtts-prewarm",
            workload_cell(
                108,
                Protocol::SafeGuess,
                2,
                RunConfig {
                    record_rtts: true,
                    prewarm_keys: Some(N_KEYS),
                    ..base.clone()
                },
            ),
        ),
        (
            "workload/rtts-prewarm-abd",
            workload_cell(
                109,
                Protocol::Abd,
                2,
                RunConfig {
                    record_rtts: true,
                    prewarm_keys: Some(N_KEYS),
                    ..base
                },
            ),
        ),
        ("workload/routed", routed_cell(110)),
        ("scenario/swarm", scenario_cell(201, Protocol::SafeGuess)),
        ("scenario/fusee", scenario_cell(202, Protocol::Fusee)),
    ];
    cells.extend(staged_cells());
    cells
}

#[test]
fn driver_digests_match_the_pinned_values() {
    let got = cells();
    for (name, digest) in &got {
        println!("    (\"{name}\", {digest:#018x}),");
    }
    assert_eq!(got.len(), PINNED.len(), "cell list and PINNED disagree");
    for ((name, digest), (pinned_name, pinned)) in got.iter().zip(PINNED) {
        assert_eq!(name, pinned_name, "cell order changed");
        assert_eq!(
            digest, pinned,
            "{name}: digest {digest:#018x} != pinned {pinned:#018x}"
        );
    }
}

/// The digest has to be sensitive to what it pins: a different seed, one
/// more op, or one more in-flight op must move it.
#[test]
fn digests_are_sensitive_to_seed_and_volume() {
    let cfg = |measure_ops| RunConfig {
        warmup_ops: 20,
        measure_ops,
        ..Default::default()
    };
    let a = workload_cell(7, Protocol::SafeGuess, 2, cfg(200));
    assert_eq!(a, workload_cell(7, Protocol::SafeGuess, 2, cfg(200)));
    assert_ne!(a, workload_cell(8, Protocol::SafeGuess, 2, cfg(200)));
    assert_ne!(a, workload_cell(7, Protocol::SafeGuess, 2, cfg(201)));
}

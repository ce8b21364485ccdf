//! The five workloads and one repetition of any of them: fresh
//! `Sim::new(seed)` → build → preload → warm-up → measure → extract.
//!
//! Every workload is a closed loop (a simulated client issues its next
//! operation when the previous one returns) against SWARM-KV
//! (`Protocol::SafeGuess`). Warm-up is its own driver call whose statistics
//! are dropped, so counter deltas over the measured phase are exact.
//!
//! One `--seed` stands for [`SUB_SEEDS`] simulations. The share of gets that
//! need a second roundtrip beyond cache misses differs from one simulation
//! seed to the next (0.5 % on seven seeds in ten of the standard cell, 3 to
//! 13 % on the rest, with perfect client clocks too), and a simulation's get
//! p99 says which kind it is: 4.1 µs or 5.6 µs. A run therefore takes its
//! simulated metrics over a fixed set of sub-seeds, one repetition each:
//! rates and per-operation counts from the summed totals, latencies as the
//! mean of the simulations' percentiles.

use std::rc::Rc;
use std::time::Instant;

use swarm_core::HedgeConfig;
use swarm_fabric::{FaultPlan, NodeId, TrafficStats};
use swarm_kv::{
    run_scenario, run_workload, CacheCapacity, ClusterConfig, HistoryRecorder, KvStore, Protocol,
    RunConfig, ScenarioRunConfig, ShardRouter, ShardedCluster, StoreBuilder, StoreClient,
    StoreCluster,
};
use swarm_sim::{Histogram, Nanos, Sim, SimCounters, NANOS_PER_MILLI};
use swarm_workload::{
    scenario_value, OpType, ScenarioMix, ScenarioOpClass, ScenarioSpec, Workload, WorkloadSpec,
    Zipfian,
};

use crate::clock::OnCpu;
use crate::stats::LatencySummary;
use crate::trace::{PhaseTimes, Trace, Tracer};

/// Which op driver runs the workload, with its mix.
#[derive(Debug, Clone, Copy)]
pub enum Driver {
    /// `swarm_kv::run_workload` over a YCSB mix.
    Ycsb(WorkloadSpec),
    /// `swarm_kv::run_scenario`: a one-phase warm-up, then a flash crowd
    /// whose hot set moves mid-run.
    FlashCrowd(ScenarioMix),
}

/// Delay bursts for the whole run, as in `bench_tail`'s spike cells: node
/// `i % 4` gets `extra_ns` one-way for `len_ns`, one burst every `every_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Spikes {
    /// Quorum widen floor (raised so a spiked replica never answers before
    /// the widen path would).
    pub widen_floor_ns: Nanos,
    /// One-way delay added on the spiked node.
    pub extra_ns: Nanos,
    /// Burst length.
    pub len_ns: Nanos,
    /// Start-to-start spacing of bursts.
    pub every_ns: Nanos,
    /// First burst (past the bulk load, inside the prewarm).
    pub from_ns: Nanos,
    /// Bursts scheduled; must outlast the run (checked).
    pub count: u64,
}

/// One workload's parameters.
#[derive(Debug, Clone)]
pub struct Def {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Keys bulk-loaded before the run.
    pub loaded_keys: u64,
    /// Keys the operations draw from (`<= loaded_keys`).
    pub hot_keys: u64,
    /// Value size, bytes.
    pub value_size: usize,
    /// Simulated clients.
    pub clients: usize,
    /// Operations in flight per client.
    pub in_flight: usize,
    /// Keyspace shards (1 = one replica group; more goes through routers).
    pub shards: usize,
    /// Location-cache capacity per client.
    pub cache: CacheCapacity,
    /// Op driver and mix.
    pub driver: Driver,
    /// Injected delay bursts plus hedging, if any.
    pub spikes: Option<Spikes>,
    /// Warm-up operations (dropped from every statistic).
    pub warm_ops: u64,
    /// Measured operations per repetition.
    pub measure_ops: u64,
    /// Simulations a run takes its simulated metrics over, one repetition
    /// each.
    pub sub_seeds: usize,
}

/// Simulations per `--seed` (see the module docs): as many as 20 seconds
/// pay for. How many of the ten are of the slow kind (one to five) is what
/// moves `get_p99_ns` between seeds.
pub const SUB_SEEDS: usize = 10;

/// `--smoke` runs two simulations: enough to exercise the averaging.
pub const SMOKE_SUB_SEEDS: usize = 2;

/// Laps a measured phase is timed in, about 50 ms each: short enough that
/// among a run's repetitions every lap is seen undisturbed at least once
/// (see [`crate::stats::quiet_ns`]).
pub const LAPS: u64 = 20;

/// `--smoke` divides every operation count by this.
pub const SMOKE_SHRINK: u64 = 20;

/// The workload names, in reporting order.
pub const NAMES: [&str; 5] = [
    "ycsb_b_64",
    "ycsb_a_8k",
    "hotkey_16c",
    "spike_hedged",
    "flash_4shard",
];

impl Def {
    /// The workload called `name`; `smoke` divides its volumes by
    /// [`SMOKE_SHRINK`] and runs [`SMOKE_SUB_SEEDS`] simulations.
    pub fn named(name: &str, smoke: bool) -> Option<Def> {
        let base = Def {
            name: "",
            loaded_keys: 0,
            hot_keys: 0,
            value_size: 64,
            clients: 4,
            in_flight: 1,
            shards: 1,
            cache: CacheCapacity::Unbounded,
            driver: Driver::Ycsb(WorkloadSpec::B),
            spikes: None,
            warm_ops: 0,
            measure_ops: 0,
            sub_seeds: if smoke { SMOKE_SUB_SEEDS } else { SUB_SEEDS },
        };
        let mut def = match name {
            // The paper's §7.1 standard cell.
            "ycsb_b_64" => Def {
                name: "ycsb_b_64",
                loaded_keys: 100_000,
                hot_keys: 100_000,
                warm_ops: 100_000,
                measure_ops: 150_000,
                ..base
            },
            // Fig. 9's worst cell: the byte path. Few keys because one key
            // costs ~82 KB on each of three replicas.
            "ycsb_a_8k" => Def {
                name: "ycsb_a_8k",
                loaded_keys: 2_048,
                hot_keys: 2_048,
                value_size: 8_192,
                in_flight: 4,
                driver: Driver::Ycsb(WorkloadSpec::A),
                warm_ops: 20_000,
                measure_ops: 24_000,
                ..base
            },
            // Fig. 12: every client on one key of a loaded store.
            "hotkey_16c" => Def {
                name: "hotkey_16c",
                loaded_keys: 50_000,
                hot_keys: 1,
                clients: 16,
                driver: Driver::Ycsb(WorkloadSpec::A),
                warm_ops: 10_000,
                measure_ops: 60_000,
                ..base
            },
            // bench_tail's spike/hedged/static cell.
            "spike_hedged" => Def {
                name: "spike_hedged",
                loaded_keys: 1 << 14,
                hot_keys: 1 << 14,
                spikes: Some(Spikes {
                    widen_floor_ns: 20_000,
                    extra_ns: 15_000,
                    len_ns: 120_000,
                    every_ns: 400_000,
                    from_ns: 2 * NANOS_PER_MILLI,
                    count: 3_000,
                }),
                warm_ops: 40_000,
                measure_ops: 150_000,
                ..base
            },
            // The second driver, the router, a cache far smaller than the
            // working set, RMW and insert classes, and the largest preload.
            "flash_4shard" => Def {
                name: "flash_4shard",
                loaded_keys: 1 << 18,
                hot_keys: 1 << 18,
                shards: 4,
                cache: CacheCapacity::Entries(16_384),
                driver: Driver::FlashCrowd(ScenarioMix {
                    get_pct: 60,
                    update_pct: 25,
                    insert_pct: 5,
                    delete_pct: 0,
                    scan_pct: 0,
                    rmw_pct: 10,
                }),
                warm_ops: 30_000,
                measure_ops: 70_000,
                ..base
            },
            _ => return None,
        };
        if smoke {
            def.warm_ops /= SMOKE_SHRINK;
            def.measure_ops /= SMOKE_SHRINK;
        }
        Some(def)
    }

    /// The simulation seed of repetition `rep` of `--seed seed`: the run's
    /// sub-seeds in turn. Neighbouring `--seed`s share none.
    pub fn sub_seed(&self, seed: u64, rep: usize) -> u64 {
        seed.wrapping_mul(self.sub_seeds as u64)
            .wrapping_add((rep % self.sub_seeds) as u64)
    }

    /// The driver's input, built once per repetition and outside the timed
    /// phases (`Workload::ycsb` sums the Zipfian's normaliser over every key).
    fn load(&self) -> Load {
        match self.driver {
            Driver::Ycsb(spec) => Load::Ycsb(Workload::ycsb(spec, self.hot_keys, self.value_size)),
            Driver::FlashCrowd(mix) => Load::FlashCrowd(mix),
        }
    }

    fn builder(&self) -> StoreBuilder {
        let mut cluster = ClusterConfig::default();
        if let Some(s) = &self.spikes {
            cluster.quorum.widen_timeout_ns = s.widen_floor_ns;
        }
        let builder = StoreBuilder::new(Protocol::SafeGuess)
            .cluster_config(cluster)
            .shards(self.shards)
            .value_size(self.value_size)
            .max_clients(self.clients)
            .meta_bufs(self.clients)
            .cache(self.cache);
        match self.spikes {
            Some(_) => builder.hedge(HedgeConfig::on()),
            None => builder,
        }
    }

    /// How many operations the linearizability side-run may issue before
    /// its hottest key could pass the checker's 128-operations-per-key cap:
    /// the expected count of recorded calls on that key (a read-modify-write
    /// records two) stays at 90, four standard deviations below the cap.
    pub fn side_run_ops(&self) -> u64 {
        let top = Zipfian::new(self.hot_keys, 0.99, true).top_probability();
        let calls_per_op = match self.driver {
            Driver::Ycsb(_) => 1.0,
            Driver::FlashCrowd(mix) => 1.0 + mix.rmw_pct as f64 / 100.0,
        };
        ((90.0 / top / calls_per_op) as u64).clamp(1, 1_200)
    }
}

/// What the op driver of a repetition consumes.
enum Load {
    Ycsb(Workload),
    FlashCrowd(ScenarioMix),
}

impl Load {
    /// Bulk-load payload of `key`, matching what the driver's own mutations
    /// write (so value tags stay unique per `(key, version)`).
    fn initial_value(&self, key: u64, size: usize) -> Vec<u8> {
        match self {
            Load::Ycsb(workload) => workload.value_for(key, 0),
            Load::FlashCrowd(_) => scenario_value(key, 0, size),
        }
    }
}

/// A built, loaded system under test: what the repetition needs from either
/// one replica group or a sharded cluster behind routers.
trait Bed {
    type Store: KvStore + 'static;
    fn stores(&self) -> &[Rc<Self::Store>];
    fn traffic(&self) -> TrafficStats;
    /// Location-cache `(hits, misses)` summed over clients.
    fn cache(&self) -> (u64, u64);
    /// Operations routed to each shard, summed over routers.
    fn routed(&self) -> Vec<u64>;
}

struct Single {
    cluster: StoreCluster,
    clients: Vec<Rc<StoreClient>>,
}

impl Bed for Single {
    type Store = StoreClient;
    fn stores(&self) -> &[Rc<StoreClient>] {
        &self.clients
    }
    fn traffic(&self) -> TrafficStats {
        self.cluster.fabric().stats()
    }
    fn cache(&self) -> (u64, u64) {
        sum_pairs(self.clients.iter().map(|c| c.cache_stats()))
    }
    fn routed(&self) -> Vec<u64> {
        Vec::new()
    }
}

struct Sharded {
    cluster: ShardedCluster,
    routers: Vec<Rc<ShardRouter>>,
}

impl Bed for Sharded {
    type Store = ShardRouter;
    fn stores(&self) -> &[Rc<ShardRouter>] {
        &self.routers
    }
    fn traffic(&self) -> TrafficStats {
        self.cluster.stats()
    }
    fn cache(&self) -> (u64, u64) {
        sum_pairs(self.routers.iter().map(|r| r.cache_stats()))
    }
    fn routed(&self) -> Vec<u64> {
        let mut total = vec![0; self.cluster.num_shards()];
        for r in &self.routers {
            for (t, n) in total.iter_mut().zip(r.routed_per_shard()) {
                *t += n;
            }
        }
        total
    }
}

fn sum_pairs(pairs: impl Iterator<Item = (u64, u64)>) -> (u64, u64) {
    pairs.fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
}

/// Everything the simulated clock and the program's own counters say about
/// one measured phase. Deterministic in `(workload, seed)`: two repetitions
/// must compare equal, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Operations the driver completed in the measured phase.
    pub measured_ops: u64,
    /// Of those, operations that failed or found the key absent.
    pub failed_ops: u64,
    /// Get latency.
    pub get: LatencySummary,
    /// Update latency.
    pub update: LatencySummary,
    /// Insert latency (scenario driver only).
    pub insert: LatencySummary,
    /// Read-modify-write latency (scenario driver only).
    pub rmw: LatencySummary,
    /// Simulated start and end of the measured phase.
    pub sim_span: (Nanos, Nanos),
    /// Fabric traffic over the measured phase.
    pub traffic: TrafficStats,
    /// Executor counters over the measured phase.
    pub counters: SimCounters,
    /// Location-cache `(hits, misses)` over the measured phase.
    pub cache: (u64, u64),
    /// Operations routed to each shard over the measured phase (empty
    /// without shards).
    pub routed: Vec<u64>,
}

/// One repetition's results.
pub struct Rep {
    /// The simulation seed it ran on.
    pub seed: u64,
    /// The simulated side.
    pub sim: SimOutcome,
    /// The five phases on the host clock, which is this thread's CPU clock
    /// ([`OnCpu`]): ns since the repetition began.
    pub phases: PhaseTimes,
    /// The repetition's CPU time over its wall time; well below 1 means the
    /// core was taken away for that share of it.
    pub oncpu_share: f64,
    /// Host ns of each lap of the measured phase (about [`LAPS`] of them).
    pub laps: Vec<u64>,
    /// Client and operation spans (traced repetitions only).
    pub trace: Option<Trace>,
}

impl Rep {
    fn phase_s(&self, i: usize) -> f64 {
        (self.phases[i].1 - self.phases[i].0) as f64 / 1e9
    }
    /// Cluster build, host seconds.
    pub fn build_s(&self) -> f64 {
        self.phase_s(0)
    }
    /// Bulk load, host seconds.
    pub fn preload_s(&self) -> f64 {
        self.phase_s(1)
    }
    /// Cache prewarm and warm-up operations, host seconds.
    pub fn warmup_s(&self) -> f64 {
        self.phase_s(2)
    }
    /// Measured phase, host seconds.
    pub fn measure_s(&self) -> f64 {
        self.phase_s(3)
    }
    /// Turning the driver's histograms into percentiles, host seconds.
    pub fn extract_s(&self) -> f64 {
        self.phase_s(4)
    }
    /// Build, bulk load and warm-up, host ns each: the parts of set-up.
    pub fn setup_phases_ns(&self) -> [u64; 3] {
        [0, 1, 2].map(|i| self.phases[i].1 - self.phases[i].0)
    }
    /// Host seconds from `Sim::new` to the first measured operation.
    pub fn setup_s(&self) -> f64 {
        self.phases[3].0 as f64 / 1e9
    }
    /// Measured operations per host second.
    pub fn host_ops_per_s(&self) -> f64 {
        self.sim.measured_ops as f64 / self.measure_s()
    }
}

/// What a driver call hands back, in one shape for both drivers.
struct Driven {
    measured_ops: u64,
    failed_ops: u64,
    sim_span: (Nanos, Nanos),
    get: Histogram,
    update: Histogram,
    insert: Histogram,
    rmw: Histogram,
}

/// Runs `ops` operations of the workload's measured mix (or of its warm-up,
/// which for the flash crowd is one calm phase and for the spiked workload
/// begins by touching every key once per client).
fn drive<S: KvStore + 'static>(
    def: &Def,
    load: &Load,
    sim: &Sim,
    stores: &[Rc<S>],
    seed: u64,
    ops: u64,
    warm: bool,
) -> Driven {
    match load {
        Load::Ycsb(workload) => {
            let cfg = RunConfig {
                warmup_ops: 0,
                measure_ops: ops,
                concurrency: def.in_flight,
                prewarm_keys: (warm && def.spikes.is_some()).then_some(def.hot_keys),
                ..Default::default()
            };
            let s = run_workload(sim, stores, workload, &cfg);
            Driven {
                measured_ops: s.measured_ops,
                failed_ops: s.failed_ops,
                sim_span: (s.start_ns, s.end_ns),
                get: s.lat(OpType::Get),
                update: s.lat(OpType::Update),
                insert: s.lat(OpType::Insert),
                rmw: Histogram::new(),
            }
        }
        &Load::FlashCrowd(mix) => {
            let (spec, stream_seed) = if warm {
                (
                    ScenarioSpec::ycsb("warm", mix, def.hot_keys, ops as usize),
                    seed ^ 0x5741_524D,
                )
            } else {
                (
                    ScenarioSpec::flash_crowd("flash", mix, def.hot_keys, ops as usize),
                    seed,
                )
            };
            let cfg = ScenarioRunConfig {
                seed: stream_seed,
                value_cap: def.value_size,
                ..Default::default()
            };
            let s = run_scenario(sim, stores, &spec, &cfg);
            Driven {
                measured_ops: s.measured_ops,
                failed_ops: s.failed_ops,
                sim_span: (s.start_ns, s.end_ns),
                get: s.lat(ScenarioOpClass::Get),
                update: s.lat(ScenarioOpClass::Update),
                insert: s.lat(ScenarioOpClass::Insert),
                rmw: s.lat(ScenarioOpClass::Rmw),
            }
        }
    }
}

fn spike_plan(s: &Spikes, nodes: usize) -> FaultPlan {
    (0..s.count).fold(FaultPlan::new(), |plan, i| {
        plan.delay_spike(
            s.from_ns + i * s.every_ns,
            NodeId(i as usize % nodes),
            s.extra_ns,
            s.len_ns,
        )
    })
}

/// Builds the cluster (with its fault plan) and bulk-loads it; returns the
/// host instants after the build and after the load. Clients are minted
/// last, as the figure binaries do.
fn build_single(def: &Def, load: &Load, sim: &Sim) -> (Single, OnCpu, OnCpu) {
    let cluster = def.builder().build_cluster(sim);
    if let Some(s) = &def.spikes {
        let nodes = cluster.fabric().num_nodes();
        cluster.fabric().apply_fault_plan(&spike_plan(s, nodes));
    }
    let built = OnCpu::now();
    cluster.load_keys(def.loaded_keys, |k| load.initial_value(k, def.value_size));
    let clients = cluster.clients(def.clients);
    (Single { cluster, clients }, built, OnCpu::now())
}

fn build_sharded(def: &Def, load: &Load, sim: &Sim) -> (Sharded, OnCpu, OnCpu) {
    assert!(def.spikes.is_none(), "no workload spikes a sharded cluster");
    let cluster = def.builder().build_sharded(sim);
    let built = OnCpu::now();
    cluster.load_keys(def.loaded_keys, |k| load.initial_value(k, def.value_size));
    let routers = cluster.routers(def.clients);
    (Sharded { cluster, routers }, built, OnCpu::now())
}

/// One repetition of `def` on a fresh simulation.
pub fn run_rep(def: &Def, seed: u64, traced: bool) -> Rep {
    let load = def.load();
    let (wall0, t0) = (Instant::now(), OnCpu::now());
    let sim = Sim::new(seed);
    if def.shards > 1 {
        let (bed, built, loaded) = build_sharded(def, &load, &sim);
        finish_rep(
            def,
            &load,
            seed,
            &sim,
            &bed,
            traced,
            (wall0, t0, built, loaded),
        )
    } else {
        let (bed, built, loaded) = build_single(def, &load, &sim);
        finish_rep(
            def,
            &load,
            seed,
            &sim,
            &bed,
            traced,
            (wall0, t0, built, loaded),
        )
    }
}

/// The program's own counters at one instant.
struct Counters {
    traffic: TrafficStats,
    sim: SimCounters,
    cache: (u64, u64),
    routed: Vec<u64>,
}

impl Counters {
    fn read<B: Bed>(sim: &Sim, bed: &B) -> Self {
        Counters {
            traffic: bed.traffic(),
            sim: sim.counters(),
            cache: bed.cache(),
            routed: bed.routed(),
        }
    }

    /// What was counted since `before`.
    fn since(&self, before: &Counters) -> Counters {
        let (t, u) = (&self.traffic, &before.traffic);
        let (c, d) = (&self.sim, &before.sim);
        Counters {
            traffic: TrafficStats {
                messages: t.messages - u.messages,
                bytes: t.bytes - u.bytes,
                hedges_fired: t.hedges_fired - u.hedges_fired,
                hedges_won: t.hedges_won - u.hedges_won,
                duplicates_discarded: t.duplicates_discarded - u.duplicates_discarded,
            },
            sim: SimCounters {
                events_scheduled: c.events_scheduled - d.events_scheduled,
                timer_events: c.timer_events - d.timer_events,
                boxed_events: c.boxed_events - d.boxed_events,
                tasks_spawned: c.tasks_spawned - d.tasks_spawned,
                tasks_polled: c.tasks_polled - d.tasks_polled,
            },
            cache: (self.cache.0 - before.cache.0, self.cache.1 - before.cache.1),
            routed: self
                .routed
                .iter()
                .zip(&before.routed)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

fn finish_rep<B: Bed>(
    def: &Def,
    load: &Load,
    seed: u64,
    sim: &Sim,
    bed: &B,
    traced: bool,
    (wall0, t0, built, loaded): (Instant, OnCpu, OnCpu, OnCpu),
) -> Rep {
    let tracer = Tracer::new(sim);
    let stores: Vec<_> = bed
        .stores()
        .iter()
        .map(|s| tracer.wrap(Rc::clone(s)))
        .collect();

    // Warm-up, then the measured phase bracketed by counter readings.
    drive(def, load, sim, &stores, seed, def.warm_ops, true);
    let before = Counters::read(sim, bed);
    tracer.set_recording(traced);
    tracer.start_laps(def.measure_ops / LAPS);
    let started = OnCpu::now();
    let mut d = drive(def, load, sim, &stores, seed, def.measure_ops, false);
    let ended = OnCpu::now();
    let laps = tracer.stop_laps();
    let counted = Counters::read(sim, bed).since(&before);

    let sim_outcome = SimOutcome {
        measured_ops: d.measured_ops,
        failed_ops: d.failed_ops,
        get: LatencySummary::of(&mut d.get),
        update: LatencySummary::of(&mut d.update),
        insert: LatencySummary::of(&mut d.insert),
        rmw: LatencySummary::of(&mut d.rmw),
        sim_span: d.sim_span,
        traffic: counted.traffic,
        counters: counted.sim,
        cache: counted.cache,
        routed: counted.routed,
    };
    let extracted = OnCpu::now();

    if let Some(s) = &def.spikes {
        let last_burst = s.from_ns + s.count * s.every_ns;
        assert!(
            sim.now() < last_burst,
            "{}: the run outlasted its {} delay bursts",
            def.name,
            s.count
        );
        // A fault event still queued holds the fabric, which holds the
        // simulation: the whole cluster would outlive the repetition and
        // peak memory would grow with the repetition count. Fire them all.
        sim.run_until(last_burst);
    }
    let ns = |t: OnCpu| t.since(t0);
    let wall = (wall0.elapsed().as_nanos() as u64).max(1);
    Rep {
        seed,
        sim: sim_outcome,
        phases: [
            (0, ns(built)),
            (ns(built), ns(loaded)),
            (ns(loaded), ns(started)),
            (ns(started), ns(ended)),
            (ns(ended), ns(extracted)),
        ],
        oncpu_share: ns(OnCpu::now()) as f64 / wall as f64,
        laps,
        trace: traced.then(|| tracer.finish()),
    }
}

/// The linearizability side-run: the same cluster shape and mix, no
/// warm-up, few enough recorded operations for `KvHistory::check`.
pub struct SideRun {
    /// Operations recorded.
    pub ops: usize,
    /// Operations the driver counted as failed.
    pub failed_ops: u64,
    /// `KvHistory::check`'s verdict.
    pub check: Result<(), String>,
}

/// Runs the side-run of `def` for `seed`.
pub fn side_run(def: &Def, seed: u64) -> SideRun {
    let load = def.load();
    let sim = Sim::new(seed);
    if def.shards > 1 {
        let (bed, _, _) = build_sharded(def, &load, &sim);
        recorded(def, &load, seed, &sim, &bed)
    } else {
        let (bed, _, _) = build_single(def, &load, &sim);
        recorded(def, &load, seed, &sim, &bed)
    }
}

fn recorded<B: Bed>(def: &Def, load: &Load, seed: u64, sim: &Sim, bed: &B) -> SideRun {
    let recorder = HistoryRecorder::new(sim);
    for key in 0..def.loaded_keys {
        recorder.set_initial(key, &load.initial_value(key, def.value_size));
    }
    let stores: Vec<_> = bed
        .stores()
        .iter()
        .map(|s| recorder.wrap(Rc::clone(s)))
        .collect();
    let driven = drive(def, load, sim, &stores, seed, def.side_run_ops(), false);
    let history = recorder.take_history();
    SideRun {
        ops: history.len(),
        failed_ops: driven.failed_ops,
        check: history.check().map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_has_a_definition_and_smoke_shrinks_it() {
        for name in NAMES {
            let full = Def::named(name, false).unwrap();
            let smoke = Def::named(name, true).unwrap();
            assert_eq!(full.name, name);
            assert_eq!(smoke.measure_ops, full.measure_ops / SMOKE_SHRINK);
            assert_eq!(smoke.loaded_keys, full.loaded_keys);
            assert!(full.hot_keys <= full.loaded_keys);
        }
        assert!(Def::named("nope", false).is_none());
    }

    #[test]
    fn sub_seeds_cycle_and_neighbouring_seeds_share_none() {
        let def = Def::named("ycsb_b_64", false).unwrap();
        let of = |seed| {
            (0..SUB_SEEDS)
                .map(|i| def.sub_seed(seed, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(def.sub_seed(7, SUB_SEEDS + 3), def.sub_seed(7, 3));
        let all: std::collections::BTreeSet<u64> = (0..50).flat_map(of).collect();
        assert_eq!(all.len(), 50 * SUB_SEEDS);
        assert_eq!(
            Def::named("ycsb_b_64", true).unwrap().sub_seeds,
            SMOKE_SUB_SEEDS
        );
    }

    #[test]
    fn side_run_sizes_respect_the_checker_cap() {
        assert_eq!(Def::named("hotkey_16c", false).unwrap().side_run_ops(), 90);
        assert_eq!(
            Def::named("ycsb_b_64", false).unwrap().side_run_ops(),
            1_150
        );
        for name in NAMES {
            let def = Def::named(name, false).unwrap();
            let top = Zipfian::new(def.hot_keys, 0.99, true).top_probability();
            assert!(def.side_run_ops() as f64 * top <= 90.0 + 1e-9, "{name}");
        }
    }
}

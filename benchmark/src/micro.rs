//! Per-layer micro-timings: host nanoseconds per call into a crate's public
//! functions, each the median of [`BATCHES`] timed batches. They exist to
//! attribute a change in an end-to-end host metric to a layer; none has a
//! bound. The simulated numbers in here (baseline medians, scan latency)
//! repeat exactly for a seed.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use swarm_core::{
    innout_hash, xxh64, HedgeConfig, KvHistory, KvOpKind, MVal, MaxRegister, NodeHealth,
    QuorumConfig, ReliableMaxReg, Rounds, RttTracker, SafeGuess, SimReplica, SimReplicaState,
    Stamp, TsGuesser, TsLock, TsLockSet,
};
use swarm_fabric::{Fabric, FabricConfig, NodeId, NodeMemory, Op};
use swarm_kv::{
    run_workload, CacheCapacity, KvStore, Protocol, RunConfig, StoreBuilder, StoreClient,
};
use swarm_sim::{GuessClock, Histogram, Sim};
use swarm_workload::{OpType, ScenarioMix, ScenarioSpec, Workload, WorkloadSpec, Zipfian};

use crate::stats::median;

/// Timed batches per micro-timing.
pub const BATCHES: usize = 5;

/// Median over [`BATCHES`] of `batch()`, which returns host ns per call.
fn median_of(mut batch: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&runs)
}

/// Median host ns per call of `f` over batches of `iters` calls.
fn per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    median_of(|| {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    })
}

/// A cheap deterministic `[0, 1)` sequence for sampler inputs.
fn unit(i: u64) -> f64 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64
}

/// `bench.calib_ns`: a fixed integer loop, to tell machine drift from code
/// drift between two runs.
pub fn calib_ns() -> f64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let ns = per_call(5_000_000, |i| {
        x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
    });
    black_box(x);
    ns
}

/// `sim.timer_event_ns`: 16 tasks in a `sleep_ns` loop.
pub fn timer_event_ns() -> f64 {
    const TASKS: u64 = 16;
    const SLEEPS: u64 = 20_000;
    median_of(|| {
        let sim = Sim::new(7);
        for _ in 0..TASKS {
            let s = sim.clone();
            sim.spawn(async move {
                for _ in 0..SLEEPS {
                    s.sleep_ns(10).await;
                }
            });
        }
        let t = Instant::now();
        sim.run();
        t.elapsed().as_nanos() as f64 / (TASKS * SLEEPS) as f64
    })
}

/// `sim.histogram_record_ns` and `sim.histogram_first_p99_ms`: 400 k
/// samples recorded, then the first percentile query (which sorts).
pub fn histogram() -> (f64, f64) {
    const SAMPLES: u64 = 400_000;
    let mut records = Vec::new();
    let mut sorts = Vec::new();
    for _ in 0..BATCHES {
        let mut h = Histogram::new();
        let t = Instant::now();
        for i in 0..SAMPLES {
            h.record(2_000 + (i.wrapping_mul(0x9E37_79B9) & 0xFFF));
        }
        records.push(t.elapsed().as_nanos() as f64 / SAMPLES as f64);
        let t = Instant::now();
        black_box(h.percentile(99.0));
        sorts.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&records), median(&sorts))
}

/// `fabric.loopback_read64_ns` / `fabric.loopback_write8k_ns`: one endpoint
/// submitting one op at a time to one node; host ns per completed message.
pub fn loopback_ns(write_8k: bool) -> f64 {
    const MESSAGES: u64 = 20_000;
    median_of(|| {
        let sim = Sim::new(9);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 1);
        let ep = fabric.endpoint();
        let addr = fabric.node(NodeId(0)).alloc(8_192, 8);
        let payload = Rc::new(vec![0xABu8; 8_192]);
        let t = Instant::now();
        sim.block_on(async move {
            for _ in 0..MESSAGES {
                let op = if write_8k {
                    Op::Write {
                        addr,
                        data: Rc::clone(&payload),
                    }
                } else {
                    Op::Read { addr, len: 64 }
                };
                black_box(ep.submit(NodeId(0), vec![op]).await);
            }
        });
        t.elapsed().as_nanos() as f64 / MESSAGES as f64
    })
}

/// `fabric.mem_read8k_ns` / `fabric.mem_write8k_ns`: `NodeMemory` byte
/// copies over a 4 MiB region.
pub fn mem_8k_ns() -> (f64, f64) {
    const SLOTS: u64 = 512;
    let mem = NodeMemory::new();
    let base = mem.alloc(SLOTS * 8_192, 8);
    let buf = vec![0x5Au8; 8_192];
    let read = per_call(50_000, |i| {
        black_box(mem.read(base + (i % SLOTS) * 8_192, 8_192));
    });
    let write = per_call(50_000, |i| {
        mem.write(base + (i % SLOTS) * 8_192, black_box(&buf));
    });
    (read, write)
}

/// `fabric.mem_alloc_mb_per_s`: growing a fresh `NodeMemory` to 64 MiB in
/// key-sized allocations (what bulk loading does).
pub fn mem_alloc_mb_per_s() -> f64 {
    const ALLOCS: u64 = 8_192;
    const BYTES: u64 = 8_192;
    median_of(|| {
        let mem = NodeMemory::new();
        let t = Instant::now();
        for _ in 0..ALLOCS {
            black_box(mem.alloc(BYTES, 8));
        }
        (ALLOCS * BYTES) as f64 / 1e6 / t.elapsed().as_secs_f64()
    })
}

/// `core.xxh64_64B_ns`, `core.xxh64_8KiB_ns`, `core.innout_hash_8KiB_ns`.
pub fn hashes_ns() -> (f64, f64, f64) {
    let small = vec![0xABu8; 64];
    let large = vec![0xABu8; 8_192];
    (
        per_call(500_000, |i| {
            black_box(xxh64(black_box(&small), i));
        }),
        per_call(50_000, |i| {
            black_box(xxh64(black_box(&large), i));
        }),
        per_call(50_000, |i| {
            black_box(innout_hash(i, black_box(&large)));
        }),
    )
}

/// A Safe-Guess register over three idealized replicas (timestamp-lock
/// words on a fabric of their own), as the protocol tests build it.
fn sim_replica_register(sim: &Sim) -> SafeGuess<ReliableMaxReg<SimReplica>> {
    let fabric = Fabric::new(sim, FabricConfig::default(), 3);
    let words: Vec<(NodeId, u64)> = fabric
        .node_ids()
        .into_iter()
        .map(|id| (id, fabric.node(id).alloc(8, 8)))
        .collect();
    let health = NodeHealth::new(3);
    let rounds = Rounds::new();
    let replicas = (0..3)
        .map(|_| SimReplica::new(sim, SimReplicaState::new(), 700))
        .collect();
    let m = ReliableMaxReg::new(
        sim,
        replicas,
        vec![0, 1, 2],
        0,
        Rc::clone(&health),
        QuorumConfig::default(),
        rounds.clone(),
    );
    let lock = TsLock::new(
        sim,
        Rc::new(fabric.endpoint()),
        words,
        health,
        QuorumConfig::default(),
        rounds.clone(),
    );
    let guesser = Rc::new(TsGuesser::new(Rc::new(GuessClock::perfect(sim)), 0));
    SafeGuess::new(m, Rc::new(TsLockSet::eager(vec![lock])), guesser, rounds)
}

/// `core.maxreg_{read,write}_ns` and `core.safeguess_{read,write}_ns`: host
/// ns per simulated register operation over three `SimReplica`s.
pub fn registers_ns() -> [f64; 4] {
    const OPS: u64 = 5_000;
    let timed = |which: usize| {
        median_of(|| {
            let sim = Sim::new(11);
            let reg = sim_replica_register(&sim);
            let t = Instant::now();
            sim.block_on(async move {
                for i in 1..=OPS {
                    match which {
                        0 => {
                            black_box(reg.max_register().read().await);
                        }
                        1 => {
                            let v = MVal::new(Stamp::verified(i, 0), vec![7u8; 64]);
                            reg.max_register().write(v).await;
                        }
                        2 => {
                            black_box(reg.read().await);
                        }
                        _ => {
                            black_box(reg.write(vec![7u8; 64]).await);
                        }
                    }
                }
            });
            t.elapsed().as_nanos() as f64 / OPS as f64
        })
    };
    [timed(0), timed(1), timed(2), timed(3)]
}

/// `core.rtt_tracker_observe_ns` / `core.rtt_tracker_estimate_ns`.
pub fn rtt_tracker_ns() -> (f64, f64) {
    let tracker = RttTracker::new(4, &HedgeConfig::on());
    let observe = per_call(200_000, |i| {
        tracker.observe((i % 4) as usize, 2_000 + (i & 0x3FF));
    });
    let estimate = per_call(1_000_000, |i| {
        black_box(tracker.estimate((i % 4) as usize));
    });
    (observe, estimate)
}

/// `core.check_ops_per_s`: `KvHistory::check` over 1 000 keys with 100
/// operations each (four overlapping clients per key).
pub fn check_ops_per_s() -> f64 {
    let mut history = KvHistory::new();
    for key in 0..1_000u64 {
        history.set_initial(key, 0);
        for i in 0..100u64 {
            let (invoke, ret) = (i * 10, i * 10 + 35);
            let kind = if i % 4 == 0 {
                KvOpKind::Update(i + 1)
            } else {
                KvOpKind::Get(Some(i / 4 * 4 + 1))
            };
            history.push(key, invoke, ret, kind);
        }
    }
    let ops = history.len() as f64;
    median_of(|| {
        let t = Instant::now();
        history.check().expect("the synthetic history linearizes");
        ops / t.elapsed().as_secs_f64()
    })
}

/// `workload.zipfian_sample_ns`, `workload.next_op_ns`,
/// `workload.value_for_8KiB_ns`, `workload.scenario_op_ns`.
pub fn workload_ns() -> [f64; 4] {
    let zipf = Zipfian::ycsb(100_000);
    let ycsb = Workload::ycsb(WorkloadSpec::B, 100_000, 64);
    let big = Workload::ycsb(WorkloadSpec::A, 2_048, 8_192);
    let flash = ScenarioSpec::flash_crowd("micro", ScenarioMix::A, 1 << 18, 100_000);
    [
        per_call(500_000, |i| {
            black_box(zipf.sample(unit(i)));
        }),
        per_call(500_000, |i| {
            black_box(ycsb.next_op(i, unit(i)));
        }),
        per_call(50_000, |i| {
            black_box(big.value_for(i % 2_048, i));
        }),
        median_of(|| {
            let t = Instant::now();
            let n = black_box(flash.stream(42).count());
            t.elapsed().as_nanos() as f64 / n as f64
        }),
    ]
}

/// The four systems, in the order their metrics are declared: `swarm`,
/// `abd`, `fusee`, `raw`.
pub const PROTOCOLS: [Protocol; 4] = [
    Protocol::SafeGuess,
    Protocol::Abd,
    Protocol::Fusee,
    Protocol::Raw,
];

/// `kv.<protocol>.{get,update}_host_ns`: one client over 1 024 cached keys;
/// host ns per simulated operation.
pub fn kv_host_ns(protocol: Protocol) -> (f64, f64) {
    const KEYS: u64 = 1_024;
    const OPS: u64 = 5_000;
    let client = |sim: &Sim| -> Rc<StoreClient> {
        let cluster = StoreBuilder::new(protocol)
            .max_clients(1)
            .meta_bufs(1)
            .build_cluster(sim);
        cluster.load_keys(KEYS, |k| vec![k as u8; 64]);
        let client = cluster.client(0);
        let c = Rc::clone(&client);
        sim.block_on(async move {
            for key in 0..KEYS {
                c.get(key).await.expect("prewarm get");
            }
        });
        client
    };
    let get = median_of(|| {
        let sim = Sim::new(13);
        let c = client(&sim);
        let t = Instant::now();
        sim.block_on(async move {
            for i in 0..OPS {
                black_box(c.get(i % KEYS).await.expect("get"));
            }
        });
        t.elapsed().as_nanos() as f64 / OPS as f64
    });
    let update = median_of(|| {
        let sim = Sim::new(13);
        let c = client(&sim);
        let t = Instant::now();
        sim.block_on(async move {
            for i in 0..OPS {
                c.update(i % KEYS, vec![i as u8; 64]).await.expect("update");
            }
        });
        t.elapsed().as_nanos() as f64 / OPS as f64
    });
    (get, update)
}

/// Simulated get/update medians of `protocol` on the `ycsb_b_64` shape
/// (100 000 keys, 4 clients, YCSB B) at an eighth of its volume: medians
/// settle long before tails do.
pub fn ycsb_b_medians(protocol: Protocol, seed: u64) -> (u64, u64) {
    let sim = Sim::new(seed);
    let workload = Workload::ycsb(WorkloadSpec::B, 100_000, 64);
    let cluster = StoreBuilder::new(protocol)
        .max_clients(4)
        .meta_bufs(4)
        .cache(CacheCapacity::Unbounded)
        .build_cluster(&sim);
    cluster.load_keys(100_000, |k| workload.value_for(k, 0));
    let stats = run_workload(
        &sim,
        &cluster.clients(4),
        &workload,
        &RunConfig {
            warmup_ops: 10_000,
            measure_ops: 50_000,
            ..Default::default()
        },
    );
    (
        stats.lat(OpType::Get).median(),
        stats.lat(OpType::Update).median(),
    )
}

/// Fig. 5's medians in simulated ns, `(get, update)` per protocol.
pub fn paper_median_ns(protocol: Protocol) -> (f64, f64) {
    match protocol {
        Protocol::Raw => (1_900.0, 1_600.0),
        Protocol::SafeGuess => (2_400.0, 3_100.0),
        Protocol::Fusee => (2_900.0, 8_500.0),
        Protocol::Abd => (4_300.0, 4_900.0),
    }
}

/// `kv.scan_host_us` / `kv.scan_sim_us`: 50-item `ShardRouter::scan`s over
/// 4 shards and 2^18 keys; median host and simulated µs per scan.
pub fn scan_us(seed: u64) -> (f64, f64) {
    const KEYS: u64 = 1 << 18;
    const SCANS: u64 = 60;
    let sim = Sim::new(seed);
    let cluster = StoreBuilder::new(Protocol::SafeGuess)
        .shards(4)
        .max_clients(1)
        .meta_bufs(1)
        .build_sharded(&sim);
    cluster.load_keys(KEYS, |k| vec![k as u8; 64]);
    let router = cluster.router(0);
    let mut host = Vec::new();
    let mut simulated = Histogram::new();
    for i in 0..SCANS {
        let (r, s) = (Rc::clone(&router), sim.clone());
        let start = (unit(i) * (KEYS - 64) as f64) as u64;
        let t = Instant::now();
        let sim_ns = sim.block_on(async move {
            let t0 = s.now();
            let items = r.scan(start, 50).await.expect("scan");
            assert_eq!(items.len(), 50, "a 50-item scan inside the keyspace");
            s.now() - t0
        });
        host.push(t.elapsed().as_secs_f64() * 1e6);
        simulated.record(sim_ns);
    }
    (median(&host), simulated.median() as f64 / 1e3)
}

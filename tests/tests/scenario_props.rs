//! Property tests for the scenario engine: op-stream purity (the
//! determinism contract `bench_scenarios` reports rely on) and the
//! YCSB-E scan semantics (a scan is observationally equivalent to a
//! sequential per-key get sweep when nothing runs concurrently). The two
//! stream properties run on 64 seeded cases (`swarm_tests::for_each_case`).

use swarm_kv::{KvStore, Protocol, StoreBuilder};
use swarm_sim::{Sim, SimRng};
use swarm_tests::{coin, for_each_case};
use swarm_workload::{scenario_value, Phase, ScenarioMix, ScenarioOp, ScenarioSpec};

/// An arbitrary mix: either one of the six YCSB letters or a random
/// six-way percentage split (five sorted cuts of `[0, 100)` make six
/// buckets summing to exactly 100).
fn arbitrary_mix(rng: &SimRng) -> ScenarioMix {
    if coin(rng) {
        return ScenarioMix::ycsb_all()[rng.rand_range(0, 6) as usize].1;
    }
    let mut cuts = [0u64; 5].map(|_| rng.rand_range(0, 100));
    cuts.sort_unstable();
    ScenarioMix {
        get_pct: cuts[0],
        update_pct: cuts[1] - cuts[0],
        insert_pct: cuts[2] - cuts[1],
        delete_pct: cuts[3] - cuts[2],
        scan_pct: cuts[4] - cuts[3],
        rmw_pct: 100 - cuts[4],
    }
}

/// An arbitrary scenario: 1–3 phases of arbitrary mix, skew and rotation
/// over 2–511 keys.
fn arbitrary_spec(rng: &SimRng) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("prop", rng.rand_range(2, 512))
        .scan_max_len(rng.rand_range(1, 32) as usize);
    for _ in 0..rng.rand_range(1, 4) {
        spec = spec.phase(
            Phase::new(rng.rand_range(1, 120) as usize, arbitrary_mix(rng))
                .theta(rng.rand_range(0, 99) as f64 / 100.0)
                .rotate(rng.rand_range(0, 1024)),
        );
    }
    spec
}

/// Stream purity: `(seed, spec)` regenerates the byte-identical op
/// vector, the lazy stream agrees with the materialized one, and every
/// emitted op respects the spec's bounds (keys inside the keyspace, scan
/// limits within `scan_max_len`).
#[test]
fn scenario_streams_are_pure_and_in_bounds() {
    for_each_case(0x5CE0, |rng| {
        let (spec, seed) = (arbitrary_spec(rng), rng.rand_u64());
        let ops = spec.ops(seed);
        assert_eq!(ops, spec.ops(seed), "regeneration must be bit-identical");
        let lazy: Vec<_> = spec.stream(seed).collect();
        assert_eq!(ops, lazy, "lazy stream must equal the materialized vector");
        assert_eq!(ops.len(), spec.total_ops());

        for op in &ops {
            assert!(op.key() < spec.n_keys, "key escapes the keyspace");
            if let ScenarioOp::Scan { limit, .. } = *op {
                assert!(limit >= 1 && limit <= spec.scan_max_len)
            }
        }
        // A different seed must actually perturb a non-trivial stream.
        if ops.len() >= 16 {
            assert_ne!(ops, spec.ops(seed.wrapping_add(1)));
        }
    });
}

/// Write versions are unique across the whole stream (they are the
/// stream index), so every write tag `key * GOLDEN + version` is
/// distinguishable to the linearizability checker.
#[test]
fn scenario_write_versions_never_repeat() {
    for_each_case(0x5CE1, |rng| {
        let (spec, seed) = (arbitrary_spec(rng), rng.rand_u64());
        let mut seen = std::collections::HashSet::new();
        for op in spec.ops(seed) {
            let v = match op {
                ScenarioOp::Update { version, .. }
                | ScenarioOp::Insert { version, .. }
                | ScenarioOp::Rmw { version, .. } => version,
                _ => continue,
            };
            assert!(seen.insert(v), "a write version repeated");
        }
    });
}

const KEYS: u64 = 24;

/// The equivalence oracle: every `(start, limit)` probe's scan must return
/// exactly what a sequential per-key get sweep over the same ordered range
/// observes — same keys, same order, same bytes.
async fn assert_scan_matches_gets<S: KvStore>(store: &S, label: &str) {
    for start in [0u64, 1, 7, KEYS - 3, KEYS + 5] {
        for limit in [1usize, 4, 16] {
            let scanned = store
                .scan(start, limit)
                .await
                .unwrap_or_else(|e| panic!("{label}: scan({start}, {limit}) failed: {e:?}"));
            let mut expect = Vec::new();
            for k in start..KEYS {
                if expect.len() == limit {
                    break;
                }
                let v = store
                    .get(k)
                    .await
                    .expect("fault-free get")
                    .unwrap_or_else(|| panic!("{label}: key {k} must be present"));
                expect.push((k, v));
            }
            assert_eq!(
                scanned, expect,
                "{label}: scan({start}, {limit}) diverged from the get sweep"
            );
        }
    }
}

/// YCSB-E semantics on all four protocols, unsharded and through the
/// 4-shard router (whose scans fan out to every shard and reassemble in
/// key order).
#[test]
fn scan_equals_sequential_get_sweep_on_all_protocols() {
    for proto in Protocol::all() {
        for shards in [1usize, 4] {
            let sim = Sim::new(0x5CA0 + shards as u64);
            let builder = StoreBuilder::new(proto).value_size(64).max_clients(2);
            let label = format!("{} / {shards} shard(s)", proto.name());
            if shards == 1 {
                let cluster = builder.build_cluster(&sim);
                cluster.load_keys(KEYS, |k| scenario_value(k, 0, 64));
                let client = cluster.client(0);
                sim.block_on(async move { assert_scan_matches_gets(&*client, &label).await });
            } else {
                let cluster = builder.shards(shards).build_sharded(&sim);
                cluster.load_keys(KEYS, |k| scenario_value(k, 0, 64));
                let router = cluster.router(0);
                sim.block_on(async move { assert_scan_matches_gets(&*router, &label).await });
            }
        }
    }
}

/// The scan view tracks mutations: inserted keys appear (including past
/// the preloaded range), deleted keys vanish, updated bytes are the fresh
/// ones — on the tombstone-backed protocols, where deletes are coherent.
#[test]
fn scan_view_tracks_mutations() {
    for proto in [Protocol::SafeGuess, Protocol::Abd] {
        let sim = Sim::new(0x5CA7);
        let cluster = StoreBuilder::new(proto)
            .value_size(64)
            .max_clients(2)
            .build_cluster(&sim);
        cluster.load_keys(4, |k| scenario_value(k, 0, 64));
        let client = cluster.client(0);
        let name = proto.name();
        sim.block_on(async move {
            client.delete(1).await.expect("delete");
            client
                .update(2, scenario_value(2, 100, 64))
                .await
                .expect("update");
            client
                .insert(9, scenario_value(9, 101, 64))
                .await
                .expect("insert");
            let items = client.scan(0, 16).await.expect("scan");
            let keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
            assert_eq!(keys, vec![0, 2, 3, 9], "{name}: scan view after mutations");
            assert_eq!(
                *items[1].1,
                scenario_value(2, 100, 64),
                "{name}: fresh bytes"
            );
        });
    }
}

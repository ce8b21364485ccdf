//! Table 2 on every seed: SWARM-KV gets take one roundtrip at P99 (§7.1,
//! Table 2), whatever seed the simulation runs.
//!
//! Each cell is `table2`'s own SWARM-KV run — 10 000 keys, 60 k warm-up and
//! 60 k measured YCSB B ops, every key prewarmed, roundtrips recorded —
//! through `swarm_bench::run_system`. The claim rests on In-n-Out keeping the
//! in-place copy at replica 0 and the optimistic majority contacting it. A
//! node that stayed suspected after one jitter-tail reply was contacted last
//! for the rest of the run, so every get whose replica 0 sat on it chased the
//! out-of-place slot in a second roundtrip: seeds 431, 435 and 436 took two
//! at P99. `cargo test` runs those three; a widened sweep
//! (`SWARM_CHAOS_SEEDS`, ci.sh's `chaos-release` stage) runs all twenty of
//! 420–439.

use swarm_bench::{run_system, sweep, ExpParams, Protocol};
use swarm_tests::seeds;
use swarm_workload::{OpType, WorkloadSpec};

/// The seeds the defect was measured on.
const FIRST_SEED: u64 = 420;
const ALL_SEEDS: u64 = 20;
/// The ones among them whose get P99 was two roundtrips.
const ONCE_TWO: [u64; 3] = [431, 435, 436];

/// `(get P99, update P99)` roundtrips of `table2`'s SWARM-KV run at `seed`.
fn swarm_kv_p99_roundtrips(seed: u64) -> (u64, u64) {
    let p = ExpParams {
        seed,
        n_keys: 10_000,
        warmup_ops: 60_000,
        measure_ops: 60_000,
        ..Default::default()
    };
    let (stats, _, _) = run_system(seed, Protocol::SafeGuess, &p, WorkloadSpec::B, |rc| {
        rc.record_rtts = true;
        rc.prewarm_keys = Some(p.n_keys);
    });
    (
        stats.rtt_percentile(OpType::Get, 99.0),
        stats.rtt_percentile(OpType::Update, 99.0),
    )
}

#[test]
fn swarm_kv_get_p99_is_one_roundtrip_on_every_seed() {
    let widened = seeds(FIRST_SEED, 1, ONCE_TWO.len() as u64).len() as u64;
    let cells: Vec<u64> = if widened > ONCE_TWO.len() as u64 {
        (FIRST_SEED..FIRST_SEED + widened.min(ALL_SEEDS)).collect()
    } else {
        ONCE_TWO.to_vec()
    };
    let p99s = sweep(&cells, |&seed| swarm_kv_p99_roundtrips(seed));
    let off: Vec<_> = cells
        .iter()
        .zip(p99s)
        .filter(|(_, p99)| *p99 != (1, 1))
        .collect();
    assert!(
        off.is_empty(),
        "(seed, (get P99, update P99)) roundtrips other than Table 2's 1/1: {off:?}"
    );
}

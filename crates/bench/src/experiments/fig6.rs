//! Figure 6: the Figure 5 experiment with 1 M keys and 5 MiB per-client
//! location caches (approximated LFU), excluding RAW. Cache entries are
//! 24 B for DM-ABD/FUSEE but 32 B for SWARM-KV (they also carry In-n-Out's
//! metadata word), so SWARM-KV caches ~25% fewer keys (§7.1).

use crate::{env_scaled_keys, report_cdfs, run_system, ExpParams, Protocol};
use swarm_workload::WorkloadSpec;

const CACHE_BYTES: usize = 5 * 1024 * 1024;
/// The paper's keyspace, which the 5 MiB caches are sized against.
const PAPER_KEYS: usize = 1_000_000;

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let base = ExpParams {
        n_keys: if quick { 200_000 } else { 1_000_000 },
        warmup_ops: if quick { 400_000 } else { 8_000_000 },
        measure_ops: if quick { 200_000 } else { 1_000_000 },
        ..Default::default()
    };
    // The keys the run loads (fewer under `SWARM_BENCH_OPS_SCALE`).
    let keys = env_scaled_keys(base.n_keys);
    println!("Figure 6: latency CDFs with {keys} keys and 5 MiB caches (quick={quick})");
    for sys in [Protocol::SafeGuess, Protocol::Abd, Protocol::Fusee] {
        let entry_bytes = if sys == Protocol::SafeGuess { 32 } else { 24 };
        // Scale the cache with the loaded keyspace so it covers the share
        // of keys it covers in the paper's 1M-key configuration.
        let entries = CACHE_BYTES / entry_bytes * keys as usize / PAPER_KEYS;
        let p = ExpParams {
            cache_entries: Some(entries),
            ..base.clone()
        };
        let (stats, _, bed) = run_system(p.seed, sys, &p, WorkloadSpec::B, |_| {});
        let coverage = entries as f64 / keys as f64 * 100.0;
        let (h, m): (u64, u64) = bed
            .clients
            .iter()
            .map(|c| c.cache_stats())
            .fold((0, 0), |(a, b), (h, m)| (a + h, b + m));
        let miss = m as f64 / (h + m).max(1) as f64 * 100.0;
        println!(
            "{} (cache {} entries = {:.1}% of keys, miss rate {:.1}%):",
            sys.name(),
            entries,
            coverage,
            miss
        );
        report_cdfs("fig6", sys.name(), &stats);
    }
    println!("\npaper: bimodal CDFs; DM-ABD/FUSEE miss 42.5%, SWARM-KV 45.6%;");
    println!("       SWARM-KV average latency remains best for both op types");
}

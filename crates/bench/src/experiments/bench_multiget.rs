//! Batch-size vs latency for the pipelined `KvStoreExt` multi-ops: a
//! `multi_get` of N independent cached keys overlaps all N quorum reads, so
//! the batch costs about one roundtrip of latency — not N — until
//! work-request submission saturates the client CPU (§7.2's wall).
//!
//! Prints, per system and batch size, the median latency of the whole batch
//! and the per-element amortized latency, against a sequential-get baseline.

use std::rc::Rc;

use crate::{build, env_scaled_keys, write_csv, ExpParams, Protocol};
use swarm_kv::{KvStore, KvStoreExt};
use swarm_sim::Sim;

const BATCHES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Runs the experiment: quick volume by default, the paper's when `!quick`.
pub fn run(quick: bool) {
    let p = ExpParams {
        n_keys: 4_096,
        warmup_ops: 0,
        measure_ops: 0,
        ..Default::default()
    };
    let trials: usize = {
        let base = if quick { 400 } else { 4_000 };
        match crate::ops_scale() {
            Some(scale) => ((base as f64 * scale) as usize).max(20),
            None => base,
        }
    };

    println!("multi_get batch-size sweep: {trials} trials per point, cached keys");
    println!(
        "{:<10} {:>6} {:>14} {:>14} {:>12}",
        "system", "batch", "batch_med_us", "per_key_us", "vs_seq"
    );
    for sys in [Protocol::SafeGuess, Protocol::Abd, Protocol::Fusee] {
        let sim = Sim::new(p.seed);
        let bed = build(&sim, sys, &p);
        let client = Rc::clone(&bed.clients[0]);
        let n_keys = env_scaled_keys(p.n_keys);
        let s = sim.clone();
        let mut rows = Vec::new();
        let sys_name = sys.name();
        sim.block_on(async move {
            // Warm every location into the client cache.
            for k in 0..n_keys {
                let _ = client.get(k).await;
            }
            // One-at-a-time baseline: median single-get latency.
            let mut seq = Vec::with_capacity(trials);
            for t in 0..trials as u64 {
                let t0 = s.now();
                client.get(t % n_keys).await.unwrap();
                seq.push(s.now() - t0);
            }
            seq.sort_unstable();
            let seq_med = seq[seq.len() / 2];

            for batch in BATCHES {
                let mut lats = Vec::with_capacity(trials);
                let mut next = 0u64;
                for _ in 0..trials {
                    // Distinct, rotating keys: independent quorum reads.
                    let keys: Vec<u64> = (0..batch as u64)
                        .map(|i| (next + i * 37) % n_keys)
                        .collect();
                    next = (next + 1) % n_keys;
                    let t0 = s.now();
                    let got = client.multi_get(&keys).await;
                    lats.push(s.now() - t0);
                    assert!(got.iter().all(|r| matches!(r, Ok(Some(_)))));
                }
                lats.sort_unstable();
                let med = lats[lats.len() / 2];
                let per_key = med as f64 / batch as f64;
                let vs_seq = seq_med as f64 / per_key;
                println!(
                    "{:<10} {:>6} {:>14.2} {:>14.2} {:>11.1}x",
                    sys_name,
                    batch,
                    med as f64 / 1e3,
                    per_key / 1e3,
                    vs_seq,
                );
                rows.push(format!(
                    "{batch},{:.3},{:.3},{:.2}",
                    med as f64 / 1e3,
                    per_key / 1e3,
                    vs_seq
                ));
            }
            write_csv(
                "bench_multiget",
                sys_name,
                "batch,batch_median_us,per_key_us,speedup_vs_sequential",
                &rows,
            );
        });
    }

    println!("\nexpectation: per-key amortized latency falls toward the submission");
    println!("cost as the batch grows");
}

//! Sweep driver for independent simulation cells.
//!
//! Every long experiment is a sweep over independent `(seed, config)` cells:
//! each cell builds its own single-threaded, seeded [`swarm_sim::Sim`] and is
//! bit-for-bit deterministic in isolation. That makes the sweep embarrassingly
//! parallel: cells run on OS threads through [`sweep_on`] (the workspace's
//! one work-stealing loop) and results are merged in *cell order* — so the
//! output of a parallel sweep is byte-identical to the sequential one,
//! whatever the thread count or scheduling.
//!
//! Thread count comes from `SWARM_BENCH_THREADS` (default: all cores), the
//! harness's one thread budget. The cell closure must return only `Send`
//! data (row strings, summary numbers); the `Sim` and everything built on it
//! stay confined to the worker thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The sweep thread count: `SWARM_BENCH_THREADS` if set (a positive
/// integer), otherwise the number of available cores. An unparsable value
/// is ignored with a one-time warning (the shared [`crate::env_knob`]
/// convention, same as `SWARM_BENCH_OPS_SCALE` and `SWARM_CHAOS_SEEDS`).
pub fn sweep_threads() -> usize {
    crate::env_knob("SWARM_BENCH_THREADS", "a positive integer like 8", |n| {
        *n >= 1
    })
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `run` over every cell on up to [`sweep_threads`] worker threads and
/// returns the results in cell order.
pub fn sweep<T, R, F>(cells: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    sweep_on(sweep_threads(), cells, run)
}

/// [`sweep`] with an explicit thread count (testable without the
/// environment). Workers claim the next unstarted cell from a shared
/// counter, so long and short cells balance automatically; `threads <= 1`
/// runs strictly sequentially on the calling thread. Either way results
/// come back in cell order.
pub fn sweep_on<T, R, F>(threads: usize, cells: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(cells.len());
    if threads <= 1 {
        return cells.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let out = run(cell);
                *slots[i].lock().expect("sweep slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("sweep slot poisoned")
                .expect("every claimed cell stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<u64> = (0..37).collect();
        let out = sweep_on(4, &cells, |&c| c * 10);
        assert_eq!(out, cells.iter().map(|c| c * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential_for_simulation_cells() {
        // Each cell runs its own seeded Sim; the parallel sweep must produce
        // exactly the sequential outputs, cell for cell.
        let cells: Vec<u64> = (0..12).collect();
        let run = |&seed: &u64| {
            let sim = swarm_sim::Sim::new(seed);
            let s = sim.clone();
            let end = sim.block_on(async move {
                for _ in 0..50 {
                    let d = s.rng().rand_range(1, 1_000);
                    s.sleep_ns(d).await;
                }
                s.now()
            });
            (seed, end, sim.counters().events_scheduled)
        };
        let sequential = sweep_on(1, &cells, run);
        let parallel = sweep_on(4, &cells, run);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn zero_and_one_thread_degenerate_to_sequential() {
        let cells = vec![1u32, 2, 3];
        assert_eq!(sweep_on(0, &cells, |&c| c), vec![1, 2, 3]);
        assert_eq!(sweep_on(1, &cells, |&c| c), vec![1, 2, 3]);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let cells: Vec<u8> = Vec::new();
        let out: Vec<u8> = sweep_on(8, &cells, |&c| c);
        assert!(out.is_empty());
    }
}

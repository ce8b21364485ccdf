//! The host memory of SWARM-KV's location records: what one loaded key (its
//! index record) and one cached key handle (§5.2's location record) cost in
//! live heap bytes and allocations, at 3 replicas, 4 clients and 64 B
//! values. This is the `kv` layer's memory line:
//!
//! ```sh
//! cargo test -p swarm-kv --test footprint -- --nocapture
//! ```
//!
//! It is its own test binary with a counting global allocator, so the
//! counts see only the one test below. Node memory segments are simulated
//! disaggregated memory (what Table 3 counts, `swarm_fabric::NodeMemory`),
//! not host records, so blocks of a segment's size are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use swarm_kv::{KvStore, Protocol, StoreBuilder};
use swarm_sim::Sim;

/// Size of one node memory segment: blocks this large are not counted.
const SEGMENT: usize = swarm_fabric::NodeMemory::SEGMENT_BYTES as usize;

static BYTES: AtomicIsize = AtomicIsize::new(0);
static BLOCKS: AtomicIsize = AtomicIsize::new(0);

/// Counts live heap bytes and blocks, node memory segments excepted.
struct Counting;

/// Counts a block of `size` bytes in (`sign` 1) or out (`sign` -1).
fn note(size: usize, sign: isize) {
    if size < SEGMENT {
        BYTES.fetch_add(sign * size as isize, Relaxed);
        BLOCKS.fetch_add(sign, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the caller's, and only adds bookkeeping that never touches the
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size(), 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size(), 1);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, which is `System`, with
        // `layout` (the caller's contract).
        unsafe { System.dealloc(p, layout) };
        note(layout.size(), -1);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` is valid for `layout`'s
        // alignment (the caller's contract).
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            note(layout.size(), -1);
            note(new_size, 1);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(live bytes, live blocks)` now.
fn live() -> (isize, isize) {
    (BYTES.load(Relaxed), BLOCKS.load(Relaxed))
}

#[test]
fn loaded_keys_and_cached_handles_stay_near_the_papers_record() {
    const KEYS: u64 = 4_096;
    let sim = Sim::new(1);
    let store = StoreBuilder::new(Protocol::SafeGuess)
        .replicas(3)
        .max_clients(4)
        .value_size(64)
        .build_cluster(&sim);
    let client = store.client(0);
    let get_all = |pass: u64| {
        let c = Rc::clone(&client);
        sim.block_on(async move {
            for key in 0..KEYS {
                let got = c.get(key).await.expect("get").expect("loaded");
                assert_eq!(*got, vec![key as u8; 64], "pass {pass}");
            }
        });
        // Background write-backs and verified upgrades finish too.
        sim.run();
    };

    let empty = live();
    store.load_keys(KEYS, |k| vec![k as u8; 64]);
    let loaded = live();
    get_all(0);
    let cached = live();
    get_all(1);
    let again = live();

    let per_key = (loaded.0 - empty.0) as f64 / KEYS as f64;
    let per_handle = (cached.0 - loaded.0) as f64 / KEYS as f64;
    let blocks_per_handle = (cached.1 - loaded.1) as f64 / KEYS as f64;
    println!("per loaded key:     {per_key:.1} B");
    println!("per cached handle:  {per_handle:.1} B in {blocks_per_handle:.2} allocations");
    println!("cache-hit pass:     {} B grown", again.0 - cached.0);
    assert!(per_key <= 200.0, "{per_key:.1} B per loaded key");
    assert!(per_handle <= 320.0, "{per_handle:.1} B per cached handle");
    assert!(
        blocks_per_handle <= 4.0,
        "{blocks_per_handle:.2} allocations per cached handle"
    );
    assert_eq!(again.0, cached.0, "a pass of cache hits grew the heap");
}

//! The host memory of SWARM-KV's location records and value images: what
//! one loaded key (its index record) and one cached key handle (§5.2's
//! location record) cost in live heap bytes and allocations, at 3 replicas,
//! 4 clients and 64 B values; and at 8 KiB values, how many copies of a
//! value the host holds and makes. This is the `kv` layer's memory line:
//!
//! ```sh
//! cargo test -p swarm-kv --test footprint -- --nocapture
//! ```
//!
//! It is its own test binary with a counting global allocator that counts
//! only on the thread of a test, and its tests take turns, so the counts see
//! only the test that reads them. Node memory
//! segments are simulated disaggregated memory (what Table 3 counts,
//! `swarm_fabric::NodeMemory`), not host records, so blocks of a segment's
//! size are not counted. Bytes a memory node holds by reference (an 8 KiB
//! value's images, `NodeMemory`'s *Shared runs*) are host blocks and are.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

use swarm_kv::{KvStore, Protocol, StoreBuilder};
use swarm_sim::Sim;

/// Size of one node memory segment: blocks this large are not counted.
const SEGMENT: usize = swarm_fabric::NodeMemory::SEGMENT_BYTES as usize;

/// The smallest block counted as an 8 KiB-class block: a value's image.
const IMAGE: usize = 8_192;

static BYTES: AtomicIsize = AtomicIsize::new(0);
static BLOCKS: AtomicIsize = AtomicIsize::new(0);
/// 8 KiB-class blocks live, and allocated ever.
static IMAGES: AtomicIsize = AtomicIsize::new(0);
static IMAGES_MADE: AtomicIsize = AtomicIsize::new(0);

/// Held by each test: the counters are global.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread's blocks are counted: a test's are, the
    /// harness's (other tests' threads starting, output) are not.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// A test's turn: its thread is counted from when it takes the turn until
/// the turn ends, before the next test can take one.
struct Turn {
    _one_at_a_time: MutexGuard<'static, ()>,
}

impl Drop for Turn {
    fn drop(&mut self) {
        COUNTED.with(|c| c.set(false));
    }
}

fn take_turn() -> Turn {
    let turn = Turn {
        _one_at_a_time: ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner()),
    };
    COUNTED.with(|c| c.set(true));
    turn
}

/// Counts live heap bytes and blocks, node memory segments excepted.
struct Counting;

/// Counts a block of `size` bytes in (`sign` 1) or out (`sign` -1).
fn note(size: usize, sign: isize) {
    if size < SEGMENT && COUNTED.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(sign * size as isize, Relaxed);
        BLOCKS.fetch_add(sign, Relaxed);
        if size >= IMAGE {
            IMAGES.fetch_add(sign, Relaxed);
            IMAGES_MADE.fetch_add(sign.max(0), Relaxed);
        }
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

/// `(live, ever allocated)` 8 KiB-class blocks now.
fn images() -> (isize, isize) {
    (IMAGES.load(Relaxed), IMAGES_MADE.load(Relaxed))
}

#[test]
fn loaded_keys_and_cached_handles_stay_near_the_papers_record() {
    let _turn = take_turn();
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
    assert!(per_handle <= 280.0, "{per_handle:.1} B per cached handle");
    assert!(
        blocks_per_handle <= 4.0,
        "{blocks_per_handle:.2} allocations per cached handle"
    );
    assert_eq!(again.0, cached.0, "a pass of cache hits grew the heap");
}

/// One 8 KiB key, 3 replicas, 4 clients. A SafeGuess update is a stamp read
/// (a majority whose reply at replica 0 carries the in-place value), the
/// guessed write and its `VERIFIED` upgrade (Algorithm 2), each at every
/// replica, and the in-place copy at replica 0 (§6). Memory nodes hold the
/// bytes of every write of more than one chunk by reference, and replicas
/// whose metadata words agree get one image, so the host holds one copy
/// per distinct image and makes one per logical write.
#[test]
fn an_8k_value_is_held_once_per_image() {
    let _turn = take_turn();
    const VALUE: usize = 8_192;
    let sim = Sim::new(2);
    let store = StoreBuilder::new(Protocol::SafeGuess)
        .replicas(3)
        .max_clients(4)
        .value_size(VALUE)
        .build_cluster(&sim);
    let clients: Vec<_> = (0..4).map(|c| store.client(c)).collect();
    let update = |c: usize, fill: u8| {
        let (client, value) = (Rc::clone(&clients[c]), vec![fill; VALUE]);
        let made = images().1;
        sim.block_on(async move { client.update(0, value).await.expect("update") });
        // The VERIFIED upgrade and the in-place copy run in the background.
        sim.run();
        images().1 - made
    };

    const KEYS: u64 = 4;
    let empty = images().0;
    store.load_keys(KEYS, |k| vec![k as u8; VALUE]);
    let loaded = (images().0 - empty) as f64 / KEYS as f64;
    let made = update(0, 1);
    let live = |round: u8| {
        for c in 0..4 {
            update(c, round * 4 + c as u8);
        }
        images().0 - empty - KEYS as isize
    };
    let rounds = [live(1), live(2), live(3)];
    println!("8 KiB images per loaded key:   {loaded:.2}");
    println!("8 KiB blocks made by an update: {made}");
    println!("8 KiB blocks live for key 0 after 1, 2, 3 updates per writer: {rounds:?}");
    assert_eq!(
        loaded, 1.0,
        "one image behind every replica's slot and the in-place copy"
    );
    assert!(
        made <= 4,
        "{made} blocks: more than the stamp read's reply, one image per logical write and the in-place copy"
    );
    assert_eq!(
        (rounds[1], rounds[2]),
        (rounds[0], rounds[0]),
        "overwriting its ring slots did not return a writer's old images"
    );
}

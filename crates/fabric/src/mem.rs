//! Raw node memory: a flat byte space with a bump allocator.
//!
//! `NodeMemory` provides the byte-level primitives (copy ranges, 8 B atomic
//! CAS), the allocation accounting behind the paper's memory-consumption
//! numbers (Table 3), and the one piece of the fabric's timing that lives
//! with the bytes: how a chunked write lands.
//!
//! # Chunked writes: tick, then settle
//!
//! A write larger than one chunk does not land at once. Chunk 0 is copied
//! when the write starts; chunk `k` lands `k` chunk times later; the write
//! completes one chunk time after its last chunk. A read in between sees
//! the torn prefix — the property In-n-Out's hash validation exists for.
//!
//! [`NodeMemory::write_chunked`] copies chunk 0, parks the rest of the
//! (shared, never copied) payload in an in-flight list and returns a
//! [`Ticker`] that ticks once per chunk time. The ticker's task is woken
//! only by the last tick; every earlier tick just appends the write's tag
//! to this node's [`TickLog`]. *Settling* replays that log: one chunk of
//! the tagged write per entry, in log order. The invariants:
//!
//! * **Every access settles first.** `read`, `write`, `read_u64`,
//!   `cas_u64` (and `write_chunked` itself) replay the log before touching
//!   bytes, so an access observes exactly the chunks whose ticks fired
//!   before it — the bytes a copy at every tick would have left.
//! * **Log order is the copy order.** Overlapping in-flight writes
//!   interleave chunk by chunk in the order their ticks fired, ties at one
//!   instant included (the log is appended to by the executor as each tick
//!   fires).
//! * **A write that ended has landed.** The writer calls
//!   [`NodeMemory::settle`] when its ticker resolves; all its ticks are in
//!   the log by then, so its entry leaves the in-flight list and its
//!   payload is released. Nothing else — a crash of the node included —
//!   stops a started write from landing in full.
//! * **One-chunk writes cost nothing extra.** They are copied whole at the
//!   start, never enter the list and never log; the price on every access
//!   is one empty-log check.
//!
//! # Backing store
//!
//! A memory node is allocated ahead of what a run writes. In-n-Out draws a
//! writer's ring of out-of-place slots whole on that writer's first write of
//! a register (`swarm_core::InnOutLayout`) and fills it a slot per write, so
//! a ring written once — a reader's write-back, say — is mostly reserve: at
//! 8 KiB values, a slot of pages touched and the rest of the ring not. The
//! store therefore costs what is *touched*, not what is allocated. Addresses
//! are a flat space cut into fixed-size segments; a segment is obtained
//! zeroed from the allocator when the bump pointer first reaches it and is
//! never moved, copied or regrown afterwards. The invariants:
//!
//! * **Nothing here zero-fills.** A segment arrives zeroed (`alloc_zeroed`)
//!   and `alloc` only moves the bump pointer, so a page of the host becomes
//!   resident when a simulated access first touches it and not before.
//! * **Growth never moves bytes.** A new segment is appended to the table;
//!   the existing ones stay where they are, so growing costs neither a copy
//!   nor a re-mapping of what exists.
//! * **The address space is unchanged.** Addresses, alignment,
//!   `allocated_bytes()`, zero-initialised reads and the out-of-bounds checks
//!   (against the bump pointer, not the mapped segments) are those of one
//!   flat vector. An access is cut at segment boundaries by one helper
//!   (`spans`); an allocation larger than a segment simply covers several.
//!   An 8 B word is 8-aligned and so never straddles: `read_u64` is a shift,
//!   a mask and a load.
//!
//! **Why 64 MiB.** Laziness is real only if a zeroed segment is a fresh
//! anonymous mapping: below its mmap threshold glibc serves `calloc` from the
//! heap with a `memset`, and that threshold is dynamic — it climbs to the
//! size of the largest mapped block freed so far, up to 32 MiB on 64-bit. A
//! segment above that ceiling is mapped on its own whenever the heap has to
//! grow for it, for the whole life of the process. The price of a large
//! segment is address space only: a node that allocates a single byte
//! reserves 64 MiB of it and touches one page, and dropping an untouched
//! segment is one `munmap`.
//!
//! What the size cannot buy: glibc looks in its free lists first, so a
//! process that has just freed 64 MiB of *contiguous small objects* (the
//! index and key records of a 2^18-key store, say) serves the next segment
//! from that chunk and clears it with a `memset`. That is the old cost for
//! that one segment and no new resident page — the chunk was resident
//! already — so it can slow a set-up, never grow the footprint. (An
//! allocator that never hands out fresh mappings would make every segment
//! cost that `memset`; the bytes are the same.)

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use swarm_sim::{Nanos, Sim, TickLog, Ticker};

/// log2 of the segment size (module docs, *Backing store*). Unit tests of
/// this crate run on 64 B segments so that every boundary case is hit often.
const SEG_SHIFT: u32 = if cfg!(test) { 6 } else { 26 };
const SEG_BYTES: usize = 1 << SEG_SHIFT;

/// The segment holding address `addr` and the offset in it.
fn locate(addr: u64) -> (usize, usize) {
    let at = addr as usize;
    (at >> SEG_SHIFT, at & (SEG_BYTES - 1))
}

/// Cuts the access `[addr, addr + len)` at segment boundaries: calls
/// `piece(segment, offset in it, range of the access)` once per piece, in
/// address order.
fn spans(addr: u64, len: usize, mut piece: impl FnMut(usize, usize, Range<usize>)) {
    let mut done = 0;
    while done < len {
        let (seg, off) = locate(addr + done as u64);
        let n = (SEG_BYTES - off).min(len - done);
        piece(seg, off, done..done + n);
        done += n;
    }
}

/// Copies `data` into the store at `addr` (bounds are the caller's to check).
fn copy_in(segs: &mut [Box<[u8]>], addr: u64, data: &[u8]) {
    spans(addr, data.len(), |seg, off, piece| {
        segs[seg][off..off + piece.len()].copy_from_slice(&data[piece]);
    });
}

/// A chunked write whose later chunks have not been copied yet.
#[derive(Debug)]
struct InFlight {
    tag: u32,
    addr: u64,
    data: Rc<Vec<u8>>,
    chunk: usize,
    /// Bytes of `data` copied so far.
    done: usize,
}

/// Byte-addressable memory of one simulated node.
#[derive(Default)]
pub struct NodeMemory {
    /// Segment `i` backs addresses `[i << SEG_SHIFT, (i + 1) << SEG_SHIFT)`;
    /// the table has just enough segments to cover `[0, next)`.
    segs: RefCell<Vec<Box<[u8]>>>,
    next: Cell<u64>,
    inflight: RefCell<Vec<InFlight>>,
    ticks: Rc<TickLog>,
    next_tag: Cell<u32>,
}

/// A summary: the store itself can be hundreds of MiB.
impl fmt::Debug for NodeMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeMemory")
            .field("allocated_bytes", &self.next.get())
            .field("segments_mapped", &self.segs.borrow().len())
            .field("writes_in_flight", &self.inflight.borrow().len())
            .finish()
    }
}

impl NodeMemory {
    /// Size in bytes of one segment of the backing store: an access that
    /// crosses a multiple of it is served in two pieces (module docs).
    pub const SEGMENT_BYTES: u64 = SEG_BYTES as u64;

    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `len` bytes with the given power-of-two alignment and
    /// returns the base address. Memory is zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&self, len: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next.get() + align - 1) & !(align - 1);
        let next = base + len;
        self.next.set(next);
        let mut segs = self.segs.borrow_mut();
        while (segs.len() as u64) << SEG_SHIFT < next {
            segs.push(vec![0u8; SEG_BYTES].into_boxed_slice());
        }
        base
    }

    /// Total bytes allocated so far (disaggregated-memory consumption).
    pub fn allocated_bytes(&self) -> u64 {
        self.next.get()
    }

    /// True if `[addr, addr + len)` lies below the bump pointer.
    fn in_bounds(&self, addr: u64, len: usize) -> bool {
        addr.checked_add(len as u64)
            .is_some_and(|end| end <= self.next.get())
    }

    /// Copies the chunks whose ticks have fired (module docs).
    pub fn settle(&self) {
        if self.ticks.is_empty() {
            return;
        }
        let mut segs = self.segs.borrow_mut();
        let mut inflight = self.inflight.borrow_mut();
        self.ticks.drain(|tag| {
            let i = inflight
                .iter()
                .position(|w| w.tag == tag)
                .expect("a tick belongs to a write in flight");
            let w = &mut inflight[i];
            let end = (w.done + w.chunk).min(w.data.len());
            copy_in(&mut segs, w.addr + w.done as u64, &w.data[w.done..end]);
            w.done = end;
            if end == w.data.len() {
                inflight.remove(i);
            }
        });
    }

    /// Starts writing `data` at `addr` in chunks of `chunk` bytes, one per
    /// `chunk_ns`: the first chunk lands now, and the returned ticker
    /// resolves one `chunk_ns` after the last. Call [`NodeMemory::settle`]
    /// once it has (module docs).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access (always an allocator-client bug).
    pub fn write_chunked(
        &self,
        sim: &Sim,
        addr: u64,
        data: &Rc<Vec<u8>>,
        chunk: usize,
        chunk_ns: Nanos,
    ) -> Ticker {
        let first = chunk.min(data.len());
        self.write(addr, &data[..first]);
        let chunks = u32::try_from(data.len().div_ceil(chunk)).expect("write of 2^32 chunks");
        let tag = self.next_tag.get();
        if chunks > 1 {
            assert!(
                self.in_bounds(addr, data.len()),
                "write out of bounds: {addr}+{}",
                data.len()
            );
            self.next_tag.set(tag.wrapping_add(1));
            self.inflight.borrow_mut().push(InFlight {
                tag,
                addr,
                data: Rc::clone(data),
                chunk,
                done: first,
            });
        }
        sim.ticker(chunk_ns, chunks, &self.ticks, tag)
    }

    /// Copies `data` into memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access (always an allocator-client bug).
    pub fn write(&self, addr: u64, data: &[u8]) {
        self.settle();
        assert!(
            self.in_bounds(addr, data.len()),
            "write out of bounds: {addr}+{}",
            data.len()
        );
        copy_in(&mut self.segs.borrow_mut(), addr, data);
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        self.settle();
        assert!(
            self.in_bounds(addr, len),
            "read out of bounds: {addr}+{len}"
        );
        let segs = self.segs.borrow();
        let mut out = Vec::with_capacity(len);
        spans(addr, len, |seg, off, piece| {
            out.extend_from_slice(&segs[seg][off..off + piece.len()]);
        });
        out
    }

    /// Reads the 8 B little-endian word at `addr` (must be 8-aligned).
    pub fn read_u64(&self, addr: u64) -> u64 {
        assert_eq!(addr % 8, 0, "unaligned 64-bit read");
        self.settle();
        assert!(self.in_bounds(addr, 8), "read out of bounds: {addr}+8");
        // 8-aligned, so inside one segment.
        let (seg, off) = locate(addr);
        let word = &self.segs.borrow()[seg][off..off + 8];
        u64::from_le_bytes(word.try_into().expect("8-byte slice"))
    }

    /// Writes the 8 B little-endian word at `addr` (must be 8-aligned).
    pub fn write_u64(&self, addr: u64, v: u64) {
        assert_eq!(addr % 8, 0, "unaligned 64-bit write");
        self.write(addr, &v.to_le_bytes());
    }

    /// Atomic 64-bit compare-and-swap; returns the previous value.
    ///
    /// This mirrors the only atomic the paper assumes of the disaggregated
    /// memory (§2.1). The swap happens at a single simulation instant, so it
    /// can never be observed torn.
    pub fn cas_u64(&self, addr: u64, expected: u64, new: u64) -> u64 {
        let prev = self.read_u64(addr);
        if prev == expected {
            self.write_u64(addr, new);
        }
        prev
    }

    /// Host address backing simulated address `addr` (growth must not move
    /// it).
    #[cfg(test)]
    fn backing_ptr(&self, addr: u64) -> *const u8 {
        let (seg, off) = locate(addr);
        &self.segs.borrow()[seg][off]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let m = NodeMemory::new();
        let a = m.alloc(3, 1);
        let b = m.alloc(8, 8);
        assert_eq!(a, 0);
        assert_eq!(b % 8, 0);
        assert!(b >= 3);
        assert_eq!(m.allocated_bytes(), b + 8);
    }

    #[test]
    fn memory_is_zero_initialized() {
        let m = NodeMemory::new();
        let a = m.alloc(16, 8);
        assert_eq!(m.read(a, 16), vec![0u8; 16]);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let m = NodeMemory::new();
        let a = m.alloc(32, 8);
        let data: Vec<u8> = (0..32).collect();
        m.write(a, &data);
        assert_eq!(m.read(a, 32), data);
        assert_eq!(m.read(a + 4, 4), vec![4, 5, 6, 7]);
    }

    #[test]
    fn u64_roundtrip_little_endian() {
        let m = NodeMemory::new();
        let a = m.alloc(8, 8);
        m.write_u64(a, 0x1122334455667788);
        assert_eq!(m.read_u64(a), 0x1122334455667788);
        assert_eq!(m.read(a, 1), vec![0x88]);
    }

    #[test]
    fn cas_succeeds_only_on_match() {
        let m = NodeMemory::new();
        let a = m.alloc(8, 8);
        m.write_u64(a, 10);
        assert_eq!(m.cas_u64(a, 10, 20), 10);
        assert_eq!(m.read_u64(a), 20);
        assert_eq!(m.cas_u64(a, 10, 30), 20); // fails, returns current
        assert_eq!(m.read_u64(a), 20);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let m = NodeMemory::new();
        let a = m.alloc(8, 8);
        let _ = m.read(a, 16);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_cas_panics() {
        let m = NodeMemory::new();
        m.alloc(16, 8);
        m.cas_u64(4, 0, 1);
    }

    // The checks are against the bump pointer, not the mapped segments: the
    // rest of a mapped segment is as out of bounds as unmapped space, and
    // the messages are the flat store's.

    #[test]
    #[should_panic(expected = "read out of bounds: 8+16")]
    fn oob_read_inside_a_mapped_segment_panics() {
        let m = NodeMemory::new();
        m.alloc(16, 8);
        let _ = m.read(8, 16);
    }

    #[test]
    #[should_panic(expected = "write out of bounds: 12+8")]
    fn oob_write_panics() {
        let m = NodeMemory::new();
        m.alloc(16, 8);
        m.write(12, &[1; 8]);
    }

    #[test]
    #[should_panic(expected = "read out of bounds: 16+8")]
    fn oob_word_read_panics() {
        let m = NodeMemory::new();
        m.alloc(16, 8);
        m.read_u64(16);
    }

    #[test]
    #[should_panic(expected = "write out of bounds: 0+128")]
    fn oob_chunked_write_panics_at_the_start() {
        let sim = Sim::new(1);
        let m = NodeMemory::new();
        m.alloc(100, 8);
        drop(m.write_chunked(&sim, 0, &Rc::new(vec![1; 128]), 16, 5));
    }

    #[test]
    #[should_panic(expected = "unaligned 64-bit write")]
    fn unaligned_word_write_panics() {
        let m = NodeMemory::new();
        m.alloc(16, 8);
        m.write_u64(2, 1);
    }

    #[test]
    fn accesses_straddle_segment_boundaries() {
        let seg = NodeMemory::SEGMENT_BYTES;
        let m = NodeMemory::new();
        // One allocation larger than a segment, over three boundaries.
        let base = m.alloc(3 * seg + 10, 8);
        let data: Vec<u8> = (0..2 * seg + 7).map(|i| i as u8 | 1).collect();
        let at = base + seg - 3;
        m.write(at, &data);
        assert_eq!(m.read(at, data.len()), data);
        assert_eq!(m.read(base, 8), vec![0; 8], "never written");
        assert_eq!(m.read(at - 2, 4), vec![0, 0, data[0], data[1]]);
        let end = at + data.len() as u64;
        assert_eq!(m.read(end - 1, 3), vec![*data.last().unwrap(), 0, 0]);
        // The last word of one segment and the first of the next.
        m.write_u64(seg - 8, u64::MAX);
        assert_eq!(m.cas_u64(seg, u64::from_le_bytes([data[3]; 8]), 7), {
            u64::from_le_bytes(data[3..11].try_into().unwrap())
        });
        assert_eq!(m.read_u64(seg - 8), u64::MAX);
    }

    #[test]
    fn growth_maps_segments_lazily_and_never_moves_bytes() {
        let seg = NodeMemory::SEGMENT_BYTES;
        let m = NodeMemory::new();
        assert_eq!(m.segs.borrow().len(), 0, "an empty memory maps nothing");
        let a = m.alloc(8, 8);
        m.write_u64(a, 0xFEED);
        let (first, last) = (m.backing_ptr(a), m.backing_ptr(a + 7));
        assert_eq!(m.segs.borrow().len(), 1);
        m.alloc(seg - 8, 1);
        assert_eq!(m.segs.borrow().len(), 1, "a segment filled to the brim");
        // Grow well past the segment table's own reallocations.
        for _ in 0..1_000 {
            m.alloc(seg / 2 + 1, 8);
        }
        assert_eq!(
            m.segs.borrow().len() as u64,
            m.allocated_bytes().div_ceil(seg)
        );
        assert_eq!((m.backing_ptr(a), m.backing_ptr(a + 7)), (first, last));
        assert_eq!(m.read_u64(a), 0xFEED);
    }

    #[test]
    fn debug_is_a_summary_not_the_bytes() {
        let sim = Sim::new(1);
        let m = NodeMemory::new();
        m.alloc(1 << 20, 8);
        let _ticker = m.write_chunked(&sim, 0, &Rc::new(vec![1; 64]), 16, 5);
        let text = format!("{m:?}");
        assert_eq!(
            text,
            format!(
                "NodeMemory {{ allocated_bytes: 1048576, segments_mapped: {}, writes_in_flight: 1 }}",
                (1u64 << 20) / NodeMemory::SEGMENT_BYTES
            )
        );
    }

    /// The store this module had before segments, kept as the model: one
    /// flat vector grown by `resize`, chunked writes spelled out as copy a
    /// chunk, sleep a chunk time, repeat.
    #[derive(Default)]
    struct Flat {
        bytes: RefCell<Vec<u8>>,
    }

    impl Flat {
        fn alloc(&self, len: u64, align: u64) -> u64 {
            let mut bytes = self.bytes.borrow_mut();
            let base = (bytes.len() as u64 + align - 1) & !(align - 1);
            bytes.resize((base + len) as usize, 0);
            base
        }

        fn write(&self, addr: u64, data: &[u8]) {
            self.bytes.borrow_mut()[addr as usize..addr as usize + data.len()]
                .copy_from_slice(data);
        }

        fn read(&self, addr: u64, len: usize) -> Vec<u8> {
            self.bytes.borrow()[addr as usize..addr as usize + len].to_vec()
        }

        fn read_u64(&self, addr: u64) -> u64 {
            u64::from_le_bytes(self.read(addr, 8).try_into().unwrap())
        }

        fn cas_u64(&self, addr: u64, expected: u64, new: u64) -> u64 {
            let prev = self.read_u64(addr);
            if prev == expected {
                self.write(addr, &new.to_le_bytes());
            }
            prev
        }
    }

    /// Random `alloc` / `write` / `read` / `read_u64` / `cas_u64` /
    /// `write_chunked` + `settle` sequences against [`Flat`], each store in a
    /// simulation of its own stepped in lockstep. Unit tests run on 64 B
    /// segments, so most accesses straddle and most allocations span several.
    #[test]
    fn random_op_sequences_match_a_flat_vector() {
        const CHUNK_NS: Nanos = 7;
        for seed in 0..24 {
            let rng = swarm_sim::SimRng::from_seed(seed, 0x5E65);
            let pick = |lo: u64, hi: u64| rng.rand_range(lo, hi);
            let (sim, model_sim) = (Sim::new(seed), Sim::new(seed));
            let (mem, model) = (Rc::new(NodeMemory::new()), Rc::new(Flat::default()));
            assert_eq!(mem.alloc(64, 8), model.alloc(64, 8));
            for step in 0..600 {
                let ctx = format!("seed {seed} step {step}");
                let size = mem.allocated_bytes();
                assert_eq!(size, model.bytes.borrow().len() as u64, "{ctx}");
                // An in-bounds range of up to 300 B (five segments).
                let len = pick(0, 301.min(size + 1));
                let addr = pick(0, size - len + 1);
                let word = pick(0, size / 8) * 8;
                let fill = |i: u64| (step as u64 * 31 + i) as u8;
                let data: Vec<u8> = (0..len).map(fill).collect();
                match pick(0, 8) {
                    0 => {
                        let (len, align) = (pick(0, 301), 1 << pick(0, 8));
                        assert_eq!(mem.alloc(len, align), model.alloc(len, align), "{ctx}");
                    }
                    1 => {
                        mem.write(addr, &data);
                        model.write(addr, &data);
                    }
                    2 => {
                        let len = len as usize;
                        assert_eq!(mem.read(addr, len), model.read(addr, len), "{ctx}");
                    }
                    3 => assert_eq!(mem.read_u64(word), model.read_u64(word), "{ctx}"),
                    4 => {
                        // Half the time a swap that succeeds.
                        let expected = model.read_u64(word) ^ pick(0, 2);
                        let new = rng.rand_u64();
                        assert_eq!(
                            mem.cas_u64(word, expected, new),
                            model.cas_u64(word, expected, new),
                            "{ctx}"
                        );
                    }
                    5 => {
                        // At a random address a 48 B chunk straddles a
                        // 64 B segment three times in four, a 16 B one
                        // one time in four.
                        let chunk = [16, 48][pick(0, 2) as usize];
                        let (s, m, d) = (sim.clone(), Rc::clone(&mem), Rc::new(data.clone()));
                        sim.spawn(async move {
                            m.write_chunked(&s, addr, &d, chunk, CHUNK_NS).await;
                            m.settle();
                        });
                        let (s, m) = (model_sim.clone(), Rc::clone(&model));
                        model_sim.spawn(async move {
                            for (k, piece) in data.chunks(chunk).enumerate() {
                                m.write(addr + (k * chunk) as u64, piece);
                                s.sleep_ns(CHUNK_NS).await;
                            }
                        });
                    }
                    _ => {
                        let until = sim.now() + pick(0, 3 * CHUNK_NS);
                        sim.run_until(until);
                        model_sim.run_until(until);
                    }
                }
            }
            sim.run();
            model_sim.run();
            assert_eq!(mem.inflight.borrow().len(), 0, "seed {seed}: all landed");
            let size = mem.allocated_bytes();
            assert_eq!(
                mem.read(0, size as usize),
                model.read(0, size as usize),
                "seed {seed}: final bytes"
            );
        }
    }
}

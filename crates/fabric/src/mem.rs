//! Raw node memory: a flat byte space with a bump allocator.
//!
//! `NodeMemory` provides the byte-level primitives (copy ranges, 8 B atomic
//! CAS), the allocation accounting behind the paper's memory-consumption
//! numbers (Table 3), and the one piece of the fabric's timing that lives
//! with the bytes: how a chunked write lands.
//!
//! # Chunked writes: tick, then settle
//!
//! A write larger than one chunk does not land at once. Chunk 0 lands when
//! the write starts; chunk `k` lands `k` chunk times later; the write
//! completes one chunk time after its last chunk. A read in between sees
//! the torn prefix — the property In-n-Out's hash validation exists for.
//!
//! [`NodeMemory::write_chunked`] lands chunk 0, parks the (shared, never
//! copied) payload in an in-flight list and returns a [`Ticker`] that ticks
//! once per chunk time. Only the last tick reaches the writer — it wakes an
//! awaiting task, or steps the message that armed it (`Ticker::arm_step`);
//! every earlier tick just appends the write's tag to this node's
//! [`TickLog`]. *Settling* replays that log: one chunk of the tagged write
//! lands per entry, in log order. The invariants:
//!
//! * **Every access settles first.** `read`, `write`, `write_shared`,
//!   `read_u64`, `cas_u64` (and `write_chunked` itself) replay the log before
//!   touching bytes, so an access observes exactly the chunks whose ticks
//!   fired before it — the bytes a copy at every tick would have left.
//! * **Log order is the landing order.** Overlapping in-flight writes
//!   interleave chunk by chunk in the order their ticks fired, ties at one
//!   instant included (the log is appended to by the executor as each tick
//!   fires).
//! * **A write that ended has landed.** The writer calls
//!   [`NodeMemory::settle`] when its ticker's last tick reaches it; all its ticks are in
//!   the log by then, so its entry leaves the in-flight list. Nothing else —
//!   a crash of the node included — stops a started write from landing in
//!   full.
//! * **One-chunk writes cost nothing extra.** They are copied whole at the
//!   start, never enter the list and never log; the price on every access
//!   is one empty-log check.
//!
//! # Shared runs
//!
//! A chunked write copies nothing: it lands as a *run*, an address range
//! whose bytes are a range of the write's `Rc<Vec<u8>>` payload, kept in an
//! ordered map beside the segments (*Backing store*) and shown over them.
//! [`NodeMemory::write_shared`] lands a run at once, for a control plane
//! that holds its bytes shared already (a bulk loader's one image of a
//! key). A value written out of place at three replicas and in place at one
//! is then one host buffer per distinct image, not four copies. The
//! invariants:
//!
//! * **Runs are a representation, nothing more.** Every access sees the
//!   bytes copying would have left; bounds checks, alignment, zeroed reads
//!   and `allocated_bytes()` are unchanged. `read` and `read_u64` assemble
//!   segments, runs and landed chunks in address order; `write`,
//!   `write_u64` and `cas_u64` first cut the runs they overlap (trimming one
//!   they cover an end of, splitting one they fall inside) and then copy
//!   into the segments beneath. Writes of one chunk or less are copied as
//!   before, so a store whose writes are all that small never holds a run.
//! * **A tick touches no map.** The chunks a write in flight has landed
//!   show from its in-flight entry, and its run enters the map once, when
//!   its last chunk lands: in place of the run of the slot's previous image
//!   at one map lookup, or into untouched memory at a lookup and an insert.
//!   An access that would change bytes a write in flight has landed enters
//!   them first. Only a write whose range overlaps another write in flight
//!   enters each chunk as it lands, so that the two interleave in log order.
//! * **A payload is released once no run shows any of its bytes** and no
//!   write in flight carries it.
//! * **No slivers.** A run whose write has landed shows at least half of its
//!   payload. Where a landed write would leave less — its own run, or the
//!   piece of an older run it cut at either end — that piece is copied into
//!   the segments and dropped, so a remnant pins at most twice the bytes it
//!   shows. A write still in flight is exempt: it cuts again as it lands.
//!
//! # Backing store
//!
//! A memory node is allocated ahead of what a run writes. In-n-Out draws a
//! writer's ring of out-of-place slots whole on that writer's first write of
//! a register (`swarm_core::InnOutLayout`) and fills it a slot per write, so
//! a ring written once — a reader's write-back, say — is mostly reserve; and
//! a slot filled by a chunked write is a run, so at 8 KiB values no page of
//! a ring is touched at all, only the pages of the metadata words. The store
//! therefore costs what is *touched*, not what is allocated. Addresses are a
//! flat space cut into fixed-size segments; a segment is obtained zeroed
//! from the allocator when the bump pointer first reaches it and is never
//! moved, copied or regrown afterwards. The invariants:
//!
//! * **Nothing here zero-fills.** A segment arrives zeroed (`alloc_zeroed`)
//!   and `alloc` only moves the bump pointer, so a page of the host becomes
//!   resident when a simulated access first copies into it and not before.
//! * **Growth never moves bytes.** A new segment is appended to the table;
//!   the existing ones stay where they are, so growing costs neither a copy
//!   nor a re-mapping of what exists.
//! * **The address space is unchanged.** Addresses, alignment,
//!   `allocated_bytes()`, zero-initialised reads and the out-of-bounds checks
//!   (against the bump pointer, not the mapped segments) are those of one
//!   flat vector. An access is cut at segment boundaries by one helper
//!   (`spans`); an allocation larger than a segment simply covers several.
//!   An 8 B word is 8-aligned and so never straddles a segment.
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
use std::collections::BTreeMap;
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

/// Copies `data` into the segments at `addr` (bounds are the caller's to
/// check).
fn copy_in(segs: &mut [Box<[u8]>], addr: u64, data: &[u8]) {
    spans(addr, data.len(), |seg, off, piece| {
        segs[seg][off..off + piece.len()].copy_from_slice(&data[piece]);
    });
}

/// Whether a run showing `shown` bytes of a `payload`-byte buffer is a
/// sliver (module docs, *No slivers*).
fn is_sliver(shown: u64, payload: usize) -> bool {
    2 * shown < payload as u64
}

/// `data[off..]` shown from the run's first address — its key in the run
/// map — up to `end` (module docs, *Shared runs*).
#[derive(Debug)]
struct Run {
    end: u64,
    data: Rc<Vec<u8>>,
    off: usize,
}

impl Run {
    /// The bytes shown, given the run's first address.
    fn bytes(&self, start: u64) -> &[u8] {
        &self.data[self.off..self.off + (self.end - start) as usize]
    }
}

/// What the addresses of one node hold: segments beneath, runs over them.
#[derive(Default)]
struct Bytes {
    /// Segment `i` backs addresses `[i << SEG_SHIFT, (i + 1) << SEG_SHIFT)`;
    /// the table has just enough segments to cover what is allocated.
    segs: Vec<Box<[u8]>>,
    /// Disjoint runs by first address.
    runs: BTreeMap<u64, Run>,
}

impl Bytes {
    /// Calls `piece` with the bytes of `[addr, addr + len)` in address
    /// order, from runs where they show and from segments elsewhere (chunks
    /// that writes in flight landed but did not enter are not here).
    fn pieces(&self, addr: u64, len: usize, mut piece: impl FnMut(&[u8])) {
        let end = addr + len as u64;
        match self.runs.range(..end).next_back() {
            Some((_, run)) if run.end > addr => {}
            _ => return self.seg_pieces(addr, end, &mut piece),
        }
        let from = match self.runs.range(..=addr).next_back() {
            Some((&start, run)) if run.end > addr => start,
            _ => addr,
        };
        let mut at = addr;
        for (&start, run) in self.runs.range(from..end) {
            self.seg_pieces(at, start, &mut piece);
            let (lo, hi) = (start.max(at), run.end.min(end));
            piece(&run.data[run.off + (lo - start) as usize..run.off + (hi - start) as usize]);
            at = hi;
        }
        self.seg_pieces(at, end, &mut piece);
    }

    /// [`Bytes::pieces`] of the segments alone, over `[from, to)`.
    fn seg_pieces(&self, from: u64, to: u64, piece: &mut impl FnMut(&[u8])) {
        if from < to {
            spans(from, (to - from) as usize, |seg, off, p| {
                piece(&self.segs[seg][off..off + p.len()]);
            });
        }
    }

    /// Removes the run at `start` and copies its bytes into the segments.
    fn materialise(&mut self, start: u64) {
        let run = self.runs.remove(&start).expect("a run starts there");
        copy_in(&mut self.segs, start, run.bytes(start));
    }

    /// Drops every run's coverage of `[s, e)`: a run inside it goes, one
    /// across an end of it is cut there. The pieces left at either end are
    /// held to the sliver rule — the one past `e` only if the cutting write
    /// has `landed`, since one in flight cuts it again as it grows.
    fn cut(&mut self, s: u64, e: u64, landed: bool) {
        match self.runs.range(..e).next_back() {
            Some((_, run)) if s < e && run.end > s => {}
            _ => return,
        }
        let (mut before, mut past) = (None, None);
        if let Some((&start, run)) = self.runs.range_mut(..s).next_back() {
            if run.end > s {
                if run.end > e {
                    past = Some(Run {
                        end: run.end,
                        data: Rc::clone(&run.data),
                        off: run.off + (e - start) as usize,
                    });
                }
                run.end = s;
                before = Some((start, is_sliver(s - start, run.data.len())));
            }
        }
        while let Some((&start, _)) = self.runs.range(s..e).next() {
            let run = self.runs.remove(&start).expect("found just now");
            if run.end > e {
                past = Some(Run {
                    off: run.off + (e - start) as usize,
                    ..run
                });
            }
        }
        if let Some(run) = past {
            self.keep(e, run, landed);
        }
        if let Some((start, true)) = before {
            self.materialise(start);
        }
    }

    /// Puts `run` in the map at `start` — or, if its write has `landed` and
    /// it is a sliver, its bytes into the segments.
    fn keep(&mut self, start: u64, run: Run, landed: bool) {
        if landed && is_sliver(run.end - start, run.data.len()) {
            copy_in(&mut self.segs, start, run.bytes(start));
        } else {
            self.runs.insert(start, run);
        }
    }

    /// Shows `data[off..off + (e - s)]` at `[s, e)` over whatever was there;
    /// `landed` says whether its write has (else the sliver rule waits).
    fn land(&mut self, s: u64, e: u64, data: &Rc<Vec<u8>>, off: usize, landed: bool) {
        if s >= e {
            return;
        }
        let replaced = match self.runs.range_mut(..e).next_back() {
            Some((&start, run)) if start == s && run.end == e => {
                // The slot's previous image, replaced whole.
                run.data = Rc::clone(data);
                run.off = off;
                true
            }
            Some((_, run)) if run.end > s => {
                self.cut(s, e, landed);
                false
            }
            _ => false,
        };
        // A write entering in pieces continues its own run (a piece that
        // starts its payload continues nothing).
        if off > 0 {
            if let Some((&start, run)) = self.runs.range_mut(..s).next_back() {
                if run.end == s
                    && Rc::ptr_eq(&run.data, data)
                    && run.off + (s - start) as usize == off
                {
                    run.end = e;
                    if replaced {
                        self.runs.remove(&s);
                    }
                    if landed && is_sliver(e - start, data.len()) {
                        self.materialise(start);
                    }
                    return;
                }
            }
        }
        if !replaced {
            let run = Run {
                end: e,
                data: Rc::clone(data),
                off,
            };
            self.keep(s, run, landed);
        } else if landed && is_sliver(e - s, data.len()) {
            self.materialise(s);
        }
    }
}

/// A chunked write whose last chunk has not landed yet.
#[derive(Debug)]
struct InFlight {
    tag: u32,
    addr: u64,
    data: Rc<Vec<u8>>,
    chunk: usize,
    /// Bytes of `data` landed so far.
    done: usize,
    /// Bytes of `data` entered in the run map; the landed rest shows from
    /// here (module docs, *Shared runs*).
    entered: usize,
    /// Enters each chunk as it lands: another write in flight overlaps it.
    eager: bool,
}

impl InFlight {
    fn end(&self) -> u64 {
        self.addr + self.data.len() as u64
    }

    /// Addresses of the chunks landed but not entered.
    fn unentered(&self) -> Range<u64> {
        self.addr + self.entered as u64..self.addr + self.done as u64
    }

    /// Enters the chunks landed so far in the run map.
    fn enter(&mut self, bytes: &mut Bytes) {
        let Range { start, end } = self.unentered();
        let landed = self.done == self.data.len();
        bytes.land(start, end, &self.data, self.entered, landed);
        self.entered = self.done;
    }
}

/// Byte-addressable memory of one simulated node.
#[derive(Default)]
pub struct NodeMemory {
    bytes: RefCell<Bytes>,
    /// The bump pointer: `[0, next)` is allocated.
    next: Cell<u64>,
    inflight: RefCell<Vec<InFlight>>,
    ticks: Rc<TickLog>,
    next_tag: Cell<u32>,
}

/// A summary: the store itself can be hundreds of MiB.
impl fmt::Debug for NodeMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.bytes.borrow();
        f.debug_struct("NodeMemory")
            .field("allocated_bytes", &self.next.get())
            .field("segments_mapped", &bytes.segs.len())
            .field("runs", &bytes.runs.len())
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
        let segs = &mut self.bytes.borrow_mut().segs;
        while (segs.len() as u64) << SEG_SHIFT < next {
            segs.push(vec![0u8; SEG_BYTES].into_boxed_slice());
        }
        base
    }

    /// Total bytes allocated so far (disaggregated-memory consumption).
    pub fn allocated_bytes(&self) -> u64 {
        self.next.get()
    }

    /// Panics with `"{what} out of bounds"` unless `[addr, addr + len)`
    /// lies below the bump pointer.
    fn check(&self, what: &str, addr: u64, len: usize) {
        let end = addr.checked_add(len as u64);
        assert!(
            end.is_some_and(|end| end <= self.next.get()),
            "{what} out of bounds: {addr}+{len}"
        );
    }

    /// Lands the chunks whose ticks have fired (module docs).
    pub fn settle(&self) {
        if self.ticks.is_empty() {
            return;
        }
        let mut bytes = self.bytes.borrow_mut();
        let mut inflight = self.inflight.borrow_mut();
        self.ticks.drain(|tag| {
            let i = inflight
                .iter()
                .position(|w| w.tag == tag)
                .expect("a tick belongs to a write in flight");
            let w = &mut inflight[i];
            w.done = (w.done + w.chunk).min(w.data.len());
            let landed = w.done == w.data.len();
            if w.eager || landed {
                w.enter(&mut bytes);
            }
            if landed {
                inflight.swap_remove(i);
            }
        });
    }

    /// Enters what writes in flight have landed in `[s, e)`, whose bytes
    /// are about to change.
    fn enter_landed(&self, bytes: &mut Bytes, s: u64, e: u64) {
        for w in self.inflight.borrow_mut().iter_mut() {
            let landed = w.unentered();
            if landed.start < e && s < landed.end {
                w.enter(bytes);
            }
        }
    }

    /// Lays the chunks writes in flight landed but did not enter over
    /// `out`, the bytes at `addr`.
    fn show_landed(&self, addr: u64, out: &mut [u8]) {
        let end = addr + out.len() as u64;
        for w in self.inflight.borrow().iter() {
            let landed = w.unentered();
            let (lo, hi) = (landed.start.max(addr), landed.end.min(end));
            if lo < hi {
                out[(lo - addr) as usize..(hi - addr) as usize]
                    .copy_from_slice(&w.data[(lo - w.addr) as usize..(hi - w.addr) as usize]);
            }
        }
    }

    /// Starts writing `data` at `addr` in chunks of `chunk` bytes, one per
    /// `chunk_ns`: the first chunk lands now, and the returned ticker
    /// resolves one `chunk_ns` after the last. Call [`NodeMemory::settle`]
    /// once it has (module docs). A write of more than one chunk lands as a
    /// run of `data`, which node memory then shares (*Shared runs*).
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
        let chunks = u32::try_from(data.len().div_ceil(chunk)).expect("write of 2^32 chunks");
        let tag = self.next_tag.get();
        if chunks > 1 {
            self.settle();
            self.check("write", addr, data.len());
            let end = addr + data.len() as u64;
            let mut bytes = self.bytes.borrow_mut();
            let mut inflight = self.inflight.borrow_mut();
            // Writes in flight under this one interleave with it from now on.
            let mut eager = false;
            for w in inflight
                .iter_mut()
                .filter(|w| w.addr < end && addr < w.end())
            {
                w.eager = true;
                w.enter(&mut bytes);
                eager = true;
            }
            let mut w = InFlight {
                tag,
                addr,
                data: Rc::clone(data),
                chunk,
                done: chunk,
                entered: 0,
                eager,
            };
            if eager {
                w.enter(&mut bytes);
            }
            inflight.push(w);
            self.next_tag.set(tag.wrapping_add(1));
        } else {
            self.write(addr, data);
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
        self.check("write", addr, data.len());
        let end = addr + data.len() as u64;
        let mut bytes = self.bytes.borrow_mut();
        self.enter_landed(&mut bytes, addr, end);
        bytes.cut(addr, end, true);
        copy_in(&mut bytes.segs, addr, data);
    }

    /// Shows `data[range]` at `addr` without copying it: node memory keeps
    /// a reference to `data` (module docs, *Shared runs*). For a control
    /// plane that holds the bytes shared already, such as a bulk loader
    /// landing one image of a key at every replica.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or if `range` is not inside `data`.
    pub fn write_shared(&self, addr: u64, data: &Rc<Vec<u8>>, range: Range<usize>) {
        assert!(
            range.start <= range.end && range.end <= data.len(),
            "range {range:?} outside a payload of {} B",
            data.len()
        );
        self.settle();
        self.check("write", addr, range.len());
        let end = addr + range.len() as u64;
        let mut bytes = self.bytes.borrow_mut();
        self.enter_landed(&mut bytes, addr, end);
        bytes.land(addr, end, data, range.start, true);
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        self.settle();
        self.check("read", addr, len);
        let mut out = Vec::with_capacity(len);
        self.bytes
            .borrow()
            .pieces(addr, len, |p| out.extend_from_slice(p));
        self.show_landed(addr, &mut out);
        out
    }

    /// Reads the 8 B little-endian word at `addr` (must be 8-aligned).
    pub fn read_u64(&self, addr: u64) -> u64 {
        assert_eq!(addr % 8, 0, "unaligned 64-bit read");
        self.settle();
        self.check("read", addr, 8);
        let mut word = [0u8; 8];
        let mut at = 0;
        self.bytes.borrow().pieces(addr, 8, |p| {
            word[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        });
        self.show_landed(addr, &mut word);
        u64::from_le_bytes(word)
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
        &self.bytes.borrow().segs[seg][off]
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
        assert_eq!(
            m.bytes.borrow().segs.len(),
            0,
            "an empty memory maps nothing"
        );
        let a = m.alloc(8, 8);
        m.write_u64(a, 0xFEED);
        let (first, last) = (m.backing_ptr(a), m.backing_ptr(a + 7));
        assert_eq!(m.bytes.borrow().segs.len(), 1);
        m.alloc(seg - 8, 1);
        assert_eq!(
            m.bytes.borrow().segs.len(),
            1,
            "a segment filled to the brim"
        );
        // Grow well past the segment table's own reallocations.
        for _ in 0..1_000 {
            m.alloc(seg / 2 + 1, 8);
        }
        assert_eq!(
            m.bytes.borrow().segs.len() as u64,
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
                "NodeMemory {{ allocated_bytes: 1048576, segments_mapped: {}, runs: 0, writes_in_flight: 1 }}",
                (1u64 << 20) / NodeMemory::SEGMENT_BYTES
            )
        );
    }

    /// `(first address, end)` of every run of `m`.
    fn runs(m: &NodeMemory) -> Vec<(u64, u64)> {
        m.bytes
            .borrow()
            .runs
            .iter()
            .map(|(&s, r)| (s, r.end))
            .collect()
    }

    #[test]
    fn a_chunked_write_lands_as_a_run_and_a_one_chunk_write_as_a_copy() {
        let sim = Sim::new(2);
        let m = Rc::new(NodeMemory::new());
        let a = m.alloc(256, 8);
        let big: Rc<Vec<u8>> = Rc::new((1..=100).collect());
        let small = Rc::new(vec![7u8; 16]);
        let (s, m2, b, sm) = (
            sim.clone(),
            Rc::clone(&m),
            Rc::clone(&big),
            Rc::clone(&small),
        );
        sim.block_on(async move {
            m2.write_chunked(&s, a, &b, 16, 5).await;
            m2.settle();
            m2.write_chunked(&s, a + 200, &sm, 16, 5).await;
            m2.settle();
        });
        assert_eq!(runs(&m), vec![(a, a + 100)]);
        assert_eq!(Rc::strong_count(&big), 2, "its run holds it");
        assert_eq!(Rc::strong_count(&small), 1, "copied, not held");
        assert_eq!(m.read(a, 100), *big);
        assert_eq!(m.read(a + 199, 18), [&[0][..], &small[..], &[0]].concat());
        let mut beneath = Vec::new();
        m.bytes
            .borrow()
            .seg_pieces(a, a + 100, &mut |p: &[u8]| beneath.extend_from_slice(p));
        assert_eq!(beneath, vec![0; 100], "nothing was copied beneath the run");
    }

    #[test]
    fn shared_runs_are_cut_by_writes_and_never_pin_a_sliver() {
        let m = NodeMemory::new();
        let a = m.alloc(512, 8);
        let mut flat = vec![0u8; 512];
        let p: Rc<Vec<u8>> = Rc::new((0..200).map(|i| i as u8 | 0x80).collect());
        let q = Rc::new(vec![0x11u8; 150]);
        let land = |flat: &mut Vec<u8>, at: u64, bytes: &[u8]| {
            flat[(at - a) as usize..][..bytes.len()].copy_from_slice(bytes);
        };
        m.write_shared(a, &p, 0..200);
        m.write_shared(a + 300, &p, 50..200);
        land(&mut flat, a, &p);
        land(&mut flat, a + 300, &p[50..]);
        assert_eq!(Rc::strong_count(&p), 3, "one payload, two runs");
        assert_eq!(runs(&m), vec![(a, a + 200), (a + 300, a + 450)]);
        // A CAS 8 B in: the piece before it shows 8 of 200 B and is copied
        // out, the piece after it stays a run.
        let old = u64::from_le_bytes(p[8..16].try_into().unwrap());
        assert_eq!(m.cas_u64(a + 8, old, 1), old);
        land(&mut flat, a + 8, &1u64.to_le_bytes());
        assert_eq!(runs(&m), vec![(a + 16, a + 200), (a + 300, a + 450)]);
        assert_eq!(m.read(a, 512), flat);
        // Cutting its front leaves 80 of 200 B: copied out, payload held by
        // the other run only.
        m.write(a + 16, &[0x22; 104]);
        land(&mut flat, a + 16, &[0x22; 104]);
        assert_eq!(runs(&m), vec![(a + 300, a + 450)]);
        assert_eq!(Rc::strong_count(&p), 2);
        // The other run replaced whole: the payload is released.
        m.write_shared(a + 300, &q, 0..150);
        land(&mut flat, a + 300, &q);
        assert_eq!(Rc::strong_count(&p), 1, "no run shows any of it");
        // A range shorter than half its payload is copied at once.
        m.write_shared(a + 460, &q, 0..40);
        land(&mut flat, a + 460, &q[..40]);
        assert_eq!(runs(&m), vec![(a + 300, a + 450)]);
        assert_eq!(Rc::strong_count(&q), 2);
        assert_eq!(m.read(a, 512), flat);
        for w in (0..512).step_by(8) {
            let want = u64::from_le_bytes(flat[w..w + 8].try_into().unwrap());
            assert_eq!(m.read_u64(a + w as u64), want, "word {w}");
        }
    }

    /// The store this module had before segments and runs, kept as the
    /// model: one flat vector grown by `resize`, chunked writes spelled out
    /// as copy a chunk, sleep a chunk time, repeat. Beside each byte it
    /// notes the shared payload (by index) the byte was landed from, if any.
    #[derive(Default)]
    struct Flat {
        bytes: RefCell<Vec<u8>>,
        from: RefCell<Vec<Option<usize>>>,
    }

    impl Flat {
        fn alloc(&self, len: u64, align: u64) -> u64 {
            let mut bytes = self.bytes.borrow_mut();
            let base = (bytes.len() as u64 + align - 1) & !(align - 1);
            bytes.resize((base + len) as usize, 0);
            self.from.borrow_mut().resize(bytes.len(), None);
            base
        }

        fn land(&self, addr: u64, data: &[u8], from: Option<usize>) {
            let at = addr as usize..addr as usize + data.len();
            self.bytes.borrow_mut()[at.clone()].copy_from_slice(data);
            self.from.borrow_mut()[at].fill(from);
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
                self.land(addr, &new.to_le_bytes(), None);
            }
            prev
        }

        /// Whether any byte landed from payload `p` still shows.
        fn shows(&self, p: usize) -> bool {
            self.from.borrow().contains(&Some(p))
        }
    }

    /// Random `alloc` / `write` / `read` / `read_u64` / `cas_u64` /
    /// `write_chunked` + `settle` / `write_shared` sequences against
    /// [`Flat`], each store in a simulation of its own stepped in lockstep.
    /// Unit tests run on 64 B segments, so most accesses straddle and most
    /// allocations span several. Payloads are reused: one `Rc` lands at
    /// several addresses, whole and in part, chunked and at once, so byte
    /// writes, CASes and reads meet runs, segments and chunks in flight.
    /// After each seed, a payload the model shows nowhere must be held by
    /// nothing else, and no run may be a sliver.
    #[test]
    fn random_op_sequences_match_a_flat_vector() {
        const CHUNK_NS: Nanos = 7;
        let (mut released, mut kept_runs) = (0, 0);
        for seed in 0..24 {
            let rng = swarm_sim::SimRng::from_seed(seed, 0x5E65);
            let pick = |lo: u64, hi: u64| rng.rand_range(lo, hi);
            let (sim, model_sim) = (Sim::new(seed), Sim::new(seed));
            let (mem, model) = (Rc::new(NodeMemory::new()), Rc::new(Flat::default()));
            let mut payloads: Vec<Rc<Vec<u8>>> = Vec::new();
            // `(address, length)` of every landing so far.
            let mut sites: Vec<(u64, usize)> = Vec::new();
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
                // What a landing puts where: a third of the time a fresh
                // payload at an earlier landing's site and length (a slot
                // rewritten whole); else half the time an earlier payload
                // that fits and otherwise `data`, at an address of the
                // caller's choosing.
                let mut landing = || {
                    if !sites.is_empty() && pick(0, 3) == 0 {
                        let (at, n) = sites[pick(0, sites.len() as u64) as usize];
                        payloads.push(Rc::new((0..n as u64).map(fill).collect()));
                        return (
                            payloads.len() - 1,
                            Rc::clone(&payloads[payloads.len() - 1]),
                            Some(at),
                        );
                    }
                    let n = payloads.len() as u64;
                    if n > 0 && pick(0, 2) == 0 {
                        let p = pick(0, n) as usize;
                        if payloads[p].len() as u64 <= size {
                            return (p, Rc::clone(&payloads[p]), None);
                        }
                    }
                    payloads.push(Rc::new(data.clone()));
                    (
                        payloads.len() - 1,
                        Rc::clone(&payloads[payloads.len() - 1]),
                        None,
                    )
                };
                match pick(0, 9) {
                    0 => {
                        let (len, align) = (pick(0, 301), 1 << pick(0, 8));
                        assert_eq!(mem.alloc(len, align), model.alloc(len, align), "{ctx}");
                    }
                    1 => {
                        mem.write(addr, &data);
                        model.land(addr, &data, None);
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
                        let (id, d, site) = landing();
                        let at = site.unwrap_or_else(|| pick(0, size - d.len() as u64 + 1));
                        sites.push((at, d.len()));
                        let bytes = d.to_vec();
                        let (s, m) = (sim.clone(), Rc::clone(&mem));
                        sim.spawn(async move {
                            m.write_chunked(&s, at, &d, chunk, CHUNK_NS).await;
                            m.settle();
                        });
                        let (s, m) = (model_sim.clone(), Rc::clone(&model));
                        model_sim.spawn(async move {
                            for (k, piece) in bytes.chunks(chunk).enumerate() {
                                m.land(at + (k * chunk) as u64, piece, Some(id));
                                s.sleep_ns(CHUNK_NS).await;
                            }
                        });
                    }
                    6 => {
                        let (id, d, site) = landing();
                        let n = d.len() as u64;
                        let (at, range) = match site {
                            Some(at) => (at, 0..n),
                            None if pick(0, 2) == 0 => (pick(0, size - n + 1), 0..n),
                            None => {
                                let lo = pick(0, n + 1);
                                let hi = pick(lo, n + 1);
                                (pick(0, size - (hi - lo) + 1), lo..hi)
                            }
                        };
                        let range = range.start as usize..range.end as usize;
                        sites.push((at, range.len()));
                        model.land(at, &d[range.clone()], Some(id));
                        mem.write_shared(at, &d, range);
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
            for (id, p) in payloads.iter().enumerate() {
                if !model.shows(id) {
                    assert_eq!(Rc::strong_count(p), 1, "seed {seed}: payload {id} is held");
                    released += 1;
                }
            }
            for (&start, run) in &mem.bytes.borrow().runs {
                let shown = run.end - start;
                assert!(!is_sliver(shown, run.data.len()), "seed {seed}: {run:?}");
                kept_runs += 1;
            }
        }
        assert!(
            released > 100 && kept_runs > 100,
            "{released} / {kept_runs}"
        );
    }
}

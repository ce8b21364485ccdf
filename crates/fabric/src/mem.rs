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

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use swarm_sim::{Nanos, Sim, TickLog, Ticker};

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
#[derive(Debug, Default)]
pub struct NodeMemory {
    bytes: RefCell<Vec<u8>>,
    next: RefCell<u64>,
    inflight: RefCell<Vec<InFlight>>,
    ticks: Rc<TickLog>,
    next_tag: Cell<u32>,
}

impl NodeMemory {
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
        let mut next = self.next.borrow_mut();
        let base = (*next + align - 1) & !(align - 1);
        *next = base + len;
        let mut bytes = self.bytes.borrow_mut();
        if bytes.len() < *next as usize {
            bytes.resize(*next as usize, 0);
        }
        base
    }

    /// Total bytes allocated so far (disaggregated-memory consumption).
    pub fn allocated_bytes(&self) -> u64 {
        *self.next.borrow()
    }

    /// Copies the chunks whose ticks have fired (module docs).
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
            let end = (w.done + w.chunk).min(w.data.len());
            let at = w.addr as usize;
            bytes[at + w.done..at + end].copy_from_slice(&w.data[w.done..end]);
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
                addr as usize + data.len() <= self.bytes.borrow().len(),
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
        let mut bytes = self.bytes.borrow_mut();
        let start = addr as usize;
        let end = start + data.len();
        assert!(
            end <= bytes.len(),
            "write out of bounds: {addr}+{}",
            data.len()
        );
        bytes[start..end].copy_from_slice(data);
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        self.settle();
        let bytes = self.bytes.borrow();
        let start = addr as usize;
        let end = start + len;
        assert!(end <= bytes.len(), "read out of bounds: {addr}+{len}");
        bytes[start..end].to_vec()
    }

    /// Reads the 8 B little-endian word at `addr` (must be 8-aligned).
    pub fn read_u64(&self, addr: u64) -> u64 {
        assert_eq!(addr % 8, 0, "unaligned 64-bit read");
        self.settle();
        let bytes = self.bytes.borrow();
        let word = bytes
            .get(addr as usize..addr as usize + 8)
            .unwrap_or_else(|| panic!("read out of bounds: {addr}+8"));
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
}

//! In-n-Out (§4): a per-node max register for large values, with
//! single-roundtrip conditional updates and no compute at the memory node.
//!
//! Memory layout of one register on one node (Figure 3, extended with the
//! §4.4 contention-reduction metadata array):
//!
//! ```text
//! meta_addr:    [ k × 8 B metadata words ]   // (stamp:48 | oop_slot:16)
//!               [ value_cap bytes in-place ] // contiguous with metadata so
//!               [ 8 B hash               ]   // one READ fetches everything;
//!                                            // only where the layout has one
//!               [ unowned slots × slot ]     // oop_slots % max_writers of them
//! ring of w:    [ per_writer × slot ]        // drawn on w's first write here
//! slot:         [ 8 B meta | 8 B hash | value_cap bytes ]
//! ```
//!
//! The first block — the *hot* region — is one allocation made with the
//! register. Slot indices `w × per_writer ..` belong to writer `w`
//! (`per_writer = oop_slots / max_writers`); the remainder past the last
//! writer's share is owned by no writer (a bulk loader writes there) and lives
//! in the hot region. A writer's ring is a fresh buffer taken from the node
//! the first time that writer writes this register there (§4, §5.3.1: writers
//! draw out-of-place buffers from pools allocated out of band), so a ring
//! nobody wrote does not exist. Its base is recorded in a table every clone
//! of the [`InnOutLayout`] shares: whoever reads a metadata word finds the
//! slot it names, and only writes allocate — a word is CASed after its slot
//! write was posted in the same FIFO series, by when the ring is in the table.
//!
//! A write fills a fresh out-of-place slot and MAXes its metadata word in a
//! single pipelined roundtrip (Algorithm 5); the MAX is emulated with CAS
//! and a client-side cache of the word (Algorithm 7). Readers fetch the
//! metadata array + in-place data in one roundtrip and validate the in-place
//! bytes against the hash, falling back to the out-of-place buffer only when
//! validation fails (Algorithm 6).

use std::cell::{Cell, OnceCell};
use std::rc::Rc;

use swarm_fabric::{Endpoint, NodeId, Op, OpResult};

use crate::hash::{bind_word, body_hash};
use crate::stamp::Stamp;
use crate::traits::{ReplicaClient, Rounds, Snapshot};
use crate::value::MVal;

/// Addresses and shape of one In-n-Out register on one node. Clones share
/// the table of writer rings (module docs).
#[derive(Debug, Clone)]
pub struct InnOutLayout {
    /// Node hosting this replica.
    pub node: NodeId,
    /// Base of the metadata array (the in-place region, where there is one,
    /// follows contiguously).
    pub meta_addr: u64,
    /// Number of 8 B metadata words (`k` of §4.4; 1 = the basic scheme).
    pub meta_bufs: usize,
    /// Fixed value size of this register in bytes.
    pub value_cap: usize,
    /// Total out-of-place slots (partitioned evenly among writers).
    pub oop_slots: usize,
    /// Maximum number of writer clients (determines slot partitioning).
    pub max_writers: usize,
    /// Whether the in-place region exists (§6: at one replica per key).
    inplace: bool,
    /// Slots in one writer's ring.
    per_writer: u16,
    /// Base of each writer's ring, [`NO_RING`] until drawn; the array itself
    /// appears with the register's first ring.
    rings: Rc<OnceCell<Box<[Cell<u64>]>>>,
}

/// Per-slot header: embedded metadata word + hash.
const OOP_HEADER: usize = 16;

/// A ring base that is no address: the ring has not been drawn.
const NO_RING: u64 = u64::MAX;

impl InnOutLayout {
    /// Bytes of node memory one writer's ring takes when it is drawn.
    pub fn ring_len(&self) -> u64 {
        (self.per_writer as usize * self.slot_len()) as u64
    }

    /// Bytes of node memory allocated with the register (the hot region).
    pub fn hot_len(&self) -> u64 {
        self.unowned_offset() + ((self.oop_slots - self.owned_slots()) * self.slot_len()) as u64
    }

    /// Allocates a register of this shape on `node` of `fabric`.
    pub fn allocate(
        fabric: &swarm_fabric::Fabric,
        node: NodeId,
        meta_bufs: usize,
        value_cap: usize,
        oop_slots: usize,
        max_writers: usize,
    ) -> InnOutLayout {
        let on = fabric.node(node);
        Self::allocate_on(&on, node, meta_bufs, value_cap, oop_slots, max_writers)
    }

    /// [`InnOutLayout::allocate`] for a caller that already holds the node
    /// (`on` must be the node `node` names): a bulk load resolves each
    /// replica's node once per key.
    pub fn allocate_on(
        on: &swarm_fabric::Node,
        node: NodeId,
        meta_bufs: usize,
        value_cap: usize,
        oop_slots: usize,
        max_writers: usize,
    ) -> InnOutLayout {
        Self::allocate_replica_on(on, node, meta_bufs, value_cap, oop_slots, max_writers, true)
    }

    /// [`InnOutLayout::allocate_on`] with the in-place region or, `inplace`
    /// false, without: the metadata words alone are read there and values
    /// only out of place — every replica of a key but the designated one
    /// (§6). A replica handle on such a layout cannot be `inplace_enabled`.
    pub fn allocate_replica_on(
        on: &swarm_fabric::Node,
        node: NodeId,
        meta_bufs: usize,
        value_cap: usize,
        oop_slots: usize,
        max_writers: usize,
        inplace: bool,
    ) -> InnOutLayout {
        assert!(oop_slots >= max_writers, "need >= 1 slot per writer");
        assert!(oop_slots <= 1 << 16, "slot index must fit 16 bits");
        let mut layout = InnOutLayout {
            node,
            meta_addr: 0,
            meta_bufs,
            value_cap,
            oop_slots,
            max_writers,
            inplace,
            per_writer: (oop_slots / max_writers) as u16,
            rings: Rc::new(OnceCell::new()),
        };
        layout.meta_addr = on.alloc(layout.hot_len(), 8);
        layout
    }

    fn meta_word_addr(&self, buf: usize) -> u64 {
        self.meta_addr + (buf * 8) as u64
    }

    fn inplace_addr(&self) -> u64 {
        self.meta_addr + (self.meta_bufs * 8) as u64
    }

    /// Length of the one READ that fetches everything readable in place.
    fn read_len(&self) -> usize {
        self.meta_bufs * 8 + if self.inplace { self.value_cap + 8 } else { 0 }
    }

    fn slot_len(&self) -> usize {
        OOP_HEADER + self.value_cap
    }

    /// Slots that belong to some writer's ring; the rest are unowned.
    fn owned_slots(&self) -> usize {
        self.max_writers * self.per_writer as usize
    }

    /// Offset of the unowned slots in the hot region (8-aligned, like the
    /// rings).
    fn unowned_offset(&self) -> u64 {
        (self.read_len() as u64).next_multiple_of(8)
    }

    /// Address of out-of-place slot `slot`: in the hot region if no writer
    /// owns it, else in its writer's ring. `None` if that ring has not been
    /// drawn (or the index is past the last slot): nothing was ever written
    /// there, so no metadata word names it.
    pub fn slot_addr(&self, slot: u16) -> Option<u64> {
        let owned = self.owned_slots();
        let (base, local) = if (slot as usize) < owned {
            let base = self.rings.get()?[(slot / self.per_writer) as usize].get();
            if base == NO_RING {
                return None;
            }
            (base, (slot % self.per_writer) as usize)
        } else if (slot as usize) < self.oop_slots {
            let unowned = self.meta_addr + self.unowned_offset();
            (unowned, slot as usize - owned)
        } else {
            return None;
        };
        Some(base + (local * self.slot_len()) as u64)
    }

    /// [`InnOutLayout::slot_addr`] for a control-plane writer that pokes node
    /// memory itself (`on` must be this layout's node): if a writer owns
    /// `slot`, its ring is drawn when it does not exist yet.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is past the last slot.
    pub fn slot_addr_on(&self, slot: u16, on: &swarm_fabric::Node) -> u64 {
        if (slot as usize) < self.owned_slots() {
            self.ring_base((slot / self.per_writer) as usize, || {
                on.alloc(self.ring_len(), 8)
            });
        }
        self.slot_addr(slot).expect("slot index past the last slot")
    }

    /// Base of `writer`'s ring, taken from `draw` if this is the first time
    /// anyone asks.
    fn ring_base(&self, writer: usize, draw: impl FnOnce() -> u64) -> u64 {
        let rings = self
            .rings
            .get_or_init(|| (0..self.max_writers).map(|_| Cell::new(NO_RING)).collect());
        let ring = &rings[writer];
        if ring.get() == NO_RING {
            ring.set(draw());
        }
        ring.get()
    }
}

/// Packs a stamp and slot into the 8 B metadata word.
fn meta_word(stamp: Stamp, slot: u16) -> u64 {
    (stamp.pack48() << 16) | slot as u64
}

fn word_stamp(word: u64) -> Stamp {
    Stamp::unpack48(word >> 16)
}

fn word_slot(word: u64) -> u16 {
    (word & 0xffff) as u16
}

/// A read reply of the length asked for. A short (or long) one is malformed
/// and counts as a dropped reply, like [`Endpoint::read`]'s mis-typed ones.
fn whole(reply: Option<Vec<u8>>, len: usize) -> Option<Vec<u8>> {
    reply.filter(|b| b.len() == len)
}

/// The CAS result of a `[write slot, CAS word]` series' reply; `None` — a
/// dropped reply — for a batch that is short or of the wrong kinds.
fn write_reply(reply: Vec<OpResult>) -> Option<u64> {
    reply.into_iter().nth(1)?.cas()
}

/// Client handle to one In-n-Out register replica.
pub struct InnOutReplica {
    inner: Rc<InnOutInner>,
}

impl Clone for InnOutReplica {
    fn clone(&self) -> Self {
        InnOutReplica {
            inner: Rc::clone(&self.inner),
        }
    }
}

struct InnOutInner {
    ep: Rc<Endpoint>,
    layout: InnOutLayout,
    /// Writer identity: selects the metadata buffer and slot partition.
    writer: usize,
    /// Whether `VERIFIED` writes also lazily store in-place data here (§6:
    /// only at one hash-designated replica per key).
    inplace_enabled: bool,
    /// Cached value of *our* metadata word (Algorithm 7's one-RTT trick).
    cached_meta: Cell<u64>,
    /// Next slot in this writer's partition, used round-robin.
    next_slot: Cell<u16>,
    /// Base of this writer's ring once this handle has written
    /// ([`NO_RING`] before): writes skip the layout's table.
    ring_base: Cell<u64>,
    rounds: Rounds,
    /// Statistics: in-place hits / out-of-place fallbacks (Fig. 9/12).
    inplace_hits: Cell<u64>,
    oop_fallbacks: Cell<u64>,
}

impl InnOutReplica {
    /// Creates a client handle for `writer` (0-based, `< max_writers`).
    pub fn new(
        ep: Rc<Endpoint>,
        layout: InnOutLayout,
        writer: usize,
        inplace_enabled: bool,
        rounds: Rounds,
    ) -> Self {
        assert!(writer < layout.max_writers);
        assert!(
            !inplace_enabled || layout.inplace,
            "in-place reads need a layout with the in-place region"
        );
        InnOutReplica {
            inner: Rc::new(InnOutInner {
                ep,
                layout,
                writer,
                inplace_enabled,
                cached_meta: Cell::new(0),
                next_slot: Cell::new(0),
                ring_base: Cell::new(NO_RING),
                rounds,
                inplace_hits: Cell::new(0),
                oop_fallbacks: Cell::new(0),
            }),
        }
    }

    /// `(in-place hits, out-of-place fallbacks)` observed by this handle.
    /// Unread until ROADMAP item 3's spans report which mechanism fired.
    pub fn read_stats(&self) -> (u64, u64) {
        (
            self.inner.inplace_hits.get(),
            self.inner.oop_fallbacks.get(),
        )
    }

    fn metadata_buf(&self) -> usize {
        self.inner.writer % self.inner.layout.meta_bufs
    }

    /// Takes the next slot of this writer's ring: its index (what the
    /// metadata word will carry) and its position in the ring.
    fn alloc_slot(&self) -> (u16, u16) {
        let per_writer = self.inner.layout.per_writer;
        let local = self.inner.next_slot.get();
        self.inner.next_slot.set((local + 1) % per_writer);
        (self.inner.writer as u16 * per_writer + local, local)
    }

    /// Address of position `local` of this writer's ring, drawing the ring
    /// if this writer never wrote this register here.
    fn ring_slot_addr(&self, local: u16) -> u64 {
        let inner = &self.inner;
        let mut base = inner.ring_base.get();
        if base == NO_RING {
            let l = &inner.layout;
            base = l.ring_base(inner.writer, || {
                inner.ep.fabric().node(l.node).alloc(l.ring_len(), 8)
            });
            inner.ring_base.set(base);
        }
        base + (local as usize * inner.layout.slot_len()) as u64
    }

    /// Builds the `[meta | hash | value]` out-of-place buffer. This is the
    /// one place a write's bytes are copied (the slot header is
    /// per-replica); the buffer is then `Rc`-shared through the fabric.
    fn encode_oop(&self, word: u64, v: &MVal) -> swarm_fabric::Payload {
        let l = &self.inner.layout;
        assert_eq!(v.value().len(), l.value_cap, "fixed-size register");
        let mut buf = Vec::with_capacity(OOP_HEADER + l.value_cap);
        buf.extend_from_slice(&word.to_le_bytes());
        buf.extend_from_slice(&bind_word(word, v.body_hash()).to_le_bytes());
        buf.extend_from_slice(v.value());
        buf.into()
    }

    /// Applies `MAX(meta_word_addr, word)` given that the out-of-place data
    /// for `word` was already pipelined in front of the first CAS.
    ///
    /// `expected` must be the exact comparand the first (pipelined) CAS used
    /// on the wire — *not* a fresh read of `cached_meta`, which concurrent
    /// reads of the same client may have advanced in the meantime (that
    /// would fake a "CAS applied" and lose the write).
    async fn max_meta(&self, first_cas_prev: u64, mut expected: u64, word: u64) {
        let inner = &self.inner;
        let addr = inner.layout.meta_word_addr(self.metadata_buf());
        let mut prev = first_cas_prev;
        // Algorithm 7: retry while the stored word is still below ours.
        while prev < word {
            if prev == expected {
                // Our CAS applied.
                inner.cached_meta.set(inner.cached_meta.get().max(word));
                return;
            }
            expected = prev;
            inner.rounds.bump();
            match inner.ep.cas(inner.layout.node, addr, expected, word).await {
                Some(p) => prev = p,
                None => std::future::pending().await,
            }
        }
        // Someone else already stored a higher word.
        inner.cached_meta.set(inner.cached_meta.get().max(prev));
    }

    /// Lazily writes the in-place copy (Algorithm 5 line 7): fire-and-forget.
    fn write_inplace_bg(&self, word: u64, v: &MVal) {
        let l = &self.inner.layout;
        let mut buf = Vec::with_capacity(l.value_cap + 8);
        buf.extend_from_slice(v.value());
        buf.extend_from_slice(&bind_word(word, v.body_hash()).to_le_bytes());
        drop(self.inner.ep.submit(
            l.node,
            vec![Op::Write {
                addr: l.inplace_addr(),
                data: buf.into(),
            }],
        ));
    }

    /// Splits a region read into the maximum metadata word and the in-place
    /// value, if there is one that validates under that word. The value
    /// keeps the read's allocation.
    fn parse_region(&self, mut bytes: Vec<u8>) -> (u64, Option<MVal>) {
        let l = &self.inner.layout;
        let mut max_word = 0u64;
        for b in 0..l.meta_bufs {
            let w = u64::from_le_bytes(bytes[b * 8..b * 8 + 8].try_into().unwrap());
            max_word = max_word.max(w);
        }
        let v_start = l.meta_bufs * 8;
        let v_end = v_start + l.value_cap;
        if bytes.len() < v_end + 8 {
            // Metadata-only read (no in-place data at this replica): callers
            // fall back to the pointer.
            return (max_word, None);
        }
        let hash = u64::from_le_bytes(bytes[v_end..v_end + 8].try_into().unwrap());
        let body = body_hash(&bytes[v_start..v_end]);
        if bind_word(max_word, body) != hash {
            return (max_word, None);
        }
        bytes.truncate(v_end);
        bytes.drain(..v_start);
        (
            max_word,
            Some(MVal::validated(word_stamp(max_word), bytes, body)),
        )
    }

    /// Reads the metadata array — plus the in-place data if this replica is
    /// designated to hold it (§6: in-place data lives at one replica only,
    /// so reads of the others move just `k × 8` bytes).
    async fn read_region(&self) -> (u64, Option<MVal>) {
        let inner = &self.inner;
        let l = &inner.layout;
        let len = if inner.inplace_enabled {
            l.read_len()
        } else {
            l.meta_bufs * 8
        };
        match whole(inner.ep.read(l.node, l.meta_addr, len).await, len) {
            Some(bytes) => {
                // Reads refresh the writer's metadata cache for free — with
                // *our own* buffer's word (the CAS comparand), never the
                // array maximum, which may belong to another writer's
                // buffer and would never match ours.
                let own = self.metadata_buf();
                let own_word = u64::from_le_bytes(bytes[own * 8..own * 8 + 8].try_into().unwrap());
                inner.cached_meta.set(inner.cached_meta.get().max(own_word));
                self.parse_region(bytes)
            }
            None => std::future::pending().await,
        }
    }

    /// Chases the out-of-place pointer of `word`, retrying through fresh
    /// metadata if the slot was recycled or torn mid-write. Returns a value
    /// whose stamp is `>=` `word`'s stamp (max-register semantics).
    async fn chase(&self, mut word: u64) -> MVal {
        let inner = &self.inner;
        let l = &inner.layout;
        loop {
            inner.rounds.bump();
            inner.oop_fallbacks.set(inner.oop_fallbacks.get() + 1);
            // A stored word names a slot that exists (module docs); one that
            // does not is handled like a torn slot.
            if let Some(addr) = l.slot_addr(word_slot(word)) {
                let len = l.slot_len();
                let mut bytes = match whole(inner.ep.read(l.node, addr, len).await, len) {
                    Some(b) => b,
                    None => std::future::pending().await,
                };
                let emb_word = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
                let emb_hash = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
                let body = body_hash(&bytes[OOP_HEADER..]);
                if emb_word >= word && bind_word(emb_word, body) == emb_hash {
                    // Valid (possibly newer, if the slot was recycled by a
                    // later write of the same writer — still a legal
                    // max-register result).
                    bytes.drain(..OOP_HEADER);
                    return MVal::validated(word_stamp(emb_word), bytes, body);
                }
            }
            // Torn or stale slot: the metadata must have moved on; re-read
            // it and chase the new maximum.
            let (new_word, value) = self.read_region().await;
            debug_assert!(new_word >= word);
            if word_stamp(new_word).is_tombstone() {
                return MVal::new(word_stamp(new_word), Vec::new());
            }
            if let Some(v) = value.filter(|_| new_word != 0) {
                return v;
            }
            word = new_word;
        }
    }
}

impl ReplicaClient for InnOutReplica {
    /// Algorithm 5: one pipelined roundtrip writes the out-of-place buffer
    /// and MAXes the metadata word; the in-place copy is written lazily.
    async fn write(self, v: MVal) {
        let inner = &self.inner;
        let l = &inner.layout;
        if v.stamp.is_tombstone() {
            // Deletes carry no payload: MAX the metadata word to the
            // all-ones tombstone in one CAS (§5.3.2).
            let word = meta_word(v.stamp, u16::MAX);
            let expected = inner.cached_meta.get();
            if expected >= word {
                return;
            }
            let prev = match inner
                .ep
                .cas(
                    l.node,
                    l.meta_word_addr(self.metadata_buf()),
                    expected,
                    word,
                )
                .await
            {
                Some(p) => p,
                None => std::future::pending().await,
            };
            self.max_meta(prev, expected, word).await;
            return;
        }
        let (slot, local) = self.alloc_slot();
        let word = meta_word(v.stamp, slot);
        let expected = inner.cached_meta.get();
        if expected >= word {
            // Already superseded at this replica: MAX is a no-op.
            return;
        }
        let series = vec![
            Op::Write {
                addr: self.ring_slot_addr(local),
                data: self.encode_oop(word, &v),
            },
            Op::Cas {
                addr: l.meta_word_addr(self.metadata_buf()),
                expected,
                new: word,
            },
        ];
        let reply = inner.ep.submit(l.node, series).await;
        let prev = match reply.and_then(write_reply) {
            Some(p) => p,
            None => std::future::pending().await,
        };
        self.max_meta(prev, expected, word).await;
        if v.stamp.verified && inner.inplace_enabled {
            self.write_inplace_bg(word, &v);
        }
    }

    /// Algorithm 6 + §4.4: one roundtrip fetches the metadata array and the
    /// in-place data; hash validation decides between returning in-place
    /// data and reporting stamp-only (the reliable layer may then `fetch`).
    async fn read(self) -> Snapshot {
        let (word, value) = self.read_region().await;
        if word == 0 {
            return Snapshot {
                stamp: Stamp::ZERO,
                token: 0,
                value: Some(MVal::initial()),
            };
        }
        let stamp = word_stamp(word);
        if stamp.is_tombstone() {
            return Snapshot {
                stamp,
                token: word,
                value: Some(MVal::new(stamp, Vec::new())),
            };
        }
        if value.is_some() {
            self.inner
                .inplace_hits
                .set(self.inner.inplace_hits.get() + 1);
        }
        Snapshot {
            stamp,
            token: word,
            value,
        }
    }

    async fn fetch(self, token: u64) -> MVal {
        if token == 0 {
            return MVal::initial();
        }
        if word_stamp(token).is_tombstone() {
            return MVal::new(word_stamp(token), Vec::new());
        }
        self.chase(token).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_fabric::{Fabric, FabricConfig};
    use swarm_sim::Sim;

    fn setup(seed: u64, meta_bufs: usize, cap: usize) -> (Sim, Fabric, InnOutLayout) {
        let sim = Sim::new(seed);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 1);
        let layout = InnOutLayout::allocate(&fabric, NodeId(0), meta_bufs, cap, 64, 8);
        (sim, fabric, layout)
    }

    fn replica(fabric: &Fabric, layout: &InnOutLayout, writer: usize) -> InnOutReplica {
        InnOutReplica::new(
            Rc::new(fabric.endpoint()),
            layout.clone(),
            writer,
            true,
            Rounds::new(),
        )
    }

    #[test]
    fn word_packing_orders_like_stamps() {
        let a = meta_word(Stamp::guessed(1, 0), 9);
        let b = meta_word(Stamp::verified(1, 0), 3);
        let c = meta_word(Stamp::guessed(2, 0), 0);
        assert!(a < b && b < c);
        assert_eq!(word_stamp(b), Stamp::verified(1, 0));
        assert_eq!(word_slot(a), 9);
    }

    #[test]
    fn empty_register_reads_initial() {
        let (sim, fabric, layout) = setup(1, 1, 64);
        let r = replica(&fabric, &layout, 0);
        let snap = sim.block_on(async move { r.read().await });
        assert_eq!(snap.stamp, Stamp::ZERO);
        assert_eq!(**snap.value.unwrap().value(), Vec::<u8>::new());
    }

    #[test]
    fn guessed_write_reads_back_via_oop() {
        // GUESSED writes skip the lazy in-place copy, so the first read
        // reports stamp-only and fetch() chases out of place.
        let (sim, fabric, layout) = setup(2, 1, 64);
        let w = replica(&fabric, &layout, 0);
        let r = replica(&fabric, &layout, 1);
        let v = MVal::new(Stamp::guessed(5, 0), vec![7u8; 64]);
        let got = sim.block_on(async move {
            w.write(v).await;
            let snap = r.clone().read().await;
            assert!(snap.value.is_none(), "no in-place copy for GUESSED");
            r.fetch(snap.token).await
        });
        assert_eq!(got.stamp, Stamp::guessed(5, 0));
        assert_eq!(**got.value(), vec![7u8; 64]);
    }

    #[test]
    fn verified_write_enables_inplace_hit() {
        let (sim, fabric, layout) = setup(3, 1, 64);
        let w = replica(&fabric, &layout, 0);
        let r = replica(&fabric, &layout, 1);
        let sim2 = sim.clone();
        let snap = sim.block_on(async move {
            w.write(MVal::new(Stamp::verified(5, 0), vec![9u8; 64]))
                .await;
            // Let the lazy in-place write land.
            sim2.sleep_ns(10_000).await;
            r.read().await
        });
        assert_eq!(snap.stamp, Stamp::verified(5, 0));
        assert_eq!(**snap.value.unwrap().value(), vec![9u8; 64]);
    }

    #[test]
    fn max_semantics_old_write_does_not_regress() {
        let (sim, fabric, layout) = setup(4, 1, 8);
        let w0 = replica(&fabric, &layout, 0);
        let w1 = replica(&fabric, &layout, 1);
        let r = replica(&fabric, &layout, 2);
        let got = sim.block_on(async move {
            w0.write(MVal::new(Stamp::verified(10, 0), vec![1u8; 8]))
                .await;
            w1.write(MVal::new(Stamp::verified(4, 1), vec![2u8; 8]))
                .await;
            let snap = r.clone().read().await;
            r.fetch(snap.token).await
        });
        assert_eq!(got.stamp, Stamp::verified(10, 0));
        assert_eq!(**got.value(), vec![1u8; 8]);
    }

    #[test]
    fn stale_cache_costs_extra_cas_rounds() {
        // Two writers share one metadata buffer: the second write's cached
        // expected value is stale, forcing a CAS retry (Fig. 13's story).
        let (sim, fabric, layout) = setup(5, 1, 8);
        let w0 = replica(&fabric, &layout, 0);
        let rounds1 = Rounds::new();
        let w1 = InnOutReplica::new(
            Rc::new(fabric.endpoint()),
            layout.clone(),
            1,
            true,
            rounds1.clone(),
        );
        sim.block_on(async move {
            w0.write(MVal::new(Stamp::verified(3, 0), vec![0u8; 8]))
                .await;
            w1.write(MVal::new(Stamp::verified(7, 1), vec![1u8; 8]))
                .await;
        });
        assert!(rounds1.get() >= 1, "stale-cache CAS retry not counted");
    }

    #[test]
    fn separate_meta_buffers_avoid_cas_retries() {
        let (sim, fabric, layout) = setup(6, 4, 8);
        let w0 = replica(&fabric, &layout, 0);
        let rounds1 = Rounds::new();
        let w1 = InnOutReplica::new(
            Rc::new(fabric.endpoint()),
            layout.clone(),
            1,
            true,
            rounds1.clone(),
        );
        let r = replica(&fabric, &layout, 2);
        let got = sim.block_on(async move {
            w0.write(MVal::new(Stamp::verified(3, 0), vec![0u8; 8]))
                .await;
            w1.write(MVal::new(Stamp::verified(7, 1), vec![1u8; 8]))
                .await;
            let snap = r.clone().read().await;
            r.fetch(snap.token).await
        });
        assert_eq!(rounds1.get(), 0, "dedicated buffer should not retry");
        assert_eq!(got.stamp, Stamp::verified(7, 1));
    }

    #[test]
    fn stale_inplace_from_older_write_fails_validation() {
        // Writer A (verified) populates in-place; writer B (guessed, higher
        // stamp) supersedes it. Readers must not return A's bytes for B's
        // stamp: validation fails and the reliable layer fetches.
        let (sim, fabric, layout) = setup(7, 2, 16);
        let a = replica(&fabric, &layout, 0);
        let b = replica(&fabric, &layout, 1);
        let r = replica(&fabric, &layout, 2);
        let sim2 = sim.clone();
        let (snap, fetched) = sim.block_on(async move {
            a.write(MVal::new(Stamp::verified(5, 0), vec![0xA; 16]))
                .await;
            sim2.sleep_ns(10_000).await;
            b.write(MVal::new(Stamp::guessed(9, 1), vec![0xB; 16]))
                .await;
            let snap = r.clone().read().await;
            let f = r.fetch(snap.token).await;
            (snap, f)
        });
        assert_eq!(snap.stamp, Stamp::guessed(9, 1));
        assert!(snap.value.is_none(), "returned stale in-place bytes");
        assert_eq!(**fetched.value(), vec![0xB; 16]);
    }

    #[test]
    fn slot_ring_wraps_per_writer() {
        let (sim, fabric, layout) = setup(8, 1, 8);
        let w = replica(&fabric, &layout, 3);
        // 64 slots / 8 writers = 8 per writer; 20 writes wrap the ring.
        let r = replica(&fabric, &layout, 0);
        let got = sim.block_on(async move {
            for i in 1..=20u64 {
                w.clone()
                    .write(MVal::new(Stamp::verified(i, 3), vec![i as u8; 8]))
                    .await;
            }
            let snap = r.clone().read().await;
            r.fetch(snap.token).await
        });
        assert_eq!(got.stamp, Stamp::verified(20, 3));
        assert_eq!(**got.value(), vec![20u8; 8]);
        // The 20th write took position 19 % 8 of writer 3's ring.
        let slot = layout.slot_addr(3 * 8 + 3).expect("writer 3 drew its ring");
        let bytes = fabric.node(NodeId(0)).mem().read(slot + 16, 8);
        assert_eq!(bytes, vec![20u8; 8]);
    }

    /// A register with one unowned slot (index 8) that a loader filled:
    /// `[word | hash | value]` there, metadata word 0 pointing at it.
    fn loaded(seed: u64) -> (Sim, Fabric, InnOutLayout) {
        let sim = Sim::new(seed);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 1);
        let node = fabric.node(NodeId(0));
        let layout = InnOutLayout::allocate_replica_on(&node, NodeId(0), 4, 8, 9, 4, false);
        let word = meta_word(Stamp::verified(1, 254), 8);
        let value = [5u8; 8];
        let slot = layout.slot_addr(8).expect("slot 8 is unowned");
        node.mem().write_u64(slot, word);
        node.mem()
            .write_u64(slot + 8, bind_word(word, body_hash(&value)));
        node.mem().write(slot + 16, &value);
        node.mem().write_u64(layout.meta_addr, word);
        (sim, fabric, layout)
    }

    fn oop_replica(fabric: &Fabric, layout: &InnOutLayout, writer: usize) -> InnOutReplica {
        InnOutReplica::new(
            Rc::new(fabric.endpoint()),
            layout.clone(),
            writer,
            false,
            Rounds::new(),
        )
    }

    #[test]
    fn never_written_register_draws_no_ring() {
        let (sim, fabric, layout) = loaded(9);
        let node = fabric.node(NodeId(0));
        assert_eq!(node.allocated_bytes(), layout.hot_len());
        assert_eq!(layout.hot_len(), 4 * 8 + 24, "metadata + the unowned slot");
        let readers: Vec<_> = (0..4).map(|w| oop_replica(&fabric, &layout, w)).collect();
        sim.block_on(async move {
            for r in readers {
                let snap = r.clone().read().await;
                assert!(snap.value.is_none(), "no in-place region here");
                let got = r.fetch(snap.token).await;
                assert_eq!(got.stamp, Stamp::verified(1, 254));
                assert_eq!(**got.value(), vec![5u8; 8]);
            }
        });
        assert_eq!(
            node.allocated_bytes(),
            layout.hot_len(),
            "reads drew memory"
        );
        assert!(layout.rings.get().is_none(), "no per-writer array either");
        assert!((0..8).all(|s| layout.slot_addr(s).is_none()));
        assert!(layout.slot_addr(9).is_none(), "past the last slot");
    }

    #[test]
    fn first_write_draws_one_ring_and_later_writes_recycle_it() {
        let (sim, fabric, layout) = loaded(10);
        let node = fabric.node(NodeId(0));
        let w = oop_replica(&fabric, &layout, 2);
        let before = node.allocated_bytes();
        let w2 = w.clone();
        sim.block_on(async move {
            w2.write(MVal::new(Stamp::verified(2, 2), vec![2u8; 8]))
                .await
        });
        assert_eq!(layout.ring_len(), 2 * 24);
        assert_eq!(node.allocated_bytes(), before + layout.ring_len());
        let ring = layout.slot_addr(4).expect("writer 2's ring exists");
        assert_eq!(ring, before, "bump-allocated behind what existed");
        assert_eq!(layout.slot_addr(5), Some(ring + 24));
        assert!(layout.slot_addr(3).is_none() && layout.slot_addr(6).is_none());
        // per_writer + 1 more writes wrap the ring without drawing again.
        let w2 = w.clone();
        sim.block_on(async move {
            for i in 3..=5u64 {
                w2.clone()
                    .write(MVal::new(Stamp::verified(i, 2), vec![i as u8; 8]))
                    .await;
            }
        });
        assert_eq!(node.allocated_bytes(), before + layout.ring_len());
        // Writes 2..=5 took positions 0, 1, 0, 1.
        assert_eq!(node.mem().read(ring + 16, 8), vec![4u8; 8]);
        assert_eq!(node.mem().read(ring + 24 + 16, 8), vec![5u8; 8]);
    }

    #[test]
    fn a_second_handle_and_a_foreign_reader_find_the_ring() {
        let (sim, fabric, layout) = loaded(11);
        let node = fabric.node(NodeId(0));
        let first = oop_replica(&fabric, &layout, 1);
        sim.block_on(async move {
            first
                .write(MVal::new(Stamp::verified(2, 1), vec![2u8; 8]))
                .await
        });
        let drawn = node.allocated_bytes();
        // A handle rebuilt for the same writer from another clone of the
        // layout starts its ring position over, in the same ring.
        let again = oop_replica(&fabric, &layout.clone(), 1);
        let reader = oop_replica(&fabric, &layout, 3);
        let got = sim.block_on(async move {
            again
                .write(MVal::new(Stamp::guessed(3, 1), vec![3u8; 8]))
                .await;
            let snap = reader.clone().read().await;
            reader.fetch(snap.token).await
        });
        assert_eq!(node.allocated_bytes(), drawn, "the ring is reused");
        assert_eq!(got.stamp, Stamp::guessed(3, 1));
        assert_eq!(**got.value(), vec![3u8; 8]);
        let ring = layout.slot_addr(2).expect("writer 1's ring");
        assert_eq!(node.mem().read(ring + 16, 8), vec![3u8; 8]);
    }

    #[test]
    fn control_plane_writer_draws_an_owned_slots_ring() {
        // One writer: its ring takes in every slot, a loader's included.
        let sim = Sim::new(12);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 1);
        let node = fabric.node(NodeId(0));
        let layout = InnOutLayout::allocate_on(&node, NodeId(0), 1, 8, 3, 1);
        assert_eq!(layout.hot_len(), 8 + 8 + 8);
        assert!(layout.slot_addr(2).is_none());
        let addr = layout.slot_addr_on(2, &node);
        assert_eq!(addr, layout.meta_addr + layout.hot_len() + 2 * 24);
        assert_eq!(layout.slot_addr_on(2, &node), addr, "drawn once");
        assert_eq!(node.allocated_bytes(), layout.hot_len() + layout.ring_len());
        // The writer's own handle finds that ring.
        let w = replica(&fabric, &layout, 0);
        sim.block_on(async move {
            w.write(MVal::new(Stamp::verified(1, 0), vec![1u8; 8]))
                .await
        });
        assert_eq!(node.allocated_bytes(), layout.hot_len() + layout.ring_len());
        assert_eq!(node.mem().read(addr - 2 * 24 + 16, 8), vec![1u8; 8]);
    }

    #[test]
    fn rings_and_hot_regions_never_overlap() {
        let sim = Sim::new(13);
        for meta_bufs in [1, 3, 4] {
            for value_cap in [1, 8, 13, 64] {
                for (oop_slots, max_writers) in [(4, 4), (9, 4), (11, 4), (7, 2), (3, 1), (16, 5)] {
                    let fabric = Fabric::new(&sim, FabricConfig::default(), 1);
                    let node = fabric.node(NodeId(0));
                    let alloc = |inplace| {
                        InnOutLayout::allocate_replica_on(
                            &node,
                            NodeId(0),
                            meta_bufs,
                            value_cap,
                            oop_slots,
                            max_writers,
                            inplace,
                        )
                    };
                    let layouts = [alloc(true), alloc(false)];
                    // Regions as (start, end): each hot region, then every
                    // ring, drawn in an order that interleaves the registers.
                    let mut regions: Vec<(u64, u64)> = layouts
                        .iter()
                        .map(|l| (l.meta_addr, l.meta_addr + l.hot_len()))
                        .collect();
                    let slot_len = (OOP_HEADER + value_cap) as u64;
                    let per_writer = oop_slots / max_writers;
                    for w in (0..max_writers).rev() {
                        for l in &layouts {
                            let base = l.slot_addr_on((w * per_writer) as u16, &node);
                            regions.push((base, base + l.ring_len()));
                            assert_eq!(l.ring_len(), per_writer as u64 * slot_len);
                        }
                    }
                    let case = format!("k={meta_bufs} cap={value_cap} {oop_slots}/{max_writers}");
                    regions.sort();
                    assert_eq!(regions.last().unwrap().1, node.allocated_bytes());
                    for pair in regions.windows(2) {
                        assert!(pair[0].1 <= pair[1].0, "{case}: {pair:?} overlap");
                    }
                    for (i, l) in layouts.iter().enumerate() {
                        // Every slot lies whole inside its owner: writer w's
                        // ring, or the hot region past what a reader reads.
                        let read_end = l.meta_addr
                            + (meta_bufs * 8 + if i == 0 { value_cap + 8 } else { 0 }) as u64;
                        let mut seen = Vec::new();
                        for slot in 0..oop_slots {
                            let at = l.slot_addr(slot as u16).expect("all rings drawn");
                            let (lo, hi) = if slot < per_writer * max_writers {
                                let ring = l.slot_addr(((slot / per_writer) * per_writer) as u16);
                                (ring.unwrap(), ring.unwrap() + l.ring_len())
                            } else {
                                (read_end, l.meta_addr + l.hot_len())
                            };
                            assert!(lo <= at && at + slot_len <= hi, "{case}: slot {slot}");
                            seen.push(at);
                        }
                        seen.sort();
                        assert!(
                            seen.windows(2).all(|p| p[0] + slot_len <= p[1]),
                            "{case}: slots of one register overlap"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "in-place reads need a layout with the in-place region")]
    fn inplace_handle_needs_the_inplace_region() {
        let sim = Sim::new(14);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 1);
        let node = fabric.node(NodeId(0));
        let layout = InnOutLayout::allocate_replica_on(&node, NodeId(0), 1, 8, 4, 4, false);
        replica(&fabric, &layout, 0);
    }

    /// The malformed-reply contract of `Endpoint::read`/`cas` extended to
    /// the two replies this module takes apart itself: a short read and a
    /// write series' reply that is empty, short or of the wrong kinds are
    /// dropped replies, not panics.
    #[test]
    fn malformed_replies_are_dropped_not_panics() {
        assert_eq!(whole(None, 8), None);
        assert_eq!(whole(Some(Vec::new()), 8), None);
        assert_eq!(whole(Some(vec![0; 7]), 8), None);
        assert_eq!(whole(Some(vec![0; 9]), 8), None);
        assert_eq!(whole(Some(vec![1; 8]), 8), Some(vec![1; 8]));
        assert_eq!(write_reply(Vec::new()), None);
        assert_eq!(write_reply(vec![OpResult::Write]), None);
        assert_eq!(write_reply(vec![OpResult::Cas(3)]), None);
        assert_eq!(write_reply(vec![OpResult::Write, OpResult::Write]), None);
        assert_eq!(
            write_reply(vec![OpResult::Write, OpResult::Read(vec![1])]),
            None
        );
        assert_eq!(
            write_reply(vec![OpResult::Write, OpResult::Cas(9)]),
            Some(9)
        );
    }
}

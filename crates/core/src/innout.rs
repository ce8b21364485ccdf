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
//!                                            // at replica 0 only (§6)
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
//! nobody wrote does not exist. Its base is recorded in the register's
//! [`InnOutLayout`], which every client shares: whoever reads a metadata
//! word finds the slot it names, and only writes allocate — a word is CASed
//! after its slot write was posted in the same FIFO series, by when the ring
//! is in the table.
//!
//! Each piece of state lives once, with one owner per lifetime: the shape
//! ([`InnOutShape`]) per store, the addresses and rings ([`InnOutLayout`])
//! per register, the endpoint and quorum state ([`InnOutClient`]) per
//! client, and only what a client learns about one register — per replica
//! its cached metadata word, next ring position and highest stored stamp —
//! in that client's [`InnOutHandle`].
//!
//! A write fills a fresh out-of-place slot and MAXes its metadata word in a
//! single pipelined roundtrip (Algorithm 5); the MAX is emulated with CAS
//! and a client-side cache of the word (Algorithm 7). Readers fetch the
//! metadata array + in-place data in one roundtrip and validate the in-place
//! bytes against the hash, falling back to the out-of-place buffer only when
//! validation fails (Algorithm 6).

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::{Rc, Weak};

use swarm_fabric::{Endpoint, Fabric, NodeId, Op, OpResult, Payload};

use crate::hash::{bind_word, body_hash};
use crate::stamp::Stamp;
use crate::traits::{QuorumClient, ReplicaClient, ReplicaSet, Snapshot};
use crate::value::MVal;

/// The shape every In-n-Out register of one store shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InnOutShape {
    /// Number of 8 B metadata words (`k` of §4.4; 1 = the basic scheme).
    pub meta_bufs: usize,
    /// Fixed value size in bytes.
    pub value_cap: usize,
    /// Total out-of-place slots (partitioned evenly among writers).
    pub oop_slots: usize,
    /// Maximum number of writer clients (determines slot partitioning).
    pub max_writers: usize,
    /// Slots in one writer's ring.
    per_writer: u16,
}

/// Per-slot header: embedded metadata word + hash.
const OOP_HEADER: usize = 16;

/// A ring base that is no address: the ring has not been drawn.
const NO_RING: u64 = u64::MAX;

impl InnOutShape {
    /// The shape of registers with `meta_bufs` metadata words, values of
    /// `value_cap` bytes and `oop_slots` out-of-place slots shared by
    /// `max_writers` writers.
    pub fn new(meta_bufs: usize, value_cap: usize, oop_slots: usize, max_writers: usize) -> Self {
        assert!(oop_slots >= max_writers, "need >= 1 slot per writer");
        assert!(oop_slots <= 1 << 16, "slot index must fit 16 bits");
        InnOutShape {
            meta_bufs,
            value_cap,
            oop_slots,
            max_writers,
            per_writer: (oop_slots / max_writers) as u16,
        }
    }

    /// Bytes of node memory one writer's ring takes when it is drawn.
    pub fn ring_len(&self) -> u64 {
        (self.per_writer as usize * self.slot_len()) as u64
    }

    /// Bytes of node memory allocated with a replica (its hot region);
    /// `inplace` for replica 0, which has the in-place region.
    pub fn hot_len(&self, inplace: bool) -> u64 {
        self.unowned_offset(inplace)
            + ((self.oop_slots - self.owned_slots()) * self.slot_len()) as u64
    }

    /// Length of the one READ that fetches everything readable in place.
    fn read_len(&self, inplace: bool) -> usize {
        self.meta_bufs * 8 + if inplace { self.value_cap + 8 } else { 0 }
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
    fn unowned_offset(&self, inplace: bool) -> u64 {
        (self.read_len(inplace) as u64).next_multiple_of(8)
    }
}

/// Where one In-n-Out register lives: per replica its node and the base of
/// its hot region, and the writer rings drawn so far. Every client of the
/// register shares one; replica 0 alone has the in-place region (§6).
#[derive(Debug)]
pub struct InnOutLayout {
    /// `(node, meta_addr)` of each replica.
    replicas: Box<[(NodeId, u64)]>,
    /// Base of writer `w`'s ring at replica `r` at `r × max_writers + w`,
    /// [`NO_RING`] until drawn; the table itself appears with the
    /// register's first ring.
    rings: OnceCell<Box<[Cell<u64>]>>,
}

impl AsRef<InnOutLayout> for InnOutLayout {
    fn as_ref(&self) -> &InnOutLayout {
        self
    }
}

impl InnOutLayout {
    /// Allocates a register of `shape` with one replica on each of `nodes`,
    /// in that order.
    pub fn allocate(fabric: &Fabric, shape: &InnOutShape, nodes: &[NodeId]) -> InnOutLayout {
        let replicas = nodes
            .iter()
            .enumerate()
            .map(|(r, &n)| (n, fabric.node(n).alloc(shape.hot_len(r == 0), 8)))
            .collect();
        InnOutLayout {
            replicas,
            rings: OnceCell::new(),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Node hosting replica `r`.
    pub fn node(&self, r: usize) -> NodeId {
        self.replicas[r].0
    }

    /// Base of replica `r`'s metadata array (the in-place region, at
    /// replica 0, follows contiguously).
    pub fn meta_addr(&self, r: usize) -> u64 {
        self.replicas[r].1
    }

    /// Address of the in-place region `[value | hash]` at replica 0.
    pub fn inplace_addr(&self, shape: &InnOutShape) -> u64 {
        self.meta_addr(0) + (shape.meta_bufs * 8) as u64
    }

    /// Address of out-of-place slot `slot` at replica `r`: in the hot
    /// region if no writer owns it, else in its writer's ring. `None` if
    /// that ring has not been drawn (or the index is past the last slot):
    /// nothing was ever written there, so no metadata word names it.
    pub fn slot_addr(&self, shape: &InnOutShape, r: usize, slot: u16) -> Option<u64> {
        let owned = shape.owned_slots();
        let (base, local) = if (slot as usize) < owned {
            let writer = (slot / shape.per_writer) as usize;
            let base = self.rings.get()?[r * shape.max_writers + writer].get();
            if base == NO_RING {
                return None;
            }
            (base, (slot % shape.per_writer) as usize)
        } else if (slot as usize) < shape.oop_slots {
            let unowned = self.meta_addr(r) + shape.unowned_offset(r == 0);
            (unowned, slot as usize - owned)
        } else {
            return None;
        };
        Some(base + (local * shape.slot_len()) as u64)
    }

    /// [`InnOutLayout::slot_addr`] for a control-plane writer that pokes node
    /// memory itself (`on` must be replica `r`'s node): if a writer owns
    /// `slot`, its ring is drawn when it does not exist yet.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is past the last slot.
    pub fn slot_addr_on(
        &self,
        shape: &InnOutShape,
        r: usize,
        slot: u16,
        on: &swarm_fabric::Node,
    ) -> u64 {
        if (slot as usize) < shape.owned_slots() {
            let writer = (slot / shape.per_writer) as usize;
            self.ring_base(shape, r, writer, || on.alloc(shape.ring_len(), 8));
        }
        self.slot_addr(shape, r, slot)
            .expect("slot index past the last slot")
    }

    /// Base of `writer`'s ring at replica `r`, taken from `draw` if this is
    /// the first time anyone asks.
    fn ring_base(
        &self,
        shape: &InnOutShape,
        r: usize,
        writer: usize,
        draw: impl FnOnce() -> u64,
    ) -> u64 {
        let rings = self.rings.get_or_init(|| {
            let n = self.replicas.len() * shape.max_writers;
            (0..n).map(|_| Cell::new(NO_RING)).collect()
        });
        let ring = &rings[r * shape.max_writers + writer];
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

/// What every In-n-Out register handle of one client shares: its quorum
/// state, endpoint and writer identity, the store's register shape, and
/// what its reads observed.
pub struct InnOutClient {
    /// Quorum state of the client's reliable registers.
    pub quorum: QuorumClient,
    /// The client's endpoint.
    pub ep: Rc<Endpoint>,
    /// Writer identity: selects the metadata buffer and slot partition
    /// (must be `< shape.max_writers` to write).
    pub writer: usize,
    /// Replica every register of this client contacts first (SWARM-KV
    /// uses 0, so a majority read includes the in-place replica).
    pub rotation: usize,
    /// The store's register shape.
    pub shape: InnOutShape,
    /// Whether `VERIFIED` writes also lazily store in-place data at
    /// replica 0, and reads there fetch it (§6).
    pub inplace: bool,
    /// Reads answered in place / payload chases (Fig. 9/12).
    inplace_hits: Cell<u64>,
    oop_fallbacks: Cell<u64>,
    /// The last out-of-place image this client built, for the next replica
    /// whose metadata word agrees ([`InnOutReplica::encode_oop`]).
    last_image: RefCell<Option<OopImage>>,
}

/// An out-of-place image `[word | hash | value]` and what it was built of.
struct OopImage {
    word: u64,
    /// The value's buffer; a weak reference keeps its address from being
    /// reused by another value while this is cached.
    value: Weak<Vec<u8>>,
    image: Payload,
}

impl InnOutClient {
    /// The client state of writer `writer`, contacting replicas in an
    /// order rotated by `rotation` (construction draws nothing and
    /// schedules nothing).
    pub fn new(
        quorum: QuorumClient,
        ep: Rc<Endpoint>,
        writer: usize,
        rotation: usize,
        shape: InnOutShape,
        inplace: bool,
    ) -> Rc<Self> {
        Rc::new(InnOutClient {
            quorum,
            ep,
            writer,
            rotation,
            shape,
            inplace,
            inplace_hits: Cell::new(0),
            oop_fallbacks: Cell::new(0),
            last_image: RefCell::new(None),
        })
    }

    /// `(in-place hits, out-of-place fallbacks)` over all of this client's
    /// reads. Unread until ROADMAP item 4's registry reports which
    /// mechanism fired.
    pub fn read_stats(&self) -> (u64, u64) {
        (self.inplace_hits.get(), self.oop_fallbacks.get())
    }
}

/// What one client learned about one replica of one register.
struct ReplicaWords {
    /// Cached value of *our* metadata word (Algorithm 7's one-RTT trick).
    cached_meta: Cell<u64>,
    /// Highest stamp known stored here (Algorithm 8's cache), packed.
    stored: Cell<u64>,
    /// Next slot in this writer's partition, used round-robin.
    next_slot: Cell<u16>,
}

/// One client's handle on one register: the register's layout `K` (an
/// [`InnOutLayout`] or a record holding one), the client, and per replica
/// what this client learned there. A handle rebuilt after an eviction
/// starts from zeroed words, and construction draws nothing and schedules
/// nothing. The [`crate::ReliableMaxReg`] over it and every replica future
/// share it.
pub struct InnOutHandle<K = InnOutLayout> {
    client: Rc<InnOutClient>,
    key: Rc<K>,
    words: Box<[ReplicaWords]>,
}

impl<K: AsRef<InnOutLayout>> InnOutHandle<K> {
    /// `client`'s handle on the register `key` lays out.
    pub fn new(client: &Rc<InnOutClient>, key: Rc<K>) -> Rc<Self> {
        let words = (0..(*key).as_ref().replicas())
            .map(|_| ReplicaWords {
                cached_meta: Cell::new(0),
                stored: Cell::new(Stamp::ZERO.pack48()),
                next_slot: Cell::new(0),
            })
            .collect();
        Rc::new(InnOutHandle {
            client: Rc::clone(client),
            key,
            words,
        })
    }

    /// The register's record.
    pub fn key(&self) -> &K {
        &self.key
    }

    fn layout(&self) -> &InnOutLayout {
        (*self.key).as_ref()
    }
}

impl<K: AsRef<InnOutLayout> + 'static> ReplicaSet<InnOutReplica<K>> for InnOutHandle<K> {
    fn quorum(&self) -> &QuorumClient {
        &self.client.quorum
    }

    fn len(&self) -> usize {
        self.words.len()
    }

    fn node(&self, i: usize) -> usize {
        self.layout().node(i).0
    }

    fn rotation(&self) -> usize {
        self.client.rotation
    }

    fn replica(this: &Rc<Self>, i: usize) -> InnOutReplica<K> {
        InnOutReplica {
            h: Rc::clone(this),
            r: i,
        }
    }

    fn stored(&self, i: usize) -> Stamp {
        Stamp::unpack48(self.words[i].stored.get())
    }

    fn note_stored(&self, i: usize, stamp: Stamp) {
        let stored = &self.words[i].stored;
        stored.set(stored.get().max(stamp.pack48()));
    }
}

/// Client handle to one replica of an In-n-Out register.
pub struct InnOutReplica<K = InnOutLayout> {
    h: Rc<InnOutHandle<K>>,
    r: usize,
}

impl<K> Clone for InnOutReplica<K> {
    fn clone(&self) -> Self {
        InnOutReplica {
            h: Rc::clone(&self.h),
            r: self.r,
        }
    }
}

impl<K: AsRef<InnOutLayout>> InnOutReplica<K> {
    fn client(&self) -> &InnOutClient {
        &self.h.client
    }

    fn shape(&self) -> &InnOutShape {
        &self.h.client.shape
    }

    fn layout(&self) -> &InnOutLayout {
        self.h.layout()
    }

    fn words(&self) -> &ReplicaWords {
        &self.h.words[self.r]
    }

    fn node(&self) -> NodeId {
        self.layout().node(self.r)
    }

    /// Whether reads here fetch — and `VERIFIED` writes lazily store — the
    /// in-place data (§6: only at the designated replica 0).
    fn inplace_enabled(&self) -> bool {
        self.r == 0 && self.client().inplace
    }

    fn metadata_buf(&self) -> usize {
        self.client().writer % self.shape().meta_bufs
    }

    fn meta_word_addr(&self) -> u64 {
        self.layout().meta_addr(self.r) + (self.metadata_buf() * 8) as u64
    }

    /// Takes the next slot of this writer's ring: its index (what the
    /// metadata word will carry) and its position in the ring.
    fn alloc_slot(&self) -> (u16, u16) {
        let per_writer = self.shape().per_writer;
        let next = &self.words().next_slot;
        let local = next.get();
        next.set((local + 1) % per_writer);
        (self.client().writer as u16 * per_writer + local, local)
    }

    /// Address of position `local` of this writer's ring, drawing the ring
    /// if this writer never wrote this register here.
    fn ring_slot_addr(&self, local: u16) -> u64 {
        let (c, shape) = (self.client(), self.shape());
        let base = self.layout().ring_base(shape, self.r, c.writer, || {
            c.ep.fabric().node(self.node()).alloc(shape.ring_len(), 8)
        });
        base + (local as usize * shape.slot_len()) as u64
    }

    /// The `[meta | hash | value]` out-of-place buffer. This is the one
    /// place a write's bytes are copied, once per metadata word: the image
    /// is a function of the word and the value, so replicas whose words
    /// agree get the client's last image, which the fabric and node memory
    /// then share (`swarm_fabric::NodeMemory`, *Shared runs*).
    fn encode_oop(&self, word: u64, v: &MVal) -> Payload {
        let mut last = self.client().last_image.borrow_mut();
        if let Some(built) = last
            .as_ref()
            .filter(|b| b.word == word && b.value.as_ptr() == Rc::as_ptr(v.value()))
        {
            return Rc::clone(&built.image);
        }
        let cap = self.shape().value_cap;
        assert_eq!(v.value().len(), cap, "fixed-size register");
        let mut buf = Vec::with_capacity(OOP_HEADER + cap);
        buf.extend_from_slice(&word.to_le_bytes());
        buf.extend_from_slice(&bind_word(word, v.body_hash()).to_le_bytes());
        buf.extend_from_slice(v.value());
        let image = Payload::new(buf);
        *last = Some(OopImage {
            word,
            value: Rc::downgrade(v.value()),
            image: Rc::clone(&image),
        });
        image
    }

    /// Applies `MAX(meta_word_addr, word)` given that the out-of-place data
    /// for `word` was already pipelined in front of the first CAS.
    ///
    /// `expected` must be the exact comparand the first (pipelined) CAS used
    /// on the wire — *not* a fresh read of `cached_meta`, which concurrent
    /// reads of the same client may have advanced in the meantime (that
    /// would fake a "CAS applied" and lose the write).
    async fn max_meta(&self, first_cas_prev: u64, mut expected: u64, word: u64) {
        let c = self.client();
        let cached = &self.words().cached_meta;
        let addr = self.meta_word_addr();
        let mut prev = first_cas_prev;
        // Algorithm 7: retry while the stored word is still below ours.
        while prev < word {
            if prev == expected {
                // Our CAS applied.
                cached.set(cached.get().max(word));
                return;
            }
            expected = prev;
            c.quorum.rounds.bump();
            match c.ep.cas(self.node(), addr, expected, word).await {
                Some(p) => prev = p,
                None => std::future::pending().await,
            }
        }
        // Someone else already stored a higher word.
        cached.set(cached.get().max(prev));
    }

    /// Lazily writes the in-place copy (Algorithm 5 line 7): fire-and-forget.
    fn write_inplace_bg(&self, word: u64, v: &MVal) {
        let mut buf = Vec::with_capacity(self.shape().value_cap + 8);
        buf.extend_from_slice(v.value());
        buf.extend_from_slice(&bind_word(word, v.body_hash()).to_le_bytes());
        drop(self.client().ep.submit(
            self.node(),
            vec![Op::Write {
                addr: self.layout().inplace_addr(self.shape()),
                data: buf.into(),
            }],
        ));
    }

    /// Splits a region read into the maximum metadata word and the in-place
    /// value, if there is one that validates under that word. The value
    /// keeps the read's allocation.
    fn parse_region(&self, mut bytes: Vec<u8>) -> (u64, Option<MVal>) {
        let shape = self.shape();
        let mut max_word = 0u64;
        for b in 0..shape.meta_bufs {
            let w = u64::from_le_bytes(bytes[b * 8..b * 8 + 8].try_into().unwrap());
            max_word = max_word.max(w);
        }
        let v_start = shape.meta_bufs * 8;
        let v_end = v_start + shape.value_cap;
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
        let c = self.client();
        let len = self.shape().read_len(self.inplace_enabled());
        let addr = self.layout().meta_addr(self.r);
        match whole(c.ep.read(self.node(), addr, len).await, len) {
            Some(bytes) => {
                // Reads refresh the writer's metadata cache for free — with
                // *our own* buffer's word (the CAS comparand), never the
                // array maximum, which may belong to another writer's
                // buffer and would never match ours.
                let own = self.metadata_buf();
                let own_word = u64::from_le_bytes(bytes[own * 8..own * 8 + 8].try_into().unwrap());
                let cached = &self.words().cached_meta;
                cached.set(cached.get().max(own_word));
                self.parse_region(bytes)
            }
            None => std::future::pending().await,
        }
    }

    /// Chases the out-of-place pointer of `word`, retrying through fresh
    /// metadata if the slot was recycled or torn mid-write. Returns a value
    /// whose stamp is `>=` `word`'s stamp (max-register semantics).
    async fn chase(&self, mut word: u64) -> MVal {
        let (c, shape) = (self.client(), self.shape());
        loop {
            c.quorum.rounds.bump();
            c.oop_fallbacks.set(c.oop_fallbacks.get() + 1);
            // A stored word names a slot that exists (module docs); one that
            // does not is handled like a torn slot.
            if let Some(addr) = self.layout().slot_addr(shape, self.r, word_slot(word)) {
                let len = shape.slot_len();
                let mut bytes = match whole(c.ep.read(self.node(), addr, len).await, len) {
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
                return MVal::tombstone();
            }
            if let Some(v) = value.filter(|_| new_word != 0) {
                return v;
            }
            word = new_word;
        }
    }
}

impl<K: AsRef<InnOutLayout> + 'static> ReplicaClient for InnOutReplica<K> {
    type Set = InnOutHandle<K>;

    /// Algorithm 5: one pipelined roundtrip writes the out-of-place buffer
    /// and MAXes the metadata word; the in-place copy is written lazily.
    async fn write(self, v: MVal) {
        let c = self.client();
        let cached = &self.words().cached_meta;
        if v.stamp.is_tombstone() {
            // Deletes carry no payload: MAX the metadata word to the
            // all-ones tombstone in one CAS (§5.3.2).
            let word = meta_word(v.stamp, u16::MAX);
            let expected = cached.get();
            if expected >= word {
                return;
            }
            let prev = match c
                .ep
                .cas(self.node(), self.meta_word_addr(), expected, word)
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
        let expected = cached.get();
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
                addr: self.meta_word_addr(),
                expected,
                new: word,
            },
        ];
        let reply = c.ep.submit(self.node(), series).await;
        let prev = match reply.and_then(write_reply) {
            Some(p) => p,
            None => std::future::pending().await,
        };
        self.max_meta(prev, expected, word).await;
        if v.stamp.verified && self.inplace_enabled() {
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
                value: Some(MVal::tombstone()),
            };
        }
        if value.is_some() {
            let hits = &self.client().inplace_hits;
            hits.set(hits.get() + 1);
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
            return MVal::tombstone();
        }
        self.chase(token).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{NodeHealth, QuorumConfig, Rounds};
    use swarm_fabric::FabricConfig;
    use swarm_sim::Sim;

    /// One replica on node 0 of a 1-node fabric: 64 slots for 8 writers.
    fn setup(seed: u64, meta_bufs: usize, cap: usize) -> (Sim, Fabric, Rc<InnOutLayout>) {
        let sim = Sim::new(seed);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 1);
        let shape = InnOutShape::new(meta_bufs, cap, 64, 8);
        let layout = InnOutLayout::allocate(&fabric, &shape, &[NodeId(0)]);
        (sim, fabric, Rc::new(layout))
    }

    /// Writer `writer`'s client, counting into `rounds`.
    fn client(
        fabric: &Fabric,
        shape: InnOutShape,
        writer: usize,
        inplace: bool,
        rounds: Rounds,
    ) -> Rc<InnOutClient> {
        let health = NodeHealth::new(fabric.num_nodes());
        let quorum = QuorumClient::new(fabric.sim(), health, QuorumConfig::default(), rounds, None);
        InnOutClient::new(
            quorum,
            Rc::new(fabric.endpoint()),
            writer,
            0,
            shape,
            inplace,
        )
    }

    /// Replica 0 of a fresh handle of `client` on `layout`.
    fn replica_of(client: &Rc<InnOutClient>, layout: &Rc<InnOutLayout>) -> InnOutReplica {
        ReplicaSet::replica(&InnOutHandle::new(client, Rc::clone(layout)), 0)
    }

    fn shape_of(meta_bufs: usize, cap: usize) -> InnOutShape {
        InnOutShape::new(meta_bufs, cap, 64, 8)
    }

    fn replica(
        fabric: &Fabric,
        layout: &Rc<InnOutLayout>,
        shape: InnOutShape,
        writer: usize,
    ) -> InnOutReplica {
        replica_of(&client(fabric, shape, writer, true, Rounds::new()), layout)
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
        let r = replica(&fabric, &layout, shape_of(1, 64), 0);
        let snap = sim.block_on(async move { r.read().await });
        assert_eq!(snap.stamp, Stamp::ZERO);
        assert_eq!(**snap.value.unwrap().value(), Vec::<u8>::new());
    }

    #[test]
    fn guessed_write_reads_back_via_oop() {
        // GUESSED writes skip the lazy in-place copy, so the first read
        // reports stamp-only and fetch() chases out of place.
        let (sim, fabric, layout) = setup(2, 1, 64);
        let shape = shape_of(1, 64);
        let w = replica(&fabric, &layout, shape, 0);
        let reader = client(&fabric, shape, 1, true, Rounds::new());
        let r = replica_of(&reader, &layout);
        let v = MVal::new(Stamp::guessed(5, 0), vec![7u8; 64]);
        let got = sim.block_on(async move {
            w.write(v).await;
            let snap = r.clone().read().await;
            assert!(snap.value.is_none(), "no in-place copy for GUESSED");
            r.fetch(snap.token).await
        });
        assert_eq!(got.stamp, Stamp::guessed(5, 0));
        assert_eq!(**got.value(), vec![7u8; 64]);
        assert_eq!(reader.read_stats(), (0, 1), "one chase, no in-place hit");
    }

    #[test]
    fn verified_write_enables_inplace_hit() {
        let (sim, fabric, layout) = setup(3, 1, 64);
        let shape = shape_of(1, 64);
        let w = replica(&fabric, &layout, shape, 0);
        let reader = client(&fabric, shape, 1, true, Rounds::new());
        let r = replica_of(&reader, &layout);
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
        assert_eq!(reader.read_stats(), (1, 0), "answered in place");
    }

    #[test]
    fn max_semantics_old_write_does_not_regress() {
        let (sim, fabric, layout) = setup(4, 1, 8);
        let shape = shape_of(1, 8);
        let w0 = replica(&fabric, &layout, shape, 0);
        let w1 = replica(&fabric, &layout, shape, 1);
        let r = replica(&fabric, &layout, shape, 2);
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
        let shape = shape_of(1, 8);
        let w0 = replica(&fabric, &layout, shape, 0);
        let rounds1 = Rounds::new();
        let w1 = replica_of(&client(&fabric, shape, 1, true, rounds1.clone()), &layout);
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
        let shape = shape_of(4, 8);
        let w0 = replica(&fabric, &layout, shape, 0);
        let rounds1 = Rounds::new();
        let w1 = replica_of(&client(&fabric, shape, 1, true, rounds1.clone()), &layout);
        let r = replica(&fabric, &layout, shape, 2);
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
        let shape = shape_of(2, 16);
        let a = replica(&fabric, &layout, shape, 0);
        let b = replica(&fabric, &layout, shape, 1);
        let r = replica(&fabric, &layout, shape, 2);
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
        let shape = shape_of(1, 8);
        let w = replica(&fabric, &layout, shape, 3);
        // 64 slots / 8 writers = 8 per writer; 20 writes wrap the ring.
        let r = replica(&fabric, &layout, shape, 0);
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
        let slot = layout
            .slot_addr(&shape, 0, 3 * 8 + 3)
            .expect("writer 3 drew its ring");
        let bytes = fabric.node(NodeId(0)).mem().read(slot + 16, 8);
        assert_eq!(bytes, vec![20u8; 8]);
    }

    #[test]
    fn replicas_whose_words_agree_share_one_image() {
        let sim = Sim::new(14);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
        let shape = shape_of(1, 64);
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let layout = Rc::new(InnOutLayout::allocate(&fabric, &shape, &nodes));
        let h = InnOutHandle::new(&client(&fabric, shape, 0, true, Rounds::new()), layout);
        let [r0, r1, r2] = [0, 1, 2].map(|i| ReplicaSet::replica(&h, i));
        let v = MVal::new(Stamp::guessed(5, 0), vec![3u8; 64]);
        let word = meta_word(v.stamp, 0);
        let image = r0.encode_oop(word, &v);
        assert!(Rc::ptr_eq(&image, &r1.encode_oop(word, &v)), "one image");
        assert_eq!(image[..8], word.to_le_bytes());
        assert_eq!(image[16..], v.value()[..]);
        let other = r2.encode_oop(meta_word(v.stamp, 1), &v);
        assert!(!Rc::ptr_eq(&image, &other), "another word, another image");
        // Equal bytes of another value are another write: built afresh.
        let twin = MVal::new(v.stamp, vec![3u8; 64]);
        let again = r0.encode_oop(word, &twin);
        assert!(!Rc::ptr_eq(&image, &again) && image == again);
        // The client keeps its last image only.
        drop(other);
        assert_eq!((Rc::strong_count(&image), Rc::strong_count(&again)), (1, 2));
    }

    /// The shape of [`loaded`]'s register: one unowned slot (index 8).
    fn loaded_shape() -> InnOutShape {
        InnOutShape::new(4, 8, 9, 4)
    }

    /// A register with one unowned slot (index 8) that a loader filled:
    /// `[word | hash | value]` there, metadata word 0 pointing at it.
    fn loaded(seed: u64) -> (Sim, Fabric, Rc<InnOutLayout>) {
        let sim = Sim::new(seed);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 1);
        let node = fabric.node(NodeId(0));
        let shape = loaded_shape();
        let layout = InnOutLayout::allocate(&fabric, &shape, &[NodeId(0)]);
        let word = meta_word(Stamp::verified(1, 254), 8);
        let value = [5u8; 8];
        let slot = layout.slot_addr(&shape, 0, 8).expect("slot 8 is unowned");
        node.mem().write_u64(slot, word);
        node.mem()
            .write_u64(slot + 8, bind_word(word, body_hash(&value)));
        node.mem().write(slot + 16, &value);
        node.mem().write_u64(layout.meta_addr(0), word);
        (sim, fabric, Rc::new(layout))
    }

    /// Replica 0 of writer `writer` on [`loaded`]'s register, reading no
    /// in-place data.
    fn oop_replica(fabric: &Fabric, layout: &Rc<InnOutLayout>, writer: usize) -> InnOutReplica {
        replica_of(
            &client(fabric, loaded_shape(), writer, false, Rounds::new()),
            layout,
        )
    }

    #[test]
    fn never_written_register_draws_no_ring() {
        let (sim, fabric, layout) = loaded(9);
        let shape = loaded_shape();
        let node = fabric.node(NodeId(0));
        assert_eq!(node.allocated_bytes(), shape.hot_len(true));
        assert_eq!(
            shape.hot_len(true),
            4 * 8 + 16 + 24,
            "metadata + in-place + the unowned slot"
        );
        let readers: Vec<_> = (0..4).map(|w| oop_replica(&fabric, &layout, w)).collect();
        sim.block_on(async move {
            for r in readers {
                let snap = r.clone().read().await;
                assert!(snap.value.is_none(), "no in-place reads here");
                let got = r.fetch(snap.token).await;
                assert_eq!(got.stamp, Stamp::verified(1, 254));
                assert_eq!(**got.value(), vec![5u8; 8]);
            }
        });
        assert_eq!(
            node.allocated_bytes(),
            shape.hot_len(true),
            "reads drew memory"
        );
        assert!(layout.rings.get().is_none(), "no per-writer array either");
        assert!((0..8).all(|s| layout.slot_addr(&shape, 0, s).is_none()));
        assert!(
            layout.slot_addr(&shape, 0, 9).is_none(),
            "past the last slot"
        );
    }

    #[test]
    fn first_write_draws_one_ring_and_later_writes_recycle_it() {
        let (sim, fabric, layout) = loaded(10);
        let shape = loaded_shape();
        let node = fabric.node(NodeId(0));
        let w = oop_replica(&fabric, &layout, 2);
        let before = node.allocated_bytes();
        let w2 = w.clone();
        sim.block_on(async move {
            w2.write(MVal::new(Stamp::verified(2, 2), vec![2u8; 8]))
                .await
        });
        assert_eq!(shape.ring_len(), 2 * 24);
        assert_eq!(node.allocated_bytes(), before + shape.ring_len());
        let ring = layout
            .slot_addr(&shape, 0, 4)
            .expect("writer 2's ring exists");
        assert_eq!(ring, before, "bump-allocated behind what existed");
        assert_eq!(layout.slot_addr(&shape, 0, 5), Some(ring + 24));
        assert!(
            layout.slot_addr(&shape, 0, 3).is_none() && layout.slot_addr(&shape, 0, 6).is_none()
        );
        // per_writer + 1 more writes wrap the ring without drawing again.
        let w2 = w.clone();
        sim.block_on(async move {
            for i in 3..=5u64 {
                w2.clone()
                    .write(MVal::new(Stamp::verified(i, 2), vec![i as u8; 8]))
                    .await;
            }
        });
        assert_eq!(node.allocated_bytes(), before + shape.ring_len());
        // Writes 2..=5 took positions 0, 1, 0, 1.
        assert_eq!(node.mem().read(ring + 16, 8), vec![4u8; 8]);
        assert_eq!(node.mem().read(ring + 24 + 16, 8), vec![5u8; 8]);
    }

    #[test]
    fn a_second_handle_and_a_foreign_reader_find_the_ring() {
        let (sim, fabric, layout) = loaded(11);
        let shape = loaded_shape();
        let node = fabric.node(NodeId(0));
        let first = oop_replica(&fabric, &layout, 1);
        sim.block_on(async move {
            first
                .write(MVal::new(Stamp::verified(2, 1), vec![2u8; 8]))
                .await
        });
        let drawn = node.allocated_bytes();
        // A handle rebuilt for the same writer starts its ring position
        // over, in the same ring.
        let again = oop_replica(&fabric, &layout, 1);
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
        let ring = layout.slot_addr(&shape, 0, 2).expect("writer 1's ring");
        assert_eq!(node.mem().read(ring + 16, 8), vec![3u8; 8]);
    }

    #[test]
    fn control_plane_writer_draws_an_owned_slots_ring() {
        // One writer: its ring takes in every slot, a loader's included.
        let sim = Sim::new(12);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 1);
        let node = fabric.node(NodeId(0));
        let shape = InnOutShape::new(1, 8, 3, 1);
        let layout = Rc::new(InnOutLayout::allocate(&fabric, &shape, &[NodeId(0)]));
        assert_eq!(shape.hot_len(true), 8 + 8 + 8);
        assert!(layout.slot_addr(&shape, 0, 2).is_none());
        let addr = layout.slot_addr_on(&shape, 0, 2, &node);
        assert_eq!(addr, layout.meta_addr(0) + shape.hot_len(true) + 2 * 24);
        assert_eq!(layout.slot_addr_on(&shape, 0, 2, &node), addr, "drawn once");
        let both = shape.hot_len(true) + shape.ring_len();
        assert_eq!(node.allocated_bytes(), both);
        // The writer's own handle finds that ring.
        let w = replica(&fabric, &layout, shape, 0);
        sim.block_on(async move {
            w.write(MVal::new(Stamp::verified(1, 0), vec![1u8; 8]))
                .await
        });
        assert_eq!(node.allocated_bytes(), both);
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
                    let shape = InnOutShape::new(meta_bufs, value_cap, oop_slots, max_writers);
                    // Two registers of two replicas each, all on one node:
                    // replica 0 with the in-place region, replica 1 without.
                    let layouts = [0, 1]
                        .map(|_| InnOutLayout::allocate(&fabric, &shape, &[NodeId(0), NodeId(0)]));
                    let replicas = [(0, 0), (0, 1), (1, 0), (1, 1)];
                    // Regions as (start, end): each hot region, then every
                    // ring, drawn in an order that interleaves the registers.
                    let mut regions: Vec<(u64, u64)> = replicas
                        .iter()
                        .map(|&(l, r)| {
                            let at = layouts[l].meta_addr(r);
                            (at, at + shape.hot_len(r == 0))
                        })
                        .collect();
                    let slot_len = (OOP_HEADER + value_cap) as u64;
                    let per_writer = oop_slots / max_writers;
                    for w in (0..max_writers).rev() {
                        for &(l, r) in &replicas {
                            let slot = (w * per_writer) as u16;
                            let base = layouts[l].slot_addr_on(&shape, r, slot, &node);
                            regions.push((base, base + shape.ring_len()));
                            assert_eq!(shape.ring_len(), per_writer as u64 * slot_len);
                        }
                    }
                    let case = format!("k={meta_bufs} cap={value_cap} {oop_slots}/{max_writers}");
                    regions.sort();
                    assert_eq!(regions.last().unwrap().1, node.allocated_bytes());
                    for pair in regions.windows(2) {
                        assert!(pair[0].1 <= pair[1].0, "{case}: {pair:?} overlap");
                    }
                    for &(l, r) in &replicas {
                        // Every slot lies whole inside its owner: writer w's
                        // ring, or the hot region past what a reader reads.
                        let l = &layouts[l];
                        let read_end = l.meta_addr(r)
                            + (meta_bufs * 8 + if r == 0 { value_cap + 8 } else { 0 }) as u64;
                        let mut seen = Vec::new();
                        for slot in 0..oop_slots {
                            let at = l
                                .slot_addr(&shape, r, slot as u16)
                                .expect("all rings drawn");
                            let (lo, hi) = if slot < per_writer * max_writers {
                                let first = ((slot / per_writer) * per_writer) as u16;
                                let ring = l.slot_addr(&shape, r, first).unwrap();
                                (ring, ring + shape.ring_len())
                            } else {
                                (read_end, l.meta_addr(r) + shape.hot_len(r == 0))
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

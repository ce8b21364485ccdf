//! One-sided fabric operations and their wire-size accounting — including
//! the anti-entropy *repair* summaries a memory node computes over a
//! registered table of max-register metadata words.

use std::rc::Rc;

use crate::mem::NodeMemory;

/// Reference-counted payload bytes.
///
/// Write payloads are shared, not copied, on their way through the fabric:
/// the KV layer builds one padded buffer per logical write and every hop
/// (op construction, the in-flight message task, chunked application) holds
/// the same `Rc`. Extends `swarm-core::MVal`'s refcounting through the
/// endpoint. A `Vec<u8>` converts with `.into()` (a move, not a copy).
pub type Payload = Rc<Vec<u8>>;

/// One entry of a repair table: a key's In-n-Out metadata array on one node.
///
/// The repair digest of the entry is a function of the key `id` and the
/// entry's *stamp* — the maximum metadata word shifted right 16 bits. The
/// slot index in the low bits is per-replica state (the same logical write
/// lands in different slots on different nodes), so digesting full words
/// would report divergence between converged replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairEntry {
    /// Key identity mixed into digests (and its bucket placement).
    pub id: u64,
    /// Base address of the metadata array on the addressed node.
    pub addr: u64,
    /// Number of 8 B metadata words (In-n-Out's `k` of §4.4).
    pub words: u32,
}

/// A control-plane-registered table of repair entries, shared (not copied)
/// between the repair agent and in-flight messages. On the wire a repair
/// request carries only a small descriptor naming the table — both sides of
/// an anti-entropy session register the same keyspace up front.
pub type RepairTable = Rc<Vec<RepairEntry>>;

/// Which entries of a repair table a [`Op::RepairStamps`] op reports.
#[derive(Debug, Clone)]
pub enum RepairSel {
    /// Every entry, in table order (the `Full` baseline strategy).
    All,
    /// Only entries whose bucket (under `buckets`/`salt`) appears in the
    /// sorted `ids` list — the delta of a mismatched-digest exchange.
    Buckets {
        /// Sorted, deduplicated mismatched-bucket indices.
        ids: Rc<Vec<u32>>,
        /// Bucket count the digests were computed with.
        buckets: u32,
        /// Digest salt (forked per repair round).
        salt: u64,
    },
}

impl RepairSel {
    /// True if `entry` is selected.
    pub fn selects(&self, entry: &RepairEntry) -> bool {
        match self {
            RepairSel::All => true,
            RepairSel::Buckets { ids, buckets, salt } => ids
                .binary_search(&repair_bucket(entry.id, *buckets, *salt))
                .is_ok(),
        }
    }

    /// Number of entries of `table` this selection reports.
    pub fn count(&self, table: &[RepairEntry]) -> usize {
        match self {
            RepairSel::All => table.len(),
            RepairSel::Buckets { .. } => table.iter().filter(|e| self.selects(e)).count(),
        }
    }
}

/// Splitmix-mixes a key id, its stamp, and a round salt into one digest
/// contribution. Summed with `wrapping_add` per bucket the result is
/// order-independent, so two replicas enumerating the same table in any
/// order produce equal bucket digests iff every selected stamp matches.
fn repair_mix(id: u64, stamp: u64, salt: u64) -> u64 {
    let mut z = id
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(stamp)
        .wrapping_mul(0xBF58476D1CE4E5B9)
        .wrapping_add(salt);
    z ^= z >> 29;
    z = z.wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 32)
}

/// Bucket index of key `id` under `buckets`/`salt` (stamp-independent: a
/// key stays in one bucket for the whole round).
fn repair_bucket(id: u64, buckets: u32, salt: u64) -> u32 {
    debug_assert!(buckets > 0);
    (repair_mix(id, 0, salt) % buckets as u64) as u32
}

/// Stamp of one repair entry as stored on `mem`: the maximum of its
/// metadata words, slot bits stripped.
pub fn repair_entry_stamp(mem: &NodeMemory, e: &RepairEntry) -> u64 {
    (0..e.words as u64)
        .map(|j| mem.read_u64(e.addr + 8 * j))
        .max()
        .unwrap_or(0)
        >> 16
}

/// A one-sided operation against a memory node.
///
/// A `Vec<Op>` submitted together forms a *pipelined series*: the node applies
/// the operations in order (FIFO, §2.1) and a single response acknowledges all
/// of them — this is what lets In-n-Out write the out-of-place buffer and
/// update the metadata word in one roundtrip (Algorithm 5).
///
/// The `Repair*` variants are the anti-entropy summaries: they scan a
/// pre-registered [`RepairTable`] of metadata words and return digests or
/// stamps. Like READs they move node state to the client
/// without mutating it, so the latency model treats them as reads.
#[derive(Debug, Clone)]
pub enum Op {
    /// Read `len` bytes from `addr`.
    Read {
        /// Base address on the node.
        addr: u64,
        /// Number of bytes to read.
        len: usize,
    },
    /// Write `data` to `addr` (non-atomic: applies in chunks).
    Write {
        /// Base address on the node.
        addr: u64,
        /// Bytes to store (shared, never deep-copied per hop).
        data: Payload,
    },
    /// Atomic 64-bit compare-and-swap at `addr`.
    Cas {
        /// Address of the 8-aligned word.
        addr: u64,
        /// Value the word must hold for the swap to apply.
        expected: u64,
        /// Replacement value.
        new: u64,
    },
    /// Hash-bucketed digest of a repair table's stamps: returns `buckets`
    /// order-independent sums of `repair_mix` contributions.
    RepairDigest {
        /// The registered table to digest.
        table: RepairTable,
        /// Number of digest buckets.
        buckets: u32,
        /// Per-round salt.
        salt: u64,
    },
    /// Raw stamps of the selected entries, in table order.
    RepairStamps {
        /// The registered table to report.
        table: RepairTable,
        /// Which entries to report.
        sel: RepairSel,
    },
}

/// Result of one [`Op`], in submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Bytes observed by a read (snapshot at node application time).
    Read(Vec<u8>),
    /// Write acknowledged (fully applied at the node).
    Write,
    /// Previous value observed by a CAS (swap applied iff it equals
    /// `expected`).
    Cas(u64),
    /// Per-bucket digests from a [`Op::RepairDigest`].
    Digests(Vec<u64>),
    /// Selected stamps (in table order) from a [`Op::RepairStamps`].
    Stamps(Vec<u64>),
}

impl Op {
    /// Request payload bytes carried on the wire for this op.
    pub fn request_payload(&self) -> usize {
        match self {
            // A read request carries only a descriptor (addr+len), folded
            // into the header; model it as 8 extra bytes.
            Op::Read { .. } => 8,
            Op::Write { data, .. } => data.len(),
            Op::Cas { .. } => 16,
            // Repair requests name a registered table plus round
            // parameters: a fixed 16 B descriptor...
            Op::RepairDigest { .. } => 16,
            // ...plus the mismatched-bucket list for a delta selection.
            Op::RepairStamps { sel, .. } => match sel {
                RepairSel::All => 16,
                RepairSel::Buckets { ids, .. } => 16 + 4 * ids.len(),
            },
        }
    }

    /// Response payload bytes for this op.
    pub fn response_payload(&self) -> usize {
        match self {
            Op::Read { len, .. } => *len,
            Op::Write { .. } => 0,
            Op::Cas { .. } => 8,
            Op::RepairDigest { buckets, .. } => 8 * *buckets as usize,
            Op::RepairStamps { table, sel } => 8 * sel.count(table),
        }
    }

    /// True for ops whose response carries node state back to the client —
    /// the latency model charges these the DMA-fetch read penalty.
    pub fn is_read_like(&self) -> bool {
        !matches!(self, Op::Write { .. } | Op::Cas { .. })
    }

    /// Applies a repair summary against `mem`, or `None` for the plain
    /// `Read`/`Write`/`Cas` ops the endpoint handles itself.
    pub(crate) fn apply_repair(&self, mem: &NodeMemory) -> Option<OpResult> {
        match self {
            Op::Read { .. } | Op::Write { .. } | Op::Cas { .. } => None,
            Op::RepairDigest {
                table,
                buckets,
                salt,
            } => {
                let mut d = vec![0u64; *buckets as usize];
                for e in table.iter() {
                    let b = repair_bucket(e.id, *buckets, *salt) as usize;
                    d[b] = d[b].wrapping_add(repair_mix(e.id, repair_entry_stamp(mem, e), *salt));
                }
                Some(OpResult::Digests(d))
            }
            Op::RepairStamps { table, sel } => Some(OpResult::Stamps(
                table
                    .iter()
                    .filter(|e| sel.selects(e))
                    .map(|e| repair_entry_stamp(mem, e))
                    .collect(),
            )),
        }
    }
}

impl OpResult {
    /// Read bytes, or `None` on a kind mismatch — for reply paths that must
    /// treat a malformed batch as a dropped message rather than panic.
    pub fn read(self) -> Option<Vec<u8>> {
        match self {
            OpResult::Read(b) => Some(b),
            _ => None,
        }
    }

    /// CAS-observed previous value, or `None` on a kind mismatch.
    pub fn cas(self) -> Option<u64> {
        match self {
            OpResult::Cas(v) => Some(v),
            _ => None,
        }
    }

    /// Bucket digests, or `None` on a kind mismatch.
    pub fn digests(self) -> Option<Vec<u64>> {
        match self {
            OpResult::Digests(d) => Some(d),
            _ => None,
        }
    }

    /// Selected stamps, or `None` on a kind mismatch.
    pub fn stamps(self) -> Option<Vec<u64>> {
        match self {
            OpResult::Stamps(s) => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_accounting() {
        assert_eq!(Op::Read { addr: 0, len: 64 }.request_payload(), 8);
        assert_eq!(Op::Read { addr: 0, len: 64 }.response_payload(), 64);
        let w = Op::Write {
            addr: 0,
            data: vec![0; 100].into(),
        };
        assert_eq!(w.request_payload(), 100);
        assert_eq!(w.response_payload(), 0);
        let c = Op::Cas {
            addr: 0,
            expected: 1,
            new: 2,
        };
        assert_eq!(c.request_payload(), 16);
        assert_eq!(c.response_payload(), 8);
    }

    #[test]
    #[should_panic]
    fn wrong_extraction_panics() {
        OpResult::Write.read().unwrap();
    }

    #[test]
    fn option_accessors_never_panic() {
        assert_eq!(OpResult::Write.cas(), None);
        assert_eq!(OpResult::Cas(7).cas(), Some(7));
        assert_eq!(OpResult::Cas(7).read(), None);
        assert_eq!(OpResult::Read(vec![1]).read(), Some(vec![1]));
        assert_eq!(OpResult::Write.digests(), None);
        assert_eq!(OpResult::Digests(vec![3]).digests(), Some(vec![3]));
        assert_eq!(OpResult::Stamps(vec![9]).stamps(), Some(vec![9]));
        assert_eq!(OpResult::Read(vec![]).stamps(), None);
    }

    fn table(n: u64) -> RepairTable {
        Rc::new(
            (0..n)
                .map(|i| RepairEntry {
                    id: i,
                    addr: 8 * i,
                    words: 1,
                })
                .collect(),
        )
    }

    #[test]
    fn repair_payload_accounting() {
        let t = table(100);
        let d = Op::RepairDigest {
            table: Rc::clone(&t),
            buckets: 16,
            salt: 1,
        };
        assert_eq!(d.request_payload(), 16);
        assert_eq!(d.response_payload(), 16 * 8);
        assert!(d.is_read_like());

        let all = Op::RepairStamps {
            table: Rc::clone(&t),
            sel: RepairSel::All,
        };
        assert_eq!(all.request_payload(), 16);
        assert_eq!(all.response_payload(), 100 * 8);

        // A bucket selection reports exactly the keys hashing into the
        // chosen buckets, and ships the bucket list on the request.
        let ids = Rc::new(vec![3u32, 7]);
        let sel = RepairSel::Buckets {
            ids: Rc::clone(&ids),
            buckets: 16,
            salt: 1,
        };
        let expect = (0..100)
            .filter(|&k| ids.contains(&repair_bucket(k, 16, 1)))
            .count();
        let some = Op::RepairStamps {
            table: Rc::clone(&t),
            sel,
        };
        assert_eq!(some.request_payload(), 16 + 8);
        assert_eq!(some.response_payload(), 8 * expect);
    }

    #[test]
    fn bucket_digest_is_order_independent() {
        let contributions = [(1u64, 10u64), (2, 20), (3, 30)];
        let sum = |order: &[usize]| {
            order.iter().fold(0u64, |acc, &i| {
                let (id, stamp) = contributions[i];
                acc.wrapping_add(repair_mix(id, stamp, 42))
            })
        };
        assert_eq!(sum(&[0, 1, 2]), sum(&[2, 0, 1]));
        // A changed stamp changes the sum.
        assert_ne!(
            sum(&[0, 1, 2]),
            sum(&[0, 1]).wrapping_add(repair_mix(3, 31, 42))
        );
    }

    #[test]
    fn repair_ops_scan_node_memory() {
        let mem = NodeMemory::new();
        let base = mem.alloc(8 * 4, 8);
        // Two keys, two metadata words each; stamps live in the high 48
        // bits, slots in the low 16 — only the stamps may matter.
        mem.write_u64(base, (5 << 16) | 9);
        mem.write_u64(base + 8, (3 << 16) | 1);
        mem.write_u64(base + 16, (7 << 16) | 2);
        mem.write_u64(base + 24, 0);
        let t: RepairTable = Rc::new(vec![
            RepairEntry {
                id: 100,
                addr: base,
                words: 2,
            },
            RepairEntry {
                id: 200,
                addr: base + 16,
                words: 2,
            },
        ]);
        assert_eq!(repair_entry_stamp(&mem, &t[0]), 5);
        assert_eq!(repair_entry_stamp(&mem, &t[1]), 7);

        let stamps = Op::RepairStamps {
            table: Rc::clone(&t),
            sel: RepairSel::All,
        }
        .apply_repair(&mem)
        .unwrap()
        .stamps()
        .unwrap();
        assert_eq!(stamps, vec![5, 7]);

        let digest = |salt| {
            Op::RepairDigest {
                table: Rc::clone(&t),
                buckets: 4,
                salt,
            }
            .apply_repair(&mem)
            .unwrap()
            .digests()
            .unwrap()
        };
        // Equal state digests equal; a bumped stamp diverges.
        let before = digest(9);
        mem.write_u64(base + 16, (8 << 16) | 3);
        assert_ne!(digest(9), before);
    }
}

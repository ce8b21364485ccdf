//! One-sided fabric operations and their wire-size accounting: the paper's
//! Read, Write and CAS verbs (§2.1), which a memory node applies without
//! computing anything of its own.

use std::rc::Rc;

/// Reference-counted payload bytes.
///
/// Write payloads are shared, not copied, on their way through the fabric:
/// the KV layer builds one padded buffer per logical write and every hop
/// (op construction, the message in flight, chunked application) holds
/// the same `Rc`. Extends `swarm-core::MVal`'s refcounting through the
/// endpoint. A `Vec<u8>` converts with `.into()` (a move, not a copy).
pub type Payload = Rc<Vec<u8>>;

/// A one-sided operation against a memory node.
///
/// A `Vec<Op>` submitted together forms a *pipelined series*: the node applies
/// the operations in order (FIFO, §2.1) and a single response acknowledges all
/// of them — this is what lets In-n-Out write the out-of-place buffer and
/// update the metadata word in one roundtrip (Algorithm 5).
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
        }
    }

    /// Response payload bytes for this op.
    pub fn response_payload(&self) -> usize {
        match self {
            Op::Read { len, .. } => *len,
            Op::Write { .. } => 0,
            Op::Cas { .. } => 8,
        }
    }

    /// True for ops whose response carries node state back to the client —
    /// the latency model charges these the DMA-fetch read penalty.
    pub fn is_read_like(&self) -> bool {
        matches!(self, Op::Read { .. })
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
    }
}

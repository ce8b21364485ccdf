//! Register values: a stamped byte buffer.

use std::rc::Rc;

use crate::hash::body_hash;
use crate::stamp::Stamp;

/// A max-register value: the written bytes tagged with their [`Stamp`].
///
/// Ordering (and therefore the max-register semantics) is by stamp alone;
/// two distinct writes never share a stamp (Observation 4 of the paper's
/// proof), and a write and its `VERIFIED` confirmation carry the same bytes.
/// Values are reference-counted so quorum fan-out does not copy payloads,
/// and carry the hash of their bytes so fan-out does not re-hash them.
#[derive(Debug, Clone)]
pub struct MVal {
    /// The ordering stamp.
    pub stamp: Stamp,
    /// The written bytes (fixed-size per register; the KV layer pads).
    value: Rc<Vec<u8>>,
    /// `body_hash(&value)`: what every In-n-Out replica binds to its own
    /// metadata word. Private with `value` so the two cannot drift apart.
    body_hash: u64,
}

impl MVal {
    /// The initial register value: `((0, ⊥), VERIFIED, ⊥)` (Algorithm 2).
    pub fn initial() -> MVal {
        MVal::new(Stamp::ZERO, Vec::new())
    }

    /// The delete tombstone (SWARM-KV `delete`, §5.3.2): no bytes, and the
    /// maximum stamp, so no later write can exceed it.
    pub fn tombstone() -> MVal {
        MVal::new(Stamp::TOMBSTONE, Vec::new())
    }

    /// Creates a value and hashes its bytes — once per logical write: every
    /// clone, re-stamp and replica shares the result. Accepts a `Vec<u8>`
    /// (moved into an `Rc`, no copy) or an already-shared `Rc<Vec<u8>>`
    /// (refcount bump only), so one payload buffer flows from the KV layer
    /// through quorum fan-out to the fabric without deep copies.
    pub fn new(stamp: Stamp, value: impl Into<Rc<Vec<u8>>>) -> MVal {
        let value = value.into();
        let body_hash = body_hash(&value);
        MVal {
            stamp,
            value,
            body_hash,
        }
    }

    /// A value whose bytes a reader just validated against `body_hash`.
    pub(crate) fn validated(stamp: Stamp, value: Vec<u8>, body_hash: u64) -> MVal {
        MVal {
            stamp,
            value: Rc::new(value),
            body_hash,
        }
    }

    /// The written bytes.
    pub fn value(&self) -> &Rc<Vec<u8>> {
        &self.value
    }

    /// The written bytes, by value.
    pub fn into_value(self) -> Rc<Vec<u8>> {
        self.value
    }

    /// Hash of the bytes alone (see [`crate::innout_hash`]).
    pub(crate) fn body_hash(&self) -> u64 {
        self.body_hash
    }

    /// The same bytes (shared, not re-hashed) under another stamp.
    pub fn restamped(&self, stamp: Stamp) -> MVal {
        MVal {
            stamp,
            ..self.clone()
        }
    }

    /// This value re-stamped as `VERIFIED` (same bytes, same `(i, tid)`).
    pub fn with_verified(&self) -> MVal {
        self.restamped(self.stamp.with_verified())
    }

    /// True if this is still the initial (never-written) value.
    pub fn is_initial(&self) -> bool {
        self.stamp == Stamp::ZERO
    }

    /// True if this value is a delete tombstone (SWARM-KV, §5.3.2).
    pub fn is_tombstone(&self) -> bool {
        self.stamp.is_tombstone()
    }
}

impl PartialEq for MVal {
    fn eq(&self, other: &Self) -> bool {
        self.stamp == other.stamp
    }
}
impl Eq for MVal {}
impl PartialOrd for MVal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MVal {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.stamp.cmp(&other.stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_stamp() {
        let a = MVal::new(Stamp::guessed(1, 0), vec![1]);
        let b = MVal::new(Stamp::guessed(2, 0), vec![0]);
        assert!(a < b);
        assert!(a < a.with_verified());
    }

    #[test]
    fn initial_is_smallest() {
        let init = MVal::initial();
        assert!(init.is_initial());
        assert!(init < MVal::new(Stamp::guessed(1, 0), vec![]));
    }

    #[test]
    fn verified_shares_bytes() {
        let a = MVal::new(Stamp::guessed(3, 1), vec![9; 16]);
        let v = a.with_verified();
        assert!(Rc::ptr_eq(a.value(), v.value()));
        assert_eq!(a.stamp.key(), v.stamp.key());
    }
}

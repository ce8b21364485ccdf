//! Linearizability checking for KV and register histories (Wing–Gong
//! search with per-key compositionality).
//!
//! Used by the test suite to validate Safe-Guess, ABD, RAW and FUSEE
//! executions recorded from the simulator against an atomic specification
//! (the paper proves linearizability in Appendix C; we check it empirically
//! on thousands of randomized and fault-injected schedules).
//!
//! One front door, [`KvHistory`]: multi-key histories of
//! `Get`/`Insert`/`Update`/`Delete` operations, including error returns
//! (`NotFound`-style observations of absence) and *ambiguous* operations
//! whose effect is unknown because the client timed out or crashed
//! mid-call. Linearizability is compositional over objects (Herlihy &
//! Wing's locality theorem), so the checker verifies each key's subhistory
//! independently — the exhaustive search stays tractable on histories of
//! thousands of operations as long as no single key sees more than 128. A
//! single register is one always-present key: a write is an `Insert`, a
//! read a `Get(Some(..))`.
//!
//! Each per-key search is exhaustive over linearization points with
//! memoization on `(set of completed ops, key state)`.

use std::collections::{HashMap, HashSet};

/// Maximum operations the per-key search supports (the completion set is a
/// `u128` bitmask).
pub const MAX_OPS_PER_KEY: usize = 128;

/// What one KV operation did, from the client's point of view.
///
/// Value payloads are abstracted to `u64` tags (the recorder derives them
/// from stored bytes). Error returns carry information too: a mutation that
/// failed with a `NotFound`-style error *observed absence* and is checked as
/// such.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvOpKind {
    /// `get() -> Some(v)` (key must hold `v`) or `None` (key must be
    /// absent).
    Get(Option<u64>),
    /// `insert(v)` succeeded. Inserts are upserts (§5.3.1: an insert over a
    /// live mapping becomes an update), so this is legal in any state and
    /// sets the key to `v`.
    Insert(u64),
    /// `update(v)` succeeded: sets the key to `v`. Checked as an upsert,
    /// like [`KvOpKind::Insert`]: the store's update contract verifies a
    /// mapping exists at *lookup* time, not atomically with the write, so
    /// an update racing a §5.3.1 insert can legitimately succeed while the
    /// insert's own value write is still in flight. Presence is only
    /// *observed* when update fails ([`KvOpKind::FailAbsent`]).
    Update(u64),
    /// `delete()` succeeded: sets the key absent. Legal in any state —
    /// SWARM's delete is a tombstone write, which succeeds even when racing
    /// another delete (§5.3.2).
    Delete,
    /// A mutation failed with an absence observation (`NotFound`,
    /// `NotIndexed`, or a tombstone rejection): requires the key absent, no
    /// effect.
    FailAbsent,
    /// An operation that neither observed nor changed anything (a refused
    /// `IndexFull` insert — capacity is global, not per-key — or a `get`
    /// that timed out): legal at any point.
    FailNoop,
}

/// One recorded operation in a multi-key concurrent history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvHistoryOp {
    /// The key operated on.
    pub key: u64,
    /// The client that issued it, where the recorder knew (a failed check
    /// prints it; the search ignores it).
    pub client: Option<usize>,
    /// Invocation (virtual) time.
    pub invoke: u64,
    /// Response (virtual) time, or `None` for an *ambiguous* operation: the
    /// client timed out or crashed, so the effect may or may not have been
    /// applied — and may still land arbitrarily late (in-flight messages,
    /// background writes). Ambiguous ops impose no real-time ordering on
    /// later operations and the search may apply *or discard* them.
    pub ret: Option<u64>,
    /// What the operation did.
    pub kind: KvOpKind,
}

/// Why a history failed the check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonLinearizable {
    /// The key whose subhistory admits no linearization.
    pub key: u64,
    /// Number of operations on that key.
    pub ops: usize,
}

impl std::fmt::Display for NonLinearizable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no linearization exists for key {} ({} ops)",
            self.key, self.ops
        )
    }
}

impl std::error::Error for NonLinearizable {}

/// Why [`KvHistory::check`] could not certify a history: either a genuine
/// linearizability violation, or a key whose subhistory is too large for
/// the `u128`-bitmask search to examine at all. The distinction matters to
/// harnesses: the former is a correctness bug in the system under test,
/// the latter a bug in the *test* (record fewer ops per key, or shard the
/// workload), and conflating them — or panicking mid-suite, as the checker
/// once did — would hide which side failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckError {
    /// A key's subhistory admits no linearization.
    NonLinearizable(NonLinearizable),
    /// A key saw more operations than the search supports; the history was
    /// **not** checked.
    TooManyOps {
        /// The overloaded key.
        key: u64,
        /// Operations recorded on it.
        ops: usize,
        /// The supported maximum ([`MAX_OPS_PER_KEY`]).
        max: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NonLinearizable(e) => e.fmt(f),
            CheckError::TooManyOps { key, ops, max } => write!(
                f,
                "key {key} has {ops} ops; the checker supports at most {max} per key \
                 (history not checked)"
            ),
        }
    }
}

impl std::error::Error for CheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckError::NonLinearizable(e) => Some(e),
            CheckError::TooManyOps { .. } => None,
        }
    }
}

impl From<NonLinearizable> for CheckError {
    fn from(e: NonLinearizable) -> Self {
        CheckError::NonLinearizable(e)
    }
}

/// A recorded multi-key concurrent history.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct KvHistory {
    ops: Vec<KvHistoryOp>,
    /// Keys present before the history started (bulk-loaded), with their
    /// value tags. Unlisted keys start absent.
    initial: HashMap<u64, u64>,
}

impl KvHistory {
    /// Creates an empty history with an empty initial store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `key` present with value tag `tag` before the history
    /// starts (the bulk-load phase).
    pub fn set_initial(&mut self, key: u64, tag: u64) {
        self.initial.insert(key, tag);
    }

    /// Records one operation of `client` (`None`: unnamed), completed at
    /// `ret` or *ambiguous* (`None`: timed out / client crashed — its effect
    /// may or may not have been applied, at any time after `invoke`).
    pub fn record(
        &mut self,
        client: Option<usize>,
        key: u64,
        invoke: u64,
        ret: Option<u64>,
        kind: KvOpKind,
    ) {
        assert!(
            ret.is_none_or(|r| r >= invoke),
            "response before invocation"
        );
        self.ops.push(KvHistoryOp {
            key,
            client,
            invoke,
            ret,
            kind,
        });
    }

    /// Records one completed operation of an unnamed client.
    pub fn push(&mut self, key: u64, invoke: u64, ret: u64, kind: KvOpKind) {
        self.record(None, key, invoke, Some(ret), kind);
    }

    /// Records a TTL lease expiry at instant `at`: the key became absent
    /// when virtual time passed its lease, with no explicit delete op in
    /// the history to witness it.
    ///
    /// Expiry is a *legal linearization point*, modeled as an **ambiguous
    /// delete** invoked at `at`:
    ///
    /// * Operations that completed before `at` precede it, so a pre-expiry
    ///   read still observing the value linearizes before the expiry.
    /// * Being ambiguous, the delete may take effect at any legal later
    ///   point — wherever the first post-expiry `None` read needs it — or
    ///   be **discarded** entirely, which is exactly right when a
    ///   subsequent write "resurrected" the key before anyone observed the
    ///   expiry.
    ///
    /// No checker search changes back this: `Delete` is already legal in
    /// any state and ambiguous ops are already apply-or-discard.
    pub fn expire(&mut self, key: u64, at: u64) {
        self.record(None, key, at, None, KvOpKind::Delete);
    }

    /// Number of operations recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded operations, in recording order.
    pub fn ops(&self) -> &[KvHistoryOp] {
        &self.ops
    }

    /// Number of operations recorded that completed unambiguously.
    pub fn definite_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.ret.is_some()).count()
    }

    /// Checks the history against the atomic KV specification.
    ///
    /// Some linearization must exist per key: a total order of the key's
    /// operations that (a) respects real-time precedence (`a` returned
    /// before `b` was invoked ⇒ `a` before `b`), (b) is a legal sequential
    /// KV execution from the key's initial state, and (c) includes every
    /// unambiguous operation, while ambiguous ones may be applied or
    /// discarded.
    ///
    /// A key with more than [`MAX_OPS_PER_KEY`] operations fails with
    /// [`CheckError::TooManyOps`] instead of being searched (the completion
    /// set is a `u128` bitmask): an over-recorded history is a harness bug,
    /// reported as such rather than as a panic mid-suite.
    pub fn check(&self) -> Result<(), CheckError> {
        let mut by_key: HashMap<u64, Vec<&KvHistoryOp>> = HashMap::new();
        for op in &self.ops {
            by_key.entry(op.key).or_default().push(op);
        }
        // Deterministic key order, so failures always name the same key.
        let mut keys: Vec<u64> = by_key.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let ops = &by_key[&key];
            if ops.len() > MAX_OPS_PER_KEY {
                return Err(CheckError::TooManyOps {
                    key,
                    ops: ops.len(),
                    max: MAX_OPS_PER_KEY,
                });
            }
            if !check_key(ops, self.initial.get(&key).copied()) {
                return Err(CheckError::NonLinearizable(NonLinearizable {
                    key,
                    ops: ops.len(),
                }));
            }
        }
        Ok(())
    }

    /// [`KvHistory::check`] as a boolean.
    pub fn is_linearizable(&self) -> bool {
        self.check().is_ok()
    }
}

/// Wing–Gong search over one key's subhistory. `initial` is the key's state
/// before the history (present with a tag, or absent).
fn check_key(ops: &[&KvHistoryOp], initial: Option<u64>) -> bool {
    let n = ops.len();
    if n == 0 {
        return true;
    }
    // precede[i] = bitmask of ops that must linearize before op i. An
    // ambiguous op (ret == None) precedes nothing: its effect may land
    // arbitrarily late.
    let mut precede = vec![0u128; n];
    for (i, mask) in precede.iter_mut().enumerate() {
        for (j, other) in ops.iter().enumerate() {
            if i != j && other.ret.is_some_and(|r| r < ops[i].invoke) {
                *mask |= 1 << j;
            }
        }
    }
    let mut visited: HashSet<(u128, Option<u64>)> = HashSet::new();
    search(ops, 0, initial, &precede, &mut visited)
}

/// The sequential spec's transition: the state after applying `kind` to `state`,
/// or `None` if `kind` is illegal there.
fn apply(kind: KvOpKind, state: Option<u64>) -> Option<Option<u64>> {
    match kind {
        KvOpKind::Get(observed) => (observed == state).then_some(state),
        KvOpKind::Insert(v) | KvOpKind::Update(v) => Some(Some(v)),
        KvOpKind::Delete => Some(None),
        KvOpKind::FailAbsent => state.is_none().then_some(None),
        KvOpKind::FailNoop => Some(state),
    }
}

fn search(
    ops: &[&KvHistoryOp],
    done: u128,
    state: Option<u64>,
    precede: &[u128],
    visited: &mut HashSet<(u128, Option<u64>)>,
) -> bool {
    let n = ops.len();
    if done == u128::MAX >> (128 - n) {
        return true;
    }
    if !visited.insert((done, state)) {
        return false;
    }
    for i in 0..n {
        let bit = 1u128 << i;
        if done & bit != 0 || precede[i] & !done != 0 {
            continue; // Already taken, or a predecessor is pending.
        }
        if let Some(next) = apply(ops[i].kind, state) {
            if search(ops, done | bit, next, precede, visited) {
                return true;
            }
        }
        // An ambiguous op may also be *discarded*: its effect never landed.
        if ops[i].ret.is_none() && search(ops, done | bit, state, precede, visited) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single register: key 0, holding tag 0 before the history starts.
    fn register() -> KvHistory {
        let mut h = KvHistory::new();
        h.set_initial(0, 0);
        h
    }

    /// A register write is unconditional: the upsert.
    fn write(h: &mut KvHistory, invoke: u64, ret: u64, v: u64) {
        h.push(0, invoke, ret, KvOpKind::Insert(v));
    }

    fn read(h: &mut KvHistory, invoke: u64, ret: u64, v: u64) {
        h.push(0, invoke, ret, KvOpKind::Get(Some(v)));
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(register().is_linearizable());
        assert!(KvHistory::new().is_linearizable());
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let mut h = register();
        write(&mut h, 0, 1, 1);
        read(&mut h, 2, 3, 1);
        write(&mut h, 4, 5, 2);
        read(&mut h, 6, 7, 2);
        assert!(h.is_linearizable());
    }

    #[test]
    fn stale_read_is_rejected() {
        let mut h = register();
        write(&mut h, 0, 1, 1);
        read(&mut h, 2, 3, 0); // Must see 1.
        assert!(!h.is_linearizable());
    }

    #[test]
    fn concurrent_read_may_see_either_side() {
        let mut h = register();
        write(&mut h, 0, 10, 1);
        read(&mut h, 2, 4, 0); // Concurrent: old value OK.
        assert!(h.is_linearizable());
        let mut h2 = register();
        write(&mut h2, 0, 10, 1);
        read(&mut h2, 2, 4, 1); // Concurrent: new value OK.
        assert!(h2.is_linearizable());
    }

    #[test]
    fn oscillating_reads_are_rejected() {
        // The exact anomaly Safe-Guess's slow path prevents (§2.4): a value
        // written "twice" lets reads oscillate new -> old -> new.
        let mut h = register();
        write(&mut h, 0, 1, 1);
        write(&mut h, 2, 20, 2);
        read(&mut h, 3, 4, 2);
        read(&mut h, 5, 6, 1); // Back to the old value: illegal.
        read(&mut h, 7, 8, 2);
        assert!(!h.is_linearizable());
    }

    #[test]
    fn read_inversion_is_rejected() {
        // Two sequential reads observing writes in opposite order.
        let mut h = register();
        write(&mut h, 0, 100, 1);
        write(&mut h, 0, 100, 2);
        read(&mut h, 10, 20, 1);
        read(&mut h, 30, 40, 2);
        assert!(h.is_linearizable());
        read(&mut h, 50, 60, 1); // 2 then 1 again: illegal.
        assert!(!h.is_linearizable());
    }

    #[test]
    fn real_time_order_is_enforced_between_writes() {
        let mut h = register();
        write(&mut h, 0, 1, 1);
        write(&mut h, 2, 3, 2); // strictly after write(1)
        read(&mut h, 4, 5, 1); // must see 2
        assert!(!h.is_linearizable());
    }

    #[test]
    fn concurrent_writes_allow_both_orders() {
        let mut h = register();
        write(&mut h, 0, 10, 1);
        write(&mut h, 0, 10, 2);
        read(&mut h, 12, 13, 1);
        assert!(h.is_linearizable());
    }

    // ---- multi-key KV checker ----

    #[test]
    fn keys_compose_independently() {
        // Interleaved ops on two keys: each key legal on its own.
        let mut h = KvHistory::new();
        h.push(1, 0, 1, KvOpKind::Insert(10));
        h.push(2, 2, 3, KvOpKind::Insert(20));
        h.push(1, 4, 5, KvOpKind::Get(Some(10)));
        h.push(2, 6, 7, KvOpKind::Get(Some(20)));
        assert!(h.is_linearizable());
        // Cross-key value confusion is caught per key.
        let mut bad = h.clone();
        bad.push(1, 8, 9, KvOpKind::Get(Some(20)));
        assert_eq!(
            bad.check(),
            Err(CheckError::NonLinearizable(NonLinearizable {
                key: 1,
                ops: 3
            }))
        );
    }

    #[test]
    fn absent_key_reads_none_until_inserted() {
        let mut h = KvHistory::new();
        h.push(5, 0, 1, KvOpKind::Get(None));
        h.push(5, 2, 3, KvOpKind::Insert(7));
        h.push(5, 4, 5, KvOpKind::Get(Some(7)));
        assert!(h.is_linearizable());
        let mut bad = KvHistory::new();
        bad.push(5, 0, 1, KvOpKind::Insert(7));
        bad.push(5, 2, 3, KvOpKind::Get(None)); // Must see 7.
        assert!(!bad.is_linearizable());
    }

    #[test]
    fn initial_values_seed_the_key_state() {
        let mut h = KvHistory::new();
        h.set_initial(3, 99);
        h.push(3, 0, 1, KvOpKind::Get(Some(99)));
        assert!(h.is_linearizable());
        let mut bad = KvHistory::new();
        bad.set_initial(3, 99);
        bad.push(3, 0, 1, KvOpKind::Get(None));
        assert!(!bad.is_linearizable());
    }

    #[test]
    fn delete_makes_reads_observe_absence() {
        let mut h = KvHistory::new();
        h.set_initial(1, 5);
        h.push(1, 0, 1, KvOpKind::Delete);
        h.push(1, 2, 3, KvOpKind::Get(None));
        h.push(1, 4, 5, KvOpKind::FailAbsent); // update after delete: NotIndexed
        h.push(1, 6, 7, KvOpKind::Insert(8));
        h.push(1, 8, 9, KvOpKind::Get(Some(8)));
        assert!(h.is_linearizable());
    }

    #[test]
    fn successful_update_is_an_upsert() {
        // A successful update racing an in-flight insert (§5.3.1's
        // index-insert ∥ value-write) can land on a key whose value write
        // has not arrived yet — the real schedule the chaos suite found at
        // seed 3299212769. The spec therefore treats update success as an
        // upsert; only *failed* updates observe absence.
        let mut h = KvHistory::new();
        h.set_initial(3, 1);
        h.push(3, 0, 1, KvOpKind::Delete);
        h.push(3, 2, 20, KvOpKind::Insert(15)); // long in-flight insert
        h.push(3, 5, 8, KvOpKind::Update(19)); // succeeds mid-insert
        h.push(3, 25, 26, KvOpKind::Get(Some(15))); // insert's stamp won
        assert!(h.is_linearizable());
        // The value written still anchors reads: sequentially after the
        // update, nothing but 19 (or a later write) may be observed.
        let mut bad = KvHistory::new();
        bad.set_initial(3, 1);
        bad.push(3, 0, 1, KvOpKind::Update(19));
        bad.push(3, 2, 3, KvOpKind::Get(Some(1)));
        assert!(!bad.is_linearizable());
    }

    #[test]
    fn fail_absent_when_present_is_rejected() {
        let mut bad = KvHistory::new();
        bad.set_initial(9, 1);
        bad.push(9, 0, 1, KvOpKind::FailAbsent); // NotFound on a live key
        assert!(!bad.is_linearizable());
    }

    #[test]
    fn ambiguous_write_may_or_may_not_apply() {
        // A timed-out update with no later evidence: fine either way.
        let mut h = KvHistory::new();
        h.set_initial(1, 10);
        h.record(None, 1, 0, None, KvOpKind::Update(11));
        h.push(1, 5, 6, KvOpKind::Get(Some(10))); // didn't land (yet)
        assert!(h.is_linearizable());
        let mut h2 = KvHistory::new();
        h2.set_initial(1, 10);
        h2.record(None, 1, 0, None, KvOpKind::Update(11));
        h2.push(1, 5, 6, KvOpKind::Get(Some(11))); // landed
        assert!(h2.is_linearizable());
        // But it cannot flicker: landed, then un-landed.
        let mut bad = KvHistory::new();
        bad.set_initial(1, 10);
        bad.record(None, 1, 0, None, KvOpKind::Update(11));
        bad.push(1, 5, 6, KvOpKind::Get(Some(11)));
        bad.push(1, 7, 8, KvOpKind::Get(Some(10)));
        assert!(!bad.is_linearizable());
    }

    #[test]
    fn ttl_expiry_is_a_legal_linearization_point() {
        // A leased insert, a pre-expiry read of the value, the expiry event
        // at t=100, then a post-expiry read of absence: all four linearize
        // as insert → get(Some) → expiry-delete → get(None).
        let mut h = KvHistory::new();
        h.push(5, 0, 1, KvOpKind::Insert(9));
        h.push(5, 10, 11, KvOpKind::Get(Some(9)));
        h.expire(5, 100);
        h.push(5, 200, 201, KvOpKind::Get(None));
        assert!(h.is_linearizable());

        // Resurrection: a write after expiry makes the key live again —
        // the expiry delete linearizes between the reads (or before the
        // update; both are legal).
        let mut h2 = KvHistory::new();
        h2.push(5, 0, 1, KvOpKind::Insert(9));
        h2.expire(5, 100);
        h2.push(5, 200, 201, KvOpKind::Get(None));
        h2.push(5, 300, 301, KvOpKind::Update(10));
        h2.push(5, 400, 401, KvOpKind::Get(Some(10)));
        assert!(h2.is_linearizable());

        // The expiry cannot excuse a *wrong value*: a read observing a tag
        // nobody wrote stays non-linearizable.
        let mut bad = KvHistory::new();
        bad.push(5, 0, 1, KvOpKind::Insert(9));
        bad.expire(5, 100);
        bad.push(5, 200, 201, KvOpKind::Get(Some(42)));
        assert!(!bad.is_linearizable());
    }

    #[test]
    fn expiry_must_follow_ops_completed_before_it() {
        // An op that completed before the expiry instant precedes the
        // expiry delete: absence cannot be observed before the lease ran
        // out and then "un-expire".
        let mut h = KvHistory::new();
        h.push(5, 0, 1, KvOpKind::Insert(9));
        // Read of absence completed at t=11, long before the expiry at
        // t=100 — with no other delete in the history this cannot
        // linearize (the expiry delete is constrained to come after it).
        h.push(5, 10, 11, KvOpKind::Get(None));
        h.expire(5, 100);
        assert!(!h.is_linearizable());
    }

    #[test]
    fn ambiguous_write_may_land_arbitrarily_late() {
        // The client gave up at t=1, but the in-flight write landed after a
        // later read — allowed, because an ambiguous op has no response
        // edge.
        let mut h = KvHistory::new();
        h.set_initial(1, 10);
        h.record(None, 1, 0, None, KvOpKind::Update(11));
        h.push(1, 100, 101, KvOpKind::Get(Some(10)));
        h.push(1, 200, 201, KvOpKind::Get(Some(11)));
        assert!(h.is_linearizable());
    }

    #[test]
    fn definite_ops_are_counted_and_must_all_linearize() {
        let mut h = KvHistory::new();
        h.push(1, 0, 1, KvOpKind::Insert(1));
        h.record(None, 1, 2, None, KvOpKind::Delete);
        assert_eq!(h.len(), 2);
        assert_eq!(h.definite_ops(), 1);
    }

    #[test]
    fn oversized_key_subhistory_is_a_typed_error_not_a_panic() {
        // One key over the u128-bitmask budget: the checker must refuse
        // with TooManyOps (naming the key), not panic and not silently
        // "pass" an unchecked history.
        let mut h = KvHistory::new();
        for i in 0..(MAX_OPS_PER_KEY as u64 + 1) {
            h.push(7, 2 * i, 2 * i + 1, KvOpKind::Insert(i));
        }
        assert_eq!(
            h.check(),
            Err(CheckError::TooManyOps {
                key: 7,
                ops: MAX_OPS_PER_KEY + 1,
                max: MAX_OPS_PER_KEY,
            })
        );
        assert!(!h.is_linearizable());
        // Exactly at the limit the search runs (and this history passes).
        let mut ok = KvHistory::new();
        for i in 0..(MAX_OPS_PER_KEY as u64) {
            ok.push(9, 2 * i, 2 * i + 1, KvOpKind::Insert(i));
        }
        assert_eq!(ok.check(), Ok(()));
    }

    #[test]
    fn per_key_search_handles_thousands_of_total_ops() {
        // 4000 sequential ops spread over 100 keys: compositionality keeps
        // every per-key search tiny.
        let mut h = KvHistory::new();
        let mut t = 0u64;
        for round in 0..20u64 {
            for key in 0..100u64 {
                h.push(key, t, t + 1, KvOpKind::Insert(round));
                h.push(key, t + 2, t + 3, KvOpKind::Get(Some(round)));
                t += 4;
            }
        }
        assert_eq!(h.len(), 4000);
        assert!(h.is_linearizable());
    }
}

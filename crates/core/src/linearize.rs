//! Linearizability checking for KV and register histories: a time-ordered
//! just-in-time search per key (Lowe, *Testing for linearizability*, 2017).
//!
//! Used by the test suite to validate Safe-Guess, ABD, RAW and FUSEE
//! executions recorded from the simulator against an atomic specification
//! (the paper proves linearizability in Appendix C; we check it empirically
//! on thousands of randomized and fault-injected schedules, and on the
//! benches' planned runs at full volume).
//!
//! One front door, [`KvHistory`]: multi-key histories of
//! `Get`/`Insert`/`Update`/`Delete` operations, including error returns
//! (`NotFound`-style observations of absence) and *ambiguous* operations
//! whose effect is unknown because the client timed out or crashed
//! mid-call. Linearizability is compositional over objects (Herlihy &
//! Wing's locality theorem), so the checker verifies each key's subhistory
//! independently. A single register is one always-present key: a write is
//! an `Insert`, a read a `Get(Some(..))`.
//!
//! Per key, the search sweeps invocations and returns in time order
//! (invocations first at equal times, so `a` precedes `b` only if `a`
//! returned strictly before `b` was invoked) and carries a set of
//! configurations: the key's state, the pending operations already
//! linearized, and the operations pending when the latest write landed.
//! Nothing is linearized before it has to be (Lowe's just-in-time rule):
//!
//! * an observation (`Get`, `FailAbsent`) as soon as the state satisfies
//!   it, which never costs a linearization;
//! * a definite operation when it returns: a write lands then (the new
//!   state) or slips in just before the latest write, if it was pending
//!   when that landed (nothing observed it); an observation needs one
//!   write of the value it saw to land or slip in with it;
//! * an ambiguous write (a timeout) only where an observation needs it, at
//!   most once, and of interchangeable ones (two `Delete`s, say) always the
//!   earliest: discarding it is always legal.
//!
//! After each return, a configuration another one covers (same state, no
//! less room to slip, and the same linearized operations but for more
//! observations or fewer ambiguous writes) is dropped. The search state is
//! therefore bounded by the operations pending at once on a key, not by its
//! history length: there is no per-key size cap. A definite operation's
//! return that no configuration survives is the failure point, named with
//! its window by [`NonLinearizable`].

use std::collections::{BTreeMap, BTreeSet, HashMap};

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

/// Why a history failed the check: the first key, in key order, whose
/// subhistory admits no linearization, and the window the search failed
/// in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonLinearizable {
    /// The key whose subhistory admits no linearization.
    pub key: u64,
    /// Number of operations on that key.
    pub ops: usize,
    /// The earliest invocation among the definite operations pending at
    /// `at`, the returning one included.
    pub since: u64,
    /// The return instant no linearization survives.
    pub at: u64,
}

impl std::fmt::Display for NonLinearizable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let NonLinearizable {
            key,
            ops,
            since,
            at,
        } = self;
        write!(f, "no linearization exists for key {key} ({ops} ops): ")?;
        write!(f, "none survives the return at {at}, window from {since}")
    }
}

impl std::error::Error for NonLinearizable {}

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
        assert!(ret.is_none_or(|r| r >= invoke), "return before invoke");
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

    /// Checks the history against the atomic KV specification, whatever
    /// its length.
    ///
    /// Some linearization must exist per key: a total order of the key's
    /// operations that (a) respects real-time precedence (`a` returned
    /// before `b` was invoked ⇒ `a` before `b`), (b) is a legal sequential
    /// KV execution from the key's initial state, and (c) includes every
    /// unambiguous operation, while ambiguous ones may be applied or
    /// discarded.
    pub fn check(&self) -> Result<(), NonLinearizable> {
        let mut by_key: BTreeMap<u64, Vec<&KvHistoryOp>> = BTreeMap::new();
        for op in &self.ops {
            by_key.entry(op.key).or_default().push(op);
        }
        // Key order, so failures always name the same key.
        for (key, ops) in by_key {
            let window = check_key(&ops, self.initial.get(&key).copied());
            window.map_err(|(since, at)| NonLinearizable {
                key,
                ops: ops.len(),
                since,
                at,
            })?;
        }
        Ok(())
    }

    /// [`KvHistory::check`] as a boolean.
    pub fn is_linearizable(&self) -> bool {
        self.check().is_ok()
    }
}

/// One configuration of the search.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Config {
    /// The key's state.
    state: Option<u64>,
    /// The pending ops already linearized, ambiguous writes included.
    done: BTreeSet<usize>,
    /// The ops pending when the latest write landed: any of them may still
    /// slip in just before it.
    hide: BTreeSet<usize>,
}

/// The just-in-time sweep over one key's subhistory from `initial` (module
/// docs). On failure, returns the `(since, at)` window of
/// [`NonLinearizable`].
fn check_key(ops: &[&KvHistoryOp], initial: Option<u64>) -> Result<(), (u64, u64)> {
    // The state each op needs and the state it leaves. An ambiguous
    // observation constrains nothing, like a no-op.
    let (needs, writes): (Vec<_>, Vec<_>) = (ops.iter())
        .map(|o| match o.kind {
            KvOpKind::Get(v) if o.ret.is_some() => (Some(v), None),
            KvOpKind::FailAbsent if o.ret.is_some() => (Some(None), None),
            KvOpKind::Insert(v) | KvOpKind::Update(v) => (None, Some(Some(v))),
            KvOpKind::Delete => (None, Some(None)),
            _ => (None, None),
        })
        .unzip();
    let mut events = Vec::new();
    for (i, o) in ops.iter().enumerate() {
        if needs[i].or(writes[i]).is_some() {
            events.push((o.invoke, false, i));
            events.extend(o.ret.map(|r| (r, true, i)));
        }
    }
    events.sort_unstable();
    let (mut pending, mut configs) = (Vec::new(), vec![Config::default()]);
    configs[0].state = initial;
    // Write `w` lands now, and so does every pending observation of it.
    let land = |mut c: Config, w: usize, pending: &[usize]| {
        let seen = pending.iter().filter(|&&o| needs[o] == writes[w]);
        c.done.extend(seen.chain([&w]));
        c.hide = pending.iter().copied().collect();
        c.state = writes[w].expect("a write");
        c
    };
    // Or it slips in just before the latest write, with the observations
    // of it pending then: the state stays.
    let slip = |mut c: Config, w: usize| {
        let seen = c.hide.iter().filter(|&&o| needs[o] == writes[w]);
        c.done = seen.chain([&w]).chain(&c.done).copied().collect();
        c
    };
    for &(t, returned, i) in &events {
        if !returned {
            pending.push(i);
            for c in configs.iter_mut().filter(|c| needs[i] == Some(c.state)) {
                c.done.insert(i);
            }
            continue;
        }
        let mut next = Vec::new();
        for c in configs {
            if c.done.contains(&i) {
                next.push(c);
                continue;
            }
            // The writes that can linearize `i`: itself, or one whose value
            // it observed (of interchangeable ambiguous ones, the earliest).
            let open = |w: &&usize| writes[**w] == needs[i] && !c.done.contains(w);
            let ambiguous = pending.iter().filter(open).find(|&&w| ops[w].ret.is_none());
            let definite = pending
                .iter()
                .filter(open)
                .filter(|&&w| ops[w].ret.is_some());
            let writers: Vec<usize> = match writes[i] {
                Some(_) => vec![i],
                None => definite.chain(ambiguous).copied().collect(),
            };
            for w in writers {
                if c.hide.contains(&w) && c.hide.contains(&i) {
                    next.push(slip(c.clone(), w));
                }
                next.push(land(c.clone(), w, &pending));
            }
        }
        if next.is_empty() {
            let definite = pending.iter().filter(|&&o| ops[o].ret.is_some());
            return Err((definite.map(|&o| ops[o].invoke).min().unwrap_or(t), t));
        }
        pending.retain(|&o| o != i);
        // Keep only the configurations no other one covers: `d` can do
        // whatever `c` can if it has the same state, may slip in more, and
        // linearized the same ops but for more observations and fewer
        // ambiguous writes.
        let covers = |d: &Config, c: &Config| {
            let extra = |o: &usize| match d.done.contains(o) {
                true => needs[*o].is_some(),
                false => ops[*o].ret.is_none(),
            };
            let mut diff = d.done.symmetric_difference(&c.done);
            d.state == c.state && c.hide.is_subset(&d.hide) && diff.all(extra)
        };
        configs = Vec::new();
        for mut c in next {
            c.done.remove(&i);
            c.hide.remove(&i);
            if !configs.iter().any(|d| covers(d, &c)) {
                configs.retain(|d| !covers(&c, d));
                configs.push(c);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use swarm_sim::SimRng;

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
        let e = NonLinearizable {
            key: 1,
            ops: 3,
            since: 8,
            at: 9,
        };
        assert_eq!(bad.check(), Err(e));
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
    fn a_clientless_ambiguous_delete_is_a_legal_linearization_point() {
        // An insert, a read of the value, an ambiguous delete of no named
        // client invoked at t=100, then a read of absence: all four
        // linearize as insert → get(Some) → delete → get(None).
        let mut h = KvHistory::new();
        h.push(5, 0, 1, KvOpKind::Insert(9));
        h.push(5, 10, 11, KvOpKind::Get(Some(9)));
        h.record(None, 5, 100, None, KvOpKind::Delete);
        h.push(5, 200, 201, KvOpKind::Get(None));
        assert!(h.is_linearizable());

        // A later write makes the key live again: the delete linearizes
        // between the insert and the read of absence.
        let mut h2 = KvHistory::new();
        h2.push(5, 0, 1, KvOpKind::Insert(9));
        h2.record(None, 5, 100, None, KvOpKind::Delete);
        h2.push(5, 200, 201, KvOpKind::Get(None));
        h2.push(5, 300, 301, KvOpKind::Update(10));
        h2.push(5, 400, 401, KvOpKind::Get(Some(10)));
        assert!(h2.is_linearizable());

        // The delete cannot excuse a *wrong value*: a read observing a tag
        // nobody wrote stays non-linearizable.
        let mut bad = KvHistory::new();
        bad.push(5, 0, 1, KvOpKind::Insert(9));
        bad.record(None, 5, 100, None, KvOpKind::Delete);
        bad.push(5, 200, 201, KvOpKind::Get(Some(42)));
        assert!(!bad.is_linearizable());
    }

    #[test]
    fn a_clientless_ambiguous_delete_follows_ops_completed_before_it() {
        // An op that completed before the delete was invoked precedes it:
        // absence cannot be observed before the delete and then undone.
        let mut h = KvHistory::new();
        h.push(5, 0, 1, KvOpKind::Insert(9));
        // Read of absence completed at t=11, long before the delete was
        // invoked at t=100 — with no other delete in the history this
        // cannot linearize (the delete is constrained to come after it).
        h.push(5, 10, 11, KvOpKind::Get(None));
        h.record(None, 5, 100, None, KvOpKind::Delete);
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

    #[test]
    fn ten_thousand_op_key_is_checked_whole() {
        // One key, four overlapping clients, timeouts and client-less
        // ambiguous deletes: the whole subhistory is searched, however long
        // it is.
        let rng = SimRng::from_seed(0x11EA_0001, 0);
        let h = synth(&rng, 4, 10_000, usize::MAX);
        assert!(h.len() >= 10_000);
        assert_eq!(h.check(), Ok(()));
    }

    /// The old Wing–Gong search over `u128` completion masks, kept as the
    /// differential oracle: exhaustive over linearization points with
    /// memoization on `(set of completed ops, key state)`, for ≤ 128 ops.
    fn oracle(h: &KvHistory) -> bool {
        let mut keys: Vec<u64> = h.ops.iter().map(|o| o.key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().all(|key| {
            let ops: Vec<&KvHistoryOp> = h.ops.iter().filter(|o| o.key == key).collect();
            assert!(ops.len() <= 128, "the oracle's masks hold 128 ops");
            let mut precede = vec![0u128; ops.len()];
            for (i, mask) in precede.iter_mut().enumerate() {
                for (j, other) in ops.iter().enumerate() {
                    if i != j && other.ret.is_some_and(|r| r < ops[i].invoke) {
                        *mask |= 1 << j;
                    }
                }
            }
            let initial = h.initial.get(&key).copied();
            search(&ops, 0, initial, &precede, &mut HashSet::new())
        })
    }

    /// The sequential spec's transition: the state after `kind`, or `None`
    /// if `kind` is illegal in `state`.
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
        if n == 0 || done == u128::MAX >> (128 - n) {
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

    /// A seeded linearizable history of key 0 (initially tag 0): `clients`
    /// clients issue `n` ops between them, each invoked 0–10 ns after its
    /// client's previous return and lasting 20–60 ns, and each takes effect
    /// at a random instant of its interval, a read returning what the key
    /// held there. One write in sixteen reuses a tag from 1–3. Until
    /// `faults` ambiguous ops exist, one mutation in sixteen times out (it
    /// lands at a random later instant or never; its client moves on) and
    /// one op in thirty-two is followed by an ambiguous delete of no named
    /// client that lands later or never.
    fn synth(rng: &SimRng, clients: usize, n: usize, faults: usize) -> KvHistory {
        // (lands at, sequence, client, invoke, ret, what): what 0–3 reads,
        // 4–5 writes, 6 a delete, 7 an update that fails on absence.
        let mut planned = Vec::new();
        let mut free = vec![0u64; clients];
        let mut faults = faults;
        while planned.len() < n {
            let c = rng.rand_range(0, clients as u64) as usize;
            let invoke = free[c] + rng.rand_range(0, 11);
            let ret = invoke + rng.rand_range(20, 61);
            free[c] = ret;
            let what = rng.rand_range(0, 8);
            let ambiguous = faults > 0 && what >= 4 && rng.rand_range(0, 16) == 0;
            faults -= ambiguous as usize;
            let lands = match ambiguous {
                false => Some(rng.rand_range(invoke, ret + 1)),
                true => (rng.rand_range(0, 2) == 0).then(|| invoke + rng.rand_range(0, 400)),
            };
            let ret = (!ambiguous).then_some(ret);
            planned.push((lands, planned.len(), Some(c), invoke, ret, what));
            if faults > 0 && planned.len() < n && rng.rand_range(0, 32) == 0 {
                faults -= 1;
                let at = free[c] + rng.rand_range(0, 40);
                let lands = (rng.rand_range(0, 2) == 0).then(|| at + rng.rand_range(0, 200));
                planned.push((lands, planned.len(), None, at, None, 6));
            }
        }
        let mut kinds = vec![KvOpKind::FailNoop; planned.len()];
        let mut order: Vec<_> = planned.iter().collect();
        order.sort_by_key(|p| (p.0.is_none(), p.0, p.1));
        let (mut state, mut next_tag) = (Some(0), 100);
        for &&(lands, seq, _, _, ret, what) in &order {
            let mut tag = || match rng.rand_range(0, 16) {
                0 => rng.rand_range(1, 4),
                _ => {
                    next_tag += 1;
                    next_tag
                }
            };
            kinds[seq] = match what {
                0..=3 => KvOpKind::Get(state),
                4 => KvOpKind::Insert(tag()),
                5 => KvOpKind::Update(tag()),
                6 => KvOpKind::Delete,
                _ if state.is_none() && ret.is_some() => KvOpKind::FailAbsent,
                _ => KvOpKind::Update(tag()),
            };
            if lands.is_some() {
                state = apply(kinds[seq], state).expect("generated legal");
            }
        }
        let mut h = register();
        for (&(_, seq, client, invoke, ret, _), kind) in planned.iter().zip(kinds) {
            debug_assert_eq!(seq, h.len());
            h.record(client, 0, invoke, ret, kind);
        }
        h
    }

    /// Makes one definite read of `h` observe something else: absence, the
    /// initial tag, or a tag some write may have written.
    fn flip_a_read(rng: &SimRng, h: &mut KvHistory) {
        let reads: Vec<usize> = (0..h.len())
            .filter(|&i| h.ops[i].ret.is_some() && matches!(h.ops[i].kind, KvOpKind::Get(_)))
            .collect();
        if let Some(&i) = reads.get(rng.rand_range(0, reads.len() as u64 + 1) as usize) {
            h.ops[i].kind = KvOpKind::Get(match rng.rand_range(0, 4) {
                0 => None,
                1 => Some(0),
                2 => Some(rng.rand_range(1, 4)),
                _ => Some(rng.rand_range(100, 100 + h.len() as u64)),
            });
        }
    }

    #[test]
    fn differential_against_the_wing_gong_oracle() {
        // 10 000 seeded histories of 1–128 ops on one key from 1–4
        // clients, with no or up to 8 timeouts and client-less ambiguous
        // deletes, half with one read flipped: the sweep and the oracle
        // agree on every verdict.
        let mut verdicts = [0usize; 2];
        for case in 0..10_000 {
            let rng = SimRng::from_seed(0xD1FF_0001, case);
            let clients = rng.rand_range(1, 5) as usize;
            let n = rng.rand_range(1, 129) as usize;
            let faults = [0, 8][rng.rand_range(0, 2) as usize];
            let mut h = synth(&rng, clients, n, faults);
            if rng.rand_range(0, 2) == 0 {
                flip_a_read(&rng, &mut h);
            }
            let expected = oracle(&h);
            assert_eq!(h.is_linearizable(), expected, "case {case}: {h:?}");
            verdicts[expected as usize] += 1;
        }
        assert!(verdicts.iter().all(|&v| v >= 1_000), "{verdicts:?}");
    }

    #[test]
    fn the_known_violations_are_rejected_by_both_searches() {
        // The failing key subhistories of the chaos cells behind three
        // fixed defects, recorded at the commit before the fixes: `(key,
        // initial tag, [(invoke, return, kind)])`. Hedged chaos sweep,
        // SWARM-KV/Random/3300325525 (b); DM-ABD/Random/3303944508,
        // DM-ABD/Random/3303999941 and DM-ABD/JitterAndDrop/3304166240 (c).
        use KvOpKind::*;
        type Fixture = (u64, u64, &'static [(u64, Option<u64>, KvOpKind)]);
        const FIXTURES: [Fixture; 4] = [
            (
                3,
                4294967299,
                &[
                    (31764, Some(37153), Get(Some(4294967299))),
                    (76411, None, Delete),
                    (2129530, Some(2136977), Get(None)),
                    (2248154, Some(2256606), Insert(25)),
                    (2251850, Some(2261330), Insert(26)),
                    (2260528, Some(2265249), Insert(27)),
                    (2345285, Some(2347472), Get(Some(25))),
                    (2375845, Some(2378228), Insert(45)),
                    (2562397, Some(2564537), Get(Some(45))),
                    (2654068, Some(2656212), Get(Some(45))),
                ],
            ),
            (
                1,
                4294967297,
                &[
                    (51831, Some(57358), Get(Some(4294967297))),
                    (106182, None, Delete),
                    (2119627, Some(2126747), FailAbsent),
                    (2181705, Some(2185805), Update(24)),
                    (2233081, Some(2237271), Insert(33)),
                    (2410587, Some(2414688), Get(Some(24))),
                    (2521781, Some(2525916), Get(Some(24))),
                ],
            ),
            (
                2,
                4294967298,
                &[
                    (365736, Some(371119), Update(26)),
                    (463463, Some(470952), Insert(33)),
                    (574310, Some(578358), Insert(40)),
                    (702958, Some(706977), Get(Some(40))),
                    (722292, Some(726285), Get(Some(33))),
                    (806756, Some(810691), Get(Some(33))),
                    (112122, None, Delete),
                ],
            ),
            (
                5,
                4294967301,
                &[
                    (242940, Some(293043), Delete),
                    (217513, Some(294932), Insert(14)),
                    (238066, Some(305538), Insert(15)),
                    (320703, Some(324721), Insert(18)),
                    (443611, Some(447644), Get(Some(14))),
                    (545422, Some(549539), Insert(43)),
                    (556314, Some(561763), Get(Some(43))),
                    (648392, Some(652346), Get(Some(14))),
                ],
            ),
        ];
        for (key, initial, ops) in FIXTURES {
            let mut h = KvHistory::new();
            h.set_initial(key, initial);
            for &(invoke, ret, kind) in ops {
                h.record(None, key, invoke, ret, kind);
            }
            assert!(!oracle(&h), "oracle accepted key {key}");
            assert_eq!(h.check().map_err(|e| (e.key, e.ops)), Err((key, ops.len())));
        }
    }

    #[test]
    fn half_a_million_ops_on_one_key_check_and_a_flipped_read_is_named() {
        // 16 overlapping clients on one key: the history linearizes as
        // generated; with the read nearest op 400 000 returning a tag
        // nobody wrote, the failure window holds tens of ops, not the key.
        let rng = SimRng::from_seed(0x500_000, 0);
        let mut h = synth(&rng, 16, 500_000, 0);
        let t = std::time::Instant::now();
        assert_eq!(h.check(), Ok(()));
        let accepted = t.elapsed();
        let i = (400_000..h.len())
            .find(|&i| matches!(h.ops[i].kind, KvOpKind::Get(_)))
            .unwrap();
        h.ops[i].kind = KvOpKind::Get(Some(u64::MAX));
        let t = std::time::Instant::now();
        let e = h.check().unwrap_err();
        let rejected = t.elapsed();
        assert_eq!(e.at, h.ops[i].ret.unwrap());
        let named = (h.ops.iter())
            .filter(|o| o.invoke <= e.at && o.ret.is_none_or(|r| r >= e.since))
            .count();
        println!("accepted in {accepted:?}, rejected in {rejected:?}, window names {named} ops");
        assert!(named <= 40, "{named} ops in the window");
    }
}

//! Protocol-layer traits and shared client state.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use swarm_sim::{Nanos, Sim};

use crate::stamp::Stamp;
use crate::value::MVal;

/// What a single fallible (per-node) max-register replica returns to a read.
///
/// With the paper's bandwidth optimization (§6), in-place data lives at only
/// one replica, so a replica may answer with its stamp but *without* the
/// value; the reliable layer then [`ReplicaClient::fetch`]es the payload from
/// whichever replica reported the maximum.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Highest stamp stored at the replica.
    pub stamp: Stamp,
    /// Opaque replica-specific token identifying the stamped data (the raw
    /// In-n-Out metadata word); passed back to [`ReplicaClient::fetch`].
    pub token: u64,
    /// The value stamped `stamp`, if the replica could return its payload
    /// in the same roundtrip.
    pub value: Option<MVal>,
}

/// Client handle to one fallible per-node max register (the paper's
/// "unreliable max register", §2.3).
///
/// Methods consume a clone so the returned futures are `'static` and can be
/// raced in quorums; a crashed node's future simply never resolves (the
/// fabric is silent), so callers bound waits with timeouts.
pub trait ReplicaClient: Clone + 'static {
    /// How one client's [`crate::ReliableMaxReg`] holds replicas of this
    /// kind.
    type Set: ReplicaSet<Self>;

    /// Applies `MAX(register, v)` at the replica; resolves once acknowledged.
    fn write(self, v: MVal) -> impl Future<Output = ()> + 'static;

    /// Reads the replica's current maximum.
    fn read(self) -> impl Future<Output = Snapshot> + 'static;

    /// Retrieves the payload for a previously observed `token`, returning a
    /// value whose stamp is `>=` the token's stamp (newer is fine: max
    /// registers only promise a lower bound).
    fn fetch(self, token: u64) -> impl Future<Output = MVal> + 'static;
}

/// The replicas of one register as one client holds them: the one
/// allocation a [`crate::ReliableMaxReg`] points at. It reaches the client's
/// [`QuorumClient`], names each replica's node and client, and keeps the
/// highest stamp the client knows each replica stores (Algorithm 8's cache).
pub trait ReplicaSet<R>: 'static {
    /// The quorum state of the client holding the set.
    fn quorum(&self) -> &QuorumClient;

    /// Number of replicas.
    fn len(&self) -> usize;

    /// True if the set has no replicas.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node hosting replica `i` (indexes [`NodeHealth`]; a node may host
    /// several replicas when replicas > nodes, §7.5).
    fn node(&self, i: usize) -> usize;

    /// Replica contacted first (preferred order is rotated by it, §6).
    fn rotation(&self) -> usize;

    /// The client of replica `i`; its futures share `this`.
    fn replica(this: &Rc<Self>, i: usize) -> R
    where
        Self: Sized;

    /// Highest stamp known to be stored at replica `i`.
    fn stored(&self, i: usize) -> Stamp;

    /// Records that replica `i` stores `stamp` (kept if higher).
    fn note_stored(&self, i: usize, stamp: Stamp);
}

/// A reliable (majority-replicated, wait-free) max register — the interface
/// shared by ABD and Safe-Guess (Algorithms 1, 2/3) and implemented by
/// [`crate::ReliableMaxReg`].
pub trait MaxRegister: Clone + 'static {
    /// Writes `v`; on return, `v` is stored at a majority.
    fn write(&self, v: MVal) -> impl Future<Output = ()> + 'static;

    /// Reads the maximum; includes the write-back phase required for
    /// read-read monotonicity (Appendix A).
    fn read(&self) -> impl Future<Output = MVal> + 'static;

    /// 1-RTT stamp-only read without write-back: sufficient for fresh-
    /// timestamp discovery in writes (Appendix A.2 optimization).
    fn read_stamp(&self) -> impl Future<Output = Stamp> + 'static;

    /// Fire-and-forget background write (Safe-Guess `in bg: M.WRITE(..)`).
    fn write_bg(&self, v: MVal);
}

/// Widen after this multiple of the smoothed quorum RTT.
pub(crate) const WIDEN_RTT_MULTIPLE: f64 = 4.0;
/// The adaptive widen deadline never exceeds the floor
/// ([`QuorumConfig::widen_timeout_ns`]) times this.
pub(crate) const WIDEN_TIMEOUT_MAX_SCALE: Nanos = 32;

/// Per-client failure suspicion, shared across all registers of one client.
///
/// One rule, applied by [`crate::QuorumRound`]: a node is suspected when an
/// optimistic request to it is still silent at the widen deadline, and any
/// reply from it clears that (a round's answered slots, a register's
/// background refresh). Suspected nodes are not contacted optimistically
/// (they are still contacted when quorums must widen). This reproduces
/// §7.7: after a memory node crashes, only the first few operations pay the
/// timeout, the node never answers and stays suspected, and no
/// reconfiguration is needed. A healthy node whose one reply ran late is
/// trusted again at its next reply — in the common case the refresh that a
/// read's free write-back sends to the replica the cache shows stale — so
/// it does not stay out of the optimistic majority (and away from the
/// in-place copy it may hold, §6) for the rest of the run. Membership also
/// suspects and clears nodes on lease expiry and recovery.
///
/// The health state also tracks a smoothed estimate of this client's quorum
/// roundtrip time, from which the widen deadline is derived (TCP-RTO style):
/// under load-induced queueing the timeout scales with observed latency, so
/// widening fires only for genuine stragglers and crashes. A fixed timeout
/// instead false-fires for *every* operation once queueing delay crosses it,
/// and the widened quorums double the message load — a self-sustaining
/// congestion collapse (~760 roundtrips/op at 32 clients x 4 concurrent ops)
/// that the paper's testbed does not exhibit (§7.3 saturates gracefully).
#[derive(Debug)]
pub struct NodeHealth {
    suspected: RefCell<Vec<bool>>,
    /// Smoothed quorum RTT in nanoseconds; 0.0 until the first sample.
    srtt_ns: Cell<f64>,
}

impl NodeHealth {
    /// Creates all-healthy state for `n` nodes.
    pub fn new(n: usize) -> Rc<Self> {
        Rc::new(NodeHealth {
            suspected: RefCell::new(vec![false; n]),
            srtt_ns: Cell::new(0.0),
        })
    }

    /// Feeds one observed quorum completion time into the RTT estimate
    /// (EWMA with gain 1/8, as in TCP's SRTT).
    pub fn observe_rtt(&self, ns: Nanos) {
        let sample = ns as f64;
        let old = self.srtt_ns.get();
        self.srtt_ns.set(if old == 0.0 {
            sample
        } else {
            old + (sample - old) / 8.0
        });
    }

    /// The smoothed quorum RTT estimate in nanoseconds (0 before any sample).
    pub fn srtt_ns(&self) -> Nanos {
        self.srtt_ns.get() as Nanos
    }

    /// The widen deadline to allow from now: `WIDEN_RTT_MULTIPLE` times
    /// the smoothed RTT, clamped between the configured floor (crash-failover
    /// latency when idle) and `WIDEN_TIMEOUT_MAX_SCALE` times it (bounds
    /// the estimator's feedback when widened operations themselves feed back
    /// inflated samples).
    pub fn widen_timeout_ns(&self, cfg: &QuorumConfig) -> Nanos {
        let adaptive = (self.srtt_ns.get() * WIDEN_RTT_MULTIPLE) as Nanos;
        let floor = cfg.widen_timeout_ns;
        adaptive.clamp(floor, floor * WIDEN_TIMEOUT_MAX_SCALE)
    }

    /// Marks node `i` suspected.
    pub fn suspect(&self, i: usize) {
        self.suspected.borrow_mut()[i] = true;
    }

    /// Clears suspicion of node `i` (e.g., membership says it recovered).
    pub fn clear(&self, i: usize) {
        self.suspected.borrow_mut()[i] = false;
    }

    /// True if node `i` is currently suspected.
    pub fn is_suspected(&self, i: usize) -> bool {
        self.suspected.borrow()[i]
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.suspected.borrow().len()
    }

    /// True if no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Percentile of the per-destination RTT window that arms a hedge.
pub(crate) const HEDGE_DELAY_PCT: f64 = 99.0;
/// Per-node RTT window size: the percentile estimate refreshes from at most
/// the last this many samples.
pub(crate) const RTT_WINDOW: usize = 512;
/// Largest samples of a window an [`RttTracker`] keeps. For any `n <=
/// RTT_WINDOW` samples the `HEDGE_DELAY_PCT` rank, `round(0.99 · (n − 1))`,
/// is at most 5 below the top (`rtt_rank_lies_within_the_kept_samples`).
const RTT_KEPT: usize = 6;
/// Maximum hedges in flight per client across all its registers; excess
/// stragglers fall through to the ordinary widen path.
pub(crate) const MAX_HEDGES_INFLIGHT: usize = 4;

/// Tail-latency hedging knobs (§"tail at scale"-style request hedging).
///
/// Off by default: with `enabled = false` no [`Hedger`] is minted, no extra
/// timers are scheduled, no RNG is drawn, and every existing execution
/// replays bit-identically.
/// When enabled, a quorum operation that is still incomplete after the
/// slowest contacted node's tracked `HEDGE_DELAY_PCT` latency sends one
/// extra copy of the request to spare quorum members; first response wins
/// and the loser's delivery is idempotent (reads and CAS-MAX writes commute
/// with themselves). The window (`RTT_WINDOW`) and the in-flight budget
/// (`MAX_HEDGES_INFLIGHT`) are constants; so is `RTT_KEPT`, the samples of a
/// window that decide its percentile (see [`RttTracker`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Master switch; `false` is bit-identical to the pre-hedging code.
    pub enabled: bool,
    /// Per-node samples required before hedging arms: until every contacted
    /// node has an estimate, operations run unhedged.
    pub min_samples: usize,
}

impl HedgeConfig {
    /// Hedging off — the default, bit-identical to pre-hedging executions.
    pub fn disabled() -> Self {
        HedgeConfig {
            enabled: false,
            ..Self::on()
        }
    }

    /// Hedging on, arming after 16 samples per node (the p99 arm, budget
    /// and window are `HEDGE_DELAY_PCT`, `MAX_HEDGES_INFLIGHT` and
    /// `RTT_WINDOW`).
    pub fn on() -> Self {
        HedgeConfig {
            enabled: true,
            min_samples: 16,
        }
    }
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Per-node exact-percentile RTT windows: the estimator behind hedged
/// requests.
///
/// Each node keeps a rolling window of observed request RTTs; the
/// `HEDGE_DELAY_PCT` percentile is recomputed every
/// [`HedgeConfig::min_samples`] observations (and the window restarts after
/// `RTT_WINDOW` samples), so the estimate tracks latency shifts. The
/// percentile is the one [`swarm_sim::Histogram::percentile`] reads off the
/// sorted window, at rank `round(0.99 · (n − 1))` of `n` samples. That rank
/// lies at most `RTT_KEPT − 1` below the top for any `n <= RTT_WINDOW`, so a
/// window keeps only its `RTT_KEPT` largest samples and a count: nothing is
/// sorted, and every query answers exactly as the sorted window would.
#[derive(Debug)]
pub struct RttTracker {
    min_samples: usize,
    nodes: RefCell<Vec<NodeWindow>>,
}

#[derive(Debug, Default)]
struct NodeWindow {
    /// The window's `RTT_KEPT` largest samples, largest first; all of them
    /// while it has fewer.
    top: [Nanos; RTT_KEPT],
    /// Samples in the window.
    len: usize,
    est: Option<Nanos>,
}

impl NodeWindow {
    fn record(&mut self, ns: Nanos) {
        let mut i = self.len.min(RTT_KEPT - 1);
        if self.len < RTT_KEPT || ns > self.top[i] {
            while i > 0 && self.top[i - 1] < ns {
                self.top[i] = self.top[i - 1];
                i -= 1;
            }
            self.top[i] = ns;
        }
        self.len += 1;
    }

    /// The window's `HEDGE_DELAY_PCT` percentile, at `Histogram`'s rank.
    fn percentile(&self) -> Nanos {
        let n = self.len;
        let rank = ((HEDGE_DELAY_PCT / 100.0) * (n as f64 - 1.0)).round() as usize;
        self.top[n - 1 - rank.min(n - 1)]
    }
}

impl RttTracker {
    /// Creates a tracker for `n` nodes with the given estimator tuning.
    pub fn new(n: usize, cfg: &HedgeConfig) -> Self {
        RttTracker {
            min_samples: cfg.min_samples.max(1),
            nodes: RefCell::new((0..n).map(|_| NodeWindow::default()).collect()),
        }
    }

    /// Feeds one observed RTT for `node`.
    pub fn observe(&self, node: usize, ns: Nanos) {
        let mut nodes = self.nodes.borrow_mut();
        let w = &mut nodes[node];
        w.record(ns);
        let full = w.len >= RTT_WINDOW;
        if full || w.len.is_multiple_of(self.min_samples) {
            w.est = Some(w.percentile());
        }
        if full {
            w.len = 0;
        }
    }

    /// The current `HEDGE_DELAY_PCT` estimate for `node` (`None` until
    /// the node has at least [`HedgeConfig::min_samples`] observations).
    pub fn estimate(&self, node: usize) -> Option<Nanos> {
        self.nodes.borrow()[node].est
    }
}

/// Per-client hedging state shared by all of a client's registers (like
/// [`NodeHealth`]): RTT tracker + the in-flight hedge budget + the fabric
/// counter sink.
///
/// Deterministic by construction: arming decisions read only virtual time
/// and the tracker (no RNG), so hedged runs are bit-reproducible and a
/// `None` hedger leaves every code path untouched.
#[derive(Clone)]
pub struct Hedger {
    inner: Rc<HedgerInner>,
}

struct HedgerInner {
    tracker: RttTracker,
    inflight: Cell<usize>,
    /// Counter sink: hedge events land in the fabric's [`TrafficStats`]
    /// (`None` in substrate-less unit tests).
    fabric: Option<swarm_fabric::Fabric>,
}

impl Hedger {
    /// Mints a hedger for `nodes` nodes, or `None` when `cfg` is disabled —
    /// the "off" representation that guarantees bit-parity.
    pub fn new(
        cfg: HedgeConfig,
        nodes: usize,
        fabric: Option<swarm_fabric::Fabric>,
    ) -> Option<Self> {
        if !cfg.enabled {
            return None;
        }
        Some(Hedger {
            inner: Rc::new(HedgerInner {
                tracker: RttTracker::new(nodes, &cfg),
                inflight: Cell::new(0),
                fabric,
            }),
        })
    }

    /// Feeds one observed per-node request RTT.
    pub fn observe(&self, node: usize, ns: Nanos) {
        self.inner.tracker.observe(node, ns);
    }

    /// The hedge delay for a quorum contacting `nodes`: the slowest
    /// contacted node's tracked percentile. `None` (operation runs
    /// unhedged) until every contacted node has an estimate.
    pub fn delay_for(&self, nodes: impl Iterator<Item = usize>) -> Option<Nanos> {
        let mut max: Option<Nanos> = None;
        for n in nodes {
            let est = self.inner.tracker.estimate(n)?;
            max = Some(max.map_or(est, |m| m.max(est)));
        }
        max
    }

    /// Claims one of the `MAX_HEDGES_INFLIGHT` slots of the in-flight
    /// hedge budget and counts the hedge as fired; `None` when the budget is
    /// exhausted (the op falls through to the ordinary widen path). The
    /// returned [`HedgeTicket`] must be settled with the hedge's outcome; if
    /// the operation future is dropped first (e.g. cancelled at its op
    /// deadline), the unsettled ticket settles as discarded and releases its
    /// slot. A round settles its tickets when its wait ends, so none
    /// outlives the widen deadline (`QuorumRound`'s module docs).
    pub fn try_fire(&self) -> Option<HedgeTicket> {
        if self.inner.inflight.get() >= MAX_HEDGES_INFLIGHT {
            return None;
        }
        self.inner.inflight.set(self.inner.inflight.get() + 1);
        if let Some(f) = &self.inner.fabric {
            f.note_hedge_fired();
        }
        Some(HedgeTicket {
            hedger: self.clone(),
            settled: false,
        })
    }

    /// Releases a fired hedge's budget slot and records its outcome.
    fn release(&self, won: bool) {
        self.inner.inflight.set(self.inner.inflight.get() - 1);
        if let Some(f) = &self.inner.fabric {
            if won {
                f.note_hedge_won();
            } else {
                f.note_duplicate_discarded();
            }
        }
    }

    /// Hedges currently in flight (tests).
    pub fn inflight(&self) -> usize {
        self.inner.inflight.get()
    }
}

/// One claimed slot of a [`Hedger`]'s in-flight budget (see
/// [`Hedger::try_fire`]). Settling records the hedge's outcome; an
/// unsettled ticket settles as *discarded* when dropped, so cancelled
/// operations (op-deadline timeouts dropping the future between fire and
/// settle) still release the budget and `fired == won + discarded` holds.
pub struct HedgeTicket {
    hedger: Hedger,
    settled: bool,
}

impl HedgeTicket {
    /// Releases the budget slot, recording `won` if the hedge's response
    /// counted toward completing the operation (otherwise the duplicate
    /// was discarded).
    pub fn settle(mut self, won: bool) {
        self.settled = true;
        self.hedger.release(won);
    }
}

impl Drop for HedgeTicket {
    fn drop(&mut self) {
        if !self.settled {
            self.hedger.release(false);
        }
    }
}

/// Shared roundtrip counter: protocols bump it once per *sequential* network
/// phase, so the KV layer can report per-operation roundtrip counts
/// (Table 2) by differencing.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    count: Rc<Cell<u64>>,
}

impl Rounds {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one roundtrip.
    pub fn bump(&self) {
        self.add(1);
    }

    /// Adds `n` roundtrips.
    pub fn add(&self, n: u64) {
        self.count.set(self.count.get() + n);
    }

    /// Total roundtrips recorded.
    pub fn get(&self) -> u64 {
        self.count.get()
    }

    /// Removes `n` counted roundtrips: used when two phases that each
    /// counted themselves actually ran in parallel (e.g. Safe-Guess's
    /// write + freshness read, Algorithm 2 line 6).
    pub fn uncount(&self, n: u64) {
        self.count.set(self.count.get().saturating_sub(n));
    }
}

/// Common quorum-timing knobs shared by the reliable register and the
/// timestamp lock.
#[derive(Debug, Clone, Copy)]
pub struct QuorumConfig {
    /// Minimum wait for the optimistic majority before widening to all
    /// replicas and suspecting the stragglers (§6, §7.7). This floor is the
    /// effective timeout while the fabric is unloaded; under load the
    /// deadline stretches adaptively (see [`NodeHealth::widen_timeout_ns`]).
    pub widen_timeout_ns: Nanos,
}

impl Default for QuorumConfig {
    fn default() -> Self {
        QuorumConfig {
            widen_timeout_ns: 6_000,
        }
    }
}

/// What every quorum round of one client shares: its simulation, node
/// health, quorum timing, roundtrip counter and hedger.
pub struct QuorumClient {
    /// The simulation.
    pub sim: Sim,
    /// Suspicion and the smoothed quorum RTT.
    pub health: Rc<NodeHealth>,
    /// Quorum timing.
    pub cfg: QuorumConfig,
    /// Roundtrips of the client's operations.
    pub rounds: Rounds,
    /// Tail-latency hedging; `None` — the default — is bit-identical to
    /// the pre-hedging code.
    pub hedger: Option<Hedger>,
}

impl QuorumClient {
    /// A client's quorum state (construction draws nothing and schedules
    /// nothing).
    pub fn new(
        sim: &Sim,
        health: Rc<NodeHealth>,
        cfg: QuorumConfig,
        rounds: Rounds,
        hedger: Option<Hedger>,
    ) -> Self {
        QuorumClient {
            sim: sim.clone(),
            health,
            cfg,
            rounds,
            hedger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_tracks_suspicion() {
        let h = NodeHealth::new(3);
        assert!(!h.is_suspected(1));
        h.suspect(1);
        assert!(h.is_suspected(1));
        h.clear(1);
        assert!(!h.is_suspected(1));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn rounds_accumulate_shared() {
        let r = Rounds::new();
        let r2 = r.clone();
        r.bump();
        r2.add(2);
        assert_eq!(r.get(), 3);
    }

    #[test]
    fn rtt_tracker_estimates_after_min_samples() {
        let cfg = HedgeConfig {
            min_samples: 4,
            ..HedgeConfig::on()
        };
        let t = RttTracker::new(2, &cfg);
        assert_eq!(t.estimate(0), None);
        for ns in [100, 200, 300, 400] {
            t.observe(0, ns);
        }
        // p99 of a 4-sample window is its maximum.
        assert_eq!(t.estimate(0), Some(400));
        // Other nodes stay unestimated.
        assert_eq!(t.estimate(1), None);
        // The estimate refreshes as the window rolls.
        for _ in 0..4 {
            t.observe(0, 1_000);
        }
        assert_eq!(t.estimate(0), Some(1_000));
    }

    #[test]
    fn rtt_tracker_window_restarts_and_forgets() {
        let cfg = HedgeConfig {
            min_samples: 2,
            ..HedgeConfig::on()
        };
        let t = RttTracker::new(1, &cfg);
        for _ in 0..RTT_WINDOW {
            t.observe(0, 9_000);
        }
        assert_eq!(t.estimate(0), Some(9_000));
        // The window restarted at its last sample: one fast sample is not
        // yet a refresh, and two replace the slow estimate outright (a
        // window still holding the slow samples would keep its p99 there).
        t.observe(0, 10);
        assert_eq!(t.estimate(0), Some(9_000));
        t.observe(0, 10);
        assert_eq!(t.estimate(0), Some(10));
    }

    /// The estimator as it stood before it kept only the top of a window:
    /// the whole window in a `Histogram`, sorted at every refresh.
    struct SortedWindow {
        hist: swarm_sim::Histogram,
        est: Option<Nanos>,
        min_samples: usize,
    }

    impl SortedWindow {
        fn observe(&mut self, ns: Nanos) {
            self.hist.record(ns);
            let n = self.hist.len();
            if n >= RTT_WINDOW {
                self.est = Some(self.hist.percentile(HEDGE_DELAY_PCT));
                self.hist = swarm_sim::Histogram::new();
            } else if n.is_multiple_of(self.min_samples) {
                self.est = Some(self.hist.percentile(HEDGE_DELAY_PCT));
            }
        }
    }

    #[test]
    fn rtt_tracker_matches_a_sorted_window() {
        for min_samples in [1, 3, 16] {
            let cfg = HedgeConfig {
                min_samples,
                ..HedgeConfig::on()
            };
            let t = RttTracker::new(1, &cfg);
            let mut sorted = SortedWindow {
                hist: swarm_sim::Histogram::new(),
                est: None,
                min_samples,
            };
            let rng = swarm_sim::SimRng::from_seed(min_samples as u64, 0x277);
            for i in 0..20_000u64 {
                // Phases of few distinct values (ties), rising and falling
                // runs, and spikes, each longer than a window or not.
                let ns = match (i / 700) % 4 {
                    0 => rng.rand_range(1, 6) * 100,
                    1 => 1_000 + i % 700,
                    2 => 100_000 - i % 700,
                    _ if rng.rand_range(0, 20) == 0 => 50_000 + rng.rand_range(0, 3),
                    _ => rng.rand_range(1_000, 1_100),
                };
                t.observe(0, ns);
                sorted.observe(ns);
                assert_eq!(
                    t.estimate(0),
                    sorted.est,
                    "min_samples {min_samples}, observation {i}"
                );
            }
        }
    }

    #[test]
    fn rtt_rank_lies_within_the_kept_samples() {
        // Histogram's percentile of the samples 0..n is the rank itself.
        for n in 1..=RTT_WINDOW {
            let mut h = swarm_sim::Histogram::new();
            (0..n as Nanos).for_each(|v| h.record(v));
            let below_top = n - 1 - h.percentile(HEDGE_DELAY_PCT) as usize;
            assert!(
                below_top < RTT_KEPT,
                "n {n}: rank {below_top} below the top"
            );
        }
    }

    #[test]
    fn disabled_hedge_config_mints_no_hedger() {
        assert!(Hedger::new(HedgeConfig::disabled(), 3, None).is_none());
        assert!(Hedger::new(HedgeConfig::default(), 3, None).is_none());
        assert!(Hedger::new(HedgeConfig::on(), 3, None).is_some());
    }

    #[test]
    fn hedger_delay_is_slowest_contacted_estimate() {
        let h = Hedger::new(
            HedgeConfig {
                min_samples: 1,
                ..HedgeConfig::on()
            },
            3,
            None,
        )
        .unwrap();
        h.observe(0, 500);
        h.observe(1, 2_000);
        // Node 2 has no estimate yet: quorums touching it run unhedged.
        assert_eq!(h.delay_for([0, 2].into_iter()), None);
        assert_eq!(h.delay_for([0].into_iter()), Some(500));
        assert_eq!(h.delay_for([0, 1].into_iter()), Some(2_000));
    }

    #[test]
    fn hedge_budget_caps_inflight_and_settles() {
        let h = Hedger::new(HedgeConfig::on(), 3, None).unwrap();
        let mut held: Vec<_> = (0..MAX_HEDGES_INFLIGHT)
            .map(|_| h.try_fire().expect("within the budget"))
            .collect();
        assert!(h.try_fire().is_none(), "budget exhausted");
        held.pop().unwrap().settle(true);
        assert_eq!(h.inflight(), MAX_HEDGES_INFLIGHT - 1);
        held.push(h.try_fire().expect("settling frees a slot"));
        for ticket in held {
            ticket.settle(false);
        }
        assert_eq!(h.inflight(), 0);
        // A cancelled op drops its ticket unsettled: the budget still
        // releases (as a discarded duplicate), never leaking a slot.
        drop(h.try_fire().unwrap());
        assert_eq!(h.inflight(), 0);
    }
}

//! The staged quorum round: the one place that decides how a client waits
//! for `needed` of its replicas (§6, §7.7).
//!
//! Every quorum wait of every protocol — the reliable max register's write,
//! majority read and payload chase, the timestamp lock's `TRYLOCK`, FUSEE's
//! block read and per-replica block write — is a [`QuorumRound`] over a
//! caller-supplied candidate list and request future. The stages, in order:
//!
//! 1. **Send.** The first `needed` candidates are contacted. Candidates are
//!    `(replica, node)` pairs in contact order and slot `s` of the round is
//!    always candidate `s`, so the caller's order *is* the policy: preferred
//!    majority first, then spares, then everything else.
//! 2. **Hedge** (only with a [`Hedger`], and only while uncontacted
//!    candidates remain). If the slowest contacted node's tracked RTT
//!    percentile elapses before the widen deadline with the quorum still
//!    short, one duplicate per missing response goes to the next candidates,
//!    each claiming a [`HedgeTicket`] from the client's in-flight budget;
//!    when the budget runs out the rest is left to the widen stage. A
//!    candidate may repeat a replica already contacted (the caller lists it
//!    twice): that is how single-replica requests hedge, and it is safe only
//!    where `needed` is 1 and the request is idempotent — a duplicate to a
//!    counted replica would otherwise double-count it toward a majority.
//! 3. **Widen deadline** (only with a [`NodeHealth`]). The wait is bounded
//!    by [`NodeHealth::widen_timeout_ns`] from the round's start. At the
//!    deadline every *optimistically contacted* slot that is still silent
//!    has its node suspected; hedge slots are exempt — they were contacted
//!    late, their silence says nothing about the node. That is the one
//!    rule for suspicion, and its converse is the other half: any reply
//!    from a node clears it (stage 5 here; a register's background
//!    refresh, [`crate::ReliableMaxReg`]). A late reply from a healthy
//!    node therefore costs one suspicion until its next answer, while a
//!    crashed node never answers and stays suspected.
//!    [`QuorumRound::wait`] returns here and leaves the choice to the
//!    caller; [`QuorumRound::complete`] contacts every remaining candidate
//!    and waits the quorum out.
//! 4. **Settle.** When [`QuorumRound::wait`] returns — quorum met or widen
//!    deadline passed — every ticket the round fired settles: *won* if the
//!    hedge's own slot has answered, *discarded* otherwise. No hedge fires
//!    after that.
//! 5. **Finish.** The completed `(replica, result)` pairs come back in
//!    contact order, and (with a [`NodeHealth`]) the node of every slot
//!    that answered is cleared of suspicion — hedge and widened slots too.
//!
//! Invariants the callers and the tests rely on:
//!
//! * Arming reads only virtual time and the RTT tracker, never an RNG, so a
//!   hedged run replays bit for bit; with no hedger the round schedules one
//!   timer (the widen deadline) and pushes the caller's futures unwrapped.
//! * A ticket lives no longer than its round's wait, so `fired == won +
//!   discarded` once no wait is pending: a round dropped mid-wait (an
//!   op-deadline cancellation) releases its tickets as discarded through
//!   [`HedgeTicket`]'s `Drop`, and a round that waits on past its widen
//!   deadline in [`QuorumRound::complete`] — possibly forever, when a
//!   background write's replies were all dropped — holds none.
//! * Only a completed quorum wait ([`QuorumRound::complete`]) is a sample
//!   of the client's quorum RTT; a bounded [`QuorumRound::wait`] the caller
//!   may abandon is not.

use std::future::Future;

use swarm_sim::{timeout_at, Nanos, Quorum, Sim, TimedOut};

use crate::traits::{HedgeTicket, Hedger, NodeHealth, QuorumConfig};

/// One staged wait for `needed` responses (see the module docs).
pub struct QuorumRound<'a, T, M> {
    sim: &'a Sim,
    hedger: Option<&'a Hedger>,
    /// Where suspicions and RTT samples go, and the widen deadline.
    widen: Option<(&'a NodeHealth, Nanos)>,
    /// `(replica, node)` in contact order; slot `s` of `q` is `cands[s]`.
    cands: &'a [(usize, usize)],
    /// Builds the request to a replica.
    make: M,
    needed: usize,
    t0: Nanos,
    q: Quorum<'static, T>,
    /// Hedge `i` occupies slot `first() + i`.
    hedges: Vec<HedgeTicket>,
}

impl<'a, T, F, M> QuorumRound<'a, T, M>
where
    F: Future<Output = T> + 'static,
    M: FnMut(usize) -> F,
{
    /// Starts a round: contacts the first `needed` of `cands` with
    /// `make(replica)`. `widen` bounds the wait and receives the suspicions
    /// (`None`: the round waits as long as it takes).
    pub fn new(
        sim: &'a Sim,
        hedger: Option<&'a Hedger>,
        widen: Option<(&'a NodeHealth, &QuorumConfig)>,
        needed: usize,
        cands: &'a [(usize, usize)],
        make: M,
    ) -> Self {
        let t0 = sim.now();
        let mut round = QuorumRound {
            sim,
            hedger,
            widen: widen.map(|(health, cfg)| (health, t0 + health.widen_timeout_ns(cfg))),
            cands,
            make,
            needed,
            t0,
            q: Quorum::new(needed),
            hedges: Vec::new(),
        };
        for _ in 0..round.first() {
            round.send_next();
        }
        round
    }

    /// Slots contacted optimistically, before any hedge or widening.
    fn first(&self) -> usize {
        self.needed.min(self.cands.len())
    }

    /// Contacts the next candidate. On hedged clients the request is
    /// wrapped to feed the per-node RTT tracker when it completes; the
    /// wrapper draws no RNG and schedules no events.
    fn send_next(&mut self) {
        let (replica, node) = self.cands[self.q.len()];
        let fut = (self.make)(replica);
        match self.hedger {
            None => self.q.push(fut),
            Some(h) => {
                let (h, sim, sent) = (h.clone(), self.sim.clone(), self.sim.now());
                self.q.push(async move {
                    let r = fut.await;
                    h.observe(node, sim.now() - sent);
                    r
                })
            }
        };
    }

    /// The hedge stage (module docs, stage 2).
    async fn hedge(&mut self) {
        let cands = self.cands;
        let (sent, spares) = cands.split_at(self.q.len());
        if spares.is_empty() {
            return;
        }
        let sent = sent.iter().map(|&(_, node)| node);
        let Some(delay) = self.hedger.and_then(|h| h.delay_for(sent)) else {
            return;
        };
        let hedge_at = self.t0 + delay;
        if self.widen.is_some_and(|(_, widen_at)| hedge_at >= widen_at)
            || timeout_at(self.sim, hedge_at, &mut self.q).await.is_ok()
        {
            return;
        }
        for _ in 0..(self.needed - self.q.completed()).min(spares.len()) {
            let Some(ticket) = self.hedger.and_then(Hedger::try_fire) else {
                break;
            };
            self.hedges.push(ticket);
            self.send_next();
        }
    }

    /// Waits for the quorum through the hedge stage up to the widen
    /// deadline. `Err`: the deadline passed with the quorum short and the
    /// silent optimistic slots' nodes are now suspected. For callers that
    /// give up at the deadline (and drop the round);
    /// [`complete`](Self::complete) is the one that widens.
    pub async fn wait(&mut self) -> Result<(), TimedOut> {
        self.hedge().await;
        let mut waited = Ok(());
        match self.widen {
            None => (&mut self.q).await,
            Some((_, widen_at)) => waited = timeout_at(self.sim, widen_at, &mut self.q).await,
        }
        let (first, results) = (self.first(), self.q.results());
        if let (Some((health, _)), Err(_)) = (self.widen, waited) {
            for (slot, &(_, node)) in self.cands[..first].iter().enumerate() {
                if results[slot].is_none() {
                    health.suspect(node);
                }
            }
        }
        // The settle stage (module docs, stage 4).
        for (ticket, result) in self.hedges.drain(..).zip(&results[first..]) {
            ticket.settle(result.is_some());
        }
        waited
    }

    /// Waits the quorum out: [`wait`](Self::wait), and at the widen
    /// deadline `on_widen()`, then every remaining candidate is contacted.
    /// The elapsed time feeds the client's smoothed quorum RTT.
    pub async fn complete(&mut self, on_widen: impl FnOnce()) {
        if self.wait().await.is_err() {
            on_widen();
            while self.q.len() < self.cands.len() {
                self.send_next();
            }
            (&mut self.q).await;
        }
        if let Some((health, _)) = self.widen {
            health.observe_rtt(self.sim.now() - self.t0);
        }
    }

    /// The completed `(replica, result)` pairs in contact order; every node
    /// that answered is cleared of suspicion (module docs, stage 5).
    pub fn finish(self) -> impl Iterator<Item = (usize, T)> + 'a
    where
        T: 'a,
    {
        let results = self.q.take_results();
        if let Some((health, _)) = self.widen {
            for (result, &(_, node)) in results.iter().zip(self.cands) {
                if result.is_some() {
                    health.clear(node);
                }
            }
        }
        results
            .into_iter()
            .zip(self.cands)
            .filter_map(|(result, &(replica, _))| result.map(|r| (replica, r)))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::pin::Pin;
    use std::rc::Rc;

    use swarm_fabric::{Fabric, FabricConfig, TrafficStats};

    use super::*;
    use crate::maxreg::{ReliableMaxReg, Replicas};
    use crate::sim_replica::{SimReplica, SimReplicaState};
    use crate::stamp::Stamp;
    use crate::traits::{HedgeConfig, MaxRegister, QuorumClient, Rounds, MAX_HEDGES_INFLIGHT};
    use crate::value::MVal;

    /// A request that answers `v` after `after` ns (`None`: never).
    fn reply(sim: &Sim, after: Option<Nanos>, v: usize) -> Pin<Box<dyn Future<Output = usize>>> {
        let sim = sim.clone();
        Box::pin(async move {
            match after {
                Some(ns) => sim.sleep_ns(ns).await,
                None => std::future::pending().await,
            }
            v
        })
    }

    /// `n` candidates, replica `i` on node `i`.
    fn distinct(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (i, i)).collect()
    }

    /// A hedger over `nodes` nodes whose every node has a tracked RTT of
    /// 500 ns, counting into a fabric's traffic stats.
    fn armed_hedger(sim: &Sim, nodes: usize) -> (Hedger, Fabric) {
        let fabric = Fabric::new(sim, FabricConfig::default(), nodes);
        let cfg = HedgeConfig {
            min_samples: 1,
            ..HedgeConfig::on()
        };
        let hedger = Hedger::new(cfg, nodes, Some(fabric.clone())).unwrap();
        for node in 0..nodes {
            hedger.observe(node, 500);
        }
        (hedger, fabric)
    }

    fn hedge_counts(fabric: &Fabric) -> (u64, u64, u64) {
        let TrafficStats {
            hedges_fired,
            hedges_won,
            duplicates_discarded,
            ..
        } = fabric.stats();
        (hedges_fired, hedges_won, duplicates_discarded)
    }

    #[test]
    fn an_unhedged_round_costs_one_timer_and_contacts_only_the_needed() {
        let sim = Sim::new(1);
        let health = NodeHealth::new(3);
        let cfg = QuorumConfig::default();
        let cands = distinct(3);
        let contacted = RefCell::new(Vec::new());
        let done = sim.block_on({
            let (sim, health) = (sim.clone(), Rc::clone(&health));
            async move {
                let mut round =
                    QuorumRound::new(&sim, None, Some((&health, &cfg)), 2, &cands, |i| {
                        contacted.borrow_mut().push(i);
                        reply(&sim, Some(700), i)
                    });
                round
                    .complete(|| panic!("healthy replicas never widen"))
                    .await;
                let done: Vec<_> = round.finish().collect();
                assert_eq!(*contacted.borrow(), [0, 1]);
                done
            }
        });
        assert_eq!(done, [(0, 0), (1, 1)]);
        // Two replies and the widen deadline; nothing boxed onto the queue.
        let c = sim.counters();
        assert_eq!((c.timer_events, c.boxed_events), (3, 0));
        assert_eq!(health.srtt_ns(), 700, "a completed round samples the RTT");
    }

    #[test]
    fn a_hedge_slot_pending_at_the_widen_deadline_is_not_suspected() {
        let sim = Sim::new(2);
        let (hedger, fabric) = armed_hedger(&sim, 4);
        let health = NodeHealth::new(4);
        let cands = distinct(4);
        // Replica 0 answers before the hedge delay, replica 1 is dead and
        // the one hedge's spare (replica 2) is silent too: only the widened
        // contact to replica 3 completes the quorum.
        let delays = [Some(300), None, None, Some(700)];
        let done = sim.block_on({
            let (sim, health, hedger) = (sim.clone(), Rc::clone(&health), hedger.clone());
            async move {
                let cfg = QuorumConfig::default();
                let widen = Some((&*health, &cfg));
                let mut round = QuorumRound::new(&sim, Some(&hedger), widen, 2, &cands, |i| {
                    reply(&sim, delays[i], i)
                });
                let widened = Cell::new(false);
                round.complete(|| widened.set(true)).await;
                assert!(widened.get());
                assert_eq!(sim.now(), 6_700, "widen floor + one reply");
                round.finish().collect::<Vec<_>>()
            }
        });
        assert_eq!(done, [(0, 0), (3, 3)]);
        assert!(health.is_suspected(1), "the silent optimistic slot");
        assert!(!health.is_suspected(2), "the silent hedge slot");
        assert_eq!(hedge_counts(&fabric), (1, 0, 1));
        assert_eq!(hedger.inflight(), 0);
    }

    #[test]
    fn a_late_optimistic_reply_suspects_its_node_until_that_reply_lands() {
        let sim = Sim::new(6);
        let health = NodeHealth::new(3);
        let cands = distinct(3);
        // No faults: replica 1 merely answers 1 us past the 6 us widen
        // deadline, before the widened contact to replica 2 does.
        let delays = [Some(700), Some(7_000), Some(8_000)];
        let done = sim.block_on({
            let (sim, health) = (sim.clone(), Rc::clone(&health));
            async move {
                let cfg = QuorumConfig::default();
                let mut round =
                    QuorumRound::new(&sim, None, Some((&health, &cfg)), 2, &cands, |i| {
                        reply(&sim, delays[i], i)
                    });
                let suspected_at_widen = Cell::new(false);
                round
                    .complete(|| suspected_at_widen.set(health.is_suspected(1)))
                    .await;
                assert!(suspected_at_widen.get(), "silent at the widen deadline");
                assert_eq!(sim.now(), 7_000, "the late reply completes the quorum");
                round.finish().collect::<Vec<_>>()
            }
        });
        assert_eq!(done, [(0, 0), (1, 1)]);
        assert!(!health.is_suspected(1), "its reply clears the suspicion");
        assert!(!health.is_suspected(2), "never suspected: contacted late");
    }

    #[test]
    fn a_lone_candidate_hedges_to_itself_and_wins_only_if_the_duplicate_answers() {
        // (first request's reply, duplicate's reply) -> (fired, won, discarded)
        for (first, duplicate, counts) in [
            (None, Some(300), (1, 1, 0)),
            (Some(900), None, (1, 0, 1)),
            (Some(400), Some(300), (0, 0, 0)),
        ] {
            let sim = Sim::new(3);
            let (hedger, fabric) = armed_hedger(&sim, 1);
            let contacted = RefCell::new(Vec::new());
            sim.block_on({
                let (sim, hedger) = (sim.clone(), hedger.clone());
                async move {
                    let same = [(0, 0); 2];
                    let mut round = QuorumRound::new(&sim, Some(&hedger), None, 1, &same, |i| {
                        contacted.borrow_mut().push(i);
                        let nth = contacted.borrow().len();
                        reply(&sim, if nth == 1 { first } else { duplicate }, nth)
                    });
                    round.complete(|| ()).await;
                    let answered: Vec<_> = round.finish().collect();
                    // Both requests went to replica 0; which one answered
                    // decides the ticket.
                    assert_eq!(contacted.borrow().len() as u64, 1 + counts.0);
                    assert_eq!(answered, [(0, 1 + counts.1 as usize)]);
                }
            });
            assert_eq!(hedge_counts(&fabric), counts);
            assert_eq!(hedger.inflight(), 0);
        }
    }

    #[test]
    fn dropping_a_round_between_fire_and_finish_releases_the_budget() {
        let sim = Sim::new(4);
        let (hedger, fabric) = armed_hedger(&sim, 3);
        sim.block_on({
            let (sim, hedger) = (sim.clone(), hedger.clone());
            async move {
                let cands = distinct(3);
                let op = Box::pin(async {
                    let mut round = QuorumRound::new(&sim, Some(&hedger), None, 2, &cands, |i| {
                        reply(&sim, None, i)
                    });
                    round.complete(|| ()).await;
                });
                // The op deadline cancels the op after its hedge fired.
                assert!(timeout_at(&sim, 1_000, op).await.is_err());
                assert_eq!(hedger.inflight(), 0);
            }
        });
        assert_eq!(hedge_counts(&fabric), (1, 0, 1));
    }

    #[test]
    fn budget_exhaustion_mid_fan_out_falls_through_to_widen() {
        let sim = Sim::new(5);
        let (hedger, fabric) = armed_hedger(&sim, 5);
        // Tickets held by the client's other rounds: one slot is left.
        let held: Vec<_> = (1..MAX_HEDGES_INFLIGHT)
            .map(|_| hedger.try_fire().expect("within the budget"))
            .collect();
        let health = NodeHealth::new(5);
        let cands = distinct(5);
        let contacted = RefCell::new(Vec::new());
        let delays = [None, None, Some(700), Some(700), Some(700)];
        let done = sim.block_on({
            let (sim, health, hedger) = (sim.clone(), Rc::clone(&health), hedger.clone());
            async move {
                let cfg = QuorumConfig::default();
                let widen = Some((&*health, &cfg));
                let mut round = QuorumRound::new(&sim, Some(&hedger), widen, 2, &cands, |i| {
                    contacted.borrow_mut().push((sim.now(), i));
                    reply(&sim, delays[i], i)
                });
                round.complete(|| ()).await;
                // Two responses short at the hedge delay, one slot left:
                // one hedge, and the widen stage contacts the rest.
                assert_eq!(
                    *contacted.borrow(),
                    [(0, 0), (0, 1), (500, 2), (6_000, 3), (6_000, 4)]
                );
                round.finish().collect::<Vec<_>>()
            }
        });
        assert_eq!(done, [(2, 2), (3, 3), (4, 4)]);
        assert!(health.is_suspected(0) && health.is_suspected(1));
        let others = held.len() as u64;
        assert_eq!(hedge_counts(&fabric), (others + 1, 1, 0));
        assert_eq!(hedger.inflight(), held.len(), "the round settled its own");
        drop(held);
        assert_eq!(hedge_counts(&fabric), (others + 1, 1, others));
        assert_eq!(hedger.inflight(), 0);
    }

    fn setup_hedged(
        seed: u64,
        n: usize,
    ) -> (
        Sim,
        Vec<Rc<SimReplicaState>>,
        ReliableMaxReg<SimReplica>,
        Hedger,
    ) {
        let sim = Sim::new(seed);
        let states: Vec<_> = (0..n).map(|_| SimReplicaState::new()).collect();
        let replicas: Vec<_> = states
            .iter()
            .map(|s| SimReplica::new(&sim, Rc::clone(s), 700))
            .collect();
        // min_samples = 1 so the tracker arms after a single warm-up op.
        let cfg = HedgeConfig {
            min_samples: 1,
            ..HedgeConfig::on()
        };
        let hedger = Hedger::new(cfg, n, None).unwrap();
        let quorum = QuorumClient::new(
            &sim,
            NodeHealth::new(n),
            QuorumConfig::default(),
            Rounds::new(),
            Some(hedger.clone()),
        );
        let reg = ReliableMaxReg::over(Replicas::new(quorum, replicas, (0..n).collect(), 0));
        (sim, states, reg, hedger)
    }

    #[test]
    fn hedged_write_beats_the_widen_timeout_under_a_delay_spike() {
        let (sim, states, reg, hedger) = setup_hedged(11, 3);
        let sim2 = sim.clone();
        sim.block_on(async move {
            // Warm up the RTT tracker on the two optimistically contacted
            // replicas, then spike one of them well past the widen floor.
            for i in 1..=4u64 {
                reg.write(MVal::new(Stamp::verified(i, 0), vec![i as u8]))
                    .await;
            }
            states[1].set_extra_delay(200_000);
            let t0 = sim2.now();
            reg.write(MVal::new(Stamp::verified(9, 0), vec![9])).await;
            let took = sim2.now() - t0;
            // The hedge to the spare replica completes the quorum well
            // before the widen deadline (>= 6 us) would even fire.
            assert!(took < 6_000, "hedged write took {took} ns");
            // The spare replica (index 2) holds the value: the hedge won.
            assert_eq!(states[2].current().stamp, Stamp::verified(9, 0));
            assert_eq!(hedger.inflight(), 0, "hedge budget not settled");
        });
    }

    #[test]
    fn hedged_read_beats_the_widen_timeout_under_a_delay_spike() {
        let (sim, states, reg, hedger) = setup_hedged(12, 3);
        let sim2 = sim.clone();
        sim.block_on(async move {
            for i in 1..=4u64 {
                reg.write(MVal::new(Stamp::verified(i, 0), vec![i as u8]))
                    .await;
            }
            reg.read().await;
            states[0].set_extra_delay(200_000);
            let t0 = sim2.now();
            let v = reg.read().await;
            let took = sim2.now() - t0;
            assert_eq!(v.stamp, Stamp::verified(4, 0));
            assert!(took < 6_000, "hedged read took {took} ns");
            assert_eq!(hedger.inflight(), 0, "hedge budget not settled");
        });
    }

    #[test]
    fn hedge_budget_settles_to_zero_under_healthy_load() {
        // Healthy replicas: ops mostly complete before the hedge delay, and
        // any hedge that does fire is settled, so the budget drains to zero.
        let (sim, _, reg, hedger) = setup_hedged(13, 3);
        sim.block_on(async move {
            for i in 1..=20u64 {
                reg.write(MVal::new(Stamp::verified(i, 0), vec![i as u8]))
                    .await;
                reg.read().await;
            }
            assert_eq!(hedger.inflight(), 0);
        });
    }
}

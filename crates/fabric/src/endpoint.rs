//! Client endpoints: submission pipeline for one-sided operation series.
//!
//! An [`Endpoint`] models one client thread's RDMA context: a CPU core that
//! serializes work-request submission, and one queue pair per memory node
//! that delivers messages in FIFO order. `submit` returns a receiver the
//! caller may await *or drop*: node-side effects of a submitted series happen
//! regardless, which is exactly the fire-and-forget semantics the protocols
//! rely on for background writes (e.g. Safe-Guess's `in bg: M.WRITE(..)`).
//!
//! # A message's stages
//!
//! A submitted series is one message: a slot in the fabric's message slab
//! that the executor steps (`swarm_sim`'s *Steps*) through its stages, each
//! at the instant the one before waits for — posted (the core finishes
//! posting the work requests), uplink (through the switch and over the
//! wire), arrive (the node's NIC takes it, or a fault swallows it), apply
//! (the ops in FIFO order; a chunked write steps on at its ticker's last
//! tick), depart (back through the switch once the NIC has served it) and
//! deliver (the reply reaches the submitter). No task is spawned and none is
//! polled: each stage runs where a task's poll ran, so the wire model's
//! timer events, draws and reservations are those of a task that slept
//! between the same stages.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use swarm_sim::{oneshot, FifoResource, Nanos, OneshotReceiver, OneshotSender, Stepper};

use crate::config::{
    chunk_ns, link_ns, CHUNK_BYTES, HEADER_BYTES, ISSUE_NS, NODE_FIXED_NS, READ_EXTRA_NS,
};
use crate::fabric::{Fabric, FabricInner};
use crate::node::NodeId;
use crate::op::{Op, OpResult, Payload};

/// A client-side fabric endpoint (one per client thread).
pub struct Endpoint {
    fabric: Fabric,
    id: usize,
    cpu: FifoResource,
    /// CPU time multiplier (models hyperthread sharing beyond 32 clients,
    /// §7.3).
    cpu_scale: Cell<f64>,
    /// Last scheduled arrival per destination node, enforcing QP FIFO.
    /// Shared (`Rc`) with this endpoint's messages in flight.
    qp_clock: Rc<RefCell<Vec<Nanos>>>,
}

impl Endpoint {
    pub(crate) fn new(fabric: Fabric, id: usize, cpu: FifoResource) -> Self {
        let n = fabric.num_nodes();
        Endpoint {
            fabric,
            id,
            cpu,
            cpu_scale: Cell::new(1.0),
            qp_clock: Rc::new(RefCell::new(vec![0; n])),
        }
    }

    /// This endpoint's client id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The fabric this endpoint is attached to.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The CPU core submissions serialize on.
    pub fn cpu(&self) -> &FifoResource {
        &self.cpu
    }

    /// Sets the CPU slowdown factor (1.0 = dedicated physical core).
    pub fn set_cpu_scale(&self, scale: f64) {
        assert!(scale >= 1.0);
        self.cpu_scale.set(scale);
    }

    fn scaled(&self, ns: Nanos) -> Nanos {
        (ns as f64 * self.cpu_scale.get()).round() as Nanos
    }

    /// Occupies this endpoint's CPU core for `ns` nanoseconds of
    /// application-level work (workload generation, cache lookups,
    /// completion processing) and waits for it to elapse.
    pub async fn work(&self, ns: Nanos) {
        let (_, _, wait) = self.cpu.acquire(self.scaled(ns));
        wait.await;
    }

    /// Submits a pipelined series of operations to `node`.
    ///
    /// Returns a receiver for the per-op results. The receiver yields `None`
    /// only if the message is dropped undelivered; a crashed node produces
    /// *silence* (the receiver never resolves), so callers bound waits with
    /// [`swarm_sim::timeout_at`].
    pub fn submit(&self, node: NodeId, ops: Vec<Op>) -> OneshotReceiver<Vec<OpResult>> {
        let (tx, rx) = oneshot();
        let req_bytes = HEADER_BYTES + ops.iter().map(Op::request_payload).sum::<usize>();
        let resp_bytes = HEADER_BYTES + ops.iter().map(Op::response_payload).sum::<usize>();

        // Reserve the submission slot *now*: concurrent submitters on the
        // same core serialize in call order, deterministically.
        let (_, submit_done, _) = self.cpu.acquire(self.scaled(ISSUE_NS));

        self.fabric.account(req_bytes + resp_bytes);

        let token = self.fabric.inner.messages.borrow_mut().insert(Message {
            stage: Stage::Posted,
            node,
            results: Vec::with_capacity(ops.len()),
            ops,
            tx,
            qp_clock: Rc::clone(&self.qp_clock),
            submit_done,
            req_bytes,
            resp_bytes,
            nic_done: 0,
        });
        let inner = &self.fabric.inner;
        inner.sim.defer(Rc::clone(inner) as Rc<dyn Stepper>, token);
        rx
    }

    /// Convenience: single READ. `None` on a dropped reply — including a
    /// reply batch that came back empty or with the wrong result kind,
    /// which a faulted or misbehaving node could produce (treating it as
    /// anything but a drop would panic the client).
    pub async fn read(&self, node: NodeId, addr: u64, len: usize) -> Option<Vec<u8>> {
        let r = self.submit(node, vec![Op::Read { addr, len }]).await?;
        first_read(r)
    }

    /// Convenience: single WRITE. The payload is shared (`impl
    /// Into<Payload>` — a `Vec<u8>` moves in without a copy).
    pub async fn write(&self, node: NodeId, addr: u64, data: impl Into<Payload>) -> Option<()> {
        self.submit(
            node,
            vec![Op::Write {
                addr,
                data: data.into(),
            }],
        )
        .await?;
        Some(())
    }

    /// Convenience: single CAS; returns the previous value, or `None` on a
    /// dropped (or malformed — see [`Endpoint::read`]) reply.
    pub async fn cas(&self, node: NodeId, addr: u64, expected: u64, new: u64) -> Option<u64> {
        let r = self
            .submit(
                node,
                vec![Op::Cas {
                    addr,
                    expected,
                    new,
                }],
            )
            .await?;
        first_cas(r)
    }
}

/// Extracts the first result of a reply batch as read bytes; `None` for an
/// empty batch or a kind mismatch (the caller treats it as a dropped reply).
fn first_read(r: Vec<OpResult>) -> Option<Vec<u8>> {
    r.into_iter().next()?.read()
}

/// Extracts the first result of a reply batch as a CAS previous value;
/// `None` for an empty batch or a kind mismatch.
fn first_cas(r: Vec<OpResult>) -> Option<u64> {
    r.into_iter().next()?.cas()
}

/// Where a message is in its life; each stage runs at the instant the one
/// before it waits for (module docs).
#[derive(Clone, Copy)]
enum Stage {
    /// Submitted; waits for the CPU to finish posting the work requests.
    Posted,
    /// Crosses the switch to the node.
    Uplink,
    /// Received by the node.
    Arrive,
    /// Applies its ops from this index on.
    Apply(usize),
    /// The chunked write at this index has landed its last chunk.
    Landed(usize),
    /// Leaves the node once the NIC has served it.
    Depart,
    /// Hands its results to the submitter.
    Deliver,
    /// Swallowed by a crashed node or a fault: never answers.
    Silenced,
}

/// One message in flight: a slot of [`Messages`], stepped by the fabric.
pub(crate) struct Message {
    stage: Stage,
    node: NodeId,
    ops: Vec<Op>,
    results: Vec<OpResult>,
    tx: OneshotSender<Vec<OpResult>>,
    /// The submitting endpoint's last arrival per node (QP FIFO).
    qp_clock: Rc<RefCell<Vec<Nanos>>>,
    submit_done: Nanos,
    req_bytes: usize,
    resp_bytes: usize,
    /// When the node's NIC has served the request (set on arrival).
    nic_done: Nanos,
}

/// The fabric's messages in flight, in recycled slots; a slot's index is the
/// token the executor steps it by.
#[derive(Default)]
pub(crate) struct Messages {
    slots: Vec<Option<Message>>,
    free: Vec<u32>,
}

impl Messages {
    fn insert(&mut self, m: Message) -> u32 {
        match self.free.pop() {
            Some(token) => {
                self.slots[token as usize] = Some(m);
                token
            }
            None => {
                self.slots.push(Some(m));
                u32::try_from(self.slots.len() - 1).expect("2^32 messages in flight")
            }
        }
    }
}

impl Stepper for FabricInner {
    fn step(self: Rc<Self>, token: u32) {
        let fabric = Fabric { inner: self };
        let mut messages = fabric.inner.messages.borrow_mut();
        let Messages { slots, free } = &mut *messages;
        let slot = &mut slots[token as usize];
        let m = slot
            .as_mut()
            .expect("a step belongs to a message in flight");
        if fabric.advance(m, token) {
            return;
        }
        let m = slot.take().expect("the message is in its slot");
        free.push(token);
        drop(messages);
        // Its sender goes to the graveyard if it is silenced, so the
        // submitter sees silence rather than a dropped reply.
        match m.stage {
            Stage::Deliver => m.tx.send(m.results),
            _ => fabric.inner.graveyard.borrow_mut().push(m.tx),
        }
    }
}

impl Fabric {
    /// Arms the step of message `token` at `at` and returns true; returns
    /// false, arming nothing, if `at` has come, so that the message goes on
    /// at once, as a task's `sleep_until(at)` would.
    fn wait_until(&self, at: Nanos, token: u32) -> bool {
        let sim = &self.inner.sim;
        if sim.now() >= at {
            return false;
        }
        sim.step_at(at, Rc::clone(&self.inner) as Rc<dyn Stepper>, token);
        true
    }

    /// Runs `m`'s stages from where it stands until one waits (true) or
    /// the message is done (false): due for delivery, or silenced.
    fn advance(&self, m: &mut Message, token: u32) -> bool {
        let sim = &self.inner.sim;
        let wire = &self.config().wire;
        loop {
            match m.stage {
                Stage::Posted => {
                    m.stage = Stage::Uplink;
                    if self.wait_until(m.submit_done, token) {
                        return true;
                    }
                }
                Stage::Uplink => {
                    // Serialize through the shared switch, then propagate
                    // (an active delay spike on the destination stretches
                    // the wire). All traffic serializes through the switch
                    // at link rate (`link_ns`); it is what saturates in the
                    // 64-client scalability experiment (§7.3).
                    let (_, ser_end) = self.inner.switch.reserve(link_ns(m.req_bytes));
                    let arrival =
                        ser_end + wire.sample(&self.inner.rng) + self.fault_extra_ns(m.node);
                    // Enforce FIFO on this queue pair.
                    let mut qp = m.qp_clock.borrow_mut();
                    let arrival = arrival.max(qp[m.node.0] + 1);
                    qp[m.node.0] = arrival;
                    drop(qp);
                    m.stage = Stage::Arrive;
                    if self.wait_until(arrival, token) {
                        return true;
                    }
                }
                Stage::Arrive => {
                    // A crashed node — or an injected partition / drop-window
                    // fault — swallows the request silently.
                    let target = self.node_ref(m.node);
                    if !target.is_alive() || self.fault_silences(m.node) {
                        m.stage = Stage::Silenced;
                        return false;
                    }
                    target.account();
                    // The NIC reservation shapes response timing and
                    // captures queuing under load; DMA application itself
                    // is cut-through and proceeds in parallel across queue
                    // pairs (so reads from other clients can observe a
                    // write mid-application). Reads pay an extra DMA-fetch
                    // delay, but NICs pipeline it across queue pairs: it
                    // adds latency, not NIC occupancy.
                    let service = NODE_FIXED_NS + link_ns(m.req_bytes);
                    let (_, nic_done) = target.nic().reserve(service);
                    let has_read = m.ops.iter().any(Op::is_read_like);
                    m.nic_done = nic_done + if has_read { READ_EXTRA_NS } else { 0 };
                    m.stage = Stage::Apply(0);
                }
                Stage::Apply(i) => {
                    // Apply the series in FIFO order.
                    let mem = self.node_ref(m.node).mem();
                    let Some(op) = m.ops.get(i) else {
                        // The response departs once both the DMA
                        // application and the NIC service slot have
                        // completed.
                        m.stage = Stage::Depart;
                        if self.wait_until(m.nic_done, token) {
                            return true;
                        }
                        continue;
                    };
                    m.stage = Stage::Apply(i + 1);
                    match op {
                        Op::Read { addr, len } => {
                            // Snapshot at a single instant: a read
                            // overlapping a chunked write observes torn data.
                            m.results.push(OpResult::Read(mem.read(*addr, *len)));
                        }
                        Op::Write { addr, data } => {
                            // One chunk lands per `chunk_ns`; the message
                            // steps on at the last tick only (see `mem`'s
                            // module docs).
                            let ticker =
                                mem.write_chunked(sim, *addr, data, CHUNK_BYTES, chunk_ns());
                            m.stage = Stage::Landed(i);
                            let stepper = Rc::clone(&self.inner) as Rc<dyn Stepper>;
                            if ticker.arm_step(stepper, token) {
                                return true;
                            }
                        }
                        Op::Cas {
                            addr,
                            expected,
                            new,
                        } => {
                            m.results
                                .push(OpResult::Cas(mem.cas_u64(*addr, *expected, *new)));
                        }
                    }
                }
                Stage::Landed(i) => {
                    self.node_ref(m.node).mem().settle();
                    m.results.push(OpResult::Write);
                    m.stage = Stage::Apply(i + 1);
                }
                Stage::Depart => {
                    // A node that crashed while serving never answers;
                    // neither does one that got partitioned (or whose
                    // response a drop window eats) — the request's effects
                    // above stand regardless.
                    if !self.node_ref(m.node).is_alive() || self.fault_silences(m.node) {
                        m.stage = Stage::Silenced;
                        return false;
                    }
                    let (_, ser_end) = self.inner.switch.reserve(link_ns(m.resp_bytes));
                    let back = ser_end + wire.sample(&self.inner.rng) + self.fault_extra_ns(m.node);
                    m.stage = Stage::Deliver;
                    if self.wait_until(back, token) {
                        return true;
                    }
                }
                Stage::Deliver | Stage::Silenced => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use swarm_sim::Sim;

    /// Regression: a reply batch that comes back empty or with a mismatched
    /// result kind must read as a dropped reply, not a panic — a faulted
    /// node's garbage answer must never kill the client.
    #[test]
    fn malformed_reply_batches_are_dropped_not_panics() {
        assert_eq!(first_read(Vec::new()), None);
        assert_eq!(first_cas(Vec::new()), None);
        assert_eq!(first_read(vec![OpResult::Write]), None);
        assert_eq!(first_read(vec![OpResult::Cas(3)]), None);
        assert_eq!(first_cas(vec![OpResult::Write]), None);
        assert_eq!(first_cas(vec![OpResult::Read(vec![1, 2])]), None);
        // Well-formed batches still extract.
        assert_eq!(first_read(vec![OpResult::Read(vec![7])]), Some(vec![7]));
        assert_eq!(first_cas(vec![OpResult::Cas(9)]), Some(9));
    }

    #[test]
    fn read_write_cas_roundtrip() {
        let sim = Sim::new(1);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 1);
        let addr = fabric.node(NodeId(0)).alloc(64, 8);
        let ep = fabric.endpoint();
        sim.block_on(async move {
            ep.write(NodeId(0), addr, vec![5u8; 16]).await.unwrap();
            assert_eq!(ep.read(NodeId(0), addr, 16).await.unwrap(), vec![5u8; 16]);
            let prev = ep.cas(NodeId(0), addr, u64::from_le_bytes([5; 8]), 0).await;
            assert_eq!(prev, Some(u64::from_le_bytes([5; 8])));
        });
    }
}

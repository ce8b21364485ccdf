//! Client endpoints: submission pipeline for one-sided operation series.
//!
//! An [`Endpoint`] models one client thread's RDMA context: a CPU core that
//! serializes work-request submission, and one queue pair per memory node
//! that delivers messages in FIFO order. `submit` returns a receiver the
//! caller may await *or drop*: node-side effects of a submitted series happen
//! regardless, which is exactly the fire-and-forget semantics the protocols
//! rely on for background writes (e.g. Safe-Guess's `in bg: M.WRITE(..)`).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use swarm_sim::{oneshot, FifoResource, Nanos, OneshotReceiver};

use crate::config::{
    chunk_ns, link_ns, CHUNK_BYTES, HEADER_BYTES, ISSUE_NS, NODE_FIXED_NS, READ_EXTRA_NS,
};
use crate::fabric::Fabric;
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
    /// Shared (`Rc`) with in-flight message tasks.
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
    /// only if the simulation ends the message's task early; a crashed node
    /// produces *silence* (the receiver never resolves), so callers bound
    /// waits with [`swarm_sim::timeout_at`].
    pub fn submit(&self, node: NodeId, ops: Vec<Op>) -> OneshotReceiver<Vec<OpResult>> {
        let (tx, rx) = oneshot();
        let req_bytes = HEADER_BYTES + ops.iter().map(Op::request_payload).sum::<usize>();
        let resp_bytes = HEADER_BYTES + ops.iter().map(Op::response_payload).sum::<usize>();
        let has_read = ops.iter().any(Op::is_read_like);

        // Reserve the submission slot *now*: concurrent submitters on the
        // same core serialize in call order, deterministically.
        let (_, submit_done, _) = self.cpu.acquire(self.scaled(ISSUE_NS));

        self.fabric.account(req_bytes + resp_bytes);

        let fabric = self.fabric.clone();
        let sim = fabric.sim().clone();
        let qp = QpClockRef {
            clock: Rc::clone(&self.qp_clock),
            node: node.0,
        };

        let sim2 = sim.clone();
        sim.spawn(async move {
            // Borrow the wire model from the moved-in fabric handle.
            let wire = &fabric.config().wire;
            // 1. Wait for the CPU to finish posting the work requests.
            sim2.sleep_until(submit_done).await;

            // 2. Uplink: serialize through the shared switch, then propagate
            // (an active delay spike on the destination stretches the wire).
            // All traffic serializes through the switch at link rate
            // (`link_ns`); it is what saturates in the 64-client
            // scalability experiment (§7.3).
            let (_, ser_end) = fabric.inner.switch.reserve(link_ns(req_bytes));
            let mut arrival =
                ser_end + wire.sample(&fabric.inner.rng) + fabric.fault_extra_ns(node);
            // Enforce FIFO on this queue pair.
            arrival = arrival.max(qp.get() + 1);
            qp.set(arrival);
            sim2.sleep_until(arrival).await;

            // 3. Node receive. A crashed node — or an injected partition /
            // drop-window fault — swallows the request silently.
            let target = fabric.node_ref(node);
            if !target.is_alive() || fabric.fault_silences(node) {
                fabric.inner.graveyard.borrow_mut().push(tx);
                return;
            }
            target.account();
            // The NIC reservation shapes response timing and captures
            // queuing under load; DMA application itself is cut-through and
            // proceeds in parallel across queue pairs (so reads from other
            // clients can observe a write mid-application).
            // Reads pay an extra DMA-fetch delay, but NICs pipeline it
            // across queue pairs: it adds latency, not NIC occupancy.
            let service = NODE_FIXED_NS + link_ns(req_bytes);
            let (_, nic_done) = target.nic().reserve(service);
            let nic_done = nic_done + if has_read { READ_EXTRA_NS } else { 0 };

            // 4. Apply the series in FIFO order.
            let mut results = Vec::with_capacity(ops.len());
            for op in &ops {
                match op {
                    Op::Read { addr, len } => {
                        // Snapshot at a single instant: a read overlapping a
                        // chunked write observes torn data.
                        results.push(OpResult::Read(target.mem().read(*addr, *len)));
                    }
                    Op::Write { addr, data } => {
                        // One chunk lands per `chunk_ns`; this task sleeps
                        // through all of them (see `mem`'s module docs).
                        let mem = target.mem();
                        mem.write_chunked(&sim2, *addr, data, CHUNK_BYTES, chunk_ns())
                            .await;
                        mem.settle();
                        results.push(OpResult::Write);
                    }
                    Op::Cas {
                        addr,
                        expected,
                        new,
                    } => {
                        results.push(OpResult::Cas(target.mem().cas_u64(*addr, *expected, *new)));
                    }
                }
            }

            // Response departs once both the DMA application and the NIC
            // service slot have completed.
            if nic_done > sim2.now() {
                sim2.sleep_until(nic_done).await;
            }

            // A node that crashed while serving never answers; neither does
            // one that got partitioned (or whose response a drop window
            // eats) — the request's effects above stand regardless.
            if !target.is_alive() || fabric.fault_silences(node) {
                fabric.inner.graveyard.borrow_mut().push(tx);
                return;
            }

            // 5. Downlink.
            let (_, ser_end) = fabric.inner.switch.reserve(link_ns(resp_bytes));
            let back = ser_end + wire.sample(&fabric.inner.rng) + fabric.fault_extra_ns(node);
            sim2.sleep_until(back).await;
            tx.send(results);
        });
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

struct QpClockRef {
    clock: Rc<RefCell<Vec<Nanos>>>,
    node: usize,
}

impl QpClockRef {
    fn get(&self) -> Nanos {
        self.clock.borrow()[self.node]
    }
    fn set(&self, v: Nanos) {
        self.clock.borrow_mut()[self.node] = v;
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

//! FIFO-serialized resources: client CPU cores and NIC/switch ports.
//!
//! The paper's throughput experiments are bottlenecked first by the client
//! core submitting RDMA work requests ("issuing a series of RDMA operations
//! takes 200+ ns", §7.2) and eventually by the 100 Gbps fabric (§7.3). Both
//! are modeled as [`FifoResource`]s: a server that processes acquisitions in
//! arrival order, each occupying the resource for a caller-specified service
//! time. Acquiring returns a future that resolves when the service slot
//! *completes*, and reports the slot's start time so callers can model
//! "submission finished, now the wire takes over" pipelines.

use std::cell::Cell;
use std::rc::Rc;

use crate::executor::Sim;
use crate::time::Nanos;

/// A resource that serves acquisitions one at a time, in FIFO order.
#[derive(Clone)]
pub struct FifoResource {
    sim: Sim,
    /// Virtual time at which the resource next becomes free.
    available_at: Rc<Cell<Nanos>>,
}

impl FifoResource {
    /// Creates an idle resource.
    pub fn new(sim: &Sim) -> Self {
        FifoResource {
            sim: sim.clone(),
            available_at: Rc::new(Cell::new(0)),
        }
    }

    /// Reserves the resource for `service_ns`, returning `(start, end)` of
    /// the granted slot and a future that resolves at `end`.
    ///
    /// The reservation is made *immediately* (so concurrent acquirers at the
    /// same instant serialize deterministically in call order); the returned
    /// future merely waits for the slot to elapse.
    pub fn acquire(&self, service_ns: Nanos) -> (Nanos, Nanos, crate::executor::Sleep) {
        let (start, end) = self.reserve(service_ns);
        (start, end, self.sim.sleep_until(end))
    }

    /// Reserves the resource without waiting (fire-and-forget service, e.g.
    /// a NIC serializing an outbound message while the CPU moves on).
    /// Returns `(start, end)` of the slot.
    pub fn reserve(&self, service_ns: Nanos) -> (Nanos, Nanos) {
        let start = self.available_at.get().max(self.sim.now());
        let end = start + service_ns;
        self.available_at.set(end);
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_acquisitions_queue() {
        let sim = Sim::new(1);
        let r = FifoResource::new(&sim);
        let (s1, e1, _) = r.acquire(100);
        let (s2, e2, _) = r.acquire(50);
        assert_eq!((s1, e1), (0, 100));
        assert_eq!((s2, e2), (100, 150));
    }

    #[test]
    fn resource_idles_between_bursts() {
        let sim = Sim::new(1);
        let r = FifoResource::new(&sim);
        let r2 = r.clone();
        let s = sim.clone();
        sim.block_on(async move {
            let (_, _, wait) = r2.acquire(100);
            wait.await;
            s.sleep_ns(1_000).await;
            let (start, end, wait) = r2.acquire(100);
            assert_eq!((start, end), (1_100, 1_200));
            wait.await;
        });
        assert_eq!(r.available_at.get(), 1_200);
    }
}

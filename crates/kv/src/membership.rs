//! Lease-based membership service (the uKharon substitute, §5.4).
//!
//! The paper uses uKharon to monitor client/node health so that freed memory
//! is never accessed by stale clients and crashed memory nodes are excluded.
//! We model the part SWARM-KV depends on: nodes hold leases; a crashed
//! node's lease expires after a configurable detection delay, at which point
//! the service notifies subscribed clients (their
//! [`swarm_core::NodeHealth`] marks the node suspected).
//!
//! The watcher is armed explicitly for a bounded virtual-time horizon
//! ([`Membership::watch_until`]) so simulations terminate deterministically.

use std::cell::RefCell;
use std::rc::Rc;

use swarm_core::NodeHealth;
use swarm_fabric::{Fabric, NodeId};
use swarm_sim::{Nanos, Sim, NANOS_PER_MILLI};

struct Inner {
    fabric: Fabric,
    detection_ns: Nanos,
    subscribers: RefCell<Vec<Rc<NodeHealth>>>,
    dead: RefCell<Vec<bool>>,
}

/// The membership service handle.
#[derive(Clone)]
pub struct Membership {
    sim: Sim,
    inner: Rc<Inner>,
}

impl Membership {
    /// Creates a membership service watching `fabric`'s nodes with the given
    /// failure-detection delay (uKharon detects in ~50 µs; coarser lease
    /// services take milliseconds). The watcher is idle until
    /// [`Membership::watch_until`] arms it.
    pub fn new(sim: &Sim, fabric: &Fabric, detection_ns: Nanos) -> Self {
        Membership {
            sim: sim.clone(),
            inner: Rc::new(Inner {
                fabric: fabric.clone(),
                detection_ns,
                subscribers: RefCell::new(Vec::new()),
                dead: RefCell::new(vec![false; fabric.num_nodes()]),
            }),
        }
    }

    /// Default: 1 ms detection (a conservative lease).
    pub fn with_default_detection(sim: &Sim, fabric: &Fabric) -> Self {
        Self::new(sim, fabric, NANOS_PER_MILLI)
    }

    /// Arms lease monitoring until virtual time `deadline`.
    pub fn watch_until(&self, deadline: Nanos) {
        let inner = Rc::clone(&self.inner);
        let sim = self.sim.clone();
        let period = self.inner.detection_ns.max(1);
        self.sim.spawn(async move {
            while sim.now() + period <= deadline {
                sim.sleep_ns(period).await;
                Self::poll(&inner);
            }
        });
    }

    fn poll(inner: &Inner) {
        for i in 0..inner.fabric.num_nodes() {
            let alive = inner.fabric.node(NodeId(i)).is_alive();
            let mut dead = inner.dead.borrow_mut();
            if !alive && !dead[i] {
                dead[i] = true;
                for sub in inner.subscribers.borrow().iter() {
                    sub.suspect(i);
                }
            } else if alive && dead[i] {
                dead[i] = false;
                for sub in inner.subscribers.borrow().iter() {
                    sub.clear(i);
                }
            }
        }
    }

    /// Subscribes a client's health view to membership notifications.
    pub fn subscribe(&self, health: Rc<NodeHealth>) {
        self.inner.subscribers.borrow_mut().push(health);
    }

    /// True once the service has declared node `i` failed (never for a
    /// node the group does not have).
    pub fn is_declared_dead(&self, i: usize) -> bool {
        self.inner.dead.borrow().get(i) == Some(&true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_fabric::FabricConfig;

    #[test]
    fn crash_is_detected_within_the_lease() {
        let sim = Sim::new(1);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 3);
        let m = Membership::new(&sim, &fabric, 100_000); // 100 µs lease
        m.watch_until(500_000);
        let health = NodeHealth::new(3);
        m.subscribe(Rc::clone(&health));
        let f2 = fabric.clone();
        sim.schedule_after(50_000, move |_| f2.crash_node(NodeId(1)));
        sim.run();
        assert!(m.is_declared_dead(1));
        assert!(health.is_suspected(1));
        assert!(!health.is_suspected(0));
    }

    #[test]
    fn recovery_clears_suspicion() {
        let sim = Sim::new(2);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 2);
        let m = Membership::new(&sim, &fabric, 50_000);
        m.watch_until(600_000);
        let health = NodeHealth::new(2);
        m.subscribe(Rc::clone(&health));
        let f2 = fabric.clone();
        sim.schedule_after(10_000, move |_| f2.crash_node(NodeId(0)));
        let f3 = fabric.clone();
        sim.schedule_after(200_000, move |_| f3.node(NodeId(0)).restart());
        sim.run();
        assert!(!m.is_declared_dead(0));
        assert!(!health.is_suspected(0));
    }

    #[test]
    fn unarmed_watcher_does_not_block_simulation() {
        let sim = Sim::new(3);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 2);
        let _m = Membership::with_default_detection(&sim, &fabric);
        let end = sim.run();
        assert_eq!(end, 0, "idle membership scheduled events");
    }

    #[test]
    fn crash_exactly_at_lease_expiry_is_detected_within_one_period() {
        // The edge: the node dies at the very instant a lease poll fires.
        // Whether that poll or the next one observes it, detection must
        // complete within one further period, not be lost.
        let sim = Sim::new(4);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 2);
        let lease = 100_000;
        let m = Membership::new(&sim, &fabric, lease);
        m.watch_until(10 * lease);
        let f2 = fabric.clone();
        sim.schedule_at(lease, move |_| f2.crash_node(NodeId(0)));
        sim.run_until(2 * lease);
        assert!(
            m.is_declared_dead(0),
            "crash at the expiry instant must be detected by the next poll"
        );
    }

    #[test]
    fn crash_after_watch_horizon_goes_undetected() {
        // The watcher is armed for a bounded horizon (deterministic
        // termination): a crash after the horizon is nobody's business.
        let sim = Sim::new(5);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 2);
        let m = Membership::new(&sim, &fabric, 50_000);
        m.watch_until(200_000);
        let health = NodeHealth::new(2);
        m.subscribe(Rc::clone(&health));
        let f2 = fabric.clone();
        sim.schedule_at(300_000, move |_| f2.crash_node(NodeId(1)));
        sim.run();
        assert!(!fabric.node(NodeId(1)).is_alive());
        assert!(!m.is_declared_dead(1), "watcher horizon expired");
        assert!(!health.is_suspected(1));
    }

    #[test]
    fn double_crash_of_the_same_node_resuspects_after_recovery() {
        let sim = Sim::new(6);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 2);
        let m = Membership::new(&sim, &fabric, 50_000);
        m.watch_until(1_000_000);
        let health = NodeHealth::new(2);
        m.subscribe(Rc::clone(&health));
        for (at, alive) in [(60_000, false), (300_000, true), (600_000, false)] {
            let f = fabric.clone();
            sim.schedule_at(at, move |_| {
                if alive {
                    f.restart_node(NodeId(0));
                } else {
                    f.crash_node(NodeId(0));
                }
            });
        }
        sim.run_until(250_000);
        assert!(m.is_declared_dead(0), "first crash detected");
        sim.run_until(550_000);
        assert!(!m.is_declared_dead(0), "restart clears the declaration");
        assert!(!health.is_suspected(0));
        sim.run_until(1_000_000);
        assert!(m.is_declared_dead(0), "second crash re-detected");
        assert!(health.is_suspected(0));
    }

    #[test]
    fn crashing_an_already_crashed_node_is_idempotent() {
        let sim = Sim::new(7);
        let fabric = Fabric::new(&sim, FabricConfig::default(), 2);
        let m = Membership::new(&sim, &fabric, 50_000);
        m.watch_until(400_000);
        let f2 = fabric.clone();
        sim.schedule_at(10_000, move |_| f2.crash_node(NodeId(1)));
        let f3 = fabric.clone();
        sim.schedule_at(20_000, move |_| f3.crash_node(NodeId(1)));
        sim.run();
        assert!(m.is_declared_dead(1));
    }
}

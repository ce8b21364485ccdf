//! A simulated memory node: raw memory + NIC service queue + liveness flag.

use std::cell::Cell;
use std::rc::Rc;

use swarm_sim::{FifoResource, Sim};

use crate::mem::NodeMemory;

/// Identifier of a memory node within a [`crate::Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mn{}", self.0)
    }
}

/// One memory node. Memory nodes have **no compute capability**: the only
/// things that happen here are DMA reads/writes, the 8 B CAS, and NIC
/// serialization — faithfully mirroring the paper's setting (§2.1).
pub struct Node {
    mem: NodeMemory,
    nic: FifoResource,
    alive: Cell<bool>,
    /// Messages served (for accounting).
    messages: Cell<u64>,
}

impl Node {
    pub(crate) fn new(sim: &Sim) -> Rc<Self> {
        Rc::new(Node {
            mem: NodeMemory::new(),
            nic: FifoResource::new(sim),
            alive: Cell::new(true),
            messages: Cell::new(0),
        })
    }

    /// Direct access to the node's memory (control plane / test use — data
    /// path operations must go through an [`crate::Endpoint`]).
    pub fn mem(&self) -> &NodeMemory {
        &self.mem
    }

    /// Allocates zeroed memory on this node (control-plane operation; the
    /// paper's clients pre-allocate buffers out of band, §5.3.1).
    pub fn alloc(&self, len: u64, align: u64) -> u64 {
        self.mem.alloc(len, align)
    }

    /// NIC service queue for inbound messages.
    pub(crate) fn nic(&self) -> &FifoResource {
        &self.nic
    }

    /// True until the node is crashed.
    pub fn is_alive(&self) -> bool {
        self.alive.get()
    }

    /// Crashes the node: all requests arriving from now on vanish silently.
    pub fn crash(&self) {
        self.alive.set(false);
    }

    /// Restarts a crashed node (memory contents are retained; the paper's
    /// recovery rebuilds in-place data lazily, §7.7).
    pub fn restart(&self) {
        self.alive.set(true);
    }

    pub(crate) fn account(&self) {
        self.messages.set(self.messages.get() + 1);
    }

    /// Messages served by this node so far.
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }

    /// Bytes of disaggregated memory allocated on this node.
    pub fn allocated_bytes(&self) -> u64 {
        self.mem.allocated_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_and_restart_toggle_liveness() {
        let sim = Sim::new(1);
        let n = Node::new(&sim);
        assert!(n.is_alive());
        n.crash();
        assert!(!n.is_alive());
        n.restart();
        assert!(n.is_alive());
    }

    #[test]
    fn accounting_accumulates() {
        let sim = Sim::new(1);
        let n = Node::new(&sim);
        n.account();
        n.account();
        assert_eq!(n.messages(), 2);
    }
}

//! Deterministic discrete-event simulation engine.
//!
//! This crate is the *testbed substrate* of the SWARM reproduction: the paper
//! evaluates on a 4-server/4-memory-node RDMA cluster, which we replace with a
//! single-threaded, seeded, virtual-time simulator. Protocol code is written as
//! ordinary `async` Rust against simulated devices; awaiting a network
//! operation suspends the task until the corresponding virtual-time event
//! fires.
//!
//! Design goals:
//!
//! * **Determinism.** A given seed produces a bit-identical execution, so every
//!   figure in the evaluation is exactly reproducible and failing schedules
//!   found by property tests can be replayed.
//! * **Allocation-free hot path.** Timers ("wake this task at time T") are
//!   inline slab entries — no boxed closure per event; task wakers are built
//!   once per spawn and cloned per poll (a non-atomic refcount bump); the
//!   ready queue is a plain `RefCell<VecDeque>` with no mutex. See
//!   [`Sim::counters`] for the always-on accounting the perf-regression
//!   tests pin these properties with.
//! * **Minimal `unsafe`.** Exactly one unsafe construct: the executor's task
//!   `Waker` is hand-rolled over `Rc` (see `executor.rs`) so the
//!   single-threaded hot path pays no atomics. Soundness relies on the
//!   simulation being single-threaded — `Sim` and all spawned futures are
//!   `!Send`, and wakers must never cross threads (asserted in debug
//!   builds on every wake).
//! * **Multi-core by independence, not by sharing.** A `Sim` never leaves
//!   its thread, but nothing stops a host from running *several* `Sim`s on
//!   several threads, one whole simulation per thread, as long as only
//!   `Send` results (plain data) move out at the end. Independent seeded
//!   streams for such co-simulations come from [`SimRng::from_seed`] /
//!   [`Sim::fork_rng`] with distinct labels: `SimRng::from_seed(seed, l)`
//!   on a fresh `Sim::new(seed)` yields the exact stream
//!   `fork_rng(Some(l))` yields inside a bigger simulation, which is what
//!   lets `swarm-kv` rebuild one keyspace shard alone — on its own `Sim`,
//!   on its own OS thread — bit-identical to that shard's execution
//!   alongside its siblings.
//! * **Microsecond fidelity.** Virtual time is in nanoseconds; latency models
//!   live in `swarm-fabric`, but the primitives (timers, FIFO resources,
//!   jitter distributions) live here.
//!
//! # Examples
//!
//! ```
//! use swarm_sim::{Sim, NANOS_PER_MICRO};
//!
//! let sim = Sim::new(42);
//! let s2 = sim.clone();
//! sim.spawn(async move {
//!     s2.sleep_ns(3 * NANOS_PER_MICRO).await;
//!     assert_eq!(s2.now(), 3 * NANOS_PER_MICRO);
//! });
//! sim.run();
//! ```

mod clock;
mod combinators;
mod dist;
mod executor;
mod oneshot;
mod resource;
mod rng;
mod stats;
mod time;

pub use clock::GuessClock;
pub use combinators::{join2, join_boxed, race2, timeout_at, BoxFuture, Either, Quorum, TimedOut};
pub use dist::Jitter;
pub use executor::{Sim, SimCounters, Sleep, TaskId, TickLog, Ticker};
pub use oneshot::{oneshot, OneshotReceiver, OneshotSender};
pub use resource::FifoResource;
pub use rng::SimRng;
pub use stats::{Histogram, TimeSeries};
pub use time::{Nanos, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};

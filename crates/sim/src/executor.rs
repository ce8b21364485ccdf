//! Single-threaded deterministic executor over virtual time.
//!
//! The executor owns an event queue ordered by `(virtual time, sequence)` and
//! a set of tasks (non-`Send` futures). Running the simulation alternates
//! between polling ready tasks (and stepping ready state machines, see
//! *Steps*) and firing the earliest pending event, which advances the
//! virtual clock. Because ties are broken by a monotonically
//! increasing sequence number and the only source of randomness is a seeded
//! RNG, executions are bit-for-bit reproducible.
//!
//! # Hot-path design
//!
//! Simulations push millions of fabric messages through this loop, so the
//! per-event and per-poll costs are engineered to be allocation-free:
//!
//! * **Events** live in a slab ([`EventSlot`]) and come in three kinds.
//!   [`EventKind::Wake`] — "wake this task at time T" (sleeps, deadlines)
//!   — carries a cached [`Waker`] and no heap closure; [`EventKind::Step`]
//!   is its twin for a state machine (message stages, see *Steps*).
//!   [`EventKind::Tick`] is a chain of such timers that re-arms itself in
//!   its slot and fires only at the end (see *Tickers* below). Only the
//!   explicit [`Sim::schedule_at`] API ([`EventKind::Call`]) boxes a
//!   `dyn FnOnce`.
//! * **Ordering** uses an index-based 4-ary min-heap of `(at, seq, slab key)`
//!   entries. Exact `(at, seq)` order is preserved, so swapping the old
//!   `BinaryHeap<Reverse<Event>>` for this heap changes no execution.
//! * **Wakers** are created once per task slot generation (at spawn) and
//!   cloned per use — a non-atomic refcount bump, not an allocation. The
//!   waker is hand-rolled over `Rc` (the only `unsafe` in the crate, see
//!   below), so waking pushes onto a plain `RefCell<VecDeque>` ready queue
//!   with no mutex and no atomics. A task's entry there is its bare
//!   `TaskId`; a step queued by [`Sim::defer`] waits in a second FIFO,
//!   with a marker holding its place, so tasks pay nothing for steps.
//!
//! # Tickers
//!
//! [`Sim::ticker`]`(period, n, log, tag)` stands for `n` chained
//! `sleep_ns(period).await`s whose task does nothing observable between
//! them except append `tag` to `log` ([`TickLog`]). The invariants that make
//! the two indistinguishable to every other task and event:
//!
//! * **Same `(at, seq)` draws.** The first tick's sequence number is drawn
//!   when the ticker is first polled, where the first `Sleep` registers.
//!   When tick `k < n` fires, the executor draws tick `k + 1`'s sequence
//!   number and moves the heap entry there before anything else runs —
//!   exactly where the woken task, polled alone right after its wake event,
//!   would have registered sleep `k + 1`. Each re-arm counts in
//!   `events_scheduled` and `timer_events` like the sleep it replaces.
//! * **Same order of effects.** Every tick but the last appends its tag to
//!   the log at the instant it fires; the log is the firing order across
//!   all tickers sharing it. Whoever owns the effects replays the log
//!   before looking at the state they change (`swarm-fabric`'s `NodeMemory`
//!   does, for chunked writes).
//! * **One wake.** Only tick `n` wakes the awaiting task, so the chain
//!   costs one poll instead of `n`; `tasks_polled` is the only counter that
//!   differs.
//! * **Same leftovers.** A ticker polled at a tick's instant before that
//!   tick's event fired, or dropped mid-chain, leaves that one event behind
//!   as a plain wake — the stale event a completed or dropped `Sleep`
//!   leaves — and the chain goes on from a freshly drawn event, or stops.
//!
//! # Steps
//!
//! A [`Stepper`] owns state machines that would otherwise each be a short
//! task of straight-line code between sleeps (`swarm-fabric`'s messages,
//! one per one-sided RDMA message). The executor advances machine `token`
//! by calling `step(token)`: no future, no waker, no poll. Three hooks put
//! a step exactly where the task's poll would have been, so the two are
//! indistinguishable to every other task and event:
//!
//! * **[`Sim::defer`] is the spawn.** It queues the first step at the back
//!   of the ready queue, where the spawned task's first poll would wait its
//!   turn, and counts in `tasks_spawned` as that spawn did.
//! * **[`Sim::step_at`] is the sleep.** It registers a timer event that
//!   draws its sequence number where `sleep_until(at)` would (the machine
//!   checks `at` against now first, as `Sleep` does) and counts like one;
//!   when it fires the step runs at once, as the woken task, polled first
//!   from the empty ready queue, would.
//! * **[`Ticker::arm_step`] is the awaited ticker.** It fires the ticks
//!   already due and arms the rest of the chain, as the first poll does;
//!   the last tick steps the machine instead of waking a task.
//!
//! Same `(at, seq)` draws and the same order of effects, so every seeded
//! run replays bit for bit; `tasks_polled` is the only counter that
//! differs, and [`Sim::live_tasks`] counts tasks only.
//!
//! # Safety of the `Rc`-backed waker
//!
//! `std::task::Waker` is `Send + Sync` by type, but this executor's wakers
//! wrap an `Rc` and must never leave the thread that owns the [`Sim`]. That
//! invariant holds throughout this workspace: `Sim` is `!Send`, spawned
//! futures are `!Send`, and nothing hands a waker to another thread. Debug
//! builds assert the invariant on every wake.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::rng::SimRng;
use crate::time::Nanos;

/// Identifier of a spawned task.
///
/// Task slots are recycled after completion (background writes spawn a
/// short task each, many per experiment); the generation counter keeps
/// stale wakers from waking a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    idx: usize,
    gen: u64,
}

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A state machine the executor advances by calling [`Stepper::step`]
/// instead of polling a future (module docs, *Steps*). `token` tells the
/// stepper which of its machines to advance.
pub trait Stepper {
    /// Advances machine `token` by one stage.
    fn step(self: Rc<Self>, token: u32);
}

/// One entry of the ready queue: a task to poll or a machine to step.
enum Ready {
    Task(TaskId),
    Step(Rc<dyn Stepper>, u32),
}

/// Queue of tasks made runnable by wakers, and of steps queued by
/// [`Sim::defer`]. Strict FIFO; single-threaded, so a `RefCell` suffices
/// (wakers are guaranteed not to cross threads, see the module docs).
/// A step waits in `steps`, with a [`STEP`] marker holding its place in
/// `queue`, so that a task's entry stays one `TaskId`.
#[derive(Default)]
struct ReadyQueue {
    queue: RefCell<VecDeque<TaskId>>,
    steps: RefCell<VecDeque<(Rc<dyn Stepper>, u32)>>,
}

/// Marks a step's place in the ready queue; no task has this id.
const STEP: TaskId = TaskId {
    idx: usize::MAX,
    gen: u64::MAX,
};

impl ReadyQueue {
    fn push(&self, id: TaskId) {
        self.queue.borrow_mut().push_back(id);
    }
    fn push_step(&self, stepper: Rc<dyn Stepper>, token: u32) {
        self.steps.borrow_mut().push_back((stepper, token));
        self.queue.borrow_mut().push_back(STEP);
    }
    fn pop(&self) -> Option<Ready> {
        let id = self.queue.borrow_mut().pop_front()?;
        if id != STEP {
            return Some(Ready::Task(id));
        }
        let (stepper, token) = self
            .steps
            .borrow_mut()
            .pop_front()
            .expect("a step for its marker");
        Some(Ready::Step(stepper, token))
    }
}

/// Payload behind a task waker: which task to enqueue where. One `Rc` is
/// allocated per task slot *generation* (at spawn); every `Waker` clone
/// afterwards is a non-atomic refcount bump.
struct WakerData {
    id: TaskId,
    ready: Rc<ReadyQueue>,
    #[cfg(debug_assertions)]
    thread: std::thread::ThreadId,
}

impl WakerData {
    #[inline]
    fn assert_thread(&self) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            std::thread::current().id(),
            self.thread,
            "a Sim waker crossed threads; the Rc-backed waker is single-threaded"
        );
    }

    fn wake(&self) {
        self.assert_thread();
        self.ready.push(self.id);
    }
}

fn new_task_waker(id: TaskId, ready: Rc<ReadyQueue>) -> Waker {
    let data = Rc::new(WakerData {
        id,
        ready,
        #[cfg(debug_assertions)]
        thread: std::thread::current().id(),
    });
    let raw = RawWaker::new(Rc::into_raw(data) as *const (), &WAKER_VTABLE);
    // SAFETY: the vtable below upholds the RawWaker contract over an
    // `Rc<WakerData>` produced by `Rc::into_raw`; thread confinement is the
    // caller's invariant (module docs) and asserted in debug builds.
    unsafe { Waker::from_raw(raw) }
}

static WAKER_VTABLE: RawWakerVTable =
    RawWakerVTable::new(waker_clone, waker_wake, waker_wake_by_ref, waker_drop);

// SAFETY (all four): `p` is an `Rc<WakerData>` pointer from `Rc::into_raw`,
// used on the owning thread only (asserted in debug builds on every vtable
// entry, since the non-atomic refcount makes a cross-thread clone/drop UB
// just like a cross-thread wake).
unsafe fn waker_clone(p: *const ()) -> RawWaker {
    (*(p as *const WakerData)).assert_thread();
    Rc::increment_strong_count(p as *const WakerData);
    RawWaker::new(p, &WAKER_VTABLE)
}
unsafe fn waker_wake(p: *const ()) {
    let data = Rc::from_raw(p as *const WakerData);
    data.wake();
}
unsafe fn waker_wake_by_ref(p: *const ()) {
    let data = &*(p as *const WakerData);
    data.wake();
}
unsafe fn waker_drop(p: *const ()) {
    (*(p as *const WakerData)).assert_thread();
    drop(Rc::from_raw(p as *const WakerData));
}

struct TaskSlot {
    gen: u64,
    fut: Option<BoxFuture>,
    /// The slot's cached waker for the current generation; rebuilt at spawn,
    /// cloned (refcount bump) per poll and per timer registration.
    waker: Option<Waker>,
}

/// What a timer event does when it fires: wake a task or step a machine.
enum Target {
    Wake(Waker),
    Step(Rc<dyn Stepper>, u32),
}

impl Target {
    /// The one-shot event that fires this target.
    fn into_event(self) -> EventKind {
        match self {
            Target::Wake(w) => EventKind::Wake(w),
            Target::Step(s, token) => EventKind::Step(s, token),
        }
    }

    fn fire(self) {
        match self {
            Target::Wake(w) => w.wake(),
            Target::Step(s, token) => s.step(token),
        }
    }
}

/// A scheduled event: what to do when its `(at, seq)` heap entry pops.
enum EventKind {
    /// Wake a stored waker — the closure-free fast path used by every
    /// timer a task waits on (sleeps, deadlines).
    Wake(Waker),
    /// Step a machine ([`Sim::step_at`]).
    Step(Rc<dyn Stepper>, u32),
    /// A chain of timers one `period` apart that re-arms itself in this
    /// slot and fires its target on its last tick only ([`Sim::ticker`]).
    Tick(Target, Tick),
    /// Run a boxed action ([`Sim::schedule_at`]'s general case).
    Call(Box<dyn FnOnce(&Sim)>),
    /// A fired slot awaiting reuse.
    Vacant,
}

/// Order in which the ticks of the [`Ticker`]s sharing it fired: each tick
/// but a ticker's last appends that ticker's tag.
#[derive(Debug, Default)]
pub struct TickLog {
    tags: RefCell<Vec<u32>>,
}

impl TickLog {
    /// True if no tick fired since the last [`TickLog::drain`].
    pub fn is_empty(&self) -> bool {
        self.tags.borrow().is_empty()
    }

    /// Hands every recorded tag to `f` in firing order and empties the log.
    pub fn drain(&self, f: impl FnMut(u32)) {
        self.tags.borrow_mut().drain(..).for_each(f);
    }
}

/// The unfired rest of a [`Ticker`]'s chain; lives in the pending event.
struct Tick {
    log: Rc<TickLog>,
    period: Nanos,
    left: u32,
    tag: u32,
}

impl Tick {
    /// Fires one tick: logs it unless it is the last. True if ticks remain.
    fn fire(&mut self) -> bool {
        self.left -= 1;
        if self.left > 0 {
            self.log.tags.borrow_mut().push(self.tag);
        }
        self.left > 0
    }
}

/// Slab slot for one pending event. A slot is freed when its heap entry pops
/// (a re-arming [`EventKind::Tick`] keeps its slot and moves its entry to
/// the next tick), so a live key never has two heap entries; the generation
/// guards [`TimerKey`] handles held by `Sleep` and `Ticker` futures across
/// slot reuse.
struct EventSlot {
    gen: u64,
    kind: EventKind,
}

#[derive(Clone, Copy)]
struct HeapEntry {
    at: Nanos,
    seq: u64,
    key: u32,
}

#[inline]
fn entry_less(a: &HeapEntry, b: &HeapEntry) -> bool {
    (a.at, a.seq) < (b.at, b.seq)
}

/// Handle to a pending timer event, held by [`Sleep`] and [`Ticker`].
#[derive(Clone, Copy)]
struct TimerKey {
    key: u32,
    gen: u64,
}

/// Slab-backed event store plus an index-based 4-ary min-heap over it,
/// ordered by exact `(at, seq)` — the same total order the previous
/// `BinaryHeap<Reverse<Event>>` used, so executions are unchanged.
#[derive(Default)]
struct EventQueue {
    heap: Vec<HeapEntry>,
    slots: Vec<EventSlot>,
    free: Vec<u32>,
}

impl EventQueue {
    fn push(&mut self, at: Nanos, seq: u64, kind: EventKind) -> TimerKey {
        let key = match self.free.pop() {
            Some(key) => {
                self.slots[key as usize].kind = kind;
                key
            }
            None => {
                let key = u32::try_from(self.slots.len()).expect("event slab exhausted");
                self.slots.push(EventSlot { gen: 0, kind });
                key
            }
        };
        self.heap.push(HeapEntry { at, seq, key });
        self.sift_up(self.heap.len() - 1);
        TimerKey {
            key,
            gen: self.slots[key as usize].gen,
        }
    }

    /// Removes the earliest heap entry and frees its slot, returning what
    /// it held.
    fn pop(&mut self) -> EventKind {
        let key = self.heap[0].key;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let slot = &mut self.slots[key as usize];
        slot.gen += 1;
        self.free.push(key);
        std::mem::replace(&mut slot.kind, EventKind::Vacant)
    }

    /// The slot `t` points at, unless its event has fired.
    fn pending(&mut self, t: TimerKey) -> Option<&mut EventKind> {
        let slot = &mut self.slots[t.key as usize];
        (slot.gen == t.gen).then_some(&mut slot.kind)
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let p = (i - 1) / 4;
            if entry_less(&e, &self.heap[p]) {
                self.heap[i] = self.heap[p];
                i = p;
            } else {
                break;
            }
        }
        self.heap[i] = e;
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            let mut m = first;
            for c in first + 1..(first + 4).min(n) {
                if entry_less(&self.heap[c], &self.heap[m]) {
                    m = c;
                }
            }
            if entry_less(&self.heap[m], &e) {
                self.heap[i] = self.heap[m];
                i = m;
            } else {
                break;
            }
        }
        self.heap[i] = e;
    }
}

/// Cheap always-on executor counters (all plain `Cell` increments), exposed
/// via [`Sim::counters`]. Used by perf-regression tests to pin down the
/// allocation profile of the hot path — e.g. asserting that steady-state
/// fabric traffic schedules zero boxed closures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Total events scheduled (timer wakes + boxed actions).
    pub events_scheduled: u64,
    /// Closure-free wake-at-T events (the allocation-free fast path).
    pub timer_events: u64,
    /// Events that boxed a `dyn FnOnce` ([`Sim::schedule_at`]).
    pub boxed_events: u64,
    /// Tasks spawned, plus state machines started with [`Sim::defer`] (one
    /// per fabric message): each stands where a spawn would.
    pub tasks_spawned: u64,
    /// Task polls executed. Steps of a [`Stepper`] are not polls and do
    /// not count.
    pub tasks_polled: u64,
}

struct SimInner {
    now: Cell<Nanos>,
    seq: Cell<u64>,
    events: RefCell<EventQueue>,
    tasks: RefCell<Vec<TaskSlot>>,
    free_slots: RefCell<Vec<usize>>,
    live_tasks: Cell<usize>,
    ready: Rc<ReadyQueue>,
    seed: u64,
    rng: SimRng,
    counters: Cell<SimCounters>,
}

/// Handle to the simulation world; cheaply cloneable.
///
/// All simulated devices (`swarm-fabric` nodes, clocks, CPU resources) hold a
/// `Sim` and use it to schedule events, spawn background tasks, and draw
/// random numbers.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<SimInner>,
}

impl Sim {
    /// Creates a new simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            inner: Rc::new(SimInner {
                now: Cell::new(0),
                seq: Cell::new(0),
                events: RefCell::new(EventQueue::default()),
                tasks: RefCell::new(Vec::new()),
                free_slots: RefCell::new(Vec::new()),
                live_tasks: Cell::new(0),
                ready: Rc::new(ReadyQueue::default()),
                seed,
                rng: SimRng::seeded(seed),
                counters: Cell::new(SimCounters::default()),
            }),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Nanos {
        self.inner.now.get()
    }

    /// Snapshot of the executor's event/poll counters.
    pub fn counters(&self) -> SimCounters {
        self.inner.counters.get()
    }

    fn bump_counters(&self, f: impl FnOnce(&mut SimCounters)) {
        let mut c = self.inner.counters.get();
        f(&mut c);
        self.inner.counters.set(c);
    }

    /// The seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// The simulation's shared random stream, seeded from [`Sim::seed`].
    pub fn rng(&self) -> &SimRng {
        &self.inner.rng
    }

    /// The stream a subsystem labelled `label` draws from: with a label, a
    /// private stream seeded purely from `(seed, label)`
    /// ([`SimRng::from_seed`]), whose draws consume nothing from — and are
    /// unaffected by — the shared stream; without one, the shared stream.
    /// Independent subsystems (e.g. the shards of a sharded cluster) each
    /// fork their own label so that extra draws in one cannot perturb
    /// another.
    pub fn fork_rng(&self, label: Option<u64>) -> SimRng {
        match label {
            Some(label) => SimRng::from_seed(self.inner.seed, label),
            None => self.inner.rng.clone(),
        }
    }

    fn next_seq(&self) -> u64 {
        let seq = self.inner.seq.get();
        self.inner.seq.set(seq + 1);
        seq
    }

    /// Runs `action` at virtual time `at` (clamped to be no earlier than now).
    ///
    /// This is the *general* (boxing) entry point; timers and message
    /// deliveries go through the closure-free wake path instead (awaiting
    /// [`Sim::sleep_until`] and friends).
    pub fn schedule_at(&self, at: Nanos, action: impl FnOnce(&Sim) + 'static) {
        let at = at.max(self.now());
        let seq = self.next_seq();
        self.bump_counters(|c| {
            c.events_scheduled += 1;
            c.boxed_events += 1;
        });
        self.inner
            .events
            .borrow_mut()
            .push(at, seq, EventKind::Call(Box::new(action)));
    }

    /// Runs `action` after `delay` nanoseconds of virtual time.
    pub fn schedule_after(&self, delay: Nanos, action: impl FnOnce(&Sim) + 'static) {
        self.schedule_at(self.now() + delay, action);
    }

    /// Registers a closure-free "fire `target` at `at`" event.
    fn register_timer_at(&self, at: Nanos, target: Target) -> TimerKey {
        let at = at.max(self.now());
        let seq = self.next_seq();
        self.bump_counters(|c| {
            c.events_scheduled += 1;
            c.timer_events += 1;
        });
        self.inner
            .events
            .borrow_mut()
            .push(at, seq, target.into_event())
    }

    /// Steps machine `token` of `stepper` at virtual time `at` (clamped to
    /// be no earlier than now): the timer event a task's `sleep_until(at)`
    /// registers, firing a step where it would have woken the task (module
    /// docs, *Steps*).
    pub fn step_at(&self, at: Nanos, stepper: Rc<dyn Stepper>, token: u32) {
        self.register_timer_at(at, Target::Step(stepper, token));
    }

    /// Queues a step of machine `token` of `stepper` at the back of the
    /// ready queue, where a task spawned now would be polled first. It
    /// counts in `tasks_spawned`: it starts a machine the way a spawn
    /// starts a task (module docs, *Steps*).
    pub fn defer(&self, stepper: Rc<dyn Stepper>, token: u32) {
        self.bump_counters(|c| c.tasks_spawned += 1);
        self.inner.ready.push_step(stepper, token);
    }

    /// Points a pending wake event at `waker` (no-op once fired). Keeps
    /// re-polled [`Sleep`]s waking the *latest* context, not the first one.
    fn reregister_waker(&self, t: TimerKey, waker: &Waker) {
        if let Some(EventKind::Wake(w) | EventKind::Tick(Target::Wake(w), _)) =
            self.inner.events.borrow_mut().pending(t)
        {
            if !w.will_wake(waker) {
                *w = waker.clone();
            }
        }
    }

    /// Ticks left in a ticker's pending event; `None` once the last fired.
    fn ticks_left(&self, t: TimerKey) -> Option<u32> {
        match self.inner.events.borrow_mut().pending(t)? {
            EventKind::Tick(_, tick) => Some(tick.left),
            _ => unreachable!("a ticker's key points at its tick event"),
        }
    }

    /// Registers the next event of a ticker's chain: `tick.left` ticks
    /// remain, the first of them at `at`.
    fn register_tick(&self, at: Nanos, target: Target, tick: Tick) -> TimerKey {
        let seq = self.next_seq();
        self.bump_counters(|c| {
            c.events_scheduled += 1;
            c.timer_events += 1;
        });
        self.inner
            .events
            .borrow_mut()
            .push(at, seq, EventKind::Tick(target, tick))
    }

    /// Turns a ticker's pending event into the plain wake a finished or
    /// dropped `Sleep` leaves behind and returns the chain's unfired rest;
    /// `None` once the last tick has fired.
    fn stop_tick(&self, t: TimerKey) -> Option<Tick> {
        let mut events = self.inner.events.borrow_mut();
        let kind = events.pending(t)?;
        match std::mem::replace(kind, EventKind::Vacant) {
            EventKind::Tick(target, tick) => {
                *kind = target.into_event();
                Some(tick)
            }
            _ => unreachable!("a ticker's key points at its tick event"),
        }
    }

    /// Spawns a task onto the executor; it starts running when `run` is
    /// (re-)entered.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) -> TaskId {
        let mut tasks = self.inner.tasks.borrow_mut();
        let idx = match self.inner.free_slots.borrow_mut().pop() {
            Some(idx) => {
                tasks[idx].fut = Some(Box::pin(fut));
                idx
            }
            None => {
                tasks.push(TaskSlot {
                    gen: 0,
                    fut: Some(Box::pin(fut)),
                    waker: None,
                });
                tasks.len() - 1
            }
        };
        let id = TaskId {
            idx,
            gen: tasks[idx].gen,
        };
        tasks[idx].waker = Some(new_task_waker(id, Rc::clone(&self.inner.ready)));
        drop(tasks);
        self.bump_counters(|c| c.tasks_spawned += 1);
        self.inner.live_tasks.set(self.inner.live_tasks.get() + 1);
        self.inner.ready.push(id);
        id
    }

    /// Number of tasks that have been spawned but not yet completed
    /// (machines started with [`Sim::defer`] are not tasks).
    pub fn live_tasks(&self) -> usize {
        self.inner.live_tasks.get()
    }

    /// Future that resolves at virtual time `deadline`.
    pub fn sleep_until(&self, deadline: Nanos) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            timer: None,
        }
    }

    /// Future that resolves after `dur` nanoseconds of virtual time.
    pub fn sleep_ns(&self, dur: Nanos) -> Sleep {
        self.sleep_until(self.now() + dur)
    }

    /// Future that resolves after `ticks` ticks, `period` apart, each but
    /// the last appending `tag` to `log` as it fires — what `ticks` chained
    /// `sleep_ns(period).await`s logging between them do, at one poll of the
    /// awaiting task instead of `ticks` (module docs, *Tickers*).
    pub fn ticker(&self, period: Nanos, ticks: u32, log: &Rc<TickLog>, tag: u32) -> Ticker {
        Ticker {
            sim: self.clone(),
            period,
            end: self.now() + period * Nanos::from(ticks),
            state: TickerState::Idle(Tick {
                log: Rc::clone(log),
                period,
                left: ticks,
                tag,
            }),
        }
    }

    fn poll_task(&self, id: TaskId) {
        let (mut fut, waker) = {
            let mut tasks = self.inner.tasks.borrow_mut();
            let slot = &mut tasks[id.idx];
            if slot.gen != id.gen {
                return; // Stale waker for a recycled slot.
            }
            let Some(fut) = slot.fut.take() else { return };
            let waker = slot.waker.clone().expect("live task slot has a waker");
            (fut, waker)
        };
        self.bump_counters(|c| c.tasks_polled += 1);
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                let mut tasks = self.inner.tasks.borrow_mut();
                tasks[id.idx].gen += 1;
                tasks[id.idx].waker = None;
                self.inner.free_slots.borrow_mut().push(id.idx);
                self.inner.live_tasks.set(self.inner.live_tasks.get() - 1);
            }
            Poll::Pending => {
                self.inner.tasks.borrow_mut()[id.idx].fut = Some(fut);
            }
        }
    }

    /// Advances the clock to the earliest event due by `deadline` and fires
    /// it; false if there is none.
    fn fire_next(&self, deadline: Nanos) -> bool {
        let mut events = self.inner.events.borrow_mut();
        let Some(&top) = events.heap.first().filter(|e| e.at <= deadline) else {
            return false;
        };
        debug_assert!(top.at >= self.now());
        self.inner.now.set(top.at);
        if let EventKind::Tick(_, tick) = &mut events.slots[top.key as usize].kind {
            if tick.fire() {
                // Re-arm in place — same slot, same heap position sifted
                // down — drawing the sequence number where the chained
                // sleep's task would have (module docs, *Tickers*).
                let at = top.at + tick.period;
                let seq = self.next_seq();
                self.bump_counters(|c| {
                    c.events_scheduled += 1;
                    c.timer_events += 1;
                });
                events.heap[0] = HeapEntry { at, seq, ..top };
                events.sift_down(0);
                return true;
            }
        }
        let kind = events.pop();
        drop(events);
        // A step runs here, not from the ready queue: that is empty when
        // an event fires, so a woken task would be polled first right now.
        match kind {
            EventKind::Wake(w) => w.wake(),
            EventKind::Step(s, t) => s.step(t),
            EventKind::Tick(target, _) => target.fire(),
            EventKind::Call(f) => f(self),
            EventKind::Vacant => {}
        }
        true
    }

    /// Runs the simulation until no ready task and no pending event remains.
    ///
    /// Returns the final virtual time.
    pub fn run(&self) -> Nanos {
        self.run_until(Nanos::MAX)
    }

    /// Runs the simulation, but stops once virtual time would exceed
    /// `deadline`. Events after the deadline remain queued.
    pub fn run_until(&self, deadline: Nanos) -> Nanos {
        loop {
            // Drain all tasks runnable at the current instant, then advance
            // time to the next event.
            while let Some(ready) = self.inner.ready.pop() {
                match ready {
                    Ready::Task(id) => self.poll_task(id),
                    Ready::Step(stepper, token) => stepper.step(token),
                }
            }
            if !self.fire_next(deadline) {
                return self.now();
            }
        }
    }

    /// Convenience: spawn `fut` and run the simulation to completion,
    /// returning the value the future produced.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks before the future completes.
    pub fn block_on<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> T {
        let slot: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let slot2 = Rc::clone(&slot);
        self.spawn(async move {
            let v = fut.await;
            *slot2.borrow_mut() = Some(v);
        });
        self.run();
        Rc::try_unwrap(slot)
            .ok()
            .expect("simulation still holds result slot")
            .into_inner()
            .expect("simulation deadlocked before block_on future completed")
    }
}

/// Future returned by [`Sim::sleep_until`].
///
/// Registers one closure-free wake event on first poll; later polls from a
/// different context re-point the event at the *latest* waker (so `Sleep` is
/// safe inside `select`-style combinators that migrate futures between
/// contexts).
///
/// Dropping a `Sleep` does **not** cancel the wake: the event still fires at
/// the deadline and wakes the registered waker (a gen-guarded no-op if the
/// task has completed, a spurious poll if it is still running). This mirrors
/// the pre-slab executor, whose dropped sleeps left their scheduled closure
/// behind — suppressing those spurious wakes would change how simultaneous
/// events interleave within one virtual instant and break bit-identical
/// replay of seeded runs.
pub struct Sleep {
    sim: Sim,
    deadline: Nanos,
    timer: Option<TimerKey>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        match self.timer {
            Some(t) => self.sim.reregister_waker(t, cx.waker()),
            None => {
                let t = self
                    .sim
                    .register_timer_at(self.deadline, Target::Wake(cx.waker().clone()));
                self.timer = Some(t);
            }
        }
        Poll::Pending
    }
}

/// Future returned by [`Sim::ticker`].
///
/// Like a dropped [`Sleep`], a dropped `Ticker` does not cancel its pending
/// event: that one tick still fires as a plain wake, and the chain ends
/// there.
pub struct Ticker {
    sim: Sim,
    period: Nanos,
    /// Instant of the last tick.
    end: Nanos,
    state: TickerState,
}

enum TickerState {
    /// No event pending: not polled yet.
    Idle(Tick),
    /// The chain runs from the event behind this key.
    Armed(TimerKey),
    Done,
}

impl Ticker {
    /// Instant of the next tick while `left` remain.
    fn next(&self, left: u32) -> Nanos {
        self.end - self.period * Nanos::from(left - 1)
    }

    /// Fires the ticks of `tick` due now — the way a `Sleep` polled at its
    /// deadline completes without waiting for its event — and registers the
    /// rest of the chain to `target`; `None` if no tick is left.
    fn start(&self, mut tick: Tick, target: impl FnOnce() -> Target) -> Option<TimerKey> {
        let now = self.sim.now();
        while tick.left > 0 && now >= self.next(tick.left) {
            tick.fire();
        }
        (tick.left > 0).then(|| self.sim.register_tick(self.next(tick.left), target(), tick))
    }

    /// Runs the chain for machine `token` of `stepper` instead of an
    /// awaiting task: what the first poll of the awaited ticker does, with
    /// the last tick stepping the machine where it would have woken the
    /// task (module docs, *Steps*). False if every tick was already due:
    /// nothing is armed, and the caller goes on at once, as the task would.
    ///
    /// # Panics
    ///
    /// Panics if the ticker was polled before.
    pub fn arm_step(mut self, stepper: Rc<dyn Stepper>, token: u32) -> bool {
        let TickerState::Idle(tick) = std::mem::replace(&mut self.state, TickerState::Done) else {
            panic!("arm_step on a ticker that was polled");
        };
        self.start(tick, || Target::Step(stepper, token)).is_some()
    }
}

impl Future for Ticker {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let tick = match std::mem::replace(&mut this.state, TickerState::Done) {
            TickerState::Done => return Poll::Ready(()),
            TickerState::Idle(tick) => tick,
            TickerState::Armed(t) => match this.sim.ticks_left(t) {
                None => return Poll::Ready(()),
                Some(left) if this.sim.now() < this.next(left) => {
                    this.sim.reregister_waker(t, cx.waker());
                    this.state = TickerState::Armed(t);
                    return Poll::Pending;
                }
                // Polled at a tick's instant ahead of its event: the event
                // goes stale and the chain continues from this poll.
                Some(_) => this.sim.stop_tick(t).expect("ticks are left"),
            },
        };
        match this.start(tick, || Target::Wake(cx.waker().clone())) {
            Some(key) => {
                this.state = TickerState::Armed(key);
                Poll::Pending
            }
            None => Poll::Ready(()),
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        if let TickerState::Armed(t) = self.state {
            self.sim.stop_tick(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_starts_at_zero() {
        let sim = Sim::new(1);
        assert_eq!(sim.now(), 0);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let end = sim.block_on(async move {
            s.sleep_ns(1_000).await;
            s.sleep_ns(500).await;
            s.now()
        });
        assert_eq!(end, 1_500);
    }

    #[test]
    fn events_fire_in_time_then_fifo_order() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for (delay, tag) in [(50u64, 2u32), (10, 0), (50, 3), (20, 1)] {
            let log = Rc::clone(&log);
            sim.schedule_after(delay, move |_| log.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn concurrent_tasks_interleave_deterministically() {
        let sim = Sim::new(7);
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for t in 0..3u32 {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for i in 0..3u64 {
                    s.sleep_ns(10 * (t as u64 + 1)).await;
                    log.borrow_mut().push((s.now(), t + 10 * i as u32));
                }
            });
        }
        sim.run();
        let first: Vec<_> = log.borrow().clone();
        // Re-run with the same seed: identical interleaving.
        let sim2 = Sim::new(7);
        let log2: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for t in 0..3u32 {
            let s = sim2.clone();
            let log2 = Rc::clone(&log2);
            sim2.spawn(async move {
                for i in 0..3u64 {
                    s.sleep_ns(10 * (t as u64 + 1)).await;
                    log2.borrow_mut().push((s.now(), t + 10 * i as u32));
                }
            });
        }
        sim2.run();
        assert_eq!(first, *log2.borrow());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn(async move {
            loop {
                s.sleep_ns(100).await;
            }
        });
        let t = sim.run_until(1_000);
        assert_eq!(t, 1_000);
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    fn task_slots_are_recycled() {
        let sim = Sim::new(1);
        for _ in 0..1_000 {
            let s = sim.clone();
            sim.spawn(async move { s.sleep_ns(1).await });
            sim.run();
        }
        assert!(sim.inner.tasks.borrow().len() <= 2);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let sim = Sim::new(99);
            (0..8).map(|_| sim.rng().rand_u64()).collect()
        };
        let b: Vec<u64> = {
            let sim = Sim::new(99);
            (0..8).map(|_| sim.rng().rand_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let sim = Sim::new(100);
            (0..8).map(|_| sim.rng().rand_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn sleeps_schedule_no_boxed_closures() {
        // The wake-at-T fast path must stay allocation-free: no boxed
        // `dyn FnOnce` per sleep, one inline timer event each.
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.block_on(async move {
            for _ in 0..100 {
                s.sleep_ns(10).await;
            }
        });
        let c = sim.counters();
        assert_eq!(c.boxed_events, 0, "sleeps must not box closures");
        assert_eq!(c.timer_events, 100);
        assert_eq!(c.events_scheduled, 100);
        assert!(c.tasks_polled >= 101, "one poll per wake plus the first");
        assert_eq!(c.tasks_spawned, 1);
    }

    #[test]
    fn schedule_at_counts_as_boxed_event() {
        let sim = Sim::new(1);
        sim.schedule_after(5, |_| {});
        sim.run();
        let c = sim.counters();
        assert_eq!(c.boxed_events, 1);
        assert_eq!(c.timer_events, 0);
    }

    #[test]
    fn dropped_sleep_still_advances_time_on_run() {
        // A dropped Sleep's event stays armed: it must keep advancing
        // virtual time (and spuriously wake its task, a no-op here since the
        // task is gone), exactly like the stale closure the pre-slab
        // executor left behind — so `run()` end times stay bit-identical.
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn(async move {
            let long = s.sleep_ns(10_000);
            let short = s.sleep_ns(100);
            match crate::combinators::race2(long, short).await {
                crate::combinators::Either::Right(()) => {}
                crate::combinators::Either::Left(()) => panic!("short sleep lost the race"),
            }
            // `long` is dropped here; its event remains queued.
        });
        let end = sim.run();
        assert_eq!(end, 10_000, "cancelled timer entry must advance the clock");
    }

    #[test]
    fn sleep_wakes_the_latest_waker_after_repoll() {
        // Regression for waker staleness: a Sleep first polled inside task A
        // and then moved to (and re-polled by) task B must wake *B* at the
        // deadline. The old executor captured A's waker forever, leaving B
        // asleep and the simulation deadlocked.
        struct PollOnceThenStash {
            sleep: Option<Sleep>,
            stash: Rc<RefCell<Option<Sleep>>>,
        }
        impl Future for PollOnceThenStash {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                let mut sl = self.sleep.take().expect("polled once");
                let _ = Pin::new(&mut sl).poll(cx); // registers task A's waker
                *self.stash.borrow_mut() = Some(sl);
                Poll::Ready(())
            }
        }

        let sim = Sim::new(1);
        let stash: Rc<RefCell<Option<Sleep>>> = Rc::new(RefCell::new(None));
        let sleep = sim.sleep_ns(1_000);
        sim.spawn(PollOnceThenStash {
            sleep: Some(sleep),
            stash: Rc::clone(&stash),
        });
        let stash2 = Rc::clone(&stash);
        let s = sim.clone();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            // Runs at the same instant, after task A stashed the Sleep.
            let sl = stash2.borrow_mut().take().expect("task A stashed it");
            sl.await;
            assert_eq!(s.now(), 1_000);
            done2.set(true);
        });
        sim.run();
        assert!(done.get(), "task B never woke: stale waker used");
    }

    /// What one run of `ticker_scenario` showed: every traced event, the
    /// tick log, the final instant and the counters.
    type ScenarioRun = (Vec<(Nanos, u32)>, Vec<u32>, Nanos, SimCounters);

    /// A seeded mix of chains (`n` ticks, `period` apart — some cut short by
    /// a racing sleep and dropped), sleeper loops and `schedule_at` calls,
    /// over small ranges so instants collide often. `use_ticker` picks how a
    /// chain waits: one `Sim::ticker`, or `n` chained `sleep_ns(period)`
    /// logging between them.
    fn ticker_scenario(seed: u64, use_ticker: bool) -> ScenarioRun {
        async fn chain(
            sim: Sim,
            use_ticker: bool,
            period: Nanos,
            n: u32,
            log: Rc<TickLog>,
            tag: u32,
        ) {
            if use_ticker {
                sim.ticker(period, n, &log, tag).await;
            } else {
                for k in 0..n {
                    sim.sleep_ns(period).await;
                    if k + 1 < n {
                        log.tags.borrow_mut().push(tag);
                    }
                }
            }
        }

        let sim = Sim::new(seed);
        let rng = sim.fork_rng(Some(0x71C));
        let draw = |lo: u64, hi: u64| rng.rand_range(lo, hi);
        let trace: Rc<RefCell<Vec<(Nanos, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::new(TickLog::default());
        for id in 0..12u32 {
            let (s, trace, log) = (sim.clone(), Rc::clone(&trace), Rc::clone(&log));
            let note = move |s: &Sim, what: u32| trace.borrow_mut().push((s.now(), what));
            let (start, period, n) = (draw(0, 6), draw(0, 5), draw(0, 7) as u32);
            match id % 4 {
                0 | 1 => {
                    // A chain in its own task; odd ones are raced against a
                    // sleep that may land on a tick instant, and dropped.
                    let cut = (id % 4 == 1).then(|| draw(0, 12));
                    sim.spawn(async move {
                        s.sleep_ns(start).await;
                        let c = chain(s.clone(), use_ticker, period, n, log, id);
                        match cut {
                            None => c.await,
                            Some(cut) => {
                                let won = crate::combinators::race2(c, s.sleep_ns(cut)).await;
                                let left = matches!(won, crate::combinators::Either::Left(()));
                                note(&s, 1_000 + id * 2 + u32::from(left));
                            }
                        }
                        note(&s, 100 + id);
                        // Stay alive so a stale wake is a real poll.
                        s.sleep_ns(40).await;
                        note(&s, 200 + id);
                    });
                }
                2 => {
                    let naps = draw(1, 6);
                    sim.spawn(async move {
                        for _ in 0..naps {
                            s.sleep_ns(period + 1).await;
                            note(&s, 300 + id);
                        }
                    });
                }
                _ => sim.schedule_at(start + period, move |s| note(s, 400 + id)),
            }
        }
        let end = sim.run();
        let mut ticks = Vec::new();
        log.drain(|tag| ticks.push(tag));
        let trace = trace.borrow().clone();
        (trace, ticks, end, sim.counters())
    }

    #[test]
    fn ticker_is_indistinguishable_from_chained_sleeps() {
        let (mut dropped_mid_chain, mut saved_polls) = (0, 0);
        for seed in 0..400 {
            let (trace, ticks, end, c) = ticker_scenario(seed, false);
            let (trace_t, ticks_t, end_t, c_t) = ticker_scenario(seed, true);
            assert_eq!(
                trace_t, trace,
                "seed {seed}: other events fired differently"
            );
            assert_eq!(ticks_t, ticks, "seed {seed}: tick order differs");
            assert_eq!(end_t, end, "seed {seed}: final instant differs");
            assert_eq!(
                (c_t.events_scheduled, c_t.timer_events, c_t.boxed_events),
                (c.events_scheduled, c.timer_events, c.boxed_events),
                "seed {seed}: a tick must count like the sleep it replaces"
            );
            assert_eq!(c_t.tasks_spawned, c.tasks_spawned);
            assert!(c_t.tasks_polled <= c.tasks_polled, "seed {seed}");
            saved_polls += c.tasks_polled - c_t.tasks_polled;
            dropped_mid_chain += trace
                .iter()
                .filter(|(_, w)| *w >= 1_000 && w % 2 == 0)
                .count();
        }
        assert!(saved_polls > 400, "tickers saved only {saved_polls} polls");
        assert!(
            dropped_mid_chain > 50,
            "only {dropped_mid_chain} chains were cut"
        );
    }

    #[test]
    fn ticker_wakes_its_task_once() {
        let sim = Sim::new(1);
        let log = Rc::new(TickLog::default());
        let (s, l) = (sim.clone(), Rc::clone(&log));
        sim.block_on(async move {
            s.ticker(11, 32, &l, 7).await;
            assert_eq!(s.now(), 32 * 11);
        });
        let c = sim.counters();
        assert_eq!((c.timer_events, c.boxed_events), (32, 0));
        assert_eq!(c.tasks_polled, 2, "first poll and the last tick's wake");
        let mut ticks = Vec::new();
        log.drain(|tag| ticks.push(tag));
        assert_eq!(ticks, vec![7; 31], "every tick but the last is logged");
        assert!(log.is_empty());
    }

    /// What happened, in order, each with its instant.
    type Trace = Rc<RefCell<Vec<(Nanos, u32)>>>;

    /// Records each step it takes as `(now, 1_000 + token)`.
    struct StepLog {
        sim: Sim,
        trace: Trace,
    }

    impl Stepper for StepLog {
        fn step(self: Rc<Self>, token: u32) {
            self.trace
                .borrow_mut()
                .push((self.sim.now(), 1_000 + token));
        }
    }

    fn step_log(sim: &Sim) -> (Rc<StepLog>, Trace) {
        let trace = Rc::new(RefCell::new(Vec::new()));
        let steps = Rc::new(StepLog {
            sim: sim.clone(),
            trace: Rc::clone(&trace),
        });
        (steps, trace)
    }

    #[test]
    fn a_deferred_step_runs_where_a_spawned_task_is_first_polled() {
        let sim = Sim::new(1);
        let (steps, trace) = step_log(&sim);
        for what in 0..3u32 {
            if what == 1 {
                sim.defer(Rc::clone(&steps) as Rc<dyn Stepper>, what);
                continue;
            }
            let (s, trace) = (sim.clone(), Rc::clone(&trace));
            sim.spawn(async move { trace.borrow_mut().push((s.now(), what)) });
        }
        assert!(trace.borrow().is_empty(), "a deferred step waits its turn");
        sim.run();
        assert_eq!(*trace.borrow(), [(0, 0), (0, 1_001), (0, 2)]);
        let c = sim.counters();
        assert_eq!((c.tasks_spawned, c.tasks_polled), (3, 2));
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn step_at_and_sleep_until_fire_in_registration_order() {
        for step_first in [true, false] {
            let sim = Sim::new(1);
            let (steps, trace) = step_log(&sim);
            let s = sim.clone();
            let woke = Rc::clone(&trace);
            sim.spawn(async move {
                // Draws sequence number 0 first, so no tie below is broken
                // by sequence numbers that happen to be equal.
                s.sleep_until(1).await;
                let mut sleep = std::pin::pin!(s.sleep_until(10));
                let mut steps = Some(steps);
                if step_first {
                    s.step_at(10, steps.take().unwrap(), 7);
                }
                // Registers the sleep's event without waiting on it yet.
                std::future::poll_fn(|cx| {
                    assert!(sleep.as_mut().poll(cx).is_pending());
                    Poll::Ready(())
                })
                .await;
                if let Some(steps) = steps {
                    s.step_at(10, steps, 7);
                }
                sleep.await;
                woke.borrow_mut().push((s.now(), 0));
            });
            sim.run();
            let want = if step_first {
                [(10, 1_007), (10, 0)]
            } else {
                [(10, 0), (10, 1_007)]
            };
            assert_eq!(*trace.borrow(), want, "step first: {step_first}");
            let c = sim.counters();
            assert_eq!((c.events_scheduled, c.timer_events), (3, 3));
        }
    }

    /// A ticker of 5 ticks 10 ns apart, made at 0 and started at `start`
    /// — by `arm_step` or by awaiting it — beside a task draining the tick
    /// log every nanosecond: the drained tags and the completion, each
    /// with its instant, the final sequence number and the counters.
    fn armed_or_awaited(stepped: bool, start: Nanos) -> (Vec<(Nanos, u32)>, u64, SimCounters) {
        let sim = Sim::new(1);
        let (steps, trace) = step_log(&sim);
        let log = Rc::new(TickLog::default());
        let (s, l, t) = (sim.clone(), Rc::clone(&log), Rc::clone(&trace));
        sim.spawn(async move {
            for at in 0..80 {
                s.sleep_until(at).await;
                l.drain(|tag| t.borrow_mut().push((s.now(), tag)));
            }
        });
        let (s, t) = (sim.clone(), Rc::clone(&trace));
        let ticker = sim.ticker(10, 5, &log, 3);
        sim.spawn(async move {
            s.sleep_until(start).await;
            let done = if stepped {
                !ticker.arm_step(steps, 9)
            } else {
                ticker.await;
                true
            };
            if done {
                t.borrow_mut().push((s.now(), 1_009));
            }
        });
        sim.run();
        let trace = trace.borrow().clone();
        (trace, sim.inner.seq.get(), sim.counters())
    }

    #[test]
    fn an_armed_ticker_logs_and_draws_like_an_awaited_one() {
        // From 0 no tick is due yet; from 25 two are, from 50 all five.
        for start in [0, 25, 50, 60] {
            let (awaited, seq, c) = armed_or_awaited(false, start);
            let (armed, seq_armed, c_armed) = armed_or_awaited(true, start);
            assert_eq!(armed, awaited, "start {start}: ticks or the step moved");
            assert_eq!(seq_armed, seq, "start {start}: sequence numbers differ");
            assert_eq!(
                (c_armed.events_scheduled, c_armed.timer_events),
                (c.events_scheduled, c.timer_events),
                "start {start}"
            );
            let ends: Vec<_> = armed.iter().filter(|(_, w)| *w == 1_009).collect();
            assert_eq!(ends, [&(start.max(50), 1_009)], "start {start}: one step");
            let ticks = armed.iter().filter(|(_, w)| *w == 3).count();
            assert_eq!(ticks, 4, "start {start}: every tick but the last logs");
        }
        // Ticks already due are logged at the arming instant.
        let (armed, ..) = armed_or_awaited(true, 25);
        assert_eq!(armed[..2], [(25, 3), (25, 3)]);
    }

    #[test]
    fn four_ary_heap_matches_binary_heap_order() {
        // Exhaustive-ish shuffle test: the 4-ary heap must pop in exact
        // (at, seq) order for adversarial insertion patterns.
        let sim = Sim::new(123);
        let fired: Rc<RefCell<Vec<(Nanos, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut expected = Vec::new();
        for i in 0..500u64 {
            let at = sim.rng().rand_range(0, 50); // many ties -> seq ordering
            expected.push((at, i));
            let fired = Rc::clone(&fired);
            sim.schedule_at(at, move |s| fired.borrow_mut().push((s.now(), i)));
        }
        sim.run();
        expected.sort();
        assert_eq!(*fired.borrow(), expected);
    }
}

//! Every client is wrapped in a [`TracedStore`], an `impl KvStore` that
//! forwards each call. In every repetition it counts completed calls and
//! reads the host clock once per lap of them, which cuts the measured phase
//! into the slices `host_ops_per_s` is made from; in a traced repetition it
//! also records one span per operation in memory, written out only when the
//! repetition has ended. The wrapper adds no simulated time, so traced and
//! untraced repetitions must report identical simulated metrics; what the
//! spans cost on the host is `bench.trace_overhead_pct`.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::rc::Rc;

use swarm_fabric::Endpoint;
use swarm_kv::{KvResult, KvStore, ScanItems};
use swarm_sim::{Nanos, Sim};

use crate::clock::OnCpu;
use crate::json::Json;

/// Span ids 0..=5 are the repetition root and its five host-clock phases;
/// client and operation spans are numbered after them.
pub const PHASES: [&str; 5] = ["build", "preload", "warmup", "measure", "extract"];
const MEASURE_SPAN: u32 = 4;
const FIRST_FREE_SPAN: u32 = 6;

/// The store-level call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `KvStore::get`.
    Get,
    /// `KvStore::update`.
    Update,
    /// `KvStore::insert` / `insert_ttl`.
    Insert,
    /// `KvStore::delete`.
    Delete,
    /// `KvStore::scan`.
    Scan,
}

impl OpClass {
    fn name(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::Update => "update",
            OpClass::Insert => "insert",
            OpClass::Delete => "delete",
            OpClass::Scan => "scan",
        }
    }
}

/// One operation: simulated clock, parented to its client's span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// Span id, unique within the repetition.
    pub id: u32,
    /// The issuing client's span.
    pub parent: u32,
    /// Which call.
    pub class: OpClass,
    /// Key (scan: start key).
    pub key: u64,
    /// Simulated start, ns.
    pub start: Nanos,
    /// Simulated end, ns.
    pub end: Nanos,
    /// How far the client's `rounds()` advanced between start and end. With
    /// one operation in flight per client that is this operation's
    /// roundtrips; with more it also counts the operations it overlapped.
    pub rtts: u32,
}

struct Inner {
    sim: Sim,
    recording: Cell<bool>,
    /// Store calls per lap (0: the lap clock is stopped).
    lap_every: Cell<u64>,
    calls: Cell<u64>,
    lap_started: Cell<Option<OnCpu>>,
    /// Host ns since `lap_started` at the end of each full lap.
    stamps: RefCell<Vec<u64>>,
    next_id: Cell<u32>,
    ops: RefCell<Vec<OpSpan>>,
    clients: RefCell<Vec<(u32, usize)>>,
}

/// The in-memory span sink shared by the clients of one repetition.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<Inner>,
}

impl Tracer {
    /// An empty sink that is not recording yet (warm-up is not traced).
    pub fn new(sim: &Sim) -> Self {
        Tracer {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                recording: Cell::new(false),
                lap_every: Cell::new(0),
                calls: Cell::new(0),
                lap_started: Cell::new(None),
                stamps: RefCell::new(Vec::new()),
                next_id: Cell::new(FIRST_FREE_SPAN),
                ops: RefCell::new(Vec::new()),
                clients: RefCell::new(Vec::new()),
            }),
        }
    }

    fn next_id(&self) -> u32 {
        let id = self.inner.next_id.get();
        self.inner.next_id.set(id + 1);
        id
    }

    /// Wraps a client; its operations become children of a new client span.
    pub fn wrap<S: KvStore>(&self, store: Rc<S>) -> Rc<TracedStore<S>> {
        let span = self.next_id();
        self.inner
            .clients
            .borrow_mut()
            .push((span, store.client_id()));
        Rc::new(TracedStore {
            store,
            tracer: self.clone(),
            span,
        })
    }

    /// Starts (or stops) recording operation spans.
    pub fn set_recording(&self, on: bool) {
        self.inner.recording.set(on);
    }

    /// Starts the lap clock: from now on the host clock is read each time
    /// `every` more store calls have completed.
    pub fn start_laps(&self, every: u64) {
        let t = &self.inner;
        t.lap_every.set(every.max(1));
        t.calls.set(0);
        t.stamps.borrow_mut().clear();
        t.lap_started.set(Some(OnCpu::now()));
    }

    /// Stops the lap clock and returns the host ns each lap took. The last
    /// lap runs to now: it takes in the calls after the last full lap and
    /// the driver's own wind-down.
    pub fn stop_laps(&self) -> Vec<u64> {
        let t = &self.inner;
        let started = t.lap_started.take().expect("the lap clock was started");
        t.lap_every.set(0);
        lap_durations(&t.stamps.take(), started.elapsed_ns())
    }

    fn call_completed(&self) {
        let t = &self.inner;
        let every = t.lap_every.get();
        if every == 0 {
            return;
        }
        let calls = t.calls.get() + 1;
        t.calls.set(calls);
        if calls.is_multiple_of(every) {
            let started = t.lap_started.get().expect("the lap clock is running");
            t.stamps.borrow_mut().push(started.elapsed_ns());
        }
    }

    /// Takes what was recorded, leaving the sink empty. The result holds no
    /// handle on the simulation, so it can outlive the repetition cheaply.
    pub fn finish(&self) -> Trace {
        Trace {
            clients: self.inner.clients.take(),
            ops: self.inner.ops.take(),
        }
    }
}

/// Turns the stamps at the end of each full lap into lap durations, the last
/// one stretched to `end` (one lap of `end` if no lap was completed).
fn lap_durations(stamps: &[u64], end: u64) -> Vec<u64> {
    let mut laps: Vec<u64> = std::iter::once(&0)
        .chain(stamps)
        .zip(stamps)
        .map(|(from, to)| to - from)
        .collect();
    match (laps.last_mut(), stamps.last()) {
        (Some(last), Some(stamp)) => *last += end - stamp,
        _ => laps.push(end),
    }
    laps
}

/// The spans of one traced repetition.
#[derive(Debug, Default)]
pub struct Trace {
    /// `(span id, client id)` per wrapped client.
    pub clients: Vec<(u32, usize)>,
    /// One span per store call in the measured phase, in completion order.
    pub ops: Vec<OpSpan>,
}

/// A [`KvStore`] that forwards to the wrapped store and records a span per
/// call. Minted with [`Tracer::wrap`].
pub struct TracedStore<S> {
    store: Rc<S>,
    tracer: Tracer,
    span: u32,
}

impl<S: KvStore> TracedStore<S> {
    async fn spanned<T>(
        &self,
        class: OpClass,
        key: u64,
        call: impl std::future::Future<Output = T>,
    ) -> T {
        let t = &self.tracer.inner;
        if !t.recording.get() {
            let result = call.await;
            self.tracer.call_completed();
            return result;
        }
        let (start, rounds) = (t.sim.now(), self.store.rounds());
        let result = call.await;
        let span = OpSpan {
            id: self.tracer.next_id(),
            parent: self.span,
            class,
            key,
            start,
            end: t.sim.now(),
            rtts: (self.store.rounds() - rounds) as u32,
        };
        t.ops.borrow_mut().push(span);
        self.tracer.call_completed();
        result
    }
}

impl<S: KvStore> KvStore for TracedStore<S> {
    async fn get(&self, key: u64) -> KvResult<Option<Rc<Vec<u8>>>> {
        self.spanned(OpClass::Get, key, self.store.get(key)).await
    }

    async fn update(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.spanned(OpClass::Update, key, self.store.update(key, value))
            .await
    }

    async fn insert(&self, key: u64, value: Vec<u8>) -> KvResult<()> {
        self.spanned(OpClass::Insert, key, self.store.insert(key, value))
            .await
    }

    async fn delete(&self, key: u64) -> KvResult<()> {
        self.spanned(OpClass::Delete, key, self.store.delete(key))
            .await
    }

    async fn scan(&self, start: u64, limit: usize) -> KvResult<ScanItems> {
        self.spanned(OpClass::Scan, start, self.store.scan(start, limit))
            .await
    }

    async fn insert_ttl(&self, key: u64, value: Vec<u8>, ttl_ns: Option<Nanos>) -> KvResult<()> {
        self.spanned(
            OpClass::Insert,
            key,
            self.store.insert_ttl(key, value, ttl_ns),
        )
        .await
    }

    fn rounds(&self) -> u64 {
        self.store.rounds()
    }

    fn endpoint(&self) -> Rc<Endpoint> {
        self.store.endpoint()
    }

    fn client_id(&self) -> usize {
        self.store.client_id()
    }
}

/// Host-clock start and end of the five phases of one repetition, in ns of
/// the thread's CPU time ([`OnCpu`]) since the repetition began (`Sim::new`).
pub type PhaseTimes = [(u64, u64); 5];

/// Writes one repetition's spans: the root, the host-clock phases under it,
/// the client spans under `measure`, and the operation spans (simulated
/// clock) under their clients, one row per span.
pub fn write_trace(
    path: &std::path::Path,
    header: &Json,
    phases: &PhaseTimes,
    measured_sim: (Nanos, Nanos),
    trace: &Trace,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let rep_end = phases.iter().map(|p| p.1).max().unwrap_or(0);
    writeln!(out, "{{\"header\":{},", header.to_line())?;
    writeln!(
        out,
        "\"host_spans\":{{\"columns\":[\"id\",\"parent\",\"name\",\"host_start_ns\",\"host_end_ns\"],\"rows\":["
    )?;
    writeln!(out, "[0,null,\"rep\",0,{rep_end}],")?;
    for (i, (name, (start, end))) in PHASES.iter().zip(phases).enumerate() {
        let sep = if i + 1 < PHASES.len() { "," } else { "" };
        writeln!(out, "[{},0,\"{name}\",{start},{end}]{sep}", i + 1)?;
    }
    writeln!(
        out,
        "]}},\n\"client_spans\":{{\"columns\":[\"id\",\"parent\",\"name\",\"sim_start_ns\",\"sim_end_ns\"],\"rows\":["
    )?;
    for (i, (id, client)) in trace.clients.iter().enumerate() {
        let sep = if i + 1 < trace.clients.len() { "," } else { "" };
        writeln!(
            out,
            "[{id},{MEASURE_SPAN},\"client-{client}\",{},{}]{sep}",
            measured_sim.0, measured_sim.1
        )?;
    }
    writeln!(
        out,
        "]}},\n\"op_spans\":{{\"columns\":[\"id\",\"parent\",\"class\",\"key\",\"sim_start_ns\",\"sim_end_ns\",\"roundtrips\"],\"rows\":["
    )?;
    for (i, s) in trace.ops.iter().enumerate() {
        let sep = if i + 1 < trace.ops.len() { "," } else { "" };
        writeln!(
            out,
            "[{},{},\"{}\",{},{},{},{}]{sep}",
            s.id,
            s.parent,
            s.class.name(),
            s.key,
            s.start,
            s.end,
            s.rtts
        )?;
    }
    writeln!(out, "]}}}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_kv::{Protocol, StoreBuilder};

    /// Runs the same little op sequence through `stores[0]`, returning what
    /// the caller can observe: results, `rounds()`, simulated end time.
    fn drive<S: KvStore + 'static>(sim: &Sim, store: Rc<S>) -> (Vec<Option<Vec<u8>>>, u64, u64) {
        let s = Rc::clone(&store);
        let seen = sim.block_on(async move {
            let mut seen = Vec::new();
            seen.push(s.get(3).await.unwrap().map(|v| (*v).clone()));
            s.update(3, vec![9u8; 64]).await.unwrap();
            seen.push(s.get(3).await.unwrap().map(|v| (*v).clone()));
            s.insert(100, vec![1u8; 64]).await.unwrap();
            seen.push(s.get(100).await.unwrap().map(|v| (*v).clone()));
            s.delete(100).await.unwrap();
            seen.push(s.get(100).await.unwrap().map(|v| (*v).clone()));
            seen
        });
        (seen, store.rounds(), sim.now())
    }

    fn cluster(sim: &Sim) -> Rc<swarm_kv::StoreClient> {
        let cluster = StoreBuilder::new(Protocol::SafeGuess).build_cluster(sim);
        cluster.load_keys(8, |k| vec![k as u8; 64]);
        cluster.client(0)
    }

    #[test]
    fn traced_store_is_a_pass_through() {
        let plain_sim = Sim::new(5);
        let plain = drive(&plain_sim, cluster(&plain_sim));

        let sim = Sim::new(5);
        let tracer = Tracer::new(&sim);
        let traced = tracer.wrap(cluster(&sim));
        tracer.set_recording(true);
        let through = drive(&sim, Rc::clone(&traced));

        assert_eq!(through, plain, "same results, rounds() and simulated time");
        let ops = tracer.finish().ops;
        assert_eq!(ops.len(), 7);
        assert_eq!(ops[0].class, OpClass::Get);
        assert_eq!(ops[1].class, OpClass::Update);
        assert_eq!(ops[3].class, OpClass::Insert);
        assert_eq!(ops[5].class, OpClass::Delete);
        assert!(ops
            .iter()
            .all(|s| s.parent == FIRST_FREE_SPAN && s.end > s.start));
        // Background roundtrips (a delete's clean-up) land between spans.
        let in_spans: u64 = ops.iter().map(|s| u64::from(s.rtts)).sum();
        assert!(in_spans >= 7 && in_spans <= traced.rounds(), "{in_spans}");
        let ids: std::collections::BTreeSet<u32> = ops.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), ops.len(), "span ids are unique");
    }

    #[test]
    fn the_lap_clock_ticks_once_per_lap_of_calls() {
        let sim = Sim::new(5);
        let tracer = Tracer::new(&sim);
        let traced = tracer.wrap(cluster(&sim));
        drive(&sim, Rc::clone(&traced)); // clock stopped: nothing counted
        tracer.start_laps(3);
        drive(&sim, traced); // 7 calls: two full laps, one call over
        let laps = tracer.stop_laps();
        assert_eq!(laps.len(), 2);
        assert!(laps.iter().all(|&ns| ns > 0));

        assert_eq!(lap_durations(&[10, 25, 45], 50), [10, 15, 25]);
        assert_eq!(lap_durations(&[], 50), [50]);
    }

    #[test]
    fn nothing_is_recorded_before_recording_starts() {
        let sim = Sim::new(6);
        let tracer = Tracer::new(&sim);
        let traced = tracer.wrap(cluster(&sim));
        drive(&sim, traced);
        assert!(tracer.finish().ops.is_empty());
    }

    #[test]
    fn trace_file_is_valid_json_with_every_span_kind() {
        let sim = Sim::new(7);
        let tracer = Tracer::new(&sim);
        let traced = tracer.wrap(cluster(&sim));
        tracer.set_recording(true);
        drive(&sim, traced);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        let phases: PhaseTimes = [(0, 10), (10, 20), (20, 30), (30, 40), (40, 50)];
        write_trace(
            &path,
            &Json::obj([("seed", Json::Num(7.0))]),
            &phases,
            (100, 200),
            &tracer.finish(),
        )
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let rows = |table: &str| {
            doc.get(table)
                .unwrap()
                .get("rows")
                .unwrap()
                .elements()
                .len()
        };
        assert_eq!(rows("host_spans"), 6);
        assert_eq!(rows("client_spans"), 1);
        assert_eq!(rows("op_spans"), 7);
        let first = &doc.get("op_spans").unwrap().get("rows").unwrap().elements()[0];
        assert_eq!(
            first.elements().len(),
            7,
            "id, parent, class, key, start, end, roundtrips"
        );
        assert_eq!(first.elements()[2].as_str(), Some("get"));
    }
}

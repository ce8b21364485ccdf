//! Behavioral tests for the simulated fabric: the three properties SWARM
//! requires of the disaggregation technology (§2.1), plus failure semantics
//! and latency calibration.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use swarm_fabric::{chunk_ns, Fabric, FabricConfig, NodeId, NodeMemory, Op, Payload, CHUNK_BYTES};
use swarm_sim::{oneshot, timeout_at, Nanos, OneshotSender, Quorum, Sim, Stepper, NANOS_PER_MICRO};

fn setup(seed: u64, cfg: FabricConfig, nodes: usize) -> (Sim, Fabric) {
    let sim = Sim::new(seed);
    let fabric = Fabric::new(&sim, cfg, nodes);
    (sim, fabric)
}

#[test]
fn write_then_read_roundtrips_through_the_wire() {
    let (sim, fabric) = setup(1, FabricConfig::deterministic(), 1);
    let addr = fabric.node(NodeId(0)).alloc(128, 8);
    let ep = fabric.endpoint();
    sim.block_on(async move {
        ep.write(
            NodeId(0),
            addr,
            (0..128u8).map(|i| i ^ 0x5a).collect::<Vec<u8>>(),
        )
        .await
        .unwrap();
        let got = ep.read(NodeId(0), addr, 128).await.unwrap();
        assert_eq!(got, (0..128u8).map(|i| i ^ 0x5a).collect::<Vec<_>>());
    });
}

#[test]
fn raw_roundtrip_latency_is_in_the_microsecond_range() {
    // Calibration guard: a small read should take 1.5–2.5 µs, matching the
    // RAW baseline the paper anchors on (§7.1).
    let (sim, fabric) = setup(2, FabricConfig::default(), 1);
    let addr = fabric.node(NodeId(0)).alloc(64, 8);
    let ep = fabric.endpoint();
    let sim2 = sim.clone();
    let rtt = sim.block_on(async move {
        let t0 = sim2.now();
        ep.read(NodeId(0), addr, 64).await.unwrap();
        sim2.now() - t0
    });
    assert!(
        (1_500..2_500).contains(&rtt),
        "unexpected RAW-like read RTT: {rtt} ns"
    );
}

#[test]
fn pipelined_series_applies_in_fifo_order_in_one_roundtrip() {
    // Write a buffer and CAS a metadata word in ONE series: if the CAS is
    // visible, the buffer write must be fully visible too (In-n-Out's
    // cornerstone, Algorithm 5).
    let (sim, fabric) = setup(3, FabricConfig::deterministic(), 1);
    let node = NodeId(0);
    let buf = fabric.node(node).alloc(1024, 8);
    let meta = fabric.node(node).alloc(8, 8);
    let ep = fabric.endpoint();
    let ep_reader = fabric.endpoint();
    let sim2 = sim.clone();

    // Reader polls metadata; as soon as it flips, the buffer must be complete.
    let observed = Rc::new(RefCell::new(Vec::new()));
    let obs = Rc::clone(&observed);
    sim.spawn(async move {
        loop {
            let r = ep_reader
                .submit(
                    node,
                    vec![
                        Op::Read { addr: meta, len: 8 },
                        Op::Read {
                            addr: buf,
                            len: 1024,
                        },
                    ],
                )
                .await
                .unwrap();
            let m = u64::from_le_bytes(r[0].clone().read().unwrap().try_into().unwrap());
            if m == 1 {
                obs.borrow_mut().push(r[1].clone().read().unwrap());
                return;
            }
        }
    });

    sim.block_on(async move {
        sim2.sleep_ns(500).await;
        ep.submit(
            node,
            vec![
                Op::Write {
                    addr: buf,
                    data: vec![0xAB; 1024].into(),
                },
                Op::Cas {
                    addr: meta,
                    expected: 0,
                    new: 1,
                },
            ],
        )
        .await
        .unwrap();
    });
    let seen = observed.borrow();
    assert_eq!(seen.len(), 1);
    assert_eq!(seen[0], vec![0xAB; 1024], "metadata visible before data");
}

#[test]
fn concurrent_large_write_can_tear_a_read() {
    // Start a large write; read the same region mid-flight from another
    // endpoint. With chunked application some reads must observe a mix of
    // old and new bytes.
    let (sim, fabric) = setup(4, FabricConfig::default(), 1);
    let node = NodeId(0);
    let len = 8192usize;
    let addr = fabric.node(node).alloc(len as u64, 8);
    let w = fabric.endpoint();

    let done = Rc::new(RefCell::new(false));
    let torn = Rc::new(RefCell::new(false));
    for _ in 0..4 {
        let r = fabric.endpoint();
        let torn2 = Rc::clone(&torn);
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            while !*done2.borrow() {
                let data = r.read(node, addr, len).await.unwrap();
                let first = data[0];
                if data.iter().any(|&b| b != first) {
                    *torn2.borrow_mut() = true;
                }
            }
        });
    }
    let done2 = Rc::clone(&done);
    sim.spawn(async move {
        for i in 0..200u32 {
            w.write(node, addr, vec![i as u8; len]).await.unwrap();
        }
        *done2.borrow_mut() = true;
    });
    sim.run();
    assert!(*torn.borrow(), "no torn read observed for an 8 KiB write");
}

#[test]
fn cas_is_atomic_under_contention() {
    // 8 endpoints CAS-increment the same word 32 times each; every increment
    // must be applied exactly once (no lost updates).
    let (sim, fabric) = setup(5, FabricConfig::default(), 1);
    let node = NodeId(0);
    let addr = fabric.node(node).alloc(8, 8);
    for _ in 0..8 {
        let ep = fabric.endpoint();
        sim.spawn(async move {
            for _ in 0..32 {
                loop {
                    let cur = ep.read(node, addr, 8).await.unwrap();
                    let cur = u64::from_le_bytes(cur.try_into().unwrap());
                    let prev = ep.cas(node, addr, cur, cur + 1).await.unwrap();
                    if prev == cur {
                        break;
                    }
                }
            }
        });
    }
    sim.run();
    assert_eq!(fabric.node(node).mem().read_u64(addr), 8 * 32);
}

#[test]
fn crashed_node_is_silent_not_erroring() {
    let (sim, fabric) = setup(6, FabricConfig::default(), 2);
    let addr = fabric.node(NodeId(0)).alloc(8, 8);
    fabric.node(NodeId(1)).alloc(8, 8);
    fabric.crash_node(NodeId(0));
    let ep = fabric.endpoint();
    let sim2 = sim.clone();
    sim.block_on(async move {
        let mut q = Quorum::new(1);
        q.push(async move { ep.read(NodeId(0), addr, 8).await });
        let r = timeout_at(&sim2, 50 * NANOS_PER_MICRO, &mut q).await;
        assert!(r.is_err(), "crashed node answered");
        assert_eq!(q.completed(), 0);
    });
}

#[test]
fn qp_delivery_is_fifo_per_node() {
    // Two back-to-back single-op series on the same QP must be applied in
    // submission order even with jitter.
    for seed in 0..20 {
        let (sim, fabric) = setup(100 + seed, FabricConfig::default(), 1);
        let node = NodeId(0);
        let addr = fabric.node(node).alloc(8, 8);
        let ep = fabric.endpoint();
        sim.spawn(async move {
            // Submit both without awaiting the first.
            let r1 = ep.submit(
                node,
                vec![Op::Write {
                    addr,
                    data: 1u64.to_le_bytes().to_vec().into(),
                }],
            );
            let r2 = ep.submit(
                node,
                vec![Op::Write {
                    addr,
                    data: 2u64.to_le_bytes().to_vec().into(),
                }],
            );
            let (a, b) = swarm_sim::join2(r1, r2).await;
            assert!(a.is_some() && b.is_some());
        });
        sim.run();
        assert_eq!(
            fabric.node(node).mem().read_u64(addr),
            2,
            "seed {seed}: QP order violated"
        );
    }
}

#[test]
fn dropped_receiver_still_applies_the_write() {
    // Fire-and-forget background writes must land.
    let (sim, fabric) = setup(7, FabricConfig::default(), 1);
    let node = NodeId(0);
    let addr = fabric.node(node).alloc(8, 8);
    let ep = fabric.endpoint();
    drop(ep.submit(
        node,
        vec![Op::Write {
            addr,
            data: 7u64.to_le_bytes().to_vec().into(),
        }],
    ));
    sim.run();
    assert_eq!(fabric.node(node).mem().read_u64(addr), 7);
}

#[test]
fn traffic_stats_accumulate() {
    let (sim, fabric) = setup(8, FabricConfig::default(), 1);
    let node = NodeId(0);
    let addr = fabric.node(node).alloc(64, 8);
    let ep = fabric.endpoint();
    sim.block_on(async move {
        ep.read(node, addr, 64).await.unwrap();
        ep.write(node, addr, vec![0; 64]).await.unwrap();
    });
    let s = fabric.stats();
    assert_eq!(s.messages, 2);
    assert!(s.bytes > 128);
    assert_eq!(fabric.node(node).messages(), 2);
}

#[test]
fn switch_saturation_adds_queuing_delay() {
    // Blast many large writes concurrently: per-op latency must exceed the
    // uncontended RTT because the shared switch serializes them.
    let uncontended = one_write_latency(1, 1);
    let contended = one_write_latency(64, 64);
    assert!(
        contended > uncontended * 3,
        "no queuing under load: {uncontended} vs {contended}"
    );
}

fn one_write_latency(writers: usize, measure_concurrency: usize) -> Nanos {
    let (sim, fabric) = setup(9, FabricConfig::deterministic(), 1);
    let node = NodeId(0);
    let total = Rc::new(RefCell::new(0u64));
    let count = Rc::new(RefCell::new(0u64));
    for _ in 0..writers.min(measure_concurrency) {
        let addr = fabric.node(node).alloc(8192, 8);
        let ep = fabric.endpoint();
        let total = Rc::clone(&total);
        let count = Rc::clone(&count);
        let sim2 = sim.clone();
        sim.spawn(async move {
            let t0 = sim2.now();
            ep.write(node, addr, vec![0xEE; 8192]).await.unwrap();
            *total.borrow_mut() += sim2.now() - t0;
            *count.borrow_mut() += 1;
        });
    }
    sim.run();
    let t = *total.borrow() / *count.borrow();
    t
}

// ---- injected faults (FaultPlan) ----

use swarm_fabric::{FaultAction, FaultPlan};

#[test]
fn partitioned_node_is_silent_until_healed() {
    let (sim, fabric) = setup(20, FabricConfig::default(), 2);
    let addr = fabric.node(NodeId(0)).alloc(8, 8);
    fabric.node(NodeId(0)).mem().write_u64(addr, 5);
    fabric.partition_node(NodeId(0));
    assert!(fabric.is_partitioned(NodeId(0)));
    assert!(
        fabric.node(NodeId(0)).is_alive(),
        "partition is not a crash"
    );
    let ep = fabric.endpoint();
    let sim2 = sim.clone();
    let f2 = fabric.clone();
    sim.block_on(async move {
        let mut q = Quorum::new(1);
        let ep2 = Rc::new(ep);
        let ep3 = Rc::clone(&ep2);
        q.push(async move { ep3.read(NodeId(0), addr, 8).await });
        let r = timeout_at(&sim2, 50 * NANOS_PER_MICRO, &mut q).await;
        assert!(r.is_err(), "partitioned node answered");
        f2.heal_node(NodeId(0));
        // After healing, fresh requests get through (memory intact).
        let got = ep2.read(NodeId(0), addr, 8).await.unwrap();
        assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 5);
    });
}

#[test]
fn delay_spike_inflates_the_rtt_then_expires() {
    let rtt = |spiked: bool| {
        let (sim, fabric) = setup(21, FabricConfig::deterministic(), 1);
        let addr = fabric.node(NodeId(0)).alloc(8, 8);
        if spiked {
            fabric.delay_node(NodeId(0), 20_000, 1_000_000);
        }
        let ep = fabric.endpoint();
        let sim2 = sim.clone();
        sim.block_on(async move {
            let t0 = sim2.now();
            ep.read(NodeId(0), addr, 8).await.unwrap();
            sim2.now() - t0
        })
    };
    let base = rtt(false);
    let spiked = rtt(true);
    assert_eq!(
        spiked,
        base + 2 * 20_000,
        "a delay spike adds exactly the extra one-way latency per direction"
    );
    // An expired window costs nothing.
    let (sim, fabric) = setup(21, FabricConfig::deterministic(), 1);
    let addr = fabric.node(NodeId(0)).alloc(8, 8);
    fabric.delay_node(NodeId(0), 20_000, 10); // expires at t=10
    let ep = fabric.endpoint();
    let sim2 = sim.clone();
    let late = sim.block_on(async move {
        sim2.sleep_ns(1_000).await;
        let t0 = sim2.now();
        ep.read(NodeId(0), addr, 8).await.unwrap();
        sim2.now() - t0
    });
    assert_eq!(late, base);
}

#[test]
fn full_drop_window_swallows_messages_then_recovers() {
    let (sim, fabric) = setup(22, FabricConfig::default(), 1);
    let addr = fabric.node(NodeId(0)).alloc(8, 8);
    fabric.node(NodeId(0)).mem().write_u64(addr, 9);
    fabric.drop_node(NodeId(0), 1000, 200_000); // drop everything till 200µs
    let ep = Rc::new(fabric.endpoint());
    let sim2 = sim.clone();
    sim.block_on(async move {
        let ep2 = Rc::clone(&ep);
        let mut q = Quorum::new(1);
        q.push(async move { ep2.read(NodeId(0), addr, 8).await });
        let r = timeout_at(&sim2, 150_000, &mut q).await;
        assert!(r.is_err(), "message survived a 1000-permille drop window");
        sim2.sleep_until(210_000).await;
        let got = ep.read(NodeId(0), addr, 8).await.unwrap();
        assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 9);
    });
}

#[test]
fn partial_drop_window_drops_some_messages_deterministically() {
    let survivors = |seed: u64| {
        let (sim, fabric) = setup(seed, FabricConfig::default(), 1);
        let addr = fabric.node(NodeId(0)).alloc(8, 8);
        fabric.drop_node(NodeId(0), 500, 10_000_000);
        let ok = Rc::new(RefCell::new(0u32));
        for _ in 0..32 {
            let ep = fabric.endpoint();
            let ok2 = Rc::clone(&ok);
            let sim2 = sim.clone();
            sim.spawn(async move {
                let mut q = Quorum::new(1);
                q.push(async move { ep.read(NodeId(0), addr, 8).await });
                if timeout_at(&sim2, 5_000_000, &mut q).await.is_ok() {
                    *ok2.borrow_mut() += 1;
                }
            });
        }
        sim.run();
        let n = *ok.borrow();
        n
    };
    let a = survivors(23);
    assert_eq!(a, survivors(23), "drop outcomes must be seed-deterministic");
    assert!(
        (1..32).contains(&a),
        "a 50% window should drop some but not all: {a}/32"
    );
}

#[test]
fn restart_revives_a_crashed_node_with_memory_intact() {
    let (sim, fabric) = setup(24, FabricConfig::default(), 1);
    let addr = fabric.node(NodeId(0)).alloc(8, 8);
    fabric.node(NodeId(0)).mem().write_u64(addr, 77);
    fabric.crash_node(NodeId(0));
    fabric.restart_node(NodeId(0));
    let ep = fabric.endpoint();
    let got = sim.block_on(async move { ep.read(NodeId(0), addr, 8).await.unwrap() });
    assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), 77);
}

#[test]
fn fault_plan_applies_on_schedule() {
    let (sim, fabric) = setup(25, FabricConfig::default(), 3);
    let plan = FaultPlan::new()
        .crash_at(100_000, NodeId(1))
        .restart_at(300_000, NodeId(1))
        .partition_between(150_000, 250_000, NodeId(2))
        .delay_spike(50_000, NodeId(0), 10_000, 100_000)
        .drop_window(50_000, NodeId(0), 250, 100_000);
    assert_eq!(plan.events()[0], (100_000, FaultAction::Crash(NodeId(1))));
    fabric.apply_fault_plan(&plan);
    sim.run_until(120_000);
    assert!(!fabric.node(NodeId(1)).is_alive());
    assert!(!fabric.is_partitioned(NodeId(2)));
    sim.run_until(200_000);
    assert!(fabric.is_partitioned(NodeId(2)));
    sim.run_until(400_000);
    assert!(fabric.node(NodeId(1)).is_alive(), "restart fired");
    assert!(!fabric.is_partitioned(NodeId(2)), "heal fired");
    println!("{plan}");
}

/// A plan event past the end of the run must not keep the cluster alive:
/// the `Sim` owns the scheduled closure and the fabric owns the `Sim`, so a
/// closure holding a strong fabric handle is a cycle that leaks every
/// node's memory.
#[test]
fn a_far_future_fault_event_does_not_leak_the_fabric() {
    let (sim, fabric) = setup(26, FabricConfig::default(), 2);
    fabric.node(NodeId(0)).alloc(1 << 20, 8);
    fabric.apply_fault_plan(&FaultPlan::new().crash_at(u64::MAX / 2, NodeId(1)));
    sim.run_until(1_000);
    let node = Rc::downgrade(&fabric.node(NodeId(0)));
    drop(fabric);
    drop(sim);
    assert!(node.upgrade().is_none(), "node memory outlived its fabric");
}

#[test]
fn fabric_delivery_schedules_no_boxed_closures() {
    // The whole message pipeline (CPU issue, switch, wire, node service,
    // chunked DMA, response) must ride the executor's closure-free timer
    // path: zero boxed `dyn FnOnce` events for any amount of traffic.
    let (sim, fabric) = setup(26, FabricConfig::default(), 2);
    let addr = fabric.node(NodeId(0)).alloc(4096, 8);
    let ep = fabric.endpoint();
    sim.block_on(async move {
        for i in 0..32u64 {
            ep.write(NodeId(0), addr, vec![i as u8; 4096])
                .await
                .unwrap();
            let got = ep.read(NodeId(0), addr, 4096).await.unwrap();
            assert_eq!(got[0], i as u8);
        }
    });
    let c = sim.counters();
    assert_eq!(
        c.boxed_events, 0,
        "fabric delivery must stay on the closure-free timer path"
    );
    assert!(c.timer_events > 64, "traffic must schedule timer events");
}

/// The chunked write the fabric used to spell out, kept as the reference the
/// tick/settle path (`NodeMemory::write_chunked`) must be indistinguishable
/// from: copy a chunk, sleep a chunk time, repeat.
async fn write_chunk_by_chunk(sim: Sim, mem: Rc<NodeMemory>, addr: u64, data: Vec<u8>) {
    for (k, chunk) in data.chunks(CHUNK_BYTES).enumerate() {
        mem.write(addr + (k * CHUNK_BYTES) as u64, chunk);
        sim.sleep_ns(chunk_ns()).await;
    }
}

/// Settles its memory and sends on its channel where a chunked write's last
/// tick steps it.
struct Landed {
    mem: Rc<NodeMemory>,
    done: RefCell<Option<OneshotSender<()>>>,
}

impl Stepper for Landed {
    fn step(self: Rc<Self>, _: u32) {
        self.mem.settle();
        if let Some(done) = self.done.take() {
            done.send(());
        }
    }
}

async fn write_ticked(sim: Sim, mem: Rc<NodeMemory>, addr: u64, data: Rc<Vec<u8>>) {
    let (done, landed) = oneshot();
    let ticker = mem.write_chunked(&sim, addr, &data, CHUNK_BYTES, chunk_ns());
    let done = RefCell::new(Some(done));
    if ticker.arm_step(Rc::new(Landed { mem, done }), 0) {
        landed.await;
    }
}

#[test]
fn a_read_at_each_tick_of_an_8k_write_sees_exactly_the_chunks_landed() {
    let (len, chunks, chunk_ns) = (8192usize, 8192 / CHUNK_BYTES, chunk_ns());
    let sim = Sim::new(30);
    let mem = Rc::new(NodeMemory::new());
    let addr = mem.alloc(len as u64, 8);
    mem.write(addr, &vec![0x0D; len]);
    let start = 1_000;
    let (s, m) = (sim.clone(), Rc::clone(&mem));
    sim.spawn(async move {
        s.sleep_until(start).await;
        write_ticked(s.clone(), m, addr, Rc::new(vec![0xEE; len])).await;
        assert_eq!(s.now(), start + chunks as Nanos * chunk_ns);
    });
    let expect = |landed: usize| {
        let mut v = vec![0xEE; landed * CHUNK_BYTES];
        v.resize(len, 0x0D);
        v
    };
    sim.run_until(start - 1);
    assert_eq!(mem.read(addr, len), expect(0), "before the write starts");
    for k in 0..chunks {
        // Chunk `k` lands at tick `k` and not an instant earlier.
        let tick = start + k as Nanos * chunk_ns;
        sim.run_until(tick - 1);
        assert_eq!(mem.read(addr, len), expect(k), "just before tick {k}");
        sim.run_until(tick);
        assert_eq!(mem.read(addr, len), expect(k + 1), "at tick {k}");
    }
    assert_eq!(sim.live_tasks(), 1, "the write ends a chunk time after");
    sim.run();
    assert_eq!(sim.live_tasks(), 0);
    assert_eq!(mem.read(addr, len), expect(chunks));
}

type Writer = fn(Sim, Rc<NodeMemory>, u64, Vec<u8>) -> Pin<Box<dyn Future<Output = ()>>>;
const TICKED: Writer = |s, m, a, d| Box::pin(write_ticked(s, m, a, Rc::new(d)));
const CHUNK_BY_CHUNK: Writer = |s, m, a, d| Box::pin(write_chunk_by_chunk(s, m, a, d));

/// Three writes over one 4 KiB region allocated after `pad` bytes, staggered
/// so that their ticks interleave and some share an instant; the region's
/// bytes at every nanosecond until all have landed.
fn overlapping_writes_snapshots(write: Writer, pad: u64) -> Vec<Vec<u8>> {
    let sim = Sim::new(31);
    let mem = Rc::new(NodeMemory::new());
    mem.alloc(pad, 1);
    let base = mem.alloc(4096, 8);
    // (start, offset, chunks, fill): B starts on A's second tick; C
    // starts mid-period and finishes between the other two.
    for (start, off, chunks, fill) in [(0, 0, 8, 0xA1), (11, 256, 8, 0xB2), (40, 512, 3, 0xC3)] {
        let (s, m) = (sim.clone(), Rc::clone(&mem));
        sim.spawn(async move {
            s.sleep_until(start).await;
            write(s.clone(), m, base + off, vec![fill; chunks * 256]).await;
        });
    }
    let mut snaps = Vec::new();
    for t in 0..=120 {
        sim.run_until(t);
        snaps.push(mem.read(base, 4096));
    }
    assert_eq!(sim.live_tasks(), 0);
    snaps
}

#[test]
fn overlapping_chunked_writes_land_in_tick_order() {
    // The bytes at every instant, not just the last, must be the ones
    // copying a chunk per tick leaves.
    let reference = overlapping_writes_snapshots(CHUNK_BY_CHUNK, 0);
    let ticked = overlapping_writes_snapshots(TICKED, 0);
    for (t, (want, got)) in reference.iter().zip(&ticked).enumerate() {
        assert_eq!(got, want, "memory differs at t = {t} ns");
    }
    // The scenario does interleave: the end state mixes all three writes.
    let end = ticked.last().unwrap();
    assert_eq!(
        (end[0], end[256], end[512], end[2048]),
        (0xA1, 0xB2, 0xC3, 0xB2)
    );
    assert_eq!(end[1280], 0xB2, "B's later tick overwrites C's last chunk");
}

#[test]
fn overlapping_chunked_writes_straddling_a_segment_boundary_land_the_same() {
    // The same scenario with a boundary of the backing store 1000 B into
    // the region — inside a chunk of each of the three writes — leaves the
    // bytes it leaves anywhere else, at every instant.
    let pad = NodeMemory::SEGMENT_BYTES - 1000;
    let inside = overlapping_writes_snapshots(TICKED, 0);
    let across = overlapping_writes_snapshots(TICKED, pad);
    let reference = overlapping_writes_snapshots(CHUNK_BY_CHUNK, pad);
    for (t, want) in inside.iter().enumerate() {
        assert_eq!(&across[t], want, "ticked across differs at t = {t} ns");
        assert_eq!(
            &reference[t], want,
            "chunk by chunk across differs at t = {t} ns"
        );
    }
}

/// Slot `a` holds an older 8 KiB image; one new payload is then written to
/// `a` and to the untouched slot `b` 13 ns apart, so that their ticks
/// interleave, and a word is written into `b`'s landed part mid-write. The
/// two slots' bytes at every nanosecond until all has landed, the memory
/// and the two payloads.
fn shared_payload_snapshots(ticked: bool) -> (Vec<Vec<u8>>, Rc<NodeMemory>, [Payload; 2]) {
    let slot = 16 + 8192;
    let sim = Sim::new(35);
    let mem = Rc::new(NodeMemory::new());
    let a = mem.alloc(2 * slot, 8);
    let b = a + slot;
    let old: Payload = Rc::new((0..slot).map(|i| (i % 253) as u8).collect());
    let new: Payload = Rc::new((0..slot).map(|i| (i % 241) as u8 ^ 0x5A).collect());
    for (start, at, data) in [(0, a, &old), (400, a, &new), (413, b, &new)] {
        let (s, m, d) = (sim.clone(), Rc::clone(&mem), Rc::clone(data));
        sim.spawn(async move {
            s.sleep_until(start).await;
            if ticked {
                write_ticked(s, m, at, d).await;
            } else {
                write_chunk_by_chunk(s, m, at, d.to_vec()).await;
            }
        });
    }
    let mut snaps = Vec::new();
    for t in 395..=800 {
        if t == 450 {
            mem.write_u64(b + 64, u64::MAX);
        }
        sim.run_until(t);
        snaps.push(mem.read(a, 2 * slot as usize));
    }
    assert_eq!(sim.live_tasks(), 0);
    (snaps, mem, [old, new])
}

#[test]
fn two_slots_sharing_one_8k_payload_read_torn_like_two_copies() {
    let (reference, ..) = shared_payload_snapshots(false);
    let (ticked, _mem, [old, new]) = shared_payload_snapshots(true);
    for (t, (want, got)) in reference.iter().zip(&ticked).enumerate() {
        assert_eq!(got, want, "memory differs at t = {} ns", 395 + t);
    }
    let slot = new.len();
    let end = ticked.last().unwrap();
    assert_eq!(end[..slot], new[..], "slot a holds the new image");
    assert_eq!(
        end[slot + 64..slot + 72],
        [0xFF; 8],
        "the word landed after its chunk"
    );
    assert_eq!(Rc::strong_count(&old), 1, "the older image is released");
    assert_eq!(Rc::strong_count(&new), 3, "one payload behind both slots");
}

#[test]
fn an_8k_write_and_read_through_the_wire_straddle_a_segment_boundary() {
    let (sim, fabric) = setup(34, FabricConfig::default(), 1);
    let node = fabric.node(NodeId(0));
    node.alloc(NodeMemory::SEGMENT_BYTES - 4100, 1);
    let addr = node.alloc(8192, 8);
    assert!(addr < NodeMemory::SEGMENT_BYTES && NodeMemory::SEGMENT_BYTES < addr + 8192);
    let data: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
    let ep = fabric.endpoint();
    let sent = data.clone();
    let got = sim.block_on(async move {
        ep.write(NodeId(0), addr, sent).await.unwrap();
        ep.read(NodeId(0), addr, 8192).await.unwrap()
    });
    assert_eq!(got, data);
    // Plain accesses: each side of the boundary alone, and across it.
    let mem = node.mem();
    let cut = (NodeMemory::SEGMENT_BYTES - addr) as usize;
    assert_eq!(mem.read(addr, cut), data[..cut]);
    assert_eq!(mem.read(NodeMemory::SEGMENT_BYTES, 8192 - cut), data[cut..]);
    mem.write(NodeMemory::SEGMENT_BYTES - 2, &[1, 2, 3, 4]);
    assert_eq!(mem.read(NodeMemory::SEGMENT_BYTES - 3, 6), {
        [data[cut - 3], 1, 2, 3, 4, data[cut + 2]]
    });
}

#[test]
fn an_allocation_larger_than_a_segment_is_one_zeroed_address_range() {
    let seg = NodeMemory::SEGMENT_BYTES;
    let mem = NodeMemory::new();
    let small = mem.alloc(24, 8);
    let big = mem.alloc(3 * seg + 123, 8);
    assert_eq!((small, big), (0, 24));
    assert_eq!(mem.allocated_bytes(), 24 + 3 * seg + 123);
    // Written where it crosses its second boundary and at its very end;
    // everything else — most of 192 MiB — is never touched and reads zero.
    mem.write(2 * seg - 5, &[0xAA; 10]);
    let last = big + 3 * seg + 123 - 8;
    mem.write(last, &[0xBB; 8]);
    assert_eq!(mem.read(2 * seg - 6, 12), {
        let mut v = vec![0xAA; 12];
        (v[0], v[11]) = (0, 0);
        v
    });
    assert_eq!(mem.read(last - 8, 16), [[0; 8], [0xBB; 8]].concat());
    for probe in [big, seg - 4, seg + 4096, 3 * seg - 4, 3 * seg + 100] {
        assert_eq!(mem.read(probe, 8), vec![0; 8], "never written: {probe}");
    }
    assert_eq!(mem.read_u64(3 * seg), 0);
}

#[test]
fn a_write_in_flight_when_its_node_crashes_still_lands_in_full() {
    let (sim, fabric) = setup(32, FabricConfig::deterministic(), 1);
    let node = NodeId(0);
    let addr = fabric.node(node).alloc(8192, 8);
    let ep = fabric.endpoint();
    let rx = ep.submit(
        node,
        vec![Op::Write {
            addr,
            data: vec![0x77; 8192].into(),
        }],
    );
    let answered = Rc::new(RefCell::new(false));
    let answered2 = Rc::clone(&answered);
    sim.spawn(async move { *answered2.borrow_mut() = rx.await.is_some() });
    // Step to the instant the first chunk lands, then a few chunks in.
    let node_rc = fabric.node(node);
    let mem = node_rc.mem();
    let mut t = 0;
    while mem.read(addr, 1) == [0] {
        t += 1;
        sim.run_until(t);
    }
    sim.run_until(t + 5 * chunk_ns());
    let landed = mem.read(addr, 8192).iter().filter(|&&b| b == 0x77).count();
    assert!(
        (256..8192).contains(&landed),
        "mid-write: {landed} B landed"
    );
    fabric.crash_node(node);
    sim.run();
    assert_eq!(mem.read(addr, 8192), vec![0x77; 8192]);
    assert!(!*answered.borrow(), "a crashed node never answers");
}

#[test]
fn a_message_costs_no_task_poll_whatever_its_chunks() {
    // A message is stepped through its stages, not polled as a task:
    // awaiting one read or write polls only the awaiting task, once to
    // start and once for the reply. 32 chunks are 32 timer events but no
    // poll either: the per-chunk wake-and-poll must not come back; a 0-byte
    // write has no chunk and no tick. The events and the final instants are
    // the wire model's: stepping a message moves neither.
    let run = |write: Option<usize>| {
        let (sim, fabric) = setup(33, FabricConfig::deterministic(), 1);
        let len = write.unwrap_or(64);
        let addr = fabric.node(NodeId(0)).alloc(len as u64, 8);
        let ep = fabric.endpoint();
        sim.block_on(async move {
            match write {
                Some(len) => ep.write(NodeId(0), addr, vec![1u8; len]).await.unwrap(),
                None => assert_eq!(ep.read(NodeId(0), addr, len).await.unwrap().len(), len),
            }
        });
        (sim.counters(), sim.now())
    };
    let ((read, read_end), (none, none_end)) = (run(None), run(Some(0)));
    let ((one, one_end), (many, many_end)) = (run(Some(256)), run(Some(8192)));
    assert_eq!(many.timer_events, one.timer_events + 31);
    assert_eq!(many.tasks_polled, one.tasks_polled);
    // A 0-byte write arms no tick: the message goes on at once.
    assert_eq!(none.timer_events, one.timer_events - 1);
    for (c, events, end, want_end) in [
        (read, 4, read_end, 1_896),
        (none, 4, none_end, 1_599),
        (one, 5, one_end, 1_639),
        (many, 36, many_end, 2_909),
    ] {
        assert_eq!(c.tasks_polled, 2, "{c:?}");
        assert_eq!(c.tasks_spawned, 2, "the awaiting task and the message");
        assert_eq!((c.events_scheduled, c.boxed_events), (events, 0), "{c:?}");
        assert_eq!(end, want_end);
    }
}

#[test]
fn write_payloads_are_shared_not_copied() {
    // An `Op::Write` payload is Rc-shared into the fabric: the caller's
    // buffer and the in-flight message reference the same allocation.
    let (sim, fabric) = setup(27, FabricConfig::deterministic(), 1);
    let addr = fabric.node(NodeId(0)).alloc(64, 8);
    let ep = fabric.endpoint();
    let payload: swarm_fabric::Payload = vec![0xAB; 64].into();
    let before = Rc::strong_count(&payload);
    let rx = ep.submit(
        NodeId(0),
        vec![Op::Write {
            addr,
            data: Rc::clone(&payload),
        }],
    );
    assert!(
        Rc::strong_count(&payload) > before,
        "the in-flight message must share, not copy, the payload"
    );
    sim.block_on(async move { rx.await.unwrap() });
    assert_eq!(fabric.node(NodeId(0)).mem().read(addr, 64), vec![0xAB; 64]);
    assert_eq!(
        Rc::strong_count(&payload),
        before,
        "delivery releases its ref"
    );
}

//! The steady state stays off the allocator: a warmed event queue
//! pops and pushes without allocating at all, and neither does a
//! warmed reliable transport; a 1024-node star's link table stays
//! small; every suite kernel runs within a budget of allocator calls
//! per simulated event, a checkpoint allocates its bytes at most once,
//! and a corrupt one is rejected before it allocates.
//!
//! Counting needs a `#[global_allocator]`, and implementing
//! `GlobalAlloc` is `unsafe`: the impl below is the repository's one
//! `unsafe impl` (DESIGN §7). It forwards every call to `System` and
//! counts calls and bytes per thread, so tests running side by side do
//! not see each other's — and a suite kernel, a task, runs entirely on
//! the thread that calls it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocator call that hands out `bytes` bytes.
fn count(bytes: usize) {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// Moves this thread's live byte count by `delta`.
fn hold(delta: i64) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

mod common;

use common::base;
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{
    Checkpoint, CheckpointError, PersistConfig, RecoveryConfig, RecoveryStats, Recv, TimeoutAction,
    Transport, TransportConfig,
};
use rsdsm::oracle::Technique;
use rsdsm::protocol::VectorClock;
use rsdsm::simnet::{DetRng, EventQueue, SimDuration, SimTime};

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) this thread
/// has made so far.
fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Bytes those calls handed out (a `realloc` counts its new size).
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes this thread allocated and has not freed.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// The engine's delta mix (`rsdsm_bench::queue_replay`): arrivals,
/// ~4 ms retry timers, same-instant wakeups, far-future leases.
fn delta(rng: &mut DetRng) -> SimDuration {
    SimDuration::from_nanos(match rng.next_below(100) {
        0..=64 => 20_000 + rng.next_below(2_000_000),
        65..=84 => 4_000_000 + rng.next_below(500_000),
        85..=94 => rng.next_below(5_000),
        _ => 200_000_000 + rng.next_below(1_800_000_000),
    })
}

#[test]
fn a_warm_event_queue_pops_and_pushes_without_allocating() {
    // As large as the engine's `Event`.
    type Payload = [u64; 6];
    let mut rng = DetRng::new(0x5EED);
    let mut queue: EventQueue<Payload> = EventQueue::with_capacity(4_096);
    let mut t = SimTime::ZERO;
    for i in 0..4_096 {
        t += SimDuration::from_nanos(rng.next_below(1_000));
        queue.push(t + delta(&mut rng), [i; 6]);
    }
    let deltas: Vec<SimDuration> = (0..65_536).map(|_| delta(&mut rng)).collect();
    let mut steps = deltas.iter().cycle();
    let mut cycle = |queue: &mut EventQueue<Payload>| {
        let (t, payload) = queue.pop().expect("the population stays constant");
        queue.push(t + *steps.next().expect("cycled"), payload);
    };
    for _ in 0..500_000 {
        cycle(&mut queue);
    }
    let before = calls();
    for _ in 0..100_000 {
        cycle(&mut queue);
    }
    assert_eq!(calls() - before, 0, "a warm wheel allocates nothing");
}

/// A link's frames move through a ring that a warm link reuses: a
/// send, its ack (here out of order: each pair of frames is acked
/// second first), the stale retry timer and the receiver's in-order
/// delivery allocate nothing once every link has seen its window.
#[test]
fn a_warm_transport_registers_acks_and_times_out_without_allocating() {
    // Frames in flight per link when each is acked.
    const WINDOW: u64 = 8;
    let links = [(0, 1), (1, 0), (2, 0), (0, 2)];
    let mut transport: Transport<u64> = Transport::new(TransportConfig::default());
    let mut now = SimTime::ZERO;
    let step = |transport: &mut Transport<u64>, now: &mut SimTime| {
        for (src, dst) in links {
            *now += SimDuration::from_micros(20);
            let (seq, _rto) = transport.register(src, dst, 0, *now);
            let delivered = transport.receive(src, dst, seq, 0);
            assert!(matches!(delivered, Recv::Deliver(_)));
            transport.note_ack_sent();
            if let Some(acked) = (seq ^ 1).checked_sub(WINDOW) {
                transport.on_ack(src, dst, acked, *now);
                let stale = transport.on_timeout(src, dst, acked);
                assert!(matches!(stale, TimeoutAction::Cancelled));
            }
        }
    };
    for _ in 0..10_000 {
        step(&mut transport, &mut now);
    }
    let before = calls();
    for _ in 0..100_000 {
        step(&mut transport, &mut now);
    }
    assert_eq!(calls() - before, 0, "a warm transport allocates nothing");
    assert_eq!(transport.inflight_frames(), links.len() * WINDOW as usize);
}

/// The link table of a 1024-node star — every node sends to node 0
/// and node 0 to every node, one acked frame each way — holds what its
/// 2 046 links need and no square of the cluster. Measured when the
/// bound was set: 540 348 B, about 264 B a link (its state and a
/// four-slot ring). A table indexed by (src, dst) in full would hold
/// 1024 × 1024 slots: 4 MiB even at 4 B a slot, and ~90 MiB at a
/// link's state a slot.
#[test]
fn a_1024_node_star_keeps_its_link_table_small() {
    const NODES: usize = 1024;
    const BOUND: i64 = 1 << 20;
    let before = live();
    let mut transport: Transport<u64> = Transport::new(TransportConfig::default());
    let now = SimTime::ZERO;
    for node in 1..NODES {
        for (src, dst) in [(node, 0), (0, node)] {
            let (seq, _rto) = transport.register(src, dst, 0, now);
            let delivered = transport.receive(src, dst, seq, 0);
            assert!(matches!(delivered, Recv::Deliver(_)));
            transport.on_ack(src, dst, seq, now + SimDuration::from_micros(50));
        }
    }
    let held = live() - before;
    println!("a {NODES}-node star's transport holds {held} B");
    assert!(held < BOUND, "{held} B held, bound {BOUND} B");
}

/// Allocator calls per simulated event of each suite kernel at
/// `Scale::Test` on 8 nodes, under O and under 2TP, as measured when
/// the gate was set (debug and release builds count alike). A kernel
/// may not exceed its figure by more than 10 %.
const CALLS_PER_EVENT: [(Benchmark, f64, f64); 8] = [
    (Benchmark::Fft, 2.205, 3.016),
    (Benchmark::LuNcont, 1.818, 2.568),
    (Benchmark::LuCont, 1.965, 2.273),
    (Benchmark::Ocean, 1.427, 2.141),
    (Benchmark::Radix, 1.965, 2.368),
    (Benchmark::Sor, 3.100, 3.408),
    (Benchmark::WaterNsq, 1.792, 2.113),
    (Benchmark::WaterSp, 1.734, 2.268),
];

#[test]
fn suite_kernels_stay_within_their_allocation_budget() {
    let mut over = Vec::new();
    for (bench, base_figure, combined_figure) in CALLS_PER_EVENT {
        for (technique, figure) in [
            (Technique::Base, base_figure),
            (Technique::Combined, combined_figure),
        ] {
            let cfg = technique.configure(bench, base(8));
            let before = calls();
            let report = bench.run(Scale::Test, cfg).expect("the run completes");
            let per_event = (calls() - before) as f64 / report.events_processed as f64;
            if per_event > figure * 1.1 {
                over.push(format!(
                    "{} {}: {per_event:.3} allocator calls per event, budget {figure:.3} + 10 %",
                    bench.name(),
                    technique.label()
                ));
            }
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}

/// What a checkpoint adds to a run's allocations, per byte it writes.
/// Measured: the bytes a run allocates beyond the same run without
/// checkpoints, over its checkpoint bytes (`RCK1` bodies) or, with
/// persistence, over its persisted bytes (images and commit records).
/// A measured checkpoint builds nothing; a persisted one builds its
/// image once, and the device keeps that buffer rather than a copy.
#[test]
fn checkpoints_allocate_their_bytes_at_most_once() {
    let run = |bench: Benchmark, recovery: RecoveryConfig| -> (u64, RecoveryStats) {
        let before = bytes();
        let report = bench
            .run(Scale::Test, base(8).with_recovery(recovery))
            .expect("the run completes");
        (bytes() - before, report.recovery)
    };
    let cadence = RecoveryConfig {
        checkpoint_every: 2,
        ..RecoveryConfig::off()
    };
    let durable = RecoveryConfig {
        persist: PersistConfig::on(),
        ..cadence
    };
    let mut over = Vec::new();
    for bench in [Benchmark::Radix, Benchmark::Fft, Benchmark::Sor] {
        let (plain, _) = run(bench, RecoveryConfig::off());
        let (measured, stats) = run(bench, cadence);
        let (persisted, durable_stats) = run(bench, durable);
        assert!(stats.checkpoints_taken > 0 && durable_stats.persist_bytes > 0);
        let per_ckpt = measured.saturating_sub(plain) as f64 / stats.checkpoint_bytes as f64;
        let per_persist =
            persisted.saturating_sub(plain) as f64 / durable_stats.persist_bytes as f64;
        println!(
            "{}: {per_ckpt:.3} B per checkpoint byte, {per_persist:.3} B per persisted byte",
            bench.name()
        );
        if per_ckpt > 0.05 {
            over.push(format!(
                "{}: {per_ckpt:.3} allocated bytes per checkpoint byte, budget 0.05",
                bench.name()
            ));
        }
        if per_persist > 1.1 {
            over.push(format!(
                "{}: {per_persist:.3} allocated bytes per persisted byte, budget 1.1",
                bench.name()
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}

/// A clock width no image could hold is corrupt, and is rejected
/// before anything is sized by it.
#[test]
fn an_impossible_clock_width_allocates_nothing() {
    let ckpt = Checkpoint {
        node: 0,
        epoch: 2,
        vc: VectorClock::from_entries(&[1, 2]),
        pages: Vec::new(),
        diffs: Vec::new(),
        intervals: Vec::new(),
        tokens: Vec::new(),
    };
    let mut image = ckpt.encode();
    // Magic, node and epoch come first; then the clock's width.
    image[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    let before = calls();
    let decoded = Checkpoint::decode(&image);
    assert_eq!(calls(), before, "decoding allocated");
    assert_eq!(
        decoded,
        Err(CheckpointError::Corrupt("implausible clock width"))
    );
}

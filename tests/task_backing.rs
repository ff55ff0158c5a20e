//! The two backings of a simulated thread are one simulation: a
//! program written as a task ([`DsmTask`], polled on the engine's own
//! thread) and its synchronous twin ([`DsmProgram`], a parked OS
//! thread per simulated thread) make the same syscalls in the same
//! order with the same charges, so their report and `RTR1` digests
//! are equal — and a suite kernel, which is a task, never leaves the
//! thread that called it.

mod common;

use std::sync::Mutex;
use std::thread::{self, ThreadId};

use common::{base, for_each_cell};
use rsdsm::apps::{
    Benchmark, FftApp, HotSpot, LuApp, LuLayout, OceanApp, RadixApp, Scale, SorApp, WaterNsqApp,
    WaterSpApp,
};
use rsdsm::core::{
    BarrierId, DsmConfig, DsmCtx, DsmProgram, DsmTask, Heap, HomePolicy, LockId, PrefetchConfig,
    SharedVec, Simulation, TaskCtx, ThreadConfig, VerifyCtx, PAGE_SIZE,
};
use rsdsm::simnet::SimDuration;

const WORDS: usize = PAGE_SIZE / 8;

/// `rsdsm::apps::HotSpot`, synchronously.
struct SyncHotSpot;

impl DsmProgram for SyncHotSpot {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "hotspot".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(8 * WORDS, HomePolicy::Single(0))
    }

    fn run(&self, ctx: &mut DsmCtx, v: &Self::Handles) {
        for p in 0..8 {
            let _ = ctx.read(v, p * WORDS);
        }
        ctx.barrier(BarrierId(0));
    }
}

/// Rounds of lock-protected counting with prefetched slice traffic in
/// between: every thread adds to a counter per round under its lock,
/// rewrites its own page, and after the barrier reads its neighbour's.
/// Written twice — [`Counting<true>`] is the task.
struct Counting<const TASK: bool>;

const ROUNDS: u64 = 3;
const COUNTERS: usize = 4;

impl<const TASK: bool> Counting<TASK> {
    fn name() -> String {
        "counting".into()
    }

    fn allocate(heap: &mut Heap) -> (SharedVec<u64>, SharedVec<u64>) {
        (
            heap.alloc(COUNTERS * WORDS, HomePolicy::RoundRobin),
            heap.alloc(128 * WORDS, HomePolicy::Blocked),
        )
    }

    fn verify(mem: &VerifyCtx, counters: &SharedVec<u64>) -> bool {
        // The thread count is whatever adds up: 128 pages cap it.
        let total: u64 = (0..COUNTERS).map(|c| mem.read(counters, c * WORDS)).sum();
        total.is_multiple_of(ROUNDS) && total > 0
    }
}

impl DsmProgram for Counting<false> {
    type Handles = (SharedVec<u64>, SharedVec<u64>);

    fn name(&self) -> String {
        Self::name()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        Self::allocate(heap)
    }

    fn run(&self, ctx: &mut DsmCtx, (counters, pages): &Self::Handles) {
        let (t, n) = (ctx.thread_id(), ctx.num_threads());
        let mut row = vec![0u64; WORDS];
        for round in 0..ROUNDS {
            let c = (t + round as usize) % COUNTERS;
            ctx.acquire(LockId(c as u32));
            let count = ctx.read(counters, c * WORDS);
            ctx.compute(SimDuration::from_micros(3));
            ctx.write(counters, c * WORDS, count + 1);
            ctx.release(LockId(c as u32));
            row.fill(round * n as u64 + t as u64);
            ctx.write_slice(pages, t * WORDS, &row);
            ctx.barrier(BarrierId(round as u32));
            let next = (t + 1) % n;
            ctx.prefetch(pages, next * WORDS, (next + 1) * WORDS);
            assert_eq!(
                ctx.read_vec(pages, next * WORDS, WORDS)[WORDS - 1],
                round * n as u64 + next as u64
            );
            ctx.barrier(BarrierId(100 + round as u32));
        }
    }

    fn verify(&self, mem: &VerifyCtx, (counters, _): &Self::Handles) -> bool {
        Self::verify(mem, counters)
    }
}

impl DsmTask for Counting<true> {
    type Handles = (SharedVec<u64>, SharedVec<u64>);

    fn name(&self) -> String {
        Self::name()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        Self::allocate(heap)
    }

    async fn run(&self, ctx: &mut TaskCtx, (counters, pages): &Self::Handles) {
        let (t, n) = (ctx.thread_id(), ctx.num_threads());
        let mut row = vec![0u64; WORDS];
        for round in 0..ROUNDS {
            let c = (t + round as usize) % COUNTERS;
            ctx.acquire(LockId(c as u32)).await;
            let count = ctx.read(counters, c * WORDS).await;
            ctx.compute(SimDuration::from_micros(3));
            ctx.write(counters, c * WORDS, count + 1).await;
            ctx.release(LockId(c as u32)).await;
            row.fill(round * n as u64 + t as u64);
            ctx.write_slice(pages, t * WORDS, &row).await;
            ctx.barrier(BarrierId(round as u32)).await;
            let next = (t + 1) % n;
            ctx.prefetch(pages, next * WORDS, (next + 1) * WORDS).await;
            assert_eq!(
                ctx.read_vec(pages, next * WORDS, WORDS).await[WORDS - 1],
                round * n as u64 + next as u64
            );
            ctx.barrier(BarrierId(100 + round as u32)).await;
        }
    }

    fn verify(&self, mem: &VerifyCtx, (counters, _): &Self::Handles) -> bool {
        Self::verify(mem, counters)
    }
}

/// Report digest untraced, then report and `RTR1` digests traced.
fn digests<B, P: rsdsm::core::Runnable<B>>(app: &P, cfg: &DsmConfig) -> (u64, u64, u64) {
    let sim = Simulation::new(cfg.clone());
    let plain = sim.run(app).expect("untraced run");
    assert!(plain.verified);
    let (report, trace) = sim.run_traced(app).expect("traced run");
    (plain.digest(), report.digest(), trace.digest())
}

#[test]
fn thread_backed_and_task_backed_runs_are_digest_identical() {
    let mut cells = Vec::new();
    for nodes in [8, 64] {
        for tpn in [1, 2] {
            cells.push((nodes, tpn));
        }
    }
    for_each_cell(cells, |(nodes, tpn)| {
        let cfg = base(nodes)
            .with_threads(ThreadConfig::multithreaded(tpn))
            .with_prefetch(PrefetchConfig::hand());
        let label = format!("{nodes} nodes x {tpn}");
        let task = digests(&HotSpot, &cfg);
        assert_eq!(task.0, task.1, "hotspot, {label}: tracing moved the report");
        assert_eq!(task, digests(&SyncHotSpot, &cfg), "hotspot, {label}");
        let task = digests(&Counting::<true>, &cfg);
        assert_eq!(
            task.0, task.1,
            "counting, {label}: tracing moved the report"
        );
        assert_eq!(task, digests(&Counting::<false>, &cfg), "counting, {label}");
    });
}

/// Runs `P` noting the OS thread of every simulated thread at both
/// ends of its body.
struct Witness<P> {
    app: P,
    seen: Mutex<Vec<ThreadId>>,
}

impl<P> Witness<P> {
    fn note(&self) {
        self.seen
            .lock()
            .expect("no holder panics")
            .push(thread::current().id());
    }
}

impl<P: DsmTask> DsmTask for Witness<P> {
    type Handles = P::Handles;

    fn name(&self) -> String {
        self.app.name()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        self.app.allocate(heap)
    }

    async fn run(&self, ctx: &mut TaskCtx, handles: &Self::Handles) {
        self.note();
        self.app.run(ctx, handles).await;
        self.note();
    }

    fn verify(&self, mem: &VerifyCtx, handles: &Self::Handles) -> bool {
        self.app.verify(mem, handles)
    }
}

/// `app` is `bench` at `Scale::Test`: runs it under the paper's
/// combined technique and checks where its threads ran.
fn stays_on_the_callers_thread<P: DsmTask>(bench: Benchmark, app: P) {
    let cfg = base(4)
        .with_threads(ThreadConfig::multithreaded(2))
        .with_prefetch(bench.combined_prefetch());
    let witness = Witness {
        app,
        seen: Mutex::new(Vec::new()),
    };
    let report = Simulation::new(cfg.clone())
        .run(&witness)
        .expect("witnessed run");
    let seen = witness.seen.into_inner().expect("no holder panics");
    assert_eq!(seen.len(), 2 * cfg.total_threads(), "{bench}");
    assert!(
        seen.iter().all(|&id| id == thread::current().id()),
        "{bench}: a simulated thread ran on an OS thread of its own"
    );
    let direct = bench.run(Scale::Test, cfg).expect("suite run");
    assert_eq!(report.digest(), direct.digest(), "{bench}");
}

#[test]
fn suite_kernels_run_on_the_callers_thread() {
    use Benchmark::*;
    stays_on_the_callers_thread(Fft, FftApp::new(10));
    stays_on_the_callers_thread(LuNcont, LuApp::new(64, 16, LuLayout::NonContiguous));
    stays_on_the_callers_thread(LuCont, LuApp::new(64, 16, LuLayout::Contiguous));
    stays_on_the_callers_thread(Ocean, OceanApp::new(34, 2));
    stays_on_the_callers_thread(Radix, RadixApp::new(1 << 11, 12, 6));
    stays_on_the_callers_thread(Sor, SorApp::new(64, 64, 3));
    stays_on_the_callers_thread(WaterNsq, WaterNsqApp::new(48, 2));
    stays_on_the_callers_thread(WaterSp, WaterSpApp::new(96, 2));
}

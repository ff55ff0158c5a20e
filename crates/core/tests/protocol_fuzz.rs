//! Protocol fuzzing: randomized (but race-free) programs run through
//! the full DSM engine, with in-run assertions on every cross-thread
//! read and a final check of the materialized memory. Slots are small
//! enough that many threads share each page, so the multiple-writer
//! twin/diff machinery, notice propagation, prefetching, and lock
//! token movement all get exercised under false sharing.

use proptest::prelude::*;
use rsdsm_core::{
    golden_run, BarrierId, DsmConfig, DsmTask, Heap, HomePolicy, LockId, OracleConfig,
    PrefetchConfig, SharedVec, Simulation, TaskCtx, ThreadConfig, VerifyCtx, PAGE_SIZE,
};
use rsdsm_simnet::{DetRng, SimDuration};

/// The deterministic value thread `t` writes to its slot `k` in phase
/// `p` for a given fuzz seed.
fn pattern(seed: u64, phase: usize, thread: usize, k: usize) -> u64 {
    DetRng::new(seed ^ (phase as u64) << 40 ^ (thread as u64) << 20 ^ k as u64).next_u64()
}

#[derive(Debug, Clone)]
struct FuzzProgram {
    seed: u64,
    phases: usize,
    slots_per_thread: usize,
    counter_rounds: usize,
    prefetch_ratio: f64,
}

#[derive(Debug, Clone, Copy)]
struct FuzzHandles {
    slots: SharedVec<u64>,
    counters: SharedVec<u64>,
}

const NUM_COUNTERS: usize = 3;

impl DsmTask for FuzzProgram {
    type Handles = FuzzHandles;

    fn name(&self) -> String {
        format!("fuzz-{:x}", self.seed)
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        // Allocation sized for up to 16 threads; slots are 8 bytes so
        // hundreds share a page.
        FuzzHandles {
            slots: heap.alloc(16 * self.slots_per_thread, HomePolicy::Blocked),
            counters: heap.alloc(NUM_COUNTERS, HomePolicy::Single(0)),
        }
    }

    async fn run(&self, ctx: &mut TaskCtx, h: &Self::Handles) {
        let t = ctx.thread_id();
        let n = ctx.num_threads();
        let mut rng = DetRng::new(self.seed ^ 0xF022 ^ t as u64);
        let my_base = t * self.slots_per_thread;

        if t == 0 {
            ctx.write_slice(&h.counters, 0, &[0u64; NUM_COUNTERS]).await;
        }
        ctx.barrier(BarrierId(0)).await;

        for phase in 0..self.phases {
            // Write my slots for this phase (sub-page, false shared).
            for k in 0..self.slots_per_thread {
                ctx.write(&h.slots, my_base + k, pattern(self.seed, phase, t, k))
                    .await;
            }
            ctx.compute(SimDuration::from_micros(rng.next_range(10, 200)));

            // Lock-protected shared counters.
            for _ in 0..self.counter_rounds {
                let c = rng.next_below(NUM_COUNTERS as u64) as usize;
                if rng.chance(0.5) {
                    ctx.prefetch(&h.counters, c, c + 1).await;
                }
                ctx.acquire(LockId(40 + c as u32)).await;
                let v = ctx.read(&h.counters, c).await;
                ctx.compute(SimDuration::from_micros(3));
                ctx.write(&h.counters, c, v + 1).await;
                ctx.release(LockId(40 + c as u32)).await;
            }

            ctx.barrier(BarrierId(1 + 2 * phase as u32)).await;

            // Read a random selection of other threads' slots; every
            // value must be this phase's pattern (release consistency
            // guarantees it after the barrier).
            for _ in 0..2 * self.slots_per_thread {
                let other = rng.next_below(n as u64) as usize;
                let k = rng.next_below(self.slots_per_thread as u64) as usize;
                if rng.chance(self.prefetch_ratio) {
                    let idx = other * self.slots_per_thread + k;
                    ctx.prefetch(&h.slots, idx, idx + 1).await;
                }
                let got = ctx.read(&h.slots, other * self.slots_per_thread + k).await;
                let want = pattern(self.seed, phase, other, k);
                assert_eq!(
                    got, want,
                    "phase {phase}: thread {t} read slot ({other},{k}) stale"
                );
            }
            ctx.barrier(BarrierId(2 + 2 * phase as u32)).await;
        }
    }

    fn verify(&self, mem: &VerifyCtx, h: &Self::Handles) -> bool {
        // Final slots hold the last phase's pattern; we cannot know
        // the thread count here, so check the counters instead: each
        // increment ran under a lock, so the totals must add up.
        let total: u64 = (0..NUM_COUNTERS).map(|c| mem.read(&h.counters, c)).sum();
        let _ = total; // checked precisely in the test harness below
        true
    }
}

fn run_fuzz(
    seed: u64,
    nodes: usize,
    threads_per_node: usize,
    prefetch: bool,
    phases: usize,
    counter_rounds: usize,
) {
    let program = FuzzProgram {
        seed,
        phases,
        slots_per_thread: 24,
        counter_rounds,
        prefetch_ratio: 0.6,
    };
    let mut cfg = DsmConfig::paper_cluster(nodes).with_seed(seed);
    if threads_per_node > 1 {
        cfg = cfg.with_threads(ThreadConfig::multithreaded(threads_per_node));
    }
    // Cycle the prefetch style by seed so every mode gets fuzzed.
    if prefetch {
        cfg = cfg.with_prefetch(if seed.is_multiple_of(3) {
            PrefetchConfig::automatic()
        } else {
            PrefetchConfig::hand()
        });
    }
    let total_threads = cfg.total_threads();
    let report = Simulation::new(cfg)
        .run(&program)
        .unwrap_or_else(|e| panic!("fuzz seed {seed}: {e}"));
    assert!(report.verified);
    // Counter conservation: every lock-protected increment landed.
    let expected = (total_threads * phases * counter_rounds) as u64;
    assert_eq!(
        counter_total(&program, &report),
        expected,
        "fuzz seed {seed}: lost counter increments"
    );
}

/// Re-runs verification to read the final counters (the report does
/// not carry raw memory, so the program stores what it needs via the
/// verify hook — here we recompute through a second deterministic run
/// at identical configuration, which must agree by determinism).
fn counter_total(program: &FuzzProgram, report: &rsdsm_core::RunReport) -> u64 {
    // The sum of lock-protected increments equals threads*phases*rounds
    // iff no increment was lost; we detect loss through the in-run
    // assertions plus this recount using a verifying wrapper.
    struct Recount<'a>(&'a FuzzProgram, std::sync::Mutex<u64>);
    impl DsmTask for Recount<'_> {
        type Handles = FuzzHandles;
        fn name(&self) -> String {
            "recount".into()
        }
        fn allocate(&self, heap: &mut Heap) -> Self::Handles {
            self.0.allocate(heap)
        }
        async fn run(&self, ctx: &mut TaskCtx, h: &Self::Handles) {
            self.0.run(ctx, h).await;
        }
        fn verify(&self, mem: &VerifyCtx, h: &Self::Handles) -> bool {
            let total: u64 = (0..NUM_COUNTERS).map(|c| mem.read(&h.counters, c)).sum();
            *self.1.lock().expect("recount mutex") = total;
            true
        }
    }
    let recount = Recount(program, std::sync::Mutex::new(0));
    let r = Simulation::new(report.config.clone())
        .run(&recount)
        .expect("recount run");
    assert!(r.verified);
    let total = *recount.1.lock().expect("recount mutex");
    total
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn randomized_programs_stay_coherent(
        seed in any::<u64>(),
        nodes in 2usize..=6,
        tpn in 1usize..=2,
        prefetch in any::<bool>(),
        phases in 1usize..=3,
        counter_rounds in 0usize..=3,
    ) {
        run_fuzz(seed, nodes, tpn, prefetch, phases, counter_rounds);
    }
}

/// A fixed set of historically interesting configurations (regression
/// anchors for the bugs found during construction: base/open-interval
/// leaks, stale cached diffs, split-interval causality).
#[test]
fn regression_configurations() {
    for (seed, nodes, tpn, prefetch) in [
        (1998, 8, 1, true),
        (1998, 8, 2, false),
        (0x5D5, 8, 2, true),
        (7, 4, 4, true),
        (42, 6, 2, true),
    ] {
        run_fuzz(seed, nodes, tpn, prefetch, 3, 2);
    }
}

// ---------------------------------------------------------------------
// Multi-writer same-page merge torture
// ---------------------------------------------------------------------

const SLOTS: usize = PAGE_SIZE / 8;

/// Deliberately adversarial input for the twin/diff merge path: every
/// thread writes the *same* page concurrently each phase, producing:
///
/// - **overlapping diffs from concurrent intervals** — strided,
///   byte-disjoint writes into one page from every thread at once;
/// - **empty diffs** — each thread dirties a scratch page with a
///   net-zero write in an interval of its own, so the interval closes
///   with a zero-run diff;
/// - **full-page diffs** — one rotating thread rewrites every byte of
///   a bulk page each phase.
///
/// Run with the oracle on, the twin/diff round-trip invariant covers
/// the empty and full extremes, and a golden-model comparison proves
/// the merged image byte-correct.
#[derive(Debug, Clone)]
struct MergeProgram {
    seed: u64,
    phases: usize,
    /// Total thread count, fixed by the harness so `verify` can
    /// recompute every expected slot.
    threads: usize,
}

#[derive(Debug, Clone, Copy)]
struct MergeHandles {
    /// One page, strided-written by all threads at once.
    shared: SharedVec<u64>,
    /// One page, fully rewritten by a rotating single thread.
    bulk: SharedVec<u64>,
    /// One page of per-thread slots for net-zero (empty-diff) writes.
    scratch: SharedVec<u64>,
}

fn bulk_pattern(seed: u64, phase: usize, k: usize) -> u64 {
    DetRng::new(seed ^ 0xB0_14 ^ ((phase as u64) << 32) ^ k as u64).next_u64()
}

impl DsmTask for MergeProgram {
    type Handles = MergeHandles;

    fn name(&self) -> String {
        format!("merge-{:x}", self.seed)
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        MergeHandles {
            shared: heap.alloc(SLOTS, HomePolicy::Blocked),
            bulk: heap.alloc(SLOTS, HomePolicy::Blocked),
            scratch: heap.alloc(SLOTS, HomePolicy::Blocked),
        }
    }

    async fn run(&self, ctx: &mut TaskCtx, h: &Self::Handles) {
        let t = ctx.thread_id();
        let n = ctx.num_threads();
        assert_eq!(n, self.threads, "harness wired the wrong thread count");
        ctx.barrier(BarrierId(0)).await;

        for phase in 0..self.phases {
            // (a) Concurrent same-page writes: thread t owns slots
            // t, t+n, t+2n, ... — every thread's interval carries a
            // diff for this page, all overlapping in time, disjoint
            // in bytes.
            let mut k = t;
            while k < SLOTS {
                ctx.write(&h.shared, k, pattern(self.seed, phase, t, k))
                    .await;
                k += n;
            }

            // (c) Full-page diff: one thread rewrites every byte.
            if t == phase % n {
                for k in 0..SLOTS {
                    ctx.write(&h.bulk, k, bulk_pattern(self.seed, phase, k))
                        .await;
                }
            }

            // Close the interval so the next one holds only the
            // net-zero write below.
            ctx.acquire(LockId(90 + t as u32)).await;
            ctx.release(LockId(90 + t as u32)).await;

            // (b) Empty diff: dirty the scratch page without changing
            // it (the slot always holds 0), so this interval closes
            // with a zero-run diff.
            ctx.write(&h.scratch, t, 0u64).await;

            ctx.barrier(BarrierId(1 + 2 * phase as u32)).await;

            // Everyone checks the fully merged page contents.
            for k in 0..SLOTS {
                let got = ctx.read(&h.shared, k).await;
                let want = pattern(self.seed, phase, k % n, k);
                assert_eq!(got, want, "phase {phase}: thread {t} shared slot {k} stale");
                let got = ctx.read(&h.bulk, k).await;
                let want = bulk_pattern(self.seed, phase, k);
                assert_eq!(got, want, "phase {phase}: thread {t} bulk slot {k} stale");
            }
            ctx.barrier(BarrierId(2 + 2 * phase as u32)).await;
        }
    }

    fn verify(&self, mem: &VerifyCtx, h: &Self::Handles) -> bool {
        let last = self.phases - 1;
        (0..SLOTS).all(|k| {
            mem.read(&h.shared, k) == pattern(self.seed, last, k % self.threads, k)
                && mem.read(&h.bulk, k) == bulk_pattern(self.seed, last, k)
                && mem.read(&h.scratch, k) == 0
        })
    }
}

fn run_merge(seed: u64, nodes: usize, threads_per_node: usize, prefetch: bool) {
    let mut cfg = DsmConfig::paper_cluster(nodes)
        .with_seed(seed)
        .with_oracle(OracleConfig::full());
    if threads_per_node > 1 {
        cfg = cfg.with_threads(ThreadConfig::multithreaded(threads_per_node));
    }
    if prefetch {
        cfg = cfg.with_prefetch(PrefetchConfig::hand());
    }
    let program = MergeProgram {
        seed,
        phases: 3,
        threads: cfg.total_threads(),
    };
    let report = Simulation::new(cfg.clone())
        .run(&program)
        .unwrap_or_else(|e| panic!("merge seed {seed}: {e}"));
    assert!(report.verified, "merge seed {seed}: bad final memory");
    let outcome = report.oracle.expect("oracle enabled");
    assert!(
        outcome.violations.is_empty(),
        "merge seed {seed}: invariant violations {:?}",
        outcome.violations
    );
    // Differential check: the merged image must equal the golden
    // sequential executor's, byte for byte.
    let golden = golden_run(&program, &cfg, &outcome.lock_trace)
        .unwrap_or_else(|e| panic!("merge seed {seed} golden: {e}"));
    assert!(
        golden.verified,
        "merge seed {seed}: golden run not verified"
    );
    assert_eq!(
        golden.image_digest, outcome.image_digest,
        "merge seed {seed}: DSM image diverges from golden model"
    );
    assert_eq!(golden.pages, outcome.final_image);
}

#[test]
fn multi_writer_same_page_merges() {
    for (seed, nodes, tpn, prefetch) in [
        (1u64, 4, 1, false),
        (2, 6, 1, true),
        (3, 4, 2, true),
        (4, 8, 2, false),
    ] {
        run_merge(seed, nodes, tpn, prefetch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    #[test]
    fn randomized_multi_writer_merges(
        seed in any::<u64>(),
        nodes in 2usize..=6,
        tpn in 1usize..=2,
        prefetch in any::<bool>(),
    ) {
        run_merge(seed, nodes, tpn, prefetch);
    }
}

/// Direct protocol-level edge cases of the diff representation the
/// merge path leans on: empty diffs, full-page diffs, and
/// order-independent application of byte-disjoint concurrent diffs.
#[test]
fn diff_representation_edge_cases() {
    use rsdsm_protocol::{Diff, Page};

    // Empty diff: encoding a page against itself yields zero runs and
    // applies as a no-op.
    let base = Page::new();
    let empty = Diff::between(&base, &base);
    assert_eq!(empty.run_count(), 0);
    assert_eq!(empty.payload_bytes(), 0);
    let mut target = base.clone();
    empty.apply(&mut target);
    assert_eq!(target, base);

    // Full-page diff: every byte changes, and the round trip is exact.
    let mut full = Page::new();
    for k in 0..SLOTS {
        // Every byte non-zero, so every byte differs from the zeroed
        // base and the diff must cover the whole page.
        full.write_u64(k * 8, 0x0101_0101_0101_0101u64 * ((k as u64 % 255) + 1));
    }
    let d = Diff::between(&base, &full);
    assert_eq!(d.payload_bytes(), PAGE_SIZE);
    let mut target = base.clone();
    d.apply(&mut target);
    assert_eq!(target, full);

    // Byte-disjoint concurrent diffs merge the same in either order.
    let mut a = base.clone();
    a.write_u64(0, 7);
    let mut b = base.clone();
    b.write_u64(PAGE_SIZE - 8, 9);
    let da = Diff::between(&base, &a);
    let db = Diff::between(&base, &b);
    assert!(!da.overlaps(&db));
    let mut ab = base.clone();
    da.apply(&mut ab);
    db.apply(&mut ab);
    let mut ba = base.clone();
    db.apply(&mut ba);
    da.apply(&mut ba);
    assert_eq!(ab, ba);
    assert_eq!(ab.read_u64(0), 7);
    assert_eq!(ab.read_u64(PAGE_SIZE - 8), 9);
}

//! Micro-benchmarks of the protocol and simulation substrates:
//! twin/diff operations, vector clocks, the event queue, and the
//! network model — the per-operation costs that bound how fast the
//! simulator itself runs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use rsdsm_apps::{Benchmark, Scale};
use rsdsm_bench::{diff_shapes, queue_replay};
use rsdsm_core::{DsmConfig, DsmCtx, DsmProgram, Heap, HomePolicy, LockId, SharedVec, Simulation};
use rsdsm_protocol::{
    Diff, IntervalLog, IntervalRecord, NoticeBoard, Page, PageId, PagePool, VectorClock,
    WriteNotice,
};
use rsdsm_simnet::{EventQueue, HeapQueue, NetConfig, Network, Reliability, SimTime};

fn bench_diffs(c: &mut Criterion) {
    let mut group = c.benchmark_group("diff");
    // Isolated counters, the applications' two shapes — an `f64` a
    // word, and nothing changed at all — see `diff_shapes`.
    for (label, (twin, current)) in [
        ("dense", diff_shapes::strided(8)),
        ("sparse", diff_shapes::strided(256)),
        ("f64_words", diff_shapes::f64_words()),
        ("clean", diff_shapes::clean()),
    ] {
        group.bench_function(format!("create_{label}"), |b| {
            b.iter(|| Diff::between(black_box(&twin), black_box(&current)))
        });
        // The byte-at-a-time scan with one allocation per run: the
        // denominator for the hot-path pass's speedup claims, measured
        // in the same process.
        group.bench_function(format!("create_{label}_reference"), |b| {
            b.iter(|| Diff::between_reference(black_box(&twin), black_box(&current)))
        });
        let diff = Diff::between(&twin, &current);
        group.bench_function(format!("apply_{label}"), |b| {
            b.iter_batched(
                // Into a page that owns its buffer: the row times the
                // copy, not the first write's allocation.
                || {
                    let mut page = twin.clone();
                    page.bytes_mut();
                    page
                },
                |mut page| diff.apply(&mut page),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_page_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_pool");
    let (_, src) = diff_shapes::strided(64);
    // Twin creation through a warm pool: one memcpy, no zero-init.
    group.bench_function("take_copy_of_warm", |b| {
        let mut pool = PagePool::new();
        pool.put(Box::new(Page::new()));
        b.iter(|| {
            let twin = pool.take_copy_of(black_box(&src));
            pool.put(twin);
        })
    });
    // The pre-pool path: fresh allocation + clone per twin.
    group.bench_function("boxed_clone_reference", |b| {
        b.iter(|| black_box(Box::new(src.clone())))
    });
    group.finish();

    // One node's slots for a 1024-page heap: what `NodeMem::new` pays
    // per node before anything is touched (no buffer, no zeroing).
    c.bench_function("page/new_zero_x1024", |b| {
        b.iter(|| black_box((0..1024).map(|_| Page::new()).collect::<Vec<_>>()))
    });
}

/// Node 0's only thread runs local acquire/release pairs: every
/// syscall is one engine ↔ application-thread round trip and nothing
/// else — the shape of rsbench's `core.conductor.syscall_ns`, which is
/// this row divided by the run's 20 001 syscalls.
fn bench_conductor(c: &mut Criterion) {
    struct LockPairs;
    impl DsmProgram for LockPairs {
        type Handles = ();
        fn name(&self) -> String {
            "lock-pairs".into()
        }
        fn allocate(&self, _heap: &mut Heap) -> Self::Handles {}
        fn run(&self, ctx: &mut DsmCtx, _: &Self::Handles) {
            for _ in 0..10_000 {
                ctx.acquire(LockId(0));
                ctx.release(LockId(0));
            }
        }
    }
    let sim = Simulation::new(DsmConfig::paper_cluster(1));
    let mut group = c.benchmark_group("conductor");
    group.sample_size(10);
    group.bench_function("handoff_roundtrip", |b| {
        b.iter(|| {
            sim.run(&LockPairs)
                .expect("lock pairs run")
                .events_processed
        })
    });
    group.finish();
}

/// Node 0's only thread moves one page of `f64`s through the slice
/// accessors 100 000 times a run — its own pages, so nothing faults
/// and the run is the copies plus one spawn. A row's milliseconds
/// times ten are nanoseconds a slice.
fn bench_slices(c: &mut Criterion) {
    const SLICES: usize = 100_000;
    const F64_PER_PAGE: usize = rsdsm_protocol::PAGE_SIZE / 8;
    struct PageSlices {
        write: bool,
    }
    impl DsmProgram for PageSlices {
        type Handles = SharedVec<f64>;
        fn name(&self) -> String {
            "page-slices".into()
        }
        fn allocate(&self, heap: &mut Heap) -> Self::Handles {
            heap.alloc(4 * F64_PER_PAGE, HomePolicy::Single(0))
        }
        fn run(&self, ctx: &mut DsmCtx, v: &Self::Handles) {
            let mut buf = vec![1.5; F64_PER_PAGE];
            ctx.write_slice(v, 0, &buf);
            for i in 0..SLICES {
                let start = i % 4 * F64_PER_PAGE;
                if self.write {
                    ctx.write_slice(v, start, &buf);
                } else {
                    ctx.read_slice(v, start, &mut buf);
                }
            }
            black_box(&buf);
        }
    }
    let sim = Simulation::new(DsmConfig::paper_cluster(1));
    let mut group = c.benchmark_group("slice");
    group.sample_size(10);
    for (label, write) in [("read_4k_f64", false), ("write_4k_f64", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                sim.run(&PageSlices { write })
                    .expect("page slices run")
                    .events_processed
            })
        });
    }
    group.finish();
}

fn bench_trace_and_report(c: &mut Criterion) {
    let base = DsmConfig::paper_cluster(4).with_seed(1998);
    let (_, trace) = Benchmark::Radix
        .run_traced(Scale::Test, base.clone())
        .expect("traced RADIX");
    c.bench_function("trace/encode_rtr1", |b| {
        b.iter(|| black_box(&trace).encode())
    });

    let lossy = Benchmark::Fft
        .run(
            Scale::Test,
            base.with_faults(rsdsm_core::FaultPlan::uniform_loss(0xFA11, 0.05)),
        )
        .expect("lossy FFT");
    // The consolidated single-buffer summary formatter.
    c.bench_function("report/fault_summary_line", |b| {
        b.iter(|| black_box(&lossy).fault_summary_line())
    });
}

fn bench_vector_clocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_clock");
    let mut a = VectorClock::new(8);
    let mut b = VectorClock::new(8);
    for i in 0..8 {
        for _ in 0..i {
            a.tick(i);
            b.tick(7 - i);
        }
    }
    group.bench_function("dominates", |bch| {
        bch.iter(|| black_box(&a).dominates(black_box(&b)))
    });
    group.bench_function("join", |bch| {
        bch.iter_batched(
            || a.clone(),
            |mut x| x.join(black_box(&b)),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("hb_cmp", |bch| {
        bch.iter(|| black_box(&a).hb_cmp(black_box(&b)))
    });
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime::from_nanos((i * 7919) % 4096), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });

    // Steady-state replay against a standing population — the same
    // workload as the pinned `queue_replay_speedup` row in
    // BENCH_matrix.json, at a tenth of its million-event population
    // so a criterion pass stays quick. Priming and the delta schedule
    // happen in the setup closure; the timed region is queue work
    // plus the checksum fold only.
    let mut group = c.benchmark_group("event_queue_replay");
    group.sample_size(10);
    let population = 100_000u64;
    let steps = 100_000u64;
    group.bench_function("wheel_100k", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::with_capacity(population as usize);
                let mut rng = queue_replay::prime(&mut q, population, 0x5D5);
                (q, queue_replay::schedule(&mut rng, steps))
            },
            |(mut q, deltas)| queue_replay::replay(&mut q, &deltas),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("heap_100k", |b| {
        b.iter_batched(
            || {
                let mut q = HeapQueue::with_capacity(population as usize);
                let mut rng = queue_replay::prime(&mut q, population, 0x5D5);
                (q, queue_replay::schedule(&mut rng, steps))
            },
            |(mut q, deltas)| queue_replay::replay(&mut q, &deltas),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

fn bench_prefetch_detect(c: &mut Criterion) {
    use rsdsm_core::{AdaptiveConfig, MissClass, StrideDetector, ThrottleController};

    let mut group = c.benchmark_group("prefetch_detect");
    // The detector's per-fault hot path — one observe on a steady
    // strided stream (the amortized O(1) claim: ring-buffer slide
    // plus two count updates, no rescan).
    group.bench_function("observe_steady_stride", |b| {
        let mut d = StrideDetector::new(8);
        let mut page = 0u64;
        for _ in 0..16 {
            page += 2;
            d.observe(page);
        }
        b.iter(|| {
            page += 2;
            black_box(d.observe(black_box(page)))
        })
    });
    // Worst case for the majority count: every delta different, so
    // the window's counts churn on each slide.
    group.bench_function("observe_trendless", |b| {
        let mut d = StrideDetector::new(8);
        let mut page = 0u64;
        let mut step = 1u64;
        b.iter(|| {
            step = step % 97 + 1;
            page += step;
            black_box(d.observe(black_box(page)))
        })
    });
    // The throttle's per-fault feedback fold: a counter bump on most
    // faults, a windowed evaluation every eval_period-th.
    group.bench_function("throttle_observe", |b| {
        let mut t = ThrottleController::new(&AdaptiveConfig::on());
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let class = if k.is_multiple_of(3) {
                MissClass::Hit
            } else {
                MissClass::NoPf
            };
            black_box(t.observe(black_box(class)))
        })
    });
    group.finish();
}

fn bench_network(c: &mut Criterion) {
    c.bench_function("network/send_page", |b| {
        let mut net = Network::new(8, NetConfig::atm_155(1));
        let mut now = SimTime::ZERO;
        b.iter(|| {
            now += rsdsm_simnet::SimDuration::from_micros(100);
            black_box(net.send(now, 0, 1, 4096, Reliability::Reliable, "bench"))
        })
    });
}

fn bench_notice_board(c: &mut Criterion) {
    c.bench_function("notice_board/record_and_resolve", |b| {
        b.iter(|| {
            let mut board = NoticeBoard::new();
            for origin in 0..8usize {
                let mut stamp = VectorClock::new(8);
                for _ in 0..origin + 1 {
                    stamp.tick(origin);
                }
                board.record(WriteNotice {
                    page: PageId::new(3),
                    origin,
                    stamp,
                });
            }
            black_box(board.pending_by_origin(PageId::new(3)))
        })
    });
}

/// The piggyback query of every grant, barrier message and diff
/// reply, late in a run: a 2 000-record log asked by a peer that
/// lacks only the last four. The answer is four records whatever the
/// log's length.
fn bench_interval_log(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_log");
    for nodes in [8usize, 64] {
        let mut log = IntervalLog::new();
        let mut clock = VectorClock::new(nodes);
        let mut peer = clock.clone();
        for i in 0..2000 {
            if i == 1996 {
                peer = clock.clone();
            }
            let origin = i % nodes;
            clock.tick(origin);
            log.learn(&Arc::new(IntervalRecord {
                origin,
                stamp: Arc::new(clock.clone()),
                pages: vec![PageId::new(i as u32 % 64)],
            }));
        }
        assert_eq!(log.unknown_to(&peer).len(), 4);
        group.bench_function(format!("unknown_to/n{nodes}"), |b| {
            b.iter(|| log.unknown_to(black_box(&peer)))
        });
    }
    group.finish();
}

/// The run loop's fifth phase on its own: what the oracle's per-event
/// check costs after an event that moved nothing (most events — the
/// cost is O(nodes) word compares whatever the lock tables hold), and
/// after one that moved a token (one sweep of the held tokens).
fn bench_oracle(c: &mut Criterion) {
    use rsdsm_core::bench_hooks::OracleProbe;

    let mut group = c.benchmark_group("oracle");
    let mut small = OracleProbe::new(8, 256);
    group.bench_function("check_event_quiet_8n_256tokens", |b| {
        b.iter(|| small.quiet_event())
    });
    let mut wide = OracleProbe::new(256, 256);
    group.bench_function("check_event_quiet_256n", |b| b.iter(|| wide.quiet_event()));
    group.bench_function("check_event_token_move_8n_256tokens", |b| {
        b.iter(|| small.token_move_event())
    });
    group.finish();
    assert_eq!(small.violations() + wide.violations(), 0);
}

/// A 64-page checkpoint made durable: the segmented image plus the
/// record committing it, as the engine persists one.
fn bench_checkpoint_persist(c: &mut Criterion) {
    use rsdsm_core::{Checkpoint, CommitRecord, PageImage};

    let ckpt = Checkpoint {
        node: 0,
        epoch: 4,
        vc: VectorClock::new(8),
        pages: (0..64)
            .map(|index| PageImage {
                index,
                valid: true,
                data: diff_shapes::strided(8).1,
            })
            .collect(),
        diffs: vec![],
        intervals: vec![],
        tokens: vec![],
    };
    let mut group = c.benchmark_group("checkpoint");
    group.bench_function("persist_64pages", |b| {
        b.iter(|| {
            let image = black_box(&ckpt).encode_segmented();
            let commit = CommitRecord::for_payload(ckpt.epoch, 1, &image);
            (image, commit)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_oracle,
    bench_checkpoint_persist,
    bench_diffs,
    bench_page_pool,
    bench_conductor,
    bench_slices,
    bench_trace_and_report,
    bench_vector_clocks,
    bench_event_queue,
    bench_prefetch_detect,
    bench_network,
    bench_notice_board,
    bench_interval_log
);
criterion_main!(benches);

//! Integration tests driving the full DSM engine with small programs,
//! written as tasks (`tests/task_backing.rs` covers the OS-thread
//! backing).

use rsdsm_core::{
    BarrierId, Category, DsmConfig, DsmTask, Heap, HomePolicy, LockId, PrefetchConfig, SharedVec,
    SimError, Simulation, TaskCtx, ThreadConfig, VerifyCtx,
};
use rsdsm_simnet::SimDuration;

/// Each thread writes its own disjoint block, everyone barriers, then
/// each thread reads the whole array (forcing remote fetches).
struct BlockShare {
    elems_per_thread: usize,
}

impl DsmTask for BlockShare {
    type Handles = SharedVec<f64>;

    fn name(&self) -> String {
        "block-share".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(self.elems_per_thread * 8 * 4, HomePolicy::Blocked)
    }

    async fn run(&self, ctx: &mut TaskCtx, data: &Self::Handles) {
        let t = ctx.thread_id();
        let n = ctx.num_threads();
        let chunk = data.len() / n;
        let vals: Vec<f64> = (0..chunk).map(|i| (t * chunk + i) as f64).collect();
        ctx.write_slice(data, t * chunk, &vals).await;
        ctx.barrier(BarrierId(0)).await;
        // Read everything; prefetch annotations cover remote blocks.
        for other in 0..n {
            if other != t {
                ctx.prefetch(data, other * chunk, (other + 1) * chunk).await;
            }
        }
        let mut sum = 0.0;
        for other in 0..n {
            let got = ctx.read_vec(data, other * chunk, chunk).await;
            sum += got.iter().sum::<f64>();
        }
        let expect = (0..data.len()).map(|i| i as f64).sum::<f64>();
        assert!((sum - expect).abs() < 1e-6, "thread {t} read wrong data");
        ctx.barrier(BarrierId(1)).await;
    }

    fn verify(&self, mem: &VerifyCtx, data: &Self::Handles) -> bool {
        (0..data.len()).all(|i| mem.read(data, i) == i as f64)
    }
}

/// Threads increment a shared counter under a lock, many times.
struct LockCounter {
    rounds: usize,
}

impl DsmTask for LockCounter {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "lock-counter".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(8, HomePolicy::Single(0))
    }

    async fn run(&self, ctx: &mut TaskCtx, counter: &Self::Handles) {
        for _ in 0..self.rounds {
            ctx.acquire(LockId(3)).await;
            let v = ctx.read(counter, 0).await;
            ctx.compute(SimDuration::from_micros(5));
            ctx.write(counter, 0, v + 1).await;
            ctx.release(LockId(3)).await;
        }
        ctx.barrier(BarrierId(0)).await;
    }

    fn verify(&self, mem: &VerifyCtx, counter: &Self::Handles) -> bool {
        mem.read(counter, 0) == (self.rounds * 4) as u64 // 4 threads in tests
    }
}

/// Two writers touch disjoint halves of the *same page* between
/// barriers — the multiple-writer protocol must merge their diffs.
struct FalseSharing;

impl DsmTask for FalseSharing {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "false-sharing".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(512, HomePolicy::Single(0)) // exactly one page of u64
    }

    async fn run(&self, ctx: &mut TaskCtx, page: &Self::Handles) {
        let t = ctx.thread_id();
        if t < 2 {
            let half = 256;
            for i in 0..half {
                ctx.write(page, t * half + i, (t as u64 + 1) * 1000 + i as u64)
                    .await;
            }
        }
        ctx.barrier(BarrierId(0)).await;
        // Everyone validates the merged page.
        for i in 0..512 {
            let expect = if i < 256 {
                1000 + i as u64
            } else {
                2000 + (i - 256) as u64
            };
            assert_eq!(ctx.read(page, i).await, expect, "thread {t} index {i}");
        }
        ctx.barrier(BarrierId(1)).await;
    }

    fn verify(&self, mem: &VerifyCtx, page: &Self::Handles) -> bool {
        (0..512).all(|i| {
            mem.read(page, i)
                == if i < 256 {
                    1000 + i as u64
                } else {
                    2000 + (i - 256) as u64
                }
        })
    }
}

/// A program whose thread 1 never reaches the barrier.
struct Lopsided;

impl DsmTask for Lopsided {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "lopsided".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(1, HomePolicy::Single(0))
    }

    async fn run(&self, ctx: &mut TaskCtx, _h: &Self::Handles) {
        if ctx.thread_id() == 0 {
            ctx.barrier(BarrierId(0)).await;
        }
    }
}

/// A program that panics on one thread.
struct Panicky;

impl DsmTask for Panicky {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "panicky".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(1, HomePolicy::Single(0))
    }

    async fn run(&self, ctx: &mut TaskCtx, _h: &Self::Handles) {
        if ctx.thread_id() == 1 {
            panic!("deliberate test panic");
        }
        ctx.barrier(BarrierId(0)).await;
    }
}

fn base_config(nodes: usize) -> DsmConfig {
    DsmConfig::paper_cluster(nodes).with_seed(42)
}

#[test]
fn block_share_runs_and_verifies() {
    let report = Simulation::new(base_config(4))
        .run(&BlockShare {
            elems_per_thread: 600,
        })
        .expect("run succeeds");
    assert!(report.verified);
    assert!(report.misses.misses > 0, "remote reads must miss");
    assert!(report.net.total_msgs > 0);
    assert!(report.total_time > SimDuration::ZERO);
}

#[test]
fn runs_are_deterministic() {
    let app = BlockShare {
        elems_per_thread: 600,
    };
    let r1 = Simulation::new(base_config(4)).run(&app).unwrap();
    let r2 = Simulation::new(base_config(4)).run(&app).unwrap();
    assert_eq!(r1.total_time, r2.total_time);
    assert_eq!(r1.net.total_bytes, r2.net.total_bytes);
    assert_eq!(r1.misses.misses, r2.misses.misses);
    assert_eq!(r1.breakdown, r2.breakdown);
}

#[test]
fn accounting_conserves_time() {
    let report = Simulation::new(base_config(4))
        .run(&BlockShare {
            elems_per_thread: 600,
        })
        .unwrap();
    for (n, b) in report.node_breakdowns.iter().enumerate() {
        let total = b.total();
        // Each node's categories must fill the run exactly (finish()
        // pads trailing idle); allow small excess from bursts that
        // straddle the finish instant.
        assert!(
            total >= report.total_time,
            "node {n}: categories {total} < run {}",
            report.total_time
        );
        let excess = total.saturating_sub(report.total_time);
        assert!(
            excess < SimDuration::from_millis(60),
            "node {n}: categories exceed run by {excess}"
        );
    }
}

#[test]
fn prefetching_reduces_memory_idle() {
    let app = BlockShare {
        elems_per_thread: 1200,
    };
    let orig = Simulation::new(base_config(4)).run(&app).unwrap();
    let pf = Simulation::new(base_config(4).with_prefetch(PrefetchConfig::hand()))
        .run(&app)
        .unwrap();
    assert!(pf.verified);
    assert!(pf.prefetch.calls > 0);
    assert!(
        pf.prefetch.hits > 0,
        "some prefetches must fully cover faults"
    );
    assert!(
        pf.breakdown[Category::MemoryIdle] < orig.breakdown[Category::MemoryIdle],
        "prefetching must reduce memory idle: {} vs {}",
        pf.breakdown[Category::MemoryIdle],
        orig.breakdown[Category::MemoryIdle]
    );
    assert!(
        pf.misses.misses < orig.misses.misses,
        "prefetching must reduce remote misses"
    );
    // Prefetching is non-binding and never corrupts results.
    assert!(orig.verified);
}

#[test]
fn lock_counter_is_mutually_exclusive() {
    let report = Simulation::new(base_config(4))
        .run(&LockCounter { rounds: 25 })
        .expect("run succeeds");
    assert!(report.verified, "lost updates under the lock");
    assert!(report.locks.events > 0, "token must move between nodes");
    assert!(report.locks.stall_sum > SimDuration::ZERO);
}

#[test]
fn lock_counter_with_local_threads_combines() {
    // 2 nodes x 2 threads: local lock passing must occur.
    let cfg = base_config(2).with_threads(ThreadConfig::multithreaded(2));
    let report = Simulation::new(cfg)
        .run(&LockCounter { rounds: 25 })
        .unwrap();
    assert!(report.verified);
    assert!(report.mt.switches > 0, "multithreading must switch threads");
    // All 100 critical sections read the bytes the previous holder
    // wrote (or the count above is short). When that holder was the
    // sibling thread, the node's memory went thread → engine → sibling
    // with the page still valid: only a token arriving from the other
    // node, and node 1's cold first touch of the page node 0 homes,
    // may cost a fault.
    assert!(
        report.misses.faults <= report.locks.events + 1,
        "{} faults for {} remote lock transfers",
        report.misses.faults,
        report.locks.events
    );
    assert!(report.misses.faults < 100, "no lock was passed locally");
}

#[test]
fn false_sharing_merges_concurrent_writers() {
    let report = Simulation::new(base_config(2)).run(&FalseSharing).unwrap();
    assert!(report.verified);
}

#[test]
fn false_sharing_with_prefetch_is_still_correct() {
    let cfg = base_config(2).with_prefetch(PrefetchConfig::hand());
    let report = Simulation::new(cfg).run(&FalseSharing).unwrap();
    assert!(report.verified);
}

#[test]
fn multithreading_overlaps_stalls() {
    // With more threads per node, per-node memory idle should drop
    // for a fetch-heavy workload.
    let app = BlockShare {
        elems_per_thread: 600,
    };
    let one = Simulation::new(base_config(4)).run(&app).unwrap();
    let four = Simulation::new(base_config(2).with_threads(ThreadConfig::multithreaded(2)))
        .run(&app)
        .unwrap();
    assert!(four.verified && one.verified);
    assert!(four.mt.switches > 0);
    assert!(four.breakdown[Category::MtOverhead] > SimDuration::ZERO);
}

#[test]
fn combined_mode_runs() {
    let cfg = base_config(2)
        .with_threads(ThreadConfig::combined(2))
        .with_prefetch(PrefetchConfig {
            suppress_redundant: true,
            ..PrefetchConfig::hand()
        });
    let report = Simulation::new(cfg)
        .run(&BlockShare {
            elems_per_thread: 600,
        })
        .unwrap();
    assert!(report.verified);
}

#[test]
fn missing_barrier_arrival_is_a_deadlock() {
    let err = Simulation::new(base_config(2)).run(&Lopsided).unwrap_err();
    assert!(matches!(err, SimError::Deadlock(_)), "got {err:?}");
}

#[test]
fn app_panic_is_reported() {
    let err = Simulation::new(base_config(2)).run(&Panicky).unwrap_err();
    match err {
        SimError::AppThread(msg) => assert!(msg.contains("deliberate"), "msg: {msg}"),
        other => panic!("expected AppThread, got {other:?}"),
    }
}

#[test]
fn throttled_prefetching_issues_fewer_messages() {
    let app = BlockShare {
        elems_per_thread: 1200,
    };
    let full = Simulation::new(base_config(4).with_prefetch(PrefetchConfig::hand()))
        .run(&app)
        .unwrap();
    let throttled = Simulation::new(base_config(4).with_prefetch(PrefetchConfig {
        throttle: 2,
        ..PrefetchConfig::hand()
    }))
    .run(&app)
    .unwrap();
    assert!(throttled.prefetch.throttled > 0);
    assert!(throttled.prefetch.messages < full.prefetch.messages);
    assert!(throttled.verified);
}

#[test]
fn prefetch_off_is_a_free_noop() {
    let app = BlockShare {
        elems_per_thread: 600,
    };
    let report = Simulation::new(base_config(4)).run(&app).unwrap();
    assert_eq!(report.prefetch.calls, 0);
    assert_eq!(report.prefetch.messages, 0);
    assert_eq!(
        report.breakdown[Category::PrefetchOverhead],
        SimDuration::ZERO
    );
}

#[test]
fn speedup_helper() {
    let app = BlockShare {
        elems_per_thread: 600,
    };
    let orig = Simulation::new(base_config(4)).run(&app).unwrap();
    let pf = Simulation::new(base_config(4).with_prefetch(PrefetchConfig::hand()))
        .run(&app)
        .unwrap();
    let s = pf.speedup_vs(orig.total_time);
    assert!(s > 0.5 && s < 5.0, "implausible speedup {s}");
}

//! Programs written as tasks ([`DsmTask`]) under the engine and the
//! golden executor: a panic in a task is the run's one error, with its
//! message, whenever it comes — and nothing is left running.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use rsdsm_core::{
    golden_run, BarrierId, DsmConfig, DsmTask, Heap, HomePolicy, LockId, SharedVec, SimError,
    Simulation, TaskCtx, ThreadConfig, VerifyCtx,
};

/// Runs `f` on a helper thread and fails the test if it has not
/// returned within a minute.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the run hung or panicked instead of returning its error")
}

/// Every thread writes its block, then reads its neighbour's across a
/// barrier, four times over; `saboteur` panics at the top of the
/// given round.
struct Exchange {
    /// `(thread, round)`; round 0 is before the thread's first syscall.
    saboteur: Option<(usize, u32)>,
    /// Bodies that ran to their end.
    finished: AtomicUsize,
}

impl Exchange {
    fn new(saboteur: Option<(usize, u32)>) -> Self {
        Exchange {
            saboteur,
            finished: AtomicUsize::new(0),
        }
    }
}

impl DsmTask for Exchange {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "exchange".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(4096, HomePolicy::Blocked)
    }

    async fn run(&self, ctx: &mut TaskCtx, data: &Self::Handles) {
        let (t, n) = (ctx.thread_id(), ctx.num_threads());
        let chunk = data.len() / n;
        for round in 0..4u32 {
            if self.saboteur == Some((t, round)) {
                panic!("deliberate failure in thread {t}, round {round}");
            }
            ctx.write(data, t * chunk, u64::from(round) + 1).await;
            ctx.barrier(BarrierId(round)).await;
            let theirs = ctx.read(data, ((t + 1) % n) * chunk).await;
            assert_eq!(theirs, u64::from(round) + 1);
            ctx.barrier(BarrierId(100 + round)).await;
        }
        self.finished.fetch_add(1, Ordering::SeqCst);
    }

    fn verify(&self, mem: &VerifyCtx, data: &Self::Handles) -> bool {
        mem.read(data, 0) == 4
    }
}

fn cluster() -> DsmConfig {
    DsmConfig::paper_cluster(4).with_threads(ThreadConfig::multithreaded(2))
}

#[test]
fn a_task_program_runs_under_the_engine_and_the_golden_executor() {
    let app = Exchange::new(None);
    let report = Simulation::new(cluster()).run(&app).expect("runs");
    assert!(report.verified);
    assert_eq!(app.finished.load(Ordering::SeqCst), 8);
    let golden = golden_run(&app, &cluster(), &[]).expect("replays");
    assert!(golden.verified);
    assert_eq!(app.finished.load(Ordering::SeqCst), 16);
}

#[test]
fn a_task_panic_is_the_runs_error_with_its_message() {
    // Before the thread's first syscall, and mid-run with its sibling
    // and six other tasks parked in the engine.
    for round in [0, 2] {
        let err = within_a_minute(move || {
            let app = Exchange::new(Some((3, round)));
            let err = Simulation::new(cluster()).run(&app);
            (err, app.finished.load(Ordering::SeqCst))
        });
        match err {
            (Err(SimError::AppThread(msg)), 0) => assert!(
                msg.contains(&format!("deliberate failure in thread 3, round {round}")),
                "msg: {msg}"
            ),
            other => panic!("expected AppThread and no finished body, got {other:?}"),
        }
        let err =
            within_a_minute(move || golden_run(&Exchange::new(Some((3, round))), &cluster(), &[]))
                .expect_err("the saboteur panics");
        assert!(
            err.contains("golden thread panicked: deliberate failure in thread 3"),
            "got {err:?}"
        );
    }
}

/// Thread 1 releases a lock nobody holds while thread 0 waits at a
/// barrier: the golden scheduler's own diagnostic is the error, and
/// abandoning thread 0's task takes no unwinding.
#[test]
fn the_golden_scheduler_reports_its_own_error_over_abandoned_tasks() {
    struct StrayRelease;
    impl DsmTask for StrayRelease {
        type Handles = SharedVec<u64>;
        fn name(&self) -> String {
            "stray-release".into()
        }
        fn allocate(&self, heap: &mut Heap) -> Self::Handles {
            heap.alloc(1, HomePolicy::Single(0))
        }
        async fn run(&self, ctx: &mut TaskCtx, _data: &Self::Handles) {
            if ctx.thread_id() == 0 {
                ctx.barrier(BarrierId(0)).await;
            } else {
                ctx.release(LockId(3)).await;
            }
        }
    }
    let err = within_a_minute(|| golden_run(&StrayRelease, &DsmConfig::paper_cluster(2), &[]))
        .expect_err("releasing an unheld lock fails the schedule");
    assert!(
        err.contains("thread 1 released unowned LockId(3)"),
        "got {err:?}"
    );
}

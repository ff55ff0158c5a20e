//! Teardown after a failed run: the one error comes back from the
//! main thread and nothing else is reported — in particular, the
//! application threads the engine (or the golden scheduler) abandons
//! do not each panic through the panic hook, and none of them is
//! waited on forever.
//!
//! The panic hook is process-wide, so this file holds exactly one
//! test.

use std::panic::PanicHookInfo;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use rsdsm_core::{
    golden_run, BarrierId, DsmConfig, DsmCtx, DsmProgram, FaultPlan, Heap, HomePolicy, LockId,
    SharedVec, SimError, Simulation, ThreadConfig, VerifyCtx,
};

/// Runs `f` on a helper thread and fails the test if it has not
/// returned within a minute: a teardown that leaves a thread parked
/// shows up as this timeout instead of a hung test binary.
fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the run hung or panicked instead of returning its error")
}

/// Every thread writes its block, then reads its neighbour's across a
/// barrier — enough reliable traffic that heavy loss exhausts a retry
/// budget while most threads are parked in the engine.
struct Exchange {
    /// The thread that panics after the first barrier, if any.
    saboteur: Option<usize>,
}

impl DsmProgram for Exchange {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "exchange".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(4096, HomePolicy::Blocked)
    }

    fn run(&self, ctx: &mut DsmCtx, data: &Self::Handles) {
        let (t, n) = (ctx.thread_id(), ctx.num_threads());
        let chunk = data.len() / n;
        for round in 0..4u32 {
            ctx.write(data, t * chunk, u64::from(round));
            ctx.barrier(BarrierId(round));
            if self.saboteur == Some(t) {
                panic!("deliberate failure in thread {t}");
            }
            let _ = ctx.read(data, ((t + 1) % n) * chunk);
        }
    }

    fn verify(&self, _mem: &VerifyCtx, _data: &Self::Handles) -> bool {
        true
    }
}

/// Thread 1 releases a lock nobody holds while thread 0 is parked at
/// a barrier: the golden scheduler must say so itself.
struct StrayRelease;

impl DsmProgram for StrayRelease {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "stray-release".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(1, HomePolicy::Single(0))
    }

    fn run(&self, ctx: &mut DsmCtx, _data: &Self::Handles) {
        if ctx.thread_id() == 0 {
            ctx.barrier(BarrierId(0));
        } else {
            ctx.release(LockId(3));
        }
    }
}

#[test]
fn a_failed_run_reports_once_from_the_main_thread() {
    // Count every panic, then hand it on to the hook that was there,
    // so a failing assertion below still prints its message.
    let hook_calls = Arc::new(AtomicUsize::new(0));
    let previous: Arc<dyn Fn(&PanicHookInfo<'_>) + Sync + Send> =
        Arc::from(std::panic::take_hook());
    let (counter, chained) = (Arc::clone(&hook_calls), Arc::clone(&previous));
    std::panic::set_hook(Box::new(move |info| {
        counter.fetch_add(1, Ordering::SeqCst);
        chained(info);
    }));

    // 85 % loss: some frame runs out of retries. Eight threads are
    // alive at that point; none of them may reach the hook.
    let lossy = DsmConfig::paper_cluster(4)
        .with_threads(ThreadConfig::multithreaded(2))
        .with_faults(FaultPlan::uniform_loss(7, 0.85));
    let err = within_a_minute(|| Simulation::new(lossy).run(&Exchange { saboteur: None }))
        .expect_err("85% loss must exhaust a retry budget");
    assert!(matches!(err, SimError::Transport(_)), "got {err:?}");
    assert_eq!(
        hook_calls.load(Ordering::SeqCst),
        0,
        "abandoned application threads went through the panic hook"
    );

    // The same at 256 threads: the abandoned ones — parked on a call's
    // answer, or not yet resumed a first time — are each ended through
    // their hand-off slot, and every one must be joined within the
    // guard.
    let lossy_wide = DsmConfig::paper_cluster(128)
        .with_threads(ThreadConfig::multithreaded(2))
        .with_faults(FaultPlan::uniform_loss(7, 0.85));
    let err = within_a_minute(|| Simulation::new(lossy_wide).run(&Exchange { saboteur: None }))
        .expect_err("85% loss must exhaust a retry budget");
    assert!(matches!(err, SimError::Transport(_)), "got {err:?}");
    assert_eq!(hook_calls.load(Ordering::SeqCst), 0);

    // The golden scheduler abandons its threads the same way, and its
    // own diagnostic is the error — not a note about how the parked
    // thread 0 was unwound.
    let err = within_a_minute(|| golden_run(&StrayRelease, &DsmConfig::paper_cluster(2), &[]))
        .expect_err("releasing an unheld lock fails the schedule");
    assert!(
        err.contains("thread 1 released unowned LockId(3)"),
        "got {err:?}"
    );
    assert_eq!(hook_calls.load(Ordering::SeqCst), 0);

    // A genuine application panic is the opposite case: it does reach
    // the hook — once, for the thread that panicked, not once per
    // abandoned sibling — and surfaces with its message. The saboteur
    // panics mid-burst, so its node's memory (lent to it for the
    // burst, its sibling parked) is lost with it; the run must still
    // end in that one error rather than wait for the memory to return.
    let clean = DsmConfig::paper_cluster(4).with_threads(ThreadConfig::multithreaded(2));
    let err = within_a_minute(|| Simulation::new(clean).run(&Exchange { saboteur: Some(3) }))
        .expect_err("the saboteur panics");
    match err {
        SimError::AppThread(msg) => assert!(msg.contains("deliberate failure"), "msg: {msg}"),
        other => panic!("expected AppThread, got {other:?}"),
    }
    assert_eq!(hook_calls.load(Ordering::SeqCst), 1);
    std::panic::set_hook(Box::new(move |info| previous(info)));
}

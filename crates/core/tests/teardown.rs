//! Teardown after a failed run: the one error comes back from the
//! main thread and nothing else is reported — in particular, the
//! application threads the engine abandons do not each panic through
//! the panic hook.
//!
//! The panic hook is process-wide, so this file holds exactly one
//! test.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rsdsm_core::{
    BarrierId, DsmConfig, DsmCtx, DsmProgram, FaultPlan, Heap, HomePolicy, SharedVec, SimError,
    Simulation, ThreadConfig, VerifyCtx,
};

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

#[test]
fn a_failed_run_reports_once_from_the_main_thread() {
    let hook_calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&hook_calls);
    std::panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));

    // 85 % loss: some frame runs out of retries. Eight threads are
    // alive at that point; none of them may reach the hook.
    let lossy = DsmConfig::paper_cluster(4)
        .with_threads(ThreadConfig::multithreaded(2))
        .with_faults(FaultPlan::uniform_loss(7, 0.85));
    let err = Simulation::new(lossy)
        .run(&Exchange { saboteur: None })
        .expect_err("85% loss must exhaust a retry budget");
    assert!(matches!(err, SimError::Transport(_)), "got {err:?}");
    assert_eq!(
        hook_calls.load(Ordering::SeqCst),
        0,
        "abandoned application threads went through the panic hook"
    );

    // A genuine application panic is the opposite case: it does reach
    // the hook — once, for the thread that panicked, not once per
    // abandoned sibling — and surfaces with its message.
    let clean = DsmConfig::paper_cluster(4).with_threads(ThreadConfig::multithreaded(2));
    let err = Simulation::new(clean)
        .run(&Exchange { saboteur: Some(3) })
        .expect_err("the saboteur panics");
    match err {
        SimError::AppThread(msg) => assert!(msg.contains("deliberate failure"), "msg: {msg}"),
        other => panic!("expected AppThread, got {other:?}"),
    }
    assert_eq!(hook_calls.load(Ordering::SeqCst), 1);
}

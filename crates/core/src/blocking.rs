//! The OS-thread backing: a synchronous program's simulated threads
//! are OS threads, each parked except while the engine runs its burst.
//!
//! Everything that makes a simulated thread an OS thread is here. It
//! exists because the benchmark's programs (`benchmark/src/surface.rs`)
//! implement [`DsmProgram`]; it is deleted once they are tasks. The
//! rest of the crate sees only tasks:
//!
//! - [`DsmCtx`] is a [`TaskCtx`] beside the driver it hands off to.
//!   Each of its operations is the task's, polled by [`now`]: a hit
//!   is one `poll` that returns `Ready`; an operation that reaches the
//!   driver leaves its call and pends, and `now` then wakes the driver,
//!   parks until it answers and polls again.
//! - The driver holds the OS thread as an [`OsThread`], a stand-in
//!   future whose `poll` wakes the thread and waits for its next call.
//!   Dropping it ends the thread (see [`EngineGone`]).
//!
//! Each side sees the other as a [`Peer`]: its OS thread and the slot.
//!
//! # The hand-off between two OS threads
//!
//! Driver and thread share the conductor's one slot. Three rules make
//! it correct and keep it cheap:
//!
//! 1. **State before wake.** A side writes the slot, releases the
//!    slot's lock, and only then `unpark`s the other. The token
//!    `unpark` leaves makes the order of "peer parks" and "we wake it"
//!    irrelevant: a wake that comes first turns the peer's next `park`
//!    into a no-op, and the peer finds the slot already filled.
//! 2. **No lock across a wake or a page access.** The lock is held for
//!    the move of one slot value in or out and nothing else, so the
//!    woken side can never find it taken, and node memory is only ever
//!    touched by the party that owns it outright — there is no lock
//!    around a node's memory, only around the slot it passes through.
//!    (A channel wakes its receiver while holding its waker lock, which
//!    is why the hand-off is not one.)
//! 3. **Loop on a spurious wake.** A waiter looks at the slot, waits
//!    only for what is addressed to it, and `park`s otherwise — its own
//!    message still waiting for the peer, or a token left over from an
//!    earlier hand-off or from anyone else who parks on this thread's
//!    token (the sweep pool's channels do), just sends it round again.

use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::{Arc, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::thread::{self, Thread};

use rsdsm_simnet::SimDuration;

use crate::conductor::{panic_message, Baton, Slot, Task, TaskCtx};
use crate::heap::{Heap, Pod, SharedVec};
use crate::msg::{BarrierId, LockId};
use crate::program::{Runnable, VerifyCtx};

/// A parallel application runnable on the simulated DSM, written as
/// synchronous code: every simulated thread is an OS thread, parked
/// except while the engine runs its burst. The blocking form of
/// [`DsmTask`](crate::DsmTask), kept for `benchmark/src/surface.rs`,
/// which implements it; a run costs two context switches per syscall
/// more than the task's.
///
/// # Examples
///
/// A two-thread program that sums a shared array:
///
/// ```
/// use rsdsm_core::{
///     BarrierId, DsmConfig, DsmCtx, DsmProgram, Heap, HomePolicy, SharedVec, Simulation,
///     VerifyCtx,
/// };
///
/// struct Sum;
///
/// impl DsmProgram for Sum {
///     type Handles = (SharedVec<f64>, SharedVec<f64>);
///
///     fn name(&self) -> String {
///         "sum".into()
///     }
///
///     fn allocate(&self, heap: &mut Heap) -> Self::Handles {
///         (
///             heap.alloc(1024, HomePolicy::Single(0)),
///             heap.alloc(2, HomePolicy::Single(0)),
///         )
///     }
///
///     fn run(&self, ctx: &mut DsmCtx, (data, partial): &Self::Handles) {
///         let t = ctx.thread_id();
///         let n = ctx.num_threads();
///         let chunk = data.len() / n;
///         if t == 0 {
///             for i in 0..data.len() {
///                 ctx.write(data, i, 1.0);
///             }
///         }
///         ctx.barrier(BarrierId(0));
///         let mine: f64 = ctx.read_vec(data, t * chunk, chunk).iter().sum();
///         ctx.write(partial, t, mine);
///         ctx.barrier(BarrierId(1));
///     }
///
///     fn verify(&self, mem: &VerifyCtx, (_, partial): &Self::Handles) -> bool {
///         (mem.read(partial, 0) + mem.read(partial, 1) - 1024.0).abs() < 1e-9
///     }
/// }
///
/// let report = Simulation::new(DsmConfig::paper_cluster(2))
///     .run(&Sum)
///     .expect("run succeeds");
/// assert!(report.verified);
/// ```
pub trait DsmProgram: Sync {
    /// Handles to the program's shared allocations, lent to every
    /// thread.
    type Handles: Clone + Send + Sync;

    /// Human-readable benchmark name.
    fn name(&self) -> String;

    /// Allocates the program's shared arrays.
    fn allocate(&self, heap: &mut Heap) -> Self::Handles;

    /// The body executed by every application thread.
    fn run(&self, ctx: &mut DsmCtx, handles: &Self::Handles);

    /// Checks the final memory image. The default accepts anything.
    fn verify(&self, mem: &VerifyCtx, handles: &Self::Handles) -> bool {
        let _ = (mem, handles);
        true
    }
}

/// [`Runnable`] by way of [`DsmProgram`]: simulated threads are parked
/// OS threads.
#[derive(Debug)]
pub enum AsThread {}

impl<P: DsmProgram> Runnable<AsThread> for P {
    type Handles = P::Handles;

    fn name(&self) -> String {
        DsmProgram::name(self)
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        DsmProgram::allocate(self, heap)
    }

    fn verify(&self, mem: &VerifyCtx, handles: &Self::Handles) -> bool {
        DsmProgram::verify(self, mem, handles)
    }

    fn body<'a>(&'a self, ctx: TaskCtx, h: &'a Self::Handles, os: &Scope<'_, 'a>) -> Task<'a> {
        // Called on the driver's own thread, by `lockstep`.
        let baton = Arc::clone(&ctx.baton);
        let driver = Peer {
            thread: thread::current(),
            baton: Arc::clone(&baton),
        };
        // Boxed, so that what the spawn moves onto the new thread's stack
        // is a pointer: the context by value, copied along the spawn
        // path, cost `storm1024` a page of stack per thread.
        let ctx = Box::new(DsmCtx { ctx, driver });
        let thread = os.0.spawn(move || shim(ctx, self, h)).thread().clone();
        #[cfg(test)]
        tests::SPAWNED.with_borrow_mut(|spawned| spawned.push(thread.clone()));
        Box::pin(OsThread(Peer { thread, baton }))
    }
}

/// The OS threads of one run: they may borrow for `'a`, and all of them
/// are joined when [`scope`] returns. Not nameable outside this crate,
/// which is what seals [`Runnable`].
pub struct Scope<'s, 'a>(&'s thread::Scope<'s, 'a>);

/// Runs `f` with a [`Scope`], and joins every thread it spawned before
/// returning.
pub(crate) fn scope<'a, R>(f: impl for<'s> FnOnce(&Scope<'s, 'a>) -> R) -> R {
    thread::scope(|s| f(&Scope(s)))
}

/// The other end of a hand-off: the OS thread to wake, and the slot
/// the two share.
#[derive(Debug)]
struct Peer {
    thread: Thread,
    baton: Arc<Baton>,
}

impl Peer {
    /// Parks until the slot holds something `mine` accepts, and returns
    /// it locked (rule 3).
    fn park_until(&self, mine: fn(&Slot) -> bool) -> MutexGuard<'_, Slot> {
        loop {
            let slot = self.baton.slot();
            if mine(&slot) {
                return slot;
            }
            drop(slot);
            thread::park();
        }
    }

    /// Waits until the driver resumes this thread, leaving the resume
    /// in the slot; ends the thread if the driver is gone instead.
    fn resumed(&self) {
        let theirs = |slot: &Slot| matches!(slot, Slot::Resume(_) | Slot::DriverGone);
        if matches!(*self.park_until(theirs), Slot::DriverGone) {
            resume_unwind(Box::new(EngineGone));
        }
    }

    /// The thread's call is in the slot: wakes the driver to take it
    /// (rule 1), and waits for the answer.
    #[cold]
    #[inline(never)]
    fn hand_over(&self) {
        self.thread.unpark();
        self.resumed();
    }
}

/// The driver's hold on an application OS thread: a future whose
/// `poll` is one burst of the thread.
struct OsThread(Peer);

impl Future for OsThread {
    type Output = ();

    /// Wakes the thread to take the resume in the slot, and waits until
    /// it has left its call — or its panic — there for the driver.
    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        let theirs = |slot: &Slot| matches!(slot, Slot::Call(_) | Slot::ThreadGone(_));
        self.0.thread.unpark();
        drop(self.0.park_until(theirs));
        Poll::Pending
    }
}

impl Drop for OsThread {
    /// Ends a thread that is still parked: it finds the driver gone and
    /// unwinds silently (see [`EngineGone`]).
    fn drop(&mut self) {
        self.0.baton.put(Slot::DriverGone);
        self.0.thread.unpark();
    }
}

/// Unwind payload of an application OS thread whose driver is gone:
/// the run ended in an error and dropped the link this thread was
/// parked on. Raised with `resume_unwind`, which bypasses the panic
/// hook, and recognised by the thread's [`shim`] — so the thread ends
/// silently and the one error of the run is the one the driver
/// returns.
struct EngineGone;

/// What an application OS thread runs: the program, between its first
/// resume and its exit, and what becomes of an unwind out of it.
fn shim<P: DsmProgram>(mut ctx: Box<DsmCtx>, app: &P, handles: &P::Handles) {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        ctx.driver.resumed();
        ctx.ctx.resume();
        app.run(&mut ctx, handles);
        ctx.ctx.exit();
    }));
    let driver = ctx.driver;
    match ran {
        Err(payload) if payload.is::<EngineGone>() => return,
        // A real panic: the driver is waiting for a call that will not
        // come.
        Err(payload) => drop(driver.baton.put(Slot::ThreadGone(panic_message(payload)))),
        Ok(()) => {}
    }
    driver.thread.unpark();
}

/// Runs `op` to completion on this thread: a `poll`, and for every
/// `Pending` — a call left in the slot — a hand-off to the driver and
/// another `poll`. Inlined so that the future is built and polled in
/// the caller's frame — out of line, an access that hits cost 16 ns
/// against 6 — while the hand-off stays out of line.
#[inline(always)]
fn now<F: Future>(op: F, driver: &Peer) -> F::Output {
    let mut op = pin!(op);
    loop {
        match op.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(out) => return out,
            Poll::Pending => driver.hand_over(),
        }
    }
}

/// The per-thread handle to the simulated DSM, for a synchronous
/// program.
///
/// Obtained by the engine and passed to
/// [`DsmProgram::run`](crate::DsmProgram::run). It is a [`TaskCtx`]
/// on an OS thread of its own: the same operations, each blocking
/// where the task's would be awaited.
#[derive(Debug)]
pub struct DsmCtx {
    ctx: TaskCtx,
    driver: Peer,
}

impl DsmCtx {
    /// This thread's global index, `0..num_threads`.
    pub fn thread_id(&self) -> usize {
        self.ctx.thread_id()
    }

    /// Total application threads in the run.
    pub fn num_threads(&self) -> usize {
        self.ctx.num_threads()
    }

    /// The node (processor) this thread runs on.
    pub fn node(&self) -> usize {
        self.ctx.node()
    }

    /// Charges `dur` of useful computation; see [`TaskCtx::compute`].
    pub fn compute(&mut self, dur: SimDuration) {
        self.ctx.compute(dur);
    }

    /// Reads element `i` of a shared array; see [`TaskCtx::read`].
    pub fn read<T: Pod>(&mut self, v: &SharedVec<T>, i: usize) -> T {
        now(self.ctx.read(v, i), &self.driver)
    }

    /// Writes element `i` of a shared array; see [`TaskCtx::write`].
    pub fn write<T: Pod>(&mut self, v: &SharedVec<T>, i: usize, value: T) {
        now(self.ctx.write(v, i, value), &self.driver);
    }

    /// Reads elements `start..start + out.len()` into `out`; see
    /// [`TaskCtx::read_slice`].
    pub fn read_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, out: &mut [T]) {
        now(self.ctx.read_slice(v, start, out), &self.driver);
    }

    /// Writes `values` to elements `start..start + values.len()`; see
    /// [`TaskCtx::write_slice`].
    pub fn write_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, values: &[T]) {
        now(self.ctx.write_slice(v, start, values), &self.driver);
    }

    /// Reads a range as a new vector; see [`TaskCtx::read_vec`].
    pub fn read_vec<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, len: usize) -> Vec<T> {
        now(self.ctx.read_vec(v, start, len), &self.driver)
    }

    /// Acquires a lock, blocking until granted.
    pub fn acquire(&mut self, lock: LockId) {
        now(self.ctx.acquire(lock), &self.driver);
    }

    /// Releases a lock this thread holds; see [`TaskCtx::release`].
    pub fn release(&mut self, lock: LockId) {
        now(self.ctx.release(lock), &self.driver);
    }

    /// Arrives at a barrier, blocking until all threads arrive.
    pub fn barrier(&mut self, id: BarrierId) {
        now(self.ctx.barrier(id), &self.driver);
    }

    /// Issues non-binding prefetches for the pages backing elements
    /// `start..end` of `v`; see [`TaskCtx::prefetch`].
    pub fn prefetch<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, end: usize) {
        now(self.ctx.prefetch(v, start, end), &self.driver);
    }

    /// Emulates compiler-issued prefetch checks on private data; see
    /// [`TaskCtx::prefetch_private`].
    pub fn prefetch_private(&mut self, count: usize) {
        self.ctx.prefetch_private(count);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, Once, PoisonError};
    use std::thread::ThreadId as OsThreadId;
    use std::time::{Duration, Instant};

    use super::*;
    use crate::conductor::tests::{
        assert_all_rounds_landed, drive_randomly, random_resume_order_completes, run_on,
        slices_equal_elements_at_every_width, Ranges, Rounds, ROUNDS, THREADS,
    };
    use crate::conductor::{ThreadGone, ThreadLink};
    use crate::heap::HomePolicy;

    impl DsmProgram for Rounds {
        type Handles = SharedVec<u64>;

        fn name(&self) -> String {
            "rounds".into()
        }

        fn allocate(&self, heap: &mut Heap) -> Self::Handles {
            heap.alloc(THREADS, HomePolicy::Single(0))
        }

        fn run(&self, ctx: &mut DsmCtx, words: &Self::Handles) {
            let t = ctx.thread_id();
            for round in 1..=ROUNDS {
                self.sabotage(t, round);
                assert_eq!(ctx.read(words, t), round - 1, "memory came back intact");
                ctx.write(words, t, round);
                ctx.acquire(LockId(0));
            }
        }
    }

    impl<T: Pod> DsmProgram for Ranges<T> {
        type Handles = SharedVec<T>;

        fn name(&self) -> String {
            "ranges".into()
        }

        fn allocate(&self, heap: &mut Heap) -> Self::Handles {
            heap.alloc(Self::LEN, HomePolicy::Single(0))
        }

        fn run(&self, ctx: &mut DsmCtx, v: &Self::Handles) {
            let mut read = Vec::new();
            for (k, (start, len)) in Self::ranges().into_iter().enumerate() {
                let values = self.values(k, start, len);
                if self.by_slice {
                    ctx.write_slice(v, start, &values);
                    let mut out = vec![T::default(); len];
                    ctx.read_slice(v, start, &mut out);
                    read.extend(out);
                    read.extend(ctx.read_vec(v, start, len));
                } else {
                    for (i, &value) in (start..).zip(&values) {
                        ctx.write(v, i, value);
                    }
                    for _ in 0..2 {
                        read.extend((start..start + len).map(|i| ctx.read(v, i)));
                    }
                }
            }
            *self.read_back.lock().expect("one thread") = read;
        }
    }

    /// [`Rounds`] on OS threads that note themselves in `started` when
    /// they first run.
    struct Noted<'s> {
        rounds: Rounds,
        started: &'s Mutex<Vec<Thread>>,
    }

    impl DsmProgram for Noted<'_> {
        type Handles = SharedVec<u64>;

        fn name(&self) -> String {
            DsmProgram::name(&self.rounds)
        }

        fn allocate(&self, heap: &mut Heap) -> Self::Handles {
            DsmProgram::allocate(&self.rounds, heap)
        }

        fn run(&self, ctx: &mut DsmCtx, words: &Self::Handles) {
            self.started
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(thread::current());
            DsmProgram::run(&self.rounds, ctx, words);
        }
    }

    #[test]
    fn random_resume_order_completes_with_memory_intact() {
        random_resume_order_completes::<AsThread>();
    }

    thread_local! {
        /// The OS threads [`AsThread`] spawned on this driver thread, in
        /// spawn order.
        pub(super) static SPAWNED: RefCell<Vec<Thread>> = const { RefCell::new(Vec::new()) };
    }

    /// Rule 3. The driver leaves itself a wake token before every
    /// burst, so its first `park` returns with its own resume still in
    /// the slot; and a helper wakes the driver and every application
    /// thread — parked on a call not taken yet, on its answer, or never
    /// resumed — in a tight loop for the whole run.
    #[test]
    fn spurious_wakeups_change_nothing() {
        let started = Mutex::new(Vec::new());
        let app = Noted {
            rounds: Rounds { saboteur: None },
            started: &started,
        };
        let (mem, syscalls) = run_on::<AsThread, _, _>(&app, THREADS, |mut links, mut mem| {
            let driver = thread::current();
            let threads = SPAWNED.take();
            assert_eq!(threads.len(), THREADS);
            let stop = AtomicBool::new(false);
            let syscalls = thread::scope(|s| {
                s.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        driver.unpark();
                        threads.iter().for_each(Thread::unpark);
                    }
                });
                let syscalls = drive_randomly(&mut links, &mut mem, || thread::current().unpark());
                stop.store(true, Ordering::SeqCst);
                syscalls
            });
            (mem, syscalls)
        });
        assert_all_rounds_landed(&mem, syscalls);
        assert_eq!(started.into_inner().expect("joined").len(), THREADS);
    }

    /// Threads that panicked since [`record_panicking_threads`], once
    /// per panic.
    static PANICKED: Mutex<Vec<OsThreadId>> = Mutex::new(Vec::new());

    /// Chains a panic hook that records which thread panicked. The
    /// hook is process-wide and other tests of this binary panic on
    /// purpose, hence ids and not a count.
    fn record_panicking_threads() {
        static CHAINED: Once = Once::new();
        CHAINED.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                PANICKED
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(thread::current().id());
                previous(info);
            }));
        });
    }

    /// How many panics `id` has been through.
    fn panics_of(id: OsThreadId) -> usize {
        let panicked = PANICKED.lock().unwrap_or_else(PoisonError::into_inner);
        panicked.iter().filter(|&&p| p == id).count()
    }

    /// Half the threads run one burst and park on their call's answer
    /// in [`now`]; the other half park before their first resume. Each
    /// ends when its link drops, silently: it does not go through the
    /// panic hook, and it leaves no panic in its slot.
    #[test]
    fn dropping_the_links_ends_parked_and_unstarted_threads_silently() {
        record_panicking_threads();
        let started = Mutex::new(Vec::new());
        let app = Noted {
            rounds: Rounds { saboteur: None },
            started: &started,
        };
        let batons = run_on::<AsThread, _, _>(&app, THREADS, |mut links, mut mem| {
            for link in &mut links[..THREADS / 2] {
                assert!(link.run_burst(&mut mem).is_ok());
            }
            links.iter().map(ThreadLink::baton).collect::<Vec<_>>()
            // `links` drops here.
        });
        // `run_on` returning means every thread was joined.
        let started = started.into_inner().expect("joined");
        assert_eq!(started.len(), THREADS / 2);
        assert!(
            started.iter().all(|thread| panics_of(thread.id()) == 0),
            "an abandoned thread went through the panic hook"
        );
        for baton in batons {
            let slot = baton.put(Slot::Empty);
            assert!(matches!(slot, Slot::DriverGone), "left behind: {slot:?}");
        }
    }

    /// Drives `app` until its saboteur panics, on a thread of its own
    /// under a deadline; returns the message the failed burst carried.
    fn message_of_the_panic(app: Rounds) -> String {
        record_panicking_threads();
        let driver = thread::spawn(move || {
            let gone: ThreadGone = run_on::<AsThread, _, _>(&app, THREADS, |mut links, mut mem| {
                drive_randomly(&mut links, &mut mem, || {}).expect_err("the saboteur panics")
                // The other 63 are abandoned here, mid-run.
            });
            (gone.0, thread::current().id())
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !driver.is_finished() {
            assert!(
                Instant::now() < deadline,
                "the driver hung waiting for a call that never comes"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let (message, id) = driver.join().expect("the driver itself does not panic");
        // The panic is the saboteur's, on its own thread.
        assert_eq!(panics_of(id), 0, "the driver panicked");
        message
    }

    #[test]
    fn a_panic_before_the_first_syscall_is_an_error_not_a_hang() {
        let msg = message_of_the_panic(Rounds {
            saboteur: Some((5, 1)),
        });
        assert!(msg.contains("thread 5 fails in round 1"), "{msg}");
    }

    #[test]
    fn slices_move_what_elements_move_at_one_access_per_page() {
        slices_equal_elements_at_every_width::<AsThread>();
    }
}

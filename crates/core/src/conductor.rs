//! The conductor: the application-side context, the thread/engine
//! handshake, and the one lockstep harness both executors run on.
//!
//! Every simulated application thread runs in strict lockstep with a
//! *driver* — the engine's run loop, or the golden model's cooperative
//! scheduler. The driver resumes exactly one thread at a time
//! ([`ThreadLink::run_burst`]); the thread computes (accumulating
//! charged time locally) until it needs the DSM — a page fault, a
//! synchronization operation, a prefetch — then hands over a
//! [`Syscall`] and stops until it is resumed again. This keeps the
//! whole simulation deterministic while letting application code be
//! ordinary Rust.
//!
//! Invariant: a node's memory is with exactly one party — the driver,
//! or the one thread it resumed. The resume message *is* the node's
//! [`NodeMem`], moved to the thread; the thread's next [`CallMsg`]
//! moves it back. A [`TaskCtx`] therefore reads and writes pages as
//! plain owned data between its resume and its next syscall, the
//! driver does the same between bursts, and the hand-off that orders
//! the two is the only synchronisation there is.
//!
//! # Two backings, one hand-off
//!
//! What a simulated thread *is* on the host follows from the trait its
//! program implements, and [`ThreadLink::run_burst`] is the only place
//! that knows which:
//!
//! - A [`DsmTask`] is a **task**: its `run` is a future that owns its
//!   [`TaskCtx`], and a burst is one `poll` of it on the driver's own
//!   thread. Every `TaskCtx` operation that can reach the driver is an
//!   `.await` with one yield point ([`TaskCtx::syscall`]): it leaves
//!   the [`CallMsg`] in the slot and returns `Pending`, which is the
//!   return of `run_burst`'s `poll`. The memory is inside the future
//!   for exactly the length of that `poll`. No OS thread is created,
//!   nothing parks, and a task the driver abandons is dropped — its
//!   locals' destructors run, application code does not. A panic
//!   unwinds out of the `poll`, is caught there, and comes back from
//!   `run_burst` as [`ThreadGone`] with its message.
//! - A [`DsmProgram`] is synchronous code, so it needs a stack of its
//!   own: a parked **OS thread** per simulated thread, woken for a
//!   burst and parked again at its next syscall (below). This is what
//!   every run was before tasks existed; it stays because programs
//!   outside this repository's reach (`benchmark/src/surface.rs`)
//!   implement `DsmProgram`, and it is deleted when they no longer do.
//!   [`DsmCtx`], its context, is a [`TaskCtx`] whose yield point
//!   blocks instead of pending, so each synchronous operation is one
//!   `poll` of the asynchronous one — there is one body per operation.
//!
//! # The hand-off
//!
//! Driver and thread share one [`Slot`] — the baton. Exactly one of
//! them runs at a time, so one slot carries both directions: the
//! driver fills it with `Resume(mem)` and runs the thread until it has
//! left its `Call`; the thread takes the `Resume`, runs, fills the
//! slot with its `Call` and stops until the next `Resume`. For a task
//! that is all of it — both sides are the same OS thread, and the lock
//! around the slot is never contended. For an OS thread three rules
//! make it correct and keep it cheap:
//!
//! 1. **State before wake.** A side writes the slot, releases the
//!    slot's lock, and only then `unpark`s the other. The token
//!    `unpark` leaves makes the order of "peer parks" and "we wake it"
//!    irrelevant: a wake that comes first turns the peer's next `park`
//!    into a no-op, and the peer finds the slot already filled.
//! 2. **No lock across a wake or a page access.** The lock is held for
//!    the move of one `Slot` value in or out and nothing else, so the
//!    woken side can never find it taken, and node memory is only ever
//!    touched by the party that owns it outright — there is no lock
//!    around a `NodeMem`, only around the slot it passes through.
//! 3. **Loop on a spurious wake.** A waiter looks at the slot, takes
//!    only what is addressed to it, and `park`s otherwise — its own
//!    message still waiting for the peer, or a token left over from an
//!    earlier hand-off or from anyone else who parks on this thread's
//!    token (the sweep pool's channels do), just sends it round again.
//!
//! Why not a pair of std's bounded channels per thread, which this
//! once was: a channel wakes its receiver *while holding* its
//! waker-list mutex, so with both threads pinned to one CPU the woken
//! thread preempts the waker, runs into that mutex, spins (~100
//! `pause`) and goes back to sleep — a hand-off cost 6–14 µs in situ
//! against the one futex wait and one futex wake per side that a
//! blocking hand-off cannot avoid. A task's hand-off avoids those too.
//!
//! [`TaskCtx`] is the API visible to applications: typed reads/writes
//! on [`SharedVec`] handles, locks, barriers, prefetches, and explicit
//! compute-time charging. An element access checks its page, charges
//! and (writing) twins per element; a slice access does each of those
//! once per page it touches and copies that page's elements out of
//! one borrow of its bytes. The two are different simulated costs, so
//! which one a kernel calls is part of its model, not a host-side
//! detail. [`lockstep`] builds the contexts and links, spawns what
//! needs spawning and tears it down.

use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};
use std::thread::{self, Thread};

use rsdsm_protocol::PageId;
use rsdsm_simnet::SimDuration;

use crate::config::PrefetchConfig;
use crate::costs::CostModel;
use crate::heap::{page_bytes, Heap, Pod, SharedVec};
use crate::msg::{BarrierId, LockId};
use crate::node::{NodeMem, PageEntry};
use crate::program::{AsTask, AsThread, DsmProgram, DsmTask, Runnable, VerifyCtx};
use crate::thread::ThreadId;

/// A request from an application thread to the engine.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Syscall {
    /// Access to an invalid page.
    Fault {
        /// The faulted page.
        page: PageId,
        /// Whether the access is a write.
        write: bool,
    },
    /// Acquire a lock.
    Acquire(LockId),
    /// Release a lock.
    Release(LockId),
    /// Arrive at a barrier.
    Barrier(BarrierId),
    /// Issue prefetches for pages that passed the local filters.
    Prefetch(Vec<PageId>),
    /// The thread finished.
    Exit,
}

/// Simulated time accumulated on the thread since its last syscall.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Charges {
    /// Useful computation (Busy).
    pub busy: SimDuration,
    /// Protocol work done inline (twin creation) — DSM overhead.
    pub dsm: SimDuration,
    /// Prefetch issue/check overhead.
    pub prefetch: SimDuration,
}

/// What a thread sends when it yields to its driver.
#[derive(Debug)]
struct CallMsg {
    /// The request.
    syscall: Syscall,
    /// Time accumulated since the last resume.
    charges: Charges,
    /// The node's memory, handed back.
    mem: NodeMem,
}

/// Unwind payload of an application OS thread whose driver is gone:
/// the run ended in an error and dropped the link this thread was
/// parked on. Raised with `resume_unwind`, which bypasses the panic
/// hook, and recognised by the thread's [`shim`] — so the thread ends
/// silently and the one error of the run is the one the driver
/// returns.
struct EngineGone;

/// Ends this application thread because its driver is gone.
fn engine_gone() -> ! {
    resume_unwind(Box::new(EngineGone))
}

/// The thread behind a [`ThreadLink`] ended without a syscall: it
/// panicked, with this message.
pub(crate) struct ThreadGone(pub(crate) String);

/// What the one slot between a driver and its thread holds.
#[derive(Debug, Default)]
enum Slot {
    /// Nothing: the last message was taken and its taker is running.
    #[default]
    Empty,
    /// Driver → thread: run, with the node's memory.
    Resume(NodeMem),
    /// Thread → driver: the next syscall, with the memory back. The
    /// fire-and-forget `Exit` waits here until the driver takes it.
    Call(CallMsg),
    /// The driver dropped its [`ThreadLink`]: the run is over.
    DriverGone,
    /// The thread panicked, with this message: no `Call` will ever
    /// come.
    ThreadGone(String),
}

/// The state a driver and one application thread share.
#[derive(Debug, Default)]
struct Baton {
    slot: Mutex<Slot>,
}

impl Baton {
    /// Locks the slot for one move in or out (rule 2). Nothing can
    /// panic while holding this lock, and a single assignment leaves
    /// the slot valid at every step, so a poisoned lock is recovered.
    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Puts `next` in the slot and returns what was there, for the
    /// caller to drop — the lock is released (rule 1: a caller with a
    /// peer to wake wakes it after this).
    fn put(&self, next: Slot) -> Slot {
        std::mem::replace(&mut *self.slot(), next)
    }

    /// Waits until the slot holds something `mine` accepts, and takes
    /// it (rule 3): anything else — the waiter's own message not yet
    /// taken by its peer, or nothing on a stray wake — means park
    /// again. A task and its driver never park: each finds what the
    /// other left before it returned.
    fn take_when(&self, mine: fn(&Slot) -> bool) -> Slot {
        loop {
            {
                let mut slot = self.slot();
                if mine(&slot) {
                    return std::mem::take(&mut *slot);
                }
            }
            thread::park();
        }
    }
}

/// What a simulated thread runs as, by the trait of its program (see
/// [`Runnable::body`]). Not nameable outside this crate, which is what
/// seals [`Runnable`].
pub enum ThreadBody<'a> {
    /// Synchronous code for an OS thread of its own, which is told
    /// which thread drives it.
    Blocking(Box<dyn FnOnce(Thread) + Send + 'a>),
    /// A future the driver polls on its own thread.
    Task(Pin<Box<dyn Future<Output = ()> + 'a>>),
}

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

    fn body<'a>(&'a self, ctx: TaskCtx, handles: &'a Self::Handles) -> ThreadBody<'a> {
        ThreadBody::Blocking(Box::new(move |driver| {
            let mut ctx = DsmCtx(TaskCtx {
                driver: Some(driver),
                ..ctx
            });
            ctx.0.wait_resume();
            self.run(&mut ctx, handles);
            ctx.0.exit();
        }))
    }
}

impl<P: DsmTask> Runnable<AsTask> for P {
    type Handles = P::Handles;

    fn name(&self) -> String {
        DsmTask::name(self)
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        DsmTask::allocate(self, heap)
    }

    fn verify(&self, mem: &VerifyCtx, handles: &Self::Handles) -> bool {
        DsmTask::verify(self, mem, handles)
    }

    fn body<'a>(&'a self, mut ctx: TaskCtx, handles: &'a Self::Handles) -> ThreadBody<'a> {
        ThreadBody::Task(Box::pin(async move {
            ctx.wait_resume();
            self.run(&mut ctx, handles).await;
            ctx.exit();
        }))
    }
}

/// The message of a caught panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// What an application OS thread runs: `body`, and what becomes of an
/// unwind out of it.
fn shim(body: Box<dyn FnOnce(Thread) + Send + '_>, baton: &Baton, driver: Thread) {
    let for_body = driver.clone();
    let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(for_body))) else {
        return;
    };
    if !payload.is::<EngineGone>() {
        // A real panic: the driver is waiting for a call that will not
        // come.
        baton.put(Slot::ThreadGone(panic_message(payload)));
        driver.unpark();
    }
}

/// How the driver runs the thread behind a [`ThreadLink`].
enum Backing<'a> {
    /// An application OS thread, which the driver wakes.
    Thread(Thread),
    /// A future, which the driver polls.
    Task(Pin<Box<dyn Future<Output = ()> + 'a>>),
}

/// The driver's end of one application thread's handshake.
pub(crate) struct ThreadLink<'a> {
    baton: Arc<Baton>,
    backing: Backing<'a>,
}

impl ThreadLink<'_> {
    /// Runs the thread for one burst: moves `mem` (its node's memory)
    /// to it, runs it up to its next syscall, and puts the memory the
    /// syscall carries back. `mem` is an empty placeholder in between,
    /// which nothing can observe — the caller is in here.
    ///
    /// For an OS thread that is a wake and a wait; for a task, one
    /// `poll`, on this thread, with a waker nobody needs: the task is
    /// ready when the driver says so.
    pub(crate) fn run_burst(
        &mut self,
        mem: &mut NodeMem,
    ) -> Result<(Syscall, Charges), ThreadGone> {
        self.baton.put(Slot::Resume(std::mem::take(mem)));
        let answer = match &mut self.backing {
            Backing::Thread(thread) => {
                thread.unpark();
                let theirs = |slot: &Slot| matches!(slot, Slot::Call(_) | Slot::ThreadGone(_));
                self.baton.take_when(theirs)
            }
            Backing::Task(task) => {
                let mut cx = Context::from_waker(Waker::noop());
                match catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx))) {
                    Ok(_) => self.baton.put(Slot::Empty),
                    Err(payload) => Slot::ThreadGone(panic_message(payload)),
                }
            }
        };
        match answer {
            Slot::Call(call) => {
                *mem = call.mem;
                Ok((call.syscall, call.charges))
            }
            Slot::ThreadGone(message) => Err(ThreadGone(message)),
            // Only `TaskCtx::syscall` leaves a call behind.
            _ => Err(ThreadGone(
                "the task awaited something that is not an operation of its TaskCtx".into(),
            )),
        }
    }
}

impl Drop for ThreadLink<'_> {
    /// Ends an OS thread that is still parked: it finds the driver
    /// gone and unwinds silently (see [`EngineGone`]). A task is
    /// simply dropped with the link.
    fn drop(&mut self) {
        if let Backing::Thread(thread) = &self.backing {
            self.baton.put(Slot::DriverGone);
            thread.unpark();
        }
    }
}

/// Runs `app` on `threads` application threads in lockstep with
/// `drive`, the caller's scheduler: `drive` gets one [`ThreadLink`]
/// per thread (thread `t` reports `node_of(t)` as its node) and
/// decides who runs when. When `drive` returns, dropping the links,
/// every OS thread still parked unwinds silently and is joined, and
/// every unfinished task is dropped. An application panic reaches
/// `drive` as the [`ThreadGone`] of the burst it happened in.
pub(crate) fn lockstep<'a, B, P: Runnable<B>, R>(
    app: &'a P,
    handles: &'a P::Handles,
    costs: &CostModel,
    prefetch_cfg: &PrefetchConfig,
    threads: usize,
    node_of: impl Fn(usize) -> usize,
    drive: impl FnOnce(Vec<ThreadLink<'a>>) -> R,
) -> R {
    thread::scope(|s| {
        let driver = thread::current();
        let links = (0..threads)
            .map(|t| {
                let baton = Arc::new(Baton::default());
                let ctx = TaskCtx {
                    tid: ThreadId(t),
                    node: node_of(t),
                    num_threads: threads,
                    mem: NodeMem::default(),
                    costs: costs.clone(),
                    prefetch_cfg: prefetch_cfg.clone(),
                    baton: Arc::clone(&baton),
                    pending: Charges::default(),
                    driver: None,
                };
                let backing = match app.body(ctx, handles) {
                    ThreadBody::Task(task) => Backing::Task(task),
                    ThreadBody::Blocking(body) => {
                        let (baton, driver) = (Arc::clone(&baton), driver.clone());
                        let shim = s.spawn(move || shim(body, &baton, driver));
                        Backing::Thread(shim.thread().clone())
                    }
                };
                ThreadLink { baton, backing }
            })
            .collect();
        drive(links)
    })
}

/// Limit on fault retries for a single access, to turn protocol
/// livelock bugs into a clear panic rather than a hang.
const MAX_FAULT_RETRIES: u32 = 100_000;

/// Copies the little-endian elements in `bytes` into `out`.
fn decode<T: Pod>(bytes: &[u8], out: &mut [T]) {
    for (slot, le) in out.iter_mut().zip(bytes.chunks_exact(T::BYTES)) {
        *slot = T::read_le(le);
    }
}

/// Copies `values` into `bytes`, little-endian.
fn encode<T: Pod>(values: &[T], bytes: &mut [u8]) {
    for (value, le) in values.iter().zip(bytes.chunks_exact_mut(T::BYTES)) {
        value.write_le(le);
    }
}

/// The per-thread handle to the simulated DSM, for a program written
/// as a task.
///
/// Obtained by the engine and passed to
/// [`DsmTask::run`](crate::DsmTask::run). All shared-memory access,
/// synchronization and prefetching goes through this context; private
/// data is ordinary Rust data. Every operation that may need the
/// engine — an access can fault, a lock can be elsewhere — is an
/// `async fn`: awaiting it is where the simulated thread can be
/// switched out. Await nothing else; a task that pends on a foreign
/// future fails its run.
#[derive(Debug)]
pub struct TaskCtx {
    tid: ThreadId,
    node: usize,
    num_threads: usize,
    /// The node's memory while this thread runs; an empty placeholder
    /// while it is not.
    mem: NodeMem,
    costs: CostModel,
    prefetch_cfg: PrefetchConfig,
    baton: Arc<Baton>,
    pending: Charges,
    /// The driver's OS thread, which a context running on an OS thread
    /// of its own wakes with each call; `None` for a task, which
    /// returns to its driver instead.
    driver: Option<Thread>,
}

impl TaskCtx {
    /// Waits until the driver resumes this thread, and takes the
    /// node's memory it sends along. A task is only ever polled with
    /// its resume already in the slot.
    fn wait_resume(&mut self) {
        let theirs = |slot: &Slot| matches!(slot, Slot::Resume(_) | Slot::DriverGone);
        match self.baton.take_when(theirs) {
            Slot::Resume(mem) => self.mem = mem,
            _ => engine_gone(),
        }
    }

    /// This thread's global index, `0..num_threads`.
    pub fn thread_id(&self) -> usize {
        self.tid.index()
    }

    /// Total application threads in the run.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The node (processor) this thread runs on.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Charges `dur` of useful computation to this thread.
    ///
    /// Applications model their arithmetic with explicit compute
    /// charges (the actual Rust arithmetic runs at native speed and
    /// is not timed).
    pub fn compute(&mut self, dur: SimDuration) {
        self.pending.busy += dur;
    }

    /// Reads element `i` of a shared array.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub async fn read<T: Pod>(&mut self, v: &SharedVec<T>, i: usize) -> T {
        let (page, off) = v.locate(i);
        let entry = self.valid_page(page, false).await;
        T::read_le(&entry.data.bytes()[off..off + T::BYTES])
    }

    /// Writes element `i` of a shared array.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub async fn write<T: Pod>(&mut self, v: &SharedVec<T>, i: usize, value: T) {
        let (page, off) = v.locate(i);
        let entry = self.valid_page(page, true).await;
        value.write_le(&mut entry.data.bytes_mut()[off..off + T::BYTES]);
    }

    /// Reads elements `start..start + out.len()` into `out`.
    ///
    /// One page-validity check is performed per page touched, which is
    /// how the real system behaves (a fault per page, not per element)
    /// — and the page's state is touched once per page too: its bytes
    /// are borrowed once and the elements copied out of that slice.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub async fn read_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, out: &mut [T]) {
        for (page, range) in v.locate_range(start, start + out.len()) {
            let entry = self.valid_page(page, false).await;
            decode(
                &entry.data.bytes()[page_bytes::<T>(&range)],
                &mut out[range.start - start..range.end - start],
            );
        }
    }

    /// Writes `values` to elements `start..start + values.len()`. Like
    /// [`TaskCtx::read_slice`], one check — and one twin, one borrow of
    /// the page's bytes — per page touched.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub async fn write_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, values: &[T]) {
        for (page, range) in v.locate_range(start, start + values.len()) {
            let entry = self.valid_page(page, true).await;
            encode(
                &values[range.start - start..range.end - start],
                &mut entry.data.bytes_mut()[page_bytes::<T>(&range)],
            );
        }
    }

    /// Reads a range as a new vector (convenience over
    /// [`TaskCtx::read_slice`]).
    pub async fn read_vec<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, len: usize) -> Vec<T> {
        let mut out = vec![T::default(); len];
        self.read_slice(v, start, &mut out).await;
        out
    }

    /// Acquires a lock, waiting until granted.
    pub async fn acquire(&mut self, lock: LockId) {
        self.syscall(Syscall::Acquire(lock)).await;
    }

    /// Releases a lock this thread holds.
    ///
    /// # Panics
    ///
    /// The engine panics the run if the thread does not hold the lock.
    pub async fn release(&mut self, lock: LockId) {
        self.syscall(Syscall::Release(lock)).await;
    }

    /// Arrives at a barrier, waiting until all threads arrive.
    pub async fn barrier(&mut self, id: BarrierId) {
        self.syscall(Syscall::Barrier(id)).await;
    }

    /// Issues non-binding prefetches for the pages backing elements
    /// `start..end` of `v`.
    ///
    /// When prefetching is disabled in the run configuration this is a
    /// free no-op, so applications always contain their prefetch
    /// annotations and the experiment harness switches them on or off.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub async fn prefetch<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, end: usize) {
        if !self.prefetch_cfg.mode.honors_annotations() {
            return;
        }
        // Filtered page by page as the range is walked: only the pages
        // worth a message are collected, so a range that is already
        // local (the common case) allocates nothing.
        let to_issue: Vec<PageId> = v
            .locate_range(start, end)
            .filter(|&(page, _)| self.worth_prefetching(page))
            .map(|(page, _)| page)
            .collect();
        if !to_issue.is_empty() {
            self.syscall(Syscall::Prefetch(to_issue)).await;
        }
    }

    /// The local filter of [`TaskCtx::prefetch`]: counts and charges a
    /// check of `page`, and says whether it is worth a message — not
    /// valid, not already asked for, not throttled away.
    fn worth_prefetching(&mut self, page: PageId) -> bool {
        let m = &mut self.mem;
        m.prefetch.calls += 1;
        self.pending.prefetch += self.costs.prefetch_check;
        let entry = &m.pages[page.index()];
        if entry.is_valid() {
            m.prefetch.unnecessary += 1;
            return false;
        }
        if entry.pf_inflight() > 0 {
            m.prefetch.suppressed_inflight += 1;
            return false;
        }
        if self.prefetch_cfg.suppress_redundant && entry.epoch_prefetched() {
            m.prefetch.suppressed_flag += 1;
            return false;
        }
        m.throttle_seq += 1;
        if self.prefetch_cfg.throttle > 1
            && !m
                .throttle_seq
                .is_multiple_of(self.prefetch_cfg.throttle as u64)
        {
            m.prefetch.throttled += 1;
            return false;
        }
        if self.prefetch_cfg.suppress_redundant {
            m.mark_epoch_prefetched(page);
        }
        true
    }

    /// Emulates compiler-issued prefetch checks on private data
    /// (`count` page checks that always find the data locally). A
    /// no-op unless the run uses compiler-style prefetching; see
    /// Table 1's FFT and LU-NCONT rows.
    pub fn prefetch_private(&mut self, count: usize) {
        if !self.prefetch_cfg.mode.honors_annotations() || !self.prefetch_cfg.compiler_style {
            return;
        }
        self.pending.prefetch += self.costs.prefetch_check * count as u64;
        let counts = &mut self.mem.prefetch;
        counts.calls += count as u64;
        counts.unnecessary += count as u64;
        counts.private_checks += count as u64;
    }

    /// Tells the driver that this thread finished. Called after
    /// application code returns.
    fn exit(&mut self) {
        // Exit is fire-and-forget: the driver marks the thread done
        // and never resumes it.
        self.yield_with(Syscall::Exit);
    }

    /// A valid copy of `page`, faulting (and retrying) as needed.
    /// Charges fast-path access costs.
    async fn valid_page(&mut self, page: PageId, write: bool) -> &mut PageEntry {
        let mut retries = 0;
        while !self.mem.pages[page.index()].is_valid() {
            retries += 1;
            assert!(
                retries < MAX_FAULT_RETRIES,
                "page {page} never became valid after {retries} faults"
            );
            self.syscall(Syscall::Fault { page, write }).await;
        }
        self.pending.busy += self.costs.access_check;
        if write && self.mem.make_twin(page) {
            self.pending.dsm += self.costs.twin_create;
        }
        &mut self.mem.pages[page.index()]
    }

    /// Yields to the driver: hands over `syscall`, the charges pending
    /// since the last resume, and the node's memory. False when the
    /// driver is gone.
    fn yield_with(&mut self, syscall: Syscall) -> bool {
        let msg = CallMsg {
            syscall,
            charges: std::mem::take(&mut self.pending),
            mem: std::mem::take(&mut self.mem),
        };
        let previous = self.baton.put(Slot::Call(msg));
        if let Some(driver) = &self.driver {
            driver.unpark();
        }
        !matches!(previous, Slot::DriverGone)
    }

    /// The one yield point: yields with `syscall` and continues when
    /// the driver resumes this thread. A task gives the driver its
    /// thread back in between — pending once is what ends the `poll`
    /// in [`ThreadLink::run_burst`] — where an OS thread just blocks
    /// in [`TaskCtx::wait_resume`].
    async fn syscall(&mut self, syscall: Syscall) {
        if !self.yield_with(syscall) {
            engine_gone();
        }
        if self.driver.is_none() {
            let mut yielded = false;
            poll_fn(|_| match std::mem::replace(&mut yielded, true) {
                true => Poll::Ready(()),
                false => Poll::Pending,
            })
            .await;
        }
        self.wait_resume();
    }
}

/// The one `poll` a synchronous operation is: the yield point under
/// `op` blocks, so `op` cannot pend. Inlined so that the future is
/// built and polled in the caller's frame — out of line, an access
/// that hits cost 16 ns against 6.
#[inline(always)]
fn now<F: Future>(op: F) -> F::Output {
    match pin!(op).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => unreachable!("a DsmCtx blocks where a task would pend"),
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
pub struct DsmCtx(TaskCtx);

impl DsmCtx {
    /// This thread's global index, `0..num_threads`.
    pub fn thread_id(&self) -> usize {
        self.0.thread_id()
    }

    /// Total application threads in the run.
    pub fn num_threads(&self) -> usize {
        self.0.num_threads()
    }

    /// The node (processor) this thread runs on.
    pub fn node(&self) -> usize {
        self.0.node()
    }

    /// Charges `dur` of useful computation; see [`TaskCtx::compute`].
    pub fn compute(&mut self, dur: SimDuration) {
        self.0.compute(dur);
    }

    /// Reads element `i` of a shared array; see [`TaskCtx::read`].
    pub fn read<T: Pod>(&mut self, v: &SharedVec<T>, i: usize) -> T {
        now(self.0.read(v, i))
    }

    /// Writes element `i` of a shared array; see [`TaskCtx::write`].
    pub fn write<T: Pod>(&mut self, v: &SharedVec<T>, i: usize, value: T) {
        now(self.0.write(v, i, value));
    }

    /// Reads elements `start..start + out.len()` into `out`; see
    /// [`TaskCtx::read_slice`].
    pub fn read_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, out: &mut [T]) {
        now(self.0.read_slice(v, start, out));
    }

    /// Writes `values` to elements `start..start + values.len()`; see
    /// [`TaskCtx::write_slice`].
    pub fn write_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, values: &[T]) {
        now(self.0.write_slice(v, start, values));
    }

    /// Reads a range as a new vector; see [`TaskCtx::read_vec`].
    pub fn read_vec<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, len: usize) -> Vec<T> {
        now(self.0.read_vec(v, start, len))
    }

    /// Acquires a lock, blocking until granted.
    pub fn acquire(&mut self, lock: LockId) {
        now(self.0.acquire(lock));
    }

    /// Releases a lock this thread holds; see [`TaskCtx::release`].
    pub fn release(&mut self, lock: LockId) {
        now(self.0.release(lock));
    }

    /// Arrives at a barrier, blocking until all threads arrive.
    pub fn barrier(&mut self, id: BarrierId) {
        now(self.0.barrier(id));
    }

    /// Issues non-binding prefetches for the pages backing elements
    /// `start..end` of `v`; see [`TaskCtx::prefetch`].
    pub fn prefetch<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, end: usize) {
        now(self.0.prefetch(v, start, end));
    }

    /// Emulates compiler-issued prefetch checks on private data; see
    /// [`TaskCtx::prefetch_private`].
    pub fn prefetch_private(&mut self, count: usize) {
        self.0.prefetch_private(count);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Once;
    use std::thread::ThreadId as OsThreadId;
    use std::time::{Duration, Instant};

    use rsdsm_simnet::DetRng;

    use super::*;
    use crate::heap::{Heap, HomePolicy};

    const THREADS: usize = 64;
    const ROUNDS: u64 = 1_000;

    /// Every thread bumps its own word of one shared page once per
    /// round and then makes a syscall; thread `saboteur.0` panics at
    /// the top of round `saboteur.1` instead — round 1 is before any
    /// syscall. Written twice, once per backing.
    struct Rounds {
        saboteur: Option<(usize, u64)>,
    }

    impl Rounds {
        fn sabotage(&self, t: usize, round: u64) {
            if self.saboteur == Some((t, round)) {
                panic!("thread {t} fails in round {round}");
            }
        }
    }

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

    impl DsmTask for Rounds {
        type Handles = SharedVec<u64>;

        fn name(&self) -> String {
            "rounds".into()
        }

        fn allocate(&self, heap: &mut Heap) -> Self::Handles {
            heap.alloc(THREADS, HomePolicy::Single(0))
        }

        async fn run(&self, ctx: &mut TaskCtx, words: &Self::Handles) {
            let t = ctx.thread_id();
            for round in 1..=ROUNDS {
                self.sabotage(t, round);
                assert_eq!(
                    ctx.read(words, t).await,
                    round - 1,
                    "memory came back intact"
                );
                ctx.write(words, t, round).await;
                ctx.acquire(LockId(0)).await;
            }
        }
    }

    /// Runs `app` on `threads` threads of one node — OS threads or
    /// tasks, by `B` — under `drive`, which also gets one all-valid
    /// memory to lend out (no faults, every syscall a no-op; unlike
    /// the golden model's flat memory, a first write twins its page).
    fn run_on<B, P: Runnable<B>, R>(
        app: &P,
        threads: usize,
        drive: impl for<'l> FnOnce(Vec<ThreadLink<'l>>, NodeMem) -> R,
    ) -> R {
        let mut heap = Heap::new(1);
        let handles = app.allocate(&mut heap);
        let mem = NodeMem::new(heap.page_count(), |_| true);
        lockstep(
            app,
            &handles,
            &CostModel::default(),
            &PrefetchConfig::off(),
            threads,
            |_| 0,
            |links| drive(links, mem),
        )
    }

    /// Resumes live threads in a seeded random order until all exit or
    /// one is gone; returns the syscalls seen and the busy time they
    /// charged. `before_burst` runs ahead of every resume.
    fn drive_randomly(
        links: &mut [ThreadLink<'_>],
        mem: &mut NodeMem,
        mut before_burst: impl FnMut(),
    ) -> Result<(u64, SimDuration), ThreadGone> {
        let mut rng = DetRng::new(1998);
        let mut live: Vec<usize> = (0..links.len()).collect();
        let (mut syscalls, mut busy) = (0, SimDuration::ZERO);
        while !live.is_empty() {
            let pick = rng.next_below(live.len() as u64) as usize;
            before_burst();
            let (syscall, charges) = links[live[pick]].run_burst(mem)?;
            syscalls += 1;
            busy += charges.busy;
            if syscall == Syscall::Exit {
                live.swap_remove(pick);
            }
        }
        Ok((syscalls, busy))
    }

    fn assert_all_rounds_landed(mem: &NodeMem, driven: Result<(u64, SimDuration), ThreadGone>) {
        let (syscalls, busy) =
            driven.unwrap_or_else(|gone| panic!("a thread vanished: {}", gone.0));
        assert_eq!(syscalls, THREADS as u64 * (ROUNDS + 1));
        for t in 0..THREADS {
            assert_eq!(mem.pages[0].data.read_u64(t * 8), ROUNDS, "thread {t}");
        }
        // One read and one write per round, each charged one check.
        let accesses = 2 * THREADS as u64 * ROUNDS;
        assert_eq!(busy, CostModel::default().access_check * accesses);
    }

    fn random_resume_order_completes<B>()
    where
        Rounds: Runnable<B>,
    {
        let app = Rounds { saboteur: None };
        let (mem, syscalls) = run_on(&app, THREADS, |mut links, mut mem| {
            let syscalls = drive_randomly(&mut links, &mut mem, || {});
            (mem, syscalls)
        });
        assert_all_rounds_landed(&mem, syscalls);
    }

    #[test]
    fn random_resume_order_completes_with_memory_intact() {
        random_resume_order_completes::<AsThread>();
    }

    #[test]
    fn random_resume_order_over_tasks_completes_with_memory_intact() {
        random_resume_order_completes::<AsTask>();
    }

    /// The OS thread behind a thread-backed link.
    fn os_thread<'l>(link: &'l ThreadLink<'_>) -> &'l Thread {
        match &link.backing {
            Backing::Thread(thread) => thread,
            Backing::Task(_) => panic!("a task has no thread of its own"),
        }
    }

    /// Rule 3. The driver leaves itself a wake token before every
    /// burst, so its first `park` returns with its own resume still in
    /// the slot; and a helper wakes the driver and every application
    /// thread — parked on a call not taken yet, or never resumed — in
    /// a tight loop for the whole run.
    #[test]
    fn spurious_wakeups_change_nothing() {
        let app = Rounds { saboteur: None };
        let (mem, syscalls) = run_on::<AsThread, _, _>(&app, THREADS, |mut links, mut mem| {
            let driver = thread::current();
            let threads: Vec<Thread> = links.iter().map(|link| os_thread(link).clone()).collect();
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

    #[test]
    fn dropping_the_links_ends_parked_and_unstarted_threads_silently() {
        record_panicking_threads();
        let app = Rounds { saboteur: None };
        let ids = run_on::<AsThread, _, _>(&app, THREADS, |mut links, mut mem| {
            // Half the threads run one burst and park on their call's
            // answer; the other half never get a first resume.
            for link in &mut links[..THREADS / 2] {
                assert!(link.run_burst(&mut mem).is_ok());
            }
            links
                .iter()
                .map(|link| os_thread(link).id())
                .collect::<Vec<_>>()
            // `links` drops here.
        });
        // `run_on` returning means every thread was joined.
        assert!(
            ids.iter().all(|&id| panics_of(id) == 0),
            "an abandoned thread went through the panic hook"
        );
    }

    /// Every task takes a share in `token`, counts a step, makes one
    /// syscall and counts another.
    struct Holder {
        token: Arc<()>,
        steps: AtomicUsize,
    }

    impl DsmTask for Holder {
        type Handles = SharedVec<u64>;

        fn name(&self) -> String {
            "holder".into()
        }

        fn allocate(&self, heap: &mut Heap) -> Self::Handles {
            heap.alloc(1, HomePolicy::Single(0))
        }

        async fn run(&self, ctx: &mut TaskCtx, _: &Self::Handles) {
            let _share = Arc::clone(&self.token);
            self.steps.fetch_add(1, Ordering::SeqCst);
            ctx.acquire(LockId(0)).await;
            self.steps.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Abandoned tasks are dropped where they stand: what they hold is
    /// released, and not one more line of the application runs — on
    /// this thread or any other.
    #[test]
    fn dropping_the_links_of_half_run_tasks_runs_nothing_and_leaks_nothing() {
        let app = Holder {
            token: Arc::new(()),
            steps: AtomicUsize::new(0),
        };
        let batons = run_on(&app, THREADS, |mut links, mut mem| {
            // Half the tasks run up to their syscall; the other half
            // are never polled.
            for link in &mut links[..THREADS / 2] {
                let Ok((syscall, _)) = link.run_burst(&mut mem) else {
                    panic!("no task panics");
                };
                assert_eq!(syscall, Syscall::Acquire(LockId(0)));
            }
            assert_eq!(Arc::strong_count(&app.token), 1 + THREADS / 2);
            links
                .iter()
                .map(|link| Arc::downgrade(&link.baton))
                .collect::<Vec<_>>()
            // `links` drops here.
        });
        assert_eq!(app.steps.load(Ordering::SeqCst), THREADS / 2);
        assert_eq!(Arc::strong_count(&app.token), 1);
        assert!(batons.iter().all(|baton| baton.strong_count() == 0));
    }

    /// Drives `app` until its saboteur panics, on a thread of its own
    /// under a deadline; returns the message the failed burst carried.
    fn message_of_the_panic<B>(app: Rounds) -> String
    where
        Rounds: Runnable<B>,
    {
        record_panicking_threads();
        let driver = thread::spawn(move || {
            let gone = run_on(&app, THREADS, |mut links, mut mem| {
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
        // A task's panic is the driver thread's one panic; nothing is
        // unwound to get rid of the tasks it abandons.
        assert!(panics_of(id) <= 1, "abandoned tasks were unwound");
        message
    }

    #[test]
    fn a_panic_before_the_first_syscall_is_an_error_not_a_hang() {
        let msg = message_of_the_panic::<AsThread>(Rounds {
            saboteur: Some((5, 1)),
        });
        assert!(msg.contains("thread 5 fails in round 1"), "{msg}");
    }

    #[test]
    fn a_task_panic_is_the_error_of_its_burst_whenever_it_comes() {
        for round in [1, ROUNDS / 2] {
            let msg = message_of_the_panic::<AsTask>(Rounds {
                saboteur: Some((5, round)),
            });
            assert!(
                msg.contains(&format!("thread 5 fails in round {round}")),
                "{msg}"
            );
        }
    }

    /// A task may only pend inside a `TaskCtx` operation: anything
    /// else would wait for a wake-up that nobody delivers.
    #[test]
    fn a_task_that_awaits_a_foreign_future_fails_its_burst() {
        struct Stray;
        impl DsmTask for Stray {
            type Handles = SharedVec<u64>;
            fn name(&self) -> String {
                "stray".into()
            }
            fn allocate(&self, heap: &mut Heap) -> Self::Handles {
                heap.alloc(1, HomePolicy::Single(0))
            }
            async fn run(&self, _: &mut TaskCtx, _: &Self::Handles) {
                std::future::pending::<()>().await;
            }
        }
        let gone = run_on(&Stray, 1, |mut links, mut mem| {
            links[0].run_burst(&mut mem).expect_err("no call was left")
        });
        assert!(
            gone.0.contains("not an operation of its TaskCtx"),
            "{}",
            gone.0
        );
    }

    /// One thread writes seeded ranges of one array and reads each back
    /// twice — through the slice accessors, or element by element —
    /// keeping what it read. Written twice, once per backing.
    struct Ranges<T> {
        by_slice: bool,
        /// An element's value from a number.
        make: fn(usize) -> T,
        read_back: Mutex<Vec<T>>,
    }

    impl<T: Pod> Ranges<T> {
        const PER_PAGE: usize = rsdsm_protocol::PAGE_SIZE / T::BYTES;
        /// Four pages, the last barely used.
        const LEN: usize = 3 * Self::PER_PAGE + 5;

        /// `(start, len)`: the edge cases by hand — empty at either
        /// end, one element, straddling one page boundary and two,
        /// exactly a page, everything — then seeded ranges of up to a
        /// page and a half.
        fn ranges() -> Vec<(usize, usize)> {
            let page = Self::PER_PAGE;
            let mut ranges = vec![
                (0, 0),
                (Self::LEN, 0),
                (5, 1),
                (page - 1, 2),
                (page - 1, page + 2),
                (page, page),
                (0, Self::LEN),
            ];
            let mut rng = DetRng::new(1998);
            for _ in 0..24 {
                let start = rng.next_below(Self::LEN as u64 + 1) as usize;
                let most = (Self::LEN - start).min(page * 3 / 2);
                ranges.push((start, rng.next_below(most as u64 + 1) as usize));
            }
            ranges
        }

        /// What range number `k`, `start..start + len`, is filled with.
        fn values(&self, k: usize, start: usize, len: usize) -> Vec<T> {
            (start..start + len)
                .map(|i| (self.make)(i * 7 + k))
                .collect()
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

    impl<T: Pod> DsmTask for Ranges<T> {
        type Handles = SharedVec<T>;

        fn name(&self) -> String {
            "ranges".into()
        }

        fn allocate(&self, heap: &mut Heap) -> Self::Handles {
            heap.alloc(Self::LEN, HomePolicy::Single(0))
        }

        async fn run(&self, ctx: &mut TaskCtx, v: &Self::Handles) {
            let mut read = Vec::new();
            for (k, (start, len)) in Self::ranges().into_iter().enumerate() {
                let values = self.values(k, start, len);
                if self.by_slice {
                    ctx.write_slice(v, start, &values).await;
                    let mut out = vec![T::default(); len];
                    ctx.read_slice(v, start, &mut out).await;
                    read.extend(out);
                    read.extend(ctx.read_vec(v, start, len).await);
                } else {
                    for (i, &value) in (start..).zip(&values) {
                        ctx.write(v, i, value).await;
                    }
                    for _ in 0..2 {
                        for i in start..start + len {
                            read.push(ctx.read(v, i).await);
                        }
                    }
                }
            }
            *self.read_back.lock().expect("one thread") = read;
        }
    }

    /// The slice accessors move the same data as element-by-element
    /// access and touch page state — validity check, charge, twin —
    /// once per page, not once per element.
    fn slices_equal_elements<B, T: Pod + PartialEq + std::fmt::Debug>(make: fn(usize) -> T)
    where
        Ranges<T>: Runnable<B>,
    {
        let run_ranges = |by_slice| {
            let app = Ranges {
                by_slice,
                make,
                read_back: Mutex::new(Vec::new()),
            };
            let (mem, charges) = run_on(&app, 1, |mut links, mut mem| {
                let Ok((syscall, charges)) = links[0].run_burst(&mut mem) else {
                    panic!("the thread vanished");
                };
                assert_eq!(syscall, Syscall::Exit, "all-valid memory: no fault");
                (mem, charges)
            });
            (mem, charges, app.read_back.into_inner().expect("joined"))
        };
        let (by_slice, slice_charges, slice_read) = run_ranges(true);
        let (by_element, element_charges, element_read) = run_ranges(false);
        assert_eq!(slice_read, element_read);
        let image = |mem: &NodeMem| mem.pages.iter().map(|e| e.data.clone()).collect::<Vec<_>>();
        assert_eq!(image(&by_slice), image(&by_element));

        // What the element-at-a-time slice loops of PR 18 counted and
        // charged for these ranges (the same for every element width:
        // the ranges scale with the page): 144 accesses at 60 ns, four
        // twins at 20 µs.
        const ACCESSES: u64 = 144;
        const TWINS: usize = 4;
        assert_eq!(
            slice_charges,
            Charges {
                busy: SimDuration::from_nanos(8_640),
                dsm: SimDuration::from_micros(80),
                prefetch: SimDuration::ZERO,
            }
        );
        for mem in [&by_slice, &by_element] {
            assert_eq!(
                mem.pages.iter().filter(|e| e.twin().is_some()).count(),
                TWINS
            );
            assert_eq!(mem.dirty.len(), TWINS);
        }
        // Which is one write and two reads of every page of every
        // range, where the element path pays per element.
        let ranges = Ranges::<T>::ranges();
        let pages = |&(start, len): &(usize, usize)| match len {
            0 => 0,
            _ => (start + len - 1) / Ranges::<T>::PER_PAGE - start / Ranges::<T>::PER_PAGE + 1,
        };
        assert_eq!(3 * ranges.iter().map(pages).sum::<usize>() as u64, ACCESSES);
        let elements = 3 * ranges.iter().map(|&(_, len)| len).sum::<usize>() as u64;
        let access_check = CostModel::default().access_check;
        assert_eq!(slice_charges.busy, access_check * ACCESSES);
        assert_eq!(element_charges.busy, access_check * elements);
    }

    fn slices_equal_elements_at_every_width<B>()
    where
        Ranges<u8>: Runnable<B>,
        Ranges<u32>: Runnable<B>,
        Ranges<f64>: Runnable<B>,
    {
        slices_equal_elements::<B, u8>(|n| n as u8);
        slices_equal_elements::<B, u32>(|n| (n as u32).wrapping_mul(0x0101_0101));
        slices_equal_elements::<B, f64>(|n| n as f64 * 0.25 - 3.0);
    }

    #[test]
    fn slices_move_what_elements_move_at_one_access_per_page() {
        slices_equal_elements_at_every_width::<AsThread>();
    }

    #[test]
    fn slices_move_what_elements_move_at_one_access_per_page_on_a_task_too() {
        slices_equal_elements_at_every_width::<AsTask>();
    }
}

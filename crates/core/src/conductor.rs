//! The conductor: the application-side context, the thread/engine
//! handshake, and the one lockstep harness both executors run on.
//!
//! Every simulated application thread runs on a real OS thread, in
//! strict lockstep with a *driver* — the engine's run loop, or the
//! golden model's cooperative scheduler. The driver resumes exactly
//! one thread at a time ([`ThreadLink::run_burst`]); the thread
//! computes (accumulating charged time locally) until it needs the
//! DSM — a page fault, a synchronization operation, a prefetch — then
//! hands over a [`Syscall`] and blocks until it is resumed again. This
//! keeps the whole simulation deterministic while letting application
//! code be ordinary Rust.
//!
//! Invariant: a node's memory is with exactly one party — the driver,
//! or the one thread it resumed. The resume message *is* the node's
//! [`NodeMem`], moved to the thread; the thread's next [`CallMsg`]
//! moves it back. A [`DsmCtx`] therefore reads and writes pages as
//! plain owned data between its resume and its next syscall, the
//! driver does the same between bursts, and the hand-off that orders
//! the two is the only synchronisation there is.
//!
//! # The hand-off
//!
//! Driver and thread share one [`Slot`] — the baton. Exactly one of
//! them runs at a time, so one slot carries both directions: the
//! driver fills it with `Resume(mem)` and waits for the thread's
//! `Call`; the thread takes the `Resume`, runs, fills it with its
//! `Call` and waits for the next `Resume`. Three rules make it correct
//! and keep it cheap:
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
//! blocking hand-off cannot avoid.
//!
//! [`DsmCtx`] is the API visible to applications: typed reads/writes
//! on [`SharedVec`] handles, locks, barriers, prefetches, and explicit
//! compute-time charging. An element access checks its page, charges
//! and (writing) twins per element; a slice access does each of those
//! once per page it touches and copies that page's elements out of
//! one borrow of its bytes. The two are different simulated costs, so
//! which one a kernel calls is part of its model, not a host-side
//! detail. [`lockstep`] builds the contexts and links, spawns the
//! threads and tears them down.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

use rsdsm_protocol::PageId;
use rsdsm_simnet::SimDuration;

use crate::config::PrefetchConfig;
use crate::costs::CostModel;
use crate::heap::{page_bytes, Pod, SharedVec};
use crate::msg::{BarrierId, LockId};
use crate::node::{NodeMem, PageEntry};
use crate::program::DsmProgram;
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

/// Unwind payload of an application thread whose driver is gone: the
/// run ended in an error and dropped the link this thread was parked
/// on. Raised with `resume_unwind`, which bypasses the panic hook, and
/// recognised by the [`lockstep`] shim — so the thread ends silently
/// and the one error of the run is the one the driver returns.
struct EngineGone;

/// Ends this application thread because its driver is gone.
fn engine_gone() -> ! {
    resume_unwind(Box::new(EngineGone))
}

/// The thread behind a [`ThreadLink`] ended without a syscall: it
/// panicked, and [`lockstep`] will report the message.
pub(crate) struct ThreadGone;

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
    /// The thread panicked: no `Call` will ever come.
    ThreadGone,
}

/// The state a driver and one application thread share.
#[derive(Debug)]
struct Baton {
    slot: Mutex<Slot>,
    /// The driver's thread, which the application thread wakes.
    driver: Thread,
}

impl Baton {
    /// Locks the slot for one move in or out (rule 2). Nothing can
    /// panic while holding this lock, and a single assignment leaves
    /// the slot valid at every step, so a poisoned lock is recovered.
    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Puts `next` in the slot and wakes `peer` (rule 1). Returns what
    /// was there, for the caller to drop — the lock is released.
    fn pass(&self, next: Slot, peer: &Thread) -> Slot {
        let previous = std::mem::replace(&mut *self.slot(), next);
        peer.unpark();
        previous
    }

    /// Waits until the slot holds something `mine` accepts, and takes
    /// it (rule 3): anything else — the waiter's own message not yet
    /// taken by its peer, or nothing on a stray wake — means park
    /// again.
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

/// The driver's end of one application thread's handshake.
pub(crate) struct ThreadLink {
    baton: Arc<Baton>,
    /// The application thread, which the driver wakes.
    thread: Thread,
}

impl ThreadLink {
    /// Runs the thread for one burst: moves `mem` (its node's memory)
    /// to it, blocks until its next syscall, and puts the memory the
    /// syscall carries back. `mem` is an empty placeholder in between,
    /// which nothing can observe — the caller is blocked here.
    pub(crate) fn run_burst(&self, mem: &mut NodeMem) -> Result<(Syscall, Charges), ThreadGone> {
        self.baton
            .pass(Slot::Resume(std::mem::take(mem)), &self.thread);
        let theirs = |slot: &Slot| matches!(slot, Slot::Call(_) | Slot::ThreadGone);
        match self.baton.take_when(theirs) {
            Slot::Call(call) => {
                *mem = call.mem;
                Ok((call.syscall, call.charges))
            }
            _ => Err(ThreadGone),
        }
    }
}

impl Drop for ThreadLink {
    /// Ends the thread if it is still parked: it finds the driver gone
    /// and unwinds silently (see [`EngineGone`]).
    fn drop(&mut self) {
        self.baton.pass(Slot::DriverGone, &self.thread);
    }
}

/// Runs `app` on `threads` application threads in lockstep with
/// `drive`, the caller's scheduler: `drive` gets one [`ThreadLink`]
/// per thread (thread `t` reports `node_of(t)` as its node) and
/// decides who runs when. When `drive` returns, dropping the links,
/// every thread still parked unwinds silently and is joined.
///
/// # Errors
///
/// The message of the application panic, if a thread panicked — in
/// which case `drive`'s own result, which can only say that a thread
/// vanished, is discarded.
pub(crate) fn lockstep<P: DsmProgram, R>(
    app: &P,
    handles: &P::Handles,
    costs: &CostModel,
    prefetch_cfg: &PrefetchConfig,
    threads: usize,
    node_of: impl Fn(usize) -> usize,
    drive: impl FnOnce(Vec<ThreadLink>) -> R,
) -> Result<R, String> {
    thread::scope(|s| {
        let mut links = Vec::with_capacity(threads);
        let mut shims = Vec::with_capacity(threads);
        let driver = thread::current();
        for t in 0..threads {
            let baton = Arc::new(Baton {
                slot: Mutex::new(Slot::Empty),
                driver: driver.clone(),
            });
            let mut ctx = DsmCtx {
                tid: ThreadId(t),
                node: node_of(t),
                num_threads: threads,
                mem: NodeMem::default(),
                costs: costs.clone(),
                prefetch_cfg: prefetch_cfg.clone(),
                baton: Arc::clone(&baton),
                pending: Charges::default(),
            };
            let h = handles.clone();
            let shim = s.spawn(move || {
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    ctx.wait_resume();
                    app.run(&mut ctx, &h);
                    ctx.exit();
                }))
                .err()?;
                if payload.is::<EngineGone>() {
                    return None;
                }
                // A real panic: the driver is waiting for a call that
                // will not come.
                ctx.baton.pass(Slot::ThreadGone, &ctx.baton.driver);
                Some(
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "<non-string panic>".to_string()),
                )
            });
            links.push(ThreadLink {
                baton,
                thread: shim.thread().clone(),
            });
            shims.push(shim);
        }
        let out = drive(links);
        let panicked = shims
            .into_iter()
            .find_map(|shim| shim.join().expect("the shim catches every unwind"));
        panicked.map_or(Ok(out), Err)
    })
}

/// Limit on fault retries for a single access, to turn protocol
/// livelock bugs into a clear panic rather than a hang.
const MAX_FAULT_RETRIES: u32 = 100_000;

/// The per-thread handle to the simulated DSM.
///
/// Obtained by the engine and passed to
/// [`DsmProgram::run`](crate::DsmProgram::run). All shared-memory
/// access, synchronization and prefetching goes through this context;
/// private data is ordinary Rust data.
#[derive(Debug)]
pub struct DsmCtx {
    tid: ThreadId,
    node: usize,
    num_threads: usize,
    /// The node's memory while this thread runs; an empty placeholder
    /// while it is parked.
    mem: NodeMem,
    costs: CostModel,
    prefetch_cfg: PrefetchConfig,
    baton: Arc<Baton>,
    pending: Charges,
}

impl DsmCtx {
    /// Blocks until the driver resumes this thread, and takes the
    /// node's memory it sends along.
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
    pub fn read<T: Pod>(&mut self, v: &SharedVec<T>, i: usize) -> T {
        let (page, off) = v.locate(i);
        self.with_valid_page(page, false, |entry| {
            T::read_le(&entry.data.bytes()[off..off + T::BYTES])
        })
    }

    /// Writes element `i` of a shared array.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn write<T: Pod>(&mut self, v: &SharedVec<T>, i: usize, value: T) {
        let (page, off) = v.locate(i);
        self.with_valid_page(page, true, |entry| {
            value.write_le(&mut entry.data.bytes_mut()[off..off + T::BYTES]);
        });
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
    pub fn read_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, out: &mut [T]) {
        for (page, range) in v.locate_range(start, start + out.len()) {
            let out = &mut out[range.start - start..range.end - start];
            self.with_valid_page(page, false, |entry| {
                let bytes = &entry.data.bytes()[page_bytes::<T>(&range)];
                for (slot, le) in out.iter_mut().zip(bytes.chunks_exact(T::BYTES)) {
                    *slot = T::read_le(le);
                }
            });
        }
    }

    /// Writes `values` to elements `start..start + values.len()`. Like
    /// [`DsmCtx::read_slice`], one check — and one twin, one borrow of
    /// the page's bytes — per page touched.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, values: &[T]) {
        for (page, range) in v.locate_range(start, start + values.len()) {
            let values = &values[range.start - start..range.end - start];
            self.with_valid_page(page, true, |entry| {
                let bytes = &mut entry.data.bytes_mut()[page_bytes::<T>(&range)];
                for (value, le) in values.iter().zip(bytes.chunks_exact_mut(T::BYTES)) {
                    value.write_le(le);
                }
            });
        }
    }

    /// Reads a range as a new vector (convenience over
    /// [`DsmCtx::read_slice`]).
    pub fn read_vec<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, len: usize) -> Vec<T> {
        let mut out = vec![T::default(); len];
        self.read_slice(v, start, &mut out);
        out
    }

    /// Acquires a lock, blocking until granted.
    pub fn acquire(&mut self, lock: LockId) {
        self.syscall(Syscall::Acquire(lock));
    }

    /// Releases a lock this thread holds.
    ///
    /// # Panics
    ///
    /// The engine panics the run if the thread does not hold the lock.
    pub fn release(&mut self, lock: LockId) {
        self.syscall(Syscall::Release(lock));
    }

    /// Arrives at a barrier, blocking until all threads arrive.
    pub fn barrier(&mut self, id: BarrierId) {
        self.syscall(Syscall::Barrier(id));
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
    pub fn prefetch<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, end: usize) {
        if !self.prefetch_cfg.mode.honors_annotations() {
            return;
        }
        let pages = v.pages_for_range(start, end);
        let mut to_issue = Vec::new();
        let m = &mut self.mem;
        for page in pages {
            m.counters.pf_calls += 1;
            self.pending.prefetch += self.costs.prefetch_check;
            let entry = &m.pages[page.index()];
            if entry.valid {
                m.counters.pf_unnecessary += 1;
                continue;
            }
            if entry.pf_inflight() > 0 {
                m.counters.pf_suppressed_inflight += 1;
                continue;
            }
            if self.prefetch_cfg.suppress_redundant && entry.epoch_prefetched() {
                m.counters.pf_suppressed_flag += 1;
                continue;
            }
            m.throttle_seq += 1;
            if self.prefetch_cfg.throttle > 1
                && !m
                    .throttle_seq
                    .is_multiple_of(self.prefetch_cfg.throttle as u64)
            {
                m.counters.pf_throttled += 1;
                continue;
            }
            if self.prefetch_cfg.suppress_redundant {
                m.mark_epoch_prefetched(page);
            }
            to_issue.push(page);
        }
        if !to_issue.is_empty() {
            self.syscall(Syscall::Prefetch(to_issue));
        }
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
        let counters = &mut self.mem.counters;
        counters.pf_calls += count as u64;
        counters.pf_unnecessary += count as u64;
        counters.pf_private_checks += count as u64;
    }

    /// Tells the driver that this thread finished. Called by the
    /// thread shim after application code returns.
    fn exit(&mut self) {
        // Exit is fire-and-forget: the driver marks the thread done
        // and never resumes it.
        self.yield_with(Syscall::Exit);
    }

    /// Runs `body` on a valid copy of `page`, faulting (and retrying)
    /// as needed. Charges fast-path access costs.
    fn with_valid_page<R>(
        &mut self,
        page: PageId,
        write: bool,
        mut body: impl FnMut(&mut PageEntry) -> R,
    ) -> R {
        let mut retries = 0;
        loop {
            let m = &mut self.mem;
            let entry = &mut m.pages[page.index()];
            if entry.valid {
                m.counters.fast_accesses += 1;
                self.pending.busy += self.costs.access_check;
                if write && entry.twin.is_none() {
                    // The twin buffer comes from the node's page pool,
                    // not a fresh allocation.
                    entry.twin = Some(m.pool.take_arc_copy_of(&entry.data));
                    self.pending.dsm += self.costs.twin_create;
                    m.dirty.push(page);
                }
                return body(entry);
            }
            retries += 1;
            assert!(
                retries < MAX_FAULT_RETRIES,
                "page {page} never became valid after {retries} faults"
            );
            self.syscall(Syscall::Fault { page, write });
        }
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
        let previous = self.baton.pass(Slot::Call(msg), &self.baton.driver);
        !matches!(previous, Slot::DriverGone)
    }

    /// Yields with `syscall` and blocks until the driver resumes this
    /// thread.
    fn syscall(&mut self, syscall: Syscall) {
        if !self.yield_with(syscall) {
            engine_gone();
        }
        self.wait_resume();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread::ThreadId as OsThreadId;
    use std::time::{Duration, Instant};

    use rsdsm_simnet::DetRng;

    use super::*;
    use crate::heap::{Heap, HomePolicy};

    const THREADS: usize = 64;
    const ROUNDS: u64 = 1_000;

    /// Every thread bumps its own word of one shared page once per
    /// round and then makes a syscall; thread `saboteur` panics
    /// instead, before any syscall.
    struct Rounds {
        saboteur: Option<usize>,
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
            if self.saboteur == Some(t) {
                panic!("thread {t} fails before its first syscall");
            }
            for round in 1..=ROUNDS {
                assert_eq!(ctx.read(words, t), round - 1, "memory came back intact");
                ctx.write(words, t, round);
                ctx.acquire(LockId(0));
            }
        }
    }

    /// Runs `app` on `threads` threads of one node under `drive`,
    /// which also gets one flat, all-valid memory to lend out (the
    /// golden model's arrangement: no faults, every syscall a no-op).
    fn run_on<P: DsmProgram, R>(
        app: &P,
        threads: usize,
        drive: impl FnOnce(Vec<ThreadLink>, NodeMem) -> R,
    ) -> Result<R, String> {
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

    /// [`run_on`] with [`THREADS`] threads.
    fn run<R>(
        app: &Rounds,
        drive: impl FnOnce(Vec<ThreadLink>, NodeMem) -> R,
    ) -> Result<R, String> {
        run_on(app, THREADS, drive)
    }

    /// Resumes live threads in a seeded random order until all exit;
    /// returns the syscalls seen. `before_burst` runs ahead of every
    /// resume.
    fn drive_randomly(
        links: &[ThreadLink],
        mem: &mut NodeMem,
        mut before_burst: impl FnMut(),
    ) -> u64 {
        let mut rng = DetRng::new(1998);
        let mut live: Vec<usize> = (0..links.len()).collect();
        let mut syscalls = 0;
        while !live.is_empty() {
            let pick = rng.next_below(live.len() as u64) as usize;
            before_burst();
            let Ok((syscall, _)) = links[live[pick]].run_burst(mem) else {
                panic!("thread {} vanished", live[pick]);
            };
            syscalls += 1;
            if syscall == Syscall::Exit {
                live.swap_remove(pick);
            }
        }
        syscalls
    }

    fn assert_all_rounds_landed(mem: &NodeMem, syscalls: u64) {
        assert_eq!(syscalls, THREADS as u64 * (ROUNDS + 1));
        for t in 0..THREADS {
            assert_eq!(mem.pages[0].data.read_u64(t * 8), ROUNDS, "thread {t}");
        }
        // One read and one write per round.
        assert_eq!(mem.counters.fast_accesses, 2 * THREADS as u64 * ROUNDS);
    }

    #[test]
    fn random_resume_order_completes_with_memory_intact() {
        let (mem, syscalls) = run(&Rounds { saboteur: None }, |links, mut mem| {
            let syscalls = drive_randomly(&links, &mut mem, || {});
            (mem, syscalls)
        })
        .expect("no thread panics");
        assert_all_rounds_landed(&mem, syscalls);
    }

    /// Rule 3. The driver leaves itself a wake token before every
    /// burst, so its first `park` returns with its own resume still in
    /// the slot; and a helper wakes the driver and every application
    /// thread — parked on a call not taken yet, or never resumed — in
    /// a tight loop for the whole run.
    #[test]
    fn spurious_wakeups_change_nothing() {
        let (mem, syscalls) = run(&Rounds { saboteur: None }, |links, mut mem| {
            let driver = thread::current();
            let stop = AtomicBool::new(false);
            let syscalls = thread::scope(|s| {
                s.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        driver.unpark();
                        links.iter().for_each(|link| link.thread.unpark());
                    }
                });
                let syscalls = drive_randomly(&links, &mut mem, || thread::current().unpark());
                stop.store(true, Ordering::SeqCst);
                syscalls
            });
            (mem, syscalls)
        })
        .expect("no thread panics");
        assert_all_rounds_landed(&mem, syscalls);
    }

    /// Threads that panicked since [`record_panicking_threads`].
    static PANICKED: Mutex<Vec<OsThreadId>> = Mutex::new(Vec::new());

    /// Chains a panic hook that records which thread panicked. The
    /// hook is process-wide and other tests of this binary panic on
    /// purpose, hence ids and not a count.
    fn record_panicking_threads() {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICKED
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(thread::current().id());
            previous(info);
        }));
    }

    #[test]
    fn dropping_the_links_ends_parked_and_unstarted_threads_silently() {
        record_panicking_threads();
        let ids = run(&Rounds { saboteur: None }, |links, mut mem| {
            // Half the threads run one burst and park on their call's
            // answer; the other half never get a first resume.
            for link in &links[..THREADS / 2] {
                assert!(link.run_burst(&mut mem).is_ok());
            }
            links
                .iter()
                .map(|link| link.thread.id())
                .collect::<Vec<_>>()
            // `links` drops here.
        })
        .expect("an abandoned thread is not a panicked thread");
        // `run` returning means every thread was joined.
        let panicked = PANICKED.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(
            ids.iter().all(|id| !panicked.contains(id)),
            "an abandoned thread went through the panic hook"
        );
    }

    #[test]
    fn a_panic_before_the_first_syscall_is_an_error_not_a_hang() {
        let driver = thread::spawn(|| {
            run(&Rounds { saboteur: Some(5) }, |links, mut mem| {
                links[5].run_burst(&mut mem).is_err()
            })
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        while !driver.is_finished() {
            assert!(
                Instant::now() < deadline,
                "the driver hung waiting for a call that never comes"
            );
            thread::sleep(Duration::from_millis(5));
        }
        let msg = driver
            .join()
            .expect("the driver itself does not panic")
            .expect_err("the panic is the run's error");
        assert!(msg.contains("fails before its first syscall"), "{msg}");
    }

    /// One thread writes seeded ranges of one array and reads each back
    /// twice — through the slice accessors, or element by element —
    /// keeping what it read.
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
                let values: Vec<T> = (start..start + len)
                    .map(|i| (self.make)(i * 7 + k))
                    .collect();
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

    /// The slice accessors move the same data as element-by-element
    /// access and touch page state — validity check, charge, twin —
    /// once per page, not once per element.
    fn slices_equal_elements<T: Pod + PartialEq + std::fmt::Debug>(make: fn(usize) -> T) {
        let run_ranges = |by_slice| {
            let app = Ranges {
                by_slice,
                make,
                read_back: Mutex::new(Vec::new()),
            };
            let (mem, charges) = run_on(&app, 1, |links, mut mem| {
                let Ok((syscall, charges)) = links[0].run_burst(&mut mem) else {
                    panic!("the thread vanished");
                };
                assert_eq!(syscall, Syscall::Exit, "all-valid memory: no fault");
                (mem, charges)
            })
            .expect("no thread panics");
            (mem, charges, app.read_back.into_inner().expect("joined"))
        };
        let (by_slice, slice_charges, slice_read) = run_ranges(true);
        let (by_element, _, element_read) = run_ranges(false);
        assert_eq!(slice_read, element_read);
        let image = |mem: &NodeMem| mem.pages.iter().map(|e| e.data.clone()).collect::<Vec<_>>();
        assert_eq!(image(&by_slice), image(&by_element));

        // What the element-at-a-time slice loops of PR 18 counted and
        // charged for these ranges (the same for every element width:
        // the ranges scale with the page): 144 accesses at 60 ns, four
        // twins at 20 µs.
        const ACCESSES: u64 = 144;
        const TWINS: usize = 4;
        assert_eq!(by_slice.counters.fast_accesses, ACCESSES);
        assert_eq!(
            slice_charges,
            Charges {
                busy: SimDuration::from_nanos(8_640),
                dsm: SimDuration::from_micros(80),
                prefetch: SimDuration::ZERO,
            }
        );
        for mem in [&by_slice, &by_element] {
            assert_eq!(mem.pages.iter().filter(|e| e.twin.is_some()).count(), TWINS);
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
        assert_eq!(by_element.counters.fast_accesses, elements);
    }

    #[test]
    fn slices_move_what_elements_move_at_one_access_per_page() {
        slices_equal_elements::<u8>(|n| n as u8);
        slices_equal_elements::<u32>(|n| (n as u32).wrapping_mul(0x0101_0101));
        slices_equal_elements::<f64>(|n| n as f64 * 0.25 - 3.0);
    }
}

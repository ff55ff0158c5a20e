//! The conductor: the application-side context, the thread/engine
//! handshake, and the one lockstep harness both executors run on.
//!
//! Every simulated application thread runs on a real OS thread, in
//! strict lockstep with a *driver* — the engine's run loop, or the
//! golden model's cooperative scheduler. The driver resumes exactly
//! one thread at a time ([`ThreadLink::run_burst`]); the thread
//! computes (accumulating charged time locally) until it needs the
//! DSM — a page fault, a synchronization operation, a prefetch — then
//! sends a [`Syscall`] and blocks until it is resumed again. This
//! keeps the whole simulation deterministic while letting application
//! code be ordinary Rust.
//!
//! Invariant: a node's memory is with exactly one party — the driver,
//! or the one thread it resumed. The resume message *is* the node's
//! [`NodeMem`], moved to the thread; the thread's next [`CallMsg`]
//! moves it back. A [`DsmCtx`] therefore reads and writes pages as
//! plain owned data between its resume and its next syscall, the
//! driver does the same between bursts, and the channel send/recv
//! that orders the two is the only synchronisation there is.
//!
//! [`DsmCtx`] is the API visible to applications: typed reads/writes
//! on [`SharedVec`] handles, locks, barriers, prefetches, and explicit
//! compute-time charging. [`lockstep`] builds the contexts and links,
//! spawns the threads and tears them down.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread;

use rsdsm_protocol::PageId;
use rsdsm_simnet::SimDuration;

use crate::config::PrefetchConfig;
use crate::costs::CostModel;
use crate::heap::{Pod, SharedVec};
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

/// The driver's end of one application thread's handshake.
pub(crate) struct ThreadLink {
    resume_tx: SyncSender<NodeMem>,
    call_rx: Receiver<CallMsg>,
}

impl ThreadLink {
    /// Runs the thread for one burst: moves `mem` (its node's memory)
    /// to it, blocks until its next syscall, and puts the memory the
    /// syscall carries back. `mem` is an empty placeholder in between,
    /// which nothing can observe — the caller is blocked here.
    pub(crate) fn run_burst(&self, mem: &mut NodeMem) -> Result<(Syscall, Charges), ThreadGone> {
        self.resume_tx
            .send(std::mem::take(mem))
            .map_err(|_| ThreadGone)?;
        let call = self.call_rx.recv().map_err(|_| ThreadGone)?;
        *mem = call.mem;
        Ok((call.syscall, call.charges))
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
        for t in 0..threads {
            // Lockstep keeps at most one message in flight each way, so
            // one slot is enough and a send never blocks.
            let (resume_tx, resume_rx) = mpsc::sync_channel(1);
            let (call_tx, call_rx) = mpsc::sync_channel(1);
            links.push(ThreadLink { resume_tx, call_rx });
            let mut ctx = DsmCtx {
                tid: ThreadId(t),
                node: node_of(t),
                num_threads: threads,
                mem: NodeMem::default(),
                costs: costs.clone(),
                prefetch_cfg: prefetch_cfg.clone(),
                resume_rx,
                call_tx,
                pending: Charges::default(),
            };
            let h = handles.clone();
            shims.push(s.spawn(move || {
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    ctx.wait_resume();
                    app.run(&mut ctx, &h);
                    ctx.exit();
                }))
                .err()?;
                if payload.is::<EngineGone>() {
                    return None;
                }
                Some(
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "<non-string panic>".to_string()),
                )
            }));
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
    resume_rx: Receiver<NodeMem>,
    call_tx: SyncSender<CallMsg>,
    pending: Charges,
}

impl DsmCtx {
    /// Blocks until the driver resumes this thread, and takes the
    /// node's memory it sends along.
    fn wait_resume(&mut self) {
        match self.resume_rx.recv() {
            Ok(mem) => self.mem = mem,
            Err(_) => engine_gone(),
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
    /// how the real system behaves (a fault per page, not per element).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, out: &mut [T]) {
        for (page, range) in v.locate_range(start, start + out.len()) {
            self.with_valid_page(page, false, |entry| {
                for i in range.clone() {
                    let off = i * T::BYTES % rsdsm_protocol::PAGE_SIZE;
                    out[i - start] = T::read_le(&entry.data.bytes()[off..off + T::BYTES]);
                }
            });
        }
    }

    /// Writes `values` to elements `start..start + values.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_slice<T: Pod>(&mut self, v: &SharedVec<T>, start: usize, values: &[T]) {
        for (page, range) in v.locate_range(start, start + values.len()) {
            self.with_valid_page(page, true, |entry| {
                for i in range.clone() {
                    let off = i * T::BYTES % rsdsm_protocol::PAGE_SIZE;
                    values[i - start].write_le(&mut entry.data.bytes_mut()[off..off + T::BYTES]);
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
            if m.pages[page.index()].valid {
                m.counters.pf_unnecessary += 1;
                continue;
            }
            if m.prefetch_inflight.contains_key(&page) {
                m.counters.pf_suppressed_inflight += 1;
                continue;
            }
            if self.prefetch_cfg.suppress_redundant && m.epoch_prefetched.contains(&page) {
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
                m.epoch_prefetched.insert(page);
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
                    // not a fresh zeroing allocation.
                    entry.twin = Some(m.pool.take_arc_copy_of(&entry.data));
                    self.pending.dsm += self.costs.twin_create;
                    m.dirty.push(page);
                    if m.twin_log_on {
                        m.twin_log.push(page);
                    }
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
        self.call_tx.send(msg).is_ok()
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

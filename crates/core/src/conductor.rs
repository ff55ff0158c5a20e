//! The application-side context and the thread/engine handshake.
//!
//! Every simulated application thread runs on a real OS thread, in
//! strict lockstep with the engine: the engine resumes exactly one
//! thread at a time, the thread computes (accumulating charged time
//! locally) until it needs the DSM — a page fault, a synchronization
//! operation, a prefetch — then sends a [`Syscall`] and blocks until
//! the engine resumes it. This keeps the whole simulation
//! deterministic while letting application code be ordinary Rust.
//!
//! [`DsmCtx`] is the API visible to applications: typed reads/writes
//! on [`SharedVec`] handles, locks, barriers, prefetches, and explicit
//! compute-time charging.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

use rsdsm_protocol::PageId;
use rsdsm_simnet::SimDuration;

use crate::config::PrefetchConfig;
use crate::costs::CostModel;
use crate::heap::{Pod, SharedVec};
use crate::msg::{BarrierId, LockId};
use crate::node::NodeMem;
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

/// What a thread sends when it yields to the engine.
#[derive(Debug)]
pub(crate) struct CallMsg {
    /// The request.
    pub syscall: Syscall,
    /// Time accumulated since the last resume.
    pub charges: Charges,
}

/// Unwind payload of an application thread whose engine is gone: the
/// run ended in a [`SimError`](crate::SimError) and dropped the
/// channels this thread was parked on. Raised with `resume_unwind`,
/// which bypasses the panic hook, and recognised by the engine's
/// thread shim — so the thread ends silently and the one error of the
/// run is the one the main thread returns.
pub(crate) struct EngineGone;

/// Ends this application thread because the engine is gone.
fn engine_gone() -> ! {
    std::panic::resume_unwind(Box::new(EngineGone))
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
    mem: Arc<Mutex<Vec<NodeMem>>>,
    costs: CostModel,
    prefetch_cfg: PrefetchConfig,
    resume_rx: Receiver<()>,
    call_tx: Sender<CallMsg>,
    pending: Charges,
}

impl DsmCtx {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        tid: ThreadId,
        node: usize,
        num_threads: usize,
        mem: Arc<Mutex<Vec<NodeMem>>>,
        costs: CostModel,
        prefetch_cfg: PrefetchConfig,
        resume_rx: Receiver<()>,
        call_tx: Sender<CallMsg>,
    ) -> Self {
        DsmCtx {
            tid,
            node,
            num_threads,
            mem,
            costs,
            prefetch_cfg,
            resume_rx,
            call_tx,
            pending: Charges::default(),
        }
    }

    /// Blocks until the engine first resumes this thread. Called once
    /// by the thread shim before entering application code.
    pub(crate) fn wait_start(&self) {
        if self.resume_rx.recv().is_err() {
            engine_gone();
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
        let spans: Vec<_> = v.locate_range(start, start + out.len()).collect();
        for (page, range) in spans {
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
        let spans: Vec<_> = v.locate_range(start, start + values.len()).collect();
        for (page, range) in spans {
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
        if !self.prefetch_cfg.honors_annotations() {
            return;
        }
        let pages = v.pages_for_range(start, end);
        let mut to_issue = Vec::new();
        {
            let mut mem = self.mem.lock().expect("mem mutex");
            let m = &mut mem[self.node];
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
        if !self.prefetch_cfg.honors_annotations() || !self.prefetch_cfg.compiler_style {
            return;
        }
        self.pending.prefetch += self.costs.prefetch_check * count as u64;
        let mut mem = self.mem.lock().expect("mem mutex");
        let m = &mut mem[self.node];
        m.counters.pf_calls += count as u64;
        m.counters.pf_unnecessary += count as u64;
        m.counters.pf_private_checks += count as u64;
    }

    /// Signals the engine that this thread finished. Called by the
    /// thread shim after application code returns.
    pub(crate) fn exit(&mut self) {
        let charges = std::mem::take(&mut self.pending);
        // Exit is fire-and-forget: the engine marks the thread done
        // and never resumes it.
        let _ = self.call_tx.send(CallMsg {
            syscall: Syscall::Exit,
            charges,
        });
    }

    /// Runs `body` on a valid copy of `page`, faulting (and retrying)
    /// as needed. Charges fast-path access costs.
    fn with_valid_page<R>(
        &mut self,
        page: PageId,
        write: bool,
        mut body: impl FnMut(&mut crate::node::PageEntry) -> R,
    ) -> R {
        let mut retries = 0;
        loop {
            {
                let mut mem = self.mem.lock().expect("mem mutex");
                let m = &mut mem[self.node];
                if m.pages[page.index()].valid {
                    m.counters.fast_accesses += 1;
                    self.pending.busy += self.costs.access_check;
                    if write && m.pages[page.index()].twin.is_none() {
                        // Split borrows: the twin buffer comes from the
                        // node's page pool, not a fresh zeroing allocation.
                        let crate::node::NodeMem { pages, pool, .. } = &mut *m;
                        let entry = &mut pages[page.index()];
                        entry.twin = Some(pool.take_arc_copy_of(&entry.data));
                        self.pending.dsm += self.costs.twin_create;
                        m.dirty.push(page);
                        if m.twin_log_on {
                            m.twin_log.push(page);
                        }
                    }
                    return body(&mut m.pages[page.index()]);
                }
            }
            retries += 1;
            assert!(
                retries < MAX_FAULT_RETRIES,
                "page {page} never became valid after {retries} faults"
            );
            self.syscall(Syscall::Fault { page, write });
        }
    }

    /// Flushes pending charges with `syscall` and blocks until the
    /// engine resumes this thread.
    fn syscall(&mut self, syscall: Syscall) {
        let charges = std::mem::take(&mut self.pending);
        if self.call_tx.send(CallMsg { syscall, charges }).is_err()
            || self.resume_rx.recv().is_err()
        {
            engine_gone();
        }
    }
}

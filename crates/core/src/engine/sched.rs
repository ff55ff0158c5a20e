//! Scheduling: the event queue, the handles to the application
//! threads, CPU-time charging, and the dispatch / block / wake cycle
//! that moves a thread between its compute bursts and its syscalls.
//!
//! Invariant: at most one application thread runs at any instant —
//! the engine resumes a thread only from [`Core::run_thread`], lending
//! it its node's memory, and runs it to its next syscall (which brings
//! the memory back) before touching anything else — and a node's CPU
//! holds at most one burst at a time.

use rsdsm_simnet::{EventQueue, HeapQueue, NodeId, QueueBackend, SimDuration, SimTime};

use super::{Core, Event};
use crate::accounting::{Category, IdleReason};
use crate::conductor::{Charges, Syscall, ThreadLink};
use crate::msg::FetchClass;
use crate::node::Burst;
use crate::report::SimError;
use crate::thread::{BlockReason, ThreadId, ThreadState};
use crate::trace::{TraceEvent, NO_CAUSE};

/// Engine-side handle to one application thread.
pub(super) struct ThreadPeer<'a> {
    link: ThreadLink<'a>,
    state: ThreadState,
    pending_syscall: Option<Syscall>,
    run_busy: SimDuration,
    last_block: Option<BlockReason>,
}

impl<'a> ThreadPeer<'a> {
    /// A handle to a thread that has not started yet.
    pub(super) fn new(link: ThreadLink<'a>) -> Self {
        ThreadPeer {
            link,
            state: ThreadState::Ready,
            pending_syscall: None,
            run_busy: SimDuration::ZERO,
            last_block: None,
        }
    }
}

/// The engine's event queue: the timing wheel by default, the
/// binary-heap reference when selected. Both implement the identical
/// earliest-time, FIFO-tie-broken contract (differentially tested in
/// simnet), so the choice can never change simulation results.
// The wheel variant is ~1 KB of wheel headers (slot storage is on the
// heap regardless). Exactly one Queue lives for a whole simulation,
// inline in the engine — boxing it would buy nothing and cost a
// pointer chase on every event push and pop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Queue {
    Wheel(EventQueue<Event>),
    Heap(HeapQueue<Event>),
}

impl Queue {
    fn with_capacity(backend: QueueBackend, capacity: usize) -> Self {
        match backend {
            QueueBackend::Wheel => Queue::Wheel(EventQueue::with_capacity(capacity)),
            QueueBackend::Heap => Queue::Heap(HeapQueue::with_capacity(capacity)),
        }
    }

    fn push(&mut self, at: SimTime, event: Event) {
        match self {
            Queue::Wheel(q) => q.push(at, event),
            Queue::Heap(q) => q.push(at, event),
        }
    }

    fn push_batch<I: IntoIterator<Item = (SimTime, Event)>>(&mut self, events: I) {
        match self {
            Queue::Wheel(q) => q.push_batch(events),
            Queue::Heap(q) => q.push_batch(events),
        }
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        match self {
            Queue::Wheel(q) => q.pop(),
            Queue::Heap(q) => q.pop(),
        }
    }
}

/// The event queue plus the application threads it drives.
pub(super) struct Sched<'a> {
    queue: Queue,
    threads: Vec<ThreadPeer<'a>>,
    /// Threads that have exited.
    done: usize,
    /// Latest exit time so far: the run's finish once all are done.
    finish: SimTime,
}

impl<'a> Sched<'a> {
    /// A scheduler over `threads`, each with its start event queued at
    /// time zero; `extra_capacity` sizes the queue for what the caller
    /// is about to push.
    pub(super) fn new(
        backend: QueueBackend,
        threads: Vec<ThreadPeer<'a>>,
        extra_capacity: usize,
    ) -> Self {
        let mut queue = Queue::with_capacity(backend, threads.len() + extra_capacity);
        queue.push_batch((0..threads.len()).map(|t| (SimTime::ZERO, Event::Start(ThreadId(t)))));
        Sched {
            queue,
            threads,
            done: 0,
            finish: SimTime::ZERO,
        }
    }

    /// Schedules `event` at `at` (FIFO among events at the same time).
    pub(super) fn push(&mut self, at: SimTime, event: Event) {
        self.queue.push(at, event);
    }

    /// The earliest pending event.
    pub(super) fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.queue.pop()
    }

    /// Whether every application thread has exited.
    pub(super) fn all_done(&self) -> bool {
        self.done == self.threads.len()
    }

    /// When the last thread so far exited.
    pub(super) fn finish(&self) -> SimTime {
        self.finish
    }
}

impl Core<'_> {
    /// The deadlock report: which threads are stuck, on what, since
    /// when.
    pub(super) fn describe_blocked(&self) -> String {
        let blocked: Vec<String> = self
            .sched
            .threads
            .iter()
            .enumerate()
            .filter_map(|(t, p)| match p.state {
                ThreadState::Blocked(reason, since) => {
                    Some(format!("thread {t} blocked on {reason:?} since {since}"))
                }
                _ => None,
            })
            .collect();
        format!(
            "event queue empty with {} threads stuck: {}",
            blocked.len(),
            blocked.join("; ")
        )
    }

    // ------------------------------------------------------------------
    // CPU accounting
    // ------------------------------------------------------------------

    /// Charges `dur` of CPU work on node `n` starting around `at`.
    /// If an application burst is in progress, the work preempts it
    /// (interrupt-driven servicing): the burst is pushed back and the
    /// work completes at `at + dur`. Otherwise the work queues on the
    /// CPU normally, attributing any idle gap to `idle`.
    pub(super) fn charge(
        &mut self,
        n: NodeId,
        at: SimTime,
        dur: SimDuration,
        cat: Category,
        idle: Option<IdleReason>,
    ) -> SimTime {
        let node = &mut self.nodes[n];
        if let Some(burst) = &mut node.burst {
            if at < burst.end + burst.penalty {
                let cpu_free = node.account.cpu_free();
                node.account.consume(cpu_free, dur, cat, None);
                burst.penalty += dur;
                return at + dur;
            }
        }
        node.account.consume(at, dur, cat, idle)
    }

    /// Why node `n`'s CPU is idle right now, judged by its blocked
    /// threads (memory takes precedence over sync).
    pub(super) fn idle_reason(&self, n: NodeId) -> Option<IdleReason> {
        let tpn = self.tpn();
        let mut reason = None;
        for t in n * tpn..(n + 1) * tpn {
            if let ThreadState::Blocked(r, _) = self.sched.threads[t].state {
                if r == BlockReason::Memory {
                    return Some(IdleReason::Memory);
                }
                reason = Some(IdleReason::Sync);
            }
        }
        reason
    }

    // ------------------------------------------------------------------
    // Thread scheduling
    // ------------------------------------------------------------------

    /// A thread's initial activation.
    pub(super) fn on_start(&mut self, tid: ThreadId, now: SimTime) -> Result<(), SimError> {
        let n = tid.node(self.tpn());
        self.nodes[n].sched.make_ready(tid);
        self.maybe_dispatch(n, now)
    }

    pub(super) fn maybe_dispatch(&mut self, n: NodeId, now: SimTime) -> Result<(), SimError> {
        if self.nodes[n].burst.is_some()
            || self.nodes[n].pinned.is_some()
            || !self.nodes[n].sched.can_dispatch()
        {
            return Ok(());
        }
        let (tid, is_switch) = self.nodes[n].sched.dispatch();
        let idle = self.sched.threads[tid.0].last_block.map(|r| match r {
            BlockReason::Memory => IdleReason::Memory,
            _ => IdleReason::Sync,
        });
        let mut at = now;
        if is_switch {
            self.nodes[n].mt.switches += 1;
            self.tracer.emit(
                now,
                n as u32,
                tid.0 as u32,
                NO_CAUSE,
                TraceEvent::ThreadSwitch { to: tid.0 as u32 },
            );
            at = self.charge(
                n,
                now,
                self.cfg.costs.context_switch,
                Category::MtOverhead,
                idle,
            );
        }
        self.sched.threads[tid.0].state = ThreadState::Running;
        self.run_thread(tid, at, idle)
    }

    /// Resumes thread `tid`, receives its next syscall, books its
    /// accumulated charges as a burst starting at `at`, and schedules
    /// the syscall's maturity.
    pub(super) fn run_thread(
        &mut self,
        tid: ThreadId,
        at: SimTime,
        idle: Option<IdleReason>,
    ) -> Result<(), SimError> {
        let n = tid.node(self.tpn());
        let twinned = self.nodes[n].mem.dirty.len();
        let (syscall, charges) = self.sched.threads[tid.0]
            .link
            .run_burst(&mut self.nodes[n].mem)
            .map_err(|gone| SimError::AppThread(gone.0))?;
        if self.tracer.is_on() {
            // Twins are created inside the conductor while the app
            // thread runs its burst — each one lengthens the dirty
            // list, which nothing else touches meanwhile — and are
            // traced here so their records land in the engine's
            // deterministic event order.
            for page in &self.nodes[n].mem.dirty[twinned..] {
                self.tracer.emit(
                    at,
                    n as u32,
                    tid.0 as u32,
                    NO_CAUSE,
                    TraceEvent::TwinCreate {
                        page: page.index() as u32,
                    },
                );
            }
        }
        let Charges {
            busy,
            dsm,
            prefetch,
        } = charges;
        let mut end = self.charge(n, at, busy, Category::Busy, idle);
        if !dsm.is_zero() {
            end = self.charge(n, end, dsm, Category::DsmOverhead, None);
        }
        if !prefetch.is_zero() {
            end = self.charge(n, end, prefetch, Category::PrefetchOverhead, None);
        }
        let peer = &mut self.sched.threads[tid.0];
        peer.run_busy += busy;
        peer.pending_syscall = Some(syscall);
        self.nodes[n].burst = Some(Burst {
            tid,
            end,
            penalty: SimDuration::ZERO,
        });
        self.sched.push(end, Event::SyscallReady(tid));
        Ok(())
    }

    pub(super) fn on_syscall_ready(&mut self, tid: ThreadId, now: SimTime) -> Result<(), SimError> {
        let n = tid.node(self.tpn());
        {
            let node = &mut self.nodes[n];
            let burst = node.burst.as_mut().expect("burst for maturing syscall");
            assert_eq!(burst.tid, tid, "burst/thread mismatch");
            if !burst.penalty.is_zero() {
                // Interrupt servicing pushed the burst back; try again
                // at the extended end.
                burst.end += burst.penalty;
                burst.penalty = SimDuration::ZERO;
                let end = burst.end;
                self.sched.push(end, Event::SyscallReady(tid));
                return Ok(());
            }
            node.burst = None;
        }
        let syscall = self.sched.threads[tid.0]
            .pending_syscall
            .take()
            .expect("pending syscall");
        self.handle_syscall(tid, n, syscall, now)
    }

    /// Blocks `tid` with `reason`, recording its run length and
    /// triggering a context switch when the configuration allows one
    /// for this kind of stall.
    pub(super) fn block(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        reason: BlockReason,
        now: SimTime,
    ) -> Result<(), SimError> {
        let peer = &mut self.sched.threads[tid.0];
        self.nodes[n].mt.run_length_sum += peer.run_busy;
        self.nodes[n].mt.run_length_count += 1;
        peer.run_busy = SimDuration::ZERO;
        peer.state = ThreadState::Blocked(reason, now);
        peer.last_block = Some(reason);
        self.nodes[n].sched.yield_cpu(tid);
        let switch_allowed = if reason == BlockReason::Memory {
            self.cfg.threads.switch_on_memory
        } else {
            self.cfg.threads.is_multithreaded()
        };
        if switch_allowed {
            self.maybe_dispatch(n, now)?;
        } else if self.cfg.threads.is_multithreaded() {
            self.nodes[n].pinned = Some(tid);
        }
        Ok(())
    }

    /// Wakes a blocked thread, accounting its stall.
    pub(super) fn wake(&mut self, tid: ThreadId, now: SimTime) -> Result<(), SimError> {
        let n = tid.node(self.tpn());
        let peer = &mut self.sched.threads[tid.0];
        let ThreadState::Blocked(reason, since) = peer.state else {
            panic!("waking thread {tid:?} that is not blocked");
        };
        let stall = now.saturating_since(since);
        let node = &mut self.nodes[n];
        match reason {
            BlockReason::Memory => node.misses.stall_sum += stall,
            BlockReason::Lock => {
                node.lock_stats.stall_sum += stall;
                node.lock_stats.waits += 1;
            }
            BlockReason::Barrier => {
                node.barrier_stats.stall_sum += stall;
                node.barrier_stats.waits += 1;
            }
        }
        peer.state = ThreadState::Ready;
        if self.nodes[n].pinned == Some(tid) {
            self.nodes[n].pinned = None;
            self.nodes[n].sched.make_ready_front(tid);
        } else {
            self.nodes[n].sched.make_ready(tid);
        }
        self.maybe_dispatch(n, now)
    }

    // ------------------------------------------------------------------
    // Syscall handling
    // ------------------------------------------------------------------

    fn handle_syscall(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        syscall: Syscall,
        now: SimTime,
    ) -> Result<(), SimError> {
        match syscall {
            Syscall::Exit => {
                let peer = &mut self.sched.threads[tid.0];
                peer.state = ThreadState::Done;
                self.nodes[n].mt.run_length_sum += peer.run_busy;
                self.nodes[n].mt.run_length_count += 1;
                self.sched.done += 1;
                self.sched.finish = self.sched.finish.max(now);
                self.nodes[n].sched.yield_cpu(tid);
                self.maybe_dispatch(n, now)
            }
            Syscall::Fault { page, write } => self.handle_fault(tid, n, page, write, now),
            Syscall::Acquire(lock) => self.handle_acquire(tid, n, lock, now),
            Syscall::Release(lock) => self.handle_release(tid, n, lock, now),
            Syscall::Barrier(id) => self.handle_barrier_arrive(tid, n, id, now),
            Syscall::Prefetch(pages) => {
                let end = self.handle_prefetch(n, &pages, now, NO_CAUSE, FetchClass::Static);
                self.run_thread(tid, end, None)
            }
        }
    }
}

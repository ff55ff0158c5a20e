//! Scheduling: the event queue, the handles to the application
//! threads, each node's CPU, CPU-time charging, and the dispatch /
//! block / wake cycle that moves a thread between its compute bursts
//! and its syscalls.
//!
//! Invariant: at most one application thread runs at any instant —
//! the engine resumes a thread only from [`Core::run_thread`], lending
//! it its node's memory, and runs it to its next syscall (which brings
//! the memory back) before touching anything else — and a node's CPU
//! holds at most one burst at a time: which thread holds a CPU, and
//! how, is one [`Holder`] value.

use std::collections::VecDeque;

use rsdsm_simnet::{EventQueue, HeapQueue, NodeId, QueueBackend, SimDuration, SimTime};

use super::{Core, Event};
use crate::accounting::{Category, IdleReason};
use crate::conductor::{Charges, Syscall, ThreadLink};
use crate::msg::FetchClass;
use crate::report::SimError;
use crate::thread::{BlockReason, ThreadId};
use crate::trace::{TraceEvent, NO_CAUSE};

/// Engine-side handle to one application thread.
pub(super) struct ThreadPeer<'a> {
    link: ThreadLink<'a>,
    /// What the thread waits for, and since when; `None` while it is
    /// ready, holds its CPU, or has exited.
    blocked: Option<(BlockReason, SimTime)>,
    run_busy: SimDuration,
    last_block: Option<BlockReason>,
}

impl<'a> ThreadPeer<'a> {
    /// A handle to a thread that has not started yet.
    pub(super) fn new(link: ThreadLink<'a>) -> Self {
        ThreadPeer {
            link,
            blocked: None,
            run_busy: SimDuration::ZERO,
            last_block: None,
        }
    }
}

/// Who holds a node's CPU.
#[derive(Debug, Default)]
enum Holder {
    /// Nobody: the next ready thread may be dispatched.
    #[default]
    Free,
    /// A thread whose syscall the engine is handling.
    Thread(ThreadId),
    /// A thread's compute burst.
    Burst(Burst),
    /// A thread that stalled without switching (a combined-mode
    /// memory stall, §5) keeps the CPU until it wakes.
    Pinned(ThreadId),
}

/// A thread's compute burst, committed to its CPU.
#[derive(Debug)]
struct Burst {
    tid: ThreadId,
    /// When the burst's syscall matures.
    end: SimTime,
    /// Interrupt servicing that preempted the burst since `end` was
    /// set; it pushes `end` back.
    penalty: SimDuration,
    /// What the burst matures into.
    syscall: Syscall,
}

/// One node's CPU: a FIFO ready queue, the thread that ran last (so a
/// dispatch knows whether it is a context switch), and its holder.
#[derive(Debug, Default)]
struct Cpu {
    ready: VecDeque<ThreadId>,
    last_run: Option<ThreadId>,
    holder: Holder,
}

impl Cpu {
    /// Queues `tid` to run: behind its siblings, or — when it is the
    /// thread pinning the CPU — ahead of them, on a CPU it frees.
    fn make_ready(&mut self, tid: ThreadId) {
        debug_assert!(!self.ready.contains(&tid), "thread already ready");
        if matches!(self.holder, Holder::Pinned(t) if t == tid) {
            self.holder = Holder::Free;
            self.ready.push_front(tid);
        } else {
            self.ready.push_back(tid);
        }
    }

    /// True when a thread is waiting to run and the CPU is free.
    fn can_dispatch(&self) -> bool {
        matches!(self.holder, Holder::Free) && !self.ready.is_empty()
    }

    /// Gives the CPU to the next ready thread. Returns the thread and
    /// whether this dispatch is a context switch (a different thread
    /// than last ran).
    ///
    /// # Panics
    ///
    /// Panics if the CPU is occupied or no thread is ready.
    fn dispatch(&mut self) -> (ThreadId, bool) {
        assert!(matches!(self.holder, Holder::Free), "CPU already occupied");
        let tid = self.ready.pop_front().expect("a ready thread");
        let is_switch = self.last_run.is_some_and(|last| last != tid);
        self.holder = Holder::Thread(tid);
        self.last_run = Some(tid);
        (tid, is_switch)
    }

    /// Takes the CPU from `tid`, which blocked or exited; `pin` leaves
    /// it pinned to `tid` instead of free.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the CPU.
    fn release(&mut self, tid: ThreadId, pin: bool) {
        self.holder = match self.holder {
            Holder::Thread(t) if t == tid && pin => Holder::Pinned(tid),
            Holder::Thread(t) if t == tid => Holder::Free,
            _ => panic!("only the running thread can yield"),
        };
    }

    /// Commits `tid`'s compute burst: its `syscall` matures at `end`.
    fn start_burst(&mut self, tid: ThreadId, end: SimTime, syscall: Syscall) {
        self.holder = Holder::Burst(Burst {
            tid,
            end,
            penalty: SimDuration::ZERO,
            syscall,
        });
    }

    /// `tid`'s burst reached its end: its syscall, with the CPU back
    /// to `tid`, or — when interrupt servicing pushed the burst back —
    /// the extended end to try again at.
    ///
    /// # Panics
    ///
    /// Panics if the CPU holds no burst of `tid`'s.
    fn mature(&mut self, tid: ThreadId) -> Result<Syscall, SimTime> {
        if let Holder::Burst(b) = &mut self.holder {
            if b.tid == tid && !b.penalty.is_zero() {
                b.end += std::mem::take(&mut b.penalty);
                return Err(b.end);
            }
        }
        match std::mem::replace(&mut self.holder, Holder::Thread(tid)) {
            Holder::Burst(b) if b.tid == tid => Ok(b.syscall),
            other => panic!("no burst of {tid:?}'s to mature: {other:?}"),
        }
    }

    /// Work of length `dur` arriving at `at` preempts the burst in
    /// progress, if there is one and it is not over yet: the burst is
    /// pushed back by `dur`. Returns whether it preempted.
    fn preempt(&mut self, at: SimTime, dur: SimDuration) -> bool {
        match &mut self.holder {
            Holder::Burst(b) if at < b.end + b.penalty => {
                b.penalty += dur;
                true
            }
            _ => false,
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

/// The event queue plus the application threads it drives and the
/// nodes' CPUs they run on.
pub(super) struct Sched<'a> {
    queue: Queue,
    threads: Vec<ThreadPeer<'a>>,
    /// One CPU per node.
    cpus: Vec<Cpu>,
    /// Threads that have exited.
    done: usize,
    /// Latest exit time so far: the run's finish once all are done.
    finish: SimTime,
    /// The instant of the last popped event: the engine's present.
    now: SimTime,
}

impl<'a> Sched<'a> {
    /// A scheduler over `threads` on `nodes` free CPUs, each thread
    /// with its start event queued at time zero; `extra_capacity`
    /// sizes the queue for what the caller is about to push.
    pub(super) fn new(
        backend: QueueBackend,
        threads: Vec<ThreadPeer<'a>>,
        nodes: usize,
        extra_capacity: usize,
    ) -> Self {
        let mut queue = Queue::with_capacity(backend, threads.len() + extra_capacity);
        queue.push_batch((0..threads.len()).map(|t| (SimTime::ZERO, Event::Start(ThreadId(t)))));
        Sched {
            queue,
            threads,
            cpus: std::iter::repeat_with(Cpu::default).take(nodes).collect(),
            done: 0,
            finish: SimTime::ZERO,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at `at` (FIFO among events at the same time).
    /// Simulated time never runs backwards: `at` is never before the
    /// engine's present.
    pub(super) fn push(&mut self, at: SimTime, event: Event) {
        debug_assert!(
            at >= self.now,
            "{event:?} scheduled at {at}, before the present {}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// The earliest pending event.
    pub(super) fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.queue.pop().inspect(|&(at, _)| self.now = at)
    }

    /// Whether every application thread has exited.
    pub(super) fn all_done(&self) -> bool {
        self.done == self.threads.len()
    }

    /// When the last thread so far exited.
    pub(super) fn finish(&self) -> SimTime {
        self.finish
    }

    /// Pushes node `n`'s burst in progress, if any, back by `by`: the
    /// node was suspended that long.
    pub(super) fn shift_burst(&mut self, n: NodeId, by: SimDuration) {
        if let Holder::Burst(b) = &mut self.cpus[n].holder {
            b.end += by;
        }
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
            .filter_map(|(t, p)| {
                let (reason, since) = p.blocked?;
                Some(format!("thread {t} blocked on {reason:?} since {since}"))
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
        let account = &mut self.nodes[n].account;
        if self.sched.cpus[n].preempt(at, dur) {
            let cpu_free = account.cpu_free();
            account.consume(cpu_free, dur, cat, None);
            return at + dur;
        }
        account.consume(at, dur, cat, idle)
    }

    /// Why node `n`'s CPU is idle right now, judged by its blocked
    /// threads (memory takes precedence over sync).
    pub(super) fn idle_reason(&self, n: NodeId) -> Option<IdleReason> {
        let tpn = self.tpn();
        let mut reason = None;
        for t in n * tpn..(n + 1) * tpn {
            if let Some((r, _)) = self.sched.threads[t].blocked {
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
        self.sched.cpus[n].make_ready(tid);
        self.maybe_dispatch(n, now)
    }

    pub(super) fn maybe_dispatch(&mut self, n: NodeId, now: SimTime) -> Result<(), SimError> {
        let cpu = &mut self.sched.cpus[n];
        if !cpu.can_dispatch() {
            return Ok(());
        }
        let (tid, is_switch) = cpu.dispatch();
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
            // log, which nothing else touches meanwhile — and are
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
        self.sched.threads[tid.0].run_busy += busy;
        self.sched.cpus[n].start_burst(tid, end, syscall);
        self.sched.push(end, Event::SyscallReady(tid));
        Ok(())
    }

    pub(super) fn on_syscall_ready(&mut self, tid: ThreadId, now: SimTime) -> Result<(), SimError> {
        let n = tid.node(self.tpn());
        match self.sched.cpus[n].mature(tid) {
            Ok(syscall) => self.handle_syscall(tid, n, syscall, now),
            Err(end) => {
                self.sched.push(end, Event::SyscallReady(tid));
                Ok(())
            }
        }
    }

    /// Ends `tid`'s run on node `n`'s CPU: books its run length and
    /// takes the CPU from it, leaving it `pin`ned to `tid` or free.
    fn end_run(&mut self, tid: ThreadId, n: NodeId, pin: bool) {
        let run = std::mem::take(&mut self.sched.threads[tid.0].run_busy);
        self.nodes[n].mt.run_length_sum += run;
        self.nodes[n].mt.run_length_count += 1;
        self.sched.cpus[n].release(tid, pin);
    }

    /// Blocks `tid` with `reason`, recording its run length, and
    /// hands the CPU to the next ready thread — unless this kind of
    /// stall pins it: §5's combined mode does not switch on a memory
    /// stall. (With one thread a node there is nothing to switch to.)
    pub(super) fn block(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        reason: BlockReason,
        now: SimTime,
    ) -> Result<(), SimError> {
        let threads = &self.cfg.threads;
        let pin = threads.is_multithreaded()
            && reason == BlockReason::Memory
            && !threads.switch_on_memory;
        self.end_run(tid, n, pin);
        let peer = &mut self.sched.threads[tid.0];
        peer.blocked = Some((reason, now));
        peer.last_block = Some(reason);
        self.maybe_dispatch(n, now)
    }

    /// Wakes a blocked thread, accounting its stall.
    pub(super) fn wake(&mut self, tid: ThreadId, now: SimTime) -> Result<(), SimError> {
        let n = tid.node(self.tpn());
        let Some((reason, since)) = self.sched.threads[tid.0].blocked.take() else {
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
        self.sched.cpus[n].make_ready(tid);
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
                self.end_run(tid, n, false);
                self.sched.done += 1;
                self.sched.finish = self.sched.finish.max(now);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_dispatch_order() {
        let mut cpu = Cpu::default();
        cpu.make_ready(ThreadId(1));
        cpu.make_ready(ThreadId(2));
        let (t, sw) = cpu.dispatch();
        assert_eq!(t, ThreadId(1));
        assert!(!sw, "first dispatch is not a switch");
        cpu.release(ThreadId(1), false);
        let (t, sw) = cpu.dispatch();
        assert_eq!(t, ThreadId(2));
        assert!(sw, "different thread means a switch");
    }

    #[test]
    fn redispatch_of_same_thread_is_not_a_switch() {
        let mut cpu = Cpu::default();
        cpu.make_ready(ThreadId(5));
        let _ = cpu.dispatch();
        cpu.release(ThreadId(5), false);
        cpu.make_ready(ThreadId(5));
        let (_, sw) = cpu.dispatch();
        assert!(!sw);
    }

    #[test]
    fn can_dispatch_requires_idle_cpu_and_ready_thread() {
        let mut cpu = Cpu::default();
        assert!(!cpu.can_dispatch());
        cpu.make_ready(ThreadId(0));
        cpu.make_ready(ThreadId(1));
        assert!(cpu.can_dispatch());
        let _ = cpu.dispatch();
        assert!(!cpu.can_dispatch(), "the CPU is held");
        assert!(matches!(cpu.holder, Holder::Thread(ThreadId(0))));
        cpu.start_burst(ThreadId(0), SimTime::ZERO, Syscall::Exit);
        assert!(!cpu.can_dispatch(), "a burst holds the CPU");
        assert!(matches!(cpu.mature(ThreadId(0)), Ok(Syscall::Exit)));
        assert!(!cpu.can_dispatch(), "its syscall holds the CPU");
        assert_eq!(cpu.ready.len(), 1);
    }

    #[test]
    #[should_panic(expected = "CPU already occupied")]
    fn double_dispatch_panics() {
        let mut cpu = Cpu::default();
        cpu.make_ready(ThreadId(0));
        cpu.make_ready(ThreadId(1));
        let _ = cpu.dispatch();
        let _ = cpu.dispatch();
    }

    /// §5's combined mode does not switch on a memory stall: the
    /// stalled thread keeps the CPU, so a sibling woken meanwhile
    /// waits, and the stalled thread resumes first, without a switch.
    #[test]
    fn a_pinned_thread_keeps_the_cpu_and_resumes_first() {
        let mut cpu = Cpu::default();
        cpu.make_ready(ThreadId(0));
        cpu.make_ready(ThreadId(1));
        let (t, _) = cpu.dispatch();
        assert_eq!(t, ThreadId(0));
        cpu.release(ThreadId(0), true);
        assert!(!cpu.can_dispatch(), "a pinned CPU does not dispatch");
        cpu.make_ready(ThreadId(2));
        assert!(!cpu.can_dispatch(), "nor does a sibling's wake free it");
        cpu.make_ready(ThreadId(0));
        assert_eq!(cpu.dispatch(), (ThreadId(0), false));
        cpu.release(ThreadId(0), false);
        assert_eq!(cpu.dispatch(), (ThreadId(1), true));
        cpu.release(ThreadId(1), false);
        assert_eq!(cpu.dispatch(), (ThreadId(2), true));
    }

    /// Work that arrives during a burst pushes its syscall back; work
    /// after the burst's end does not.
    #[test]
    fn preempting_work_delays_the_maturing_syscall() {
        let t = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        let mut cpu = Cpu::default();
        cpu.make_ready(ThreadId(0));
        let _ = cpu.dispatch();
        cpu.start_burst(ThreadId(0), t(100), Syscall::Exit);
        assert!(cpu.preempt(t(50), SimDuration::from_nanos(30)));
        assert!(
            cpu.preempt(t(120), SimDuration::from_nanos(10)),
            "inside 100 + 30"
        );
        assert!(!cpu.preempt(t(140), SimDuration::from_nanos(10)));
        assert_eq!(cpu.mature(ThreadId(0)).unwrap_err(), t(140));
        assert!(matches!(cpu.mature(ThreadId(0)), Ok(Syscall::Exit)));
    }
}

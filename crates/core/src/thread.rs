//! Thread identity and per-node scheduling state.
//!
//! With multithreading (§4), each node runs several user-level
//! application threads; a switch occurs on long-latency events. The
//! scheduler here is deliberately simple — a FIFO ready queue, as in
//! the paper's Pthreads-based implementation — and is driven by the
//! engine, which decides *when* switches happen and charges their cost.

use std::collections::VecDeque;

use rsdsm_simnet::{NodeId, SimTime};

/// Global identity of an application thread.
///
/// Threads are numbered `0..total`; thread `t` runs on node
/// `t / threads_per_node` (block assignment, so sibling threads share
/// a node — the locality the paper's combined optimizations exploit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl ThreadId {
    /// Position in the global thread numbering.
    pub fn index(self) -> usize {
        self.0
    }

    /// The node this thread runs on, given threads-per-node.
    pub fn node(self, threads_per_node: usize) -> NodeId {
        self.0 / threads_per_node
    }

    /// Position among the sibling threads of its node — the per-node
    /// stream index the adaptive prefetcher keys its stride detectors
    /// by (each sibling's fault stream is watched independently).
    pub fn local_index(self, threads_per_node: usize) -> usize {
        self.0 % threads_per_node
    }
}

/// Why a thread is blocked; determines idle attribution and whether a
/// switch is taken (combined mode switches only on sync, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockReason {
    /// Waiting for a remote page fetch.
    Memory,
    /// Waiting for a lock.
    Lock,
    /// Waiting at a barrier.
    Barrier,
}

/// Lifecycle state of one application thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadState {
    /// Currently dispatched on its node's CPU.
    Running,
    /// Runnable, waiting in the node's ready queue.
    Ready,
    /// Blocked on a long-latency event since the given time.
    Blocked(BlockReason, SimTime),
    /// Finished.
    Done,
}

/// Per-node scheduler: FIFO ready queue plus the identity of the
/// thread currently on the CPU.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scheduler {
    ready: VecDeque<ThreadId>,
    running: Option<ThreadId>,
    last_run: Option<ThreadId>,
}

impl Scheduler {
    /// A scheduler with nothing to run.
    pub(crate) fn new() -> Self {
        Scheduler::default()
    }

    /// The thread currently on the CPU, if any.
    #[cfg(test)]
    pub(crate) fn running(&self) -> Option<ThreadId> {
        self.running
    }

    /// Appends a thread to the ready queue.
    pub(crate) fn make_ready(&mut self, tid: ThreadId) {
        debug_assert!(self.running != Some(tid), "running thread made ready");
        debug_assert!(!self.ready.contains(&tid), "thread already ready");
        self.ready.push_back(tid);
    }

    /// Puts a thread at the *front* of the ready queue — used when a
    /// pinned (no-switch) stall completes and the stalled thread must
    /// resume before any sibling.
    pub(crate) fn make_ready_front(&mut self, tid: ThreadId) {
        debug_assert!(self.running != Some(tid), "running thread made ready");
        debug_assert!(!self.ready.contains(&tid), "thread already ready");
        self.ready.push_front(tid);
    }

    /// True when a thread is waiting to run and the CPU is free.
    pub(crate) fn can_dispatch(&self) -> bool {
        self.running.is_none() && !self.ready.is_empty()
    }

    /// Takes the next ready thread and marks it running. Returns the
    /// thread and whether this dispatch is a context switch (a
    /// different thread than last ran).
    ///
    /// # Panics
    ///
    /// Panics if the CPU is occupied or no thread is ready.
    pub(crate) fn dispatch(&mut self) -> (ThreadId, bool) {
        assert!(self.running.is_none(), "CPU already occupied");
        let tid = self.ready.pop_front().expect("a ready thread");
        let is_switch = self.last_run.is_some_and(|last| last != tid);
        self.running = Some(tid);
        self.last_run = Some(tid);
        (tid, is_switch)
    }

    /// Releases the CPU (the running thread blocked or exited).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not the running thread.
    pub(crate) fn yield_cpu(&mut self, tid: ThreadId) {
        assert_eq!(self.running, Some(tid), "only the running thread can yield");
        self.running = None;
    }

    /// Number of threads waiting to run.
    #[cfg(test)]
    pub(crate) fn ready_len(&self) -> usize {
        self.ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_to_node_mapping() {
        assert_eq!(ThreadId(0).node(4), 0);
        assert_eq!(ThreadId(3).node(4), 0);
        assert_eq!(ThreadId(4).node(4), 1);
        assert_eq!(ThreadId(7).node(1), 7);
        assert_eq!(ThreadId(5).index(), 5);
        assert_eq!(ThreadId(0).local_index(4), 0);
        assert_eq!(ThreadId(3).local_index(4), 3);
        assert_eq!(ThreadId(6).local_index(4), 2);
    }

    #[test]
    fn fifo_dispatch_order() {
        let mut s = Scheduler::new();
        s.make_ready(ThreadId(1));
        s.make_ready(ThreadId(2));
        let (t, sw) = s.dispatch();
        assert_eq!(t, ThreadId(1));
        assert!(!sw, "first dispatch is not a switch");
        s.yield_cpu(ThreadId(1));
        let (t, sw) = s.dispatch();
        assert_eq!(t, ThreadId(2));
        assert!(sw, "different thread means a switch");
    }

    #[test]
    fn redispatch_of_same_thread_is_not_a_switch() {
        let mut s = Scheduler::new();
        s.make_ready(ThreadId(5));
        let _ = s.dispatch();
        s.yield_cpu(ThreadId(5));
        s.make_ready(ThreadId(5));
        let (_, sw) = s.dispatch();
        assert!(!sw);
    }

    #[test]
    fn can_dispatch_requires_idle_cpu_and_ready_thread() {
        let mut s = Scheduler::new();
        assert!(!s.can_dispatch());
        s.make_ready(ThreadId(0));
        assert!(s.can_dispatch());
        let _ = s.dispatch();
        assert!(!s.can_dispatch());
        assert_eq!(s.running(), Some(ThreadId(0)));
        assert_eq!(s.ready_len(), 0);
    }

    #[test]
    #[should_panic(expected = "CPU already occupied")]
    fn double_dispatch_panics() {
        let mut s = Scheduler::new();
        s.make_ready(ThreadId(0));
        s.make_ready(ThreadId(1));
        let _ = s.dispatch();
        let _ = s.dispatch();
    }
}

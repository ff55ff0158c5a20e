//! Synchronization: distributed locks with token caching and
//! forwarding chains (§4.1 request combining), and centrally managed
//! barriers with local combining.
//!
//! Invariants: at most one node holds a lock's token, and a grant
//! carries every interval the new holder's clock does not cover; a
//! node never grants a lock to itself, and every grant wakes a thread
//! that waits for it (both asserted); a barrier releases only after
//! every node arrived, with the union of their intervals, and each
//! release advances the node's barrier epoch by exactly one.

use std::collections::HashMap;
use std::sync::Arc;

use rsdsm_protocol::VectorClock;
use rsdsm_simnet::{NodeId, SimTime};

use super::Core;
use crate::accounting::Category;
use crate::config::MANAGER;
use crate::lock::{AcquireOutcome, ForwardOutcome, ReleaseOutcome};
use crate::msg::{BarrierId, IntervalRecord, LockId, MsgBody, RemoteWaiter};
use crate::node::SyncKey;
use crate::report::SimError;
use crate::thread::{BlockReason, ThreadId};
use crate::trace::{TraceEvent, NO_CAUSE, NO_THREAD};

/// Barrier state (§4.1 local combining, central manager): one
/// [`LocalBarriers`] per node, and the manager's open episodes (node 0
/// collects every arrival).
pub(super) struct Barriers {
    nodes: Vec<LocalBarriers>,
    episodes: HashMap<BarrierId, Episode>,
}

/// One node's barrier state.
struct LocalBarriers {
    /// The local threads waiting at each barrier; only the last local
    /// thread to arrive sends the node's arrival.
    waiting: HashMap<BarrierId, Vec<ThreadId>>,
    /// The node's clock at its last barrier release: what it sends the
    /// manager is every interval this clock does not cover.
    last_release: VectorClock,
    /// Barrier releases processed: the epoch stamped on
    /// `BarrierRelease` records and the checkpoint cadence counter.
    epochs_done: u32,
}

/// One open barrier episode at the manager: who arrived, the join of
/// their clocks, and the union of their intervals.
struct Episode {
    arrived: Vec<NodeId>,
    joined: VectorClock,
    intervals: Vec<Arc<IntervalRecord>>,
}

impl Barriers {
    /// No barrier open, every node at epoch zero.
    pub(super) fn new(nodes: usize) -> Self {
        Barriers {
            nodes: (0..nodes)
                .map(|_| LocalBarriers {
                    waiting: HashMap::new(),
                    last_release: VectorClock::new(nodes),
                    epochs_done: 0,
                })
                .collect(),
            episodes: HashMap::new(),
        }
    }

    /// Barrier releases node `n` has processed.
    pub(super) fn epochs_done(&self, n: NodeId) -> u32 {
        self.nodes[n].epochs_done
    }

    /// Records thread `tid`'s arrival at `id` on node `n`, which runs
    /// `threads_on_node` threads. Returns true when it was the last
    /// local thread — the node must then send its arrival to the
    /// manager.
    ///
    /// # Panics
    ///
    /// Panics if the thread arrives twice at the same barrier episode.
    fn arrive(&mut self, n: NodeId, id: BarrierId, tid: ThreadId, threads_on_node: usize) -> bool {
        let list = self.nodes[n].waiting.entry(id).or_default();
        assert!(!list.contains(&tid), "double arrival at {id:?}");
        list.push(tid);
        list.len() == threads_on_node
    }

    /// Records node `from`'s arrival at `id` with its clock and
    /// intervals. When all `nodes` have arrived, closes the episode
    /// and returns the join of their clocks and the deduplicated union
    /// of their intervals to broadcast.
    ///
    /// # Panics
    ///
    /// Panics if a node arrives twice in one episode.
    fn node_arrived(
        &mut self,
        id: BarrierId,
        from: NodeId,
        vc: &VectorClock,
        intervals: &[Arc<IntervalRecord>],
        nodes: usize,
    ) -> Option<(VectorClock, Vec<Arc<IntervalRecord>>)> {
        let ep = self.episodes.entry(id).or_insert_with(|| Episode {
            arrived: Vec::new(),
            joined: VectorClock::new(nodes),
            intervals: Vec::new(),
        });
        assert!(!ep.arrived.contains(&from), "node {from} arrived twice");
        ep.arrived.push(from);
        ep.joined.join(vc);
        for rec in intervals {
            let seq = rec.seq();
            let dup = ep
                .intervals
                .iter()
                .any(|r| r.origin == rec.origin && r.seq() == seq);
            if !dup {
                ep.intervals.push(Arc::clone(rec));
            }
        }
        if ep.arrived.len() < nodes {
            return None;
        }
        let ep = self.episodes.remove(&id).expect("episode exists");
        Some((ep.joined, ep.intervals))
    }

    /// Ends node `n`'s episode of `id`: returns the threads to wake.
    fn release(&mut self, n: NodeId, id: BarrierId) -> Vec<ThreadId> {
        self.nodes[n].waiting.remove(&id).unwrap_or_default()
    }
}

impl Core<'_> {
    // ------------------------------------------------------------------
    // Locks (§4.1 request combining, distributed token passing)
    // ------------------------------------------------------------------

    /// Adds `tid` entering `lock`'s critical section to the oracle's
    /// grant trace, when the oracle runs.
    fn record_grant(&mut self, lock: LockId, tid: ThreadId) {
        if let Some(oracle) = &mut self.oracle {
            oracle.record_grant(lock, tid);
        }
    }

    pub(super) fn handle_acquire(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        lock: LockId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let req_id = self.tracer.emit(
            now,
            n as u32,
            tid.0 as u32,
            NO_CAUSE,
            TraceEvent::LockRequest { lock: lock.0 },
        );
        match self.nodes[n].locks.acquire(lock, tid) {
            AcquireOutcome::Granted => {
                self.record_grant(lock, tid);
                let end = self.charge(
                    n,
                    now,
                    self.cfg.costs.lock_local_pass,
                    Category::DsmOverhead,
                    None,
                );
                self.tracer.emit(
                    end,
                    n as u32,
                    tid.0 as u32,
                    req_id,
                    TraceEvent::LockGrant { lock: lock.0 },
                );
                self.run_thread(tid, end, None)
            }
            AcquireOutcome::QueuedLocal => self.block(tid, n, BlockReason::Lock, now),
            AcquireOutcome::NeedToken => {
                self.nodes[n].lock_stats.events += 1;
                let end = self.charge(n, now, self.cfg.costs.msg_send, Category::DsmOverhead, None);
                let manager = self.nodes[n].locks.manager(lock);
                let waiter = RemoteWaiter {
                    node: n,
                    vc: self.nodes[n].vc().clone(),
                };
                if manager == n {
                    // We manage the lock but do not hold the token.
                    self.route_as_manager(n, lock, waiter, end);
                } else {
                    self.post(end, n, manager, MsgBody::LockRequest { lock, waiter });
                }
                self.block(tid, n, BlockReason::Lock, end)
            }
        }
    }

    pub(super) fn handle_release(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        lock: LockId,
        now: SimTime,
    ) -> Result<(), SimError> {
        match self.nodes[n].locks.release(lock, tid) {
            ReleaseOutcome::PassedLocal(next) => {
                self.record_grant(lock, next);
                let end = self.charge(
                    n,
                    now,
                    self.cfg.costs.lock_local_pass,
                    Category::DsmOverhead,
                    None,
                );
                self.tracer.emit(
                    end,
                    n as u32,
                    next.0 as u32,
                    NO_CAUSE,
                    TraceEvent::LockLocalPass { lock: lock.0 },
                );
                self.wake(next, end)?;
                self.run_thread(tid, end, None)
            }
            ReleaseOutcome::GrantRemote(waiter) => {
                let end = self.grant_lock(n, lock, waiter, now);
                self.run_thread(tid, end, None)
            }
            ReleaseOutcome::Idle => self.run_thread(tid, now, None),
        }
    }

    /// Closes the interval and sends the token (with piggybacked
    /// notices) to `waiter`, another node: a request that comes back
    /// to its own requester finds the token passed on from there and
    /// chains onward (DESIGN §6b item 5).
    fn grant_lock(
        &mut self,
        n: NodeId,
        lock: LockId,
        waiter: RemoteWaiter,
        at: SimTime,
    ) -> SimTime {
        debug_assert_ne!(waiter.node, n, "node {n} granted {lock:?} to itself");
        let end = self.close_interval(n, at);
        let intervals = self.nodes[n].intervals_unknown_to(&waiter.vc);
        let mut end = self.charge(n, end, self.cfg.costs.msg_send, Category::DsmOverhead, None);
        self.tracer.emit(
            end,
            n as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::LockGrant { lock: lock.0 },
        );
        let vc = self.nodes[n].vc().clone();
        let new_owner = waiter.node;
        self.post(
            end,
            n,
            new_owner,
            MsgBody::LockGrant {
                lock,
                intervals,
                vc,
            },
        );
        // Any other queued requests chase the token to its new holder.
        for waiter in self.nodes[n].locks.drain_remote_queue(lock) {
            end = self.charge(n, end, self.cfg.costs.msg_send, Category::DsmOverhead, None);
            self.post(end, n, new_owner, MsgBody::LockForward { lock, waiter });
        }
        end
    }

    /// Manager-side routing of an acquire request.
    fn route_as_manager(&mut self, m: NodeId, lock: LockId, waiter: RemoteWaiter, at: SimTime) {
        match self.nodes[m].locks.manager_route(lock, waiter.node) {
            None => self.handle_forward_arrival(m, lock, waiter, at),
            Some(owner) => {
                let end = self.charge(m, at, self.cfg.costs.msg_send, Category::DsmOverhead, None);
                self.post(end, m, owner, MsgBody::LockForward { lock, waiter });
            }
        }
    }

    /// Handles a lock forward at arrival (with messaging for chains).
    fn handle_forward_arrival(
        &mut self,
        o: NodeId,
        lock: LockId,
        waiter: RemoteWaiter,
        at: SimTime,
    ) {
        match self.nodes[o].locks.handle_forward(lock, waiter) {
            ForwardOutcome::Grant(w) => {
                self.grant_lock(o, lock, w, at);
            }
            ForwardOutcome::Queued => {}
            ForwardOutcome::Chain(next, waiter) => {
                let end = self.charge(o, at, self.cfg.costs.msg_send, Category::DsmOverhead, None);
                self.post(end, o, next, MsgBody::LockForward { lock, waiter });
            }
        }
    }

    /// Charges node `n` for absorbing one synchronization message.
    pub(super) fn charge_sync(&mut self, n: NodeId, at: SimTime) -> SimTime {
        self.charge(
            n,
            at,
            self.cfg.costs.sync_process,
            Category::DsmOverhead,
            None,
        )
    }

    /// A lock request reached the lock's manager `n`.
    pub(super) fn on_lock_request(
        &mut self,
        n: NodeId,
        lock: LockId,
        waiter: RemoteWaiter,
        at: SimTime,
    ) {
        let end = self.charge_sync(n, at);
        self.route_as_manager(n, lock, waiter, end);
    }

    /// A forwarded lock request reached `n`, the token's last known
    /// holder.
    pub(super) fn on_lock_forward(
        &mut self,
        n: NodeId,
        lock: LockId,
        waiter: RemoteWaiter,
        at: SimTime,
    ) {
        let end = self.charge_sync(n, at);
        self.handle_forward_arrival(n, lock, waiter, end);
    }

    /// The token (with piggybacked notices) arrived at `n`.
    pub(super) fn on_lock_grant(
        &mut self,
        n: NodeId,
        lock: LockId,
        intervals: &[Arc<IntervalRecord>],
        vc: &VectorClock,
        at: SimTime,
    ) -> Result<(), SimError> {
        let end = self.charge_sync(n, at);
        for rec in intervals {
            self.record_interval(n, rec, end);
        }
        self.nodes[n].join_clock(vc);
        let tid = self.nodes[n].locks.handle_grant(lock);
        self.record_grant(lock, tid);
        // A remote grant opens a new lock epoch for the acquirer.
        let end = self.prefetch_at_sync(n, SyncKey::Lock(lock), Some(tid), end);
        self.wake(tid, end)
    }

    // ------------------------------------------------------------------
    // Barriers (§4.1 local combining, central manager)
    // ------------------------------------------------------------------

    pub(super) fn handle_barrier_arrive(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        id: BarrierId,
        now: SimTime,
    ) -> Result<(), SimError> {
        let mut end = self.close_interval(n, now);
        let last_local = self.barriers.arrive(n, id, tid, self.tpn());
        if !last_local {
            return self.block(tid, n, BlockReason::Barrier, end);
        }
        self.nodes[n].barrier_stats.events += 1;
        self.tracer.emit(
            end,
            n as u32,
            tid.0 as u32,
            NO_CAUSE,
            TraceEvent::BarrierArrive { barrier: id.0 },
        );
        let node = &self.nodes[n];
        let intervals = node.intervals_unknown_to(&self.barriers.nodes[n].last_release);
        let vc = node.vc().clone();
        if n == MANAGER {
            end = self.charge_sync(n, end);
            // Block first: when this is the last arrival cluster-wide,
            // the release below wakes this very thread.
            self.block(tid, n, BlockReason::Barrier, end)?;
            self.manager_collect(id, n, &vc, &intervals, end)
        } else {
            end = self.charge(n, end, self.cfg.costs.msg_send, Category::DsmOverhead, None);
            self.post(
                end,
                n,
                MANAGER,
                MsgBody::BarrierArrive {
                    id,
                    from: n,
                    vc,
                    intervals,
                },
            );
            self.block(tid, n, BlockReason::Barrier, end)
        }
    }

    /// A node's (locally combined) barrier arrival reached the
    /// manager.
    pub(super) fn on_barrier_arrive(
        &mut self,
        n: NodeId,
        id: BarrierId,
        from: NodeId,
        vc: &VectorClock,
        intervals: &[Arc<IntervalRecord>],
        at: SimTime,
    ) -> Result<(), SimError> {
        let end = self.charge_sync(n, at);
        debug_assert_eq!(n, MANAGER);
        self.manager_collect(id, from, vc, intervals, end)
    }

    /// Manager-side collection of one node's arrival.
    fn manager_collect(
        &mut self,
        id: BarrierId,
        from: NodeId,
        vc: &VectorClock,
        intervals: &[Arc<IntervalRecord>],
        at: SimTime,
    ) -> Result<(), SimError> {
        if let Some(oracle) = &mut self.oracle {
            oracle.barrier_arrival(id, from, at);
        }
        let arrived = self
            .barriers
            .node_arrived(id, from, vc, intervals, self.cfg.nodes);
        if let Some((joined, union)) = arrived {
            if let Some(oracle) = &mut self.oracle {
                oracle.barrier_release(id, self.cfg.nodes, at);
            }
            let mut end = at;
            for node in 1..self.cfg.nodes {
                end = self.charge(
                    MANAGER,
                    end,
                    self.cfg.costs.msg_send,
                    Category::DsmOverhead,
                    None,
                );
                self.post(
                    end,
                    MANAGER,
                    node,
                    MsgBody::BarrierRelease {
                        id,
                        vc: joined.clone(),
                        intervals: union.clone(),
                    },
                );
            }
            self.process_barrier_release(MANAGER, id, &joined, &union, end)?;
        }
        Ok(())
    }

    pub(super) fn process_barrier_release(
        &mut self,
        n: NodeId,
        id: BarrierId,
        vc: &VectorClock,
        intervals: &[Arc<IntervalRecord>],
        at: SimTime,
    ) -> Result<(), SimError> {
        let mut end = self.charge_sync(n, at);
        for rec in intervals {
            self.record_interval(n, rec, end);
        }
        self.nodes[n].join_clock(vc);
        self.barriers.nodes[n]
            .last_release
            .clone_from(self.nodes[n].vc());

        // Garbage collection point: charge the pass's CPU time (the
        // cost TreadMarks pays to validate and reclaim diff storage).
        // The applied-notice records themselves are deliberately NOT
        // pruned: base copies advertise their contents via the
        // applied set (`incorporated`), and forgetting old applied
        // entries makes that advertisement partial — a requester
        // would then re-apply an old diff over newer incorporated
        // bytes and roll them back. Memory is not a constraint for
        // the simulator the way 1998's 96 MB nodes were.
        if self.nodes[n].own_diff_bytes > self.cfg.gc_threshold_bytes {
            let cost = self.cfg.costs.gc_per_diff * self.nodes[n].own_diffs.len() as u64;
            end = self.charge(n, end, cost, Category::DsmOverhead, None);
            self.nodes[n].gc_passes += 1;
            self.nodes[n].own_diff_bytes = 0;
        }
        self.nodes[n].mem.end_epoch();
        // Barrier-aligned checkpoint: every local interval is closed
        // here (no twins), making this the natural recovery line.
        self.barriers.nodes[n].epochs_done += 1;
        let epoch = self.barriers.nodes[n].epochs_done;
        self.tracer.emit(
            end,
            n as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::BarrierRelease {
                barrier: id.0,
                epoch,
            },
        );
        if let Some(cadence) = self.cadence().filter(|c| epoch.is_multiple_of(c.every)) {
            end = self.take_checkpoint(n, cadence.store, end);
        }
        let end = self.prefetch_at_sync(n, SyncKey::Barrier(id), None, end);
        let woken = self.barriers.release(n, id);
        for tid in woken {
            self.wake(tid, end)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsdsm_protocol::PageId;

    fn rec(origin: NodeId, tick: usize) -> Arc<IntervalRecord> {
        let mut stamp = VectorClock::new(4);
        for _ in 0..tick {
            stamp.tick(origin);
        }
        Arc::new(IntervalRecord {
            origin,
            stamp: Arc::new(stamp),
            pages: vec![PageId::new(0)],
        })
    }

    /// Node `origin`'s clock of a `nodes`-node cluster after `tick`
    /// intervals of its own.
    fn clock(nodes: usize, origin: NodeId, tick: usize) -> VectorClock {
        let mut vc = VectorClock::new(nodes);
        for _ in 0..tick {
            vc.tick(origin);
        }
        vc
    }

    fn waiting(b: &Barriers, n: NodeId, id: BarrierId) -> usize {
        b.nodes[n].waiting.get(&id).map_or(0, Vec::len)
    }

    fn arrived(b: &Barriers, id: BarrierId) -> usize {
        b.episodes.get(&id).map_or(0, |e| e.arrived.len())
    }

    #[test]
    fn last_local_thread_triggers_arrival() {
        let mut b = Barriers::new(2);
        assert!(!b.arrive(1, BarrierId(0), ThreadId(3), 3));
        assert!(!b.arrive(1, BarrierId(0), ThreadId(4), 3));
        assert_eq!(waiting(&b, 1, BarrierId(0)), 2);
        assert_eq!(waiting(&b, 0, BarrierId(0)), 0, "nodes count apart");
        assert!(b.arrive(1, BarrierId(0), ThreadId(5), 3));
    }

    #[test]
    fn release_returns_all_waiters_and_resets() {
        let mut b = Barriers::new(1);
        b.arrive(0, BarrierId(1), ThreadId(0), 2);
        b.arrive(0, BarrierId(1), ThreadId(1), 2);
        let woken = b.release(0, BarrierId(1));
        assert_eq!(woken, vec![ThreadId(0), ThreadId(1)]);
        assert_eq!(waiting(&b, 0, BarrierId(1)), 0);
        // The barrier id can be reused for the next episode.
        assert!(!b.arrive(0, BarrierId(1), ThreadId(0), 2));
    }

    #[test]
    #[should_panic(expected = "double arrival")]
    fn double_local_arrival_panics() {
        let mut b = Barriers::new(1);
        b.arrive(0, BarrierId(0), ThreadId(0), 2);
        b.arrive(0, BarrierId(0), ThreadId(0), 2);
    }

    #[test]
    fn manager_releases_when_all_nodes_arrive() {
        let mut b = Barriers::new(3);
        let id = BarrierId(0);
        assert!(b
            .node_arrived(id, 0, &clock(3, 0, 1), &[rec(0, 1)], 3)
            .is_none());
        assert!(b
            .node_arrived(id, 2, &clock(3, 2, 2), &[rec(2, 1)], 3)
            .is_none());
        assert_eq!(arrived(&b, id), 2);
        let (joined, released) = b
            .node_arrived(id, 1, &clock(3, 1, 3), &[rec(1, 1)], 3)
            .expect("all arrived");
        assert_eq!(released.len(), 3);
        assert_eq!((joined.get(0), joined.get(1), joined.get(2)), (1, 3, 2));
        assert_eq!(arrived(&b, id), 0);
    }

    #[test]
    fn manager_dedupes_intervals() {
        let mut b = Barriers::new(2);
        let vc = VectorClock::new(2);
        // Both nodes report the same interval (origin 0, tick 1) —
        // possible when it propagated through a lock first.
        assert!(b
            .node_arrived(BarrierId(0), 0, &vc, &[rec(0, 1), rec(0, 2)], 2)
            .is_none());
        let (_, released) = b
            .node_arrived(BarrierId(0), 1, &vc, &[rec(0, 1)], 2)
            .expect("all arrived");
        assert_eq!(released.len(), 2);
    }

    #[test]
    fn distinct_barrier_ids_are_independent_episodes() {
        let mut b = Barriers::new(2);
        let (x, y) = (BarrierId(0), BarrierId(1));
        assert!(b.node_arrived(x, 0, &clock(2, 0, 1), &[], 2).is_none());
        assert!(b.node_arrived(y, 0, &clock(2, 0, 2), &[], 2).is_none());
        let (joined, _) = b.node_arrived(y, 1, &clock(2, 1, 1), &[], 2).expect("y");
        assert_eq!((joined.get(0), joined.get(1)), (2, 1));
        let (joined, _) = b.node_arrived(x, 1, &clock(2, 1, 1), &[], 2).expect("x");
        assert_eq!((joined.get(0), joined.get(1)), (1, 1), "x's own clocks");
    }
}

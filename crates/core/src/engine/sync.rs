//! Synchronization: distributed locks with token caching and
//! forwarding chains (§4.1 request combining), and centrally managed
//! barriers with local combining.
//!
//! Invariants: at most one node holds a lock's token, and a grant
//! carries every interval the new holder's clock does not cover; a
//! barrier releases only after every node arrived, with the union of
//! their intervals, and each release advances the node's barrier
//! epoch by exactly one.

use std::sync::Arc;

use rsdsm_protocol::VectorClock;
use rsdsm_simnet::{NodeId, SimTime};

use super::Core;
use crate::accounting::Category;
use crate::barrier::BarrierManager;
use crate::config::MANAGER;
use crate::lock::{AcquireOutcome, ForwardOutcome, GrantOutcome, ReleaseOutcome, RemoteWaiter};
use crate::msg::{BarrierId, IntervalRecord, LockId, MsgBody};
use crate::node::SyncKey;
use crate::report::SimError;
use crate::thread::{BlockReason, ThreadId};
use crate::trace::{TraceEvent, NO_CAUSE, NO_THREAD};

/// Barrier bookkeeping: the manager's collection state (used on node
/// 0 only) and every node's count of releases processed.
pub(super) struct Barriers {
    mgr: BarrierManager,
    /// Barrier releases processed per node: the epoch stamped on
    /// `BarrierRelease` records and the checkpoint cadence counter.
    epochs_done: Vec<u32>,
}

impl Barriers {
    /// No barrier open, every node at epoch zero.
    pub(super) fn new(nodes: usize) -> Self {
        Barriers {
            mgr: BarrierManager::new(nodes),
            epochs_done: vec![0; nodes],
        }
    }

    /// Barrier releases node `n` has processed.
    pub(super) fn epochs_done(&self, n: NodeId) -> u32 {
        self.epochs_done[n]
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
                let vc = self.nodes[n].vc().clone();
                if manager == n {
                    // We manage the lock but do not hold the token.
                    self.route_as_manager(n, lock, RemoteWaiter { node: n, vc }, end);
                } else {
                    self.post(
                        end,
                        n,
                        manager,
                        MsgBody::LockRequest {
                            lock,
                            requester: n,
                            vc,
                        },
                    );
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
    /// notices) to `waiter`.
    fn grant_lock(
        &mut self,
        n: NodeId,
        lock: LockId,
        waiter: RemoteWaiter,
        at: SimTime,
    ) -> SimTime {
        if waiter.node == n {
            // Degenerate self-grant (the manager routed our own
            // request back to us): no messaging, no new notices.
            if let GrantOutcome::WakeLocal(tid) = self.nodes[n].locks.handle_grant(lock) {
                self.record_grant(lock, tid);
                self.tracer.emit(
                    at,
                    n as u32,
                    tid.0 as u32,
                    NO_CAUSE,
                    TraceEvent::LockGrant { lock: lock.0 },
                );
                // Propagate errors as panics here would be wrong; a
                // wake failure only occurs on engine teardown.
                let _ = self.wake(tid, at);
            }
            return at;
        }
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
        for leftover in self.nodes[n].locks.drain_remote_queue(lock) {
            end = self.charge(n, end, self.cfg.costs.msg_send, Category::DsmOverhead, None);
            self.post(
                end,
                n,
                new_owner,
                MsgBody::LockForward {
                    lock,
                    requester: leftover.node,
                    vc: leftover.vc,
                },
            );
        }
        end
    }

    /// Manager-side routing of an acquire request.
    fn route_as_manager(&mut self, m: NodeId, lock: LockId, waiter: RemoteWaiter, at: SimTime) {
        match self.nodes[m].locks.manager_route(lock, waiter.node) {
            None => self.handle_forward_arrival(m, lock, waiter, at),
            Some(owner) => {
                let end = self.charge(m, at, self.cfg.costs.msg_send, Category::DsmOverhead, None);
                self.post(
                    end,
                    m,
                    owner,
                    MsgBody::LockForward {
                        lock,
                        requester: waiter.node,
                        vc: waiter.vc,
                    },
                );
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
        let requester = waiter.node;
        let vc = waiter.vc.clone();
        match self.nodes[o].locks.handle_forward(lock, waiter) {
            ForwardOutcome::Grant(w) => {
                self.grant_lock(o, lock, w, at);
            }
            ForwardOutcome::Queued => {}
            ForwardOutcome::Chain(next) => {
                let end = self.charge(o, at, self.cfg.costs.msg_send, Category::DsmOverhead, None);
                self.post(
                    end,
                    o,
                    next,
                    MsgBody::LockForward {
                        lock,
                        requester,
                        vc,
                    },
                );
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
        match self.nodes[n].locks.handle_grant(lock) {
            GrantOutcome::WakeLocal(tid) => {
                self.record_grant(lock, tid);
                // A remote grant opens a new lock epoch for the
                // acquirer.
                let end = self.prefetch_at_sync(n, SyncKey::Lock(lock), Some(tid), end);
                self.wake(tid, end)
            }
            GrantOutcome::TokenParked => {
                // Never strand remote requesters behind a parked
                // token.
                if let Some(w) = self.nodes[n].locks.take_remote_if_free(lock) {
                    self.grant_lock(n, lock, w, end);
                }
                Ok(())
            }
        }
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
        let last_local = self.nodes[n].barrier.arrive(id, tid);
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
        let intervals = node.intervals_unknown_to(&node.last_release_vc);
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
        if let Some((joined, union)) = self.barriers.mgr.node_arrived(id, from, vc, intervals) {
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
        self.nodes[n].last_release_vc = self.nodes[n].vc().clone();

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
        self.barriers.epochs_done[n] += 1;
        let epoch = self.barriers.epochs_done[n];
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
        let every = self.cfg.recovery.checkpoint_every;
        if every > 0 && epoch.is_multiple_of(every) {
            end = self.take_checkpoint(n, end);
        }
        let end = self.prefetch_at_sync(n, SyncKey::Barrier(id), None, end);
        let woken = self.nodes[n].barrier.release(id);
        for tid in woken {
            self.wake(tid, end)?;
        }
        Ok(())
    }
}

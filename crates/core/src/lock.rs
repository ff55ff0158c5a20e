//! Distributed lock state machine with local request combining.
//!
//! TreadMarks locks have a statically assigned manager; acquire
//! requests go to the manager, which forwards them to the probable
//! current owner; the owner passes the token (with piggybacked write
//! notices) directly to the requester when it releases.
//!
//! With multithreading, the paper adds *local combining* (§4.1): a
//! node that holds the token passes the lock between its own threads
//! quickly, and only one token request is outstanding per node no
//! matter how many local threads are queued.
//!
//! This module is the pure per-node state machine; the engine performs
//! the messaging and cost accounting its decisions call for.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use rsdsm_protocol::VectorClock;
use rsdsm_simnet::NodeId;

use crate::msg::LockId;
use crate::thread::ThreadId;

/// A remote acquire request queued at the token holder.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RemoteWaiter {
    /// The requesting node.
    pub node: NodeId,
    /// The requester's vector clock (selects the notices to piggyback).
    pub vc: VectorClock,
}

/// Decision returned by [`LockTable::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcquireOutcome {
    /// The thread holds the lock; continue immediately.
    Granted,
    /// The thread must block; the token is local or already requested.
    QueuedLocal,
    /// The thread must block and the node must request the token from
    /// the manager.
    NeedToken,
}

/// Decision returned by [`LockTable::release`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ReleaseOutcome {
    /// The lock was handed to another local thread; wake it.
    PassedLocal(ThreadId),
    /// The token must be granted to a queued remote requester.
    GrantRemote(RemoteWaiter),
    /// Nothing is waiting; the node keeps the token, lock free.
    Idle,
}

/// Decision returned by [`LockTable::handle_forward`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ForwardOutcome {
    /// Grant the token to the requester now.
    Grant(RemoteWaiter),
    /// The lock is busy here; the request is queued.
    Queued,
    /// This node no longer holds the token; chase the token by
    /// re-forwarding to the node it was passed to.
    Chain(NodeId),
}

/// Decision returned by [`LockTable::handle_grant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GrantOutcome {
    /// The token arrived and this local thread now holds the lock.
    WakeLocal(ThreadId),
    /// The token arrived but no local thread wants it anymore (can
    /// happen only if the app releases without a waiting acquire —
    /// kept for robustness).
    TokenParked,
}

#[derive(Debug, Clone)]
struct LockLocal {
    has_token: bool,
    token_requested: bool,
    held_by: Option<ThreadId>,
    local_queue: VecDeque<ThreadId>,
    remote_queue: VecDeque<RemoteWaiter>,
    passed_to: Option<NodeId>,
}

impl LockLocal {
    fn new(has_token: bool) -> Self {
        LockLocal {
            has_token,
            token_requested: false,
            held_by: None,
            local_queue: VecDeque::new(),
            remote_queue: VecDeque::new(),
            passed_to: None,
        }
    }

    /// The one writer of `has_token` on a live entry; `moves` is the
    /// owning table's [`LockTable::token_moves`].
    fn set_token(&mut self, held: bool, moves: &mut u64) {
        self.has_token = held;
        *moves += 1;
    }
}

/// Per-node lock state for every lock the node has touched, plus the
/// manager-side owner table for locks this node manages.
#[derive(Debug, Clone)]
pub(crate) struct LockTable {
    node: NodeId,
    nodes: usize,
    locks: HashMap<LockId, LockLocal>,
    /// For locks managed here: the probable current owner.
    managed_owner: HashMap<LockId, NodeId>,
    /// Bumped by every change to what [`LockTable::held_tokens`]
    /// yields: each write of a `has_token`, and each entry that
    /// materializes already holding its manager's token. The oracle
    /// re-checks token uniqueness only when some table's count moved.
    token_moves: u64,
}

impl LockTable {
    /// Lock state for `node` in a cluster of `nodes`.
    pub(crate) fn new(node: NodeId, nodes: usize) -> Self {
        LockTable {
            node,
            nodes,
            locks: HashMap::new(),
            managed_owner: HashMap::new(),
            token_moves: 0,
        }
    }

    /// The manager node of `lock`.
    pub(crate) fn manager(&self, lock: LockId) -> NodeId {
        lock.0 as usize % self.nodes
    }

    /// The state of `lock` here (created on first touch: the token
    /// starts at the lock's manager), with the move counter a token
    /// write must bump.
    fn entry(&mut self, lock: LockId) -> (&mut LockLocal, &mut u64) {
        let starts_here = self.manager(lock) == self.node;
        let e = match self.locks.entry(lock) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                self.token_moves += u64::from(starts_here);
                v.insert(LockLocal::new(starts_here))
            }
        };
        (e, &mut self.token_moves)
    }

    /// Thread `tid` wants `lock`.
    pub(crate) fn acquire(&mut self, lock: LockId, tid: ThreadId) -> AcquireOutcome {
        let (e, _) = self.entry(lock);
        if e.has_token && e.held_by.is_none() && e.local_queue.is_empty() {
            e.held_by = Some(tid);
            return AcquireOutcome::Granted;
        }
        e.local_queue.push_back(tid);
        if e.has_token || e.token_requested {
            AcquireOutcome::QueuedLocal
        } else {
            e.token_requested = true;
            AcquireOutcome::NeedToken
        }
    }

    /// Thread `tid` releases `lock`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not hold the lock.
    pub(crate) fn release(&mut self, lock: LockId, tid: ThreadId) -> ReleaseOutcome {
        let (e, moves) = self.entry(lock);
        assert_eq!(e.held_by, Some(tid), "release by non-holder");
        if let Some(next) = e.local_queue.pop_front() {
            e.held_by = Some(next);
            return ReleaseOutcome::PassedLocal(next);
        }
        e.held_by = None;
        if let Some(waiter) = e.remote_queue.pop_front() {
            e.set_token(false, moves);
            e.passed_to = Some(waiter.node);
            return ReleaseOutcome::GrantRemote(waiter);
        }
        ReleaseOutcome::Idle
    }

    /// A request for `lock` was forwarded to this node (it is, or
    /// recently was, the owner).
    pub(crate) fn handle_forward(&mut self, lock: LockId, waiter: RemoteWaiter) -> ForwardOutcome {
        let (e, moves) = self.entry(lock);
        if e.has_token {
            if e.held_by.is_none() && e.local_queue.is_empty() && !e.token_requested {
                e.set_token(false, moves);
                e.passed_to = Some(waiter.node);
                return ForwardOutcome::Grant(waiter);
            }
            e.remote_queue.push_back(waiter);
            return ForwardOutcome::Queued;
        }
        if let Some(next) = e.passed_to {
            return ForwardOutcome::Chain(next);
        }
        // Token is on its way to us; serve the remote after our turn.
        e.remote_queue.push_back(waiter);
        ForwardOutcome::Queued
    }

    /// The token for `lock` arrived (a grant from the previous owner).
    pub(crate) fn handle_grant(&mut self, lock: LockId) -> GrantOutcome {
        let (e, moves) = self.entry(lock);
        debug_assert!(!e.has_token, "grant while already holding token");
        e.set_token(true, moves);
        e.token_requested = false;
        e.passed_to = None;
        match e.local_queue.pop_front() {
            Some(tid) => {
                e.held_by = Some(tid);
                GrantOutcome::WakeLocal(tid)
            }
            None => GrantOutcome::TokenParked,
        }
    }

    /// If the token is held here, free, and unwanted locally, pops a
    /// queued remote waiter to grant the token onward. Used after
    /// [`LockTable::handle_grant`] returns
    /// [`GrantOutcome::TokenParked`] so a parked token never strands
    /// remote requesters.
    pub(crate) fn take_remote_if_free(&mut self, lock: LockId) -> Option<RemoteWaiter> {
        let (e, moves) = self.entry(lock);
        if e.has_token && e.held_by.is_none() && e.local_queue.is_empty() {
            if let Some(w) = e.remote_queue.pop_front() {
                e.set_token(false, moves);
                e.passed_to = Some(w.node);
                return Some(w);
            }
        }
        None
    }

    /// Removes and returns every remote waiter still queued for
    /// `lock`. Called right after the token is granted away: the
    /// leftover requests must chase the token to its new holder, or
    /// they would be stranded at a node that will never hold the
    /// token again.
    pub(crate) fn drain_remote_queue(&mut self, lock: LockId) -> Vec<RemoteWaiter> {
        let (e, _) = self.entry(lock);
        debug_assert!(!e.has_token, "draining while still holding the token");
        e.remote_queue.drain(..).collect()
    }

    /// Manager side: where to send a new acquire request for a lock
    /// managed by this node, updating the probable owner to the
    /// requester. Returns `None` when this node itself is the
    /// probable owner (the caller should then use
    /// [`LockTable::handle_forward`] locally).
    ///
    /// # Panics
    ///
    /// Panics if this node does not manage `lock`.
    pub(crate) fn manager_route(&mut self, lock: LockId, requester: NodeId) -> Option<NodeId> {
        assert_eq!(self.manager(lock), self.node, "not the manager");
        let owner = *self.managed_owner.entry(lock).or_insert(self.node);
        self.managed_owner.insert(lock, requester);
        if owner == self.node {
            None
        } else {
            Some(owner)
        }
    }

    /// True if the node currently holds the token for `lock` (for
    /// tests and assertions).
    #[cfg(test)]
    pub(crate) fn has_token(&self, lock: LockId) -> bool {
        self.locks.get(&lock).is_some_and(|e| e.has_token)
            || (!self.locks.contains_key(&lock) && self.manager(lock) == self.node)
    }

    /// Every touched lock whose token is currently at this node, in
    /// no particular order (a lock this node manages and nobody has
    /// touched yet has no entry and is not listed).
    pub(crate) fn held_tokens(&self) -> impl Iterator<Item = LockId> + '_ {
        self.locks
            .iter()
            .filter(|(_, e)| e.has_token)
            .map(|(l, _)| *l)
    }

    /// How often [`LockTable::held_tokens`]' answer may have changed
    /// since the table was built; never decreases.
    pub(crate) fn token_moves(&self) -> u64 {
        self.token_moves
    }

    /// The local thread currently holding `lock`, if any.
    #[cfg(test)]
    pub(crate) fn holder(&self, lock: LockId) -> Option<ThreadId> {
        self.locks.get(&lock).and_then(|e| e.held_by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VectorClock {
        VectorClock::new(2)
    }

    #[test]
    fn manager_starts_with_token_and_grants_locally() {
        let mut t = LockTable::new(0, 2);
        assert_eq!(t.manager(LockId(0)), 0);
        assert_eq!(t.acquire(LockId(0), ThreadId(0)), AcquireOutcome::Granted);
        assert_eq!(t.holder(LockId(0)), Some(ThreadId(0)));
    }

    #[test]
    fn non_manager_needs_token() {
        let mut t = LockTable::new(1, 2);
        assert_eq!(t.acquire(LockId(0), ThreadId(9)), AcquireOutcome::NeedToken);
        // A second local thread piggybacks on the outstanding request.
        assert_eq!(
            t.acquire(LockId(0), ThreadId(10)),
            AcquireOutcome::QueuedLocal
        );
    }

    #[test]
    fn grant_wakes_first_local_waiter() {
        let mut t = LockTable::new(1, 2);
        t.acquire(LockId(0), ThreadId(9));
        t.acquire(LockId(0), ThreadId(10));
        assert_eq!(
            t.handle_grant(LockId(0)),
            GrantOutcome::WakeLocal(ThreadId(9))
        );
        assert!(t.has_token(LockId(0)));
        assert_eq!(t.holder(LockId(0)), Some(ThreadId(9)));
    }

    #[test]
    fn release_passes_locally_before_remote() {
        let mut t = LockTable::new(0, 2);
        t.acquire(LockId(0), ThreadId(0));
        t.acquire(LockId(0), ThreadId(1));
        // A remote request arrives while thread 0 holds the lock.
        let w = RemoteWaiter { node: 1, vc: vc() };
        assert_eq!(
            t.handle_forward(LockId(0), w.clone()),
            ForwardOutcome::Queued
        );
        // Local pass wins first...
        assert_eq!(
            t.release(LockId(0), ThreadId(0)),
            ReleaseOutcome::PassedLocal(ThreadId(1))
        );
        // ...then the remote gets the token.
        assert_eq!(
            t.release(LockId(0), ThreadId(1)),
            ReleaseOutcome::GrantRemote(w)
        );
        assert!(!t.has_token(LockId(0)));
    }

    #[test]
    fn forward_to_free_holder_grants_immediately() {
        let mut t = LockTable::new(0, 2);
        let w = RemoteWaiter { node: 1, vc: vc() };
        assert_eq!(
            t.handle_forward(LockId(0), w.clone()),
            ForwardOutcome::Grant(w)
        );
        assert!(!t.has_token(LockId(0)));
    }

    #[test]
    fn forward_after_token_passed_chains() {
        let mut t = LockTable::new(0, 2);
        let w1 = RemoteWaiter { node: 1, vc: vc() };
        t.handle_forward(LockId(0), w1);
        // Token now passed to node 1; a late forward chases it.
        let w2 = RemoteWaiter { node: 1, vc: vc() };
        assert_eq!(t.handle_forward(LockId(0), w2), ForwardOutcome::Chain(1));
    }

    #[test]
    fn manager_routing_updates_probable_owner() {
        let mut t = LockTable::new(0, 4);
        // First request: manager itself is owner → handle locally.
        assert_eq!(t.manager_route(LockId(0), 2), None);
        // Second request: probable owner is now node 2.
        assert_eq!(t.manager_route(LockId(0), 3), Some(2));
        // Third: owner chain continues through node 3.
        assert_eq!(t.manager_route(LockId(0), 1), Some(3));
    }

    #[test]
    fn release_with_no_waiters_keeps_token() {
        let mut t = LockTable::new(0, 2);
        t.acquire(LockId(0), ThreadId(0));
        assert_eq!(t.release(LockId(0), ThreadId(0)), ReleaseOutcome::Idle);
        assert!(t.has_token(LockId(0)));
        // Re-acquire succeeds instantly.
        assert_eq!(t.acquire(LockId(0), ThreadId(0)), AcquireOutcome::Granted);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let mut t = LockTable::new(0, 2);
        t.acquire(LockId(0), ThreadId(0));
        t.release(LockId(0), ThreadId(1));
    }

    #[test]
    fn leftover_remote_waiters_are_drained_after_grant() {
        let mut t = LockTable::new(0, 4);
        t.acquire(LockId(0), ThreadId(0));
        // Two remote requests queue while the lock is held.
        t.handle_forward(LockId(0), RemoteWaiter { node: 1, vc: vc() });
        t.handle_forward(LockId(0), RemoteWaiter { node: 2, vc: vc() });
        // Release grants to node 1; node 2 must be drained and chased.
        let out = t.release(LockId(0), ThreadId(0));
        assert!(matches!(
            out,
            ReleaseOutcome::GrantRemote(RemoteWaiter { node: 1, .. })
        ));
        let leftovers = t.drain_remote_queue(LockId(0));
        assert_eq!(leftovers.len(), 1);
        assert_eq!(leftovers[0].node, 2);
        assert!(t.drain_remote_queue(LockId(0)).is_empty());
    }

    /// `token_moves` counts what `held_tokens` can see change — a
    /// token arriving, leaving, or materializing with its manager's
    /// first touch — and nothing else.
    #[test]
    fn token_moves_counts_exactly_the_token_flips() {
        let held = |t: &LockTable| {
            let mut held: Vec<LockId> = t.held_tokens().collect();
            held.sort();
            held
        };
        let mut t = LockTable::new(0, 2);
        assert_eq!(t.token_moves(), 0);
        // Lock 1 is managed elsewhere: touching it moves no token.
        t.acquire(LockId(1), ThreadId(0));
        assert_eq!((t.token_moves(), held(&t)), (0, vec![]));
        // Lock 0 is managed here: its first touch materializes the
        // token.
        t.acquire(LockId(0), ThreadId(1));
        assert_eq!((t.token_moves(), held(&t)), (1, vec![LockId(0)]));
        // Local traffic under a held token moves nothing.
        t.acquire(LockId(0), ThreadId(2));
        t.release(LockId(0), ThreadId(1));
        t.release(LockId(0), ThreadId(2));
        assert_eq!(t.take_remote_if_free(LockId(0)), None);
        assert_eq!(t.token_moves(), 1);
        // Granting it away is one move, lock 1's token arriving
        // another.
        let w = RemoteWaiter { node: 1, vc: vc() };
        t.handle_forward(LockId(0), w);
        assert_eq!((t.token_moves(), held(&t)), (2, vec![]));
        t.handle_grant(LockId(1));
        assert_eq!((t.token_moves(), held(&t)), (3, vec![LockId(1)]));
    }

    #[test]
    fn different_locks_are_independent() {
        let mut t = LockTable::new(0, 2);
        assert_eq!(t.acquire(LockId(0), ThreadId(0)), AcquireOutcome::Granted);
        // Lock 1 is managed by node 1, so node 0 needs the token.
        assert_eq!(t.acquire(LockId(1), ThreadId(1)), AcquireOutcome::NeedToken);
    }
}

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
//! matter how many local threads are queued. That request is made
//! only for a thread already queued, and nothing pops the local queue
//! while the token is away, so every grant wakes a queued thread.
//!
//! This module is the pure per-node state machine; the engine performs
//! the messaging and cost accounting its decisions call for.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use rsdsm_simnet::NodeId;

use crate::msg::{LockId, RemoteWaiter};
use crate::thread::ThreadId;

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
    /// re-forwarding the request to the node it was passed to.
    Chain(NodeId, RemoteWaiter),
}

/// Where a lock's token is, as one node knows it. The node it was
/// last passed to, when this node passed it, is where a late forward
/// chases it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    /// The token is at this node.
    Here,
    /// The token is elsewhere and no local thread has asked for it.
    Away(Option<NodeId>),
    /// The token is elsewhere and this node's one request for it is
    /// outstanding, made for a thread already queued.
    Requested(Option<NodeId>),
}

#[derive(Debug, Clone)]
struct LockLocal {
    token: Token,
    held_by: Option<ThreadId>,
    local_queue: VecDeque<ThreadId>,
    remote_queue: VecDeque<RemoteWaiter>,
    /// On the lock's manager: the probable owner, the node the last
    /// routed request came from (the manager itself until then).
    owner: NodeId,
}

impl LockLocal {
    /// Node `node`'s first view of a lock managed by `manager`: the
    /// token starts at the manager.
    fn new(node: NodeId, manager: NodeId) -> Self {
        LockLocal {
            token: if node == manager {
                Token::Here
            } else {
                Token::Away(None)
            },
            held_by: None,
            local_queue: VecDeque::new(),
            remote_queue: VecDeque::new(),
            owner: manager,
        }
    }

    /// The one writer of `token` on a live entry; every change of
    /// hold bumps `moves`, the owning table's
    /// [`LockTable::token_moves`].
    fn set_token(&mut self, token: Token, moves: &mut u64) {
        *moves += u64::from((self.token == Token::Here) != (token == Token::Here));
        self.token = token;
    }
}

/// Per-node lock state for every lock the node has touched, with the
/// probable owner of each lock this node manages.
#[derive(Debug, Clone)]
pub(crate) struct LockTable {
    node: NodeId,
    nodes: usize,
    locks: HashMap<LockId, LockLocal>,
    /// Bumped by every change to what [`LockTable::held_tokens`]
    /// yields: each token arriving or leaving, and each entry that
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
            token_moves: 0,
        }
    }

    /// The manager node of `lock`.
    pub(crate) fn manager(&self, lock: LockId) -> NodeId {
        lock.0 as usize % self.nodes
    }

    /// The state of `lock` here (created on first touch), with the
    /// move counter a token write must bump.
    fn entry(&mut self, lock: LockId) -> (&mut LockLocal, &mut u64) {
        let (node, manager) = (self.node, self.manager(lock));
        let e = match self.locks.entry(lock) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                self.token_moves += u64::from(node == manager);
                v.insert(LockLocal::new(node, manager))
            }
        };
        (e, &mut self.token_moves)
    }

    /// Thread `tid` wants `lock`.
    pub(crate) fn acquire(&mut self, lock: LockId, tid: ThreadId) -> AcquireOutcome {
        let (e, _) = self.entry(lock);
        if e.token == Token::Here && e.held_by.is_none() && e.local_queue.is_empty() {
            e.held_by = Some(tid);
            return AcquireOutcome::Granted;
        }
        e.local_queue.push_back(tid);
        match e.token {
            Token::Here | Token::Requested(_) => AcquireOutcome::QueuedLocal,
            Token::Away(last) => {
                e.token = Token::Requested(last);
                AcquireOutcome::NeedToken
            }
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
            e.set_token(Token::Away(Some(waiter.node)), moves);
            return ReleaseOutcome::GrantRemote(waiter);
        }
        ReleaseOutcome::Idle
    }

    /// A request for `lock` was forwarded to this node (it is, or
    /// recently was, the owner).
    pub(crate) fn handle_forward(&mut self, lock: LockId, waiter: RemoteWaiter) -> ForwardOutcome {
        let (e, moves) = self.entry(lock);
        match e.token {
            Token::Here if e.held_by.is_none() && e.local_queue.is_empty() => {
                e.set_token(Token::Away(Some(waiter.node)), moves);
                ForwardOutcome::Grant(waiter)
            }
            Token::Away(Some(next)) | Token::Requested(Some(next)) => {
                ForwardOutcome::Chain(next, waiter)
            }
            // Busy here, or the token is on its way to us: serve the
            // remote after our turn.
            _ => {
                e.remote_queue.push_back(waiter);
                ForwardOutcome::Queued
            }
        }
    }

    /// The token for `lock` arrived (a grant from the previous owner)
    /// and goes to the first queued local thread, which is returned.
    ///
    /// # Panics
    ///
    /// Panics if no local thread waits for `lock`: a grant answers
    /// this node's one request, made for a thread it queued.
    pub(crate) fn handle_grant(&mut self, lock: LockId) -> ThreadId {
        let (e, moves) = self.entry(lock);
        debug_assert!(
            matches!(e.token, Token::Requested(_)),
            "grant of {lock:?} without a request"
        );
        e.set_token(Token::Here, moves);
        let tid = e
            .local_queue
            .pop_front()
            .expect("a grant wakes a queued thread");
        e.held_by = Some(tid);
        tid
    }

    /// Removes and returns every remote waiter still queued for
    /// `lock`. Called right after the token is granted away: the
    /// leftover requests must chase the token to its new holder, or
    /// they would be stranded at a node that will never hold the
    /// token again.
    pub(crate) fn drain_remote_queue(&mut self, lock: LockId) -> Vec<RemoteWaiter> {
        let (e, _) = self.entry(lock);
        debug_assert!(
            e.token != Token::Here,
            "draining while still holding the token"
        );
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
        let node = self.node;
        let owner = std::mem::replace(&mut self.entry(lock).0.owner, requester);
        (owner != node).then_some(owner)
    }

    /// True if the node currently holds the token for `lock` (for
    /// tests and assertions).
    #[cfg(test)]
    pub(crate) fn has_token(&self, lock: LockId) -> bool {
        self.locks
            .get(&lock)
            .map_or(self.manager(lock) == self.node, |e| e.token == Token::Here)
    }

    /// Puts `lock`'s token here although no grant brought it and no
    /// thread waits for it — a write the protocol never makes, for
    /// tests that need a token where it is not (or twice).
    #[cfg(test)]
    pub(crate) fn forge_token(&mut self, lock: LockId) {
        let (e, moves) = self.entry(lock);
        e.set_token(Token::Here, moves);
    }

    /// Every touched lock whose token is currently at this node, in
    /// no particular order (a lock this node manages and nobody has
    /// touched yet has no entry and is not listed).
    pub(crate) fn held_tokens(&self) -> impl Iterator<Item = LockId> + '_ {
        self.locks
            .iter()
            .filter(|(_, e)| e.token == Token::Here)
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
    use std::collections::BTreeMap;

    use super::*;
    use proptest::prelude::*;
    use rsdsm_protocol::VectorClock;

    fn waiter(node: NodeId) -> RemoteWaiter {
        RemoteWaiter {
            node,
            vc: VectorClock::new(2),
        }
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
        assert_eq!(t.handle_grant(LockId(0)), ThreadId(9));
        assert!(t.has_token(LockId(0)));
        assert_eq!(t.holder(LockId(0)), Some(ThreadId(9)));
    }

    #[test]
    fn release_passes_locally_before_remote() {
        let mut t = LockTable::new(0, 2);
        t.acquire(LockId(0), ThreadId(0));
        t.acquire(LockId(0), ThreadId(1));
        // A remote request arrives while thread 0 holds the lock.
        assert_eq!(
            t.handle_forward(LockId(0), waiter(1)),
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
            ReleaseOutcome::GrantRemote(waiter(1))
        );
        assert!(!t.has_token(LockId(0)));
    }

    #[test]
    fn forward_to_free_holder_grants_immediately() {
        let mut t = LockTable::new(0, 2);
        assert_eq!(
            t.handle_forward(LockId(0), waiter(1)),
            ForwardOutcome::Grant(waiter(1))
        );
        assert!(!t.has_token(LockId(0)));
    }

    #[test]
    fn forward_after_token_passed_chains() {
        let mut t = LockTable::new(0, 2);
        t.handle_forward(LockId(0), waiter(1));
        // Token now passed to node 1; a late forward chases it, and
        // its waiter comes back with it.
        assert_eq!(
            t.handle_forward(LockId(0), waiter(1)),
            ForwardOutcome::Chain(1, waiter(1))
        );
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
        t.handle_forward(LockId(0), waiter(1));
        t.handle_forward(LockId(0), waiter(2));
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
        // Lock 1 is managed elsewhere: touching it, and asking for its
        // token, moves no token.
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
        assert_eq!(t.token_moves(), 1);
        // Granting it away is one move, lock 1's token arriving
        // another.
        t.handle_forward(LockId(0), waiter(1));
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

    /// A lock message in flight, as the engine posts it.
    #[derive(Debug)]
    enum Msg {
        Request(LockId, RemoteWaiter),
        Forward(LockId, RemoteWaiter),
        Grant(LockId),
    }

    /// What a model thread is doing. A thread holds at most one lock,
    /// so the random programs below cannot deadlock on lock order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Doing {
        Idle,
        Waiting(LockId),
        Holding(LockId),
    }

    /// The engine's lock routing (`engine/sync.rs`) over real lock
    /// tables, without time, costs or clocks: acquire and release by
    /// threads, the manager's route, forward, chain, grant and the
    /// leftover drain, with every message on a per-link FIFO queue —
    /// the order the reliable transport delivers in.
    struct Cluster {
        tables: Vec<LockTable>,
        tpn: usize,
        threads: Vec<Doing>,
        links: BTreeMap<(NodeId, NodeId), VecDeque<Msg>>,
        acquires: usize,
        grants: usize,
    }

    impl Cluster {
        fn new(nodes: usize, tpn: usize) -> Self {
            Cluster {
                tables: (0..nodes).map(|n| LockTable::new(n, nodes)).collect(),
                tpn,
                threads: vec![Doing::Idle; nodes * tpn],
                links: BTreeMap::new(),
                acquires: 0,
                grants: 0,
            }
        }

        fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) {
            self.links.entry((from, to)).or_default().push_back(msg);
        }

        fn acquire(&mut self, tid: ThreadId, lock: LockId) {
            let n = tid.0 / self.tpn;
            self.acquires += 1;
            self.threads[tid.0] = Doing::Waiting(lock);
            match self.tables[n].acquire(lock, tid) {
                AcquireOutcome::Granted => self.enter(n, lock, tid),
                AcquireOutcome::QueuedLocal => {}
                AcquireOutcome::NeedToken => {
                    let manager = self.tables[n].manager(lock);
                    let waiter = RemoteWaiter {
                        node: n,
                        vc: VectorClock::new(1),
                    };
                    if manager == n {
                        self.route(n, lock, waiter);
                    } else {
                        self.send(n, manager, Msg::Request(lock, waiter));
                    }
                }
            }
        }

        fn release(&mut self, tid: ThreadId) {
            let Doing::Holding(lock) = self.threads[tid.0] else {
                return;
            };
            let n = tid.0 / self.tpn;
            self.threads[tid.0] = Doing::Idle;
            match self.tables[n].release(lock, tid) {
                ReleaseOutcome::PassedLocal(next) => self.enter(n, lock, next),
                ReleaseOutcome::GrantRemote(w) => self.grant(n, lock, w),
                ReleaseOutcome::Idle => {}
            }
        }

        /// `tid` enters `lock`'s critical section: it must be a thread
        /// of node `n` queued for exactly that lock.
        fn enter(&mut self, n: NodeId, lock: LockId, tid: ThreadId) {
            assert_eq!(tid.0 / self.tpn, n, "{tid:?} woken on node {n}");
            assert_eq!(
                self.threads[tid.0],
                Doing::Waiting(lock),
                "{tid:?} entered {lock:?} unasked"
            );
            self.threads[tid.0] = Doing::Holding(lock);
            self.grants += 1;
        }

        fn grant(&mut self, n: NodeId, lock: LockId, waiter: RemoteWaiter) {
            assert_ne!(waiter.node, n, "node {n} granted {lock:?} to itself");
            let to = waiter.node;
            self.send(n, to, Msg::Grant(lock));
            for leftover in self.tables[n].drain_remote_queue(lock) {
                self.send(n, to, Msg::Forward(lock, leftover));
            }
        }

        fn route(&mut self, m: NodeId, lock: LockId, waiter: RemoteWaiter) {
            match self.tables[m].manager_route(lock, waiter.node) {
                None => self.forward(m, lock, waiter),
                Some(owner) => self.send(m, owner, Msg::Forward(lock, waiter)),
            }
        }

        fn forward(&mut self, n: NodeId, lock: LockId, waiter: RemoteWaiter) {
            if waiter.node == n {
                // Only a pointer to the requester brings a forward
                // back to it, and it has passed the token on since.
                let token = self.tables[n].locks[&lock].token;
                assert!(
                    matches!(token, Token::Away(Some(_)) | Token::Requested(Some(_))),
                    "node {n}'s own forward for {lock:?} arrived at {token:?}"
                );
            }
            match self.tables[n].handle_forward(lock, waiter) {
                ForwardOutcome::Grant(w) => self.grant(n, lock, w),
                ForwardOutcome::Queued => {}
                ForwardOutcome::Chain(next, w) => self.send(n, next, Msg::Forward(lock, w)),
            }
        }

        /// Delivers the next message of one busy link, picked by
        /// `pick`; false when nothing is in flight.
        fn deliver(&mut self, pick: usize) -> bool {
            let busy: Vec<(NodeId, NodeId)> = self
                .links
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(k, _)| *k)
                .collect();
            let Some(&(from, to)) = busy.get(pick % busy.len().max(1)) else {
                return false;
            };
            let msg = self
                .links
                .get_mut(&(from, to))
                .and_then(VecDeque::pop_front);
            match msg.expect("a busy link") {
                Msg::Request(lock, w) => self.route(to, lock, w),
                Msg::Forward(lock, w) => self.forward(to, lock, w),
                Msg::Grant(lock) => {
                    let tid = self.tables[to].handle_grant(lock);
                    self.enter(to, lock, tid);
                }
            }
            true
        }

        /// Each lock's token is at one table or in one grant, and at
        /// most one thread is inside its critical section.
        fn check(&self, locks: u32) {
            for lock in (0..locks).map(LockId) {
                let here = self.tables.iter().filter(|t| t.has_token(lock)).count();
                let flying = self
                    .links
                    .values()
                    .flatten()
                    .filter(|m| matches!(m, Msg::Grant(l) if *l == lock))
                    .count();
                assert_eq!(
                    here + flying,
                    1,
                    "{lock:?}: token at {here} tables and in {flying} grants"
                );
                let inside = self
                    .threads
                    .iter()
                    .filter(|d| **d == Doing::Holding(lock))
                    .count();
                assert!(inside <= 1, "{lock:?} held by {inside} threads");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Random acquires and releases on 2–8 nodes of 1–3 threads
        /// and 1–4 locks, with messages delivered in FIFO order per
        /// link and in random order across links. At every step each
        /// token is in exactly one place, every grant wakes a thread
        /// queued for its lock, and a forward reaches its own
        /// requester only where a pointer leads it on. Once everything
        /// is delivered and every holder has released, every acquire
        /// was granted.
        #[test]
        fn every_acquire_is_granted_and_a_token_is_in_one_place(
            nodes in 2usize..=8,
            tpn in 1usize..=3,
            locks in 1u32..=4,
            steps in prop::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 1..300),
        ) {
            let mut c = Cluster::new(nodes, tpn);
            for (kind, a, b) in steps {
                let tid = ThreadId(a as usize % (nodes * tpn));
                match kind {
                    0 if c.threads[tid.0] == Doing::Idle => c.acquire(tid, LockId(b % locks)),
                    1 => c.release(tid),
                    _ => {
                        c.deliver(b as usize);
                    }
                }
                c.check(locks);
            }
            loop {
                while c.deliver(0) {
                    c.check(locks);
                }
                let Some(t) = c.threads.iter().position(|d| matches!(d, Doing::Holding(_))) else {
                    break;
                };
                c.release(ThreadId(t));
                c.check(locks);
            }
            prop_assert!(c.threads.iter().all(|d| *d == Doing::Idle), "{:?}", c.threads);
            prop_assert_eq!(c.grants, c.acquires);
        }
    }
}

//! Doors into crate-private hot paths for
//! `crates/bench/benches/microbench.rs`, which is outside the crate.
//! Not part of the API: hidden from the docs, no stability promise,
//! and nothing here does anything a run does not already do.

use rsdsm_protocol::VectorClock;
use rsdsm_simnet::SimTime;

use crate::lock::{ForwardOutcome, RemoteWaiter};
use crate::msg::LockId;
use crate::node::{NodeMem, NodeState};
use crate::oracle::OracleState;
use crate::thread::ThreadId;

/// A cluster's lock tables and clocks under the oracle's per-event
/// check, with no engine around them.
#[derive(Debug)]
pub struct OracleProbe {
    oracle: OracleState,
    nodes: Vec<NodeState>,
    /// The node holding lock 0's token, the one that moves.
    holder: usize,
}

impl OracleProbe {
    /// `nodes` nodes holding `tokens` tokens between them: locks
    /// `0..tokens`, each touched (and so materialized) at its
    /// manager, already swept once.
    pub fn new(nodes: usize, tokens: u32) -> Self {
        let mut probe = OracleProbe {
            oracle: OracleState::new(nodes),
            nodes: (0..nodes)
                .map(|id| NodeState::new(id, nodes, 1, NodeMem::default()))
                .collect(),
            holder: 0,
        };
        for lock in (0..tokens).map(LockId) {
            let manager = lock.0 as usize % nodes;
            probe.nodes[manager].locks.acquire(lock, ThreadId(manager));
            probe.nodes[manager].locks.release(lock, ThreadId(manager));
        }
        probe.quiet_event();
        probe
    }

    /// The check after an event that moved no token and no clock.
    pub fn quiet_event(&mut self) {
        self.oracle.check_event(&self.nodes, SimTime::ZERO);
    }

    /// One free token passes to the next node round the ring (the
    /// lock table's forward → grant pair), then the check.
    pub fn token_move_event(&mut self) {
        let (lock, from) = (LockId(0), self.holder);
        let to = (from + 1) % self.nodes.len();
        let waiter = RemoteWaiter {
            node: to,
            vc: VectorClock::new(self.nodes.len()),
        };
        let granted = self.nodes[from].locks.handle_forward(lock, waiter);
        assert!(matches!(granted, ForwardOutcome::Grant(_)), "token is free");
        self.nodes[to].locks.handle_grant(lock);
        self.holder = to;
        self.quiet_event();
    }

    /// Violations recorded so far (none: the traffic is coherent).
    pub fn violations(&self) -> usize {
        self.oracle.violations.len()
    }
}

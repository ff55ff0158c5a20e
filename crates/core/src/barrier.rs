//! Barriers with local combining and a central manager.
//!
//! TreadMarks barriers are centrally managed: each node sends one
//! arrival message carrying its new intervals; the manager, once all
//! nodes arrive, broadcasts a release redistributing every interval.
//! With multithreading the paper combines locally (§4.1): only the
//! *last* local thread to arrive generates the remote arrival message.

use std::collections::HashMap;
use std::sync::Arc;

use rsdsm_protocol::VectorClock;
use rsdsm_simnet::NodeId;

use crate::msg::{BarrierId, IntervalRecord};
use crate::thread::ThreadId;

/// Per-node barrier state: counts local arrivals so only the last
/// thread triggers the remote message.
#[derive(Debug, Clone)]
pub(crate) struct NodeBarrier {
    threads_on_node: usize,
    arrived: HashMap<BarrierId, Vec<ThreadId>>,
}

impl NodeBarrier {
    /// State for a node running `threads_on_node` application threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads_on_node` is zero.
    pub(crate) fn new(threads_on_node: usize) -> Self {
        assert!(threads_on_node > 0, "a node runs at least one thread");
        NodeBarrier {
            threads_on_node,
            arrived: HashMap::new(),
        }
    }

    /// Records a local arrival. Returns true when this was the last
    /// local thread — the caller must then send the node's arrival to
    /// the manager.
    ///
    /// # Panics
    ///
    /// Panics if the thread arrives twice at the same barrier episode.
    pub(crate) fn arrive(&mut self, id: BarrierId, tid: ThreadId) -> bool {
        let list = self.arrived.entry(id).or_default();
        assert!(!list.contains(&tid), "double arrival at {id:?}");
        list.push(tid);
        list.len() == self.threads_on_node
    }

    /// Consumes the arrival list on release; the returned threads are
    /// woken.
    pub(crate) fn release(&mut self, id: BarrierId) -> Vec<ThreadId> {
        self.arrived.remove(&id).unwrap_or_default()
    }

    /// Local threads currently waiting at `id`.
    #[cfg(test)]
    pub(crate) fn waiting(&self, id: BarrierId) -> usize {
        self.arrived.get(&id).map_or(0, Vec::len)
    }
}

/// Manager-side barrier state (lives on node 0).
#[derive(Debug, Clone)]
pub(crate) struct BarrierManager {
    nodes: usize,
    pending: HashMap<BarrierId, Episode>,
}

/// One open barrier episode: who arrived, the join of their clocks,
/// and the union of their intervals.
#[derive(Debug, Clone)]
struct Episode {
    arrived: Vec<NodeId>,
    joined: VectorClock,
    intervals: Vec<Arc<IntervalRecord>>,
}

impl BarrierManager {
    /// A manager for a cluster of `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub(crate) fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        BarrierManager {
            nodes,
            pending: HashMap::new(),
        }
    }

    /// Records a node's arrival with its clock and intervals. When
    /// every node has arrived, returns the join of their clocks and
    /// the deduplicated union of their intervals to broadcast (and
    /// closes the episode).
    ///
    /// # Panics
    ///
    /// Panics if a node arrives twice in one episode.
    pub(crate) fn node_arrived(
        &mut self,
        id: BarrierId,
        from: NodeId,
        vc: &VectorClock,
        intervals: &[Arc<IntervalRecord>],
    ) -> Option<(VectorClock, Vec<Arc<IntervalRecord>>)> {
        let nodes = self.nodes;
        let ep = self.pending.entry(id).or_insert_with(|| Episode {
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
        if ep.arrived.len() == self.nodes {
            let ep = self.pending.remove(&id).expect("episode exists");
            Some((ep.joined, ep.intervals))
        } else {
            None
        }
    }

    /// Nodes currently arrived at `id`.
    #[cfg(test)]
    pub(crate) fn arrived_count(&self, id: BarrierId) -> usize {
        self.pending.get(&id).map_or(0, |e| e.arrived.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsdsm_protocol::{PageId, VectorClock};

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

    #[test]
    fn last_local_thread_triggers_arrival() {
        let mut nb = NodeBarrier::new(3);
        assert!(!nb.arrive(BarrierId(0), ThreadId(0)));
        assert!(!nb.arrive(BarrierId(0), ThreadId(1)));
        assert_eq!(nb.waiting(BarrierId(0)), 2);
        assert!(nb.arrive(BarrierId(0), ThreadId(2)));
    }

    #[test]
    fn release_returns_all_waiters_and_resets() {
        let mut nb = NodeBarrier::new(2);
        nb.arrive(BarrierId(1), ThreadId(0));
        nb.arrive(BarrierId(1), ThreadId(1));
        let woken = nb.release(BarrierId(1));
        assert_eq!(woken, vec![ThreadId(0), ThreadId(1)]);
        assert_eq!(nb.waiting(BarrierId(1)), 0);
        // The barrier id can be reused for the next episode.
        assert!(!nb.arrive(BarrierId(1), ThreadId(0)));
    }

    #[test]
    #[should_panic(expected = "double arrival")]
    fn double_local_arrival_panics() {
        let mut nb = NodeBarrier::new(2);
        nb.arrive(BarrierId(0), ThreadId(0));
        nb.arrive(BarrierId(0), ThreadId(0));
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

    #[test]
    fn manager_releases_when_all_nodes_arrive() {
        let mut m = BarrierManager::new(3);
        let id = BarrierId(0);
        assert!(m
            .node_arrived(id, 0, &clock(3, 0, 1), &[rec(0, 1)])
            .is_none());
        assert!(m
            .node_arrived(id, 2, &clock(3, 2, 2), &[rec(2, 1)])
            .is_none());
        assert_eq!(m.arrived_count(id), 2);
        let (joined, released) = m
            .node_arrived(id, 1, &clock(3, 1, 3), &[rec(1, 1)])
            .expect("all arrived");
        assert_eq!(released.len(), 3);
        assert_eq!((joined.get(0), joined.get(1), joined.get(2)), (1, 3, 2));
        assert_eq!(m.arrived_count(id), 0);
    }

    #[test]
    fn manager_dedupes_intervals() {
        let mut m = BarrierManager::new(2);
        let vc = VectorClock::new(2);
        // Both nodes report the same interval (origin 0, tick 1) —
        // possible when it propagated through a lock first.
        assert!(m
            .node_arrived(BarrierId(0), 0, &vc, &[rec(0, 1), rec(0, 2)])
            .is_none());
        let (_, released) = m
            .node_arrived(BarrierId(0), 1, &vc, &[rec(0, 1)])
            .expect("all arrived");
        assert_eq!(released.len(), 2);
    }

    #[test]
    fn distinct_barrier_ids_are_independent_episodes() {
        let mut m = BarrierManager::new(2);
        let (a, b) = (BarrierId(0), BarrierId(1));
        assert!(m.node_arrived(a, 0, &clock(2, 0, 1), &[]).is_none());
        assert!(m.node_arrived(b, 0, &clock(2, 0, 2), &[]).is_none());
        let (joined, _) = m.node_arrived(b, 1, &clock(2, 1, 1), &[]).expect("b");
        assert_eq!((joined.get(0), joined.get(1)), (2, 1));
        let (joined, _) = m.node_arrived(a, 1, &clock(2, 1, 1), &[]).expect("a");
        assert_eq!((joined.get(0), joined.get(1)), (1, 1), "a's own clocks");
    }
}

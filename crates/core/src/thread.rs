//! Thread identity, and why a thread blocks.
//!
//! With multithreading (§4), each node runs several user-level
//! application threads; a switch occurs on long-latency events. Each
//! node's CPU — its FIFO ready queue, as in the paper's Pthreads-based
//! implementation, and which thread holds it — is the engine's
//! scheduling state (`engine/sched.rs`), which also decides *when*
//! switches happen and charges their cost.

use rsdsm_simnet::NodeId;

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
}

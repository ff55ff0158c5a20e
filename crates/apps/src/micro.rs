//! Micro-programs of the scale-out study: a few events per thread, so
//! that what they measure is the cluster, not the kernel.

use rsdsm_core::{BarrierId, DsmTask, Heap, HomePolicy, SharedVec, TaskCtx, PAGE_SIZE};

/// Shared-array words per page.
const WORDS: usize = PAGE_SIZE / 8;

/// Hot pages every node reads in the hot-spot study.
const HOT_PAGES: usize = 8;

/// Every node reads the same few pages, all homed on node 0 — the
/// directory hot-spot in its purest form. Read-only, so no write
/// intervals: the 1024-node tier stays memory-feasible.
#[derive(Debug, Clone, Copy)]
pub struct HotSpot;

impl DsmTask for HotSpot {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "hotspot".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(HOT_PAGES * WORDS, HomePolicy::Single(0))
    }

    async fn run(&self, ctx: &mut TaskCtx, v: &Self::Handles) {
        for p in 0..HOT_PAGES {
            let _ = ctx.read(v, p * WORDS).await;
        }
        ctx.barrier(BarrierId(0)).await;
    }
}

/// Node 0 prefetches one page homed on each of many peers at once:
/// the replies converge on its ingress link, congestion drops the
/// droppable ones, and the demand faults that follow measure the
/// retry storm.
#[derive(Debug, Clone, Copy)]
pub struct Incast {
    /// Fan-in: pages (round-robin homed) node 0 pulls at once.
    pub pages: usize,
}

impl DsmTask for Incast {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "incast".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(self.pages * WORDS, HomePolicy::RoundRobin)
    }

    async fn run(&self, ctx: &mut TaskCtx, v: &Self::Handles) {
        if ctx.node() == 0 {
            ctx.prefetch(v, 0, v.len()).await;
            for p in 0..self.pages {
                let _ = ctx.read(v, p * WORDS).await;
            }
        }
        ctx.barrier(BarrierId(0)).await;
    }
}

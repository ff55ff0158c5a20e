//! The global shared heap and typed array handles.
//!
//! Applications see shared memory as typed arrays ([`SharedVec`])
//! allocated from a single global, page-granular address space.
//! Each page has a *home* node that holds its initial (zeroed) copy
//! and serves first-touch fetches; [`HomePolicy`] controls how an
//! allocation's pages map to homes, which is how the applications
//! express their data layout (the paper's LU-CONT vs LU-NCONT
//! distinction is exactly a layout difference).

use std::marker::PhantomData;

use rsdsm_protocol::{PageId, PAGE_SIZE};
use rsdsm_simnet::NodeId;

use crate::config::DsmConfig;

/// A plain-old-data element type storable in shared memory.
///
/// Implementations convert to and from little-endian bytes; all
/// numeric primitives the applications need are covered.
pub trait Pod: Copy + Default + Send + Sync + 'static {
    /// Size of one element in bytes.
    const BYTES: usize;
    /// Writes the little-endian encoding into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != Self::BYTES`.
    fn write_le(self, out: &mut [u8]);
    /// Reads a value from its little-endian encoding.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != Self::BYTES`.
    fn read_le(input: &[u8]) -> Self;
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(input: &[u8]) -> Self {
                <$t>::from_le_bytes(input.try_into().expect("element byte width"))
            }
        }
    )*};
}

impl_pod!(f64, f32, u64, u32, i64, i32, u8);

/// How an allocation's pages are assigned home nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomePolicy {
    /// Every page homed on one node (the paper's applications
    /// initialize most data on the master, producing the hot-spotting
    /// the paper observes in FFT and SOR).
    Single(NodeId),
    /// Pages split into contiguous equal blocks, one per node.
    Blocked,
    /// Pages dealt round-robin across nodes.
    RoundRobin,
}

/// A typed handle to a shared array.
///
/// Handles are small and `Copy`; they carry no data — all accesses go
/// through the per-thread [`TaskCtx`](crate::TaskCtx).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct SharedVec<T: Pod> {
    first_page: u32,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Pod> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Pod> Copy for SharedVec<T> {}

impl<T: Pod> SharedVec<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages the array spans.
    pub fn page_count(&self) -> usize {
        (self.len * T::BYTES).div_ceil(PAGE_SIZE)
    }

    /// All pages backing the array, in order.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..self.page_count() as u32).map(move |i| PageId::new(self.first_page + i))
    }

    /// The page and in-page byte offset of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn locate(&self, i: usize) -> (PageId, usize) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let byte = i * T::BYTES;
        (
            PageId::new(self.first_page + (byte / PAGE_SIZE) as u32),
            byte % PAGE_SIZE,
        )
    }

    /// The pages touched by elements `start..end`, each with the
    /// element subrange it holds.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn locate_range(
        &self,
        start: usize,
        end: usize,
    ) -> impl Iterator<Item = (PageId, std::ops::Range<usize>)> + '_ {
        assert!(start <= end && end <= self.len, "bad range {start}..{end}");
        let elems_per_page = PAGE_SIZE / T::BYTES;
        let mut cur = start;
        std::iter::from_fn(move || {
            if cur >= end {
                return None;
            }
            let page_index = cur * T::BYTES / PAGE_SIZE;
            let page_end_elem = ((page_index + 1) * elems_per_page).min(end);
            let range = cur..page_end_elem;
            cur = page_end_elem;
            Some((PageId::new(self.first_page + page_index as u32), range))
        })
    }
}

/// The in-page byte range of the elements `range`, which must lie in
/// one page — as every range [`SharedVec::locate_range`] yields does.
/// The slice accessors index a page's bytes with it once per page.
pub(crate) fn page_bytes<T: Pod>(range: &std::ops::Range<usize>) -> std::ops::Range<usize> {
    let first = range.start * T::BYTES % PAGE_SIZE;
    first..first + range.len() * T::BYTES
}

/// The global shared heap: a bump allocator over pages with per-page
/// home assignment.
#[derive(Debug, Clone)]
pub struct Heap {
    nodes: usize,
    /// Application threads of the run the heap is laid out for.
    threads: usize,
    homes: Vec<NodeId>,
    next_rr: usize,
}

impl Heap {
    /// An empty heap for a cluster of `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "heap needs at least one node");
        Heap {
            nodes,
            threads: nodes,
            homes: Vec::new(),
            next_rr: 0,
        }
    }

    /// An empty heap for a run of `cfg`.
    pub(crate) fn for_config(cfg: &DsmConfig) -> Self {
        Heap {
            threads: cfg.total_threads(),
            ..Heap::new(cfg.nodes)
        }
    }

    /// Application threads of the run the heap is laid out for: one
    /// per node for a heap from [`Heap::new`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Allocates a shared array of `len` elements; pages are homed
    /// per `policy`. Allocations are page-aligned and never freed
    /// (matching the applications' allocate-once pattern).
    ///
    /// # Panics
    ///
    /// Panics if `policy` names a node outside the cluster, or if the
    /// element type is wider than a page.
    pub fn alloc<T: Pod>(&mut self, len: usize, policy: HomePolicy) -> SharedVec<T> {
        assert!(T::BYTES <= PAGE_SIZE, "element wider than a page");
        let first_page = self.homes.len() as u32;
        let pages = (len * T::BYTES).div_ceil(PAGE_SIZE).max(1);
        for i in 0..pages {
            let home = match policy {
                HomePolicy::Single(n) => {
                    assert!(n < self.nodes, "home node out of range");
                    n
                }
                HomePolicy::Blocked => (i * self.nodes / pages).min(self.nodes - 1),
                HomePolicy::RoundRobin => {
                    let h = self.next_rr;
                    self.next_rr = (self.next_rr + 1) % self.nodes;
                    h
                }
            };
            self.homes.push(home);
        }
        SharedVec {
            first_page,
            len,
            _marker: PhantomData,
        }
    }

    /// Total pages allocated.
    pub fn page_count(&self) -> usize {
        self.homes.len()
    }

    /// The home node of `page`.
    ///
    /// # Panics
    ///
    /// Panics if the page was never allocated.
    pub fn home(&self, page: PageId) -> NodeId {
        self.homes[page.index()]
    }

    /// Reassigns the home of `page` — the directory layer's hook for
    /// its policy override at startup. A run's homes are fixed once it
    /// starts: the engine only borrows the heap.
    ///
    /// # Panics
    ///
    /// Panics if the page was never allocated or the node is outside
    /// the cluster.
    pub fn set_home(&mut self, page: PageId, home: NodeId) {
        assert!(home < self.nodes, "home node out of range");
        self.homes[page.index()] = home;
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_round_trip() {
        let mut buf = [0u8; 8];
        1.5f64.write_le(&mut buf);
        assert_eq!(f64::read_le(&buf), 1.5);
        let mut buf4 = [0u8; 4];
        0xDEADu32.write_le(&mut buf4);
        assert_eq!(u32::read_le(&buf4), 0xDEAD);
    }

    #[test]
    fn alloc_is_page_aligned_and_contiguous() {
        let mut heap = Heap::new(4);
        let a: SharedVec<f64> = heap.alloc(512, HomePolicy::Single(0)); // exactly 1 page
        let b: SharedVec<f64> = heap.alloc(513, HomePolicy::Single(0)); // 2 pages
        assert_eq!(a.page_count(), 1);
        assert_eq!(b.page_count(), 2);
        assert_eq!(heap.page_count(), 3);
        let a_pages: Vec<_> = a.pages().collect();
        assert_eq!(a_pages, vec![PageId::new(0)]);
        let b_pages: Vec<_> = b.pages().collect();
        assert_eq!(b_pages, vec![PageId::new(1), PageId::new(2)]);
    }

    #[test]
    fn locate_elements() {
        let mut heap = Heap::new(2);
        let v: SharedVec<f64> = heap.alloc(1024, HomePolicy::Single(0));
        assert_eq!(v.locate(0), (PageId::new(0), 0));
        assert_eq!(v.locate(511), (PageId::new(0), 511 * 8));
        assert_eq!(v.locate(512), (PageId::new(1), 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn locate_out_of_bounds_panics() {
        let mut heap = Heap::new(2);
        let v: SharedVec<f64> = heap.alloc(8, HomePolicy::Single(0));
        v.locate(8);
    }

    #[test]
    fn locate_range_splits_at_page_boundaries() {
        let mut heap = Heap::new(2);
        let v: SharedVec<f64> = heap.alloc(1024, HomePolicy::Single(0));
        let spans: Vec<_> = v.locate_range(500, 600).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], (PageId::new(0), 500..512));
        assert_eq!(spans[1], (PageId::new(1), 512..600));
        let whole_page: Vec<_> = v.locate_range(0, 512).collect();
        assert_eq!(whole_page, [(PageId::new(0), 0..512)]);
        assert!(v.locate_range(5, 5).next().is_none());
    }

    #[test]
    fn home_policies() {
        let mut heap = Heap::new(4);
        let single: SharedVec<u8> = heap.alloc(4 * PAGE_SIZE, HomePolicy::Single(2));
        for p in single.pages() {
            assert_eq!(heap.home(p), 2);
        }
        let blocked: SharedVec<u8> = heap.alloc(8 * PAGE_SIZE, HomePolicy::Blocked);
        let homes: Vec<_> = blocked.pages().map(|p| heap.home(p)).collect();
        assert_eq!(homes, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        let rr: SharedVec<u8> = heap.alloc(4 * PAGE_SIZE, HomePolicy::RoundRobin);
        let homes: Vec<_> = rr.pages().map(|p| heap.home(p)).collect();
        assert_eq!(homes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn blocked_policy_covers_all_nodes_when_pages_exceed_nodes() {
        let mut heap = Heap::new(3);
        let v: SharedVec<u8> = heap.alloc(7 * PAGE_SIZE, HomePolicy::Blocked);
        let homes: Vec<_> = v.pages().map(|p| heap.home(p)).collect();
        assert!(homes.contains(&0) && homes.contains(&1) && homes.contains(&2));
        assert!(homes.windows(2).all(|w| w[0] <= w[1]), "monotone blocks");
    }

    #[test]
    fn empty_alloc_still_reserves_a_page() {
        let mut heap = Heap::new(1);
        let v: SharedVec<u64> = heap.alloc(0, HomePolicy::Single(0));
        assert!(v.is_empty());
        assert_eq!(heap.page_count(), 1);
    }

    #[test]
    fn handles_are_copy() {
        let mut heap = Heap::new(1);
        let v: SharedVec<f64> = heap.alloc(4, HomePolicy::Single(0));
        let w = v;
        assert_eq!(v, w);
    }
}

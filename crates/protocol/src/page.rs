//! Shared pages.
//!
//! The DSM's unit of coherence is the virtual-memory page (4 KB on the
//! paper's PowerPC 604 machines). [`Page`] is a plain byte container;
//! typed access is layered on top by the runtime's shared-array
//! handles. [`PageId`] numbers pages within the global shared heap.
//!
//! A page that was never written costs nothing: it is *unmaterialized*
//! — no buffer, reading as one shared static page of zeros — until the
//! first mutable access gives it a buffer of its own. Every node holds
//! a slot for every page of the heap, so this is what keeps a node's
//! memory proportional to the pages it touches rather than to the
//! heap (1024 nodes over a 64-page heap are 65 536 slots, of which a
//! read-mostly run writes a handful). The distinction is invisible
//! outside this module: pages compare, hash into digests, print and
//! encode by content.

use std::fmt;
use std::sync::Arc;

/// Size of a coherence unit in bytes, matching the paper's hardware.
pub const PAGE_SIZE: usize = 4096;

/// Identifies a page in the global shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(u32);

impl PageId {
    /// Creates a page id from its index in the shared heap.
    pub const fn new(index: u32) -> Self {
        PageId(index)
    }

    /// The page's index in the shared heap.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The page containing global byte offset `addr`.
    pub const fn containing(addr: usize) -> Self {
        PageId((addr / PAGE_SIZE) as u32)
    }

    /// The global byte offset of the first byte of this page.
    pub const fn base_addr(self) -> usize {
        self.0 as usize * PAGE_SIZE
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// What every unmaterialized page reads as.
static ZEROS: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// One page of shared data as held by a node. The default is
/// [`Page::new`]'s zero page.
#[derive(Clone, Default)]
pub struct Page {
    /// The page's own buffer; `None` while the page is unmaterialized
    /// (all zeros, never mutably accessed). A thin pointer: a node's
    /// page slot holds one beside its coherence state.
    bytes: Option<Box<[u8; PAGE_SIZE]>>,
}

impl Page {
    /// A zero-filled page. Allocates nothing: the page materializes on
    /// its first mutable access.
    pub fn new() -> Self {
        Page { bytes: None }
    }

    /// Whether the page owns a buffer. An unmaterialized page is all
    /// zeros; a materialized one may be too (written, then re-zeroed)
    /// and still equals it.
    pub fn is_materialized(&self) -> bool {
        self.bytes.is_some()
    }

    /// The page contents.
    pub fn bytes(&self) -> &[u8] {
        match &self.bytes {
            Some(bytes) => &bytes[..],
            None => &ZEROS,
        }
    }

    /// Mutable page contents (materializes the page).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        let zeroed = || vec![0; PAGE_SIZE].try_into().expect("PAGE_SIZE bytes");
        &mut self.bytes.get_or_insert_with(zeroed)[..]
    }

    /// Copies the entire contents of `other` into this page. A buffer
    /// this page already owns is reused (zeroed when `other` is
    /// unmaterialized); it gains one only when `other` has one.
    pub fn copy_from(&mut self, other: &Page) {
        match (&mut self.bytes, &other.bytes) {
            (Some(dst), Some(src)) => **dst = **src,
            (Some(dst), None) => dst.fill(0),
            (None, Some(src)) => self.bytes = Some(src.clone()),
            (None, None) => {}
        }
    }

    /// Reads a little-endian `u64` at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off + 8` exceeds the page.
    pub fn read_u64(&self, off: usize) -> u64 {
        // `get` + array conversion: one range check, then a fixed
        // 8-byte load with no per-byte bounds checks.
        match self.bytes().get(off..off + 8) {
            Some(chunk) => u64::from_le_bytes(chunk.try_into().expect("8 bytes")),
            None => panic!("u64 read at {off} exceeds the page"),
        }
    }

    /// Writes a little-endian `u64` at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off + 8` exceeds the page.
    pub fn write_u64(&mut self, off: usize, v: u64) {
        match self.bytes_mut().get_mut(off..off + 8) {
            Some(chunk) => {
                let chunk: &mut [u8; 8] = chunk.try_into().expect("8 bytes");
                *chunk = v.to_le_bytes();
            }
            None => panic!("u64 write at {off} exceeds the page"),
        }
    }
}

/// A free list of twin frames, reused to avoid the allocation a
/// materializing page pays on every twin. Each node keeps its own
/// pool, so no synchronization is involved; the pool is bounded so a
/// burst of twins cannot pin memory forever.
///
/// A frame is an `Arc<Page>`, which the engine shares zero-copy between
/// a twin and the message payloads built from it. It is only
/// recyclable once every clone has been dropped, so
/// [`PagePool::put_arc`] quietly discards still-shared frames instead
/// of holding a reference that would pin them.
#[derive(Debug, Default)]
pub struct PagePool {
    // Uniquely-owned frames only, so a recycled frame is always
    // writable without a copy-on-write clone.
    free_arcs: Vec<Arc<Page>>,
}

/// Retained free frames per pool; beyond this, returned frames are
/// dropped. 1024 pages = 4 MiB per node, comfortably above the
/// concurrent-twin high-water mark of every benchmark.
const POOL_MAX_FREE: usize = 1024;

impl PagePool {
    /// An empty pool.
    pub fn new() -> Self {
        PagePool::default()
    }

    /// An `Arc` frame holding a copy of `src`: a recycled
    /// uniquely-owned frame when one is free, a fresh allocation
    /// otherwise. The result always has refcount 1, so the caller may
    /// mutate it through [`Arc::get_mut`]/[`Arc::make_mut`] without
    /// triggering a clone.
    pub fn take_arc_copy_of(&mut self, src: &Page) -> Arc<Page> {
        match self.free_arcs.pop() {
            Some(mut frame) => {
                Arc::get_mut(&mut frame)
                    .expect("pooled frame is uniquely owned")
                    .copy_from(src);
                frame
            }
            None => Arc::new(src.clone()),
        }
    }

    /// Returns an `Arc` frame to the pool. Frames still shared with a
    /// live message payload are dropped (this pool reference would
    /// otherwise pin them, and they are not writable anyway); the
    /// last clone standing simply deallocates when it goes.
    pub fn put_arc(&mut self, frame: Arc<Page>) {
        if Arc::strong_count(&frame) == 1 && self.free_arcs.len() < POOL_MAX_FREE {
            self.free_arcs.push(frame);
        }
    }
}

/// Pages are equal when their contents are: an unmaterialized page
/// equals a materialized page of zeros (the oracle compares the golden
/// image against the DSM's, and either side may have written zeros).
impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        match (&self.bytes, &other.bytes) {
            (None, None) => true,
            _ => self.bytes() == other.bytes(),
        }
    }
}

impl Eq for Page {}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.bytes().iter().filter(|&&b| b != 0).count();
        write!(f, "Page({nonzero}/{PAGE_SIZE} nonzero bytes)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_addressing() {
        assert_eq!(PageId::containing(0), PageId::new(0));
        assert_eq!(PageId::containing(PAGE_SIZE - 1), PageId::new(0));
        assert_eq!(PageId::containing(PAGE_SIZE), PageId::new(1));
        assert_eq!(PageId::new(3).base_addr(), 3 * PAGE_SIZE);
        assert_eq!(PageId::new(3).index(), 3);
    }

    #[test]
    fn new_page_is_unmaterialized_and_reads_zeros() {
        let p = Page::new();
        assert!(!p.is_materialized());
        assert_eq!(p.bytes(), &[0u8; PAGE_SIZE][..]);
        assert_eq!(p.read_u64(PAGE_SIZE - 8), 0);
        assert!(!p.is_materialized(), "reading allocates nothing");
        assert!(!p.clone().is_materialized(), "nor does cloning");
        assert!(!Page::default().is_materialized());
    }

    #[test]
    fn first_mutable_access_materializes() {
        let mut p = Page::new();
        p.write_u64(8, 5);
        assert!(p.is_materialized());
        assert_eq!(p.read_u64(8), 5);
        assert_eq!(p.bytes().len(), PAGE_SIZE);
        assert!(p.clone().is_materialized());
    }

    /// Equality is by content: however a page of zeros came about, it
    /// equals a fresh one.
    #[test]
    fn zero_pages_are_equal_in_either_representation() {
        let mut rezeroed = Page::new();
        rezeroed.write_u64(0, 9);
        rezeroed.write_u64(0, 0);
        assert!(rezeroed.is_materialized());
        assert_eq!(rezeroed, Page::new());
        assert_eq!(Page::new(), rezeroed);

        let mut pool = PagePool::new();
        let mut dirty = Page::new();
        dirty.write_u64(64, 7);
        pool.put_arc(Arc::new(dirty));
        let recycled = pool.take_arc_copy_of(&Page::new());
        assert!(recycled.is_materialized(), "the buffer was reused");
        assert_eq!(*recycled, Page::new());
        assert!(
            !pool.take_arc_copy_of(&Page::new()).is_materialized(),
            "pool empty: fresh"
        );

        let mut written = Page::new();
        written.write_u64(0, 1);
        assert_ne!(written, Page::new());
        assert_ne!(Page::new(), written);
    }

    #[test]
    fn copy_from_handles_every_pairing() {
        let mut data = Page::new();
        data.write_u64(0, 42);

        // A zero source clears a dirty buffer in place.
        let mut dirty = data.clone();
        dirty.copy_from(&Page::new());
        assert!(dirty.is_materialized());
        assert_eq!(dirty, Page::new());

        // Zero onto zero stays free; data onto zero materializes.
        let mut fresh = Page::new();
        fresh.copy_from(&Page::new());
        assert!(!fresh.is_materialized());
        fresh.copy_from(&data);
        assert_eq!(fresh, data);

        // A pooled frame takes either kind of source.
        let mut pool = PagePool::new();
        pool.put_arc(Arc::new(data.clone()));
        assert_eq!(*pool.take_arc_copy_of(&Page::new()), Page::new());
        pool.put_arc(Arc::new(fresh.clone()));
        assert_eq!(*pool.take_arc_copy_of(&data), data);
        assert!(!pool.take_arc_copy_of(&Page::new()).is_materialized());
    }

    #[test]
    fn u64_round_trip() {
        let mut p = Page::new();
        p.write_u64(16, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(p.read_u64(16), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(p.read_u64(8), 0);
    }

    #[test]
    fn copy_from_replicates() {
        let mut a = Page::new();
        a.write_u64(0, 42);
        let mut b = Page::new();
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    /// The text is what it was when every page owned a buffer.
    #[test]
    fn debug_text_is_pinned() {
        assert_eq!(format!("{:?}", Page::new()), "Page(0/4096 nonzero bytes)");
        let mut p = Page::new();
        p.write_u64(0, 0x0100_0001);
        assert_eq!(format!("{p:?}"), "Page(2/4096 nonzero bytes)");
        p.write_u64(0, 0);
        assert_eq!(format!("{p:?}"), "Page(0/4096 nonzero bytes)");
    }
}

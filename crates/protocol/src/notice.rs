//! Write notices and the per-node notice board.
//!
//! When a processor releases a synchronization object, it piggybacks
//! *write notices* — (page, writer, interval timestamp) triples — on
//! the reply, telling the acquirer which pages were modified in
//! intervals the acquirer has not yet seen. The acquirer invalidates
//! those pages; a later access faults and fetches the corresponding
//! diffs from their writers.
//!
//! [`NoticeBoard`] is a node's record of the notices it knows about
//! and which of them have already been satisfied by an applied diff.
//!
//! # Which notices are on the board
//!
//! Only those of the pages the board *tracks*. Until a page is
//! tracked its notices wait in the node's interval log, where they are
//! recorded anyway, and the engine only invalidates the page's copy
//! when one arrives. The first board operation on the page — the
//! first time the node asks what is pending for it or applies to it —
//! [`seed`](NoticeBoard::seed)s the page's record with every remote
//! interval the log knows that names the page, pending and in the
//! order the log learned them: exactly the record that recording
//! every notice on arrival would have built, because nothing can be
//! marked applied on a page before its first operation. With nothing
//! to seed the page stays untracked, which answers as an empty record
//! would, until a notice arrives for it or something is marked applied
//! on it. From then on each notice is recorded as it arrives. So a node pays per page only for the pages it uses; most
//! notices name pages their receiver never touches. Which intervals
//! name a page is the cluster's one
//! [`PageIndex`](crate::PageIndex) (see `interval.rs` for its cost),
//! read through the node's log.
//!
//! # Index and costs
//!
//! The board is indexed by [`PageId::index`]: a slot table (4 bytes
//! per page up to the highest page it tracks) points into a compact
//! list of per-page records, so an untracked page costs its slot and
//! nothing else. A page's record keeps every notice in arrival order,
//! and beside it
//!
//! * the highest `seq` per origin that named the page (a short list
//!   sorted by origin), so a fresh notice — one above its origin's
//!   high-water mark, which is how intervals almost always arrive —
//!   is recognised without scanning the page's history;
//! * the count of unapplied notices and the position of the oldest,
//!   so a page with nothing pending answers at once and one with
//!   something pending scans only from there.
//!
//! Costs: [`record_stamp`](NoticeBoard::record_stamp) and
//! [`mark_applied`](NoticeBoard::mark_applied) of a fresh notice are a
//! slot lookup and a binary search over the page's origins; a
//! duplicate, an out-of-order relay and
//! [`is_applied`](NoticeBoard::is_applied) scan the page's notices
//! newest first; [`pending_by_origin`](NoticeBoard::pending_by_origin)
//! walks the pending tail; [`applied_for`](NoticeBoard::applied_for)
//! walks the whole history (it serves base copies, once per first
//! touch). No query hashes, and none allocates unless it has
//! something to hand out.

use std::sync::Arc;

use crate::clock::{Stamp, VectorClock};
use crate::page::PageId;
use crate::slots::SlotIndex;

/// Notification that `origin` wrote `page` during the interval
/// stamped `stamp`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteNotice {
    /// The modified page.
    pub page: PageId,
    /// The processor that performed the writes.
    pub origin: usize,
    /// Vector timestamp of the writer's interval.
    pub stamp: VectorClock,
}

/// Wire-size estimate of one encoded write notice, for message sizing.
pub(crate) const NOTICE_WIRE_BYTES: usize = 24;

/// One notice on the board. Its identity is `(origin, seq)` — the
/// writer and the writer's own component of the interval's stamp —
/// so lookups compare two integers, never whole clocks.
#[derive(Debug, Clone)]
struct NoticeEntry {
    origin: u32,
    seq: u32,
    stamp: Stamp,
    applied: bool,
}

/// Everything the board holds for one page.
#[derive(Debug, Clone, Default)]
struct PageNotices {
    /// Every notice for the page, in arrival order.
    entries: Vec<NoticeEntry>,
    /// Per origin with a notice for the page, ascending by origin:
    /// the highest `seq` among them. No entry of that origin has a
    /// larger one, so a notice above it is new without a scan.
    high: Vec<(u32, u32)>,
    /// Unapplied entries.
    pending: u32,
    /// No entry before this position is unapplied.
    first_pending: u32,
}

impl PageNotices {
    /// Where `origin`'s notice `seq` sits in `entries`.
    fn find(&self, origin: u32, seq: u32) -> Option<usize> {
        let below_high = match self.high.binary_search_by_key(&origin, |&(o, _)| o) {
            Ok(at) => seq <= self.high[at].1,
            Err(_) => false,
        };
        if !below_high {
            return None;
        }
        // Notices are looked up soon after they arrive: newest first.
        self.entries
            .iter()
            .rposition(|e| e.origin == origin && e.seq == seq)
    }

    /// Appends a notice known not to be on the page.
    fn push(&mut self, origin: u32, seq: u32, stamp: &Stamp, applied: bool) {
        match self.high.binary_search_by_key(&origin, |&(o, _)| o) {
            Ok(at) => self.high[at].1 = self.high[at].1.max(seq),
            Err(at) => self.high.insert(at, (origin, seq)),
        }
        self.entries.push(NoticeEntry {
            origin,
            seq,
            stamp: Arc::clone(stamp),
            applied,
        });
        if applied {
            self.skip_applied();
        } else {
            self.pending += 1;
        }
    }

    /// Marks the entry at `at` applied.
    fn apply(&mut self, at: usize) {
        let e = &mut self.entries[at];
        if !std::mem::replace(&mut e.applied, true) {
            self.pending -= 1;
            self.skip_applied();
        }
    }

    /// Advances `first_pending` past applied entries.
    fn skip_applied(&mut self) {
        let from = self.first_pending as usize;
        let skipped = self.entries[from..]
            .iter()
            .take_while(|e| e.applied)
            .count();
        self.first_pending += skipped as u32;
    }

    /// The entries that may be unapplied.
    fn pending_tail(&self) -> &[NoticeEntry] {
        &self.entries[self.first_pending as usize..]
    }
}

/// A node's record of known write notices, per page.
///
/// Invariant: at most one entry per (page, origin, seq).
#[derive(Debug, Clone, Default)]
pub struct NoticeBoard {
    /// One record per tracked page, by page index.
    pages: SlotIndex<PageNotices>,
}

impl NoticeBoard {
    /// An empty board.
    pub fn new() -> Self {
        NoticeBoard::default()
    }

    /// The record of `page`, if the board tracks it.
    fn page(&self, page: PageId) -> Option<&PageNotices> {
        self.pages.get(page.index())
    }

    /// The record of `page`, created empty if the board did not track
    /// it yet.
    fn page_mut(&mut self, page: PageId) -> &mut PageNotices {
        self.pages
            .get_or_insert_with(page.index(), PageNotices::default)
    }

    /// Whether the board holds a record for `page`.
    pub fn tracks(&self, page: PageId) -> bool {
        self.page(page).is_some()
    }

    /// Starts tracking `page` with `notices`, as `(origin, stamp)`
    /// pairs of distinct intervals, all pending, in the order given —
    /// the notices that waited in the interval log until the page's
    /// first board operation. The stamps are shared, not copied.
    pub fn seed<'a>(
        &mut self,
        page: PageId,
        notices: impl IntoIterator<Item = (usize, &'a Stamp)>,
    ) {
        debug_assert!(!self.tracks(page), "{page} is seeded once");
        let record = self.page_mut(page);
        for (origin, stamp) in notices {
            let (origin, seq) = (origin as u32, stamp.get(origin));
            debug_assert!(record.find(origin, seq).is_none(), "seeded twice");
            record.push(origin, seq, stamp, false);
        }
    }

    /// Records a notice received at acquire time (or piggybacked on a
    /// reply). Duplicates are ignored. Returns true if the notice was
    /// new — the caller should then invalidate the page.
    pub fn record(&mut self, notice: WriteNotice) -> bool {
        self.record_stamp(notice.page, notice.origin, &Arc::new(notice.stamp))
    }

    /// [`NoticeBoard::record`] for a stamp that is already shared
    /// (an interval record's): a new entry takes a reference to it
    /// instead of copying the clock.
    pub fn record_stamp(&mut self, page: PageId, origin: usize, stamp: &Stamp) -> bool {
        let (origin, seq) = (origin as u32, stamp.get(origin));
        let notices = self.page_mut(page);
        if notices.find(origin, seq).is_some() {
            return false;
        }
        notices.push(origin, seq, stamp, false);
        true
    }

    /// The pending (unapplied) notices of `page` as `(origin, stamp)`
    /// pairs, in arrival order.
    pub fn pending(&self, page: PageId) -> impl Iterator<Item = (usize, &Stamp)> {
        let notices = self.page(page).filter(|n| n.pending > 0);
        let tail = notices.map_or(&[][..], PageNotices::pending_tail);
        tail.iter()
            .filter(|e| !e.applied)
            .map(|e| (e.origin as usize, &e.stamp))
    }

    /// [`NoticeBoard::pending`], ascending by origin and, within an
    /// origin, in arrival order. Empty — without allocating — when
    /// nothing is pending.
    pub fn pending_by_origin(&self, page: PageId) -> Vec<(usize, Stamp)> {
        let mut out = Vec::with_capacity(self.page(page).map_or(0, |n| n.pending as usize));
        out.extend(
            self.pending(page)
                .map(|(origin, stamp)| (origin, Arc::clone(stamp))),
        );
        // Stable: each origin's notices keep their arrival order.
        out.sort_by_key(|&(origin, _)| origin);
        out
    }

    /// Marks the notice for `origin`'s interval stamped `stamp` as
    /// satisfied by an applied diff. Unknown notices are recorded as
    /// applied, which happens when a diff arrives (e.g. via prefetch)
    /// before its notice propagates.
    pub fn mark_applied(&mut self, page: PageId, origin: usize, stamp: &Stamp) {
        let (origin, seq) = (origin as u32, stamp.get(origin));
        let notices = self.page_mut(page);
        match notices.find(origin, seq) {
            Some(at) => notices.apply(at),
            None => notices.push(origin, seq, stamp, true),
        }
    }

    /// Whether the notice of `origin`'s interval `seq` for `page` is on
    /// the board, applied or not.
    pub fn knows(&self, page: PageId, origin: usize, seq: u32) -> bool {
        self.page(page)
            .is_some_and(|notices| notices.find(origin as u32, seq).is_some())
    }

    /// Whether the diff of `origin`'s interval `seq` has already been
    /// applied to the local copy of `page`. Re-applying an old diff
    /// after newer ones is unsound (diffs are byte-sparse), so
    /// consumers check this before applying cached data.
    pub fn is_applied(&self, page: PageId, origin: usize, seq: u32) -> bool {
        self.page(page).is_some_and(|notices| {
            notices
                .find(origin as u32, seq)
                .is_some_and(|at| notices.entries[at].applied)
        })
    }

    /// The (origin, stamp) pairs whose diffs have been applied into
    /// the local copy of `page`, in arrival order — sent along with
    /// base copies so a first-touch fetcher knows what the copy
    /// already incorporates.
    pub fn applied_for(&self, page: PageId) -> Vec<(usize, Stamp)> {
        self.page(page).map_or_else(Vec::new, |notices| {
            notices
                .entries
                .iter()
                .filter(|e| e.applied)
                .map(|e| (e.origin as usize, Arc::clone(&e.stamp)))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(n: usize, ticks: &[usize]) -> Stamp {
        let mut vc = VectorClock::new(n);
        for &p in ticks {
            vc.tick(p);
        }
        Arc::new(vc)
    }

    fn pending(board: &NoticeBoard, page: u32) -> usize {
        board.pending_by_origin(PageId::new(page)).len()
    }

    #[test]
    fn record_dedupes() {
        let mut board = NoticeBoard::new();
        let s = stamp(2, &[0]);
        assert!(board.record_stamp(PageId::new(1), 0, &s));
        assert!(!board.record_stamp(PageId::new(1), 0, &s));
        // The owned-notice entry point is the same operation.
        assert!(!board.record(WriteNotice {
            page: PageId::new(1),
            origin: 0,
            stamp: VectorClock::clone(&s),
        }));
        assert_eq!(pending(&board, 1), 1);
    }

    #[test]
    fn recorded_entries_share_the_stamp() {
        let mut board = NoticeBoard::new();
        let s = stamp(2, &[0]);
        board.record_stamp(PageId::new(1), 0, &s);
        board.record_stamp(PageId::new(2), 0, &s);
        assert_eq!(Arc::strong_count(&s), 3, "one clock, three holders");
        let pending = board.pending_by_origin(PageId::new(1));
        assert!(Arc::ptr_eq(&pending[0].1, &s));
    }

    #[test]
    fn pending_grouped_by_origin() {
        let mut board = NoticeBoard::new();
        board.record_stamp(PageId::new(1), 1, &stamp(2, &[1]));
        board.record_stamp(PageId::new(1), 0, &stamp(2, &[0, 0]));
        board.record_stamp(PageId::new(1), 0, &stamp(2, &[0]));
        let ids: Vec<(usize, u32)> = board
            .pending_by_origin(PageId::new(1))
            .iter()
            .map(|(o, s)| (*o, s.get(*o)))
            .collect();
        // Ascending by origin; within one, arrival order (seq 2 came
        // first, relayed ahead of seq 1).
        assert_eq!(ids, [(0, 2), (0, 1), (1, 1)]);
    }

    #[test]
    fn out_of_order_and_duplicate_notices_are_found_below_the_high_water() {
        let mut board = NoticeBoard::new();
        let (one, two) = (stamp(2, &[0]), stamp(2, &[0, 0]));
        assert!(board.record_stamp(PageId::new(4), 0, &two));
        assert!(board.record_stamp(PageId::new(4), 0, &one), "relayed late");
        assert!(!board.record_stamp(PageId::new(4), 0, &one));
        assert!(!board.record_stamp(PageId::new(4), 0, &two));
        board.mark_applied(PageId::new(4), 0, &one);
        assert!(board.is_applied(PageId::new(4), 0, 1));
        assert!(!board.is_applied(PageId::new(4), 0, 2));
        assert_eq!(pending(&board, 4), 1);
        board.mark_applied(PageId::new(4), 0, &two);
        assert_eq!(pending(&board, 4), 0);
        assert_eq!(
            board
                .applied_for(PageId::new(4))
                .iter()
                .map(|(_, s)| s.get(0))
                .collect::<Vec<_>>(),
            [2, 1],
            "arrival order"
        );
    }

    #[test]
    fn a_page_without_notices_answers_from_its_slot() {
        let mut board = NoticeBoard::new();
        board.record_stamp(PageId::new(7), 0, &stamp(1, &[0]));
        assert_eq!(board.pages.len(), 1, "one record, for the one named page");
        assert!(board.pending_by_origin(PageId::new(3)).is_empty());
        assert!(board.pending_by_origin(PageId::new(70)).is_empty());
        assert!(board.applied_for(PageId::new(3)).is_empty());
        assert!(!board.is_applied(PageId::new(70), 0, 1));
        assert!(!board.tracks(PageId::new(3)));
        assert_eq!(board.pages.len(), 1, "queries create nothing");
    }

    #[test]
    fn mark_applied_clears_pending() {
        let mut board = NoticeBoard::new();
        let s = stamp(2, &[0]);
        board.record_stamp(PageId::new(3), 0, &s);
        assert_eq!(pending(&board, 3), 1);
        assert!(!board.is_applied(PageId::new(3), 0, 1));
        board.mark_applied(PageId::new(3), 0, &s);
        assert_eq!(pending(&board, 3), 0);
        assert!(board.is_applied(PageId::new(3), 0, 1));
        assert_eq!(board.applied_for(PageId::new(3)), vec![(0, s)]);
    }

    #[test]
    fn diff_applied_before_notice_registers_as_applied() {
        let mut board = NoticeBoard::new();
        let s = stamp(2, &[1]);
        board.mark_applied(PageId::new(9), 1, &s);
        // The notice arriving later is a duplicate of an applied entry.
        assert!(!board.record_stamp(PageId::new(9), 1, &s));
        assert_eq!(pending(&board, 9), 0);
    }
}

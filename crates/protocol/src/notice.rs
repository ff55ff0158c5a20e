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

use std::collections::HashMap;
use std::sync::Arc;

use crate::clock::{Stamp, VectorClock};
use crate::page::PageId;

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
    origin: usize,
    seq: u32,
    stamp: Stamp,
    applied: bool,
}

/// A node's record of known write notices, per page.
///
/// Invariant: at most one entry per (page, origin, seq).
#[derive(Debug, Clone, Default)]
pub struct NoticeBoard {
    by_page: HashMap<PageId, Vec<NoticeEntry>>,
}

impl NoticeBoard {
    /// An empty board.
    pub fn new() -> Self {
        NoticeBoard::default()
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
        let seq = stamp.get(origin);
        let entries = self.by_page.entry(page).or_default();
        if entries.iter().any(|e| e.origin == origin && e.seq == seq) {
            return false;
        }
        entries.push(NoticeEntry {
            origin,
            seq,
            stamp: Arc::clone(stamp),
            applied: false,
        });
        true
    }

    /// The distinct origins that have pending (unapplied)
    /// modifications to `page`, with the stamps pending per origin.
    pub fn pending_by_origin(&self, page: PageId) -> Vec<(usize, Vec<Stamp>)> {
        let mut out: Vec<(usize, Vec<Stamp>)> = Vec::new();
        if let Some(entries) = self.by_page.get(&page) {
            for e in entries.iter().filter(|e| !e.applied) {
                match out.iter_mut().find(|(o, _)| *o == e.origin) {
                    Some((_, stamps)) => stamps.push(Arc::clone(&e.stamp)),
                    None => out.push((e.origin, vec![Arc::clone(&e.stamp)])),
                }
            }
        }
        out.sort_by_key(|(o, _)| *o);
        out
    }

    /// Marks the notice for `origin`'s interval stamped `stamp` as
    /// satisfied by an applied diff. Unknown notices are recorded as
    /// applied, which happens when a diff arrives (e.g. via prefetch)
    /// before its notice propagates.
    pub fn mark_applied(&mut self, page: PageId, origin: usize, stamp: &Stamp) {
        let seq = stamp.get(origin);
        let entries = self.by_page.entry(page).or_default();
        match entries
            .iter_mut()
            .find(|e| e.origin == origin && e.seq == seq)
        {
            Some(e) => e.applied = true,
            None => entries.push(NoticeEntry {
                origin,
                seq,
                stamp: Arc::clone(stamp),
                applied: true,
            }),
        }
    }

    /// Whether the diff of `origin`'s interval `seq` has already been
    /// applied to the local copy of `page`. Re-applying an old diff
    /// after newer ones is unsound (diffs are byte-sparse), so
    /// consumers check this before applying cached data.
    pub fn is_applied(&self, page: PageId, origin: usize, seq: u32) -> bool {
        self.by_page.get(&page).is_some_and(|es| {
            es.iter()
                .any(|e| e.applied && e.origin == origin && e.seq == seq)
        })
    }

    /// The (origin, stamp) pairs whose diffs have been applied into
    /// the local copy of `page` — sent along with base copies so a
    /// first-touch fetcher knows what the copy already incorporates.
    pub fn applied_for(&self, page: PageId) -> Vec<(usize, Stamp)> {
        self.by_page.get(&page).map_or_else(Vec::new, |es| {
            es.iter()
                .filter(|e| e.applied)
                .map(|e| (e.origin, Arc::clone(&e.stamp)))
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
        board
            .pending_by_origin(PageId::new(page))
            .iter()
            .map(|(_, stamps)| stamps.len())
            .sum()
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
        assert!(Arc::ptr_eq(&pending[0].1[0], &s));
    }

    #[test]
    fn pending_grouped_by_origin() {
        let mut board = NoticeBoard::new();
        board.record_stamp(PageId::new(1), 0, &stamp(2, &[0]));
        board.record_stamp(PageId::new(1), 0, &stamp(2, &[0, 0]));
        board.record_stamp(PageId::new(1), 1, &stamp(2, &[1]));
        let pending = board.pending_by_origin(PageId::new(1));
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].0, 0);
        assert_eq!(pending[0].1.len(), 2);
        assert_eq!(pending[1].0, 1);
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

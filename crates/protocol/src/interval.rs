//! Interval records, a node's indexed log of them, and the cluster's
//! one index of them by page.
//!
//! Every release closes an *interval*; the [`IntervalRecord`] naming
//! the pages it dirtied is the unit of write-notice propagation. A
//! node keeps every record it ever learns — its own and received — in
//! an [`IntervalLog`], and answers two questions from it on every
//! grant, barrier message and diff reply: which records a peer's
//! clock does not cover, and whether a given interval is known. The
//! log is never pruned, so each answer comes from an index and costs
//! in proportion to its size, not to the length of the run.
//!
//! The third question — which known records name a given page — is
//! asked far less often (once when a node first operates on a page's
//! notices, and once per base copy a home serves), so it is answered
//! from one [`PageIndex`] for the whole cluster instead of an index
//! in every log: the index says which intervals ever named the page,
//! and the asking node's log says which of them it knows and in what
//! order it learned them.
//!
//! An interval's identity is `(origin, seq)`: the writer and the
//! writer's own component of the stamp, which it ticked to close the
//! interval. Records are immutable and shared — the log, the messages
//! that carry a record and every other node's log hold one allocation.
//!
//! # Index and costs
//!
//! The log keeps one index, a slot table (4 bytes per origin up to
//! the highest origin a record names) into a compact list per origin:
//! `(seq, position)` pairs ascending by `seq`, so an origin no record
//! names holds no list. [`learn`](IntervalLog::learn) appends (a relay
//! that overtook an older record inserts), [`knows`](IntervalLog::knows)
//! is a binary search, [`of_origin`](IntervalLog::of_origin) a walk of
//! the list, and [`unknown_to`](IntervalLog::unknown_to) takes each
//! named origin's tail above the clock and sorts the positions.
//!
//! The [`PageIndex`] is a slot table by page into one list of
//! `(origin, seq)` identities per page, in seal order: 8 bytes per
//! (page, sealed interval) for the whole cluster, where a per-log page
//! index held 4 bytes per (node, page, learned interval).
//! [`seal`](PageIndex::seal) appends an interval once, when its writer
//! closes it; [`naming`](PageIndex::naming) looks each of the page's
//! identities up in the asking log (a binary search each) and sorts the
//! positions it finds.
//!
//! Nothing is hashed, and no query allocates unless it returns records.

use std::sync::Arc;

use crate::clock::{Stamp, VectorClock};
use crate::notice::NOTICE_WIRE_BYTES;
use crate::page::PageId;
use crate::slots::SlotIndex;

/// A closed interval: `origin` modified `pages` during the interval
/// stamped `stamp`. This is the unit of write-notice propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// The writing processor.
    pub origin: usize,
    /// Vector timestamp at the interval's close.
    pub stamp: Stamp,
    /// Pages dirtied during the interval.
    pub pages: Vec<PageId>,
}

impl IntervalRecord {
    /// The origin's own component of the stamp: with `origin`, the
    /// interval's identity.
    pub fn seq(&self) -> u32 {
        self.stamp.get(self.origin)
    }

    /// Wire size of the encoded record.
    pub fn wire_bytes(&self) -> usize {
        8 + 4 * self.stamp.len() + NOTICE_WIRE_BYTES * self.pages.len()
    }
}

/// Every interval a node has learned, in the order learned, indexed
/// by origin.
///
/// Invariants: at most one record per `(origin, seq)`; the index
/// covers exactly the records in the log; and nothing is held for an
/// origin no record names — a 1024-node cluster that never closes an
/// interval carries 1024 empty logs, not 1024² empty lists.
#[derive(Debug, Clone, Default)]
pub struct IntervalLog {
    records: Vec<Arc<IntervalRecord>>,
    /// Per origin with at least one record: the origin, and its
    /// `(seq, position in records)` pairs ascending by `seq`.
    by_origin: SlotIndex<(usize, Vec<(u32, u32)>)>,
}

impl IntervalLog {
    /// An empty log.
    pub fn new() -> Self {
        IntervalLog::default()
    }

    /// `origin`'s `(seq, position)` pairs (none if it has no record).
    fn seqs_of(&self, origin: usize) -> &[(u32, u32)] {
        self.by_origin.get(origin).map_or(&[], |(_, seqs)| seqs)
    }

    /// Appends `rec` unless an interval with its `(origin, seq)` is
    /// already logged. Returns true if it was new.
    pub fn learn(&mut self, rec: &Arc<IntervalRecord>) -> bool {
        let seq = rec.seq();
        let (_, of_origin) = self
            .by_origin
            .get_or_insert_with(rec.origin, || (rec.origin, Vec::new()));
        // Sequences mostly arrive ascending, but a record relayed by
        // a third node can overtake an older one of the same origin.
        let at = match of_origin.last() {
            Some(&(last, _)) if last < seq => of_origin.len(),
            _ => of_origin.partition_point(|&(s, _)| s < seq),
        };
        if of_origin.get(at).is_some_and(|&(s, _)| s == seq) {
            return false;
        }
        let pos = u32::try_from(self.records.len()).expect("interval log fits u32 positions");
        of_origin.insert(at, (seq, pos));
        self.records.push(Arc::clone(rec));
        true
    }

    /// Where `origin`'s interval `seq` sits in the log, if it is there.
    fn position(&self, origin: usize, seq: u32) -> Option<u32> {
        let seqs = self.seqs_of(origin);
        let at = seqs.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
        Some(seqs[at].1)
    }

    /// Whether `origin`'s interval `seq` is in the log.
    pub fn knows(&self, origin: usize, seq: u32) -> bool {
        self.position(origin, seq).is_some()
    }

    /// The records `vc` does not cover, in log order: the write
    /// notices to piggyback for a peer whose clock is `vc`.
    ///
    /// Takes, per origin, the records with `seq > vc[origin]`. That
    /// is the set `vc` does not dominate because every clock in the
    /// system is *causally closed*: `vc[o] ≥ s` implies `vc`
    /// dominates the stamp of `o`'s interval `s`. Clocks change only
    /// by `tick` (closing an interval, whose stamp is the clock) and
    /// by `join` with another node's closed clock, and nothing ever
    /// rolls a clock back. Debug builds check the result against the
    /// definition.
    pub fn unknown_to(&self, vc: &VectorClock) -> Vec<Arc<IntervalRecord>> {
        let mut positions: Vec<u32> = Vec::new();
        for (origin, of_origin) in self.by_origin.values() {
            let covered = vc.get(*origin);
            let from = of_origin.partition_point(|&(s, _)| s <= covered);
            positions.extend(of_origin[from..].iter().map(|&(_, pos)| pos));
        }
        positions.sort_unstable();
        let unknown: Vec<Arc<IntervalRecord>> = positions
            .into_iter()
            .map(|pos| Arc::clone(&self.records[pos as usize]))
            .collect();
        debug_assert!(
            unknown.iter().map(Arc::as_ptr).eq(self
                .records
                .iter()
                .filter(|rec| !vc.dominates(&rec.stamp))
                .map(Arc::as_ptr)),
            "clock {vc} is not causally closed over the interval log"
        );
        unknown
    }

    /// `origin`'s records, ascending by `seq`.
    pub fn of_origin(&self, origin: usize) -> impl Iterator<Item = &Arc<IntervalRecord>> {
        self.seqs_of(origin)
            .iter()
            .map(|&(_, pos)| &self.records[pos as usize])
    }

    /// Every record, in the order learned.
    pub fn records(&self) -> &[Arc<IntervalRecord>] {
        &self.records
    }

    /// Number of origins the index holds a list for — zero for a log
    /// that never learned a record.
    pub fn indexed_keys(&self) -> usize {
        self.by_origin.len()
    }
}

/// Every interval sealed in a cluster, by the pages it names: one
/// index for all nodes, appended to once per sealed interval.
///
/// It holds identities, not records. Which intervals a node knows,
/// and in what order it learned them, only that node's
/// [`IntervalLog`] says, so the index is read through a log
/// ([`PageIndex::naming`]); it only says where to look.
#[derive(Debug, Clone, Default)]
pub struct PageIndex {
    /// Per page some sealed interval names: `(origin, seq)`, in seal
    /// order.
    by_page: SlotIndex<Vec<(u32, u32)>>,
}

impl PageIndex {
    /// An empty index.
    pub fn new() -> Self {
        PageIndex::default()
    }

    /// Indexes `rec`, which its writer just sealed, under every page
    /// it names.
    pub fn seal(&mut self, rec: &IntervalRecord) {
        let id = (rec.origin as u32, rec.seq());
        for &page in &rec.pages {
            let naming = self.by_page.get_or_insert_with(page.index(), Vec::new);
            // A record listing a page twice still names it once.
            if naming.last() != Some(&id) {
                naming.push(id);
            }
        }
    }

    /// The records of `log` that name `page`, in `log`'s order.
    pub fn naming<'a>(
        &self,
        page: PageId,
        log: &'a IntervalLog,
    ) -> impl Iterator<Item = &'a Arc<IntervalRecord>> + 'a {
        let ids = self
            .by_page
            .get(page.index())
            .map_or(&[][..], Vec::as_slice);
        let mut positions: Vec<u32> = ids
            .iter()
            .filter_map(|&(origin, seq)| log.position(origin as usize, seq))
            .collect();
        positions.sort_unstable();
        positions.into_iter().map(|pos| &log.records[pos as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(origin: usize, ticks: u32, nodes: usize, pages: &[u32]) -> Arc<IntervalRecord> {
        let mut stamp = VectorClock::new(nodes);
        for _ in 0..ticks {
            stamp.tick(origin);
        }
        Arc::new(IntervalRecord {
            origin,
            stamp: Arc::new(stamp),
            pages: pages.iter().map(|&p| PageId::new(p)).collect(),
        })
    }

    #[test]
    fn learn_dedupes_and_shares() {
        let mut log = IntervalLog::new();
        let rec = record(1, 1, 2, &[0]);
        assert!(log.learn(&rec));
        assert!(!log.learn(&rec));
        assert!(!log.learn(&record(1, 1, 2, &[0])), "same identity");
        assert_eq!(log.records().len(), 1);
        assert!(Arc::ptr_eq(&log.records()[0], &rec));
        assert!(log.knows(1, 1));
        assert!(!log.knows(1, 2));
        assert!(!log.knows(0, 1));
    }

    #[test]
    fn unknown_to_cuts_each_origin_at_the_clock() {
        let mut log = IntervalLog::new();
        // Learned out of sequence order for origin 1.
        log.learn(&record(1, 2, 2, &[0]));
        log.learn(&record(1, 1, 2, &[0]));
        let mut knows_one = VectorClock::new(2);
        knows_one.tick(1);
        let unknown = log.unknown_to(&knows_one);
        assert_eq!(unknown.len(), 1);
        assert_eq!(unknown[0].seq(), 2);
        // Log order, not sequence order.
        let all = log.unknown_to(&VectorClock::new(2));
        assert_eq!(all.iter().map(|r| r.seq()).collect::<Vec<_>>(), [2, 1]);
        assert_eq!(
            log.of_origin(1).map(|r| r.seq()).collect::<Vec<_>>(),
            [1, 2]
        );
    }

    #[test]
    fn an_empty_log_indexes_nothing() {
        let log = IntervalLog::new();
        assert_eq!(log.indexed_keys(), 0);
        assert!(log.unknown_to(&VectorClock::new(1024)).is_empty());
        assert_eq!(log.of_origin(3).count(), 0);
        let index = PageIndex::new();
        assert_eq!(index.naming(PageId::new(0), &log).count(), 0);
        assert_eq!(log.indexed_keys(), 0, "queries build nothing");
    }

    #[test]
    fn record_wire_bytes() {
        let rec = record(0, 1, 4, &[0, 1]);
        assert_eq!(rec.wire_bytes(), 8 + 16 + 2 * NOTICE_WIRE_BYTES);
    }
}

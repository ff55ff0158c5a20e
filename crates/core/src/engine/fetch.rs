//! Page faults and the data they move: fetches, diff service, and
//! interval close/record.
//!
//! Invariants: a page is validated only once every write notice the
//! node holds for it is applied (or provably incorporated in an
//! applied base copy); a diff is never applied twice, nor over a base
//! that already contains it, nor ahead of a pending notice of the page
//! that happens before it; and each (node, page) has at most one
//! fetch in flight, which later faults join instead of duplicating.
//! Whatever the node holds for a page ahead of its validation — that
//! fetch, what prefetches asked for, prefetched base and diffs — is
//! the page's one [`PageRecord`](crate::node::PageRecord), whose entry
//! exists exactly while it holds something: validating the page
//! retires it.

use std::collections::HashSet;
use std::sync::Arc;

use rsdsm_protocol::{Diff, HbKey, Page, PageId, Stamp};
use rsdsm_simnet::{NodeId, SimDuration, SimTime};

use super::Core;
use crate::accounting::Category;
use crate::heap::Heap;
use crate::msg::{
    BasePayload, DiffPayload, DiffReply, DiffRequest, FetchClass, IntervalRecord, MsgBody,
};
use crate::node::{Fault, Fetch, MissClass, NodeState};
use crate::report::SimError;
use crate::thread::{BlockReason, ThreadId};
use crate::trace::{TraceEvent, NO_CAUSE, NO_THREAD};

/// Keeps reply diffs in the page's record for use at access time,
/// dropping any a faster fault path already applied — replaying those
/// later would corrupt the page. The page may already be valid (a
/// straggler reply): the diffs are kept all the same.
///
/// Reads only what is applied, so it leaves an untracked page
/// untracked: nothing is applied on a page before the board tracks it.
fn cache_unapplied(node: &mut NodeState, page: PageId, diffs: &[DiffPayload]) {
    for d in diffs {
        if !node.board.is_applied(page, d.origin, d.stamp.get(d.origin)) {
            node.records.entry(page).or_default().cache_diff(d.clone());
        }
    }
}

/// A freshly sealed interval: its record, the diff of each page the
/// record names (in the record's order), and what creating them costs.
struct Sealed {
    rec: Arc<IntervalRecord>,
    diffs: Vec<Arc<Diff>>,
    cost: SimDuration,
}

impl Sealed {
    /// The `DiffCreate` trace event of each sealed diff.
    fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let seq = self.rec.seq();
        self.rec
            .pages
            .iter()
            .zip(&self.diffs)
            .map(move |(page, diff)| TraceEvent::DiffCreate {
                page: page.index() as u32,
                seq,
                bytes: diff.encoded_bytes() as u32,
            })
    }
}

impl Core<'_> {
    // ------------------------------------------------------------------
    // Page faults and fetches
    // ------------------------------------------------------------------

    pub(super) fn handle_fault(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        page: PageId,
        _write: bool,
        now: SimTime,
    ) -> Result<(), SimError> {
        let end = self.charge(
            n,
            now,
            self.cfg.costs.fault_entry,
            Category::DsmOverhead,
            None,
        );
        self.nodes[n].misses.faults += 1;
        let begin_id = self.tracer.emit(
            now,
            n as u32,
            tid.0 as u32,
            NO_CAUSE,
            TraceEvent::FaultBegin {
                page: page.index() as u32,
                write: _write,
            },
        );

        // Request combining: join an in-flight fetch.
        let record = self.nodes[n].records.get_mut(&page);
        if let Some(f) = record.and_then(|r| r.fetch.as_mut()) {
            f.waiters.push(tid);
            return self.block(tid, n, BlockReason::Memory, end);
        }

        let (missing, need_base) = self.missing_for(n, page);
        let node = &mut self.nodes[n];
        let asked = node.records.get(&page).and_then(|r| r.asked.as_ref());
        if missing.is_empty() && !need_base {
            // Everything needed is already local (prefetched).
            let had_pf = asked.is_some();
            let apply_end = self.apply_with(n, page, Vec::new(), None, end);
            self.validate_page(n, page);
            let cls = if had_pf {
                MissClass::Hit
            } else {
                MissClass::NoPf
            };
            self.nodes[n].mem.prefetch.classify(cls);
            self.tracer.emit(
                apply_end,
                n as u32,
                tid.0 as u32,
                begin_id,
                TraceEvent::FaultEnd {
                    page: page.index() as u32,
                    class: cls.code(),
                },
            );
            let apply_end = self.adaptive_fault(tid, n, page, cls, begin_id, apply_end);
            return self.run_thread(tid, apply_end, None);
        }

        // A real remote miss.
        let class = match asked {
            None => MissClass::NoPf,
            Some(meta) => {
                let all_requested = missing
                    .iter()
                    .all(|(origin, s)| meta.requested.contains(&(*origin, s.get(*origin))))
                    && (!need_base || meta.wanted_base);
                if all_requested {
                    MissClass::TooLate
                } else {
                    MissClass::Invalidated
                }
            }
        };
        let joinable = asked.is_some_and(|meta| meta.joinable);
        node.misses.misses += 1;
        node.mem.prefetch.classify(class);
        self.note_remote_miss(n, page);
        let fault = Fault {
            at: now,
            begin: begin_id,
            class,
        };

        // Too-late join: when every missing piece was already
        // requested by an adaptive prefetch (reliable traffic — it
        // retransmits through loss and parks across a crash like any
        // demand message), re-requesting it would push a duplicate
        // round through the very server whose queue made the
        // prefetch late. Wait for the in-flight replies instead.
        let inflight = self.nodes[n].mem.pages[page.index()].pf_inflight();
        if class == MissClass::TooLate && joinable && inflight > 0 {
            let end = self.adaptive_fault(tid, n, page, class, begin_id, end);
            self.start_fetch(n, page, inflight as usize, vec![tid], fault, true);
            return self.block(tid, n, BlockReason::Memory, end);
        }

        // Demand requests launch first; the adaptive engine then
        // observes the fault and issues lookahead requests while the
        // thread is already blocked on the reply, so issue overhead
        // overlaps the memory stall instead of extending it.
        let (end, outstanding) =
            self.send_fetch_requests(n, page, missing, need_base, end, FetchClass::Demand);
        let end = self.adaptive_fault(tid, n, page, class, begin_id, end);
        self.start_fetch(n, page, outstanding, vec![tid], fault, false);
        self.block(tid, n, BlockReason::Memory, end)
    }

    /// Puts a fetch awaiting `outstanding` replies in `page`'s record:
    /// a demand fetch, or (`joined`) a too-late fault riding on the
    /// prefetch replies already in flight.
    fn start_fetch(
        &mut self,
        n: NodeId,
        page: PageId,
        outstanding: usize,
        waiters: Vec<ThreadId>,
        fault: Fault,
        joined: bool,
    ) {
        let record = self.nodes[n].records.entry(page).or_default();
        debug_assert!(record.fetch.is_none(), "one fetch per page");
        record.fetch = Some(Fetch {
            outstanding,
            waiters,
            collected: Vec::new(),
            base: None,
            fault,
            joined,
        });
    }

    /// The diffs node `n` still needs for `page` — its pending notices
    /// minus the diffs its record caches, as `(origin, stamp)` pairs
    /// ascending by origin — plus whether a base copy is needed.
    pub(super) fn missing_for(&mut self, n: NodeId, page: PageId) -> (Vec<(NodeId, Stamp)>, bool) {
        self.nodes[n].track_notices(&self.page_index, page);
        let node = &self.nodes[n];
        let record = node.records.get(&page);
        let mut missing = node.board.pending_by_origin(page);
        if let Some(record) = record {
            missing.retain(|(origin, s)| !record.has_diff(*origin, s.get(*origin)));
        }
        let need_base =
            !node.mem.pages[page.index()].has_copy() && record.is_none_or(|r| r.base.is_none());
        (missing, need_base)
    }

    /// Sends diff/base requests; returns the CPU end time and the
    /// number of requests sent — the replies to wait for. (A droppable
    /// prefetch request the network loses is counted as a send drop.)
    ///
    /// One request per origin with missing diffs, carrying that
    /// origin's run of `missing` (which is ascending by origin); the
    /// base rides on the home's request when the home is among them,
    /// and gets a request of its own otherwise.
    pub(super) fn send_fetch_requests(
        &mut self,
        n: NodeId,
        page: PageId,
        missing: Vec<(NodeId, Stamp)>,
        need_base: bool,
        end: SimTime,
        class: FetchClass,
    ) -> (SimTime, usize) {
        let home = self.heap.home(page);
        let send_cost = class.send_cost(&self.cfg.costs);
        let send_cat = class.send_category();
        let send = |core: &mut Self, end: SimTime, to: NodeId, stamps: Vec<Stamp>, want_base| {
            let end = core.charge(n, end, send_cost, send_cat, None);
            let body = MsgBody::DiffRequest(DiffRequest {
                page,
                stamps,
                want_base,
                class,
                vc: core.nodes[n].vc().clone(),
            });
            if !core.post(end, n, to, body) {
                core.nodes[n].mem.prefetch.send_drops += 1;
                core.tracer.emit(
                    end,
                    n as u32,
                    NO_THREAD,
                    NO_CAUSE,
                    TraceEvent::PrefetchDrop {
                        page: page.index() as u32,
                        reply: false,
                    },
                );
            }
            if class.is_prefetch() {
                core.nodes[n].mem.prefetch.messages += 1;
            }
            end
        };
        let (mut end, mut sent, mut base_asked) = (end, 0, false);
        let mut missing = missing.into_iter().peekable();
        while let Some(&(to, _)) = missing.peek() {
            let stamps = std::iter::from_fn(|| missing.next_if(|&(origin, _)| origin == to))
                .map(|(_, stamp)| stamp)
                .collect();
            let want_base = need_base && to == home;
            base_asked |= want_base;
            end = send(self, end, to, stamps, want_base);
            sent += 1;
        }
        if need_base && !base_asked {
            assert_ne!(home, n, "home node never needs a base copy");
            end = send(self, end, home, Vec::new(), true);
            sent += 1;
        }
        (end, sent)
    }

    /// Applies everything locally available for `page` (the record's
    /// prefetched base and diffs, then `base` and `extra` as collected
    /// by a fetch), marking notices applied. Takes what it applies out
    /// of the record; does not validate the page.
    fn apply_with(
        &mut self,
        n: NodeId,
        page: PageId,
        extra: Vec<DiffPayload>,
        base: Option<BasePayload>,
        mut end: SimTime,
    ) -> SimTime {
        self.nodes[n].track_notices(&self.page_index, page);
        let node = &mut self.nodes[n];
        let (cached_base, mut diffs) = match node.records.get_mut(&page) {
            Some(record) => (record.base.take(), record.take_diffs()),
            None => (None, Vec::new()),
        };
        // A fetch's own base wins over a prefetched one beside it.
        let base = base.or(cached_base);
        diffs.extend(extra);
        // Happens-before order, each stamp keyed once.
        let mut ordered: Vec<(HbKey<'_>, &DiffPayload)> =
            diffs.iter().map(|d| (d.stamp.hb_key(), d)).collect();
        ordered.sort_by_key(|&(key, _)| key);

        let mut apply_cost = SimDuration::ZERO;
        // A base is only ever kept for a page with no copy (see
        // `handle_diff_reply`). What it incorporates
        // is marked applied, so no diff below replays over it: the
        // base may also contain *newer* intervals (the home can be
        // ahead of this node), and replaying an older diff over it
        // would roll those bytes back.
        if let Some(b) = base {
            node.mem.install_base(page, &b.page);
            for (origin, stamp) in &b.incorporated {
                node.board.mark_applied(page, *origin, stamp);
            }
            apply_cost += self.cfg.costs.diff_apply(rsdsm_protocol::PAGE_SIZE);
        }
        // Pending notices this round has no diff for. A diff that one
        // of them happens before waits in the record: a prefetch reply
        // carries the diff of the interval its service split off, and
        // the server's earlier intervals of the page may not have
        // arrived yet — applied after it, they would roll it back.
        let held = |origin, seq| {
            diffs
                .iter()
                .any(|d| d.origin == origin && d.stamp.get(origin) == seq)
        };
        let absent: Vec<Stamp> = node
            .board
            .pending(page)
            .filter(|&(origin, stamp)| !held(origin, stamp.get(origin)))
            .map(|(_, stamp)| Arc::clone(stamp))
            .collect();
        for (_, cached) in ordered {
            let seq = cached.stamp.get(cached.origin);
            if node.board.is_applied(page, cached.origin, seq) {
                // Already incorporated (via the base or an earlier
                // fetch); re-applying a byte-sparse diff over newer
                // data would roll those bytes back.
                node.board.mark_applied(page, cached.origin, &cached.stamp);
                continue;
            }
            if absent.iter().any(|before| cached.stamp.dominates(before)) {
                node.records
                    .entry(page)
                    .or_default()
                    .cache_diff(cached.clone());
                continue;
            }
            if let Some(oracle) = &mut self.oracle {
                let covered = node.knows_interval(cached.origin, seq);
                oracle.check_coverage(covered, n, page, cached.origin, &cached.stamp, end);
            }
            node.mem.pages[page.index()].apply(&cached.diff);
            node.board.mark_applied(page, cached.origin, &cached.stamp);
            let cause =
                self.tracer
                    .notice_id(n as u32, page.index() as u32, cached.origin as u32, seq);
            self.tracer.emit(
                end,
                n as u32,
                NO_THREAD,
                cause,
                TraceEvent::DiffApply {
                    page: page.index() as u32,
                    origin: cached.origin as u32,
                    seq,
                },
            );
            apply_cost += self.cfg.costs.diff_apply(cached.diff.payload_bytes());
        }
        if !apply_cost.is_zero() {
            end = self.charge(n, end, apply_cost, Category::DsmOverhead, None);
        }
        end
    }

    /// Marks `page` valid and retires its record: what prefetches
    /// asked for is history, and [`Core::apply_with`] took the rest.
    fn validate_page(&mut self, n: NodeId, page: PageId) {
        let node = &mut self.nodes[n];
        node.mem.validate(page);
        if let Some(mut record) = node.records.remove(&page) {
            record.asked = None;
            debug_assert!(record.is_empty(), "validating {page} drops {record:?}");
        }
    }

    // ------------------------------------------------------------------
    // Interval management
    // ------------------------------------------------------------------

    /// Seals node `n`'s open writes to `pages` into one new interval:
    /// ticks the clock, takes each dirty page's twin and encodes the
    /// diff against it, stores the diffs and logs the interval. `None`
    /// (and no tick) when no listed page is dirty. A listed page that
    /// is not dirty — the dirty log's entry of a page a split sealed
    /// early — is skipped.
    ///
    /// Charges nothing and traces nothing: the two callers differ in
    /// exactly that (what the seal costs on top, and whether its
    /// `DiffCreate` records are stamped before or after the charge).
    fn seal_interval(&mut self, n: NodeId, pages: &[PageId], at: SimTime) -> Option<Sealed> {
        let node = &mut self.nodes[n];
        let (sealed, twins): (Vec<PageId>, Vec<_>) = pages
            .iter()
            .filter_map(|&page| Some((page, node.mem.take_twin(page)?)))
            .unzip();
        if sealed.is_empty() {
            return None;
        }
        let seq = node.tick_clock();
        let stamp = Arc::new(node.vc().clone());
        let mut cost = SimDuration::ZERO;
        let mut diffs = Vec::with_capacity(sealed.len());
        for (&page, twin) in sealed.iter().zip(twins) {
            let data = &node.mem.pages[page.index()].data;
            let diff = Arc::new(Diff::between(&twin, data));
            if let Some(oracle) = &mut self.oracle {
                oracle.check_roundtrip(&twin, data, &diff, n, page, at);
            }
            node.mem.pool.put_arc(twin);
            cost += self.cfg.costs.diff_create(diff.payload_bytes());
            node.own_diff_bytes += diff.encoded_bytes();
            node.own_diffs
                .insert((page.index(), seq), Arc::clone(&diff));
            diffs.push(diff);
        }
        let rec = Arc::new(IntervalRecord {
            origin: n,
            stamp,
            pages: sealed,
        });
        node.learn_interval(&rec);
        self.page_index.seal(&rec);
        Some(Sealed { rec, diffs, cost })
    }

    /// Closes node `n`'s open interval: encodes a diff for every dirty
    /// page, logs the interval, and advances the vector clock. No-op
    /// when nothing is dirty.
    pub(super) fn close_interval(&mut self, n: NodeId, at: SimTime) -> SimTime {
        let dirty = std::mem::take(&mut self.nodes[n].mem.dirty);
        let sealed = self.seal_interval(n, &dirty, at);
        debug_assert!(
            self.nodes[n].mem.pages.iter().all(|e| e.twin().is_none()),
            "a dirty page missing from node {n}'s dirty log"
        );
        let Some(sealed) = sealed else {
            return at;
        };
        for event in sealed.events() {
            self.tracer.emit(at, n as u32, NO_THREAD, NO_CAUSE, event);
        }
        self.charge(n, at, sealed.cost, Category::DsmOverhead, None)
    }

    /// Records the write notices of `rec` at node `n`, invalidating
    /// affected pages (skipping the node's own intervals).
    pub(super) fn record_interval(&mut self, n: NodeId, rec: &Arc<IntervalRecord>, at: SimTime) {
        let fresh = self.nodes[n].learn_interval(rec);
        if rec.origin == n {
            return;
        }
        // An interval the node already knew had every notice recorded
        // when it was first learned: on the board, or in the log for a
        // page the board does not track yet.
        if !fresh {
            let board = &self.nodes[n].board;
            debug_assert!(rec
                .pages
                .iter()
                .all(|&page| !board.tracks(page) || board.knows(page, rec.origin, rec.seq())));
            return;
        }
        for &page in &rec.pages {
            // A page the board does not track keeps its notices in the
            // log until its first board operation seeds them
            // (`track_notices`). A fresh interval's notice is new
            // there all the same.
            let board = &mut self.nodes[n].board;
            let untracked = !board.tracks(page);
            if untracked || board.record_stamp(page, rec.origin, &rec.stamp) {
                if self.tracer.is_on() {
                    let seq = rec.seq();
                    let id = self.tracer.emit(
                        at,
                        n as u32,
                        NO_THREAD,
                        NO_CAUSE,
                        TraceEvent::WriteNotice {
                            page: page.index() as u32,
                            origin: rec.origin as u32,
                            seq,
                        },
                    );
                    self.tracer.note_notice(
                        n as u32,
                        page.index() as u32,
                        rec.origin as u32,
                        seq,
                        id,
                    );
                }
                self.nodes[n].mem.invalidate(page);
            }
        }
    }

    /// Services a diff (or prefetch) request at node `m`.
    pub(super) fn serve_diff_request(
        &mut self,
        m: NodeId,
        requester: NodeId,
        req: &DiffRequest,
        at: SimTime,
    ) {
        let &DiffRequest {
            page,
            want_base,
            class,
            ..
        } = req;
        let mut end = at;
        let mut reply_diffs = Vec::new();

        if self.cfg.directory.enabled() && self.heap.home(page) == m {
            self.nodes[m].directory.home_hits += 1;
        }

        if class.splits_interval() {
            // §3.1: servicing a prefetch for a dirty page splits the
            // open interval so later writes are distinguishable, and
            // the fresh diff rides along in the reply.
            if let Some(sealed) = self.seal_interval(m, &[page], at) {
                end = self.charge(
                    m,
                    end,
                    sealed.cost + self.cfg.costs.prefetch_service_extra,
                    Category::DsmOverhead,
                    None,
                );
                for event in sealed.events() {
                    self.tracer.emit(end, m as u32, NO_THREAD, NO_CAUSE, event);
                }
                reply_diffs.extend(sealed.diffs.into_iter().map(|diff| DiffPayload {
                    origin: m,
                    stamp: Arc::clone(&sealed.rec.stamp),
                    diff,
                }));
            }
        }

        for stamp in &req.stamps {
            let seq = stamp.get(m);
            let diff = self.nodes[m]
                .own_diffs
                .get(&(page.index(), seq))
                .unwrap_or_else(|| panic!("requested diff ({page}, seq {seq}) missing at node {m}"))
                .clone();
            reply_diffs.push(DiffPayload {
                origin: m,
                stamp: Arc::clone(stamp),
                diff,
            });
        }

        let base = if want_base {
            let entry = &self.nodes[m].mem.pages[page.index()];
            // Serve from the twin when the page is dirty: the base
            // must not leak this node's *open-interval* writes.
            // Closed diffs are byte-sparse relative to the writer's
            // twin, so a requester holding uncommitted mid-interval
            // bytes would end up with a mix of two values once the
            // interval's diff arrives.
            let data = match entry.twin() {
                // Zero-copy: the reply shares the twin frame. A diff
                // applied to the twin before the frame drains
                // un-shares it (`Arc::make_mut`).
                Some(twin) => Arc::clone(twin),
                None => Arc::new(entry.data.clone()),
            };
            // Nothing is applied on a page the board does not track,
            // so `applied_for` needs no seeding.
            let node = &self.nodes[m];
            let mut incorporated = node.board.applied_for(page);
            incorporated.extend(
                node.intervals_naming(&self.page_index, page)
                    .filter(|rec| rec.origin == m)
                    .map(|rec| (m, Arc::clone(&rec.stamp))),
            );
            Some(BasePayload {
                page: data,
                incorporated,
            })
        } else {
            None
        };

        let intervals = self.nodes[m].intervals_unknown_to(&req.vc);
        end = self.charge(m, end, self.cfg.costs.msg_send, Category::DsmOverhead, None);
        let sent = self.post(
            end,
            m,
            requester,
            MsgBody::DiffReply(DiffReply {
                page,
                diffs: reply_diffs,
                base,
                class,
                intervals,
            }),
        );
        if !sent {
            // Only droppable prefetch replies can be lost; the
            // requester's demand-fault path recovers, and the loss
            // shows up as a too-late or no-pf fault there.
            self.nodes[m].mem.prefetch.reply_drops += 1;
            self.tracer.emit(
                end,
                m as u32,
                NO_THREAD,
                NO_CAUSE,
                TraceEvent::PrefetchDrop {
                    page: page.index() as u32,
                    reply: true,
                },
            );
        }
    }

    /// Absorbs a diff reply at node `n`: prefetch replies fill the
    /// page's record for use at access time, demand replies accumulate
    /// in its fetch, and the reply that completes a fetch applies and
    /// finishes it.
    pub(super) fn handle_diff_reply(
        &mut self,
        n: NodeId,
        reply: &DiffReply,
        end: SimTime,
    ) -> Result<(), SimError> {
        let page = reply.page;
        // Learn the piggybacked notices FIRST: the diffs may come from
        // intervals causally after ones we have not heard about yet.
        for rec in &reply.intervals {
            self.record_interval(n, rec, end);
        }
        let node = &mut self.nodes[n];
        // A base is asked for only while the page has no copy. One
        // that lands after the page gained a copy (a prefetch's reply
        // after a demand fetch installed the base, or a duplicate
        // reply) is older than that copy and is dropped here, so a
        // kept base always finds the slot empty.
        let base = reply
            .base
            .as_ref()
            .filter(|_| !node.mem.pages[page.index()].has_copy());
        let prefetch = reply.class.is_prefetch();
        if prefetch {
            node.mem.prefetch_replied(page);
            cache_unapplied(node, page, &reply.diffs);
            if let Some(b) = base {
                node.records.entry(page).or_default().base = Some(b.clone());
            }
        }
        // The fetch this reply counts toward. A prefetch reply counts
        // toward a too-late join only: the faulting thread is blocked
        // waiting for exactly these frames (the data itself went into
        // the record above).
        let counted = |f: &Fetch| !prefetch || f.joined;
        let slot = node.records.get_mut(&page).map(|r| &mut r.fetch);
        let Some(slot) = slot.filter(|s| s.as_ref().is_some_and(counted)) else {
            if !prefetch {
                // A straggler reply for a fetch that already completed
                // (e.g. a duplicate path).
                cache_unapplied(node, page, &reply.diffs);
            }
            return Ok(());
        };
        let fetch = slot.as_mut().expect("counted above");
        if !prefetch {
            fetch.collected.extend_from_slice(&reply.diffs);
            if base.is_some() {
                fetch.base = base.cloned();
            }
        }
        fetch.outstanding -= 1;
        if fetch.outstanding > 0 {
            return Ok(());
        }
        let fetch = slot.take().expect("counted above");
        let end = self.apply_with(n, page, fetch.collected, fetch.base, end);
        self.finish_fetch(n, page, fetch.waiters, fetch.fault, end)
    }

    /// Final leg of a completed fetch (demand or too-late join):
    /// re-drives anything that went missing while the replies were in
    /// flight, then validates the page and wakes the waiters.
    fn finish_fetch(
        &mut self,
        n: NodeId,
        page: PageId,
        waiters: Vec<ThreadId>,
        fault: Fault,
        end: SimTime,
    ) -> Result<(), SimError> {
        // New notices may have arrived while fetching; keep going.
        let (missing, need_base) = self.missing_for(n, page);
        if !missing.is_empty() || need_base {
            let (_, outstanding) =
                self.send_fetch_requests(n, page, missing, need_base, end, FetchClass::Demand);
            self.start_fetch(n, page, outstanding, waiters, fault, false);
            return Ok(());
        }

        self.validate_page(n, page);
        self.nodes[n].misses.latency_sum += end.saturating_since(fault.at);
        let thread = waiters.first().map_or(NO_THREAD, |t| t.0 as u32);
        self.tracer.emit(
            end,
            n as u32,
            thread,
            fault.begin,
            TraceEvent::FaultEnd {
                page: page.index() as u32,
                class: fault.class.code(),
            },
        );
        for tid in waiters {
            self.wake(tid, end)?;
        }
        Ok(())
    }
}

/// Builds the authoritative final memory image: for every page, the
/// home node's copy plus every diff it has not incorporated (in
/// happens-before order), plus any still-open modifications.
pub(super) fn materialize(heap: &Heap, nodes: &[NodeState]) -> Vec<Page> {
    let total_pages = heap.page_count();
    // Closed intervals' diffs per page, away from the page's home:
    // one walk over each node's own intervals.
    let mut closed: Vec<Vec<(&IntervalRecord, &Diff)>> = vec![Vec::new(); total_pages];
    for node in nodes {
        for rec in node.own_intervals() {
            for page in &rec.pages {
                if heap.home(*page) == node.id {
                    continue;
                }
                if let Some(diff) = node.own_diffs.get(&(page.index(), rec.seq())) {
                    closed[page.index()].push((rec, diff));
                }
            }
        }
    }
    let mut out = Vec::with_capacity(total_pages);
    for (p, mut pendings) in closed.into_iter().enumerate() {
        let page = PageId::new(p as u32);
        let home = heap.home(page);
        let mut data = nodes[home].mem.pages[p].data.clone();

        // Those not yet incorporated at the home.
        if !pendings.is_empty() {
            let applied: HashSet<(usize, u32)> = nodes[home]
                .board
                .applied_for(page)
                .into_iter()
                .map(|(o, s)| (o, s.get(o)))
                .collect();
            pendings.retain(|(rec, _)| !applied.contains(&(rec.origin, rec.seq())));
            let mut ordered: Vec<(HbKey<'_>, &Diff)> = pendings
                .iter()
                .map(|&(rec, diff)| (rec.stamp.hb_key(), diff))
                .collect();
            ordered.sort_by_key(|&(key, _)| key);
            for (_, diff) in ordered {
                diff.apply(&mut data);
            }
        }

        // Open (never-closed) modifications are the latest by program
        // order; apply them last.
        for node in nodes {
            if node.id == home {
                continue;
            }
            let entry = &node.mem.pages[p];
            if let Some(twin) = entry.twin() {
                Diff::between(twin, &entry.data).apply(&mut data);
            }
        }
        // The home's own open modifications are already in its data.
        out.push(data);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DsmConfig;
    use crate::heap::HomePolicy;
    use crate::node::NodeMem;

    /// Builds a minimal cluster state for materialize(): 2 nodes, one
    /// page homed on node 0.
    fn tiny_cluster() -> (Heap, Vec<NodeState>) {
        let mut heap = Heap::new(2);
        let _v: crate::heap::SharedVec<u64> = heap.alloc(512, HomePolicy::Single(0));
        let nodes = vec![
            NodeState::new(0, 2, NodeMem::new(1, |_| true)),
            NodeState::new(1, 2, NodeMem::new(1, |_| false)),
        ];
        (heap, nodes)
    }

    #[test]
    fn materialize_uses_home_copy() {
        let (heap, mut nodes) = tiny_cluster();
        nodes[0].mem.pages[0].data.write_u64(0, 77);
        let pages = materialize(&heap, &nodes);
        assert_eq!(pages[0].read_u64(0), 77);
    }

    #[test]
    fn materialize_applies_unincorporated_closed_diffs() {
        let (heap, mut nodes) = tiny_cluster();
        nodes[0].mem.pages[0].data.write_u64(0, 1);

        // Node 1 closed an interval writing offset 8 = 42.
        let mut twin = Page::new();
        twin.write_u64(0, 1);
        let mut data = twin.clone();
        data.write_u64(8, 42);
        let diff = Diff::between(&twin, &data);
        nodes[1].tick_clock();
        let stamp = Arc::new(nodes[1].vc().clone());
        nodes[1].own_diffs.insert((0, 1), Arc::new(diff));
        nodes[1].learn_interval(&Arc::new(IntervalRecord {
            origin: 1,
            stamp,
            pages: vec![PageId::new(0)],
        }));

        let pages = materialize(&heap, &nodes);
        assert_eq!(pages[0].read_u64(0), 1, "home bytes preserved");
        assert_eq!(pages[0].read_u64(8), 42, "closed diff applied");
    }

    #[test]
    fn materialize_skips_diffs_already_incorporated_at_home() {
        let (heap, mut nodes) = tiny_cluster();
        // Home already applied node 1's interval: data has the NEW
        // value; the diff would "re-apply" an identical value, but a
        // *later* home-local overwrite must not be clobbered.
        nodes[0].mem.pages[0].data.write_u64(8, 99); // newer than the diff below

        let twin = Page::new();
        let mut data = Page::new();
        data.write_u64(8, 42);
        let diff = Diff::between(&twin, &data);
        nodes[1].tick_clock();
        let stamp = Arc::new(nodes[1].vc().clone());
        nodes[1].own_diffs.insert((0, 1), Arc::new(diff));
        nodes[1].learn_interval(&Arc::new(IntervalRecord {
            origin: 1,
            stamp: Arc::clone(&stamp),
            pages: vec![PageId::new(0)],
        }));
        // Mark it applied at the home.
        nodes[0].board.mark_applied(PageId::new(0), 1, &stamp);

        let pages = materialize(&heap, &nodes);
        assert_eq!(pages[0].read_u64(8), 99, "incorporated diff not re-applied");
    }

    /// A base reply can land on a page that already holds a copy: a
    /// prefetch's reply after a demand fetch installed the page's base,
    /// or a duplicated datagram of a prefetch reply whose first copy
    /// the fault already used. Either way the base is older than node
    /// 1's copy: it is dropped, and the writes node 1 made since
    /// survive the next apply.
    #[test]
    fn a_late_base_never_lands_on_a_copy() {
        use rsdsm_simnet::QueueBackend;

        let cfg = DsmConfig::paper_cluster(2);
        let page = PageId::new(0);
        let mut stale = Page::new();
        stale.write_u64(0, 99);
        let reply = DiffReply {
            page,
            diffs: Vec::new(),
            base: Some(BasePayload {
                page: Arc::new(stale),
                incorporated: Vec::new(),
            }),
            class: FetchClass::Static,
            intervals: Vec::new(),
        };
        for duplicate in [false, true] {
            let (heap, _) = tiny_cluster();
            let plan = cfg.validate().expect("a valid config");
            let mut core = Core::new(&plan, &heap, Vec::new(), false, QueueBackend::default());
            core.nodes[1].mem.prefetch_sent(page, 1);
            // The copy node 1 validates: the prefetch reply's own base
            // (whose duplicate comes later), or a demand fetch's.
            let demand_base = if duplicate {
                core.handle_diff_reply(1, &reply, SimTime::ZERO).unwrap();
                None
            } else {
                Some(BasePayload {
                    page: Arc::new(Page::new()),
                    incorporated: Vec::new(),
                })
            };
            core.apply_with(1, page, Vec::new(), demand_base, SimTime::ZERO);
            core.validate_page(1, page);
            core.nodes[1].mem.pages[0].data.write_u64(0, 7);
            core.handle_diff_reply(1, &reply, SimTime::ZERO).unwrap();
            let kept = core.nodes[1]
                .records
                .get(&page)
                .and_then(|r| r.base.as_ref());
            assert!(kept.is_none(), "duplicate: {duplicate}");
            core.apply_with(1, page, Vec::new(), None, SimTime::ZERO);
            assert_eq!(core.nodes[1].mem.pages[0].data.read_u64(0), 7);
            assert_eq!(core.nodes[1].mem.prefetch_outstanding(), 0);
        }
    }

    #[test]
    fn materialize_applies_open_twins_last() {
        let (heap, mut nodes) = tiny_cluster();
        // Node 1 has an open interval: twin captures the pre-state,
        // data has uncommitted writes.
        let (page, mem) = (PageId::new(0), &mut nodes[1].mem);
        mem.install_base(page, &Page::new());
        mem.validate(page);
        assert!(mem.make_twin(page));
        mem.pages[0].data.write_u64(16, 5);

        let pages = materialize(&heap, &nodes);
        assert_eq!(pages[0].read_u64(16), 5, "open writes visible");
    }
}

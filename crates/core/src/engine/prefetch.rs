//! Prefetch issue: the application's static annotations (§3), the
//! Bianchini-style history replay at sync points, and the adaptive
//! stride engine of [`crate::prefetch`].
//!
//! Invariant: a prefetch is never issued for a page that is valid,
//! being fetched, or already covered by cached replies, and every
//! request sent is counted on the page's slot (and in its node's
//! running total) until its reply, or the page's validation, retires
//! it — the bound the adaptive engine's in-flight budget relies on.

use std::collections::HashMap;

use rsdsm_protocol::PageId;
use rsdsm_simnet::{NodeId, SimTime};

use super::Core;
use crate::accounting::Category;
use crate::config::{PrefetchConfig, PrefetchMode};
use crate::msg::FetchClass;
use crate::node::{MissClass, SyncKey};
use crate::prefetch::{
    AdaptiveStats, StrideDetector, ThrottleController, TrendChange, DETECTOR_WINDOW,
};
use crate::thread::ThreadId;
use crate::trace::{TraceEvent, NO_CAUSE, NO_THREAD};

/// A node's prefetcher: the state its run's [`PrefetchMode`] needs and
/// nothing else. The engine's fault and sync hooks match on it, so a
/// mode that is off is a variant that is absent.
#[derive(Debug)]
pub(crate) enum Prefetcher {
    /// No prefetching.
    Off,
    /// Application annotations only; they arrive as syscalls and need
    /// no engine-side state.
    Static,
    /// Bianchini-style history replay at sync points.
    History(HistoryNode),
    /// The adaptive stride engine (with or without annotations).
    Adaptive(AdaptiveNode),
}

impl Prefetcher {
    /// The prefetcher `cfg`'s mode calls for, on a node with
    /// `threads_on_node` local threads.
    pub(crate) fn for_config(cfg: &PrefetchConfig, threads_on_node: usize) -> Self {
        match cfg.mode {
            PrefetchMode::Off => Prefetcher::Off,
            PrefetchMode::Static => Prefetcher::Static,
            PrefetchMode::History => Prefetcher::History(HistoryNode::default()),
            PrefetchMode::Adaptive | PrefetchMode::AdaptiveStatic => {
                Prefetcher::Adaptive(AdaptiveNode::new(threads_on_node))
            }
        }
    }

    /// The adaptive engine's state, in the adaptive modes.
    pub(crate) fn adaptive(&self) -> Option<&AdaptiveNode> {
        match self {
            Prefetcher::Adaptive(ad) => Some(ad),
            _ => None,
        }
    }

    fn adaptive_mut(&mut self) -> Option<&mut AdaptiveNode> {
        match self {
            Prefetcher::Adaptive(ad) => Some(ad),
            _ => None,
        }
    }
}

/// Per-node access-pattern history of the Bianchini-style runtime
/// prefetcher ([`PrefetchMode::History`]).
#[derive(Debug, Default)]
pub(crate) struct HistoryNode {
    /// Pages that faulted after each synchronization point, keyed by
    /// the sync object.
    sync_history: HashMap<SyncKey, Vec<PageId>>,
    /// The sync object whose epoch is currently being recorded.
    current_sync: Option<SyncKey>,
    /// Pages faulted in the current epoch.
    current_faults: Vec<PageId>,
}

/// One local thread's fault stream, as the adaptive engine watches
/// it. Lock and barrier acquisitions break its delta chain, so every
/// (thread, lock-epoch) stream is scored independently.
#[derive(Debug)]
struct Stream {
    detector: StrideDetector,
    /// Streaming high-water mark: `(stride, furthest)` of the pages
    /// already planned under the current trend. Successive faults on a
    /// stride stream only extend the planned range past `furthest`
    /// (steady state: one new issue per fault) instead of re-issuing
    /// the whole overlapping lookahead window every fault. Cleared
    /// whenever the trend changes and at epoch boundaries (pages
    /// invalidated by the next interval must be re-planned).
    planned: Option<(i64, i64)>,
    /// Trend flips so far: each one means a previously confirmed
    /// majority turned out wrong. Scales the probation below
    /// exponentially — a stream that keeps flipping (an access pattern
    /// no stride model fits) is trusted less and less.
    flips: u32,
    /// Faults remaining before the current trend is trusted enough to
    /// issue on: 1 after a fresh detection, `2^flips` after a flip.
    /// Wrong-way windows fetched on a short-lived majority are load
    /// the §3.3 feedback can never attribute (pages nobody faults on
    /// are neither hits nor misses), so they must be prevented, not
    /// corrected.
    probation: u32,
}

impl Stream {
    /// A stream before its first fault.
    fn new() -> Self {
        Stream {
            detector: StrideDetector::new(DETECTOR_WINDOW),
            planned: None,
            flips: 0,
            probation: 0,
        }
    }

    /// A sync point bounds the access phase: the delta chain breaks so
    /// the jump across it is never scored as a stride, but the window
    /// survives — iterative apps repeat the same short stride pattern
    /// each epoch and the majority forms across epochs, not within
    /// one. Pages the next interval invalidates must be re-planned.
    fn epoch(&mut self) {
        self.detector.break_chain();
        self.planned = None;
    }
}

/// Per-node state of the adaptive prefetch engine (see
/// [`crate::prefetch`]).
#[derive(Debug)]
pub(crate) struct AdaptiveNode {
    /// One stream per local application thread.
    streams: Vec<Stream>,
    /// The node-wide feedback throttle over (degree, lead).
    throttle: ThrottleController,
    /// This node's share of the run-level adaptive counters.
    stats: AdaptiveStats,
}

impl AdaptiveNode {
    /// Fresh adaptive state for a node with `threads_on_node` local
    /// threads.
    fn new(threads_on_node: usize) -> Self {
        AdaptiveNode {
            streams: (0..threads_on_node).map(|_| Stream::new()).collect(),
            throttle: ThrottleController::new(),
            stats: AdaptiveStats::default(),
        }
    }

    /// This node's share of the run-level adaptive counters.
    pub(crate) fn stats(&self) -> &AdaptiveStats {
        &self.stats
    }
}

impl Core<'_> {
    // ------------------------------------------------------------------
    // Prefetching (§3)
    // ------------------------------------------------------------------

    /// Issues prefetch requests for `pages`, skipping anything valid,
    /// in flight, or already locally available. `cause` is the trace
    /// record the issues link to ([`NO_CAUSE`] inherits the ambient
    /// cause, as before); `class` is [`FetchClass::Static`] or, for
    /// stride-engine issues, [`FetchClass::Adaptive`] — those are
    /// counted in [`AdaptiveStats`] and travel as `adaptive_request`
    /// traffic.
    pub(super) fn handle_prefetch(
        &mut self,
        n: NodeId,
        pages: &[PageId],
        now: SimTime,
        cause: u64,
        class: FetchClass,
    ) -> SimTime {
        let adaptive = class == FetchClass::Adaptive;
        let mut end = now;
        for &page in pages {
            if self.nodes[n].mem.pages[page.index()].is_valid() {
                self.adaptive_cancel(n, class);
                continue;
            }
            let record = self.nodes[n].records.get(&page);
            if record.is_some_and(|r| r.fetch.is_some()) {
                self.adaptive_cancel(n, class);
                continue;
            }
            let (missing, need_base) = self.missing_for(n, page);
            if missing.is_empty() && !need_base {
                // Diffs already cached: the data is locally available.
                self.nodes[n].mem.prefetch.unnecessary += 1;
                self.adaptive_cancel(n, class);
                continue;
            }
            {
                let record = self.nodes[n].records.entry(page).or_default();
                let meta = record.asked.get_or_insert_with(Default::default);
                meta.joinable &= adaptive;
                for (origin, s) in &missing {
                    meta.requested.insert((*origin, s.get(*origin)));
                }
                if need_base {
                    meta.wanted_base = true;
                }
            }
            self.tracer.emit(
                end,
                n as u32,
                NO_THREAD,
                cause,
                TraceEvent::PrefetchIssue {
                    page: page.index() as u32,
                },
            );
            let (new_end, requests) =
                self.send_fetch_requests(n, page, missing, need_base, end, class);
            end = new_end;
            if adaptive {
                if let Some(ad) = self.nodes[n].prefetcher.adaptive_mut() {
                    ad.stats.issued += 1;
                }
            }
            self.nodes[n].mem.prefetch_sent(page, requests as u32);
        }
        end
    }

    /// Counts one adaptive candidate cancelled before issue. No-op
    /// for static prefetches.
    fn adaptive_cancel(&mut self, n: NodeId, class: FetchClass) {
        if class == FetchClass::Adaptive {
            if let Some(ad) = self.nodes[n].prefetcher.adaptive_mut() {
                ad.stats.cancelled += 1;
            }
        }
    }

    /// Adaptive engine hook, run on every classified fault; a no-op
    /// unless the node's prefetcher is the adaptive engine. Feeds the
    /// faulting thread's stride detector and the
    /// node's throttle controller, emits detect/throttle trace events
    /// linked to the fault's begin record, and issues prefetches ahead
    /// of the current trend at the controller's (degree, lead)
    /// operating point. All CPU time is charged here, at execution,
    /// on the fault path.
    pub(super) fn adaptive_fault(
        &mut self,
        tid: ThreadId,
        n: NodeId,
        page: PageId,
        class: MissClass,
        begin_id: u64,
        at: SimTime,
    ) -> SimTime {
        if self.nodes[n].prefetcher.adaptive().is_none() {
            return at;
        }
        let end = self.charge(
            n,
            at,
            self.cfg.costs.adaptive_observe(),
            Category::PrefetchOverhead,
            None,
        );
        let local = tid.local_index(self.tpn());
        let total_pages = self.heap.page_count() as i64;
        let ad = self.adaptive_node(n);
        let stream = &mut ad.streams[local];
        let change = stream.detector.observe(page.index() as u64);
        let trend = stream.detector.trend();
        if change != TrendChange::None {
            // Any trend movement restarts the planned-range tracking.
            stream.planned = None;
        }
        match change {
            // A fresh majority gets one confirming fault before
            // anything is issued on it.
            TrendChange::Detected(_) => {
                stream.probation = 1;
                ad.stats.detected_strides += 1;
            }
            // A flip means the last confirmed majority was wrong:
            // double the stream's probation each time. Irregular
            // patterns (2D neighborhoods, hash orders) flip
            // endlessly and quickly stop issuing at all.
            TrendChange::Flipped(_) => {
                stream.flips += 1;
                stream.probation = 1u32 << stream.flips.min(5);
                ad.stats.window_flips += 1;
            }
            _ => {}
        }
        let transition = ad.throttle.observe(class);
        if let Some(ch) = transition {
            ad.stats.record(ch);
        }
        let degree = ad.throttle.degree();
        let lead = ad.throttle.lead();
        let may_issue = ad.throttle.may_issue();
        if let TrendChange::Detected(s) | TrendChange::Flipped(s) = change {
            self.tracer.emit(
                end,
                n as u32,
                tid.0 as u32,
                begin_id,
                TraceEvent::AdaptiveDetect {
                    page: page.index() as u32,
                    stride: s as i32,
                },
            );
        }
        if let Some(ch) = transition {
            self.tracer.emit(
                end,
                n as u32,
                tid.0 as u32,
                begin_id,
                TraceEvent::AdaptiveThrottle {
                    change: ch.code(),
                    degree,
                    lead,
                },
            );
        }
        let Some(stride) = trend else {
            return end;
        };
        {
            let stream = &mut self.adaptive_node(n).streams[local];
            if stream.probation > 0 {
                // The stream's trend is still on probation (fresh, or
                // recently proven wrong by a flip): hold issue until
                // enough consecutive faults confirm it.
                stream.probation -= 1;
                return end;
            }
        }
        if !may_issue {
            // The trend holds but the controller is cooling down:
            // every candidate this fault would have planned is
            // cancelled unissued.
            self.adaptive_node(n).stats.cancelled += u64::from(degree);
            return end;
        }
        // The lookahead window this fault wants covered, clipped to
        // the extent beyond the thread's previous high-water mark:
        // successive faults on a stride stream extend the planned
        // range by ~one page each instead of re-issuing the whole
        // overlapping window (the burst would swamp the protocol
        // processors and the fabric for no added coverage).
        let planned = self.adaptive_node(n).streams[local].planned;
        let fresh: Vec<i64> = (0..degree)
            .map(|k| page.index() as i64 + stride * i64::from(lead + k))
            .filter(|&p| match planned {
                Some((ps, fur)) if ps == stride => {
                    if stride > 0 {
                        p > fur
                    } else {
                        p < fur
                    }
                }
                _ => true,
            })
            .collect();
        // In-flight budget: page-sized prefetch replies serialize on
        // the same links as demand replies, so an unpaced stream of
        // issues queues demand traffic behind megabytes of lookahead
        // and *adds* memory stall. New issues are admitted only while
        // fewer than `degree` replies are outstanding — the
        // controller's ramp/backoff therefore directly sizes the
        // pipeline the fabric carries.
        let outstanding = self.nodes[n].mem.prefetch_outstanding();
        let allowed = u64::from(degree.saturating_sub(outstanding)) as usize;
        let mut candidates: Vec<PageId> = fresh
            .iter()
            .filter(|&&p| p >= 0 && p < total_pages)
            .map(|&p| PageId::new(p as u32))
            .collect();
        candidates.truncate(allowed);
        {
            let ad = self.adaptive_node(n);
            // Fresh candidates past the heap ends or over budget are
            // cancelled; already-planned pages are simply not fresh.
            ad.stats.cancelled += (fresh.len() - candidates.len()) as u64;
            // The mark advances only over what actually issues, so
            // budget-suppressed pages stay eligible for later faults.
            if let Some(last) = candidates.last() {
                let far = last.index() as i64;
                let mark = match planned {
                    Some((ps, fur)) if ps == stride => {
                        if stride > 0 {
                            far.max(fur)
                        } else {
                            far.min(fur)
                        }
                    }
                    _ => far,
                };
                ad.streams[local].planned = Some((stride, mark));
            }
        }
        if candidates.is_empty() {
            return end;
        }
        // Plan and issue run on the node's protocol processor, off
        // the faulting thread's critical path: the CPU busy time is
        // charged (it delays later protocol work on this node) but
        // the fault completes independently — for a remote miss the
        // issues overlap the memory stall already in progress.
        let issue_at = self.charge(
            n,
            end,
            self.cfg.costs.adaptive_plan(candidates.len()),
            Category::PrefetchOverhead,
            None,
        );
        self.handle_prefetch(n, &candidates, issue_at, begin_id, FetchClass::Adaptive);
        end
    }

    /// Node `n`'s adaptive engine, inside [`Core::adaptive_fault`].
    fn adaptive_node(&mut self, n: NodeId) -> &mut AdaptiveNode {
        self.nodes[n]
            .prefetcher
            .adaptive_mut()
            .expect("checked on entry")
    }

    /// History mode: records a remote miss on `page` in the epoch of
    /// the sync point node `n` last passed. No-op in any other mode.
    pub(super) fn note_remote_miss(&mut self, n: NodeId, page: PageId) {
        if let Prefetcher::History(h) = &mut self.nodes[n].prefetcher {
            h.current_faults.push(page);
        }
    }

    /// A synchronization point was reached on node `n`: `tid` was
    /// granted lock `key` remotely, or (`None`) the node passed
    /// barrier `key`. The adaptive engine breaks its delta chains
    /// there. The history prefetcher closes its epoch — the pages that
    /// faulted since the previous sync point become the history of
    /// that point's sync object — and prefetches the history recorded
    /// for `key`. Returns the CPU end time.
    pub(super) fn prefetch_at_sync(
        &mut self,
        n: NodeId,
        key: SyncKey,
        tid: Option<ThreadId>,
        now: SimTime,
    ) -> SimTime {
        let tpn = self.tpn();
        let node = &mut self.nodes[n];
        let history = match &mut node.prefetcher {
            Prefetcher::Off | Prefetcher::Static => return now,
            Prefetcher::Adaptive(ad) => {
                // A remote lock grant bounds its thread's stream; a
                // barrier release bounds every local stream.
                match tid {
                    Some(tid) => ad.streams[tid.local_index(tpn)].epoch(),
                    None => ad.streams.iter_mut().for_each(Stream::epoch),
                }
                return now;
            }
            Prefetcher::History(h) => {
                let faults = std::mem::take(&mut h.current_faults);
                if let Some(prev) = h.current_sync.replace(key) {
                    h.sync_history.insert(prev, faults);
                }
                h.sync_history.get(&key).cloned().unwrap_or_default()
            }
        };
        if history.is_empty() {
            return now;
        }
        let mem = &mut node.mem;
        mem.prefetch.calls += history.len() as u64;
        mem.prefetch.unnecessary += history
            .iter()
            .filter(|p| mem.pages[p.index()].is_valid())
            .count() as u64;
        let end = self.charge(
            n,
            now,
            self.cfg.costs.prefetch_check * history.len() as u64,
            Category::PrefetchOverhead,
            None,
        );
        self.handle_prefetch(n, &history, end, NO_CAUSE, FetchClass::Static)
    }
}

//! Per-node runtime state.
//!
//! [`NodeState`] is everything the engine keeps for one node but its
//! CPU (whose scheduling state is `engine/sched.rs`'s): vector clock,
//! notice board, diff storage, one [`PageRecord`] per page with
//! something in flight or cached ahead, locks, accounting —
//! and the node's memory, [`NodeMem`]: the part application threads
//! touch directly on the fast path (page data, each page's
//! [`PageState`], and the two prefetch facts a thread checks before it
//! bothers the engine).
//!
//! A page's state moves only through [`NodeMem`]'s transitions: only
//! a base copy ends `Never`; notices make a copy stale and validation
//! makes it current; the open interval's
//! first write twins it onto the dirty log, and the seal takes the
//! twin back. A model in this module's tests drives them at random
//! against a reference that keeps three facts apart: a copy held,
//! valid, twinned.
//!
//! Invariant: a node's memory is with exactly one party. It is the
//! `mem` field here except while one of the node's threads runs, when
//! the engine has moved it into that thread's context for the length
//! of the burst (see [`conductor`](crate::conductor)); the next
//! syscall moves it back. Ownership enforces this — there is no lock
//! around the memory (the hand-off slot it passes through is locked
//! for the move alone), and no engine code can run while the field is
//! away, because the engine is then inside the hand-off that took it
//! — polling the thread's task, or blocked on its OS thread.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rsdsm_protocol::{
    Diff, IntervalLog, NoticeBoard, Page, PageId, PageIndex, PagePool, VectorClock,
};
use rsdsm_simnet::{NodeId, SimTime};

use crate::accounting::NodeAccount;
use crate::engine::prefetch::Prefetcher;
use crate::lock::LockTable;
use crate::msg::{wire_enum, BasePayload, DiffPayload, IntervalRecord};
use crate::report::{DirectorySummary, MissSummary, MtSummary, PrefetchSummary, SyncSummary};
use crate::thread::ThreadId;

/// Where one node's copy of a page stands under the multiple-writer
/// protocol (§3.1): exactly the five states a run reaches, and the
/// golden model's one.
///
/// - `Never`: no copy yet; the first access needs a base copy from
///   the home, whose slot starts `Held` and valid. A base makes it
///   `Held` (stale until the page's notices are applied).
/// - `Held { valid, twin }`: a copy, current when `valid` (a notice
///   clears it, validation sets it), with the open interval's `twin`
///   from its first write until the interval is sealed. A twinned copy
///   may be invalid: a lock grant records notices without closing the
///   acquirer's open interval.
/// - `Flat`: the golden model's memory (`NodeMem::flat`), with no
///   protocol at all: always valid, and a write twins nothing, since
///   nothing is ever sealed into a diff.
///
/// The twin is an `Arc` frame, so a base reply built from it shares it
/// zero-copy; mutation goes through `Arc::make_mut`, which un-shares
/// first.
#[derive(Debug, Clone, Default)]
pub(crate) enum PageState {
    #[default]
    Never,
    Held {
        valid: bool,
        twin: Option<Arc<Page>>,
    },
    Flat,
}

impl PageState {
    /// An untwinned copy.
    fn copy(valid: bool) -> Self {
        PageState::Held { valid, twin: None }
    }
}

/// One page slot in a node's memory.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageEntry {
    /// The node's copy of the page contents (possibly stale).
    pub data: Page,
    /// Where the copy stands. Only [`NodeMem`]'s methods write it, so
    /// a twinned slot is always on the dirty log.
    state: PageState,
    /// Prefetch replies still outstanding for the page: every request
    /// sent counts until its reply, or the page's validation, retires
    /// it. Only [`NodeMem`]'s methods write it, so the node-wide total
    /// cannot drift from the slots.
    pf_inflight: u32,
    /// The §5.1 redundant-prefetch flag: a thread of this node already
    /// prefetched the page this barrier epoch.
    epoch_prefetched: bool,
}

impl PageEntry {
    /// Whether the copy may be accessed.
    pub(crate) fn is_valid(&self) -> bool {
        matches!(
            self.state,
            PageState::Held { valid: true, .. } | PageState::Flat
        )
    }

    /// Whether the node has (ever) held a copy.
    pub(crate) fn has_copy(&self) -> bool {
        matches!(self.state, PageState::Held { .. } | PageState::Flat)
    }

    /// The open interval's twin, while the page has one.
    pub(crate) fn twin(&self) -> Option<&Arc<Page>> {
        match &self.state {
            PageState::Held { twin, .. } => twin.as_ref(),
            PageState::Never | PageState::Flat => None,
        }
    }

    /// Applies `diff` to the copy and to its twin, if any, so the
    /// node's own diff stays minimal (concurrent diffs touch disjoint
    /// bytes).
    pub(crate) fn apply(&mut self, diff: &Diff) {
        diff.apply(&mut self.data);
        if let PageState::Held { twin: Some(t), .. } = &mut self.state {
            diff.apply(Arc::make_mut(t));
        }
    }

    /// Prefetch replies outstanding for the page.
    pub(crate) fn pf_inflight(&self) -> u32 {
        self.pf_inflight
    }

    /// Whether the page was prefetched this barrier epoch (§5.1).
    pub(crate) fn epoch_prefetched(&self) -> bool {
        self.epoch_prefetched
    }
}

/// The application-visible memory of one node. The `Default` value is
/// the empty placeholder left behind wherever the memory was moved
/// out of: [`NodeState::mem`] while a thread runs, the thread's
/// context while it is parked.
///
/// What is here is what an application thread reads or writes between
/// two syscalls, and nothing else: the memory is moved by value twice
/// per syscall. The two prefetch facts on each slot qualify because
/// [`TaskCtx::prefetch`](crate::TaskCtx::prefetch) filters on them
/// before it makes a syscall at all; everything else the node knows
/// about a page is the engine's, in [`NodeState::records`].
///
/// The node's prefetch counters live here too, because the thread's
/// filter counts into them. The engine counts into the same
/// [`PrefetchSummary`]: it holds every node's memory whenever it runs,
/// so each count has exactly one writer at a time. The node's other
/// counters are the engine's alone and live in [`NodeState`].
#[derive(Debug, Default)]
pub(crate) struct NodeMem {
    /// Page slots indexed by global page id.
    pub pages: Vec<PageEntry>,
    /// Prefetch replies outstanding over all pages: the sum of the
    /// slots' counts, which the adaptive engine budgets against.
    pf_outstanding: u32,
    /// The pages whose slot carries the §5.1 flag, for the barrier
    /// release to clear.
    epoch_marked: Vec<PageId>,
    /// Rolling sequence for prefetch throttling.
    pub throttle_seq: u64,
    /// The dirty log: every page twinned since the last interval
    /// close, in twin-creation order — the order the close seals them
    /// in and the order their `TwinCreate` records are traced in. A
    /// page a §3.1 prefetch split sealed early stays logged, and if it
    /// is written again it is twinned again and logged a second time;
    /// the close seals it at its first position. Every twinned slot is
    /// on it.
    pub dirty: Vec<PageId>,
    /// Free list recycling twin frames so the hot write-fault path
    /// avoids an allocation.
    pub pool: PagePool,
    /// The node's prefetch counters, the thread's and the engine's.
    pub prefetch: PrefetchSummary,
}

impl NodeMem {
    /// Memory for a node in a heap of `total_pages`, where
    /// `is_home(p)` says whether the node homes page `p` (homed pages
    /// start valid and zero-filled). No slot owns a page buffer yet:
    /// a page materializes when it is first written.
    pub(crate) fn new(total_pages: usize, is_home: impl Fn(usize) -> bool) -> Self {
        let slot = |p| PageEntry {
            state: match is_home(p) {
                true => PageState::copy(true),
                false => PageState::Never,
            },
            ..PageEntry::default()
        };
        NodeMem {
            pages: (0..total_pages).map(slot).collect(),
            ..NodeMem::default()
        }
    }

    /// The golden model's memory of `total_pages`: every page valid
    /// from the start, and no write ever twinned or logged.
    pub(crate) fn flat(total_pages: usize) -> Self {
        let slot = || PageEntry {
            state: PageState::Flat,
            ..PageEntry::default()
        };
        NodeMem {
            pages: (0..total_pages).map(|_| slot()).collect(),
            ..NodeMem::default()
        }
    }

    /// The open interval's first write to valid `page` twins it from
    /// the pool and logs it. False when it already has a twin, and in
    /// flat memory.
    pub(crate) fn make_twin(&mut self, page: PageId) -> bool {
        let entry = &mut self.pages[page.index()];
        match &mut entry.state {
            PageState::Held { valid: true, twin } if twin.is_none() => {
                *twin = Some(self.pool.take_arc_copy_of(&entry.data));
                self.dirty.push(page);
                true
            }
            _ => false,
        }
    }

    /// Seals `page`'s open writes: takes its twin, if any. The page
    /// stays on the dirty log.
    pub(crate) fn take_twin(&mut self, page: PageId) -> Option<Arc<Page>> {
        match &mut self.pages[page.index()].state {
            PageState::Held { twin, .. } => twin.take(),
            PageState::Never | PageState::Flat => None,
        }
    }

    /// A write notice for `page` invalidates whatever copy the node
    /// holds; a twin stays, for the interval's seal.
    pub(crate) fn invalidate(&mut self, page: PageId) {
        if let PageState::Held { valid, .. } = &mut self.pages[page.index()].state {
            *valid = false;
        }
    }

    /// A base copy of `page` from its home arrives at a node that never
    /// held one: a copy, invalid until the page's notices are applied.
    pub(crate) fn install_base(&mut self, page: PageId, base: &Page) {
        let entry = &mut self.pages[page.index()];
        assert!(!entry.has_copy(), "a base copy over {page}'s copy");
        entry.data.copy_from(base);
        entry.state = PageState::copy(false);
    }

    /// Counts `requests` prefetch requests just sent for `page`.
    pub(crate) fn prefetch_sent(&mut self, page: PageId, requests: u32) {
        self.pages[page.index()].pf_inflight += requests;
        self.pf_outstanding += requests;
    }

    /// A prefetch reply for `page` arrived: retires one outstanding
    /// request, unless the page's validation already retired them all.
    pub(crate) fn prefetch_replied(&mut self, page: PageId) {
        let entry = &mut self.pages[page.index()];
        if entry.pf_inflight > 0 {
            entry.pf_inflight -= 1;
            self.pf_outstanding -= 1;
        }
    }

    /// Prefetch replies outstanding over all pages.
    pub(crate) fn prefetch_outstanding(&self) -> u32 {
        self.pf_outstanding
    }

    /// Marks `page`'s copy valid — its notices are applied — which
    /// retires whatever prefetch replies it still had outstanding.
    pub(crate) fn validate(&mut self, page: PageId) {
        let entry = &mut self.pages[page.index()];
        let PageState::Held { valid, .. } = &mut entry.state else {
            panic!("{page} validated without a copy");
        };
        *valid = true;
        self.pf_outstanding -= std::mem::take(&mut entry.pf_inflight);
    }

    /// Sets `page`'s §5.1 flag for the rest of the barrier epoch.
    pub(crate) fn mark_epoch_prefetched(&mut self, page: PageId) {
        self.pages[page.index()].epoch_prefetched = true;
        self.epoch_marked.push(page);
    }

    /// A barrier release ends the epoch: every §5.1 flag clears.
    pub(crate) fn end_epoch(&mut self) {
        for page in self.epoch_marked.drain(..) {
            self.pages[page.index()].epoch_prefetched = false;
        }
    }
}

/// A synchronization object, as the key of the automatic
/// prefetcher's access-pattern history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SyncKey {
    /// A lock acquisition point.
    Lock(crate::msg::LockId),
    /// A barrier release point.
    Barrier(crate::msg::BarrierId),
}

wire_enum! {
    /// How a page fault relates to prefetching — the categories of
    /// Figure 3 (§3.3). `TraceEvent::FaultEnd` carries the code.
    pub enum MissClass {
        /// Prefetched data fully covered the fault (no messages
        /// needed).
        Hit = 0, "hit";
        /// The page had not been prefetched.
        NoPf = 1, "no_pf";
        /// Prefetch issued but replies had not arrived (or were
        /// dropped).
        TooLate = 2, "too_late";
        /// Prefetched data was invalidated by notices that arrived
        /// after the prefetch was issued.
        Invalidated = 3, "invalidated";
    }
}

/// An in-progress remote page fetch (fault-driven).
#[derive(Debug)]
pub(crate) struct Fetch {
    /// Replies still outstanding.
    pub outstanding: usize,
    /// Threads blocked on this page.
    pub waiters: Vec<ThreadId>,
    /// Diffs collected so far.
    pub collected: Vec<DiffPayload>,
    /// Base page copy, when this is a first-touch fetch.
    pub base: Option<BasePayload>,
    /// The fault that opened the fetch.
    pub fault: Fault,
    /// True for a too-late join: every missing piece is already on
    /// the wire as a *reliable* adaptive prefetch, so this fetch
    /// consumes those replies instead of duplicating the requests
    /// through an already-loaded server. `outstanding` then counts
    /// in-flight prefetch replies, not demand replies.
    pub joined: bool,
}

/// The page fault a fetch serves: what the fetch's miss latency and
/// its closing `FaultEnd` trace record need.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fault {
    /// When the fault occurred.
    pub at: SimTime,
    /// Its `FaultBegin` record (`NO_CAUSE` untraced).
    pub begin: u64,
    /// Its §3.3 class.
    pub class: MissClass,
}

/// What prefetches have asked for, for one page, since it was last
/// valid.
#[derive(Debug)]
pub(crate) struct PfMeta {
    /// (origin, origin-sequence) pairs whose diffs were requested.
    pub requested: HashSet<(NodeId, u32)>,
    /// Whether a base copy was requested.
    pub wanted_base: bool,
    /// Whether a too-late fault may join the in-flight replies
    /// instead of re-requesting: true while *every* request for this
    /// page was adaptive (and therefore reliable) — joining a
    /// droppable static prefetch could wait forever.
    pub joinable: bool,
}

impl Default for PfMeta {
    /// Nothing asked yet — so, vacuously, everything asked was
    /// adaptive.
    fn default() -> Self {
        PfMeta {
            requested: HashSet::new(),
            wanted_base: false,
            joinable: true,
        }
    }
}

/// What a node holds for one page beyond its slot in [`NodeMem`]: the
/// paper's three per-page mechanisms in one place.
///
/// Invariant: [`NodeState::records`] has an entry for a page exactly
/// while this holds something for it ([`PageRecord::is_empty`] is
/// false) — so "does the node have anything in flight or cached ahead
/// for the page" is whether the entry exists.
#[derive(Debug, Default)]
pub(crate) struct PageRecord {
    /// The fetch in flight, which later faulting threads join instead
    /// of duplicating (§4.1 request combining).
    pub fetch: Option<Fetch>,
    /// What prefetches asked for; present from the first prefetch
    /// issued for the page until the page is validated.
    pub asked: Option<PfMeta>,
    /// A prefetched base copy awaiting use.
    pub base: Option<BasePayload>,
    /// Prefetched diff replies awaiting use at access time — the
    /// paper's separate heap, "a cache of remote diff replies" (§3.1)
    /// — in arrival order, at most one per (origin, seq).
    diffs: Vec<DiffPayload>,
}

impl PageRecord {
    /// Keeps a prefetched diff. A second diff of the same interval —
    /// same (origin, seq) — is ignored.
    pub(crate) fn cache_diff(&mut self, diff: DiffPayload) {
        if !self.has_diff(diff.origin, diff.stamp.get(diff.origin)) {
            self.diffs.push(diff);
        }
    }

    /// Whether the diff of `origin`'s interval `seq` is cached.
    pub(crate) fn has_diff(&self, origin: NodeId, seq: u32) -> bool {
        self.diffs
            .iter()
            .any(|d| d.origin == origin && d.stamp.get(origin) == seq)
    }

    /// Removes and returns the cached diffs, in arrival order. The
    /// caller sorts them (with whatever else it applies) into
    /// happens-before order before applying.
    pub(crate) fn take_diffs(&mut self) -> Vec<DiffPayload> {
        std::mem::take(&mut self.diffs)
    }

    /// Whether the record holds nothing: no fetch, no prefetch request
    /// set, no base, no diff.
    pub(crate) fn is_empty(&self) -> bool {
        self.fetch.is_none() && self.asked.is_none() && self.base.is_none() && self.diffs.is_empty()
    }
}

/// Engine-side state of one node.
#[derive(Debug)]
pub(crate) struct NodeState {
    /// This node's id.
    pub id: NodeId,
    /// The node's memory (lent to the running thread during a burst).
    pub mem: NodeMem,
    /// The node's vector clock. Private, with `clock_version`: every
    /// write goes through [`NodeState::tick_clock`] or
    /// [`NodeState::join_clock`] and bumps the version, so the oracle
    /// re-checks a clock exactly when it may have moved.
    vc: VectorClock,
    /// Writes of `vc` so far; never decreases.
    clock_version: u64,
    /// Write notices of the pages the node tracks; the rest wait in
    /// `known_intervals` until [`NodeState::track_notices`] seeds
    /// their page.
    pub board: NoticeBoard,
    /// Diffs this node created, keyed by (page index, own sequence).
    /// `Arc`-shared with every reply payload serving them, so a hot
    /// diff requested by many readers is encoded and stored once.
    pub own_diffs: HashMap<(usize, u32), Arc<Diff>>,
    /// Encoded bytes held in `own_diffs` (GC trigger).
    pub own_diff_bytes: usize,
    /// Every interval this node knows about (its own and received),
    /// never pruned. Private: the engine asks through the methods
    /// below, each of which is an index lookup — nothing outside this
    /// module can scan the log. Records are immutable and shared with
    /// the messages that carried them and every other node's log.
    known_intervals: IntervalLog,
    /// One record per page with something in flight or cached ahead;
    /// see [`PageRecord`] for when an entry exists.
    pub records: HashMap<PageId, PageRecord>,
    /// The engine-side state of the run's prefetch mode.
    pub prefetcher: Prefetcher,
    /// Lock state.
    pub locks: LockTable,
    /// CPU time account.
    pub account: NodeAccount,
    /// Page faults and remote misses.
    pub misses: MissSummary,
    /// Lock acquisitions and stalls.
    pub lock_stats: SyncSummary,
    /// Barrier episodes and stalls.
    pub barrier_stats: SyncSummary,
    /// Context switches and run lengths; the stall totals stay zero
    /// here and are derived for the whole run.
    pub mt: MtSummary,
    /// Directory-layer tallies.
    pub directory: DirectorySummary,
    /// Garbage collection passes performed.
    pub gc_passes: u64,
}

impl NodeState {
    /// Fresh state for node `id` of `nodes`, with `mem` as its memory.
    pub(crate) fn new(id: NodeId, nodes: usize, mem: NodeMem) -> Self {
        NodeState {
            id,
            mem,
            vc: VectorClock::new(nodes),
            clock_version: 0,
            board: NoticeBoard::new(),
            own_diffs: HashMap::new(),
            own_diff_bytes: 0,
            known_intervals: IntervalLog::new(),
            records: HashMap::new(),
            prefetcher: Prefetcher::Off,
            locks: LockTable::new(id, nodes),
            account: NodeAccount::new(),
            misses: MissSummary::default(),
            lock_stats: SyncSummary::default(),
            barrier_stats: SyncSummary::default(),
            mt: MtSummary::default(),
            directory: DirectorySummary::default(),
            gc_passes: 0,
        }
    }

    /// The node's vector clock.
    pub(crate) fn vc(&self) -> &VectorClock {
        &self.vc
    }

    /// How many times the clock has been written; never decreases.
    pub(crate) fn clock_version(&self) -> u64 {
        self.clock_version
    }

    /// Opens the node's next interval: advances its own component and
    /// returns the new value (the interval's sequence number).
    pub(crate) fn tick_clock(&mut self) -> u32 {
        self.clock_version += 1;
        self.vc.tick(self.id)
    }

    /// Merges `other` into the clock (a grant's or a barrier
    /// release's knowledge).
    pub(crate) fn join_clock(&mut self, other: &VectorClock) {
        self.clock_version += 1;
        self.vc.join(other);
    }

    /// Overwrites the clock with an arbitrary value — a write the
    /// protocol never makes, for tests that forge a regression.
    #[cfg(test)]
    pub(crate) fn forge_clock(&mut self, forged: VectorClock) {
        self.clock_version += 1;
        self.vc = forged;
    }

    /// Intervals this node knows that `vc` does not dominate, in the
    /// order learned — the write notices to piggyback on a grant,
    /// barrier message or diff reply. `vc` must be a node's clock (or
    /// a copy of one): see [`IntervalLog::unknown_to`].
    pub(crate) fn intervals_unknown_to(&self, vc: &VectorClock) -> Vec<Arc<IntervalRecord>> {
        self.known_intervals.unknown_to(vc)
    }

    /// Records an interval in the knowledge log (deduplicated by
    /// `(origin, seq)`). Returns true if it was new.
    pub(crate) fn learn_interval(&mut self, rec: &Arc<IntervalRecord>) -> bool {
        self.known_intervals.learn(rec)
    }

    /// Whether `origin`'s interval `seq` is in the knowledge log.
    pub(crate) fn knows_interval(&self, origin: NodeId, seq: u32) -> bool {
        self.known_intervals.knows(origin, seq)
    }

    /// The known intervals (any origin) that dirtied `page`, in the
    /// order learned, found through the cluster's `index`.
    pub(crate) fn intervals_naming<'a>(
        &'a self,
        index: &PageIndex,
        page: PageId,
    ) -> impl Iterator<Item = &'a Arc<IntervalRecord>> + 'a {
        index.naming(page, &self.known_intervals)
    }

    /// Makes the board track `page` once the log holds a notice for
    /// it, seeding the page's record with every remote interval the
    /// node knows that names the page, pending, in the order learned
    /// (`NoticeBoard::seed`). A page no remote interval names stays
    /// untracked: the board answers for it as an empty record would,
    /// and marking something applied on it starts its record.
    pub(crate) fn track_notices(&mut self, index: &PageIndex, page: PageId) {
        if self.board.tracks(page) {
            return;
        }
        let mut remote = index
            .naming(page, &self.known_intervals)
            .filter(|rec| rec.origin != self.id)
            .peekable();
        if remote.peek().is_some() {
            self.board
                .seed(page, remote.map(|rec| (rec.origin, &rec.stamp)));
        }
    }

    /// The intervals this node itself closed, oldest first.
    pub(crate) fn own_intervals(&self) -> impl Iterator<Item = &Arc<IntervalRecord>> {
        self.known_intervals.of_origin(self.id)
    }

    /// The whole knowledge log, for checkpoint capture.
    pub(crate) fn interval_log(&self) -> &IntervalLog {
        &self.known_intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(origin: NodeId, ticks: u32, nodes: usize) -> Arc<IntervalRecord> {
        let mut stamp = VectorClock::new(nodes);
        for _ in 0..ticks {
            stamp.tick(origin);
        }
        Arc::new(IntervalRecord {
            origin,
            stamp: Arc::new(stamp),
            pages: vec![PageId::new(0)],
        })
    }

    #[test]
    fn node_mem_homes_start_valid() {
        let mem = NodeMem::new(4, |p| p % 2 == 0);
        assert!(mem.pages[0].is_valid() && mem.pages[0].has_copy());
        assert!(!mem.pages[1].is_valid() && !mem.pages[1].has_copy());
        assert!(mem.pages[0].twin().is_none());
    }

    #[test]
    fn flat_memory_is_valid_and_twins_nothing() {
        let mut mem = NodeMem::flat(3);
        for p in 0..3 {
            assert!(mem.pages[p].is_valid() && mem.pages[p].has_copy());
            assert!(!mem.make_twin(PageId::new(p as u32)));
            assert!(mem.pages[p].twin().is_none());
        }
        assert!(mem.dirty.is_empty());
    }

    #[test]
    fn slot_counts_and_node_total_move_together() {
        let (a, b) = (PageId::new(1), PageId::new(3));
        let mut mem = NodeMem::new(4, |_| false);
        // A copy, not yet valid.
        mem.install_base(a, &Page::new());
        mem.prefetch_sent(a, 2);
        mem.prefetch_sent(b, 1);
        mem.prefetch_sent(a, 1);
        assert_eq!(
            (mem.pages[1].pf_inflight(), mem.pages[3].pf_inflight()),
            (3, 1)
        );
        assert_eq!(mem.prefetch_outstanding(), 4);
        mem.prefetch_replied(a);
        assert_eq!(mem.prefetch_outstanding(), 3);
        // Validation retires whatever was still out; a straggler reply
        // after it has nothing left to retire.
        mem.validate(a);
        assert!(mem.pages[1].is_valid());
        assert_eq!(
            (mem.pages[1].pf_inflight(), mem.prefetch_outstanding()),
            (0, 1)
        );
        mem.prefetch_replied(a);
        assert_eq!(mem.prefetch_outstanding(), 1);
    }

    #[test]
    fn epoch_flags_clear_at_the_barrier() {
        let mut mem = NodeMem::new(4, |_| false);
        mem.mark_epoch_prefetched(PageId::new(2));
        assert!(mem.pages[2].epoch_prefetched() && !mem.pages[1].epoch_prefetched());
        mem.end_epoch();
        assert!(mem.pages.iter().all(|e| !e.epoch_prefetched()));
        assert!(mem.epoch_marked.is_empty());
    }

    /// What a node's copy of a page was before it became one
    /// [`PageState`] — the three facts the engine kept apart — as the
    /// page-state model's reference.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Facts {
        copy: bool,
        valid: bool,
        twinned: bool,
    }

    /// Nodes and pages of the modeled cluster; page `p` is homed at
    /// node `p % NODES`.
    const NODES: usize = 3;
    const PAGES: usize = 4;

    /// The engine's page-state transitions over real node memories,
    /// without messages, clocks or costs, beside the reference facts
    /// and each slot's prefetch count. Each page's first word counts
    /// its writes, so a twin can be checked against the copy it was
    /// taken from.
    struct Cluster {
        mems: Vec<NodeMem>,
        facts: Vec<[Facts; PAGES]>,
        pf: Vec<[u32; PAGES]>,
        /// The first word of each open twin, when it was taken.
        twin_word: Vec<[u64; PAGES]>,
    }

    impl Cluster {
        fn new() -> Self {
            let home = |n| std::array::from_fn(|p| p % NODES == n);
            Cluster {
                mems: (0..NODES)
                    .map(|n| NodeMem::new(PAGES, |p| home(n)[p]))
                    .collect(),
                facts: (0..NODES)
                    .map(|n| {
                        home(n).map(|h| Facts {
                            copy: h,
                            valid: h,
                            twinned: false,
                        })
                    })
                    .collect(),
                pf: vec![[0; PAGES]; NODES],
                twin_word: vec![[0; PAGES]; NODES],
            }
        }

        /// A thread's write: only a valid copy is written (an invalid
        /// one faults first), and its first write twins it.
        fn write(&mut self, n: NodeId, p: usize) {
            let (mem, facts) = (&mut self.mems[n], &mut self.facts[n][p]);
            if !mem.pages[p].is_valid() {
                return;
            }
            let word = mem.pages[p].data.read_u64(0);
            assert_eq!(mem.make_twin(PageId::new(p as u32)), !facts.twinned);
            if !facts.twinned {
                self.twin_word[n][p] = word;
            }
            facts.twinned = true;
            mem.pages[p].data.write_u64(0, word + 1);
        }

        /// A completed fetch: a base copy from the home if the node
        /// never held one, then a diff, then validation.
        fn fetch(&mut self, n: NodeId, p: usize, value: u64) {
            let page = PageId::new(p as u32);
            let base = self.mems[p % NODES].pages[p].data.clone();
            let (mem, facts) = (&mut self.mems[n], &mut self.facts[n][p]);
            if !facts.copy {
                mem.install_base(page, &base);
                facts.copy = true;
            }
            let mut written = Page::new();
            written.write_u64(8, value);
            mem.pages[p].apply(&Diff::between(&Page::new(), &written));
            let e = &mem.pages[p];
            if let Some(twin) = e.twin() {
                assert_eq!(
                    twin.read_u64(8),
                    e.data.read_u64(8),
                    "a diff missed the twin"
                );
            }
            mem.validate(page);
            facts.valid = true;
            self.pf[n][p] = 0;
        }

        /// Seals `pages` as an interval of node `n` does: each dirty
        /// one gives up its twin, as taken.
        fn seal(&mut self, n: NodeId, pages: &[PageId]) {
            for &page in pages {
                let p = page.index();
                if let Some(twin) = self.mems[n].take_twin(page) {
                    assert_eq!(twin.read_u64(0), self.twin_word[n][p]);
                }
                self.facts[n][p].twinned = false;
            }
        }

        fn step(&mut self, op: u8, n: NodeId, p: usize, arg: u32) {
            let page = PageId::new(p as u32);
            match op {
                0 | 1 => self.write(n, p),
                2 => {
                    self.mems[n].invalidate(page);
                    self.facts[n][p].valid = false;
                }
                3 => self.fetch(n, p, arg as u64),
                4 => {
                    let dirty = std::mem::take(&mut self.mems[n].dirty);
                    self.seal(n, &dirty);
                }
                5 => self.seal(n, &[page]),
                6 => {
                    let k = arg % 3 + 1;
                    self.mems[n].prefetch_sent(page, k);
                    self.pf[n][p] += k;
                }
                _ => {
                    self.mems[n].prefetch_replied(page);
                    self.pf[n][p] = self.pf[n][p].saturating_sub(1);
                }
            }
        }

        /// Each slot agrees with its facts and count, every dirty slot
        /// is on its node's dirty log, and each node's outstanding
        /// total is the sum of its slots' counts.
        fn check(&self) {
            for (n, mem) in self.mems.iter().enumerate() {
                for (p, e) in mem.pages.iter().enumerate() {
                    let facts = Facts {
                        copy: e.has_copy(),
                        valid: e.is_valid(),
                        twinned: e.twin().is_some(),
                    };
                    let state = &e.state;
                    assert_eq!(facts, self.facts[n][p], "node {n} page {p}: {state:?}");
                    assert_eq!(e.pf_inflight(), self.pf[n][p]);
                    let logged = mem.dirty.iter().any(|d| d.index() == p);
                    assert!(
                        !facts.twinned || logged,
                        "node {n}'s dirty page {p} not logged"
                    );
                }
                let total: u32 = mem.pages.iter().map(PageEntry::pf_inflight).sum();
                assert_eq!(mem.prefetch_outstanding(), total);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 512, ..Default::default() })]

        /// Random writes, notices, fetches, seals, splits and prefetch
        /// counts over three nodes of four pages. At every step each
        /// slot's state says what the three facts it replaced said,
        /// every dirty slot is on the dirty log, the prefetch counts
        /// add up, and no slot leaves `Never` but by a base copy.
        #[test]
        fn page_state_model(
            steps in proptest::collection::vec((0u8..8, 0..NODES, 0..PAGES, 0u32..100), 1..200),
        ) {
            let mut c = Cluster::new();
            for (op, n, p, arg) in steps {
                let never = |c: &Cluster| -> Vec<bool> {
                    c.mems.iter().flat_map(|m| &m.pages).map(|e| !e.has_copy()).collect()
                };
                let before = never(&c);
                c.step(op, n, p, arg);
                c.check();
                if op != 3 {
                    proptest::prop_assert_eq!(never(&c), before, "op {} left Never", op);
                }
            }
        }
    }

    fn payload(origin: NodeId, ticks: u32, diff: &Arc<Diff>) -> DiffPayload {
        DiffPayload {
            origin,
            stamp: Arc::clone(&record(origin, ticks, 2).stamp),
            diff: Arc::clone(diff),
        }
    }

    #[test]
    fn record_caches_one_diff_per_interval_in_arrival_order() {
        let mut rec = PageRecord::default();
        assert!(rec.is_empty());
        let d = Arc::new(Diff::default());
        let (late, early) = (payload(0, 2, &d), payload(0, 1, &d));
        rec.cache_diff(late.clone());
        rec.cache_diff(early.clone());
        // A second diff of the same interval is ignored.
        rec.cache_diff(late.clone());
        assert!(!rec.is_empty());
        assert!(rec.has_diff(0, 1) && rec.has_diff(0, 2));
        assert!(!rec.has_diff(0, 3) && !rec.has_diff(1, 1));
        assert_eq!(rec.take_diffs(), [late, early]);
        assert!(rec.is_empty());
    }

    #[test]
    fn record_is_empty_only_when_it_holds_nothing() {
        let holds = |fill: fn(&mut PageRecord)| {
            let mut rec = PageRecord::default();
            fill(&mut rec);
            !rec.is_empty()
        };
        assert!(holds(|r| r.asked = Some(PfMeta::default())));
        assert!(holds(|r| {
            r.base = Some(BasePayload {
                page: Arc::new(Page::new()),
                incorporated: Vec::new(),
            })
        }));
        assert!(holds(|r| {
            r.fetch = Some(Fetch {
                outstanding: 1,
                waiters: Vec::new(),
                collected: Vec::new(),
                base: None,
                fault: Fault {
                    at: SimTime::ZERO,
                    begin: 0,
                    class: MissClass::NoPf,
                },
                joined: false,
            })
        }));
        assert!(holds(|r| r.cache_diff(payload(
            1,
            1,
            &Arc::new(Diff::default())
        ))));
    }

    #[test]
    fn learn_interval_dedupes() {
        let mut n = NodeState::new(0, 2, NodeMem::default());
        let rec = record(1, 1, 2);
        assert!(n.learn_interval(&rec));
        assert!(!n.learn_interval(&rec));
        assert_eq!(n.interval_log().records().len(), 1);
        assert!(n.knows_interval(1, 1));
        assert!(!n.knows_interval(1, 2));
    }

    #[test]
    fn intervals_unknown_to_filters_by_domination() {
        let mut n = NodeState::new(0, 2, NodeMem::default());
        n.learn_interval(&record(1, 1, 2));
        n.learn_interval(&record(1, 2, 2));
        let mut knows_one = VectorClock::new(2);
        knows_one.tick(1);
        let unknown = n.intervals_unknown_to(&knows_one);
        assert_eq!(unknown.len(), 1);
        assert_eq!(unknown[0].stamp.get(1), 2);
        let knows_none = VectorClock::new(2);
        assert_eq!(n.intervals_unknown_to(&knows_none).len(), 2);
    }

    /// A page's first board use seeds it with the remote intervals the
    /// log knows naming it, in the order learned; the node's own
    /// intervals and intervals only the index has are not notices, and
    /// a page with none stays untracked.
    #[test]
    fn tracking_a_page_seeds_its_remote_notices_in_learn_order() {
        let mut n = NodeState::new(1, 3, NodeMem::default());
        let mut index = PageIndex::new();
        let recs = [
            record(2, 1, 3),
            record(1, 1, 3),
            record(0, 1, 3),
            record(0, 2, 3),
        ];
        for rec in &recs {
            index.seal(rec);
        }
        for rec in &recs[..3] {
            n.learn_interval(rec);
        }
        let page = PageId::new(0);
        assert!(!n.board.tracks(page));
        n.track_notices(&index, page);
        let pending: Vec<(NodeId, u32)> =
            n.board.pending(page).map(|(o, s)| (o, s.get(o))).collect();
        assert_eq!(pending, [(2, 1), (0, 1)]);
        // Tracked from now on: a second call seeds nothing.
        n.learn_interval(&recs[3]);
        n.track_notices(&index, page);
        assert_eq!(n.board.pending(page).count(), 2);
        // Nothing to seed: the page stays untracked.
        n.track_notices(&index, PageId::new(1));
        assert!(!n.board.tracks(PageId::new(1)));
    }

    /// `RTR1` wire codes and exporter labels: pinned literally.
    #[test]
    fn miss_class_codes_and_labels_are_pinned() {
        let pinned = [
            (MissClass::Hit, 0, "hit"),
            (MissClass::NoPf, 1, "no_pf"),
            (MissClass::TooLate, 2, "too_late"),
            (MissClass::Invalidated, 3, "invalidated"),
        ];
        for (class, code, label) in pinned {
            assert_eq!((class.code(), class.label()), (code, label));
            assert_eq!(MissClass::from_code(code), Some(class));
        }
        assert_eq!(MissClass::from_code(4), None);
    }
}

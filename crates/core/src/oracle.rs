//! The runtime consistency oracle: LRC invariant checking, lock-grant
//! tracing, and digests for differential/determinism testing.
//!
//! The paper's results only mean something if the LRC substrate is
//! actually coherent, so this module gives every run a cheap,
//! always-available proof hierarchy (see `DESIGN.md`):
//!
//! 1. **Runtime invariants**: checked inside the engine as the
//!    protocol executes — vector-clock monotonicity,
//!    interval/write-notice coverage of every applied diff, twin/diff
//!    round-trip identity, single lock-token holdership, and
//!    barrier-epoch agreement. Violations are *recorded*, not
//!    panicked, so a broken run still produces a report that names
//!    every broken invariant.
//! 2. **Differential checking**: the final merged memory image and
//!    the per-lock grant order are captured in the
//!    [`RunReport`](crate::RunReport), so the `rsdsm-oracle` crate can
//!    replay the program through the golden sequential executor
//!    ([`golden_run`](crate::golden_run)) and compare byte for byte.
//! 3. **Determinism**: [`digest_pages`] /
//!    [`fnv1a`](rsdsm_simnet::fnv1a) hash the image and report so
//!    identical (seed, config) runs can be asserted digest-identical.
//!
//! The first two run under [`OracleConfig::full`]. The oracle is off
//! by default ([`OracleConfig::off`]) and the engine then holds no
//! oracle state; paper-scale benches keep it off, tests switch it on
//! with [`DsmConfig::with_oracle`](crate::DsmConfig::with_oracle).
//!
//! # What the per-event check costs
//!
//! The run loop calls the per-event check after *every* event, so it
//! is version-driven: it re-checks only what the event moved. A
//! quiet event costs one `u64` compare per node (the clock versions)
//! plus one sum over the nodes' token-move counts; a clock that moved
//! costs one dominance check and one copy; a token that moved costs
//! one sweep of the held tokens into a reused, sorted scratch list.
//! Nothing is hashed and, on a coherent run, nothing is allocated.
//!
//! This is exact, not sampled, because of one rule: **a lock's
//! `Token` is writable only inside `lock.rs` and a node's clock
//! only inside `node.rs`, and every such write bumps a counter**
//! ([`LockTable::token_moves`](crate::lock::LockTable::token_moves),
//! [`NodeState::clock_version`]). A state the counters call unchanged
//! *is* unchanged, so skipping its re-check loses no violation. While
//! a duplicate token persists the sweep repeats on every event, so a
//! broken run records what a full per-event sweep would. The full
//! sweep survives as the test-only reference the version-driven check
//! is differentially tested against.

use std::collections::{HashMap, HashSet};
use std::fmt;

use rsdsm_protocol::{Diff, Page, PageId, VectorClock};
use rsdsm_simnet::{fnv1a_extend, NodeId, SimTime, FNV_OFFSET};

use crate::msg::{BarrierId, LockId};
use crate::node::NodeState;
use crate::thread::ThreadId;

/// Whether the consistency oracle runs: off, or everything — LRC
/// invariants (clock monotonicity, notice coverage, diff round trips,
/// token uniqueness, barrier epochs) checked as the protocol executes
/// with violations recorded, and the final memory image and
/// lock-grant trace captured for golden-model differential checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    full: bool,
}

impl OracleConfig {
    /// Oracle off (the default): the engine builds no oracle state
    /// and the report carries no [`OracleOutcome`].
    pub fn off() -> Self {
        OracleConfig { full: false }
    }

    /// Everything on: invariants checked, image and trace captured.
    pub fn full() -> Self {
        OracleConfig { full: true }
    }

    /// Whether the oracle runs.
    pub fn enabled(self) -> bool {
        self.full
    }
}

/// The LRC invariant a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// A node's vector clock moved backwards on some component.
    ClockMonotonicity,
    /// A diff was applied without a covering interval record
    /// (no happens-before justification for the write).
    NoticeCoverage,
    /// `apply(between(twin, data), twin) != data` at interval close.
    DiffRoundTrip,
    /// More than one node held a lock's token at once.
    TokenUniqueness,
    /// A node arrived twice in one barrier episode, or an episode
    /// released without every node's arrival.
    BarrierEpoch,
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Simulated time of the observation.
    pub at: SimTime,
    /// Human-readable specifics (node, page, stamps involved).
    pub detail: String,
}

/// One lock grant observed by the engine: `thread` became the holder
/// of `lock`. The sequence of records for a given lock is that lock's
/// critical-section order — exactly what the golden executor must
/// replay to reproduce order-sensitive (e.g. floating-point
/// accumulation) results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantRecord {
    /// The granted lock.
    pub lock: LockId,
    /// The thread that entered the critical section.
    pub thread: ThreadId,
}

/// What the oracle observed in one run; present in
/// [`RunReport::oracle`](crate::RunReport::oracle) when the run's
/// [`OracleConfig`] is [`full`](OracleConfig::full).
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// Invariant violations, in observation order (empty on a
    /// coherent run).
    pub violations: Vec<Violation>,
    /// Every lock grant, in global grant order.
    pub lock_trace: Vec<GrantRecord>,
    /// The merged final memory image.
    pub final_image: Vec<Page>,
    /// FNV-1a digest of the final memory image.
    pub image_digest: u64,
}

/// A [`fmt::Write`] sink that folds what is written into an FNV-1a
/// hash: the digest of a rendering that is never built.
pub(crate) struct FnvWriter(pub u64);

impl FnvWriter {
    /// A sink whose hash so far is that of the empty string.
    pub(crate) fn new() -> Self {
        FnvWriter(FNV_OFFSET)
    }
}

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a_extend(self.0, s.as_bytes());
        Ok(())
    }
}

/// FNV-1a digest of a whole memory image, page order significant.
pub(crate) fn digest_pages(pages: &[Page]) -> u64 {
    let mut h = FNV_OFFSET;
    for p in pages {
        h = fnv1a_extend(h, p.bytes());
    }
    h
}

/// Per-barrier arrival bookkeeping for the epoch-agreement check.
#[derive(Debug, Default)]
struct BarrierEpoch {
    epoch: u64,
    arrived: HashSet<NodeId>,
}

/// The engine-side oracle state: recorded violations, the lock-grant
/// trace, and the snapshots the per-event checks compare against.
/// Built only for a run whose [`OracleConfig`] is on.
#[derive(Debug)]
pub(crate) struct OracleState {
    pub violations: Vec<Violation>,
    pub lock_trace: Vec<GrantRecord>,
    /// Per node: the clock last observed and the
    /// [`NodeState::clock_version`] it was observed at.
    seen_clocks: Vec<(u64, VectorClock)>,
    /// Sum of every node's
    /// [`token_moves`](crate::lock::LockTable::token_moves) at the
    /// last token sweep.
    swept_at_moves: u64,
    /// Whether the last sweep found a token held twice; the sweep
    /// then repeats on every event until it no longer does.
    duplicate_token: bool,
    /// Scratch of the token sweep: every held token with its holder.
    held: Vec<(LockId, NodeId)>,
    /// Scratch of the round-trip check: the twin with the diff
    /// applied.
    replayed: Page,
    barriers: HashMap<BarrierId, BarrierEpoch>,
    /// Token sweeps performed.
    #[cfg(test)]
    pub token_sweeps: u64,
    /// Clocks compared against their last observed value.
    #[cfg(test)]
    pub clock_compares: u64,
}

impl OracleState {
    pub(crate) fn new(nodes: usize) -> Self {
        OracleState {
            violations: Vec::new(),
            lock_trace: Vec::new(),
            seen_clocks: (0..nodes).map(|_| (0, VectorClock::new(nodes))).collect(),
            swept_at_moves: 0,
            duplicate_token: false,
            held: Vec::new(),
            replayed: Page::new(),
            barriers: HashMap::new(),
            #[cfg(test)]
            token_sweeps: 0,
            #[cfg(test)]
            clock_compares: 0,
        }
    }

    /// Records a lock grant; the trace drives golden replay.
    pub(crate) fn record_grant(&mut self, lock: LockId, thread: ThreadId) {
        self.lock_trace.push(GrantRecord { lock, thread });
    }

    /// Per-event check: vector clocks never regress, and no lock's
    /// token is held by two nodes at once. Looks only at what moved
    /// since the last call (see the module header for why that is
    /// exact); several duplicate tokens found after one event are
    /// reported in `LockId` order.
    pub(crate) fn check_event(&mut self, nodes: &[NodeState], at: SimTime) {
        let mut moves = 0;
        for node in nodes {
            moves += node.locks.token_moves();
            let (seen, prev) = &mut self.seen_clocks[node.id];
            if *seen == node.clock_version() {
                continue;
            }
            *seen = node.clock_version();
            #[cfg(test)]
            {
                self.clock_compares += 1;
            }
            if !node.vc().dominates(prev) {
                self.violations.push(Violation {
                    kind: InvariantKind::ClockMonotonicity,
                    at,
                    detail: format!("node {} clock went from {} to {}", node.id, prev, node.vc()),
                });
            }
            prev.clone_from(node.vc());
        }

        if moves == self.swept_at_moves && !self.duplicate_token {
            return;
        }
        self.swept_at_moves = moves;
        #[cfg(test)]
        {
            self.token_sweeps += 1;
        }
        self.held.clear();
        for node in nodes {
            self.held
                .extend(node.locks.held_tokens().map(|lock| (lock, node.id)));
        }
        self.held.sort_unstable();
        self.duplicate_token = false;
        for holders in self.held.chunk_by(|a, b| a.0 == b.0) {
            if let [(lock, _), _, ..] = holders {
                self.duplicate_token = true;
                let held_by: Vec<NodeId> = holders.iter().map(|&(_, n)| n).collect();
                self.violations.push(Violation {
                    kind: InvariantKind::TokenUniqueness,
                    at,
                    detail: format!("{lock:?} token held by nodes {held_by:?}"),
                });
            }
        }
    }

    /// A diff is about to be applied at node `n`; `covered` says
    /// whether the node knows an interval record for it.
    pub(crate) fn check_coverage(
        &mut self,
        covered: bool,
        n: NodeId,
        page: PageId,
        origin: NodeId,
        stamp: &VectorClock,
        at: SimTime,
    ) {
        if !covered {
            self.violations.push(Violation {
                kind: InvariantKind::NoticeCoverage,
                at,
                detail: format!(
                    "node {n} applied diff for {page} from node {origin} stamp {stamp} \
                     without a known interval"
                ),
            });
        }
    }

    /// An interval close produced `diff = between(twin, data)`;
    /// verify `apply(diff, twin) == data`.
    pub(crate) fn check_roundtrip(
        &mut self,
        twin: &Page,
        data: &Page,
        diff: &Diff,
        n: NodeId,
        page: PageId,
        at: SimTime,
    ) {
        self.replayed.copy_from(twin);
        diff.apply(&mut self.replayed);
        if &self.replayed != data {
            self.violations.push(Violation {
                kind: InvariantKind::DiffRoundTrip,
                at,
                detail: format!(
                    "node {n} {page}: applying the encoded diff to the twin does not \
                     reproduce the page ({} runs)",
                    diff.run_count()
                ),
            });
        }
    }

    /// Node `from` arrived at barrier `id`.
    pub(crate) fn barrier_arrival(&mut self, id: BarrierId, from: NodeId, at: SimTime) {
        let ep = self.barriers.entry(id).or_default();
        if !ep.arrived.insert(from) {
            let (epoch, kind) = (ep.epoch, InvariantKind::BarrierEpoch);
            self.violations.push(Violation {
                kind,
                at,
                detail: format!("node {from} arrived twice at {id:?} epoch {epoch}"),
            });
        }
    }

    /// Barrier `id` released; every one of `expected` nodes must have
    /// arrived exactly once this episode.
    pub(crate) fn barrier_release(&mut self, id: BarrierId, expected: usize, at: SimTime) {
        let ep = self.barriers.entry(id).or_default();
        if ep.arrived.len() != expected {
            let (seen, epoch) = (ep.arrived.len(), ep.epoch);
            self.violations.push(Violation {
                kind: InvariantKind::BarrierEpoch,
                at,
                detail: format!(
                    "{id:?} epoch {epoch} released with {seen}/{expected} nodes arrived"
                ),
            });
        }
        ep.arrived.clear();
        ep.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::{ForwardOutcome, ReleaseOutcome};
    use crate::msg::RemoteWaiter;
    use crate::node::NodeMem;
    use proptest::prelude::*;
    use rsdsm_simnet::fnv1a;

    #[test]
    fn hashing_sink_equals_hashing_the_rendering() {
        use fmt::Write as _;
        let value = (vec![Some(3u8), None], "text", 0.5f64);
        let mut sink = FnvWriter::new();
        write!(sink, "{value:#?}").expect("the sink never fails");
        assert_eq!(sink.0, fnv1a(format!("{value:#?}").as_bytes()));
    }

    #[test]
    fn page_digest_is_order_and_content_sensitive() {
        let mut a = Page::new();
        let mut b = Page::new();
        a.write_u64(0, 7);
        b.write_u64(8, 7);
        assert_ne!(
            digest_pages(&[a.clone(), b.clone()]),
            digest_pages(&[b.clone(), a.clone()])
        );
        assert_eq!(digest_pages(&[a.clone(), b.clone()]), digest_pages(&[a, b]));
    }

    fn cluster(n: usize) -> Vec<NodeState> {
        (0..n)
            .map(|id| NodeState::new(id, n, NodeMem::default()))
            .collect()
    }

    /// The per-event check as it was before it became version-driven,
    /// kept as the reference the differential tests hold the real one
    /// to: after every event, compare every node's whole clock and
    /// regroup every held token by lock. Several duplicates found
    /// after one event come out in the hash map's order.
    struct FullSweep {
        prev_vcs: Vec<VectorClock>,
    }

    impl FullSweep {
        fn new(nodes: usize) -> Self {
            FullSweep {
                prev_vcs: vec![VectorClock::new(nodes); nodes],
            }
        }

        fn check_event(&mut self, nodes: &[NodeState], at: SimTime) -> Vec<Violation> {
            let mut found = Vec::new();
            for node in nodes {
                let prev = &mut self.prev_vcs[node.id];
                if node.vc() != prev {
                    if !node.vc().dominates(prev) {
                        found.push(Violation {
                            kind: InvariantKind::ClockMonotonicity,
                            at,
                            detail: format!(
                                "node {} clock went from {} to {}",
                                node.id,
                                prev,
                                node.vc()
                            ),
                        });
                    }
                    prev.clone_from(node.vc());
                }
            }
            let mut holders = HashMap::<LockId, Vec<NodeId>>::new();
            for node in nodes {
                for lock in node.locks.held_tokens() {
                    holders.entry(lock).or_default().push(node.id);
                }
            }
            for (lock, held_by) in holders {
                if held_by.len() > 1 {
                    found.push(Violation {
                        kind: InvariantKind::TokenUniqueness,
                        at,
                        detail: format!("{lock:?} token held by nodes {held_by:?}"),
                    });
                }
            }
            found
        }
    }

    /// What one event added, as an order-free multiset.
    fn multiset(violations: &[Violation]) -> Vec<(String, SimTime, &str)> {
        let mut set: Vec<_> = violations
            .iter()
            .map(|v| (format!("{:?}", v.kind), v.at, v.detail.as_str()))
            .collect();
        set.sort();
        set
    }

    #[test]
    fn clock_regression_is_caught() {
        let mut st = OracleState::new(2);
        let mut nodes = cluster(2);
        nodes[0].tick_clock();
        nodes[0].tick_clock();
        st.check_event(&nodes, SimTime::ZERO);
        assert!(st.violations.is_empty());
        // Forge a regression: replace node 0's clock with an older one.
        nodes[0].forge_clock(VectorClock::from_entries(&[1, 0]));
        st.check_event(&nodes, SimTime::ZERO);
        assert_eq!(st.violations.len(), 1);
        assert_eq!(st.violations[0].kind, InvariantKind::ClockMonotonicity);
        assert_eq!(
            st.violations[0].detail,
            "node 0 clock went from <2,0> to <1,0>"
        );
    }

    /// Grants `lock`'s token to `to` although nobody gave it up.
    fn forge_grant(nodes: &mut [NodeState], to: NodeId, lock: LockId) {
        nodes[to].locks.forge_token(lock);
    }

    #[test]
    fn duplicate_token_is_caught_when_made_and_while_it_lasts() {
        let mut st = OracleState::new(2);
        let mut nodes = cluster(2);
        let lock = LockId(0);
        let at = SimTime::from_nanos;
        // Node 0 manages the lock and takes it: one token, one holder.
        nodes[0].locks.acquire(lock, ThreadId(0));
        st.check_event(&nodes, at(1));
        assert!(st.violations.is_empty());
        // The event that forges a second token is the one reported...
        forge_grant(&mut nodes, 1, lock);
        st.check_event(&nodes, at(2));
        assert_eq!(st.violations.len(), 1);
        assert_eq!(st.violations[0].kind, InvariantKind::TokenUniqueness);
        assert_eq!(
            st.violations[0].detail,
            "LockId(0) token held by nodes [0, 1]"
        );
        // ...and so is every later event, whether or not it touches a
        // lock, for as long as the duplicate lasts.
        st.check_event(&nodes, at(3));
        nodes[1].tick_clock();
        st.check_event(&nodes, at(4));
        assert_eq!(st.violations.len(), 3);
        assert_eq!(st.violations[2].at, at(4));
        // Node 0 passes its token on: one holder again, nothing more
        // to report, and the sweeps stop.
        nodes[0].locks.release(lock, ThreadId(0));
        let waiter = RemoteWaiter {
            node: 1,
            vc: VectorClock::new(2),
        };
        assert!(matches!(
            nodes[0].locks.handle_forward(lock, waiter),
            ForwardOutcome::Grant(_)
        ));
        st.check_event(&nodes, at(5));
        let sweeps = st.token_sweeps;
        st.check_event(&nodes, at(6));
        assert_eq!(st.violations.len(), 3);
        assert_eq!(st.token_sweeps, sweeps);
    }

    /// Several violations found after one event are reported in
    /// `LockId` order, so a broken run's report — `violations` is part
    /// of `RunReport::digest()` — is as deterministic as a coherent
    /// one's and the finding is not buried under `deterministic:
    /// false`.
    #[test]
    fn a_broken_runs_report_is_deterministic() {
        use crate::{DsmConfig, DsmCtx, DsmProgram, Heap, Simulation};

        struct Idle;
        impl DsmProgram for Idle {
            type Handles = ();
            fn name(&self) -> String {
                "idle".into()
            }
            fn allocate(&self, _: &mut Heap) {}
            fn run(&self, _: &mut DsmCtx, _: &()) {}
        }
        let cfg = DsmConfig::paper_cluster(2).with_oracle(OracleConfig::full());
        let mut report = Simulation::new(cfg).run(&Idle).expect("idle runs");

        let mut seen = HashSet::new();
        for _ in 0..20 {
            let mut st = OracleState::new(2);
            let mut nodes = cluster(2);
            // Six locks managed by node 0, each forged onto node 1.
            for lock in [10, 2, 8, 0, 6, 4].map(LockId) {
                nodes[0].locks.acquire(lock, ThreadId(0));
                forge_grant(&mut nodes, 1, lock);
            }
            st.check_event(&nodes, SimTime::ZERO);
            let order: Vec<&str> = st.violations.iter().map(|v| v.detail.as_str()).collect();
            let expected: Vec<String> = [0, 2, 4, 6, 8, 10]
                .map(|l| format!("LockId({l}) token held by nodes [0, 1]"))
                .into();
            assert_eq!(order, expected);
            report.oracle.as_mut().expect("oracle on").violations = st.violations;
            seen.insert(report.digest());
        }
        assert_eq!(seen.len(), 1, "one digest across 20 oracle states");
    }

    /// One step of the differential test below.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Acquire,
        Release,
        Forward,
        ForgeGrant,
        Tick,
        Join,
        ForgeClock,
        Quiet,
    }

    const STEPS: [Step; 15] = [
        Step::Acquire,
        Step::Acquire,
        Step::Acquire,
        Step::Release,
        Step::Release,
        Step::Release,
        Step::Forward,
        Step::Forward,
        Step::Forward,
        Step::Tick,
        Step::Join,
        Step::Quiet,
        Step::Quiet,
        // The salt: rare enough that stretches of the sequence are
        // coherent, frequent enough that most sequences break.
        Step::ForgeGrant,
        Step::ForgeClock,
    ];

    /// Delivers a token a lock table decided to pass on (the engine
    /// would send a `LockGrant`), unless a forgery already put one
    /// there. The random traffic below grants to nodes that never
    /// asked, so the token is forged in rather than granted.
    fn deliver(nodes: &mut [NodeState], lock: LockId, to: NodeId) {
        if !nodes[to].locks.has_token(lock) {
            forge_grant(nodes, to, lock);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The version-driven check against the full sweep, event by
        /// event, over lock-table and clock traffic that is coherent
        /// in stretches and forged-broken in others: the same
        /// violations (kind, time, text) in the same number, including
        /// the repeat on every event while a duplicate token lasts.
        /// Only the order within one event may differ — the
        /// reference's is its hash map's.
        #[test]
        fn version_driven_check_equals_the_full_sweep(
            n in 2usize..=8,
            locks in 1u32..=12,
            steps in prop::collection::vec((0usize..STEPS.len(), any::<u32>(), any::<u32>()), 1..200),
        ) {
            let mut nodes = cluster(n);
            let mut st = OracleState::new(n);
            let mut reference = FullSweep::new(n);
            for (i, (step, a, b)) in steps.into_iter().enumerate() {
                let at = SimTime::from_nanos(i as u64);
                let (node, peer) = (a as usize % n, b as usize % n);
                let lock = LockId(b % locks);
                let tid = ThreadId(node);
                match STEPS[step] {
                    Step::Acquire => {
                        nodes[node].locks.acquire(lock, tid);
                    }
                    Step::Release => {
                        if nodes[node].locks.holder(lock) == Some(tid) {
                            if let ReleaseOutcome::GrantRemote(w) =
                                nodes[node].locks.release(lock, tid)
                            {
                                deliver(&mut nodes, lock, w.node);
                            }
                        }
                    }
                    Step::Forward => {
                        let waiter = RemoteWaiter { node: peer, vc: nodes[peer].vc().clone() };
                        let lock = LockId(a % locks);
                        if let ForwardOutcome::Grant(w) =
                            nodes[node].locks.handle_forward(lock, waiter)
                        {
                            deliver(&mut nodes, lock, w.node);
                        }
                    }
                    Step::ForgeGrant => {
                        if !nodes[node].locks.has_token(lock) {
                            forge_grant(&mut nodes, node, lock);
                        }
                    }
                    Step::Tick => {
                        nodes[node].tick_clock();
                    }
                    Step::Join => {
                        let other = nodes[peer].vc().clone();
                        nodes[node].join_clock(&other);
                    }
                    Step::ForgeClock => nodes[node].forge_clock(VectorClock::new(n)),
                    Step::Quiet => {}
                }
                let before = st.violations.len();
                st.check_event(&nodes, at);
                let expected = reference.check_event(&nodes, at);
                prop_assert_eq!(
                    multiset(&st.violations[before..]),
                    multiset(&expected),
                    "step {} ({:?})", i, STEPS[step]
                );
            }
        }
    }

    /// Coherent lock traffic at a width the proptest above does not
    /// reach: 256 tokens spread over an 8- and a 256-node ring, each
    /// touched at its manager, then one free token passed node to node
    /// one full lap and back to its start. No check after any event
    /// reports anything.
    #[test]
    fn a_token_moving_round_a_wide_ring_is_coherent() {
        for n in [8, 256] {
            let mut nodes = cluster(n);
            let mut st = OracleState::new(n);
            for lock in (0..256).map(LockId) {
                let manager = lock.0 as usize % n;
                nodes[manager].locks.acquire(lock, ThreadId(manager));
                nodes[manager].locks.release(lock, ThreadId(manager));
                st.check_event(&nodes, SimTime::ZERO);
                assert!(st.violations.is_empty(), "n {n}: touching {lock:?}");
            }
            let lock = LockId(0);
            for step in 0..=n {
                let (from, to) = (step % n, (step + 1) % n);
                let waiter = RemoteWaiter {
                    node: to,
                    vc: VectorClock::new(n),
                };
                let granted = nodes[from].locks.handle_forward(lock, waiter);
                assert!(matches!(granted, ForwardOutcome::Grant(_)), "token is free");
                forge_grant(&mut nodes, to, lock);
                st.check_event(&nodes, SimTime::from_nanos(step as u64));
                assert!(st.violations.is_empty(), "n {n}: move {step}");
            }
        }
    }

    #[test]
    fn barrier_epoch_checks() {
        let mut st = OracleState::new(2);
        let id = BarrierId(3);
        st.barrier_arrival(id, 0, SimTime::ZERO);
        st.barrier_arrival(id, 1, SimTime::ZERO);
        st.barrier_release(id, 2, SimTime::ZERO);
        assert!(st.violations.is_empty());
        // Second episode: duplicate arrival, then short release.
        st.barrier_arrival(id, 0, SimTime::ZERO);
        st.barrier_arrival(id, 0, SimTime::ZERO);
        st.barrier_release(id, 2, SimTime::ZERO);
        assert_eq!(st.violations.len(), 2);
        assert!(st
            .violations
            .iter()
            .all(|v| v.kind == InvariantKind::BarrierEpoch));
    }

    #[test]
    fn roundtrip_check_accepts_honest_diffs() {
        let twin = Page::new();
        let mut data = Page::new();
        data.write_u64(16, 99);
        let diff = Diff::between(&twin, &data);
        let mut st = OracleState::new(1);
        st.check_roundtrip(&twin, &data, &diff, 0, PageId::new(0), SimTime::ZERO);
        assert!(st.violations.is_empty());
        // A forged (wrong) diff is rejected.
        let bogus = Diff::between(&data, &twin);
        st.check_roundtrip(&twin, &data, &bogus, 0, PageId::new(0), SimTime::ZERO);
        assert_eq!(st.violations.len(), 1);
        assert_eq!(st.violations[0].kind, InvariantKind::DiffRoundTrip);
    }

    #[test]
    fn grant_trace_only_recorded_when_capturing() {
        let mut st = OracleState::new(1);
        st.record_grant(LockId(1), ThreadId(0));
        assert_eq!(st.lock_trace.len(), 1);
    }
}

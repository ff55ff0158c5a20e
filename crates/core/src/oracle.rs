//! The runtime consistency oracle: LRC invariant checking, lock-grant
//! tracing, and digests for differential/determinism testing.
//!
//! The paper's results only mean something if the LRC substrate is
//! actually coherent, so this module gives every run a cheap,
//! always-available proof hierarchy (see `DESIGN.md`):
//!
//! 1. **Runtime invariants** ([`OracleConfig::invariants`]): checked
//!    inside the engine as the protocol executes — vector-clock
//!    monotonicity, interval/write-notice coverage of every applied
//!    diff, twin/diff round-trip identity, single lock-token
//!    holdership, and barrier-epoch agreement. Violations are
//!    *recorded*, not panicked, so a broken run still produces a
//!    report that names every broken invariant.
//! 2. **Differential checking** ([`OracleConfig::capture`]): the final
//!    merged memory image and the per-lock grant order are captured in
//!    the [`RunReport`](crate::RunReport), so the `rsdsm-oracle` crate
//!    can replay the program through the golden sequential executor
//!    ([`golden_run`](crate::golden_run)) and compare byte for byte.
//! 3. **Determinism**: [`digest_pages`] / [`fnv1a`] hash the image and
//!    report so identical (seed, config) runs can be asserted
//!    digest-identical.
//!
//! The oracle is off by default ([`OracleConfig::off`]) and costs
//! nothing; paper-scale benches keep it off, tests switch it on with
//! [`DsmConfig::with_oracle`](crate::DsmConfig::with_oracle).

use std::collections::{HashMap, HashSet};

use rsdsm_protocol::{Diff, Page, PageId, VectorClock};
use rsdsm_simnet::{NodeId, SimTime};

use crate::msg::{BarrierId, LockId};
use crate::node::NodeState;
use crate::thread::ThreadId;

/// What the consistency oracle checks during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleConfig {
    /// Check LRC invariants as the protocol executes (clock
    /// monotonicity, notice coverage, diff round trips, token
    /// uniqueness, barrier epochs) and record violations.
    pub invariants: bool,
    /// Capture the final memory image and the lock-grant trace in the
    /// report, enabling golden-model differential checking.
    pub capture: bool,
}

impl OracleConfig {
    /// Oracle disabled (the default; zero overhead).
    pub fn off() -> Self {
        OracleConfig {
            invariants: false,
            capture: false,
        }
    }

    /// Everything on: invariants checked, image and trace captured.
    pub fn full() -> Self {
        OracleConfig {
            invariants: true,
            capture: true,
        }
    }

    /// Whether any oracle machinery is active.
    pub fn enabled(&self) -> bool {
        self.invariants || self.capture
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
/// [`OracleConfig`] enabled anything.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// Invariant violations, in observation order (empty on a
    /// coherent run).
    pub violations: Vec<Violation>,
    /// Every lock grant, in global grant order (captured runs only).
    pub lock_trace: Vec<GrantRecord>,
    /// The merged final memory image (captured runs only; empty
    /// otherwise).
    pub final_image: Vec<Page>,
    /// FNV-1a digest of the final memory image (computed whenever the
    /// oracle is enabled, even without capture).
    pub image_digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of `bytes` (64-bit).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`, for chained digests.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a digest of a whole memory image, page order significant.
pub fn digest_pages(pages: &[Page]) -> u64 {
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
#[derive(Debug)]
pub(crate) struct OracleState {
    pub cfg: OracleConfig,
    pub violations: Vec<Violation>,
    pub lock_trace: Vec<GrantRecord>,
    /// Last observed vector clock per node (monotonicity check).
    prev_vcs: Vec<VectorClock>,
    barriers: HashMap<BarrierId, BarrierEpoch>,
}

impl OracleState {
    pub fn new(cfg: OracleConfig, nodes: usize) -> Self {
        OracleState {
            cfg,
            violations: Vec::new(),
            lock_trace: Vec::new(),
            prev_vcs: (0..nodes).map(|_| VectorClock::new(nodes)).collect(),
            barriers: HashMap::new(),
        }
    }

    /// Records a lock grant (captured runs only — the trace exists to
    /// drive golden replay).
    pub fn record_grant(&mut self, lock: LockId, thread: ThreadId) {
        if self.cfg.capture {
            self.lock_trace.push(GrantRecord { lock, thread });
        }
    }

    /// Per-event sweep: vector clocks never regress, and no lock's
    /// token is held by two nodes at once.
    pub fn check_event(&mut self, nodes: &[NodeState], at: SimTime) {
        for node in nodes {
            let prev = &mut self.prev_vcs[node.id];
            if node.vc != *prev {
                if !node.vc.dominates(prev) {
                    self.violations.push(Violation {
                        kind: InvariantKind::ClockMonotonicity,
                        at,
                        detail: format!("node {} clock went from {} to {}", node.id, prev, node.vc),
                    });
                }
                prev.clone_from(&node.vc);
            }
        }
        let mut holders: HashMap<LockId, Vec<NodeId>> = HashMap::new();
        for node in nodes {
            for lock in node.locks.tokens_held() {
                holders.entry(lock).or_default().push(node.id);
            }
        }
        for (lock, held_by) in holders {
            if held_by.len() > 1 {
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
    pub fn check_coverage(
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
    pub fn check_roundtrip(
        &mut self,
        twin: &Page,
        data: &Page,
        diff: &Diff,
        n: NodeId,
        page: PageId,
        at: SimTime,
    ) {
        let mut replayed = twin.clone();
        diff.apply(&mut replayed);
        if &replayed != data {
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
    pub fn barrier_arrival(&mut self, id: BarrierId, from: NodeId, at: SimTime) {
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
    pub fn barrier_release(&mut self, id: BarrierId, expected: usize, at: SimTime) {
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

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
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

    #[test]
    fn clock_regression_is_caught() {
        let mut st = OracleState::new(OracleConfig::full(), 2);
        let mut nodes: Vec<NodeState> = (0..2)
            .map(|n| NodeState::new(n, 2, 1, crate::node::NodeMem::default()))
            .collect();
        nodes[0].vc.tick(0);
        nodes[0].vc.tick(0);
        st.check_event(&nodes, SimTime::ZERO);
        assert!(st.violations.is_empty());
        // Forge a regression: replace node 0's clock with a fresh one.
        nodes[0].vc = VectorClock::new(2);
        nodes[0].vc.tick(0);
        st.check_event(&nodes, SimTime::ZERO);
        assert_eq!(st.violations.len(), 1);
        assert_eq!(st.violations[0].kind, InvariantKind::ClockMonotonicity);
    }

    #[test]
    fn barrier_epoch_checks() {
        let mut st = OracleState::new(OracleConfig::full(), 2);
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
        let mut st = OracleState::new(OracleConfig::full(), 1);
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
        let mut st = OracleState::new(OracleConfig::off(), 1);
        st.record_grant(LockId(1), ThreadId(0));
        assert!(st.lock_trace.is_empty());
        let mut st = OracleState::new(OracleConfig::full(), 1);
        st.record_grant(LockId(1), ThreadId(0));
        assert_eq!(st.lock_trace.len(), 1);
    }
}

//! DSM protocol messages.
//!
//! Every remote interaction in the system is one of these messages.
//! Wire sizes are estimated from the logical content so the network
//! model charges realistic transfer times (the paper's Table 1 and
//! Table 2 report total traffic in bytes).
//!
//! Interval records and interval stamps are immutable once the
//! interval closes, so bodies carry them as `Arc`s: building, cloning
//! and delivering a message bumps reference counts, and the sender's
//! log, the frame and every receiver's log share one record. Wire
//! sizes are computed from the contents, as if each were copied.

use std::sync::Arc;

pub use rsdsm_protocol::IntervalRecord;
use rsdsm_protocol::{Diff, Page, PageId, Stamp, VectorClock, PAGE_SIZE};
use rsdsm_simnet::{NodeId, SimDuration};

use crate::accounting::Category;
use crate::config::PrefetchConfig;
use crate::costs::CostModel;

/// Identifies an application-level lock. The lock's manager node is
/// `id % nodes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

/// Identifies an application-level barrier. Barriers are managed
/// centrally by node 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub u32);

/// One diff payload in a reply: the writer's interval stamp plus the
/// encoded modifications.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DiffPayload {
    /// The processor whose interval produced the diff.
    pub origin: NodeId,
    /// The interval's timestamp.
    pub stamp: Stamp,
    /// The modifications, sized on the wire as runs and shared
    /// zero-copy with the sender's own diff record (cloning a payload
    /// bumps a refcount, never copies the bytes).
    pub diff: Arc<Diff>,
}

impl DiffPayload {
    fn wire_bytes(&self) -> usize {
        8 + 4 * self.stamp.len() + self.diff.encoded_bytes()
    }
}

/// A full page copy sent on first-touch fetches, along with the set
/// of (origin, stamp) modifications already incorporated in it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BasePayload {
    /// The page contents at the sender, shared zero-copy with the
    /// sender's twin frame when one exists (copy-on-write: a sender
    /// that later mutates its twin un-shares it first).
    pub page: Arc<Page>,
    /// Modifications already applied into `page` by the sender.
    pub incorporated: Vec<(NodeId, Stamp)>,
}

impl BasePayload {
    fn wire_bytes(&self) -> usize {
        PAGE_SIZE + self.incorporated.len() * 12
    }
}

/// Why a page's diffs are being fetched — the one distinction the
/// paper's protocol turns on. Carried by a [`DiffRequest`] and
/// mirrored in its [`DiffReply`]; everything that differs
/// between the three is a method here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FetchClass {
    /// A page fault: the thread waits for the reply.
    Demand,
    /// A non-binding prefetch (§3.1) from an application annotation
    /// or the history replay: droppable unless configured reliable.
    Static,
    /// A prefetch issued by the adaptive stride engine: always
    /// reliable, so a too-late fault can wait for its reply.
    Adaptive,
}

impl FetchClass {
    /// True for both prefetch classes: the request counts as prefetch
    /// traffic and the reply fills the caches instead of a fetch.
    pub(crate) fn is_prefetch(self) -> bool {
        self != FetchClass::Demand
    }

    /// Whether servicing the request splits the server's open interval
    /// on a dirty page (§3.1), so later writes stay distinguishable
    /// from the ones the prefetched copy already holds.
    pub(crate) fn splits_interval(self) -> bool {
        self.is_prefetch()
    }

    /// Whether the network may drop the request and its reply. Derived
    /// at both ends from the run's configuration, never carried.
    pub(crate) fn droppable(self, cfg: &PrefetchConfig) -> bool {
        self == FetchClass::Static && !cfg.reliable
    }

    /// CPU cost of sending one request.
    pub(crate) fn send_cost(self, costs: &CostModel) -> SimDuration {
        match self {
            FetchClass::Demand => costs.msg_send,
            FetchClass::Static => costs.prefetch_issue,
            FetchClass::Adaptive => costs.adaptive_issue(),
        }
    }

    /// The account that send cost is booked to.
    pub(crate) fn send_category(self) -> Category {
        if self.is_prefetch() {
            Category::PrefetchOverhead
        } else {
            Category::DsmOverhead
        }
    }

    /// Statistics/trace class of the request and of its reply.
    pub(crate) fn msg_classes(self) -> (MsgClass, MsgClass) {
        match self {
            FetchClass::Demand => (MsgClass::DiffRequest, MsgClass::DiffReply),
            FetchClass::Static => (MsgClass::PrefetchRequest, MsgClass::PrefetchReply),
            FetchClass::Adaptive => (MsgClass::AdaptiveRequest, MsgClass::AdaptiveReply),
        }
    }
}

/// Declares an enum whose variants travel in `RTR1` traces as a code
/// and are shown to people as a label: variant, code and label are
/// written once, here, and `code`, `from_code`, `label` and `ALL`
/// follow. Codes must count up from 0 in declaration order.
macro_rules! wire_enum {
    (
        $(#[$attr:meta])*
        pub enum $ty:ident {
            $($(#[$doc:meta])* $name:ident = $code:literal, $label:literal;)*
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $($(#[$doc])* $name = $code,)*
        }

        impl $ty {
            /// Every variant, in code order.
            pub const ALL: [$ty; [$($code),*].len()] = [$($ty::$name),*];

            /// The variant's `RTR1` code.
            pub fn code(self) -> u8 {
                self as u8
            }

            /// The variant with `RTR1` code `code`, if there is one.
            pub fn from_code(code: u8) -> Option<$ty> {
                $ty::ALL.get(usize::from(code)).copied()
            }

            /// Human-readable name, as in trace metrics and exports.
            pub fn label(self) -> &'static str {
                match self {
                    $($ty::$name => $label,)*
                }
            }
        }
    };
}
pub(crate) use wire_enum;

wire_enum! {
    /// The class of a frame on the wire: the thirteen protocol body
    /// classes plus the transport's own ack and heartbeat. Network
    /// statistics are keyed by its label, and `TraceEvent::MsgSend` /
    /// `TraceEvent::MsgRecv` carry its code.
    pub enum MsgClass {
        /// Demand diff/page request.
        DiffRequest = 0, "diff_request";
        /// Demand diff/page reply.
        DiffReply = 1, "diff_reply";
        /// Non-binding prefetch request.
        PrefetchRequest = 2, "prefetch_request";
        /// Prefetch reply.
        PrefetchReply = 3, "prefetch_reply";
        /// Lock token request to the manager.
        LockRequest = 4, "lock_request";
        /// Manager-forwarded lock request chasing the token.
        LockForward = 5, "lock_forward";
        /// Lock token grant.
        LockGrant = 6, "lock_grant";
        /// Barrier arrival at the manager.
        BarrierArrive = 7, "barrier_arrive";
        /// Barrier release fan-out.
        BarrierRelease = 8, "barrier_release";
        /// Failure suspicion report to the manager.
        SuspectReport = 9, "suspect_report";
        /// Manager-confirmed recovery broadcast.
        RecoveryStart = 10, "recovery_start";
        /// Transport-level acknowledgement frame.
        Ack = 11, "ack";
        /// Idle-link heartbeat frame.
        Heartbeat = 12, "heartbeat";
        /// Prefetch request issued by the adaptive stride engine.
        AdaptiveRequest = 13, "adaptive_request";
        /// Reply to an adaptive prefetch request.
        AdaptiveReply = 14, "adaptive_reply";
    }
}

/// Request for a page's diffs (and possibly a base copy). Sent on a
/// page fault or by a prefetcher, as `class` says.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DiffRequest {
    /// The faulted/prefetched page.
    pub page: PageId,
    /// Interval stamps whose diffs are wanted from the recipient.
    pub stamps: Vec<Stamp>,
    /// Also send a full page copy (first-touch fetch).
    pub want_base: bool,
    /// Demand fetch, static prefetch or adaptive prefetch.
    pub class: FetchClass,
    /// The requester's vector clock, so the reply can piggyback
    /// the write notices the requester lacks.
    pub vc: VectorClock,
}

/// Response to a [`DiffRequest`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DiffReply {
    /// The page in question.
    pub page: PageId,
    /// Requested (and possibly interval-split) diffs.
    pub diffs: Vec<DiffPayload>,
    /// Full page copy when requested.
    pub base: Option<BasePayload>,
    /// The request's class.
    pub class: FetchClass,
    /// Write notices the requester did not have. Piggybacking
    /// them preserves happens-before: a reply may carry a diff
    /// from a freshly split interval, and the requester must
    /// learn of every causally-prior interval before applying it,
    /// or a later fetch of an older overlapping diff would roll
    /// the page back.
    pub intervals: Vec<Arc<IntervalRecord>>,
}

/// An acquire request on its way to the token: the requesting node
/// and its clock. It travels whole from the acquirer through the
/// manager and every forward to the holder's queue, and the holder's
/// grant reads the clock to select the notices to piggyback.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RemoteWaiter {
    /// The requesting node.
    pub node: NodeId,
    /// The requester's vector clock.
    pub vc: VectorClock,
}

/// Message bodies of the DSM protocol.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MsgBody {
    /// Request diffs (and possibly a base copy) for a page.
    DiffRequest(DiffRequest),
    /// Response to a [`MsgBody::DiffRequest`].
    DiffReply(DiffReply),
    /// Acquire request sent to the lock's manager node.
    LockRequest {
        /// The lock.
        lock: LockId,
        /// The acquirer.
        waiter: RemoteWaiter,
    },
    /// Manager (or stale owner) forwarding an acquire request toward
    /// the current token holder.
    LockForward {
        /// The lock.
        lock: LockId,
        /// The acquirer.
        waiter: RemoteWaiter,
    },
    /// The token plus piggybacked write notices, sent by the previous
    /// holder directly to the new one.
    LockGrant {
        /// The lock.
        lock: LockId,
        /// Intervals the acquirer did not know about.
        intervals: Vec<Arc<IntervalRecord>>,
        /// The granter's vector clock.
        vc: VectorClock,
    },
    /// A node's last local thread reached the barrier.
    BarrierArrive {
        /// The barrier.
        id: BarrierId,
        /// The arriving node.
        from: NodeId,
        /// The arriver's vector clock.
        vc: VectorClock,
        /// Intervals the manager may not know about.
        intervals: Vec<Arc<IntervalRecord>>,
    },
    /// The manager releases all nodes from the barrier, redistributing
    /// every interval gathered from the arrivals.
    BarrierRelease {
        /// The barrier.
        id: BarrierId,
        /// Joined vector clock of all participants.
        vc: VectorClock,
        /// Union of intervals from all arrivals.
        intervals: Vec<Arc<IntervalRecord>>,
    },
    /// A node's lease on a peer expired, or a reliable frame to it
    /// exhausted its retries; reported to the manager, which owns
    /// failure confirmation.
    SuspectReport {
        /// The peer believed failed.
        suspect: NodeId,
    },
    /// The manager confirmed a failure: survivors mark the victim
    /// down and prepare for it to rejoin from its checkpoint.
    RecoveryStart {
        /// The failed node.
        victim: NodeId,
        /// The victim's last checkpointed barrier epoch (0 when it
        /// never checkpointed and will rejoin from its initial
        /// state).
        epoch: u32,
    },
}

/// Fixed per-message body framing (op code, page/lock ids, flags).
const BODY_HEADER_BYTES: usize = 16;

impl MsgBody {
    /// Estimated wire size of the encoded body in bytes.
    pub(crate) fn wire_bytes(&self) -> usize {
        let records = |intervals: &[Arc<IntervalRecord>]| -> usize {
            intervals.iter().map(|rec| rec.wire_bytes()).sum()
        };
        BODY_HEADER_BYTES
            + match self {
                MsgBody::DiffRequest(DiffRequest { stamps, vc, .. }) => {
                    4 * vc.len() + stamps.iter().map(|s| 4 * s.len()).sum::<usize>()
                }
                MsgBody::DiffReply(DiffReply {
                    diffs,
                    base,
                    intervals,
                    ..
                }) => {
                    diffs.iter().map(DiffPayload::wire_bytes).sum::<usize>()
                        + base.as_ref().map_or(0, BasePayload::wire_bytes)
                        + records(intervals)
                }
                MsgBody::LockRequest { waiter, .. } | MsgBody::LockForward { waiter, .. } => {
                    4 * waiter.vc.len()
                }
                MsgBody::LockGrant { intervals, vc, .. }
                | MsgBody::BarrierArrive { intervals, vc, .. }
                | MsgBody::BarrierRelease { intervals, vc, .. } => {
                    4 * vc.len() + records(intervals)
                }
                // Node id / epoch fit inside the fixed header.
                MsgBody::SuspectReport { .. } | MsgBody::RecoveryStart { .. } => 0,
            }
    }

    /// The body's wire class.
    pub(crate) fn class(&self) -> MsgClass {
        match self {
            MsgBody::DiffRequest(req) => req.class.msg_classes().0,
            MsgBody::DiffReply(reply) => reply.class.msg_classes().1,
            MsgBody::LockRequest { .. } => MsgClass::LockRequest,
            MsgBody::LockForward { .. } => MsgClass::LockForward,
            MsgBody::LockGrant { .. } => MsgClass::LockGrant,
            MsgBody::BarrierArrive { .. } => MsgClass::BarrierArrive,
            MsgBody::BarrierRelease { .. } => MsgClass::BarrierRelease,
            MsgBody::SuspectReport { .. } => MsgClass::SuspectReport,
            MsgBody::RecoveryStart { .. } => MsgClass::RecoveryStart,
        }
    }

    /// True for messages the network may drop: static prefetch
    /// traffic, unless the run configures reliable prefetches.
    pub(crate) fn droppable(&self, cfg: &PrefetchConfig) -> bool {
        match self {
            MsgBody::DiffRequest(DiffRequest { class, .. })
            | MsgBody::DiffReply(DiffReply { class, .. }) => class.droppable(cfg),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VectorClock {
        VectorClock::new(4)
    }

    fn stamp() -> Stamp {
        Arc::new(vc())
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = MsgBody::DiffRequest(DiffRequest {
            page: PageId::new(0),
            stamps: vec![stamp()],
            want_base: false,
            class: FetchClass::Demand,
            vc: vc(),
        });
        let large = MsgBody::DiffRequest(DiffRequest {
            page: PageId::new(0),
            stamps: vec![stamp(); 4],
            want_base: false,
            class: FetchClass::Demand,
            vc: vc(),
        });
        assert!(large.wire_bytes() > small.wire_bytes());
    }

    #[test]
    fn reply_with_base_is_page_sized() {
        let body = MsgBody::DiffReply(DiffReply {
            page: PageId::new(1),
            diffs: vec![],
            base: Some(BasePayload {
                page: Arc::new(Page::new()),
                incorporated: vec![],
            }),
            class: FetchClass::Demand,
            intervals: vec![],
        });
        assert!(body.wire_bytes() >= PAGE_SIZE);
    }

    #[test]
    fn only_prefetch_traffic_is_droppable() {
        let pf = MsgBody::DiffRequest(DiffRequest {
            page: PageId::new(0),
            stamps: vec![],
            want_base: false,
            class: FetchClass::Static,
            vc: vc(),
        });
        let cfg = PrefetchConfig::hand();
        assert!(pf.droppable(&cfg));
        assert_eq!(pf.class().label(), "prefetch_request");
        let normal = MsgBody::LockRequest {
            lock: LockId(0),
            waiter: RemoteWaiter { node: 1, vc: vc() },
        };
        assert!(!normal.droppable(&cfg));
        assert_eq!(normal.class().label(), "lock_request");
    }

    /// Codes and labels are `RTR1` wire format and report text: pinned
    /// literally, not against the declaration they come from.
    #[test]
    fn msg_class_codes_and_labels_are_pinned() {
        let pinned = [
            (0, "diff_request"),
            (1, "diff_reply"),
            (2, "prefetch_request"),
            (3, "prefetch_reply"),
            (4, "lock_request"),
            (5, "lock_forward"),
            (6, "lock_grant"),
            (7, "barrier_arrive"),
            (8, "barrier_release"),
            (9, "suspect_report"),
            (10, "recovery_start"),
            (11, "ack"),
            (12, "heartbeat"),
            (13, "adaptive_request"),
            (14, "adaptive_reply"),
        ];
        assert_eq!(MsgClass::ALL.len(), pinned.len());
        for (class, (code, label)) in MsgClass::ALL.into_iter().zip(pinned) {
            assert_eq!((class.code(), class.label()), (code, label));
            assert_eq!(MsgClass::from_code(code), Some(class));
        }
        assert_eq!(MsgClass::from_code(15), None);
    }

    #[test]
    fn fetch_class_table() {
        let costs = CostModel::paper_1998();
        let droppable = PrefetchConfig::hand();
        let reliable = PrefetchConfig {
            reliable: true,
            ..PrefetchConfig::hand()
        };
        // (class, prefetch, droppable by default, request, reply, cost)
        let table = [
            (
                FetchClass::Demand,
                false,
                false,
                "diff_request",
                "diff_reply",
                costs.msg_send,
            ),
            (
                FetchClass::Static,
                true,
                true,
                "prefetch_request",
                "prefetch_reply",
                costs.prefetch_issue,
            ),
            (
                FetchClass::Adaptive,
                true,
                false,
                "adaptive_request",
                "adaptive_reply",
                costs.adaptive_issue(),
            ),
        ];
        for (class, prefetch, drops, request, reply, cost) in table {
            assert_eq!(class.is_prefetch(), prefetch, "{class:?}");
            assert_eq!(class.splits_interval(), prefetch, "{class:?}");
            assert_eq!(class.droppable(&droppable), drops, "{class:?}");
            assert!(!class.droppable(&reliable), "{class:?}");
            let (req, rep) = class.msg_classes();
            assert_eq!((req.label(), rep.label()), (request, reply));
            assert_eq!(class.send_cost(&costs), cost, "{class:?}");
            let category = if prefetch {
                Category::PrefetchOverhead
            } else {
                Category::DsmOverhead
            };
            assert_eq!(class.send_category(), category, "{class:?}");
        }
    }
}

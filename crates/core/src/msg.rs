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
use rsdsm_simnet::NodeId;

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
pub struct DiffPayload {
    /// The processor whose interval produced the diff.
    pub origin: NodeId,
    /// The interval's timestamp.
    pub stamp: Stamp,
    /// The run-length-encoded modifications, shared zero-copy with
    /// the sender's own diff record (cloning a payload bumps a
    /// refcount, never copies the encoded bytes).
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
pub struct BasePayload {
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

/// Message bodies of the DSM protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum MsgBody {
    /// Request diffs (and possibly a base copy) for a page. Sent on a
    /// page fault, or — with `prefetch` set — by the prefetch engine,
    /// in which case it travels unreliably.
    DiffRequest {
        /// The faulted/prefetched page.
        page: PageId,
        /// Interval stamps whose diffs are wanted from the recipient.
        stamps: Vec<Stamp>,
        /// Also send a full page copy (first-touch fetch).
        want_base: bool,
        /// This is a prefetch request (servicing may split an open
        /// interval).
        prefetch: bool,
        /// The prefetch was issued by the adaptive stride engine
        /// (distinguished in traffic statistics; implies `prefetch`).
        adaptive: bool,
        /// Whether the network may drop this message (prefetch
        /// traffic is droppable unless configured reliable).
        droppable: bool,
        /// The requester's vector clock, so the reply can piggyback
        /// the write notices the requester lacks.
        vc: VectorClock,
    },
    /// Response to a [`MsgBody::DiffRequest`].
    DiffReply {
        /// The page in question.
        page: PageId,
        /// Requested (and possibly interval-split) diffs.
        diffs: Vec<DiffPayload>,
        /// Full page copy when requested.
        base: Option<BasePayload>,
        /// Mirrors the request's prefetch flag.
        prefetch: bool,
        /// Mirrors the request's adaptive flag.
        adaptive: bool,
        /// Mirrors the request's droppable flag.
        droppable: bool,
        /// Write notices the requester did not have. Piggybacking
        /// them preserves happens-before: a reply may carry a diff
        /// from a freshly split interval, and the requester must
        /// learn of every causally-prior interval before applying it,
        /// or a later fetch of an older overlapping diff would roll
        /// the page back.
        intervals: Vec<Arc<IntervalRecord>>,
    },
    /// Acquire request sent to the lock's manager node.
    LockRequest {
        /// The lock.
        lock: LockId,
        /// The acquiring node.
        requester: NodeId,
        /// The acquirer's vector clock, so the granter can select the
        /// write notices the acquirer lacks.
        vc: VectorClock,
    },
    /// Manager (or stale owner) forwarding an acquire request toward
    /// the current token holder.
    LockForward {
        /// The lock.
        lock: LockId,
        /// The acquiring node.
        requester: NodeId,
        /// The acquirer's vector clock.
        vc: VectorClock,
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

/// A protocol message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    /// Sender node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload.
    pub body: MsgBody,
}

/// Fixed per-message body framing (op code, page/lock ids, flags).
const BODY_HEADER_BYTES: usize = 16;

impl MsgBody {
    /// Estimated wire size of the encoded body in bytes.
    pub fn wire_bytes(&self) -> usize {
        let records = |intervals: &[Arc<IntervalRecord>]| -> usize {
            intervals.iter().map(|rec| rec.wire_bytes()).sum()
        };
        BODY_HEADER_BYTES
            + match self {
                MsgBody::DiffRequest { stamps, vc, .. } => {
                    4 * vc.len() + stamps.iter().map(|s| 4 * s.len()).sum::<usize>()
                }
                MsgBody::DiffReply {
                    diffs,
                    base,
                    intervals,
                    ..
                } => {
                    diffs.iter().map(DiffPayload::wire_bytes).sum::<usize>()
                        + base.as_ref().map_or(0, BasePayload::wire_bytes)
                        + records(intervals)
                }
                MsgBody::LockRequest { vc, .. } | MsgBody::LockForward { vc, .. } => 4 * vc.len(),
                MsgBody::LockGrant { intervals, vc, .. }
                | MsgBody::BarrierArrive { intervals, vc, .. }
                | MsgBody::BarrierRelease { intervals, vc, .. } => {
                    4 * vc.len() + records(intervals)
                }
                // Node id / epoch fit inside the fixed header.
                MsgBody::SuspectReport { .. } | MsgBody::RecoveryStart { .. } => 0,
            }
    }

    /// Statistics label for the network layer.
    pub fn kind(&self) -> &'static str {
        match self {
            MsgBody::DiffRequest { adaptive: true, .. } => "adaptive_request",
            MsgBody::DiffRequest { prefetch: true, .. } => "prefetch_request",
            MsgBody::DiffRequest { .. } => "diff_request",
            MsgBody::DiffReply { adaptive: true, .. } => "adaptive_reply",
            MsgBody::DiffReply { prefetch: true, .. } => "prefetch_reply",
            MsgBody::DiffReply { .. } => "diff_reply",
            MsgBody::LockRequest { .. } => "lock_request",
            MsgBody::LockForward { .. } => "lock_forward",
            MsgBody::LockGrant { .. } => "lock_grant",
            MsgBody::BarrierArrive { .. } => "barrier_arrive",
            MsgBody::BarrierRelease { .. } => "barrier_release",
            MsgBody::SuspectReport { .. } => "suspect_report",
            MsgBody::RecoveryStart { .. } => "recovery_start",
        }
    }

    /// True for messages the network may drop (prefetch traffic,
    /// unless the run configures reliable prefetches).
    pub fn droppable(&self) -> bool {
        matches!(
            self,
            MsgBody::DiffRequest {
                droppable: true,
                ..
            } | MsgBody::DiffReply {
                droppable: true,
                ..
            }
        )
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
        let small = MsgBody::DiffRequest {
            page: PageId::new(0),
            stamps: vec![stamp()],
            want_base: false,
            prefetch: false,
            adaptive: false,
            droppable: false,
            vc: vc(),
        };
        let large = MsgBody::DiffRequest {
            page: PageId::new(0),
            stamps: vec![stamp(); 4],
            want_base: false,
            prefetch: false,
            adaptive: false,
            droppable: false,
            vc: vc(),
        };
        assert!(large.wire_bytes() > small.wire_bytes());
    }

    #[test]
    fn reply_with_base_is_page_sized() {
        let body = MsgBody::DiffReply {
            page: PageId::new(1),
            diffs: vec![],
            base: Some(BasePayload {
                page: Arc::new(Page::new()),
                incorporated: vec![],
            }),
            prefetch: false,
            adaptive: false,
            droppable: false,
            intervals: vec![],
        };
        assert!(body.wire_bytes() >= PAGE_SIZE);
    }

    #[test]
    fn only_prefetch_traffic_is_droppable() {
        let pf = MsgBody::DiffRequest {
            page: PageId::new(0),
            stamps: vec![],
            want_base: false,
            prefetch: true,
            adaptive: false,
            droppable: true,
            vc: vc(),
        };
        assert!(pf.droppable());
        assert_eq!(pf.kind(), "prefetch_request");
        let normal = MsgBody::LockRequest {
            lock: LockId(0),
            requester: 1,
            vc: vc(),
        };
        assert!(!normal.droppable());
        assert_eq!(normal.kind(), "lock_request");
    }
}

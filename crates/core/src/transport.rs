//! The modeled reliable transport.
//!
//! The seed engine treated "reliable" delivery as a property of the
//! wire: control messages were simply never lost. With fault injection
//! in the network layer ([`rsdsm_simnet::FaultPlan`]) that idealization
//! no longer holds, so reliability is now *earned* the way TreadMarks
//! earned it over UDP — with sequence numbers, acknowledgements,
//! retransmission timers, and exponential backoff:
//!
//! - Every reliable message on a directed (src, dst) link is assigned
//!   a sequence number and kept by the sender until acknowledged.
//! - The receiver acknowledges every data frame it sees (duplicates
//!   included, since a retransmission means the previous ack may have
//!   been lost), suppresses duplicates, and buffers out-of-order
//!   frames so the protocol above observes per-link FIFO delivery even
//!   when the fault plan reorders the wire.
//! - An unacknowledged frame is retransmitted after a timeout that
//!   doubles on each attempt up to [`TransportConfig::max_rto`]; after
//!   [`TransportConfig::max_retries`] retransmissions the run aborts
//!   with [`SimError::Transport`](crate::SimError::Transport).
//! - The timeout adapts to the link: every acknowledgement feeds a
//!   smoothed round-trip-time estimate, and both the timeout for new
//!   frames and the backoff ceiling are floored at twice that
//!   estimate, so queueing delay (which on the modeled FIFO links can
//!   reach seconds under hot-spotting) passes less often for loss.
//!   The floor does not make a fault-free network quiet: a link with
//!   no sample yet backs off from `initial_rto` to `max_rto`, LU-CONT
//!   on the paper's 8 nodes retransmits, and RADIX on 256 nodes of a
//!   fault-free flat bus exhausts its retry budget (ROADMAP item 6
//!   has the numbers and the fix). Samples from retransmitted frames are
//!   ambiguous (Karn's problem) but are measured from the *first*
//!   transmission and therefore only ever overestimate, so they are
//!   allowed to raise the estimate and never to lower it.
//!
//! Prefetch traffic deliberately bypasses all of this: the paper sends
//! prefetches as droppable datagrams and never retries them (§3.1
//! footnote 3 — retrying under congestion worsens congestion).
//!
//! This module is the pure state machine; the engine owns the clock,
//! charges CPU costs for every (re)transmission and ack, and puts the
//! frames on the simulated network.
//!
//! # Index and costs
//!
//! Every reliable message touches its link four times (register,
//! receive, ack, retry timer), so a link is found by two array reads:
//! `slots[src][dst]` is its position in a list of the links used so
//! far. A row is only as long as its `src`'s highest `dst`, so a
//! 1024-node star costs one wide row and 1023 one-slot rows, not a
//! square. A link's unacknowledged frames are a ring that starts at
//! the oldest one: frame `seq` sits `seq - first_unacked` from the
//! front, a send pushes at the back, and an ack empties its slot and
//! drops the acked prefix. Nothing hashes and nothing walks a tree;
//! only the receiver's out-of-order buffer is a map, and it is almost
//! always empty.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use rsdsm_simnet::{NodeId, SimDuration, SimTime};

use crate::msg::{MsgBody, MsgClass};

/// Parameters of the reliable transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportConfig {
    /// Floor of the retransmission timeout for a frame's first
    /// transmission; raised to twice the link's smoothed round-trip
    /// time once acks have been observed.
    pub initial_rto: SimDuration,
    /// Ceiling on the backed-off retransmission timeout; also raised
    /// to twice the smoothed round-trip time when congestion pushes
    /// the measured RTT above it.
    pub max_rto: SimDuration,
    /// Retransmissions allowed per frame before the transport gives
    /// up and the run aborts.
    pub max_retries: u32,
}

/// Wire size of a body-less frame: an acknowledgement or a heartbeat.
pub(crate) const ACK_BYTES: u32 = 28;

impl Default for TransportConfig {
    /// Defaults sized for the simulated 155 Mbps ATM LAN: the initial
    /// timeout sits an order of magnitude above the ~0.5 ms remote
    /// miss round trip of an idle network. Queueing delay still
    /// outlasts it: fault-free runs at calibrated load retransmit
    /// (LU-CONT on 8 nodes at default scale, 430 of 4 758 data
    /// frames). The backoff ceiling is deliberately large — with 12
    /// retries it tolerates ~10 s of total silence before giving up —
    /// because hot-spot congestion can park acknowledgements behind
    /// seconds of queued data on a FIFO link, and a frame should be
    /// declared dead on loss, not on queueing delay (TCP's give-up
    /// threshold is minutes for the same reason). That aim is not met
    /// everywhere: RADIX on 256 fault-free nodes queues longer than
    /// that on a link with no RTT sample and gives up. ROADMAP item 6
    /// is the fix.
    fn default() -> Self {
        TransportConfig {
            initial_rto: SimDuration::from_millis(4),
            max_rto: SimDuration::from_secs(2),
            max_retries: 12,
        }
    }
}

/// What travels the wire: reliable data, unreliable datagrams, acks.
///
/// Message bodies are `Arc`-shared, not owned: the engine builds a
/// body once per logical message, and the retransmit buffer, every
/// in-flight frame (fault-plan duplicates included), and the receive
/// path all hold references to that one allocation.
#[derive(Debug, Clone)]
pub(crate) enum Frame {
    /// A sequenced reliable message.
    Data {
        /// Per-(src, dst) sequence number.
        seq: u64,
        /// The protocol message.
        body: Arc<MsgBody>,
    },
    /// An unsequenced, unacknowledged message (prefetch traffic).
    Datagram {
        /// The protocol message.
        body: Arc<MsgBody>,
    },
    /// Acknowledgement of one data frame (sent dst → src).
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Explicit failure-detector heartbeat, sent only on links with
    /// no recent outbound traffic (any frame refreshes the peer's
    /// lease, so data and acks act as implicit heartbeats).
    /// Unsequenced and droppable, like a datagram.
    Heartbeat,
}

impl Frame {
    /// The frame's wire class: its body's, or the transport's own for
    /// acks and heartbeats.
    pub(crate) fn class(&self) -> MsgClass {
        match self {
            Frame::Data { body, .. } | Frame::Datagram { body } => body.class(),
            Frame::Ack { .. } => MsgClass::Ack,
            Frame::Heartbeat => MsgClass::Heartbeat,
        }
    }

    /// The per-link sequence number the frame names (0 for the
    /// unsequenced datagrams and heartbeats).
    pub(crate) fn seq(&self) -> u64 {
        match self {
            Frame::Data { seq, .. } | Frame::Ack { seq } => *seq,
            Frame::Datagram { .. } | Frame::Heartbeat => 0,
        }
    }
}

/// A frame in flight between two nodes.
#[derive(Debug)]
pub(crate) struct Packet {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload.
    pub frame: Frame,
    /// Trace record id of the `MsgSend` that put this frame on the
    /// wire (0 when tracing is off). Lets the receive side link its
    /// `MsgRecv` record to the exact transmission — including
    /// retransmissions and fault-plan duplicates — without guessing.
    pub cause: u64,
}

/// Per-run transport tallies, surfaced in
/// [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportSummary {
    /// Reliable messages accepted for delivery (first transmissions).
    pub data_frames: u64,
    /// Timeout-driven retransmissions.
    pub retransmissions: u64,
    /// Acknowledgement frames generated.
    pub acks_sent: u64,
    /// Duplicate data frames suppressed at the receiver.
    pub dup_frames_suppressed: u64,
    /// Frames that arrived out of order and were buffered.
    pub buffered_out_of_order: u64,
    /// Retry timers that fired after their frame was already acked.
    pub spurious_timeouts: u64,
    /// Most transmissions any single frame needed.
    pub max_attempts: u32,
}

/// Sender-side record of an unacknowledged frame.
#[derive(Debug)]
struct Inflight<B> {
    body: B,
    /// Transmissions so far (1 = original send).
    attempts: u32,
    /// Timeout armed for the latest transmission.
    rto: SimDuration,
    /// When the frame was first transmitted (RTT sampling).
    sent_at: SimTime,
}

/// Both endpoints' state for one directed (src, dst) link.
#[derive(Debug)]
struct LinkState<B> {
    /// Sequence number of the oldest unacknowledged frame: the one at
    /// the front of `inflight`.
    first_unacked: u64,
    /// The sent frames from `first_unacked` on, frame `seq` at
    /// `seq - first_unacked`; `None` once acked. The front is never
    /// `None`, so the next sequence number to assign is
    /// `first_unacked + inflight.len()`. A frame that is never acked
    /// (parked toward a dead peer) holds the front, and the ring keeps
    /// a slot for every frame sent after it until it is acked.
    inflight: VecDeque<Option<Inflight<B>>>,
    /// Smoothed round-trip time observed from acks on this link.
    srtt: Option<SimDuration>,
    /// Next sequence number the receiver will deliver.
    recv_next: u64,
    /// Out-of-order frames parked until the gap fills.
    recv_buf: BTreeMap<u64, B>,
}

impl<B> Default for LinkState<B> {
    fn default() -> Self {
        LinkState {
            first_unacked: 0,
            inflight: VecDeque::new(),
            srtt: None,
            recv_next: 0,
            recv_buf: BTreeMap::new(),
        }
    }
}

impl<B> LinkState<B> {
    /// The timeout for a fresh transmission: the configured floor, or
    /// twice the smoothed RTT once the link has been measured.
    fn base_rto(&self, cfg: &TransportConfig) -> SimDuration {
        match self.srtt {
            Some(s) => cfg.initial_rto.max(s * 2),
            None => cfg.initial_rto,
        }
    }

    /// Frame `seq`'s slot in the ring, if it was sent and is not part
    /// of the acked prefix already dropped.
    fn slot(&mut self, seq: u64) -> Option<&mut Option<Inflight<B>>> {
        let at = usize::try_from(seq.checked_sub(self.first_unacked)?).ok()?;
        self.inflight.get_mut(at)
    }

    /// Takes the unacknowledged frame `seq` out of the ring, then drops
    /// the acked prefix so the front is the oldest unacked frame again.
    fn take(&mut self, seq: u64) -> Option<Inflight<B>> {
        let inf = self.slot(seq)?.take()?;
        while let Some(None) = self.inflight.front() {
            self.inflight.pop_front();
            self.first_unacked += 1;
        }
        Some(inf)
    }
}

/// What the sender should do when a retry timer fires.
#[derive(Debug)]
pub enum TimeoutAction<B> {
    /// The frame was acked in the meantime; the timer is stale.
    Cancelled,
    /// Retransmit the frame and re-arm the (backed-off) timer.
    Retransmit {
        /// The frame body to resend.
        body: B,
        /// The timeout to arm for this transmission.
        rto: SimDuration,
    },
    /// The retry budget is exhausted. With recovery disabled the run
    /// aborts (the pre-recovery behavior); with recovery enabled the
    /// engine parks the frame and suspects the peer instead.
    Exhausted {
        /// Total transmissions attempted.
        attempts: u32,
    },
}

/// What the receiver should do with an arriving data frame.
#[derive(Debug)]
pub enum Recv<B> {
    /// Deliver this message to the protocol: it is the link's next in
    /// order. Frames parked behind the gap it filled may follow; take
    /// them, in order, with [`Transport::next_parked`].
    Deliver(B),
    /// Out of order; parked until the gap fills.
    Buffered,
    /// Already delivered or already parked; suppressed.
    Duplicate,
}

/// The reliable-transport state machine for every directed link.
///
/// Generic over the message body `B` it carries so tests (notably the
/// simnet property tests) can exercise it with simple payloads; the
/// engine instantiates it with its internal protocol message type.
#[derive(Debug)]
pub struct Transport<B> {
    cfg: TransportConfig,
    /// Every link used so far, in first-use order.
    links: Vec<LinkState<B>>,
    /// `slots[src][dst]`: the position of link (src, dst) in `links`,
    /// or [`NO_LINK`]. A row is only as long as its `src`'s highest
    /// `dst` so far.
    slots: Vec<Vec<u32>>,
    summary: TransportSummary,
}

/// The slot of a link not used yet.
const NO_LINK: u32 = u32::MAX;

impl<B: Clone> Transport<B> {
    /// Creates a transport with no links established yet.
    pub fn new(cfg: TransportConfig) -> Self {
        Transport {
            cfg,
            links: Vec::new(),
            slots: Vec::new(),
            summary: TransportSummary::default(),
        }
    }

    /// Where link (src, dst) sits in `links`, if it has been used.
    fn position(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let at = *self.slots.get(src)?.get(dst)?;
        (at != NO_LINK).then_some(at as usize)
    }

    /// Where link (src, dst) sits in `links`, set up empty on its first
    /// use.
    fn position_or_new(&mut self, src: NodeId, dst: NodeId) -> usize {
        if self.slots.len() <= src {
            self.slots.resize_with(src + 1, Vec::new);
        }
        let row = &mut self.slots[src];
        if row.len() <= dst {
            row.reserve_exact(dst + 1 - row.len());
            row.resize(dst + 1, NO_LINK);
        }
        if row[dst] == NO_LINK {
            row[dst] = u32::try_from(self.links.len())
                .ok()
                .filter(|&at| at != NO_LINK)
                .expect("a link's position fits its slot");
            self.links.push(LinkState::default());
        }
        row[dst] as usize
    }

    /// Accepts a reliable message for transmission on (src, dst):
    /// assigns its sequence number and records it as inflight.
    /// Returns the sequence number and the timeout to arm.
    pub fn register(
        &mut self,
        src: NodeId,
        dst: NodeId,
        body: B,
        now: SimTime,
    ) -> (u64, SimDuration) {
        let at = self.position_or_new(src, dst);
        let link = &mut self.links[at];
        let seq = link.first_unacked + link.inflight.len() as u64;
        let rto = link.base_rto(&self.cfg);
        link.inflight.push_back(Some(Inflight {
            body,
            attempts: 1,
            rto,
            sent_at: now,
        }));
        self.summary.data_frames += 1;
        self.summary.max_attempts = self.summary.max_attempts.max(1);
        (seq, rto)
    }

    /// Handles a fired retry timer for (src, dst, seq).
    pub fn on_timeout(&mut self, src: NodeId, dst: NodeId, seq: u64) -> TimeoutAction<B> {
        let Some(at) = self.position(src, dst) else {
            return TimeoutAction::Cancelled;
        };
        let link = &mut self.links[at];
        // The backoff ceiling tracks the link's measured RTT so a
        // congested-but-lossless link keeps stretching the timer
        // instead of burning through the retry budget.
        let cap = match link.srtt {
            Some(s) => self.cfg.max_rto.max(s * 2),
            None => self.cfg.max_rto,
        };
        let Some(Some(inf)) = link.slot(seq) else {
            self.summary.spurious_timeouts += 1;
            return TimeoutAction::Cancelled;
        };
        if inf.attempts > self.cfg.max_retries {
            return TimeoutAction::Exhausted {
                attempts: inf.attempts,
            };
        }
        inf.attempts += 1;
        inf.rto = (inf.rto * 2).min(cap);
        self.summary.retransmissions += 1;
        self.summary.max_attempts = self.summary.max_attempts.max(inf.attempts);
        TimeoutAction::Retransmit {
            body: inf.body.clone(),
            rto: inf.rto,
        }
    }

    /// Restores the retry budget of a frame that was parked after
    /// exhausting its retries toward a crashed (or falsely suspected)
    /// peer: the attempt count and timeout reset as if freshly sent,
    /// so the engine can re-arm a retry timer. Returns the timeout to
    /// arm, or `None` when the frame was acked in the meantime.
    pub fn reset_frame(&mut self, src: NodeId, dst: NodeId, seq: u64) -> Option<SimDuration> {
        let at = self.position(src, dst)?;
        let link = &mut self.links[at];
        let rto = link.base_rto(&self.cfg);
        let inf = link.slot(seq)?.as_mut()?;
        inf.attempts = 1;
        inf.rto = rto;
        Some(rto)
    }

    /// Handles an acknowledgement arriving at the data sender `src`
    /// from the data receiver `dst`, feeding the link's RTT estimate.
    /// Stale and duplicate acks are ignored.
    pub fn on_ack(&mut self, src: NodeId, dst: NodeId, seq: u64, now: SimTime) {
        let Some(at) = self.position(src, dst) else {
            return;
        };
        let link = &mut self.links[at];
        let Some(inf) = link.take(seq) else {
            return;
        };
        let sample = now.saturating_since(inf.sent_at);
        let smoothed = match link.srtt {
            None => sample,
            Some(s) => (s * 7 + sample) / 8,
        };
        // Karn's rule, relaxed in the safe direction: a retransmitted
        // frame's sample is ambiguous, but it is measured from the
        // first transmission and so can only overestimate — let it
        // raise the estimate, never lower it.
        link.srtt = Some(if inf.attempts > 1 {
            match link.srtt {
                Some(s) => s.max(smoothed),
                None => smoothed,
            }
        } else {
            smoothed
        });
    }

    /// Books an ack frame the receiver generated.
    pub fn note_ack_sent(&mut self) {
        self.summary.acks_sent += 1;
    }

    /// Handles a data frame arriving at `dst` from `src`, restoring
    /// per-link FIFO order and suppressing duplicates. A delivered
    /// frame may have filled a gap: the caller then drains the frames
    /// parked behind it with [`Transport::next_parked`] before
    /// receiving anything else on the link.
    pub fn receive(&mut self, src: NodeId, dst: NodeId, seq: u64, body: B) -> Recv<B> {
        let at = self.position_or_new(src, dst);
        let link = &mut self.links[at];
        if seq < link.recv_next || link.recv_buf.contains_key(&seq) {
            self.summary.dup_frames_suppressed += 1;
            return Recv::Duplicate;
        }
        if seq != link.recv_next {
            link.recv_buf.insert(seq, body);
            self.summary.buffered_out_of_order += 1;
            return Recv::Buffered;
        }
        link.recv_next += 1;
        Recv::Deliver(body)
    }

    /// The next frame parked on (src, dst) whose turn has come, now
    /// delivered; `None` once the link's next in order has not arrived.
    pub fn next_parked(&mut self, src: NodeId, dst: NodeId) -> Option<B> {
        let at = self.position(src, dst)?;
        let link = &mut self.links[at];
        let body = link.recv_buf.remove(&link.recv_next)?;
        link.recv_next += 1;
        Some(body)
    }

    /// Frames currently awaiting acknowledgement across all links.
    pub fn inflight_frames(&self) -> usize {
        let live = |l: &LinkState<B>| l.inflight.iter().flatten().count();
        self.links.iter().map(live).sum()
    }

    /// The cumulative per-run tallies.
    pub fn summary(&self) -> TransportSummary {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{LockId, RemoteWaiter};
    use rsdsm_protocol::VectorClock;

    fn body(tag: u32) -> MsgBody {
        MsgBody::LockRequest {
            lock: LockId(tag),
            waiter: RemoteWaiter {
                node: 0,
                vc: VectorClock::new(2),
            },
        }
    }

    fn cfg() -> TransportConfig {
        TransportConfig {
            initial_rto: SimDuration::from_millis(1),
            max_rto: SimDuration::from_millis(4),
            max_retries: 2,
        }
    }

    #[test]
    fn sequences_are_per_directed_link() {
        let mut t = Transport::new(cfg());
        let t0 = SimTime::ZERO;
        assert_eq!(t.register(0, 1, body(0), t0).0, 0);
        assert_eq!(t.register(0, 1, body(1), t0).0, 1);
        assert_eq!(
            t.register(1, 0, body(2), t0).0,
            0,
            "reverse link independent"
        );
        assert_eq!(t.register(0, 2, body(3), t0).0, 0, "other link independent");
        assert_eq!(t.inflight_frames(), 4);
    }

    fn tag(body: &MsgBody) -> u32 {
        match body {
            MsgBody::LockRequest { lock, .. } => lock.0,
            _ => unreachable!(),
        }
    }

    #[test]
    fn in_order_frames_deliver_immediately() {
        let mut t = Transport::new(cfg());
        assert!(matches!(t.receive(0, 1, 0, body(0)), Recv::Deliver(b) if tag(&b) == 0));
        assert!(t.next_parked(0, 1).is_none(), "nothing parked");
        assert!(matches!(t.receive(0, 1, 1, body(1)), Recv::Deliver(b) if tag(&b) == 1));
    }

    #[test]
    fn reordered_frames_are_buffered_and_released_in_order() {
        let mut t = Transport::new(cfg());
        assert!(matches!(t.receive(0, 1, 2, body(2)), Recv::Buffered));
        assert!(matches!(t.receive(0, 1, 1, body(1)), Recv::Buffered));
        assert!(t.next_parked(0, 1).is_none(), "the gap is still open");
        match t.receive(0, 1, 0, body(0)) {
            Recv::Deliver(first) => {
                let parked = std::iter::from_fn(|| t.next_parked(0, 1));
                let tags: Vec<_> = std::iter::once(first)
                    .chain(parked)
                    .map(|b| tag(&b))
                    .collect();
                assert_eq!(tags, vec![0, 1, 2], "gap fill releases the full run");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(t.summary().buffered_out_of_order, 2);
        assert!(matches!(t.receive(0, 1, 2, body(2)), Recv::Duplicate));
    }

    #[test]
    fn duplicates_are_suppressed_everywhere() {
        let mut t = Transport::new(cfg());
        assert!(matches!(t.receive(0, 1, 0, body(0)), Recv::Deliver(_)));
        assert!(matches!(t.receive(0, 1, 0, body(0)), Recv::Duplicate));
        assert!(matches!(t.receive(0, 1, 2, body(2)), Recv::Buffered));
        assert!(matches!(t.receive(0, 1, 2, body(2)), Recv::Duplicate));
        assert_eq!(t.summary().dup_frames_suppressed, 2);
    }

    #[test]
    fn ack_cancels_retry_and_timer_is_lazily_discarded() {
        let mut t = Transport::new(cfg());
        let (seq, _) = t.register(0, 1, body(0), SimTime::ZERO);
        t.on_ack(0, 1, seq, SimTime::from_micros(500));
        assert_eq!(t.inflight_frames(), 0);
        assert!(matches!(t.on_timeout(0, 1, seq), TimeoutAction::Cancelled));
        assert_eq!(t.summary().spurious_timeouts, 1);
        // A duplicate ack (retransmit raced the first ack) is a no-op.
        t.on_ack(0, 1, seq, SimTime::from_micros(600));
    }

    #[test]
    fn backoff_doubles_then_caps_then_exhausts() {
        let mut t = Transport::new(cfg());
        let (seq, rto0) = t.register(0, 1, body(0), SimTime::ZERO);
        assert_eq!(rto0, SimDuration::from_millis(1));
        let TimeoutAction::Retransmit { rto, .. } = t.on_timeout(0, 1, seq) else {
            panic!("expected retransmit");
        };
        assert_eq!(rto, SimDuration::from_millis(2));
        let TimeoutAction::Retransmit { rto, .. } = t.on_timeout(0, 1, seq) else {
            panic!("expected retransmit");
        };
        assert_eq!(rto, SimDuration::from_millis(4), "capped at max_rto");
        let TimeoutAction::Exhausted { attempts } = t.on_timeout(0, 1, seq) else {
            panic!("expected exhaustion after max_retries retransmissions");
        };
        assert_eq!(attempts, 3);
        assert_eq!(t.summary().retransmissions, 2);
        assert_eq!(t.summary().max_attempts, 3);
    }

    #[test]
    fn rtt_estimate_raises_timeouts_on_slow_links() {
        let mut t = Transport::new(cfg());
        // A clean (unretransmitted) ack 100 ms after the send: the
        // link is slow but lossless, so both the fresh-frame timeout
        // and the backoff ceiling must stretch well past max_rto.
        let (seq, _) = t.register(0, 1, body(0), SimTime::ZERO);
        t.on_ack(0, 1, seq, SimTime::from_millis(100));
        let (seq, rto) = t.register(0, 1, body(1), SimTime::from_millis(100));
        assert_eq!(rto, SimDuration::from_millis(200), "2 x srtt");
        let TimeoutAction::Retransmit { rto, .. } = t.on_timeout(0, 1, seq) else {
            panic!("expected retransmit");
        };
        assert_eq!(
            rto,
            SimDuration::from_millis(200),
            "backoff ceiling follows the measured RTT, not max_rto"
        );
    }

    #[test]
    fn retransmitted_samples_raise_but_never_lower_the_estimate() {
        let mut t = Transport::new(cfg());
        // Establish srtt = 100 ms from a clean sample.
        let (seq, _) = t.register(0, 1, body(0), SimTime::ZERO);
        t.on_ack(0, 1, seq, SimTime::from_millis(100));
        // A retransmitted frame acked quickly must not drag the
        // estimate down (the ack may answer the first transmission).
        let (seq, _) = t.register(0, 1, body(1), SimTime::from_millis(100));
        assert!(matches!(
            t.on_timeout(0, 1, seq),
            TimeoutAction::Retransmit { .. }
        ));
        t.on_ack(0, 1, seq, SimTime::from_millis(101));
        let (_, rto) = t.register(0, 1, body(2), SimTime::from_millis(101));
        assert_eq!(
            rto,
            SimDuration::from_millis(200),
            "estimate held at 100 ms"
        );
        // But a retransmitted frame acked *late* may raise it: the
        // first-transmission timestamp only overestimates.
        let (seq, _) = t.register(0, 1, body(3), SimTime::from_millis(101));
        assert!(matches!(
            t.on_timeout(0, 1, seq),
            TimeoutAction::Retransmit { .. }
        ));
        t.on_ack(0, 1, seq, SimTime::from_millis(1101));
        let (_, rto) = t.register(0, 1, body(4), SimTime::from_millis(1101));
        assert!(
            rto > SimDuration::from_millis(200),
            "late ambiguous sample raised the estimate (rto = {rto})"
        );
    }
}

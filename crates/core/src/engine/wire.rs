//! The wire: the network model, the reliable transport, and the path
//! of a protocol message from [`Core::post`] to [`Core::dispatch`].
//!
//! Invariant: every frame enters the network through
//! [`Core::put_on_wire`] — one `net.send`, one `MsgSend` trace record,
//! one arrival event per delivered copy — and every non-droppable
//! message is delivered to its handler exactly once, in per-link FIFO
//! order, or the run ends in [`SimError::Transport`].

use std::sync::Arc;

use rsdsm_simnet::{FaultStats, Network, NodeId, Reliability, SimDuration, SimTime};

use super::{Core, Event};
use crate::accounting::Category;
use crate::config::{DsmConfig, MANAGER};
use crate::msg::MsgBody;
use crate::report::{NetSummary, SimError};
use crate::trace::{TraceEvent, NO_CAUSE, NO_THREAD};
use crate::transport::{
    Frame, Packet, Recv, TimeoutAction, Transport, TransportSummary, ACK_BYTES,
};

/// The network and the transport state riding on it.
pub(super) struct Wire {
    net: Network,
    transport: Transport<Arc<MsgBody>>,
}

impl Wire {
    /// A quiet network for `cfg`'s cluster with its fault plan armed.
    pub(super) fn new(cfg: &DsmConfig) -> Self {
        let mut net = Network::new(cfg.nodes, cfg.net.clone());
        net.set_fault_plan(cfg.faults.clone());
        Wire {
            net,
            transport: Transport::new(cfg.transport.clone()),
        }
    }

    /// Kills or revives `node`'s NIC (crash / restart).
    pub(super) fn set_node_down(&mut self, node: NodeId, down: bool) {
        self.net.set_node_down(node, down);
    }

    /// Counts `frame` as dropped at a dead NIC.
    pub(super) fn note_crash_drop(&mut self, frame: &Frame) {
        self.net.note_crash_drop(frame.class().label());
    }

    /// The run's network, transport and fault-injection totals.
    pub(super) fn summaries(&self) -> (NetSummary, TransportSummary, FaultStats) {
        (
            NetSummary::from_stats(self.net.stats()),
            self.transport.summary(),
            self.net.fault_stats(),
        )
    }
}

impl Core<'_> {
    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Puts one frame on the wire at `at`: the single place the engine
    /// calls the network model. Size, reliability class and labels
    /// follow from the frame (datagrams and heartbeats are droppable;
    /// data and acks are not, though the fault plan may still lose
    /// them). Emits the `MsgSend` record — linked to the frame's first
    /// transmission when `retransmit` — and queues an arrival for the
    /// delivered copy and for a fault-plan duplicate. Returns the
    /// record's id and whether the frame was delivered. Charges
    /// nothing: callers own the CPU cost of their sends.
    fn put_on_wire(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        frame: Frame,
        retransmit: bool,
    ) -> (u64, bool) {
        self.note_sent(src, dst, at);
        let (bytes, reliability) = match &frame {
            Frame::Datagram { body } => (body.wire_bytes() as u32, Reliability::Droppable),
            Frame::Data { body, .. } => (body.wire_bytes() as u32, Reliability::Reliable),
            Frame::Ack { .. } => (ACK_BYTES, Reliability::Reliable),
            Frame::Heartbeat => (ACK_BYTES, Reliability::Droppable),
        };
        let class = frame.class();
        let outcome = self
            .wire
            .net
            .send(at, src, dst, bytes, reliability, class.label());
        let seq = frame.seq();
        let cause = if retransmit {
            self.tracer.first_send(src as u32, dst as u32, seq)
        } else {
            NO_CAUSE
        };
        let send_id = self.tracer.emit(
            at,
            src as u32,
            NO_THREAD,
            cause,
            TraceEvent::MsgSend {
                kind: class.code(),
                peer: dst as u32,
                seq,
                bytes,
                retransmit,
            },
        );
        for arrival in outcome.arrival_time().into_iter().chain(outcome.dup_time()) {
            self.sched.push(
                arrival,
                Event::Arrival(Packet {
                    src,
                    dst,
                    frame: frame.clone(),
                    cause: send_id,
                }),
            );
        }
        (send_id, outcome.arrival_time().is_some())
    }

    /// Sends a protocol message; returns false if the network dropped
    /// it. Only droppable (prefetch) traffic can be dropped: it
    /// travels as fire-and-forget datagrams. Everything else rides
    /// the reliable transport — sequenced, acknowledged, and
    /// retransmitted until delivered (or the retry budget aborts the
    /// run).
    pub(super) fn post(&mut self, at: SimTime, src: NodeId, dst: NodeId, body: MsgBody) -> bool {
        // One allocation per logical message: the transport's
        // retransmit buffer, every wire frame (including fault-plan
        // duplicates), and the receive path all share this Arc.
        let body = Arc::new(body);
        if body.droppable(&self.cfg.prefetch) {
            self.put_on_wire(at, src, dst, Frame::Datagram { body }, false)
                .1
        } else {
            let (seq, rto) = self.wire.transport.register(src, dst, body.clone(), at);
            self.transmit_data(at, src, dst, seq, body, rto, false);
            true
        }
    }

    /// Puts one sequenced data frame on the wire and arms its retry
    /// timer. The caller has already charged the send cost. The frame
    /// itself may still be lost or duplicated by the fault plan; the
    /// timer covers the loss case and the receiver's transport
    /// suppresses the duplicate case.
    #[allow(clippy::too_many_arguments)]
    fn transmit_data(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        body: Arc<MsgBody>,
        rto: SimDuration,
        retransmit: bool,
    ) {
        let (send_id, _) = self.put_on_wire(at, src, dst, Frame::Data { seq, body }, retransmit);
        if !retransmit {
            self.tracer
                .note_first_send(src as u32, dst as u32, seq, send_id);
        }
        self.sched
            .push(at + rto, Event::RetryTimeout { src, dst, seq });
    }

    /// Acknowledges data frame `seq` from `src`, received at `n`.
    ///
    /// The ack enters the network `ack_process` after `at`, bypassing
    /// the node's CPU queue (kernel-level processing); the CPU cost is
    /// still booked against the node's account. Acks are single-shot:
    /// a lost ack provokes a retransmission, which provokes a fresh
    /// ack. The fault plan may still drop or duplicate them (class
    /// `Ack`).
    fn send_ack(&mut self, n: NodeId, src: NodeId, seq: u64, at: SimTime) {
        self.charge(
            n,
            at,
            self.cfg.costs.ack_process,
            Category::DsmOverhead,
            None,
        );
        self.wire.transport.note_ack_sent();
        let end = at + self.cfg.costs.ack_process;
        self.put_on_wire(end, n, src, Frame::Ack { seq }, false);
    }

    /// Sends an explicit heartbeat on an idle link (the failure
    /// detector's tick decides which links are idle).
    pub(super) fn send_heartbeat(&mut self, n: NodeId, peer: NodeId, now: SimTime) {
        self.charge(
            n,
            now,
            self.cfg.costs.ack_process,
            Category::DsmOverhead,
            None,
        );
        self.put_on_wire(now, n, peer, Frame::Heartbeat, false);
    }

    /// Resets a parked frame's retry budget and fires its timer now
    /// (its peer rejoined, or the suspicion proved false). A frame
    /// acked in the meantime is left alone.
    pub(super) fn rearm_frame(&mut self, src: NodeId, dst: NodeId, seq: u64, now: SimTime) {
        if self.wire.transport.reset_frame(src, dst, seq).is_some() {
            self.sched.push(now, Event::RetryTimeout { src, dst, seq });
        }
    }

    /// Handles a fired retransmission timer: lazily discards it if the
    /// frame was acked, otherwise charges a fresh send and puts the
    /// frame back on the wire with its backed-off timeout.
    pub(super) fn on_retry_timeout(
        &mut self,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        now: SimTime,
    ) -> Result<(), SimError> {
        match self.wire.transport.on_timeout(src, dst, seq) {
            TimeoutAction::Cancelled => Ok(()),
            TimeoutAction::Exhausted { attempts } => {
                // Without a failure detector this is fatal, as it
                // always was. The manager is unrecoverable either way:
                // it hosts the coordination state recovery itself
                // needs. A cut severing the path to it is the one
                // exception — the frame parks and re-arms at the heal.
                if self.detector_mut().is_none()
                    || (dst == MANAGER && !self.wire.net.link_cut(now, src, dst))
                {
                    return Err(SimError::Transport(format!(
                        "frame n{src}->n{dst} seq {seq} unacknowledged after {attempts} transmissions (gave up at {now})"
                    )));
                }
                self.park_frame(src, dst, seq, now);
                Ok(())
            }
            TimeoutAction::Retransmit { body, rto } => {
                let idle = self.idle_reason(src);
                let end = self.charge(
                    src,
                    now,
                    self.cfg.costs.msg_send,
                    Category::DsmOverhead,
                    idle,
                );
                self.tracer.emit(
                    now,
                    src as u32,
                    NO_THREAD,
                    self.tracer.first_send(src as u32, dst as u32, seq),
                    TraceEvent::TransportRetry {
                        peer: dst as u32,
                        seq,
                        rto_ns: rto.as_nanos(),
                    },
                );
                self.transmit_data(end, src, dst, seq, body, rto, true);
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /// Handles a wire-level frame arrival: datagrams dispatch
    /// directly; data frames are acked, deduplicated, and reordered
    /// back into per-link FIFO order by the transport before their
    /// messages dispatch; acks settle the sender's retry state.
    pub(super) fn on_arrival(&mut self, pkt: Packet, now: SimTime) -> Result<(), SimError> {
        let n = pkt.dst;
        // Every frame is an implicit heartbeat: hearing anything from
        // the peer refreshes its lease.
        self.note_heard(n, pkt.src, now);
        if self.tracer.is_on() {
            let id = self.tracer.emit(
                now,
                n as u32,
                NO_THREAD,
                pkt.cause,
                TraceEvent::MsgRecv {
                    kind: pkt.frame.class().code(),
                    peer: pkt.src as u32,
                    seq: pkt.frame.seq(),
                },
            );
            // Everything this frame triggers inherits it as cause.
            self.tracer.set_current(id);
        }
        match pkt.frame {
            Frame::Heartbeat | Frame::Ack { .. } => {
                let idle = self.idle_reason(n);
                self.charge(
                    n,
                    now,
                    self.cfg.costs.ack_process,
                    Category::DsmOverhead,
                    idle,
                );
                if let Frame::Ack { seq } = pkt.frame {
                    self.wire.transport.on_ack(n, pkt.src, seq, now);
                    self.tracer.forget_send(n as u32, pkt.src as u32, seq);
                }
                Ok(())
            }
            Frame::Datagram { body } => {
                let end = self.charge_recv(n, now);
                self.dispatch(pkt.src, n, &body, end)
            }
            Frame::Data { seq, body } => {
                // Ack every data frame, duplicates included: a
                // retransmission usually means the previous ack was
                // lost, and only a fresh ack stops the retries. The
                // ack leaves at wire-arrival time, not after the DSM
                // layer absorbs the message: acknowledgements are
                // kernel-level work, and on a busy multithreaded node
                // the application CPU can be seconds behind — a delay
                // the sender must not mistake for loss.
                self.send_ack(n, pkt.src, seq, now);
                let end = self.charge_recv(n, now);
                match self.wire.transport.receive(pkt.src, n, seq, body) {
                    Recv::Deliver(body) => {
                        self.dispatch(pkt.src, n, &body, end)?;
                        while let Some(body) = self.wire.transport.next_parked(pkt.src, n) {
                            self.dispatch(pkt.src, n, &body, end)?;
                        }
                        Ok(())
                    }
                    Recv::Buffered | Recv::Duplicate => Ok(()),
                }
            }
        }
    }

    /// Charges the software receive overhead for one arriving frame.
    fn charge_recv(&mut self, n: NodeId, now: SimTime) -> SimTime {
        let idle = self.idle_reason(n);
        let mut recv = self.cfg.costs.msg_recv;
        if self.cfg.threads.is_multithreaded() {
            // All arrivals are handled asynchronously (signals) when
            // multithreading is on — the fixed cost of §4.3.
            recv += self.cfg.costs.async_arrival;
        }
        self.charge(n, now, recv, Category::DsmOverhead, idle)
    }

    /// Dispatches one protocol message, sent by `src` to `n`, to its
    /// subsystem's handler. The caller has already charged the receive
    /// overhead; `end` is when the CPU finished absorbing the frame.
    ///
    /// The body is borrowed from the frame it arrived in, which is
    /// never the last reference — the sender's retransmit buffer holds
    /// a reliable body until the ack this very arrival sends — so a
    /// handler clones exactly what it keeps (a waiter's clock, the
    /// payloads a fetch collects), not the whole body with its N-entry
    /// clock.
    fn dispatch(
        &mut self,
        src: NodeId,
        n: NodeId,
        body: &MsgBody,
        end: SimTime,
    ) -> Result<(), SimError> {
        match body {
            MsgBody::DiffRequest(req) => self.serve_diff_request(n, src, req, end),
            MsgBody::DiffReply(reply) => return self.handle_diff_reply(n, reply, end),
            MsgBody::LockRequest { lock, waiter } => {
                self.on_lock_request(n, *lock, waiter.clone(), end)
            }
            MsgBody::LockForward { lock, waiter } => {
                self.on_lock_forward(n, *lock, waiter.clone(), end)
            }
            MsgBody::LockGrant {
                lock,
                intervals,
                vc,
            } => return self.on_lock_grant(n, *lock, intervals, vc, end),
            MsgBody::BarrierArrive {
                id,
                from,
                vc,
                intervals,
            } => return self.on_barrier_arrive(n, *id, *from, vc, intervals, end),
            MsgBody::BarrierRelease { id, vc, intervals } => {
                return self.process_barrier_release(n, *id, vc, intervals, end)
            }
            MsgBody::SuspectReport { suspect } => self.on_suspect_report(n, *suspect, end),
            MsgBody::RecoveryStart { victim, .. } => self.on_recovery_start(n, *victim, end),
        }
        Ok(())
    }
}

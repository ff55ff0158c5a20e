//! The reliable transport against a reference model.
//!
//! `Transport` finds a link through a slot table and keeps a link's
//! unacknowledged frames in a ring that starts at the oldest one. The
//! model below keeps the same state the plain way — one ordered map of
//! links, each with an ordered map of in-flight frames — and random
//! operation sequences must get the same answer from both at every
//! step: every return value, `inflight_frames()` and `summary()`.
//! The sequences mix out-of-order, duplicate, stale and never-sent
//! acks and timers, frames that exhaust their retries and are reset,
//! frames that are never acked at all, and out-of-order receives.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rsdsm_core::{Recv, TimeoutAction, Transport, TransportConfig, TransportSummary};
use rsdsm_simnet::{SimDuration, SimTime};

/// Nodes of the modeled cluster; links run between any two of them.
const NODES: u8 = 3;

fn cfg() -> TransportConfig {
    TransportConfig {
        initial_rto: SimDuration::from_micros(300),
        max_rto: SimDuration::from_millis(2),
        // Small, so frames exhaust and get reset within a sequence.
        max_retries: 2,
    }
}

/// A frame the model's sender still holds.
#[derive(Debug, Clone)]
struct Frame {
    body: u64,
    attempts: u32,
    rto: SimDuration,
    sent_at: SimTime,
}

/// One directed link of the model.
#[derive(Debug, Default)]
struct Link {
    next_seq: u64,
    inflight: BTreeMap<u64, Frame>,
    srtt: Option<SimDuration>,
    recv_next: u64,
    recv_buf: BTreeMap<u64, u64>,
}

impl Link {
    fn base_rto(&self, cfg: &TransportConfig) -> SimDuration {
        self.srtt
            .map_or(cfg.initial_rto, |s| cfg.initial_rto.max(s * 2))
    }
}

/// What either side answered, in one comparable shape.
#[derive(Debug, PartialEq, Eq)]
enum Answer {
    Registered(u64, SimDuration),
    Cancelled,
    Retransmit(u64, SimDuration),
    Exhausted(u32),
    Reset(Option<SimDuration>),
    Acked,
    Deliver(u64),
    Buffered,
    Duplicate,
    Parked(Option<u64>),
}

impl From<TimeoutAction<u64>> for Answer {
    fn from(action: TimeoutAction<u64>) -> Answer {
        match action {
            TimeoutAction::Cancelled => Answer::Cancelled,
            TimeoutAction::Retransmit { body, rto } => Answer::Retransmit(body, rto),
            TimeoutAction::Exhausted { attempts } => Answer::Exhausted(attempts),
        }
    }
}

impl From<Recv<u64>> for Answer {
    fn from(recv: Recv<u64>) -> Answer {
        match recv {
            Recv::Deliver(body) => Answer::Deliver(body),
            Recv::Buffered => Answer::Buffered,
            Recv::Duplicate => Answer::Duplicate,
        }
    }
}

/// The reference: the transport's rules over ordered maps.
#[derive(Debug)]
struct Model {
    cfg: TransportConfig,
    links: BTreeMap<(usize, usize), Link>,
    summary: TransportSummary,
}

impl Model {
    fn register(&mut self, src: usize, dst: usize, body: u64, now: SimTime) -> Answer {
        let link = self.links.entry((src, dst)).or_default();
        let seq = link.next_seq;
        link.next_seq += 1;
        let rto = link.base_rto(&self.cfg);
        let frame = Frame {
            body,
            attempts: 1,
            rto,
            sent_at: now,
        };
        link.inflight.insert(seq, frame);
        self.summary.data_frames += 1;
        self.summary.max_attempts = self.summary.max_attempts.max(1);
        Answer::Registered(seq, rto)
    }

    fn on_timeout(&mut self, src: usize, dst: usize, seq: u64) -> Answer {
        let Some(link) = self.links.get_mut(&(src, dst)) else {
            return Answer::Cancelled;
        };
        let cap = link
            .srtt
            .map_or(self.cfg.max_rto, |s| self.cfg.max_rto.max(s * 2));
        let Some(frame) = link.inflight.get_mut(&seq) else {
            self.summary.spurious_timeouts += 1;
            return Answer::Cancelled;
        };
        if frame.attempts > self.cfg.max_retries {
            return Answer::Exhausted(frame.attempts);
        }
        frame.attempts += 1;
        frame.rto = (frame.rto * 2).min(cap);
        self.summary.retransmissions += 1;
        self.summary.max_attempts = self.summary.max_attempts.max(frame.attempts);
        Answer::Retransmit(frame.body, frame.rto)
    }

    fn reset_frame(&mut self, src: usize, dst: usize, seq: u64) -> Answer {
        let reset = self.links.get_mut(&(src, dst)).and_then(|link| {
            let rto = link.base_rto(&self.cfg);
            let frame = link.inflight.get_mut(&seq)?;
            frame.attempts = 1;
            frame.rto = rto;
            Some(rto)
        });
        Answer::Reset(reset)
    }

    fn on_ack(&mut self, src: usize, dst: usize, seq: u64, now: SimTime) -> Answer {
        let Some(link) = self.links.get_mut(&(src, dst)) else {
            return Answer::Acked;
        };
        let Some(frame) = link.inflight.remove(&seq) else {
            return Answer::Acked;
        };
        let sample = now.saturating_since(frame.sent_at);
        let smoothed = link.srtt.map_or(sample, |s| (s * 7 + sample) / 8);
        link.srtt = Some(match link.srtt {
            Some(s) if frame.attempts > 1 => s.max(smoothed),
            _ => smoothed,
        });
        Answer::Acked
    }

    fn receive(&mut self, src: usize, dst: usize, seq: u64, body: u64) -> Answer {
        let link = self.links.entry((src, dst)).or_default();
        if seq < link.recv_next || link.recv_buf.contains_key(&seq) {
            self.summary.dup_frames_suppressed += 1;
            return Answer::Duplicate;
        }
        if seq != link.recv_next {
            link.recv_buf.insert(seq, body);
            self.summary.buffered_out_of_order += 1;
            return Answer::Buffered;
        }
        link.recv_next += 1;
        Answer::Deliver(body)
    }

    fn next_parked(&mut self, src: usize, dst: usize) -> Answer {
        let parked = self.links.get_mut(&(src, dst)).and_then(|link| {
            let body = link.recv_buf.remove(&link.recv_next)?;
            link.recv_next += 1;
            Some(body)
        });
        Answer::Parked(parked)
    }

    fn inflight_frames(&self) -> usize {
        self.links.values().map(|l| l.inflight.len()).sum()
    }

    /// A sequence number on the sender's side of (src, dst), drawn
    /// from every frame sent so far plus two never sent.
    fn sent_seq(&self, src: usize, dst: usize, draw: u8) -> u64 {
        let sent = self.links.get(&(src, dst)).map_or(0, |l| l.next_seq);
        u64::from(draw) % (sent + 2)
    }

    /// A sequence number on the receiver's side of (src, dst): a few
    /// below the next in order (duplicates) to a few above (gaps).
    fn arriving_seq(&self, src: usize, dst: usize, draw: u8) -> u64 {
        let next = self.links.get(&(src, dst)).map_or(0, |l| l.recv_next);
        next.saturating_sub(2) + u64::from(draw % 7)
    }
}

/// Runs one operation sequence through both and compares each step.
fn run(ops: &[(u8, u8, u8, u8, u8)]) {
    let mut transport: Transport<u64> = Transport::new(cfg());
    let mut model = Model {
        cfg: cfg(),
        links: BTreeMap::new(),
        summary: TransportSummary::default(),
    };
    let mut now = SimTime::ZERO;
    for (step, &(op, src, dst, draw, dt)) in ops.iter().enumerate() {
        now += SimDuration::from_micros(u64::from(dt) * 10);
        let (src, dst) = (usize::from(src % NODES), usize::from(dst % NODES));
        let body = step as u64;
        let (got, want) = match op % 8 {
            // Sends are the most common act, so rings fill up.
            0 | 1 => {
                let (seq, rto) = transport.register(src, dst, body, now);
                (
                    Answer::Registered(seq, rto),
                    model.register(src, dst, body, now),
                )
            }
            2 => {
                let seq = model.sent_seq(src, dst, draw);
                transport.on_ack(src, dst, seq, now);
                (Answer::Acked, model.on_ack(src, dst, seq, now))
            }
            3 => {
                let seq = model.sent_seq(src, dst, draw);
                (
                    transport.on_timeout(src, dst, seq).into(),
                    model.on_timeout(src, dst, seq),
                )
            }
            4 => {
                let seq = model.sent_seq(src, dst, draw);
                (
                    Answer::Reset(transport.reset_frame(src, dst, seq)),
                    model.reset_frame(src, dst, seq),
                )
            }
            5 | 6 => {
                let seq = model.arriving_seq(src, dst, draw);
                (
                    transport.receive(src, dst, seq, body).into(),
                    model.receive(src, dst, seq, body),
                )
            }
            _ => (
                Answer::Parked(transport.next_parked(src, dst)),
                model.next_parked(src, dst),
            ),
        };
        assert_eq!(got, want, "step {step}: op {op} on ({src}, {dst})");
        assert_eq!(
            transport.inflight_frames(),
            model.inflight_frames(),
            "step {step}: frames in flight"
        );
        assert_eq!(transport.summary(), model.summary, "step {step}: summary");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    #[test]
    fn transport_agrees_with_its_reference_model(
        ops in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..400,
        ),
    ) {
        run(&ops);
    }
}

/// A frame left unacked holds its link's ring open while 40 frames
/// behind it are sent, acked ahead of it and timed out stale; its own
/// timer keeps answering, exhausting and being reset, and its ack at
/// last empties the ring.
#[test]
fn a_never_acked_frame_holds_the_ring_open() {
    let mut ops = vec![(0, 0, 1, 0, 1)];
    for i in 1..=40u8 {
        ops.push((0, 0, 1, 0, 1)); // send frame i
        ops.push((2, 0, 1, i, 1)); // ack it
        ops.push((3, 0, 1, i, 1)); // its timer fires stale
        ops.push((3, 0, 1, 0, 1)); // frame 0's fires for real
        ops.push((4, 0, 1, 0, 1)); // and is reset once exhausted
    }
    ops.push((2, 0, 1, 0, 1));
    run(&ops);
}

//! Exactly-once, in-order delivery of the reliable transport under
//! adversarial wire schedules.
//!
//! The fault plans in this crate can drop, duplicate, and reorder
//! anything on the wire; the reliable transport in `rsdsm-core` must
//! turn that into per-link FIFO exactly-once delivery or the LRC
//! protocol above it silently corrupts. These property tests drive the
//! transport state machine (generic over its payload, so a bare `u64`
//! tag works) through arbitrary schedules of drops, duplications, and
//! reorderings, and assert the gold-standard postcondition: the
//! receiver observes exactly the sequence `0, 1, 2, …, n-1`, each tag
//! once, in order, with no frames left unacknowledged.

use proptest::prelude::*;
use rsdsm_core::{Recv, TimeoutAction, Transport, TransportConfig};
use rsdsm_simnet::{SimDuration, SimTime};

/// One adversarial act against the frame currently chosen from the
/// wire. Values are drawn as `u8` and folded via `% 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Hand the frame to the receiver.
    Deliver,
    /// Drop it (the sender's retry timer will resupply it).
    Drop,
    /// Deliver it but leave a copy on the wire.
    Duplicate,
    /// Move it to the back of the wire queue.
    Reorder,
}

impl Op {
    fn from_draw(d: u8) -> Op {
        match d % 4 {
            0 => Op::Deliver,
            1 => Op::Drop,
            2 => Op::Duplicate,
            _ => Op::Reorder,
        }
    }
}

fn cfg() -> TransportConfig {
    TransportConfig {
        initial_rto: SimDuration::from_millis(1),
        max_rto: SimDuration::from_millis(8),
        // Effectively unbounded: the schedule may drop the same frame
        // many times and exhaustion is not what is under test.
        max_retries: 100_000,
    }
}

/// Runs `n` tagged messages from node 0 to node 1 through an
/// adversarial wire schedule and asserts exactly-once in-order
/// delivery.
fn run_schedule(n: usize, schedule: &[(u8, u8)]) {
    let mut t: Transport<u64> = Transport::new(cfg());
    let now = SimTime::ZERO;

    // The wire: frames currently in flight, as (seq, tag) pairs.
    let mut wire: Vec<(u64, u64)> = Vec::new();
    for tag in 0..n as u64 {
        let (seq, _rto) = t.register(0, 1, tag, now);
        wire.push((seq, tag));
    }

    let mut delivered: Vec<u64> = Vec::new();
    let deliver = |t: &mut Transport<u64>, seq: u64, tag: u64, delivered: &mut Vec<u64>| {
        // The receiver acks every data frame it sees, duplicates
        // included (the previous ack may have been lost).
        t.note_ack_sent();
        if let Recv::Deliver(tag) = t.receive(0, 1, seq, tag) {
            delivered.push(tag);
            delivered.extend(std::iter::from_fn(|| t.next_parked(0, 1)));
        }
        // The ack travels back faultlessly here; ack loss is
        // equivalent to a later Drop of the retransmitted frame, which
        // the schedule already exercises.
        t.on_ack(0, 1, seq, now);
    };

    for &(pick, op) in schedule {
        if wire.is_empty() {
            break;
        }
        let i = pick as usize % wire.len();
        let (seq, tag) = wire[i];
        match Op::from_draw(op) {
            Op::Deliver => {
                wire.remove(i);
                deliver(&mut t, seq, tag, &mut delivered);
            }
            Op::Drop => {
                wire.remove(i);
                // The retry timer eventually fires and resupplies the
                // frame — unless it was already acked (a duplicate got
                // through), in which case the timer is stale.
                match t.on_timeout(0, 1, seq) {
                    TimeoutAction::Retransmit { body, .. } => wire.push((seq, body)),
                    TimeoutAction::Cancelled => {}
                    TimeoutAction::Exhausted { attempts } => {
                        panic!("retry budget exhausted after {attempts} attempts")
                    }
                }
            }
            Op::Duplicate => {
                deliver(&mut t, seq, tag, &mut delivered);
            }
            Op::Reorder => {
                let f = wire.remove(i);
                wire.push(f);
            }
        }
    }

    // Drain whatever the schedule left on the wire, oldest first.
    while let Some((seq, tag)) = wire.pop() {
        deliver(&mut t, seq, tag, &mut delivered);
    }

    assert_eq!(
        delivered,
        (0..n as u64).collect::<Vec<_>>(),
        "receiver must observe every tag exactly once, in order"
    );
    assert_eq!(t.inflight_frames(), 0, "every frame must end acknowledged");
    let s = t.summary();
    assert_eq!(s.data_frames, n as u64);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn delivers_in_order_exactly_once_under_arbitrary_schedules(
        n in 1usize..=24,
        schedule in prop::collection::vec((any::<u8>(), any::<u8>()), 0..200),
    ) {
        run_schedule(n, &schedule);
    }
}

/// A burst that arrives back to front parks every frame but the
/// first; the first fills the gap and the rest drain, in order, one
/// `next_parked` at a time — with duplicates of parked and of drained
/// frames suppressed on the way.
#[test]
fn an_out_of_order_burst_drains_in_order() {
    const BURST: u64 = 64;
    let mut t: Transport<u64> = Transport::new(cfg());
    for tag in 0..BURST {
        t.register(0, 1, tag, SimTime::ZERO);
    }
    for seq in (1..BURST).rev() {
        assert!(matches!(t.receive(0, 1, seq, seq), Recv::Buffered));
        assert!(t.next_parked(0, 1).is_none(), "the gap at 0 holds them");
    }
    assert!(matches!(t.receive(0, 1, 7, 7), Recv::Duplicate));
    let Recv::Deliver(first) = t.receive(0, 1, 0, 0) else {
        panic!("the gap-filling frame is delivered");
    };
    let mut delivered = vec![first];
    delivered.extend(std::iter::from_fn(|| t.next_parked(0, 1)));
    assert_eq!(delivered, (0..BURST).collect::<Vec<_>>());
    assert!(matches!(t.receive(0, 1, 7, 7), Recv::Duplicate));
    let s = t.summary();
    assert_eq!(s.buffered_out_of_order, BURST - 1);
    assert_eq!(s.dup_frames_suppressed, 2);
}

/// Directed worst cases the random schedules may undersample.
#[test]
fn pathological_schedules() {
    // Everything dropped once before any delivery.
    let drop_all: Vec<(u8, u8)> = (0..32).map(|i| (i, 1)).collect();
    run_schedule(8, &drop_all);

    // Every frame duplicated, then delivered via the drain.
    let dup_all: Vec<(u8, u8)> = (0..32).map(|i| (i, 2)).collect();
    run_schedule(8, &dup_all);

    // Constant head-of-line reordering.
    let churn: Vec<(u8, u8)> = (0..64)
        .map(|i| (0, if i % 2 == 0 { 3 } else { 0 }))
        .collect();
    run_schedule(8, &churn);

    // Empty schedule: the drain alone must deliver in order even
    // though it pops the wire back-to-front.
    run_schedule(8, &[]);
}

//! Pinned rows for the fault-injection and reliable-transport stack
//! (DESIGN §8): RADIX under uniform loss, every transport and fault
//! counter, the summary line and the traced retry schedule pinned.
//!
//! The simulation is deterministic for a (seed, config), so these
//! values reproduce on every machine. Treat a moved pin as a
//! determinism bug first, and re-pin only by DESIGN §8's rule. The
//! tests below pin one run's views each; it runs once, and once more
//! for the repeat.

#[macro_use]
mod cells;
mod common;

use cells::{faulty, Row};
use rsdsm::apps::Benchmark::Radix;
use rsdsm::simnet::FaultPlan;

/// RADIX under 20 % loss, held to `pins`.
fn lossy_radix(name: &str, pins: &'static str) -> Row {
    let plan = FaultPlan::uniform_loss(0xFA11, 0.20);
    Row {
        pins,
        ..Row::app(name, Radix, faulty(plan))
    }
}

#[test]
fn transport_and_fault_counters_are_pinned() {
    let name = "transport_and_fault_counters_are_pinned";
    let pins = "
        transport: data_frames: 144, retransmissions: 90, acks_sent: 183, \
          dup_frames_suppressed: 39, buffered_out_of_order: 9, spurious_timeouts: 130, \
          max_attempts: 6
        faults: injected_drops: 94";
    lossy_radix(name, pins).check()
}

#[test]
fn fault_summary_line_is_pinned() {
    let pins = "
        summary: faults: 94 msgs dropped, 0 duplicated, 0 reordered; \
          transport: 90 retransmissions (max 6 attempts/frame), \
          39 duplicate frames suppressed; prefetch: 0 requests lost, 0 replies lost";
    lossy_radix("fault_summary_line_is_pinned", pins).check()
}

#[test]
fn repeat_runs_are_digest_identical() {
    lossy_radix("repeat_runs_are_digest_identical", "")
        .repeated()
        .check()
}

/// RADIX under 5 % loss, traced: the retry *schedule* — which links
/// retried, how often, when, and the largest RTO armed — not just its
/// totals; every counted retransmission is traced.
#[test]
fn retry_timelines_are_pinned_under_5pct_loss() {
    let name = "retry_timelines_are_pinned_under_5pct_loss";
    let plan = FaultPlan::uniform_loss(0xFA11, 0.05);
    Row {
        traced: true,
        holds: holds!(
            |r, trace| trace.as_ref().map(|t| t.metrics().total_retries())
                == Some(r.transport.retransmissions)
        ),
        pins: "
            trace: 0xc0aafddce7c33c6f, 842 records
            retries: 0->1 3 19619098..25243140 8000000, 0->2 1 19674098..19674098 8000000, \
              0->3 3 11987829..25573140 8000000, 2->0 2 19903322..27958322 16000000, \
              2->1 2 14261840..31403803 8000000, 2->3 1 5487545..5487545 8000000, \
              3->0 2 5288049..15379738 8000000, 3->2 1 14557199..14557199 8000000",
        repeat: true,
        ..Row::app(name, Radix, faulty(plan))
    }
    .check()
}

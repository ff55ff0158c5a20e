//! Pinned rows for crash injection and lease-based recovery (DESIGN
//! §8): RADIX with node 2 crashing at 2 ms, every recovery counter and
//! the summary line pinned.
//!
//! The 1 ms lease is tight against RADIX's bursts, so the crash-stop
//! run also takes the false-suspicion path: congestion delays
//! droppable heartbeats past the lease, live peers get suspected, and
//! the manager's confirmation grace clears them.
//!
//! The simulation is deterministic for a (seed, config), so these
//! values reproduce on every machine. Treat a moved pin as a
//! determinism bug first, and re-pin only by DESIGN §8's rule. The
//! crash-stop tests pin one run's views each; it runs once, and once
//! more for the repeat.

mod cells;
mod common;

use cells::{recovering, Aim, Fault, Row};
use rsdsm::apps::Benchmark::Radix;
use rsdsm::core::TransportConfig;
use rsdsm::simnet::{SimDuration, SimTime};

const TWO_MS: Aim = Aim::At(SimTime::from_millis(2));

const CRASH_STOP_RECOVERY: &str = "
    recovery: crashes: 1, heartbeats_sent: 802, suspicions: 8, false_suspicions: 6, \
      checkpoints_taken: 8, checkpoint_bytes: 210279, recoveries: 1, \
      recovery_time: SimDuration(1777844)";

/// Node 2 crashes at 2 ms for good; a replacement rejoins from its
/// checkpoint. Held to `pins`.
fn crash_stop(name: &str, pins: &'static str) -> Row {
    Row {
        fault: Some((Fault::Crash(None), TWO_MS)),
        pins,
        ..Row::app(name, Radix, recovering())
    }
}

#[test]
fn crash_stop_counters_are_pinned() {
    crash_stop("crash_stop_counters_are_pinned", CRASH_STOP_RECOVERY).check()
}

#[test]
fn fault_summary_line_is_pinned() {
    let pins = "
        summary: faults: 0 msgs dropped, 0 duplicated, 0 reordered; \
          transport: 2 retransmissions (max 2 attempts/frame), \
          1 duplicate frames suppressed; prefetch: 0 requests lost, 0 replies lost; \
          recovery: 1 crashes, 8 suspicions (6 false), 8 checkpoints (210279 bytes), \
          1 recoveries (1777 us down)";
    crash_stop("fault_summary_line_is_pinned", pins).check()
}

#[test]
fn repeat_runs_are_digest_identical() {
    crash_stop("repeat_runs_are_digest_identical", "")
        .repeated()
        .check()
}

/// A 20 ms outage of node 2 under a small retry budget: frames toward
/// it exhaust their retries and park instead of aborting the run, and
/// the outage is the whole downtime.
#[test]
fn crash_restart_parks_and_resumes() {
    let name = "crash_restart_parks_and_resumes";
    let retry_budget = TransportConfig {
        initial_rto: SimDuration::from_millis(1),
        max_retries: 3,
        ..TransportConfig::default()
    };
    let outage = Fault::Crash(Some(SimDuration::from_millis(20)));
    Row {
        fault: Some((outage, TWO_MS)),
        pins: "
            transport: data_frames: 146, retransmissions: 18, acks_sent: 159, \
              dup_frames_suppressed: 13, spurious_timeouts: 133, max_attempts: 4
            recovery: crashes: 1, heartbeats_sent: 1240, suspicions: 8, false_suspicions: 6, \
              frames_parked: 1, checkpoints_taken: 8, checkpoint_bytes: 210279, \
              recoveries: 1, recovery_time: SimDuration(20000000)",
        repeat: true,
        ..Row::app(name, Radix, recovering().with_transport(retry_budget))
    }
    .check()
}

/// The harness compares: a copy of a pinned row with one counter off
/// by one fails, naming the row and the counter.
#[test]
#[should_panic(expected = "a_moved_pin: pinned recovery.heartbeats_sent moved")]
fn a_moved_pin_names_its_row_and_counter() {
    let moved = CRASH_STOP_RECOVERY.replace("sent: 802", "sent: 803");
    crash_stop("a_moved_pin", moved.leak()).check()
}

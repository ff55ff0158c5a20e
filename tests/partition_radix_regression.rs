//! Pinned rows for network partitions (DESIGN §8): RADIX with node 2
//! cut away from 2 ms to 7 ms, both ways or one way, every partition
//! counter and the summary line pinned.
//!
//! Both cuts pin zero crashes and zero recoveries: the detector
//! suspects node 2 (alive but unreachable), and the quorum rule parks
//! those suspicions instead of letting them escalate to a false
//! RecoveryStart — the split-brain guarantee, held as an exact counter.
//!
//! The simulation is deterministic for a (seed, config), so these
//! values reproduce on every machine. Treat a moved pin as a
//! determinism bug first, and re-pin only by DESIGN §8's rule. The
//! tests pin one run's views each; each cut runs once, and once more
//! for the repeat.

mod cells;
mod common;

use cells::{recovering, Aim, Fault, Row};
use rsdsm::apps::Benchmark::Radix;
use rsdsm::simnet::SimTime;

/// Node 2 cut away at 2 ms for 5 ms, both ways or (`asym`) only from
/// sending, held to `pins`. A symmetric cut freezes it under the
/// quorum rule and it rejoins through the checkpoint path; a one-way
/// cut drops only its own frames, so far fewer die.
fn cut(name: &str, asym: bool, pins: &'static str) -> Row {
    Row {
        fault: Some((Fault::Cut { asym }, Aim::At(SimTime::from_millis(2)))),
        pins,
        ..Row::app(name, Radix, recovering())
    }
}

#[test]
fn symmetric_cut_counters_are_pinned() {
    let pins = "
        faults: partition_drops: 88
        recovery: heartbeats_sent: 1249, suspicions: 6, false_suspicions: 6, \
          checkpoints_taken: 8, checkpoint_bytes: 210279, partitions: 1, \
          partition_freezes: 1, partition_rejoins: 1, \
          partition_reconcile_time: SimDuration(5000000)";
    cut("symmetric_cut_counters_are_pinned", false, pins).check()
}

#[test]
fn symmetric_cut_summary_line_is_pinned() {
    let pins = "
        summary: faults: 0 msgs dropped, 0 duplicated, 0 reordered; \
          transport: 5 retransmissions (max 3 attempts/frame), \
          1 duplicate frames suppressed; prefetch: 0 requests lost, 0 replies lost; \
          recovery: 0 crashes, 6 suspicions (6 false), 8 checkpoints (210279 bytes), \
          0 recoveries (0 us down); partition: 1 cuts, 88 frames cut, \
          1 frozen suspected-but-alive, 1 rejoins (5000 us reconcile)";
    cut("symmetric_cut_summary_line_is_pinned", false, pins).check()
}

#[test]
fn asym_cut_counters_are_pinned() {
    let pins = "
        faults: partition_drops: 7
        recovery: heartbeats_sent: 1053, suspicions: 7, false_suspicions: 7, \
          checkpoints_taken: 8, checkpoint_bytes: 210279, partitions: 1, \
          partition_freezes: 1, partition_rejoins: 1, \
          partition_reconcile_time: SimDuration(5000000)";
    cut("asym_cut_counters_are_pinned", true, pins).check()
}

#[test]
fn repeat_runs_are_digest_identical() {
    for (name, asym) in [("repeat_cut", false), ("repeat_asym_cut", true)] {
        cut(name, asym, "").repeated().check()
    }
}

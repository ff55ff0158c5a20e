//! Seeded regression anchors for network partitions: RADIX runs with
//! a mid-run cut of node 2, and every partition counter, the summary
//! line, and the run digest pinned — mirroring
//! `crash_radix_regression.rs` for the partition/quorum stack.
//!
//! The whole simulation is deterministic for a given (seed, config),
//! so these exact values must reproduce on every machine and every
//! run. If a legitimate change to the engine's message schedule or
//! partition protocol moves them (e.g. different freeze semantics,
//! new traffic during the cut), re-derive the constants by printing
//! `report.recovery` and `report.fault_injection` from these exact
//! configs — but treat any unexplained drift as a determinism bug
//! first.
//!
//! Both scenarios pin `recoveries == 0` and `crashes == 0`: the cut
//! makes the detector suspect node 2 (it is alive but unreachable),
//! and the quorum rule must park those suspicions rather than let
//! them escalate to a false `RecoveryStart` — the split-brain
//! guarantee, held as an exact counter, not just a property.

mod common;

use common::{base, test_recovery};
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{Partition, RunReport};
use rsdsm::simnet::{SimDuration, SimTime};

/// Symmetric cut at 2 ms, healing at 7 ms: node 2 is severed from
/// {0, 1, 3} both ways, freezes under the quorum rule, and rejoins
/// through the checkpoint path after the heal.
fn cut_radix() -> RunReport {
    let mut cfg = base(4).with_recovery(test_recovery(2));
    cfg.faults = cfg.faults.with_partition(Partition::cut(
        vec![vec![2]],
        SimTime::from_millis(2),
        SimDuration::from_millis(5),
    ));
    Benchmark::Radix
        .run(Scale::Test, cfg)
        .expect("cut RADIX run")
}

/// The same cut, one-way: node 2 cannot reach the majority but still
/// hears it — the classic false-suspicion trap for lease detectors
/// (the majority's leases on node 2 expire while node 2's own leases
/// stay fresh).
fn asym_cut_radix() -> RunReport {
    let mut cfg = base(4).with_recovery(test_recovery(2));
    cfg.faults = cfg.faults.with_partition(Partition {
        groups: vec![vec![2]],
        at: SimTime::from_millis(2),
        heal_after: SimDuration::from_millis(5),
        asym: true,
    });
    Benchmark::Radix
        .run(Scale::Test, cfg)
        .expect("asym-cut RADIX run")
}

#[test]
fn symmetric_cut_counters_are_pinned() {
    let r = cut_radix();
    assert!(r.verified, "RADIX must verify across a node-2 cut");

    let v = r.recovery;
    assert_eq!(v.crashes, 0, "a cut is not a crash");
    assert_eq!(v.heartbeats_sent, 1249);
    assert_eq!(v.suspicions, 6);
    assert_eq!(
        v.false_suspicions, 6,
        "every suspicion during a cut is against a live node"
    );
    assert_eq!(v.frames_parked, 0);
    assert_eq!(v.checkpoints_taken, 8);
    assert_eq!(v.checkpoint_bytes, 210_279);
    assert_eq!(
        v.recoveries, 0,
        "the quorum rule must park cut-side suspicions, never confirm them"
    );
    assert_eq!(v.recovery_time, SimDuration::ZERO);
    assert_eq!(v.partitions, 1);
    assert_eq!(v.partition_freezes, 1);
    assert_eq!(v.partition_rejoins, 1);
    assert_eq!(v.partition_reconcile_time, SimDuration::from_millis(5));

    assert_eq!(r.fault_injection.partition_drops, 88);
}

#[test]
fn symmetric_cut_summary_line_is_pinned() {
    let r = cut_radix();
    assert_eq!(
        r.fault_summary_line().as_deref(),
        Some(
            "faults: 0 msgs dropped, 0 duplicated, 0 reordered; \
             transport: 5 retransmissions (max 3 attempts/frame), \
             1 duplicate frames suppressed; \
             prefetch: 0 requests lost, 0 replies lost; \
             recovery: 0 crashes, 6 suspicions (6 false), \
             8 checkpoints (210279 bytes), 0 recoveries (0 us down); \
             partition: 1 cuts, 88 frames cut, \
             1 frozen suspected-but-alive, 1 rejoins (5000 us reconcile)"
        )
    );
}

#[test]
fn asym_cut_counters_are_pinned() {
    let r = asym_cut_radix();
    assert!(r.verified, "RADIX must verify across a one-way cut");

    let v = r.recovery;
    assert_eq!(v.crashes, 0);
    assert_eq!(v.heartbeats_sent, 1053);
    assert_eq!(v.suspicions, 7);
    assert_eq!(v.false_suspicions, 7);
    assert_eq!(v.frames_parked, 0);
    assert_eq!(v.checkpoints_taken, 8);
    assert_eq!(v.checkpoint_bytes, 210_279);
    assert_eq!(
        v.recoveries, 0,
        "a one-way cut must not trick the manager into a RecoveryStart"
    );
    assert_eq!(v.partitions, 1);
    assert_eq!(v.partition_freezes, 1);
    assert_eq!(v.partition_rejoins, 1);
    assert_eq!(v.partition_reconcile_time, SimDuration::from_millis(5));

    // Only the minority→majority direction drops; the reverse leg
    // delivers, so far fewer frames die than under the symmetric cut.
    assert_eq!(r.fault_injection.partition_drops, 7);
}

#[test]
fn repeat_runs_are_digest_identical() {
    assert_eq!(cut_radix().digest(), cut_radix().digest());
    assert_eq!(asym_cut_radix().digest(), asym_cut_radix().digest());
}

//! Seeded regression anchors for crash injection + lease-based
//! recovery: RADIX runs with mid-run node failures and every recovery
//! counter pinned, mirroring `lossy_radix_regression.rs` for the
//! fault/transport stack.
//!
//! The whole simulation is deterministic for a given (seed, config),
//! so these exact values must reproduce on every machine and every
//! run. If a legitimate change to the engine's message schedule or
//! recovery protocol moves them (e.g. a new message type, different
//! lease parameters), re-derive the constants by printing
//! `report.recovery` from these exact configs — but treat any
//! unexplained drift as a determinism bug first.
//!
//! The lease parameters are deliberately tight for `Scale::Test` runs
//! (1 ms lease against RADIX's bursty permutation traffic), so the
//! crash-stop scenario also exercises the false-suspicion path:
//! congestion delays droppable heartbeats past the lease, live peers
//! get suspected, and the manager's confirmation grace resolves them
//! without disturbing the run.

mod common;

use common::{base, test_recovery};
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{RunReport, TransportConfig};
use rsdsm::simnet::{NodeCrash, SimDuration, SimTime};

/// Crash-stop at 2 ms: node 2 dies, the detector notices, and a
/// replacement rejoins from its checkpoint.
fn crashed_radix() -> RunReport {
    let mut cfg = base(4).with_recovery(test_recovery(2));
    cfg.faults = cfg.faults.with_node_crash(NodeCrash {
        node: 2,
        at: SimTime::from_millis(2),
        restart_after: None,
    });
    Benchmark::Radix
        .run(Scale::Test, cfg)
        .expect("crashed RADIX run")
}

/// Crash-restart with a 20 ms outage and a deliberately small retry
/// budget, so reliable frames toward the victim exhaust their retries
/// and take the park-and-resume path instead of aborting the run.
fn outage_radix() -> RunReport {
    let mut cfg = base(4)
        .with_recovery(test_recovery(2))
        .with_transport(TransportConfig {
            initial_rto: SimDuration::from_millis(1),
            max_retries: 3,
            ..TransportConfig::default()
        });
    cfg.faults = cfg.faults.with_node_crash(NodeCrash {
        node: 2,
        at: SimTime::from_millis(2),
        restart_after: Some(SimDuration::from_millis(20)),
    });
    Benchmark::Radix
        .run(Scale::Test, cfg)
        .expect("outage RADIX run")
}

#[test]
fn crash_stop_counters_are_pinned() {
    let r = crashed_radix();
    assert!(r.verified, "RADIX must verify across a node-2 crash");

    let v = r.recovery;
    assert_eq!(v.crashes, 1);
    assert_eq!(v.heartbeats_sent, 802);
    assert_eq!(v.suspicions, 8);
    assert_eq!(v.false_suspicions, 6);
    assert_eq!(v.frames_parked, 0);
    assert_eq!(v.checkpoints_taken, 8);
    assert_eq!(v.checkpoint_bytes, 210_279);
    assert_eq!(v.recoveries, 1);
    assert_eq!(v.recovery_time, SimDuration::from_nanos(1_777_844));
}

#[test]
fn fault_summary_line_is_pinned() {
    let r = crashed_radix();
    assert_eq!(
        r.fault_summary_line().as_deref(),
        Some(
            "faults: 0 msgs dropped, 0 duplicated, 0 reordered; \
             transport: 2 retransmissions (max 2 attempts/frame), \
             1 duplicate frames suppressed; \
             prefetch: 0 requests lost, 0 replies lost; \
             recovery: 1 crashes, 8 suspicions (6 false), \
             8 checkpoints (210279 bytes), 1 recoveries (1777 us down)"
        )
    );
}

#[test]
fn crash_restart_parks_and_resumes() {
    let r = outage_radix();
    assert!(r.verified, "RADIX must verify across a 20 ms outage");

    let v = r.recovery;
    assert_eq!(v.crashes, 1);
    assert_eq!(v.heartbeats_sent, 1240);
    assert_eq!(v.suspicions, 8);
    assert_eq!(v.false_suspicions, 6);
    assert_eq!(
        v.frames_parked, 1,
        "the shrunken retry budget must exhaust into the park path"
    );
    assert_eq!(v.checkpoints_taken, 8);
    assert_eq!(v.recoveries, 1);
    // Crash-restart rejoins exactly when the plan says: the outage is
    // the whole downtime (restore/replay costs were charged when the
    // restart was scheduled).
    assert_eq!(v.recovery_time, SimDuration::from_millis(20));

    let t = r.transport;
    assert_eq!(t.retransmissions, 18);
    assert_eq!(t.max_attempts, 4);
}

#[test]
fn repeat_runs_are_digest_identical() {
    assert_eq!(crashed_radix().digest(), crashed_radix().digest());
}

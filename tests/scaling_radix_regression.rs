//! Seeded regression anchor for the scale-out stack: one 64-node
//! RADIX run on the rack-and-spine fabric with hash-sharded homes,
//! every scale-out observable pinned.
//!
//! The whole simulation is deterministic for a given (seed, config),
//! so these exact values must reproduce on every machine and every
//! run. If a legitimate change to routing, directory sharding, or the
//! cost model moves them, re-derive the constants by printing the
//! fields from this exact config — but treat any unexplained drift as
//! a determinism bug first.

use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{DirectoryConfig, DirectoryPolicy, DsmConfig, RunReport, Topology};

fn scaled_radix() -> RunReport {
    let cfg = DsmConfig::paper_cluster(64)
        .with_seed(1998)
        .with_topology(Topology::rack_spine(8, 2, 4))
        .with_directory(DirectoryConfig::on(DirectoryPolicy::Hash));
    Benchmark::Radix
        .run(Scale::Test, cfg)
        .expect("64-node fabric RADIX run")
}

#[test]
fn report_digest_is_pinned() {
    let r = scaled_radix();
    assert!(r.verified, "RADIX must verify at 64 nodes on the fabric");
    assert_eq!(r.digest(), 0x8a72d2cbe21c5a60, "report digest moved");
    assert_eq!(r.events_processed, 134_738);
}

#[test]
fn directory_counters_are_pinned() {
    let r = scaled_radix();
    let d = r.directory;
    assert_eq!(d.home_hits, 597);
    assert_eq!(d.forwards, 3148);
    assert_eq!(d.pruned, 3993);
    assert_eq!(d.migrations, 0, "Hash homes never migrate");
}

/// The fault/transport/directory one-liner, verbatim. The 20k
/// fault-free retransmissions are real: the 4:1-oversubscribed trunks
/// under RADIX's write-interval traffic delay frames past their RTOs
/// — the scale-out cousin of the paper's §3.1 retry behaviour.
#[test]
fn fault_summary_line_is_pinned() {
    let r = scaled_radix();
    assert_eq!(
        r.fault_summary_line().as_deref(),
        Some(
            "faults: 0 msgs dropped, 0 duplicated, 0 reordered; \
             transport: 20327 retransmissions (max 6 attempts/frame), \
             20311 duplicate frames suppressed; \
             prefetch: 0 requests lost, 0 replies lost; \
             directory: 597 home hits, 3148 heal forwards, \
             3993 notices pruned, 0 migrations"
        )
    );
}

#[test]
fn repeat_runs_are_digest_identical() {
    assert_eq!(scaled_radix().digest(), scaled_radix().digest());
}

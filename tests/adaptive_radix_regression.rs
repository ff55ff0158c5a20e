//! Seeded regression anchor for the adaptive prefetcher: one 8-node
//! RADIX run at the paper's default scale with `PrefetchMode::Adaptive`,
//! every adaptive observable pinned — the §3.3 miss taxonomy, the
//! throttle transition counts, the issue/cancel totals, the report
//! digest, and the fault-summary segment.
//!
//! The whole simulation is deterministic for a given (seed, config),
//! so these exact values must reproduce on every machine and every
//! run. If a legitimate change to the detector, throttle, or cost
//! model moves them, re-derive the constants by printing the fields
//! from this exact config — but treat any unexplained drift as a
//! determinism bug first.

use proptest::prelude::*;
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{AdaptiveConfig, DsmConfig, PersistConfig, PrefetchConfig, RunReport};
use rsdsm::simnet::SimDuration;

fn adaptive_radix() -> RunReport {
    let cfg = DsmConfig::paper_cluster(8)
        .with_seed(1998)
        .with_prefetch(PrefetchConfig::adaptive());
    Benchmark::Radix
        .run(Scale::Default, cfg)
        .expect("adaptive RADIX run")
}

#[test]
fn report_digest_is_pinned() {
    let r = adaptive_radix();
    assert!(r.verified, "RADIX must verify under adaptive prefetch");
    assert_eq!(r.digest(), 0xc692b3f05b6579ca, "report digest moved");
    assert_eq!(r.events_processed, 8_040);
}

/// The §3.3 taxonomy of every remote fault in the run. Coverage is
/// (hits + too_late + invalidated) / total — the fraction of faults
/// the prefetcher saw coming, whether or not the page arrived in
/// time.
#[test]
fn miss_taxonomy_is_pinned() {
    let r = adaptive_radix();
    let p = &r.prefetch;
    assert_eq!(p.hits, 38);
    assert_eq!(p.too_late, 34);
    assert_eq!(p.invalidated, 17);
    assert_eq!(p.no_pf, 292);
    assert_eq!(p.messages, 359);
    assert_eq!(p.unnecessary, 13);
    assert!((p.coverage() - 0.233_596).abs() < 1e-6, "coverage moved");
}

/// The adaptive engine's own counters: eight streams locked onto a
/// stride, the throttle deepened the lead three times chasing late
/// replies and backed off four, and about a third of the planned
/// windows were cancelled before issue (already cached or in flight).
#[test]
fn adaptive_stats_are_pinned() {
    let r = adaptive_radix();
    let a = r.adaptive.expect("adaptive stats present when enabled");
    assert_eq!(a.detected_strides, 8);
    assert_eq!(a.window_flips, 0);
    assert_eq!(a.ramps, 0);
    assert_eq!(a.deepens, 3);
    assert_eq!(a.backoffs, 4);
    assert_eq!(a.suppressions, 0);
    assert_eq!(a.resumes, 0);
    assert_eq!(a.issued, 123);
    assert_eq!(a.cancelled, 71);
}

/// The summary one-liner with its adaptive segment, verbatim. The
/// three retransmissions are real: adaptive traffic is reliable, and
/// burst windows occasionally push a frame past its RTO.
#[test]
fn fault_summary_line_is_pinned() {
    let r = adaptive_radix();
    assert_eq!(
        r.fault_summary_line().as_deref(),
        Some(
            "faults: 0 msgs dropped, 0 duplicated, 0 reordered; \
             transport: 3 retransmissions (max 2 attempts/frame), \
             3 duplicate frames suppressed; \
             prefetch: 0 requests lost, 0 replies lost; \
             adaptive: 8 strides, 0 flips, 7 throttle transitions, \
             123 issued, 71 cancelled"
        )
    );
}

#[test]
fn repeat_runs_are_digest_identical() {
    assert_eq!(adaptive_radix().digest(), adaptive_radix().digest());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The digest follows what a run computed, not how its config is
    /// spelled. Tuning the run never reads — adaptive knobs with
    /// prefetching off, device bandwidths with persistence off —
    /// leaves it alone, traced or not; one simulated nanosecond on any
    /// cost every run pays moves it.
    #[test]
    fn digest_follows_behaviour_not_configuration(
        window in 9usize..64,
        write_bw in 1u64..1_000,
        cost in 0usize..4,
    ) {
        let base = || DsmConfig::paper_cluster(4).with_seed(1998);
        let run = |cfg| Benchmark::Radix.run(Scale::Test, cfg).expect("RADIX run");
        let plain = run(base()).digest();

        let mut unread = base().with_prefetch(PrefetchConfig {
            adaptive: AdaptiveConfig { window, ..AdaptiveConfig::on() },
            ..PrefetchConfig::off()
        });
        unread.recovery.persist = PersistConfig { write_bw, ..PersistConfig::off() };
        prop_assert!(unread != base());
        prop_assert_eq!(run(unread.clone()).digest(), plain);
        let (traced, _) = Benchmark::Radix
            .run_traced(Scale::Test, unread)
            .expect("traced RADIX run");
        prop_assert_eq!(traced.digest(), plain);

        let mut slower = base();
        let costs = &mut slower.costs;
        *[
            &mut costs.fault_entry,
            &mut costs.msg_send,
            &mut costs.msg_recv,
            &mut costs.sync_process,
        ][cost] += SimDuration::from_nanos(1);
        prop_assert_ne!(run(slower).digest(), plain);
    }
}

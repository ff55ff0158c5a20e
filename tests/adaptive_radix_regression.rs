//! Pinned rows for the adaptive prefetcher (DESIGN §8): RADIX on 8
//! nodes at the paper's default scale under adaptive prefetch, with
//! the §3.3 miss taxonomy (coverage 89 of 381 faults), the throttle
//! and the issue/cancel totals, the report digest and the summary line
//! pinned. Adaptive traffic is reliable, so burst windows cost a few
//! real retransmissions.
//!
//! The simulation is deterministic for a (seed, config), so these
//! values reproduce on every machine. Treat a moved pin as a
//! determinism bug first, and re-pin only by DESIGN §8's rule. The
//! tests pin one run's views each; it runs once, and once more for the
//! repeat.

#[macro_use]
mod cells;
mod common;

use cells::{run, Prog, Row};
use common::base;
use proptest::prelude::*;
use rsdsm::apps::Benchmark::Radix;
use rsdsm::apps::Scale;
use rsdsm::core::{DsmConfig, PrefetchConfig};
use rsdsm::oracle::Technique::Base;
use rsdsm::simnet::SimDuration;

/// Adaptive RADIX, held to `pins`.
fn adaptive_radix(name: &str, pins: &'static str) -> Row {
    let adaptive = base(8).with_prefetch(PrefetchConfig::adaptive());
    Row {
        pins,
        ..Row::new(name, Prog::App(Radix, Scale::Default, Base), adaptive)
    }
}

#[test]
fn report_digest_is_pinned() {
    let pins = "
        digest: 0xb3da05fabc57e4a7
        events: 8040";
    adaptive_radix("report_digest_is_pinned", pins).check()
}

/// Coverage is (hits + too_late + invalidated) / total: the faults the
/// prefetcher saw coming, whether or not the page arrived in time.
#[test]
fn miss_taxonomy_is_pinned() {
    let pins = "
        prefetch: unnecessary: 13, messages: 359, hits: 38, too_late: 34, \
          invalidated: 17, no_pf: 292";
    Row {
        holds: holds!(|r| (r.prefetch.coverage() - 0.233_596).abs() < 1e-6),
        ..adaptive_radix("miss_taxonomy_is_pinned", pins)
    }
    .check()
}

/// Eight streams locked onto a stride, the throttle deepened three
/// times and backed off four, and about a third of the planned windows
/// were cancelled before issue.
#[test]
fn adaptive_stats_are_pinned() {
    let pins = "
        adaptive: detected_strides: 8, deepens: 3, backoffs: 4, issued: 123, cancelled: 71";
    adaptive_radix("adaptive_stats_are_pinned", pins).check()
}

#[test]
fn fault_summary_line_is_pinned() {
    let pins = "
        summary: faults: 0 msgs dropped, 0 duplicated, 0 reordered; \
          transport: 3 retransmissions (max 2 attempts/frame), \
          3 duplicate frames suppressed; prefetch: 0 requests lost, 0 replies lost; \
          adaptive: 8 strides, 0 flips, 7 throttle transitions, 123 issued, 71 cancelled";
    adaptive_radix("fault_summary_line_is_pinned", pins).check()
}

#[test]
fn repeat_runs_are_digest_identical() {
    adaptive_radix("repeat_runs_are_digest_identical", "")
        .repeated()
        .check()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The digest follows what a run computed, not how its config is
    /// spelled. Tuning the run never reads — device bandwidths with
    /// persistence off — leaves it alone, traced or not; one simulated
    /// nanosecond on any cost every run pays moves it.
    #[test]
    fn digest_follows_behaviour_not_configuration(
        write_bw in 1u64..1_000,
        cost in 0usize..4,
    ) {
        let radix = Prog::App(Radix, Scale::Test, Base);
        let digest = |cfg: &DsmConfig, traced| run(radix, cfg, traced, "digest").0.digest();
        let plain = digest(&base(4), false);

        let mut unread = base(4);
        unread.recovery.persist.write_bw = write_bw;
        prop_assert!(unread != base(4));
        prop_assert_eq!(digest(&unread, false), plain);
        prop_assert_eq!(digest(&unread, true), plain);

        let mut slower = base(4);
        let costs = &mut slower.costs;
        *[
            &mut costs.fault_entry,
            &mut costs.msg_send,
            &mut costs.msg_recv,
            &mut costs.sync_process,
        ][cost] += SimDuration::from_nanos(1);
        prop_assert_ne!(digest(&slower, false), plain);
    }
}

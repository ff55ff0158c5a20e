//! Golden trace snapshots.
//!
//! Pinned `RTR1` digests and §3.3 prefetch taxonomy counters for
//! seeded RADIX and FFT under all four techniques. The trace digest
//! is a total-order fingerprint of the run, so any change to protocol
//! behaviour, event ordering, cost charging, or the trace encoding
//! itself lands here first — with the diverging cell named.
//!
//! When a change is *intentional* (new event type, protocol fix),
//! regenerate the pins by running the printed expression for each
//! cell and updating the table; the commit then documents the
//! behaviour change explicitly.

use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::DsmConfig;
use rsdsm::oracle::Technique;

fn cfg(bench: Benchmark, tech: Technique) -> DsmConfig {
    tech.configure(bench, DsmConfig::paper_cluster(4).with_seed(1998))
}

/// (app, technique, RTR1 digest, events,
///  prefetches issued, hits, too-late, invalidated, no-pf)
#[allow(clippy::type_complexity)]
const PINS: [(Benchmark, Technique, u64, usize, u64, u64, u64, u64, u64); 8] = [
    (
        Benchmark::Radix,
        Technique::Base,
        0x249303d259b67b8e,
        811,
        0,
        0,
        0,
        0,
        30,
    ),
    (
        Benchmark::Radix,
        Technique::Prefetch,
        0x51ef5dc9d33ba5ac,
        769,
        17,
        11,
        6,
        0,
        13,
    ),
    (
        Benchmark::Radix,
        Technique::Multithread,
        0x57962b9bc60d69bd,
        1098,
        0,
        0,
        0,
        0,
        41,
    ),
    (
        Benchmark::Radix,
        Technique::Combined,
        0xf60b890b78c171e5,
        1117,
        10,
        2,
        8,
        0,
        24,
    ),
    (
        Benchmark::Fft,
        Technique::Base,
        0xf84e0fffd2fce0ae,
        661,
        0,
        0,
        0,
        0,
        39,
    ),
    (
        Benchmark::Fft,
        Technique::Prefetch,
        0xc6cd8ed51cf5c48b,
        666,
        36,
        21,
        15,
        0,
        3,
    ),
    (
        Benchmark::Fft,
        Technique::Multithread,
        0xfac0a249a4805766,
        878,
        0,
        0,
        0,
        0,
        39,
    ),
    (
        Benchmark::Fft,
        Technique::Combined,
        0x96ad0d44bd8ffa81,
        766,
        36,
        22,
        14,
        0,
        3,
    ),
];

#[test]
fn trace_digests_and_prefetch_taxonomy_are_pinned() {
    for (bench, tech, digest, events, issued, hits, too_late, invalidated, no_pf) in PINS {
        let (report, trace) = bench
            .run_traced(Scale::Test, cfg(bench, tech))
            .unwrap_or_else(|e| panic!("{bench} [{}]: {e}", tech.label()));
        let cell = format!("{bench} [{}]", tech.label());
        assert_eq!(
            trace.digest(),
            digest,
            "{cell}: trace digest moved (got 0x{:016x}, {} events) — \
             the run's event stream changed",
            trace.digest(),
            trace.len(),
        );
        assert_eq!(trace.len(), events, "{cell}: event count moved");
        let m = trace.metrics();
        let p = &m.prefetch;
        assert_eq!(
            (
                m.prefetch_issued,
                p.hits,
                p.too_late,
                p.invalidated,
                p.no_pf
            ),
            (issued, hits, too_late, invalidated, no_pf),
            "{cell}: §3.3 prefetch taxonomy moved",
        );
        // The trace-derived taxonomy must agree with the engine's own
        // fast-path counters — two independent paths to Figure 3.
        assert_eq!(p.hits, report.prefetch.hits, "{cell}: hit counters split");
        assert_eq!(
            p.too_late, report.prefetch.too_late,
            "{cell}: too-late counters split"
        );
        assert_eq!(
            p.invalidated, report.prefetch.invalidated,
            "{cell}: invalidated counters split"
        );
        assert_eq!(
            p.no_pf, report.prefetch.no_pf,
            "{cell}: no-pf counters split"
        );
    }
}

/// The derived ratios stay in range and NaN-free for every pinned
/// cell (the zero-prefetch cells exercise the 0/0 guards).
#[test]
fn derived_prefetch_ratios_are_finite() {
    for (bench, tech, ..) in PINS {
        let (_, trace) = bench
            .run_traced(Scale::Test, cfg(bench, tech))
            .unwrap_or_else(|e| panic!("{bench} [{}]: {e}", tech.label()));
        let p = trace.metrics().prefetch;
        for (name, v) in [
            ("coverage", p.coverage()),
            ("accuracy", p.accuracy()),
            ("lateness", p.lateness()),
        ] {
            assert!(
                v.is_finite() && (0.0..=1.0).contains(&v),
                "{bench} [{}]: {name} = {v} out of range",
                tech.label()
            );
        }
    }
}

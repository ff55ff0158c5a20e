//! The trace-replay suite.
//!
//! The simulation is deterministic, so a trace digest is a
//! total-order fingerprint of a run. This suite locks down three
//! contracts the tracing layer makes:
//!
//! 1. **Determinism** — same (seed, config) ⇒ bit-identical `RTR1`
//!    bytes, twice over.
//! 2. **Zero observer effect** — a traced run reports exactly what
//!    the untraced run reports (`RunReport::digest()` unchanged).
//! 3. **Causality** — every `DiffApply` is causally linked to a
//!    `WriteNotice` for the same interval at the same node, an
//!    event-*ordering* invariant the consistency oracle cannot
//!    express over aggregates.
//!
//! The default grid is RADIX and FFT × O/P/2T/2TP so `cargo test`
//! stays fast; `RSDSM_MATRIX=trace` (or `full`) widens it to all eight
//! applications. On any failure the offending run's Chrome trace
//! JSON is written under `target/trace-artifacts/` so the regression
//! arrives with its own timeline attached.

mod common;

use common::base;
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{Trace, TraceEvent};
use rsdsm::oracle::Technique;
use rsdsm::simnet::fnv1a;
use rsdsm::stats::chrome_trace_json;
use rsdsm_bench::pool::full_grid;

/// Runs `check` once per (app, technique) grid cell.
fn for_each_cell(check: impl Fn(Benchmark, Technique) + Sync) {
    let mut cells = Vec::new();
    for bench in grid_apps() {
        for tech in Technique::ALL {
            cells.push((bench, tech));
        }
    }
    common::for_each_cell(cells, |(bench, tech)| check(bench, tech));
}

fn grid_apps() -> Vec<Benchmark> {
    if full_grid("trace") {
        Benchmark::ALL.to_vec()
    } else {
        vec![Benchmark::Radix, Benchmark::Fft]
    }
}

/// Writes the run's Chrome trace under `target/trace-artifacts/` and
/// panics with `msg`, so a failing ordering check ships its timeline.
fn fail_with_artifact(bench: Benchmark, tech: Technique, trace: &Trace, msg: String) -> ! {
    let file = format!("{}-{}.json", bench.name(), tech.label());
    common::fail_with_artifact("trace-artifacts", &file, &chrome_trace_json(trace), &msg)
}

/// (1) Same seed ⇒ the same events in the same order, bit for bit.
#[test]
fn same_seed_traces_are_bit_identical() {
    for_each_cell(|bench, tech| {
        let cfg = || tech.configure(bench, base(4));
        let (_, a) = bench
            .run_traced(Scale::Test, cfg())
            .unwrap_or_else(|e| panic!("{bench} [{}] run 1: {e}", tech.label()));
        let (_, b) = bench
            .run_traced(Scale::Test, cfg())
            .unwrap_or_else(|e| panic!("{bench} [{}] run 2: {e}", tech.label()));
        assert!(
            !a.is_empty(),
            "{bench} [{}]: a real run must emit events",
            tech.label()
        );
        if a.digest() != b.digest() || a.encode() != b.encode() {
            fail_with_artifact(
                bench,
                tech,
                &a,
                format!(
                    "{bench} [{}]: same-seed traces diverged \
                         ({:016x} vs {:016x}, {} vs {} events)",
                    tech.label(),
                    a.digest(),
                    b.digest(),
                    a.len(),
                    b.len(),
                ),
            );
        }
    });
}

/// (2) Tracing must not perturb the run it observes: the traced
/// report digests identically to the untraced one, for every cell of
/// the fast matrix.
#[test]
fn tracing_has_zero_observer_effect() {
    for_each_cell(|bench, tech| {
        let cfg = || tech.configure(bench, base(4));
        let plain = bench
            .run(Scale::Test, cfg())
            .unwrap_or_else(|e| panic!("{bench} [{}] untraced: {e}", tech.label()));
        let (traced, trace) = bench
            .run_traced(Scale::Test, cfg())
            .unwrap_or_else(|e| panic!("{bench} [{}] traced: {e}", tech.label()));
        if plain.digest() != traced.digest() {
            fail_with_artifact(
                bench,
                tech,
                &trace,
                format!(
                    "{bench} [{}]: tracing changed the run \
                         (untraced digest {:016x}, traced {:016x})",
                    tech.label(),
                    plain.digest(),
                    traced.digest(),
                ),
            );
        }
    });
}

/// (3) A diff may only be applied after its write notice is known at
/// the applying node: every `DiffApply` record must causally link a
/// prior `WriteNotice` for the same (page, origin, seq) at the same
/// node. The decoder already rejects forward causes, so resolving the
/// link proves "preceded by".
#[test]
fn every_diff_apply_is_caused_by_a_matching_write_notice() {
    for_each_cell(|bench, tech| {
        let cfg = tech.configure(bench, base(4));
        let (_, trace) = bench
            .run_traced(Scale::Test, cfg)
            .unwrap_or_else(|e| panic!("{bench} [{}]: {e}", tech.label()));
        let mut applies = 0u64;
        for (i, rec) in trace.records.iter().enumerate() {
            let TraceEvent::DiffApply { page, origin, seq } = rec.event else {
                continue;
            };
            applies += 1;
            let problem = if rec.cause == 0 || rec.cause as usize > i {
                Some("has no prior causal link".to_string())
            } else {
                let notice = &trace.records[rec.cause as usize - 1];
                match notice.event {
                    TraceEvent::WriteNotice {
                        page: np,
                        origin: no,
                        seq: ns,
                    } if np == page && no == origin && ns == seq && notice.node == rec.node => None,
                    ref other => Some(format!(
                        "links record {} ({:?} at node {}) instead of a matching notice",
                        rec.cause, other, notice.node
                    )),
                }
            };
            if let Some(why) = problem {
                fail_with_artifact(
                    bench,
                    tech,
                    &trace,
                    format!(
                        "{bench} [{}]: DiffApply #{i} (page {page}, origin {origin}, \
                             seq {seq}, node {}) {why}",
                        tech.label(),
                        rec.node,
                    ),
                );
            }
        }
        assert!(
            applies > 0,
            "{bench} [{}]: expected at least one applied diff",
            tech.label()
        );
    });
}

/// The `RTR1` bytes round-trip through the decoder, and the exporter
/// renders a real trace to pinned bytes (the end-to-end path the bench
/// `--trace` flag uses).
#[test]
fn real_traces_round_trip_and_export() {
    let (_, trace) = Benchmark::Radix
        .run_traced(
            Scale::Test,
            Technique::Combined.configure(Benchmark::Radix, base(4)),
        )
        .expect("traced RADIX 2TP");
    let decoded = Trace::decode(&trace.encode()).expect("decode RTR1");
    assert_eq!(decoded, trace);
    assert_eq!(decoded.digest(), trace.digest());
    let json = chrome_trace_json(&trace);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"name\":\"node 3\""));
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x6f1af4c44dd42685,
        "the Chrome export of RADIX 2TP moved"
    );
}

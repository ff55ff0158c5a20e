//! The crash matrix: every application survives a mid-run crash-stop
//! node failure — and, in the full grid, a crash-restart outage —
//! under every latency-tolerance technique, with the full oracle
//! obligation intact: zero invariant violations, a final memory image
//! byte-identical to the golden sequential executor, digest-identical
//! same-seed repeat runs, and both executions passing the
//! application's own verification.
//!
//! Each cell sizes the crash from a crash-free dry run of the same
//! configuration: the victim dies at half the dry run's completion
//! time, which lands mid-computation for every (app, technique) pair
//! without per-cell hand tuning.
//!
//! The default run covers a smoke-sized subset so `cargo test` stays
//! fast; `RSDSM_MATRIX=crash` (or `full`) runs the full 8 apps ×
//! {O, P, 2T, 2TP} × {crash-stop, crash-restart} grid.

mod common;

use common::{base, for_each_cell, test_recovery};
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::RecoveryConfig;
use rsdsm::oracle::{check_technique, Technique};
use rsdsm::simnet::{NodeCrash, SimDuration, SimTime};
use rsdsm_bench::pool::full_grid;

/// The victim. Node 0 hosts the managers and the recovery
/// coordinator and is assumed stable; any other node may die.
const VICTIM: usize = 2;

/// A cell: the app, the technique, and the outage length (`None` for
/// crash-stop).
type Cell = (Benchmark, Technique, Option<SimDuration>);

/// One cell: dry-run for timing, crash the victim halfway, then run
/// the full oracle check (DSM run + golden model + repeat run) on the
/// crashing configuration.
fn assert_cell((bench, technique, restart_after): Cell) {
    let cfg = base(4).with_recovery(test_recovery(2));
    let dry = bench
        .run(Scale::Test, technique.configure(bench, cfg.clone()))
        .unwrap_or_else(|e| panic!("{bench} {} dry run: {e}", technique.label()));
    let mid = SimTime::ZERO + dry.total_time / 2;

    let mut cfg = cfg;
    cfg.faults = cfg.faults.with_node_crash(NodeCrash {
        node: VICTIM,
        at: mid,
        restart_after,
    });
    let crashed = bench
        .run(Scale::Test, technique.configure(bench, cfg.clone()))
        .unwrap_or_else(|e| panic!("{bench} {} crash at {mid}: {e}", technique.label()));
    assert!(
        crashed.verified,
        "{bench} {}: result corrupted by crash at {mid}",
        technique.label()
    );
    assert_eq!(crashed.recovery.crashes, 1);
    assert!(
        crashed.recovery.recoveries >= 1,
        "{bench} {}: victim never rejoined after crash at {mid}",
        technique.label()
    );
    assert!(
        crashed.recovery.checkpoints_taken >= 1,
        "{bench} {}: no checkpoint was ever captured",
        technique.label()
    );

    let verdict = check_technique(bench, Scale::Test, technique, cfg)
        .unwrap_or_else(|e| panic!("{bench} {} oracle: {e:?}", technique.label()));
    assert!(
        verdict.ok(),
        "oracle failed with crash at {mid}: {}",
        verdict.summary_line()
    );
}

#[test]
fn fast_subset_crash_stop() {
    let mut cells = Vec::new();
    for bench in [Benchmark::Sor, Benchmark::Radix, Benchmark::WaterNsq] {
        for technique in [Technique::Base, Technique::Combined] {
            cells.push((bench, technique, None));
        }
    }
    for_each_cell(cells, assert_cell);
}

#[test]
fn fast_subset_crash_restart() {
    let mut cells = Vec::new();
    for bench in [Benchmark::Sor, Benchmark::Radix] {
        for technique in [Technique::Base, Technique::Combined] {
            cells.push((bench, technique, Some(SimDuration::from_millis(5))));
        }
    }
    for_each_cell(cells, assert_cell);
}

/// Checkpoint capture stays off the critical path: a crash-free run
/// with barrier-aligned checkpointing enabled is digest-identical to
/// the same seed without it, once the explicitly-accounted checkpoint
/// counters are factored out. Capture charges no CPU, draws no
/// randomness, and schedules no events — it must not perturb the run
/// it protects.
#[test]
fn checkpointing_is_digest_transparent() {
    use rsdsm::core::RecoveryStats;

    let plain = Benchmark::Radix
        .run(Scale::Test, base(4))
        .expect("plain run");
    let mut ckpt = Benchmark::Radix
        .run(
            Scale::Test,
            base(4).with_recovery(RecoveryConfig {
                checkpoint_every: 4,
                ..RecoveryConfig::off()
            }),
        )
        .expect("checkpointing run");
    assert!(ckpt.recovery.checkpoints_taken >= 1, "no checkpoint taken");
    assert_eq!(ckpt.recovery.crashes, 0);

    ckpt.recovery = RecoveryStats::default();
    assert_eq!(
        plain.digest(),
        ckpt.digest(),
        "checkpoint capture perturbed a crash-free run"
    );
}

#[test]
fn full_matrix() {
    if !full_grid("crash") {
        eprintln!("skipping full crash matrix (set RSDSM_MATRIX=crash)");
        return;
    }
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        for technique in Technique::ALL {
            for restart in [None, Some(SimDuration::from_millis(5))] {
                cells.push((bench, technique, restart));
            }
        }
    }
    for_each_cell(cells, assert_cell);
}

//! The consistency-oracle matrix: golden-model differential checking,
//! runtime LRC invariants, and determinism over benchmarks ×
//! techniques × fault plans.
//!
//! Every cell asserts the full [`rsdsm_oracle::OracleVerdict::ok`]
//! obligation: zero invariant violations, a byte-identical final
//! memory image between the DSM run and the golden sequential
//! executor, digest-identical same-seed repeat runs, and both
//! executions passing the application's own verification.
//!
//! Per-PR CI runs a fast subset (three representative applications —
//! including the lock-order-sensitive WATER-NSQ — under the base and
//! combined techniques). `RSDSM_MATRIX=oracle` (or `full`) runs the full
//! 8 apps × 4 techniques × {no-fault, loss} grid, which CI runs in
//! release mode. Cells fan out across cores via
//! `rsdsm_bench::pool` (override the worker count with `RSDSM_JOBS`).

use rsdsm_apps::{Benchmark, Scale};
use rsdsm_bench::pool;
use rsdsm_core::{DsmConfig, FaultPlan};
use rsdsm_oracle::{check_technique, Technique};

fn base(nodes: usize) -> DsmConfig {
    DsmConfig::paper_cluster(nodes).with_seed(1998)
}

fn loss() -> FaultPlan {
    FaultPlan::uniform_loss(0xFA11, 0.05)
}

/// Fans independent oracle cells across cores; each cell panics on
/// failure and [`pool::run`] re-raises that panic, so a failing cell
/// still fails the test. Cells are pure, so the verdicts do not
/// depend on the worker count.
fn assert_cells(cells: Vec<(Benchmark, Technique, Option<FaultPlan>)>) {
    let tasks: Vec<_> = cells
        .into_iter()
        .map(|(bench, technique, faults)| move || assert_cell(bench, technique, faults))
        .collect();
    pool::run(pool::matrix_jobs(), tasks);
}

fn assert_cell(bench: Benchmark, technique: Technique, faults: Option<FaultPlan>) {
    let mut cfg = base(4);
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let verdict = check_technique(bench, Scale::Test, technique, cfg)
        .unwrap_or_else(|e| panic!("{bench} {}: {e:?}", technique.label()));
    assert!(verdict.ok(), "oracle failed: {}", verdict.summary_line());
}

#[test]
fn fast_subset_no_faults() {
    let mut cells = Vec::new();
    for bench in [Benchmark::Sor, Benchmark::Radix, Benchmark::WaterNsq] {
        for technique in [Technique::Base, Technique::Combined] {
            cells.push((bench, technique, None));
        }
    }
    assert_cells(cells);
}

#[test]
fn fast_subset_under_message_loss() {
    let mut cells = Vec::new();
    for bench in [Benchmark::Sor, Benchmark::Radix, Benchmark::WaterNsq] {
        for technique in [Technique::Base, Technique::Combined] {
            cells.push((bench, technique, Some(loss())));
        }
    }
    assert_cells(cells);
}

#[test]
fn full_matrix() {
    if !pool::full_grid("oracle") {
        eprintln!("skipping full oracle matrix (set RSDSM_MATRIX=oracle)");
        return;
    }
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        for technique in Technique::ALL {
            for faults in [None, Some(loss())] {
                cells.push((bench, technique, faults));
            }
        }
    }
    assert_cells(cells);
}

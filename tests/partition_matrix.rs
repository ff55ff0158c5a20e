//! The partition matrix: every application survives a mid-run network
//! partition — a clean symmetric cut + heal, an asymmetric (one-way)
//! cut, and a cut timed to land exactly on a checkpoint capture —
//! under every latency-tolerance technique, with the full oracle
//! obligation intact: zero invariant violations, a final memory image
//! byte-identical to the golden sequential executor, digest-identical
//! same-seed repeat runs, and both executions passing the
//! application's own verification.
//!
//! On top of the oracle checks, every cell asserts the quorum rule's
//! split-brain guarantees: the suspected-but-alive minority node is
//! *never* confirmed down (zero `RecoveryStart`s, zero crash
//! recoveries), and it always reconciles back in through the
//! checkpoint/replay path after the heal.
//!
//! Each cell sizes the cut from a partition-free dry run of the same
//! configuration: the cut lands at half the dry run's completion time
//! (or, in the during-checkpoint mode, at the exact timestamp of a
//! dry-run checkpoint capture) and heals 5 ms later.
//!
//! The default run covers a smoke-sized subset so `cargo test` stays
//! fast; `RSDSM_MATRIX=partition` (or `full`) runs the full 8 apps ×
//! {O, P, 2T, 2TP} × {clean, asym, during-checkpoint} grid.

mod common;

use common::{base, for_each_cell, test_recovery};
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{ConfigError, DsmConfig, Partition, SimError, TraceEvent};
use rsdsm::oracle::{check_technique, Technique};
use rsdsm::simnet::{SimDuration, SimTime};
use rsdsm_bench::pool::full_grid;

/// The minority node. Node 0 hosts the managers and must keep its
/// majority; cutting any single other node away satisfies the quorum
/// rule in a 4-node cluster (3 of 4 stay on the manager's side).
const MINORITY: usize = 2;

/// How long every cut stays open before healing.
const HEAL_AFTER: SimDuration = SimDuration::from_millis(5);

/// The three cut shapes each cell can run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Symmetric cut at half the dry run, heal 5 ms later.
    Clean,
    /// One-way cut: the minority cannot reach the majority but still
    /// hears it — the classic false-suspicion trap.
    Asym,
    /// Symmetric cut timed to the exact instant of a dry-run
    /// checkpoint capture.
    DuringCheckpoint,
}

/// Picks the cut instant for one cell from a partition-free dry run.
fn cut_instant(bench: Benchmark, technique: Technique, cfg: &DsmConfig, mode: Mode) -> SimTime {
    if mode == Mode::DuringCheckpoint {
        // Land the cut exactly on a checkpoint capture: trace the dry
        // run and take the first capture past a quarter of the run.
        let (dry, trace) = bench
            .run_traced(Scale::Test, technique.configure(bench, cfg.clone()))
            .unwrap_or_else(|e| panic!("{bench} {} traced dry run: {e}", technique.label()));
        let quarter = SimTime::ZERO + dry.total_time / 4;
        let ckpt = trace
            .records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::CheckpointTaken { .. }))
            .map(|r| r.at)
            .find(|&at| at >= quarter);
        if let Some(at) = ckpt {
            return at;
        }
        // No capture late enough (few barriers): fall through to mid.
    }
    let dry = bench
        .run(Scale::Test, technique.configure(bench, cfg.clone()))
        .unwrap_or_else(|e| panic!("{bench} {} dry run: {e}", technique.label()));
    SimTime::ZERO + dry.total_time / 2
}

/// One cell: dry-run for timing, cut the minority away mid-run, heal,
/// assert the quorum rule held, then run the full oracle check
/// (DSM run + golden model + repeat run) on the cut configuration.
fn assert_cell((bench, technique, mode): (Benchmark, Technique, Mode)) {
    let cfg = base(4).with_recovery(test_recovery(2));
    let at = cut_instant(bench, technique, &cfg, mode);

    let mut cfg = cfg;
    cfg.faults = cfg.faults.with_partition(Partition {
        groups: vec![vec![MINORITY]],
        at,
        heal_after: HEAL_AFTER,
        asym: mode == Mode::Asym,
    });
    let cut = bench
        .run(Scale::Test, technique.configure(bench, cfg.clone()))
        .unwrap_or_else(|e| panic!("{bench} {} {mode:?} cut at {at}: {e}", technique.label()));
    let label = format!("{bench} {} {mode:?}", technique.label());
    assert!(cut.verified, "{label}: result corrupted by cut at {at}");
    let r = &cut.recovery;
    assert_eq!(r.partitions, 1, "{label}: cut never executed");
    assert_eq!(r.partition_freezes, 1, "{label}: minority never froze");
    assert_eq!(r.partition_rejoins, 1, "{label}: minority never rejoined");
    assert!(
        r.partition_reconcile_time >= HEAL_AFTER,
        "{label}: reconcile shorter than the cut itself"
    );
    // The split-brain guarantee: a suspected-but-alive node is never
    // confirmed down — no RecoveryStart, no crash recovery, ever.
    assert_eq!(r.crashes, 0, "{label}: phantom crash recorded");
    assert_eq!(
        r.recoveries, 0,
        "{label}: false RecoveryStart on a suspected-but-alive node"
    );

    let verdict = check_technique(bench, Scale::Test, technique, cfg)
        .unwrap_or_else(|e| panic!("{label} oracle: {e:?}"));
    assert!(
        verdict.ok(),
        "oracle failed with {mode:?} cut at {at}: {}",
        verdict.summary_line()
    );
}

#[test]
fn fast_subset_clean_cut() {
    let mut cells = Vec::new();
    for bench in [Benchmark::Sor, Benchmark::Radix, Benchmark::WaterNsq] {
        for technique in [Technique::Base, Technique::Combined] {
            cells.push((bench, technique, Mode::Clean));
        }
    }
    for_each_cell(cells, assert_cell);
}

#[test]
fn fast_subset_asym_and_checkpoint_cuts() {
    let mut cells = Vec::new();
    for bench in [Benchmark::Sor, Benchmark::Radix] {
        for technique in [Technique::Base, Technique::Combined] {
            cells.push((bench, technique, Mode::Asym));
            cells.push((bench, technique, Mode::DuringCheckpoint));
        }
    }
    for_each_cell(cells, assert_cell);
}

/// The partition machinery is observer-free when unused: scheduling a
/// cut the run never reaches changes nothing about the simulation —
/// same events, same timings, same digest.
#[test]
fn unused_partition_schedule_is_digest_transparent() {
    let cfg = base(4).with_recovery(test_recovery(2));
    let plain = Benchmark::Radix
        .run(Scale::Test, cfg.clone())
        .expect("plain run");
    let mut cfg_armed = cfg;
    cfg_armed.faults = cfg_armed.faults.with_partition(Partition::cut(
        vec![vec![MINORITY]],
        SimTime::from_millis(10_000),
        HEAL_AFTER,
    ));
    let armed = Benchmark::Radix
        .run(Scale::Test, cfg_armed)
        .expect("armed run");
    assert_eq!(armed.recovery.partitions, 0, "the far-future cut fired");
    assert_eq!(armed.fault_injection.partition_drops, 0);

    assert_eq!(
        plain.digest(),
        armed.digest(),
        "an unreached partition schedule perturbed the run"
    );
}

/// The quorum rule's validation: a cut that strands the manager
/// without a strict majority is rejected outright.
#[test]
fn minority_manager_component_is_rejected() {
    let mut cfg = base(4).with_recovery(test_recovery(2));
    // {2, 3} vs {0, 1}: two against two — no strict majority.
    cfg.faults = cfg.faults.with_partition(Partition::cut(
        vec![vec![2, 3]],
        SimTime::from_millis(1),
        HEAL_AFTER,
    ));
    assert_eq!(
        Benchmark::Radix.run(Scale::Test, cfg).unwrap_err(),
        SimError::Config(ConfigError::ManagerWithoutMajority { side: 2, nodes: 4 })
    );
}

/// Partitions lean on the recovery layer (freeze, suspicion gating,
/// checkpoint rejoin); scheduling one without it is a plan error.
#[test]
fn partition_without_recovery_is_rejected() {
    let mut cfg = base(4);
    cfg.faults = cfg.faults.with_partition(Partition::cut(
        vec![vec![MINORITY]],
        SimTime::from_millis(1),
        HEAL_AFTER,
    ));
    assert_eq!(
        Benchmark::Radix.run(Scale::Test, cfg).unwrap_err(),
        SimError::Config(ConfigError::PartitionWithoutRecovery)
    );
}

#[test]
fn full_matrix() {
    if !full_grid("partition") {
        eprintln!("skipping full partition matrix (set RSDSM_MATRIX=partition)");
        return;
    }
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        for technique in Technique::ALL {
            for mode in [Mode::Clean, Mode::Asym, Mode::DuringCheckpoint] {
                cells.push((bench, technique, mode));
            }
        }
    }
    for_each_cell(cells, assert_cell);
}

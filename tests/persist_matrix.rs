//! The durable-checkpoint matrix: crashes that land *inside* the
//! persist window — while a checkpoint image is still draining to the
//! modeled device — must recover from the newest *committed* slot,
//! never from a torn image, and the recovered run must still pass the
//! full oracle obligation (app verification plus the golden
//! sequential model).
//!
//! The default run scans a handful of seeded crash instants over one
//! (app, technique) cell with a deliberately slow device so the
//! persist windows dominate the timeline; at least one instant must
//! land mid-persist and exercise the torn-discard + slot-fallback
//! path. `RSDSM_MATRIX=persist` (or `full`) runs the crash-at-any-point
//! sweep over RADIX/FFT × {O, P, 2T, 2TP}.
//!
//! A failing cell writes its run report (summary line plus the full
//! debug dump) under `target/persist-artifacts/` before panicking, so
//! a red CI build ships the offending timeline.

mod common;

use common::{base, for_each_cell, test_recovery};
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{ConfigError, RecoveryConfig, RunReport, SimError, TraceEvent};
use rsdsm::oracle::{check_technique, Technique};
use rsdsm::simnet::{NodeCrash, PersistConfig, SimDuration, SimTime};
use rsdsm_bench::pool::full_grid;

/// The victim. Node 0 hosts the managers and the recovery
/// coordinator and is assumed stable; any other node may die.
const VICTIM: usize = 2;

/// Recovery sized for `Scale::Test` runs (the crash-matrix numbers)
/// plus a slow persistent device: at 2 bytes/us a per-node checkpoint
/// image takes simulated milliseconds to drain, so the persist
/// windows cover most of the timeline and a scanned crash instant
/// reliably lands inside one.
fn persist_recovery() -> RecoveryConfig {
    RecoveryConfig {
        persist: PersistConfig {
            enabled: true,
            write_bw: 2,
            read_bw: 4,
            ..PersistConfig::off()
        },
        ..test_recovery(2)
    }
}

/// Writes the run's summary line and full report under
/// `target/persist-artifacts/` and panics with `msg`, so a failing
/// cell ships its evidence (the CI job uploads the directory).
fn fail_with_artifact(name: &str, report: &RunReport, msg: String) -> ! {
    let body = format!(
        "{msg}\n\nsummary: {}\n\n{report:#?}\n",
        report.fault_summary_line().unwrap_or_default()
    );
    common::fail_with_artifact("persist-artifacts", &format!("{name}.txt"), &body, &msg)
}

/// One crash run of `bench`/`technique` with persistence on and the
/// victim dying at `at`. Asserts the run survives (verified, exactly
/// one crash) and returns the report for counter inspection. A
/// recovery is demanded only when `require_recovery`: a crash in the
/// run's tail can land after the victim's last contribution, in which
/// case the run legitimately completes before the replacement
/// rejoins.
fn crash_run(
    bench: Benchmark,
    technique: Technique,
    at: SimTime,
    require_recovery: bool,
) -> RunReport {
    let mut cfg = base(4).with_recovery(persist_recovery());
    cfg.faults = cfg.faults.with_node_crash(NodeCrash {
        node: VICTIM,
        at,
        restart_after: None,
    });
    let cell = format!("{}-{}-{}ns", bench.name(), technique.label(), at.as_nanos());
    let report = bench
        .run(Scale::Test, technique.configure(bench, cfg))
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
    if !report.verified {
        fail_with_artifact(&cell, &report, format!("{cell}: result corrupted"));
    }
    if report.recovery.crashes != 1 || (require_recovery && report.recovery.recoveries < 1) {
        fail_with_artifact(
            &cell,
            &report,
            format!(
                "{cell}: expected 1 crash with >=1 recovery, saw {} crashes / {} recoveries",
                report.recovery.crashes, report.recovery.recoveries
            ),
        );
    }
    report
}

/// Dry (crash-free) persist run, traced: checks the device accounting
/// and returns the completion time plus the victim's persist-commit
/// instants `(barrier instant, image bytes)` that aim the mid-persist
/// crashes.
fn dry_run(bench: Benchmark, technique: Technique) -> (RunReport, Vec<(SimTime, u32)>) {
    let cfg = base(4).with_recovery(persist_recovery());
    let (report, trace) = bench
        .run_traced(Scale::Test, technique.configure(bench, cfg))
        .unwrap_or_else(|e| panic!("{bench} {} dry run: {e}", technique.label()));
    let r = &report.recovery;
    assert!(
        r.checkpoints_taken >= 2,
        "{bench} {}: need >=2 checkpoints for a slot fallback, got {}",
        technique.label(),
        r.checkpoints_taken
    );
    assert!(r.persist_bytes > 0, "persisted no bytes");
    assert!(
        r.flushes >= 2 * r.checkpoints_taken && r.fences >= 2 * r.checkpoints_taken,
        "two-slot commit must flush+fence twice per checkpoint: \
         {} checkpoints, {} flushes, {} fences",
        r.checkpoints_taken,
        r.flushes,
        r.fences
    );
    assert_eq!(r.torn_discards, 0, "dry run tore a slot");
    assert_eq!(r.slot_fallbacks, 0, "dry run fell back a slot");

    let persists: Vec<(SimTime, u32)> = trace
        .records
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::PersistCommit { bytes, .. } if rec.node == VICTIM as u32 => {
                Some((rec.at, bytes))
            }
            _ => None,
        })
        .collect();
    assert!(
        persists.len() >= 2,
        "{bench} {}: victim persisted {} checkpoints, need >=2 for a fallback",
        technique.label(),
        persists.len()
    );
    (report, persists)
}

/// One cell of the matrix. Crash instants come in two flavors:
/// arbitrary fractions of the run (`offsets`), which must all
/// survive, and instants aimed *inside* the victim's persist drain
/// windows (from the traced dry run — the drain starts at the
/// commit's barrier instant and runs at the device write bandwidth),
/// which must exercise the torn-discard + slot-fallback path. The
/// first fallback hit also gets the full oracle check.
fn sweep_cell(bench: Benchmark, technique: Technique, offsets: &[(u64, u64)]) {
    let (dry, persists) = dry_run(bench, technique);
    let total = dry.total_time;
    for &(num, den) in offsets {
        let at = SimTime::ZERO + SimDuration::from_nanos(total.as_nanos() * num / den);
        crash_run(bench, technique, at, false);
    }

    let dev = persist_recovery().persist;
    let mut hit = None;
    // Skip the first persist: tearing it leaves no previous committed
    // slot to fall back to (that path restarts from scratch, which the
    // arbitrary-offset runs may already cover).
    for &(start, bytes) in persists[1..].iter().take(3) {
        let quarter = dev.write_time(bytes as usize / 4);
        let at = start + quarter.max(SimDuration::from_nanos(1));
        let report = crash_run(bench, technique, at, true);
        let r = &report.recovery;
        if r.torn_discards >= 1 && r.slot_fallbacks >= 1 {
            hit = Some((at, report));
            break;
        }
    }
    let Some((at, report)) = hit else {
        panic!(
            "{bench} {}: no aimed crash instant landed mid-persist \
             (persist windows at {:?})",
            technique.label(),
            persists
        );
    };

    // The fallback recovery must satisfy the golden model, not just
    // the app's own check.
    let mut cfg = base(4).with_recovery(persist_recovery());
    cfg.faults = cfg.faults.with_node_crash(NodeCrash {
        node: VICTIM,
        at,
        restart_after: None,
    });
    let verdict = check_technique(bench, Scale::Test, technique, cfg)
        .unwrap_or_else(|e| panic!("{bench} {} oracle: {e:?}", technique.label()));
    if !verdict.ok() {
        fail_with_artifact(
            &format!("{}-{}-oracle", bench.name(), technique.label()),
            &report,
            format!(
                "oracle failed on slot-fallback recovery at {at}: {}",
                verdict.summary_line()
            ),
        );
    }
}

/// Default tier: one cell, seeded scan. The acceptance cell — a crash
/// inside the persist window recovers from the previous committed
/// slot and still passes the oracle.
#[test]
fn seeded_crash_mid_persist_falls_back() {
    sweep_cell(
        Benchmark::Radix,
        Technique::Base,
        &[(3, 10), (4, 10), (5, 10), (6, 10), (7, 10)],
    );
}

/// Full tier: crash-at-any-point sweep over RADIX/FFT × every
/// technique, eight instants per cell, fanned across cores.
#[test]
fn full_matrix_crash_at_any_point() {
    if !full_grid("persist") {
        eprintln!("skipping full persist matrix (set RSDSM_MATRIX=persist)");
        return;
    }
    let offsets: Vec<(u64, u64)> = (2..10).map(|k| (k, 10)).collect();
    let mut cells = Vec::new();
    for bench in [Benchmark::Radix, Benchmark::Fft] {
        for technique in Technique::ALL {
            cells.push((bench, technique));
        }
    }
    for_each_cell(cells, |(bench, technique)| {
        sweep_cell(bench, technique, &offsets)
    });
}

/// A crash schedule whose recovery has no checkpoint cadence is a
/// configuration error, not a silent recover-from-nothing.
#[test]
fn crash_without_cadence_fails_fast() {
    let mut cfg = base(4).with_recovery(RecoveryConfig {
        checkpoint_every: 0,
        ..RecoveryConfig::on(2)
    });
    cfg.faults = cfg.faults.with_node_crash(NodeCrash {
        node: VICTIM,
        at: SimTime::ZERO + SimDuration::from_millis(1),
        restart_after: None,
    });
    assert_eq!(
        Benchmark::Radix.run(Scale::Test, cfg).unwrap_err(),
        SimError::Config(ConfigError::CrashWithoutCadence)
    );
}

/// Persistence with nothing to persist is equally a configuration
/// error.
#[test]
fn persist_without_cadence_fails_fast() {
    let cfg = base(4).with_recovery(RecoveryConfig {
        persist: PersistConfig::on(),
        ..RecoveryConfig::off()
    });
    assert_eq!(
        Benchmark::Radix.run(Scale::Test, cfg).unwrap_err(),
        SimError::Config(ConfigError::PersistWithoutCadence)
    );
}

/// The `persist:` summary segment is gated on the config switch: a
/// persistence-off crash run emits the exact pre-persistence line
/// (byte-compatibility for every pinned summary), a persistence-on
/// run appends the device counters.
#[test]
fn summary_segment_gated_on_config() {
    let crash = NodeCrash {
        node: VICTIM,
        at: SimTime::ZERO + SimDuration::from_millis(2),
        restart_after: None,
    };

    let mut off = base(4).with_recovery(test_recovery(2));
    off.faults = off.faults.with_node_crash(crash);
    let line = Benchmark::Radix
        .run(Scale::Test, off)
        .expect("persistence-off crash run")
        .fault_summary_line()
        .expect("crash run has a summary line");
    assert!(
        !line.contains("persist:"),
        "persistence-off summary grew a persist segment: {line}"
    );

    let mut on = base(4).with_recovery(persist_recovery());
    on.faults = on.faults.with_node_crash(crash);
    let line = Benchmark::Radix
        .run(Scale::Test, on)
        .expect("persistence-on crash run")
        .fault_summary_line()
        .expect("crash run has a summary line");
    assert!(
        line.contains("; persist: ") && line.contains("flushes"),
        "persistence-on summary is missing the persist segment: {line}"
    );
}

/// Device parameters are inert while `enabled` is off: a run carrying
/// non-default bandwidth/fence numbers (but persistence disabled) is
/// digest-identical to the stock run — the persistence plumbing
/// charges nothing, draws nothing, and schedules nothing unless
/// switched on.
#[test]
fn disabled_persistence_is_digest_transparent() {
    let plain = Benchmark::Radix
        .run(Scale::Test, base(4))
        .expect("plain run");

    let mut cfg = base(4);
    cfg.recovery.persist = PersistConfig {
        enabled: false,
        write_bw: 7,
        read_bw: 9,
        fence_latency: SimDuration::from_micros(123),
        sector_bytes: 64,
    };
    let tweaked = Benchmark::Radix.run(Scale::Test, cfg).expect("tweaked run");
    assert_eq!(tweaked.recovery.torn_discards, 0);
    assert_eq!(tweaked.recovery.slot_fallbacks, 0);
    assert_eq!(
        plain.digest(),
        tweaked.digest(),
        "disabled persistence perturbed a run"
    );
}

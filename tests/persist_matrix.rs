//! The durable-checkpoint rows (DESIGN §8). A crash that lands inside a
//! persist window — while a checkpoint image still drains to the
//! modeled device — recovers from the newest committed slot, never from
//! a torn image, and the recovered run passes the full oracle
//! obligation.
//!
//! `cargo test` sweeps five crash instants over RADIX/O with a slow
//! device; `RSDSM_MATRIX=persist` (or `full`) sweeps eight over
//! RADIX/FFT × {O, P, 2T, 2TP}.

#[macro_use]
mod cells;
mod common;

use cells::{digest, frac, recovering, run, summary, Aim, Fault, Prog, Row, VICTIM};
use common::{base, for_each_cell, test_recovery};
use rsdsm::apps::Benchmark::{self, Fft, Radix};
use rsdsm::apps::Scale;
use rsdsm::core::{RecoveryConfig, TraceEvent};
use rsdsm::oracle::Technique::{self, Base};
use rsdsm::simnet::{PersistConfig, SimDuration, SimTime};
use rsdsm_bench::pool::full_grid;

/// Recovery with a slow persistent device: at 2 bytes/us a checkpoint
/// image drains for simulated milliseconds, so the persist windows
/// cover most of the run and an aimed crash lands inside one.
fn persist_recovery() -> RecoveryConfig {
    let mut recovery = test_recovery(2);
    recovery.persist = PersistConfig::on();
    (recovery.persist.write_bw, recovery.persist.read_bw) = (2, 4);
    recovery
}

/// The crash-at-any-point sweep of `bench` under `technique` with
/// persistence on. A traced crash-free dry run checks the device's
/// accounting (two flushes and fences per two-slot commit) and yields
/// the victim's persist commits. Crashes at `tenths` of the run all
/// survive; a crash aimed a quarter into a commit's drain tears the
/// newest slot, falls back to the previous one, and passes the oracle.
fn persist_sweep(bench: Benchmark, technique: Technique, tenths: impl IntoIterator<Item = u64>) {
    let prog = Prog::App(bench, Scale::Test, technique);
    let name = format!("persist_{bench}_{}", technique.label());
    let dry = Row {
        traced: true,
        holds: holds!(
            |r| r.recovery.checkpoints_taken >= 2,
            r.recovery.persist_bytes > 0,
            r.recovery.flushes >= 2 * r.recovery.checkpoints_taken,
            r.recovery.fences >= 2 * r.recovery.checkpoints_taken,
            r.recovery.torn_discards == 0,
            r.recovery.slot_fallbacks == 0,
        ),
        ..Row::new(&name, prog, base(4).with_recovery(persist_recovery()))
    };
    let at = |at: SimTime, holds| Row {
        name: format!("{name}_{}ns", at.as_nanos()),
        fault: Some((Fault::Crash(None), Aim::At(at))),
        traced: false,
        holds,
        ..dry.clone()
    };
    dry.clone().check();
    let (report, trace) = run(prog, &dry.cfg, true, &name);
    let records = trace.iter().flat_map(|t| &t.records);
    let commits: Vec<(SimTime, u32)> = records
        .filter_map(|r| match r.event {
            TraceEvent::PersistCommit { bytes, .. } if r.node == VICTIM as u32 => {
                Some((r.at, bytes))
            }
            _ => None,
        })
        .collect();
    assert!(commits.len() >= 2, "{name}: two commits to fall back");
    for k in tenths {
        let crash = frac(report.total_time, k, 10);
        at(crash, holds!(|r| r.recovery.crashes == 1)).check();
    }
    // Tearing the first commit leaves no committed slot to fall back
    // to (that path restarts from scratch), so aim past it.
    let device = persist_recovery().persist;
    let fallback = commits[1..].iter().take(3).find_map(|&(start, bytes)| {
        let quarter = device.write_time(bytes as usize / 4);
        let holds = holds!(|r| r.recovery.crashes == 1, r.recovery.recoveries >= 1);
        let row = at(start + quarter.max(SimDuration::from_nanos(1)), holds);
        row.clone().check();
        let r = &run(prog, &row.armed(), false, &row.name).0.recovery;
        (r.torn_discards >= 1 && r.slot_fallbacks >= 1).then_some(row)
    });
    let mut fallback = fallback.unwrap_or_else(|| panic!("{name}: no crash tore a slot"));
    fallback.oracle = true;
    fallback.check();
}

#[test]
fn seeded_crash_mid_persist_falls_back() {
    persist_sweep(Radix, Base, 3..8);
}

#[test]
fn full_matrix_crash_at_any_point() {
    if full_grid("persist") {
        let cells = [Radix, Fft]
            .into_iter()
            .flat_map(|b| Technique::ALL.map(|t| (b, t)));
        for_each_cell(cells.collect(), |(b, t)| persist_sweep(b, t, 2..10));
    }
}

/// The `persist:` summary segment is gated on the plan's cadence
/// having a device: a persistence-off crash run emits the exact
/// pre-persistence line (the byte-compatibility every pinned summary
/// relies on); a persistence-on run appends the device counters, and
/// so does a fault-free run that only checkpoints to its device — a
/// run that took checkpoints is never summarised as quiet.
#[test]
fn summary_segment_gated_on_config() {
    let crash = Some((Fault::Crash(None), Aim::At(SimTime::from_millis(2))));
    let off = Row {
        fault: crash,
        holds: holds!(
            |r| summary(r).starts_with("faults:"),
            !summary(r).contains("persist:")
        ),
        ..Row::app("persist_off_summary", Radix, recovering())
    };
    let on = Row {
        fault: crash,
        holds: holds!(
            |r| summary(r).contains("; persist: "),
            summary(r).contains("flushes")
        ),
        ..Row::app(
            "persist_on_summary",
            Radix,
            base(4).with_recovery(persist_recovery()),
        )
    };
    let fault_free = Row {
        holds: holds!(
            |r| r.recovery.checkpoints_taken > 0,
            summary(r).contains("; recovery: 0 crashes"),
            summary(r).contains("; persist: "),
        ),
        ..Row::app(
            "persist_fault_free_summary",
            Radix,
            base(4).with_recovery(RecoveryConfig {
                enabled: false,
                ..persist_recovery()
            }),
        )
    };
    for_each_cell(vec![off, on, fault_free], Row::check);
}

/// Device parameters are inert while persistence is off: they charge,
/// draw and schedule nothing.
#[test]
fn disabled_persistence_is_digest_transparent() {
    let name = "disabled_persistence_is_digest_transparent";
    let mut persist_off = base(4);
    let device = &mut persist_off.recovery.persist;
    (device.write_bw, device.read_bw, device.sector_bytes) = (7, 9, 64);
    device.fence_latency = SimDuration::from_micros(123);
    Row {
        holds: holds!(
            |r| r.recovery.torn_discards == 0,
            r.recovery.slot_fallbacks == 0
        ),
        same_as: Some((base(4), digest)),
        ..Row::app(name, Radix, persist_off)
    }
    .check()
}

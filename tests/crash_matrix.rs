//! The crash rows (DESIGN §8). Every application survives a crash of
//! node 2 half-way through a crash-free dry run, for good or for a
//! 5 ms outage, under every technique, with the full oracle obligation:
//! no invariant violation, a final image byte-identical to the golden
//! sequential executor, digest-identical repeat runs, and both runs
//! verified.
//!
//! `cargo test` runs SOR, RADIX and WATER-NSQ under O and 2TP;
//! `RSDSM_MATRIX=crash` (or `full`) runs 8 apps × {O, P, 2T, 2TP} ×
//! {crash-stop, crash-restart}.

#[macro_use]
mod cells;
mod common;

use cells::{aimed_grid, digest, Aim, Fault, Row, Shape};
use common::base;
use rsdsm::apps::Benchmark::{self, Radix, Sor, WaterNsq};
use rsdsm::core::{RecoveryStats, RunReport};
use rsdsm::oracle::Technique::{self, Base, Combined};
use rsdsm::simnet::SimDuration;
use rsdsm_bench::pool::full_grid;

const STOP: Shape = ("stop", Fault::Crash(None), Aim::Frac(1, 2));
const RESTART: Shape = (
    "restart",
    Fault::Crash(Some(SimDuration::from_millis(5))),
    Aim::Frac(1, 2),
);

/// The victim crashes once, a replacement rejoins from a checkpoint.
fn crash_grid(benches: &[Benchmark], techniques: &[Technique], shapes: &[Shape]) {
    let holds = holds!(
        |r| r.recovery.crashes == 1,
        r.recovery.recoveries >= 1,
        r.recovery.checkpoints_taken >= 1,
    );
    aimed_grid("crash", benches, techniques, shapes, &holds);
}

#[test]
fn fast_subset_crash_stop() {
    crash_grid(&[Sor, Radix, WaterNsq], &[Base, Combined], &[STOP]);
}

#[test]
fn fast_subset_crash_restart() {
    crash_grid(&[Sor, Radix], &[Base, Combined], &[RESTART]);
}

#[test]
fn full_matrix() {
    if full_grid("crash") {
        crash_grid(&Benchmark::ALL, &Technique::ALL, &[STOP, RESTART]);
    }
}

/// Checkpoint capture charges no CPU, draws no randomness and
/// schedules no events: past its own counters, a crash-free run with
/// checkpointing is digest-identical to one without.
#[test]
fn checkpointing_is_digest_transparent() {
    let name = "checkpointing_is_digest_transparent";
    let mut checkpointing = base(4);
    checkpointing.recovery.checkpoint_every = 4;
    let sans_recovery = |r: &RunReport| {
        digest(&RunReport {
            recovery: RecoveryStats::default(),
            ..r.clone()
        })
    };
    Row {
        holds: holds!(
            |r| r.recovery.checkpoints_taken >= 1,
            r.recovery.crashes == 0
        ),
        same_as: Some((base(4), sans_recovery)),
        ..Row::app(name, Radix, checkpointing)
    }
    .check()
}

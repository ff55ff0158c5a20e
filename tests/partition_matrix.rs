//! The partition rows (DESIGN §8). Every application survives node 2
//! being cut away for 5 ms — both ways, one way, or on a checkpoint
//! capture — under every technique, with the full oracle obligation.
//! On top, every cell holds the quorum rule's split-brain guarantee:
//! the suspected-but-alive node freezes, rejoins after the heal, and is
//! never confirmed down (no phantom crash, no RecoveryStart).
//!
//! The cut lands half-way through a cut-free dry run, or on the first
//! capture past a quarter of a traced one. `cargo test` runs SOR, RADIX
//! and WATER-NSQ under O and 2TP; `RSDSM_MATRIX=partition` (or `full`)
//! runs 8 apps × {O, P, 2T, 2TP} × {clean, asym, on-checkpoint}.

#[macro_use]
mod cells;
mod common;

use cells::{aimed_grid, digest, recovering, Aim, Fault, Row, Shape, HEAL_AFTER};
use rsdsm::apps::Benchmark::{self, Radix, Sor, WaterNsq};
use rsdsm::oracle::Technique::{self, Base, Combined};
use rsdsm::simnet::SimTime;
use rsdsm_bench::pool::full_grid;

const CLEAN: Shape = ("clean", Fault::Cut { asym: false }, Aim::Frac(1, 2));
const ASYM: Shape = ("asym", Fault::Cut { asym: true }, Aim::Frac(1, 2));
const ON_CHECKPOINT: Shape = ("on_checkpoint", Fault::Cut { asym: false }, Aim::Checkpoint);

/// The victim freezes once, rejoins once after the heal, and is never
/// confirmed down.
fn partition_grid(benches: &[Benchmark], techniques: &[Technique], shapes: &[Shape]) {
    let holds = holds!(
        |r| r.recovery.partitions == 1,
        r.recovery.partition_freezes == 1,
        r.recovery.partition_rejoins == 1,
        r.recovery.partition_reconcile_time >= HEAL_AFTER,
        r.recovery.crashes == 0,
        r.recovery.recoveries == 0,
    );
    aimed_grid("partition", benches, techniques, shapes, &holds);
}

#[test]
fn fast_subset_clean_cut() {
    partition_grid(&[Sor, Radix, WaterNsq], &[Base, Combined], &[CLEAN]);
}

#[test]
fn fast_subset_asym_and_checkpoint_cuts() {
    partition_grid(&[Sor, Radix], &[Base, Combined], &[ASYM, ON_CHECKPOINT]);
}

#[test]
fn full_matrix() {
    if full_grid("partition") {
        let shapes = [CLEAN, ASYM, ON_CHECKPOINT];
        partition_grid(&Benchmark::ALL, &Technique::ALL, &shapes);
    }
}

/// A cut the run never reaches changes nothing: same events, same
/// timings, same digest.
#[test]
fn unused_partition_schedule_is_digest_transparent() {
    let name = "unused_partition_schedule_is_digest_transparent";
    let never = Aim::At(SimTime::from_millis(10_000));
    Row {
        fault: Some((Fault::Cut { asym: false }, never)),
        holds: holds!(
            |r| r.recovery.partitions == 0,
            r.fault_injection.partition_drops == 0
        ),
        same_as: Some((recovering(), digest)),
        ..Row::app(name, Radix, recovering())
    }
    .check()
}

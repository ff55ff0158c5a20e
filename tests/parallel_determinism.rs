//! The parallel scheduler's determinism contract, pinned end to end:
//! fanning simulation cells across worker threads must change
//! *nothing* about their results — not the report digests, not the
//! RTR1 trace bytes — because every cell is a pure function of its
//! config and owns all of its state. `rsdsm_bench::pool::run` only
//! reorders wall-clock execution, never results (it returns them in
//! task order).
//!
//! The grid deliberately includes the stateful-looking cases: a lossy
//! run (fault injector RNG), a crash-restart run (recovery machinery),
//! and a partition+heal run (quorum freeze and checkpoint rejoin), on
//! top of the standard RADIX/FFT × O/P/2T/2TP matrix.

mod common;

use common::{base, test_recovery};
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{
    DsmConfig, FaultPlan, NodeCrash, Partition, PrefetchConfig, QueueBackend, TransportConfig,
};
use rsdsm::oracle::Technique;
use rsdsm::simnet::{SimDuration, SimTime};
use rsdsm_bench::pool;

/// One grid cell: a fully-specified config the cell runs under, plus
/// a label for failure messages.
#[derive(Clone)]
struct Cell {
    label: String,
    bench: Benchmark,
    cfg: DsmConfig,
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in [Benchmark::Radix, Benchmark::Fft] {
        for tech in Technique::ALL {
            cells.push(Cell {
                label: format!("{bench} [{}]", tech.label()),
                bench,
                cfg: tech.configure(bench, base(4)),
            });
        }
    }
    // A lossy cell: the fault injector draws from its own seeded RNG,
    // which must not observe the worker count.
    cells.push(Cell {
        label: "FFT [O, 5% loss]".into(),
        bench: Benchmark::Fft,
        cfg: base(4).with_faults(FaultPlan::uniform_loss(0xFA11, 0.05)),
    });
    // A crash-restart cell: checkpoints, suspicion, park-and-resume.
    let mut outage = base(4)
        .with_recovery(test_recovery(2))
        .with_transport(TransportConfig {
            initial_rto: SimDuration::from_millis(1),
            max_retries: 3,
            ..TransportConfig::default()
        });
    outage.faults = outage.faults.with_node_crash(NodeCrash {
        node: 2,
        at: SimTime::from_millis(2),
        restart_after: Some(SimDuration::from_millis(20)),
    });
    cells.push(Cell {
        label: "RADIX [O, crash-restart]".into(),
        bench: Benchmark::Radix,
        cfg: outage,
    });
    // A partition+heal cell: quorum freeze, parked suspicions, and the
    // time-shifted checkpoint rejoin must all be worker-count-blind.
    let mut cut = base(4).with_recovery(test_recovery(2));
    cut.faults = cut.faults.with_partition(Partition::cut(
        vec![vec![2]],
        SimTime::from_millis(2),
        SimDuration::from_millis(5),
    ));
    cells.push(Cell {
        label: "RADIX [O, partition-heal]".into(),
        bench: Benchmark::Radix,
        cfg: cut,
    });
    // Adaptive-prefetch cells: the stride detectors, throttle
    // controllers, and too-late joins are per-node state inside the
    // cell, so they must be as worker-count- and backend-blind as
    // everything else.
    cells.push(Cell {
        label: "FFT [A]".into(),
        bench: Benchmark::Fft,
        cfg: base(4).with_prefetch(PrefetchConfig::adaptive()),
    });
    cells.push(Cell {
        label: "RADIX [A+P]".into(),
        bench: Benchmark::Radix,
        cfg: base(4).with_prefetch(PrefetchConfig::adaptive_static()),
    });
    cells
}

/// Runs every grid cell on `jobs` workers and returns each cell's
/// (report digest, trace digest, RTR1 byte length).
fn digests_at(jobs: usize) -> Vec<(String, u64, u64, usize)> {
    let tasks: Vec<_> = grid()
        .into_iter()
        .map(|cell| {
            move || {
                let (report, trace) = cell
                    .bench
                    .run_traced(Scale::Test, cell.cfg)
                    .unwrap_or_else(|e| panic!("{}: {e}", cell.label));
                assert!(report.verified, "{}: result corrupted", cell.label);
                (
                    cell.label,
                    report.digest(),
                    trace.digest(),
                    trace.encode().len(),
                )
            }
        })
        .collect();
    pool::run(jobs, tasks)
}

/// The whole grid digests identically at `--jobs 1` and `--jobs 8`:
/// parallel scheduling is invisible in the results.
///
/// This thread first drives every cell itself (`jobs = 1`: it parks in
/// the conductor's hand-off and its application threads `unpark` it),
/// then blocks on the pool's `mpsc` receiver, which parks on the same
/// per-thread token. The two cannot confuse each other: both re-check
/// their own state after every `park`, so a wake-up that arrives late
/// from the other mechanism costs one spurious turn of the loop and
/// can never be a lost one.
#[test]
fn parallel_and_serial_cells_are_digest_identical() {
    let serial = digests_at(1);
    let parallel = digests_at(8);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s, p,
            "cell diverged between jobs=1 and jobs=8 \
             (label, report digest, trace digest, RTR1 len)"
        );
    }
}

/// Oversubscription (more workers than cells, and workers racing over
/// a tiny queue) is equally invisible.
#[test]
fn oversubscribed_pool_changes_nothing() {
    let reference = digests_at(1);
    let oversubscribed = digests_at(64);
    assert_eq!(reference, oversubscribed);
}

/// Like [`digests_at`], but pinning the event-queue backend instead of
/// the worker count (workers fixed at 4).
fn digests_on(backend: QueueBackend) -> Vec<(String, u64, u64, usize)> {
    let tasks: Vec<_> = grid()
        .into_iter()
        .map(|cell| {
            move || {
                let (report, trace) = cell
                    .bench
                    .run_traced_queued(Scale::Test, cell.cfg, backend)
                    .unwrap_or_else(|e| panic!("{} [{}]: {e}", cell.label, backend.label()));
                assert!(report.verified, "{}: result corrupted", cell.label);
                (
                    cell.label,
                    report.digest(),
                    trace.digest(),
                    trace.encode().len(),
                )
            }
        })
        .collect();
    pool::run(4, tasks)
}

/// Observer-freedom of the adaptive machinery: a run outside the
/// adaptive modes reports no adaptive tallies, and an enabled run
/// reports them, so the gate is the mode.
#[test]
fn disabled_adaptive_is_byte_transparent() {
    let plain = Benchmark::Radix
        .run(Scale::Test, base(4))
        .expect("plain RADIX");
    assert!(plain.adaptive.is_none());
    let on = Benchmark::Radix
        .run(
            Scale::Test,
            base(4).with_prefetch(PrefetchConfig::adaptive()),
        )
        .expect("adaptive RADIX");
    assert!(on.adaptive.is_some());
    assert_ne!(on.digest(), plain.digest());
}

/// The timing-wheel queue and the binary-heap reference produce
/// byte-identical results over the whole grid — report digests, RTR1
/// trace digests, and encoded trace lengths all match, including the
/// lossy, crash-restart, and partition+heal cells whose event
/// schedules are the most irregular. This is the end-to-end
/// counterpart of the queue-level differential suite
/// (`crates/simnet/tests/wheel_equivalence.rs`): the engine cannot
/// tell the two backends apart.
#[test]
fn wheel_and_heap_backends_are_digest_identical() {
    let wheel = digests_on(QueueBackend::Wheel);
    let heap = digests_on(QueueBackend::Heap);
    assert_eq!(wheel.len(), heap.len());
    for (w, h) in wheel.iter().zip(&heap) {
        assert_eq!(
            w, h,
            "cell diverged between wheel and heap backends \
             (label, report digest, trace digest, RTR1 len)"
        );
    }
}

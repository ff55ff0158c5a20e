//! The fault-injection matrix.
//!
//! Every application must produce correct (verified) results under
//! every fault plan in the grid — injected loss, duplication,
//! reordering, degradation windows, node stalls — because the
//! reliable transport recovers control traffic and the prefetch
//! protocol was designed to survive losing droppable traffic. And
//! identical (config, plan, seed) runs must produce byte-identical
//! reports: fault injection is deterministic, not flaky.
//!
//! The default grid is a smoke-sized subset so `cargo test` stays
//! fast; `RSDSM_MATRIX=fault` (or `full`) runs the full grid (loss
//! 0–20%, duplication, reordering, degraded windows) over all
//! applications.

mod common;

use common::{base, for_each_cell};
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{DegradedWindow, FaultPlan, NodeStall};
use rsdsm::simnet::{SimDuration, SimTime};
use rsdsm_bench::pool::full_grid;

/// A plan mixing every fault class the injector supports.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::uniform_loss(seed, 0.10)
        .with_duplication(0.10)
        .with_reordering(0.25, SimDuration::from_micros(400))
        .with_jitter(SimDuration::from_micros(30))
        .with_degraded_window(DegradedWindow {
            from: SimTime::from_millis(1),
            until: SimTime::from_millis(40),
            node: Some(1),
            extra_drop: 0.25,
            extra_latency: SimDuration::from_micros(250),
        })
        .with_node_stall(NodeStall {
            node: 2,
            from: SimTime::from_millis(5),
            until: SimTime::from_millis(9),
        })
}

/// The fault-plan grid; the smoke subset marks which plans every
/// `cargo test` run covers.
fn grid() -> Vec<(&'static str, FaultPlan)> {
    let mut plans = vec![
        ("none", FaultPlan::none()),
        ("loss20", FaultPlan::uniform_loss(0xFA11, 0.20)),
        ("chaos", chaos_plan(0xC4A5)),
    ];
    if full_grid("fault") {
        plans.push(("loss05", FaultPlan::uniform_loss(0x105, 0.05)));
        plans.push(("loss10", FaultPlan::uniform_loss(0x10A, 0.10)));
        plans.push((
            "dup",
            FaultPlan::none().with_seed(0xD0B).with_duplication(0.15),
        ));
        plans.push((
            "reorder",
            FaultPlan::none()
                .with_seed(0x4E0)
                .with_reordering(0.30, SimDuration::from_micros(500)),
        ));
    }
    plans
}

/// Every application completes, verifies, and — under lossy plans —
/// actually exercises the retry machinery.
#[test]
fn all_apps_survive_the_fault_grid() {
    let mut cells = Vec::new();
    for bench in Benchmark::ALL {
        for (name, plan) in grid() {
            cells.push((bench, name, plan));
        }
    }
    for_each_cell(cells, |(bench, name, plan)| {
        let lossy = !plan.drop.control.is_nan() && plan.drop.control > 0.0;
        let r = bench
            .run(Scale::Test, base(4).with_faults(plan))
            .unwrap_or_else(|e| panic!("{bench} under plan {name}: {e}"));
        assert!(r.verified, "{bench} result corrupted under plan {name}");
        if name == "none" {
            assert_eq!(
                r.transport.retransmissions, 0,
                "{bench}: fault-free runs must never retransmit"
            );
            assert_eq!(r.fault_injection.injected_drops, 0);
        }
        if lossy {
            assert!(
                r.fault_injection.injected_drops > 0,
                "{bench} under {name}: plan injected nothing"
            );
            assert!(
                r.transport.retransmissions > 0,
                "{bench} under {name}: losses must provoke retransmissions"
            );
            assert!(
                r.fault_summary_line().is_some(),
                "{bench} under {name}: summary line must report the faults"
            );
        }
    });
}

/// Same seed, same plan ⇒ byte-identical report, twice over.
#[test]
fn fault_runs_are_byte_identical() {
    for bench in [Benchmark::Sor, Benchmark::WaterSp] {
        let cfg = || base(4).with_faults(chaos_plan(0xBEEF));
        let a = bench.run(Scale::Test, cfg()).expect("run 1");
        let b = bench.run(Scale::Test, cfg()).expect("run 2");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{bench}: identical fault runs diverged"
        );
    }
}

/// An installed-but-empty plan is transparent end to end: the run is
/// byte-identical to one with no plan installed at all.
#[test]
fn empty_plan_is_transparent_end_to_end() {
    let plain = Benchmark::LuCont.run(Scale::Test, base(4)).expect("plain");
    let planned = Benchmark::LuCont
        .run(Scale::Test, base(4).with_faults(FaultPlan::none()))
        .expect("planned");
    assert_eq!(format!("{plain:?}"), format!("{planned:?}"));
}

/// Dropped prefetch traffic degrades to demand faults: under heavy
/// loss a prefetch-enabled run still verifies, loses some prefetch
/// requests or replies, and counts the faults it fell back to.
#[test]
fn prefetch_fallback_absorbs_injected_loss() {
    let bench = Benchmark::Sor;
    let r = bench
        .run(
            Scale::Default,
            base(8)
                .with_prefetch(bench.paper_prefetch())
                .with_faults(FaultPlan::uniform_loss(0x50F7, 0.20)),
        )
        .expect("prefetch under loss");
    assert!(
        r.verified,
        "non-binding prefetching must stay safe under loss"
    );
    assert!(r.prefetch.messages > 0);
    let lost = r.prefetch.send_drops + r.prefetch.reply_drops;
    assert!(
        lost > 0,
        "20% loss must claim some prefetch traffic (send_drops={}, reply_drops={})",
        r.prefetch.send_drops,
        r.prefetch.reply_drops
    );
    assert!(
        r.prefetch.too_late + r.prefetch.no_pf + r.prefetch.invalidated > 0,
        "lost prefetches must surface as demand faults"
    );
    assert!(
        r.transport.retransmissions > 0,
        "control traffic must have been recovered by retries"
    );
}

/// The transport's duplicate suppression shields the engine: heavy
/// duplication changes nothing about correctness, and the suppressed
/// copies are counted.
#[test]
fn duplication_is_suppressed_not_delivered() {
    let plan = FaultPlan::none().with_seed(0xD1D1).with_duplication(0.30);
    let r = Benchmark::Fft
        .run(Scale::Test, base(4).with_faults(plan))
        .expect("duplication run");
    assert!(r.verified);
    assert!(r.fault_injection.duplicates > 0, "plan duplicated nothing");
    assert!(
        r.transport.dup_frames_suppressed > 0,
        "duplicated reliable frames must be suppressed at the receiver"
    );
    assert_eq!(
        r.transport.retransmissions, 0,
        "duplication alone never retries"
    );
}

/// Reordering on the wire is invisible above the transport: frames
/// are buffered and released in order, and the run still verifies.
#[test]
fn reordering_is_restored_to_fifo() {
    let plan = FaultPlan::none()
        .with_seed(0x0F1F0)
        .with_reordering(0.40, SimDuration::from_micros(600));
    let r = Benchmark::Radix
        .run(Scale::Test, base(4).with_faults(plan))
        .expect("reorder run");
    assert!(r.verified);
    assert!(r.fault_injection.reordered > 0, "plan reordered nothing");
    assert!(
        r.transport.buffered_out_of_order > 0,
        "reordered frames must pass through the resequencing buffer"
    );
}

//! The fault-injection rows (DESIGN §8). Every application verifies
//! under every fault plan of the grid — injected loss, duplication,
//! reordering, degraded windows, node stalls — because the reliable
//! transport recovers control traffic and the prefetch protocol
//! survives losing droppable traffic; and identical (config, plan,
//! seed) runs produce byte-identical reports.
//!
//! `cargo test` runs three plans per application; `RSDSM_MATRIX=fault`
//! (or `full`) adds the other four.

#[macro_use]
mod cells;
mod common;

use cells::{debug, faulty, Prog, Row};
use common::{base, for_each_cell};
use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{DsmConfig, ThreadConfig};
use rsdsm::oracle::Technique;
use rsdsm::simnet::{DegradedWindow, FaultPlan, NodeStall, SimDuration, SimTime};
use rsdsm_bench::pool::full_grid;
use Benchmark::{Fft, LuCont, Radix, Sor, WaterNsq, WaterSp};

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

/// Every application under every plan of the grid verifies; without
/// faults it never retransmits; under loss it drops, retries and says
/// so in its summary line.
#[test]
fn all_apps_survive_the_fault_grid() {
    let mut plans = vec![
        ("none", FaultPlan::none()),
        ("loss20", FaultPlan::uniform_loss(0xFA11, 0.20)),
        ("chaos", chaos_plan(0xC4A5)),
    ];
    if full_grid("fault") {
        let dup = FaultPlan::none().with_seed(0xD0B).with_duplication(0.15);
        let reorder = FaultPlan::none().with_seed(0x4E0);
        let reorder = reorder.with_reordering(0.30, SimDuration::from_micros(500));
        plans.extend([
            ("loss05", FaultPlan::uniform_loss(0x105, 0.05)),
            ("loss10", FaultPlan::uniform_loss(0x10A, 0.10)),
            ("dup", dup),
            ("reorder", reorder),
        ]);
    }
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        for (plan, faults) in plans.iter().cloned() {
            rows.push(Row {
                holds: match plan {
                    "none" => holds!(
                        |r| r.transport.retransmissions == 0,
                        r.fault_injection.injected_drops == 0
                    ),
                    _ if faults.drop.control > 0.0 => holds!(
                        |r| r.fault_injection.injected_drops > 0,
                        r.transport.retransmissions > 0,
                        r.fault_summary_line().is_some(),
                    ),
                    _ => Vec::new(),
                },
                ..Row::app(format!("fault_{bench}_{plan}"), bench, faulty(faults))
            });
        }
    }
    for_each_cell(rows, Row::check);
}

/// Same seed, same plan: byte-identical reports, twice over.
#[test]
fn fault_runs_are_byte_identical() {
    for (name, bench) in [("chaos_sor", Sor), ("chaos_water_sp", WaterSp)] {
        Row::app(name, bench, faulty(chaos_plan(0xBEEF)))
            .repeated()
            .check();
    }
}

/// An installed-but-empty fault plan is byte-identical to none.
#[test]
fn empty_plan_is_transparent_end_to_end() {
    let name = "empty_plan_is_transparent_end_to_end";
    Row {
        same_as: Some((base(4), debug)),
        ..Row::app(name, LuCont, faulty(FaultPlan::none()))
    }
    .check()
}

/// Dropped prefetch traffic degrades to demand faults: under 20 % loss
/// a prefetching SOR stays safe, loses prefetches, counts the faults it
/// fell back to, and retries its control traffic.
#[test]
fn prefetch_fallback_absorbs_injected_loss() {
    let name = "prefetch_fallback_absorbs_injected_loss";
    let sor_lossy = base(8).with_faults(FaultPlan::uniform_loss(0x50F7, 0.20));
    let prog = Prog::App(Sor, Scale::Default, Technique::Prefetch);
    Row {
        holds: holds!(
            |r| r.prefetch.messages > 0,
            r.prefetch.send_drops + r.prefetch.reply_drops > 0,
            r.prefetch.too_late + r.prefetch.no_pf + r.prefetch.invalidated > 0,
            r.transport.retransmissions > 0,
        ),
        ..Row::new(name, prog, sor_lossy)
    }
    .check()
}

/// The transport suppresses and counts duplicated frames; duplication
/// alone never retries.
#[test]
fn duplication_is_suppressed_not_delivered() {
    let name = "duplication_is_suppressed_not_delivered";
    let plan = FaultPlan::none().with_seed(0xD1D1).with_duplication(0.30);
    Row {
        holds: holds!(
            |r| r.fault_injection.duplicates > 0,
            r.transport.dup_frames_suppressed > 0,
            r.transport.retransmissions == 0,
        ),
        ..Row::app(name, Fft, faulty(plan))
    }
    .check()
}

/// Reordering on the wire is invisible above the transport: frames
/// pass through the resequencing buffer.
#[test]
fn reordering_is_restored_to_fifo() {
    let name = "reordering_is_restored_to_fifo";
    let plan = FaultPlan::none().with_seed(0x0F1F0);
    let plan = plan.with_reordering(0.40, SimDuration::from_micros(600));
    Row {
        holds: holds!(
            |r| r.fault_injection.reordered > 0,
            r.transport.buffered_out_of_order > 0
        ),
        ..Row::app(name, Radix, faulty(plan))
    }
    .check()
}

/// A run's multithreading stalls are its memory, lock and barrier
/// stalls together, in time and in count, under faults as without.
#[test]
fn mt_stalls_are_the_three_stall_classes() {
    let name = "mt_stalls_are_the_three_stall_classes";
    let prog = Prog::App(WaterNsq, Scale::Test, Technique::Combined);
    let cfg = faulty(FaultPlan::uniform_loss(0x57A1, 0.05));
    Row {
        holds: holds!(
            |r| r.misses.stall_sum > SimDuration::ZERO,
            r.locks.waits > 0 && r.barriers.waits > 0,
            r.mt.stall_sum == r.misses.stall_sum + r.locks.stall_sum + r.barriers.stall_sum,
            r.mt.stall_count == r.misses.misses + r.locks.waits + r.barriers.waits,
        ),
        ..Row::new(name, prog, cfg)
    }
    .check()
}

/// A prefetch reply carries the diff of the interval its service split
/// off, ahead of the server's earlier intervals of the page. These two
/// WATER-NSQ cells (four threads a node, combined prefetching, 5 % loss)
/// once applied that diff first and let the earlier ones roll it back:
/// the runs finished with a wrong image, though no invariant fired and
/// the golden replay verified.
#[test]
fn split_interval_diffs_wait_for_earlier_intervals() {
    for (nodes, seed) in [(2, 3), (4, 5)] {
        let cfg = DsmConfig::paper_cluster(nodes)
            .with_seed(seed)
            .with_faults(FaultPlan::uniform_loss(seed ^ 0xFA17, 0.05))
            .with_threads(ThreadConfig::combined(4))
            .with_prefetch(WaterNsq.combined_prefetch());
        let prog = Prog::App(WaterNsq, Scale::Test, Technique::Base);
        let name = format!("water_nsq_4tp_loss05_{nodes}_nodes_seed_{seed}");
        Row {
            oracle: true,
            ..Row::new(name, prog, cfg)
        }
        .check();
    }
}

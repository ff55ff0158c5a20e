//! The scale-out rows (DESIGN §8). Switched topologies and
//! directory-sharded homes carry the full oracle obligation at 64
//! nodes, the flat-bus default changes nothing, failure monitoring on
//! the fabric sends O(N) heartbeats per idle round instead of O(N²),
//! and the 256/1024-node tiers complete under the wheel engine.
//!
//! `cargo test` runs the 64-node cells; `RSDSM_MATRIX=scaling` (or
//! `full`) adds the 256- and 1024-node tiers.

#[macro_use]
mod cells;
mod common;

use cells::{digest, fabric, on_fabric, summary, Prog, Row};
use common::{base, for_each_cell};
use rsdsm::apps::Benchmark::{self, Fft, Radix};
use rsdsm::apps::Scale;
use rsdsm::core::{
    BarrierId, DirectoryConfig, DsmTask, Heap, HomePolicy, RecoveryConfig, SharedVec, Simulation,
    TaskCtx, Topology, PAGE_SIZE,
};
use rsdsm::oracle::Technique::{self, Base, Combined, Prefetch};
use rsdsm::simnet::SimDuration;
use rsdsm_bench::pool::full_grid;

/// A fabric cell under the full oracle obligation. The golden executor
/// knows nothing of topologies or directories, so a pass means the
/// scaled-out cluster computes what a sequential machine would.
fn fabric_row(nodes: usize, bench: Benchmark, tech: Technique) -> Row {
    let name = format!("fabric_{bench}_{}_{nodes}", tech.label());
    let prog = Prog::App(bench, Scale::Test, tech);
    Row {
        oracle: true,
        ..Row::new(name, prog, on_fabric(nodes))
    }
}

#[test]
fn oracle_holds_at_64_nodes_on_the_fabric() {
    let rows = vec![
        fabric_row(64, Radix, Base),
        fabric_row(64, Radix, Prefetch),
        fabric_row(64, Fft, Base),
        fabric_row(32, Radix, Combined),
    ];
    for_each_cell(rows, Row::check);
}

/// The 256- and 1024-node tiers: the oracle on FFT at 256 nodes (its
/// six-step blocks go empty on surplus nodes) and the 1024-node
/// hot-spot completing under the wheel engine.
#[test]
fn full_matrix_big_tiers() {
    if full_grid("scaling") {
        let hot_spot = Row {
            holds: holds!(|r| r.events_processed > 0),
            ..Row::new("hot_spot_1024", Prog::HotSpot, on_fabric(1024))
        };
        let rows = vec![hot_spot, fabric_row(256, Fft, Base)];
        for_each_cell(rows, Row::check);
    }
}

/// An idle program long enough to cover many heartbeat rounds.
struct IdleRounds;

impl DsmTask for IdleRounds {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "idle-rounds".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(PAGE_SIZE / 8, HomePolicy::Single(0))
    }

    async fn run(&self, ctx: &mut TaskCtx, _v: &Self::Handles) {
        ctx.compute(SimDuration::from_millis(100));
        ctx.barrier(BarrierId(0)).await;
    }
}

/// On the fabric each idle heartbeat round sends O(N) heartbeats
/// (members → rack leader, leaders ↔ manager) where the flat bus's
/// all-to-all mesh sends N·(N−1). 5 ms rounds are a cadence the 64-node
/// mesh sustains without a suspicion storm, so both runs end.
#[test]
fn hierarchical_monitoring_sends_linear_heartbeats_per_round() {
    let (n, round) = (64, SimDuration::from_millis(5));
    let recovery = RecoveryConfig {
        heartbeat_every: round,
        lease_timeout: SimDuration::from_millis(25),
        confirm_grace: round,
        ..RecoveryConfig::on(2)
    };
    let [mesh, hier] = [Topology::FlatBus, fabric()].map(|topology| {
        let cfg = base(n as usize).with_topology(topology);
        let r = Simulation::new(cfg.with_recovery(recovery)).run(&IdleRounds);
        let r = r.expect("idle run");
        assert!(r.verified, "the idle run verifies");
        let rounds = r.total_time.as_nanos() / round.as_nanos();
        let sent = r.recovery.heartbeats_sent;
        (sent, sent / rounds.max(1))
    });
    // The mesh really is quadratic-shaped (a check on the test itself)…
    assert!(mesh.1 > n * (n - 1) / 2, "mesh: {mesh:?} at {n} nodes");
    // …and the hierarchy linear: a member sends 1, a rack leader at most
    // rack_size + 1, the manager at most racks + rack_size.
    assert!(hier.1 <= 4 * n, "not O(N): {hier:?} at {n} nodes");
    assert!(hier.0 * 8 < mesh.0, "{hier:?} barely beats {mesh:?}");
}

/// Directory sharding engages at 64 nodes: fetches reach sharded homes,
/// and the summary line says so.
#[test]
fn directory_counters_engage_at_64_nodes() {
    let name = "directory_counters_engage_at_64_nodes";
    Row {
        holds: holds!(
            |r| r.directory.home_hits > 0,
            summary(r).contains("directory:")
        ),
        ..Row::new(name, Prog::HotSpot, on_fabric(64))
    }
    .check()
}

/// The topology and directory defaults spelled out reproduce the
/// pinned RADIX/O trace of `trace_snapshots.rs` and an untouched run's
/// report.
#[test]
fn flat_bus_default_reproduces_pinned_digests() {
    let name = "flat_bus_default_reproduces_pinned_digests";
    let explicit = base(4).with_topology(Topology::FlatBus);
    Row {
        traced: true,
        pins: "trace: 0x249303d259b67b8e, 811 records",
        same_as: Some((base(4), digest)),
        ..Row::app(name, Radix, explicit.with_directory(DirectoryConfig::off()))
    }
    .check()
}

//! The scale-out rows (DESIGN §8). Switched topologies and
//! directory-sharded homes carry the full oracle obligation at 64
//! nodes, the flat-bus default changes nothing, failure monitoring on
//! the fabric sends O(N) heartbeats per idle round instead of O(N²),
//! hash-placed homes lose no write, and the 256/1024-node tiers
//! complete under the wheel engine.
//!
//! `cargo test` runs the 64-node cells; `RSDSM_MATRIX=scaling` (or
//! `full`) adds the 256- and 1024-node tiers.

#[macro_use]
mod cells;
mod common;

use cells::{digest, fabric, hot_spot, on_fabric, summary, Prog, Row};
use common::{base, for_each_cell};
use rsdsm::apps::Benchmark::{self, Fft, Radix, WaterNsq};
use rsdsm::apps::Scale;
use rsdsm::core::{
    BarrierId, DirectoryConfig, DirectoryPolicy, DsmConfig, DsmTask, Heap, HomePolicy, LockId,
    RecoveryConfig, RunReport, SharedVec, SimError, Simulation, TaskCtx, Topology, VerifyCtx,
    PAGE_SIZE,
};
use rsdsm::oracle::Technique::{self, Base, Combined, Multithread, Prefetch};
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
            ..Row::new("hot_spot_1024", Prog::Task(hot_spot), on_fabric(1024))
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
        ..Row::new(name, Prog::Task(hot_spot), on_fabric(64))
    }
    .check()
}

/// `nodes` on the flat bus with homes placed by hash.
fn hashed(nodes: usize) -> DsmConfig {
    base(nodes).with_directory(DirectoryConfig::on(DirectoryPolicy::Hash))
}

/// WATER-NSQ under hash-placed homes keeps every write, under the full
/// oracle obligation: a reader faulting in a page fetches a diff from
/// every writer it holds a notice of, wherever the page's home is.
#[test]
fn hashed_homes_keep_water_nsq_writes() {
    let rows = [Base, Multithread].map(|tech| Row {
        oracle: true,
        ..Row::new(
            format!("hashed_water-nsq_{}_8", tech.label()),
            Prog::App(WaterNsq, Scale::Test, tech),
            hashed(8),
        )
    });
    for_each_cell(rows.into(), Row::check);
}

/// Values in the pages [`LockedCopy`] hands over: 16 pages of `u64`.
const COPIED: usize = 16 * PAGE_SIZE / 8;

/// A lock-only hand-off on 3 nodes: node 1 writes 16 pages under lock
/// 0; node 2, well after, takes the lock and copies the pages into an
/// array of its own. Only the lock carries node 1's writes to node 2,
/// and node 0, which homes some of the pages under `Hash`, never hears
/// of them.
struct LockedCopy;

#[derive(Clone, Copy)]
struct Pages {
    src: SharedVec<u64>,
    dst: SharedVec<u64>,
}

impl DsmTask for LockedCopy {
    type Handles = Pages;

    fn name(&self) -> String {
        "locked-copy".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Pages {
        Pages {
            src: heap.alloc(COPIED, HomePolicy::Single(0)),
            dst: heap.alloc(COPIED, HomePolicy::Single(2)),
        }
    }

    async fn run(&self, ctx: &mut TaskCtx, h: &Pages) {
        let lock = LockId(0);
        match ctx.node() {
            1 => {
                ctx.acquire(lock).await;
                let values: Vec<u64> = (1..=COPIED as u64).collect();
                ctx.write_slice(&h.src, 0, &values).await;
                ctx.release(lock).await;
            }
            2 => {
                ctx.compute(SimDuration::from_millis(200));
                ctx.acquire(lock).await;
                let values = ctx.read_vec(&h.src, 0, COPIED).await;
                ctx.release(lock).await;
                ctx.write_slice(&h.dst, 0, &values).await;
            }
            _ => {}
        }
        ctx.barrier(BarrierId(0)).await;
    }

    fn verify(&self, mem: &VerifyCtx, h: &Pages) -> bool {
        (0..COPIED).all(|i| mem.read(&h.dst, i) == i as u64 + 1)
    }
}

fn locked_copy(cfg: DsmConfig) -> Result<RunReport, SimError> {
    Simulation::new(cfg).run(&LockedCopy)
}

/// A reader that learns of a write only through a lock fetches it,
/// even from a page whose home never heard of the write.
#[test]
fn a_lock_carries_writes_past_a_page_home() {
    let name = "a_lock_carries_writes_past_a_page_home";
    Row::new(name, Prog::Task(locked_copy), hashed(3)).check()
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

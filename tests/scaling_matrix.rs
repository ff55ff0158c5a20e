//! The scale-out matrix: switched topologies and directory-sharded
//! homes carry the full oracle obligation at 64 nodes, the flat-bus
//! default provably changes nothing, failure monitoring on the fabric
//! sends O(N) heartbeats per idle round instead of O(N²), and the
//! 256/1024-node tiers complete under the wheel engine.
//!
//! The default run covers the 64-node fast subset so `cargo test`
//! stays fast; `RSDSM_MATRIX=scaling` (or `full`) adds the 256- and
//! 1024-node tiers.

mod common;

use common::{base, for_each_cell};
use rsdsm::apps::{Benchmark, HotSpot, Scale};
use rsdsm::core::{
    BarrierId, DirectoryConfig, DirectoryPolicy, DsmConfig, DsmCtx, DsmProgram, Heap, HomePolicy,
    RecoveryConfig, SharedVec, Simulation, Topology, PAGE_SIZE,
};
use rsdsm::oracle::{check_technique, Technique};
use rsdsm::simnet::SimDuration;
use rsdsm_bench::pool::full_grid;

const WORDS: usize = PAGE_SIZE / 8;

/// The scaling suite's default fabric: racks of 8, two spines, 4:1
/// oversubscription.
fn fabric() -> Topology {
    Topology::rack_spine(8, 2, 4)
}

/// One full-oracle cell: DSM run + golden sequential replay +
/// byte-for-byte image comparison + same-seed repeat determinism.
fn assert_oracle_cell(bench: Benchmark, technique: Technique, cfg: DsmConfig, label: &str) {
    let verdict = check_technique(bench, Scale::Test, technique, cfg)
        .unwrap_or_else(|e| panic!("{label}: {e:?}"));
    assert!(verdict.ok(), "{label}: {}", verdict.summary_line());
}

/// 64 nodes on the rack-and-spine fabric, homes sharded by every
/// policy, under the complete oracle obligation. The golden executor
/// knows nothing about topologies or directories, so a pass means the
/// scaled-out cluster still computes exactly what a sequential
/// machine would.
#[test]
fn oracle_holds_at_64_nodes_on_the_fabric() {
    // RADIX's shared histogram caps the run at 64 threads, so the
    // two-threads-per-node Combined technique gets its fabric +
    // directory coverage at 32 nodes instead.
    let cells: Vec<(usize, Benchmark, Technique, DirectoryPolicy)> = vec![
        (64, Benchmark::Radix, Technique::Base, DirectoryPolicy::Hash),
        (
            64,
            Benchmark::Radix,
            Technique::Prefetch,
            DirectoryPolicy::FirstTouch,
        ),
        (64, Benchmark::Fft, Technique::Base, DirectoryPolicy::Block),
        (
            32,
            Benchmark::Radix,
            Technique::Combined,
            DirectoryPolicy::Hash,
        ),
    ];
    for_each_cell(cells, |(nodes, bench, technique, policy)| {
        let cfg = base(nodes)
            .with_topology(fabric())
            .with_directory(DirectoryConfig::on(policy));
        let label = format!(
            "{bench} {} fabric+{policy:?} at {nodes} nodes",
            technique.label()
        );
        assert_oracle_cell(bench, technique, cfg, &label);
    });
}

/// Digest transparency: the topology and directory knobs at their
/// defaults are not merely "probably inert" — a run with both spelled
/// out explicitly reproduces the pre-existing pinned trace digest
/// from `trace_snapshots.rs` bit for bit, and the full report digest
/// of an untouched run.
#[test]
fn flat_bus_default_reproduces_pinned_digests() {
    let explicit = base(4)
        .with_topology(Topology::FlatBus)
        .with_directory(DirectoryConfig::off());
    let (report, trace) = Benchmark::Radix
        .run_traced(Scale::Test, explicit)
        .expect("explicit flat-bus run");
    // The pinned RADIX/Base cell from tests/trace_snapshots.rs.
    assert_eq!(
        trace.digest(),
        0x249303d259b67b8e,
        "explicit FlatBus + directory-off perturbed the pinned trace"
    );
    let plain = Benchmark::Radix
        .run(Scale::Test, base(4))
        .expect("default run");
    assert_eq!(
        plain.digest(),
        report.digest(),
        "spelling out the defaults changed the report"
    );
}

/// An idle-ish program long enough to cover many heartbeat rounds.
struct IdleRounds;

impl DsmProgram for IdleRounds {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "idle-rounds".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(WORDS, HomePolicy::Single(0))
    }

    fn run(&self, ctx: &mut DsmCtx, _v: &Self::Handles) {
        ctx.compute(SimDuration::from_millis(100));
        ctx.barrier(BarrierId(0));
    }
}

/// A monitored idle run of `nodes` on `topology`. Who monitors whom
/// follows the topology: the full mesh on the flat bus, the rack
/// hierarchy on the fabric. At 64 nodes the mesh pushes N·(N−1)
/// frames per round; 5 ms rounds are a cadence it sustains without
/// lease expiries feeding a suspicion storm, so both runs terminate
/// and their counts can be compared.
fn monitored_run(nodes: usize, topology: Topology) -> rsdsm::core::RunReport {
    let recovery = RecoveryConfig {
        heartbeat_every: SimDuration::from_millis(5),
        lease_timeout: SimDuration::from_millis(25),
        confirm_grace: SimDuration::from_millis(5),
        ..RecoveryConfig::on(2)
    };
    let cfg = base(nodes).with_topology(topology).with_recovery(recovery);
    Simulation::new(cfg).run(&IdleRounds).expect("idle run")
}

/// The O(N²) fix: on the fabric each idle heartbeat round sends O(N)
/// heartbeats (members → rack leader, leaders ↔ manager) instead of
/// the N·(N−1) of the all-to-all mesh the same cluster runs on the
/// flat bus.
#[test]
fn hierarchical_monitoring_sends_linear_heartbeats_per_round() {
    let nodes = 64;
    let mesh = monitored_run(nodes, Topology::FlatBus);
    let hier = monitored_run(nodes, fabric());
    assert!(mesh.verified && hier.verified);

    let rounds = |r: &rsdsm::core::RunReport| {
        (r.total_time.as_nanos() / SimDuration::from_millis(5).as_nanos()).max(1)
    };
    let mesh_per_round = mesh.recovery.heartbeats_sent / rounds(&mesh);
    let hier_per_round = hier.recovery.heartbeats_sent / rounds(&hier);
    let n = nodes as u64;

    // The mesh really is quadratic-shaped (sanity check on the test
    // itself)…
    assert!(
        mesh_per_round > n * (n - 1) / 2,
        "mesh sent only {mesh_per_round} heartbeats/round at {n} nodes"
    );
    // …and the hierarchy is linear: every member sends 1, every rack
    // leader ≤ rack_size + 1, the manager ≤ racks + rack_size.
    assert!(
        hier_per_round <= 4 * n,
        "hierarchical monitoring sent {hier_per_round} heartbeats/round \
         at {n} nodes — not O(N)"
    );
    assert!(
        hier.recovery.heartbeats_sent * 8 < mesh.recovery.heartbeats_sent,
        "hierarchy ({}) barely improved on the mesh ({})",
        hier.recovery.heartbeats_sent,
        mesh.recovery.heartbeats_sent
    );
}

/// Directory sharding prunes notices at uninterested nodes without
/// breaking anything the oracle can see; the counters prove the
/// machinery actually engaged at 64 nodes.
#[test]
fn directory_counters_engage_at_64_nodes() {
    let cfg = base(64)
        .with_topology(fabric())
        .with_directory(DirectoryConfig::on(DirectoryPolicy::Hash));
    let report = Simulation::new(cfg).run(&HotSpot).expect("hot-spot run");
    assert!(report.verified);
    assert!(
        report.directory.home_hits > 0,
        "no fetch ever reached a sharded home"
    );
    let line = report.fault_summary_line().expect("directory section");
    assert!(
        line.contains("directory:"),
        "summary line lost the directory section: {line}"
    );
}

/// The 256- and 1024-node tiers, behind `RSDSM_MATRIX=scaling`:
/// the oracle obligation at 256 nodes, and the 1024-node hot-spot —
/// the issue's scaling ceiling — completing under the wheel engine.
#[test]
fn full_matrix_big_tiers() {
    if !full_grid("scaling") {
        eprintln!("skipping 256/1024-node tiers (set RSDSM_MATRIX=scaling)");
        return;
    }
    let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
        Box::new(|| {
            // RADIX's histogram caps at 64 threads; FFT's six-step
            // blocks simply go empty on surplus nodes, so it is the
            // kernel that scales to the 256-node oracle cell.
            let cfg = base(256)
                .with_topology(fabric())
                .with_directory(DirectoryConfig::on(DirectoryPolicy::Hash));
            assert_oracle_cell(
                Benchmark::Fft,
                Technique::Base,
                cfg,
                "FFT O fabric+Hash at 256 nodes",
            );
        }),
        Box::new(|| {
            for policy in [DirectoryPolicy::Hash, DirectoryPolicy::FirstTouch] {
                let cfg = base(1024)
                    .with_topology(fabric())
                    .with_directory(DirectoryConfig::on(policy));
                let report = Simulation::new(cfg)
                    .run(&HotSpot)
                    .unwrap_or_else(|e| panic!("1024-node hot-spot ({policy:?}): {e}"));
                assert!(report.verified, "1024-node hot-spot ({policy:?}) corrupted");
                assert!(report.events_processed > 0);
            }
        }),
    ];
    for_each_cell(tasks, |task| task());
}

//! Up-front configuration validation: one minimal configuration per
//! [`ConfigError`] variant, the guarantee that a rejected
//! configuration never reaches the application (no allocation, no
//! thread, no panic), and — for the two settings whose every value is
//! legal — a run under each.

use std::sync::atomic::{AtomicBool, Ordering};

use rsdsm_apps::{Benchmark, Scale};
use rsdsm_core::{
    ConfigError, DirectoryConfig, DirectoryPolicy, DsmConfig, DsmTask, Heap, HomePolicy, NodeCrash,
    OracleConfig, Partition, PersistConfig, RecoveryConfig, SharedVec, SimError, Simulation,
    TaskCtx, ThreadConfig, VerifyCtx,
};
use rsdsm_simnet::{NetConfig, SimDuration, SimTime};

const NODES: usize = 4;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

fn recovering() -> DsmConfig {
    DsmConfig::paper_cluster(NODES).with_recovery(RecoveryConfig::on(2))
}

fn crash(node: usize) -> NodeCrash {
    NodeCrash {
        node,
        at: ms(1),
        restart_after: None,
    }
}

fn cut(groups: Vec<Vec<usize>>, at_ms: u64, heal_ms: u64) -> Partition {
    Partition::cut(groups, ms(at_ms), SimDuration::from_millis(heal_ms))
}

fn with_crash(mut cfg: DsmConfig, c: NodeCrash) -> DsmConfig {
    cfg.faults = cfg.faults.with_node_crash(c);
    cfg
}

fn with_cut(mut cfg: DsmConfig, p: Partition) -> DsmConfig {
    cfg.faults = cfg.faults.with_partition(p);
    cfg
}

/// Every way a configuration can be wrong, each reduced to the one
/// setting that makes it so.
fn rejected() -> Vec<(&'static str, DsmConfig, ConfigError)> {
    let paper = || DsmConfig::paper_cluster(NODES);
    vec![
        (
            "no nodes",
            DsmConfig {
                nodes: 0,
                ..paper()
            },
            ConfigError::NoNodes,
        ),
        (
            "no threads on a node",
            paper().with_threads(ThreadConfig {
                threads_per_node: 0,
                ..ThreadConfig::single()
            }),
            ConfigError::NoThreads,
        ),
        (
            "zero link bandwidth",
            DsmConfig {
                net: NetConfig {
                    bandwidth_bps: 0,
                    ..paper().net
                },
                ..paper()
            },
            ConfigError::ZeroBandwidth,
        ),
        (
            "recovery with a zero heartbeat period",
            paper().with_recovery(RecoveryConfig {
                heartbeat_every: SimDuration::ZERO,
                ..RecoveryConfig::on(2)
            }),
            ConfigError::ZeroHeartbeatPeriod,
        ),
        (
            "crash without failure detection",
            with_crash(DsmConfig::paper_cluster(NODES), crash(1)),
            ConfigError::CrashWithoutDetection,
        ),
        (
            "crash with recovery on but no checkpoint cadence",
            with_crash(
                DsmConfig::paper_cluster(NODES).with_recovery(RecoveryConfig::on(0)),
                crash(1),
            ),
            ConfigError::CrashWithoutCadence,
        ),
        (
            "persistence without a checkpoint cadence",
            DsmConfig::paper_cluster(NODES).with_recovery(RecoveryConfig {
                persist: PersistConfig::on(),
                ..RecoveryConfig::off()
            }),
            ConfigError::PersistWithoutCadence,
        ),
        (
            "crash plan names a node outside the cluster",
            with_crash(recovering(), crash(NODES)),
            ConfigError::NodeOutOfRange {
                node: NODES,
                nodes: NODES,
            },
        ),
        (
            "partition plan names a node outside the cluster",
            with_cut(recovering(), cut(vec![vec![NODES + 3]], 1, 5)),
            ConfigError::NodeOutOfRange {
                node: NODES + 3,
                nodes: NODES,
            },
        ),
        (
            "crash plan names the manager",
            with_crash(recovering(), crash(0)),
            ConfigError::CrashesManager,
        ),
        (
            "crash plan names one node twice",
            with_crash(
                with_crash(recovering(), crash(2)),
                NodeCrash {
                    at: ms(6),
                    ..crash(2)
                },
            ),
            ConfigError::NodeCrashedTwice { node: 2 },
        ),
        (
            "partition without recovery",
            with_cut(DsmConfig::paper_cluster(NODES), cut(vec![vec![2]], 1, 5)),
            ConfigError::PartitionWithoutRecovery,
        ),
        (
            "crash and partition in one plan",
            with_cut(with_crash(recovering(), crash(1)), cut(vec![vec![2]], 1, 5)),
            ConfigError::CrashWithPartition,
        ),
        (
            "zero heal window",
            with_cut(recovering(), cut(vec![vec![2]], 1, 0)),
            ConfigError::ZeroHealWindow,
        ),
        (
            "node listed in two groups",
            with_cut(recovering(), cut(vec![vec![2], vec![3, 2]], 1, 5)),
            ConfigError::NodeInTwoGroups { node: 2 },
        ),
        (
            "manager side without a strict majority",
            with_cut(recovering(), cut(vec![vec![2, 3]], 1, 5)),
            ConfigError::ManagerWithoutMajority {
                side: 2,
                nodes: NODES,
            },
        ),
        (
            "overlapping partition windows",
            with_cut(
                with_cut(recovering(), cut(vec![vec![2]], 1, 5)),
                cut(vec![vec![3]], 5, 5),
            ),
            ConfigError::OverlappingPartitions,
        ),
    ]
}

/// Records whether the engine ever asked it for anything.
#[derive(Default)]
struct Probe {
    touched: AtomicBool,
}

impl DsmTask for Probe {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "probe".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        self.touched.store(true, Ordering::SeqCst);
        heap.alloc(8, HomePolicy::Single(0))
    }

    async fn run(&self, _ctx: &mut TaskCtx, _v: &Self::Handles) {
        self.touched.store(true, Ordering::SeqCst);
    }

    fn verify(&self, _mem: &VerifyCtx, _v: &Self::Handles) -> bool {
        true
    }
}

#[test]
fn every_config_error_has_a_minimal_config() {
    for (what, cfg, want) in rejected() {
        assert_eq!(cfg.validate().err(), Some(want.clone()), "{what}");
        assert!(!want.to_string().is_empty(), "{what}: empty message");

        let probe = Probe::default();
        let sim = Simulation::new(cfg);
        assert_eq!(
            sim.run(&probe).unwrap_err(),
            SimError::Config(want.clone()),
            "{what}: run"
        );
        assert_eq!(
            sim.run_traced(&probe).map(|_| ()).unwrap_err(),
            SimError::Config(want),
            "{what}: run_traced"
        );
        assert!(
            !probe.touched.load(Ordering::SeqCst),
            "{what}: the engine reached the application before rejecting the config"
        );
    }
}

#[test]
fn valid_plans_pass() {
    let adjacent_windows = with_cut(
        with_cut(recovering(), cut(vec![vec![2]], 1, 5)),
        cut(vec![vec![3]], 6, 5),
    );
    for cfg in [
        DsmConfig::paper_cluster(NODES),
        recovering(),
        with_crash(recovering(), crash(NODES - 1)),
        adjacent_windows,
    ] {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The directory and the oracle are one value each — off, or what
/// they do — so the whole space can be listed: 2 × 2 configurations,
/// none of which carries a part the engine ignores. Every one is
/// legal, and RADIX verifies under it.
#[test]
fn every_directory_and_oracle_value_is_legal() {
    let directories = [
        DirectoryConfig::off(),
        DirectoryConfig::on(DirectoryPolicy::Hash),
    ];
    for directory in directories {
        for oracle in [OracleConfig::off(), OracleConfig::full()] {
            let cfg = DsmConfig::paper_cluster(NODES)
                .with_directory(directory)
                .with_oracle(oracle);
            cfg.validate()
                .unwrap_or_else(|e| panic!("{directory:?} {oracle:?}: {e}"));
            let report = Benchmark::Radix
                .run(Scale::Test, cfg)
                .unwrap_or_else(|e| panic!("{directory:?} {oracle:?}: {e}"));
            assert!(report.verified, "{directory:?} {oracle:?}");
            assert_eq!(report.oracle.is_some(), oracle.enabled());
            assert!(report.oracle.is_none_or(|o| o.violations.is_empty()));
        }
    }
}

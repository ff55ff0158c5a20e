//! Simulation configuration.
//!
//! [`DsmConfig`] gathers everything that varies between the paper's
//! experiments: cluster size, network parameters, software costs, the
//! prefetch mode, and the multithreading mode. The figure/table
//! binaries construct one config per bar of each figure.

use std::fmt;

use rsdsm_simnet::{fnv1a, FaultPlan, NetConfig, NodeId, PersistConfig, SimDuration, Topology};

use crate::costs::CostModel;
use crate::oracle::OracleConfig;
use crate::recovery::RecoveryConfig;
use crate::transport::TransportConfig;

/// How prefetching is enabled for a run (§3, §5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchConfig {
    /// The prefetch technique. [`PrefetchMode::Off`] makes
    /// `TaskCtx::prefetch` calls free no-ops, giving the "original"
    /// bars of the figures; every other field below only tunes a mode
    /// that issues prefetches.
    pub mode: PrefetchMode,
    /// Issue only every k-th message-generating prefetch (the RADIX
    /// throttling optimization, §5.1). `1` means no throttling.
    pub throttle: u32,
    /// Suppress prefetches for pages a sibling thread on the same
    /// node has already prefetched this barrier epoch — the dynamic
    /// flag optimization of §5.1.
    pub suppress_redundant: bool,
    /// Send prefetch requests and replies reliably instead of
    /// droppable — the design alternative the paper rejects in §3.1
    /// footnote 3 (retrying under congestion worsens congestion).
    /// Exposed for the ablation experiments.
    pub reliable: bool,
    /// Emulate compiler-inserted prefetching by also issuing the
    /// prefetch checks for private (thread-local) data the compiler
    /// cannot classify (inflates unnecessary-prefetch counts the way
    /// Table 1 shows for FFT and LU-NCONT).
    pub compiler_style: bool,
}

/// The prefetch technique of a run: the paper's static modes, the
/// Bianchini-style history replay, and the adaptive engine (alone or
/// combined with static annotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchMode {
    /// No prefetching (the "O" bars).
    Off,
    /// Hand- or compiler-inserted annotations (the "P" bars).
    Static,
    /// Fully runtime-driven: the DSM records which pages fault after
    /// each synchronization point and prefetches that history at the
    /// next acquisition of the same object — the alternative design of
    /// Bianchini et al. that the paper argues hand insertion beats
    /// (§3, §6). Application annotations are ignored.
    History,
    /// Online stride detection, annotations ignored.
    Adaptive,
    /// Online stride detection plus static annotations.
    AdaptiveStatic,
}

impl PrefetchMode {
    /// Short label for tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchMode::Off => "O",
            PrefetchMode::Static => "P",
            PrefetchMode::History => "H",
            PrefetchMode::Adaptive => "A",
            PrefetchMode::AdaptiveStatic => "A+P",
        }
    }

    /// Whether the adaptive stride engine runs.
    pub fn is_adaptive(self) -> bool {
        matches!(self, PrefetchMode::Adaptive | PrefetchMode::AdaptiveStatic)
    }

    /// Whether application/compiler-inserted prefetch annotations are
    /// honored: static modes always, adaptive only in the combined
    /// mode, history never (it replaces them entirely).
    pub fn honors_annotations(self) -> bool {
        matches!(self, PrefetchMode::Static | PrefetchMode::AdaptiveStatic)
    }
}

impl PrefetchConfig {
    fn in_mode(mode: PrefetchMode) -> Self {
        PrefetchConfig {
            mode,
            throttle: 1,
            suppress_redundant: false,
            reliable: false,
            compiler_style: false,
        }
    }

    /// Prefetching disabled (the "O" bars).
    pub fn off() -> Self {
        PrefetchConfig::in_mode(PrefetchMode::Off)
    }

    /// Hand-inserted prefetching as in §3.2 (the "P" bars).
    pub fn hand() -> Self {
        PrefetchConfig::in_mode(PrefetchMode::Static)
    }

    /// Compiler-style prefetching (FFT, LU-NCONT in the paper).
    pub fn compiler() -> Self {
        PrefetchConfig {
            compiler_style: true,
            ..PrefetchConfig::hand()
        }
    }

    /// History-based automatic runtime prefetching (the Bianchini
    /// et al. style the paper compares against).
    pub fn automatic() -> Self {
        PrefetchConfig::in_mode(PrefetchMode::History)
    }

    /// Online adaptive prefetching ([`PrefetchMode::Adaptive`]):
    /// majority-trend stride detection with feedback throttling,
    /// application annotations ignored.
    pub fn adaptive() -> Self {
        PrefetchConfig::in_mode(PrefetchMode::Adaptive)
    }

    /// Adaptive detection *plus* the application's static annotations
    /// ([`PrefetchMode::AdaptiveStatic`]); combine with
    /// `compiler_style` for the apps the paper compiles prefetches
    /// into.
    pub fn adaptive_static() -> Self {
        PrefetchConfig::in_mode(PrefetchMode::AdaptiveStatic)
    }
}

/// How page homes are assigned when directory sharding is on.
///
/// With the directory off (the default), homes come from each
/// application's [`HomePolicy`](crate::HomePolicy) allocation layout,
/// exactly as the paper's runs; on, this policy overrides that layout
/// cluster-wide at startup, so home placement can be studied
/// independently of the applications. Homes never move during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryPolicy {
    /// Home = FNV-1a hash of the page index, modulo the cluster size.
    /// Spreads directory load uniformly and destroys locality.
    Hash,
}

impl DirectoryPolicy {
    /// The home this policy assigns `page` in a heap of `total_pages`
    /// pages across `nodes` nodes: a pure, total, deterministic
    /// function of its arguments, so home lookup never needs
    /// coordination.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or `page` is outside the heap.
    pub fn static_home(self, page: usize, total_pages: usize, nodes: usize) -> NodeId {
        assert!(nodes > 0, "cluster needs at least one node");
        assert!(page < total_pages, "page outside the heap");
        match self {
            DirectoryPolicy::Hash => (fnv1a(&(page as u64).to_le_bytes()) % nodes as u64) as NodeId,
        }
    }
}

/// Directory home placement (scale-out mode): off, or on under one
/// [`DirectoryPolicy`] — there is no policy to carry while
/// it is off.
///
/// Off by default: homes come from each application's allocation
/// layout, exactly as the paper's runs. On, the policy places every
/// page's home at startup, and fetch requests that reach a page's home
/// are counted ([`DirectorySummary`](crate::DirectorySummary)). Write
/// notices are recorded the same way either way. Lock management is
/// already home-distributed (manager = lock id modulo cluster size)
/// and unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirectoryConfig(Option<DirectoryPolicy>);

impl DirectoryConfig {
    /// Directory off: homes follow the application's layout.
    pub fn off() -> Self {
        DirectoryConfig(None)
    }

    /// Homes placed by the given policy.
    pub fn on(policy: DirectoryPolicy) -> Self {
        DirectoryConfig(Some(policy))
    }

    /// The home-assignment policy, `None` while the directory is off.
    pub fn policy(self) -> Option<DirectoryPolicy> {
        self.0
    }

    /// Whether the policy places the run's homes.
    pub fn enabled(self) -> bool {
        self.0.is_some()
    }
}

/// How multithreading is configured for a run (§4, §5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadConfig {
    /// User-level threads per node (1 = the paper's "O"/"P" bars).
    pub threads_per_node: usize,
    /// Switch threads on a remote memory miss. True in pure
    /// multithreading (§4); false in the combined approach (§5),
    /// where prefetching owns memory latency and a miss simply stalls.
    pub switch_on_memory: bool,
}

impl ThreadConfig {
    /// Single-threaded nodes (no multithreading machinery active).
    pub fn single() -> Self {
        ThreadConfig {
            threads_per_node: 1,
            switch_on_memory: false,
        }
    }

    /// Pure multithreading with `n` threads per node (§4): switch on
    /// both memory and synchronization stalls.
    pub fn multithreaded(n: usize) -> Self {
        ThreadConfig {
            threads_per_node: n,
            switch_on_memory: true,
        }
    }

    /// The combined approach of §5: `n` threads per node, switching
    /// only on synchronization stalls (prefetching hides memory).
    pub fn combined(n: usize) -> Self {
        ThreadConfig {
            threads_per_node: n,
            switch_on_memory: false,
        }
    }

    /// True when more than one thread runs per node, which activates
    /// asynchronous message handling and its fixed overhead (§4.3)
    /// and switching on a remote synchronization stall (every mode
    /// with a second thread to switch to does that).
    pub fn is_multithreaded(&self) -> bool {
        self.threads_per_node > 1
    }
}

/// The node hosting the barrier manager, the recovery coordinator and
/// the failure-confirmation authority (node 0, as in TreadMarks).
pub(crate) const MANAGER: NodeId = 0;

/// A configuration the engine cannot run, found by
/// [`DsmConfig::validate`] before any thread is spawned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A cluster of zero nodes.
    NoNodes,
    /// Zero application threads per node.
    NoThreads,
    /// A network whose links carry zero bits per second.
    ZeroBandwidth,
    /// Recovery enabled with a zero heartbeat period: the failure
    /// detector's tick would re-arm at the same instant forever.
    ZeroHeartbeatPeriod,
    /// A crash schedule without recovery enabled: nothing would
    /// detect the crash, confirm it or bring the node back, so the
    /// run could only abort once a frame to it exhausts its retries.
    CrashWithoutDetection,
    /// A crash schedule with recovery enabled but no checkpoint
    /// cadence: the victim would recover from nothing.
    CrashWithoutCadence,
    /// Persistence enabled without a checkpoint cadence: there is
    /// nothing to persist.
    PersistWithoutCadence,
    /// A crash or partition plan names a node outside the cluster.
    NodeOutOfRange {
        /// The node the plan names.
        node: NodeId,
        /// The cluster size.
        nodes: usize,
    },
    /// The crash plan names node 0, which hosts the lock/barrier
    /// managers and the recovery coordinator.
    CrashesManager,
    /// The crash plan names one node in two crashes. A node holds one
    /// suspension at a time, and whether two crashes of it overlap
    /// depends on the recovery cost the run computes. A second crash
    /// inside the first outage would replace it — its start, its
    /// restart and the events parked during it — so the replay, the
    /// reported outage and the device's torn-slot count would all be
    /// wrong (DESIGN §6e).
    NodeCrashedTwice {
        /// The node the plan crashes twice.
        node: NodeId,
    },
    /// A partition schedule without recovery enabled (freeze,
    /// suspicion gating and checkpoint-based rejoin all live there).
    PartitionWithoutRecovery,
    /// Crash and partition schedules in the same run. Crash and freeze
    /// are one per-node suspension, and a node holds one at a time.
    /// With this check removed, a crash of a frozen node replays the
    /// events parked during the freeze before its resume instant, so
    /// simulated time steps backwards, and a crash-restart victim
    /// resumes and runs behind an active cut; a crash-stop victim in
    /// the frozen minority is still restarted, through the other
    /// observers' suspicions. Those runs complete and pass the oracle,
    /// but their time model and counters are wrong (DESIGN §6h).
    CrashWithPartition,
    /// A partition with a zero heal window.
    ZeroHealWindow,
    /// A node listed in two groups of one partition.
    NodeInTwoGroups {
        /// The node listed twice.
        node: NodeId,
    },
    /// A cut that leaves the manager-side component without a strict
    /// majority of the cluster.
    ManagerWithoutMajority {
        /// Nodes on the manager's side of the cut.
        side: usize,
        /// The cluster size.
        nodes: usize,
    },
    /// Two partition windows overlap in time.
    OverlappingPartitions,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "cluster needs at least one node (nodes == 0)"),
            ConfigError::NoThreads => {
                write!(f, "a node runs at least one thread (threads_per_node == 0)")
            }
            ConfigError::ZeroBandwidth => write!(
                f,
                "a link needs a nonzero bandwidth to serialize a frame onto \
                 (net.bandwidth_bps == 0)"
            ),
            ConfigError::ZeroHeartbeatPeriod => write!(
                f,
                "recovery needs a nonzero heartbeat period (heartbeat_every == 0): \
                 the failure detector's tick would never advance"
            ),
            ConfigError::CrashWithoutDetection => write!(
                f,
                "a crash schedule needs recovery enabled: failure detection, \
                 confirmation and restart all live there"
            ),
            ConfigError::CrashWithoutCadence => write!(
                f,
                "--fault-crash needs --checkpoint-every N: without a checkpoint \
                 cadence (checkpoint_every == 0) a crashed node would recover from nothing"
            ),
            ConfigError::PersistWithoutCadence => write!(
                f,
                "--persist needs --checkpoint-every N: without a checkpoint \
                 cadence (checkpoint_every == 0) there is nothing to persist"
            ),
            ConfigError::NodeOutOfRange { node, nodes } => {
                write!(f, "fault plan names node {node} in a {nodes}-node cluster")
            }
            ConfigError::CrashesManager => write!(
                f,
                "node 0 hosts the lock/barrier managers and the recovery \
                 coordinator; crashing it is not supported"
            ),
            ConfigError::NodeCrashedTwice { node } => write!(
                f,
                "node {node} is named in two crashes; a node crashes at most once per run"
            ),
            ConfigError::PartitionWithoutRecovery => write!(
                f,
                "partition schedules need recovery enabled: freeze, suspicion \
                 gating, and checkpoint-based rejoin all live there"
            ),
            ConfigError::CrashWithPartition => {
                write!(
                    f,
                    "combined crash and partition schedules are not supported"
                )
            }
            ConfigError::ZeroHealWindow => write!(f, "a partition needs a nonzero heal window"),
            ConfigError::NodeInTwoGroups { node } => {
                write!(f, "node {node} listed in two partition groups")
            }
            ConfigError::ManagerWithoutMajority { side, nodes } => write!(
                f,
                "the manager-side component holds {side} of {nodes} nodes; the \
                 quorum rule requires it to keep a strict majority"
            ),
            ConfigError::OverlappingPartitions => write!(f, "partition windows must not overlap"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete configuration of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct DsmConfig {
    /// Number of workstations.
    pub nodes: usize,
    /// Network model parameters.
    pub net: NetConfig,
    /// Software cost constants.
    pub costs: CostModel,
    /// Prefetch mode.
    pub prefetch: PrefetchConfig,
    /// Multithreading mode.
    pub threads: ThreadConfig,
    /// Diff/interval storage (in encoded bytes) that triggers a
    /// garbage-collection pass at the next barrier.
    pub gc_threshold_bytes: usize,
    /// Injected network faults: message drops, duplicates,
    /// reordering, jitter, link-degradation windows, and node stalls.
    /// Empty ([`FaultPlan::none`]) by default.
    pub faults: FaultPlan,
    /// Reliable-transport parameters: retransmission timeout,
    /// backoff cap, retry budget.
    pub transport: TransportConfig,
    /// Safety limit on simulated time; a run exceeding it aborts with
    /// an error rather than looping forever.
    pub max_sim_time: SimDuration,
    /// Consistency-oracle mode: runtime LRC invariant checking and
    /// final-image/lock-trace capture for differential testing.
    /// Off ([`OracleConfig::off`]) by default: the engine then builds
    /// no oracle state at all.
    pub oracle: OracleConfig,
    /// Failure detection, barrier-aligned checkpointing, and
    /// crash recovery. Off ([`RecoveryConfig::off`]) by default —
    /// retry exhaustion aborts the run as before.
    pub recovery: RecoveryConfig,
    /// Hash-placed page homes. Off ([`DirectoryConfig::off`]) by
    /// default — homes follow the application's layout, as in the
    /// paper.
    pub directory: DirectoryConfig,
}

impl DsmConfig {
    /// The paper's cluster: `nodes` workstations on a 155 Mbps ATM
    /// switch with 1998-calibrated software costs, prefetching off,
    /// single-threaded.
    pub fn paper_cluster(nodes: usize) -> Self {
        DsmConfig {
            nodes,
            net: NetConfig::atm_155(0x5D5),
            costs: CostModel::paper_1998(),
            prefetch: PrefetchConfig::off(),
            threads: ThreadConfig::single(),
            gc_threshold_bytes: 8 << 20,
            faults: FaultPlan::none(),
            transport: TransportConfig::default(),
            max_sim_time: SimDuration::from_secs(36_000),
            oracle: OracleConfig::off(),
            recovery: RecoveryConfig::off(),
            directory: DirectoryConfig::off(),
        }
    }

    /// Installs a fault-injection plan (builder style). The plan's
    /// own seed governs fault decisions; the network's seed
    /// ([`DsmConfig::with_seed`]) governs congestion drops.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the reliable-transport parameters (builder style).
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Replaces the seed of the run's one random stream, the
    /// network's congestion drops (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.net.seed = seed;
        self
    }

    /// Enables a prefetch mode (builder style).
    pub fn with_prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Sets the thread mode (builder style).
    pub fn with_threads(mut self, threads: ThreadConfig) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the consistency-oracle mode (builder style).
    pub fn with_oracle(mut self, oracle: OracleConfig) -> Self {
        self.oracle = oracle;
        self
    }

    /// Sets the failure-detection / checkpoint / recovery parameters
    /// (builder style).
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the interconnect topology (builder style). The default,
    /// [`Topology::FlatBus`], reproduces the original single-switch
    /// model bit for bit.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.net.topology = topology;
        self
    }

    /// Sets the directory's home placement (builder style).
    pub fn with_directory(mut self, directory: DirectoryConfig) -> Self {
        self.directory = directory;
        self
    }

    /// Checks the cluster shape, then the fault plan and recovery
    /// settings against each other and the cluster size, and returns
    /// the [`RunPlan`] the engine runs: the only way to build one.
    /// [`Simulation::run`](crate::Simulation::run) calls this before
    /// spawning any thread; front ends call it to reject a bad flag
    /// combination with the same message.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found: shape first, then plan order.
    pub fn validate(&self) -> Result<RunPlan<'_>, ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.threads.threads_per_node == 0 {
            return Err(ConfigError::NoThreads);
        }
        if self.net.bandwidth_bps == 0 {
            return Err(ConfigError::ZeroBandwidth);
        }
        let rc = &self.recovery;
        if rc.enabled && rc.heartbeat_every.is_zero() {
            return Err(ConfigError::ZeroHeartbeatPeriod);
        }
        let faults = &self.faults;
        if !faults.crashes.is_empty() {
            if !rc.enabled {
                return Err(ConfigError::CrashWithoutDetection);
            }
            if rc.checkpoint_every == 0 {
                return Err(ConfigError::CrashWithoutCadence);
            }
        }
        if rc.persist.enabled && rc.checkpoint_every == 0 {
            return Err(ConfigError::PersistWithoutCadence);
        }
        let in_range = |node: NodeId| {
            if node < self.nodes {
                Ok(())
            } else {
                Err(ConfigError::NodeOutOfRange {
                    node,
                    nodes: self.nodes,
                })
            }
        };
        for (i, crash) in faults.crashes.iter().enumerate() {
            in_range(crash.node)?;
            if crash.node == MANAGER {
                return Err(ConfigError::CrashesManager);
            }
            if faults.crashes[..i].iter().any(|c| c.node == crash.node) {
                return Err(ConfigError::NodeCrashedTwice { node: crash.node });
            }
        }
        for (i, p) in faults.partitions.iter().enumerate() {
            if !rc.enabled {
                return Err(ConfigError::PartitionWithoutRecovery);
            }
            if !faults.crashes.is_empty() {
                return Err(ConfigError::CrashWithPartition);
            }
            if p.heal_after.is_zero() {
                return Err(ConfigError::ZeroHealWindow);
            }
            let mut listed = vec![false; self.nodes];
            for &node in p.groups.iter().flatten() {
                in_range(node)?;
                if std::mem::replace(&mut listed[node], true) {
                    return Err(ConfigError::NodeInTwoGroups { node });
                }
            }
            let mgr_group = p.group_of(MANAGER);
            let side = (0..self.nodes)
                .filter(|&n| p.group_of(n) == mgr_group)
                .count();
            if side * 2 <= self.nodes {
                return Err(ConfigError::ManagerWithoutMajority {
                    side,
                    nodes: self.nodes,
                });
            }
            if faults.partitions[..i]
                .iter()
                .any(|q| p.at < q.heal_at() && q.at < p.heal_at())
            {
                return Err(ConfigError::OverlappingPartitions);
            }
        }
        let cadence = rc.cadence();
        let recovery = if rc.enabled {
            RecoveryPlan::Detect {
                detection: Detection {
                    heartbeat: rc.heartbeat_every,
                    lease: rc.lease_timeout,
                    grace: rc.confirm_grace,
                    restart_base: rc.restart_base,
                },
                cadence,
            }
        } else {
            cadence.map_or(RecoveryPlan::Off, RecoveryPlan::Checkpoint)
        };
        Ok(RunPlan {
            cfg: self,
            recovery,
        })
    }

    /// Total application threads in the run.
    pub fn total_threads(&self) -> usize {
        self.nodes * self.threads.threads_per_node
    }
}

/// A configuration [`DsmConfig::validate`] accepted, in the form the
/// engine runs it: the config, and what its recovery settings amount
/// to as one `RecoveryPlan` holding only values the engine reads.
/// Its fields are private and `validate` is its only constructor, so
/// the engine never runs a configuration it has not checked.
#[derive(Debug)]
pub struct RunPlan<'a> {
    cfg: &'a DsmConfig,
    recovery: RecoveryPlan,
}

impl<'a> RunPlan<'a> {
    /// The configuration this plan runs.
    pub(crate) fn config(&self) -> &'a DsmConfig {
        self.cfg
    }

    /// What the run detects, checkpoints and persists.
    pub(crate) fn recovery(&self) -> RecoveryPlan {
        self.recovery
    }
}

/// What a run does about failures: one variant for each combination
/// of recovery settings [`DsmConfig::validate`] accepts. Off is the
/// absence of a value; persistence without a cadence, and detection
/// periods on a run that does not detect, cannot be written down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RecoveryPlan {
    /// No detection, no checkpoints: the engine holds no recovery
    /// state, and retry exhaustion aborts the run.
    Off,
    /// Checkpoints at a cadence with no detector (`--checkpoint-every`
    /// alone): their cost is measured on a fault-free run.
    Checkpoint(Cadence),
    /// Failure detection, with the checkpoints a crashed or frozen
    /// node restores from. Every crash or cut runs under this.
    Detect {
        /// The detector's periods.
        detection: Detection,
        /// `None` only without crashes: a frozen node then replays
        /// from the start.
        cadence: Option<Cadence>,
    },
}

/// The failure detector's periods (see [`RecoveryConfig`] for each).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Detection {
    pub(crate) heartbeat: SimDuration,
    pub(crate) lease: SimDuration,
    pub(crate) grace: SimDuration,
    pub(crate) restart_base: SimDuration,
}

/// A checkpoint cadence: every how many barrier epochs, and where
/// each checkpoint goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cadence {
    /// Barrier epochs between checkpoints; never zero.
    pub(crate) every: u32,
    pub(crate) store: Store,
}

/// Where a checkpoint is kept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Store {
    /// Measured only, and read back at a flat cost per page.
    Memory {
        /// The read-back cost of one page.
        restore_per_page: SimDuration,
    },
    /// Written to each node's persistent device through the two-slot
    /// commit protocol, and read back at the device's read bandwidth.
    Device(PersistConfig),
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsdsm_simnet::SimTime;

    #[test]
    fn paper_cluster_defaults() {
        let c = DsmConfig::paper_cluster(8);
        assert_eq!(c.nodes, 8);
        assert_eq!(c.total_threads(), 8);
        assert_eq!(c.prefetch.mode, PrefetchMode::Off);
        assert!(!c.threads.is_multithreaded());
    }

    #[test]
    fn builders_compose() {
        let c = DsmConfig::paper_cluster(4)
            .with_seed(9)
            .with_prefetch(PrefetchConfig::hand())
            .with_threads(ThreadConfig::multithreaded(4));
        assert_eq!(c.net.seed, 9);
        assert_eq!(c.prefetch.mode, PrefetchMode::Static);
        assert_eq!(c.total_threads(), 16);
        assert!(c.threads.switch_on_memory);
    }

    #[test]
    fn fault_and_transport_builders() {
        let base = DsmConfig::paper_cluster(4);
        assert!(base.faults.is_none());
        let c = base
            .with_faults(FaultPlan::uniform_loss(7, 0.1))
            .with_transport(TransportConfig {
                max_retries: 3,
                ..TransportConfig::default()
            });
        assert!(!c.faults.is_none());
        assert_eq!(c.faults.seed, 7);
        assert_eq!(c.transport.max_retries, 3);
    }

    #[test]
    fn combined_mode_switches_only_on_sync() {
        let t = ThreadConfig::combined(4);
        assert!(!t.switch_on_memory);
        assert!(t.is_multithreaded());
    }

    #[test]
    fn prefetch_modes_classify_their_constructors() {
        assert_eq!(PrefetchConfig::off().mode, PrefetchMode::Off);
        assert_eq!(PrefetchConfig::hand().mode, PrefetchMode::Static);
        assert_eq!(PrefetchConfig::compiler().mode, PrefetchMode::Static);
        assert_eq!(PrefetchConfig::automatic().mode, PrefetchMode::History);
        assert_eq!(PrefetchConfig::adaptive().mode, PrefetchMode::Adaptive);
        assert_eq!(
            PrefetchConfig::adaptive_static().mode,
            PrefetchMode::AdaptiveStatic
        );
        let labels: Vec<_> = [
            PrefetchMode::Off,
            PrefetchMode::Static,
            PrefetchMode::History,
            PrefetchMode::Adaptive,
            PrefetchMode::AdaptiveStatic,
        ]
        .iter()
        .map(|m| m.label())
        .collect();
        assert_eq!(labels, vec!["O", "P", "H", "A", "A+P"]);
    }

    /// `validate` is total. Over 0–9 nodes of 0–3 threads, zero and
    /// nonzero bandwidth, every shape of `RecoveryConfig`, and up to
    /// two crashes and two cuts naming nodes up to one past the
    /// cluster, it returns a plan or a `ConfigError` and never panics.
    /// A plan's recovery is the variant written out below, every crash
    /// or cut runs under a detector, and every variant is reached.
    #[test]
    fn validate_is_total() {
        let mut rng = proptest::TestRng::from_name("validate_is_total");
        let ms = SimDuration::from_millis;
        // Plans seen: off, checkpoint, detect without and with a cadence.
        let mut seen = [0u32; 4];
        for _ in 0..4096 {
            let (nodes, threads, bandwidth) =
                (0usize..=9, 0usize..=3, any::<bool>()).generate(&mut rng);
            let (enabled, every, heartbeat, persist) =
                (any::<bool>(), 0u32..=3, any::<bool>(), any::<bool>()).generate(&mut rng);
            let crash = (0usize..=10, 0u64..=4, any::<bool>());
            let crashes = prop::collection::vec(crash, 0..=2).generate(&mut rng);
            let cut = (0usize..=10, 0usize..=10, any::<bool>(), 0u64..=8, 0u64..=4);
            let cuts = prop::collection::vec(cut, 0..=2).generate(&mut rng);

            let node = |n: usize| n % (nodes + 2);
            let mut cfg =
                DsmConfig::paper_cluster(nodes).with_threads(ThreadConfig::combined(threads));
            cfg.net.bandwidth_bps *= u64::from(bandwidth);
            cfg.recovery = RecoveryConfig {
                enabled,
                checkpoint_every: every,
                heartbeat_every: ms(u64::from(heartbeat)),
                persist: PersistConfig {
                    enabled: persist,
                    ..PersistConfig::on()
                },
                ..RecoveryConfig::off()
            };
            for &(n, at, restarts) in &crashes {
                cfg.faults = cfg.faults.with_node_crash(rsdsm_simnet::NodeCrash {
                    node: node(n),
                    at: SimTime::ZERO + ms(at),
                    restart_after: restarts.then(|| ms(5)),
                });
            }
            for &(a, b, split, at, heal) in &cuts {
                let groups = if split {
                    vec![vec![node(a)], vec![node(b)]]
                } else {
                    vec![vec![node(a), node(b)]]
                };
                let cut = rsdsm_simnet::Partition::cut(groups, SimTime::ZERO + ms(at), ms(heal));
                cfg.faults = cfg.faults.with_partition(cut);
            }

            // A rejection is a typed error; only a plan has more to show.
            let Ok(plan) = cfg.validate() else {
                continue;
            };
            let cadence = (every > 0).then_some(Cadence {
                every,
                store: if persist {
                    Store::Device(cfg.recovery.persist)
                } else {
                    Store::Memory {
                        restore_per_page: cfg.recovery.restore_per_page,
                    }
                },
            });
            let want = match (enabled, cadence) {
                (false, None) => RecoveryPlan::Off,
                (false, Some(cadence)) => RecoveryPlan::Checkpoint(cadence),
                (true, cadence) => RecoveryPlan::Detect {
                    detection: Detection {
                        heartbeat: cfg.recovery.heartbeat_every,
                        lease: cfg.recovery.lease_timeout,
                        grace: cfg.recovery.confirm_grace,
                        restart_base: cfg.recovery.restart_base,
                    },
                    cadence,
                },
            };
            assert_eq!(plan.recovery(), want, "{cfg:?}");
            assert!(nodes > 0 && threads > 0 && bandwidth);
            assert!(!persist || every > 0, "persistence without a cadence");
            assert!(!enabled || heartbeat, "a detector with a zero period");
            let detects = matches!(want, RecoveryPlan::Detect { .. });
            assert!(crashes.is_empty() || (detects && every > 0), "{cfg:?}");
            assert!(cuts.is_empty() || detects, "{cfg:?}");
            seen[match want {
                RecoveryPlan::Off => 0,
                RecoveryPlan::Checkpoint(_) => 1,
                RecoveryPlan::Detect { cadence, .. } => 2 + usize::from(cadence.is_some()),
            }] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "plans seen: {seen:?}");
    }

    #[test]
    fn annotation_honoring_per_mode() {
        assert!(!PrefetchConfig::off().mode.honors_annotations());
        assert!(PrefetchConfig::hand().mode.honors_annotations());
        assert!(PrefetchConfig::compiler().mode.honors_annotations());
        assert!(!PrefetchConfig::automatic().mode.honors_annotations());
        assert!(!PrefetchConfig::adaptive().mode.honors_annotations());
        assert!(PrefetchConfig::adaptive_static().mode.honors_annotations());
    }
}

//! Crash-stop failure detection and recovery policy.
//!
//! The paper's protocol assumes all nodes stay up for the whole run;
//! this module holds the policy types that let a run survive a
//! scheduled [`NodeCrash`](rsdsm_simnet::NodeCrash):
//!
//! - [`RecoveryConfig`]: lease parameters, checkpoint cadence, and
//!   modeled restart/restore costs.
//! - [`PeerStatus`]: what a node believes about a peer's liveness.
//! - [`RecoveryStats`]: counters reported in
//!   [`RunReport`](crate::RunReport) and
//!   [`fault_summary_line`](crate::RunReport::fault_summary_line).
//!
//! The engine's outage module owns the mechanism (the failure
//! detector, event parking, checkpoint capture at barriers, restart
//! scheduling); see `DESIGN.md` §6e for the protocol.

use rsdsm_simnet::{PersistConfig, SimDuration};

use crate::config::{Cadence, Store};

/// What a node currently believes about a peer's liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PeerStatus {
    /// The lease is fresh; the peer is assumed up.
    #[default]
    Alive,
    /// The lease expired or a reliable frame exhausted its retries;
    /// the manager has been asked to confirm.
    Suspected,
    /// The peer is alive but on the far side of a known network cut:
    /// suspicion against it must not escalate to a `RecoveryStart`
    /// (it will rejoin when the partition heals), and hearing a stray
    /// pre-cut frame from it does not clear the mark.
    Unreachable,
    /// The manager confirmed the failure; traffic to the peer is
    /// parked until it rejoins from its checkpoint.
    Down,
}

/// Tunables for failure detection, checkpointing, and recovery: the
/// public input that [`DsmConfig::validate`](crate::DsmConfig::validate)
/// turns into the one recovery value a run's plan holds.
///
/// Defaults to [`RecoveryConfig::off`]: no heartbeats, no
/// checkpoints, and retry exhaustion aborts the run exactly as
/// before. With `enabled`, exhaustion and lease expiry instead feed
/// the failure detector, and crashed nodes are restarted from their
/// last barrier-aligned checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Switch for heartbeats, detection, and restart. A fault plan
    /// with crashes or cuts needs it: `validate` rejects a crash
    /// without it (`CrashWithoutDetection`), and a cut without it
    /// (`PartitionWithoutRecovery`).
    pub enabled: bool,
    /// Take a checkpoint every this many barrier epochs (0 = never).
    /// Independent of `enabled` so checkpoint overhead can be
    /// measured on crash-free runs.
    pub checkpoint_every: u32,
    /// Period of per-node heartbeat ticks. Each tick checks leases
    /// and sends an explicit heartbeat frame on links with no
    /// outbound traffic within the last period. Who monitors whom
    /// follows the topology: every peer on the flat bus, the rack
    /// hierarchy on a rack-and-spine fabric.
    pub heartbeat_every: SimDuration,
    /// A peer is suspected when nothing has been heard from it for
    /// this long.
    pub lease_timeout: SimDuration,
    /// Grace period between suspicion reaching the manager and the
    /// failure being confirmed (absorbs false suspicions).
    pub confirm_grace: SimDuration,
    /// Modeled time for a replacement node to boot before state
    /// restore begins (crash-stop failures only; crash-restart
    /// outages use the plan's `restart_after`).
    pub restart_base: SimDuration,
    /// Modeled per-page cost of reloading the last checkpoint on the
    /// restarted node. Used only when `persist` is disabled; with
    /// persistence on, the restore cost comes from the device read
    /// model instead, and the plan drops this value.
    pub restore_per_page: SimDuration,
    /// Durable-checkpoint persistence: when enabled, checkpoints are
    /// written to a modeled per-node persistent device through the
    /// two-slot commit protocol (see `core::checkpoint`), the persist
    /// cost is charged at capture, and recovery restores from the
    /// persisted image — surviving crashes that land mid-persist.
    pub persist: PersistConfig,
}

impl RecoveryConfig {
    /// Recovery disabled: the pre-recovery abort-on-exhaustion
    /// behavior, with zero overhead and bit-identical runs.
    pub fn off() -> Self {
        RecoveryConfig {
            enabled: false,
            checkpoint_every: 0,
            heartbeat_every: SimDuration::from_micros(10_000),
            lease_timeout: SimDuration::from_micros(50_000),
            confirm_grace: SimDuration::from_micros(10_000),
            restart_base: SimDuration::from_micros(500_000),
            restore_per_page: SimDuration::from_micros(20),
            persist: PersistConfig::off(),
        }
    }

    /// Recovery enabled with checkpoints every `checkpoint_every`
    /// barrier epochs and default lease parameters.
    pub fn on(checkpoint_every: u32) -> Self {
        RecoveryConfig {
            enabled: true,
            checkpoint_every,
            ..RecoveryConfig::off()
        }
    }

    /// The checkpoint cadence these settings ask for, with where each
    /// checkpoint goes; `None` without one, whatever `persist` says.
    pub(crate) fn cadence(&self) -> Option<Cadence> {
        let store = if self.persist.enabled {
            Store::Device(self.persist)
        } else {
            Store::Memory {
                restore_per_page: self.restore_per_page,
            }
        };
        (self.checkpoint_every > 0).then_some(Cadence {
            every: self.checkpoint_every,
            store,
        })
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::off()
    }
}

/// Counters for crashes, detection, checkpointing, and recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Crash events injected from the fault plan.
    pub crashes: u64,
    /// Explicit heartbeat frames sent (idle links only).
    pub heartbeats_sent: u64,
    /// Suspicion episodes raised (lease expiry or retry exhaustion).
    pub suspicions: u64,
    /// Suspicions raised against a node that was in fact up.
    pub false_suspicions: u64,
    /// Reliable frames parked after exhausting retries toward a
    /// suspected peer (re-armed when the peer is cleared or rejoins).
    pub frames_parked: u64,
    /// Barrier-aligned checkpoints captured.
    pub checkpoints_taken: u64,
    /// Total encoded size of those checkpoints.
    pub checkpoint_bytes: u64,
    /// Nodes brought back into the run from a checkpoint.
    pub recoveries: u64,
    /// Total simulated time from each crash to the matching rejoin.
    pub recovery_time: SimDuration,
    /// Network partition cuts executed from the fault plan.
    pub partitions: u64,
    /// Minority nodes frozen at a cut (suspected-but-alive: parked by
    /// the quorum rule instead of being declared crashed).
    pub partition_freezes: u64,
    /// Minority nodes reconciled back into the run after a heal.
    pub partition_rejoins: u64,
    /// Total simulated time from each cut to the matching rejoin
    /// (freeze + checkpoint restore + replay).
    pub partition_reconcile_time: SimDuration,
    /// Bytes written to the persistent devices (segmented images plus
    /// commit records; zero unless persistence is enabled).
    pub persist_bytes: u64,
    /// Device flush operations issued while persisting checkpoints.
    pub flushes: u64,
    /// Device fence operations issued while persisting checkpoints.
    pub fences: u64,
    /// Persisted slots a crash left detectably torn (discarded by
    /// recovery's slot classification).
    pub torn_discards: u64,
    /// Recoveries that fell back to the previous committed slot
    /// because the newest persist was torn by the crash.
    pub slot_fallbacks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_off() {
        let cfg = RecoveryConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.checkpoint_every, 0);
        let on = RecoveryConfig::on(4);
        assert!(on.enabled);
        assert_eq!(on.checkpoint_every, 4);
        assert_eq!(on.lease_timeout, cfg.lease_timeout);
    }
}

//! Outages and recovery: crashed and partition-frozen nodes, failure
//! detection, barrier-aligned checkpoints and their durable copies.
//!
//! A node is either up or *suspended* — crashed (NIC dead) or frozen
//! on the minority side of a cut (NIC alive). Both follow one path:
//! [`Core::suspend`] marks the node, [`Core::outage_filter`] parks
//! its local events while it is out, and [`Core::resume_node`] replays
//! them shifted by the outage. The policy types (config, detector,
//! stats) live in [`crate::recovery`]; see `DESIGN.md` §6e.
//!
//! Invariants: a suspended node handles no event and loses none (each
//! is parked and replayed exactly once, in order, time-shifted); the
//! manager never confirms a frozen node as failed; and all of this
//! state exists only when the config or fault plan needs it —
//! [`Recovery::for_config`] returns `None` for a plain run, the
//! detector's N×N lease tables appear only with `recovery.enabled`,
//! and the devices only with `recovery.persist.enabled`.

use rsdsm_simnet::{NodeId, PersistDevice, SimDuration, SimTime, Topology};

use super::{Core, Event};
use crate::accounting::Category;
use crate::checkpoint::{
    classify_slot, commit_region, payload_region, slot_for_seq, CommitRecord, NodeCheckpoint,
    SlotState, COMMIT_LEN, SLOT_COUNT, SLOT_REGIONS,
};
use crate::config::{DsmConfig, MANAGER};
use crate::msg::MsgBody;
use crate::recovery::{FailureDetector, PeerStatus, RecoveryStats};
use crate::report::SimError;
use crate::trace::{TraceEvent, NO_CAUSE, NO_THREAD};

/// Consecutive manager heartbeat ticks with no other event before the
/// engine declares the run deadlocked. With recovery enabled the
/// recurring ticks keep the event queue non-empty, so the usual
/// queue-drained deadlock check never fires; this bounds the silence
/// instead.
const IDLE_TICK_LIMIT: u32 = 256;

/// Why a suspended node is not running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suspension {
    /// Crashed: the NIC is dead, so frames reaching it are dropped.
    Crashed {
        /// A resume is already queued — guards against restarting a
        /// crash-restart victim a second time when the failure
        /// detector also confirms it.
        restart_scheduled: bool,
    },
    /// Frozen by the quorum rule on the minority side of a cut: alive
    /// (frames reaching it are parked, not dropped), and unreachable
    /// rather than dead in the manager's view — suspicion against it
    /// must never escalate to `RecoveryStart`.
    Frozen,
}

/// One node's outage bookkeeping.
#[derive(Debug, Default)]
struct NodeOutage {
    /// Why and since when the node is suspended; `None` while it runs.
    suspended: Option<(Suspension, SimTime)>,
    /// Whether an [`Event::ConfirmFailure`] is already queued for it.
    confirm_pending: bool,
}

/// Outage, checkpoint and recovery state; exists only for runs that
/// can use it (see [`Recovery::for_config`]).
pub(super) struct Recovery {
    nodes: Vec<NodeOutage>,
    /// Count of suspended nodes (fast path: zero almost always).
    suspended: usize,
    /// Events held back because their node was suspended, with the
    /// time they would have fired; replayed time-shifted at resume.
    parked_events: Vec<(NodeId, SimTime, Event)>,
    /// Each node's accumulated busy time at its last checkpoint; the
    /// difference at crash time is the modeled replay cost.
    busy_at_ckpt: Vec<SimDuration>,
    /// Barrier epoch and page count of each node's latest checkpoint
    /// (zeros before the first): what failure confirmation reports
    /// and the flat restore cost scales with.
    last_ckpt: Vec<(u32, u64)>,
    /// Counters surfaced in [`RunReport`](crate::RunReport).
    stats: RecoveryStats,
    /// Failure detection; `Some` iff `recovery.enabled`.
    detector: Option<Detector>,
    /// Durable checkpoints; `Some` iff `recovery.persist.enabled`.
    persist: Option<Persist>,
}

/// Heartbeats, leases and what retry exhaustion hands over to them.
pub(super) struct Detector {
    /// Per-link leases and peer beliefs.
    leases: FailureDetector,
    /// Last outbound frame per (src, dst) — explicit heartbeats are
    /// suppressed on links with recent traffic.
    last_sent: Vec<Vec<SimTime>>,
    /// Reliable frames that exhausted their retries toward a
    /// suspected peer, as (src, dst, seq); re-armed when the peer is
    /// cleared or rejoins.
    parked_frames: Vec<(NodeId, NodeId, u64)>,
    /// Consecutive idle manager ticks (see [`IDLE_TICK_LIMIT`]).
    idle_tick_rounds: u32,
    /// Whether any non-tick event ran since the last manager tick.
    progressed: bool,
}

/// Per-node persistent devices and the two-slot commit bookkeeping.
pub(super) struct Persist {
    /// One device per node, [`SLOT_REGIONS`] regions each.
    devices: Vec<PersistDevice>,
    /// Monotonic persist sequence per node (stamps commit records so
    /// slot classification can order the A/B pair).
    seq: Vec<u64>,
    /// Busy time at the checkpoint persisted in each slot — replay
    /// cost must be measured from whichever slot recovery actually
    /// restores.
    busy_at_slot: Vec<[SimDuration; SLOT_COUNT]>,
    /// Persisted-image size (payload + commit) backing each node's
    /// current restore source; drives the device-read restore cost.
    restore_bytes: Vec<u64>,
}

impl Recovery {
    /// The state `cfg` needs, if any: a fault plan with crashes or
    /// cuts, failure detection, or a checkpoint cadence. A plain run
    /// gets `None` and pays for none of it.
    pub(super) fn for_config(cfg: &DsmConfig) -> Option<Self> {
        let n = cfg.nodes;
        let rc = &cfg.recovery;
        let needed = rc.enabled
            || rc.checkpoint_every > 0
            || !cfg.faults.crashes.is_empty()
            || !cfg.faults.partitions.is_empty();
        needed.then(|| Recovery {
            nodes: (0..n).map(|_| NodeOutage::default()).collect(),
            suspended: 0,
            parked_events: Vec::new(),
            busy_at_ckpt: vec![SimDuration::ZERO; n],
            last_ckpt: vec![(0, 0); n],
            stats: RecoveryStats::default(),
            detector: rc.enabled.then(|| Detector {
                leases: FailureDetector::new(n, rc.lease_timeout),
                last_sent: vec![vec![SimTime::ZERO; n]; n],
                parked_frames: Vec::new(),
                idle_tick_rounds: 0,
                progressed: false,
            }),
            persist: rc.persist.enabled.then(|| Persist {
                devices: (0..n)
                    .map(|_| PersistDevice::new(SLOT_REGIONS, rc.persist))
                    .collect(),
                seq: vec![0; n],
                busy_at_slot: vec![[SimDuration::ZERO; SLOT_COUNT]; n],
                restore_bytes: vec![0; n],
            }),
        })
    }

    /// The run's recovery counters.
    pub(super) fn into_stats(self) -> RecoveryStats {
        self.stats
    }

    fn suspension(&self, x: NodeId) -> Option<Suspension> {
        self.nodes[x].suspended.map(|(why, _)| why)
    }

    fn is_crashed(&self, x: NodeId) -> bool {
        matches!(self.suspension(x), Some(Suspension::Crashed { .. }))
    }

    fn is_frozen(&self, x: NodeId) -> bool {
        self.suspension(x) == Some(Suspension::Frozen)
    }
}

impl Core<'_> {
    /// Recovery state, for handlers of events that are only ever
    /// scheduled when it exists.
    fn rec(&mut self) -> &mut Recovery {
        self.recovery
            .as_mut()
            .expect("outage events are scheduled only with recovery state")
    }

    /// Detector state, if this run detects failures.
    fn detector_mut(&mut self) -> Option<&mut Detector> {
        self.recovery.as_mut()?.detector.as_mut()
    }

    /// Detector state, for handlers only reached with
    /// `recovery.enabled`.
    fn det(&mut self) -> &mut Detector {
        self.detector_mut()
            .expect("detector events are scheduled only with recovery enabled")
    }

    /// The failure detector, if this run has one.
    pub(super) fn detector(&self) -> Option<&Detector> {
        self.recovery.as_ref()?.detector.as_ref()
    }

    /// The persistence layer, if this run has one.
    pub(super) fn persist(&self) -> Option<&Persist> {
        self.recovery.as_ref()?.persist.as_ref()
    }

    /// Every node's persistent device, for tests that read a run's
    /// slots back.
    #[cfg(test)]
    pub(super) fn persist_devices(&mut self) -> &mut [PersistDevice] {
        let rec = self.recovery.as_mut().expect("recovery state");
        &mut rec.persist.as_mut().expect("persist state").devices
    }

    // ------------------------------------------------------------------
    // Suspend → park → resume
    // ------------------------------------------------------------------

    /// The run loop's outage phase: filters one popped event against
    /// the suspended nodes. Local activity (thread events, retry
    /// timers) of a suspended node is parked for replay at resume;
    /// frames arriving at a crashed node's dead NIC are dropped and
    /// counted, while frames reaching a *frozen* node (intra-minority
    /// traffic — the NIC is alive, the node just is not making
    /// progress) are parked too. Frames *from* a recently-crashed
    /// node that were already on the wire still deliver. Returns
    /// `None` when the event was consumed.
    pub(super) fn outage_filter(&mut self, now: SimTime, event: Event) -> Option<Event> {
        let tpn = self.tpn();
        let Some(rec) = self.recovery.as_mut() else {
            return Some(event);
        };
        if let Some(det) = rec.detector.as_mut() {
            if !matches!(event, Event::HeartbeatTick(_)) {
                det.progressed = true;
            }
        }
        if rec.suspended == 0 {
            return Some(event);
        }
        let node = match &event {
            Event::Start(tid) | Event::SyscallReady(tid) => tid.node(tpn),
            Event::Arrival(pkt) => pkt.dst,
            Event::RetryTimeout { src, .. } => *src,
            _ => return Some(event),
        };
        match (rec.suspension(node), &event) {
            (None, _) => return Some(event),
            (Some(Suspension::Crashed { .. }), Event::Arrival(pkt)) => {
                self.wire.note_crash_drop(&pkt.frame);
            }
            (Some(_), _) => rec.parked_events.push((node, now, event)),
        }
        None
    }

    /// Marks `x` suspended from `now` on.
    fn suspend(&mut self, x: NodeId, why: Suspension, now: SimTime) {
        let rec = self.rec();
        if rec.nodes[x].suspended.replace((why, now)).is_none() {
            rec.suspended += 1;
        }
    }

    /// A scheduled crash fires: the NIC goes dead (subsequent frames
    /// to and from the node are dropped by the network) and the
    /// node's local activity freezes. For crash-restart faults the
    /// resume is scheduled immediately — outage plus, when recovery
    /// is on, the modeled restore and replay costs.
    pub(super) fn on_crash(&mut self, x: NodeId, restart_after: Option<SimDuration>, now: SimTime) {
        self.tracer.emit(
            now,
            x as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::Crash {
                restarts: restart_after.is_some(),
            },
        );
        self.wire.set_node_down(x, true);
        self.suspend(
            x,
            Suspension::Crashed {
                restart_scheduled: false,
            },
            now,
        );
        self.rec().stats.crashes += 1;
        // With persistence, the crash instant decides what survives
        // on the device — and therefore which image (and cost) the
        // restart below is scheduled against.
        if self.persist().is_some() {
            self.reload_from_device(x, now);
        }
        if let Some(outage) = restart_after {
            let at = if self.cfg.recovery.enabled {
                now + outage + self.recovery_cost(x)
            } else {
                // Recovery disabled: a pure outage. The run survives
                // only if the retry budget outlasts it.
                now + outage
            };
            self.schedule_restart(x, at);
        }
    }

    /// Queues crashed node `x`'s resume at `at`.
    fn schedule_restart(&mut self, x: NodeId, at: SimTime) {
        if let Some((Suspension::Crashed { restart_scheduled }, _)) =
            &mut self.rec().nodes[x].suspended
        {
            *restart_scheduled = true;
        }
        self.sched.push(at, Event::Resume(x));
    }

    /// A suspended node comes back. The simulation models recovery —
    /// of a crashed node on its replacement, of a frozen node after
    /// the heal — as checkpoint restore plus deterministic replay:
    /// the node re-executes from the last barrier-aligned checkpoint
    /// and, because the simulation is deterministic, arrives at
    /// exactly the state it had when it was suspended. The cost of
    /// doing so was charged when this resume was scheduled
    /// ([`Core::recovery_cost`]), so here the held state simply
    /// resumes, time-shifted by the outage: parked local events and
    /// arrivals replay, parked frames toward the node re-arm, and
    /// every observer's belief about it resets to alive.
    pub(super) fn resume_node(&mut self, x: NodeId, now: SimTime) {
        let Some((why, since)) = self.rec().nodes[x].suspended else {
            return;
        };
        let shift = now.saturating_since(since);
        match why {
            Suspension::Crashed { .. } => {
                self.tracer
                    .emit(now, x as u32, NO_THREAD, NO_CAUSE, TraceEvent::Restart);
                self.wire.set_node_down(x, false);
                let rec = self.rec();
                rec.nodes[x].confirm_pending = false;
                rec.stats.recoveries += 1;
                rec.stats.recovery_time += shift;
            }
            Suspension::Frozen => {
                // A later cut isolated the node again before this
                // resume matured; that cut's heal schedules a fresh
                // one.
                let still_cut = self
                    .cfg
                    .faults
                    .partitions
                    .iter()
                    .any(|p| p.active_at(now) && p.group_of(x) != p.group_of(MANAGER));
                if still_cut {
                    return;
                }
                self.tracer.emit(
                    now,
                    x as u32,
                    NO_THREAD,
                    NO_CAUSE,
                    TraceEvent::PartitionRejoin,
                );
                let rec = self.rec();
                rec.stats.partition_rejoins += 1;
                rec.stats.partition_reconcile_time += shift;
            }
        }
        let rec = self
            .recovery
            .as_mut()
            .expect("a suspended node implies recovery state");
        rec.nodes[x].suspended = None;
        rec.suspended -= 1;
        for (node, at, ev) in std::mem::take(&mut rec.parked_events) {
            if node == x {
                self.sched.push(at + shift, ev);
            } else {
                rec.parked_events.push((node, at, ev));
            }
        }
        // An in-progress compute burst resumes where it stopped.
        self.sched.shift_burst(x, shift);
        self.unpark_frames_to(x, now);
        if let Some(det) = self.detector_mut() {
            det.leases.clear(x, now);
        }
    }

    /// Re-arms every parked reliable frame destined for `peer` (it
    /// resumed, or its suspicion proved false).
    fn unpark_frames_to(&mut self, peer: NodeId, now: SimTime) {
        let Some(det) = self.detector_mut() else {
            return;
        };
        let (to_peer, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut det.parked_frames)
            .into_iter()
            .partition(|&(_, dst, _)| dst == peer);
        det.parked_frames = rest;
        for (src, dst, seq) in to_peer {
            self.rearm_frame(src, dst, seq, now);
        }
    }

    // ------------------------------------------------------------------
    // Failure detection
    // ------------------------------------------------------------------

    /// Records an outbound frame on (src, dst) so the next heartbeat
    /// tick skips the explicit heartbeat for that link.
    pub(super) fn note_sent(&mut self, src: NodeId, dst: NodeId, at: SimTime) {
        if let Some(det) = self.detector_mut() {
            let slot = &mut det.last_sent[src][dst];
            *slot = (*slot).max(at);
        }
    }

    /// Records that `observer` received a frame from `peer`: every
    /// frame is an implicit heartbeat refreshing the peer's lease.
    pub(super) fn note_heard(&mut self, observer: NodeId, peer: NodeId, now: SimTime) {
        if let Some(det) = self.detector_mut() {
            det.leases.heard(observer, peer, now);
        }
    }

    /// One failure-detector tick at node `n`: re-arms itself, sends
    /// explicit heartbeats on idle links, and checks peer leases.
    /// The manager's tick doubles as the engine's liveness watchdog
    /// (the recurring ticks defeat the queue-drained deadlock check).
    pub(super) fn on_heartbeat_tick(&mut self, n: NodeId, now: SimTime) -> Result<(), SimError> {
        let every = self.cfg.recovery.heartbeat_every;
        self.sched.push(now + every, Event::HeartbeatTick(n));
        if n == MANAGER {
            let det = self.det();
            if det.progressed {
                det.idle_tick_rounds = 0;
            } else {
                det.idle_tick_rounds += 1;
                if det.idle_tick_rounds > IDLE_TICK_LIMIT {
                    return Err(SimError::Deadlock(self.describe_blocked()));
                }
            }
            det.progressed = false;
        }
        // A suspended node ticks again once it resumes; its detector
        // must not run while it is crashed or parked by the quorum
        // rule.
        if self.rec().nodes[n].suspended.is_some() {
            return Ok(());
        }
        for peer in 0..self.cfg.nodes {
            if peer == n || !self.monitors(n, peer) {
                continue;
            }
            let det = self.det();
            if det.leases.status(n, peer) != PeerStatus::Down
                && det.last_sent[n][peer] + every <= now
            {
                self.rec().stats.heartbeats_sent += 1;
                self.send_heartbeat(n, peer, now);
            }
            // Nobody suspects the manager: it hosts the lock/barrier
            // managers and the recovery coordinator and is assumed
            // stable (the crash planner rejects node 0).
            let det = self.det();
            if peer != MANAGER
                && det.leases.status(n, peer) == PeerStatus::Alive
                && det.leases.lease_expired(n, peer, now)
            {
                self.raise_suspicion(n, peer, now);
            }
        }
        Ok(())
    }

    /// Whether node `n` actively monitors `peer` (sends heartbeats
    /// and checks the lease). On the flat bus everyone monitors
    /// everyone — O(N²) frames per idle round, which the paper-scale
    /// single switch carries. A rack-and-spine fabric cannot (at 64
    /// nodes the mesh saturates the oversubscribed trunks), so there
    /// the racks are the hierarchy, O(N) per round: members monitor
    /// their rack leader (the rack's first node), leaders monitor
    /// their members plus the manager, and the manager monitors the
    /// leaders plus its own rack. Safe because failure confirmation
    /// still resolves against ground truth at the manager; the
    /// hierarchy only changes who notices first.
    fn monitors(&self, n: NodeId, peer: NodeId) -> bool {
        let topo = self.cfg.net.topology;
        let Topology::RackSpine { rack_size, .. } = topo else {
            return true;
        };
        let leader_of = |node: NodeId| (node / rack_size) * rack_size;
        if n == MANAGER {
            return leader_of(peer) == peer || topo.same_rack(n, peer);
        }
        if leader_of(n) == n {
            return topo.same_rack(n, peer) || peer == MANAGER;
        }
        peer == leader_of(n)
    }

    /// A reliable frame exhausted its retries toward `dst`: park it
    /// and hand the peer to the failure detector. The frame re-arms
    /// when the peer is cleared or resumes.
    pub(super) fn park_frame(&mut self, src: NodeId, dst: NodeId, seq: u64, now: SimTime) {
        self.det().parked_frames.push((src, dst, seq));
        self.rec().stats.frames_parked += 1;
        self.tracer.emit(
            now,
            src as u32,
            NO_THREAD,
            self.tracer.first_send(src as u32, dst as u32, seq),
            TraceEvent::FrameParked {
                peer: dst as u32,
                seq,
            },
        );
        self.raise_suspicion(src, dst, now);
    }

    /// Starts a suspicion episode: `observer` stopped hearing from
    /// `peer` (lease expiry or retry exhaustion). The manager decides
    /// failures, so a non-manager observer reports to it.
    fn raise_suspicion(&mut self, observer: NodeId, peer: NodeId, now: SimTime) {
        if !self.det().leases.suspect(observer, peer) {
            return;
        }
        let rec = self.rec();
        rec.stats.suspicions += 1;
        if !rec.is_crashed(peer) {
            rec.stats.false_suspicions += 1;
        }
        self.tracer.emit(
            now,
            observer as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::Suspect { peer: peer as u32 },
        );
        if observer == MANAGER {
            self.schedule_confirm(peer, now);
        } else {
            let end = self.charge(
                observer,
                now,
                self.cfg.costs.msg_send,
                Category::DsmOverhead,
                None,
            );
            self.post(
                end,
                observer,
                MANAGER,
                MsgBody::SuspectReport { suspect: peer },
            );
        }
    }

    /// A non-manager observer's suspicion reached the manager.
    pub(super) fn on_suspect_report(&mut self, n: NodeId, suspect: NodeId, at: SimTime) {
        debug_assert_eq!(n, MANAGER);
        let end = self.charge_sync(n, at);
        self.schedule_confirm(suspect, end);
    }

    /// The manager told survivor `n` that `victim` is confirmed down.
    pub(super) fn on_recovery_start(&mut self, n: NodeId, victim: NodeId, at: SimTime) {
        self.charge_sync(n, at);
        self.det().leases.mark_down(n, victim);
    }

    /// Queues a [`Event::ConfirmFailure`] for `victim` after the
    /// grace period, once per suspicion episode.
    fn schedule_confirm(&mut self, victim: NodeId, now: SimTime) {
        // The quorum rule, split-brain half: a node behind a known cut
        // is unreachable, not dead. Its suspicion stays parked until
        // the heal reconciles it — no confirmation, no RecoveryStart.
        if self.rec().is_frozen(victim)
            || victim == MANAGER
            || self.rec().nodes[victim].confirm_pending
            || self.det().leases.status(MANAGER, victim) == PeerStatus::Down
        {
            return;
        }
        self.rec().nodes[victim].confirm_pending = true;
        self.sched.push(
            now + self.cfg.recovery.confirm_grace,
            Event::ConfirmFailure(victim),
        );
    }

    /// The manager's confirmation deadline for a suspect. The
    /// simulator resolves the detector's uncertainty against ground
    /// truth — standing in for a direct probe round — so a suspect
    /// that is actually up is cleared (a false alarm), and a dead one
    /// triggers coordinated recovery: survivors are told via
    /// [`MsgBody::RecoveryStart`], and a replacement restart is
    /// scheduled unless the crash-restart plan already did.
    pub(super) fn on_confirm_failure(&mut self, victim: NodeId, now: SimTime) {
        self.rec().nodes[victim].confirm_pending = false;
        let restart_scheduled = match self.rec().suspension(victim) {
            // A cut may have landed between the suspicion and this
            // deadline: the victim is unreachable, not dead. Leave its
            // state for the heal to reconcile.
            Some(Suspension::Frozen) => return,
            None => {
                self.det().leases.clear(victim, now);
                self.unpark_frames_to(victim, now);
                return;
            }
            Some(Suspension::Crashed { restart_scheduled }) => restart_scheduled,
        };
        if self.det().leases.status(MANAGER, victim) == PeerStatus::Down {
            return;
        }
        self.det().leases.mark_down(MANAGER, victim);
        let (epoch, _) = self.rec().last_ckpt[victim];
        self.tracer.emit(
            now,
            MANAGER as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::ConfirmDown {
                peer: victim as u32,
            },
        );
        let mut end = now;
        for p in 0..self.cfg.nodes {
            if p == MANAGER || p == victim || self.rec().is_crashed(p) {
                continue;
            }
            end = self.charge(
                MANAGER,
                end,
                self.cfg.costs.msg_send,
                Category::DsmOverhead,
                None,
            );
            self.post(end, MANAGER, p, MsgBody::RecoveryStart { victim, epoch });
        }
        if !restart_scheduled {
            let at = now + self.cfg.recovery.restart_base + self.recovery_cost(victim);
            self.schedule_restart(victim, at);
        }
    }

    // ------------------------------------------------------------------
    // Partitions
    // ------------------------------------------------------------------

    /// A scheduled network cut activates. The network has been
    /// dropping cross-cut frames since the cut instant (it evaluates
    /// the static schedule at send time); here the engine applies the
    /// quorum rule: every node outside the manager-side component
    /// freezes — its local events and arrivals park, exactly as if it
    /// suspended itself on losing its majority — and the manager marks
    /// it unreachable so lease expiry cannot escalate to a false
    /// `RecoveryStart`. The majority side keeps running.
    pub(super) fn on_partition_start(&mut self, idx: usize, now: SimTime) {
        let cfg = self.cfg;
        let p = &cfg.faults.partitions[idx];
        let mgr_group = p.group_of(MANAGER);
        self.rec().stats.partitions += 1;
        for x in 0..self.cfg.nodes {
            if p.group_of(x) == mgr_group || self.rec().nodes[x].suspended.is_some() {
                continue;
            }
            self.suspend(x, Suspension::Frozen, now);
            self.rec().stats.partition_freezes += 1;
            self.det().leases.mark_unreachable(MANAGER, x);
            self.tracer.emit(
                now,
                x as u32,
                NO_THREAD,
                NO_CAUSE,
                TraceEvent::PartitionFreeze,
            );
        }
        self.sched.push(p.heal_at(), Event::PartitionHeal(idx));
    }

    /// The cut heals. Each frozen minority node reconciles through
    /// the checkpoint path: discard speculative state, reload the last
    /// barrier-aligned checkpoint, and deterministically replay up to
    /// the freeze instant — the same argument as crash recovery, so
    /// the resume cost is the same restore + replay model.
    pub(super) fn on_partition_heal(&mut self, idx: usize, now: SimTime) {
        let cfg = self.cfg;
        let p = &cfg.faults.partitions[idx];
        let mgr_group = p.group_of(MANAGER);
        self.tracer.emit(
            now,
            MANAGER as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::PartitionHeal,
        );
        for x in 0..self.cfg.nodes {
            if p.group_of(x) == mgr_group || !self.rec().is_frozen(x) {
                continue;
            }
            let at = now + self.recovery_cost(x);
            self.sched.push(at, Event::Resume(x));
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints and persistence
    // ------------------------------------------------------------------

    /// Modeled time to bring `x` back from its last checkpoint:
    /// restore plus replay. Restore reloads the checkpoint — with
    /// persistence on, by reading the persisted image back at the
    /// device's read bandwidth; otherwise at the flat per-page cost.
    /// Replay re-executes `x`'s work since that checkpoint
    /// (deterministic replay reaches the state at suspension; see
    /// [`Core::resume_node`]).
    fn recovery_cost(&self, x: NodeId) -> SimDuration {
        let rc = &self.cfg.recovery;
        let busy = self.nodes[x].account.breakdown()[Category::Busy];
        let rec = self.recovery.as_ref().expect("recovery state");
        let restore = match &rec.persist {
            Some(per) => rc.persist.read_time(per.restore_bytes[x] as usize),
            None => {
                let (_, pages) = rec.last_ckpt[x];
                rc.restore_per_page * pages
            }
        };
        restore + busy.saturating_sub(rec.busy_at_ckpt[x])
    }

    /// Takes node `n`'s barrier-aligned checkpoint and returns the
    /// time the node resumes. Without persistence the checkpoint is
    /// only measured, and deliberately charges no CPU time and
    /// consumes no randomness: the model treats the snapshot as
    /// copy-on-write work off the critical path, so a crash-free run's
    /// event timeline — and its `RunReport` digest, recovery fields
    /// aside — is identical with checkpointing on or off. With
    /// persistence on, the node's state is laid straight into its
    /// segmented image, written through the durable two-slot commit
    /// protocol, and the node stalls for the modeled persist cost.
    pub(super) fn take_checkpoint(&mut self, n: NodeId, at: SimTime) -> SimTime {
        let epoch = self.barriers.epochs_done(n);
        let ckpt = NodeCheckpoint::new(n as u32, epoch, &self.nodes[n]);
        let (bytes, pages) = (ckpt.len() as u64, ckpt.pages() as u64);
        let image = self.persist().is_some().then(|| ckpt.segmented());
        self.tracer.emit(
            at,
            n as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::CheckpointTaken {
                epoch,
                bytes: bytes as u32,
            },
        );
        let busy = self.nodes[n].account.breakdown()[Category::Busy];
        let rec = self.rec();
        rec.stats.checkpoints_taken += 1;
        rec.stats.checkpoint_bytes += bytes;
        rec.busy_at_ckpt[n] = busy;
        rec.last_ckpt[n] = (epoch, pages);
        match image {
            Some(image) => self.persist_checkpoint(n, epoch, image, at),
            None => at,
        }
    }

    /// Writes a checkpoint of `epoch` (`payload`, its segmented image)
    /// to node `n`'s persistent device through the detectably
    /// recoverable A/B protocol: payload into the persist's slot,
    /// flush, fence; then the commit record, flush, fence. The drain
    /// runs at the device's write bandwidth in the background, but the
    /// protocol is synchronous at the barrier: the node stalls until
    /// the commit fence completes, which is exactly the durability
    /// overhead the model is after. Returns the stall end.
    fn persist_checkpoint(
        &mut self,
        n: NodeId,
        epoch: u32,
        payload: Vec<u8>,
        at: SimTime,
    ) -> SimTime {
        let rec = self.rec();
        let per = rec.persist.as_mut().expect("persist state");
        per.seq[n] += 1;
        let seq = per.seq[n];
        let slot = slot_for_seq(seq);
        let commit = CommitRecord::for_payload(epoch, seq, &payload).encode();
        let image_bytes = (payload.len() + commit.len()) as u64;
        // Every call is made at the node's present; the payload's fence
        // holds the commit's drain back until the payload is durable.
        let committed = {
            let dev = &mut per.devices[n];
            dev.write_owned(payload_region(slot), 0, payload);
            dev.flush(at);
            dev.fence(at);
            // The commit record is ordered strictly after the payload
            // fence: a crash can tear one or the other, never leave a
            // fresh commit over a half-written payload.
            dev.write_owned(commit_region(slot), 0, commit);
            dev.flush(at);
            dev.fence(at)
        };
        per.busy_at_slot[n][slot] = rec.busy_at_ckpt[n];
        per.restore_bytes[n] = image_bytes;
        rec.stats.persist_bytes += image_bytes;
        rec.stats.flushes += 2;
        rec.stats.fences += 2;
        self.tracer.emit(
            at,
            n as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::PersistCommit {
                epoch,
                bytes: image_bytes as u32,
            },
        );
        self.charge(
            n,
            at,
            committed.saturating_since(at),
            Category::DsmOverhead,
            None,
        )
    }

    /// Applies crash semantics to `x`'s persistent device at the
    /// crash instant — the store buffer is lost and the in-flight
    /// sector tears — then classifies both slots and makes the best
    /// committed image the node's restore source. Torn slots count as
    /// `torn_discards`; restoring an older image than the newest
    /// persist attempted counts as a `slot_fallback`.
    fn reload_from_device(&mut self, x: NodeId, now: SimTime) {
        let rec = self.rec();
        let per = rec.persist.as_mut().expect("persist state");
        let dev = &mut per.devices[x];
        dev.crash(now);
        let states: Vec<SlotState> = (0..SLOT_COUNT)
            .map(|s| classify_slot(dev.read(payload_region(s)), dev.read(commit_region(s))))
            .collect();
        rec.stats.torn_discards += states
            .iter()
            .filter(|s| matches!(s, SlotState::Torn))
            .count() as u64;
        let best = states
            .into_iter()
            .enumerate()
            .filter_map(|(slot, s)| match s {
                SlotState::Committed { seq, ckpt } => Some((seq, slot, ckpt)),
                _ => None,
            })
            .max_by_key(|&(seq, ..)| seq);
        match best {
            Some((seq, slot, ckpt)) => {
                if seq < per.seq[x] {
                    rec.stats.slot_fallbacks += 1;
                }
                // The slot classified as committed, so its commit
                // record decodes and names the image's length.
                let image = CommitRecord::decode(per.devices[x].read(commit_region(slot)))
                    .expect("committed slot has an intact commit record")
                    .payload_len as usize;
                per.restore_bytes[x] = (image + COMMIT_LEN) as u64;
                rec.busy_at_ckpt[x] = per.busy_at_slot[x][slot];
                rec.last_ckpt[x] = (ckpt.epoch, ckpt.pages.len() as u64);
            }
            None => {
                // Nothing committed yet (the crash predates the first
                // durable checkpoint): recovery restarts from scratch.
                per.restore_bytes[x] = 0;
                rec.busy_at_ckpt[x] = SimDuration::ZERO;
                rec.last_ckpt[x] = (0, 0);
            }
        }
    }
}

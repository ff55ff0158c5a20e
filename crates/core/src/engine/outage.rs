//! Outages and recovery: crashed and partition-frozen nodes, failure
//! detection, barrier-aligned checkpoints and their durable copies.
//!
//! A node is either up or *suspended* — crashed (NIC dead) or frozen
//! on the minority side of a cut (NIC alive). Both follow one path:
//! [`Core::suspend`] marks the node, [`Core::outage_filter`] parks
//! its local events while it is out, and [`Core::resume_node`] replays
//! them shifted by the outage. Everything one node's outage holds is
//! one [`NodeOutage`]; the policy types (config, stats, [`PeerStatus`])
//! live in [`crate::recovery`]; see `DESIGN.md` §6e.
//!
//! Invariants: a suspended node handles no event and loses none (each
//! is parked and replayed exactly once, in order, time-shifted); a
//! node is suspended at most once at a time; the manager never
//! confirms a frozen node as failed; and all of this state exists
//! only when the run's plan needs it — [`Recovery::for_plan`] returns
//! `None` for [`RecoveryPlan::Off`], the detector's N×N link table
//! appears only under [`RecoveryPlan::Detect`], and the devices only
//! with a cadence whose [`Store`] is a device.

use rsdsm_simnet::{NodeId, PersistDevice, SimDuration, SimTime, Topology};

use super::{Core, Event};
use crate::accounting::Category;
use crate::checkpoint::{
    classify_slot, commit_region, payload_region, slot_for_seq, CommitRecord, NodeCheckpoint,
    SlotState, SLOT_COUNT, SLOT_REGIONS,
};
use crate::config::{Cadence, Detection, RecoveryPlan, Store, MANAGER};
use crate::msg::MsgBody;
use crate::recovery::{PeerStatus, RecoveryStats};
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
    Crashed,
    /// Frozen by the quorum rule on the minority side of a cut: alive
    /// (frames reaching it are parked, not dropped), and unreachable
    /// rather than dead in the manager's view — suspicion against it
    /// must never escalate to `RecoveryStart`.
    Frozen,
}

/// A suspended node: why, since when, and what it holds back.
#[derive(Debug)]
struct Suspended {
    why: Suspension,
    since: SimTime,
    /// Events that fired for the node while it was out, with the time
    /// they would have fired; replayed time-shifted at resume.
    parked: Vec<(SimTime, Event)>,
}

/// The checkpoint a resume restores from.
#[derive(Debug, Clone, Copy, Default)]
struct Restore {
    /// Its barrier epoch (zero before the first): what failure
    /// confirmation reports.
    epoch: u32,
    /// The node's accumulated busy time when it was taken; busy time
    /// since then is the modeled replay cost.
    busy: SimDuration,
    /// Time to read it back: the flat per-page cost, or the device
    /// read of its persisted image.
    read: SimDuration,
}

/// One node's outage: everything recovery knows about it.
#[derive(Debug, Default)]
struct NodeOutage {
    /// `None` while the node runs.
    suspended: Option<Suspended>,
    /// Whether an [`Event::ConfirmFailure`] is already queued for it.
    confirm_pending: bool,
    /// Reliable frames toward the node that exhausted their retries,
    /// as (src, seq); re-armed when it is cleared or rejoins.
    parked_frames: Vec<(NodeId, u64)>,
    /// What a resume restores from.
    restore: Restore,
}

/// Outage, checkpoint and recovery state; exists only for runs that
/// can use it (see [`Recovery::for_plan`]).
pub(super) struct Recovery {
    nodes: Vec<NodeOutage>,
    /// Counters surfaced in [`RunReport`](crate::RunReport).
    stats: RecoveryStats,
    /// Failure detection; `Some` iff the plan detects.
    detector: Option<Detector>,
    /// The plan's checkpoint cadence, if it has one.
    cadence: Option<Cadence>,
    /// One durable device per node; `Some` iff the cadence stores to a
    /// device.
    persist: Option<Vec<Durable>>,
}

/// What one node knows about one peer.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// When it last heard a frame from the peer.
    heard: SimTime,
    /// When it last sent a frame to the peer — explicit heartbeats are
    /// suppressed on links with recent traffic.
    sent: SimTime,
    /// What it believes about the peer.
    status: PeerStatus,
}

/// Heartbeats and leases: per-link leases refreshed by any arriving
/// frame (explicit heartbeats go only on idle links), surfacing
/// suspicion as a typed [`PeerStatus`].
#[derive(Debug)]
pub(super) struct Detector {
    periods: Detection,
    /// `links[observer][peer]`.
    links: Vec<Vec<Link>>,
    /// Consecutive idle manager ticks (see [`IDLE_TICK_LIMIT`]).
    idle_tick_rounds: u32,
    /// Whether any non-tick event ran since the last manager tick.
    progressed: bool,
}

impl Detector {
    /// A detector for `nodes` nodes with the given periods; all leases
    /// start fresh at time zero.
    fn new(nodes: usize, periods: Detection) -> Self {
        Detector {
            periods,
            links: vec![vec![Link::default(); nodes]; nodes],
            idle_tick_rounds: 0,
            progressed: false,
        }
    }

    /// Records that `observer` heard from `peer` (any frame arrival
    /// counts — this is the ack/data piggyback path). A suspected
    /// peer that is heard from again is cleared back to alive; a
    /// confirmed-down or unreachable peer is not, until it rejoins.
    fn heard(&mut self, observer: NodeId, peer: NodeId, now: SimTime) {
        let link = &mut self.links[observer][peer];
        link.heard = now;
        if link.status == PeerStatus::Suspected {
            link.status = PeerStatus::Alive;
        }
    }

    /// True when `observer` has heard nothing from `peer` for longer
    /// than the lease timeout.
    fn lease_expired(&self, observer: NodeId, peer: NodeId, now: SimTime) -> bool {
        now > self.links[observer][peer].heard + self.periods.lease
    }

    /// `observer`'s current belief about `peer`.
    fn status(&self, observer: NodeId, peer: NodeId) -> PeerStatus {
        self.links[observer][peer].status
    }

    /// Marks `peer` suspected at `observer`. Returns `true` when this
    /// starts a new suspicion episode (the peer was believed alive).
    fn suspect(&mut self, observer: NodeId, peer: NodeId) -> bool {
        let fresh = self.status(observer, peer) == PeerStatus::Alive;
        if fresh {
            self.mark(observer, peer, PeerStatus::Suspected);
        }
        fresh
    }

    /// Sets `observer`'s belief about `peer`. `Down` and `Unreachable`
    /// are sticky: only [`Detector::clear`] resets them, at rejoin.
    fn mark(&mut self, observer: NodeId, peer: NodeId, status: PeerStatus) {
        self.links[observer][peer].status = status;
    }

    /// Clears all state about `peer` (it rejoined, or a suspicion was
    /// resolved as false): every observer believes it alive with a
    /// fresh lease, and `peer` itself gets fresh leases on everyone.
    fn clear(&mut self, peer: NodeId, now: SimTime) {
        for observer in 0..self.links.len() {
            let link = &mut self.links[observer][peer];
            link.status = PeerStatus::Alive;
            link.heard = now;
            self.links[peer][observer].heard = now;
        }
    }
}

/// One node's persistent device and its two-slot commit bookkeeping.
struct Durable {
    /// [`SLOT_REGIONS`] regions.
    device: PersistDevice,
    /// Monotonic persist sequence (stamps commit records so slot
    /// classification can order the A/B pair).
    seq: u64,
    /// The checkpoint each slot holds, as a resume would restore it.
    slots: [Restore; SLOT_COUNT],
}

impl Recovery {
    /// The state a plan of `n` nodes needs: a detector when it
    /// detects, devices when its cadence stores to one. A plan whose
    /// recovery is off gets `None` and pays for none of it.
    pub(super) fn for_plan(n: usize, plan: RecoveryPlan) -> Option<Self> {
        let (detector, cadence) = match plan {
            RecoveryPlan::Off => return None,
            RecoveryPlan::Checkpoint(cadence) => (None, Some(cadence)),
            RecoveryPlan::Detect { detection, cadence } => {
                (Some(Detector::new(n, detection)), cadence)
            }
        };
        let persist = match cadence.map(|c| c.store) {
            Some(Store::Device(device)) => Some(
                (0..n)
                    .map(|_| Durable {
                        device: PersistDevice::new(SLOT_REGIONS, device),
                        seq: 0,
                        slots: [Restore::default(); SLOT_COUNT],
                    })
                    .collect(),
            ),
            _ => None,
        };
        Some(Recovery {
            nodes: (0..n).map(|_| NodeOutage::default()).collect(),
            stats: RecoveryStats::default(),
            detector,
            cadence,
            persist,
        })
    }

    /// The run's recovery counters.
    pub(super) fn into_stats(self) -> RecoveryStats {
        self.stats
    }

    fn suspension(&self, x: NodeId) -> Option<Suspension> {
        self.nodes[x].suspended.as_ref().map(|s| s.why)
    }

    fn is_crashed(&self, x: NodeId) -> bool {
        self.suspension(x) == Some(Suspension::Crashed)
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
    pub(super) fn detector_mut(&mut self) -> Option<&mut Detector> {
        self.recovery.as_mut()?.detector.as_mut()
    }

    /// Detector state, for handlers only reached when the plan
    /// detects failures.
    fn det(&mut self) -> &mut Detector {
        self.detector_mut()
            .expect("detector events are scheduled only when the plan detects")
    }

    /// The run's checkpoint cadence, if it has one.
    pub(super) fn cadence(&self) -> Option<Cadence> {
        self.recovery.as_ref()?.cadence
    }

    /// Every node's persistent device, with the epoch and read time of
    /// the restore source kept for each of its slots; for tests that
    /// read a run's slots back.
    #[cfg(test)]
    pub(super) fn persisted(&self) -> Vec<(PersistDevice, [(u32, SimDuration); SLOT_COUNT])> {
        let durable = self.recovery.as_ref().and_then(|r| r.persist.as_ref());
        let kept = |d: &Durable| (d.device.clone(), d.slots.map(|r| (r.epoch, r.read)));
        durable.expect("persist state").iter().map(kept).collect()
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
        let node = match &event {
            Event::Start(tid) | Event::SyscallReady(tid) => tid.node(tpn),
            Event::Arrival(pkt) => pkt.dst,
            Event::RetryTimeout { src, .. } => *src,
            _ => return Some(event),
        };
        match (&mut rec.nodes[node].suspended, &event) {
            (None, _) => return Some(event),
            (Some(s), Event::Arrival(pkt)) if s.why == Suspension::Crashed => {
                self.wire.note_crash_drop(&pkt.frame);
            }
            (Some(s), _) => s.parked.push((now, event)),
        }
        None
    }

    /// Marks `x` suspended from `now` on.
    fn suspend(&mut self, x: NodeId, why: Suspension, now: SimTime) {
        let node = &mut self.rec().nodes[x];
        debug_assert!(node.suspended.is_none(), "node {x} suspended twice");
        node.suspended = Some(Suspended {
            why,
            since: now,
            parked: Vec::new(),
        });
    }

    /// A scheduled crash fires: the NIC goes dead (subsequent frames
    /// to and from the node are dropped by the network) and the
    /// node's local activity freezes. For crash-restart faults the
    /// resume is scheduled immediately — outage plus the modeled
    /// restore and replay costs.
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
        self.suspend(x, Suspension::Crashed, now);
        self.rec().stats.crashes += 1;
        // With persistence, the crash instant decides what survives
        // on the device — and therefore which image (and cost) the
        // restart below is scheduled against.
        if self.rec().persist.is_some() {
            self.reload_from_device(x, now);
        }
        if let Some(outage) = restart_after {
            let at = now + outage + self.recovery_cost(x);
            self.sched.push(at, Event::Resume(x));
        }
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
        let Some(Suspended { why, since, .. }) = self.rec().nodes[x].suspended else {
            return;
        };
        let shift = now.saturating_since(since);
        match why {
            Suspension::Crashed => {
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
        let parked = self.rec().nodes[x].suspended.take().map(|s| s.parked);
        for (at, ev) in parked.into_iter().flatten() {
            self.sched.push(at + shift, ev);
        }
        // An in-progress compute burst resumes where it stopped.
        self.sched.shift_burst(x, shift);
        self.unpark_frames_to(x, now);
        if let Some(det) = self.detector_mut() {
            det.clear(x, now);
        }
    }

    /// Re-arms every parked reliable frame destined for `peer` (it
    /// resumed, or its suspicion proved false).
    fn unpark_frames_to(&mut self, peer: NodeId, now: SimTime) {
        for (src, seq) in std::mem::take(&mut self.rec().nodes[peer].parked_frames) {
            self.rearm_frame(src, peer, seq, now);
        }
    }

    // ------------------------------------------------------------------
    // Failure detection
    // ------------------------------------------------------------------

    /// Records an outbound frame on (src, dst) so the next heartbeat
    /// tick skips the explicit heartbeat for that link.
    pub(super) fn note_sent(&mut self, src: NodeId, dst: NodeId, at: SimTime) {
        if let Some(det) = self.detector_mut() {
            let sent = &mut det.links[src][dst].sent;
            *sent = (*sent).max(at);
        }
    }

    /// Records that `observer` received a frame from `peer`: every
    /// frame is an implicit heartbeat refreshing the peer's lease.
    pub(super) fn note_heard(&mut self, observer: NodeId, peer: NodeId, now: SimTime) {
        if let Some(det) = self.detector_mut() {
            det.heard(observer, peer, now);
        }
    }

    /// One failure-detector tick at node `n`: re-arms itself, sends
    /// explicit heartbeats on idle links, and checks peer leases.
    /// The manager's tick doubles as the engine's liveness watchdog
    /// (the recurring ticks defeat the queue-drained deadlock check).
    pub(super) fn on_heartbeat_tick(&mut self, n: NodeId, now: SimTime) -> Result<(), SimError> {
        let every = self.det().periods.heartbeat;
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
            let link = self.det().links[n][peer];
            if link.status != PeerStatus::Down && link.sent + every <= now {
                self.rec().stats.heartbeats_sent += 1;
                self.send_heartbeat(n, peer, now);
            }
            // Nobody suspects the manager: it hosts the lock/barrier
            // managers and the recovery coordinator and is assumed
            // stable (the crash planner rejects node 0).
            let det = self.det();
            if peer != MANAGER
                && det.status(n, peer) == PeerStatus::Alive
                && det.lease_expired(n, peer, now)
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
        let rec = self.rec();
        rec.nodes[dst].parked_frames.push((src, seq));
        rec.stats.frames_parked += 1;
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
        if !self.det().suspect(observer, peer) {
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
        self.det().mark(n, victim, PeerStatus::Down);
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
            || self.det().status(MANAGER, victim) == PeerStatus::Down
        {
            return;
        }
        self.rec().nodes[victim].confirm_pending = true;
        let grace = self.det().periods.grace;
        self.sched.push(now + grace, Event::ConfirmFailure(victim));
    }

    /// The manager's confirmation deadline for a suspect. The
    /// simulator resolves the detector's uncertainty against ground
    /// truth — standing in for a direct probe round — so a suspect
    /// that is actually up is cleared (a false alarm), and a dead one
    /// triggers coordinated recovery: survivors are told via
    /// [`MsgBody::RecoveryStart`], and a replacement restart is
    /// scheduled unless the victim's crash restarts it (a node crashes
    /// at most once, so its crash in the plan says which).
    pub(super) fn on_confirm_failure(&mut self, victim: NodeId, now: SimTime) {
        self.rec().nodes[victim].confirm_pending = false;
        match self.rec().suspension(victim) {
            // A cut may have landed between the suspicion and this
            // deadline: the victim is unreachable, not dead. Leave its
            // state for the heal to reconcile.
            Some(Suspension::Frozen) => return,
            None => {
                self.det().clear(victim, now);
                self.unpark_frames_to(victim, now);
                return;
            }
            Some(Suspension::Crashed) => {}
        }
        if self.det().status(MANAGER, victim) == PeerStatus::Down {
            return;
        }
        self.det().mark(MANAGER, victim, PeerStatus::Down);
        let epoch = self.rec().nodes[victim].restore.epoch;
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
        let crash = self.cfg.faults.crashes.iter().find(|c| c.node == victim);
        if crash.is_none_or(|c| c.restart_after.is_none()) {
            let at = now + self.det().periods.restart_base + self.recovery_cost(victim);
            self.sched.push(at, Event::Resume(victim));
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
            self.det().mark(MANAGER, x, PeerStatus::Unreachable);
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

    /// Modeled time to bring `x` back from its restore source: reading
    /// it back, plus replaying `x`'s work since it was taken
    /// (deterministic replay reaches the state at suspension; see
    /// [`Core::resume_node`]).
    fn recovery_cost(&self, x: NodeId) -> SimDuration {
        let busy = self.nodes[x].account.breakdown()[Category::Busy];
        let rec = self.recovery.as_ref().expect("recovery state");
        let restore = rec.nodes[x].restore;
        restore.read + busy.saturating_sub(restore.busy)
    }

    /// Takes node `n`'s barrier-aligned checkpoint into `store` and
    /// returns the time the node resumes. In memory the checkpoint is
    /// only measured, and deliberately charges no CPU time and
    /// consumes no randomness: the model treats the snapshot as
    /// copy-on-write work off the critical path, so a crash-free run's
    /// event timeline — and its `RunReport` digest, recovery fields
    /// aside — is identical with checkpointing on or off, and it reads
    /// back at the flat per-page cost. On a device, the node's state
    /// is laid straight into its segmented image, written through the
    /// durable two-slot commit protocol, and the node stalls for the
    /// modeled persist cost.
    pub(super) fn take_checkpoint(&mut self, n: NodeId, store: Store, at: SimTime) -> SimTime {
        let epoch = self.barriers.epochs_done(n);
        let ckpt = NodeCheckpoint::new(n as u32, epoch, &self.nodes[n]);
        let (bytes, pages) = (ckpt.len() as u64, ckpt.pages() as u64);
        // The device path sets the read time from the image it writes.
        let (read, image) = match store {
            Store::Memory { restore_per_page } => (restore_per_page * pages, None),
            Store::Device(_) => (SimDuration::ZERO, Some(ckpt.segmented())),
        };
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
        let restore = Restore {
            epoch,
            busy: self.nodes[n].account.breakdown()[Category::Busy],
            read,
        };
        let rec = self.rec();
        rec.stats.checkpoints_taken += 1;
        rec.stats.checkpoint_bytes += bytes;
        match image {
            Some(image) => self.persist_checkpoint(n, restore, image, at),
            None => {
                rec.nodes[n].restore = restore;
                at
            }
        }
    }

    /// Writes the checkpoint `restore` describes (`payload`, its
    /// segmented image) to node `n`'s persistent device through the
    /// detectably recoverable A/B protocol: payload into the persist's
    /// slot, flush, fence; then the commit record, flush, fence. The
    /// drain runs at the device's write bandwidth in the background,
    /// but the protocol is synchronous at the barrier: the node stalls
    /// until the commit fence completes, which is exactly the
    /// durability overhead the model is after. The slot and the node
    /// then restore from the image at the device's read bandwidth.
    /// Returns the stall end.
    fn persist_checkpoint(
        &mut self,
        n: NodeId,
        restore: Restore,
        payload: Vec<u8>,
        at: SimTime,
    ) -> SimTime {
        let rec = self.rec();
        let durable = &mut rec.persist.as_mut().expect("persist state")[n];
        durable.seq += 1;
        let slot = slot_for_seq(durable.seq);
        let commit = CommitRecord::for_payload(restore.epoch, durable.seq, &payload).encode();
        let image_bytes = (payload.len() + commit.len()) as u64;
        // Every call is made at the node's present; the payload's fence
        // holds the commit's drain back until the payload is durable.
        let committed = {
            let dev = &mut durable.device;
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
        let restore = Restore {
            read: durable.device.config().read_time(image_bytes as usize),
            ..restore
        };
        durable.slots[slot] = restore;
        rec.nodes[n].restore = restore;
        rec.stats.persist_bytes += image_bytes;
        rec.stats.flushes += 2;
        rec.stats.fences += 2;
        self.tracer.emit(
            at,
            n as u32,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::PersistCommit {
                epoch: restore.epoch,
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
        let durable = &mut rec.persist.as_mut().expect("persist state")[x];
        let dev = &mut durable.device;
        dev.crash(now);
        let mut best = None;
        for slot in 0..SLOT_COUNT {
            match classify_slot(
                dev.read(payload_region(slot)),
                dev.read(commit_region(slot)),
            ) {
                SlotState::Torn => rec.stats.torn_discards += 1,
                SlotState::Committed { seq, ckpt } if best.is_none_or(|(s, _)| seq > s) => {
                    debug_assert_eq!(ckpt.epoch, durable.slots[slot].epoch);
                    best = Some((seq, slot));
                }
                _ => {}
            }
        }
        // Nothing committed yet (the crash predates the first durable
        // checkpoint): recovery restarts from scratch.
        let mut restore = Restore::default();
        if let Some((seq, slot)) = best {
            if seq < durable.seq {
                rec.stats.slot_fallbacks += 1;
            }
            restore = durable.slots[slot];
        }
        rec.nodes[x].restore = restore;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    /// Detector periods with the given lease.
    fn detection(lease: SimDuration) -> Detection {
        Detection {
            heartbeat: us(10),
            lease,
            grace: us(10),
            restart_base: us(500),
        }
    }

    /// Each part of the outage state exists only when the plan holds
    /// it: a cadence alone builds no detector, a detector needs no
    /// cadence, and only a cadence that stores to a device builds
    /// devices.
    #[test]
    fn recovery_state_follows_the_plan() {
        use rsdsm_simnet::PersistConfig;

        let memory = Cadence {
            every: 2,
            store: Store::Memory {
                restore_per_page: us(20),
            },
        };
        let device = Cadence {
            store: Store::Device(PersistConfig::on()),
            ..memory
        };
        let detect = |cadence| RecoveryPlan::Detect {
            detection: detection(us(50)),
            cadence,
        };
        for (plan, detector, persist) in [
            (RecoveryPlan::Checkpoint(memory), false, false),
            (RecoveryPlan::Checkpoint(device), false, true),
            (detect(None), true, false),
            (detect(Some(memory)), true, false),
            (detect(Some(device)), true, true),
        ] {
            let rec = Recovery::for_plan(4, plan).expect("recovery state");
            assert_eq!(rec.detector.is_some(), detector, "{plan:?}");
            assert_eq!(rec.persist.is_some(), persist, "{plan:?}");
            assert_eq!(rec.cadence.is_some(), plan != detect(None), "{plan:?}");
        }
        assert!(Recovery::for_plan(1024, RecoveryPlan::Off).is_none());
    }

    #[test]
    fn lease_expires_only_after_timeout() {
        let mut d = Detector::new(3, detection(us(100)));
        let t0 = SimTime::ZERO;
        d.heard(0, 1, t0 + us(50));
        assert!(!d.lease_expired(0, 1, t0 + us(150)));
        assert!(d.lease_expired(0, 1, t0 + us(151)));
    }

    #[test]
    fn hearing_from_a_suspect_clears_it() {
        let mut d = Detector::new(2, detection(us(10)));
        assert!(d.suspect(0, 1), "first suspicion is new");
        assert!(!d.suspect(0, 1), "repeat suspicion is not");
        assert_eq!(d.status(0, 1), PeerStatus::Suspected);
        d.heard(0, 1, SimTime::ZERO + us(5));
        assert_eq!(d.status(0, 1), PeerStatus::Alive);
    }

    #[test]
    fn down_is_sticky_until_cleared() {
        let mut d = Detector::new(2, detection(us(10)));
        d.mark(0, 1, PeerStatus::Down);
        d.heard(0, 1, SimTime::ZERO + us(1));
        assert_eq!(d.status(0, 1), PeerStatus::Down);
        d.clear(1, SimTime::ZERO + us(2));
        assert_eq!(d.status(0, 1), PeerStatus::Alive);
        assert!(!d.lease_expired(1, 0, SimTime::ZERO + us(3)));
    }

    #[test]
    fn unreachable_is_sticky_and_not_a_new_suspicion() {
        let mut d = Detector::new(2, detection(us(10)));
        d.mark(0, 1, PeerStatus::Unreachable);
        // A stray pre-cut frame does not clear the mark...
        d.heard(0, 1, SimTime::ZERO + us(1));
        assert_eq!(d.status(0, 1), PeerStatus::Unreachable);
        // ...and lease expiry cannot start a suspicion episode on it.
        assert!(!d.suspect(0, 1));
        // Rejoin clears it like any other mark.
        d.clear(1, SimTime::ZERO + us(2));
        assert_eq!(d.status(0, 1), PeerStatus::Alive);
    }
}

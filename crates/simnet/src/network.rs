//! ATM-LAN-style network model.
//!
//! Models the paper's hardware: N workstations, each with a full-duplex
//! 155 Mbps link into a single store-and-forward switch. Each
//! direction of each link is a FIFO resource that is busy while a
//! message serializes onto it, so concurrent senders to one receiver
//! queue up on the receiver's ingress link — this is the *hot-spotting*
//! effect the paper identifies (§3.3.2, §4.3), and bursty traffic
//! (e.g. many prefetches issued back to back) creates queueing delay
//! on the sender's egress link.
//!
//! Messages are either [`Reliability::Reliable`] (the DSM's lightweight
//! reliable protocol retries them on loss) or
//! [`Reliability::Droppable`] (prefetch requests/replies, which the
//! paper deliberately does not retry). A droppable message that meets
//! a congested queue is dropped with a configurable probability.
//!
//! On top of the base model, an optional [`crate::FaultPlan`]
//! (see [`Network::set_fault_plan`]) injects deterministic drops,
//! duplicates, reorder delays, jitter, degradation windows, and node
//! stalls into *any* message class. With a plan installed, even
//! reliable-class messages can be lost in flight — recovering from
//! that is the job of the DSM's modeled reliable transport, not of
//! the network.
//!
//! # Examples
//!
//! ```
//! use rsdsm_simnet::{NetConfig, Network, Reliability, SimTime};
//!
//! let mut net = Network::new(8, NetConfig::atm_155(42));
//! let outcome = net.send(
//!     SimTime::ZERO,
//!     0,
//!     1,
//!     4096,
//!     Reliability::Reliable,
//!     "diff_reply",
//! );
//! let arrival = outcome.arrival_time().expect("reliable messages always arrive");
//! assert!(arrival > SimTime::ZERO);
//! ```

use std::collections::BTreeMap;

use crate::faults::{Delivery, FaultClass, FaultInjector, FaultPlan, FaultStats};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// Identifies a node (workstation) in the cluster. Nodes are numbered
/// `0..n`.
pub type NodeId = usize;

/// Whether the network may silently drop a message under congestion.
///
/// The paper's prefetch messages are unreliable by design: retrying
/// them under congestion would worsen the congestion (§3.1, footnote 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reliability {
    /// Never lost; the DSM's reliable transport retries transparently.
    Reliable,
    /// May be dropped when it encounters a congested queue.
    Droppable,
}

/// The result of [`Network::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message will arrive at the destination at the given instant.
    Delivered {
        /// Absolute arrival time at the destination NIC.
        arrival: SimTime,
    },
    /// The message will arrive, and an injected duplicate copy will
    /// arrive too (fault plans only).
    DeliveredDup {
        /// Absolute arrival time of the message itself.
        arrival: SimTime,
        /// Absolute arrival time of the duplicate copy.
        dup: SimTime,
    },
    /// The message was dropped — by congestion (droppable only) or by
    /// an injected fault (any class).
    Dropped,
}

impl SendOutcome {
    /// The primary copy's arrival time, or `None` if it was dropped.
    pub fn arrival_time(self) -> Option<SimTime> {
        match self {
            SendOutcome::Delivered { arrival } | SendOutcome::DeliveredDup { arrival, .. } => {
                Some(arrival)
            }
            SendOutcome::Dropped => None,
        }
    }

    /// The injected duplicate's arrival time, if one was created.
    pub fn dup_time(self) -> Option<SimTime> {
        match self {
            SendOutcome::DeliveredDup { dup, .. } => Some(dup),
            _ => None,
        }
    }
}

/// Physical and policy parameters of the network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Link bandwidth in bits per second (each direction).
    pub bandwidth_bps: u64,
    /// Propagation latency per hop (node↔switch).
    pub wire_latency: SimDuration,
    /// Fixed forwarding latency inside the switch.
    pub switch_latency: SimDuration,
    /// Per-message header bytes (cell/UDP/protocol framing).
    pub header_bytes: u32,
    /// A droppable message whose queueing delay (egress or ingress)
    /// exceeds this threshold is eligible to be dropped.
    pub congestion_threshold: SimDuration,
    /// Probability of dropping an eligible droppable message.
    pub drop_probability: f64,
    /// Seed for the deterministic drop lottery.
    pub seed: u64,
    /// Interconnect shape. [`Topology::FlatBus`] (the default)
    /// reproduces the original single-switch model bit for bit;
    /// [`Topology::RackSpine`] adds ToR/spine hops and trunk
    /// contention for cross-rack frames.
    pub topology: Topology,
}

impl NetConfig {
    /// Parameters approximating the paper's FORE ASX-200WG 155 Mbps
    /// ATM LAN with OC3 fiber links.
    pub fn atm_155(seed: u64) -> Self {
        NetConfig {
            bandwidth_bps: 155_000_000,
            wire_latency: SimDuration::from_micros(5),
            switch_latency: SimDuration::from_micros(10),
            header_bytes: 60,
            congestion_threshold: SimDuration::from_millis(6),
            drop_probability: 0.5,
            seed,
            topology: Topology::FlatBus,
        }
    }

    /// Time to serialize `payload_bytes` (plus headers) onto a link.
    pub fn tx_time(&self, payload_bytes: u32) -> SimDuration {
        let bits = (payload_bytes as u64 + self.header_bytes as u64) * 8;
        // ns = bits / (bits/s) * 1e9, computed to avoid overflow.
        SimDuration::from_nanos(bits.saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }
}

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Messages successfully sent from this node.
    pub msgs_sent: u64,
    /// Messages delivered to this node.
    pub msgs_received: u64,
    /// Payload + header bytes sent.
    pub bytes_sent: u64,
    /// Payload + header bytes received.
    pub bytes_received: u64,
}

/// Aggregate network statistics for a run.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    per_node: Vec<NodeTraffic>,
    per_kind: BTreeMap<&'static str, KindStats>,
    drops: u64,
    total_queue_delay: SimDuration,
    max_queue_delay: SimDuration,
    delivered: u64,
}

/// Counters for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Messages of this kind delivered.
    pub msgs: u64,
    /// Bytes (payload + header) of this kind delivered.
    pub bytes: u64,
    /// Messages of this kind dropped.
    pub dropped: u64,
}

impl NetStats {
    fn new(nodes: usize) -> Self {
        NetStats {
            per_node: vec![NodeTraffic::default(); nodes],
            ..NetStats::default()
        }
    }

    /// Traffic counters for one node.
    pub fn node(&self, id: NodeId) -> NodeTraffic {
        self.per_node[id]
    }

    /// Counters broken down by message kind, in kind order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, KindStats)> + '_ {
        self.per_kind.iter().map(|(k, v)| (*k, *v))
    }

    /// Counters for one message kind, if any such message was sent.
    pub fn kind(&self, kind: &str) -> Option<KindStats> {
        self.per_kind.get(kind).copied()
    }

    /// Total messages delivered.
    pub fn total_msgs(&self) -> u64 {
        self.delivered
    }

    /// Total bytes (payload + headers) delivered.
    pub fn total_bytes(&self) -> u64 {
        self.per_node.iter().map(|n| n.bytes_received).sum()
    }

    /// Total messages lost — droppable messages lost to congestion
    /// plus any class lost to injected faults.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Mean queueing delay over delivered messages.
    pub fn mean_queue_delay(&self) -> SimDuration {
        if self.delivered == 0 {
            SimDuration::ZERO
        } else {
            self.total_queue_delay / self.delivered
        }
    }

    /// Worst queueing delay seen by any delivered message.
    pub fn max_queue_delay(&self) -> SimDuration {
        self.max_queue_delay
    }
}

/// The simulated cluster interconnect.
///
/// Stateless apart from link busy-until times, so the DSM engine owns
/// exactly one `Network` and calls [`Network::send`] as messages are
/// produced; the returned arrival time is then scheduled on the
/// engine's event queue.
#[derive(Debug)]
pub struct Network {
    cfg: NetConfig,
    egress_free: Vec<SimTime>,
    ingress_free: Vec<SimTime>,
    // Rack-spine trunk link state, indexed [rack * spines + spine].
    // Empty under the flat bus.
    up_free: Vec<SimTime>,
    down_free: Vec<SimTime>,
    down: Vec<bool>,
    rng: DetRng,
    stats: NetStats,
    faults: FaultInjector,
    last_route: Vec<Hop>,
}

/// One charged hop of the most recent delivered frame: the queueing
/// delay on the hop's link, the serialization time onto it, and the
/// fixed propagation/forwarding latency that follows it. The hop
/// totals of a delivered frame sum exactly to its end-to-end latency
/// (send time to arrival) — the conservation law the topology
/// property tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Which link this hop crossed.
    pub link: &'static str,
    /// Time spent queued behind earlier traffic on the link.
    pub queue: SimDuration,
    /// Serialization time onto the link.
    pub tx: SimDuration,
    /// Propagation plus switch-forwarding latency after the link.
    pub fixed: SimDuration,
}

impl Hop {
    /// Everything this hop charged the frame.
    pub fn total(&self) -> SimDuration {
        self.queue + self.tx + self.fixed
    }
}

/// One link of a route, by the slot that holds its busy-until time.
#[derive(Debug, Clone, Copy)]
enum Link {
    /// A host's link into its switch.
    Egress(NodeId),
    /// A rack's trunk up to a spine (`rack * spines + spine`).
    Up(usize),
    /// A spine's trunk down to a rack (`rack * spines + spine`).
    Down(usize),
    /// A switch's link into a host.
    Ingress(NodeId),
}

impl Network {
    /// Creates a network of `nodes` workstations around one switch.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, cfg: NetConfig) -> Self {
        assert!(nodes > 0, "network needs at least one node");
        let racks = cfg.topology.racks(nodes);
        let spines = cfg.topology.spines();
        Network {
            rng: DetRng::new(cfg.seed),
            egress_free: vec![SimTime::ZERO; nodes],
            ingress_free: vec![SimTime::ZERO; nodes],
            up_free: vec![SimTime::ZERO; racks * spines],
            down_free: vec![SimTime::ZERO; racks * spines],
            down: vec![false; nodes],
            stats: NetStats::new(nodes),
            faults: FaultInjector::new(FaultPlan::none()),
            last_route: Vec::new(),
            cfg,
        }
    }

    /// The hop-by-hop charges of the most recent delivered frame
    /// (empty if the last send was dropped or none was made). Hop
    /// totals sum exactly to that frame's end-to-end latency.
    pub fn last_route(&self) -> &[Hop] {
        &self.last_route
    }

    /// Installs a fault plan, resetting the injector's random stream
    /// and fault statistics. Typically called once before traffic
    /// starts; the default is [`FaultPlan::none`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultInjector::new(plan);
    }

    /// Counters of faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Marks a node's NIC dead (crashed) or alive again. While down,
    /// every message addressed to the node is lost and counted as a
    /// crash drop. Counts one injected crash per down transition.
    pub fn set_node_down(&mut self, node: NodeId, down: bool) {
        assert!(node < self.num_nodes(), "node id out of range");
        if down && !self.down[node] {
            self.faults.note_crash();
        }
        self.down[node] = down;
    }

    /// Records the loss of a message that was already in flight when
    /// its destination crashed (the engine discards such arrivals at
    /// the dead NIC and reports them here).
    pub fn note_crash_drop(&mut self, kind: &'static str) {
        self.faults.note_crash_drop();
        self.stats.drops += 1;
        self.stats.per_kind.entry(kind).or_default().dropped += 1;
    }

    /// Whether a scheduled partition active at `now` severs the
    /// directed link `src -> dst` (the topology hook the engine and
    /// property tests use to reason about reachability).
    pub fn link_cut(&self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        self.faults
            .plan()
            .partitions
            .iter()
            .any(|p| p.active_at(now) && p.severs(src, dst))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.egress_free.len()
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Sends a message of `payload_bytes` from `src` to `dst` at `now`.
    ///
    /// Returns when the message arrives at `dst`, or that it was
    /// dropped. `kind` is a label used only for statistics.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either id is out of range.
    pub fn send(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: u32,
        reliability: Reliability,
        kind: &'static str,
    ) -> SendOutcome {
        assert!(
            src < self.num_nodes() && dst < self.num_nodes(),
            "node id out of range"
        );
        assert_ne!(src, dst, "loopback messages never touch the network");

        let tx = self.cfg.tx_time(payload_bytes);
        let wire_bytes = payload_bytes as u64 + self.cfg.header_bytes as u64;

        // A crashed source cannot transmit at all; a message to a
        // crashed destination serializes normally but dies at the dead
        // NIC (the switch has no idea the port's host is gone).
        if self.down[src] {
            self.faults.note_crash_drop();
            return self.record_drop(kind);
        }
        if self.down[dst] {
            let egress_start = now.max(self.egress_free[src]);
            self.egress_free[src] = egress_start + tx;
            self.faults.note_crash_drop();
            return self.record_drop(kind);
        }

        let Some((arrival, queue_delay)) = self.route(now, src, dst, tx, wire_bytes, reliability)
        else {
            return self.record_drop(kind);
        };

        // The base model would deliver at `arrival`; the fault plan
        // gets the final say (and may add a duplicate copy), then any
        // scheduled partition kills copies whose flight crosses a cut.
        let class = FaultClass::classify(reliability, kind);
        let delivery = self.faults.apply(class, src, dst, now, arrival);
        let Delivery { primary, duplicate } = self.faults.partition_filter(src, dst, now, delivery);

        for _copy in [primary, duplicate].into_iter().flatten() {
            self.stats.delivered += 1;
            self.stats.total_queue_delay += queue_delay;
            self.stats.max_queue_delay = self.stats.max_queue_delay.max(queue_delay);
            self.stats.per_node[src].msgs_sent += 1;
            self.stats.per_node[src].bytes_sent += wire_bytes;
            self.stats.per_node[dst].msgs_received += 1;
            self.stats.per_node[dst].bytes_received += wire_bytes;
            let k = self.stats.per_kind.entry(kind).or_default();
            k.msgs += 1;
            k.bytes += wire_bytes;
        }

        match (primary, duplicate) {
            (Some(arrival), Some(dup)) => SendOutcome::DeliveredDup { arrival, dup },
            (Some(arrival), None) => SendOutcome::Delivered { arrival },
            // The original copy was injected-dropped but its duplicate
            // survives: the caller sees one delivery.
            (None, Some(arrival)) => SendOutcome::Delivered { arrival },
            (None, None) => self.record_drop(kind),
        }
    }

    /// Picks the frame's route — a list of links — and carries the
    /// frame across it: host egress and host ingress around one switch
    /// inside a rack (or on the flat bus, where the arithmetic and
    /// randomness are exactly the pre-topology model's), with a spine
    /// trunk up and a trunk down between them across racks. Trunks are
    /// shared per-rack-per-spine FIFO resources sized by the
    /// oversubscription ratio, so rack-level incast and oversubscribed
    /// uplinks show up as queueing exactly like host links do. Returns
    /// the arrival time and the total queueing delay, or `None` for a
    /// drop.
    fn route(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        tx: SimDuration,
        wire_bytes: u64,
        reliability: Reliability,
    ) -> Option<(SimTime, SimDuration)> {
        let topo = self.cfg.topology;
        let (egress, ingress) = ((Link::Egress(src), tx), (Link::Ingress(dst), tx));
        if topo.same_rack(src, dst) {
            return self.cross(now, [egress, ingress], reliability);
        }
        let spines = topo.spines();
        let (rs, rd) = (topo.rack_of(src), topo.rack_of(dst));
        // Deterministic, symmetric spine choice.
        let spine = topo.spine_for(rs, rd).expect("fabric routes cross a spine");
        let trunk_tx = topo.trunk_tx_time(self.cfg.bandwidth_bps, wire_bytes * 8);
        let up = (Link::Up(rs * spines + spine), trunk_tx);
        let down = (Link::Down(rd * spines + spine), trunk_tx);
        self.cross(now, [egress, up, down, ingress], reliability)
    }

    /// Carries a frame across `hops` (each a link and the frame's
    /// serialization time onto it), starting at `now`: the one rule
    /// every link of every route applies. The frame queues until the
    /// link is free, may be congestion-dropped for the wait, then
    /// serializes onto the link and holds it until done — the ingress
    /// link until the frame has arrived. A frame dropped at a later
    /// link has consumed the links it already crossed. Records the
    /// hops of a frame that crossed them all in `last_route`.
    #[inline]
    fn cross<const N: usize>(
        &mut self,
        now: SimTime,
        hops: [(Link, SimDuration); N],
        reliability: Reliability,
    ) -> Option<(SimTime, SimDuration)> {
        self.last_route.clear();
        let mut at = now;
        let mut queued = SimDuration::ZERO;
        for (link, tx) in hops {
            let (free, name) = match link {
                Link::Egress(n) => (&mut self.egress_free[n], "egress"),
                Link::Up(t) => (&mut self.up_free[t], "uplink"),
                Link::Down(t) => (&mut self.down_free[t], "downlink"),
                Link::Ingress(n) => (&mut self.ingress_free[n], "ingress"),
            };
            let start = at.max(*free);
            let queue = start.saturating_since(at);
            if reliability == Reliability::Droppable
                && queue > self.cfg.congestion_threshold
                && self.rng.chance(self.cfg.drop_probability)
            {
                self.last_route.clear();
                return None;
            }
            let done = start + tx;
            // Every link but the last feeds a switch, and frees once
            // the frame is on it; the last holds until arrival.
            let last = matches!(link, Link::Ingress(_));
            let fixed = if last {
                self.cfg.wire_latency
            } else {
                self.cfg.wire_latency + self.cfg.switch_latency
            };
            at = done + fixed;
            *free = if last { at } else { done };
            queued += queue;
            self.last_route.push(Hop {
                link: name,
                queue,
                tx,
                fixed,
            });
        }
        Some((at, queued))
    }

    fn record_drop(&mut self, kind: &'static str) -> SendOutcome {
        self.stats.drops += 1;
        self.stats.per_kind.entry(kind).or_default().dropped += 1;
        SendOutcome::Dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NetConfig {
        NetConfig::atm_155(1)
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let c = cfg();
        // 4096+60 bytes at 155 Mbps ≈ 214.5 µs.
        let t = c.tx_time(4096);
        assert!((210_000..220_000).contains(&t.as_nanos()), "{t}");
    }

    #[test]
    fn uncongested_delivery_time_is_base_latency() {
        let mut net = Network::new(2, cfg());
        let arrival = net
            .send(SimTime::ZERO, 0, 1, 0, Reliability::Reliable, "ctl")
            .arrival_time()
            .unwrap();
        let c = cfg();
        let expect = c.tx_time(0) * 2 + c.wire_latency * 2 + c.switch_latency;
        assert_eq!(arrival, SimTime::ZERO + expect);
    }

    #[test]
    fn back_to_back_sends_queue_on_egress() {
        let mut net = Network::new(2, cfg());
        let a = net
            .send(SimTime::ZERO, 0, 1, 4096, Reliability::Reliable, "d")
            .arrival_time()
            .unwrap();
        let b = net
            .send(SimTime::ZERO, 0, 1, 4096, Reliability::Reliable, "d")
            .arrival_time()
            .unwrap();
        // The second message waits for the first to leave the NIC.
        assert!(b > a);
        assert!(b.saturating_since(a) >= cfg().tx_time(4096));
    }

    #[test]
    fn hot_spot_queues_on_receiver_ingress() {
        let mut net = Network::new(4, cfg());
        let mut arrivals: Vec<SimTime> = (0..3)
            .map(|src| {
                net.send(SimTime::ZERO, src, 3, 4096, Reliability::Reliable, "d")
                    .arrival_time()
                    .unwrap()
            })
            .collect();
        arrivals.sort();
        // Distinct senders share nothing until the receiver's link, so
        // arrivals serialize roughly one tx_time apart.
        let gap = arrivals[2].saturating_since(arrivals[1]);
        assert!(gap >= cfg().tx_time(4096), "gap {gap}");
    }

    #[test]
    fn reliable_messages_never_drop() {
        let mut c = cfg();
        c.congestion_threshold = SimDuration::ZERO;
        c.drop_probability = 1.0;
        let mut net = Network::new(2, c);
        for _ in 0..50 {
            let out = net.send(SimTime::ZERO, 0, 1, 4096, Reliability::Reliable, "d");
            assert!(matches!(out, SendOutcome::Delivered { .. }));
        }
        assert_eq!(net.stats().drops(), 0);
    }

    #[test]
    fn droppable_messages_drop_under_congestion() {
        let mut c = cfg();
        c.congestion_threshold = SimDuration::from_micros(1);
        c.drop_probability = 1.0;
        let mut net = Network::new(2, c);
        // First message sails through; the rest find a busy egress queue.
        let first = net.send(SimTime::ZERO, 0, 1, 4096, Reliability::Droppable, "pf");
        assert!(matches!(first, SendOutcome::Delivered { .. }));
        let mut dropped = 0;
        for _ in 0..20 {
            if net.send(SimTime::ZERO, 0, 1, 4096, Reliability::Droppable, "pf")
                == SendOutcome::Dropped
            {
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        assert_eq!(net.stats().drops(), dropped);
        assert_eq!(net.stats().kind("pf").unwrap().dropped, dropped);
    }

    #[test]
    fn stats_account_bytes_and_messages() {
        let mut net = Network::new(3, cfg());
        net.send(SimTime::ZERO, 0, 1, 100, Reliability::Reliable, "a");
        net.send(SimTime::ZERO, 1, 2, 200, Reliability::Reliable, "b");
        let s = net.stats();
        assert_eq!(s.total_msgs(), 2);
        assert_eq!(s.node(0).msgs_sent, 1);
        assert_eq!(s.node(2).msgs_received, 1);
        let wire = 100 + cfg().header_bytes as u64;
        assert_eq!(s.node(0).bytes_sent, wire);
        assert_eq!(s.kind("a").unwrap().bytes, wire);
        assert_eq!(s.total_bytes(), 300 + 2 * cfg().header_bytes as u64);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_send_panics() {
        let mut net = Network::new(2, cfg());
        net.send(SimTime::ZERO, 0, 0, 10, Reliability::Reliable, "d");
    }

    #[test]
    fn messages_to_a_down_node_are_crash_dropped() {
        let mut net = Network::new(3, cfg());
        net.set_node_down(1, true);
        assert_eq!(net.fault_stats().crashes_injected, 1);
        // To the dead node: lost, even though reliable.
        let out = net.send(SimTime::ZERO, 0, 1, 100, Reliability::Reliable, "d");
        assert_eq!(out, SendOutcome::Dropped);
        // Between live nodes: unaffected.
        let ok = net.send(SimTime::ZERO, 0, 2, 100, Reliability::Reliable, "d");
        assert!(ok.arrival_time().is_some());
        // From the dead node: nothing leaves the host.
        let out = net.send(SimTime::ZERO, 1, 2, 100, Reliability::Reliable, "d");
        assert_eq!(out, SendOutcome::Dropped);
        assert_eq!(net.fault_stats().crash_drops, 2);
        // Back up: traffic flows again, and no second crash is counted
        // for the same down transition.
        net.set_node_down(1, false);
        net.set_node_down(1, true);
        net.set_node_down(1, false);
        assert_eq!(net.fault_stats().crashes_injected, 2);
        let ok = net.send(
            SimTime::from_nanos(1),
            0,
            1,
            100,
            Reliability::Reliable,
            "d",
        );
        assert!(ok.arrival_time().is_some());
    }

    #[test]
    fn partition_cuts_cross_group_traffic_until_heal() {
        use crate::faults::Partition;
        let mut net = Network::new(4, cfg());
        net.set_fault_plan(FaultPlan::none().with_partition(Partition::cut(
            vec![vec![2, 3]],
            SimTime::from_micros(100),
            SimDuration::from_micros(100),
        )));
        let at = |us: u64| SimTime::from_micros(us);
        // Before the cut: delivered.
        assert!(net
            .send(at(10), 0, 2, 64, Reliability::Reliable, "d")
            .arrival_time()
            .is_some());
        // During the cut, across it: dropped both ways.
        assert_eq!(
            net.send(at(120), 0, 2, 64, Reliability::Reliable, "d"),
            SendOutcome::Dropped
        );
        assert_eq!(
            net.send(at(120), 3, 1, 64, Reliability::Reliable, "d"),
            SendOutcome::Dropped
        );
        // During the cut, within a component: delivered.
        assert!(net
            .send(at(120), 2, 3, 64, Reliability::Reliable, "d")
            .arrival_time()
            .is_some());
        assert!(net
            .send(at(120), 0, 1, 64, Reliability::Reliable, "d")
            .arrival_time()
            .is_some());
        // After the heal: delivery resumes.
        assert!(net
            .send(at(300), 0, 2, 64, Reliability::Reliable, "d")
            .arrival_time()
            .is_some());
        assert_eq!(net.fault_stats().partition_drops, 2);
        assert_eq!(net.fault_stats().crash_drops, 0);
        assert_eq!(net.fault_stats().injected_drops, 0);
        assert_eq!(net.stats().drops(), 2);
        // The topology hook agrees with delivery.
        assert!(net.link_cut(at(120), 0, 2));
        assert!(!net.link_cut(at(120), 0, 1));
        assert!(!net.link_cut(at(300), 0, 2));
    }

    #[test]
    fn note_crash_drop_counts_in_flight_losses() {
        let mut net = Network::new(2, cfg());
        net.note_crash_drop("diff_reply");
        assert_eq!(net.fault_stats().crash_drops, 1);
        assert_eq!(net.stats().drops(), 1);
        assert_eq!(net.stats().kind("diff_reply").unwrap().dropped, 1);
    }

    #[test]
    fn mean_queue_delay_reflects_congestion() {
        let mut net = Network::new(2, cfg());
        for _ in 0..10 {
            net.send(SimTime::ZERO, 0, 1, 4096, Reliability::Reliable, "d");
        }
        assert!(net.stats().mean_queue_delay() > SimDuration::ZERO);
        assert!(net.stats().max_queue_delay() >= net.stats().mean_queue_delay());
    }
}

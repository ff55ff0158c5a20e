//! Cluster interconnect topologies.
//!
//! The paper's hardware is eight workstations on one ATM switch — a
//! flat bus as far as contention is concerned: every frame crosses
//! exactly one switch, and the only shared resources are the two ends'
//! host links. [`Topology::FlatBus`] models that and is the default
//! everywhere, leaving the original model (and every pinned digest)
//! untouched.
//!
//! [`Topology::RackSpine`] scales the model out: nodes are grouped
//! into racks of `rack_size` behind a top-of-rack (ToR) switch, and
//! racks are joined by `spines` spine switches. Intra-rack frames
//! behave exactly like the flat bus (one switch hop); cross-rack
//! frames take three switch hops (source ToR → spine → destination
//! ToR) and contend for the shared rack uplink/downlink trunks, whose
//! bandwidth is the aggregate host bandwidth of a rack divided by the
//! oversubscription ratio and spread across the spines. Spine choice
//! is deterministic and symmetric in (source rack, destination rack),
//! so a route and its reverse always cross the same spine.

use crate::time::SimDuration;
use crate::NodeId;

/// The shape of the interconnect between the cluster's nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Every node on one switch — the paper's ATM LAN and the
    /// default. Exactly the pre-topology network model.
    #[default]
    FlatBus,
    /// Racks of `rack_size` nodes behind ToR switches, joined by
    /// `spines` spine switches with `oversub`:1 oversubscription on
    /// the rack uplinks.
    RackSpine {
        /// Nodes per rack (the last rack may be partial).
        rack_size: usize,
        /// Number of spine switches joining the racks.
        spines: usize,
        /// Uplink oversubscription ratio `K` in `K:1`: the aggregate
        /// uplink bandwidth of a rack is the aggregate host bandwidth
        /// of its `rack_size` nodes divided by `K`.
        oversub: u32,
    },
}

impl Topology {
    /// A rack-and-spine fabric (builder-style convenience).
    ///
    /// # Panics
    ///
    /// Panics when any parameter is zero.
    pub fn rack_spine(rack_size: usize, spines: usize, oversub: u32) -> Self {
        assert!(rack_size > 0, "racks need at least one node");
        assert!(spines > 0, "fabric needs at least one spine");
        assert!(oversub > 0, "oversubscription ratio must be at least 1");
        Topology::RackSpine {
            rack_size,
            spines,
            oversub,
        }
    }

    /// The rack a node belongs to (rack 0 under the flat bus).
    pub fn rack_of(&self, node: NodeId) -> usize {
        match *self {
            Topology::FlatBus => 0,
            Topology::RackSpine { rack_size, .. } => node / rack_size,
        }
    }

    /// Number of racks a cluster of `nodes` occupies.
    pub fn racks(&self, nodes: usize) -> usize {
        match *self {
            Topology::FlatBus => 1,
            Topology::RackSpine { rack_size, .. } => nodes.div_ceil(rack_size),
        }
    }

    /// Number of spine switches (zero under the flat bus).
    pub fn spines(&self) -> usize {
        match *self {
            Topology::FlatBus => 0,
            Topology::RackSpine { spines, .. } => spines,
        }
    }

    /// Whether `src -> dst` stays inside one rack (always true on the
    /// flat bus), i.e. takes the single-switch fast path.
    pub fn same_rack(&self, src: NodeId, dst: NodeId) -> bool {
        self.rack_of(src) == self.rack_of(dst)
    }

    /// The spine a cross-rack frame between these racks crosses.
    /// Symmetric in its arguments so a route and its reverse share a
    /// spine (and therefore a hop count and base latency).
    pub fn spine_for(&self, rack_a: usize, rack_b: usize) -> Option<usize> {
        match *self {
            Topology::FlatBus => None,
            Topology::RackSpine { spines, .. } => Some((rack_a + rack_b) % spines),
        }
    }

    /// Switch hops a frame from `src` to `dst` crosses: one inside a
    /// rack (or on the flat bus), three across racks (ToR, spine, ToR).
    pub fn switch_hops(&self, src: NodeId, dst: NodeId) -> usize {
        if self.same_rack(src, dst) {
            1
        } else {
            3
        }
    }

    /// Per-spine trunk bandwidth for a fabric whose host links run at
    /// `host_bps`: a rack's aggregate host bandwidth, divided by the
    /// oversubscription ratio, split across the spines. At least one
    /// bit per second so the transmission-time arithmetic stays
    /// well-defined for degenerate parameters.
    pub fn trunk_bandwidth(&self, host_bps: u64) -> u64 {
        match *self {
            Topology::FlatBus => host_bps,
            Topology::RackSpine {
                rack_size,
                spines,
                oversub,
            } => (host_bps.saturating_mul(rack_size as u64) / (spines as u64 * oversub as u64))
                .max(1),
        }
    }

    /// Time to serialize `wire_bits` onto a trunk link (uplink or
    /// downlink) of this fabric, given the host-link bandwidth.
    pub fn trunk_tx_time(&self, host_bps: u64, wire_bits: u64) -> SimDuration {
        let bw = self.trunk_bandwidth(host_bps);
        SimDuration::from_nanos(wire_bits.saturating_mul(1_000_000_000) / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_bus_is_one_rack_one_hop() {
        let t = Topology::FlatBus;
        assert_eq!(t.rack_of(7), 0);
        assert_eq!(t.racks(1024), 1);
        assert_eq!(t.spines(), 0);
        assert!(t.same_rack(0, 1023));
        assert_eq!(t.switch_hops(0, 5), 1);
        assert_eq!(t.trunk_bandwidth(155_000_000), 155_000_000);
    }

    #[test]
    fn rack_spine_partitions_nodes() {
        let t = Topology::rack_spine(8, 2, 4);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(7), 0);
        assert_eq!(t.rack_of(8), 1);
        assert_eq!(t.racks(64), 8);
        assert_eq!(t.racks(65), 9, "partial last rack still counts");
        assert!(t.same_rack(0, 7));
        assert!(!t.same_rack(7, 8));
        assert_eq!(t.switch_hops(0, 7), 1);
        assert_eq!(t.switch_hops(0, 8), 3);
    }

    #[test]
    fn spine_choice_is_symmetric() {
        let t = Topology::rack_spine(4, 3, 2);
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(t.spine_for(a, b), t.spine_for(b, a));
                assert!(t.spine_for(a, b).unwrap() < 3);
            }
        }
    }

    #[test]
    fn trunk_bandwidth_reflects_oversubscription() {
        // 8 hosts at 155 Mbps, 2 spines, 4:1 oversub: each spine trunk
        // carries 8*155/(2*4) = 155 Mbps.
        let t = Topology::rack_spine(8, 2, 4);
        assert_eq!(t.trunk_bandwidth(155_000_000), 155_000_000);
        // 1:1 with one spine: full rack aggregate.
        let fat = Topology::rack_spine(8, 1, 1);
        assert_eq!(fat.trunk_bandwidth(155_000_000), 8 * 155_000_000);
        // Degenerate parameters never hit a zero bandwidth.
        let thin = Topology::rack_spine(1, 64, 64);
        assert!(thin.trunk_bandwidth(1) >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one spine")]
    fn zero_spines_panics() {
        Topology::rack_spine(4, 0, 1);
    }
}

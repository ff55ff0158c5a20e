//! Property-based tests of the rack-and-spine fabric: route symmetry
//! (which also holds every reliable frame to delivery, over 2 links
//! inside a rack and 4 across), per-link charge conservation,
//! partition behaviour, and the directory home assignment (via the
//! dev-only `rsdsm-core` cycle, as in `transport_delivery.rs`).
//!
//! The vendored proptest shim has no `prop_map`/`prop_assume`, so
//! fabrics are built from raw `(rack, spines, oversub)` draws in each
//! body and degenerate pairs are nudged apart arithmetically.

use proptest::prelude::*;
use rsdsm_core::DirectoryPolicy;
use rsdsm_simnet::{
    FaultPlan, NetConfig, Network, Partition, Reliability, SimDuration, SimTime, Topology,
};

fn fabric_net(nodes: usize, topology: Topology) -> Network {
    let cfg = NetConfig {
        topology,
        ..NetConfig::atm_155(7)
    };
    Network::new(nodes, cfg)
}

/// Distinct (src, dst) from two raw draws.
fn pair(nodes: usize, a: usize, b: usize) -> (usize, usize) {
    let src = a % nodes;
    let mut dst = b % nodes;
    if src == dst {
        dst = (dst + 1) % nodes;
    }
    (src, dst)
}

proptest! {
    /// A route and its reverse cross the same number of switches and,
    /// on an idle fabric, cost exactly the same end-to-end latency —
    /// the spine choice is symmetric in (source rack, destination
    /// rack), so there is no cheaper direction.
    #[test]
    fn routes_are_symmetric(
        shape in (1usize..9, 1usize..5, 1u32..9),
        nodes in 2usize..65,
        draws in (0usize..64, 0usize..64),
        bytes in 0u32..16384,
    ) {
        let topology = Topology::rack_spine(shape.0, shape.1, shape.2);
        let (a, b) = pair(nodes, draws.0, draws.1);
        // Fresh networks in each direction: idle links, no queueing.
        let mut fwd = fabric_net(nodes, topology);
        let mut rev = fabric_net(nodes, topology);
        let out = fwd.send(SimTime::ZERO, a, b, bytes, Reliability::Reliable, "t");
        let back = rev.send(SimTime::ZERO, b, a, bytes, Reliability::Reliable, "t");
        let there = out.arrival_time().expect("reliable frames deliver");
        let and_back = back.arrival_time().expect("reliable frames deliver");
        prop_assert_eq!(there, and_back, "asymmetric route cost");
        prop_assert_eq!(fwd.last_route().len(), rev.last_route().len());
        prop_assert_eq!(
            fwd.last_route().len(),
            if topology.same_rack(a, b) { 2 } else { 4 },
            "2 links inside a rack, 4 across"
        );
        prop_assert_eq!(
            topology.switch_hops(a, b),
            topology.switch_hops(b, a),
            "switch-hop symmetry"
        );
    }

    /// Conservation: the per-hop charges of a delivered frame — queue,
    /// serialization, propagation — sum exactly to its end-to-end
    /// latency. Nothing is charged twice and no time is unaccounted,
    /// even with queueing from earlier traffic on every link.
    #[test]
    fn hop_charges_sum_to_end_to_end_latency(
        shape in (1usize..9, 1usize..5, 1u32..9),
        nodes in 2usize..33,
        frames in prop::collection::vec((0usize..32, 0usize..32, 0u32..8192, 0u64..2000), 1..60),
    ) {
        let topology = Topology::rack_spine(shape.0, shape.1, shape.2);
        let mut net = fabric_net(nodes, topology);
        let mut now = SimTime::ZERO;
        for (a, b, bytes, gap) in frames {
            let (src, dst) = pair(nodes, a, b);
            now += SimDuration::from_micros(gap);
            let out = net.send(now, src, dst, bytes, Reliability::Reliable, "t");
            let arrival = out.arrival_time().expect("reliable frames deliver");
            let charged: SimDuration = net
                .last_route()
                .iter()
                .map(|h| h.total())
                .fold(SimDuration::ZERO, |acc, t| acc + t);
            prop_assert_eq!(
                now + charged,
                arrival,
                "hop charges must sum to the frame's latency"
            );
        }
    }

    /// An active partition cut is absolute: no frame crosses it in
    /// either direction, regardless of topology, while frames between
    /// same-side nodes keep flowing.
    #[test]
    fn no_frame_skips_a_cut(
        shape in (1usize..9, 1usize..5, 1u32..9),
        nodes in 4usize..33,
        cut_len in 1usize..16,
        draws in (0usize..32, 0usize..32),
    ) {
        let topology = Topology::rack_spine(shape.0, shape.1, shape.2);
        let (src, dst) = pair(nodes, draws.0, draws.1);
        // Cut nodes [nodes - cut_len, nodes) away from the rest.
        let cut_len = cut_len.min(nodes - 1);
        let island: Vec<usize> = (nodes - cut_len..nodes).collect();
        let mut net = fabric_net(nodes, topology);
        net.set_fault_plan(FaultPlan::none().with_partition(Partition::cut(
            vec![island.clone()],
            SimTime::ZERO,
            SimDuration::from_secs(3600),
        )));
        let crosses = island.contains(&src) != island.contains(&dst);
        let out = net.send(
            SimTime::from_micros(1),
            src,
            dst,
            512,
            Reliability::Reliable,
            "t",
        );
        if crosses {
            prop_assert!(out.arrival_time().is_none(), "frame crossed an active cut");
        } else {
            prop_assert!(out.arrival_time().is_some(), "same-side frame was dropped");
        }
    }

    /// The directory home assignment is a total, deterministic
    /// partition of the page space: every page gets exactly one home,
    /// the home is a valid node, and recomputing it never disagrees.
    #[test]
    fn home_assignment_is_a_total_deterministic_partition(
        pages in 1usize..512,
        nodes in 1usize..128,
    ) {
        let policy = DirectoryPolicy::Hash;
        let homes: Vec<usize> = (0..pages)
            .map(|p| policy.static_home(p, pages, nodes))
            .collect();
        for (p, &home) in homes.iter().enumerate() {
            prop_assert!(home < nodes, "page {p} homed on nonexistent node {home}");
            prop_assert_eq!(
                policy.static_home(p, pages, nodes),
                home,
                "home of page {p} moved between calls"
            );
        }
    }
}

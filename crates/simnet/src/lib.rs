//! # rsdsm-simnet
//!
//! Discrete-event simulation substrate for the rsdsm software-DSM
//! reproduction of *Comparative Evaluation of Latency Tolerance
//! Techniques for Software Distributed Shared Memory* (HPCA-4, 1998).
//!
//! The paper ran on eight RS/6000 workstations joined by a 155 Mbps
//! FORE ATM switch; this crate provides the deterministic stand-in:
//!
//! - [`SimTime`] / [`SimDuration`]: nanosecond simulated clock.
//! - [`EventQueue`]: time-ordered, FIFO-tie-broken event queue — a
//!   hierarchical timing wheel with a calendar overflow, plus the
//!   [`HeapQueue`] binary-heap reference it is differentially tested
//!   against (select with [`QueueBackend`]).
//! - [`Network`]: the single-switch ATM LAN model with per-link
//!   bandwidth, queueing (contention and hot-spotting), and
//!   congestion-based drops of unreliable (prefetch) messages.
//! - [`FaultPlan`]: deterministic, seed-driven fault injection —
//!   drops, duplicates, reordering, jitter, degradation windows, and
//!   node stalls layered onto the network model.
//! - [`PersistDevice`]: modeled per-node persistent storage with
//!   store-buffer, flush/fence, and crash-tearing semantics for
//!   durable checkpoints.
//! - [`DetRng`]: seedable generator so every run is reproducible.
//! - [`fnv1a`]: the FNV-1a hash every digest in the workspace uses.
//!
//! # Examples
//!
//! Simulating two message sends contending for one receiver:
//!
//! ```
//! use rsdsm_simnet::{EventQueue, NetConfig, Network, Reliability, SimTime};
//!
//! let mut net = Network::new(3, NetConfig::atm_155(7));
//! let mut queue = EventQueue::new();
//! for src in 0..2 {
//!     if let Some(arrival) = net
//!         .send(SimTime::ZERO, src, 2, 4096, Reliability::Reliable, "page")
//!         .arrival_time()
//!     {
//!         queue.push(arrival, src);
//!     }
//! }
//! let (first_time, first_src) = queue.pop().unwrap();
//! let (second_time, _) = queue.pop().unwrap();
//! assert_eq!(first_src, 0); // FIFO through the shared ingress link
//! assert!(second_time > first_time);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod event;
mod faults;
mod fnv;
mod network;
mod persist;
mod rng;
mod time;
mod topology;

pub use event::{EventQueue, HeapQueue, QueueBackend, WHEEL_HORIZON_NS, WHEEL_TIER_BOUNDARIES_NS};
pub use faults::{
    ClassProbs, DegradedWindow, Delivery, FaultClass, FaultPlan, FaultStats, NodeCrash, NodeStall,
    Partition,
};
pub use fnv::{fnv1a, fnv1a_extend, FNV_OFFSET, FNV_PRIME};
pub use network::{
    Hop, KindStats, NetConfig, NetStats, Network, NodeId, NodeTraffic, Reliability, SendOutcome,
};
pub use persist::{PersistConfig, PersistDevice, PersistStats};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use topology::Topology;

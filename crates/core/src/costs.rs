//! The software cost model.
//!
//! Every CPU-side cost in the DSM is an explicit, documented constant.
//! Defaults are calibrated so the simulated cluster lands in the
//! paper's measured ranges (§2.2, §3.3, §4.3): remote page misses
//! around half a millisecond uncongested, ~140 µs of software overhead
//! per message-generating prefetch, ~110 µs per context switch.

use rsdsm_simnet::SimDuration;

/// CPU-time constants for DSM software operations.
///
/// All costs are charged to a node's CPU and attributed to the
/// execution-time categories of the paper's figures.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Entering the page-fault handler (trap + lookup).
    pub fault_entry: SimDuration,
    /// Software send overhead per message (protocol + UDP stack).
    pub msg_send: SimDuration,
    /// Software receive overhead per message.
    pub msg_recv: SimDuration,
    /// Extra per-arrival overhead when arrivals are handled
    /// asynchronously (signals) instead of spin-polling — charged
    /// whenever multithreading is enabled (§4.3).
    pub async_arrival: SimDuration,
    /// Creating a twin (copy one page).
    pub twin_create: SimDuration,
    /// Fixed cost of encoding a diff (plus a per-byte part below).
    pub diff_create_base: SimDuration,
    /// Per-byte cost of scanning/encoding a diff.
    pub diff_create_per_kb: SimDuration,
    /// Fixed cost of applying a diff.
    pub diff_apply_base: SimDuration,
    /// Per-kilobyte cost of applying diff payload.
    pub diff_apply_per_kb: SimDuration,
    /// Software overhead of issuing one message-generating prefetch
    /// (paper: "roughly 140 µs", §3.3).
    pub prefetch_issue: SimDuration,
    /// Cost of an unnecessary prefetch: address lookup, valid-flag
    /// check, conditional branch (§3.3 footnote 4).
    pub prefetch_check: SimDuration,
    /// Extra service cost when a prefetch request finds a dirty page
    /// and must split the interval (§3.3: "more expensive to service").
    pub prefetch_service_extra: SimDuration,
    /// User-level thread context switch (paper: ~110 µs, §4.3).
    pub context_switch: SimDuration,
    /// Passing a lock between threads on the same node (§4.1).
    pub lock_local_pass: SimDuration,
    /// Processing a lock request/grant or barrier message beyond the
    /// generic receive cost.
    pub sync_process: SimDuration,
    /// Generating or absorbing a transport-level acknowledgement.
    /// Small: acks never enter the protocol handlers.
    pub ack_process: SimDuration,
    /// Garbage-collection cost per retained diff at a GC point.
    pub gc_per_diff: SimDuration,
    /// Busy-time cost per shared-memory access check (page lookup on
    /// the fast path; models the instrumentation the paper's inline
    /// checks would cost).
    pub access_check: SimDuration,
}

impl CostModel {
    /// Costs calibrated to the paper's 133 MHz PowerPC 604 + AIX 4.1
    /// platform.
    pub fn paper_1998() -> Self {
        CostModel {
            fault_entry: SimDuration::from_micros(30),
            msg_send: SimDuration::from_micros(55),
            msg_recv: SimDuration::from_micros(55),
            async_arrival: SimDuration::from_micros(35),
            twin_create: SimDuration::from_micros(20),
            diff_create_base: SimDuration::from_micros(15),
            diff_create_per_kb: SimDuration::from_micros(10),
            diff_apply_base: SimDuration::from_micros(10),
            diff_apply_per_kb: SimDuration::from_micros(8),
            prefetch_issue: SimDuration::from_micros(140),
            prefetch_check: SimDuration::from_nanos(800),
            prefetch_service_extra: SimDuration::from_micros(40),
            context_switch: SimDuration::from_micros(110),
            lock_local_pass: SimDuration::from_micros(8),
            sync_process: SimDuration::from_micros(25),
            ack_process: SimDuration::from_micros(5),
            gc_per_diff: SimDuration::from_micros(2),
            access_check: SimDuration::from_nanos(60),
        }
    }

    /// A free cost model; useful for protocol unit tests that care
    /// only about ordering, not timing.
    pub fn zero() -> Self {
        CostModel {
            fault_entry: SimDuration::ZERO,
            msg_send: SimDuration::ZERO,
            msg_recv: SimDuration::ZERO,
            async_arrival: SimDuration::ZERO,
            twin_create: SimDuration::ZERO,
            diff_create_base: SimDuration::ZERO,
            diff_create_per_kb: SimDuration::ZERO,
            diff_apply_base: SimDuration::ZERO,
            diff_apply_per_kb: SimDuration::ZERO,
            prefetch_issue: SimDuration::ZERO,
            prefetch_check: SimDuration::ZERO,
            prefetch_service_extra: SimDuration::ZERO,
            context_switch: SimDuration::ZERO,
            lock_local_pass: SimDuration::ZERO,
            sync_process: SimDuration::ZERO,
            ack_process: SimDuration::ZERO,
            gc_per_diff: SimDuration::ZERO,
            access_check: SimDuration::ZERO,
        }
    }

    /// Cost of creating a diff with `payload` modified bytes.
    pub fn diff_create(&self, payload: usize) -> SimDuration {
        self.diff_create_base + scale_per_kb(self.diff_create_per_kb, payload)
    }

    /// Cost of applying a diff with `payload` modified bytes.
    pub fn diff_apply(&self, payload: usize) -> SimDuration {
        self.diff_apply_base + scale_per_kb(self.diff_apply_per_kb, payload)
    }

    /// CPU cost of one adaptive-detector observation in the fault
    /// handler: a window bump plus the majority check — the same
    /// table-lookup scale as a prefetch validity check. Derived from
    /// existing constants (no new fields: the model is embedded in
    /// every pinned report digest), and charged by the engine at
    /// execution, never pre-queried.
    pub fn adaptive_observe(&self) -> SimDuration {
        self.prefetch_check
    }

    /// CPU cost of planning `candidates` adaptive prefetch targets
    /// (bounds/validity filtering before any message is generated;
    /// issued messages are then charged [`CostModel::adaptive_issue`]
    /// each by the send path, at execution).
    pub fn adaptive_plan(&self, candidates: usize) -> SimDuration {
        SimDuration::from_nanos(self.prefetch_check.as_nanos() * candidates as u64)
    }

    /// CPU cost of sending one adaptive prefetch request. The
    /// `prefetch_issue` constant models the paper's *user-level*
    /// prefetch call (trap into the library, argument checks, then
    /// the send); the adaptive engine already runs inside the fault
    /// handler at protocol level, so its issues pay only the plain
    /// message-send cost.
    pub fn adaptive_issue(&self) -> SimDuration {
        self.msg_send
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_1998()
    }
}

fn scale_per_kb(per_kb: SimDuration, bytes: usize) -> SimDuration {
    SimDuration::from_nanos(per_kb.as_nanos() * bytes as u64 / 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_matches_cited_constants() {
        let m = CostModel::paper_1998();
        assert_eq!(m.prefetch_issue, SimDuration::from_micros(140));
        assert_eq!(m.context_switch, SimDuration::from_micros(110));
    }

    #[test]
    fn diff_costs_scale_with_payload() {
        let m = CostModel::paper_1998();
        assert!(m.diff_create(4096) > m.diff_create(64));
        assert_eq!(
            m.diff_create(1024),
            m.diff_create_base + m.diff_create_per_kb
        );
        assert_eq!(m.diff_apply(0), m.diff_apply_base);
    }

    #[test]
    fn zero_model_is_free() {
        let m = CostModel::zero();
        assert_eq!(m.diff_create(4096), SimDuration::ZERO);
        assert_eq!(m.diff_apply(4096), SimDuration::ZERO);
    }
}

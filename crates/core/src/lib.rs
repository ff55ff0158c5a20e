//! # rsdsm-core
//!
//! A TreadMarks-style page-based software distributed shared memory
//! runtime with the two latency tolerance techniques studied in
//! *Comparative Evaluation of Latency Tolerance Techniques for
//! Software Distributed Shared Memory* (Mowry, Chan, Lo — HPCA-4,
//! 1998):
//!
//! - **Non-binding software-controlled prefetching** (§3): explicit
//!   [`TaskCtx::prefetch`] calls consult local write notices, send
//!   unreliable prefetch requests, cache diff replies in a separate
//!   heap, and apply them at access time — never violating coherence.
//! - **Multithreading** (§4): several user-level threads per node,
//!   switching on long-latency events, with request combining for
//!   pages, locks, and barriers.
//! - **The combined approach** (§5): multithreading for
//!   synchronization latency plus prefetching for memory latency, with
//!   redundant-prefetch suppression and throttling.
//!
//! The cluster itself (8 workstations on a 155 Mbps ATM LAN in the
//! paper) is simulated deterministically by `rsdsm-simnet`; the
//! coherence machinery (vector clocks, intervals, twins, diffs) comes
//! from `rsdsm-protocol`. Control traffic rides a modeled reliable
//! transport (sequence numbers, acks, timeout-driven retransmission
//! with exponential backoff — see [`TransportConfig`]), so runs stay
//! correct, and bit-identical for a given seed, even under the
//! injected message loss, duplication, and reordering of a
//! [`FaultPlan`]. Prefetch traffic deliberately stays droppable and
//! unretried, as in §3.1 of the paper.
//!
//! # Examples
//!
//! See [`DsmTask`] for a complete program, and the `examples/`
//! directory of the repository for realistic applications.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod accounting;
mod blocking;
mod checkpoint;
mod codec;
mod conductor;
mod config;
mod costs;
mod engine;
mod golden;
mod heap;
mod lock;
mod msg;
mod node;
mod oracle;
mod prefetch;
mod program;
mod recovery;
mod report;
mod thread;
mod trace;
mod transport;

pub use accounting::{Breakdown, Category, IdleReason, NodeAccount, NormalizedBreakdown};
pub use blocking::{AsThread, DsmCtx, DsmProgram};
pub use checkpoint::{
    classify_slot, Checkpoint, CheckpointError, CommitRecord, DiffRecord, PageImage, SlotState,
    SLOT_REGIONS,
};
pub use conductor::TaskCtx;
pub use config::{
    ConfigError, DirectoryConfig, DirectoryPolicy, DsmConfig, PrefetchConfig, PrefetchMode,
    ThreadConfig,
};
pub use costs::CostModel;
pub use engine::Simulation;
pub use golden::{golden_run, GoldenRun};
pub use heap::{Heap, HomePolicy, Pod, SharedVec};
pub use msg::{BarrierId, IntervalRecord, LockId, MsgClass};
pub use node::MissClass;
pub use oracle::{GrantRecord, InvariantKind, OracleConfig, OracleOutcome, Violation};
pub use prefetch::{
    AdaptiveStats, StrideDetector, ThrottleChange, ThrottleController, TrendChange,
};
pub use program::{AsTask, DsmTask, Runnable, VerifyCtx};
pub use recovery::{RecoveryConfig, RecoveryStats};
pub use report::{
    DirectorySummary, MissSummary, MtSummary, NetSummary, PrefetchSummary, RunReport, SimError,
    SyncSummary, TrafficRow,
};
pub use rsdsm_protocol::{Page, PAGE_SIZE};
pub use rsdsm_simnet::{
    fnv1a, fnv1a_extend, ClassProbs, DegradedWindow, FaultPlan, FaultStats, NodeCrash, NodeStall,
    Partition, PersistConfig, PersistDevice, PersistStats, QueueBackend, Topology,
};
pub use thread::ThreadId;
pub use trace::{
    Histogram, RetryTimeline, Trace, TraceError, TraceEvent, TraceMetrics, TraceRecord, TraceValue,
    NO_CAUSE, NO_THREAD,
};
pub use transport::{Recv, TimeoutAction, Transport, TransportConfig, TransportSummary};

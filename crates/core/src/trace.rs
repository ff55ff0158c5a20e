//! Deterministic structured event tracing.
//!
//! When enabled (via [`crate::Simulation::run_traced`]) the engine
//! emits one [`TraceRecord`] per simulated event — message send/recv
//! per class, page-fault begin/end, diff create/apply, twin create,
//! lock request/grant/local-pass, barrier arrive/release, thread
//! switch, prefetch issue/drop, transport retry, crash/suspect/
//! recover — stamped with sim-time, node, thread, and a causal link
//! to the record that triggered it. Because the simulation is
//! deterministic for a given (seed, config), the trace is a
//! *total-order fingerprint* of a run: same seed + config ⇒ the exact
//! same byte sequence under [`Trace::encode`], hence the same
//! [`Trace::digest`].
//!
//! Contracts:
//!
//! - **Zero cost when disabled**: every [`Tracer`] entry point
//!   early-returns on the `off` path; the engine never allocates,
//!   charges simulated time, or branches on trace *content* for an
//!   untraced run.
//! - **Observer effect = 0**: enabling tracing changes no simulated
//!   behavior — [`crate::RunReport::digest`] is identical with
//!   tracing on or off (locked down by `tests/trace_determinism.rs`).
//! - **Causality**: a record's `cause` names the id of the record
//!   that triggered it (the received frame for protocol handlers, the
//!   wire send for a receive, the fault begin for a fault end, the
//!   write notice for a diff apply, the first transmission for a
//!   retransmit). `0` means "no recorded cause".
//!
//! The binary format `RTR1` is built like the `RCK1` checkpoint
//! encoding, from the same little-endian codec (`codec.rs`):
//! self-delimiting, FNV-1a digested, with decode errors for
//! truncation, bad magic, and trailing bytes.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use rsdsm_simnet::{fnv1a, SimDuration, SimTime};

use crate::codec::{Cursor, Sink};
use crate::msg::MsgClass;
use crate::node::MissClass;
use crate::report::PrefetchSummary;

/// `thread` value for records emitted by the engine itself rather
/// than on behalf of an application thread.
pub const NO_THREAD: u32 = u32::MAX;

/// `cause` value for records with no recorded cause.
pub const NO_CAUSE: u64 = 0;

/// Decode failure for the `RTR1` format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The byte stream ended mid-field.
    Truncated,
    /// The stream does not start with the `RTR1` magic.
    BadMagic,
    /// A structural invariant failed while decoding.
    Corrupt(&'static str),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::BadMagic => write!(f, "not an RTR1 trace"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}

const MAGIC: u32 = 0x5254_5231; // "RTR1"

/// One field of a [`TraceEvent`], as [`TraceEvent::for_each_field`]
/// yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceValue {
    /// An unsigned number.
    Uint(u64),
    /// A signed number.
    Int(i64),
    /// A flag.
    Bool(bool),
    /// A code field's label: its variant's, or `"unknown"` for a code
    /// that does not decode.
    Label(&'static str),
}

/// A field type of the `RTR1` format: little-endian, fixed width.
trait Wire: Copy {
    /// Encoded size in bytes.
    const LEN: usize;
    fn put(self, out: &mut Vec<u8>);
    fn get(c: &mut Cursor<'_, TraceError>) -> Result<Self, TraceError>;
    fn value(self) -> TraceValue;
}

/// The unsigned field types: their little-endian bytes.
macro_rules! wire_uint {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            const LEN: usize = std::mem::size_of::<$ty>();
            fn put(self, out: &mut Vec<u8>) {
                out.put(&self.to_le_bytes());
            }
            fn get(c: &mut Cursor<'_, TraceError>) -> Result<Self, TraceError> {
                c.$ty()
            }
            fn value(self) -> TraceValue {
                TraceValue::Uint(self.into())
            }
        }
    )*};
}

wire_uint!(u8, u32, u64);

impl Wire for bool {
    const LEN: usize = 1;
    fn put(self, out: &mut Vec<u8>) {
        u8::from(self).put(out);
    }
    fn get(c: &mut Cursor<'_, TraceError>) -> Result<Self, TraceError> {
        match c.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(TraceError::Corrupt("bool out of range")),
        }
    }
    fn value(self) -> TraceValue {
        TraceValue::Bool(self)
    }
}

/// Travels as its two's-complement `u32`.
impl Wire for i32 {
    const LEN: usize = 4;
    fn put(self, out: &mut Vec<u8>) {
        (self as u32).put(out);
    }
    fn get(c: &mut Cursor<'_, TraceError>) -> Result<Self, TraceError> {
        Ok(c.u32()? as i32)
    }
    fn value(self) -> TraceValue {
        TraceValue::Int(self.into())
    }
}

/// A field's [`TraceValue`]: a code field, declared `field: u8 as
/// Enum`, yields its `Enum` label.
macro_rules! trace_value {
    ($field:ident) => {
        Wire::value(*$field)
    };
    ($field:ident, $code:ident) => {
        TraceValue::Label($code::from_code(*$field).map_or("unknown", $code::label))
    };
}

/// Declares [`TraceEvent`]. Each row is one variant — its `RTR1` tag,
/// name, exporter label and fields in wire order — and is the only
/// place the variant is described: the enum, [`TraceEvent::tag`],
/// [`TraceEvent::label`], [`TraceEvent::encoded_body_len`],
/// [`TraceEvent::for_each_field`] and the body encoder and decoder are
/// all generated from it. Adding an event is adding a row (with the
/// next free tag); field types are the [`Wire`] types, and a code
/// field names the enum it is a code of (`kind: u8 as MsgClass`).
macro_rules! trace_events {
    ($(
        $(#[$doc:meta])*
        $tag:literal $name:ident $label:literal
        $({ $($(#[$fdoc:meta])* $field:ident: $ty:ty $(as $code:ident)?),* $(,)? })?
    )*) => {
        /// One structured simulated event.
        ///
        /// Field conventions: `page` is the shared-page index, `peer`
        /// the remote node of a message or suspicion, `origin`/`seq`
        /// identify an interval by its writer and the writer's own
        /// vector-clock component — the scalar name every write notice
        /// and diff carries.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum TraceEvent {
            $($(#[$doc])* $name $({ $($(#[$fdoc])* $field: $ty),* })?,)*
        }

        impl TraceEvent {
            /// Wire tag of this event variant.
            pub fn tag(&self) -> u8 {
                match self {
                    $(TraceEvent::$name { .. } => $tag,)*
                }
            }

            /// Short human-readable name for exporters.
            pub fn label(&self) -> &'static str {
                match self {
                    $(TraceEvent::$name { .. } => $label,)*
                }
            }

            /// Exact `RTR1` body size of this event (excluding the
            /// shared record header), so encoding can size its buffer
            /// precisely.
            pub fn encoded_body_len(&self) -> usize {
                match self {
                    $(TraceEvent::$name { .. } => 0 $($(+ <$ty as Wire>::LEN)*)?,)*
                }
            }

            /// Hands `f` each field's name and value, in row order.
            pub fn for_each_field(&self, mut f: impl FnMut(&'static str, TraceValue)) {
                match self {
                    $(TraceEvent::$name $({ $($field),* })? => {
                        $($(f(stringify!($field), trace_value!($field $(, $code)?));)*)?
                    })*
                }
            }

            /// Appends the event's fields in wire order.
            fn encode_body(&self, out: &mut Vec<u8>) {
                match self {
                    $(TraceEvent::$name $({ $($field),* })? => {
                        $($($field.put(out);)*)?
                    })*
                }
            }

            /// Reads the fields of the event with wire tag `tag`.
            fn decode_body(tag: u8, c: &mut Cursor<'_, TraceError>) -> Result<TraceEvent, TraceError> {
                Ok(match tag {
                    $($tag => TraceEvent::$name $({ $($field: Wire::get(c)?),* })?,)*
                    _ => return Err(TraceError::Corrupt("unknown event tag")),
                })
            }
        }
    };
}

trace_events! {
    /// A frame handed to the network (includes retransmissions and
    /// frames the fault plan then drops).
    0 MsgSend "msg_send" {
        /// Message class ([`MsgClass::code`]).
        kind: u8 as MsgClass,
        /// Destination node.
        peer: u32,
        /// Per-link transport sequence number (0 for datagrams).
        seq: u64,
        /// Wire bytes.
        bytes: u32,
        /// True for a timeout-driven retransmission.
        retransmit: bool,
    }
    /// A frame arriving at a live NIC.
    1 MsgRecv "msg_recv" {
        /// Message class ([`MsgClass::code`]).
        kind: u8 as MsgClass,
        /// Source node.
        peer: u32,
        /// Per-link transport sequence number (0 for datagrams).
        seq: u64,
    }
    /// An application thread faulted on a page.
    2 FaultBegin "fault_begin" {
        /// Faulting page.
        page: u32,
        /// True for a write fault (twin will be needed).
        write: bool,
    }
    /// The fault's page became valid again; `cause` links the
    /// matching [`TraceEvent::FaultBegin`].
    3 FaultEnd "fault_end" {
        /// The page that was made valid.
        page: u32,
        /// §3.3 outcome class ([`MissClass::code`]).
        class: u8 as MissClass,
    }
    /// A diff was encoded from a twin (interval close or prefetch
    /// interval split).
    4 DiffCreate "diff_create" {
        /// Modified page.
        page: u32,
        /// Writer's interval sequence number.
        seq: u32,
        /// Encoded diff bytes.
        bytes: u32,
    }
    /// A remote diff was applied to the local copy; `cause` links
    /// the [`TraceEvent::WriteNotice`] that announced it.
    5 DiffApply "diff_apply" {
        /// Patched page.
        page: u32,
        /// Writing node.
        origin: u32,
        /// Writer's interval sequence number.
        seq: u32,
    }
    /// A twin (pristine copy) was created on first write.
    6 TwinCreate "twin_create" {
        /// Twinned page.
        page: u32,
    }
    /// A write notice became known at this node.
    7 WriteNotice "write_notice" {
        /// Invalidated page.
        page: u32,
        /// Writing node.
        origin: u32,
        /// Writer's interval sequence number.
        seq: u32,
    }
    /// A thread asked for a lock.
    8 LockRequest "lock_request" {
        /// Lock id.
        lock: u32,
    }
    /// The lock token was granted (at the granting node).
    9 LockGrant "lock_grant" {
        /// Lock id.
        lock: u32,
    }
    /// The token passed to a local waiter without leaving the node.
    10 LockLocalPass "lock_local_pass" {
        /// Lock id.
        lock: u32,
    }
    /// The last local thread arrived at a barrier (node-level
    /// arrival, after request combining).
    11 BarrierArrive "barrier_arrive" {
        /// Barrier id.
        barrier: u32,
    }
    /// A node processed a barrier release.
    12 BarrierRelease "barrier_release" {
        /// Barrier id.
        barrier: u32,
        /// The node's barrier epoch after this release (1-based).
        epoch: u32,
    }
    /// The node's scheduler switched to another ready thread.
    13 ThreadSwitch "thread_switch" {
        /// Incoming thread id.
        to: u32,
    }
    /// A non-binding prefetch request was issued for a page.
    14 PrefetchIssue "prefetch_issue" {
        /// Requested page.
        page: u32,
    }
    /// A prefetch frame was dropped by the fault plan.
    15 PrefetchDrop "prefetch_drop" {
        /// The page whose request or reply was lost.
        page: u32,
        /// False: the request was lost; true: the reply was lost.
        reply: bool,
    }
    /// The retransmission timer fired and the frame was re-sent;
    /// `cause` links the first transmission.
    16 TransportRetry "transport_retry" {
        /// Destination node.
        peer: u32,
        /// Per-link sequence number.
        seq: u64,
        /// The *next* timeout armed after this retry, in ns.
        rto_ns: u64,
    }
    /// Retries were exhausted and the frame was parked for recovery.
    17 FrameParked "frame_parked" {
        /// Unreachable destination.
        peer: u32,
        /// Per-link sequence number.
        seq: u64,
    }
    /// The node crash-stopped.
    18 Crash "crash" {
        /// True when a restart is scheduled (crash-restart).
        restarts: bool,
    }
    /// The node rejoined after a crash-restart.
    19 Restart "restart"
    /// This node reported `peer` as suspected down.
    20 Suspect "suspect" {
        /// Suspected node.
        peer: u32,
    }
    /// The manager confirmed `peer` down and started recovery.
    21 ConfirmDown "confirm_down" {
        /// Confirmed-down node.
        peer: u32,
    }
    /// A barrier-aligned checkpoint was captured.
    22 CheckpointTaken "checkpoint" {
        /// Barrier epoch the checkpoint is aligned to.
        epoch: u32,
        /// Encoded `RCK1` bytes.
        bytes: u32,
    }
    /// A network cut isolated this node from the manager-side
    /// majority; it froze local progress (quorum rule).
    23 PartitionFreeze "partition_freeze"
    /// The active network cut healed (emitted at the manager).
    24 PartitionHeal "partition_heal"
    /// This node reconciled back into the run after a heal
    /// (checkpoint restore + deterministic replay).
    25 PartitionRejoin "partition_rejoin"
    /// A checkpoint's persisted image committed on the node's
    /// durable device (two-slot A/B protocol; see `core::checkpoint`).
    26 PersistCommit "persist_commit" {
        /// Barrier epoch of the committed image.
        epoch: u32,
        /// Persisted bytes (segmented payload plus commit record).
        bytes: u32,
    }
    /// The adaptive engine's detector found (or flipped to) a
    /// majority stride on this thread's fault stream; `cause` links
    /// the [`TraceEvent::FaultBegin`] that completed the majority.
    27 AdaptiveDetect "adaptive_detect" {
        /// The faulting page that triggered the detection.
        page: u32,
        /// The detected stride, in pages (may be negative).
        stride: i32,
    }
    /// The adaptive throttle controller changed its operating point;
    /// `cause` links the [`TraceEvent::FaultBegin`] whose
    /// classification closed the evaluation window.
    28 AdaptiveThrottle "adaptive_throttle" {
        /// Transition code (`ThrottleChange::code`): 0 ramp, 1
        /// deepen, 2 backoff, 3 suppress, 4 resume.
        change: u8,
        /// Degree (pages per detecting fault) after the transition.
        degree: u32,
        /// Lead (look-ahead multiplier) after the transition.
        lead: u32,
    }
}

/// One trace record. A record's id is its 1-based position in
/// [`Trace::records`]; id `0` ([`NO_CAUSE`]) never names a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Node the event happened on.
    pub node: u32,
    /// Application thread involved, or [`NO_THREAD`].
    pub thread: u32,
    /// Id of the record that caused this one, or [`NO_CAUSE`].
    pub cause: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// A complete run trace: every record in global simulated-event
/// order (ties broken by the engine's deterministic event queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Cluster size of the traced run.
    pub nodes: u32,
    /// Threads per node of the traced run.
    pub threads_per_node: u32,
    /// All records, in emission order. Record ids are 1-based
    /// indices into this vector.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Exact size of the `RTR1` encoding in bytes.
    pub fn encoded_len(&self) -> usize {
        // Stream header + per-record fixed header + per-event body.
        20 + self
            .records
            .iter()
            .map(|r| 25 + r.event.encoded_body_len())
            .sum::<usize>()
    }

    /// Encodes the trace into the deterministic `RTR1` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.u32(MAGIC);
        out.u32(self.nodes);
        out.u32(self.threads_per_node);
        out.u64(self.records.len() as u64);
        for r in &self.records {
            out.u64(r.at.as_nanos());
            out.u32(r.node);
            out.u32(r.thread);
            out.u64(r.cause);
            out.put(&[r.event.tag()]);
            r.event.encode_body(&mut out);
        }
        out
    }

    /// Decodes an `RTR1` byte stream.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on truncation, wrong magic, unknown
    /// event tags, out-of-range causes, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut c = Cursor::new(bytes, TraceError::Truncated);
        if c.u32()? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let nodes = c.u32()?;
        let threads_per_node = c.u32()?;
        let count = c.u64()?;
        if count > bytes.len() as u64 {
            // Each record occupies well over one byte; a count larger
            // than the stream is corrupt, not merely truncated.
            return Err(TraceError::Corrupt("record count exceeds stream"));
        }
        let mut records = Vec::with_capacity(count as usize);
        for i in 0..count {
            let at = SimTime::from_nanos(c.u64()?);
            let node = c.u32()?;
            let thread = c.u32()?;
            let cause = c.u64()?;
            if cause > i {
                return Err(TraceError::Corrupt("cause is not a prior record"));
            }
            let tag = c.u8()?;
            let event = TraceEvent::decode_body(tag, &mut c)?;
            records.push(TraceRecord {
                at,
                node,
                thread,
                cause,
                event,
            });
        }
        if c.remaining() != 0 {
            return Err(TraceError::Corrupt("trailing bytes"));
        }
        Ok(Trace {
            nodes,
            threads_per_node,
            records,
        })
    }

    /// FNV-1a digest of the `RTR1` encoding — the run's total-order
    /// fingerprint.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.encode())
    }

    /// Derives aggregate metrics from the trace post-hoc.
    pub fn metrics(&self) -> TraceMetrics {
        let mut msg_latency: BTreeMap<String, Histogram> = BTreeMap::new();
        let mut fault_service = Histogram::new();
        let mut links: BTreeMap<(u32, u32), RetryTimeline> = BTreeMap::new();
        let (mut prefetch, mut prefetch_issued) = (PrefetchSummary::default(), 0);
        for r in &self.records {
            match &r.event {
                TraceEvent::MsgRecv { kind, .. } => {
                    if let Some(send) = self.resolve(r.cause) {
                        if matches!(send.event, TraceEvent::MsgSend { .. }) {
                            let label =
                                MsgClass::from_code(*kind).map_or("unknown", MsgClass::label);
                            msg_latency
                                .entry(label.to_string())
                                .or_default()
                                .insert(r.at.saturating_since(send.at).as_nanos());
                        }
                    }
                }
                TraceEvent::FaultEnd { class, .. } => {
                    if let Some(begin) = self.resolve(r.cause) {
                        if matches!(begin.event, TraceEvent::FaultBegin { .. }) {
                            fault_service.insert(r.at.saturating_since(begin.at).as_nanos());
                        }
                    }
                    prefetch.classify(MissClass::from_code(*class).unwrap_or(MissClass::NoPf));
                }
                TraceEvent::TransportRetry { peer, rto_ns, .. } => {
                    let link = links.entry((r.node, *peer)).or_insert(RetryTimeline {
                        src: r.node,
                        dst: *peer,
                        retries: 0,
                        first: r.at,
                        last: r.at,
                        max_rto: SimDuration::ZERO,
                    });
                    link.retries += 1;
                    link.first = link.first.min(r.at);
                    link.last = link.last.max(r.at);
                    link.max_rto = link.max_rto.max(SimDuration::from_nanos(*rto_ns));
                }
                TraceEvent::PrefetchIssue { .. } => prefetch_issued += 1,
                TraceEvent::PrefetchDrop { reply: true, .. } => prefetch.reply_drops += 1,
                TraceEvent::PrefetchDrop { reply: false, .. } => prefetch.send_drops += 1,
                _ => {}
            }
        }
        TraceMetrics {
            events: self.records.len() as u64,
            msg_latency,
            fault_service,
            retry_links: links.into_values().collect(),
            prefetch,
            prefetch_issued,
        }
    }

    fn resolve(&self, cause: u64) -> Option<&TraceRecord> {
        if cause == NO_CAUSE {
            return None;
        }
        self.records.get((cause - 1) as usize)
    }
}

/// Power-of-two latency histogram: bucket `i` counts values whose
/// bit length is `i` (bucket 0 holds zeros), so bucket boundaries
/// are exact powers of two up to `u64::MAX`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }

    /// Bucket index of `v`: its bit length.
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one value.
    pub fn insert(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Folds `other` into `self`. Merging is commutative and
    /// associative.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded value (0.0 when empty — never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The per-bucket counts (bucket `i` = values of bit length `i`).
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }
}

/// Retransmission activity on one directed link, from
/// [`TraceEvent::TransportRetry`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryTimeline {
    /// Sending node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Retransmissions on the link.
    pub retries: u64,
    /// Time of the first retransmission.
    pub first: SimTime,
    /// Time of the last retransmission.
    pub last: SimTime,
    /// Largest RTO armed after a retry on this link.
    pub max_rto: SimDuration,
}

/// Aggregate metrics derived from a [`Trace`] post-hoc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMetrics {
    /// Total records in the trace.
    pub events: u64,
    /// Send→recv wire latency per message class, in ns.
    pub msg_latency: BTreeMap<String, Histogram>,
    /// Page-fault service time (fault begin → page valid), in ns.
    pub fault_service: Histogram,
    /// Per-directed-link retransmission timelines, sorted by
    /// (src, dst).
    pub retry_links: Vec<RetryTimeline>,
    /// The §3.3 fault classes and the lost prefetch requests and
    /// replies, as the trace sees them. The counts only the engine
    /// sees — prefetch calls, filters, request messages — stay zero.
    pub prefetch: PrefetchSummary,
    /// Pages prefetches were issued for.
    pub prefetch_issued: u64,
}

impl TraceMetrics {
    /// Total retransmissions across all links.
    pub fn total_retries(&self) -> u64 {
        self.retry_links.iter().map(|l| l.retries).sum()
    }
}

/// The engine-side emitter. All entry points early-return when
/// tracing is off, so an untraced run does no tracing work at all.
#[derive(Debug)]
pub(crate) struct Tracer {
    on: bool,
    nodes: u32,
    threads_per_node: u32,
    records: Vec<TraceRecord>,
    /// Cause applied to records emitted while handling the current
    /// engine event, when no explicit cause is given (set to the
    /// `MsgRecv` id while a received frame is dispatched).
    current: u64,
    /// (src, dst, seq) → id of the frame's *first* transmission.
    first_sends: HashMap<(u32, u32, u64), u64>,
    /// (node, page, origin, seq) → id of the `WriteNotice` record.
    notices: HashMap<(u32, u32, u32, u32), u64>,
}

impl Tracer {
    /// A tracer; emits nothing unless `on`.
    pub(crate) fn new(on: bool, nodes: u32, threads_per_node: u32) -> Self {
        Tracer {
            on,
            nodes,
            threads_per_node,
            // Even the smallest traced runs emit thousands of records;
            // start large enough to skip the early doubling regrowths.
            records: if on {
                Vec::with_capacity(8192)
            } else {
                Vec::new()
            },
            current: NO_CAUSE,
            first_sends: HashMap::new(),
            notices: HashMap::new(),
        }
    }

    /// Whether tracing is enabled.
    pub(crate) fn is_on(&self) -> bool {
        self.on
    }

    /// Clears the ambient cause at the start of an engine event.
    pub(crate) fn begin_event(&mut self) {
        self.current = NO_CAUSE;
    }

    /// Sets the ambient cause (the `MsgRecv` id) for records emitted
    /// while the current frame is dispatched.
    pub(crate) fn set_current(&mut self, id: u64) {
        self.current = id;
    }

    /// Emits one record and returns its id (0 when tracing is off).
    /// A `cause` of [`NO_CAUSE`] inherits the ambient cause.
    pub(crate) fn emit(
        &mut self,
        at: SimTime,
        node: u32,
        thread: u32,
        cause: u64,
        event: TraceEvent,
    ) -> u64 {
        if !self.on {
            return NO_CAUSE;
        }
        let cause = if cause == NO_CAUSE {
            self.current
        } else {
            cause
        };
        self.records.push(TraceRecord {
            at,
            node,
            thread,
            cause,
            event,
        });
        self.records.len() as u64
    }

    /// Remembers the first transmission of a reliable frame.
    pub(crate) fn note_first_send(&mut self, src: u32, dst: u32, seq: u64, id: u64) {
        if !self.on {
            return;
        }
        self.first_sends.entry((src, dst, seq)).or_insert(id);
    }

    /// Id of a reliable frame's first transmission ([`NO_CAUSE`]
    /// when unknown).
    pub(crate) fn first_send(&self, src: u32, dst: u32, seq: u64) -> u64 {
        if !self.on {
            return NO_CAUSE;
        }
        self.first_sends
            .get(&(src, dst, seq))
            .copied()
            .unwrap_or(NO_CAUSE)
    }

    /// Forgets a delivered frame's first transmission (keeps the
    /// map bounded by in-flight frames).
    pub(crate) fn forget_send(&mut self, src: u32, dst: u32, seq: u64) {
        if self.on {
            self.first_sends.remove(&(src, dst, seq));
        }
    }

    /// Remembers the `WriteNotice` record for an interval at a node.
    pub(crate) fn note_notice(&mut self, node: u32, page: u32, origin: u32, seq: u32, id: u64) {
        if self.on {
            self.notices.insert((node, page, origin, seq), id);
        }
    }

    /// Id of the `WriteNotice` record a `DiffApply` descends from.
    pub(crate) fn notice_id(&self, node: u32, page: u32, origin: u32, seq: u32) -> u64 {
        if !self.on {
            return NO_CAUSE;
        }
        self.notices
            .get(&(node, page, origin, seq))
            .copied()
            .unwrap_or(NO_CAUSE)
    }

    /// Consumes the tracer into the finished [`Trace`].
    pub(crate) fn finish(self) -> Trace {
        Trace {
            nodes: self.nodes,
            threads_per_node: self.threads_per_node,
            records: self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Tracer::new(true, 2, 1);
        let send = t.emit(
            SimTime::from_nanos(10),
            0,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::MsgSend {
                kind: MsgClass::DiffRequest.code(),
                peer: 1,
                seq: 1,
                bytes: 64,
                retransmit: false,
            },
        );
        let recv = t.emit(
            SimTime::from_nanos(150),
            1,
            NO_THREAD,
            send,
            TraceEvent::MsgRecv {
                kind: MsgClass::DiffRequest.code(),
                peer: 0,
                seq: 1,
            },
        );
        t.set_current(recv);
        t.emit(
            SimTime::from_nanos(160),
            1,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::DiffCreate {
                page: 7,
                seq: 3,
                bytes: 40,
            },
        );
        t.begin_event();
        let begin = t.emit(
            SimTime::from_nanos(200),
            0,
            0,
            NO_CAUSE,
            TraceEvent::FaultBegin {
                page: 7,
                write: true,
            },
        );
        t.emit(
            SimTime::from_nanos(500),
            0,
            0,
            begin,
            TraceEvent::FaultEnd {
                page: 7,
                class: MissClass::Hit.code(),
            },
        );
        t.emit(
            SimTime::from_nanos(600),
            0,
            NO_THREAD,
            NO_CAUSE,
            TraceEvent::TransportRetry {
                peer: 1,
                seq: 2,
                rto_ns: 4_000_000,
            },
        );
        t.finish()
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample();
        let bytes = t.encode();
        let back = Trace::decode(&bytes).expect("decode");
        assert_eq!(t, back);
        assert_eq!(t.digest(), back.digest());
    }

    #[test]
    fn encoded_len_is_exact() {
        let t = sample();
        let bytes = t.encode();
        assert_eq!(bytes.len(), t.encoded_len());
        assert_eq!(
            bytes.capacity(),
            t.encoded_len(),
            "no regrowth during encode"
        );
    }

    #[test]
    fn encoded_body_len_matches_every_variant() {
        let events = vec![
            TraceEvent::MsgSend {
                kind: 0,
                peer: 1,
                seq: 2,
                bytes: 3,
                retransmit: false,
            },
            TraceEvent::MsgRecv {
                kind: 0,
                peer: 1,
                seq: 2,
            },
            TraceEvent::FaultBegin {
                page: 1,
                write: true,
            },
            TraceEvent::FaultEnd { page: 1, class: 0 },
            TraceEvent::DiffCreate {
                page: 1,
                seq: 2,
                bytes: 3,
            },
            TraceEvent::DiffApply {
                page: 1,
                origin: 2,
                seq: 3,
            },
            TraceEvent::TwinCreate { page: 1 },
            TraceEvent::WriteNotice {
                page: 1,
                origin: 2,
                seq: 3,
            },
            TraceEvent::LockRequest { lock: 1 },
            TraceEvent::LockGrant { lock: 1 },
            TraceEvent::LockLocalPass { lock: 1 },
            TraceEvent::BarrierArrive { barrier: 1 },
            TraceEvent::BarrierRelease {
                barrier: 1,
                epoch: 2,
            },
            TraceEvent::ThreadSwitch { to: 1 },
            TraceEvent::PrefetchIssue { page: 1 },
            TraceEvent::PrefetchDrop {
                page: 1,
                reply: true,
            },
            TraceEvent::TransportRetry {
                peer: 1,
                seq: 2,
                rto_ns: 3,
            },
            TraceEvent::FrameParked { peer: 1, seq: 2 },
            TraceEvent::Crash { restarts: true },
            TraceEvent::Restart,
            TraceEvent::Suspect { peer: 1 },
            TraceEvent::ConfirmDown { peer: 1 },
            TraceEvent::CheckpointTaken { epoch: 1, bytes: 2 },
            TraceEvent::PartitionFreeze,
            TraceEvent::PartitionHeal,
            TraceEvent::PartitionRejoin,
            TraceEvent::PersistCommit { epoch: 1, bytes: 2 },
            TraceEvent::AdaptiveDetect {
                page: 1,
                stride: -3,
            },
            TraceEvent::AdaptiveThrottle {
                change: 2,
                degree: 4,
                lead: 1,
            },
        ];
        for event in events {
            let t = Trace {
                nodes: 1,
                threads_per_node: 1,
                records: vec![TraceRecord {
                    at: SimTime::ZERO,
                    node: 0,
                    thread: NO_THREAD,
                    cause: NO_CAUSE,
                    event,
                }],
            };
            assert_eq!(
                t.encode().len(),
                t.encoded_len(),
                "size mismatch for {}",
                t.records[0].event.label()
            );
        }
    }

    /// Every tag decodes to the variant that reports that tag, and
    /// consumes exactly the bytes that variant says its body has.
    #[test]
    fn every_tag_decodes_to_its_own_variant_and_length() {
        let zeros = [0u8; 64];
        for tag in 0..=28u8 {
            let mut c = Cursor::new(&zeros, TraceError::Truncated);
            let event = TraceEvent::decode_body(tag, &mut c).expect("known tag");
            assert_eq!(event.tag(), tag);
            assert_eq!(
                event.encoded_body_len(),
                zeros.len() - c.remaining(),
                "{}",
                event.label()
            );
            // And through the stream decoder, which rejects any slack.
            let t = Trace {
                nodes: 1,
                threads_per_node: 1,
                records: vec![TraceRecord {
                    at: SimTime::ZERO,
                    node: 0,
                    thread: NO_THREAD,
                    cause: NO_CAUSE,
                    event,
                }],
            };
            assert_eq!(Trace::decode(&t.encode()), Ok(t));
        }
        let mut c = Cursor::new(&zeros, TraceError::Truncated);
        assert_eq!(
            TraceEvent::decode_body(29, &mut c),
            Err(TraceError::Corrupt("unknown event tag"))
        );
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        for cut in [0, 3, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Trace::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xff;
        assert_eq!(Trace::decode(&bytes), Err(TraceError::BadMagic));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(
            Trace::decode(&bytes),
            Err(TraceError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn forward_cause_is_rejected() {
        let t = Trace {
            nodes: 1,
            threads_per_node: 1,
            records: vec![TraceRecord {
                at: SimTime::ZERO,
                node: 0,
                thread: NO_THREAD,
                cause: 1, // would name itself
                event: TraceEvent::Restart,
            }],
        };
        assert_eq!(
            Trace::decode(&t.encode()),
            Err(TraceError::Corrupt("cause is not a prior record"))
        );
    }

    #[test]
    fn digest_tracks_content() {
        let a = sample();
        let mut b = sample();
        b.records[0].at = SimTime::from_nanos(11);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), sample().digest());
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let mut t = Tracer::new(false, 4, 1);
        let id = t.emit(SimTime::ZERO, 0, NO_THREAD, NO_CAUSE, TraceEvent::Restart);
        assert_eq!(id, NO_CAUSE);
        t.note_first_send(0, 1, 1, 5);
        assert_eq!(t.first_send(0, 1, 1), NO_CAUSE);
        assert!(t.finish().is_empty());
    }

    #[test]
    fn metrics_from_sample() {
        let m = sample().metrics();
        assert_eq!(m.events, 6);
        let lat = &m.msg_latency["diff_request"];
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.sum(), 140);
        assert_eq!(m.fault_service.count(), 1);
        assert_eq!(m.fault_service.sum(), 300);
        assert_eq!(m.retry_links.len(), 1);
        assert_eq!(m.retry_links[0].retries, 1);
        assert_eq!(m.retry_links[0].max_rto, SimDuration::from_millis(4));
        assert_eq!(m.prefetch.hits, 1);
        assert_eq!(m.total_retries(), 1);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        for v in [0u64, 1, 2, 3, 1024] {
            h.insert(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.buckets()[0], 1); // the zero
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[11], 1); // 1024
        assert!((h.mean() - 206.0).abs() < 1e-12);
    }
}

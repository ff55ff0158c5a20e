//! Chrome trace-event exporter for engine event traces.
//!
//! Serializes a [`Trace`] into the Chrome trace-event JSON format
//! (the `traceEvents` array flavour), loadable in Perfetto or
//! `chrome://tracing`. One process per simulated node, one named
//! track per node for the engine (protocol handlers, transport) and
//! one per application thread. Page-fault begin/end pairs become
//! duration (`"X"`) slices so fault service time is visible as slice
//! width; every other event is an instant (`"i"`).
//!
//! The output is deterministic: records are emitted in trace order
//! with fixed formatting, so the JSON bytes are a function of the
//! trace alone.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use rsdsm_core::{MissClass, MsgClass, Trace, TraceEvent, NO_THREAD};

/// Track id used for engine-side records (no owning app thread).
const ENGINE_TID: u32 = 0;

/// Perfetto-visible track for a record: `0` is the node's engine
/// track, app thread `t` maps to its node-local slot `t % tpn + 1`.
fn track(thread: u32, tpn: u32) -> u32 {
    if thread == NO_THREAD {
        ENGINE_TID
    } else {
        thread % tpn.max(1) + 1
    }
}

/// Sim-time nanoseconds displayed as `ts` wants them: fractional
/// microseconds, fixed to 3 decimals so formatting is deterministic.
/// A `Display` value, so each timestamp is written straight into the
/// output buffer.
struct TsUs(u64);

impl fmt::Display for TsUs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

fn kind_label(code: u8) -> &'static str {
    MsgClass::from_code(code).map_or("unknown", MsgClass::label)
}

fn class_name(code: u8) -> &'static str {
    MissClass::from_code(code).map_or("unknown", MissClass::label)
}

/// Event-specific `args` entries (already JSON, appended after the
/// common `"id"`/`"cause"` keys).
fn args_of(event: &TraceEvent, out: &mut String) {
    match event {
        TraceEvent::MsgSend {
            kind,
            peer,
            seq,
            bytes,
            retransmit,
        } => {
            let _ = write!(
                out,
                ",\"kind\":\"{}\",\"peer\":{peer},\"seq\":{seq},\"bytes\":{bytes},\"retransmit\":{retransmit}",
                kind_label(*kind)
            );
        }
        TraceEvent::MsgRecv { kind, peer, seq } => {
            let _ = write!(
                out,
                ",\"kind\":\"{}\",\"peer\":{peer},\"seq\":{seq}",
                kind_label(*kind)
            );
        }
        TraceEvent::FaultBegin { page, write } => {
            let _ = write!(out, ",\"page\":{page},\"write\":{write}");
        }
        TraceEvent::FaultEnd { page, class } => {
            let _ = write!(out, ",\"page\":{page},\"class\":\"{}\"", class_name(*class));
        }
        TraceEvent::DiffCreate { page, seq, bytes } => {
            let _ = write!(out, ",\"page\":{page},\"seq\":{seq},\"bytes\":{bytes}");
        }
        TraceEvent::DiffApply { page, origin, seq } => {
            let _ = write!(out, ",\"page\":{page},\"origin\":{origin},\"seq\":{seq}");
        }
        TraceEvent::TwinCreate { page } | TraceEvent::PrefetchIssue { page } => {
            let _ = write!(out, ",\"page\":{page}");
        }
        TraceEvent::WriteNotice { page, origin, seq } => {
            let _ = write!(out, ",\"page\":{page},\"origin\":{origin},\"seq\":{seq}");
        }
        TraceEvent::LockRequest { lock }
        | TraceEvent::LockGrant { lock }
        | TraceEvent::LockLocalPass { lock } => {
            let _ = write!(out, ",\"lock\":{lock}");
        }
        TraceEvent::BarrierArrive { barrier } => {
            let _ = write!(out, ",\"barrier\":{barrier}");
        }
        TraceEvent::BarrierRelease { barrier, epoch } => {
            let _ = write!(out, ",\"barrier\":{barrier},\"epoch\":{epoch}");
        }
        TraceEvent::ThreadSwitch { to } => {
            let _ = write!(out, ",\"to\":{to}");
        }
        TraceEvent::PrefetchDrop { page, reply } => {
            let _ = write!(out, ",\"page\":{page},\"reply\":{reply}");
        }
        TraceEvent::TransportRetry { peer, seq, rto_ns } => {
            let _ = write!(out, ",\"peer\":{peer},\"seq\":{seq},\"rto_ns\":{rto_ns}");
        }
        TraceEvent::FrameParked { peer, seq } => {
            let _ = write!(out, ",\"peer\":{peer},\"seq\":{seq}");
        }
        TraceEvent::Crash { restarts } => {
            let _ = write!(out, ",\"restarts\":{restarts}");
        }
        TraceEvent::Restart
        | TraceEvent::PartitionFreeze
        | TraceEvent::PartitionHeal
        | TraceEvent::PartitionRejoin => {}
        TraceEvent::Suspect { peer } | TraceEvent::ConfirmDown { peer } => {
            let _ = write!(out, ",\"peer\":{peer}");
        }
        TraceEvent::CheckpointTaken { epoch, bytes }
        | TraceEvent::PersistCommit { epoch, bytes } => {
            let _ = write!(out, ",\"epoch\":{epoch},\"bytes\":{bytes}");
        }
        TraceEvent::AdaptiveDetect { page, stride } => {
            let _ = write!(out, ",\"page\":{page},\"stride\":{stride}");
        }
        TraceEvent::AdaptiveThrottle {
            change,
            degree,
            lead,
        } => {
            let _ = write!(
                out,
                ",\"change\":{change},\"degree\":{degree},\"lead\":{lead}"
            );
        }
    }
}

/// Renders `trace` as Chrome trace-event JSON (Perfetto-loadable).
///
/// Layout: process `pid = node`, track `tid = 0` for the engine and
/// `tid = t + 1` for node-local app thread `t`. Fault begin/end pairs
/// (linked by the end record's causal id) become `"X"` duration
/// slices; all other records are `"i"` instants carrying their record
/// id and causal-link id in `args`.
#[must_use]
pub fn chrome_trace_json(trace: &Trace) -> String {
    let tpn = trace.threads_per_node.max(1);

    // End records index their begin by cause id; pre-pass so the
    // single forward emission loop can turn begins into slices.
    let mut fault_ends: HashMap<u64, (u64, u8)> = HashMap::new();
    for rec in &trace.records {
        if let TraceEvent::FaultEnd { class, .. } = rec.event {
            if rec.cause != 0 {
                fault_ends.insert(rec.cause, (rec.at.as_nanos(), class));
            }
        }
    }

    let mut out = String::with_capacity(96 * trace.records.len() + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };

    // Track metadata: names for every process and track.
    for n in 0..trace.nodes {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{n},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"node {n}\"}}}}"
        );
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{n},\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"engine\"}}}}"
        );
        for t in 0..tpn {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{n},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"thread {}\"}}}}",
                t + 1,
                n * tpn + t
            );
        }
    }

    for (i, rec) in trace.records.iter().enumerate() {
        let id = i as u64 + 1;
        let tid = track(rec.thread, tpn);
        let ns = rec.at.as_nanos();
        match &rec.event {
            // A begin with a matching end becomes one duration slice.
            TraceEvent::FaultBegin { page, write } if fault_ends.contains_key(&id) => {
                let (end_ns, class) = fault_ends[&id];
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"name\":\"fault p{page}\",\"args\":{{\"id\":{id},\"cause\":{},\
                     \"page\":{page},\"write\":{write},\"class\":\"{}\"}}}}",
                    rec.node,
                    TsUs(ns),
                    TsUs(end_ns.saturating_sub(ns)),
                    rec.cause,
                    class_name(class)
                );
            }
            // The end is folded into its begin's slice.
            TraceEvent::FaultEnd { .. } if rec.cause != 0 => {}
            event => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{tid},\"ts\":{},\
                     \"name\":\"{}\",\"args\":{{\"id\":{id},\"cause\":{}",
                    rec.node,
                    TsUs(ns),
                    event.label(),
                    rec.cause
                );
                args_of(event, &mut out);
                out.push_str("}}");
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsdsm_simnet::SimTime;

    fn sample() -> Trace {
        use rsdsm_core::{TraceRecord, NO_CAUSE};
        let rec = |ns, node, thread, cause, event| TraceRecord {
            at: SimTime::from_nanos(ns),
            node,
            thread,
            cause,
            event,
        };
        Trace {
            nodes: 2,
            threads_per_node: 2,
            records: vec![
                rec(
                    100,
                    0,
                    0,
                    NO_CAUSE,
                    TraceEvent::FaultBegin {
                        page: 7,
                        write: true,
                    },
                ),
                rec(
                    150,
                    1,
                    NO_THREAD,
                    NO_CAUSE,
                    TraceEvent::MsgSend {
                        kind: MsgClass::DiffReply.code(),
                        peer: 0,
                        seq: 3,
                        bytes: 512,
                        retransmit: false,
                    },
                ),
                rec(
                    400,
                    0,
                    0,
                    1,
                    TraceEvent::FaultEnd {
                        page: 7,
                        class: MissClass::NoPf.code(),
                    },
                ),
            ],
        }
    }

    #[test]
    fn fault_pair_becomes_duration_slice() {
        let json = chrome_trace_json(&sample());
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":0.300"), "{json}");
        assert!(json.contains("\"name\":\"fault p7\""), "{json}");
        // The folded end must not appear as an instant.
        assert!(!json.contains("fault_end"), "{json}");
    }

    #[test]
    fn output_is_deterministic_and_track_mapped() {
        let a = chrome_trace_json(&sample());
        let b = chrome_trace_json(&sample());
        assert_eq!(a, b);
        // Engine-side send lands on tid 0 of pid 1.
        assert!(a.contains("\"pid\":1,\"tid\":0,\"ts\":0.150"), "{a}");
        // Metadata names both processes.
        assert!(a.contains("\"name\":\"node 0\""));
        assert!(a.contains("\"name\":\"node 1\""));
    }

    #[test]
    fn json_has_balanced_brackets() {
        let json = chrome_trace_json(&sample());
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(json.ends_with("]}\n"));
    }
}

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
use std::fmt::Write as _;

use rsdsm_core::{Trace, TraceEvent, TraceRecord, TraceValue, NO_THREAD};

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

/// Appends sim-time nanoseconds as `ts` wants them: fractional
/// microseconds, fixed to 3 decimals so formatting is deterministic.
fn push_ts(out: &mut String, ns: u64) {
    push_uint(out, ns / 1000);
    out.push('.');
    let frac = ns % 1000;
    for digit in [frac / 100, frac / 10 % 10, frac % 10] {
        out.push(char::from(b'0' + digit as u8));
    }
}

/// Appends a record's head up to its duration or name: its phase
/// (`"X"`, or `"i"` with its scope), process, track and timestamp.
fn push_head(out: &mut String, phase: &str, pid: u32, tid: u32, ns: u64) {
    out.extend(["{\"ph\":", phase, ",\"pid\":"]);
    push_uint(out, pid.into());
    out.push_str(",\"tid\":");
    push_uint(out, tid.into());
    out.push_str(",\"ts\":");
    push_ts(out, ns);
}

/// Opens a record's `args` with its id and causal-link id; the
/// event's fields follow, and the caller closes both objects.
fn push_ids(out: &mut String, id: u64, cause: u64) {
    out.push_str(",\"args\":{\"id\":");
    push_uint(out, id);
    out.push_str(",\"cause\":");
    push_uint(out, cause);
}

/// Appends one `args` entry: a code field's label as a string, any
/// other field as its JSON number or boolean. Nothing here goes
/// through `fmt`, whose per-call cost, paid per field, makes the
/// export ≈ 25 % slower.
fn arg(out: &mut String, name: &str, value: TraceValue) {
    out.extend([",\"", name, "\":"]);
    match value {
        TraceValue::Uint(v) => push_uint(out, v),
        TraceValue::Int(v) => {
            out.push_str(if v < 0 { "-" } else { "" });
            push_uint(out, v.unsigned_abs());
        }
        TraceValue::Bool(v) => out.push_str(if v { "true" } else { "false" }),
        TraceValue::Label(v) => out.extend(["\"", v, "\""]),
    }
}

/// Appends `v` in decimal.
fn push_uint(out: &mut String, v: u64) {
    if v >= 10 {
        push_uint(out, v / 10);
    }
    out.push(char::from(b'0' + (v % 10) as u8));
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
    let mut fault_ends: HashMap<u64, &TraceRecord> = HashMap::new();
    for rec in &trace.records {
        if let TraceEvent::FaultEnd { .. } = rec.event {
            if rec.cause != 0 {
                fault_ends.insert(rec.cause, rec);
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
            // Its args are the begin's fields and the end's class.
            TraceEvent::FaultBegin { page, .. } if fault_ends.contains_key(&id) => {
                let end = fault_ends[&id];
                sep(&mut out);
                push_head(&mut out, "\"X\"", rec.node, tid, ns);
                out.push_str(",\"dur\":");
                push_ts(&mut out, end.at.as_nanos().saturating_sub(ns));
                out.push_str(",\"name\":\"fault p");
                push_uint(&mut out, (*page).into());
                out.push('"');
                push_ids(&mut out, id, rec.cause);
                rec.event
                    .for_each_field(|name, value| arg(&mut out, name, value));
                end.event.for_each_field(|name, value| {
                    if name == "class" {
                        arg(&mut out, name, value);
                    }
                });
                out.push_str("}}");
            }
            // The end is folded into its begin's slice.
            TraceEvent::FaultEnd { .. } if rec.cause != 0 => {}
            event => {
                sep(&mut out);
                push_head(&mut out, "\"i\",\"s\":\"t\"", rec.node, tid, ns);
                out.extend([",\"name\":\"", event.label(), "\""]);
                push_ids(&mut out, id, rec.cause);
                event.for_each_field(|name, value| arg(&mut out, name, value));
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
    use rsdsm_core::{MissClass, MsgClass};
    use rsdsm_simnet::SimTime;

    fn sample() -> Trace {
        use rsdsm_core::NO_CAUSE;
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

    /// One record of each of the 29 tags, both values of every `bool`,
    /// a negative stride, a `kind` and a `class` code that do not
    /// decode, a fault begin/end pair and an end with no begin.
    fn every_event() -> Trace {
        use rsdsm_core::NO_CAUSE;
        let events = [
            TraceEvent::MsgSend {
                kind: MsgClass::DiffRequest.code(),
                peer: 1,
                seq: 2,
                bytes: 64,
                retransmit: false,
            },
            TraceEvent::MsgSend {
                kind: 250,
                peer: 0,
                seq: u64::MAX,
                bytes: 4160,
                retransmit: true,
            },
            TraceEvent::MsgRecv {
                kind: MsgClass::Ack.code(),
                peer: 1,
                seq: 2,
            },
            TraceEvent::FaultBegin {
                page: 7,
                write: true,
            },
            TraceEvent::FaultEnd {
                page: 7,
                class: MissClass::TooLate.code(),
            },
            TraceEvent::FaultBegin {
                page: 8,
                write: false,
            },
            TraceEvent::FaultEnd {
                page: 9,
                class: 200,
            },
            TraceEvent::DiffCreate {
                page: 3,
                seq: 4,
                bytes: 40,
            },
            TraceEvent::DiffApply {
                page: 3,
                origin: 1,
                seq: 4,
            },
            TraceEvent::TwinCreate { page: 5 },
            TraceEvent::WriteNotice {
                page: 3,
                origin: 1,
                seq: 4,
            },
            TraceEvent::LockRequest { lock: 11 },
            TraceEvent::LockGrant { lock: 12 },
            TraceEvent::LockLocalPass { lock: 13 },
            TraceEvent::BarrierArrive { barrier: 2 },
            TraceEvent::BarrierRelease {
                barrier: 2,
                epoch: 6,
            },
            TraceEvent::ThreadSwitch { to: 3 },
            TraceEvent::PrefetchIssue { page: 21 },
            TraceEvent::PrefetchDrop {
                page: 21,
                reply: false,
            },
            TraceEvent::PrefetchDrop {
                page: 22,
                reply: true,
            },
            TraceEvent::TransportRetry {
                peer: 1,
                seq: 2,
                rto_ns: 4_000_000,
            },
            TraceEvent::FrameParked { peer: 1, seq: 3 },
            TraceEvent::Crash { restarts: true },
            TraceEvent::Crash { restarts: false },
            TraceEvent::Restart,
            TraceEvent::Suspect { peer: 1 },
            TraceEvent::ConfirmDown { peer: 1 },
            TraceEvent::CheckpointTaken {
                epoch: 6,
                bytes: 9000,
            },
            TraceEvent::PartitionFreeze,
            TraceEvent::PartitionHeal,
            TraceEvent::PartitionRejoin,
            TraceEvent::PersistCommit {
                epoch: 6,
                bytes: 9100,
            },
            TraceEvent::AdaptiveDetect {
                page: 30,
                stride: -2,
            },
            TraceEvent::AdaptiveThrottle {
                change: 3,
                degree: 4,
                lead: 2,
            },
        ];
        let records = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| {
                let i = i as u64;
                // The fault end (record 5) names its begin (record 4).
                let cause = if i == 4 { 4 } else { i / 2 * (i % 2) };
                TraceRecord {
                    at: SimTime::from_nanos(1000 * i + 7 * (i % 3)),
                    node: (i % 2) as u32,
                    thread: if i.is_multiple_of(3) {
                        NO_THREAD
                    } else {
                        i as u32 % 4
                    },
                    cause: if i == 6 { NO_CAUSE } else { cause },
                    event,
                }
            })
            .collect();
        Trace {
            nodes: 2,
            threads_per_node: 2,
            records,
        }
    }

    /// Timestamps are microseconds with exactly three decimals.
    #[test]
    fn timestamps_keep_three_decimals() {
        for ns in [0, 5, 40, 999, 1_000, 1_007, 123_456_789, u64::MAX] {
            let mut out = String::new();
            push_ts(&mut out, ns);
            assert_eq!(out, format!("{}.{:03}", ns / 1000, ns % 1000));
        }
    }

    /// The exporter's exact bytes for a record of every kind.
    #[test]
    fn every_event_renders_pinned_json() {
        let trace = every_event();
        let mut tags: Vec<u8> = trace.records.iter().map(|r| r.event.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 29);
        assert_eq!(chrome_trace_json(&trace), EVERY_EVENT_JSON);
    }

    const EVERY_EVENT_JSON: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"node 0"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"engine"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"thread 0"}},
{"ph":"M","pid":0,"tid":2,"name":"thread_name","args":{"name":"thread 1"}},
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"node 1"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"engine"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"thread 2"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"thread 3"}},
{"ph":"i","s":"t","pid":0,"tid":0,"ts":0.000,"name":"msg_send","args":{"id":1,"cause":0,"kind":"diff_request","peer":1,"seq":2,"bytes":64,"retransmit":false}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":1.007,"name":"msg_send","args":{"id":2,"cause":0,"kind":"unknown","peer":0,"seq":18446744073709551615,"bytes":4160,"retransmit":true}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":2.014,"name":"msg_recv","args":{"id":3,"cause":0,"kind":"ack","peer":1,"seq":2}},
{"ph":"X","pid":1,"tid":0,"ts":3.000,"dur":1.007,"name":"fault p7","args":{"id":4,"cause":1,"page":7,"write":true,"class":"too_late"}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":5.014,"name":"fault_begin","args":{"id":6,"cause":2,"page":8,"write":false}},
{"ph":"i","s":"t","pid":0,"tid":0,"ts":6.000,"name":"fault_end","args":{"id":7,"cause":0,"page":9,"class":"unknown"}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":7.007,"name":"diff_create","args":{"id":8,"cause":3,"page":3,"seq":4,"bytes":40}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":8.014,"name":"diff_apply","args":{"id":9,"cause":0,"page":3,"origin":1,"seq":4}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":9.000,"name":"twin_create","args":{"id":10,"cause":4,"page":5}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":10.007,"name":"write_notice","args":{"id":11,"cause":0,"page":3,"origin":1,"seq":4}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":11.014,"name":"lock_request","args":{"id":12,"cause":5,"lock":11}},
{"ph":"i","s":"t","pid":0,"tid":0,"ts":12.000,"name":"lock_grant","args":{"id":13,"cause":0,"lock":12}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":13.007,"name":"lock_local_pass","args":{"id":14,"cause":6,"lock":13}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":14.014,"name":"barrier_arrive","args":{"id":15,"cause":0,"barrier":2}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":15.000,"name":"barrier_release","args":{"id":16,"cause":7,"barrier":2,"epoch":6}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":16.007,"name":"thread_switch","args":{"id":17,"cause":0,"to":3}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":17.014,"name":"prefetch_issue","args":{"id":18,"cause":8,"page":21}},
{"ph":"i","s":"t","pid":0,"tid":0,"ts":18.000,"name":"prefetch_drop","args":{"id":19,"cause":0,"page":21,"reply":false}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":19.007,"name":"prefetch_drop","args":{"id":20,"cause":9,"page":22,"reply":true}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":20.014,"name":"transport_retry","args":{"id":21,"cause":0,"peer":1,"seq":2,"rto_ns":4000000}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":21.000,"name":"frame_parked","args":{"id":22,"cause":10,"peer":1,"seq":3}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":22.007,"name":"crash","args":{"id":23,"cause":0,"restarts":true}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":23.014,"name":"crash","args":{"id":24,"cause":11,"restarts":false}},
{"ph":"i","s":"t","pid":0,"tid":0,"ts":24.000,"name":"restart","args":{"id":25,"cause":0}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":25.007,"name":"suspect","args":{"id":26,"cause":12,"peer":1}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":26.014,"name":"confirm_down","args":{"id":27,"cause":0,"peer":1}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":27.000,"name":"checkpoint","args":{"id":28,"cause":13,"epoch":6,"bytes":9000}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":28.007,"name":"partition_freeze","args":{"id":29,"cause":0}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":29.014,"name":"partition_heal","args":{"id":30,"cause":14}},
{"ph":"i","s":"t","pid":0,"tid":0,"ts":30.000,"name":"partition_rejoin","args":{"id":31,"cause":0}},
{"ph":"i","s":"t","pid":1,"tid":2,"ts":31.007,"name":"persist_commit","args":{"id":32,"cause":15,"epoch":6,"bytes":9100}},
{"ph":"i","s":"t","pid":0,"tid":1,"ts":32.014,"name":"adaptive_detect","args":{"id":33,"cause":0,"page":30,"stride":-2}},
{"ph":"i","s":"t","pid":1,"tid":0,"ts":33.000,"name":"adaptive_throttle","args":{"id":34,"cause":16,"change":3,"degree":4,"lead":2}}
]}
"#;

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

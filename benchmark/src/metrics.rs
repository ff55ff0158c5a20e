//! The metric tables: what the benchmark prints, in what unit, and
//! what each layer metric is expected to move.
//!
//! `BENCHMARK.json` is generated from these tables (`rsbench
//! manifest`) and the schema test fails when the two disagree.

use crate::json::Json;
use crate::surface::WORKLOADS;

/// How long one contract run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 8;

/// An end-to-end metric: something a user of the simulator sees.
///
/// Host times come from pinned, warm, tracing-off passes and are
/// reported at nominal machine speed (see [`crate::yardstick`]).
/// Their bounds were calibrated on the unchanged tree (README,
/// "Calibration"): on this 2-vCPU VM a ten-seed set spreads 2 % when
/// the host is quiet and 6–13 % when a neighbour is busy, so a bound
/// under the contract's 0.25 cap would reject unchanged code.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    // Median host seconds for one serial pass over the workload's cells.
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // Sum of `events_processed` over the pass / `wall_s`.
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    // Worker `VmHWM` at exit, median over rounds.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    // Worker start to end of the warm-up pass, median over rounds.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// One layer (a module or module group of this repo), the layer
/// metrics measured for it from outside, and the prediction written
/// down before measuring: which end-to-end metric on which workload
/// an optimisation of this layer should move, and on which workloads
/// it should change nothing.
pub struct Layer {
    pub name: &'static str,
    /// `(metric name, unit)`. Lower is better for every one of them.
    pub metrics: &'static [(&'static str, &'static str)],
    /// `(end-to-end metric, workload)` pairs it should move.
    pub moves: &'static [(&'static str, &'static str)],
    /// Workloads on which the prediction is no change.
    pub unchanged: &'static [&'static str],
}

pub const LAYERS: &[Layer] = &[
    Layer {
        name: "core::conductor",
        metrics: &[
            ("core.conductor.syscall_ns", "ns"),
            ("core.conductor.syscall_unpinned_ns", "ns"),
            ("core.conductor.access_hit_ns", "ns"),
            ("core.conductor.spawn_us_per_thread.n8", "us"),
            ("core.conductor.spawn_us_per_thread.n1024", "us"),
            ("core.conductor.syscalls", "count"),
            ("core.conductor.os_threads", "count"),
            ("core.conductor.sys_cpu_frac", "ratio"),
            ("share.core.conductor", "ratio"),
        ],
        moves: &[
            ("wall_s", "paper8"),
            ("events_per_s", "paper8"),
            ("wall_s", "storm1024"),
            ("events_per_s", "storm1024"),
            ("peak_rss_mb", "storm1024"),
            ("setup_s", "storm1024"),
        ],
        unchanged: &["scale64"],
    },
    Layer {
        name: "core::engine",
        metrics: &[
            ("core.engine.events", "count"),
            ("core.engine.sim_ms", "sim_ms"),
            ("core.engine.host_ns_per_event", "ns"),
            ("share.core.engine.residual", "ratio"),
        ],
        moves: &[("wall_s", "scale64"), ("wall_s", "faulted8")],
        unchanged: &[],
    },
    Layer {
        name: "simnet::event",
        metrics: &[
            ("simnet.event.push_pop_ns.pop1k", "ns"),
            ("simnet.event.push_pop_ns.pop1m", "ns"),
            ("share.simnet.event", "ratio"),
        ],
        moves: &[],
        unchanged: &["paper8", "scale64", "storm1024", "faulted8", "observed8"],
    },
    Layer {
        name: "simnet::{network,topology,faults}",
        metrics: &[
            ("simnet.network.send_ns.flat8", "ns"),
            ("simnet.network.send_ns.flat1024", "ns"),
            ("simnet.network.send_ns.fabric64", "ns"),
            ("simnet.network.send_ns.fabric1024", "ns"),
            ("simnet.network.send_ns.flat8_loss5", "ns"),
            ("simnet.network.msgs", "count"),
            ("simnet.network.bytes", "count"),
            ("share.simnet.network", "ratio"),
        ],
        moves: &[("wall_s", "scale64"), ("wall_s", "storm1024")],
        unchanged: &["paper8"],
    },
    Layer {
        name: "simnet::persist",
        metrics: &[
            ("simnet.persist.write_fence_ns_per_kb", "ns"),
            ("simnet.persist.bytes", "count"),
        ],
        moves: &[("wall_s", "faulted8")],
        unchanged: &["paper8", "scale64", "storm1024", "observed8"],
    },
    Layer {
        name: "protocol::clock",
        metrics: &[
            ("protocol.clock.join_ns.n8", "ns"),
            ("protocol.clock.join_ns.n64", "ns"),
            ("protocol.clock.join_ns.n1024", "ns"),
        ],
        moves: &[("wall_s", "scale64"), ("wall_s", "storm1024")],
        unchanged: &["paper8"],
    },
    Layer {
        name: "protocol::{diff,page,notice}",
        metrics: &[
            ("protocol.diff.between_ns.sparse", "ns"),
            ("protocol.diff.between_ns.dense", "ns"),
            ("protocol.diff.apply_ns.sparse", "ns"),
            ("protocol.page.pool_cycle_ns", "ns"),
            ("protocol.notice.record_ns", "ns"),
            ("protocol.diff.created", "count"),
            ("protocol.diff.applied", "count"),
            ("protocol.page.twins", "count"),
            ("protocol.notice.recorded", "count"),
            ("share.protocol.diff", "ratio"),
        ],
        moves: &[("wall_s", "paper8"), ("wall_s", "faulted8")],
        unchanged: &["storm1024"],
    },
    Layer {
        name: "core::transport",
        metrics: &[
            ("core.transport.frame_ns", "ns"),
            ("core.transport.timeout_ns", "ns"),
            ("core.transport.retransmissions", "count"),
            ("share.core.transport", "ratio"),
        ],
        moves: &[("wall_s", "faulted8"), ("wall_s", "scale64")],
        unchanged: &["storm1024"],
    },
    Layer {
        name: "core::{checkpoint,recovery}",
        metrics: &[
            ("core.checkpoint.encode_ns_per_page", "ns"),
            ("core.checkpoint.decode_ns_per_page", "ns"),
            ("core.checkpoint.segment_ns_per_page", "ns"),
            ("core.checkpoint.taken", "count"),
            ("core.recovery.rejoins", "count"),
            ("share.core.checkpoint", "ratio"),
        ],
        moves: &[("wall_s", "faulted8")],
        unchanged: &["paper8", "scale64", "storm1024", "observed8"],
    },
    Layer {
        name: "core::prefetch",
        metrics: &[
            ("core.prefetch.observe_ns", "ns"),
            ("core.prefetch.issued", "count"),
        ],
        moves: &[("wall_s", "paper8")],
        unchanged: &["scale64"],
    },
    Layer {
        name: "core::trace, stats::chrome",
        metrics: &[
            ("core.trace.records", "count"),
            ("core.trace.overhead_frac", "ratio"),
            ("core.trace.emit_ns_per_record", "ns"),
            ("core.trace.encode_ns_per_record", "ns"),
            ("stats.chrome.json_ns_per_record", "ns"),
            ("share.core.trace", "ratio"),
            ("share.stats.chrome", "ratio"),
        ],
        moves: &[("wall_s", "observed8"), ("peak_rss_mb", "observed8")],
        unchanged: &["paper8", "scale64", "storm1024", "faulted8"],
    },
    Layer {
        name: "core::{oracle,golden}, oracle",
        metrics: &[
            ("core.oracle.overhead_frac", "ratio"),
            ("core.golden.replay_ms", "ms"),
            ("oracle.check_x", "ratio"),
            ("share.oracle", "ratio"),
        ],
        moves: &[("wall_s", "observed8")],
        unchanged: &["paper8", "scale64", "storm1024", "faulted8"],
    },
    Layer {
        name: "apps",
        metrics: &[("apps.golden_share", "ratio")],
        moves: &[("wall_s", "paper8")],
        unchanged: &["scale64", "storm1024"],
    },
    Layer {
        name: "harness",
        metrics: &[
            ("harness.cold_pass_x", "ratio"),
            ("harness.span_overhead_frac", "ratio"),
        ],
        moves: &[],
        unchanged: &[],
    },
];

/// Every per-layer metric as `(name, unit)`, in table order.
pub fn per_layer() -> impl Iterator<Item = (&'static str, &'static str)> {
    LAYERS.iter().flat_map(|l| l.metrics.iter().copied())
}

/// The unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| per_layer().find(|(n, _)| *n == name).map(|(_, u)| u))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    Json::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .map(|(name, unit)| {
                        Json::obj([
                            ("name", Json::Str(name.into())),
                            ("unit", Json::Str(unit.into())),
                            ("better", Json::Str("lower".into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

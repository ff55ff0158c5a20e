//! The worker: one process, one workload, one harness thread.
//!
//! The driver starts a fresh worker per workload per round (pinned to
//! one CPU), so set-up is measured cold every time and no workload
//! inherits another's warmed allocator. The worker prints one JSON
//! object on standard output and nothing else.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use crate::host;
use crate::json::Json;
use crate::metrics;
use crate::micro::Budget;
use crate::spans::Recorder;
use crate::stats::median;
use crate::surface::{self, Cell, Outcome};
use crate::yardstick::{Yardstick, NOMINAL_CHUNK_S};

/// What the driver asks of a worker.
pub struct Task {
    pub workload: String,
    pub seed: u64,
    /// Timed passes run until this much time has been measured.
    pub seconds: f64,
    pub quick: bool,
    /// Where `--layers` writes `spans-<workload>.json`.
    pub out_dir: String,
}

/// Yardstick chunks interleaved with one pass, spread evenly over its
/// cells (at least one per cell): ≈ 0.4 s at nominal speed.
const CHUNKS_PER_PASS: usize = 40;

/// One serial pass over a workload's cells.
struct Pass {
    /// Host seconds spent in the cells (yardstick slices excluded).
    wall_s: f64,
    cell_s: Vec<f64>,
    /// Seconds the interleaved yardstick slices took, and how many
    /// chunks they were (0 when the pass ran without a yardstick).
    yardstick_s: f64,
    chunks: usize,
    outcomes: Vec<Result<Outcome, String>>,
}

impl Pass {
    /// The machine's speed during this pass as a share of nominal
    /// (see [`crate::yardstick`]); host times are multiplied by it.
    fn speed(&self) -> f64 {
        if self.chunks == 0 {
            1.0
        } else {
            self.chunks as f64 * NOMINAL_CHUNK_S / self.yardstick_s
        }
    }

    /// Host seconds in the cells, at nominal machine speed.
    fn nominal_s(&self) -> f64 {
        self.wall_s * self.speed()
    }

    /// Sum of one count over the cells that ran.
    fn count(&self, key: &str) -> u64 {
        self.outcomes
            .iter()
            .flatten()
            .filter_map(|o| o.counts.get(key))
            .sum()
    }
}

fn run_pass(
    cells: &[Cell],
    tally: bool,
    rec: &mut Recorder,
    mut yardstick: Option<&mut Yardstick>,
) -> Pass {
    let slice = ((CHUNKS_PER_PASS + cells.len() / 2) / cells.len()).max(1);
    let mut yardstick_s = 0.0;
    let mut chunks = 0;
    let mut cell_s = Vec::with_capacity(cells.len());
    let mut outcomes = Vec::with_capacity(cells.len());
    rec.span("pass", "", |rec| {
        for cell in cells {
            let cell_start = Instant::now();
            // A panicking cell (engine bug, helper-thread fallout) is
            // a failed cell, not a dead benchmark.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                rec.span("cell", &cell.name, |rec| cell.run(tally, rec))
            }))
            .unwrap_or_else(|panic| {
                let what = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic");
                Err(format!("panicked: {what}"))
            });
            cell_s.push(cell_start.elapsed().as_secs_f64());
            outcomes.push(outcome);
            // A slice after every cell keeps the yardstick within a
            // fraction of a second of the work it calibrates.
            if let Some(yardstick) = yardstick.as_deref_mut() {
                yardstick_s += rec.span("yardstick", &cell.name, |_| yardstick.run(slice));
                chunks += slice;
            }
        }
    });
    Pass {
        wall_s: cell_s.iter().sum(),
        cell_s,
        yardstick_s,
        chunks,
        outcomes,
    }
}

/// Checks every cell of every pass: it ran, it verified, and its
/// simulated fingerprint is the reference pass's. Returns
/// `(attempted, failure descriptions)`.
fn check(cells: &[Cell], passes: &[&Pass]) -> (usize, Vec<String>) {
    let mut failures = Vec::new();
    for (p, pass) in passes.iter().enumerate() {
        for (i, cell) in cells.iter().enumerate() {
            match (&pass.outcomes[i], &passes[0].outcomes[i]) {
                (Err(e), _) => failures.push(format!("{} pass {p}: {e}", cell.name)),
                (Ok(o), _) if !o.verified => {
                    failures.push(format!("{} pass {p}: not verified", cell.name));
                }
                (Ok(o), Ok(first)) if o.fingerprint != first.fingerprint => {
                    failures.push(format!(
                        "{} pass {p}: simulated fingerprint {:?} differs from {:?}",
                        cell.name, o.fingerprint, first.fingerprint
                    ));
                }
                _ => {}
            }
        }
    }
    (cells.len() * passes.len(), failures)
}

fn fingerprints(cells: &[Cell], pass: &Pass) -> Json {
    Json::obj(cells.iter().zip(&pass.outcomes).map(|(cell, outcome)| {
        let fp = outcome
            .as_ref()
            .map_or(Json::Null, |o| Json::nums(&o.fingerprint.map(|v| v as f64)));
        (cell.name.clone(), fp)
    }))
}

/// Builds the cells and runs the untimed warm-up pass; everything up
/// to its end, less the yardstick's slices, is set-up. Returns the
/// cells, the warm-up pass and the raw set-up seconds.
fn set_up(
    task: &Task,
    started: Instant,
    yardstick: Option<&mut Yardstick>,
) -> Result<(Vec<Cell>, Pass, f64), String> {
    let cells = surface::build(&task.workload, task.seed, task.quick)?;
    let warmup = run_pass(&cells, false, &mut Recorder::new(false), yardstick);
    let setup_s = started.elapsed().as_secs_f64() - warmup.yardstick_s;
    Ok((cells, warmup, setup_s))
}

/// Timed passes, tracing off, until `seconds` have gone by or
/// `at_most` passes have run.
fn timed_passes(
    cells: &[Cell],
    seconds: f64,
    at_most: usize,
    mut yardstick: Option<&mut Yardstick>,
) -> Vec<Pass> {
    let mut rec = Recorder::new(false);
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        passes.push(run_pass(cells, false, &mut rec, yardstick.as_deref_mut()));
        if passes.len() >= at_most || start.elapsed().as_secs_f64() >= seconds {
            return passes;
        }
    }
}

fn common_fields(task: &Task, cells: &[Cell], all: &[&Pass]) -> Vec<(&'static str, Json)> {
    let (attempted, failures) = check(cells, all);
    vec![
        ("workload", Json::Str(task.workload.clone())),
        ("cpus_allowed_list", Json::Str(host::cpus_allowed_list())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failures.len() as f64)),
        (
            "failures",
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        ),
        ("fingerprints", fingerprints(cells, all[0])),
    ]
}

/// The end-to-end worker: set-up, then timed passes, every pass
/// interleaved with yardstick slices. Host times are reported at
/// nominal machine speed, with the raw seconds beside them.
///
/// # Errors
///
/// Set-up failed (unknown workload, failed dry run).
pub fn timed(task: &Task) -> Result<Json, String> {
    let started = Instant::now();
    let mut yardstick = Yardstick::new();
    let (cells, warmup, setup_s) = set_up(task, started, Some(&mut yardstick))?;
    let at_most = if task.quick { 1 } else { usize::MAX };
    let passes = timed_passes(&cells, task.seconds, at_most, Some(&mut yardstick));

    let mut all = vec![&warmup];
    all.extend(&passes);
    let per_pass = |f: &dyn Fn(&Pass) -> f64| Json::nums(&passes.iter().map(f).collect::<Vec<_>>());
    let mut fields = common_fields(task, &cells, &all);
    fields.extend([
        ("setup_s", Json::Num(setup_s * warmup.speed())),
        ("raw_setup_s", Json::Num(setup_s)),
        ("pass_wall_s", per_pass(&Pass::nominal_s)),
        (
            "pass_cell_ms",
            Json::Arr(
                passes
                    .iter()
                    .map(|p| {
                        Json::nums(
                            &p.cell_s
                                .iter()
                                .map(|s| s * 1e3 * p.speed())
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect(),
            ),
        ),
        ("pass_raw_wall_s", per_pass(&|p| p.wall_s)),
        ("pass_speed", per_pass(&Pass::speed)),
        ("events", Json::Num(warmup.count("events") as f64)),
        ("sim_ns", Json::Num(warmup.count("sim_ns") as f64)),
        ("peak_rss_mb", Json::Num(host::peak_rss_mb())),
    ]);
    Ok(Json::obj(fields))
}

/// The `--layers` worker: two reference passes, one pass with spans
/// on, one traced pass that tallies record kinds, then the unit-cost
/// microbenchmarks; derives every per-layer metric and writes the
/// spans as Chrome trace JSON.
///
/// # Errors
///
/// Set-up failed, or the spans file could not be written.
pub fn layers(task: &Task) -> Result<Json, String> {
    let started = Instant::now();
    let mut yardstick = Yardstick::new();
    let (cells, warmup, _) = set_up(task, started, Some(&mut yardstick))?;

    // Every stage carries its own yardstick slices and is scaled to
    // nominal machine speed by them: the stages are seconds apart,
    // and a ratio of times taken at two different machine speeds
    // would measure the machine.
    let reference = timed_passes(
        &cells,
        f64::MAX,
        if task.quick { 1 } else { 2 },
        Some(&mut yardstick),
    );
    let wall_s = median(&reference.iter().map(Pass::nominal_s).collect::<Vec<_>>());

    let mut rec = Recorder::new(true);
    let spanned = run_pass(&cells, false, &mut rec, Some(&mut yardstick));
    let span_path = Path::new(&task.out_dir).join(format!("spans-{}.json", task.workload));
    std::fs::create_dir_all(&task.out_dir)
        .and_then(|()| std::fs::write(&span_path, rec.chrome_json().pretty()))
        .map_err(|e| format!("writing {}: {e}", span_path.display()))?;

    // The counting pass needs no yardstick, which makes it the one
    // stretch whose process CPU times are the simulator's alone.
    let ticks_before = host::cpu_ticks();
    let tallied = run_pass(&cells, true, &mut Recorder::new(false), None);
    let ticks_after = host::cpu_ticks();

    let mut measured = Vec::new();
    let (mut micro_yardstick_s, mut micro_chunks) = (0.0, 0);
    surface::unit_costs(Budget::new(task.quick), task.quick, &mut |name, value| {
        measured.push((name, value));
        micro_yardstick_s += yardstick.run(2);
        micro_chunks += 2;
    });
    let micro_speed = micro_chunks as f64 * NOMINAL_CHUNK_S / micro_yardstick_s;
    let unit: BTreeMap<&str, f64> = measured
        .into_iter()
        .map(|(name, value)| {
            let is_time = matches!(metrics::unit_of(name), Some("ns" | "us" | "ms"));
            (name, if is_time { value * micro_speed } else { value })
        })
        .collect();

    // Messages and threads are charged at the unit cost closest to
    // the cell they belong to (cluster size, topology, fault plan).
    let mut send_ns = 0.0;
    let mut spawn_ns = 0.0;
    for (cell, outcome) in cells.iter().zip(&tallied.outcomes) {
        let Ok(outcome) = outcome else { continue };
        let count = |key| outcome.counts.get(key).copied().unwrap_or(0) as f64;
        send_ns +=
            count("msgs") * unit[format!("simnet.network.send_ns.{}", cell.send_cost()).as_str()];
        spawn_ns += count("os_threads")
            * 1e3
            * unit[format!("core.conductor.spawn_us_per_thread.{}", cell.spawn_cost()).as_str()];
    }

    let c = |key: &str| tallied.count(key) as f64;
    let wall_ns = wall_s * 1e9;
    let span_ns: BTreeMap<&str, f64> = rec
        .self_time_ns()
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 * spanned.speed()))
        .collect();
    let span = |name: &str| span_ns.get(name).copied().unwrap_or(0.0);

    // One syscall per fault, barrier arrival, acquire, release,
    // prefetch request and thread exit.
    let syscalls = c("faults")
        + c("barrier_waits")
        + 2.0 * c("lock_requests")
        + c("prefetch_issued")
        + c("os_threads");
    // Records the timed cells themselves produce: observed8 only.
    let records = spanned.count("trace_records") as f64;
    let diff_between = if c("diff_bytes") > c("diff_created") * (surface::PAGE_BYTES / 2.0) {
        unit["protocol.diff.between_ns.dense"]
    } else {
        unit["protocol.diff.between_ns.sparse"]
    };
    let checkpoint_pages = c("checkpoint_bytes") / surface::PAGE_BYTES;
    let pages_per_checkpoint = checkpoint_pages / c("checkpoints").max(1.0);

    let shares = [
        (
            "share.core.conductor",
            syscalls * unit["core.conductor.syscall_ns"] + spawn_ns,
        ),
        (
            "share.simnet.event",
            c("events") * unit["simnet.event.push_pop_ns.pop1k"],
        ),
        ("share.simnet.network", send_ns),
        (
            "share.protocol.diff",
            c("diff_created") * diff_between
                + c("diff_applied") * unit["protocol.diff.apply_ns.sparse"]
                + c("twins") * unit["protocol.page.pool_cycle_ns"]
                + c("notices") * unit["protocol.notice.record_ns"],
        ),
        (
            "share.core.transport",
            c("data_frames") * unit["core.transport.frame_ns"]
                + c("timeouts") * unit["core.transport.timeout_ns"],
        ),
        (
            "share.core.checkpoint",
            checkpoint_pages * unit["core.checkpoint.encode_ns_per_page"]
                + c("rejoins") * pages_per_checkpoint * unit["core.checkpoint.decode_ns_per_page"]
                + c("persist_bytes") / surface::PAGE_BYTES
                    * unit["core.checkpoint.segment_ns_per_page"]
                + c("persist_bytes") / 1024.0 * unit["simnet.persist.write_fence_ns_per_kb"],
        ),
        (
            "share.core.trace",
            span("trace_encode") + records * unit["core.trace.emit_ns_per_record"],
        ),
        ("share.stats.chrome", span("chrome_json")),
        ("share.oracle", span("check_technique")),
    ]
    .map(|(name, ns)| (name, ns / wall_ns));
    let residual = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();

    let cpu = (
        (ticks_after.0 - ticks_before.0) as f64,
        (ticks_after.1 - ticks_before.1) as f64,
    );
    let mut metrics: Vec<(&str, f64)> = unit.into_iter().collect();
    metrics.extend(shares);
    metrics.extend([
        ("share.core.engine.residual", residual),
        ("core.conductor.syscalls", syscalls),
        ("core.conductor.os_threads", c("os_threads")),
        (
            "core.conductor.sys_cpu_frac",
            cpu.1 / (cpu.0 + cpu.1).max(1.0),
        ),
        ("core.engine.events", c("events")),
        ("core.engine.sim_ms", c("sim_ns") / 1e6),
        (
            "core.engine.host_ns_per_event",
            wall_ns / c("events").max(1.0),
        ),
        ("simnet.network.msgs", c("msgs")),
        ("simnet.network.bytes", c("bytes")),
        ("simnet.persist.bytes", c("persist_bytes")),
        ("protocol.diff.created", c("diff_created")),
        ("protocol.diff.applied", c("diff_applied")),
        ("protocol.page.twins", c("twins")),
        ("protocol.notice.recorded", c("notices")),
        ("core.transport.retransmissions", c("retransmissions")),
        ("core.checkpoint.taken", c("checkpoints")),
        ("core.recovery.rejoins", c("rejoins")),
        ("core.prefetch.issued", c("prefetch_issued")),
        ("core.trace.records", records),
        ("harness.cold_pass_x", warmup.nominal_s() / wall_s),
        (
            "harness.span_overhead_frac",
            spanned.nominal_s() / wall_s - 1.0,
        ),
    ]);

    let mut all = vec![&warmup];
    all.extend(&reference);
    all.extend([&spanned, &tallied]);
    let mut fields = common_fields(task, &cells, &all);
    fields.extend([
        ("wall_s", Json::Num(wall_s)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        (
            "span_self_ms",
            Json::obj(span_ns.iter().map(|(k, v)| (*k, Json::Num(v / 1e6)))),
        ),
        ("spans_file", Json::Str(span_path.display().to_string())),
    ]);
    Ok(Json::obj(fields))
}

/// The conductor round trip alone, for the unpinned comparison.
pub fn syscall(quick: bool) -> Json {
    Json::obj([
        ("cpus_allowed_list", Json::Str(host::cpus_allowed_list())),
        (
            "syscall_ns",
            Json::Num(surface::conductor_syscall_ns(Budget::new(quick))),
        ),
    ])
}

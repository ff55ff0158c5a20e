//! The driver: starts pinned workers, aggregates what they measured,
//! prints every metric as `workload metric value unit` and writes the
//! result file.
//!
//! Closed loop, one client: workers run one after another, each a
//! fresh process under `taskset -c <one allowed cpu>`. Rounds
//! interleave the workloads (A B C D E, A B C D E, …) so machine
//! drift hits all alike. `--jobs` fan-out is deliberately not
//! measured: on a 2-core box it would measure the scheduler.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Stdio;

use crate::host;
use crate::json::{self, Json};
use crate::metrics::{self, END_TO_END};
use crate::stats::{median, summary};
use crate::surface::WORKLOADS;

/// Rounds of a full (non-quick) run: each round is one fresh worker
/// per workload, so this is also the sample count behind `setup_s`
/// and `peak_rss_mb`. Set-up costs about as much as a timed pass, so
/// more rounds would buy set-up samples with timed passes.
const ROUNDS: usize = 2;

pub struct Opts {
    /// Workloads to run; empty means all five.
    pub workloads: Vec<String>,
    pub seed: u64,
    /// Seconds of timed passes per workload, split across the rounds.
    pub seconds: f64,
    pub layers: bool,
    pub quick: bool,
    pub out_dir: String,
}

impl Opts {
    fn workload_names(&self) -> Vec<String> {
        if self.workloads.is_empty() {
            WORKLOADS.iter().map(|w| w.name.to_string()).collect()
        } else {
            self.workloads.clone()
        }
    }

    fn rounds(&self) -> usize {
        if self.quick {
            1
        } else {
            ROUNDS
        }
    }
}

/// Runs one worker to completion and parses the JSON it prints.
fn spawn_worker(
    cpu: Option<usize>,
    mode: &str,
    workload: &str,
    seconds: f64,
    opts: &Opts,
) -> Result<Json, String> {
    let mut args = vec![
        "worker".to_string(),
        mode.to_string(),
        "--workload".into(),
        workload.to_string(),
        "--seed".into(),
        opts.seed.to_string(),
        "--seconds".into(),
        seconds.to_string(),
        "--out".into(),
        opts.out_dir.clone(),
    ];
    if opts.quick {
        args.push("--quick".into());
    }
    let output = host::worker_command(cpu, &args)
        .and_then(|mut c| c.stdin(Stdio::null()).stderr(Stdio::inherit()).output())
        .map_err(|e| format!("starting {mode} worker for {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{mode} worker for {workload} exited with {}",
            output.status
        ));
    }
    json::parse(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{mode} worker for {workload}: {e}"))
}

/// Whether the worker, reading its own affinity back from
/// `/proc/self/status`, found itself on exactly one CPU.
fn ran_pinned(worker: &Json) -> bool {
    worker
        .get("cpus_allowed_list")
        .and_then(Json::as_str)
        .is_some_and(|list| host::parse_cpu_list(list).len() == 1)
}

fn num(worker: &Json, key: &str) -> f64 {
    worker.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn strings(worker: &Json, key: &str) -> Vec<String> {
    worker
        .get(key)
        .map(|v| {
            v.items()
                .iter()
                .filter_map(Json::as_str)
                .map(String::from)
                .collect()
        })
        .unwrap_or_default()
}

/// One workload's result, end-to-end or per-layer.
struct Row {
    workload: String,
    /// `(metric, value)` in table order; `None` prints `unresolved`.
    metrics: Vec<(&'static str, Option<f64>)>,
    attempted: u64,
    failures: Vec<String>,
    /// What else the `#` line says about the workload.
    commentary: String,
    /// The workload's section of the result file.
    detail: Json,
}

/// The verdict fields every workload section ends with.
fn verdict_fields(attempted: u64, failures: &[String]) -> [(&'static str, Json); 3] {
    [
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failures.len() as f64)),
        (
            "failures",
            Json::Arr(failures.iter().cloned().map(Json::Str).collect()),
        ),
    ]
}

/// Folds one workload's rounds of timed workers into its row.
fn end_to_end_row(workload: &str, rounds: &[Json]) -> Row {
    let pinned = rounds.iter().all(ran_pinned);
    let events = num(&rounds[0], "events");
    let concat = |key: &str| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| r.get(key).map(Json::f64s).unwrap_or_default())
            .collect()
    };
    let per_round = |key: &str| -> Vec<f64> { rounds.iter().map(|r| num(r, key)).collect() };
    let wall = concat("pass_wall_s");
    // Median host time of every cell over all passes. Not gated: one
    // cell measured four times spreads twice as wide as the pass it
    // is part of (README, "Calibration").
    let cell_names: Vec<&String> = rounds[0]
        .get("fingerprints")
        .map(|f| f.members().iter().map(|(name, _)| name).collect())
        .unwrap_or_default();
    let cell_ms: Vec<f64> = (0..cell_names.len())
        .map(|i| {
            let samples: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.get("pass_cell_ms").map(Json::items).unwrap_or_default())
                .filter_map(|pass| pass.items().get(i)?.as_f64())
                .collect();
            median(&samples)
        })
        .collect();
    let samples: BTreeMap<&str, Vec<f64>> = BTreeMap::from([
        ("events_per_s", wall.iter().map(|w| events / w).collect()),
        ("wall_s", wall),
        ("peak_rss_mb", per_round("peak_rss_mb")),
        ("setup_s", per_round("setup_s")),
    ]);

    let mut failures: Vec<String> = rounds.iter().flat_map(|r| strings(r, "failures")).collect();
    for (i, round) in rounds.iter().enumerate().skip(1) {
        for (cell, fp) in round
            .get("fingerprints")
            .map(Json::members)
            .unwrap_or_default()
        {
            // A cell that did not run has no fingerprint and is
            // already listed by its own worker.
            let first = rounds[0].get("fingerprints").and_then(|f| f.get(cell));
            if *fp != Json::Null && first.is_some_and(|f| *f != Json::Null && f != fp) {
                failures.push(format!(
                    "{cell} round {i}: simulated fingerprint differs from round 0"
                ));
            }
        }
    }
    let attempted = rounds.iter().map(|r| num(r, "attempted")).sum::<f64>() as u64;

    // Host time measured on a floating process is not comparable
    // with anything, so it is never printed under its normal name.
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let value = (pinned || m.name == "peak_rss_mb").then(|| median(&samples[m.name]));
            (m.name, value)
        })
        .collect();
    let sim_ms = num(&rounds[0], "sim_ns") / 1e6;
    let machine_speed = median(&concat("pass_speed"));
    // The slowest cell is the floor of a `--jobs` sweep's makespan.
    let slowest = cell_names
        .iter()
        .zip(&cell_ms)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(name, ms)| format!(", slowest cell {name} {ms:.1} ms"))
        .unwrap_or_default();
    let commentary = format!(
        ", sim_ms {}, events {events}, machine speed {machine_speed:.2}{slowest}",
        Json::Num(sim_ms).compact()
    );
    let detail = Json::obj(
        [
            ("pinned", Json::Bool(pinned)),
            (
                "metrics",
                Json::obj(
                    END_TO_END
                        .iter()
                        .map(|m| (m.name, summary(&samples[m.name]))),
                ),
            ),
            (
                "cell_ms",
                Json::obj(
                    cell_names
                        .iter()
                        .zip(&cell_ms)
                        .map(|(name, ms)| (name.as_str(), Json::Num(*ms))),
                ),
            ),
            // What the clock read, before scaling to nominal machine
            // speed: for the curious, never for comparison.
            (
                "raw",
                Json::obj([
                    ("machine_speed", Json::Num(machine_speed)),
                    ("wall_s", Json::Num(median(&concat("pass_raw_wall_s")))),
                    ("setup_s", Json::Num(median(&per_round("raw_setup_s")))),
                ]),
            ),
            (
                "exact",
                Json::obj([
                    ("sim_ms", Json::Num(sim_ms)),
                    ("events", Json::Num(events)),
                    (
                        "fingerprints",
                        rounds[0].get("fingerprints").cloned().unwrap_or(Json::Null),
                    ),
                ]),
            ),
        ]
        .into_iter()
        .chain(verdict_fields(attempted, &failures)),
    );
    Row {
        workload: workload.to_string(),
        metrics,
        attempted,
        failures,
        commentary,
        detail,
    }
}

/// Turns one layers worker's output (plus the unpinned syscall cost)
/// into the workload's row.
fn per_layer_row(workload: &str, worker: &Json, syscall_unpinned_ns: f64) -> Row {
    let pinned = ran_pinned(worker);
    let measured = worker.get("metrics");
    let metrics = metrics::per_layer()
        .map(|(name, unit)| {
            let value = if name == "core.conductor.syscall_unpinned_ns" {
                Some(syscall_unpinned_ns)
            } else {
                measured
                    .and_then(|m| m.get(name))
                    .and_then(Json::as_f64)
                    // Counts and simulated time do not depend on where
                    // the process ran; everything else does.
                    .filter(|_| pinned || matches!(unit, "count" | "sim_ms"))
            };
            (name, value)
        })
        .collect::<Vec<_>>();
    let failures = strings(worker, "failures");
    let attempted = num(worker, "attempted") as u64;
    let detail = Json::obj(
        [
            ("pinned", Json::Bool(pinned)),
            ("wall_s", Json::Num(num(worker, "wall_s"))),
            (
                "metrics",
                Json::obj(
                    metrics
                        .iter()
                        .map(|(k, v)| (*k, v.map_or(Json::Null, Json::Num))),
                ),
            ),
            (
                "span_self_ms",
                worker.get("span_self_ms").cloned().unwrap_or(Json::Null),
            ),
            (
                "spans_file",
                worker.get("spans_file").cloned().unwrap_or(Json::Null),
            ),
        ]
        .into_iter()
        .chain(verdict_fields(attempted, &failures)),
    );
    Row {
        workload: workload.to_string(),
        metrics,
        attempted,
        failures,
        commentary: String::new(),
        detail,
    }
}

fn measure(opts: &Opts, cpu: Option<usize>) -> Result<Vec<Row>, String> {
    let names = opts.workload_names();
    if opts.layers {
        let syscall = spawn_worker(None, "syscall", &names[0], 0.0, opts)?;
        return names
            .iter()
            .map(|w| {
                let worker = spawn_worker(cpu, "layers", w, 0.0, opts)?;
                Ok(per_layer_row(w, &worker, num(&syscall, "syscall_ns")))
            })
            .collect();
    }
    let rounds = opts.rounds();
    let mut by_workload: Vec<Vec<Json>> = vec![Vec::new(); names.len()];
    for _ in 0..rounds {
        for (i, w) in names.iter().enumerate() {
            by_workload[i].push(spawn_worker(
                cpu,
                "timed",
                w,
                opts.seconds / rounds as f64,
                opts,
            )?);
        }
    }
    Ok(names
        .iter()
        .zip(&by_workload)
        .map(|(w, rounds)| end_to_end_row(w, rounds))
        .collect())
}

/// Runs the benchmark. Returns the process exit code: 0 when every
/// cell was correct and every host-time metric was resolved.
pub fn run(opts: &Opts) -> i32 {
    let cpu = host::pin_cpu();
    if cpu.is_none() {
        eprintln!(
            "rsbench: taskset or /proc affinity unavailable; host-time metrics are unresolved"
        );
    }
    let rows = match measure(opts, cpu) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("rsbench: {e}");
            return 1;
        }
    };

    let mut resolved = true;
    for row in &rows {
        for (name, value) in &row.metrics {
            let unit = metrics::unit_of(name).expect("metric is in the tables");
            match value {
                Some(v) => println!("{} {name} {} {unit}", row.workload, Json::Num(*v).compact()),
                None => {
                    resolved = false;
                    println!("{} {name} unresolved {unit}", row.workload);
                }
            }
        }
        println!(
            "# {}: {} of {} cells correct{}",
            row.workload,
            row.attempted - row.failures.len() as u64,
            row.attempted,
            row.commentary,
        );
        for failure in &row.failures {
            println!("# FAILED {}: {failure}", row.workload);
        }
    }

    let file = Path::new(&opts.out_dir).join(if opts.layers {
        "layers.json"
    } else {
        "results.json"
    });
    let mut env = host::env_block();
    if let Json::Obj(fields) = &mut env {
        fields.extend([
            ("seed".to_string(), Json::Num(opts.seed as f64)),
            ("seconds".to_string(), Json::Num(opts.seconds)),
            ("rounds".to_string(), Json::Num(opts.rounds() as f64)),
            ("quick".to_string(), Json::Bool(opts.quick)),
            (
                "pinned_cpu".to_string(),
                cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
        ]);
    }
    let document = Json::obj([
        (
            "kind",
            Json::Str(
                if opts.layers {
                    "per_layer"
                } else {
                    "end_to_end"
                }
                .into(),
            ),
        ),
        ("env", env),
        (
            "workloads",
            Json::obj(rows.iter().map(|r| (r.workload.clone(), r.detail.clone()))),
        ),
    ]);
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&file, document.pretty()))
    {
        eprintln!("rsbench: writing {}: {e}", file.display());
        return 1;
    }
    println!("# wrote {}", file.display());

    let failed: usize = rows.iter().map(|r| r.failures.len()).sum();
    // The acceptance driver's contract: a single workload ends with
    // one JSON object as the last line of standard output. Without
    // resolved host times there is no result to report.
    if let ([row], true) = (rows.as_slice(), resolved) {
        let result = Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(row.attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            (
                "metrics",
                Json::obj(row.metrics.iter().map(|(name, value)| {
                    let unit = metrics::unit_of(name).expect("metric is in the tables");
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(value.expect("resolved"))),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })),
            ),
        ]);
        println!("{}", result.compact());
    }
    i32::from(failed > 0 || !resolved)
}

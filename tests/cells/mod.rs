//! The facade's cell harness. The paper's result is a grid of cells,
//! application × {O, P, 2T, 2TP}; every composition this repository
//! adds to that grid (loss, crash, cut, persist, fabric, adaptive) is
//! checked as rows of this one harness (DESIGN §8). The
//! `tests/*_matrix.rs` and `tests/*_radix_regression.rs` crates hold
//! the rows, one family each.
//!
//! A [`Row`] is a name, a program, a config, an optional fault aimed
//! from a fault-free dry run, and obligations: the run verifies, named
//! counter predicates hold, its exact pins match, a repeat run renders
//! the same `Debug`, a reference config's run agrees with it, and the
//! full oracle verdict is ok. A failing row writes its evidence to
//! `target/cell-artifacts/<row>.txt`; moved pins print the row's actual
//! pins, ready to paste.
//!
//! `cargo test` runs the fast tier. `RSDSM_MATRIX=fault`, `crash`,
//! `partition`, `persist` or `scaling` (or `full`) adds that matrix's
//! full grid. Every row crate uses its own subset, hence the
//! `dead_code` and `unused_macros` allows.
#![allow(dead_code, unused_macros)]

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

use crate::common::{base, fail_with_artifact, for_each_cell, test_recovery};
use rsdsm::apps::{Benchmark, HotSpot, Scale};
use rsdsm::core::{
    DirectoryConfig, DirectoryPolicy, DsmConfig, Partition, RunReport, SimError, Simulation,
    Topology, Trace, TraceEvent,
};
use rsdsm::oracle::{check_technique, Technique};
use rsdsm::simnet::{FaultPlan, NodeCrash, SimDuration, SimTime};

/// The node every crash kills and every cut strands. Node 0 hosts the
/// managers and the recovery coordinator and keeps its majority.
pub const VICTIM: usize = 2;

/// How long every cut stays open before it heals.
pub const HEAL_AFTER: SimDuration = SimDuration::from_millis(5);

/// What a row runs.
#[derive(Debug, Clone, Copy)]
pub enum Prog {
    /// A suite kernel under one of the paper's techniques.
    App(Benchmark, Scale, Technique),
    /// A task program, run by the function (never traced).
    Task(fn(DsmConfig) -> Result<RunReport, SimError>),
}

/// A run's report and, when traced, its trace.
pub type Ran = (RunReport, Option<Trace>);

impl Prog {
    fn run(self, cfg: DsmConfig, traced: bool) -> Result<Ran, SimError> {
        match self {
            Prog::App(b, s, t) if traced => b
                .run_traced(s, t.configure(b, cfg))
                .map(|(r, trace)| (r, Some(trace))),
            Prog::App(b, s, t) => b.run(s, t.configure(b, cfg)).map(|r| (r, None)),
            Prog::Task(run) => run(cfg).map(|r| (r, None)),
        }
    }
}

/// Runs `prog` once per distinct (program, config, tracing) in the
/// process: a dry run that aims several rows, a reference config that
/// several rows compare against, and the rows that pin one run's views
/// test by test share one run. A repeat obligation never comes through
/// here.
pub fn run(prog: Prog, cfg: &DsmConfig, traced: bool, row: &str) -> &'static Ran {
    static RUNS: Mutex<BTreeMap<String, &'static OnceLock<Ran>>> = Mutex::new(BTreeMap::new());
    let key = format!("{prog:?} {traced} {cfg:?}");
    let mut runs = RUNS.lock().expect("no run panics holding the table");
    let slot = *runs.entry(key).or_insert_with(|| Box::leak(Box::default()));
    drop(runs);
    let ran = || prog.run(cfg.clone(), traced);
    slot.get_or_init(|| ran().unwrap_or_else(|e| panic!("{row}: {e}")))
}

/// A fault a row injects.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// [`VICTIM`] crashes, and restarts after the outage if one is given.
    Crash(Option<SimDuration>),
    /// [`VICTIM`] is cut away for [`HEAL_AFTER`]: both ways, or, when
    /// `asym`, only from sending (it still hears the majority — the
    /// classic false-suspicion trap).
    Cut { asym: bool },
}

/// Where a row's fault lands.
#[derive(Debug, Clone, Copy)]
pub enum Aim {
    At(SimTime),
    /// At `num / den` of a fault-free dry run's completion time.
    Frac(u64, u64),
    /// On the first checkpoint capture past a quarter of a traced dry
    /// run, or half-way when no capture comes that late.
    Checkpoint,
}

/// A named fault and its aim: one shape of an aimed-fault grid.
pub type Shape = (&'static str, Fault, Aim);

/// `num / den` of the way through a run that took `total`.
pub fn frac(total: SimDuration, num: u64, den: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(total.as_nanos() * num / den)
}

/// Counter predicates on a run (`|r| ...`), or on a run and its trace
/// when the row is traced (`|r, trace| ...`), each labelled with its
/// own source (`#[macro_use] mod cells;` brings it into a row crate).
macro_rules! holds {
    (|$r:ident| $($e:expr),+ $(,)?) => { holds!(|$r, _trace| $($e),+) };
    (|$r:ident, $t:ident| $($e:expr),+ $(,)?) => {{
        use rsdsm::core::{RunReport, Trace};
        type Ran = (RunReport, Option<Trace>);
        vec![$((stringify!($e), (|($r, $t): &Ran| $e) as fn(&Ran) -> bool)),+]
    }};
}

/// A predicate on a run and its label.
pub type Holds = (&'static str, fn(&Ran) -> bool);

/// What a pinned `view` of a run renders as: `digest`, `events`,
/// `summary`, `trace` (digest, records), `retries` (per traced link:
/// src->dst, retries, first..last ns, largest RTO ns), or a counter
/// block with its zero counters left out (zeros are pinned too).
fn view((r, trace): &Ran, view: &str) -> String {
    let block: &dyn Debug = match view {
        "digest" => return format!("{:#x}", r.digest()),
        "events" => return r.events_processed.to_string(),
        "summary" => return summary(r),
        "trace" => {
            let t = trace.as_ref().expect("a traced row");
            return format!("{:#x}, {} records", t.digest(), t.len());
        }
        "retries" => {
            let metrics = trace.as_ref().map(Trace::metrics);
            let links = metrics.iter().flat_map(|m| &m.retry_links).map(|l| {
                let (first, last) = (l.first.as_nanos(), l.last.as_nanos());
                let rto = l.max_rto.as_nanos();
                format!("{}->{} {} {first}..{last} {rto}", l.src, l.dst, l.retries)
            });
            return links.collect::<Vec<_>>().join(", ");
        }
        "transport" => &r.transport,
        "faults" => &r.fault_injection,
        "recovery" => &r.recovery,
        "directory" => &r.directory,
        "prefetch" => &r.prefetch,
        "adaptive" => &r.adaptive,
        _ => panic!("no view named {view:?}"),
    };
    let text = format!("{block:?}");
    let (_, counters) = text.split_once(" { ").expect("a counter block");
    let counters = counters.trim_end_matches(')').trim_end_matches(" }");
    let zero = |c: &&str| c.ends_with(": 0") || c.ends_with("(0)");
    let nonzero: Vec<_> = counters.split(", ").filter(|c| !zero(c)).collect();
    nonzero.join(", ")
}

/// Holds `ran` to `pins`, one `view: value` line each: panics naming
/// the row and every moved view (down to the first moved counter),
/// with the row's actual pins ready to paste after DESIGN §8's check.
fn assert_pins(row: &str, pins: &str, ran: &Ran) {
    let (mut moved, mut actual) = (Vec::new(), String::new());
    for (view_name, want) in pins.lines().filter_map(|l| l.trim().split_once(": ")) {
        let got = view(ran, view_name);
        if got != want {
            let parted = want.split(", ").zip(got.split(", ")).find(|(w, g)| w != g);
            let counter = parted.and_then(|(w, _)| w.split_once(": "));
            let counter = counter.filter(|(c, _)| !c.contains(' '));
            moved.push(counter.map_or(view_name.to_string(), |(c, _)| format!("{view_name}.{c}")));
        }
        actual += &format!("\n            {view_name}: {got}");
    }
    let moved = moved.join(", ");
    let paste = format!("pins: \"{actual}\",");
    assert!(moved.is_empty(), "{row}: pinned {moved} moved:\n{paste}");
}

/// Runs `obligations`; if one fails, writes the failure, the summary
/// line and the full report to `target/cell-artifacts/<row>.txt` (CI
/// uploads the directory) and fails with it.
fn with_evidence(row: &str, report: Option<&RunReport>, obligations: impl FnOnce()) {
    let Err(panic) = catch_unwind(AssertUnwindSafe(obligations)) else {
        return;
    };
    let failed = format!("{row}: an obligation failed");
    let msg = panic.downcast_ref::<String>().unwrap_or(&failed);
    let report = report.map_or(String::new(), |r| format!("{}\n\n{r:#?}", summary(r)));
    let (file, body) = (format!("{row}.txt"), format!("{msg}\n\n{report}\n"));
    fail_with_artifact("cell-artifacts", &file, &body, msg)
}

/// One cell: a program, its config, an optional fault aimed from a
/// fault-free dry run, and the obligations its run must meet.
#[derive(Clone)]
pub struct Row {
    pub name: String,
    pub prog: Prog,
    pub cfg: DsmConfig,
    pub fault: Option<(Fault, Aim)>,
    pub traced: bool,
    pub holds: Vec<Holds>,
    /// Exact values, one `view: value` line each (see [`view`]).
    pub pins: &'static str,
    /// A second, fresh run renders the same `Debug` and trace digest.
    /// A pin is only as good as the run's determinism, so every pinned
    /// config has a row that repeats it.
    pub repeat: bool,
    /// A run of this config agrees with the row's, seen through this view.
    pub same_as: Option<(DsmConfig, View)>,
    /// The full oracle verdict (`check_technique`) is ok.
    pub oracle: bool,
}

impl Row {
    pub fn new(name: impl Into<String>, prog: Prog, cfg: DsmConfig) -> Row {
        Row {
            name: name.into(),
            prog,
            cfg,
            fault: None,
            traced: false,
            holds: Vec::new(),
            pins: "",
            repeat: false,
            same_as: None,
            oracle: false,
        }
    }

    /// A suite kernel at `Scale::Test` under the original protocol.
    pub fn app(name: impl Into<String>, bench: Benchmark, cfg: DsmConfig) -> Row {
        Row::new(name, Prog::App(bench, Scale::Test, Technique::Base), cfg)
    }

    /// The row with its repeat obligation on.
    pub fn repeated(self) -> Row {
        Row {
            repeat: true,
            ..self
        }
    }

    /// The config the row runs: its own, with its fault injected at the
    /// aimed instant.
    pub fn armed(&self) -> DsmConfig {
        let mut cfg = self.cfg.clone();
        let Some((fault, aim)) = self.fault else {
            return cfg;
        };
        let dry = |traced| run(self.prog, &self.cfg, traced, &self.name);
        let at = match aim {
            Aim::At(at) => at,
            Aim::Frac(num, den) => frac(dry(false).0.total_time, num, den),
            Aim::Checkpoint => {
                let (report, trace) = dry(true);
                let quarter = frac(report.total_time, 1, 4);
                let mut captures = trace.iter().flat_map(|t| &t.records).filter(|r| {
                    matches!(r.event, TraceEvent::CheckpointTaken { .. }) && r.at >= quarter
                });
                let first = captures.next().map(|r| r.at);
                first.unwrap_or(frac(report.total_time, 1, 2))
            }
        };
        let (node, cut) = (VICTIM, Partition::cut(vec![vec![VICTIM]], at, HEAL_AFTER));
        cfg.faults = match fault {
            Fault::Crash(restart_after) => {
                let crash = NodeCrash {
                    node,
                    at,
                    restart_after,
                };
                cfg.faults.with_node_crash(crash)
            }
            Fault::Cut { asym } => cfg.faults.with_partition(Partition { asym, ..cut }),
        };
        cfg
    }

    /// Runs the row and discharges its obligations.
    pub fn check(self) {
        let (name, cfg) = (&self.name, self.armed());
        // The oracle runs the program itself: a row that asks for
        // nothing else skips a run of its own.
        let own_run = !self.oracle || !self.holds.is_empty() || !self.pins.is_empty();
        let own_run = own_run || self.repeat || self.same_as.is_some();
        let ran = own_run.then(|| run(self.prog, &cfg, self.traced, name));
        with_evidence(name, ran.map(|(r, _)| r), || {
            if let Some(ran @ (r, trace)) = ran {
                assert!(r.verified, "{name}: result corrupted");
                for (what, holds) in &self.holds {
                    assert!(holds(ran), "{name}: {what} does not hold");
                }
                assert_pins(name, self.pins, ran);
                if self.repeat {
                    let again = self.prog.run(cfg.clone(), self.traced).unwrap();
                    assert_eq!(debug(r), debug(&again.0), "{name}: runs diverged");
                    let digests = [trace, &again.1].map(|t| t.as_ref().map(Trace::digest));
                    assert_eq!(digests[0], digests[1], "{name}: traces diverged");
                }
                if let Some((other, view)) = &self.same_as {
                    let (other, _) = run(self.prog, other, false, name);
                    assert_eq!(view(r), view(other), "{name}: disagrees with its reference");
                }
            }
            if self.oracle {
                let Prog::App(bench, scale, technique) = self.prog else {
                    panic!("{name}: the oracle replays suite kernels only");
                };
                let verdict = check_technique(bench, scale, technique, cfg.clone())
                    .unwrap_or_else(|e| panic!("{name}: oracle run: {e:?}"));
                assert!(verdict.ok(), "{name}: {}", verdict.summary_line());
            }
        });
    }
}

/// How [`Row::same_as`] compares two runs: by their whole `Debug`
/// rendering, or by the results digest (which leaves config and trace
/// out).
pub type View = fn(&RunReport) -> String;

pub fn debug(r: &RunReport) -> String {
    format!("{r:?}")
}

pub fn digest(r: &RunReport) -> String {
    format!("{:#x}", r.digest())
}

pub fn summary(r: &RunReport) -> String {
    r.fault_summary_line().unwrap_or_default()
}

/// The 4-node cluster under `plan`.
pub fn faulty(plan: FaultPlan) -> DsmConfig {
    base(4).with_faults(plan)
}

/// The 4-node cluster with recovery sized for `Scale::Test` runs.
pub fn recovering() -> DsmConfig {
    base(4).with_recovery(test_recovery(2))
}

/// The cells of an aimed-fault grid: each application of `benches`
/// under each technique and each shape, each under `holds` and the full
/// oracle obligation.
pub fn aimed_grid(
    matrix: &str,
    benches: &[Benchmark],
    techniques: &[Technique],
    shapes: &[Shape],
    holds: &[Holds],
) {
    let mut rows = Vec::new();
    for &bench in benches {
        for &technique in techniques {
            for &(shape, fault, aim) in shapes {
                let name = format!("{matrix}_{bench}_{}_{shape}", technique.label());
                let prog = Prog::App(bench, Scale::Test, technique);
                rows.push(Row {
                    fault: Some((fault, aim)),
                    holds: holds.to_vec(),
                    oracle: true,
                    ..Row::new(name, prog, recovering())
                });
            }
        }
    }
    for_each_cell(rows, Row::check);
}

/// The hot-spot micro-program on `cfg`.
pub fn hot_spot(cfg: DsmConfig) -> Result<RunReport, SimError> {
    Simulation::new(cfg).run(&HotSpot)
}

/// The scaling suite's fabric: racks of 8, two spines, 4:1
/// oversubscription.
pub fn fabric() -> Topology {
    Topology::rack_spine(8, 2, 4)
}

/// `nodes` on the fabric with homes sharded by hash.
pub fn on_fabric(nodes: usize) -> DsmConfig {
    let cfg = base(nodes).with_topology(fabric());
    cfg.with_directory(DirectoryConfig::on(DirectoryPolicy::Hash))
}

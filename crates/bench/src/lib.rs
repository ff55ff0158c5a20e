//! # rsdsm-bench
//!
//! The experiment harness that regenerates every figure and table of
//! the HPCA-4 1998 paper and the studies beyond it. Its eleven
//! binaries: `fig1` … `fig5`, `table1` and `table2` print the paper's
//! figures and tables; `ablations` the design choices the paper
//! discusses but does not plot; `prefetch` the static / history /
//! adaptive prefetching head-to-head; `scaling` the 64–1024-node
//! scale-out suite; `perf` the in-process speedup ratios against their
//! references.
//!
//! Every binary but `perf` describes its runs as [`Cell`]s — a label, a
//! [`Program`] and a configuration — and runs them through the one
//! [`sweep`]. This library holds that sweep, the shared command-line
//! plumbing and the one [`json`] writer of the `BENCH_*.json` files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod diff_shapes;
pub mod json;
pub mod pool;
pub mod queue_replay;

use std::fmt::Write as _;

use rsdsm_apps::{Benchmark, HotSpot, Incast, Scale};
use rsdsm_core::{
    DsmConfig, DsmTask, FaultPlan, NodeCrash, Partition, PersistConfig, PrefetchConfig,
    RecoveryConfig, RunReport, SimError, Simulation, ThreadConfig, Trace, TraceMetrics,
};
use rsdsm_simnet::{SimDuration, SimTime};
use rsdsm_stats::{chrome_trace_json, render_bars, Align, AsciiTable, Bar};

/// Shared command-line options for the experiment binaries.
///
/// Usage: `[--paper-scale|--test-scale] [--nodes N] [--app NAME]... [--seed S]
/// [--fault-loss P] [--fault-crash NODE@MS[:restart=MS]]...
/// [--fault-partition GROUPS@MS:heal=MS[:asym]]...
/// [--checkpoint-every N] [--trace OUT] [--trace-metrics]`
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Problem scale for all runs.
    pub scale: Scale,
    /// Cluster size (the paper uses 8).
    pub nodes: usize,
    /// Benchmarks to run (defaults to all eight).
    pub apps: Vec<Benchmark>,
    /// Seed for deterministic runs.
    pub seed: u64,
    /// Uniform message-loss probability injected into every run
    /// (0 disables fault injection; the default).
    pub fault_loss: f64,
    /// Scheduled node crashes (`--fault-crash`). Any crash enables
    /// recovery for the run.
    pub crashes: Vec<NodeCrash>,
    /// Scheduled network partitions (`--fault-partition`). Any
    /// partition enables recovery for the run (the quorum rule and
    /// checkpoint-based rejoin live there).
    pub partitions: Vec<Partition>,
    /// Checkpoint cadence in barrier epochs (`--checkpoint-every`;
    /// 0 disables checkpointing).
    pub checkpoint_every: u32,
    /// Persist checkpoints to the modeled per-node durable device
    /// through the two-slot commit protocol (`--persist`). Requires a
    /// checkpoint cadence.
    pub persist: bool,
    /// Device write bandwidth in MB/s (`--persist-bw`; read bandwidth
    /// is modeled at twice this). `0` keeps the default.
    pub persist_bw: u64,
    /// Device fence latency in microseconds (`--fence-us`). `0` keeps
    /// the default.
    pub fence_us: u64,
    /// Chrome trace-event JSON output path (`--trace`). Each traced
    /// run writes a per-run `OUT-APP-LABEL.json` next to it, plus
    /// the exact `OUT` path (last run wins), so a single-run sweep
    /// leaves its trace exactly where asked.
    pub trace_out: Option<String>,
    /// Print trace-derived metrics per run (`--trace-metrics`).
    pub trace_metrics: bool,
    /// Worker threads for independent simulation cells (`--jobs`;
    /// default: all available cores). Results and printed output are
    /// bit-identical at any value — only wall-clock changes.
    pub jobs: usize,
    /// Benchmark-JSON output path (`--bench-json`), taken by the
    /// `perf`, `prefetch` and `scaling` binaries only.
    pub bench_json: Option<String>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            scale: Scale::Default,
            nodes: 8,
            apps: Benchmark::ALL.to_vec(),
            seed: 1998,
            fault_loss: 0.0,
            crashes: Vec::new(),
            partitions: Vec::new(),
            checkpoint_every: 0,
            persist: false,
            persist_bw: 0,
            fence_us: 0,
            trace_out: None,
            trace_metrics: false,
            jobs: pool::default_jobs(),
            bench_json: None,
        }
    }
}

impl ExpOpts {
    /// Parses `std::env::args` for a figure or table binary, exiting
    /// with a usage message on error.
    pub fn from_args() -> Self {
        let opts = ExpOpts::parse(ExpOpts::default(), USAGE, |_, _| Ok(false));
        if (opts.persist_bw > 0 || opts.fence_us > 0) && !opts.persist {
            usage_exit(USAGE, "--persist-bw/--fence-us need --persist");
        }
        // Flag combinations the engine would refuse (a crash or
        // --persist without a checkpoint cadence, a cut that strands
        // the manager, a node outside the cluster, ...) are usage
        // errors here, in the engine's own words.
        if let Err(err) = opts.base_config().validate() {
            usage_exit(USAGE, &err.to_string());
        }
        opts
    }

    /// Parses `std::env::args` on top of `start`, the binary's own
    /// defaults: the one parser of the shared flags, for every binary.
    /// `usage` is the binary's usage text (what follows `usage: `) and
    /// is also what it accepts: a flag the text does not mention is
    /// rejected, so a binary takes exactly the shared flags it
    /// documents. Flags that are not shared go to `extra` with the
    /// argument stream, which returns whether the flag was its own
    /// (`Ok(false)` and `Err` are usage errors). Exits with `usage` on
    /// error and on `--help`.
    pub fn parse(
        start: ExpOpts,
        usage: &str,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
    ) -> Self {
        let mut opts = start;
        let mut apps = Vec::new();
        let mut args = std::env::args().skip(1);
        let fail = |err: &str| -> ! { usage_exit(usage, err) };
        let documented = |flag: &str| {
            usage
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .any(|word| word == flag)
        };
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                fail("");
            }
            if !documented(&arg) {
                fail(&format!("unknown option {arg}"));
            }
            match arg.as_str() {
                "--paper-scale" => opts.scale = Scale::Paper,
                "--test-scale" => opts.scale = Scale::Test,
                "--nodes" => {
                    opts.nodes = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| fail("--nodes needs a positive number"));
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--seed needs a number"));
                }
                "--fault-loss" => {
                    opts.fault_loss = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|p: &f64| (0.0..1.0).contains(p))
                        .unwrap_or_else(|| fail("--fault-loss needs a probability in [0, 1)"));
                }
                "--fault-crash" => {
                    let spec = args
                        .next()
                        .unwrap_or_else(|| fail("--fault-crash needs NODE@MS[:restart=MS]"));
                    match parse_crash(&spec) {
                        Some(crash) => opts.crashes.push(crash),
                        None => fail(&format!(
                            "bad crash spec {spec:?}; expected NODE@MS[:restart=MS]"
                        )),
                    }
                }
                "--fault-partition" => {
                    let spec = args.next().unwrap_or_else(|| {
                        fail("--fault-partition needs GROUPS@MS:heal=MS[:asym]")
                    });
                    match parse_partition(&spec) {
                        Some(p) => opts.partitions.push(p),
                        None => fail(&format!(
                            "bad partition spec {spec:?}; expected GROUPS@MS:heal=MS[:asym] \
                             (groups `|`-separated, nodes comma-separated, e.g. 2@5:heal=10)"
                        )),
                    }
                }
                "--checkpoint-every" => {
                    opts.checkpoint_every = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--checkpoint-every needs a number of epochs"));
                }
                "--persist" => opts.persist = true,
                "--persist-bw" => {
                    opts.persist_bw = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&bw: &u64| bw > 0)
                        .unwrap_or_else(|| fail("--persist-bw needs a bandwidth in MB/s"));
                }
                "--fence-us" => {
                    opts.fence_us = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&us: &u64| us > 0)
                        .unwrap_or_else(|| fail("--fence-us needs a latency in microseconds"));
                }
                "--trace" => {
                    opts.trace_out =
                        Some(args.next().unwrap_or_else(|| fail("--trace needs a path")));
                }
                "--trace-metrics" => opts.trace_metrics = true,
                "--jobs" => {
                    opts.jobs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .map(|n: usize| if n == 0 { pool::default_jobs() } else { n })
                        .unwrap_or_else(|| fail("--jobs needs a number"));
                }
                "--bench-json" => {
                    opts.bench_json = Some(
                        args.next()
                            .unwrap_or_else(|| fail("--bench-json needs a path")),
                    );
                }
                "--app" => {
                    let name = args.next().unwrap_or_else(|| fail("--app needs a name"));
                    match Benchmark::from_name(&name) {
                        Some(b) => apps.push(b),
                        None => fail(&format!("unknown app {name}")),
                    }
                }
                other => match extra(other, &mut args) {
                    Ok(true) => {}
                    Ok(false) => fail(&format!("unknown option {other}")),
                    Err(err) => fail(&err),
                },
            }
        }
        if !apps.is_empty() {
            opts.apps = apps;
        }
        opts
    }

    /// The standard sweep: every app in the options × `variants`,
    /// app-major.
    pub fn matrix(&self, variants: &[Variant]) -> Vec<Cell> {
        self.apps
            .iter()
            .flat_map(|&bench| variants.iter().map(move |&v| Cell::variant(bench, v, self)))
            .collect()
    }

    /// The baseline configuration for these options.
    pub fn base_config(&self) -> DsmConfig {
        let mut cfg = DsmConfig::paper_cluster(self.nodes).with_seed(self.seed);
        if self.fault_loss > 0.0 {
            // Derive the plan seed from the run seed so `--seed` alone
            // pins the whole experiment, faults included.
            cfg = cfg.with_faults(FaultPlan::uniform_loss(self.seed ^ 0xfa17, self.fault_loss));
        }
        for &crash in &self.crashes {
            cfg.faults = cfg.faults.with_node_crash(crash);
        }
        for p in &self.partitions {
            cfg.faults = cfg.faults.with_partition(p.clone());
        }
        let faulted = !self.crashes.is_empty() || !self.partitions.is_empty();
        if faulted || self.checkpoint_every > 0 {
            // Crashes and partitions need the failure detector and
            // restart/rejoin machinery; a bare --checkpoint-every
            // measures checkpoint overhead without them (detection
            // stays off so the run's timeline is untouched).
            cfg = cfg.with_recovery(RecoveryConfig {
                enabled: faulted,
                checkpoint_every: self.checkpoint_every,
                ..RecoveryConfig::off()
            });
        }
        if self.persist {
            let mut dev = PersistConfig {
                enabled: true,
                ..PersistConfig::off()
            };
            if self.persist_bw > 0 {
                // MB/s is numerically bytes/us, the device's unit.
                dev.write_bw = self.persist_bw;
                dev.read_bw = self.persist_bw * 2;
            }
            if self.fence_us > 0 {
                dev.fence_latency = SimDuration::from_micros(self.fence_us);
            }
            cfg.recovery.persist = dev;
        }
        cfg
    }
}

/// Parses a `--fault-crash` spec: `NODE@MS` (crash-stop) or
/// `NODE@MS:restart=MS` (crash-restart), times in simulated
/// milliseconds.
fn parse_crash(spec: &str) -> Option<NodeCrash> {
    let (head, restart) = match spec.split_once(":restart=") {
        Some((head, rest)) => (head, Some(rest)),
        None => (spec, None),
    };
    let (node, at_ms) = head.split_once('@')?;
    let node: usize = node.parse().ok()?;
    let at_ms: u64 = at_ms.parse().ok()?;
    let restart_after = match restart {
        Some(ms) => Some(SimDuration::from_millis(ms.parse().ok()?)),
        None => None,
    };
    Some(NodeCrash {
        node,
        at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        restart_after,
    })
}

/// Parses a `--fault-partition` spec: `GROUPS@MS:heal=MS[:asym]`,
/// where `GROUPS` is `|`-separated groups of comma-separated node
/// ids (unlisted nodes form the implicit final group), `@MS` is the
/// cut instant and `:heal=MS` the cut duration, both in simulated
/// milliseconds. `:asym` makes the cut one-way (earlier-listed groups
/// cannot reach later ones; the reverse direction still delivers).
fn parse_partition(spec: &str) -> Option<Partition> {
    let (groups_str, rest) = spec.split_once('@')?;
    let mut groups = Vec::new();
    for group in groups_str.split('|') {
        let nodes: Vec<usize> = group
            .split(',')
            .map(|n| n.parse().ok())
            .collect::<Option<_>>()?;
        if nodes.is_empty() {
            return None;
        }
        groups.push(nodes);
    }
    let mut tail = rest.split(':');
    let at_ms: u64 = tail.next()?.parse().ok()?;
    let mut heal_ms = None;
    let mut asym = false;
    for token in tail {
        if let Some(ms) = token.strip_prefix("heal=") {
            heal_ms = Some(ms.parse().ok()?);
        } else if token == "asym" {
            asym = true;
        } else {
            return None;
        }
    }
    Some(Partition {
        groups,
        at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        heal_after: SimDuration::from_millis(heal_ms?),
        asym,
    })
}

/// Usage text of the figure and table binaries.
const USAGE: &str =
    "<experiment> [--paper-scale|--test-scale] [--nodes N] [--app NAME]... [--seed S] \
         [--fault-loss P] [--fault-crash NODE@MS[:restart=MS]]... [--checkpoint-every N]\n\
         \x20             [--fault-partition GROUPS@MS:heal=MS[:asym]]...\n\
         \x20             [--persist] [--persist-bw MBPS] [--fence-us US]\n\
         \x20             [--trace OUT] [--trace-metrics] [--jobs N]\n\
         \n\
         --jobs N        run independent simulation cells on N worker threads\n\
         \x20               (default: all cores; results are bit-identical at any N)\n\
         --fault-crash   crash NODE at MS simulated milliseconds; with :restart=MS the\n\
         \x20               node reboots after that outage (crash-restart), otherwise a\n\
         \x20               replacement rejoins from its last checkpoint (crash-stop).\n\
         \x20               Repeatable. Enables lease-based failure detection and recovery.\n\
         --fault-partition   cut the network into GROUPS (`|`-separated groups of\n\
         \x20               comma-separated node ids; unlisted nodes form the final\n\
         \x20               group) at MS, healing after :heal=MS. With :asym the cut is\n\
         \x20               one-way. The manager-side component must keep a strict\n\
         \x20               majority; minority nodes freeze and rejoin from their last\n\
         \x20               checkpoint at heal. Repeatable; enables recovery.\n\
         --checkpoint-every   take a barrier-aligned checkpoint every N barrier epochs\n\
         --persist       write each checkpoint to a modeled per-node durable device\n\
         \x20               through a two-slot commit protocol; crashed nodes recover\n\
         \x20               from the newest committed slot (needs --checkpoint-every)\n\
         --persist-bw    device write bandwidth in MB/s (reads are modeled at 2x);\n\
         \x20               default 200\n\
         --fence-us      device fence latency in microseconds; default 5\n\
         --trace OUT     record every simulated event and write a Chrome trace-event\n\
         \x20               JSON (Perfetto-loadable) per run; tracing never changes the\n\
         \x20               run itself (same events, same digest)\n\
         --trace-metrics   print trace-derived metrics per run (per-class message\n\
         \x20               latency, fault service time, retry timelines, prefetch\n\
         \x20               coverage/accuracy/lateness)";

/// Prints `err` (when there is one) and the usage text, then exits:
/// status 2 for an error, 0 for a plain `--help`.
fn usage_exit(usage: &str, err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: {usage}");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The experiment variants of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Unmodified TreadMarks ("O").
    Original,
    /// With prefetching ("P"), compiler-style for FFT and LU-NCONT.
    Prefetch,
    /// History-based automatic prefetching ("H", Bianchini-style).
    History,
    /// Online adaptive stride prefetching ("A"), annotations ignored.
    Adaptive,
    /// Adaptive detection plus the static annotations ("A+P").
    AdaptiveStatic,
    /// Multithreading with n threads/processor ("nT").
    Threads(usize),
    /// Combined: n threads for sync latency + prefetching ("nTP").
    Combined(usize),
}

impl Variant {
    /// The paper's bar label.
    pub fn label(self) -> String {
        match self {
            Variant::Original => "O".into(),
            Variant::Prefetch => "P".into(),
            Variant::History => "H".into(),
            Variant::Adaptive => "A".into(),
            Variant::AdaptiveStatic => "A+P".into(),
            Variant::Threads(n) => format!("{n}T"),
            Variant::Combined(n) => format!("{n}TP"),
        }
    }

    /// Builds the configuration for `bench` under these options.
    pub fn config(self, bench: Benchmark, opts: &ExpOpts) -> DsmConfig {
        self.config_on(bench, opts.base_config())
    }

    /// Layers this variant's technique onto an arbitrary base config
    /// (a faulted, fabric, or otherwise specialized baseline).
    pub fn config_on(self, bench: Benchmark, base: DsmConfig) -> DsmConfig {
        match self {
            Variant::Original => base,
            Variant::Prefetch => base.with_prefetch(bench.paper_prefetch()),
            Variant::History => base.with_prefetch(PrefetchConfig::automatic()),
            Variant::Adaptive => base.with_prefetch(PrefetchConfig::adaptive()),
            Variant::AdaptiveStatic => base.with_prefetch(PrefetchConfig {
                // The static half keeps the paper's per-app insertion
                // style (compiler-inserted for FFT and LU-NCONT).
                compiler_style: bench.uses_compiler_prefetch(),
                ..PrefetchConfig::adaptive_static()
            }),
            Variant::Threads(n) => base.with_threads(ThreadConfig::multithreaded(n)),
            Variant::Combined(n) => base
                .with_threads(ThreadConfig::combined(n))
                .with_prefetch(bench.combined_prefetch()),
        }
    }
}

/// What a cell runs: one of the paper's applications at a problem
/// scale, or one of the scale-out micro-programs.
#[derive(Debug, Clone, Copy)]
pub enum Program {
    /// A suite kernel at a problem scale.
    Kernel(Benchmark, Scale),
    /// The directory hot-spot micro-program.
    HotSpot,
    /// The incast micro-program.
    Incast(Incast),
}

impl Program {
    /// The name a cell's output lines and trace files start with.
    fn name(&self) -> &'static str {
        match self {
            Program::Kernel(bench, _) => bench.name(),
            Program::HotSpot => "hotspot",
            Program::Incast(_) => "incast",
        }
    }

    /// Runs the program under `cfg`, recording its event trace when
    /// `traced` (a traced run simulates exactly what an untraced one
    /// does).
    fn run(&self, cfg: DsmConfig, traced: bool) -> Outcome {
        fn micro<P: DsmTask>(app: &P, cfg: DsmConfig, traced: bool) -> Outcome {
            let sim = Simulation::new(cfg);
            if traced {
                sim.run_traced(app).map(|(r, t)| (r, Some(t)))
            } else {
                sim.run(app).map(|r| (r, None))
            }
        }
        match *self {
            Program::Kernel(bench, scale) if traced => {
                bench.run_traced(scale, cfg).map(|(r, t)| (r, Some(t)))
            }
            Program::Kernel(bench, scale) => bench.run(scale, cfg).map(|r| (r, None)),
            Program::HotSpot => micro(&HotSpot, cfg, traced),
            Program::Incast(incast) => micro(&incast, cfg, traced),
        }
    }
}

/// A run's report, and its event trace when it was traced.
type Outcome = Result<(RunReport, Option<Trace>), SimError>;

/// One simulation of an experiment: a label, a program and the
/// configuration it runs under. Its output lines read
/// `PROGRAM [LABEL] ...` and its trace file is `OUT-PROGRAM-LABEL.json`.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell's label: the paper's bar label for a variant cell.
    pub label: String,
    /// What runs.
    pub program: Program,
    /// The configuration it runs under.
    pub config: DsmConfig,
}

impl Cell {
    /// `bench` at the options' scale under `variant` layered onto the
    /// options' base configuration.
    pub fn variant(bench: Benchmark, variant: Variant, opts: &ExpOpts) -> Cell {
        Cell {
            label: variant.label(),
            program: Program::Kernel(bench, opts.scale),
            config: variant.config(bench, opts),
        }
    }

    /// This cell with one setting changed, labelled `LABEL-what`.
    pub fn tweaked(mut self, what: &str, change: impl FnOnce(&mut DsmConfig)) -> Cell {
        change(&mut self.config);
        self.label = format!("{}-{what}", self.label);
        self
    }

    /// The one place a cell runs: panics with the cell's name when the
    /// run fails or its result is wrong.
    fn run(self, traced: bool) -> Ran {
        let (app, label, nodes) = (self.program.name(), self.label, self.config.nodes);
        let (report, trace) = self
            .program
            .run(self.config, traced)
            .unwrap_or_else(|e| panic!("{app} [{label}] on {nodes} nodes failed: {e}"));
        assert!(report.verified, "{app} [{label}] produced a wrong result");
        Ran {
            app,
            label,
            report,
            trace,
        }
    }
}

/// A finished cell, waiting to be consumed.
struct Ran {
    app: &'static str,
    label: String,
    report: RunReport,
    trace: Option<Trace>,
}

/// Runs `cells` across `opts.jobs` worker threads ([`pool::run`]) —
/// traced when the options ask for a trace file or trace metrics — and
/// hands their reports back in list order through [`Sweep::take`].
pub fn sweep(opts: &ExpOpts, cells: Vec<Cell>) -> Sweep<'_> {
    let traced = opts.trace_out.is_some() || opts.trace_metrics;
    let tasks: Vec<_> = cells
        .into_iter()
        .map(|cell| move || cell.run(traced))
        .collect();
    Sweep {
        opts,
        runs: pool::run(opts.jobs, tasks).into_iter(),
    }
}

/// The finished cells of one [`sweep`], consumed in list order.
pub struct Sweep<'a> {
    opts: &'a ExpOpts,
    runs: std::vec::IntoIter<Ran>,
}

impl Sweep<'_> {
    /// The next cell's report, after printing what [`Sweep::render`]
    /// renders for it.
    pub fn take(&mut self) -> RunReport {
        let mut out = String::new();
        let report = self.render(&mut out);
        print!("{out}");
        report
    }

    /// The next cell's report. Its trace files are written and its
    /// trace line, trace-metrics block and fault summary (whichever
    /// the options ask for) rendered into `out` now, as the binary
    /// consumes the report, so what a binary prints and writes is the
    /// same at any `--jobs`.
    pub fn render(&mut self, out: &mut String) -> RunReport {
        let ran = self.runs.next().expect("one report per cell");
        ran.emit(self.opts, out);
        ran.report
    }

    /// Every remaining report, in list order, each taken as by
    /// [`Sweep::take`].
    pub fn reports(mut self) -> Vec<RunReport> {
        (0..self.runs.len()).map(|_| self.take()).collect()
    }
}

impl Ran {
    /// Writes the cell's trace files and renders its lines into `out`.
    fn emit(&self, opts: &ExpOpts, out: &mut String) {
        let (app, label, report) = (self.app, &self.label, &self.report);
        if let (Some(path), Some(trace)) = (&opts.trace_out, &self.trace) {
            let json = chrome_trace_json(trace);
            // `OUT-APP-LABEL.json` (the extension kept when `OUT` has
            // one), then `OUT` itself: the last run wins it.
            let suffix = format!("-{app}-{label}");
            let per_run = match path.rsplit_once('.') {
                Some((stem, ext)) if !stem.is_empty() => format!("{stem}{suffix}.{ext}"),
                _ => format!("{path}{suffix}"),
            };
            for p in [per_run.as_str(), path.as_str()] {
                std::fs::write(p, &json).unwrap_or_else(|e| panic!("writing trace {p}: {e}"));
            }
            let _ = writeln!(
                out,
                "  {app} [{label}] trace: {} events, digest {:016x} -> {per_run}",
                trace.len(),
                trace.digest(),
            );
        }
        if let (true, Some(trace)) = (opts.trace_metrics, &self.trace) {
            render_trace_metrics(&format!("{app} [{label}]"), &trace.metrics(), out);
        }
        if opts.fault_loss > 0.0
            || !opts.crashes.is_empty()
            || !opts.partitions.is_empty()
            || opts.checkpoint_every > 0
        {
            let line = report.fault_summary_line();
            let line = line.as_deref().unwrap_or("faults: none observed");
            let _ = writeln!(out, "  {app} [{label}] {line}");
        }
    }
}

/// Renders the trace-derived metrics block of one traced run.
fn render_trace_metrics(name: &str, m: &TraceMetrics, out: &mut String) {
    let _ = writeln!(out, "  {name} trace metrics: {} events", m.events);
    for (kind, h) in &m.msg_latency {
        let _ = writeln!(
            out,
            "    msg {kind:<16} {:>6} msgs  mean {:>9.1} ns  min {} max {}",
            h.count(),
            h.mean(),
            h.min(),
            h.max(),
        );
    }
    if m.fault_service.count() > 0 {
        let _ = writeln!(
            out,
            "    fault service    {:>6} faults mean {:>9.1} ns  min {} max {}",
            m.fault_service.count(),
            m.fault_service.mean(),
            m.fault_service.min(),
            m.fault_service.max(),
        );
    }
    for l in &m.retry_links {
        let _ = writeln!(
            out,
            "    retries n{}->n{}  {} retransmissions between {} and {} (max rto {})",
            l.src, l.dst, l.retries, l.first, l.last, l.max_rto,
        );
    }
    let p = &m.prefetch;
    if m.prefetch_issued > 0 || p.covered() + p.no_pf > 0 {
        let _ = writeln!(
            out,
            "    prefetch         {} issued; coverage {:.1}%  accuracy {:.1}%  lateness {:.1}%  \
             ({} hit / {} late / {} invalidated / {} no-pf; {} reqs lost, {} replies lost)",
            m.prefetch_issued,
            p.coverage() * 100.0,
            p.accuracy() * 100.0,
            p.lateness() * 100.0,
            p.hits,
            p.too_late,
            p.invalidated,
            p.no_pf,
            p.send_drops,
            p.reply_drops,
        );
    }
}

/// A results table whose first `labels` columns are left-aligned
/// (names and labels) and the rest right-aligned (numbers).
pub fn ascii_table(labels: usize, headers: Vec<&str>) -> AsciiTable {
    let aligns = (0..headers.len())
        .map(|i| {
            if i < labels {
                Align::Left
            } else {
                Align::Right
            }
        })
        .collect();
    AsciiTable::new(headers, aligns)
}

/// Renders Figure 1's per-application block for `bench` from its
/// original-variant report — exactly the text the `fig1` binary prints
/// per app, so snapshot tests can pin a digest of the emitted rows.
pub fn fig1_row(bench: Benchmark, report: &RunReport) -> String {
    let bars = [Bar::new("O", report.breakdown)];
    format!(
        "{}\n  total {}   msgs {}   bytes {}K   misses {}\n",
        render_bars(bench.name(), &bars, report.breakdown.total()),
        report.total_time,
        report.net.total_msgs,
        report.net.total_bytes / 1024,
        report.misses.misses,
    )
}

/// Computes Table 1's row cells for `bench` from its original and
/// prefetching reports — exactly the strings the `table1` binary puts
/// in its table, shared with the snapshot tests.
pub fn table1_row(bench: Benchmark, orig: &RunReport, pf: &RunReport) -> Vec<String> {
    vec![
        bench.name().to_string(),
        format!("{:.2}%", pf.prefetch.unnecessary_fraction() * 100.0),
        format!("{:.2}%", pf.prefetch.coverage() * 100.0),
        (orig.net.total_bytes / 1024).to_string(),
        (pf.net.total_bytes / 1024).to_string(),
        orig.misses.misses.to_string(),
        pf.misses.misses.to_string(),
        orig.misses.avg_latency().as_micros().to_string(),
        pf.misses.avg_latency().as_micros().to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::Original.label(), "O");
        assert_eq!(Variant::Prefetch.label(), "P");
        assert_eq!(Variant::History.label(), "H");
        assert_eq!(Variant::Adaptive.label(), "A");
        assert_eq!(Variant::AdaptiveStatic.label(), "A+P");
        assert_eq!(Variant::Threads(4).label(), "4T");
        assert_eq!(Variant::Combined(8).label(), "8TP");
    }

    #[test]
    fn adaptive_variants_configure_their_modes() {
        use rsdsm_core::PrefetchMode;
        let opts = ExpOpts::default();
        let h = Variant::History.config(Benchmark::Radix, &opts);
        assert_eq!(h.prefetch.mode, PrefetchMode::History);
        let a = Variant::Adaptive.config(Benchmark::Fft, &opts);
        assert_eq!(a.prefetch.mode, PrefetchMode::Adaptive);
        assert!(!a.prefetch.compiler_style, "adaptive ignores annotations");
        let ap = Variant::AdaptiveStatic.config(Benchmark::Fft, &opts);
        assert_eq!(ap.prefetch.mode, PrefetchMode::AdaptiveStatic);
        assert!(
            ap.prefetch.compiler_style,
            "FFT's static half is compiler-inserted"
        );
        let ap_sor = Variant::AdaptiveStatic.config(Benchmark::Sor, &opts);
        assert!(
            !ap_sor.prefetch.compiler_style,
            "SOR's static half is hand-inserted"
        );
    }

    #[test]
    fn combined_config_throttles_radix_only() {
        let opts = ExpOpts::default();
        let radix = Variant::Combined(2).config(Benchmark::Radix, &opts);
        assert_eq!(radix.prefetch.throttle, 2);
        let fft = Variant::Combined(2).config(Benchmark::Fft, &opts);
        assert_eq!(fft.prefetch.throttle, 1);
        assert!(fft.prefetch.compiler_style);
        assert!(!fft.threads.switch_on_memory);
        assert!(fft.threads.is_multithreaded());
    }

    /// The oracle's four techniques are the harness's four paper
    /// variants: both build their configs from the same per-app rules.
    #[test]
    fn oracle_techniques_are_the_paper_variants() {
        use rsdsm_oracle::Technique;
        let base = ExpOpts::default().base_config();
        for bench in Benchmark::ALL {
            for (technique, variant) in [
                (Technique::Base, Variant::Original),
                (Technique::Prefetch, Variant::Prefetch),
                (Technique::Multithread, Variant::Threads(2)),
                (Technique::Combined, Variant::Combined(2)),
            ] {
                assert_eq!(
                    technique.configure(bench, base.clone()),
                    variant.config_on(bench, base.clone()),
                    "{bench} {}",
                    variant.label()
                );
            }
        }
    }

    #[test]
    fn default_opts_cover_all_apps() {
        let opts = ExpOpts::default();
        assert_eq!(opts.apps.len(), 8);
        assert_eq!(opts.nodes, 8);
    }

    #[test]
    fn crash_specs_parse() {
        let c = parse_crash("3@250").expect("crash-stop spec");
        assert_eq!(c.node, 3);
        assert_eq!(c.at, SimTime::ZERO + SimDuration::from_millis(250));
        assert_eq!(c.restart_after, None);
        let c = parse_crash("1@10:restart=500").expect("crash-restart spec");
        assert_eq!(c.node, 1);
        assert_eq!(c.restart_after, Some(SimDuration::from_millis(500)));
        assert!(parse_crash("nope").is_none());
        assert!(parse_crash("1@x").is_none());
        assert!(parse_crash("1@5:restart=").is_none());
    }

    #[test]
    fn crash_flags_enable_recovery() {
        let mut opts = ExpOpts::default();
        opts.crashes.push(parse_crash("2@100").unwrap());
        opts.checkpoint_every = 4;
        let cfg = opts.base_config();
        assert_eq!(cfg.faults.crashes.len(), 1);
        assert!(cfg.recovery.enabled);
        assert_eq!(cfg.recovery.checkpoint_every, 4);

        // Checkpointing alone measures overhead: detection stays off.
        let ckpt_only = ExpOpts {
            checkpoint_every: 2,
            ..ExpOpts::default()
        };
        let cfg = ckpt_only.base_config();
        assert!(!cfg.recovery.enabled);
        assert_eq!(cfg.recovery.checkpoint_every, 2);

        // And the default stays exactly off.
        assert_eq!(
            ExpOpts::default().base_config().recovery,
            RecoveryConfig::off()
        );
    }

    #[test]
    fn partition_specs_parse() {
        let p = parse_partition("2@5:heal=10").expect("single-minority spec");
        assert_eq!(p.groups, vec![vec![2]]);
        assert_eq!(p.at, SimTime::ZERO + SimDuration::from_millis(5));
        assert_eq!(p.heal_after, SimDuration::from_millis(10));
        assert!(!p.asym);

        let p = parse_partition("0,1|2,3@250:heal=40:asym").expect("two-group asym spec");
        assert_eq!(p.groups, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(p.at, SimTime::ZERO + SimDuration::from_millis(250));
        assert_eq!(p.heal_after, SimDuration::from_millis(40));
        assert!(p.asym);

        assert!(parse_partition("nope").is_none());
        assert!(parse_partition("2@5").is_none(), "heal is mandatory");
        assert!(parse_partition("2@x:heal=10").is_none());
        assert!(parse_partition("2@5:heal=").is_none());
        assert!(parse_partition("2@5:heal=10:bogus").is_none());
        assert!(parse_partition("|2@5:heal=10").is_none(), "empty group");
    }

    #[test]
    fn partition_flags_enable_recovery() {
        let mut opts = ExpOpts::default();
        opts.partitions
            .push(parse_partition("2@5:heal=10").unwrap());
        opts.checkpoint_every = 2;
        let cfg = opts.base_config();
        assert_eq!(cfg.faults.partitions.len(), 1);
        assert!(cfg.recovery.enabled);
        assert_eq!(cfg.recovery.checkpoint_every, 2);
    }

    #[test]
    fn persist_flags_shape_the_device() {
        // Defaults: the layer stays off and the config stays stock.
        assert!(!ExpOpts::default().base_config().recovery.persist.enabled);

        let mut opts = ExpOpts {
            checkpoint_every: 2,
            persist: true,
            ..ExpOpts::default()
        };
        let dev = opts.base_config().recovery.persist;
        assert!(dev.enabled);
        assert_eq!(dev.write_bw, PersistConfig::off().write_bw);
        assert_eq!(dev.fence_latency, PersistConfig::off().fence_latency);

        // MB/s is numerically bytes/us; reads model at twice writes.
        opts.persist_bw = 20;
        opts.fence_us = 10;
        let dev = opts.base_config().recovery.persist;
        assert_eq!(dev.write_bw, 20);
        assert_eq!(dev.read_bw, 40);
        assert_eq!(dev.fence_latency, SimDuration::from_micros(10));
    }

    #[test]
    fn fault_loss_installs_a_plan_derived_from_the_seed() {
        let opts = ExpOpts::default();
        assert!(opts.base_config().faults.is_none());
        let lossy = ExpOpts {
            fault_loss: 0.1,
            seed: 42,
            ..ExpOpts::default()
        };
        let cfg = lossy.base_config();
        assert!(!cfg.faults.is_none());
        assert_eq!(cfg.faults.seed, 42 ^ 0xfa17);
        assert_eq!(cfg.faults.drop.control, 0.1);
    }
}

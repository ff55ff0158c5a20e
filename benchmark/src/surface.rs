//! The one file that calls into `rsdsm`.
//!
//! Everything the benchmark asks of the simulator goes through here:
//! the five workloads' cells, the run of one cell, the counts read
//! off a `RunReport` or tallied from an `RTR1` trace, and the bodies
//! of the unit-cost microbenchmarks. An API refactor in the repo
//! therefore needs a follow-up in this file only.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{
    BarrierId, Checkpoint, CommitRecord, DirectoryConfig, DirectoryPolicy, DsmConfig, DsmCtx,
    DsmProgram, FaultPlan, Heap, HomePolicy, LockId, NodeCrash, OracleConfig, PageImage, Partition,
    PersistConfig, PrefetchConfig, RecoveryConfig, RunReport, SharedVec, SimError, Simulation,
    StrideDetector, TimeoutAction, Topology, Trace, TraceEvent, Transport, TransportConfig,
    PAGE_SIZE, SLOT_REGIONS,
};
use rsdsm::oracle::{check_technique, Technique};
use rsdsm::protocol::{Diff, NoticeBoard, Page, PageId, PagePool, VectorClock, WriteNotice};
use rsdsm::simnet::{
    DetRng, EventQueue, NetConfig, Network, PersistDevice, Reliability, SimDuration, SimTime,
};
use rsdsm::stats::chrome_trace_json;

use crate::micro::{ns_per_call, Budget};
use crate::spans::Recorder;
use crate::stats::median;

/// Exact per-cell counters, by name. Every value is a count made by
/// the simulator, so it repeats bit for bit for a given seed.
pub type Counts = BTreeMap<&'static str, u64>;

/// One workload: its name and the one-line reason it exists (the
/// same line `BENCHMARK.json` carries).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper8",
        why: "8 apps x {O,P,2T,2TP} on the paper's 8-node ATM bus, no faults: the product's main traffic; app compute and the conductor handoff do the work",
    },
    Workload {
        name: "scale64",
        why: "RADIX and FFT on 64 nodes x {flat, rack-spine} x {no directory, hash directory}: O(N) interval records, four-hop routing, ~20k retransmissions; protocol, topology and transport do the work",
    },
    Workload {
        name: "storm1024",
        why: "hot-spot and incast micro-programs on 1024 nodes: few events per thread, so thread spawn/teardown, per-node memory and anything O(N)-wide dominate",
    },
    Workload {
        name: "faulted8",
        why: "4 apps x {O,2TP} x {5% loss, crash-restart with persisted checkpoints, partition+heal}: the same engine used the other way; retransmit, detection, checkpoint, persist, rejoin",
    },
    Workload {
        name: "observed8",
        why: "4 apps x {O,2TP} with the observers on: oracle check + golden replay + repeat run, then traced run, RTR1 encode and Chrome JSON; bypassed by the other four",
    },
];

/// Shared-array words per page.
const WORDS: usize = PAGE_SIZE / 8;

/// Bytes per page, for turning byte counts into page counts.
pub const PAGE_BYTES: f64 = PAGE_SIZE as f64;

/// Every node reads the same few pages, all homed on node 0 (the
/// `scaling` bin's hot-spot micro-study, re-declared).
struct HotSpot;

impl DsmProgram for HotSpot {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "hotspot".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(8 * WORDS, HomePolicy::Single(0))
    }

    fn run(&self, ctx: &mut DsmCtx, v: &Self::Handles) {
        for p in 0..8 {
            let _ = ctx.read(v, p * WORDS);
        }
        ctx.barrier(BarrierId(0));
    }
}

/// Node 0 prefetches one page homed on each of many peers at once
/// and then demand-faults them (the `scaling` bin's incast
/// micro-study, re-declared).
struct Incast {
    pages: usize,
}

impl DsmProgram for Incast {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "incast".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(self.pages * WORDS, HomePolicy::RoundRobin)
    }

    fn run(&self, ctx: &mut DsmCtx, v: &Self::Handles) {
        if ctx.node() == 0 {
            ctx.prefetch(v, 0, v.len());
            for p in 0..self.pages {
                let _ = ctx.read(v, p * WORDS);
            }
        }
        ctx.barrier(BarrierId(0));
    }
}

enum Job {
    /// One suite application under one technique.
    Kernel {
        bench: Benchmark,
        scale: Scale,
        technique: Technique,
        base: DsmConfig,
    },
    HotSpot {
        cfg: DsmConfig,
    },
    Incast {
        pages: usize,
        cfg: DsmConfig,
    },
    /// The observer-on use: oracle check, then a traced run whose
    /// trace is encoded and exported.
    Observed {
        bench: Benchmark,
        scale: Scale,
        technique: Technique,
        base: DsmConfig,
    },
}

/// One cell of a workload: a fully built simulation input.
pub struct Cell {
    pub name: String,
    job: Job,
}

/// What one run of a cell produced.
pub struct Outcome {
    /// `(total_time ns, events_processed, net.total_msgs,
    /// net.total_bytes, misses.faults)`: the simulated result. It
    /// must repeat across passes, rounds, and traced/untraced runs.
    /// (Not `RunReport::digest()`, which hashes the config's `Debug`
    /// text and so moves with any config refactor.)
    pub fingerprint: [u64; 5],
    /// The application verified, and (observed cells) the oracle
    /// verdict was `ok()`.
    pub verified: bool,
    pub counts: Counts,
}

impl Cell {
    fn new(name: String, job: Job) -> Cell {
        Cell { name, job }
    }

    fn config(&self) -> &DsmConfig {
        match &self.job {
            Job::Kernel { base, .. } | Job::Observed { base, .. } => base,
            Job::HotSpot { cfg } | Job::Incast { cfg, .. } => cfg,
        }
    }

    /// Which `simnet.network.send_ns.*` unit cost is closest to this
    /// cell's network: the suffix of that metric's name.
    pub fn send_cost(&self) -> &'static str {
        let cfg = self.config();
        let fabric = cfg.net.topology != Topology::FlatBus;
        match (fabric, cfg.nodes > 256) {
            _ if !cfg.faults.is_none() => "flat8_loss5",
            (true, true) => "fabric1024",
            (true, false) => "fabric64",
            (false, true) => "flat1024",
            (false, false) => "flat8",
        }
    }

    /// Which `core.conductor.spawn_us_per_thread.*` unit cost is
    /// closest to this cell's cluster: the suffix of that metric.
    pub fn spawn_cost(&self) -> &'static str {
        if self.config().nodes > 256 {
            "n1024"
        } else {
            "n8"
        }
    }

    /// Runs the cell once. With `tally` the run is traced and the
    /// trace's record kinds are counted.
    ///
    /// # Errors
    ///
    /// The `SimError` of a failed run, as text.
    pub fn run(&self, tally: bool, rec: &mut Recorder) -> Result<Outcome, String> {
        let cell = self.name.as_str();
        let mut verdict_ok = true;
        let (report, trace) = match &self.job {
            Job::Kernel {
                bench,
                scale,
                technique,
                base,
            } => {
                let cfg = rec.span("configure", cell, |_| {
                    technique.configure(*bench, base.clone())
                });
                run_job(
                    tally,
                    cell,
                    rec,
                    cfg,
                    |cfg| bench.run(*scale, cfg),
                    |cfg| bench.run_traced(*scale, cfg),
                )
            }
            Job::HotSpot { cfg } => simulate(&HotSpot, cfg, tally, cell, rec),
            Job::Incast { pages, cfg } => {
                simulate(&Incast { pages: *pages }, cfg, tally, cell, rec)
            }
            Job::Observed {
                bench,
                scale,
                technique,
                base,
            } => {
                let verdict = rec
                    .span("check_technique", cell, |_| {
                        check_technique(*bench, *scale, *technique, base.clone())
                    })
                    .map_err(|e| e.to_string())?;
                verdict_ok = verdict.ok();
                let cfg = rec.span("configure", cell, |_| {
                    technique.configure(*bench, base.clone())
                });
                let traced = rec.span("run_traced", cell, |_| bench.run_traced(*scale, cfg));
                if let Ok((_, trace)) = &traced {
                    let encoded = rec.span("trace_encode", cell, |_| trace.encode());
                    let json = rec.span("chrome_json", cell, |_| chrome_trace_json(trace));
                    black_box((encoded.len(), json.len()));
                }
                traced.map(|(report, trace)| (report, Some(trace)))
            }
        }
        .map_err(|e| e.to_string())?;

        Ok(rec.span("fingerprint", cell, |_| {
            let mut counts = report_counts(&report);
            if let Some(trace) = &trace {
                counts.insert("trace_records", trace.records.len() as u64);
                // A walk over every record is the counting pass's
                // business, not a timed observed cell's.
                if tally {
                    tally_trace(trace, &mut counts);
                }
            }
            Outcome {
                fingerprint: [
                    report.total_time.as_nanos(),
                    report.events_processed,
                    report.net.total_msgs,
                    report.net.total_bytes,
                    report.misses.faults,
                ],
                verified: report.verified && verdict_ok,
                counts,
            }
        }))
    }
}

type Ran = Result<(RunReport, Option<Trace>), SimError>;

fn run_job(
    tally: bool,
    cell: &str,
    rec: &mut Recorder,
    cfg: DsmConfig,
    plain: impl FnOnce(DsmConfig) -> Result<RunReport, SimError>,
    traced: impl FnOnce(DsmConfig) -> Result<(RunReport, Trace), SimError>,
) -> Ran {
    if tally {
        rec.span("run_traced", cell, |_| traced(cfg))
            .map(|(report, trace)| (report, Some(trace)))
    } else {
        rec.span("run", cell, |_| plain(cfg))
            .map(|report| (report, None))
    }
}

fn simulate<P: DsmProgram>(
    prog: &P,
    cfg: &DsmConfig,
    tally: bool,
    cell: &str,
    rec: &mut Recorder,
) -> Ran {
    let cfg = rec.span("configure", cell, |_| cfg.clone());
    run_job(
        tally,
        cell,
        rec,
        cfg,
        |cfg| Simulation::new(cfg).run(prog),
        |cfg| Simulation::new(cfg).run_traced(prog),
    )
}

/// The counts a `RunReport` carries, under the names the layer
/// metrics are derived from.
fn report_counts(r: &RunReport) -> Counts {
    Counts::from([
        ("events", r.events_processed),
        ("sim_ns", r.total_time.as_nanos()),
        ("msgs", r.net.total_msgs),
        ("bytes", r.net.total_bytes),
        ("faults", r.misses.faults),
        ("barrier_waits", r.barriers.waits),
        ("os_threads", r.config.total_threads() as u64),
        ("data_frames", r.transport.data_frames),
        ("retransmissions", r.transport.retransmissions),
        (
            "timeouts",
            r.transport.retransmissions + r.transport.spurious_timeouts,
        ),
        ("checkpoints", r.recovery.checkpoints_taken),
        ("checkpoint_bytes", r.recovery.checkpoint_bytes),
        (
            "rejoins",
            r.recovery.recoveries + r.recovery.partition_rejoins,
        ),
        ("persist_bytes", r.recovery.persist_bytes),
        ("prefetch_issued", r.prefetch.messages),
    ])
}

/// Counts the record kinds of an `RTR1` trace that no `RunReport`
/// field covers.
fn tally_trace(trace: &Trace, counts: &mut Counts) {
    let (mut created, mut bytes, mut applied, mut twins, mut notices, mut locks) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for rec in &trace.records {
        match rec.event {
            TraceEvent::DiffCreate { bytes: b, .. } => {
                created += 1;
                bytes += u64::from(b);
            }
            TraceEvent::DiffApply { .. } => applied += 1,
            TraceEvent::TwinCreate { .. } => twins += 1,
            TraceEvent::WriteNotice { .. } => notices += 1,
            TraceEvent::LockRequest { .. } => locks += 1,
            _ => {}
        }
    }
    counts.extend([
        ("diff_created", created),
        ("diff_bytes", bytes),
        ("diff_applied", applied),
        ("twins", twins),
        ("notices", notices),
        ("lock_requests", locks),
    ]);
}

fn scale_for(quick: bool, full: Scale) -> Scale {
    if quick {
        Scale::Test
    } else {
        full
    }
}

/// Builds the cells of workload `name` from `seed`. `quick` shrinks
/// every workload to a smoke test (Test scale, smaller clusters).
/// For `faulted8` this runs the fault-free dry runs that aim the
/// crash and partition instants.
///
/// # Errors
///
/// An unknown workload name, or a failed dry run.
pub fn build(name: &str, seed: u64, quick: bool) -> Result<Vec<Cell>, String> {
    let base = |nodes: usize| DsmConfig::paper_cluster(nodes).with_seed(seed);
    let label = |bench: Benchmark, t: Technique| format!("{}.{}", bench.name(), t.label());
    let mut cells = Vec::new();
    match name {
        "paper8" => {
            for bench in Benchmark::ALL {
                for technique in Technique::ALL {
                    cells.push(Cell::new(
                        label(bench, technique),
                        Job::Kernel {
                            bench,
                            scale: scale_for(quick, Scale::Default),
                            technique,
                            base: base(8),
                        },
                    ));
                }
            }
        }
        "scale64" => {
            let nodes = if quick { 16 } else { 64 };
            let fabric = Topology::rack_spine(8, 2, 4);
            let dir = DirectoryConfig::on(DirectoryPolicy::Hash);
            for bench in [Benchmark::Radix, Benchmark::Fft] {
                for (net, topology) in [("flat", Topology::FlatBus), ("fabric", fabric)] {
                    for (homes, directory) in [("nodir", DirectoryConfig::off()), ("dir", dir)] {
                        cells.push(Cell::new(
                            format!("{}.{net}.{homes}", bench.name()),
                            Job::Kernel {
                                bench,
                                scale: Scale::Test,
                                technique: Technique::Base,
                                base: base(nodes)
                                    .with_topology(topology)
                                    .with_directory(directory),
                            },
                        ));
                    }
                }
            }
        }
        "storm1024" => {
            let nodes = if quick { 64 } else { 1024 };
            let fabric = Topology::rack_spine(8, 2, 4);
            let dir = DirectoryConfig::on(DirectoryPolicy::Hash);
            let pf = PrefetchConfig::hand();
            let hot = |name: &str, cfg| Cell::new(name.into(), Job::HotSpot { cfg });
            let incast = |name: &str, cfg| Cell::new(name.into(), Job::Incast { pages: 64, cfg });
            cells.push(hot("hotspot.flat", base(nodes)));
            cells.push(hot("hotspot.fabric", base(nodes).with_topology(fabric)));
            cells.push(hot(
                "hotspot.fabric.dir",
                base(nodes).with_topology(fabric).with_directory(dir),
            ));
            cells.push(incast("incast.flat", base(nodes).with_prefetch(pf.clone())));
            cells.push(incast(
                "incast.fabric",
                base(nodes).with_prefetch(pf).with_topology(fabric),
            ));
        }
        "faulted8" => {
            let scale = scale_for(quick, Scale::Default);
            // Test-scale runs last a few simulated milliseconds, so
            // the smoke uses the test matrices' short leases.
            let (recovery, outage, heal) = if quick {
                let short = RecoveryConfig {
                    heartbeat_every: SimDuration::from_micros(200),
                    lease_timeout: SimDuration::from_micros(1_000),
                    confirm_grace: SimDuration::from_micros(200),
                    restart_base: SimDuration::from_micros(1_000),
                    restore_per_page: SimDuration::from_micros(5),
                    ..RecoveryConfig::on(2)
                };
                (
                    short,
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(5),
                )
            } else {
                (
                    RecoveryConfig::on(2),
                    SimDuration::from_millis(5),
                    SimDuration::from_millis(20),
                )
            };
            // Node 0 hosts the managers and the recovery coordinator
            // and must stay up; any other node may be the victim.
            let mut rng = DetRng::new(seed);
            let victim = 1 + rng.next_below(7) as usize;
            let crash_permille = 450 + rng.next_below(100);
            let cut_permille = 300 + rng.next_below(67);
            for bench in [
                Benchmark::Radix,
                Benchmark::Fft,
                Benchmark::WaterNsq,
                Benchmark::Sor,
            ] {
                for technique in [Technique::Base, Technique::Combined] {
                    let dry = bench
                        .run(scale, technique.configure(bench, base(8)))
                        .map_err(|e| format!("{} dry run: {e}", label(bench, technique)))?
                        .total_time;
                    let at = |permille: u64| SimTime::ZERO + dry * permille / 1000;
                    let loss = base(8).with_faults(FaultPlan::uniform_loss(seed ^ 0xfa17, 0.05));
                    let crash = base(8)
                        .with_faults(FaultPlan::none().with_node_crash(NodeCrash {
                            node: victim,
                            at: at(crash_permille),
                            restart_after: Some(outage),
                        }))
                        .with_recovery(RecoveryConfig {
                            persist: PersistConfig::on(),
                            ..recovery
                        });
                    let cut = base(8)
                        .with_faults(FaultPlan::none().with_partition(Partition::cut(
                            vec![vec![6, 7]],
                            at(cut_permille),
                            heal,
                        )))
                        .with_recovery(recovery);
                    for (fault, cfg) in [("loss", loss), ("crash", crash), ("cut", cut)] {
                        cells.push(Cell::new(
                            format!("{}.{fault}", label(bench, technique)),
                            Job::Kernel {
                                bench,
                                scale,
                                technique,
                                base: cfg,
                            },
                        ));
                    }
                }
            }
        }
        "observed8" => {
            for bench in [
                Benchmark::Fft,
                Benchmark::Radix,
                Benchmark::Ocean,
                Benchmark::WaterNsq,
            ] {
                for technique in [Technique::Base, Technique::Combined] {
                    cells.push(Cell::new(
                        label(bench, technique),
                        Job::Observed {
                            bench,
                            scale: scale_for(quick, Scale::Default),
                            technique,
                            base: base(8),
                        },
                    ));
                }
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(cells)
}

// ---------------------------------------------------------------------
// Unit-cost microbenchmarks: one public function each, timed from
// outside. Workload-independent by construction.
// ---------------------------------------------------------------------

/// Node 0's only thread runs local acquire/release pairs: every
/// syscall is one round trip through the conductor and nothing else.
struct LockPairs {
    pairs: usize,
}

impl DsmProgram for LockPairs {
    type Handles = ();

    fn name(&self) -> String {
        "lock-pairs".into()
    }

    fn allocate(&self, _heap: &mut Heap) -> Self::Handles {}

    fn run(&self, ctx: &mut DsmCtx, _: &Self::Handles) {
        for _ in 0..self.pairs {
            ctx.acquire(LockId(0));
            ctx.release(LockId(0));
        }
    }
}

/// Reads of a locally valid page: the access fast path, i.e. the
/// `mem` mutex and the validity check.
struct HitReads {
    reads: usize,
}

impl DsmProgram for HitReads {
    type Handles = SharedVec<u64>;

    fn name(&self) -> String {
        "hit-reads".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(WORDS, HomePolicy::Single(0))
    }

    fn run(&self, ctx: &mut DsmCtx, v: &Self::Handles) {
        let mut sum = 0u64;
        for i in 0..self.reads {
            sum = sum.wrapping_add(ctx.read(v, i % WORDS));
        }
        black_box(sum);
    }
}

/// Threads that start and exit: what spawning a cluster costs.
struct Empty;

impl DsmProgram for Empty {
    type Handles = ();

    fn name(&self) -> String {
        "empty".into()
    }

    fn allocate(&self, _heap: &mut Heap) -> Self::Handles {}

    fn run(&self, _ctx: &mut DsmCtx, _: &Self::Handles) {}
}

fn run_micro<P: DsmProgram>(nodes: usize, prog: &P) {
    let report = Simulation::new(DsmConfig::paper_cluster(nodes))
        .run(prog)
        .expect("micro-program runs");
    black_box(report.events_processed);
}

/// Host nanoseconds per conductor syscall (one engine ↔ app-thread
/// round trip). Its own entry point because the driver also measures
/// it in an unpinned process.
pub fn conductor_syscall_ns(budget: Budget) -> f64 {
    let pairs = 10_000;
    ns_per_call(budget, || run_micro(1, &LockPairs { pairs })) / (2 * pairs + 1) as f64
}

/// The engine-shaped delta mix of `rsdsm_bench::queue_replay`
/// (arrivals, ~4 ms retry timers, same-instant wakeups, far-future
/// leases), re-declared.
fn replay_delta(rng: &mut DetRng) -> SimDuration {
    SimDuration::from_nanos(match rng.next_below(100) {
        0..=64 => 20_000 + rng.next_below(2_000_000),
        65..=84 => 4_000_000 + rng.next_below(500_000),
        85..=94 => rng.next_below(5_000),
        _ => 200_000_000 + rng.next_below(1_800_000_000),
    })
}

/// Nanoseconds per pop-one push-one step against a standing
/// population of `population` events.
fn queue_step_ns(budget: Budget, population: u64) -> f64 {
    let mut rng = DetRng::new(0x5D5);
    let mut queue = EventQueue::with_capacity(population as usize);
    let mut t = SimTime::ZERO;
    for i in 0..population {
        t += SimDuration::from_nanos(rng.next_below(1_000));
        queue.push(t + replay_delta(&mut rng), i);
    }
    // Deltas are drawn up front so the timed loop is queue work only.
    let deltas: Vec<SimDuration> = (0..65_536).map(|_| replay_delta(&mut rng)).collect();
    let mut i = 0usize;
    ns_per_call(budget, || {
        let (t, payload) = queue.pop().expect("population stays constant");
        queue.push(t + deltas[i % deltas.len()], payload);
        i += 1;
    })
}

fn send_ns(budget: Budget, nodes: usize, topology: Topology, loss: f64) -> f64 {
    let mut cfg = NetConfig::atm_155(7);
    cfg.topology = topology;
    let mut net = Network::new(nodes, cfg);
    if loss > 0.0 {
        net.set_fault_plan(FaultPlan::uniform_loss(7, loss));
    }
    let mut rng = DetRng::new(11);
    let mut now = SimTime::ZERO;
    ns_per_call(budget, || {
        // Paced above the 256-byte serialization time, so no queue
        // builds up and every send takes the uncongested path.
        now += SimDuration::from_micros(20);
        let src = rng.next_below(nodes as u64) as usize;
        let dst = (src + 1 + rng.next_below(nodes as u64 - 1) as usize) % nodes;
        net.send(now, src, dst, 256, Reliability::Reliable, "bench")
    })
}

fn clock_join_ns(budget: Budget, nodes: usize) -> f64 {
    let mut a = VectorClock::new(nodes);
    let mut b = VectorClock::new(nodes);
    let mut p = 0;
    ns_per_call(budget, || {
        p = (p + 1) % nodes;
        b.tick(p);
        a.join(&b);
    })
}

fn dirty_page(stride: usize) -> (Page, Page) {
    let twin = Page::new();
    let mut current = twin.clone();
    for off in (0..PAGE_SIZE - 8).step_by(stride) {
        current.write_u64(off, off as u64 + 1);
    }
    (twin, current)
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_nanos() as f64, result)
}

/// Runs every unit-cost microbenchmark, handing each `(metric,
/// value)` to `record` as soon as it is measured (the caller
/// interleaves its yardstick there). `quick` also shrinks the
/// reference cell the observer ratios are measured on.
pub fn unit_costs(budget: Budget, quick: bool, record: &mut dyn FnMut(&'static str, f64)) {
    // --- core::conductor ---
    record("core.conductor.syscall_ns", conductor_syscall_ns(budget));
    let reads = 200_000;
    record(
        "core.conductor.access_hit_ns",
        ns_per_call(budget, || run_micro(1, &HitReads { reads })) / reads as f64,
    );
    for (name, nodes) in [
        ("core.conductor.spawn_us_per_thread.n8", 8),
        ("core.conductor.spawn_us_per_thread.n1024", 1024),
    ] {
        let nodes = if quick { nodes.min(64) } else { nodes };
        record(
            name,
            ns_per_call(budget, || run_micro(nodes, &Empty)) / nodes as f64 / 1e3,
        );
    }

    // --- simnet::event ---
    record(
        "simnet.event.push_pop_ns.pop1k",
        queue_step_ns(budget, 1_000),
    );
    record(
        "simnet.event.push_pop_ns.pop1m",
        queue_step_ns(budget, if quick { 50_000 } else { 1_000_000 }),
    );

    // --- simnet::network + topology + faults ---
    let fabric = Topology::rack_spine(8, 2, 4);
    for (name, nodes, topology, loss) in [
        ("simnet.network.send_ns.flat8", 8, Topology::FlatBus, 0.0),
        (
            "simnet.network.send_ns.flat1024",
            1024,
            Topology::FlatBus,
            0.0,
        ),
        ("simnet.network.send_ns.fabric64", 64, fabric, 0.0),
        ("simnet.network.send_ns.fabric1024", 1024, fabric, 0.0),
        (
            "simnet.network.send_ns.flat8_loss5",
            8,
            Topology::FlatBus,
            0.05,
        ),
    ] {
        record(name, send_ns(budget, nodes, topology, loss));
    }

    // --- simnet::persist ---
    let mut device = PersistDevice::new(SLOT_REGIONS, PersistConfig::on());
    let image = vec![0xA5u8; 64 << 10];
    let mut now = SimTime::ZERO;
    record(
        "simnet.persist.write_fence_ns_per_kb",
        ns_per_call(budget, || {
            device.write(0, 0, &image);
            device.flush(now);
            now = device.fence(now);
            device.settle(now);
        }) / 64.0,
    );

    // --- protocol::clock ---
    for (name, nodes) in [
        ("protocol.clock.join_ns.n8", 8),
        ("protocol.clock.join_ns.n64", 64),
        ("protocol.clock.join_ns.n1024", 1024),
    ] {
        record(name, clock_join_ns(budget, nodes));
    }

    // --- protocol::{diff, page, notice} ---
    let (twin, sparse) = dirty_page(256);
    let (_, dense) = dirty_page(8);
    record(
        "protocol.diff.between_ns.sparse",
        ns_per_call(budget, || Diff::between(&twin, &sparse)),
    );
    record(
        "protocol.diff.between_ns.dense",
        ns_per_call(budget, || Diff::between(&twin, &dense)),
    );
    let diff = Diff::between(&twin, &sparse);
    let mut target = Page::new();
    record(
        "protocol.diff.apply_ns.sparse",
        ns_per_call(budget, || diff.apply(&mut target)),
    );
    let mut pool = PagePool::new();
    record(
        "protocol.page.pool_cycle_ns",
        ns_per_call(budget, || {
            let frame = pool.take_arc_copy_of(&sparse);
            pool.put_arc(frame);
        }),
    );
    let mut board = NoticeBoard::new();
    let mut stamp = VectorClock::new(8);
    let mut n = 0u32;
    record(
        "protocol.notice.record_ns",
        ns_per_call(budget, || {
            n += 1;
            // A board is per run: start over before it outgrows one.
            if n.is_multiple_of(65_536) {
                board = NoticeBoard::new();
            }
            stamp.tick((n % 8) as usize);
            board.record(WriteNotice {
                page: PageId::new(n % 4096),
                origin: (n % 8) as usize,
                stamp: stamp.clone(),
            })
        }),
    );

    // --- core::transport ---
    let mut transport: Transport<u64> = Transport::new(TransportConfig::default());
    let mut now = SimTime::ZERO;
    record(
        "core.transport.frame_ns",
        ns_per_call(budget, || {
            now += SimDuration::from_micros(100);
            let (seq, _rto) = transport.register(0, 1, 7, now);
            black_box(transport.receive(0, 1, seq, 7));
            transport.on_ack(0, 1, seq, now + SimDuration::from_micros(50));
        }),
    );
    let mut transport: Transport<u64> = Transport::new(TransportConfig {
        max_retries: u32::MAX,
        ..TransportConfig::default()
    });
    let (seq, _) = transport.register(0, 1, 7, SimTime::ZERO);
    record(
        "core.transport.timeout_ns",
        ns_per_call(budget, || {
            let action = transport.on_timeout(0, 1, seq);
            assert!(matches!(action, TimeoutAction::Retransmit { .. }));
        }),
    );

    // --- core::{checkpoint, recovery} ---
    let pages = 64u32;
    let checkpoint = Checkpoint {
        node: 1,
        epoch: 2,
        vc: VectorClock::new(8),
        pages: (0..pages)
            .map(|index| PageImage {
                index,
                valid: true,
                data: sparse.clone(),
            })
            .collect(),
        diffs: Vec::new(),
        intervals: Vec::new(),
        tokens: Vec::new(),
    };
    record(
        "core.checkpoint.encode_ns_per_page",
        ns_per_call(budget, || checkpoint.encode()) / f64::from(pages),
    );
    // What persisting one checkpoint adds to encoding it: the RSG1
    // segmented image and the RCM1 commit record over it.
    record(
        "core.checkpoint.segment_ns_per_page",
        ns_per_call(budget, || {
            let image = checkpoint.encode_segmented();
            CommitRecord::for_payload(checkpoint.epoch, 1, &image).encode()
        }) / f64::from(pages),
    );
    let encoded = checkpoint.encode();
    record(
        "core.checkpoint.decode_ns_per_page",
        ns_per_call(budget, || Checkpoint::decode(&encoded).expect("round trip"))
            / f64::from(pages),
    );

    // --- core::prefetch ---
    let mut detector = StrideDetector::new(8);
    let mut page = 0u64;
    record(
        "core.prefetch.observe_ns",
        ns_per_call(budget, || {
            page += 2;
            detector.observe(page)
        }),
    );

    observer_costs(quick, record);
}

/// What the observers cost, measured on one reference cell (RADIX
/// 2TP, 8 nodes): alternating plain / traced / full-oracle runs, the
/// golden replay, the full `check_technique`, and the two exporters.
fn observer_costs(quick: bool, record: &mut dyn FnMut(&'static str, f64)) {
    let bench = Benchmark::Radix;
    let scale = scale_for(quick, Scale::Default);
    let base = DsmConfig::paper_cluster(8).with_seed(1998);
    let cfg = Technique::Combined.configure(bench, base.clone());
    let oracle_cfg = cfg.clone().with_oracle(OracleConfig::full());

    let rounds = 3;
    let (mut plain, mut traced, mut oracle, mut golden, mut check) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last_trace = None;
    for _ in 0..rounds {
        plain.push(timed(|| bench.run(scale, cfg.clone()).expect("plain run")).0);
        let (ns, (_, trace)) = timed(|| bench.run_traced(scale, cfg.clone()).expect("traced run"));
        traced.push(ns);
        last_trace = Some(trace);
        let (ns, report) = timed(|| bench.run(scale, oracle_cfg.clone()).expect("oracle run"));
        oracle.push(ns);
        let lock_trace = &report.oracle.as_ref().expect("oracle outcome").lock_trace;
        golden.push(
            timed(|| {
                bench
                    .golden(scale, &oracle_cfg, lock_trace)
                    .expect("golden replay")
            })
            .0,
        );
        let (ns, verdict) = timed(|| {
            check_technique(bench, scale, Technique::Combined, base.clone()).expect("oracle check")
        });
        assert!(verdict.ok(), "reference cell failed the oracle");
        check.push(ns);
    }
    let trace = last_trace.expect("at least one round");
    let records = trace.records.len() as f64;
    let (plain, traced) = (median(&plain), median(&traced));

    let budget = Budget::new(quick);
    record("core.trace.overhead_frac", traced / plain - 1.0);
    record(
        "core.trace.emit_ns_per_record",
        ((traced - plain) / records).max(0.0),
    );
    record(
        "core.trace.encode_ns_per_record",
        ns_per_call(budget, || trace.encode()) / records,
    );
    record(
        "stats.chrome.json_ns_per_record",
        ns_per_call(budget, || chrome_trace_json(&trace)) / records,
    );
    record("core.oracle.overhead_frac", median(&oracle) / plain - 1.0);
    record("core.golden.replay_ms", median(&golden) / 1e6);
    record("oracle.check_x", median(&check) / plain);
    record("apps.golden_share", median(&golden) / plain);
}

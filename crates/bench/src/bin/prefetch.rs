//! The prefetching head-to-head: static annotations ("P"), history
//! replay ("H"), online adaptive stride detection ("A"), and the
//! combination ("A+P"), judged by the §3.3 trace taxonomy — per-cell
//! coverage, accuracy, and lateness next to end-to-end speedup.
//!
//! Three tiers:
//!
//! * **clean** — the paper's eight applications at 8 nodes, all five
//!   variants, stacked-bar figure and taxonomy table per app;
//! * **faults** — RADIX and FFT under 5% uniform loss, a
//!   crash-restart, and a partition+heal, comparing P/H/A where the
//!   droppable static prefetches and the reliable adaptive stream
//!   diverge hardest;
//! * **fabric** — RADIX and FFT at 64 nodes on a 4:1-oversubscribed
//!   rack-and-spine switch with hash-sharded homes, where prefetch
//!   interference with demand traffic is at its worst.
//!
//! Usage: `prefetch [--seed S] [--jobs N] [--app NAME]... [--full]
//! [--bench-json PATH]`
//!
//! With no arguments the fast subset runs (clean tier, RADIX + FFT) —
//! the CI experiments budget. `--full` runs all eight applications
//! plus the fault and fabric tiers and writes the numbers behind the
//! committed `BENCH_prefetch.json`.

use rsdsm_apps::{Benchmark, Scale};
use rsdsm_bench::{pool, ExpOpts, Variant};
use rsdsm_core::{
    DirectoryConfig, DirectoryPolicy, DsmConfig, FaultPlan, NodeCrash, Partition, RecoveryConfig,
    RunReport, Topology,
};
use rsdsm_simnet::{SimDuration, SimTime};
use rsdsm_stats::{render_bars, Align, AsciiTable, Bar};

/// The variants of the head-to-head, in figure order.
const VARIANTS: [Variant; 5] = [
    Variant::Original,
    Variant::Prefetch,
    Variant::History,
    Variant::Adaptive,
    Variant::AdaptiveStatic,
];

/// The fault-tier fault shapes, by label.
const FAULT_TIERS: [&str; 3] = ["loss", "crash", "partition"];

const USAGE: &str = "prefetch [--seed S] [--jobs N] [--app NAME]... [--full] [--bench-json PATH]";

struct Opts {
    seed: u64,
    jobs: usize,
    apps: Vec<Benchmark>,
    full: bool,
    bench_json: Option<String>,
}

fn parse_args() -> Opts {
    let mut full = false;
    // No `--app` means the tier's own selection, chosen below.
    let start = ExpOpts {
        apps: Vec::new(),
        ..ExpOpts::default()
    };
    let shared = ExpOpts::parse(start, USAGE, |flag, _| {
        full |= flag == "--full";
        Ok(flag == "--full")
    });
    let apps = if !shared.apps.is_empty() {
        shared.apps
    } else if full {
        Benchmark::ALL.to_vec()
    } else {
        vec![Benchmark::Radix, Benchmark::Fft]
    };
    Opts {
        seed: shared.seed,
        jobs: shared.jobs,
        apps,
        full,
        bench_json: shared.bench_json,
    }
}

/// One measured cell: tier, app, variant label, and the run.
struct Cell {
    tier: &'static str,
    bench: Benchmark,
    label: String,
    report: RunReport,
}

/// The clean-tier base config.
fn clean_base(seed: u64) -> DsmConfig {
    DsmConfig::paper_cluster(8).with_seed(seed)
}

/// Recovery parameters sized for `Scale::Default` runs (tens of
/// simulated milliseconds end to end): detection and restart resolve
/// well inside the run instead of outliving it.
fn study_recovery() -> RecoveryConfig {
    RecoveryConfig {
        heartbeat_every: SimDuration::from_millis(1),
        lease_timeout: SimDuration::from_millis(5),
        confirm_grace: SimDuration::from_millis(1),
        restart_base: SimDuration::from_millis(5),
        restore_per_page: SimDuration::from_micros(5),
        ..RecoveryConfig::on(2)
    }
}

/// The fault-tier config for one fault shape.
fn faulted_base(seed: u64, fault: &str) -> DsmConfig {
    let base = clean_base(seed);
    match fault {
        "loss" => base.with_faults(FaultPlan::uniform_loss(seed ^ 0xfa17, 0.05)),
        "crash" => {
            let mut cfg = base.with_recovery(study_recovery());
            cfg.faults = cfg.faults.with_node_crash(NodeCrash {
                node: 2,
                at: SimTime::ZERO + SimDuration::from_millis(10),
                restart_after: Some(SimDuration::from_millis(10)),
            });
            cfg
        }
        "partition" => {
            let mut cfg = base.with_recovery(study_recovery());
            cfg.faults = cfg.faults.with_partition(Partition::cut(
                vec![vec![2]],
                SimTime::ZERO + SimDuration::from_millis(10),
                SimDuration::from_millis(10),
            ));
            cfg
        }
        other => unreachable!("unknown fault tier {other}"),
    }
}

/// The 64-node fabric-tier base config.
fn fabric_base(seed: u64) -> DsmConfig {
    DsmConfig::paper_cluster(64)
        .with_seed(seed)
        .with_topology(Topology::rack_spine(8, 2, 4))
        .with_directory(DirectoryConfig::on(DirectoryPolicy::Hash))
}

fn run_cell(
    tier: &'static str,
    bench: Benchmark,
    variant: Variant,
    scale: Scale,
    cfg: DsmConfig,
) -> Cell {
    let label = variant.label();
    let report = bench
        .run(scale, cfg)
        .unwrap_or_else(|e| panic!("{tier}/{bench} [{label}]: {e}"));
    assert!(
        report.verified,
        "{tier}/{bench} [{label}] produced a wrong result"
    );
    Cell {
        tier,
        bench,
        label,
        report,
    }
}

fn main() {
    let opts = parse_args();
    println!(
        "Prefetching head-to-head (seed {}): {} apps, {}{}\n",
        opts.seed,
        opts.apps.len(),
        if opts.full {
            "full matrix (clean + faults + fabric)"
        } else {
            "fast subset (clean tier)"
        },
        if opts.bench_json.is_some() {
            ", writing JSON"
        } else {
            ""
        },
    );

    // --- Build the whole matrix as independent cells and fan out ---
    let mut tasks: Vec<Box<dyn FnOnce() -> Cell + Send>> = Vec::new();
    for &bench in &opts.apps {
        for variant in VARIANTS {
            let seed = opts.seed;
            tasks.push(Box::new(move || {
                run_cell(
                    "clean",
                    bench,
                    variant,
                    Scale::Default,
                    variant.config_on(bench, clean_base(seed)),
                )
            }));
        }
    }
    if opts.full {
        for bench in [Benchmark::Radix, Benchmark::Fft] {
            for fault in FAULT_TIERS {
                for variant in [Variant::Prefetch, Variant::History, Variant::Adaptive] {
                    let seed = opts.seed;
                    tasks.push(Box::new(move || {
                        run_cell(
                            fault,
                            bench,
                            variant,
                            Scale::Default,
                            variant.config_on(bench, faulted_base(seed, fault)),
                        )
                    }));
                }
            }
            for variant in [Variant::Original, Variant::History, Variant::Adaptive] {
                let seed = opts.seed;
                tasks.push(Box::new(move || {
                    run_cell(
                        "fabric",
                        bench,
                        variant,
                        Scale::Test,
                        variant.config_on(bench, fabric_base(seed)),
                    )
                }));
            }
        }
    }
    let cells = pool::run(opts.jobs, tasks);

    let find = |tier: &str, bench: Benchmark, label: &str| {
        cells
            .iter()
            .find(|c| c.tier == tier && c.bench == bench && c.label == label)
    };
    let baseline =
        |tier: &str, bench: Benchmark| find(tier, bench, "O").map(|c| c.report.total_time);

    // --- Figure: stacked bars per app, all five variants ---
    println!("Figure: execution-time breakdown, normalized to O = 100\n");
    for &bench in &opts.apps {
        let bars: Vec<Bar> = VARIANTS
            .iter()
            .filter_map(|v| find("clean", bench, &v.label()))
            .map(|c| Bar::new(c.label.clone(), c.report.breakdown))
            .collect();
        let base = find("clean", bench, "O").expect("O cell").report.breakdown;
        println!("{}", render_bars(bench.name(), &bars, base.total()));
    }

    // --- Table: the §3.3 taxonomy row pair per app ---
    println!("Table: §3.3 taxonomy per cell (speedup vs O, coverage/accuracy/lateness)\n");
    let mut table = AsciiTable::new(
        vec![
            "Benchmark",
            "variant",
            "time",
            "speedup",
            "coverage",
            "accuracy",
            "lateness",
            "issued",
            "strides",
        ],
        vec![
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ],
    );
    for &bench in &opts.apps {
        let orig = baseline("clean", bench).expect("O cell");
        for variant in VARIANTS {
            let Some(c) = find("clean", bench, &variant.label()) else {
                continue;
            };
            let r = &c.report;
            let a = r.adaptive.as_ref();
            table.add_row(vec![
                bench.name().to_string(),
                c.label.clone(),
                r.total_time.to_string(),
                format!(
                    "{:.2}x",
                    orig.as_nanos() as f64 / r.total_time.as_nanos() as f64
                ),
                format!("{:.1}%", r.prefetch.coverage() * 100.0),
                format!("{:.1}%", r.prefetch.accuracy() * 100.0),
                format!("{:.1}%", r.prefetch.lateness() * 100.0),
                a.map_or_else(|| r.prefetch.messages.to_string(), |a| a.issued.to_string()),
                a.map_or_else(String::new, |a| a.detected_strides.to_string()),
            ]);
        }
    }
    println!("{table}");

    // --- Fault and fabric tiers (full matrix only) ---
    if opts.full {
        println!("Fault and fabric tiers (H vs A where transports diverge)\n");
        let mut table = AsciiTable::new(
            vec![
                "tier",
                "Benchmark",
                "variant",
                "time",
                "coverage",
                "accuracy",
                "lateness",
                "pf lost",
                "retx",
            ],
            vec![
                Align::Left,
                Align::Left,
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ],
        );
        for c in &cells {
            if c.tier == "clean" {
                continue;
            }
            let r = &c.report;
            table.add_row(vec![
                c.tier.to_string(),
                c.bench.name().to_string(),
                c.label.clone(),
                r.total_time.to_string(),
                format!("{:.1}%", r.prefetch.coverage() * 100.0),
                format!("{:.1}%", r.prefetch.accuracy() * 100.0),
                format!("{:.1}%", r.prefetch.lateness() * 100.0),
                (r.prefetch.send_drops + r.prefetch.reply_drops).to_string(),
                r.transport.retransmissions.to_string(),
            ]);
        }
        println!("{table}");
    }

    // --- Summary: where adaptive beats history ---
    let mut cov_wins = 0usize;
    let mut apps_with_both = 0usize;
    for &bench in &opts.apps {
        let (Some(h), Some(a)) = (find("clean", bench, "H"), find("clean", bench, "A")) else {
            continue;
        };
        apps_with_both += 1;
        if a.report.prefetch.coverage() > h.report.prefetch.coverage() {
            cov_wins += 1;
        }
    }
    println!("adaptive coverage beats history on {cov_wins}/{apps_with_both} apps (clean tier)");

    // --- Machine-readable artifact ---
    if let Some(path) = &opts.bench_json {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"config\": {{\"seed\": {}, \"apps\": {}, \"full\": {}}},\n",
            opts.seed,
            opts.apps.len(),
            opts.full
        ));
        json.push_str("  \"cells\": [\n");
        for (i, c) in cells.iter().enumerate() {
            let r = &c.report;
            let comma = if i + 1 < cells.len() { "," } else { "" };
            let speedup = baseline(c.tier, c.bench).map_or(0.0, |orig| {
                orig.as_nanos() as f64 / r.total_time.as_nanos() as f64
            });
            let p = &r.prefetch;
            let (strides, flips, issued, cancelled) = r.adaptive.map_or((0, 0, 0, 0), |a| {
                (a.detected_strides, a.window_flips, a.issued, a.cancelled)
            });
            json.push_str(&format!(
                "    {{\"tier\": \"{}\", \"app\": \"{}\", \"variant\": \"{}\", \
                 \"sim_us\": {}, \"speedup\": {:.4}, \
                 \"coverage\": {:.4}, \"accuracy\": {:.4}, \"lateness\": {:.4}, \
                 \"hits\": {}, \"too_late\": {}, \"invalidated\": {}, \"no_pf\": {}, \
                 \"pf_messages\": {}, \"pf_lost\": {}, \
                 \"strides\": {strides}, \"flips\": {flips}, \
                 \"issued\": {issued}, \"cancelled\": {cancelled}}}{comma}\n",
                c.tier,
                c.bench.name(),
                c.label,
                r.total_time.as_micros(),
                speedup,
                p.coverage(),
                r.prefetch.accuracy(),
                r.prefetch.lateness(),
                p.hits,
                p.too_late,
                p.invalidated,
                p.no_pf,
                p.messages,
                p.send_drops + p.reply_drops,
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
    }
}

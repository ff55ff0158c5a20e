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
use rsdsm_bench::json::Json;
use rsdsm_bench::{ascii_table, sweep, Cell, ExpOpts, Program, Variant};
use rsdsm_core::{
    DirectoryConfig, DirectoryPolicy, DsmConfig, FaultPlan, NodeCrash, Partition, RecoveryConfig,
    Topology,
};
use rsdsm_simnet::{SimDuration, SimTime};
use rsdsm_stats::{render_bars, Bar};

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

/// The shared options (every app of the tier when no `--app` is
/// given) and whether `--full` was.
fn parse_args() -> (ExpOpts, bool) {
    let mut full = false;
    // No `--app` means the tier's own selection, chosen below.
    let start = ExpOpts {
        apps: Vec::new(),
        ..ExpOpts::default()
    };
    let mut opts = ExpOpts::parse(start, USAGE, |flag, _| {
        full |= flag == "--full";
        Ok(flag == "--full")
    });
    if opts.apps.is_empty() {
        opts.apps = if full {
            Benchmark::ALL.to_vec()
        } else {
            vec![Benchmark::Radix, Benchmark::Fft]
        };
    }
    (opts, full)
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

/// A tier's problem scale and base config: the clean tier is the
/// options' own 8-node cluster at default scale, a fault tier adds
/// its fault shape to it, and the fabric tier is 64 nodes on a
/// 4:1-oversubscribed rack-and-spine switch with hash-sharded homes.
fn tier_base(opts: &ExpOpts, tier: &str) -> (Scale, DsmConfig) {
    let base = opts.base_config();
    let cfg = match tier {
        "clean" => base,
        "loss" => base.with_faults(FaultPlan::uniform_loss(opts.seed ^ 0xfa17, 0.05)),
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
        "fabric" => {
            let cfg = DsmConfig::paper_cluster(64)
                .with_seed(opts.seed)
                .with_topology(Topology::rack_spine(8, 2, 4))
                .with_directory(DirectoryConfig::on(DirectoryPolicy::Hash));
            return (Scale::Test, cfg);
        }
        other => unreachable!("unknown tier {other}"),
    };
    (opts.scale, cfg)
}

fn main() {
    let (opts, full) = parse_args();
    println!(
        "Prefetching head-to-head (seed {}): {} apps, {}{}\n",
        opts.seed,
        opts.apps.len(),
        if full {
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

    // --- The whole matrix, one sweep: (tier, app, variant) per cell ---
    let mut keys = Vec::new();
    for &bench in &opts.apps {
        keys.extend(VARIANTS.map(|v| ("clean", bench, v)));
    }
    if full {
        for bench in [Benchmark::Radix, Benchmark::Fft] {
            for fault in FAULT_TIERS {
                let variants = [Variant::Prefetch, Variant::History, Variant::Adaptive];
                keys.extend(variants.map(|v| (fault, bench, v)));
            }
            let variants = [Variant::Original, Variant::History, Variant::Adaptive];
            keys.extend(variants.map(|v| ("fabric", bench, v)));
        }
    }
    let cells = keys
        .iter()
        .map(|&(tier, bench, variant)| {
            let (scale, base) = tier_base(&opts, tier);
            Cell {
                label: variant.label(),
                program: Program::Kernel(bench, scale),
                config: variant.config_on(bench, base),
            }
        })
        .collect();
    let reports = sweep(&opts, cells).reports();
    let runs = || keys.iter().zip(&reports);
    let find = |key| runs().find(|&(&k, _)| k == key).map(|(_, r)| r);
    let baseline = |tier, bench| find((tier, bench, Variant::Original)).map(|r| r.total_time);

    // --- Figure: stacked bars per app, all five variants ---
    println!("Figure: execution-time breakdown, normalized to O = 100\n");
    for &bench in &opts.apps {
        let bars: Vec<Bar> = VARIANTS
            .iter()
            .filter_map(|&v| find(("clean", bench, v)).map(|r| Bar::new(v.label(), r.breakdown)))
            .collect();
        let base = find(("clean", bench, Variant::Original)).expect("O cell");
        println!(
            "{}",
            render_bars(bench.name(), &bars, base.breakdown.total())
        );
    }

    // --- Table: the §3.3 taxonomy row pair per app ---
    println!("Table: §3.3 taxonomy per cell (speedup vs O, coverage/accuracy/lateness)\n");
    let mut table = ascii_table(
        2,
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
    );
    for (&(tier, bench, variant), r) in runs().filter(|(k, _)| k.0 == "clean") {
        let orig = baseline(tier, bench).expect("O cell");
        let a = r.adaptive.as_ref();
        table.add_row(vec![
            bench.name().to_string(),
            variant.label(),
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
    println!("{table}");

    // --- Fault and fabric tiers (full matrix only) ---
    if full {
        println!("Fault and fabric tiers (H vs A where transports diverge)\n");
        let mut table = ascii_table(
            3,
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
        );
        for (&(tier, bench, variant), r) in runs().filter(|(k, _)| k.0 != "clean") {
            table.add_row(vec![
                tier.to_string(),
                bench.name().to_string(),
                variant.label(),
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
        let (Some(h), Some(a)) = (
            find(("clean", bench, Variant::History)),
            find(("clean", bench, Variant::Adaptive)),
        ) else {
            continue;
        };
        apps_with_both += 1;
        if a.prefetch.coverage() > h.prefetch.coverage() {
            cov_wins += 1;
        }
    }
    println!("adaptive coverage beats history on {cov_wins}/{apps_with_both} apps (clean tier)");

    // --- Machine-readable artifact ---
    if let Some(path) = &opts.bench_json {
        let cells = runs().map(|(&(tier, bench, variant), r)| {
            let speedup = baseline(tier, bench).map_or(0.0, |orig| {
                orig.as_nanos() as f64 / r.total_time.as_nanos() as f64
            });
            let p = &r.prefetch;
            let (strides, flips, issued, cancelled) = r.adaptive.map_or((0, 0, 0, 0), |a| {
                (a.detected_strides, a.window_flips, a.issued, a.cancelled)
            });
            Json::line(vec![
                ("tier", Json::str(tier)),
                ("app", Json::str(bench.name())),
                ("variant", Json::str(&variant.label())),
                ("sim_us", Json::num(r.total_time.as_micros())),
                ("speedup", Json::num(format!("{speedup:.4}"))),
                ("coverage", Json::num(format!("{:.4}", p.coverage()))),
                ("accuracy", Json::num(format!("{:.4}", p.accuracy()))),
                ("lateness", Json::num(format!("{:.4}", p.lateness()))),
                ("hits", Json::num(p.hits)),
                ("too_late", Json::num(p.too_late)),
                ("invalidated", Json::num(p.invalidated)),
                ("no_pf", Json::num(p.no_pf)),
                ("pf_messages", Json::num(p.messages)),
                ("pf_lost", Json::num(p.send_drops + p.reply_drops)),
                ("strides", Json::num(strides)),
                ("flips", Json::num(flips)),
                ("issued", Json::num(issued)),
                ("cancelled", Json::num(cancelled)),
            ])
        });
        let config = Json::line(vec![
            ("seed", Json::num(opts.seed)),
            ("apps", Json::num(opts.apps.len())),
            ("full", Json::num(full)),
        ]);
        Json::block(vec![
            ("config", config),
            ("cells", Json::list(cells.collect())),
        ])
        .write_file(path);
        println!("\nwrote {path}");
    }
}

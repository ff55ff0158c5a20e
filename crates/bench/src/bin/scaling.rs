//! The scale-out suite: switched topologies, directory-sharded
//! homes, and the 64/256/1024-node scaling study.
//!
//! The paper stops at 8 nodes on one ATM switch. This binary takes
//! the same engine beyond the paper: each tier of the sweep runs
//! hot-spot and incast micro-studies (plus the RADIX and FFT kernels
//! where the interval-broadcast barrier protocol keeps them
//! tractable) on the flat bus and on a rack-and-spine fabric, with
//! and without directory-sharded homes, and reports simulated time,
//! event counts, and the breakdown behind each number: barrier cost,
//! directory hot-spots, and incast retry storms. Everything it prints
//! is simulation-derived and reproduces exactly; what a run costs the
//! host is `rsbench`'s `scale64` and `storm1024` workloads.
//!
//! Usage: `scaling [--nodes N] [--tiers A,B,..] [--full]
//! [--topology rack:R,spine:S] [--oversub K] [--seed S]
//! [--bench-json PATH]`
//!
//! With no arguments the fast subset (8 and 64 nodes) runs — the CI
//! experiments budget. `--full` adds the 256- and 1024-node tiers
//! and writes the numbers behind the committed `BENCH_scaling.json`.

use rsdsm_apps::{Benchmark, Incast, Scale};
use rsdsm_bench::json::Json;
use rsdsm_bench::{sweep, Cell, ExpOpts, Program};
use rsdsm_core::{DirectoryConfig, DirectoryPolicy, DsmConfig, PrefetchConfig, Topology};

/// Upper bound on incast fan-in (memory guard: every node holds a
/// slot for every allocated page, so the page count must stay fixed
/// as the cluster grows).
const INCAST_MAX: usize = 64;

const USAGE: &str = "scaling [--nodes N] [--tiers A,B,..] [--full] \
     [--topology rack:R,spine:S] [--oversub K] [--seed S] [--bench-json PATH]";

struct Opts {
    shared: ExpOpts,
    tiers: Vec<usize>,
    topology: Option<Topology>,
    oversub: u32,
}

/// Parses `rack:R,spine:S` into `(R, S)`.
fn parse_rack_spine(spec: &str) -> Option<(usize, usize)> {
    let mut rack = None;
    let mut spine = None;
    for part in spec.split(',') {
        match part.split_once(':')? {
            ("rack", v) => rack = Some(v.parse().ok()?),
            ("spine", v) => spine = Some(v.parse().ok()?),
            _ => return None,
        }
    }
    Some((rack?, spine?))
}

fn parse_args() -> Opts {
    let mut tiers: Option<Vec<usize>> = None;
    let mut full = false;
    let mut rack_spine = None;
    let mut oversub = 4u32;
    // `--nodes N` is a one-tier sweep. The shared parser takes only a
    // positive count, so 0 here means "not given".
    let start = ExpOpts {
        nodes: 0,
        ..ExpOpts::default()
    };
    let shared = ExpOpts::parse(start, USAGE, |flag, args| {
        match flag {
            "--tiers" => {
                let spec = args.next().ok_or("--tiers needs a list")?;
                let list: Result<Vec<usize>, _> = spec.split(',').map(str::parse).collect();
                let list = list.ok().filter(|list| !list.contains(&0));
                tiers = Some(list.ok_or("--tiers needs positive node counts")?);
            }
            "--full" => full = true,
            "--topology" => {
                let spec = args.next().ok_or("--topology needs a spec")?;
                rack_spine =
                    Some(parse_rack_spine(&spec).ok_or("--topology expects rack:R,spine:S")?);
            }
            "--oversub" => {
                oversub = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--oversub needs a number")?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    });
    let one_tier = (shared.nodes > 0).then(|| vec![shared.nodes]);
    let tiers = tiers.or(one_tier).unwrap_or_else(|| {
        if full {
            vec![8, 64, 256, 1024]
        } else {
            vec![8, 64]
        }
    });
    Opts {
        shared,
        tiers,
        topology: rack_spine.map(|(rack, spines)| Topology::rack_spine(rack, spines, oversub)),
        oversub,
    }
}

/// The default fabric for a tier: racks of 8 (halved for tiny
/// clusters so there are always at least two racks), two spines,
/// the requested oversubscription.
fn default_fabric(nodes: usize, oversub: u32) -> Topology {
    let rack = if nodes >= 16 { 8 } else { (nodes / 2).max(1) };
    Topology::rack_spine(rack, 2, oversub)
}

fn main() {
    let opts = parse_args();
    let seed = opts.shared.seed;
    let dir_hash = DirectoryConfig::on(DirectoryPolicy::Hash);
    // (name, program, config) per cell; a cell's tier is its config's
    // cluster size.
    let mut specs = Vec::new();

    println!(
        "Scale-out suite (seed {seed}): tiers {:?}, oversub {}:1\n",
        opts.tiers, opts.oversub
    );

    for &nodes in &opts.tiers {
        let fabric = opts
            .topology
            .unwrap_or_else(|| default_fabric(nodes, opts.oversub));
        let base = || DsmConfig::paper_cluster(nodes).with_seed(seed);
        let pf = || base().with_prefetch(PrefetchConfig::hand());
        let hotspot = Program::HotSpot;
        let incast = Program::Incast(Incast {
            pages: nodes.min(INCAST_MAX),
        });
        specs.extend([
            ("hotspot_flat", hotspot, base()),
            ("hotspot_fabric", hotspot, base().with_topology(fabric)),
            (
                "hotspot_fabric_dir",
                hotspot,
                base().with_topology(fabric).with_directory(dir_hash),
            ),
            ("incast_flat", incast, pf()),
            ("incast_fabric", incast, pf().with_topology(fabric)),
        ]);

        // The kernels write, and every write interval carries an
        // O(nodes) vector clock broadcast O(nodes) wide at each
        // barrier; past 64 nodes that interval traffic (not the
        // engine) dominates, so the big tiers are measured on the
        // read-only micro-studies instead.
        if nodes <= 64 {
            for (bench, flat_name, fabric_name) in [
                (Benchmark::Radix, "radix_flat", "radix_fabric"),
                (Benchmark::Fft, "fft_flat", "fft_fabric"),
            ] {
                let kernel = Program::Kernel(bench, Scale::Test);
                specs.push((flat_name, kernel, base()));
                specs.push((fabric_name, kernel, base().with_topology(fabric)));
            }
        }
    }
    let names: Vec<&str> = specs.iter().map(|spec| spec.0).collect();
    let cells = specs
        .into_iter()
        .map(|(name, program, config)| Cell {
            label: name.into(),
            program,
            config,
        })
        .collect();
    let reports = sweep(&opts.shared, cells).reports();
    let runs = || {
        names
            .iter()
            .zip(&reports)
            .map(|(&name, r)| (r.config.nodes, name, r))
    };

    // --- Human-readable report ---
    println!(
        "{:>5}  {:<18} {:>14} {:>10} {:>9} {:>8} {:>8}",
        "nodes", "cell", "sim time", "events", "barr us", "homehit", "pfdrops"
    );
    for (tier, name, r) in runs() {
        println!(
            "{:>5}  {:<18} {:>14} {:>10} {:>9} {:>8} {:>8}",
            tier,
            name,
            r.total_time.to_string(),
            r.events_processed,
            r.barriers.stall_sum.as_micros(),
            r.directory.home_hits,
            r.prefetch.send_drops + r.prefetch.reply_drops,
        );
    }

    // --- Breakdown analysis per tier ---
    println!("\nper-tier breakdown (hot-spot cell unless noted):");
    for &nodes in &opts.tiers {
        let get = |name: &str| {
            runs()
                .find(|run| run.0 == nodes && run.1 == name)
                .map(|run| run.2)
        };
        let (Some(flat), Some(fabric), Some(dir)) = (
            get("hotspot_flat"),
            get("hotspot_fabric"),
            get("hotspot_fabric_dir"),
        ) else {
            continue;
        };
        let total = flat.total_time.as_nanos() as f64 * nodes as f64;
        let barrier_share = if total == 0.0 {
            0.0
        } else {
            100.0 * flat.barriers.stall_sum.as_nanos() as f64 / total
        };
        println!(
            "  {nodes:>5} nodes: barrier cost {barrier_share:.1}% of node-time (flat), \
             fabric slows hot-spot {:.2}x, directory spreads {} home hits \
             and recovers to {:.2}x",
            fabric.total_time.as_nanos() as f64 / flat.total_time.as_nanos() as f64,
            dir.directory.home_hits,
            dir.total_time.as_nanos() as f64 / flat.total_time.as_nanos() as f64,
        );
        if let Some(inc) = get("incast_fabric") {
            let p = &inc.prefetch;
            println!(
                "  {nodes:>5} nodes: incast storm dropped {} prefetch replies \
                 ({} requests lost), {} demand retries, max queue delay {} us",
                p.reply_drops,
                p.send_drops,
                inc.transport.retransmissions,
                inc.net.max_queue_delay.as_micros(),
            );
        }
    }

    // --- Machine-readable artifact ---
    if let Some(path) = &opts.shared.bench_json {
        let cells = runs().map(|(tier, name, r)| {
            Json::line(vec![
                ("nodes", Json::num(tier)),
                ("cell", Json::str(name)),
                ("sim_us", Json::num(r.total_time.as_micros())),
                ("events", Json::num(r.events_processed)),
                (
                    "barrier_stall_us",
                    Json::num(r.barriers.stall_sum.as_micros()),
                ),
                (
                    "max_queue_delay_us",
                    Json::num(r.net.max_queue_delay.as_micros()),
                ),
                ("dir_home_hits", Json::num(r.directory.home_hits)),
                ("dir_migrations", Json::num(r.directory.migrations)),
                ("pf_reply_drops", Json::num(r.prefetch.reply_drops)),
                ("retransmissions", Json::num(r.transport.retransmissions)),
            ])
        });
        let config = Json::line(vec![
            ("seed", Json::num(seed)),
            ("tiers", Json::num(format!("{:?}", opts.tiers))),
            ("oversub", Json::num(opts.oversub)),
        ]);
        Json::block(vec![
            ("config", config),
            ("cells", Json::list(cells.collect())),
        ])
        .write_file(path);
        println!("\nwrote {path}");
    }
}

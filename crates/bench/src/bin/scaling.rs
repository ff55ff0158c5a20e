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

use rsdsm_apps::{Benchmark, HotSpot, Incast, Scale};
use rsdsm_bench::ExpOpts;
use rsdsm_core::{
    DirectoryConfig, DirectoryPolicy, DsmConfig, DsmTask, PrefetchConfig, RunReport, Simulation,
    Topology,
};

/// Upper bound on incast fan-in (memory guard: every node holds a
/// slot for every allocated page, so the page count must stay fixed
/// as the cluster grows).
const INCAST_MAX: usize = 64;

const USAGE: &str = "scaling [--nodes N] [--tiers A,B,..] [--full] \
     [--topology rack:R,spine:S] [--oversub K] [--seed S] [--bench-json PATH]";

struct Opts {
    seed: u64,
    tiers: Vec<usize>,
    topology: Option<Topology>,
    oversub: u32,
    bench_json: Option<String>,
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
    // `--nodes N` is a one-tier sweep; 0 stands for "not given".
    let start = ExpOpts {
        nodes: 0,
        ..ExpOpts::default()
    };
    let shared = ExpOpts::parse(start, USAGE, |flag, args| {
        match flag {
            "--tiers" => {
                let spec = args.next().ok_or("--tiers needs a list")?;
                let list: Result<Vec<usize>, _> = spec.split(',').map(str::parse).collect();
                tiers = Some(list.map_err(|_| "bad tier")?);
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
        seed: shared.seed,
        tiers,
        topology: rack_spine.map(|(rack, spines)| Topology::rack_spine(rack, spines, oversub)),
        oversub,
        bench_json: shared.bench_json,
    }
}

/// The default fabric for a tier: racks of 8 (halved for tiny
/// clusters so there are always at least two racks), two spines,
/// the requested oversubscription.
fn default_fabric(nodes: usize, oversub: u32) -> Topology {
    let rack = if nodes >= 16 { 8 } else { (nodes / 2).max(1) };
    Topology::rack_spine(rack, 2, oversub)
}

/// One measured cell of the suite.
struct Cell {
    tier: usize,
    name: &'static str,
    report: RunReport,
}

fn run_cell(tier: usize, name: &'static str, cfg: DsmConfig, app: &dyn Runnable) -> Cell {
    let report = app
        .run(cfg)
        .unwrap_or_else(|e| panic!("{name} at {tier} nodes: {e}"));
    assert!(
        report.verified,
        "{name} at {tier} nodes failed verification"
    );
    Cell { tier, name, report }
}

/// Erases the difference between the micro-study programs and the
/// suite kernels so one runner covers both.
trait Runnable {
    fn run(&self, cfg: DsmConfig) -> Result<RunReport, rsdsm_core::SimError>;
}

struct Micro<P: DsmTask>(P);

impl<P: DsmTask> Runnable for Micro<P> {
    fn run(&self, cfg: DsmConfig) -> Result<RunReport, rsdsm_core::SimError> {
        Simulation::new(cfg).run(&self.0)
    }
}

struct Kernel(Benchmark);

impl Runnable for Kernel {
    fn run(&self, cfg: DsmConfig) -> Result<RunReport, rsdsm_core::SimError> {
        self.0.run(Scale::Test, cfg)
    }
}

fn main() {
    let opts = parse_args();
    let dir_hash = DirectoryConfig::on(DirectoryPolicy::Hash);
    let mut cells: Vec<Cell> = Vec::new();

    println!(
        "Scale-out suite (seed {}): tiers {:?}, oversub {}:1\n",
        opts.seed, opts.tiers, opts.oversub
    );

    for &nodes in &opts.tiers {
        let fabric = opts
            .topology
            .unwrap_or_else(|| default_fabric(nodes, opts.oversub));
        let base = || DsmConfig::paper_cluster(nodes).with_seed(opts.seed);
        let pf = PrefetchConfig::hand();
        let incast = Incast {
            pages: nodes.min(INCAST_MAX),
        };

        cells.push(run_cell(nodes, "hotspot_flat", base(), &Micro(HotSpot)));
        cells.push(run_cell(
            nodes,
            "hotspot_fabric",
            base().with_topology(fabric),
            &Micro(HotSpot),
        ));
        cells.push(run_cell(
            nodes,
            "hotspot_fabric_dir",
            base().with_topology(fabric).with_directory(dir_hash),
            &Micro(HotSpot),
        ));
        cells.push(run_cell(
            nodes,
            "incast_flat",
            base().with_prefetch(pf.clone()),
            &Micro(incast),
        ));
        cells.push(run_cell(
            nodes,
            "incast_fabric",
            base().with_prefetch(pf.clone()).with_topology(fabric),
            &Micro(incast),
        ));

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
                cells.push(run_cell(nodes, flat_name, base(), &Kernel(bench)));
                cells.push(run_cell(
                    nodes,
                    fabric_name,
                    base().with_topology(fabric),
                    &Kernel(bench),
                ));
            }
        }
    }

    // --- Human-readable report ---
    println!(
        "{:>5}  {:<18} {:>14} {:>10} {:>9} {:>8} {:>8}",
        "nodes", "cell", "sim time", "events", "barr us", "homehit", "pfdrops"
    );
    for c in &cells {
        let r = &c.report;
        println!(
            "{:>5}  {:<18} {:>14} {:>10} {:>9} {:>8} {:>8}",
            c.tier,
            c.name,
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
        let get = |name: &str| cells.iter().find(|c| c.tier == nodes && c.name == name);
        let (Some(flat), Some(fabric), Some(dir)) = (
            get("hotspot_flat"),
            get("hotspot_fabric"),
            get("hotspot_fabric_dir"),
        ) else {
            continue;
        };
        let barrier_share = |c: &Cell| {
            let total = c.report.total_time.as_nanos() as f64 * nodes as f64;
            if total == 0.0 {
                0.0
            } else {
                100.0 * c.report.barriers.stall_sum.as_nanos() as f64 / total
            }
        };
        println!(
            "  {nodes:>5} nodes: barrier cost {:.1}% of node-time (flat), \
             fabric slows hot-spot {:.2}x, directory spreads {} home hits \
             and recovers to {:.2}x",
            barrier_share(flat),
            fabric.report.total_time.as_nanos() as f64 / flat.report.total_time.as_nanos() as f64,
            dir.report.directory.home_hits,
            dir.report.total_time.as_nanos() as f64 / flat.report.total_time.as_nanos() as f64,
        );
        if let Some(inc) = get("incast_fabric") {
            let p = &inc.report.prefetch;
            println!(
                "  {nodes:>5} nodes: incast storm dropped {} prefetch replies \
                 ({} requests lost), {} demand retries, max queue delay {} us",
                p.reply_drops,
                p.send_drops,
                inc.report.transport.retransmissions,
                inc.report.net.max_queue_delay.as_micros(),
            );
        }
    }

    // --- Machine-readable artifact ---
    if let Some(path) = &opts.bench_json {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"config\": {{\"seed\": {}, \"tiers\": {:?}, \"oversub\": {}}},\n",
            opts.seed, opts.tiers, opts.oversub
        ));
        json.push_str("  \"cells\": [\n");
        for (i, c) in cells.iter().enumerate() {
            let r = &c.report;
            let comma = if i + 1 < cells.len() { "," } else { "" };
            json.push_str(&format!(
                "    {{\"nodes\": {}, \"cell\": \"{}\", \"sim_us\": {}, \
                 \"events\": {}, \
                 \"barrier_stall_us\": {}, \"max_queue_delay_us\": {}, \
                 \"dir_home_hits\": {}, \"dir_migrations\": {}, \
                 \"pf_reply_drops\": {}, \"retransmissions\": {}}}{comma}\n",
                c.tier,
                c.name,
                r.total_time.as_micros(),
                r.events_processed,
                r.barriers.stall_sum.as_micros(),
                r.net.max_queue_delay.as_micros(),
                r.directory.home_hits,
                r.directory.migrations,
                r.prefetch.reply_drops,
                r.transport.retransmissions,
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
    }
}

//! Figure 3: breakdown of the original remote misses under
//! prefetching — no-pf / pf-miss:invalidated / pf-miss:too-late /
//! pf-hit, normalized to all faults.

use rsdsm_bench::{ascii_table, sweep, ExpOpts, Variant};
use rsdsm_stats::percent;

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Figure 3: what happened to the original remote misses (prefetching run) — {} nodes, {:?} scale\n",
        opts.nodes, opts.scale
    );
    let mut table = ascii_table(
        1,
        vec![
            "Benchmark",
            "no pf",
            "pf-miss: invalidated",
            "pf-miss: too late",
            "pf-hit",
        ],
    );
    let mut runs = sweep(&opts, opts.matrix(&[Variant::Prefetch]));
    for &bench in &opts.apps {
        let pf = runs.take();
        let p = &pf.prefetch;
        let total = p.no_pf + p.invalidated + p.too_late + p.hits;
        table.add_row(vec![
            bench.name().to_string(),
            format!("{:.0}%", percent(p.no_pf, total)),
            format!("{:.0}%", percent(p.invalidated, total)),
            format!("{:.0}%", percent(p.too_late, total)),
            format!("{:.0}%", percent(p.hits, total)),
        ]);
    }
    println!("{table}");
}

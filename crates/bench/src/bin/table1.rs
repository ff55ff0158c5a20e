//! Table 1: prefetching statistics — unnecessary prefetches, coverage
//! factor, total traffic, total misses, and average miss latency for
//! the original and prefetching runs.

use rsdsm_bench::{ascii_table, sweep, table1_row, ExpOpts, Variant};

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Table 1: prefetching statistics (O = original, P = with prefetching) — {} nodes, {:?} scale\n",
        opts.nodes, opts.scale
    );
    let mut table = ascii_table(
        1,
        vec![
            "Benchmark",
            "Unnecessary",
            "Coverage",
            "Traffic O (KB)",
            "Traffic P (KB)",
            "Misses O",
            "Misses P",
            "Avg Lat O (us)",
            "Avg Lat P (us)",
        ],
    );
    let mut runs = sweep(&opts, opts.matrix(&[Variant::Original, Variant::Prefetch]));
    for &bench in &opts.apps {
        let (orig, pf) = (runs.take(), runs.take());
        table.add_row(table1_row(bench, &orig, &pf));
    }
    println!("{table}");
}

//! Figure 1: execution time breakdown of unmodified TreadMarks on
//! eight ATM-connected workstations.
//!
//! Prints, per application, the normalized stacked-bar percentages of
//! the paper's four baseline categories.

use rsdsm_bench::{fig1_row, sweep, ExpOpts, Variant};

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Figure 1: baseline TreadMarks execution time breakdown ({} nodes, {:?} scale)\n",
        opts.nodes, opts.scale
    );
    let mut runs = sweep(&opts, opts.matrix(&[Variant::Original]));
    for &bench in &opts.apps {
        println!("{}", fig1_row(bench, &runs.take()));
    }
}

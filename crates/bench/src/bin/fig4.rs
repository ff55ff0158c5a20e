//! Figure 4: performance impact of multithreading with 2, 4, and 8
//! threads per processor, normalized to the original run.

use rsdsm_bench::{sweep, ExpOpts, Variant};
use rsdsm_stats::{render_bars, speedup_label, Bar};

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Figure 4: impact of multithreading (O = original, nT = n threads/processor) — {} nodes, {:?} scale\n",
        opts.nodes, opts.scale
    );
    let cells = opts.matrix(&[
        Variant::Original,
        Variant::Threads(2),
        Variant::Threads(4),
        Variant::Threads(8),
    ]);
    let mut runs = sweep(&opts, cells);
    for &bench in &opts.apps {
        let orig = runs.take();
        let mut bars = vec![Bar::new("O", orig.breakdown)];
        let mut best = (String::from("O"), orig.total_time);
        for n in [2usize, 4, 8] {
            let report = runs.take();
            if report.total_time < best.1 {
                best = (format!("{n}T"), report.total_time);
            }
            bars.push(Bar::new(format!("{n}T"), report.breakdown));
        }
        println!(
            "{}",
            render_bars(bench.name(), &bars, orig.breakdown.total())
        );
        println!(
            "  best: {} (speedup {})\n",
            best.0,
            speedup_label(orig.total_time, best.1)
        );
    }
}

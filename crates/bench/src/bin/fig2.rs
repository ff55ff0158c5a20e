//! Figure 2: performance impact of prefetching (O vs P), normalized
//! to the original execution time, with the prefetch-overhead
//! category and the paper's speedup summary.

use rsdsm_bench::{sweep, ExpOpts, Variant};
use rsdsm_stats::{render_bars, speedup_label, Bar};

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Figure 2: impact of prefetching (O = original, P = with prefetching) — {} nodes, {:?} scale\n",
        opts.nodes, opts.scale
    );
    let mut runs = sweep(&opts, opts.matrix(&[Variant::Original, Variant::Prefetch]));
    for &bench in &opts.apps {
        let orig = runs.take();
        let pf = runs.take();
        let bars = [Bar::new("O", orig.breakdown), Bar::new("P", pf.breakdown)];
        println!(
            "{}",
            render_bars(bench.name(), &bars, orig.breakdown.total())
        );
        let mem_orig = orig.breakdown[rsdsm_core::Category::MemoryIdle];
        let mem_pf = pf.breakdown[rsdsm_core::Category::MemoryIdle];
        let mem_cut = if mem_orig.is_zero() {
            0.0
        } else {
            100.0 * (1.0 - mem_pf.as_nanos() as f64 / mem_orig.as_nanos() as f64)
        };
        println!(
            "  speedup {}   memory-stall reduction {:.0}%\n",
            speedup_label(orig.total_time, pf.total_time),
            mem_cut,
        );
    }
}

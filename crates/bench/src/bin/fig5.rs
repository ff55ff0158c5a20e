//! Figure 5: combining prefetching and multithreading — O, nT, P,
//! and nTP bars normalized to the original run, with the paper's
//! best-variant summary.

use rsdsm_bench::{sweep, ExpOpts, Variant};
use rsdsm_stats::{render_bars, speedup_label, Bar};

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Figure 5: combining prefetching and multithreading — {} nodes, {:?} scale\n\
         (O = original, nT = threads only, P = prefetching only, nTP = combined)\n",
        opts.nodes, opts.scale
    );
    let cells = opts.matrix(&[
        Variant::Original,
        Variant::Threads(2),
        Variant::Threads(4),
        Variant::Threads(8),
        Variant::Prefetch,
        Variant::Combined(2),
        Variant::Combined(4),
        Variant::Combined(8),
    ]);
    let mut runs = sweep(&opts, cells);
    for &bench in &opts.apps {
        let orig = runs.take();
        let mut bars = vec![Bar::new("O", orig.breakdown)];
        let mut best = (String::from("O"), orig.total_time);
        let mut track = |label: String, t: rsdsm_simnet::SimDuration| {
            if t < best.1 {
                best = (label, t);
            }
        };
        for n in [2usize, 4, 8] {
            let r = runs.take();
            track(format!("{n}T"), r.total_time);
            bars.push(Bar::new(format!("{n}T"), r.breakdown));
        }
        let p = runs.take();
        track("P".into(), p.total_time);
        bars.push(Bar::new("P", p.breakdown));
        for n in [2usize, 4, 8] {
            let r = runs.take();
            track(format!("{n}TP"), r.total_time);
            bars.push(Bar::new(format!("{n}TP"), r.breakdown));
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

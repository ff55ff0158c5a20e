//! Table 2: multithreading statistics — average stall time, average
//! run length, message counts and volume, and per-category remote
//! event counts with their stall times.

use rsdsm_bench::{ascii_table, sweep, ExpOpts, Variant};

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Table 2: multithreading statistics (O = original, nT = n threads/processor) — {} nodes, {:?} scale\n",
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
        let mut table = ascii_table(
            1,
            vec![
                "Cfg",
                "Avg Stall (us)",
                "Avg Run Len (us)",
                "Msgs",
                "Volume (KB)",
                "Misses",
                "Miss Stall (us)",
                "Rem Locks",
                "Lock Stall (us)",
                "Barriers",
                "Barr Stall (us)",
            ],
        );
        for label in ["O", "2T", "4T", "8T"] {
            let r = runs.take();
            let avg_miss = if r.misses.misses == 0 {
                0
            } else {
                (r.misses.stall_sum / r.misses.misses).as_micros()
            };
            table.add_row(vec![
                label.to_string(),
                r.mt.avg_stall().as_micros().to_string(),
                r.mt.avg_run_length().as_micros().to_string(),
                r.net.total_msgs.to_string(),
                (r.net.total_bytes / 1024).to_string(),
                r.misses.misses.to_string(),
                avg_miss.to_string(),
                r.locks.events.to_string(),
                r.locks.avg_stall().as_micros().to_string(),
                r.barriers.events.to_string(),
                r.barriers.avg_stall().as_micros().to_string(),
            ]);
        }
        println!("{}\n{table}", bench.name());
    }
}

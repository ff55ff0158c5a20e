//! Ablation experiments for the design choices the paper discusses
//! but does not plot:
//!
//! 1. **Naive combination** (§5): applying multithreading to *memory*
//!    latency as well as synchronization while also prefetching —
//!    the approach the paper tried first and rejected.
//! 2. **Redundant-prefetch suppression** (§5.1): the per-node dynamic
//!    flag that stops sibling threads re-prefetching the same pages.
//! 3. **RADIX prefetch throttling** (§5.1).
//! 4. **Reliable prefetches** (§3.1 footnote 3): what happens if
//!    prefetch messages are never dropped.
//! 5. **Context-switch cost sensitivity** (§4.3).
//! 6. **Automatic prefetching** (§3, §6): hand-inserted prefetches vs
//!    a history-based runtime prefetcher.
//!
//! Each section sweeps its own cells; under `--trace`, `--trace-metrics`
//! or a fault flag every cell prints its lines, the tweaked ones under
//! labels such as `4TP-naive` or `2T-55us`.

use rsdsm_apps::Benchmark;
use rsdsm_bench::{ascii_table, sweep, Cell, ExpOpts, Variant};
use rsdsm_core::RunReport;
use rsdsm_stats::speedup_label;

fn main() {
    let opts = ExpOpts::from_args();
    println!("Ablations ({} nodes, {:?} scale)\n", opts.nodes, opts.scale);
    naive_combination(&opts);
    suppression(&opts);
    radix_throttle(&opts);
    reliable_prefetch(&opts);
    switch_cost(&opts);
    automatic_prefetch(&opts);
}

/// Sweeps `cells(key)` for every key as one sweep and hands back each
/// key's reports (every cell's lines are printed as it is taken).
fn per_key<K: Copy, const N: usize>(
    opts: &ExpOpts,
    keys: &[K],
    cells: impl Fn(K) -> [Cell; N],
) -> Vec<(K, [RunReport; N])> {
    let mut runs = sweep(opts, keys.iter().flat_map(|&k| cells(k)).collect());
    keys.iter()
        .map(|&k| (k, std::array::from_fn(|_| runs.take())))
        .collect()
}

/// §3 / §6: hand-inserted prefetching vs a Bianchini-style
/// history-based runtime prefetcher (the paper's claim: explicit
/// insertion prefetches "more intelligently and more aggressively").
fn automatic_prefetch(opts: &ExpOpts) {
    println!("6. Hand-inserted vs automatic (history-based) prefetching");
    let mut t = ascii_table(
        1,
        vec![
            "App",
            "O total",
            "hand total",
            "auto total",
            "hand cover",
            "auto cover",
        ],
    );
    let benches = [
        Benchmark::Sor,
        Benchmark::Fft,
        Benchmark::WaterNsq,
        Benchmark::Ocean,
    ];
    let variants = [Variant::Original, Variant::Prefetch, Variant::History];
    for (bench, [orig, hand, auto]) in per_key(opts, &benches, |bench| {
        variants.map(|v| Cell::variant(bench, v, opts))
    }) {
        t.add_row(vec![
            bench.name().into(),
            orig.total_time.to_string(),
            hand.total_time.to_string(),
            auto.total_time.to_string(),
            format!("{:.0}%", hand.prefetch.coverage() * 100.0),
            format!("{:.0}%", auto.prefetch.coverage() * 100.0),
        ]);
    }
    println!("{t}");
}

/// §5: "we apply both prefetching and multithreading to memory
/// latency" — the rejected design.
fn naive_combination(opts: &ExpOpts) {
    println!("1. Combined approach: switch on sync only (paper) vs switch on everything (naive)");
    let mut t = ascii_table(
        1,
        vec![
            "App",
            "O total",
            "4TP (paper)",
            "4TP (naive)",
            "paper speedup",
            "naive speedup",
        ],
    );
    let benches = [Benchmark::Fft, Benchmark::WaterNsq, Benchmark::Sor];
    for (bench, [orig, paper, naive]) in per_key(opts, &benches, |bench| {
        [
            Cell::variant(bench, Variant::Original, opts),
            Cell::variant(bench, Variant::Combined(4), opts),
            Cell::variant(bench, Variant::Combined(4), opts).tweaked("naive", |cfg| {
                cfg.threads.switch_on_memory = true;
            }),
        ]
    }) {
        t.add_row(vec![
            bench.name().into(),
            orig.total_time.to_string(),
            paper.total_time.to_string(),
            naive.total_time.to_string(),
            speedup_label(orig.total_time, paper.total_time),
            speedup_label(orig.total_time, naive.total_time),
        ]);
    }
    println!("{t}");
}

/// §5.1: value of the redundant-prefetch suppression flag.
fn suppression(opts: &ExpOpts) {
    println!("2. Redundant-prefetch suppression in combined mode (4 threads/node)");
    let mut t = ascii_table(
        1,
        vec![
            "App",
            "pf msgs (on)",
            "pf msgs (off)",
            "total (on)",
            "total (off)",
        ],
    );
    let benches = [Benchmark::WaterNsq, Benchmark::Ocean, Benchmark::Sor];
    for (bench, [on, off]) in per_key(opts, &benches, |bench| {
        [
            Cell::variant(bench, Variant::Combined(4), opts),
            Cell::variant(bench, Variant::Combined(4), opts).tweaked("nosuppress", |cfg| {
                cfg.prefetch.suppress_redundant = false;
            }),
        ]
    }) {
        t.add_row(vec![
            bench.name().into(),
            on.prefetch.messages.to_string(),
            off.prefetch.messages.to_string(),
            on.total_time.to_string(),
            off.total_time.to_string(),
        ]);
    }
    println!("{t}");
}

/// §5.1: RADIX throttling (every other prefetch dropped).
fn radix_throttle(opts: &ExpOpts) {
    println!("3. RADIX prefetch throttling in combined mode (4 threads/node)");
    let (_, [with, without]) = per_key(opts, &[Benchmark::Radix], |bench| {
        [
            Cell::variant(bench, Variant::Combined(4), opts),
            Cell::variant(bench, Variant::Combined(4), opts).tweaked("unthrottled", |cfg| {
                cfg.prefetch.throttle = 1;
            }),
        ]
    })
    .remove(0);
    println!(
        "  throttled:   total {}  pf msgs {}  drops {}\n  unthrottled: total {}  pf msgs {}  drops {}\n",
        with.total_time,
        with.prefetch.messages,
        with.net.drops,
        without.total_time,
        without.prefetch.messages,
        without.net.drops,
    );
}

/// §3.1 footnote 3: reliable vs droppable prefetch messages.
fn reliable_prefetch(opts: &ExpOpts) {
    println!("4. Reliable vs droppable prefetch messages (prefetch-only runs)");
    let mut t = ascii_table(
        1,
        vec![
            "App",
            "droppable total",
            "reliable total",
            "drops (droppable)",
        ],
    );
    let benches = [Benchmark::Fft, Benchmark::Radix, Benchmark::Sor];
    for (bench, [droppable, reliable]) in per_key(opts, &benches, |bench| {
        [
            Cell::variant(bench, Variant::Prefetch, opts),
            Cell::variant(bench, Variant::Prefetch, opts).tweaked("reliable", |cfg| {
                cfg.prefetch.reliable = true;
            }),
        ]
    }) {
        t.add_row(vec![
            bench.name().into(),
            droppable.total_time.to_string(),
            reliable.total_time.to_string(),
            droppable.net.drops.to_string(),
        ]);
    }
    println!("{t}");
}

/// §4.3: sensitivity of multithreading to the context-switch cost.
fn switch_cost(opts: &ExpOpts) {
    println!("5. Context-switch cost sensitivity (WATER-SP, 2 threads/node)");
    let mut t = ascii_table(0, vec!["switch cost", "total", "switches"]);
    for (micros, [r]) in per_key(opts, &[0u64, 55, 110, 220, 440], |micros| {
        let what = format!("{micros}us");
        [
            Cell::variant(Benchmark::WaterSp, Variant::Threads(2), opts).tweaked(&what, |cfg| {
                cfg.costs.context_switch = rsdsm_simnet::SimDuration::from_micros(micros);
            }),
        ]
    }) {
        t.add_row(vec![
            format!("{micros}us"),
            r.total_time.to_string(),
            r.mt.switches.to_string(),
        ]);
    }
    println!("{t}");
}

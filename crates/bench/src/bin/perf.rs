//! The performance pinner: measures the hot-path primitives this
//! crate's optimization passes claim and emits the numbers as
//! machine-readable JSON (committed as `BENCH_matrix.json`). Whole
//! runs are `rsbench`'s job (`benchmark/`): warm, pinned, end to end.
//!
//! Unlike `cargo bench` (the criterion micro-suite, which prints
//! per-op wall-clock for eyeballing), this binary asserts nothing and
//! measures *ratios* on the same machine in the same process — the
//! only form in which cross-machine perf claims are honest:
//!
//! * `diff_between` — the word-at-a-time bitmap scan vs the
//!   byte-at-a-time reference, on sparse, dense and `f64`-per-word
//!   pages (interleaved rounds, median-of-rounds ratio).
//! * `trace_encode` — RTR1 encoding with exact pre-sizing, per event.
//! * `fault_summary` — the single-buffer summary-line formatter.
//! * `queue_replay` — the timing-wheel event queue vs the binary-heap
//!   reference on a million-event RADIX-shaped schedule (interleaved
//!   rounds, median-of-rounds ratio).
//! * `checkpoint_check` — the persistence device's word-wise check
//!   (what `CommitRecord::for_payload` computes) vs byte FNV-1a over
//!   one 64-page segmented image (interleaved rounds,
//!   median-of-rounds ratio).
//!
//! Usage: `perf [--bench-json PATH]` (plus the usual
//! experiment flags; `--test-scale` is the default for CI budgets).

use std::time::Instant;

use rsdsm_apps::{Benchmark, Scale};
use rsdsm_bench::{diff_shapes, queue_replay, ExpOpts, Variant};
use rsdsm_core::{
    fnv1a, AdaptiveConfig, Checkpoint, CommitRecord, DsmConfig, FaultPlan, MissClass, PageImage,
    StrideDetector, ThrottleController,
};
use rsdsm_protocol::{Diff, VectorClock};
use rsdsm_simnet::{EventQueue, HeapQueue};

/// One measured quantity, reported in nanoseconds.
struct Sample {
    name: &'static str,
    /// Mean wall-clock per iteration, nanoseconds.
    nanos: f64,
    iters: u64,
}

/// Times `f` over `iters` iterations and returns the mean ns/iter.
fn time<O>(iters: u64, mut f: impl FnMut() -> O) -> f64 {
    // One warm-up pass keeps first-touch page faults and lazy init
    // out of the measurement.
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The median of per-round ratios — the form of a ratio a regression
/// gate can trust: one disturbed round moves a mean, not this.
fn median(mut ratios: Vec<f64>) -> f64 {
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    ratios[ratios.len() / 2]
}

fn main() {
    let opts = ExpOpts::from_args();
    let mut samples: Vec<Sample> = Vec::new();
    let mut ratios: Vec<(&'static str, f64)> = Vec::new();

    // --- Diff::between: bitmap scan vs byte-at-a-time reference ---
    // Both scans run interleaved, round by round, so whatever disturbs
    // the machine disturbs both: the best round is each side's time,
    // the median of the per-round ratios the speedup CI gates.
    for (label_new, label_ref, label_ratio, (twin, current)) in [
        (
            "diff_between_sparse_ns",
            "diff_between_sparse_reference_ns",
            "diff_between_sparse_speedup",
            diff_shapes::strided(256),
        ),
        (
            "diff_between_dense_ns",
            "diff_between_dense_reference_ns",
            "diff_between_dense_speedup",
            diff_shapes::strided(8),
        ),
        (
            "diff_between_f64_ns",
            "diff_between_f64_reference_ns",
            "diff_between_f64_speedup",
            diff_shapes::f64_words(),
        ),
    ] {
        let iters = 1_000;
        let rounds = 9;
        let (mut fast, mut slow) = (f64::INFINITY, f64::INFINITY);
        let mut round_ratios = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let new = time(iters, || Diff::between(&twin, &current));
            let reference = time(iters, || Diff::between_reference(&twin, &current));
            fast = fast.min(new);
            slow = slow.min(reference);
            round_ratios.push(reference / new);
        }
        samples.push(Sample {
            name: label_new,
            nanos: fast,
            iters: iters * rounds as u64,
        });
        samples.push(Sample {
            name: label_ref,
            nanos: slow,
            iters: iters * rounds as u64,
        });
        ratios.push((label_ratio, median(round_ratios)));
    }

    // --- The device check vs byte FNV-1a, over a persisted image ---
    let image = Checkpoint {
        node: 0,
        epoch: 4,
        vc: VectorClock::new(8),
        pages: (0..64)
            .map(|index| PageImage {
                index,
                valid: true,
                data: diff_shapes::strided(8).1,
            })
            .collect(),
        diffs: Vec::new(),
        intervals: Vec::new(),
        tokens: Vec::new(),
    }
    .encode_segmented();
    let (iters, rounds) = (200, 9);
    let (mut fast, mut slow) = (f64::INFINITY, f64::INFINITY);
    let mut round_ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let new = time(iters, || CommitRecord::for_payload(4, 1, &image));
        let reference = time(iters, || fnv1a(&image));
        fast = fast.min(new);
        slow = slow.min(reference);
        round_ratios.push(reference / new);
    }
    for (name, nanos) in [
        ("checkpoint_check_64pages_ns", fast),
        ("checkpoint_fnv1a_64pages_ns", slow),
    ] {
        samples.push(Sample {
            name,
            nanos,
            iters: iters * rounds as u64,
        });
    }
    ratios.push(("checkpoint_check_speedup", median(round_ratios)));

    // --- RTR1 trace encoding (exact pre-sizing) ---
    let (_, trace) = Benchmark::Radix
        .run_traced(
            Scale::Test,
            Variant::Combined(2).config(Benchmark::Radix, &opts),
        )
        .expect("traced RADIX");
    let iters = 200;
    let encode = time(iters, || trace.encode());
    samples.push(Sample {
        name: "trace_encode_ns",
        nanos: encode,
        iters,
    });
    samples.push(Sample {
        name: "trace_encode_ns_per_event",
        nanos: encode / trace.len() as f64,
        iters,
    });

    // --- fault_summary_line (single-buffer formatter) ---
    let lossy = Benchmark::Fft
        .run(
            Scale::Test,
            DsmConfig::paper_cluster(opts.nodes)
                .with_seed(opts.seed)
                .with_faults(FaultPlan::uniform_loss(0xFA11, 0.05)),
        )
        .expect("lossy FFT");
    let iters = 20_000;
    samples.push(Sample {
        name: "fault_summary_line_ns",
        nanos: time(iters, || lossy.fault_summary_line()),
        iters,
    });

    // --- Adaptive-prefetch per-fault hot path ---
    // The detector's amortized-O(1) claim, measured: one observe on a
    // steady strided stream (ring slide + two count updates) and on a
    // trendless stream (maximal count churn), plus the throttle's
    // feedback fold. These run on every remote fault of an adaptive
    // run, so they must stay in the tens of nanoseconds.
    let iters = 1_000_000;
    let mut detector = StrideDetector::new(8);
    let mut page = 0u64;
    samples.push(Sample {
        name: "prefetch_detect_steady_ns",
        nanos: time(iters, || {
            page += 2;
            detector.observe(page)
        }),
        iters,
    });
    let mut detector = StrideDetector::new(8);
    let mut page = 0u64;
    let mut step = 1u64;
    samples.push(Sample {
        name: "prefetch_detect_trendless_ns",
        nanos: time(iters, || {
            step = step % 97 + 1;
            page += step;
            detector.observe(page)
        }),
        iters,
    });
    let mut throttle = ThrottleController::new(&AdaptiveConfig::on());
    let mut k = 0u64;
    samples.push(Sample {
        name: "prefetch_throttle_observe_ns",
        nanos: time(iters, || {
            k += 1;
            throttle.observe(if k.is_multiple_of(3) {
                MissClass::Hit
            } else {
                MissClass::NoPf
            })
        }),
        iters,
    });

    // --- Event-queue replay: timing wheel vs binary-heap reference ---
    // A million-step RADIX-shaped schedule (see
    // `rsdsm_bench::queue_replay`) against a million-event standing
    // population. Each step is one pop plus one push, so a step
    // processes two queue events.
    // The standing population is one million pending events — the
    // regime the ROADMAP's datacenter scale-out items (64–1024 nodes)
    // put the engine in, and the regime the rewrite exists for: the
    // heap reference pays ~log₂(10⁶) sift levels over a ~24 MB
    // working set per operation, while the wheel's cost is bounded by
    // its geometry and stays flat as the population grows.
    //
    // Priming and the delta schedule are outside the measurement: the
    // timed region is queue work plus the checksum fold only. A single
    // pass per backend is too noisy for a pinned ratio — the heap's
    // working set makes it hypersensitive to ambient memory pressure —
    // so we run interleaved rounds and report the best ns/event per
    // backend alongside the *median* of the per-round adjacent ratios
    // (the ratio a regression gate can trust).
    let population = 1_000_000;
    let steps = 1_000_000u64;
    let rounds = 5;
    let mut best_ns = [f64::INFINITY; 2];
    let mut round_ratios = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut pair = [0.0f64; 2];
        let mut checksums = [0u64; 2];
        for i in 0..2 {
            let ns_total = if i == 0 {
                let mut q = EventQueue::with_capacity(population as usize);
                let mut rng = queue_replay::prime(&mut q, population, 0x5D5);
                let deltas = queue_replay::schedule(&mut rng, steps);
                let start = Instant::now();
                checksums[i] = queue_replay::replay(&mut q, &deltas);
                start.elapsed().as_nanos() as f64
            } else {
                let mut q = HeapQueue::with_capacity(population as usize);
                let mut rng = queue_replay::prime(&mut q, population, 0x5D5);
                let deltas = queue_replay::schedule(&mut rng, steps);
                let start = Instant::now();
                checksums[i] = queue_replay::replay(&mut q, &deltas);
                start.elapsed().as_nanos() as f64
            };
            pair[i] = ns_total / (2.0 * steps as f64);
            best_ns[i] = best_ns[i].min(pair[i]);
        }
        assert_eq!(
            checksums[0], checksums[1],
            "wheel and heap diverged during the perf replay"
        );
        round_ratios.push(pair[1] / pair[0]);
    }
    let median_ratio = median(round_ratios);
    for (i, name) in [
        "queue_wheel_replay_ns_per_event",
        "queue_heap_replay_ns_per_event",
    ]
    .into_iter()
    .enumerate()
    {
        samples.push(Sample {
            name,
            nanos: best_ns[i],
            iters: 2 * steps * rounds as u64,
        });
    }
    ratios.push(("queue_replay_speedup", median_ratio));

    // --- Report ---
    println!(
        "perf: {} nodes, {:?} scale, seed {}",
        opts.nodes, opts.scale, opts.seed
    );
    for s in &samples {
        println!(
            "  {:<36} {:>14.1} ns/iter  ({} iters)",
            s.name, s.nanos, s.iters
        );
    }
    for (name, ratio) in &ratios {
        println!("  {name:<36} {ratio:>13.2}x");
    }

    if let Some(path) = &opts.bench_json {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"config\": {{\"nodes\": {}, \"scale\": \"{:?}\", \"seed\": {}}},\n",
            opts.nodes, opts.scale, opts.seed
        ));
        json.push_str("  \"samples_ns\": {\n");
        for (i, s) in samples.iter().enumerate() {
            let comma = if i + 1 < samples.len() { "," } else { "" };
            json.push_str(&format!("    \"{}\": {:.1}{comma}\n", s.name, s.nanos));
        }
        json.push_str("  },\n  \"speedups\": {\n");
        for (i, (name, ratio)) in ratios.iter().enumerate() {
            let comma = if i + 1 < ratios.len() { "," } else { "" };
            json.push_str(&format!("    \"{name}\": {ratio:.2}{comma}\n"));
        }
        json.push_str("  }\n}\n");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("  wrote {path}");
    }
}

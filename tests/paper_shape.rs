//! Cross-crate integration tests asserting the paper's qualitative
//! results ("shape") hold in the reproduction, via the facade crate.

mod common;

use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{Category, DsmConfig, PrefetchConfig, ThreadConfig};

/// The paper's eight-node cluster.
fn base() -> DsmConfig {
    common::base(8)
}

/// §1.1 / Figure 1: communication latency dominates — most apps spend
/// a large fraction of their time stalled.
#[test]
fn baseline_is_stall_dominated() {
    let mut stalled_heavily = 0;
    for bench in [
        Benchmark::Fft,
        Benchmark::Radix,
        Benchmark::Ocean,
        Benchmark::WaterNsq,
    ] {
        let r = bench.run(Scale::Test, base()).expect("run");
        assert!(r.verified);
        let b = r.breakdown.normalized_to_self();
        let stalled = b.fraction(Category::MemoryIdle) + b.fraction(Category::SyncIdle);
        if stalled > 0.4 {
            stalled_heavily += 1;
        }
    }
    assert!(
        stalled_heavily >= 3,
        "most apps should spend much of their time stalled"
    );
}

/// §3.3 / Figure 2: prefetching reduces memory stall time and remote
/// misses on the prefetch-friendly applications.
#[test]
fn prefetching_reduces_memory_stalls() {
    for bench in [Benchmark::Fft, Benchmark::Radix] {
        let orig = bench.run(Scale::Default, base()).expect("original");
        let pf = bench
            .run(Scale::Default, base().with_prefetch(bench.paper_prefetch()))
            .expect("prefetch");
        assert!(pf.verified, "{bench}: non-binding prefetching must be safe");
        assert!(
            pf.breakdown[Category::MemoryIdle] < orig.breakdown[Category::MemoryIdle],
            "{bench}: memory idle must shrink"
        );
        assert!(
            pf.misses.misses < orig.misses.misses,
            "{bench}: remote misses must shrink"
        );
        assert!(pf.prefetch.coverage() > 0.5, "{bench}: coverage too low");
    }
}

/// §3.3.2 / Table 1: prefetching compresses traffic into bursts, so
/// the misses that remain get slower (queueing), not faster.
#[test]
fn prefetching_inflates_residual_miss_latency_for_fft() {
    let orig = Benchmark::Fft
        .run(Scale::Default, base())
        .expect("original");
    let pf = Benchmark::Fft
        .run(
            Scale::Default,
            base().with_prefetch(Benchmark::Fft.paper_prefetch()),
        )
        .expect("prefetch");
    // The paper reports a 12x inflation at full scale; we only assert
    // the direction (no speed-up of the residual misses).
    assert!(
        pf.misses.avg_latency() >= orig.misses.avg_latency() / 2,
        "residual misses should not get dramatically faster"
    );
    // And some prefetch messages are dropped or delayed under burst.
    assert!(pf.prefetch.messages > 0);
}

/// §4.3 / Figure 4: multithreading overlaps memory stalls (per-node
/// memory idle falls as threads are added) at the cost of switch and
/// asynchronous-arrival overheads.
#[test]
fn multithreading_hides_memory_idle() {
    let orig = Benchmark::Fft
        .run(Scale::Default, base())
        .expect("original");
    let mt = Benchmark::Fft
        .run(
            Scale::Default,
            base().with_threads(ThreadConfig::multithreaded(4)),
        )
        .expect("4T");
    assert!(mt.verified);
    assert!(
        mt.breakdown[Category::MemoryIdle] < orig.breakdown[Category::MemoryIdle],
        "memory idle must shrink with threads"
    );
    assert!(mt.mt.switches > 0);
    assert!(
        mt.breakdown[Category::MtOverhead] > rsdsm::simnet::SimDuration::ZERO,
        "switching is not free"
    );
    // Table 2: run lengths shrink as stalls are split across threads.
    assert!(mt.mt.avg_run_length() < orig.mt.avg_run_length());
}

/// §5: in the combined approach, prefetching owns memory latency and
/// multithreading owns synchronization latency; for the lock-heavy
/// WATER-NSQ the combination beats pure multithreading.
#[test]
fn combined_beats_pure_multithreading_for_water_nsq() {
    let mt = Benchmark::WaterNsq
        .run(
            Scale::Default,
            base().with_threads(ThreadConfig::multithreaded(2)),
        )
        .expect("2T");
    let combined = Benchmark::WaterNsq
        .run(
            Scale::Default,
            base()
                .with_threads(ThreadConfig::combined(2))
                .with_prefetch(PrefetchConfig {
                    suppress_redundant: true,
                    ..Benchmark::WaterNsq.paper_prefetch()
                }),
        )
        .expect("2TP");
    assert!(combined.verified && mt.verified);
    assert!(
        combined.total_time < mt.total_time,
        "combined ({}) should beat pure MT ({})",
        combined.total_time,
        mt.total_time
    );
}

/// Determinism: identical configuration and seed reproduce identical
/// measurements through the full stack.
#[test]
fn full_stack_determinism() {
    let r1 = Benchmark::WaterSp.run(Scale::Test, base()).expect("run 1");
    let r2 = Benchmark::WaterSp.run(Scale::Test, base()).expect("run 2");
    assert_eq!(r1.total_time, r2.total_time);
    assert_eq!(r1.net.total_bytes, r2.net.total_bytes);
    assert_eq!(r1.misses.misses, r2.misses.misses);
    assert_eq!(r1.mt.switches, r2.mt.switches);
}

/// Different seeds perturb the network (drop lottery) but never
/// correctness.
#[test]
fn seeds_never_affect_correctness() {
    for seed in [1, 2, 3] {
        let r = Benchmark::LuCont
            .run(
                Scale::Test,
                DsmConfig::paper_cluster(4)
                    .with_seed(seed)
                    .with_prefetch(Benchmark::LuCont.paper_prefetch()),
            )
            .expect("run");
        assert!(r.verified, "seed {seed} broke LU");
    }
}

/// The seed reaches the run by one path, the network's drop lottery:
/// the same seed reproduces the run, and on a cell that loses
/// prefetches to congestion (RADIX "P") another seed loses others.
#[test]
fn seed_drives_the_drop_lottery() {
    let run = |seed| {
        let cfg = DsmConfig::paper_cluster(8)
            .with_seed(seed)
            .with_prefetch(Benchmark::Radix.paper_prefetch());
        Benchmark::Radix.run(Scale::Default, cfg).expect("RADIX P")
    };
    let (a, again, b) = (run(1998), run(1998), run(8));
    assert!(a.net.drops > 0, "the cell must drop under congestion");
    assert_eq!(a.digest(), again.digest());
    assert_ne!(a.net.drops, b.net.drops);
}

/// The compiler-style prefetch emulation (FFT, LU-NCONT) wastes
/// prefetches on private data, inflating the unnecessary rate as in
/// Table 1.
#[test]
fn compiler_prefetching_is_more_wasteful() {
    let compiler = Benchmark::Fft
        .run(
            Scale::Default,
            base().with_prefetch(PrefetchConfig::compiler()),
        )
        .expect("compiler");
    let hand = Benchmark::Fft
        .run(Scale::Default, base().with_prefetch(PrefetchConfig::hand()))
        .expect("hand");
    assert!(
        compiler.prefetch.unnecessary_fraction() > hand.prefetch.unnecessary_fraction(),
        "compiler-style must waste more prefetches ({:.2} vs {:.2})",
        compiler.prefetch.unnecessary_fraction(),
        hand.prefetch.unnecessary_fraction()
    );
}

/// §3 / §6: hand-inserted prefetching beats the history-based
/// automatic alternative (Bianchini-style) — the reason the paper
/// studies explicit insertion.
#[test]
fn hand_prefetching_beats_automatic() {
    let hand = Benchmark::Sor
        .run(Scale::Default, base().with_prefetch(PrefetchConfig::hand()))
        .expect("hand");
    let auto = Benchmark::Sor
        .run(
            Scale::Default,
            base().with_prefetch(PrefetchConfig::automatic()),
        )
        .expect("auto");
    assert!(hand.verified && auto.verified);
    assert!(
        hand.prefetch.coverage() > auto.prefetch.coverage(),
        "hand coverage {:.2} must exceed automatic {:.2}",
        hand.prefetch.coverage(),
        auto.prefetch.coverage()
    );
    assert!(hand.total_time <= auto.total_time);
}

//! Writing your own application as a *task*: a parallel prefix sum
//! whose simulated threads are futures the engine polls on its own
//! thread — no OS thread per simulated thread, no context switch per
//! fault, lock or barrier. `custom_app` is a second application in
//! the same form.
//!
//! ```text
//! cargo run --release --example task_app
//! ```
//!
//! The idiom: every `ctx` operation that can reach the engine is
//! awaited, and the arithmetic between them lives in plain `fn`s — a
//! local that is alive across an `.await` is a field of the future,
//! and a loop over such fields does not vectorise.

use rsdsm::core::{
    BarrierId, DsmConfig, DsmTask, Heap, HomePolicy, PrefetchConfig, SharedVec, Simulation,
    TaskCtx, ThreadConfig, VerifyCtx,
};
use rsdsm::simnet::SimDuration;

/// Inclusive prefix sum of `len` values, block-partitioned: every
/// thread scans its block, publishes the block's total, and after a
/// barrier adds the totals of the blocks before it.
struct PrefixSum {
    len: usize,
}

/// Shared data: the values (scanned in place) and one total per block.
#[derive(Clone, Copy)]
struct Handles {
    values: SharedVec<u64>,
    totals: SharedVec<u64>,
}

/// At most this many threads (one slot of `totals` each).
const MAX_THREADS: usize = 64;

impl PrefixSum {
    fn value(i: usize) -> u64 {
        (rsdsm::apps::gen_f64(0x5CA9, i) * 1000.0) as u64
    }
}

/// Scans `block` in place; returns its total.
fn scan(block: &mut [u64]) -> u64 {
    let mut sum = 0;
    for v in block {
        sum += *v;
        *v = sum;
    }
    sum
}

/// Adds `offset` to every element.
fn shift(block: &mut [u64], offset: u64) {
    for v in block {
        *v += offset;
    }
}

impl DsmTask for PrefixSum {
    type Handles = Handles;

    fn name(&self) -> String {
        "prefix-sum".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        Handles {
            values: heap.alloc(self.len, HomePolicy::Blocked),
            totals: heap.alloc(MAX_THREADS, HomePolicy::Single(0)),
        }
    }

    async fn run(&self, ctx: &mut TaskCtx, h: &Self::Handles) {
        let t = ctx.thread_id();
        let n = ctx.num_threads();
        assert!(n <= MAX_THREADS, "one total per thread");
        let (b0, b1) = rsdsm::apps::block_range(self.len, t, n);

        // Master initialization.
        if t == 0 {
            let init: Vec<u64> = (0..self.len).map(PrefixSum::value).collect();
            ctx.write_slice(&h.values, 0, &init).await;
        }
        ctx.barrier(BarrierId(0)).await;

        // Scan my block (first touch: prefetch it) and publish its
        // total.
        ctx.prefetch(&h.values, b0, b1).await;
        let mut block = ctx.read_vec(&h.values, b0, b1 - b0).await;
        let total = scan(&mut block);
        ctx.compute(SimDuration::from_nanos(block.len() as u64 * 25));
        ctx.write(&h.totals, t, total).await;
        ctx.barrier(BarrierId(1)).await;

        // Everything before my block is the totals before mine.
        ctx.prefetch(&h.totals, 0, t).await;
        let before: u64 = ctx.read_vec(&h.totals, 0, t).await.iter().sum();
        shift(&mut block, before);
        ctx.compute(SimDuration::from_nanos(block.len() as u64 * 15));
        ctx.write_slice(&h.values, b0, &block).await;
        ctx.barrier(BarrierId(2)).await;
    }

    fn verify(&self, mem: &VerifyCtx, h: &Self::Handles) -> bool {
        let mut sum = 0;
        (0..self.len).all(|i| {
            sum += PrefixSum::value(i);
            mem.read(&h.values, i) == sum
        })
    }
}

fn main() {
    let app = PrefixSum { len: 1 << 16 };
    let base = || DsmConfig::paper_cluster(8).with_seed(7);

    for (label, cfg) in [
        ("original", base()),
        ("prefetching", base().with_prefetch(PrefetchConfig::hand())),
        (
            "2 threads/node",
            base().with_threads(ThreadConfig::multithreaded(2)),
        ),
        (
            "combined",
            base()
                .with_threads(ThreadConfig::combined(2))
                .with_prefetch(PrefetchConfig::hand()),
        ),
    ] {
        let report = Simulation::new(cfg).run(&app).expect("run succeeds");
        assert!(report.verified, "{label}: wrong result");
        println!(
            "{label:>15}: {} ({} msgs, {} misses)",
            report.total_time, report.net.total_msgs, report.misses.misses
        );
    }
}

//! Writing your own application against the DSM: a parallel
//! histogram-equalization kernel with prefetch annotations and result
//! verification, run under every latency-tolerance mode. Like
//! `task_app`, it is a task: every `ctx` operation that can reach the
//! engine is awaited, and the arithmetic between them is plain Rust.
//!
//! ```text
//! cargo run --release --example custom_app
//! ```

use rsdsm::core::{
    BarrierId, DsmConfig, DsmTask, Heap, HomePolicy, LockId, PrefetchConfig, SharedVec, Simulation,
    TaskCtx, ThreadConfig, VerifyCtx,
};
use rsdsm::simnet::SimDuration;

/// Each thread histograms a block of a shared image, merges its local
/// histogram into a shared one under a lock, then (after a barrier)
/// remaps its block through the global cumulative distribution.
struct HistogramEq {
    pixels: usize,
    bins: usize,
}

/// Shared data: the image, the global histogram, and the remap table.
#[derive(Clone, Copy)]
struct Handles {
    image: SharedVec<u32>,
    hist: SharedVec<u64>,
    remap: SharedVec<u32>,
}

const HIST_LOCK: LockId = LockId(7);

impl HistogramEq {
    fn pixel(&self, i: usize) -> u32 {
        // Deterministic synthetic image, biased toward dark values.
        let v = rsdsm::apps::gen_f64(0xC0FFEE, i);
        ((v * v) * self.bins as f64) as u32
    }

    fn reference(&self) -> Vec<u32> {
        let mut hist = vec![0u64; self.bins];
        for i in 0..self.pixels {
            hist[self.pixel(i) as usize] += 1;
        }
        let mut remap = vec![0u32; self.bins];
        let mut cum = 0u64;
        for (b, h) in hist.iter().enumerate() {
            cum += h;
            remap[b] = ((cum * (self.bins as u64 - 1)) / self.pixels as u64) as u32;
        }
        (0..self.pixels)
            .map(|i| remap[self.pixel(i) as usize])
            .collect()
    }
}

impl DsmTask for HistogramEq {
    type Handles = Handles;

    fn name(&self) -> String {
        "histogram-eq".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        Handles {
            image: heap.alloc(self.pixels, HomePolicy::Blocked),
            hist: heap.alloc(self.bins, HomePolicy::Single(0)),
            remap: heap.alloc(self.bins, HomePolicy::Single(0)),
        }
    }

    async fn run(&self, ctx: &mut TaskCtx, h: &Self::Handles) {
        let t = ctx.thread_id();
        let n = ctx.num_threads();
        let (p0, p1) = rsdsm::apps::block_range(self.pixels, t, n);

        // Master initialization (and zeroing the shared histogram).
        if t == 0 {
            let img: Vec<u32> = (0..self.pixels).map(|i| self.pixel(i)).collect();
            ctx.write_slice(&h.image, 0, &img).await;
            ctx.write_slice(&h.hist, 0, &vec![0u64; self.bins]).await;
        }
        ctx.barrier(BarrierId(0)).await;

        // Local histogram of my block (first touch: prefetch it).
        ctx.prefetch(&h.image, p0, p1).await;
        let mine = ctx.read_vec(&h.image, p0, p1 - p0).await;
        let mut local = vec![0u64; self.bins];
        for &px in &mine {
            local[px as usize] += 1;
        }
        ctx.compute(SimDuration::from_nanos(mine.len() as u64 * 40));

        // Merge under the lock; the prefetch is hoisted above the
        // acquire, as the paper does for WATER-NSQ (§3.2).
        ctx.prefetch(&h.hist, 0, self.bins).await;
        ctx.acquire(HIST_LOCK).await;
        let mut global = ctx.read_vec(&h.hist, 0, self.bins).await;
        for (g, l) in global.iter_mut().zip(&local) {
            *g += *l;
        }
        ctx.write_slice(&h.hist, 0, &global).await;
        ctx.release(HIST_LOCK).await;
        ctx.barrier(BarrierId(1)).await;

        // Thread 0 computes the remap table from the full histogram.
        if t == 0 {
            let hist = ctx.read_vec(&h.hist, 0, self.bins).await;
            let mut remap = vec![0u32; self.bins];
            let mut cum = 0u64;
            for (b, hv) in hist.iter().enumerate() {
                cum += hv;
                remap[b] = ((cum * (self.bins as u64 - 1)) / self.pixels as u64) as u32;
            }
            ctx.compute(SimDuration::from_micros(self.bins as u64));
            ctx.write_slice(&h.remap, 0, &remap).await;
        }
        ctx.barrier(BarrierId(2)).await;

        // Everyone remaps its block through the shared table.
        ctx.prefetch(&h.remap, 0, self.bins).await;
        let remap = ctx.read_vec(&h.remap, 0, self.bins).await;
        let out: Vec<u32> = mine.iter().map(|&px| remap[px as usize]).collect();
        ctx.compute(SimDuration::from_nanos(out.len() as u64 * 30));
        ctx.write_slice(&h.image, p0, &out).await;
        ctx.barrier(BarrierId(3)).await;
    }

    fn verify(&self, mem: &VerifyCtx, h: &Self::Handles) -> bool {
        let expect = self.reference();
        (0..self.pixels).all(|i| mem.read(&h.image, i) == expect[i])
    }
}

fn main() {
    let app = HistogramEq {
        pixels: 1 << 16,
        bins: 256,
    };
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

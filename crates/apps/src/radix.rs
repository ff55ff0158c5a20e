//! RADIX: parallel integer radix sort (SPLASH-2).
//!
//! Each pass histograms one digit, computes global ranks from the
//! shared histogram matrix, then permutes keys into the destination
//! array. The permutation writes are scattered across remote pages at
//! positions only known moments before the writes — which is why the
//! paper finds RADIX prefetches hard to schedule early enough (§5.2)
//! and throttles them in the combined mode (§5.1).

use rsdsm_core::{BarrierId, DsmTask, Heap, HomePolicy, SharedVec, TaskCtx, VerifyCtx};
use rsdsm_simnet::SimDuration;

use crate::block_range;
use crate::util::{gen_u32, BarrierCycle};

/// Simulated cost of histogramming one key.
const NS_PER_COUNT: u64 = 550;
/// Simulated cost of moving one key in the permutation.
const NS_PER_MOVE: u64 = 1100;

/// Parallel radix sort of `n` keys.
#[derive(Debug, Clone)]
pub struct RadixApp {
    n: usize,
    max_key_bits: u32,
    radix_bits: u32,
}

impl RadixApp {
    /// A sort of `n` keys below `2^max_key_bits`, `2^radix_bits`
    /// buckets per pass.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters.
    pub fn new(n: usize, max_key_bits: u32, radix_bits: u32) -> Self {
        assert!(n >= 4, "need some keys");
        assert!((1..=31).contains(&max_key_bits), "key bits in 1..=31");
        assert!((1..=16).contains(&radix_bits), "radix bits in 1..=16");
        RadixApp {
            n,
            max_key_bits,
            radix_bits,
        }
    }

    /// The paper's size: 2^20 keys, max key 2^21, radix 1024.
    pub fn paper_scale() -> Self {
        RadixApp::new(1 << 20, 21, 10)
    }

    /// Scaled-down default.
    pub fn default_scale() -> Self {
        RadixApp::new(1 << 14, 18, 8)
    }

    fn radix(&self) -> usize {
        1 << self.radix_bits
    }

    fn passes(&self) -> usize {
        self.max_key_bits.div_ceil(self.radix_bits) as usize
    }

    fn key(&self, i: usize) -> u32 {
        gen_u32(0x52AD_1C5E, i, 1 << self.max_key_bits)
    }
}

/// Shared handles: double-buffered key arrays plus the histogram
/// matrix (one row per thread).
#[derive(Debug, Clone, Copy)]
pub struct RadixHandles {
    keys: [SharedVec<u32>; 2],
    hist: SharedVec<u32>,
}

/// The digit of `key` a pass at `shift` sorts by.
fn digit(key: u32, shift: u32, radix: usize) -> usize {
    ((key >> shift) as usize) & (radix - 1)
}

/// How many of `keys` have each digit.
fn histogram(keys: &[u32], shift: u32, radix: usize) -> Vec<u32> {
    let mut counts = vec![0u32; radix];
    for &key in keys {
        counts[digit(key, shift, radix)] += 1;
    }
    counts
}

/// Global ranks from the histogram matrix `all` (one row per thread):
/// thread `t`'s write offset for digit `d` is the total of smaller
/// digits plus earlier threads' counts of `d`.
fn write_offsets(all: &[u32], t: usize, radix: usize) -> Vec<usize> {
    let mut digit_total = vec![0u64; radix];
    for row in all.chunks_exact(radix) {
        for (total, &count) in digit_total.iter_mut().zip(row) {
            *total += count as u64;
        }
    }
    let mut offsets = vec![0usize; radix];
    let mut running = 0usize;
    for d in 0..radix {
        let mut mine_off = running;
        for row in 0..t {
            mine_off += all[row * radix + d] as usize;
        }
        offsets[d] = mine_off;
        running += digit_total[d] as usize;
    }
    offsets
}

/// `keys` gathered by digit into `out` — one stable counting-sort
/// permute: digit 0's keys first, each digit's in block order — given
/// each digit's count. `cursor` is scratch; both buffers are reused
/// from pass to pass.
fn gather_by_digit(
    keys: &[u32],
    shift: u32,
    counts: &[u32],
    cursor: &mut Vec<usize>,
    out: &mut Vec<u32>,
) {
    let mut start = 0;
    cursor.clear();
    cursor.extend(counts.iter().map(|&count| {
        let at = start;
        start += count as usize;
        at
    }));
    out.clear();
    out.resize(keys.len(), 0);
    for &key in keys {
        let d = digit(key, shift, counts.len());
        out[cursor[d]] = key;
        cursor[d] += 1;
    }
}

/// The digits present in a block gathered by [`gather_by_digit`], each
/// with its run of keys.
fn digit_runs<'a>(
    gathered: &'a [u32],
    counts: &'a [u32],
) -> impl Iterator<Item = (usize, &'a [u32])> + 'a {
    let mut start = 0;
    counts.iter().enumerate().filter_map(move |(d, &count)| {
        let run = &gathered[start..start + count as usize];
        start += run.len();
        (!run.is_empty()).then_some((d, run))
    })
}

impl DsmTask for RadixApp {
    type Handles = RadixHandles;

    fn name(&self) -> String {
        "RADIX".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        // One histogram row per thread, and never fewer than 64, so a
        // run of up to 64 threads keeps one heap layout.
        RadixHandles {
            keys: [
                heap.alloc(self.n, HomePolicy::Blocked),
                heap.alloc(self.n, HomePolicy::Blocked),
            ],
            hist: heap.alloc(heap.threads().max(64) * self.radix(), HomePolicy::Blocked),
        }
    }

    async fn run(&self, ctx: &mut TaskCtx, h: &Self::Handles) {
        let t = ctx.thread_id();
        let nt = ctx.num_threads();
        let radix = self.radix();
        let (k0, k1) = block_range(self.n, t, nt);

        if t == 0 {
            let init: Vec<u32> = (0..self.n).map(|i| self.key(i)).collect();
            ctx.write_slice(&h.keys[0], 0, &init).await;
        }
        ctx.barrier(BarrierId(0)).await;

        let mut bars = BarrierCycle::new();
        let (mut gathered, mut cursor) = (Vec::new(), Vec::with_capacity(radix));
        for pass in 0..self.passes() {
            let shift = pass as u32 * self.radix_bits;
            let (src, dst) = (h.keys[pass % 2], h.keys[(pass + 1) % 2]);

            // Local histogram of my block.
            let mine = ctx.read_vec(&src, k0, k1 - k0).await;
            let counts = histogram(&mine, shift, radix);
            ctx.compute(SimDuration::from_nanos(mine.len() as u64 * NS_PER_COUNT));
            ctx.write_slice(&h.hist, t * radix, &counts).await;
            bars.next(ctx).await;

            // Global ranks from everybody's histogram.
            ctx.prefetch(&h.hist, 0, nt * radix).await;
            let all = ctx.read_vec(&h.hist, 0, nt * radix).await;
            ctx.compute(SimDuration::from_nanos((nt * radix) as u64 * 8));
            let offsets = write_offsets(&all, t, radix);

            // Gather my keys per digit...
            gather_by_digit(&mine, shift, &counts, &mut cursor, &mut gathered);
            // ...prefetch the destination runs (often too late — the
            // addresses were just computed, as the paper observes)...
            for (d, run) in digit_runs(&gathered, &counts) {
                ctx.prefetch(&dst, offsets[d], offsets[d] + run.len()).await;
            }
            // ...and permute.
            ctx.compute(SimDuration::from_nanos(mine.len() as u64 * NS_PER_MOVE));
            for (d, run) in digit_runs(&gathered, &counts) {
                ctx.write_slice(&dst, offsets[d], run).await;
            }
            bars.next(ctx).await;
        }
    }

    fn verify(&self, mem: &VerifyCtx, h: &Self::Handles) -> bool {
        let final_arr = mem.read_vec(&h.keys[self.passes() % 2], 0, self.n);
        // Sorted?
        if !final_arr.windows(2).all(|w| w[0] <= w[1]) {
            return false;
        }
        // Same multiset as the input (sum + xor fingerprints).
        let (mut s1, mut x1, mut s2, mut x2) = (0u64, 0u32, 0u64, 0u32);
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.n {
            let a = self.key(i);
            s1 = s1.wrapping_add(a as u64);
            x1 ^= a;
            let b = final_arr[i];
            s2 = s2.wrapping_add(b as u64);
            x2 ^= b;
        }
        s1 == s2 && x1 == x2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_count() {
        assert_eq!(RadixApp::new(16, 20, 8).passes(), 3);
        assert_eq!(RadixApp::new(16, 16, 8).passes(), 2);
        assert_eq!(RadixApp::paper_scale().passes(), 3);
    }

    #[test]
    fn keys_are_bounded_and_deterministic() {
        let app = RadixApp::new(1024, 10, 4);
        for i in 0..1024 {
            assert!(app.key(i) < 1024);
            assert_eq!(app.key(i), app.key(i));
        }
    }

    #[test]
    fn gathering_is_a_stable_sort_by_digit() {
        let keys = [0x31, 0x12, 0x21, 0x02, 0x33, 0x11];
        let counts = histogram(&keys, 0, 4);
        let (mut cursor, mut out) = (Vec::new(), vec![9; 2]);
        gather_by_digit(&keys, 0, &counts, &mut cursor, &mut out);
        assert_eq!(out, [0x31, 0x21, 0x11, 0x12, 0x02, 0x33]);
        let runs: Vec<(usize, &[u32])> = digit_runs(&out, &counts).collect();
        assert_eq!(
            runs,
            [(1, &out[..3]), (2, &out[3..5]), (3, &out[5..])],
            "digit 0 is absent"
        );
    }

    #[test]
    #[should_panic(expected = "radix bits")]
    fn excessive_radix_rejected() {
        RadixApp::new(16, 20, 20);
    }
}

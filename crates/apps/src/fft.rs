//! FFT: 1D complex fast Fourier transform (SPLASH-2 style).
//!
//! The transform uses the transpose ("six-step") algorithm: the
//! `n = R*C` points are viewed as an `R x C` matrix; three transposes
//! interleave with two batches of row FFTs and a twiddle scaling.
//! Each transpose is an all-to-all exchange — every thread reads
//! column slabs just written by every other thread — which is the
//! communication the paper's FFT numbers are dominated by, including
//! the initialization hot-spot on the master (§3.3.2).

use rsdsm_core::{BarrierId, DsmTask, Heap, HomePolicy, SharedVec, TaskCtx, VerifyCtx};
use rsdsm_simnet::SimDuration;

use crate::block_range;
use crate::util::{fft_in_place, fft_reference, gen_f64, BarrierCycle, Checked, Complex};

/// Effective cost per butterfly flop — calibrated to the 133 MHz
/// PowerPC 604 including its memory hierarchy (the paper's Busy time
/// is wall-clock compute, not peak-flop time).
const NS_PER_FLOP: u64 = 1000;

/// 1D complex FFT over `2^m` points.
#[derive(Debug, Clone)]
pub struct FftApp {
    m: u32,
}

impl FftApp {
    /// An FFT of `2^m` points.
    ///
    /// # Panics
    ///
    /// Panics if `m` is odd (the matrix must be square) or `m < 4`.
    pub fn new(m: u32) -> Self {
        assert!(
            m >= 4 && m.is_multiple_of(2),
            "need an even m >= 4 for a square matrix"
        );
        FftApp { m }
    }

    /// The paper's size: 256K (2^18) points.
    pub fn paper_scale() -> Self {
        FftApp::new(18)
    }

    /// Scaled-down default: 2^14 points.
    pub fn default_scale() -> Self {
        FftApp::new(14)
    }

    fn n(&self) -> usize {
        1 << self.m
    }

    fn side(&self) -> usize {
        1 << (self.m / 2)
    }

    fn input(&self, i: usize) -> Complex {
        Complex::new(gen_f64(0xFF7 ^ 1, i), gen_f64(0xFF7 ^ 2, i))
    }
}

/// Native reference of the same six-step pipeline (for unit tests).
#[cfg(test)]
pub(crate) fn six_step_reference(input: &[Complex], side: usize) -> Vec<Complex> {
    let n = input.len();
    let (r, c) = (side, side);
    // Transpose 1: b[s][q] = a[q][s]  (c x r).
    let mut b = vec![Complex::default(); n];
    for q in 0..r {
        for s in 0..c {
            b[s * r + q] = input[q * c + s];
        }
    }
    // Row FFTs of b (length r) + twiddle b[s][k1] *= w^(s*k1).
    for s in 0..c {
        fft_in_place(&mut b[s * r..(s + 1) * r], false);
        for k1 in 0..r {
            let ang = -2.0 * std::f64::consts::PI * (s * k1) as f64 / n as f64;
            b[s * r + k1] = b[s * r + k1] * Complex::from_angle(ang);
        }
    }
    // Transpose 2: d[k1][s] = b[s][k1]  (r x c).
    let mut d = vec![Complex::default(); n];
    for s in 0..c {
        for k1 in 0..r {
            d[k1 * c + s] = b[s * r + k1];
        }
    }
    // Row FFTs of d (length c): d[k1][k2] = X[k2*r + k1].
    for k1 in 0..r {
        fft_in_place(&mut d[k1 * c..(k1 + 1) * c], false);
    }
    // Transpose 3: out[k2][k1] = d[k1][k2] → natural order.
    let mut out = vec![Complex::default(); n];
    for k1 in 0..r {
        for k2 in 0..c {
            out[k2 * r + k1] = d[k1 * c + k2];
        }
    }
    out
}

/// Shared handles: the two `n`-complex arrays (interleaved re/im).
#[derive(Debug, Clone, Copy)]
pub struct FftHandles {
    a: SharedVec<f64>,
    b: SharedVec<f64>,
}

/// Column `q` of a transposed slab from the interleaved re/im values
/// of source row `q`: slab row `o` takes `vals`' `o`th complex.
fn scatter_column(vals: &[f64], slab: &mut [Complex], side: usize, q: usize) {
    for (o, pair) in vals.chunks_exact(2).enumerate() {
        slab[o * side + q] = Complex::new(pair[0], pair[1]);
    }
}

/// Scales slab row `r` by its twiddle factors (those of an `n`-point
/// transform after the first phase's FFT, one afterwards) and packs it
/// as interleaved re/im into `out`.
fn twiddle_and_pack(row: &mut [Complex], out: &mut [f64], phase: usize, r: usize, n: usize) {
    for (k, v) in row.iter_mut().enumerate() {
        let w = if phase == 0 {
            Complex::from_angle(-2.0 * std::f64::consts::PI * (r * k) as f64 / n as f64)
        } else {
            Complex::new(1.0, 0.0)
        };
        *v = *v * w;
    }
    for (k, v) in row.iter().enumerate() {
        out[2 * k] = v.re;
        out[2 * k + 1] = v.im;
    }
}

impl DsmTask for FftApp {
    type Handles = FftHandles;

    fn name(&self) -> String {
        "FFT".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        FftHandles {
            a: heap.alloc(2 * self.n(), HomePolicy::Blocked),
            b: heap.alloc(2 * self.n(), HomePolicy::Blocked),
        }
    }

    async fn run(&self, ctx: &mut TaskCtx, h: &Self::Handles) {
        let t = ctx.thread_id();
        let nt = ctx.num_threads();
        let side = self.side();
        let n = self.n();

        // Initialization on the master — the source of the paper's
        // FFT hot-spot.
        if t == 0 {
            let mut row = vec![0.0f64; 2 * side];
            for q in 0..side {
                for s in 0..side {
                    let x = self.input(q * side + s);
                    row[2 * s] = x.re;
                    row[2 * s + 1] = x.im;
                }
                ctx.write_slice(&h.a, q * 2 * side, &row).await;
            }
        }
        ctx.barrier(BarrierId(0)).await;
        let mut bars = BarrierCycle::new();

        // Three transpose+FFT phases; `src`/`dst` alternate a → b → a → b.
        let (my0, my1) = block_range(side, t, nt);
        let width = my1 - my0;
        let mut vals = vec![0.0f64; 2 * width];
        let mut out_row = vec![0.0f64; 2 * side];
        for phase in 0..3usize {
            let (src, dst) = if phase % 2 == 0 {
                (h.a, h.b)
            } else {
                (h.b, h.a)
            };
            // Gather my transposed slab: dst row `o` (my0..my1) takes
            // src column `o`.
            let mut slab = vec![Complex::default(); width * side];
            // Issue all of this phase's slab prefetches up front
            // (strip-mined scheduling, §3.2): the first rows' fetches
            // overlap the later rows' prefetch issue, and the
            // resulting burst is exactly the compressed traffic the
            // paper observes inflating miss latencies (§3.3.2).
            // Start at our own rows and wrap (SPLASH-2 staggers the
            // transpose this way to avoid hot-spotting one source
            // node and to desynchronize sibling threads).
            let start = (t * side / nt) % side;
            let order = (start..side).chain(0..start);
            for q in order.clone() {
                ctx.prefetch(&src, 2 * (q * side + my0), 2 * (q * side + my1))
                    .await;
            }
            for q in order {
                // Compiler-style prefetching cannot classify private
                // buffers and wastes checks on them (Table 1's 98%
                // unnecessary rate for FFT); a no-op in hand mode.
                ctx.prefetch_private(12);
                ctx.read_slice(&src, 2 * (q * side + my0), &mut vals).await;
                scatter_column(&vals, &mut slab, side, q);
                ctx.compute(SimDuration::from_nanos(width as u64 * 12));
            }
            // Row FFTs (+ twiddle after the first phase's FFT).
            for (o, row) in slab.chunks_exact_mut(side).enumerate() {
                if phase < 2 {
                    fft_in_place(row, false);
                    let flops = 5 * side as u64 * side.trailing_zeros() as u64;
                    ctx.compute(SimDuration::from_nanos(flops * NS_PER_FLOP));
                }
                twiddle_and_pack(row, &mut out_row, phase, my0 + o, n);
                ctx.write_slice(&dst, (my0 + o) * 2 * side, &out_row).await;
            }
            bars.next(ctx).await;
        }
    }

    fn verify(&self, mem: &VerifyCtx, h: &Self::Handles) -> bool {
        self.matches(&mem.read_vec(&h.b, 0, 2 * self.n()))
    }
}

impl Checked for FftApp {
    /// The direct FFT of the input, interleaved as the image stores
    /// it: each bin's real part, then its imaginary part.
    fn expected(&self) -> Vec<f64> {
        let input: Vec<Complex> = (0..self.n()).map(|i| self.input(i)).collect();
        fft_reference(&input)
            .into_iter()
            .flat_map(|c| [c.re, c.im])
            .collect()
    }

    /// Bin by bin within 1e-6·√n in magnitude: the six-step pipeline
    /// rounds differently from the direct transform.
    fn agrees(&self, got: &[f64], expect: &[f64]) -> bool {
        let scale = (self.n() as f64).sqrt();
        let bin = |v: &[f64]| Complex::new(v[0], v[1]);
        got.chunks_exact(2)
            .zip(expect.chunks_exact(2))
            .all(|(g, e)| (bin(g) - bin(e)).norm_sq().sqrt() <= 1e-6 * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_step_matches_direct_fft() {
        let side = 8;
        let n = side * side;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new(gen_f64(11, i), gen_f64(13, i)))
            .collect();
        let expect = fft_reference(&input);
        let got = six_step_reference(&input, side);
        for k in 0..n {
            assert!(
                (got[k] - expect[k]).norm_sq() < 1e-16,
                "bin {k}: {:?} vs {:?}",
                got[k],
                expect[k]
            );
        }
    }

    #[test]
    fn input_is_deterministic() {
        let app = FftApp::new(8);
        assert_eq!(app.input(5), app.input(5));
        assert_ne!(app.input(5), app.input(6));
    }

    #[test]
    fn sizes() {
        assert_eq!(FftApp::paper_scale().n(), 1 << 18);
        assert_eq!(FftApp::new(8).side(), 16);
    }

    #[test]
    #[should_panic(expected = "even m")]
    fn odd_m_rejected() {
        FftApp::new(9);
    }
}

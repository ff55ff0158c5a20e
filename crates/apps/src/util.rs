//! Shared helpers for the benchmark applications: block
//! partitioning, complex arithmetic for FFT, and deterministic data
//! generation.

use rsdsm_core::{BarrierId, SharedVec, TaskCtx};
use rsdsm_simnet::DetRng;

/// The elements `[start, end)` assigned to worker `t` of `n` under
/// block partitioning (earlier workers get the remainder).
///
/// # Examples
///
/// ```
/// use rsdsm_apps::block_range;
///
/// assert_eq!(block_range(10, 0, 3), (0, 4));
/// assert_eq!(block_range(10, 1, 3), (4, 7));
/// assert_eq!(block_range(10, 2, 3), (7, 10));
/// ```
///
/// # Panics
///
/// Panics if `t >= n` or `n == 0`.
pub fn block_range(len: usize, t: usize, n: usize) -> (usize, usize) {
    assert!(n > 0 && t < n, "worker {t} of {n}");
    let base = len / n;
    let rem = len % n;
    let start = t * base + t.min(rem);
    let size = base + usize::from(t < rem);
    (start, start + size)
}

/// A complex number for the FFT kernels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{i·theta}`.
    pub fn from_angle(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

/// In-place iterative radix-2 FFT (decimation in time).
/// `inverse` selects the conjugate transform (unnormalized).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Reference sequential FFT used for verification.
pub fn fft_reference(input: &[Complex]) -> Vec<Complex> {
    let mut out = input.to_vec();
    fft_in_place(&mut out, false);
    out
}

/// Deterministic pseudo-random f64 in `[0, 1)` for element `i` of a
/// seeded stream — lets verification re-generate the same inputs
/// without storing them.
pub fn gen_f64(seed: u64, i: usize) -> f64 {
    let mut rng = DetRng::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_f64()
}

/// Deterministic pseudo-random u32 below `bound` for element `i`.
pub fn gen_u32(seed: u64, i: usize, bound: u32) -> u32 {
    let mut rng = DetRng::new(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    rng.next_below(bound as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_everything() {
        for len in [0usize, 1, 7, 10, 64] {
            for n in 1..=8usize {
                let mut covered = 0;
                let mut prev_end = 0;
                for t in 0..n {
                    let (s, e) = block_range(len, t, n);
                    assert_eq!(s, prev_end, "contiguous blocks");
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, len);
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn block_range_balanced() {
        for t in 0..4 {
            let (s, e) = block_range(100, t, 4);
            assert_eq!(e - s, 25);
            assert_eq!(s, t * 25);
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 16;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new(gen_f64(1, i), gen_f64(2, i)))
            .collect();
        let fast = fft_reference(&input);
        #[allow(clippy::needless_range_loop)]
        for k in 0..n {
            let mut acc = Complex::default();
            for (j, x) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                acc = acc + *x * Complex::from_angle(ang);
            }
            assert!(
                (acc - fast[k]).norm_sq() < 1e-18,
                "bin {k}: {acc:?} vs {:?}",
                fast[k]
            );
        }
    }

    #[test]
    fn fft_round_trip() {
        let n = 64;
        let input: Vec<Complex> = (0..n).map(|i| Complex::new(gen_f64(3, i), 0.0)).collect();
        let mut data = input.clone();
        fft_in_place(&mut data, false);
        fft_in_place(&mut data, true);
        for (a, b) in input.iter().zip(&data) {
            let restored = Complex::new(b.re / n as f64, b.im / n as f64);
            assert!((*a - restored).norm_sq() < 1e-18);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(gen_f64(5, 10), gen_f64(5, 10));
        assert_ne!(gen_f64(5, 10), gen_f64(5, 11));
        assert_eq!(gen_u32(7, 3, 100), gen_u32(7, 3, 100));
        assert!(gen_u32(7, 3, 100) < 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut d = vec![Complex::default(); 12];
        fft_in_place(&mut d, false);
    }
}

/// Issues successive global barriers over a small set of reusable
/// barrier ids, the way SPLASH-2 programs reuse one static barrier
/// object. Reuse matters for the runtime's history-based automatic
/// prefetcher, which keys access histories by synchronization object.
///
/// Four alternating ids are used: an episode is always fully drained
/// before its id comes around again, and the even cycle length keeps
/// period-2 phase structures (e.g. red/black sweeps) aligned with
/// their histories.
#[derive(Debug, Clone, Default)]
pub struct BarrierCycle {
    count: u32,
}

impl BarrierCycle {
    /// A fresh cycle (ids start after the conventional init barrier 0).
    pub fn new() -> Self {
        BarrierCycle::default()
    }

    /// Arrives at the next barrier in the cycle.
    pub async fn next(&mut self, ctx: &mut TaskCtx) {
        ctx.barrier(BarrierId(1 + self.count % 4)).await;
        self.count += 1;
    }
}

/// The buffers of a row-at-a-time stencil sweep: the three grid rows
/// an update reads and, for a sweep that does not update `here` in
/// place, the row it writes; allocated once per thread and reused for
/// every row.
#[derive(Debug)]
pub(crate) struct StencilRows {
    pub(crate) above: Vec<f64>,
    pub(crate) here: Vec<f64>,
    pub(crate) below: Vec<f64>,
    pub(crate) out: Vec<f64>,
}

impl StencilRows {
    /// Buffers for rows of `cols` cells.
    pub(crate) fn new(cols: usize) -> Self {
        let row = || vec![0.0; cols];
        StencilRows {
            above: row(),
            here: row(),
            below: row(),
            out: row(),
        }
    }

    /// Reads rows `i - 1`, `i` and `i + 1` of `grid`, in that order.
    pub(crate) async fn read_around(&mut self, ctx: &mut TaskCtx, grid: &SharedVec<f64>, i: usize) {
        let cols = self.here.len();
        ctx.read_slice(grid, (i - 1) * cols, &mut self.above).await;
        ctx.read_slice(grid, i * cols, &mut self.here).await;
        ctx.read_slice(grid, (i + 1) * cols, &mut self.below).await;
    }
}

/// One leapfrog step of a run of molecules stored `stride` elements
/// apart, coordinates first: `vel += force; pos += vel`.
pub(crate) fn leapfrog(stride: usize, force: &[f64], vel: &mut [f64], pos: &mut [f64]) {
    for mol in (0..force.len()).step_by(stride) {
        for k in mol..mol + 3 {
            vel[k] += force[k];
            pos[k] += vel[k];
        }
    }
}

/// WATER's softened repulsive pair force: `f(r) = k / (r^2 + eps)^2`
/// along the separation vector.
pub(crate) fn pair_force(dx: f64, dy: f64, dz: f64) -> [f64; 3] {
    let r2 = dx * dx + dy * dy + dz * dz;
    let denom = (r2 + 0.05) * (r2 + 0.05);
    let k = 1e-3 / denom;
    [k * dx, k * dy, k * dz]
}

/// WATER's potential energy of one pair.
pub(crate) fn pair_energy(dx: f64, dy: f64, dz: f64) -> f64 {
    let r2 = dx * dx + dy * dy + dz * dz;
    5e-4 / (r2 + 0.05)
}

/// The bit patterns of `v`, so tests compare floats bit for bit.
#[cfg(test)]
pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// FNV-1a over the little-endian bit patterns of `v`.
#[cfg(test)]
pub(crate) fn bits_digest(v: &[f64]) -> u64 {
    let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
    rsdsm_simnet::fnv1a(&bytes)
}

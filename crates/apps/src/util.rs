//! Shared helpers for the benchmark applications: block
//! partitioning, complex arithmetic for FFT, deterministic data
//! generation, and the verdict memo every reference-checked
//! application verifies through.

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};

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
    use crate::lu::{LuApp, LuLayout};
    use crate::{Benchmark, FftApp, OceanApp, SorApp, WaterNsqApp, WaterSpApp};
    use proptest::prelude::*;
    use rsdsm_core::{DsmConfig, Simulation, ThreadConfig};

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

    /// Full checks run so far, per problem.
    static FULL_CHECKS: LazyLock<Mutex<HashMap<String, usize>>> = LazyLock::new(Mutex::default);

    pub(super) fn count_full_check(problem: &str) {
        *FULL_CHECKS
            .lock()
            .expect("no test panics holding the count")
            .entry(problem.to_owned())
            .or_default() += 1;
    }

    fn full_checks(problem: &dyn Checked) -> usize {
        let counts = FULL_CHECKS
            .lock()
            .expect("no test panics holding the count");
        counts.get(&format!("{problem:?}")).copied().unwrap_or(0)
    }

    fn remembered(problem: &dyn Checked, image: &[f64]) -> bool {
        accepted()
            .get(&format!("{problem:?}"))
            .is_some_and(|seen| seen.contains(&image_digest(image)))
    }

    /// The verdict of a fresh full check, past the memo.
    fn full_check(app: &dyn Checked, got: &[f64]) -> bool {
        let expect = app.expected();
        got.len() == expect.len() && app.agrees(got, &expect)
    }

    /// Every reference-checked application, at sizes no other test
    /// uses, so what the memo holds for them is this test's alone.
    fn small_apps() -> Vec<Box<dyn Checked>> {
        vec![
            Box::new(FftApp::new(4)),
            Box::new(LuApp::new(12, 4, LuLayout::Contiguous)),
            Box::new(LuApp::new(12, 4, LuLayout::NonContiguous)),
            Box::new(OceanApp::new(10, 1)),
            Box::new(SorApp::new(7, 6, 2)),
            Box::new(WaterNsqApp::new(9, 1)),
            Box::new(WaterSpApp::new(9, 1)),
        ]
    }

    /// A one-ulp change is accepted, a change past the tolerance, a
    /// NaN and a short image are not: each twice, so the second call
    /// takes the memo's hit path where there is one, and each as a
    /// fresh full check rules.
    #[test]
    fn memo_verdicts_are_the_full_checks() {
        for app in small_apps() {
            let expect = app.expected();
            let at = expect.len() / 2;
            let with = |v: f64| {
                let mut image = expect.clone();
                image[at] = v;
                image
            };
            let x = expect[at];
            let cases = [
                ("exact", expect.clone(), true),
                ("one ulp", with(f64::from_bits(x.to_bits() + 1)), true),
                ("past tolerance", with(x + 1e-3 * x.abs().max(1.0)), false),
                ("NaN", with(f64::NAN), false),
                ("short", expect[1..].to_vec(), false),
            ];
            for (what, image, verdict) in cases {
                assert_eq!(full_check(&*app, &image), verdict, "{app:?}: {what}");
                for call in 0..2 {
                    assert_eq!(app.matches(&image), verdict, "{app:?}: {what}, call {call}");
                }
                assert_eq!(remembered(&*app, &image), verdict, "{app:?}: {what}");
            }
        }
    }

    #[test]
    fn a_rejected_image_is_checked_again_and_never_remembered() {
        let app = SorApp::new(6, 7, 2);
        let mut image = app.expected();
        image[20] += 1.0;
        for call in 1..=2 {
            assert!(!app.matches(&image));
            assert_eq!(full_checks(&app), call, "a rejection runs the full check");
            assert!(!remembered(&app, &image));
        }
    }

    #[test]
    fn threads_verifying_one_problem_at_once_agree() {
        let app = LuApp::new(20, 4, LuLayout::Contiguous);
        let good = app.expected();
        let mut bad = good.clone();
        bad[100] = f64::NAN;
        let start = std::sync::Barrier::new(4);
        let verdicts: Vec<(bool, bool)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (app.matches(&good), app.matches(&bad))
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("a verifying thread panicked"))
                .collect()
        });
        assert_eq!(verdicts, vec![(true, false); 4]);
        assert!(remembered(&app, &good) && !remembered(&app, &bad));
    }

    /// The paper's four bars of one problem make one image, bit for
    /// bit the reference's for LU and SOR: the sweep computes each
    /// reference once.
    #[test]
    fn a_sweep_over_the_techniques_computes_each_reference_once() {
        let sweep = |bench: Benchmark, app: &dyn Checked, run: &dyn Fn(DsmConfig) -> bool| {
            let base = DsmConfig::paper_cluster(4).with_seed(7);
            for cfg in [
                base.clone(),
                base.clone().with_prefetch(bench.paper_prefetch()),
                base.clone().with_threads(ThreadConfig::multithreaded(2)),
                base.clone()
                    .with_threads(ThreadConfig::combined(2))
                    .with_prefetch(bench.combined_prefetch()),
            ] {
                assert!(run(cfg), "{app:?}");
            }
            assert_eq!(full_checks(app), 1, "{app:?}");
        };
        for (bench, layout) in [
            (Benchmark::LuCont, LuLayout::Contiguous),
            (Benchmark::LuNcont, LuLayout::NonContiguous),
        ] {
            let app = LuApp::new(40, 8, layout);
            sweep(bench, &app, &|cfg| {
                Simulation::new(cfg).run(&app).expect("LU runs").verified
            });
        }
        let app = SorApp::new(40, 24, 2);
        sweep(Benchmark::Sor, &app, &|cfg| {
            Simulation::new(cfg).run(&app).expect("SOR runs").verified
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
        #[test]
        fn flipping_any_bit_moves_the_digest(
            words in prop::collection::vec(any::<u64>(), 1..48usize),
            at in any::<usize>(),
            bit in 0u32..64,
        ) {
            let image: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();
            let mut flipped = image.clone();
            let i = at % image.len();
            flipped[i] = f64::from_bits(words[i] ^ 1 << bit);
            prop_assert_ne!(image_digest(&image), image_digest(&flipped));
        }
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

/// The three coordinates of every molecule, packed, from a run of
/// molecules stored `stride` elements apart.
pub(crate) fn unstride(stride: usize, strided: &[f64]) -> Vec<f64> {
    strided
        .chunks_exact(stride)
        .flat_map(|mol| [mol[0], mol[1], mol[2]])
        .collect()
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

/// An application whose final image is checked against a sequential
/// reference, value by value within a tolerance.
///
/// A check is a pure function of the problem and the image, and a
/// sweep runs one problem under every technique, so
/// [`matches`](Checked::matches) remembers, per problem, the digests of the
/// images its full check accepted: an image seen before is accepted
/// without recomputing the reference. The full check is the only way
/// an image gets in, and a rejected image is never remembered, so
/// every verdict is the full check's up to a 2^-64 digest collision —
/// the same footing as the oracle's image digests.
pub(crate) trait Checked: Debug {
    /// The sequential reference as the values `verify` reads from a
    /// final image, in the order it reads them.
    fn expected(&self) -> Vec<f64>;

    /// Whether `got` is within tolerance of `expect`, which has the
    /// same length (a NaN is never within).
    fn agrees(&self, got: &[f64], expect: &[f64]) -> bool;

    /// Whether `got`, the values `verify` read from a final image, are
    /// the reference's answer.
    fn matches(&self, got: &[f64]) -> bool {
        // The problem is the application's type and every parameter
        // its reference depends on: all of it is in the Debug text.
        let problem = format!("{self:?}");
        let digest = image_digest(got);
        if accepted()
            .get(&problem)
            .is_some_and(|seen| seen.contains(&digest))
        {
            return true;
        }
        // The full check, with the memo unlocked: a reference takes
        // milliseconds, and the bins verify cells on parallel workers.
        #[cfg(test)]
        tests::count_full_check(&problem);
        let expect = self.expected();
        if got.len() != expect.len() || !self.agrees(got, &expect) {
            return false;
        }
        let reference = image_digest(&expect);
        let mut accepted = accepted();
        let seen = accepted.entry(problem).or_default();
        if seen.len() < MAX_DIGESTS {
            seen.insert(digest);
            seen.insert(reference);
        }
        true
    }
}

/// Most digests one problem keeps: a sweep accepts a handful of
/// distinct images per problem, and the cap bounds a process that
/// runs one problem under unboundedly many seeds.
const MAX_DIGESTS: usize = 1 << 12;

/// Per problem (its Debug text), the digests of the images its full
/// check accepted.
static ACCEPTED: LazyLock<Mutex<HashMap<String, HashSet<u64>>>> = LazyLock::new(Mutex::default);

fn accepted() -> MutexGuard<'static, HashMap<String, HashSet<u64>>> {
    // Every update is one insert of a digest the full check accepted,
    // so a panic elsewhere never leaves the map holding anything else.
    ACCEPTED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A 64-bit digest of the bit patterns of `values`, a word at a time
/// over four interleaved lanes (one dependency chain would bound it
/// at a multiply's latency per word). Each step is a bijection of the
/// running state for a fixed word and of the word for a fixed state,
/// and the lanes fold in through the same step, so two images of one
/// length that differ in a single value always digest apart.
pub(crate) fn image_digest(values: &[f64]) -> u64 {
    fn step(h: u64, word: u64) -> u64 {
        (h ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .rotate_left(29)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
    }
    let mut lanes = [values.len() as u64, 1, 2, 3];
    let quads = values.chunks_exact(4);
    let rest = quads.remainder();
    for quad in quads.chain([rest]) {
        for (h, v) in lanes.iter_mut().zip(quad) {
            *h = step(*h, v.to_bits());
        }
    }
    let h = lanes.into_iter().fold(0, step);
    // MurmurHash3's finalizer: a bijection that mixes every bit of
    // the state into every bit of the digest.
    let h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    let h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

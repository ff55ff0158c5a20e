//! LU: blocked dense LU factorization without pivoting (SPLASH-2).
//!
//! The paper runs two variants distinguished only by data layout:
//!
//! - **LU-CONT**: blocks are allocated contiguously (block-major), so
//!   a 32x32 block occupies whole pages by itself — little false
//!   sharing.
//! - **LU-NCONT**: the matrix is row-major, so a block's rows are
//!   strided across pages shared with neighboring blocks — the page-
//!   level false sharing that the multiple-writer protocol absorbs.
//!
//! Blocks are owned 2D-cyclically; each step factors the diagonal
//! block, solves the perimeter, then updates the interior, with
//! barriers between phases.

use rsdsm_core::{BarrierId, DsmTask, Heap, HomePolicy, SharedVec, TaskCtx, VerifyCtx};
use rsdsm_simnet::SimDuration;

use crate::util::{gen_f64, BarrierCycle, Checked};

/// Effective cost per floating-point operation (calibrated; includes
/// the 1998 memory hierarchy).
const NS_PER_FLOP: u64 = 480;

/// Matrix layout variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuLayout {
    /// Block-major allocation (the paper's LU-CONT).
    Contiguous,
    /// Row-major allocation (the paper's LU-NCONT).
    NonContiguous,
}

/// Blocked LU factorization of an `n x n` matrix.
#[derive(Debug, Clone)]
pub struct LuApp {
    n: usize,
    block: usize,
    layout: LuLayout,
}

impl LuApp {
    /// A factorization problem.
    ///
    /// # Panics
    ///
    /// Panics unless `block` divides `n` and both are at least 2.
    pub fn new(n: usize, block: usize, layout: LuLayout) -> Self {
        assert!(block >= 2 && n >= 2 * block, "degenerate blocking");
        assert_eq!(n % block, 0, "block must divide n");
        LuApp { n, block, layout }
    }

    /// The paper's LU-CONT: 1024x1024, 32x32 contiguous blocks.
    pub fn paper_cont() -> Self {
        LuApp::new(1024, 32, LuLayout::Contiguous)
    }

    /// The paper's LU-NCONT: 1024x1024, 128x128 non-contiguous blocks.
    pub fn paper_ncont() -> Self {
        LuApp::new(1024, 128, LuLayout::NonContiguous)
    }

    /// Scaled-down LU-CONT (12x12 blocks keep the 2D-cyclic
    /// ownership balanced, as the paper's 32x32 of 1024 does).
    pub fn default_cont() -> Self {
        LuApp::new(384, 32, LuLayout::Contiguous)
    }

    /// Scaled-down LU-NCONT (larger blocks, row-major layout — the
    /// paper's 128-of-1024 ratio).
    pub fn default_ncont() -> Self {
        LuApp::new(384, 48, LuLayout::NonContiguous)
    }

    fn nb(&self) -> usize {
        self.n / self.block
    }

    /// Flat index of element (i, j) under the layout.
    fn idx(&self, i: usize, j: usize) -> usize {
        match self.layout {
            LuLayout::NonContiguous => i * self.n + j,
            LuLayout::Contiguous => {
                let b = self.block;
                let (bi, bj) = (i / b, j / b);
                (bi * self.nb() + bj) * b * b + (i % b) * b + (j % b)
            }
        }
    }

    /// 2D-cyclic block owner.
    fn owner(bi: usize, bj: usize, nthreads: usize) -> usize {
        let pr = (1..=nthreads)
            .filter(|p| nthreads.is_multiple_of(*p) && *p * *p <= nthreads)
            .max()
            .unwrap_or(1);
        let pc = nthreads / pr;
        (bi % pr) * pc + (bj % pc)
    }

    fn initial(&self, i: usize, j: usize) -> f64 {
        let v = gen_f64(0x10, i * self.n + j) - 0.5;
        if i == j {
            v + self.n as f64
        } else {
            v
        }
    }

    /// The same blocked factorization, sequentially, for verification.
    fn reference(&self) -> Vec<f64> {
        let n = self.n;
        let b = self.block;
        let nb = self.nb();
        let mut a = Vec::with_capacity(n * n);
        for i in 0..n {
            a.extend((0..n).map(|j| self.initial(i, j)));
        }
        for k in 0..nb {
            factor_diag(&mut a, n, k * b, b);
            for bj in k + 1..nb {
                solve_row_block(&mut a, n, k * b, bj * b, b);
            }
            for bi in k + 1..nb {
                solve_col_block(&mut a, n, bi * b, k * b, b);
            }
            for bi in k + 1..nb {
                for bj in k + 1..nb {
                    gemm_update(&mut a, n, bi * b, bj * b, k * b, b);
                }
            }
        }
        a
    }
}

impl Checked for LuApp {
    /// The reference factorization in the layout's order. Both
    /// layouts store a block's rows as runs of `block` elements.
    fn expected(&self) -> Vec<f64> {
        let (n, b) = (self.n, self.block);
        let mut image = vec![0.0; n * n];
        for (run, want) in self.reference().chunks_exact(b).enumerate() {
            let at = self.idx(run * b / n, run * b % n);
            image[at..at + b].copy_from_slice(want);
        }
        image
    }

    /// Element by element within a relative 1e-6.
    fn agrees(&self, got: &[f64], expect: &[f64]) -> bool {
        got.iter()
            .zip(expect)
            .all(|(g, e)| (g - e).abs() <= 1e-6 * e.abs().max(1.0))
    }
}

// Dense helpers on row-major n x n storage, operating on one block.
// Each brings a row up to date from rows already final, through split
// slices; every element still takes its operations in the order of
// the kk-outer textbook loops (kept as `tests::oracle`), so each
// result is bit for bit theirs.

/// `x -= l[0]·row(0) + l[1]·row(1) + …` over `x.len()` columns, four
/// rows per pass: each element subtracts its products one at a time,
/// in ascending row order.
fn sub_rows<'a>(x: &mut [f64], l: &[f64], row: impl Fn(usize) -> &'a [f64]) {
    let w = x.len();
    let mut quads = l.chunks_exact(4);
    for (q, c) in (&mut quads).enumerate() {
        let [l0, l1, l2, l3] = [c[0], c[1], c[2], c[3]];
        let [u0, u1, u2, u3] = std::array::from_fn(|r| &row(4 * q + r)[..w]);
        for j in 0..w {
            x[j] = x[j] - l0 * u0[j] - l1 * u1[j] - l2 * u2[j] - l3 * u3[j];
        }
    }
    let done = l.len() - quads.remainder().len();
    for (kk, &lk) in quads.remainder().iter().enumerate() {
        for (xj, &uj) in x.iter_mut().zip(&row(done + kk)[..w]) {
            *xj -= lk * uj;
        }
    }
}

/// Takes row `x` through pivots `k0..k1` (at most four) of the upper
/// triangle `u`: pivot `kk` divides `x[kk]` by `u(kk)[kk]`, which then
/// scales `u(kk)` out of the columns after it. The triangle among the
/// pivots goes in order, the rest of the row through [`sub_rows`].
/// Callers take every row through one group of pivots before the
/// next, so the divisions of different rows overlap.
fn eliminate<'a>(x: &mut [f64], k0: usize, k1: usize, u: impl Fn(usize) -> &'a [f64]) {
    for kk in k0..k1 {
        let ukk = u(kk);
        x[kk] /= ukk[kk];
        let l = x[kk];
        for j in kk + 1..k1 {
            x[j] -= l * ukk[j];
        }
    }
    let (done, rest) = x.split_at_mut(k1);
    sub_rows(rest, &done[k0..k1], |kk| &u(k0 + kk)[k1..]);
}

/// Factors the diagonal block at `(d, d)` in place. Row `i` takes the
/// pivots above it, and is itself final before the rows below use it.
fn factor_diag(a: &mut [f64], n: usize, d: usize, b: usize) {
    for k0 in (0..b).step_by(4) {
        for i in k0 + 1..b {
            let (done, rest) = a.split_at_mut((d + i) * n);
            let k1 = (k0 + 4).min(i);
            eliminate(&mut rest[d..d + b], k0, k1, |kk| &done[(d + kk) * n + d..]);
        }
    }
}

/// A(k, bj) := L(k,k)^-1 A(k, bj) (unit lower triangular solve).
fn solve_row_block(a: &mut [f64], n: usize, k: usize, cj: usize, b: usize) {
    for i in 1..b {
        let (done, rest) = a.split_at_mut((k + i) * n);
        let (l, x) = rest.split_at_mut(cj);
        sub_rows(&mut x[..b], &l[k..k + i], |kk| &done[(k + kk) * n + cj..]);
    }
}

/// A(bi, k) := A(bi, k) U(k,k)^-1.
fn solve_col_block(a: &mut [f64], n: usize, ri: usize, k: usize, b: usize) {
    let (diag, rows) = a.split_at_mut(ri * n);
    for k0 in (0..b).step_by(4) {
        let k1 = (k0 + 4).min(b);
        for row in rows[..b * n].chunks_exact_mut(n) {
            eliminate(&mut row[k..k + b], k0, k1, |kk| &diag[(k + kk) * n + k..]);
        }
    }
}

/// A(bi, bj) -= A(bi, k) * A(k, bj).
fn gemm_update(a: &mut [f64], n: usize, ri: usize, cj: usize, k: usize, b: usize) {
    let (up, rows) = a.split_at_mut(ri * n);
    for row in rows[..b * n].chunks_exact_mut(n) {
        let (l, x) = row.split_at_mut(cj);
        sub_rows(&mut x[..b], &l[k..k + b], |kk| &up[(k + kk) * n + cj..]);
    }
}

impl DsmTask for LuApp {
    type Handles = SharedVec<f64>;

    fn name(&self) -> String {
        match self.layout {
            LuLayout::Contiguous => "LU-CONT".into(),
            LuLayout::NonContiguous => "LU-NCONT".into(),
        }
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        heap.alloc(self.n * self.n, HomePolicy::Blocked)
    }

    async fn run(&self, ctx: &mut TaskCtx, mat: &Self::Handles) {
        let t = ctx.thread_id();
        let nt = ctx.num_threads();
        let (n, b, nb) = (self.n, self.block, self.nb());

        // Master initialization.
        if t == 0 {
            let mut row = vec![0.0f64; n];
            for i in 0..n {
                for (j, slot) in row.iter_mut().enumerate() {
                    *slot = self.initial(i, j);
                }
                match self.layout {
                    LuLayout::NonContiguous => ctx.write_slice(mat, i * n, &row).await,
                    LuLayout::Contiguous => {
                        for (j, &v) in row.iter().enumerate() {
                            ctx.write(mat, self.idx(i, j), v).await;
                        }
                    }
                }
            }
        }
        ctx.barrier(BarrierId(0)).await;

        // Block I/O through the DSM: rows of a block are contiguous
        // runs in both layouts. A block is read into one of four
        // private b x b buffers this thread owns for the whole run.
        let read_block = async |ctx: &mut TaskCtx, bi: usize, bj: usize, out: &mut [f64]| {
            // Compiler-style prefetching also issues checks for the
            // private block buffer (Table 1's LU-NCONT rate).
            ctx.prefetch_private(2);
            for (i, row) in out.chunks_exact_mut(b).enumerate() {
                let start = self.idx(bi * b + i, bj * b);
                ctx.read_slice(mat, start, row).await;
            }
        };
        let [mut diag, mut left, mut up, mut blk] = std::array::from_fn(|_| vec![0.0f64; b * b]);
        let write_block = async |ctx: &mut TaskCtx, bi: usize, bj: usize, data: &[f64]| {
            for i in 0..b {
                let start = self.idx(bi * b + i, bj * b);
                ctx.write_slice(mat, start, &data[i * b..(i + 1) * b]).await;
            }
        };
        let prefetch_block = async |ctx: &mut TaskCtx, bi: usize, bj: usize| {
            for i in 0..b {
                let start = self.idx(bi * b + i, bj * b);
                ctx.prefetch(mat, start, start + b).await;
            }
        };

        // First-touch prefetch of every owned block (the matrix was
        // initialized on the master, so all our blocks are remote).
        for bi in 0..nb {
            for bj in 0..nb {
                if LuApp::owner(bi, bj, nt) == t {
                    prefetch_block(ctx, bi, bj).await;
                }
            }
        }

        let mut bars = BarrierCycle::new();
        for k in 0..nb {
            // Diagonal factorization by its owner.
            if LuApp::owner(k, k, nt) == t {
                read_block(ctx, k, k, &mut diag).await;
                factor_diag(&mut diag, b, 0, b);
                ctx.compute(SimDuration::from_nanos(
                    2 * (b as u64).pow(3) / 3 * NS_PER_FLOP,
                ));
                write_block(ctx, k, k, &diag).await;
            }
            bars.next(ctx).await;

            // Perimeter: prefetch the (remote) diagonal block first.
            let mine_in_perimeter =
                (k + 1..nb).any(|x| LuApp::owner(k, x, nt) == t || LuApp::owner(x, k, nt) == t);
            if mine_in_perimeter {
                prefetch_block(ctx, k, k).await;
                read_block(ctx, k, k, &mut diag).await;
                for bj in k + 1..nb {
                    if LuApp::owner(k, bj, nt) == t {
                        read_block(ctx, k, bj, &mut blk).await;
                        solve_with_diag(&diag, &mut blk, b, true);
                        ctx.compute(SimDuration::from_nanos((b as u64).pow(3) * NS_PER_FLOP));
                        write_block(ctx, k, bj, &blk).await;
                    }
                }
                for bi in k + 1..nb {
                    if LuApp::owner(bi, k, nt) == t {
                        read_block(ctx, bi, k, &mut blk).await;
                        solve_with_diag(&diag, &mut blk, b, false);
                        ctx.compute(SimDuration::from_nanos((b as u64).pow(3) * NS_PER_FLOP));
                        write_block(ctx, bi, k, &blk).await;
                    }
                }
            }
            bars.next(ctx).await;

            // Interior updates: prefetch perimeter blocks we will read.
            for bi in k + 1..nb {
                for bj in k + 1..nb {
                    if LuApp::owner(bi, bj, nt) == t {
                        prefetch_block(ctx, bi, k).await;
                        prefetch_block(ctx, k, bj).await;
                        prefetch_block(ctx, bi, bj).await;
                    }
                }
            }
            for bi in k + 1..nb {
                for bj in k + 1..nb {
                    if LuApp::owner(bi, bj, nt) != t {
                        continue;
                    }
                    read_block(ctx, bi, k, &mut left).await;
                    read_block(ctx, k, bj, &mut up).await;
                    read_block(ctx, bi, bj, &mut blk).await;
                    block_gemm(&left, &up, &mut blk, b);
                    ctx.compute(SimDuration::from_nanos(2 * (b as u64).pow(3) * NS_PER_FLOP));
                    write_block(ctx, bi, bj, &blk).await;
                }
            }
            bars.next(ctx).await;
        }
    }

    fn verify(&self, mem: &VerifyCtx, mat: &Self::Handles) -> bool {
        self.matches(&mem.read_vec(mat, 0, mat.len()))
    }
}

/// `blk -= left * up`, all three b x b blocks held in private memory.
fn block_gemm(left: &[f64], up: &[f64], blk: &mut [f64], b: usize) {
    for (x, l) in blk.chunks_exact_mut(b).zip(left.chunks_exact(b)) {
        sub_rows(x, l, |kk| &up[kk * b..]);
    }
}

/// Applies the diagonal block's triangular factors to a b x b block
/// held in private memory (`row_solve` picks L^-1·B vs B·U^-1).
fn solve_with_diag(diag: &[f64], blk: &mut [f64], b: usize, row_solve: bool) {
    if row_solve {
        for i in 1..b {
            let (done, rest) = blk.split_at_mut(i * b);
            sub_rows(&mut rest[..b], &diag[i * b..i * b + i], |kk| {
                &done[kk * b..]
            });
        }
    } else {
        for k0 in (0..b).step_by(4) {
            for x in blk.chunks_exact_mut(b) {
                eliminate(x, k0, (k0 + 4).min(b), |kk| &diag[kk * b..]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{bits, bits_digest};

    /// The kk-outer loops the helpers replaced, one element at a time.
    mod oracle {
        use super::LuApp;

        /// `LuApp::reference` on these loops.
        pub(super) fn reference(app: &LuApp) -> Vec<f64> {
            let (n, b) = (app.n, app.block);
            let mut a: Vec<f64> = (0..n * n).map(|x| app.initial(x / n, x % n)).collect();
            for k in 0..app.nb() {
                factor_diag(&mut a, n, k * b, b);
                for bj in k + 1..app.nb() {
                    solve_row_block(&mut a, n, k * b, bj * b, b);
                }
                for bi in k + 1..app.nb() {
                    solve_col_block(&mut a, n, bi * b, k * b, b);
                }
                for bi in k + 1..app.nb() {
                    for bj in k + 1..app.nb() {
                        gemm_update(&mut a, n, bi * b, bj * b, k * b, b);
                    }
                }
            }
            a
        }

        pub(super) fn factor_diag(a: &mut [f64], n: usize, d: usize, b: usize) {
            for kk in 0..b {
                let pivot = a[(d + kk) * n + d + kk];
                for i in kk + 1..b {
                    a[(d + i) * n + d + kk] /= pivot;
                    let l = a[(d + i) * n + d + kk];
                    for j in kk + 1..b {
                        a[(d + i) * n + d + j] -= l * a[(d + kk) * n + d + j];
                    }
                }
            }
        }

        pub(super) fn solve_row_block(a: &mut [f64], n: usize, k: usize, cj: usize, b: usize) {
            for kk in 0..b {
                for i in kk + 1..b {
                    let l = a[(k + i) * n + k + kk];
                    for j in 0..b {
                        a[(k + i) * n + cj + j] -= l * a[(k + kk) * n + cj + j];
                    }
                }
            }
        }

        pub(super) fn solve_col_block(a: &mut [f64], n: usize, ri: usize, k: usize, b: usize) {
            for kk in 0..b {
                let pivot = a[(k + kk) * n + k + kk];
                for i in 0..b {
                    a[(ri + i) * n + k + kk] /= pivot;
                    let l = a[(ri + i) * n + k + kk];
                    for j in kk + 1..b {
                        a[(ri + i) * n + k + j] -= l * a[(k + kk) * n + k + j];
                    }
                }
            }
        }

        pub(super) fn gemm_update(
            a: &mut [f64],
            n: usize,
            ri: usize,
            cj: usize,
            k: usize,
            b: usize,
        ) {
            for i in 0..b {
                for kk in 0..b {
                    let l = a[(ri + i) * n + k + kk];
                    for j in 0..b {
                        a[(ri + i) * n + cj + j] -= l * a[(k + kk) * n + cj + j];
                    }
                }
            }
        }

        pub(super) fn block_gemm(left: &[f64], up: &[f64], blk: &mut [f64], b: usize) {
            for i in 0..b {
                for kk in 0..b {
                    let l = left[i * b + kk];
                    for j in 0..b {
                        blk[i * b + j] -= l * up[kk * b + j];
                    }
                }
            }
        }

        pub(super) fn solve_with_diag(diag: &[f64], blk: &mut [f64], b: usize, row_solve: bool) {
            if row_solve {
                for kk in 0..b {
                    for i in kk + 1..b {
                        let l = diag[i * b + kk];
                        for j in 0..b {
                            blk[i * b + j] -= l * blk[kk * b + j];
                        }
                    }
                }
            } else {
                for kk in 0..b {
                    let pivot = diag[kk * b + kk];
                    for i in 0..b {
                        blk[i * b + kk] /= pivot;
                        let l = blk[i * b + kk];
                        for j in kk + 1..b {
                            blk[i * b + j] -= l * diag[kk * b + j];
                        }
                    }
                }
            }
        }
    }

    /// The shapes the helpers are held to: block sizes 2, 32 and 48
    /// (2 is below one four-row pass, 48 is not a power of two), both
    /// layouts, and `n / b` of 2 and 12.
    fn shapes() -> Vec<LuApp> {
        let mut apps = Vec::new();
        for (n, b) in [(4, 2), (24, 2), (64, 32), (384, 32), (96, 48)] {
            for layout in [LuLayout::Contiguous, LuLayout::NonContiguous] {
                apps.push(LuApp::new(n, b, layout));
            }
        }
        apps
    }

    /// Runs the sequential blocked factorization with either set of
    /// helpers, checking the image after every call.
    #[test]
    fn helpers_are_the_old_loops_bit_for_bit() {
        for app in shapes() {
            let (n, b) = (app.n, app.block);
            let mut new: Vec<f64> = (0..n * n).map(|x| app.initial(x / n, x % n)).collect();
            let mut old = new.clone();
            let check = |new: &[f64], old: &[f64], what: &str| {
                assert_eq!(bits(new), bits(old), "{what} at n={n} b={b}");
            };
            for k in 0..app.nb() {
                factor_diag(&mut new, n, k * b, b);
                oracle::factor_diag(&mut old, n, k * b, b);
                check(&new, &old, "factor_diag");
                for bj in k + 1..app.nb() {
                    solve_row_block(&mut new, n, k * b, bj * b, b);
                    oracle::solve_row_block(&mut old, n, k * b, bj * b, b);
                    check(&new, &old, "solve_row_block");
                }
                for bi in k + 1..app.nb() {
                    solve_col_block(&mut new, n, bi * b, k * b, b);
                    oracle::solve_col_block(&mut old, n, bi * b, k * b, b);
                    check(&new, &old, "solve_col_block");
                }
                for bi in k + 1..app.nb() {
                    for bj in k + 1..app.nb() {
                        gemm_update(&mut new, n, bi * b, bj * b, k * b, b);
                        oracle::gemm_update(&mut old, n, bi * b, bj * b, k * b, b);
                    }
                }
                check(&new, &old, "gemm_update");
            }
            check(&app.reference(), &oracle::reference(&app), "reference");
        }
    }

    /// The private-block kernels `run` uses, on blocks cut from the
    /// same factorization steps as the shared-matrix ones.
    #[test]
    fn private_block_kernels_are_the_old_loops_bit_for_bit() {
        for app in shapes() {
            let (n, b) = (app.n, app.block);
            let a: Vec<f64> = (0..n * n).map(|x| app.initial(x / n, x % n)).collect();
            let block = |bi: usize, bj: usize| -> Vec<f64> {
                (0..b)
                    .flat_map(|i| &a[(bi * b + i) * n + bj * b..][..b])
                    .copied()
                    .collect()
            };
            let mut diag = block(0, 0);
            factor_diag(&mut diag, b, 0, b);
            for row_solve in [true, false] {
                let mut new = block(1, 0);
                let mut old = new.clone();
                solve_with_diag(&diag, &mut new, b, row_solve);
                oracle::solve_with_diag(&diag, &mut old, b, row_solve);
                assert_eq!(bits(&new), bits(&old), "solve {row_solve} at n={n} b={b}");
            }
            let (left, up) = (block(1, 0), block(0, 1));
            let mut new = block(1, 1);
            let mut old = new.clone();
            block_gemm(&left, &up, &mut new, b);
            oracle::block_gemm(&left, &up, &mut old, b);
            assert_eq!(bits(&new), bits(&old), "block_gemm at n={n} b={b}");
        }
    }

    /// Any later change to the reference's arithmetic or order fails
    /// here before it can move a run. The two pins are one value: each
    /// element takes its products in ascending k whatever the blocking.
    #[test]
    fn default_reference_digests_are_pinned() {
        for app in [LuApp::default_cont(), LuApp::default_ncont()] {
            let pin = 0x434c_7dc0_f72c_c523;
            assert_eq!(bits_digest(&oracle::reference(&app)), pin, "{}", app.name());
            assert_eq!(bits_digest(&app.reference()), pin, "{}", app.name());
        }
    }

    #[test]
    fn matches_accepts_the_reference_and_rejects_a_moved_element_or_a_nan() {
        for layout in [LuLayout::Contiguous, LuLayout::NonContiguous] {
            let app = LuApp::new(16, 4, layout);
            let expect = app.reference();
            // The image in layout order, as `verify` reads it.
            let mut got = vec![0.0; 16 * 16];
            for (x, &v) in expect.iter().enumerate() {
                got[app.idx(x / 16, x % 16)] = v;
            }
            assert!(app.matches(&got));
            let at = app.idx(9, 6);
            let ok = got[at];
            got[at] = ok + 1e-3 * ok.abs().max(1.0);
            assert!(!app.matches(&got), "{layout:?}");
            got[at] = f64::NAN;
            assert!(!app.matches(&got), "{layout:?}");
            got[at] = ok;
            assert!(!app.matches(&got[1..]), "{layout:?}");
        }
    }

    /// Multiplies the L and U factors packed in `lu` and compares to
    /// the original matrix.
    fn residual(original: &[f64], lu: &[f64], n: usize) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu[i * n + k] };
                    let l = if k < i { lu[i * n + k] } else { l };
                    let u = lu[k * n + j];
                    sum += if k <= j { l * u } else { 0.0 };
                }
                worst = worst.max((sum - original[i * n + j]).abs());
            }
        }
        worst
    }

    #[test]
    fn reference_factorization_reconstructs_matrix() {
        let app = LuApp::new(32, 8, LuLayout::NonContiguous);
        let n = app.n;
        let original: Vec<f64> = (0..n * n).map(|x| app.initial(x / n, x % n)).collect();
        let lu = app.reference();
        let r = residual(&original, &lu, n);
        assert!(r < 1e-8, "LU residual {r}");
    }

    #[test]
    fn contiguous_indexing_is_block_major() {
        let app = LuApp::new(8, 4, LuLayout::Contiguous);
        // Block (0,0) occupies indices 0..16.
        assert_eq!(app.idx(0, 0), 0);
        assert_eq!(app.idx(3, 3), 15);
        // Block (0,1) starts right after.
        assert_eq!(app.idx(0, 4), 16);
        // Block (1,0) after the first block row.
        assert_eq!(app.idx(4, 0), 32);
    }

    #[test]
    fn noncontiguous_indexing_is_row_major() {
        let app = LuApp::new(8, 4, LuLayout::NonContiguous);
        assert_eq!(app.idx(3, 5), 3 * 8 + 5);
    }

    #[test]
    fn ownership_is_a_partition() {
        for nt in [1, 2, 4, 8] {
            for bi in 0..6 {
                for bj in 0..6 {
                    assert!(LuApp::owner(bi, bj, nt) < nt);
                }
            }
        }
    }

    #[test]
    fn diagonal_dominance() {
        let app = LuApp::new(64, 8, LuLayout::Contiguous);
        for i in 0..64 {
            assert!(app.initial(i, i) > 32.0);
        }
    }

    #[test]
    #[should_panic(expected = "block must divide n")]
    fn bad_blocking_rejected() {
        LuApp::new(100, 32, LuLayout::Contiguous);
    }
}

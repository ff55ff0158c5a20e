//! OCEAN: eddy/boundary-current simulation (SPLASH-2, simplified).
//!
//! The SPLASH-2 OCEAN alternates many short near-neighbor grid phases
//! separated by barriers — it is by far the most barrier-intensive of
//! the paper's applications (Table 2 shows ~7200 barrier episodes).
//! This port preserves that structure with a two-level multigrid
//! V-cycle per time step: fine-grid Jacobi smoothing, residual,
//! restriction to a coarse grid, coarse smoothing, prolongation and
//! correction — each phase a barrier. Rows are block-partitioned, so
//! small grids put several threads' rows on one page (the
//! false-sharing regime the paper notes for OCEAN under
//! multithreading, §4.3).

use rsdsm_core::{BarrierId, DsmTask, Heap, HomePolicy, SharedVec, TaskCtx, VerifyCtx};
use rsdsm_simnet::SimDuration;

use crate::block_range;
use crate::util::{gen_f64, BarrierCycle, Checked, StencilRows};

/// Simulated cost per 5-point stencil evaluation.
const NS_PER_STENCIL: u64 = 1200;
/// Jacobi sweeps on the coarse grid per V-cycle.
const COARSE_SWEEPS: usize = 4;

/// Simplified OCEAN on an `n x n` grid (`n` even), `steps` V-cycles.
#[derive(Debug, Clone)]
pub struct OceanApp {
    n: usize,
    steps: usize,
}

impl OceanApp {
    /// An OCEAN problem of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `n` is odd or too small, or `steps` is zero.
    pub fn new(n: usize, steps: usize) -> Self {
        assert!(
            n >= 8 && n.is_multiple_of(2),
            "need an even grid of at least 8"
        );
        assert!(steps > 0, "need at least one step");
        OceanApp { n, steps }
    }

    /// The paper's grid: 258 x 258 (SPLASH-2 "-n258").
    pub fn paper_scale() -> Self {
        OceanApp::new(258, 6)
    }

    /// Scaled-down default.
    pub fn default_scale() -> Self {
        OceanApp::new(130, 4)
    }

    fn coarse(&self) -> usize {
        self.n / 2
    }

    fn initial(&self, i: usize, j: usize) -> f64 {
        // Eddy-like initial stream function plus noise.
        let n = self.n as f64;
        let (x, y) = (i as f64 / n, j as f64 / n);
        (2.0 * std::f64::consts::PI * x).sin() * (2.0 * std::f64::consts::PI * y).cos()
            + 0.01 * (gen_f64(0x0CEA, i * self.n + j) - 0.5)
    }

    /// Sequential reference with identical phase ordering.
    fn reference(&self) -> Vec<f64> {
        let n = self.n;
        let nc = self.coarse();
        let mut u: Vec<f64> = (0..n * n).map(|x| self.initial(x / n, x % n)).collect();
        let mut res = vec![0.0; n * n];
        let mut cu = vec![0.0; nc * nc];
        for _ in 0..self.steps {
            jacobi_sweep(&mut u, n);
            residual(&u, &mut res, n);
            restrict(&res, &mut cu, n, nc);
            for _ in 0..COARSE_SWEEPS {
                jacobi_sweep(&mut cu, nc);
            }
            prolong_correct(&cu, &mut u, n, nc);
            jacobi_sweep(&mut u, n);
        }
        u
    }
}

fn jacobi_sweep(g: &mut [f64], n: usize) {
    let prev = g.to_vec();
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            g[i * n + j] = 0.25
                * (prev[(i - 1) * n + j]
                    + prev[(i + 1) * n + j]
                    + prev[i * n + j - 1]
                    + prev[i * n + j + 1]);
        }
    }
}

fn residual(u: &[f64], r: &mut [f64], n: usize) {
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            r[i * n + j] =
                u[(i - 1) * n + j] + u[(i + 1) * n + j] + u[i * n + j - 1] + u[i * n + j + 1]
                    - 4.0 * u[i * n + j];
        }
    }
}

fn restrict(r: &[f64], c: &mut [f64], n: usize, nc: usize) {
    for i in 0..nc {
        for j in 0..nc {
            c[i * nc + j] = 0.25
                * (r[(2 * i) * n + 2 * j]
                    + r[(2 * i + 1) * n + 2 * j]
                    + r[(2 * i) * n + 2 * j + 1]
                    + r[(2 * i + 1) * n + 2 * j + 1]);
        }
    }
}

fn prolong_correct(c: &[f64], u: &mut [f64], n: usize, nc: usize) {
    for i in 0..nc {
        for j in 0..nc {
            let v = 0.1 * c[i * nc + j];
            u[(2 * i) * n + 2 * j] += v;
            u[(2 * i + 1) * n + 2 * j] += v;
            u[(2 * i) * n + 2 * j + 1] += v;
            u[(2 * i + 1) * n + 2 * j + 1] += v;
        }
    }
}

/// Shared handles: fine grid, residual grid, coarse grid.
#[derive(Debug, Clone, Copy)]
pub struct OceanHandles {
    u: SharedVec<f64>,
    res: SharedVec<f64>,
    coarse: SharedVec<f64>,
}

/// One row of a grid phase into `rows.out`: a Jacobi update (boundary
/// cells keep their value) or the residual (boundary cells are zero).
fn stencil_row(rows: &mut StencilRows, jacobi: bool) {
    let StencilRows {
        above,
        here,
        below,
        out,
    } = rows;
    let n = here.len();
    if jacobi {
        out.copy_from_slice(here);
        for j in 1..n - 1 {
            out[j] = 0.25 * (above[j] + below[j] + here[j - 1] + here[j + 1]);
        }
    } else {
        (out[0], out[n - 1]) = (0.0, 0.0);
        for j in 1..n - 1 {
            out[j] = above[j] + below[j] + here[j - 1] + here[j + 1] - 4.0 * here[j];
        }
    }
}

/// One coarse row: the mean of each 2 x 2 cell of two fine rows.
fn restrict_row(top: &[f64], bot: &[f64], out: &mut [f64]) {
    for (j, cell) in out.iter_mut().enumerate() {
        *cell = 0.25 * (top[2 * j] + bot[2 * j] + top[2 * j + 1] + bot[2 * j + 1]);
    }
}

/// Adds a coarse row's correction to one of the two fine rows over it.
fn correct_row(coarse: &[f64], fine: &mut [f64]) {
    for (j, c) in coarse.iter().enumerate() {
        let v = 0.1 * c;
        fine[2 * j] += v;
        fine[2 * j + 1] += v;
    }
}

impl OceanApp {
    /// Runs one distributed grid phase: rows `[r0, r1)` of an `n x n`
    /// operation that reads `src` rows `r-1..=r+1` and writes `dst`
    /// row `r`.
    async fn stencil_phase(
        ctx: &mut TaskCtx,
        rows: &mut StencilRows,
        src: &SharedVec<f64>,
        dst: &SharedVec<f64>,
        r0: usize,
        r1: usize,
        jacobi: bool,
    ) {
        if r0 >= r1 {
            return;
        }
        let n = rows.here.len();
        // Prefetch the whole input slab (halo rows plus own rows —
        // the prolongation phase writes across block boundaries, so
        // own rows may be invalid too); edge rows are processed last
        // so the fetches overlap the interior compute (§3.2).
        ctx.prefetch(src, (r0 - 1) * n, (r1 + 1).min(n) * n).await;
        let mut one_row = async |ctx: &mut TaskCtx, i: usize| {
            rows.read_around(ctx, src, i).await;
            stencil_row(rows, jacobi);
            ctx.compute(SimDuration::from_nanos(NS_PER_STENCIL * n as u64));
            ctx.write_slice(dst, i * n, &rows.out).await;
        };
        for i in r0 + 1..r1.saturating_sub(1) {
            one_row(ctx, i).await;
        }
        one_row(ctx, r0).await;
        if r1 - r0 > 1 {
            one_row(ctx, r1 - 1).await;
        }
    }
}

impl DsmTask for OceanApp {
    type Handles = OceanHandles;

    fn name(&self) -> String {
        "OCEAN".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        let n = self.n;
        let nc = self.coarse();
        OceanHandles {
            u: heap.alloc(n * n, HomePolicy::Blocked),
            res: heap.alloc(n * n, HomePolicy::Blocked),
            coarse: heap.alloc(nc * nc, HomePolicy::Blocked),
        }
    }

    async fn run(&self, ctx: &mut TaskCtx, h: &Self::Handles) {
        let t = ctx.thread_id();
        let nt = ctx.num_threads();
        let n = self.n;
        let nc = self.coarse();
        let (fr0, fr1) = block_range(n - 2, t, nt);
        let (fr0, fr1) = (fr0 + 1, fr1 + 1);
        let (cr0c, cr1c) = block_range(nc - 2, t, nt);
        let (cr0, cr1) = (cr0c + 1, cr1c + 1);
        // Restriction/prolongation cover all coarse rows, including
        // boundaries.
        let (ar0, ar1) = block_range(nc, t, nt);

        if t == 0 {
            let mut row = vec![0.0f64; n];
            for i in 0..n {
                for (j, slot) in row.iter_mut().enumerate() {
                    *slot = self.initial(i, j);
                }
                ctx.write_slice(&h.u, i * n, &row).await;
            }
            let (zero_c, zero) = (vec![0.0f64; nc], vec![0.0f64; n]);
            for i in 0..nc {
                ctx.write_slice(&h.coarse, i * nc, &zero_c).await;
                ctx.write_slice(&h.res, 2 * i * n, &zero).await;
                ctx.write_slice(&h.res, (2 * i + 1) * n, &zero).await;
            }
        }
        ctx.barrier(BarrierId(0)).await;
        // First-touch prefetch of the rows this thread will smooth.
        if fr0 < fr1 {
            ctx.prefetch(&h.u, (fr0 - 1) * n, (fr1 + 1) * n).await;
        }

        let mut bar = BarrierCycle::new();
        // Row buffers for the fine and the coarse grid.
        let mut fine = StencilRows::new(n);
        let mut coarse = StencilRows::new(nc);

        for _ in 0..self.steps {
            // Jacobi smoothing needs a snapshot semantics: write to
            // res as scratch, then copy back — split into two phases.
            OceanApp::stencil_phase(ctx, &mut fine, &h.u, &h.res, fr0, fr1, true).await;
            bar.next(ctx).await;
            for i in fr0..fr1 {
                ctx.read_slice(&h.res, i * n, &mut fine.out).await;
                ctx.write_slice(&h.u, i * n, &fine.out).await;
            }
            bar.next(ctx).await;

            // Residual into res.
            OceanApp::stencil_phase(ctx, &mut fine, &h.u, &h.res, fr0, fr1, false).await;
            bar.next(ctx).await;

            // Restrict res → coarse; the whole input slab is
            // prefetched before the loop so later rows overlap.
            if ar0 < ar1 {
                ctx.prefetch(&h.res, (2 * ar0) * n, (2 * ar1) * n).await;
            }
            for i in ar0..ar1 {
                ctx.read_slice(&h.res, (2 * i) * n, &mut fine.above).await;
                ctx.read_slice(&h.res, (2 * i + 1) * n, &mut fine.below)
                    .await;
                restrict_row(&fine.above, &fine.below, &mut coarse.out);
                ctx.compute(SimDuration::from_nanos(NS_PER_STENCIL * nc as u64 / 2));
                ctx.write_slice(&h.coarse, i * nc, &coarse.out).await;
            }
            bar.next(ctx).await;

            // Coarse smoothing sweeps (scratch in the upper half of
            // res, reusing fine rows 0..nc as a private-ish region
            // would alias; use coarse in place via two phases with
            // res rows as scratch).
            for _ in 0..COARSE_SWEEPS {
                // Write scratch into res rows 0..nc (cols 0..nc).
                if cr0 < cr1 {
                    if cr0 > 1 {
                        ctx.prefetch(&h.coarse, (cr0 - 1) * nc, cr0 * nc).await;
                    }
                    if cr1 < nc - 1 {
                        ctx.prefetch(&h.coarse, cr1 * nc, (cr1 + 1) * nc).await;
                    }
                    ctx.read_slice(&h.coarse, (cr0 - 1) * nc, &mut coarse.above)
                        .await;
                    for i in cr0..cr1 {
                        ctx.read_slice(&h.coarse, i * nc, &mut coarse.here).await;
                        ctx.read_slice(&h.coarse, (i + 1) * nc, &mut coarse.below)
                            .await;
                        stencil_row(&mut coarse, true);
                        ctx.compute(SimDuration::from_nanos(NS_PER_STENCIL * nc as u64));
                        ctx.write_slice(&h.res, i * n, &coarse.out).await;
                        // This row is the next one's upper neighbour.
                        std::mem::swap(&mut coarse.above, &mut coarse.here);
                    }
                }
                bar.next(ctx).await;
                for i in cr0..cr1 {
                    ctx.read_slice(&h.res, i * n, &mut coarse.out).await;
                    ctx.write_slice(&h.coarse, i * nc, &coarse.out).await;
                }
                bar.next(ctx).await;
            }

            // Prolongate + correct my fine rows (inputs prefetched
            // up front: the coarse rows were written by the coarse
            // sweep owners, the fine rows by the smoothing owners).
            if ar0 < ar1 {
                ctx.prefetch(&h.coarse, ar0 * nc, ar1 * nc).await;
                ctx.prefetch(&h.u, (2 * ar0) * n, (2 * ar1) * n).await;
            }
            for i in ar0..ar1 {
                ctx.read_slice(&h.coarse, i * nc, &mut coarse.here).await;
                for half in 0..2 {
                    let fi = 2 * i + half;
                    ctx.read_slice(&h.u, fi * n, &mut fine.out).await;
                    correct_row(&coarse.here, &mut fine.out);
                    ctx.write_slice(&h.u, fi * n, &fine.out).await;
                }
                ctx.compute(SimDuration::from_nanos(NS_PER_STENCIL * nc as u64));
            }
            bar.next(ctx).await;

            // Final smoothing phase.
            OceanApp::stencil_phase(ctx, &mut fine, &h.u, &h.res, fr0, fr1, true).await;
            bar.next(ctx).await;
            for i in fr0..fr1 {
                ctx.read_slice(&h.res, i * n, &mut fine.out).await;
                ctx.write_slice(&h.u, i * n, &fine.out).await;
            }
            bar.next(ctx).await;
        }
    }

    fn verify(&self, mem: &VerifyCtx, h: &Self::Handles) -> bool {
        self.matches(&mem.read_vec(&h.u, 0, self.n * self.n))
    }
}

impl Checked for OceanApp {
    fn expected(&self) -> Vec<f64> {
        self.reference()
    }

    /// Point by point within a relative 1e-9.
    fn agrees(&self, got: &[f64], expect: &[f64]) -> bool {
        got.iter()
            .zip(expect)
            .all(|(a, b)| (a - b).abs() <= 1e-9 * b.abs().max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_finite_and_evolves() {
        let app = OceanApp::new(16, 2);
        let u = app.reference();
        assert!(u.iter().all(|v| v.is_finite()));
        let init: Vec<f64> = (0..16 * 16).map(|x| app.initial(x / 16, x % 16)).collect();
        let changed = u
            .iter()
            .zip(&init)
            .filter(|(a, b)| (*a - *b).abs() > 1e-12)
            .count();
        assert!(changed > 100, "smoothing must change the interior");
    }

    #[test]
    fn restriction_halves_grid() {
        let n = 8;
        let r: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        let mut c = vec![0.0; 16];
        restrict(&r, &mut c, n, 4);
        // c[0][0] = mean of r[0][0], r[1][0], r[0][1], r[1][1].
        assert_eq!(c[0], 0.25 * (0.0 + 8.0 + 1.0 + 9.0));
    }

    #[test]
    #[should_panic(expected = "even grid")]
    fn odd_grid_rejected() {
        OceanApp::new(9, 1);
    }
}

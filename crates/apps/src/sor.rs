//! SOR: red-black successive over-relaxation (TreadMarks distribution).
//!
//! A grid is relaxed for a number of iterations; each iteration
//! updates the red cells (reading black neighbors), barriers, then
//! updates the black cells. Rows are block-partitioned across
//! threads, so the only communication is the halo row on each side of
//! a block — plus the initialization hot-spot (thread 0 writes the
//! whole grid, so every other node's first read storms node 0, the
//! effect the paper calls out for SOR in §4.3).

use rsdsm_core::{BarrierId, DsmTask, Heap, HomePolicy, SharedVec, TaskCtx, VerifyCtx};
use rsdsm_simnet::SimDuration;

use crate::block_range;
use crate::util::{BarrierCycle, Checked, StencilRows};

/// Simulated compute cost per cell update (a few flops plus index
/// arithmetic on a 133 MHz PowerPC 604).
const NS_PER_CELL: u64 = 470;

/// Red-black successive over-relaxation on a `rows x cols` grid.
#[derive(Debug, Clone)]
pub struct SorApp {
    rows: usize,
    cols: usize,
    iters: usize,
}

impl SorApp {
    /// A SOR problem of the given size.
    ///
    /// # Panics
    ///
    /// Panics if the grid is smaller than 3x3 or `iters` is zero.
    pub fn new(rows: usize, cols: usize, iters: usize) -> Self {
        assert!(rows >= 3 && cols >= 3, "grid too small");
        assert!(iters > 0, "need at least one iteration");
        SorApp { rows, cols, iters }
    }

    /// The paper's problem size: 2000x2000, 50 iterations.
    pub fn paper_scale() -> Self {
        SorApp::new(2000, 2000, 50)
    }

    /// Scaled-down default preserving the sharing structure.
    pub fn default_scale() -> Self {
        SorApp::new(512, 512, 10)
    }

    fn initial_row(&self, i: usize) -> Vec<f64> {
        // Hot top edge, cold interior — the classic heat plate.
        if i == 0 {
            vec![1.0; self.cols]
        } else {
            vec![0.0; self.cols]
        }
    }

    /// Sequential reference with the same update order per color.
    ///
    /// Updated in place: a cell's four neighbours are all of the other
    /// color (`i + j` differs by one), which this sweep never writes,
    /// so every read sees the grid as it stood when the sweep began —
    /// bit for bit what a copy taken before the sweep would give.
    fn reference(&self) -> Vec<f64> {
        let cols = self.cols;
        let mut g = vec![0.0; self.rows * cols];
        g[..cols].fill(1.0);
        for _ in 0..self.iters {
            for color in 0..2 {
                for i in 1..self.rows - 1 {
                    let (top, rest) = g.split_at_mut(i * cols);
                    let (here, below) = rest.split_at_mut(cols);
                    relax_row(&top[(i - 1) * cols..], here, below, i, color);
                }
            }
        }
        g
    }
}

impl Checked for SorApp {
    fn expected(&self) -> Vec<f64> {
        self.reference()
    }

    /// Cell by cell within a relative 1e-12.
    fn agrees(&self, got: &[f64], expect: &[f64]) -> bool {
        got.iter()
            .zip(expect)
            .all(|(a, b)| (a - b).abs() <= 1e-12 * b.abs().max(1.0))
    }
}

/// Relaxes the cells of `color` in row `i` in place, stepping over the
/// other color's cells (the first of ours is column 1 or 2): only
/// those are read, so the order is free.
fn relax_row(above: &[f64], here: &mut [f64], below: &[f64], i: usize, color: usize) {
    let cols = here.len();
    let (above, below) = (&above[..cols], &below[..cols]);
    for j in (1 + (i + 1 + color) % 2..cols - 1).step_by(2) {
        here[j] = 0.25 * (above[j] + below[j] + here[j - 1] + here[j + 1]);
    }
}

impl DsmTask for SorApp {
    type Handles = SharedVec<f64>;

    fn name(&self) -> String {
        "SOR".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        // The TreadMarks SOR allocates the grid on the master.
        heap.alloc(self.rows * self.cols, HomePolicy::Single(0))
    }

    async fn run(&self, ctx: &mut TaskCtx, grid: &Self::Handles) {
        let t = ctx.thread_id();
        let n = ctx.num_threads();
        let cols = self.cols;
        // Interior rows are partitioned; boundary rows stay fixed.
        // With more threads than interior rows the block is empty
        // (r0 == r1): such a thread does no row work but must still
        // hit every barrier.
        let (r0, r1) = block_range(self.rows - 2, t, n);
        let (r0, r1) = (r0 + 1, r1 + 1);
        let has_rows = r1 > r0;

        if t == 0 {
            for i in 0..self.rows {
                ctx.write_slice(grid, i * cols, &self.initial_row(i)).await;
            }
        }
        ctx.barrier(BarrierId(0)).await;
        // First-touch prefetch: the whole grid lives on the master
        // after initialization.
        if has_rows {
            ctx.prefetch(grid, (r0 - 1) * cols, (r1 + 1) * cols).await;
        }

        let mut bars = BarrierCycle::new();
        let mut rows = StencilRows::new(cols);
        for _ in 0..self.iters {
            for color in 0..2usize {
                // Prefetch the halo rows owned by our neighbors; they
                // were invalidated by the previous phase's writes.
                if has_rows && r0 > 1 {
                    ctx.prefetch(grid, (r0 - 1) * cols, r0 * cols).await;
                }
                if has_rows && r1 < self.rows - 1 {
                    ctx.prefetch(grid, r1 * cols, (r1 + 1) * cols).await;
                }
                // Update one row: reads rows i-1, i, i+1, writes row i.
                let mut update_row = async |ctx: &mut TaskCtx, i: usize| {
                    rows.read_around(ctx, grid, i).await;
                    relax_row(&rows.above, &mut rows.here, &rows.below, i, color);
                    ctx.compute(SimDuration::from_nanos(NS_PER_CELL * (cols as u64 / 2)));
                    ctx.write_slice(grid, i * cols, &rows.here).await;
                };
                // Interior rows first so the halo prefetches have the
                // whole block's compute time to complete (§3.2's
                // scheduling); the halo-dependent edge rows run last.
                for i in r0 + 1..r1.saturating_sub(1) {
                    update_row(ctx, i).await;
                }
                if has_rows {
                    update_row(ctx, r0).await;
                    if r1 - r0 > 1 {
                        update_row(ctx, r1 - 1).await;
                    }
                }
                bars.next(ctx).await;
            }
        }
    }

    fn verify(&self, mem: &VerifyCtx, grid: &Self::Handles) -> bool {
        self.matches(&mem.read_vec(grid, 0, grid.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{bits, bits_digest, StencilRows};

    /// The loops the kernel and the reference replaced: a color test
    /// on every cell, the kernel writing a copy of the row.
    mod oracle {
        use super::*;

        pub(super) fn relax_row(rows: &mut StencilRows, i: usize, color: usize) {
            let StencilRows {
                above,
                here,
                below,
                out,
            } = rows;
            out.copy_from_slice(here);
            for j in 1..here.len() - 1 {
                if (i + j) % 2 == color {
                    out[j] = 0.25 * (above[j] + below[j] + here[j - 1] + here[j + 1]);
                }
            }
        }

        pub(super) fn reference(app: &SorApp) -> Vec<f64> {
            let mut g: Vec<f64> = (0..app.rows).flat_map(|i| app.initial_row(i)).collect();
            let cols = app.cols;
            for _ in 0..app.iters {
                for color in 0..2usize {
                    for i in 1..app.rows - 1 {
                        for j in 1..cols - 1 {
                            if (i + j) % 2 == color {
                                g[i * cols + j] = 0.25
                                    * (g[(i - 1) * cols + j]
                                        + g[(i + 1) * cols + j]
                                        + g[i * cols + j - 1]
                                        + g[i * cols + j + 1]);
                            }
                        }
                    }
                }
            }
            g
        }
    }

    const SHAPES: [(usize, usize, usize); 6] = [
        (3, 3, 1),
        (3, 3, 10),
        (7, 9, 1),
        (7, 10, 10),
        (12, 11, 10),
        (33, 64, 3),
    ];

    #[test]
    fn reference_is_the_old_loops_bit_for_bit() {
        for (rows, cols, iters) in SHAPES {
            let app = SorApp::new(rows, cols, iters);
            assert_eq!(
                bits(&app.reference()),
                bits(&oracle::reference(&app)),
                "{rows}x{cols}x{iters}"
            );
        }
    }

    /// Sweeps the grid the way `run` does, one thread's block after
    /// another (some empty when `rows - 2 < threads`), feeding each row
    /// to both kernels: every cell of every written row must agree.
    #[test]
    fn kernel_is_the_old_loop_bit_for_bit() {
        for (rows, cols, iters) in SHAPES {
            for threads in [1, 3, 8] {
                let app = SorApp::new(rows, cols, iters);
                let mut g: Vec<f64> = (0..rows).flat_map(|i| app.initial_row(i)).collect();
                let mut old = StencilRows::new(cols);
                for _ in 0..iters {
                    for color in 0..2 {
                        let before = g.clone();
                        for t in 0..threads {
                            let (r0, r1) = block_range(rows - 2, t, threads);
                            for i in r0 + 1..r1 + 1 {
                                let row = |k: usize| &before[k * cols..(k + 1) * cols];
                                old.above.copy_from_slice(row(i - 1));
                                old.here.copy_from_slice(row(i));
                                old.below.copy_from_slice(row(i + 1));
                                oracle::relax_row(&mut old, i, color);
                                let mut here = row(i).to_vec();
                                relax_row(row(i - 1), &mut here, row(i + 1), i, color);
                                assert_eq!(bits(&here), bits(&old.out), "{rows}x{cols} row {i}");
                                g[i * cols..(i + 1) * cols].copy_from_slice(&here);
                            }
                        }
                    }
                }
                assert_eq!(
                    bits(&g),
                    bits(&oracle::reference(&app)),
                    "{rows}x{cols}/{threads}"
                );
            }
        }
    }

    /// Any later change to the reference's arithmetic or order fails
    /// here before it can move a run.
    #[test]
    fn default_reference_digest_is_pinned() {
        let app = SorApp::default_scale();
        assert_eq!(bits_digest(&oracle::reference(&app)), 0x368c_08b0_ff9b_8237);
        assert_eq!(bits_digest(&app.reference()), 0x368c_08b0_ff9b_8237);
    }

    #[test]
    fn matches_accepts_the_reference_and_rejects_a_moved_cell_or_a_nan() {
        let app = SorApp::new(8, 9, 3);
        let mut got = app.reference();
        assert!(app.matches(&got));
        let cell = 2 * 9 + 4;
        let ok = got[cell];
        got[cell] = ok + 1e-9;
        assert!(!app.matches(&got));
        got[cell] = f64::NAN;
        assert!(!app.matches(&got));
        got[cell] = ok;
        assert!(!app.matches(&got[1..]));
    }

    #[test]
    fn reference_diffuses_heat_downward() {
        let app = SorApp::new(8, 8, 10);
        let g = app.reference();
        // Row 1 interior cells must have warmed above zero.
        assert!(g[8 + 4] > 0.0);
        // Heat decreases with depth.
        assert!(g[8 + 4] > g[3 * 8 + 4]);
        // Boundary unchanged.
        assert_eq!(g[4], 1.0);
        assert_eq!(g[7 * 8 + 4], 0.0);
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn tiny_grid_rejected() {
        SorApp::new(2, 8, 1);
    }

    #[test]
    fn scales_are_sane() {
        let p = SorApp::paper_scale();
        assert_eq!((p.rows, p.cols, p.iters), (2000, 2000, 50));
        let d = SorApp::default_scale();
        assert!(d.rows * d.cols < p.rows * p.cols);
    }
}

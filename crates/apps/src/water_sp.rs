//! WATER-SP: O(n) spatial molecular dynamics (SPLASH-2, simplified
//! potential).
//!
//! Molecules live in a grid of cells; forces act only between
//! molecules in neighboring cells, found by chasing per-cell linked
//! lists stored in shared memory (`head` and `next` index arrays) —
//! the pointer-based structure that defeats ordinary prefetch
//! scheduling. Prefetches therefore use the paper's *history* scheme
//! (Luk & Mowry, §3.2): a first traversal pass records the pointers
//! in a private array, and the compute pass prefetches by
//! dereferencing that array one molecule ahead.

use rsdsm_core::{
    BarrierId, DsmTask, Heap, HomePolicy, LockId, SharedVec, TaskCtx, VerifyCtx, PAGE_SIZE,
};
use rsdsm_simnet::SimDuration;

use crate::block_range;
use crate::util::{gen_f64, leapfrog, pair_energy, pair_force, unstride, BarrierCycle, Checked};

/// Simulated cost per pair-force evaluation.
const NS_PER_PAIR: u64 = 21000;
/// Elements reserved per molecule in each particle array (a real
/// water molecule record is hundreds of bytes; see WATER-NSQ).
const STRIDE: usize = 32;
/// Simulated cost per list-link traversal.
const NS_PER_LINK: u64 = 400;
/// Integration cost per molecule.
const NS_PER_INTEGRATE: u64 = 2000;
/// Domain side length.
const BOX: f64 = 4.0;
/// Interaction cutoff radius.
const CUTOFF: f64 = 1.0;
/// Global potential-energy lock.
const ENERGY_LOCK: LockId = LockId(199);

/// Spatial O(n) molecular dynamics over `n` molecules.
#[derive(Debug, Clone)]
pub struct WaterSpApp {
    n: usize,
    steps: usize,
    cells_per_side: usize,
}

impl WaterSpApp {
    /// A run of `n` molecules for `steps` steps.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `steps == 0`.
    pub fn new(n: usize, steps: usize) -> Self {
        assert!(n >= 8, "need at least 8 molecules");
        assert!(steps > 0, "need at least one step");
        WaterSpApp {
            n,
            steps,
            cells_per_side: (BOX / CUTOFF) as usize,
        }
    }

    /// The paper's size: 4096 molecules, 9 steps.
    pub fn paper_scale() -> Self {
        WaterSpApp::new(4096, 9)
    }

    /// Scaled-down default.
    pub fn default_scale() -> Self {
        WaterSpApp::new(512, 3)
    }

    fn num_cells(&self) -> usize {
        self.cells_per_side.pow(3)
    }

    fn initial_pos(&self, i: usize, axis: usize) -> f64 {
        gen_f64(0x59A7 | (axis as u64) << 32, i) * BOX
    }

    fn initial_vel(&self, i: usize, axis: usize) -> f64 {
        (gen_f64(0x5BEE | (axis as u64) << 32, i) - 0.5) * 0.01
    }

    fn cell_of(&self, x: f64, y: f64, z: f64) -> usize {
        let ncs = self.cells_per_side;
        let clamp = |v: f64| ((v / CUTOFF) as isize).clamp(0, ncs as isize - 1) as usize;
        (clamp(x) * ncs + clamp(y)) * ncs + clamp(z)
    }

    /// The cells around `cell`, itself included, in ascending order:
    /// the first `len` of the returned array.
    fn neighbor_cells(&self, cell: usize) -> ([usize; 27], usize) {
        let ncs = self.cells_per_side as isize;
        let z = (cell % ncs as usize) as isize;
        let y = ((cell / ncs as usize) % ncs as usize) as isize;
        let x = (cell / (ncs * ncs) as usize) as isize;
        let (mut out, mut len) = ([0; 27], 0);
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    let (nx, ny, nz) = (x + dx, y + dy, z + dz);
                    if (0..ncs).contains(&nx) && (0..ncs).contains(&ny) && (0..ncs).contains(&nz) {
                        out[len] = ((nx * ncs + ny) * ncs + nz) as usize;
                        len += 1;
                    }
                }
            }
        }
        (out, len)
    }

    /// Sequential reference with the same cell structure. List
    /// insertion order is by ascending molecule index.
    fn reference(&self) -> Vec<f64> {
        let n = self.n;
        let mut pos: Vec<f64> = (0..3 * n).map(|x| self.initial_pos(x / 3, x % 3)).collect();
        let mut vel: Vec<f64> = (0..3 * n).map(|x| self.initial_vel(x / 3, x % 3)).collect();
        for _ in 0..self.steps {
            let mut cells: Vec<Vec<usize>> = vec![Vec::new(); self.num_cells()];
            for i in 0..n {
                cells[self.cell_of(pos[3 * i], pos[3 * i + 1], pos[3 * i + 2])].push(i);
            }
            let mut f = vec![0.0f64; 3 * n];
            for i in 0..n {
                let c = self.cell_of(pos[3 * i], pos[3 * i + 1], pos[3 * i + 2]);
                let (around, len) = self.neighbor_cells(c);
                for &nc in &around[..len] {
                    for &j in &cells[nc] {
                        if j == i {
                            continue;
                        }
                        let dx = pos[3 * i] - pos[3 * j];
                        let dy = pos[3 * i + 1] - pos[3 * j + 1];
                        let dz = pos[3 * i + 2] - pos[3 * j + 2];
                        if dx * dx + dy * dy + dz * dz <= CUTOFF * CUTOFF {
                            let fv = pair_force(dx, dy, dz);
                            for a in 0..3 {
                                f[3 * i + a] += fv[a];
                            }
                        }
                    }
                }
            }
            for k in 0..3 * n {
                vel[k] += f[k];
                pos[k] += vel[k];
            }
        }
        pos
    }
}

/// Shared handles: particle state plus the cell linked lists.
#[derive(Debug, Clone, Copy)]
pub struct WaterSpHandles {
    pos: SharedVec<f64>,
    vel: SharedVec<f64>,
    force: SharedVec<f64>,
    head: SharedVec<i32>,
    next: SharedVec<i32>,
    cell_id: SharedVec<i32>,
    energy: SharedVec<f64>,
}

/// Molecule `j`'s force on molecule `i` if the two are within the
/// cutoff: onto `force`, with half the pair's energy onto `energy`.
/// Returns whether they are.
fn accumulate_pair(pi: [f64; 3], pj: [f64; 3], force: &mut [f64], energy: &mut f64) -> bool {
    let (dx, dy, dz) = (pi[0] - pj[0], pi[1] - pj[1], pi[2] - pj[2]);
    let within = dx * dx + dy * dy + dz * dz <= CUTOFF * CUTOFF;
    if within {
        let fv = pair_force(dx, dy, dz);
        force[0] += fv[0];
        force[1] += fv[1];
        force[2] += fv[2];
        *energy += 0.5 * pair_energy(dx, dy, dz);
    }
    within
}

/// Packed per-molecule triples laid out in the strided shared layout.
fn strided(packed: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0f64; STRIDE * (packed.len() / 3)];
    for (mol, triple) in out.chunks_exact_mut(STRIDE).zip(packed.chunks_exact(3)) {
        mol[..3].copy_from_slice(triple);
    }
    out
}

impl WaterSpApp {
    /// The cell of each molecule of a strided position block.
    fn cells_of(&self, pos: &[f64]) -> Vec<i32> {
        pos.chunks_exact(STRIDE)
            .map(|mol| self.cell_of(mol[0], mol[1], mol[2]) as i32)
            .collect()
    }
}

impl DsmTask for WaterSpApp {
    type Handles = WaterSpHandles;

    fn name(&self) -> String {
        "WATER-SP".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        WaterSpHandles {
            pos: heap.alloc(STRIDE * self.n, HomePolicy::Blocked),
            vel: heap.alloc(STRIDE * self.n, HomePolicy::Blocked),
            force: heap.alloc(STRIDE * self.n, HomePolicy::Blocked),
            head: heap.alloc(self.num_cells(), HomePolicy::RoundRobin),
            next: heap.alloc(self.n, HomePolicy::Blocked),
            cell_id: heap.alloc(self.n, HomePolicy::Blocked),
            energy: heap.alloc(1, HomePolicy::Single(0)),
        }
    }

    async fn run(&self, ctx: &mut TaskCtx, h: &Self::Handles) {
        let t = ctx.thread_id();
        let nt = ctx.num_threads();
        let n = self.n;
        let (m0, m1) = block_range(n, t, nt);
        let mine = m1 - m0;
        let (c0, c1) = block_range(self.num_cells(), t, nt);

        if t == 0 {
            let mut init = vec![0.0f64; STRIDE * n];
            for i in 0..n {
                for a in 0..3 {
                    init[i * STRIDE + a] = self.initial_pos(i, a);
                }
            }
            ctx.write_slice(&h.pos, 0, &init).await;
            for i in 0..n {
                for a in 0..3 {
                    init[i * STRIDE + a] = self.initial_vel(i, a);
                }
            }
            ctx.write_slice(&h.vel, 0, &init).await;
            ctx.write(&h.energy, 0, 0.0).await;
        }
        ctx.barrier(BarrierId(0)).await;

        let mut bars = BarrierCycle::new();
        let zeros = vec![0.0f64; STRIDE * mine];
        // Pass A's history array, reused every step: the recorded
        // neighbours of all my molecules back to back, molecule `i`'s
        // at `history[history_at[i]..history_at[i + 1]]`.
        let mut history: Vec<usize> = Vec::new();
        let mut history_at: Vec<usize> = Vec::with_capacity(mine + 1);
        for _ in 0..self.steps {
            // Reset my force block (cell heads are fully rewritten
            // by the list build below).
            ctx.write_slice(&h.force, STRIDE * m0, &zeros).await;
            if t == 0 {
                ctx.write(&h.energy, 0, 0.0).await;
            }
            bars.next(ctx).await;

            // Publish my molecules' cell ids (computed from my own,
            // local position block).
            let my_pos = ctx.read_vec(&h.pos, STRIDE * m0, STRIDE * mine).await;
            let my_cells = self.cells_of(&my_pos);
            ctx.write_slice(&h.cell_id, m0, &my_cells).await;
            ctx.compute(SimDuration::from_nanos(mine as u64 * 200));
            bars.next(ctx).await;

            // Build the lists of MY cells from the published cell ids
            // (SPLASH-2 assigns boxes to owners, so list construction
            // needs no locks: a cell's head and its members' next
            // links are written by exactly one thread). Prepending in
            // descending index order leaves each list ascending, the
            // same order as the sequential reference.
            ctx.prefetch(&h.cell_id, 0, n).await;
            let all_cells = ctx.read_vec(&h.cell_id, 0, n).await;
            let mut heads = vec![-1i32; c1.saturating_sub(c0)];
            for i in (0..n).rev() {
                let cell = all_cells[i] as usize;
                if (c0..c1).contains(&cell) {
                    ctx.write(&h.next, i, heads[cell - c0]).await;
                    heads[cell - c0] = i as i32;
                }
            }
            if c0 < c1 {
                ctx.write_slice(&h.head, c0, &heads).await;
            }
            ctx.compute(SimDuration::from_nanos(n as u64 * 150));
            bars.next(ctx).await;

            // Pass A: walk the lists once, recording each of my
            // molecules' neighbor set (the history array).
            history.clear();
            history_at.clear();
            history_at.push(0);
            let mut links = 0u64;
            for (i, &cell) in (m0..m1).zip(&my_cells) {
                let (around, len) = self.neighbor_cells(cell as usize);
                for &nc in &around[..len] {
                    let mut j = ctx.read(&h.head, nc).await;
                    while j >= 0 {
                        if j as usize != i {
                            history.push(j as usize);
                        }
                        j = ctx.read(&h.next, j as usize).await;
                        links += 1;
                    }
                }
                history_at.push(history.len());
            }
            let recorded = |i: usize| &history[history_at[i]..history_at[i + 1]];
            ctx.compute(SimDuration::from_nanos(links * NS_PER_LINK));

            // Pass B: compute forces, prefetching the *next*
            // molecule's recorded neighbors (history prefetching).
            let mut local_e = 0.0f64;
            let mut my_force = vec![0.0f64; 3 * mine];
            let mut pairs = 0u64;
            let mut last_pf_page = usize::MAX;
            for i in 0..mine {
                if i + 1 < mine {
                    // History prefetch: dereference the recorded
                    // pointers of the *next* molecule one step ahead
                    // (issuing once per page, as Mowry's scheduling
                    // strips redundant prefetches).
                    for &j in recorded(i + 1) {
                        let pf_page = STRIDE * j * 8 / PAGE_SIZE;
                        if pf_page != last_pf_page {
                            ctx.prefetch(&h.pos, STRIDE * j, STRIDE * j + 3).await;
                            last_pf_page = pf_page;
                        }
                    }
                }
                let k = STRIDE * i;
                let pi = [my_pos[k], my_pos[k + 1], my_pos[k + 2]];
                for &j in recorded(i) {
                    let mut pj = [0.0f64; 3];
                    ctx.read_slice(&h.pos, STRIDE * j, &mut pj).await;
                    let force = &mut my_force[3 * i..3 * i + 3];
                    pairs += u64::from(accumulate_pair(pi, pj, force, &mut local_e));
                }
            }
            ctx.compute(SimDuration::from_nanos(pairs * NS_PER_PAIR));
            ctx.write_slice(&h.force, STRIDE * m0, &strided(&my_force))
                .await;
            ctx.acquire(ENERGY_LOCK).await;
            let e = ctx.read(&h.energy, 0).await;
            ctx.write(&h.energy, 0, e + local_e).await;
            ctx.release(ENERGY_LOCK).await;
            bars.next(ctx).await;

            // Integrate my molecules.
            let f = ctx.read_vec(&h.force, STRIDE * m0, STRIDE * mine).await;
            let mut vel = ctx.read_vec(&h.vel, STRIDE * m0, STRIDE * mine).await;
            let mut pos_mine = ctx.read_vec(&h.pos, STRIDE * m0, STRIDE * mine).await;
            leapfrog(STRIDE, &f, &mut vel, &mut pos_mine);
            ctx.compute(SimDuration::from_nanos(mine as u64 * NS_PER_INTEGRATE));
            ctx.write_slice(&h.vel, STRIDE * m0, &vel).await;
            ctx.write_slice(&h.pos, STRIDE * m0, &pos_mine).await;
            bars.next(ctx).await;
        }
    }

    fn verify(&self, mem: &VerifyCtx, h: &Self::Handles) -> bool {
        self.matches(&unstride(STRIDE, &mem.read_vec(&h.pos, 0, STRIDE * self.n)))
    }
}

impl Checked for WaterSpApp {
    /// Every molecule's three coordinates.
    fn expected(&self) -> Vec<f64> {
        self.reference()
    }

    /// Coordinate by coordinate within a relative 1e-6.
    fn agrees(&self, got: &[f64], expect: &[f64]) -> bool {
        got.iter()
            .zip(expect)
            .all(|(got, want)| (got - want).abs() <= 1e-6 * want.abs().max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_partition_the_box() {
        let app = WaterSpApp::new(64, 1);
        assert_eq!(app.num_cells(), 64);
        assert_eq!(app.cell_of(0.0, 0.0, 0.0), 0);
        assert_eq!(app.cell_of(3.99, 3.99, 3.99), 63);
        // Out-of-box positions clamp.
        assert_eq!(app.cell_of(-1.0, 5.0, 2.0), app.cell_of(0.0, 3.99, 2.0));
    }

    #[test]
    fn neighbor_cells_include_self_and_respect_bounds() {
        let app = WaterSpApp::new(64, 1);
        let (corner, len) = app.neighbor_cells(0);
        assert!(corner[..len].contains(&0));
        assert_eq!(len, 8, "corner cell has 8 neighbors (incl self)");
        assert!(corner[..len].is_sorted());
        let center = app.cell_of(2.5, 2.5, 2.5);
        assert_eq!(app.neighbor_cells(center).1, 27);
    }

    #[test]
    fn reference_is_finite() {
        let app = WaterSpApp::new(32, 2);
        let pos = app.reference();
        assert!(pos.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cutoff_limits_interactions() {
        // Far-apart molecules in non-adjacent cells never interact:
        // their reference trajectories are straight lines.
        let app = WaterSpApp::new(8, 1);
        let pos = app.reference();
        for i in 0..8 {
            for a in 0..3 {
                let expect_straight = app.initial_pos(i, a) + app.initial_vel(i, a);
                let moved = (pos[3 * i + a] - expect_straight).abs();
                // Some molecules interact; at least assert motion is
                // bounded (forces are tiny).
                assert!(moved < 0.1, "molecule {i} axis {a} moved {moved}");
            }
        }
    }
}

//! WATER-NSQ: O(n^2) molecular dynamics (SPLASH-2, simplified
//! potential).
//!
//! Molecules are block-owned; each step every thread computes pair
//! forces for its molecules against a half shell of the others,
//! accumulates privately, then merges into the shared force array
//! under per-block locks — the multiple-producer, multiple-consumer
//! pattern the paper highlights: the major misses happen at lock-
//! protected shared updates, and the *non-binding* property lets
//! prefetches be hoisted above the acquires (§3.2).
//!
//! The intermolecular potential is a softened repulsive pair force
//! rather than the real water potential, and each molecule occupies a
//! realistic record footprint ([`STRIDE`] elements per array) so page-
//! level sharing behaves like the original; the sharing, locking and
//! synchronization structure — which is what the paper measures — is
//! preserved.

use rsdsm_core::{BarrierId, DsmTask, Heap, HomePolicy, LockId, SharedVec, TaskCtx, VerifyCtx};
use rsdsm_simnet::SimDuration;

use crate::block_range;
use crate::util::{gen_f64, leapfrog, pair_energy, pair_force, unstride, BarrierCycle, Checked};

/// Simulated cost per pair-force evaluation (the real water potential
/// is expensive — dozens of flops).
const NS_PER_PAIR: u64 = 8000;
/// Integration cost per molecule.
const NS_PER_INTEGRATE: u64 = 2000;
/// Elements reserved per molecule in each shared array. A real
/// SPLASH-2 water molecule record carries positions, derivatives and
/// forces for three atoms (hundreds of bytes); this stride models that
/// footprint so page-level sharing behaves like the original.
const STRIDE: usize = 32;
/// Molecules covered by one force-merge lock. Fine-grained, close to
/// the SPLASH-2 per-molecule locking that keeps holders from queueing
/// behind each other.
const MOLS_PER_LOCK: usize = 4;
/// Lock ids used by this app start here.
const LOCK_BASE: u32 = 100;
/// The global potential-energy accumulator lock.
const ENERGY_LOCK: LockId = LockId(99);

/// O(n^2) molecular dynamics over `n` molecules for `steps` steps.
#[derive(Debug, Clone)]
pub struct WaterNsqApp {
    n: usize,
    steps: usize,
}

impl WaterNsqApp {
    /// A run of `n` molecules for `steps` time steps.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `steps == 0`.
    pub fn new(n: usize, steps: usize) -> Self {
        assert!(n >= 8, "need at least 8 molecules");
        assert!(steps > 0, "need at least one step");
        WaterNsqApp { n, steps }
    }

    /// The paper's size: 512 molecules, 9 steps.
    pub fn paper_scale() -> Self {
        WaterNsqApp::new(512, 9)
    }

    /// Scaled-down default.
    pub fn default_scale() -> Self {
        WaterNsqApp::new(256, 3)
    }

    fn initial_pos(&self, i: usize, axis: usize) -> f64 {
        gen_f64(0x3A7E | (axis as u64) << 32, i) * 4.0
    }

    fn initial_vel(&self, i: usize, axis: usize) -> f64 {
        (gen_f64(0xBEE5 | (axis as u64) << 32, i) - 0.5) * 0.01
    }

    /// Whether `j` is in molecule `i`'s half shell: `j = i + d`
    /// (mod n) for `d` in `1..=n/2`, as in SPLASH-2 WATER.
    fn is_partner(&self, i: usize, j: usize) -> bool {
        let n = self.n;
        let d = (j + n - i) % n;
        // For even n, the d = n/2 pair would be visited twice (once
        // from each side); keep only the lower index's view.
        (1..=n / 2).contains(&d) && !(d == n / 2 && n.is_multiple_of(2) && i >= j)
    }

    /// Molecule `i`'s half-shell partners, nearest first.
    fn partners(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        (1..=self.n / 2)
            .map(move |d| (i + d) % self.n)
            .filter(move |&j| self.is_partner(i, j))
    }

    /// Sequential reference (same force law, deterministic order).
    fn reference(&self) -> (Vec<f64>, f64) {
        let n = self.n;
        let mut pos: Vec<f64> = (0..3 * n).map(|x| self.initial_pos(x / 3, x % 3)).collect();
        let mut vel: Vec<f64> = (0..3 * n).map(|x| self.initial_vel(x / 3, x % 3)).collect();
        let mut energy = 0.0;
        for _ in 0..self.steps {
            let mut f = vec![0.0f64; 3 * n];
            energy = 0.0;
            for i in 0..n {
                for j in self.partners(i) {
                    let dx = pos[3 * i] - pos[3 * j];
                    let dy = pos[3 * i + 1] - pos[3 * j + 1];
                    let dz = pos[3 * i + 2] - pos[3 * j + 2];
                    let fv = pair_force(dx, dy, dz);
                    for a in 0..3 {
                        f[3 * i + a] += fv[a];
                        f[3 * j + a] -= fv[a];
                    }
                    energy += pair_energy(dx, dy, dz);
                }
            }
            for i in 0..n {
                for a in 0..3 {
                    vel[3 * i + a] += f[3 * i + a];
                    pos[3 * i + a] += vel[3 * i + a];
                }
            }
        }
        (pos, energy)
    }
}

/// Shared handles: positions, velocities, forces (all strided per
/// molecule), and the potential-energy cell.
#[derive(Debug, Clone, Copy)]
pub struct WaterNsqHandles {
    pos: SharedVec<f64>,
    vel: SharedVec<f64>,
    force: SharedVec<f64>,
    energy: SharedVec<f64>,
}

/// Adds packed per-molecule triples to a strided run of molecules.
fn add_strided(strided: &mut [f64], packed: &[f64]) {
    for (mol, add) in strided.chunks_exact_mut(STRIDE).zip(packed.chunks_exact(3)) {
        for a in 0..3 {
            mol[a] += add[a];
        }
    }
}

impl WaterNsqApp {
    /// The pair interactions of molecules `mine` with their partners
    /// in `block`: forces on the former into `f_mine`, the reactions
    /// into `f_block`, potential energy onto `energy`. Returns the
    /// pairs evaluated.
    ///
    /// Walking the block instead of each half shell visits the pairs
    /// in the order `partners` gives them, so every sum is bit-for-bit
    /// the same: `d = j - i (mod n)` grows with `j` across a block that
    /// does not hold `i`, and in one that does, every `j < i` has
    /// `d >= n - 3 > n/2` (blocks hold 4 molecules, `n >= 8`).
    fn block_pairs(
        &self,
        pos: &[f64],
        mine: (usize, usize),
        block: (usize, usize),
        f_mine: &mut [f64],
        f_block: &mut [f64],
        energy: &mut f64,
    ) -> u64 {
        let ((m0, m1), (lo, hi)) = (mine, block);
        let mut pairs = 0u64;
        for i in m0..m1 {
            for j in (lo..hi).filter(|&j| self.is_partner(i, j)) {
                let dx = pos[3 * i] - pos[3 * j];
                let dy = pos[3 * i + 1] - pos[3 * j + 1];
                let dz = pos[3 * i + 2] - pos[3 * j + 2];
                let fv = pair_force(dx, dy, dz);
                pairs += 1;
                for a in 0..3 {
                    f_mine[3 * (i - m0) + a] += fv[a];
                    f_block[3 * (j - lo) + a] -= fv[a];
                }
                *energy += pair_energy(dx, dy, dz);
            }
        }
        pairs
    }
}

impl DsmTask for WaterNsqApp {
    type Handles = WaterNsqHandles;

    fn name(&self) -> String {
        "WATER-NSQ".into()
    }

    fn allocate(&self, heap: &mut Heap) -> Self::Handles {
        WaterNsqHandles {
            pos: heap.alloc(STRIDE * self.n, HomePolicy::Blocked),
            vel: heap.alloc(STRIDE * self.n, HomePolicy::Blocked),
            force: heap.alloc(STRIDE * self.n, HomePolicy::Blocked),
            energy: heap.alloc(1, HomePolicy::Single(0)),
        }
    }

    async fn run(&self, ctx: &mut TaskCtx, h: &Self::Handles) {
        let t = ctx.thread_id();
        let nt = ctx.num_threads();
        let n = self.n;
        let (m0, m1) = block_range(n, t, nt);
        let mine = m1 - m0;

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
        for _ in 0..self.steps {
            // Zero my block of the shared force array (and the energy
            // cell, by thread 0). The position prefetch is issued here
            // — before the barrier — so the fetches overlap the
            // barrier round-trip (positions were invalidated by the
            // previous integrate phase, so the notices are in hand).
            ctx.prefetch(&h.pos, 0, STRIDE * n).await;
            ctx.write_slice(&h.force, STRIDE * m0, &zeros).await;
            if t == 0 {
                ctx.write(&h.energy, 0, 0.0).await;
            }
            bars.next(ctx).await;

            // Pair forces: read all positions (prefetched), then walk
            // each owned molecule's half shell. Partner (j) force
            // updates go straight into the shared array under the
            // per-block locks, *inline* with the computation — this is
            // the SPLASH-2 structure: lock traffic is spread through
            // the compute phase, the token stays local across
            // consecutive same-block partners, and the non-binding
            // prefetch is hoisted above each acquire (§3.2).
            ctx.prefetch(&h.pos, 0, STRIDE * n).await;
            let pos = unstride(STRIDE, &ctx.read_vec(&h.pos, 0, STRIDE * n).await);
            let mut local_e = 0.0f64;
            let blocks = n.div_ceil(MOLS_PER_LOCK);
            // Sweep partner blocks block-major: all of this thread's
            // pair contributions into one block are accumulated
            // privately and flushed under the block's lock exactly
            // once per step (SPLASH-2 WATER batches its shared
            // inter-molecular updates the same way; the prefetch is
            // hoisted above each acquire, §3.2).
            let mut f_i = vec![0.0f64; 3 * mine];
            // Start the sweep at this thread's own block and wrap, so
            // threads hit different locks at any instant (SPLASH-2
            // staggers exactly this way to avoid convoys).
            let start_blk = m0 / MOLS_PER_LOCK;
            for blk_idx in 0..blocks {
                let blk = (start_blk + blk_idx) % blocks;
                let lo = blk * MOLS_PER_LOCK;
                let hi = ((blk + 1) * MOLS_PER_LOCK).min(n);
                let mut acc = vec![0.0f64; 3 * (hi - lo)];
                let pairs =
                    self.block_pairs(&pos, (m0, m1), (lo, hi), &mut f_i, &mut acc, &mut local_e);
                ctx.compute(SimDuration::from_nanos(pairs * NS_PER_PAIR));
                if pairs == 0 {
                    continue;
                }
                ctx.prefetch(&h.force, STRIDE * lo, STRIDE * hi).await;
                ctx.acquire(LockId(LOCK_BASE + blk as u32)).await;
                let mut cur = ctx
                    .read_vec(&h.force, STRIDE * lo, STRIDE * (hi - lo))
                    .await;
                add_strided(&mut cur, &acc);
                ctx.write_slice(&h.force, STRIDE * lo, &cur).await;
                ctx.release(LockId(LOCK_BASE + blk as u32)).await;
            }
            // Flush the accumulated forces of this thread's own
            // molecules, block by block.
            let my_first_blk = m0 / MOLS_PER_LOCK;
            let my_last_blk = (m1 - 1) / MOLS_PER_LOCK;
            for blk in my_first_blk..=my_last_blk {
                let lo = (blk * MOLS_PER_LOCK).max(m0);
                let hi = ((blk + 1) * MOLS_PER_LOCK).min(m1);
                ctx.prefetch(&h.force, STRIDE * lo, STRIDE * hi).await;
                ctx.acquire(LockId(LOCK_BASE + blk as u32)).await;
                let mut cur = ctx
                    .read_vec(&h.force, STRIDE * lo, STRIDE * (hi - lo))
                    .await;
                add_strided(&mut cur, &f_i[3 * (lo - m0)..3 * (hi - m0)]);
                ctx.write_slice(&h.force, STRIDE * lo, &cur).await;
                ctx.release(LockId(LOCK_BASE + blk as u32)).await;
            }

            // Potential energy under the global lock.
            ctx.prefetch(&h.energy, 0, 1).await;
            ctx.acquire(ENERGY_LOCK).await;
            let e = ctx.read(&h.energy, 0).await;
            ctx.write(&h.energy, 0, e + local_e).await;
            ctx.release(ENERGY_LOCK).await;

            bars.next(ctx).await;

            // Integrate my molecules.
            ctx.prefetch(&h.force, STRIDE * m0, STRIDE * m1).await;
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
        let mut got = unstride(STRIDE, &mem.read_vec(&h.pos, 0, STRIDE * self.n));
        got.push(mem.read(&h.energy, 0));
        self.matches(&got)
    }
}

impl Checked for WaterNsqApp {
    /// Every molecule's three coordinates, then the potential energy.
    fn expected(&self) -> Vec<f64> {
        let (mut image, energy) = self.reference();
        image.push(energy);
        image
    }

    /// Coordinates within a relative 1e-6, and the energy too: locked
    /// float sums depend on the critical-section order.
    fn agrees(&self, got: &[f64], expect: &[f64]) -> bool {
        let (&e, pos) = got.split_last().expect("an image ends with the energy");
        let (&expect_e, expect_pos) = expect.split_last().expect("as does the reference");
        let pos_ok = pos
            .iter()
            .zip(expect_pos)
            .all(|(got, want)| (got - want).abs() <= 1e-6 * want.abs().max(1.0));
        let e_ok = (e - expect_e).abs() <= 1e-6 * expect_e.abs().max(1e-12);
        pos_ok && e_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_shell_covers_each_pair_once() {
        for n in [8usize, 9, 12] {
            let app = WaterNsqApp::new(n, 1);
            let mut seen = std::collections::HashSet::new();
            for i in 0..n {
                for j in app.partners(i) {
                    let key = (i.min(j), i.max(j));
                    assert!(seen.insert(key), "pair {key:?} visited twice (n={n})");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn forces_obey_newtons_third_law() {
        let f = pair_force(1.0, 2.0, -1.0);
        let g = pair_force(-1.0, -2.0, 1.0);
        for a in 0..3 {
            assert!((f[a] + g[a]).abs() < 1e-18);
        }
    }

    #[test]
    fn reference_conserves_momentum() {
        let app = WaterNsqApp::new(16, 3);
        let (pos, energy) = app.reference();
        assert!(pos.iter().all(|v| v.is_finite()));
        assert!(energy > 0.0);
        let n = 16;
        let init_p: f64 = (0..3 * n).map(|x| app.initial_vel(x / 3, x % 3)).sum();
        let mut posv: Vec<f64> = (0..3 * n).map(|x| app.initial_pos(x / 3, x % 3)).collect();
        let mut vel: Vec<f64> = (0..3 * n).map(|x| app.initial_vel(x / 3, x % 3)).collect();
        for _ in 0..app.steps {
            let mut f = vec![0.0f64; 3 * n];
            for i in 0..n {
                for j in app.partners(i) {
                    let fv = pair_force(
                        posv[3 * i] - posv[3 * j],
                        posv[3 * i + 1] - posv[3 * j + 1],
                        posv[3 * i + 2] - posv[3 * j + 2],
                    );
                    for a in 0..3 {
                        f[3 * i + a] += fv[a];
                        f[3 * j + a] -= fv[a];
                    }
                }
            }
            for k in 0..3 * n {
                vel[k] += f[k];
                posv[k] += vel[k];
            }
        }
        let final_p: f64 = vel.iter().sum();
        assert!((final_p - init_p).abs() < 1e-9, "momentum drifted");
    }

    /// `block_pairs` against the half-shell walk it replaced, kept
    /// here as the reference: forces, energy and pair count agree bit
    /// for bit for every thread's molecules against every block.
    #[test]
    fn block_walk_matches_the_half_shell_walk() {
        #[allow(clippy::too_many_arguments)]
        fn reference(
            app: &WaterNsqApp,
            pos: &[f64],
            (m0, m1): (usize, usize),
            (lo, hi): (usize, usize),
            f_mine: &mut [f64],
            f_block: &mut [f64],
            energy: &mut f64,
        ) -> u64 {
            let mut pairs = 0u64;
            for i in m0..m1 {
                for j in app.partners(i) {
                    if j < lo || j >= hi {
                        continue;
                    }
                    let dx = pos[3 * i] - pos[3 * j];
                    let dy = pos[3 * i + 1] - pos[3 * j + 1];
                    let dz = pos[3 * i + 2] - pos[3 * j + 2];
                    let fv = pair_force(dx, dy, dz);
                    pairs += 1;
                    for a in 0..3 {
                        f_mine[3 * (i - m0) + a] += fv[a];
                        f_block[3 * (j - lo) + a] -= fv[a];
                    }
                    *energy += pair_energy(dx, dy, dz);
                }
            }
            pairs
        }

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [8usize, 9, 12, 13, 64, 256] {
            let app = WaterNsqApp::new(n, 1);
            let pos: Vec<f64> = (0..3 * n).map(|x| app.initial_pos(x / 3, x % 3)).collect();
            for nt in [1usize, 2, 3, 8] {
                for t in 0..nt {
                    let (m0, m1) = block_range(n, t, nt);
                    for blk in 0..n.div_ceil(MOLS_PER_LOCK) {
                        let (lo, hi) = (blk * MOLS_PER_LOCK, ((blk + 1) * MOLS_PER_LOCK).min(n));
                        let mut got = (vec![0.1; 3 * (m1 - m0)], vec![0.2; 3 * (hi - lo)], 0.3);
                        let mut want = got.clone();
                        let pairs = app.block_pairs(
                            &pos,
                            (m0, m1),
                            (lo, hi),
                            &mut got.0,
                            &mut got.1,
                            &mut got.2,
                        );
                        let expect = reference(
                            &app,
                            &pos,
                            (m0, m1),
                            (lo, hi),
                            &mut want.0,
                            &mut want.1,
                            &mut want.2,
                        );
                        let at = format!("n={n} nt={nt} t={t} block {blk}");
                        assert_eq!(pairs, expect, "{at}");
                        assert_eq!(bits(&got.0), bits(&want.0), "{at}");
                        assert_eq!(bits(&got.1), bits(&want.1), "{at}");
                        assert_eq!(got.2.to_bits(), want.2.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn lock_blocks_do_not_straddle_pages() {
        assert_eq!(rsdsm_core::PAGE_SIZE % (STRIDE * MOLS_PER_LOCK * 8), 0);
    }
}

//! The application programming model.
//!
//! A benchmark is a type implementing [`DsmTask`]: it allocates its
//! shared arrays up front, then every simulated thread executes `run`
//! with its own context. After the run the engine materializes the
//! authoritative final memory image and calls `verify` so every
//! experiment double-checks its numeric result.
//!
//! A [`DsmTask`]'s `run` is a future, stepped on the engine's own
//! thread. Its blocking form, [`DsmProgram`], is kept for the programs
//! of `benchmark/src/surface.rs`: its `run` is synchronous code, which
//! gets a parked OS thread per simulated thread (`blocking.rs`). The
//! simulation is the same either way — same syscalls in the same order
//! with the same charges, so the same report and trace digests — but a
//! task's hand-off costs no context switch. [`Runnable`] is what
//! [`Simulation::run`] and [`golden_run`] accept: either.
//!
//! [`DsmProgram`]: crate::DsmProgram
//! [`Simulation::run`]: crate::Simulation::run
//! [`golden_run`]: crate::golden_run

use std::future::Future;

use rsdsm_protocol::Page;

use crate::blocking::Scope;
use crate::conductor::{Task, TaskCtx};
use crate::heap::{page_bytes, Heap, Pod, SharedVec};

/// A parallel application runnable on the simulated DSM, written as a
/// task: every simulated thread is a future the engine polls on its
/// own thread.
///
/// Every [`TaskCtx`] operation that can reach the engine is awaited;
/// arithmetic on private data is ordinary Rust between the awaits.
/// Keep loops that matter in plain `fn`s: a local that lives across an
/// `.await` is a field of the future, and a loop over fields is not a
/// loop over registers.
///
/// # Examples
///
/// A two-thread program that sums a shared array:
///
/// ```
/// use rsdsm_core::{
///     BarrierId, DsmConfig, DsmTask, Heap, HomePolicy, SharedVec, Simulation, TaskCtx,
///     VerifyCtx,
/// };
///
/// struct Sum;
///
/// impl DsmTask for Sum {
///     type Handles = (SharedVec<f64>, SharedVec<f64>);
///
///     fn name(&self) -> String {
///         "sum".into()
///     }
///
///     fn allocate(&self, heap: &mut Heap) -> Self::Handles {
///         (
///             heap.alloc(1024, HomePolicy::Single(0)),
///             heap.alloc(2, HomePolicy::Single(0)),
///         )
///     }
///
///     async fn run(&self, ctx: &mut TaskCtx, (data, partial): &Self::Handles) {
///         let t = ctx.thread_id();
///         let n = ctx.num_threads();
///         let chunk = data.len() / n;
///         if t == 0 {
///             for i in 0..data.len() {
///                 ctx.write(data, i, 1.0).await;
///             }
///         }
///         ctx.barrier(BarrierId(0)).await;
///         let mine: f64 = ctx.read_vec(data, t * chunk, chunk).await.iter().sum();
///         ctx.write(partial, t, mine).await;
///         ctx.barrier(BarrierId(1)).await;
///     }
///
///     fn verify(&self, mem: &VerifyCtx, (_, partial): &Self::Handles) -> bool {
///         (mem.read(partial, 0) + mem.read(partial, 1) - 1024.0).abs() < 1e-9
///     }
/// }
///
/// let report = Simulation::new(DsmConfig::paper_cluster(2))
///     .run(&Sum)
///     .expect("run succeeds");
/// assert!(report.verified);
/// ```
pub trait DsmTask {
    /// Handles to the program's shared allocations, lent to every
    /// thread.
    type Handles;

    /// Human-readable benchmark name.
    fn name(&self) -> String;

    /// Allocates the program's shared arrays.
    fn allocate(&self, heap: &mut Heap) -> Self::Handles;

    /// The body executed by every application thread (implement it as
    /// an `async fn`). It may await the operations of `ctx` and
    /// nothing else: it is polled when the engine resumes the thread,
    /// not when some waker fires.
    fn run(&self, ctx: &mut TaskCtx, handles: &Self::Handles) -> impl Future<Output = ()>;

    /// Checks the final memory image. The default accepts anything.
    fn verify(&self, mem: &VerifyCtx, handles: &Self::Handles) -> bool {
        let _ = (mem, handles);
        true
    }
}

/// [`Runnable`] by way of [`DsmTask`]: simulated threads are futures
/// polled on the engine's thread.
#[derive(Debug)]
pub enum AsTask {}

/// What the engine and the golden executor run: a [`DsmTask`] or a
/// [`DsmProgram`]. Implemented for every type that implements one of
/// the two (`Backing` is then [`AsTask`] or [`AsThread`], inferred at
/// the call) and sealed: its methods are the program's own, plus one
/// that nothing outside this crate can call.
///
/// [`DsmProgram`]: crate::DsmProgram
/// [`AsThread`]: crate::AsThread
pub trait Runnable<Backing> {
    /// The program's `Handles`.
    type Handles;

    /// The program's `name`.
    #[doc(hidden)]
    fn name(&self) -> String;

    /// The program's `allocate`.
    #[doc(hidden)]
    fn allocate(&self, heap: &mut Heap) -> Self::Handles;

    /// The program's `verify`.
    #[doc(hidden)]
    fn verify(&self, mem: &VerifyCtx, handles: &Self::Handles) -> bool;

    /// One simulated thread's `run`, over `ctx`, as the future its
    /// driver polls; a [`DsmProgram`](crate::DsmProgram)'s starts its
    /// OS thread with `os`.
    #[doc(hidden)]
    fn body<'a>(&'a self, ctx: TaskCtx, handles: &'a Self::Handles, os: &Scope<'_, 'a>)
        -> Task<'a>;
}

/// Zero-cost read access to the authoritative final memory image,
/// for result verification.
#[derive(Debug)]
pub struct VerifyCtx {
    pages: Vec<Page>,
}

impl VerifyCtx {
    pub(crate) fn new(pages: Vec<Page>) -> Self {
        VerifyCtx { pages }
    }

    /// Gives the image back once verification is done.
    pub(crate) fn into_pages(self) -> Vec<Page> {
        self.pages
    }

    /// Reads element `i` of a shared array from the final image.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn read<T: Pod>(&self, v: &SharedVec<T>, i: usize) -> T {
        let (page, off) = v.locate(i);
        T::read_le(&self.pages[page.index()].bytes()[off..off + T::BYTES])
    }

    /// Reads a range of elements from the final image, a page's worth
    /// at a time.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_vec<T: Pod>(&self, v: &SharedVec<T>, start: usize, len: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(len);
        for (page, range) in v.locate_range(start, start + len) {
            let bytes = &self.pages[page.index()].bytes()[page_bytes::<T>(&range)];
            out.extend(bytes.chunks_exact(T::BYTES).map(T::read_le));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HomePolicy;

    /// An image of three arrays of three pages each, every element
    /// set to a function of its index; `read_vec` must agree with
    /// `read` element for element on ranges inside a page, across one
    /// page boundary, across two, empty, and whole.
    #[test]
    fn read_vec_equals_per_element_reads_across_pages() {
        fn check<T: Pod + PartialEq + std::fmt::Debug>(mem: &VerifyCtx, v: &SharedVec<T>) {
            let per_page = rsdsm_protocol::PAGE_SIZE / T::BYTES;
            for (start, len) in [
                (3, 5),
                (per_page - 2, 4),
                (per_page - 1, per_page + 2),
                (per_page, per_page),
                (per_page, 0),
                (v.len(), 0),
                (0, v.len()),
            ] {
                let each: Vec<T> = (start..start + len).map(|i| mem.read(v, i)).collect();
                assert_eq!(mem.read_vec(v, start, len), each, "{start}+{len}");
            }
        }
        let mut heap = Heap::new(1);
        let bytes: SharedVec<u8> = heap.alloc(2 * 4096 + 7, HomePolicy::Single(0));
        let words: SharedVec<u32> = heap.alloc(2 * 1024 + 9, HomePolicy::Single(0));
        let reals: SharedVec<f64> = heap.alloc(2 * 512 + 3, HomePolicy::Single(0));
        let mut pages = vec![Page::new(); heap.page_count()];
        let mut put = |page: rsdsm_protocol::PageId, off: usize, le: &[u8]| {
            pages[page.index()].bytes_mut()[off..off + le.len()].copy_from_slice(le);
        };
        for i in 0..bytes.len() {
            let (page, off) = bytes.locate(i);
            put(page, off, &[i as u8 ^ 0x5A]);
        }
        for i in 0..words.len() {
            let (page, off) = words.locate(i);
            put(
                page,
                off,
                &(i as u32).wrapping_mul(0x0101_0101).to_le_bytes(),
            );
        }
        for i in 0..reals.len() {
            let (page, off) = reals.locate(i);
            put(page, off, &(i as f64 * 0.25 - 3.0).to_le_bytes());
        }
        let mem = VerifyCtx::new(pages);
        check(&mem, &bytes);
        check(&mem, &words);
        check(&mem, &reals);
        assert_eq!(mem.read(&reals, 513), 513.0 * 0.25 - 3.0);
    }
}

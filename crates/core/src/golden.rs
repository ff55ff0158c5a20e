//! The golden sequential executor: the differential-checking
//! reference model.
//!
//! [`golden_run`] executes a program ([`Runnable`]) with no DSM at all — one
//! flat memory, every page always valid, no messages, no faults, no
//! prefetching — under a cooperative scheduler that runs exactly one
//! thread at a time. For a data-race-free program (which every
//! correct LRC program must be), the final memory produced this way
//! is *the* reference answer the distributed run must reproduce byte
//! for byte.
//!
//! One subtlety: the reference is only unique up to synchronization
//! order. Programs that accumulate floating-point values under a lock
//! (WATER-NSQ, WATER-SP) produce bitwise-different sums for different
//! critical-section orders, because float addition is not
//! associative. The golden executor therefore *replays* the DSM run's
//! own lock-grant order, captured as
//! [`GrantRecord`](crate::GrantRecord)s by the oracle
//! ([`OracleConfig::full`](crate::OracleConfig::full)): a lock is
//! granted to the thread the trace names next, and only falls back to
//! FIFO order when the trace is exhausted or absent. Replay cannot
//! deadlock on a trace the engine actually produced — that order was
//! realizable under the same program order.

use std::collections::{HashMap, VecDeque};

use rsdsm_protocol::Page;

use crate::conductor::{lockstep, Syscall, ThreadLink};
use crate::config::{DsmConfig, PrefetchConfig};
use crate::heap::Heap;
use crate::msg::{BarrierId, LockId};
use crate::node::NodeMem;
use crate::oracle::{digest_pages, GrantRecord};
use crate::program::{Runnable, VerifyCtx};

/// The golden sequential executor's result.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// The reference final memory image, one [`Page`] per heap page.
    pub pages: Vec<Page>,
    /// FNV-1a digest of `pages` (compare against
    /// [`OracleOutcome::image_digest`](crate::OracleOutcome)).
    pub image_digest: u64,
    /// Whether the application's own verification accepted the
    /// golden result.
    pub verified: bool,
}

/// Scheduler-side view of one golden thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GState {
    /// Runnable; will be resumed when its turn comes.
    Ready,
    /// Waiting for a lock.
    BlockedLock,
    /// Waiting at a barrier.
    BlockedBarrier,
    /// Exited.
    Done,
}

#[derive(Debug, Default)]
struct GLock {
    holder: Option<usize>,
    /// Blocked acquirers in arrival order (FIFO fallback order).
    waiters: Vec<usize>,
}

/// Runs `app` single-threaded (in the memory sense) to the reference
/// final image, replaying `lock_trace` for per-lock grant order.
///
/// Pass an empty trace for programs whose result does not depend on
/// critical-section order; pass the `lock_trace` of a captured DSM
/// run (see [`OracleConfig`](crate::OracleConfig)) to reproduce
/// order-sensitive results exactly.
///
/// # Errors
///
/// Returns a description when an application thread panics, a thread
/// releases a lock it does not hold, or the schedule wedges (which,
/// for a trace the engine produced, indicates an engine bug).
pub fn golden_run<B, P: Runnable<B>>(
    app: &P,
    cfg: &DsmConfig,
    lock_trace: &[GrantRecord],
) -> Result<GoldenRun, String> {
    let mut heap = Heap::for_config(cfg);
    let handles = app.allocate(&mut heap);
    let total_pages = heap.page_count();
    let total_threads = cfg.total_threads();

    // Per-lock replay queues from the captured grant order.
    let mut replay: HashMap<LockId, VecDeque<usize>> = HashMap::new();
    for rec in lock_trace {
        replay
            .entry(rec.lock)
            .or_default()
            .push_back(rec.thread.index());
    }

    // Every thread is on "node 0", whose memory the schedule lends to
    // whichever thread it resumes.
    let mem = lockstep(
        app,
        &handles,
        &cfg.costs,
        &PrefetchConfig::off(),
        total_threads,
        |_| 0,
        |links| run_schedule(links, total_pages, &mut replay),
    )?;

    // Flat memory takes writes in place: a twin would be on the log.
    assert!(
        mem.dirty.is_empty(),
        "golden memory twinned {:?}",
        mem.dirty
    );
    // Verify first, then keep the one image: nothing needs a copy.
    let image = VerifyCtx::new(mem.pages.into_iter().map(|e| e.data).collect());
    let verified = app.verify(&image, &handles);
    let pages = image.into_pages();
    let image_digest = digest_pages(&pages);
    Ok(GoldenRun {
        pages,
        image_digest,
        verified,
    })
}

/// The cooperative scheduler: resume the lowest-indexed ready thread,
/// absorb its next syscall, repeat until every thread exits. Returns
/// the final memory.
fn run_schedule(
    mut links: Vec<ThreadLink<'_>>,
    total_pages: usize,
    replay: &mut HashMap<LockId, VecDeque<usize>>,
) -> Result<NodeMem, String> {
    // One flat memory, every page valid from the start: no faults, no
    // twins (writes land directly), no DSM.
    let mut mem = NodeMem::flat(total_pages);
    let total_threads = links.len();
    let mut states = vec![GState::Ready; total_threads];
    let mut locks: HashMap<LockId, GLock> = HashMap::new();
    let mut barriers: HashMap<BarrierId, Vec<usize>> = HashMap::new();
    let mut done = 0;

    while done < total_threads {
        let Some(t) = states.iter().position(|s| *s == GState::Ready) else {
            return Err(format!(
                "golden schedule wedged with {done}/{total_threads} threads done \
                 (lock-trace replay mismatch?): states {states:?}"
            ));
        };
        let (syscall, _) = links[t]
            .run_burst(&mut mem)
            .map_err(|gone| format!("golden thread panicked: {}", gone.0))?;
        match syscall {
            Syscall::Exit => {
                states[t] = GState::Done;
                done += 1;
            }
            Syscall::Fault { page, .. } => {
                // Unreachable: every page is valid in golden memory.
                return Err(format!("golden thread {t} faulted on {page}"));
            }
            Syscall::Prefetch(_) => {
                // Prefetching is configured off; tolerate a stray call
                // as a no-op (the thread just continues).
            }
            Syscall::Acquire(l) => {
                let gl = locks.entry(l).or_default();
                let its_turn = match replay.get(&l).and_then(|q| q.front()) {
                    Some(&next) => next == t,
                    None => gl.waiters.is_empty(),
                };
                if gl.holder.is_none() && its_turn {
                    gl.holder = Some(t);
                    if let Some(q) = replay.get_mut(&l) {
                        q.pop_front();
                    }
                } else {
                    gl.waiters.push(t);
                    states[t] = GState::BlockedLock;
                }
            }
            Syscall::Release(l) => {
                let gl = locks
                    .get_mut(&l)
                    .ok_or_else(|| format!("golden thread {t} released unowned {l:?}"))?;
                if gl.holder != Some(t) {
                    return Err(format!(
                        "golden thread {t} released {l:?} held by {:?}",
                        gl.holder
                    ));
                }
                gl.holder = None;
                // Grant to the thread the trace names next if it is
                // already waiting; otherwise leave the lock free for
                // it to claim on arrival. FIFO when no trace remains.
                let next = match replay.get(&l).and_then(|q| q.front()) {
                    Some(&want) => gl.waiters.iter().position(|&w| w == want),
                    None => (!gl.waiters.is_empty()).then_some(0),
                };
                if let Some(i) = next {
                    let w = gl.waiters.remove(i);
                    gl.holder = Some(w);
                    if let Some(q) = replay.get_mut(&l) {
                        q.pop_front();
                    }
                    states[w] = GState::Ready;
                }
            }
            Syscall::Barrier(id) => {
                let arrived = barriers.entry(id).or_default();
                arrived.push(t);
                states[t] = GState::BlockedBarrier;
                if arrived.len() == total_threads {
                    for &w in arrived.iter() {
                        states[w] = GState::Ready;
                    }
                    arrived.clear();
                }
            }
        }
    }
    Ok(mem)
}

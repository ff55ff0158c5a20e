//! Fixed-thread scheduler for independent simulation cells.
//!
//! Every cell the suite runs — one (app, technique, seed, fault plan)
//! simulation — is a pure function of its config: it owns its RNG, its
//! channels, and its report. That makes the experiment matrices
//! embarrassingly parallel, and this module is the one scheduler they
//! all share: a work queue drained by a fixed set of `std::thread`
//! workers (no work stealing, no external dependencies).
//!
//! Determinism contract: [`run`] returns results **in task order**, and
//! each task runs exactly once, so output is bit-identical to a serial
//! loop no matter how the OS schedules the workers. Only wall-clock
//! changes. `tests/parallel_determinism.rs` pins this with full
//! report/trace digests at `--jobs 1` vs `--jobs 8`.

use std::sync::mpsc;
use std::sync::Mutex;

/// The scheduler's default parallelism: the machine's available cores
/// (1 when that cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Explicit override from the `RSDSM_JOBS` environment variable, used
/// by the test matrices (which take no CLI flags). Unset, empty, or
/// unparsable values mean "no override"; `0` means [`default_jobs`].
pub fn jobs_from_env() -> Option<usize> {
    let raw = std::env::var("RSDSM_JOBS").ok()?;
    let n: usize = raw.trim().parse().ok()?;
    Some(if n == 0 { default_jobs() } else { n })
}

/// The parallelism the matrices should use: `RSDSM_JOBS` when set,
/// otherwise every available core.
pub fn matrix_jobs() -> usize {
    jobs_from_env().unwrap_or_else(default_jobs)
}

/// The test matrices that keep a full grid behind the fast subset
/// every `cargo test` runs.
const MATRICES: &str = "fault,oracle,crash,partition,persist,trace,scaling,soak";

/// Whether the `RSDSM_MATRIX` value `selector` asks for the full grid
/// of matrix `name`: `full` asks for every matrix, a name for its own.
/// Panics on a name outside [`MATRICES`] from either side — a typo in
/// CI would otherwise skip the tier it meant to run, and pass.
fn selects(selector: &str, name: &str) -> bool {
    let known = |n: &str| MATRICES.split(',').any(|m| m == n);
    assert!(known(name), "no test matrix named {name:?}");
    let entries = selector.split(',').map(str::trim);
    entries.filter(|e| !e.is_empty()).fold(false, |hit, e| {
        assert!(
            e == "full" || known(e),
            "RSDSM_MATRIX: no test matrix named {e:?} (`full` or a list of {MATRICES})"
        );
        hit || e == "full" || e == name
    })
}

/// Whether test matrix `name` should run its full grid. The one
/// switch is `RSDSM_MATRIX=full|<name,…>`; unset, every matrix runs
/// its fast subset.
pub fn full_grid(name: &str) -> bool {
    selects(&std::env::var("RSDSM_MATRIX").unwrap_or_default(), name)
}

/// Runs every task, fanning them across at most `jobs` worker threads,
/// and returns the results in task order.
///
/// With `jobs <= 1` (or one task) this is exactly the serial loop — no
/// threads are spawned. A panicking task panics `run` itself once all
/// workers have drained (propagated by `std::thread::scope`), so a
/// failing cell still fails the caller.
pub fn run<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let workers = jobs.min(n);
    // Hand out (index, task) pairs through a shared iterator; workers
    // pull the next cell as soon as they finish their last, so a slow
    // cell never blocks the rest of the queue.
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            s.spawn(move || loop {
                // Take the lock only to grab the next task; run it
                // with the lock released.
                let Some((idx, task)) = queue.lock().expect("task queue").next() else {
                    return;
                };
                // Receiver gone means the main thread is unwinding
                // from another worker's panic; stop quietly.
                if tx.send((idx, task())).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        // The channel closes when the last worker drops its sender, so
        // this loop ends exactly when all tasks are done. If a worker
        // panicked, its results are simply missing here and the scope
        // re-raises the panic on exit.
        for (idx, result) in rx {
            slots[idx] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for jobs in [1, 2, 8] {
            let tasks: Vec<_> = (0..37)
                .map(|i| {
                    move || {
                        // Stagger finish order so late tasks finish first.
                        std::thread::sleep(std::time::Duration::from_micros((37 - i) as u64 * 10));
                        i * i
                    }
                })
                .collect();
            let out = run(jobs, tasks);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run(1, (0..100).map(|i| move || i + 1).collect::<Vec<_>>());
        let parallel = run(8, (0..100).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_oversubscribed() {
        let none: Vec<i32> = run(4, Vec::<fn() -> i32>::new());
        assert!(none.is_empty());
        // More workers than tasks must not hang.
        let out = run(64, vec![|| 1, || 2]);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            run(
                4,
                (0..8)
                    .map(|i| move || if i == 5 { panic!("cell failed") } else { i })
                    .collect::<Vec<_>>(),
            )
        });
        assert!(result.is_err(), "a panicking cell must fail the caller");
    }

    #[test]
    fn matrix_selector_takes_full_or_names() {
        assert!(selects("full", "crash"));
        assert!(selects("fault, crash", "crash"));
        assert!(!selects("fault,oracle", "crash"));
        assert!(!selects("", "soak"));
    }

    #[test]
    #[should_panic(expected = "no test matrix named \"crahs\"")]
    fn matrix_selector_rejects_a_typo() {
        selects("fault,crahs", "fault");
    }

    #[test]
    fn jobs_env_parsing() {
        // Not set in the test environment unless CI exports it; only
        // check the parse contract indirectly via matrix_jobs' bounds.
        assert!(matrix_jobs() >= 1);
        assert!(default_jobs() >= 1);
    }
}

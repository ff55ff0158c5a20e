//! The timing loop behind every unit-cost microbenchmark.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// How long a microbenchmark may run: `samples` samples, each at
/// least `min_sample` long.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub samples: usize,
    pub min_sample: Duration,
}

impl Budget {
    /// The budget of a `--layers` run (`quick` shrinks it to a smoke).
    pub fn new(quick: bool) -> Self {
        Budget {
            samples: if quick { 3 } else { 5 },
            min_sample: Duration::from_millis(if quick { 2 } else { 40 }),
        }
    }
}

/// Median over the budget's samples of the mean nanoseconds one call
/// of `f` takes. The first (untimed) call warms caches and lazy
/// set-up; the iteration count is then grown until one sample lasts
/// `min_sample`.
pub fn ns_per_call<R>(budget: Budget, mut f: impl FnMut() -> R) -> f64 {
    let mut sample = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    };
    sample(1);
    let mut iters = 1u64;
    loop {
        let took = sample(iters);
        if took >= budget.min_sample {
            break;
        }
        let scale = budget.min_sample.as_secs_f64() / took.as_secs_f64().max(1e-9);
        iters = ((iters as f64 * scale * 1.1).ceil() as u64).max(iters * 2);
    }
    let per_call: Vec<f64> = (0..budget.samples)
        .map(|_| sample(iters).as_nanos() as f64 / iters as f64)
        .collect();
    median(&per_call)
}

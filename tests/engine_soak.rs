//! Scale-out soak: the event engine under a much larger cluster and
//! event volume than the paper's 8-node matrix, with the full oracle
//! obligation (golden-model differential check, invariants, same-seed
//! determinism) — not just "it didn't crash".
//!
//! Two tiers, following the repo's `RSDSM_MATRIX` convention:
//!
//! - Default: an 8-node RADIX soak at the default problem scale.
//!   Fast enough for every `cargo test` run.
//! - `RSDSM_MATRIX=soak`: the 64-node paper-scale RADIX soak — over two
//!   million delivered messages per run — with the same oracle
//!   obligation, a wheel-vs-heap digest cross-check at that scale,
//!   and a wall-clock budget so CI catches an event-engine slowdown
//!   of the "accidentally quadratic" kind even when results stay
//!   correct.

use std::time::{Duration, Instant};

use rsdsm::apps::{Benchmark, Scale};
use rsdsm::core::{DsmConfig, QueueBackend, TransportConfig};
use rsdsm::oracle::check;
use rsdsm::simnet::SimDuration;

/// Soak cluster config. At 64 nodes the manager (node 0) serializes
/// barrier arrivals from every peer, so its ingress link can hold
/// tens of seconds of queued data; the retry budget is raised to
/// TCP-like give-up times so queueing delay is never mistaken for
/// loss (the LAN-sized default tolerates ~10 s of silence).
fn soak_cfg(nodes: usize) -> DsmConfig {
    DsmConfig::paper_cluster(nodes)
        .with_seed(1998)
        .with_transport(TransportConfig {
            max_rto: SimDuration::from_secs(30),
            max_retries: 24,
            ..TransportConfig::default()
        })
}

/// Runs the oracle-checked soak cell and returns the wall-clock time
/// the whole obligation took (two DSM runs plus the golden replay).
fn oracle_soak(nodes: usize, scale: Scale) -> Duration {
    let started = Instant::now();
    let verdict = check(Benchmark::Radix, scale, soak_cfg(nodes))
        .unwrap_or_else(|e| panic!("{nodes}-node RADIX soak failed: {e}"));
    assert!(
        verdict.ok(),
        "{nodes}-node RADIX soak: {}",
        verdict.summary_line()
    );
    started.elapsed()
}

/// The always-on tier: 8 nodes (the paper's cluster size) at the
/// default problem scale, full oracle obligation.
#[test]
fn radix_soak_8_nodes() {
    oracle_soak(8, Scale::Default);
}

/// The full tier: 64 nodes at the paper's problem scale. The run must
/// stay byte-correct against the golden model (same obligation as the
/// 8-node tier), deliver well over a million messages — so the event
/// engine processes several million queue events — and fit a
/// wall-clock budget.
///
/// The wheel-vs-heap cross-check at this scale compares report
/// digests from untraced runs: the report digest covers the complete
/// run state, and the Test-scale grid in `parallel_determinism.rs`
/// already pins trace bytes per backend (a paper-scale trace would
/// hold every one of the ~4M send/recv records in memory for no added
/// coverage).
#[test]
fn radix_soak_64_nodes_full() {
    if !rsdsm_bench::pool::full_grid("soak") {
        eprintln!("skipping 64-node soak (set RSDSM_MATRIX=soak)");
        return;
    }
    let nodes = 64;

    // Correctness at scale: the full oracle obligation.
    let elapsed = oracle_soak(nodes, Scale::Paper);

    // Event volume and backend equivalence at scale.
    let started = Instant::now();
    let wheel = Benchmark::Radix
        .run_queued(Scale::Paper, soak_cfg(nodes), QueueBackend::Wheel)
        .expect("wheel soak run");
    let heap = Benchmark::Radix
        .run_queued(Scale::Paper, soak_cfg(nodes), QueueBackend::Heap)
        .expect("heap soak run");
    assert_eq!(
        wheel.digest(),
        heap.digest(),
        "wheel and heap reports diverged at 64 nodes"
    );
    assert!(
        wheel.net.total_msgs >= 1_500_000,
        "soak too small to exercise the engine: {} msgs delivered",
        wheel.net.total_msgs
    );

    // Wall-clock budget: generous (CI machines vary), but tight
    // enough that a complexity regression in the queue or the
    // zero-copy paths blows it immediately. Measured ~85 s per run on
    // a stock runner, ~5 runs total across both phases.
    let budget = Duration::from_secs(900);
    let backend_elapsed = started.elapsed();
    assert!(
        elapsed < budget && backend_elapsed < budget,
        "soak blew its wall-clock budget: oracle {elapsed:?}, \
         backend cross-check {backend_elapsed:?} (budget {budget:?})"
    );
}

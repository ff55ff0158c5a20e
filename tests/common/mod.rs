//! Scaffolding the facade's test crates share: the seeded base config,
//! the `Scale::Test` lease numbers, the cell fan-out and the
//! failure-artifact writer (the full-grid selector is
//! `rsdsm_bench::pool::full_grid`, which the oracle crate shares).
//! Every test crate uses its own subset, hence the `dead_code` allow.
#![allow(dead_code)]

use rsdsm::core::{DsmConfig, RecoveryConfig};
use rsdsm::simnet::SimDuration;
use rsdsm_bench::pool;

/// The paper's cluster of `nodes`, seeded as every pinned run is.
pub fn base(nodes: usize) -> DsmConfig {
    DsmConfig::paper_cluster(nodes).with_seed(1998)
}

/// Recovery with lease parameters sized for `Scale::Test` runs (tens
/// of simulated milliseconds end to end): detection settles well
/// before the run ends without drowning it in heartbeats.
pub fn test_recovery(checkpoint_every: u32) -> RecoveryConfig {
    RecoveryConfig {
        heartbeat_every: SimDuration::from_micros(200),
        lease_timeout: SimDuration::from_micros(1_000),
        confirm_grace: SimDuration::from_micros(200),
        restart_base: SimDuration::from_micros(1_000),
        restore_per_page: SimDuration::from_micros(5),
        ..RecoveryConfig::on(checkpoint_every)
    }
}

/// Runs `check` on every cell, fanned across cores (`RSDSM_JOBS`
/// overrides the worker count). Cells are independent simulations; a
/// panicking cell fails the test through [`pool::run`]'s panic
/// propagation.
pub fn for_each_cell<C: Send>(cells: Vec<C>, check: impl Fn(C) + Sync) {
    let check = &check;
    let tasks: Vec<_> = cells.into_iter().map(|cell| move || check(cell)).collect();
    pool::run(pool::matrix_jobs(), tasks);
}

/// Writes `body` to `target/<dir>/<file>` and panics with `msg`, so a
/// failing cell ships its evidence (the CI job uploads the directory).
pub fn fail_with_artifact(dir: &str, file: &str, body: &str, msg: &str) -> ! {
    let dir = std::path::Path::new("target").join(dir);
    let path = dir.join(file);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body));
    panic!("{msg}\n(artifact {}: {written:?})", path.display())
}

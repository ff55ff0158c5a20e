//! # rsdsm-oracle
//!
//! The consistency oracle for the DSM suite: end-to-end differential
//! checking of every benchmark under every latency-tolerance
//! technique, with and without injected faults.
//!
//! One [`check`] performs the full proof obligation for one
//! (benchmark, technique, fault plan) cell:
//!
//! 1. **Run the DSM** with [`OracleConfig::full`]: the engine checks
//!    the LRC invariants as it executes (vector-clock monotonicity,
//!    write-notice coverage, twin/diff round trips, lock-token
//!    uniqueness, barrier epochs) and captures the merged final memory
//!    image plus the per-lock grant order.
//! 2. **Run the golden model**: [`Benchmark::golden`] executes the
//!    same program with no DSM at all — one flat memory, one thread at
//!    a time — replaying the captured lock-grant order so that
//!    order-sensitive results (floating-point accumulation under
//!    locks) are reproduced exactly. The two final images must match
//!    **byte for byte**.
//! 3. **Re-run the DSM** with the same seed and config: the two
//!    run-report digests must be identical (the whole simulation is
//!    deterministic, faults included).
//!
//! The verdict for each cell is an [`OracleVerdict`];
//! [`OracleVerdict::ok`] demands zero invariant violations, zero
//! mismatched pages, digest-identical repeat runs, and both the DSM
//! and golden runs passing the application's own verification.
//!
//! The oracle roughly triples the cost of a run (two DSM executions
//! plus a golden one) and captures a full memory image, so it is for
//! tests only — paper-scale benches keep [`OracleConfig::off`], the
//! default.

#![warn(unreachable_pub)]

use rsdsm_apps::{Benchmark, Scale};
use rsdsm_core::{DsmConfig, OracleConfig, SimError, ThreadConfig};

/// The paper's four technique configurations, in figure order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// The original protocol ("O" bars): no prefetching, one thread
    /// per node.
    Base,
    /// Software-controlled prefetching only ("P" bars), with the
    /// paper's per-application insertion mode.
    Prefetch,
    /// Multithreading only ("2T" bars): two threads per node,
    /// switching on memory and synchronization stalls.
    Multithread,
    /// The combined approach ("2TP" bars): two threads per node
    /// switching on synchronization only, prefetching with
    /// redundant-prefetch suppression (and throttling for RADIX).
    Combined,
}

impl Technique {
    /// All four techniques, in the order of the paper's figures.
    pub const ALL: [Technique; 4] = [
        Technique::Base,
        Technique::Prefetch,
        Technique::Multithread,
        Technique::Combined,
    ];

    /// Short label used in test output ("O", "P", "2T", "2TP").
    pub fn label(self) -> &'static str {
        match self {
            Technique::Base => "O",
            Technique::Prefetch => "P",
            Technique::Multithread => "2T",
            Technique::Combined => "2TP",
        }
    }

    /// Applies this technique to a base config for `bench`, with the
    /// paper's per-application prefetch modes
    /// ([`Benchmark::paper_prefetch`], [`Benchmark::combined_prefetch`])
    /// — the same configurations the experiment harness
    /// (`rsdsm-bench`) runs.
    pub fn configure(self, bench: Benchmark, base: DsmConfig) -> DsmConfig {
        match self {
            Technique::Base => base,
            Technique::Prefetch => base.with_prefetch(bench.paper_prefetch()),
            Technique::Multithread => base.with_threads(ThreadConfig::multithreaded(2)),
            Technique::Combined => base
                .with_threads(ThreadConfig::combined(2))
                .with_prefetch(bench.combined_prefetch()),
        }
    }
}

/// The outcome of one oracle cell: everything [`check`] measured.
#[derive(Debug, Clone)]
pub struct OracleVerdict {
    /// The application's paper name.
    pub app: &'static str,
    /// The technique label ("O", "P", "2T", "2TP").
    pub technique: &'static str,
    /// Whether the run had a fault plan injecting message loss.
    pub faulty: bool,
    /// Invariant violations the engine recorded (each is a distinct
    /// broken-LRC observation; zero on a coherent run).
    pub violations: usize,
    /// Pages whose final bytes differ between the DSM run and the
    /// golden model (empty on a correct run).
    pub mismatched_pages: Vec<usize>,
    /// FNV-1a digest of the DSM run's merged final image.
    pub dsm_digest: u64,
    /// FNV-1a digest of the golden model's final image.
    pub golden_digest: u64,
    /// Whether a second DSM run with identical (seed, config) produced
    /// an identical report digest.
    pub deterministic: bool,
    /// Whether the application's own verification accepted the DSM
    /// run.
    pub dsm_verified: bool,
    /// Whether the application's own verification accepted the golden
    /// run.
    pub golden_verified: bool,
}

impl OracleVerdict {
    /// The full proof obligation: no violations, byte-identical
    /// images, deterministic replay, and both executions verified.
    pub fn ok(&self) -> bool {
        self.violations == 0
            && self.mismatched_pages.is_empty()
            && self.dsm_digest == self.golden_digest
            && self.deterministic
            && self.dsm_verified
            && self.golden_verified
    }

    /// One-line summary for test logs.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<9} {:<3} faults={} violations={} mismatched={} det={} dsm_ok={} golden_ok={}",
            self.app,
            self.technique,
            self.faulty,
            self.violations,
            self.mismatched_pages.len(),
            self.deterministic,
            self.dsm_verified,
            self.golden_verified,
        )
    }
}

/// Runs the full oracle for one cell: DSM run (invariants + capture),
/// golden replay, byte-for-byte image comparison, and a same-seed
/// repeat run for determinism.
///
/// # Errors
///
/// Propagates [`SimError`] from either DSM run, and surfaces golden
/// executor failures as [`SimError::AppThread`].
///
/// # Panics
///
/// Panics if the engine fails to capture an oracle outcome despite the
/// config enabling it (an engine bug, not an application failure).
pub fn check(bench: Benchmark, scale: Scale, cfg: DsmConfig) -> Result<OracleVerdict, SimError> {
    let cfg = cfg.with_oracle(OracleConfig::full());
    let report = bench.run(scale, cfg.clone())?;
    let outcome = report
        .oracle
        .as_ref()
        .expect("oracle enabled but no outcome captured");

    let golden = bench
        .golden(scale, &cfg, &outcome.lock_trace)
        .map_err(SimError::AppThread)?;

    // A page-count mismatch (impossible unless the heap layout
    // diverged) marks every trailing page as mismatched.
    let common = golden.pages.len().min(outcome.final_image.len());
    let mut mismatched_pages: Vec<usize> = (0..common)
        .filter(|&i| golden.pages[i] != outcome.final_image[i])
        .collect();
    mismatched_pages.extend(common..golden.pages.len().max(outcome.final_image.len()));

    let repeat = bench.run(scale, cfg.clone())?;
    let deterministic = report.digest() == repeat.digest()
        && outcome.image_digest
            == repeat
                .oracle
                .as_ref()
                .expect("oracle enabled but no outcome captured")
                .image_digest;

    Ok(OracleVerdict {
        app: bench.name(),
        technique: "?",
        faulty: !cfg.faults.is_none(),
        violations: outcome.violations.len(),
        mismatched_pages,
        dsm_digest: outcome.image_digest,
        golden_digest: golden.image_digest,
        deterministic,
        dsm_verified: report.verified,
        golden_verified: golden.verified,
    })
}

/// [`check`] for one technique: builds the config from `base` via
/// [`Technique::configure`] and stamps the verdict with the
/// technique's label.
///
/// # Errors
///
/// Propagates [`SimError`] exactly as [`check`] does.
pub fn check_technique(
    bench: Benchmark,
    scale: Scale,
    technique: Technique,
    base: DsmConfig,
) -> Result<OracleVerdict, SimError> {
    let cfg = technique.configure(bench, base);
    let mut verdict = check(bench, scale, cfg)?;
    verdict.technique = technique.label();
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsdsm_core::PrefetchMode;

    #[test]
    fn techniques_configure_like_the_harness() {
        let base = DsmConfig::paper_cluster(4);
        let p = Technique::Prefetch.configure(Benchmark::Fft, base.clone());
        assert!(p.prefetch.mode == PrefetchMode::Static && p.prefetch.compiler_style);
        let t = Technique::Multithread.configure(Benchmark::Sor, base.clone());
        assert!(t.threads.switch_on_memory && t.threads.is_multithreaded());
        let c = Technique::Combined.configure(Benchmark::Radix, base.clone());
        assert_eq!(c.prefetch.throttle, 2);
        assert!(c.prefetch.suppress_redundant);
        assert!(!c.threads.switch_on_memory && c.threads.is_multithreaded());
        let c2 = Technique::Combined.configure(Benchmark::Sor, base);
        assert_eq!(c2.prefetch.throttle, 1);
    }

    #[test]
    fn labels_are_paper_style() {
        let labels: Vec<_> = Technique::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels, vec!["O", "P", "2T", "2TP"]);
    }
}

//! The benchmark suite: one entry point over all eight applications.
//!
//! [`Benchmark`] enumerates the paper's applications in its figure
//! order and dispatches runs, hiding each program's concrete handle
//! type. The experiment harness sweeps over `Benchmark::ALL`.

use rsdsm_core::{
    golden_run, DsmConfig, GoldenRun, GrantRecord, PrefetchConfig, QueueBackend, RunReport,
    SimError, Simulation, Trace,
};

use crate::fft::FftApp;
use crate::lu::LuApp;
use crate::ocean::OceanApp;
use crate::radix::RadixApp;
use crate::sor::SorApp;
use crate::water_nsq::WaterNsqApp;
use crate::water_sp::WaterSpApp;

/// Problem size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down sizes preserving the sharing structure (default
    /// for the experiment binaries; each run takes well under a
    /// second of wall-clock time).
    Default,
    /// The paper's exact problem sizes (slow).
    Paper,
    /// Tiny sizes for tests.
    Test,
}

/// Dispatches a `(Benchmark, Scale)` pair to the concrete application
/// value, binding it to `$app` inside `$body`. [`DsmTask`]
/// (rsdsm_core::DsmTask) has an associated `Handles` type, so it is
/// not object-safe; this macro is how [`Benchmark::run`],
/// [`Benchmark::run_traced`], and [`Benchmark::golden`] share the
/// 24-arm problem-size table without trait objects.
macro_rules! with_app {
    ($bench:expr, $scale:expr, |$app:ident| $body:expr) => {
        match ($bench, $scale) {
            (Benchmark::Fft, Scale::Paper) => {
                let $app = FftApp::paper_scale();
                $body
            }
            (Benchmark::Fft, Scale::Default) => {
                let $app = FftApp::default_scale();
                $body
            }
            (Benchmark::Fft, Scale::Test) => {
                let $app = FftApp::new(10);
                $body
            }
            (Benchmark::LuNcont, Scale::Paper) => {
                let $app = LuApp::paper_ncont();
                $body
            }
            (Benchmark::LuNcont, Scale::Default) => {
                let $app = LuApp::default_ncont();
                $body
            }
            (Benchmark::LuNcont, Scale::Test) => {
                let $app = LuApp::new(64, 16, crate::lu::LuLayout::NonContiguous);
                $body
            }
            (Benchmark::LuCont, Scale::Paper) => {
                let $app = LuApp::paper_cont();
                $body
            }
            (Benchmark::LuCont, Scale::Default) => {
                let $app = LuApp::default_cont();
                $body
            }
            (Benchmark::LuCont, Scale::Test) => {
                let $app = LuApp::new(64, 16, crate::lu::LuLayout::Contiguous);
                $body
            }
            (Benchmark::Ocean, Scale::Paper) => {
                let $app = OceanApp::paper_scale();
                $body
            }
            (Benchmark::Ocean, Scale::Default) => {
                let $app = OceanApp::default_scale();
                $body
            }
            (Benchmark::Ocean, Scale::Test) => {
                let $app = OceanApp::new(34, 2);
                $body
            }
            (Benchmark::Radix, Scale::Paper) => {
                let $app = RadixApp::paper_scale();
                $body
            }
            (Benchmark::Radix, Scale::Default) => {
                let $app = RadixApp::default_scale();
                $body
            }
            (Benchmark::Radix, Scale::Test) => {
                let $app = RadixApp::new(1 << 11, 12, 6);
                $body
            }
            (Benchmark::Sor, Scale::Paper) => {
                let $app = SorApp::paper_scale();
                $body
            }
            (Benchmark::Sor, Scale::Default) => {
                let $app = SorApp::default_scale();
                $body
            }
            (Benchmark::Sor, Scale::Test) => {
                let $app = SorApp::new(64, 64, 3);
                $body
            }
            (Benchmark::WaterNsq, Scale::Paper) => {
                let $app = WaterNsqApp::paper_scale();
                $body
            }
            (Benchmark::WaterNsq, Scale::Default) => {
                let $app = WaterNsqApp::default_scale();
                $body
            }
            (Benchmark::WaterNsq, Scale::Test) => {
                let $app = WaterNsqApp::new(48, 2);
                $body
            }
            (Benchmark::WaterSp, Scale::Paper) => {
                let $app = WaterSpApp::paper_scale();
                $body
            }
            (Benchmark::WaterSp, Scale::Default) => {
                let $app = WaterSpApp::default_scale();
                $body
            }
            (Benchmark::WaterSp, Scale::Test) => {
                let $app = WaterSpApp::new(96, 2);
                $body
            }
        }
    };
}

/// One of the paper's eight applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// 1D complex FFT (SPLASH-2).
    Fft,
    /// Blocked LU, non-contiguous layout (SPLASH-2).
    LuNcont,
    /// Blocked LU, contiguous layout (SPLASH-2).
    LuCont,
    /// Ocean current simulation (SPLASH-2, simplified).
    Ocean,
    /// Integer radix sort (SPLASH-2).
    Radix,
    /// Red-black successive over-relaxation (TreadMarks).
    Sor,
    /// O(n^2) molecular dynamics (SPLASH-2, simplified potential).
    WaterNsq,
    /// O(n) spatial molecular dynamics (SPLASH-2, simplified).
    WaterSp,
}

impl Benchmark {
    /// All benchmarks, in the order of the paper's Figure 2.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Fft,
        Benchmark::LuNcont,
        Benchmark::LuCont,
        Benchmark::Ocean,
        Benchmark::Radix,
        Benchmark::Sor,
        Benchmark::WaterNsq,
        Benchmark::WaterSp,
    ];

    /// The paper's name for the application.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Fft => "FFT",
            Benchmark::LuNcont => "LU-NCONT",
            Benchmark::LuCont => "LU-CONT",
            Benchmark::Ocean => "OCEAN",
            Benchmark::Radix => "RADIX",
            Benchmark::Sor => "SOR",
            Benchmark::WaterNsq => "WATER-NSQ",
            Benchmark::WaterSp => "WATER-SP",
        }
    }

    /// Parses a paper-style name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Whether the paper used compiler-inserted prefetching for this
    /// application (FFT and LU-NCONT; hand-tuned elsewhere, §3.2).
    pub fn uses_compiler_prefetch(self) -> bool {
        matches!(self, Benchmark::Fft | Benchmark::LuNcont)
    }

    /// The prefetch mode the paper's "P" bars use for this app.
    pub fn paper_prefetch(self) -> PrefetchConfig {
        if self.uses_compiler_prefetch() {
            PrefetchConfig::compiler()
        } else {
            PrefetchConfig::hand()
        }
    }

    /// The prefetch mode of the paper's combined ("nTP") bars, §5.1:
    /// the "P" mode with redundant sibling prefetches suppressed, and
    /// for RADIX every other prefetch throttled away.
    pub fn combined_prefetch(self) -> PrefetchConfig {
        PrefetchConfig {
            suppress_redundant: true,
            throttle: if self == Benchmark::Radix { 2 } else { 1 },
            ..self.paper_prefetch()
        }
    }

    /// Runs the benchmark at `scale` under `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the engine.
    pub fn run(self, scale: Scale, cfg: DsmConfig) -> Result<RunReport, SimError> {
        let sim = Simulation::new(cfg);
        with_app!(self, scale, |app| sim.run(&app))
    }

    /// Runs the benchmark like [`Benchmark::run`] on an explicitly
    /// chosen event-queue backend. Backend choice can never change
    /// results (the wheel and the heap reference are pop-for-pop
    /// identical); this entry point exists so differential tests can
    /// pin exactly that.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the engine.
    pub fn run_queued(
        self,
        scale: Scale,
        cfg: DsmConfig,
        backend: QueueBackend,
    ) -> Result<RunReport, SimError> {
        let sim = Simulation::new(cfg).with_queue_backend(backend);
        with_app!(self, scale, |app| sim.run(&app))
    }

    /// [`Benchmark::run_traced`] on an explicitly chosen event-queue
    /// backend; see [`Benchmark::run_queued`].
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the engine.
    pub fn run_traced_queued(
        self,
        scale: Scale,
        cfg: DsmConfig,
        backend: QueueBackend,
    ) -> Result<(RunReport, Trace), SimError> {
        let sim = Simulation::new(cfg).with_queue_backend(backend);
        with_app!(self, scale, |app| sim.run_traced(&app))
    }

    /// Runs the benchmark at `scale` under `cfg` with event tracing
    /// enabled, returning the report (with its `trace` metrics
    /// populated) and the full event [`Trace`].
    ///
    /// The traced run is event-for-event identical to what
    /// [`Benchmark::run`] would simulate: tracing charges no cost,
    /// draws no randomness, and the returned report digests
    /// identically to the untraced one.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the engine.
    pub fn run_traced(self, scale: Scale, cfg: DsmConfig) -> Result<(RunReport, Trace), SimError> {
        let sim = Simulation::new(cfg);
        with_app!(self, scale, |app| sim.run_traced(&app))
    }

    /// Runs the benchmark through the golden sequential executor
    /// ([`golden_run`]) at `scale`, using the same problem sizes as
    /// [`Benchmark::run`], replaying `lock_trace` for per-lock
    /// critical-section order. The result is the reference final
    /// memory image for differential checking against a DSM run under
    /// the same `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a description when a thread panics or the replay
    /// schedule wedges (see [`golden_run`]).
    pub fn golden(
        self,
        scale: Scale,
        cfg: &DsmConfig,
        lock_trace: &[GrantRecord],
    ) -> Result<GoldenRun, String> {
        with_app!(self, scale, |app| golden_run(&app, cfg, lock_trace))
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
            assert_eq!(Benchmark::from_name(&b.name().to_lowercase()), Some(b));
        }
        assert_eq!(Benchmark::from_name("nope"), None);
    }

    /// The golden executor's memory takes writes in place: it checks
    /// on return that no page was twinned onto its dirty log.
    #[test]
    fn golden_runs_twin_nothing() {
        let cfg = DsmConfig::paper_cluster(4);
        for bench in [Benchmark::LuCont, Benchmark::WaterNsq] {
            let golden = bench.golden(Scale::Test, &cfg, &[]).expect("golden run");
            assert!(golden.verified, "{bench}");
        }
    }

    #[test]
    fn compiler_prefetch_matches_paper() {
        assert!(Benchmark::Fft.uses_compiler_prefetch());
        assert!(Benchmark::LuNcont.uses_compiler_prefetch());
        assert!(!Benchmark::Sor.uses_compiler_prefetch());
        assert!(Benchmark::Fft.paper_prefetch().compiler_style);
        assert!(!Benchmark::Sor.paper_prefetch().compiler_style);
    }
}

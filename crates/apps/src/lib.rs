//! # rsdsm-apps
//!
//! The eight benchmark applications of the HPCA-4 1998 paper, ported
//! to the rsdsm software DSM: FFT, LU-CONT, LU-NCONT, OCEAN, RADIX,
//! SOR, WATER-NSQ and WATER-SP. Each preserves its SPLASH-2 (or
//! TreadMarks) parallel decomposition, sharing pattern, and
//! synchronization structure, carries the paper's prefetch
//! annotations (enabled or disabled per run configuration), and
//! verifies its numeric result against a sequential reference.
//!
//! # Examples
//!
//! ```
//! use rsdsm_apps::{Benchmark, Scale};
//! use rsdsm_core::DsmConfig;
//!
//! let report = Benchmark::Sor
//!     .run(Scale::Test, DsmConfig::paper_cluster(2).with_seed(1))
//!     .expect("run succeeds");
//! assert!(report.verified);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod fft;
mod lu;
mod micro;
mod ocean;
mod radix;
mod sor;
mod suite;
mod util;
mod water_nsq;
mod water_sp;

pub use fft::{FftApp, FftHandles};
pub use lu::{LuApp, LuLayout};
pub use micro::{HotSpot, Incast};
pub use ocean::{OceanApp, OceanHandles};
pub use radix::{RadixApp, RadixHandles};
pub use sor::SorApp;
pub use suite::{Benchmark, Scale};
pub use util::{block_range, fft_in_place, fft_reference, gen_f64, gen_u32, BarrierCycle, Complex};
pub use water_nsq::{WaterNsqApp, WaterNsqHandles};
pub use water_sp::{WaterSpApp, WaterSpHandles};

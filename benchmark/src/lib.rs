//! # rsbench
//!
//! The repo's benchmark: five pinned, warm, end-to-end workloads over
//! the `rsdsm` simulator, with outside-in per-layer attribution of
//! host time. See `README.md` beside this crate for the method, the
//! metric definitions and how to cite a result.
//!
//! - [`surface`] is the only module that calls into `rsdsm`.
//! - [`driver`] starts pinned [`worker`] processes and aggregates.
//! - [`metrics`] holds the metric tables `BENCHMARK.json` is made of.
//! - [`yardstick`] is the fixed kernel host times are normalised by.
//! - [`agree`] compares two result files under the tables' bounds.

#![forbid(unsafe_code)]

pub mod agree;
pub mod driver;
pub mod host;
pub mod json;
pub mod metrics;
pub mod micro;
pub mod spans;
pub mod stats;
pub mod surface;
pub mod worker;
pub mod yardstick;

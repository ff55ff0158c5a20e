//! # rsdsm-stats
//!
//! Reporting helpers for the rsdsm experiment harness: an ASCII table
//! renderer and paper-style normalized stacked-bar figures
//! (Figures 1–5 of the HPCA-4 1998 paper are rendered with
//! [`render_bars`]; Tables 1–2 with [`AsciiTable`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod chrome;
mod figure;
mod table;

pub use chrome::chrome_trace_json;
pub use figure::{percent, render_bars, speedup_label, Bar};
pub use table::{Align, AsciiTable};

//! # rsdsm-protocol
//!
//! The lazy release consistency (LRC) machinery of a TreadMarks-style
//! software DSM, as pure data structures:
//!
//! - [`VectorClock`]: distributed timestamps and the happens-before-1
//!   partial order that orders intervals.
//! - [`IntervalRecord`] / [`IntervalLog`]: closed intervals and a
//!   node's indexed, never-pruned log of the ones it has learned.
//! - [`Page`] / [`PageId`]: 4 KB coherence units.
//! - [`Diff`]: run-length-encoded modification records produced by the
//!   multiple-writer twin/diff mechanism.
//! - [`WriteNotice`] / [`NoticeBoard`]: invalidation bookkeeping
//!   propagated at acquire time.
//!
//! Everything here is deterministic and simulation-free; the runtime
//! in `rsdsm-core` drives these structures from the event loop.
//!
//! # Examples
//!
//! The core multiple-writer flow — twin, modify, diff, apply:
//!
//! ```
//! use rsdsm_protocol::{Diff, Page, VectorClock};
//!
//! // Writer twins the page, then modifies it.
//! let twin = Page::new();
//! let mut working = twin.clone();
//! working.write_u64(64, 99);
//!
//! // At release (or on a diff request) the writer encodes a diff...
//! let diff = Diff::between(&twin, &working);
//!
//! // ...which a faulting reader applies to its stale copy.
//! let mut reader_copy = Page::new();
//! diff.apply(&mut reader_copy);
//! assert_eq!(reader_copy.read_u64(64), 99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod clock;
mod diff;
mod interval;
mod notice;
mod page;
mod slots;

pub use clock::{HbKey, Stamp, VectorClock};
pub use diff::Diff;
pub use interval::{IntervalLog, IntervalRecord};
pub use notice::{NoticeBoard, WriteNotice};
pub use page::{Page, PageId, PagePool, PAGE_SIZE};

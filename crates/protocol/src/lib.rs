//! # rsdsm-protocol
//!
//! The lazy release consistency (LRC) machinery of a TreadMarks-style
//! software DSM, as pure data structures:
//!
//! - [`VectorClock`]: distributed timestamps and the happens-before-1
//!   partial order that orders intervals.
//! - [`IntervalRecord`] / [`IntervalLog`] / [`PageIndex`]: closed
//!   intervals, a node's indexed, never-pruned log of the ones it has
//!   learned, and the cluster's one index of them by page.
//! - [`Page`] / [`PageId`]: 4 KB coherence units.
//! - [`Diff`]: the modification records of the multiple-writer
//!   twin/diff mechanism, kept as a page's dirty 64-byte lines with a
//!   changed-byte mask each, and read as runs for the wire.
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
//! // At release (or on a diff request) the writer encodes a diff. It
//! // keeps the one dirty 64-byte line, and reads back as the runs of
//! // changed bytes: writing 99 changed only the `u64`'s low byte...
//! let diff = Diff::between(&twin, &working);
//! assert_eq!((diff.run_count(), diff.payload_bytes()), (1, 1));
//! assert_eq!(diff.runs().collect::<Vec<_>>(), [(64, &[99u8][..])]);
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
pub use interval::{IntervalLog, IntervalRecord, PageIndex};
pub use notice::{NoticeBoard, WriteNotice};
pub use page::{Page, PageId, PagePool, PAGE_SIZE};

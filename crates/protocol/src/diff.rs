//! Twins and run-length-encoded diffs — the multiple-writer protocol.
//!
//! To avoid the ping-pong effects of false sharing, TreadMarks lets
//! several processors write the same page concurrently. Before a node
//! first writes a page in an interval it saves a clean copy (the
//! *twin*); when another node needs the modifications, the writer
//! compares the current page against the twin and run-length encodes
//! the changed bytes into a [`Diff`]. Diffs from different writers of
//! the same page touch disjoint bytes in race-free programs, so
//! applying them in any order consistent with happens-before-1 yields
//! the correct page.
//!
//! What the applications' diffs look like decides what creating and
//! applying one must be good at: hundreds of runs of four to seven
//! bytes on a page (an `f64` per word whose exponent kept its value),
//! or nothing at all (a page rewritten with the values it held). So
//! [`Diff::between`] works a word and a 64-byte line at a time and
//! sizes its buffers before it fills them, and short runs are copied
//! without a `memcpy` call — while a run still covers exactly the
//! bytes that changed.
//!
//! # Examples
//!
//! ```
//! use rsdsm_protocol::{Diff, Page};
//!
//! let twin = Page::new();
//! let mut current = twin.clone();
//! current.write_u64(128, 7);
//! let diff = Diff::between(&twin, &current);
//! assert!(!diff.is_empty());
//!
//! let mut other = Page::new();
//! diff.apply(&mut other);
//! assert_eq!(other.read_u64(128), 7);
//! ```

use std::fmt;

use crate::page::{Page, PAGE_SIZE};

/// One contiguous run of modified bytes inside a page. The run's
/// payload lives in [`Diff::payload`], at the position given by the
/// cumulative lengths of the preceding runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DiffRun {
    offset: u32,
    len: u32,
}

/// A run-length-encoded record of the modifications made to one page
/// during one interval.
///
/// Storage is flat: all runs' bytes are concatenated into one payload
/// buffer, so building a diff costs O(1) allocations regardless of
/// how fragmented the page's modifications are. (The earlier layout
/// held one `Vec<u8>` per run, and on write-dense pages those
/// hundreds of small allocations dominated the diff cost.)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    runs: Vec<DiffRun>,
    payload: Vec<u8>,
}

/// Fixed per-run encoding overhead used for message sizing (offset +
/// length fields).
const RUN_HEADER_BYTES: usize = 4;

/// Bytes one word of the changed-byte map covers — one bit each, so a
/// map word is also one 64-byte cache line of the page.
const LINE: usize = 64;

/// Folds the XOR of two page words to its non-zero-byte mask: bit `k`
/// of the result is set iff byte `k` of `x` is non-zero — that is, iff
/// the pages differ in that byte.
#[inline]
fn changed_bytes(x: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // Adding 0x7f to a byte's low seven bits carries into its top bit
    // iff one of them is set (and never further), and `| x` covers a
    // byte whose only set bit is the top one.
    let flags = (((x & LOW7) + LOW7) | x) & !LOW7;
    // One flag per byte, at bit 8k; the multiply lands flag `k` on bit
    // 56 + k. Its 64 partial products fall on distinct bits (8j − 7k
    // is injective for j, k < 8), so nothing carries.
    (flags >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Copies one run's bytes. Runs of at most eight bytes — an `f64` or
/// `u32` element some of whose bytes changed: 95 % of the runs the
/// applications produce — move as two overlapping fixed-width
/// loads/stores instead of a `memcpy` call; still exactly `src.len()`
/// bytes, so nothing beside the run is touched.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
fn copy_run(dst: &mut [u8], src: &[u8]) {
    let len = src.len();
    assert_eq!(dst.len(), len, "a run and its destination differ in length");
    /// Moves the first and the last `N` bytes; covers `N..=2N` bytes.
    #[inline(always)]
    fn ends<const N: usize>(dst: &mut [u8], src: &[u8]) {
        let len = src.len();
        let (head, tail): ([u8; N], [u8; N]) = (
            src[..N].try_into().expect("N bytes"),
            src[len - N..].try_into().expect("N bytes"),
        );
        dst[..N].copy_from_slice(&head);
        dst[len - N..].copy_from_slice(&tail);
    }
    match len {
        4..=8 => ends::<4>(dst, src),
        2..=3 => ends::<2>(dst, src),
        1 => dst[0] = src[0],
        _ => dst.copy_from_slice(src),
    }
}

impl Diff {
    /// Computes the diff that transforms `twin` into `current`.
    ///
    /// Two passes, neither of which looks at a byte on its own. The
    /// first XORs the pages a 64-bit word at a time and folds each
    /// word to a bit per changed byte, building a 64-word map of the
    /// page (a 64-byte line that is clean — the overwhelmingly common
    /// case — costs eight XORs and one compare) and counting its set
    /// bits and its 0→1 transitions: the payload's and the run list's
    /// exact sizes. The second walks the map's edges — the bits that
    /// differ from the bit before them, alternately a run's first byte
    /// and the byte after its last — and copies each run into buffers
    /// allocated once at those sizes. An empty diff allocates nothing.
    ///
    /// Run boundaries are byte-precise: the diff carries exactly the
    /// changed bytes and nothing else. That precision is what makes
    /// concurrent diffs mergeable — in a race-free program different
    /// writers' changed bytes are disjoint, so their diffs commute. A
    /// diff that smuggled nearby *unchanged* twin bytes into a run
    /// could overwrite another writer's concurrent modification with
    /// stale data when merged.
    pub fn between(twin: &Page, current: &Page) -> Self {
        let t: &[u8; PAGE_SIZE] = twin.bytes().try_into().expect("a page of PAGE_SIZE");
        let c: &[u8; PAGE_SIZE] = current.bytes().try_into().expect("a page of PAGE_SIZE");

        let mut map = [0u64; PAGE_SIZE / LINE];
        let (mut payload_len, mut run_count) = (0, 0);
        // The map bit before the current word's first.
        let mut before = 0;
        let lines = t.chunks_exact(LINE).zip(c.chunks_exact(LINE));
        for (bits, (t_line, c_line)) in map.iter_mut().zip(lines) {
            let mut xor = [0u64; LINE / 8];
            let words = t_line.chunks_exact(8).zip(c_line.chunks_exact(8));
            for (x, (t_word, c_word)) in xor.iter_mut().zip(words) {
                let t_word = u64::from_le_bytes(t_word.try_into().expect("8 bytes"));
                let c_word = u64::from_le_bytes(c_word.try_into().expect("8 bytes"));
                *x = t_word ^ c_word;
            }
            if xor.iter().fold(0, |any, x| any | x) == 0 {
                before = 0;
                continue;
            }
            for (w, &x) in xor.iter().enumerate() {
                *bits |= changed_bytes(x) << (8 * w);
            }
            payload_len += bits.count_ones() as usize;
            run_count += (*bits & !(*bits << 1 | before)).count_ones() as usize;
            before = *bits >> 63;
        }
        if payload_len == 0 {
            return Diff::default();
        }

        let mut runs = Vec::with_capacity(run_count);
        let mut payload = vec![0u8; payload_len];
        let mut filled = 0;
        let mut close = |start: usize, end: usize| {
            let len = end - start;
            runs.push(DiffRun {
                offset: start as u32,
                len: len as u32,
            });
            copy_run(&mut payload[filled..filled + len], &c[start..end]);
            filled += len;
        };
        // Where the open run started, while one is open.
        let mut open = None;
        for (line, &bits) in map.iter().enumerate() {
            let before = u64::from(open.is_some());
            let mut edges = bits ^ (bits << 1 | before);
            while edges != 0 {
                let at = line * LINE + edges.trailing_zeros() as usize;
                edges &= edges - 1;
                match open.take() {
                    None => open = Some(at),
                    Some(start) => close(start, at),
                }
            }
        }
        if let Some(start) = open {
            close(start, PAGE_SIZE);
        }
        Diff { runs, payload }
    }

    /// The original byte-at-a-time scan, kept as the differential
    /// reference for property tests and for the speedup measurements
    /// in the criterion suite. Produces byte-for-byte the same runs
    /// as [`Diff::between`]. It also reproduces the original storage
    /// behavior — one buffer allocation per run — so timing it against
    /// [`Diff::between`] measures both the chunked scan and the flat
    /// payload layout.
    pub fn between_reference(twin: &Page, current: &Page) -> Self {
        let t = twin.bytes();
        let c = current.bytes();
        let mut old_runs: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut i = 0;
        while i < PAGE_SIZE {
            if t[i] != c[i] {
                let start = i;
                while i < PAGE_SIZE && t[i] != c[i] {
                    i += 1;
                }
                old_runs.push((start as u32, c[start..i].to_vec()));
            } else {
                i += 1;
            }
        }
        Diff::from_runs(old_runs.into_iter().map(|(o, b)| (o as usize, b)))
    }

    /// A diff covering the whole page (used when a node sends a full
    /// page copy on a first-touch fetch).
    pub fn full_page(page: &Page) -> Self {
        Diff {
            runs: vec![DiffRun {
                offset: 0,
                len: PAGE_SIZE as u32,
            }],
            payload: page.bytes().to_vec(),
        }
    }

    /// Applies the recorded modifications to `page`.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the page (corrupt diff).
    pub fn apply(&self, page: &mut Page) {
        if self.runs.is_empty() {
            // Nothing to write: leave an unmaterialized page as it is.
            return;
        }
        let bytes = page.bytes_mut();
        let mut pos = 0;
        for run in &self.runs {
            let start = run.offset as usize;
            let len = run.len as usize;
            let src = &self.payload[pos..pos + len];
            pos += len;
            // One range check per run.
            let Some(dst) = bytes.get_mut(start..start + len) else {
                panic!("diff run at {start} extends past the page");
            };
            copy_run(dst, src);
        }
    }

    /// True when the twin and current page were identical.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of modified-byte runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of modified bytes carried.
    pub fn payload_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Size of the encoded diff on the wire, for network cost
    /// modeling: payload plus per-run framing.
    pub fn encoded_bytes(&self) -> usize {
        self.payload_bytes() + RUN_HEADER_BYTES * self.runs.len()
    }

    /// Iterates the modified-byte runs as `(offset, bytes)` pairs in
    /// ascending offset order (checkpoint serialization).
    pub fn runs(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let mut pos = 0;
        self.runs.iter().map(move |r| {
            let len = r.len as usize;
            let bytes = &self.payload[pos..pos + len];
            pos += len;
            (r.offset as usize, bytes)
        })
    }

    /// Rebuilds a diff from `(offset, bytes)` runs as produced by
    /// [`Diff::runs`] (checkpoint restore). Runs must stay inside the
    /// page and be given in ascending, non-overlapping order.
    pub fn from_runs(runs: impl IntoIterator<Item = (usize, Vec<u8>)>) -> Self {
        let mut flat = Vec::new();
        let mut payload = Vec::new();
        for (offset, bytes) in runs {
            assert!(offset + bytes.len() <= PAGE_SIZE, "run extends past page");
            flat.push(DiffRun {
                offset: offset as u32,
                len: bytes.len() as u32,
            });
            payload.extend_from_slice(&bytes);
        }
        for pair in flat.windows(2) {
            assert!(
                pair[0].offset + pair[0].len <= pair[1].offset,
                "runs must be ascending and non-overlapping"
            );
        }
        Diff {
            runs: flat,
            payload,
        }
    }

    /// True if this diff's modified byte ranges overlap `other`'s.
    ///
    /// Overlapping concurrent diffs indicate a data race in the
    /// application (two writers modified the same bytes between
    /// synchronizations).
    pub fn overlaps(&self, other: &Diff) -> bool {
        // Runs are produced in ascending offset order; merge-scan.
        let mut a = self.runs.iter().peekable();
        let mut b = other.runs.iter().peekable();
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            let (xs, xe) = (x.offset as usize, (x.offset + x.len) as usize);
            let (ys, ye) = (y.offset as usize, (y.offset + y.len) as usize);
            if xs < ye && ys < xe {
                return true;
            }
            if xe <= ys {
                a.next();
            } else {
                b.next();
            }
        }
        false
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "diff({} runs, {} bytes)",
            self.run_count(),
            self.payload_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(writes: &[(usize, u64)]) -> Page {
        let mut p = Page::new();
        for &(off, v) in writes {
            p.write_u64(off, v);
        }
        p
    }

    #[test]
    fn identical_pages_give_empty_diff() {
        let p = page_with(&[(0, 1), (8, 2)]);
        let d = Diff::between(&p, &p.clone());
        assert!(d.is_empty());
        assert_eq!(d.payload_bytes(), 0);
    }

    #[test]
    fn diff_apply_round_trip() {
        let twin = page_with(&[(0, 1)]);
        let current = page_with(&[(0, 1), (100, 9), (2000, 10)]);
        let d = Diff::between(&twin, &current);
        let mut restored = twin.clone();
        d.apply(&mut restored);
        assert_eq!(restored, current);
    }

    #[test]
    fn contiguous_writes_form_one_run() {
        let twin = Page::new();
        let mut current = Page::new();
        for off in (64..128).step_by(8) {
            current.write_u64(off, u64::MAX);
        }
        let d = Diff::between(&twin, &current);
        assert_eq!(d.run_count(), 1, "contiguous writes form one run");
        assert_eq!(d.payload_bytes(), 64);
    }

    #[test]
    fn encoded_size_includes_framing() {
        let twin = Page::new();
        let current = page_with(&[(0, 5), (1024, 6)]);
        let d = Diff::between(&twin, &current);
        assert_eq!(d.run_count(), 2);
        assert_eq!(d.encoded_bytes(), d.payload_bytes() + 8);
    }

    #[test]
    fn disjoint_concurrent_diffs_commute() {
        let twin = Page::new();
        let a = Diff::between(&twin, &page_with(&[(0, 11)]));
        let b = Diff::between(&twin, &page_with(&[(512, 22)]));
        assert!(!a.overlaps(&b));
        let mut p1 = Page::new();
        a.apply(&mut p1);
        b.apply(&mut p1);
        let mut p2 = Page::new();
        b.apply(&mut p2);
        a.apply(&mut p2);
        assert_eq!(p1, p2);
        assert_eq!(p1.read_u64(0), 11);
        assert_eq!(p1.read_u64(512), 22);
    }

    #[test]
    fn overlap_detection() {
        let twin = Page::new();
        let a = Diff::between(&twin, &page_with(&[(0, u64::MAX)]));
        let b = Diff::between(&twin, &page_with(&[(4, u64::MAX)]));
        assert!(a.overlaps(&b), "byte ranges 0..8 and 4..12 overlap");
    }

    #[test]
    fn full_page_diff_replicates_page() {
        let src = page_with(&[(0, 3), (4088, 4)]);
        let d = Diff::full_page(&src);
        let mut dst = Page::new();
        d.apply(&mut dst);
        assert_eq!(dst, src);
        assert_eq!(d.payload_bytes(), PAGE_SIZE);
    }

    #[test]
    fn zero_writes_are_detected() {
        // Writing a zero over a nonzero byte must appear in the diff.
        let twin = page_with(&[(16, u64::MAX)]);
        let mut current = twin.clone();
        current.write_u64(16, 0);
        let d = Diff::between(&twin, &current);
        assert_eq!(d.payload_bytes(), 8);
        let mut restored = twin.clone();
        d.apply(&mut restored);
        assert_eq!(restored.read_u64(16), 0);
    }

    /// Pages with changed runs separated by gaps of every width
    /// around `RUN_HEADER_BYTES`, plus word-boundary edge cases.
    fn gap_cases() -> Vec<(Page, Page)> {
        let mut cases = Vec::new();
        for gap in 0..=8usize {
            let twin = Page::new();
            let mut current = Page::new();
            // Two single changed bytes `gap` unchanged bytes apart,
            // at an unaligned offset crossing a word boundary.
            current.bytes_mut()[5] = 1;
            current.bytes_mut()[5 + 1 + gap] = 2;
            cases.push((twin, current));
        }
        // A changed run ending exactly at the page edge.
        let twin = Page::new();
        let mut current = Page::new();
        current.bytes_mut()[PAGE_SIZE - 1] = 7;
        current.bytes_mut()[PAGE_SIZE - 3] = 7;
        cases.push((twin, current));
        // Dirty first and last bytes only.
        let twin = Page::new();
        let mut current = Page::new();
        current.bytes_mut()[0] = 9;
        current.bytes_mut()[PAGE_SIZE - 1] = 9;
        cases.push((twin, current));
        cases
    }

    #[test]
    fn coherence_diffs_stay_byte_precise() {
        // `between` must carry exactly the changed bytes — coalescing
        // would smuggle stale twin bytes into concurrent merges. The
        // gap-byte clobbering below is the failure mode: writer A's
        // changed bytes straddle a 3-byte gap that writer B wrote.
        for (twin, current) in gap_cases() {
            let precise = Diff::between(&twin, &current);
            let reference = Diff::between_reference(&twin, &current);
            assert_eq!(precise, reference, "between must match byte-precise runs");
        }
        let twin = Page::new();
        let mut a_page = Page::new();
        a_page.bytes_mut()[6] = 1;
        a_page.bytes_mut()[10] = 2; // gap bytes 7..10
        let mut b_page = Page::new();
        b_page.bytes_mut()[8] = 3; // inside A's gap
        let a = Diff::between(&twin, &a_page);
        let b = Diff::between(&twin, &b_page);
        assert!(!a.overlaps(&b), "changed bytes are disjoint");
        let mut merged = Page::new();
        b.apply(&mut merged);
        a.apply(&mut merged);
        assert_eq!(merged.bytes()[8], 3, "A's diff must not clobber B's byte");
    }

    #[test]
    fn chunked_scan_matches_reference_coverage() {
        // Dense, sparse, and word-straddling writes all round-trip.
        let twin = page_with(&[(0, 1), (2048, 2)]);
        let mut current = twin.clone();
        for off in (16..256).step_by(8) {
            current.write_u64(off, off as u64 * 3 + 1);
        }
        current.bytes_mut()[1023] = 0xAB;
        current.bytes_mut()[1025] = 0xCD;
        current.write_u64(2048, 99);
        let d = Diff::between(&twin, &current);
        let mut restored = twin.clone();
        d.apply(&mut restored);
        assert_eq!(restored, current);
    }

    #[test]
    fn buffers_are_sized_exactly_before_the_walk() {
        // Both buffers are allocated once, at sizes counted from the
        // changed-byte map: no slack, so no regrowth while the runs
        // are walked — and nothing at all for an empty diff.
        let sparse = page_with(&[(0, 5), (1024, 6), (4088, 7)]);
        let mut dense = Page::new();
        for off in (0..PAGE_SIZE).step_by(8) {
            dense.write_u64(off, 0x0011_2233_4455_6677 + off as u64);
        }
        // Runs that cross 64-byte lines, open and close on line edges,
        // and end with the page.
        let mut edges = Page::new();
        edges.bytes_mut()[60..70].fill(1);
        edges.bytes_mut()[128..192].fill(2);
        edges.bytes_mut()[255] = 3;
        edges.bytes_mut()[256] = 3;
        edges.bytes_mut()[PAGE_SIZE - 65..].fill(4);
        let mut full = Page::new();
        full.bytes_mut().fill(0xAB);
        for (current, runs) in [(&sparse, 3), (&dense, 512), (&edges, 4), (&full, 1)] {
            let d = Diff::between(&Page::new(), current);
            assert_eq!(d, Diff::between_reference(&Page::new(), current));
            assert_eq!(d.run_count(), runs);
            assert_eq!(d.runs.capacity(), d.runs.len());
            assert_eq!(d.payload.capacity(), d.payload.len());
        }
        for same in [&dense, &Page::new()] {
            let d = Diff::between(same, &same.clone());
            assert!(d.is_empty());
            assert_eq!((d.runs.capacity(), d.payload.capacity()), (0, 0));
        }
    }

    #[test]
    fn changed_byte_mask_names_exactly_the_nonzero_bytes() {
        for pattern in 0..=u8::MAX {
            for value in [0x01u8, 0x7f, 0x80, 0xff] {
                let mut bytes = [0u8; 8];
                for (k, byte) in bytes.iter_mut().enumerate() {
                    if pattern >> k & 1 == 1 {
                        *byte = value;
                    }
                }
                assert_eq!(changed_bytes(u64::from_le_bytes(bytes)), u64::from(pattern));
            }
        }
    }

    #[test]
    fn short_runs_copy_exactly_their_bytes() {
        let src: Vec<u8> = (1..=40).collect();
        for len in 0..=src.len() {
            let mut dst = vec![0xEEu8; len + 2];
            copy_run(&mut dst[1..=len], &src[..len]);
            assert_eq!(&dst[1..=len], &src[..len]);
            assert_eq!((dst[0], dst[len + 1]), (0xEE, 0xEE), "len {len}");
        }
    }

    #[test]
    fn display_mentions_runs_and_bytes() {
        let twin = Page::new();
        let d = Diff::between(&twin, &page_with(&[(0, u64::MAX)]));
        assert_eq!(d.to_string(), "diff(1 runs, 8 bytes)");
    }
}

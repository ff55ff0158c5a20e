//! Twins and diffs — the multiple-writer protocol.
//!
//! To avoid the ping-pong effects of false sharing, TreadMarks lets
//! several processors write the same page concurrently. Before a node
//! first writes a page in an interval it saves a clean copy (the
//! *twin*); when another node needs the modifications, the writer
//! compares the current page against the twin and records the changed
//! bytes in a [`Diff`]. Diffs from different writers of the same page
//! touch disjoint bytes in race-free programs, so applying them in any
//! order consistent with happens-before-1 yields the correct page.
//!
//! What the applications' diffs look like decides how one is stored.
//! A dense LU or OCEAN page changes every `f64` in four to seven bytes
//! (its top byte or two kept their value): several runs on every
//! 64-byte line, so a run list pays per run, over and over, for one
//! changed line. SOR's and WATER's change a line or two of a page, or
//! nothing at all. So a [`Diff`] keeps each *dirty line* — a line with
//! a changed byte — whole: its 64 bytes, the unchanged ones zeroed, and
//! a mask naming the changed ones. Creating, applying and comparing
//! diffs then costs per dirty line, and the runs the wire format and
//! the checkpoint image speak of are read off the masks on demand.
//! Each dirty line costs 72 bytes, so a dense diff is about a third
//! smaller than its run list and a sparse one larger.
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
//! assert_eq!((diff.run_count(), diff.payload_bytes()), (1, 1));
//! assert_eq!(diff.runs().collect::<Vec<_>>(), [(128, &[7u8][..])]);
//!
//! let mut other = Page::new();
//! diff.apply(&mut other);
//! assert_eq!(other.read_u64(128), 7);
//! ```

use std::fmt;

use crate::page::{Page, PAGE_SIZE};

/// Bytes one word of a changed-byte map covers — one bit each, so a
/// map word is also one 64-byte cache line of the page.
const LINE: usize = 64;

/// Lines in a page: one bit each of [`Diff`]'s line bitmap.
const LINES: usize = PAGE_SIZE / LINE;
const _: () = assert!(LINES == u64::BITS as usize, "a page's lines are one u64");

/// The modifications made to one page during one interval, kept as the
/// page's dirty 64-byte lines.
///
/// Everything is counted and sized from the page's changed-byte map,
/// so a diff holds two exactly sized buffers and an empty one none.
/// The changed bytes form maximal *runs*; their count and total length
/// are kept, because they are what the diff costs on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    /// Bit `i` is set iff line `i` of the page has a changed byte.
    lines: u64,
    /// One changed-byte mask per dirty line, in line order: bit `k`
    /// names the line's byte `k`.
    masks: Vec<u64>,
    /// Each dirty line's 64 bytes, in line order. A byte its mask does
    /// not name is zero, so equal diffs compare equal.
    bytes: Vec<u8>,
    /// Changed bytes: the masks' population count.
    payload: u32,
    /// Maximal runs of changed bytes.
    runs: u32,
}

/// Fixed per-run encoding overhead used for message sizing (offset +
/// length fields).
const RUN_HEADER_BYTES: usize = 4;

/// `SPREAD[m]` is the word mask of the bytes `m` names: byte `k` is
/// all ones iff bit `k` of `m` is set. One byte of a line mask turns
/// into the mask of the line's word it covers.
static SPREAD: [u64; 256] = {
    let mut table = [0; 256];
    let mut m = 0;
    while m < 256 {
        let mut k = 0;
        while k < 8 {
            if m >> k & 1 == 1 {
                table[m] |= 0xff << (8 * k);
            }
            k += 1;
        }
        m += 1;
    }
    table
};

/// The word mask of the bytes of word `w` of a line that `mask` names.
#[inline]
fn spread(mask: u64, w: usize) -> u64 {
    SPREAD[(mask >> (8 * w)) as u8 as usize]
}

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

/// The indices of `bits`' set bits, ascending.
#[inline]
fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let at = (bits != 0).then(|| bits.trailing_zeros() as usize);
        bits &= bits.wrapping_sub(1);
        at
    })
}

/// A line's eight little-endian words.
#[inline]
fn words(line: &[u8]) -> impl Iterator<Item = u64> + '_ {
    line.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
}

impl Diff {
    /// Computes the diff that transforms `twin` into `current`.
    ///
    /// Two passes, neither of which looks at a byte on its own. The
    /// first XORs the pages a 64-bit word at a time and folds each
    /// word to a bit per changed byte, building a 64-word map of the
    /// page (a 64-byte line that is clean — the overwhelmingly common
    /// case — costs eight XORs and one compare) and counting its set
    /// bits and its 0→1 transitions: the payload and the runs. The
    /// second copies each dirty line under its mask into buffers
    /// allocated once at their exact sizes. An empty diff allocates
    /// nothing.
    ///
    /// The diff is byte-precise: it carries exactly the changed bytes
    /// and nothing else. That precision is what makes concurrent diffs
    /// mergeable — in a race-free program different writers' changed
    /// bytes are disjoint, so their diffs commute. A diff that smuggled
    /// nearby *unchanged* twin bytes in could overwrite another
    /// writer's concurrent modification with stale data when merged.
    pub fn between(twin: &Page, current: &Page) -> Self {
        let t: &[u8; PAGE_SIZE] = twin.bytes().try_into().expect("a page of PAGE_SIZE");
        let c: &[u8; PAGE_SIZE] = current.bytes().try_into().expect("a page of PAGE_SIZE");

        let mut map = [0u64; LINES];
        let (mut payload, mut runs) = (0, 0);
        // The map bit before the current word's first.
        let mut before = 0;
        let lines = t.chunks_exact(LINE).zip(c.chunks_exact(LINE));
        for (bits, (t_line, c_line)) in map.iter_mut().zip(lines) {
            let mut xor = [0u64; LINE / 8];
            for (x, (t_word, c_word)) in xor.iter_mut().zip(words(t_line).zip(words(c_line))) {
                *x = t_word ^ c_word;
            }
            if xor.iter().fold(0, |any, x| any | x) == 0 {
                before = 0;
                continue;
            }
            for (w, &x) in xor.iter().enumerate() {
                *bits |= changed_bytes(x) << (8 * w);
            }
            payload += bits.count_ones();
            runs += (*bits & !(*bits << 1 | before)).count_ones();
            before = *bits >> 63;
        }
        Diff::gather(&map, c, payload, runs)
    }

    /// The diff that writes `src`'s bytes wherever `map` has a bit set;
    /// `payload` and `runs` are the map's set bits and maximal runs.
    fn gather(map: &[u64; LINES], src: &[u8; PAGE_SIZE], payload: u32, runs: u32) -> Self {
        if payload == 0 {
            return Diff::default();
        }
        let lines = (0..LINES).fold(0, |lines, i| lines | u64::from(map[i] != 0) << i);
        let dirty = lines.count_ones() as usize;
        let mut masks = Vec::with_capacity(dirty);
        let mut bytes = vec![0u8; dirty * LINE];
        for (line, out) in set_bits(lines).zip(bytes.chunks_exact_mut(LINE)) {
            let (mask, src) = (map[line], &src[line * LINE..][..LINE]);
            masks.push(mask);
            if mask == u64::MAX {
                out.copy_from_slice(src);
                continue;
            }
            for (w, (out, word)) in out.chunks_exact_mut(8).zip(words(src)).enumerate() {
                out.copy_from_slice(&(word & spread(mask, w)).to_le_bytes());
            }
        }
        Diff {
            lines,
            masks,
            bytes,
            payload,
            runs,
        }
    }

    /// The original byte-at-a-time scan, kept as the differential
    /// reference for property tests and for the `perf` pinner's
    /// `diff_between_*_speedup` ratios. Produces the same diff as
    /// [`Diff::between`]. It also keeps the original storage behavior
    /// — one buffer allocation per run, then [`Diff::from_runs`] — so
    /// timing it against [`Diff::between`] measures the scan and the
    /// storage both.
    pub fn between_reference(twin: &Page, current: &Page) -> Self {
        let t = twin.bytes();
        let c = current.bytes();
        let mut old_runs: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut i = 0;
        while i < PAGE_SIZE {
            if t[i] != c[i] {
                let start = i;
                while i < PAGE_SIZE && t[i] != c[i] {
                    i += 1;
                }
                old_runs.push((start, c[start..i].to_vec()));
            } else {
                i += 1;
            }
        }
        Diff::from_runs(old_runs)
    }

    /// A diff covering the whole page (used when a node sends a full
    /// page copy on a first-touch fetch).
    pub fn full_page(page: &Page) -> Self {
        Diff {
            lines: u64::MAX,
            masks: vec![u64::MAX; LINES],
            bytes: page.bytes().to_vec(),
            payload: PAGE_SIZE as u32,
            runs: 1,
        }
    }

    /// Applies the recorded modifications to `page`: each dirty line
    /// is blended in a word at a time under its mask, or copied whole
    /// when every byte of it changed.
    pub fn apply(&self, page: &mut Page) {
        if self.lines == 0 {
            // Nothing to write: leave an unmaterialized page as it is.
            return;
        }
        let page = page.bytes_mut();
        let dirty = set_bits(self.lines).zip(&self.masks);
        for ((line, &mask), src) in dirty.zip(self.bytes.chunks_exact(LINE)) {
            let dst = &mut page[line * LINE..][..LINE];
            if mask == u64::MAX {
                dst.copy_from_slice(src);
                continue;
            }
            for (w, (dst, word)) in dst.chunks_exact_mut(8).zip(words(src)).enumerate() {
                let old = u64::from_le_bytes((&*dst).try_into().expect("8 bytes"));
                dst.copy_from_slice(&(old & !spread(mask, w) | word).to_le_bytes());
            }
        }
    }

    /// True when the twin and current page were identical.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// Number of modified-byte runs.
    pub fn run_count(&self) -> usize {
        self.runs as usize
    }

    /// Number of modified bytes carried.
    pub fn payload_bytes(&self) -> usize {
        self.payload as usize
    }

    /// Size of the encoded diff on the wire, for network cost
    /// modeling: payload plus per-run framing.
    pub fn encoded_bytes(&self) -> usize {
        self.payload_bytes() + RUN_HEADER_BYTES * self.run_count()
    }

    /// Iterates the maximal modified-byte runs as `(offset, bytes)`
    /// pairs in ascending offset order (checkpoint serialization),
    /// read off the masks without allocating. A run that crosses into
    /// the next line continues in the next dirty line's bytes, so each
    /// is one slice.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        Runs {
            diff: self,
            ahead: self.lines,
            line: 0,
            loaded: 0,
            rest: 0,
        }
    }

    /// Rebuilds a diff from `(offset, bytes)` runs as produced by
    /// [`Diff::runs`] (checkpoint restore). Runs must stay inside the
    /// page and be given in ascending, non-overlapping order, and they
    /// must be maximal — no run may end where the next begins — for
    /// [`Diff::runs`] to give them back: the diff records changed
    /// bytes, so touching runs are one run to it.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the page or starts before the
    /// previous one ends.
    pub fn from_runs<B: AsRef<[u8]>>(runs: impl IntoIterator<Item = (usize, B)>) -> Self {
        let mut map = [0u64; LINES];
        let mut src = [0u8; PAGE_SIZE];
        let (mut payload, mut count) = (0, 0);
        // Where the previous non-empty run ended.
        let mut end = None;
        for (offset, run) in runs {
            let run = run.as_ref();
            let stop = offset + run.len();
            assert!(stop <= PAGE_SIZE, "run extends past page");
            assert!(
                end.is_none_or(|end| end <= offset),
                "runs must be ascending and non-overlapping"
            );
            if run.is_empty() {
                continue;
            }
            src[offset..stop].copy_from_slice(run);
            let mut at = offset;
            while at < stop {
                let (line, bit) = (at / LINE, at % LINE);
                let n = (LINE - bit).min(stop - at);
                map[line] |= u64::MAX >> (LINE - n) << bit;
                at += n;
            }
            payload += run.len() as u32;
            count += u32::from(end != Some(offset));
            end = Some(stop);
        }
        Diff::gather(&map, &src, payload, count)
    }

    /// True if this diff's modified bytes overlap `other`'s.
    ///
    /// Overlapping concurrent diffs indicate a data race in the
    /// application (two writers modified the same bytes between
    /// synchronizations).
    pub fn overlaps(&self, other: &Diff) -> bool {
        set_bits(self.lines & other.lines).any(|line| {
            let mask = |d: &Diff| d.masks[(d.lines & ((1 << line) - 1)).count_ones() as usize];
            mask(self) & mask(other) != 0
        })
    }
}

/// [`Diff::runs`]' walk: the masks read as one page-long bit map.
struct Runs<'a> {
    diff: &'a Diff,
    /// Dirty lines not yet loaded.
    ahead: u64,
    /// The loaded line.
    line: usize,
    /// Lines loaded so far: the loaded line's slot in `masks` is one
    /// less.
    loaded: usize,
    /// The loaded line's changed bytes not yet walked.
    rest: u64,
}

impl Runs<'_> {
    /// Loads the next dirty line; `None` past the last.
    fn load(&mut self) -> Option<()> {
        if self.ahead == 0 {
            return None;
        }
        self.line = self.ahead.trailing_zeros() as usize;
        self.ahead &= self.ahead - 1;
        self.rest = self.diff.masks[self.loaded];
        self.loaded += 1;
        Some(())
    }
}

impl<'a> Iterator for Runs<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        while self.rest == 0 {
            self.load()?;
        }
        let first = self.rest.trailing_zeros() as usize;
        let (offset, start) = (self.line * LINE + first, (self.loaded - 1) * LINE + first);
        // Where the run ends in the loaded line.
        let mut end = first;
        loop {
            end += (!(self.rest >> end)).trailing_zeros() as usize;
            if end < LINE {
                self.rest &= u64::MAX << end;
                break;
            }
            // The run reaches the line's end: it goes on iff the next
            // dirty line is the next line and its first byte changed.
            self.rest = 0;
            let adjacent = self.ahead != 0 && self.ahead.trailing_zeros() as usize == self.line + 1;
            if !adjacent || self.diff.masks[self.loaded] & 1 == 0 {
                break;
            }
            self.load();
            end = 0;
        }
        let stop = (self.loaded - 1) * LINE + end;
        Some((offset, &self.diff.bytes[start..stop]))
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
        assert_eq!(d.runs().count(), 0);
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
        // Same line, disjoint bytes; and a line only one of them has.
        let c = Diff::between(&twin, &page_with(&[(16, u64::MAX), (4000, 1)]));
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
        let d = Diff::between(&twin, &page_with(&[(4000, 1)]));
        assert!(c.overlaps(&d) && !b.overlaps(&d));
    }

    #[test]
    fn full_page_diff_replicates_page() {
        let src = page_with(&[(0, 3), (4088, 4)]);
        let d = Diff::full_page(&src);
        let mut dst = Page::new();
        d.apply(&mut dst);
        assert_eq!(dst, src);
        assert_eq!(d.payload_bytes(), PAGE_SIZE);
        assert_eq!(d.runs().collect::<Vec<_>>(), [(0, src.bytes())]);
        assert_eq!(Diff::from_runs(d.runs()), d);
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
    fn buffers_are_sized_exactly() {
        // One mask and 64 bytes per dirty line, allocated once at
        // sizes counted from the changed-byte map: no slack — and
        // nothing at all for an empty diff.
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
        for (current, runs, dirty) in [
            (&sparse, 3, 3),
            (&dense, 512, 64),
            (&edges, 4, 7),
            (&full, 1, 64),
        ] {
            let d = Diff::between(&Page::new(), current);
            assert_eq!(d, Diff::between_reference(&Page::new(), current));
            assert_eq!(d.run_count(), runs);
            assert_eq!(d.lines.count_ones(), dirty);
            assert_eq!(
                (d.masks.len(), d.masks.capacity()),
                (dirty as usize, dirty as usize)
            );
            assert_eq!(
                (d.bytes.len(), d.bytes.capacity()),
                (dirty as usize * LINE, dirty as usize * LINE)
            );
        }
        for same in [&dense, &Page::new()] {
            let d = Diff::between(same, &same.clone());
            assert!(d.is_empty());
            assert_eq!(d, Diff::default());
            assert_eq!((d.masks.capacity(), d.bytes.capacity()), (0, 0));
        }
        let empty = Diff::from_runs(Vec::<(usize, Vec<u8>)>::new());
        assert_eq!((empty.masks.capacity(), empty.bytes.capacity()), (0, 0));
    }

    #[test]
    fn unchanged_bytes_are_stored_as_zero() {
        // Twin and page agree in most bytes of each dirty line, and
        // both hold non-zero values there: the diff keeps only the
        // changed ones, so two diffs with the same changes are equal
        // whatever else the pages held.
        let mut twin = Page::new();
        twin.bytes_mut().fill(0x5A);
        let mut current = twin.clone();
        current.bytes_mut()[3] = 0;
        current.bytes_mut()[70..75].fill(0xC3);
        let d = Diff::between(&twin, &current);
        assert_eq!(d.masks, [1 << 3, 0b11111 << 6]);
        for (slot, (&mask, line)) in d.masks.iter().zip(d.bytes.chunks_exact(LINE)).enumerate() {
            for (k, &byte) in line.iter().enumerate() {
                let page_byte = current.bytes()[[0, LINE][slot] + k];
                let want = if mask >> k & 1 == 1 { page_byte } else { 0 };
                assert_eq!(byte, want, "line slot {slot}, byte {k}");
            }
        }
        // The same changes over a twin that held other values.
        let mut other_twin = Page::new();
        other_twin.bytes_mut()[3] = 0x11;
        let mut other = Page::new();
        other.bytes_mut()[70..75].fill(0xC3);
        assert_eq!(d, Diff::between(&other_twin, &other));
    }

    #[test]
    fn runs_cross_line_seams_as_one_slice() {
        let mut current = Page::new();
        current.bytes_mut()[60..200].fill(1);
        current.bytes_mut()[255..257].fill(2);
        current.bytes_mut()[320] = 3;
        current.bytes_mut()[PAGE_SIZE - 64..].fill(4);
        let d = Diff::between(&Page::new(), &current);
        let runs: Vec<(usize, usize)> = d.runs().map(|(at, bytes)| (at, bytes.len())).collect();
        assert_eq!(runs, [(60, 140), (255, 2), (320, 1), (PAGE_SIZE - 64, 64)]);
        for (at, bytes) in d.runs() {
            assert_eq!(bytes, &current.bytes()[at..at + bytes.len()]);
        }
        assert_eq!(d.run_count(), runs.len());
    }

    #[test]
    fn from_runs_merges_touching_runs() {
        let touching =
            Diff::from_runs([(4, vec![1, 2]), (6, vec![3]), (64, vec![]), (64, vec![4])]);
        let maximal = Diff::from_runs([(4, vec![1, 2, 3]), (64, vec![4])]);
        assert_eq!(touching, maximal);
        assert_eq!((maximal.run_count(), maximal.payload_bytes()), (2, 4));
        let runs: Vec<(usize, Vec<u8>)> = maximal.runs().map(|(at, b)| (at, b.to_vec())).collect();
        assert_eq!(runs, [(4, vec![1, 2, 3]), (64, vec![4])]);
    }

    #[test]
    #[should_panic(expected = "ascending and non-overlapping")]
    fn from_runs_rejects_overlap() {
        Diff::from_runs([(0, vec![1; 64]), (4, vec![2])]);
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
    fn spread_is_the_inverse_of_the_changed_byte_mask() {
        for pattern in 0..=u8::MAX {
            let word = SPREAD[pattern as usize];
            assert_eq!(changed_bytes(word), u64::from(pattern));
            assert!(word.to_le_bytes().iter().all(|&b| b == 0 || b == 0xff));
            let mask = u64::from(pattern) << 40;
            assert_eq!(spread(mask, 5), word);
        }
    }

    #[test]
    fn display_mentions_runs_and_bytes() {
        let twin = Page::new();
        let d = Diff::between(&twin, &page_with(&[(0, u64::MAX)]));
        assert_eq!(d.to_string(), "diff(1 runs, 8 bytes)");
    }
}

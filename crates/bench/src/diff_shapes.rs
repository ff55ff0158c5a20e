//! The twin/current page pairs the diff rows are measured on — one
//! definition for the criterion suite and the `perf` pinner, so a row
//! and the ratio CI gates name the same traffic.
//!
//! The shapes are the applications' (DESIGN §6g has the per-app
//! table): most diffs are hundreds of runs a few bytes long — an `f64`
//! per word whose exponent byte kept its value — and most of SOR's
//! are empty.

use rsdsm_protocol::{Page, PAGE_SIZE};

/// A fresh twin and a page written with a small counter every
/// `stride` bytes: one- and two-byte runs, 16 of them at `stride` 256
/// ("sparse"), 511 at `stride` 8 ("dense").
pub fn strided(stride: usize) -> (Page, Page) {
    let twin = Page::new();
    let mut current = twin.clone();
    for off in (0..PAGE_SIZE - 8).step_by(stride) {
        current.write_u64(off, off as u64 + 1);
    }
    (twin, current)
}

/// Every word an `f64` whose mantissa and low exponent bits moved
/// while its top byte stayed: 512 seven-byte runs, the LU / OCEAN
/// shape.
pub fn f64_words() -> (Page, Page) {
    let mut twin = Page::new();
    let mut current = Page::new();
    for off in (0..PAGE_SIZE).step_by(8) {
        let x = 1.0 + off as f64 / PAGE_SIZE as f64;
        twin.write_u64(off, x.to_bits());
        // Every byte below the top one differs from the twin's.
        current.write_u64(off, x.to_bits() ^ 0x00a5_a5a5_a5a5_a5a5);
    }
    (twin, current)
}

/// A written page and an identical copy: the empty diff of a page that
/// was rewritten with the values it held — 98 % of SOR's.
pub fn clean() -> (Page, Page) {
    let (_, page) = strided(8);
    (page.clone(), page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsdsm_protocol::Diff;

    #[test]
    fn shapes_are_what_their_names_say() {
        let runs = |(twin, current): (Page, Page)| {
            let diff = Diff::between(&twin, &current);
            (diff.run_count(), diff.payload_bytes())
        };
        assert_eq!(runs(strided(256)), (16, 31));
        assert_eq!(runs(strided(8)), (511, 990));
        assert_eq!(runs(f64_words()), (512, 7 * 512));
        assert_eq!(runs(clean()), (0, 0));
    }
}

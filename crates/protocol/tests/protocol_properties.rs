//! Property-based tests of the LRC protocol invariants.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;
use rsdsm_protocol::{
    Diff, IntervalLog, IntervalRecord, NoticeBoard, Page, PageId, PageIndex, Stamp, VectorClock,
    WriteNotice, PAGE_SIZE,
};

/// Arbitrary page contents described sparsely as (offset, value) byte writes.
fn sparse_writes() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0..PAGE_SIZE, any::<u8>()), 0..64)
}

fn page_from(writes: &[(usize, u8)]) -> Page {
    let mut p = Page::new();
    for &(off, v) in writes {
        p.bytes_mut()[off] = v;
    }
    p
}

/// A page holding `bytes` — drawn noise, so it owns a buffer and
/// zero bytes occur too.
fn noise_page(bytes: &[u8]) -> Page {
    let mut page = Page::new();
    page.bytes_mut().copy_from_slice(bytes);
    page
}

/// Changes every byte of `range` (clipped to the page) to a value it
/// does not hold — so two changes of one byte may cancel.
fn change(page: &mut Page, range: std::ops::Range<usize>, salt: u8) {
    for byte in &mut page.bytes_mut()[range.start..range.end.min(PAGE_SIZE)] {
        *byte ^= salt | 1;
    }
}

/// `between` equals the byte-at-a-time reference run for run, and
/// applying it to the twin gives `current`.
fn assert_reference_runs_and_round_trip(twin: &Page, current: &Page) -> Diff {
    let diff = Diff::between(twin, current);
    assert_eq!(diff, Diff::between_reference(twin, current));
    let mut restored = twin.clone();
    diff.apply(&mut restored);
    assert_eq!(&restored, current);
    diff
}

// The shapes the applications' diffs have (DESIGN §6g): `sparse_writes`
// above is at most 64 isolated bytes, which almost never makes a run
// longer than a byte or two, a dense page, or a run at a page edge.
proptest! {
    /// Element-shaped runs: some words of the page change in 1–7
    /// bytes at any in-word offset — an `f64` that kept its exponent,
    /// a `u32` counter. Runs that reach a word's end merge with a
    /// neighbour's that starts at offset 0.
    #[test]
    fn element_shaped_runs_match_reference(
        noise in prop::collection::vec(any::<u8>(), PAGE_SIZE),
        edits in prop::collection::vec((0..PAGE_SIZE / 8, 0usize..8, 1usize..=7, any::<u8>()), 0..=512),
    ) {
        let twin = noise_page(&noise);
        let mut current = twin.clone();
        for &(word, off, len, salt) in &edits {
            change(&mut current, word * 8 + off..word * 8 + (off + len).min(8), salt);
        }
        assert_reference_runs_and_round_trip(&twin, &current);
    }

    /// A dense page: every word changes, each in its own 1–8 bytes
    /// (the LU / OCEAN shape: hundreds of short runs in one diff).
    #[test]
    fn dense_pages_match_reference(
        noise in prop::collection::vec(any::<u8>(), PAGE_SIZE),
        shape in prop::collection::vec((0usize..8, 1usize..=8), PAGE_SIZE / 8),
    ) {
        let twin = noise_page(&noise);
        let mut current = twin.clone();
        for (word, &(off, len)) in shape.iter().enumerate() {
            change(&mut current, word * 8 + off..word * 8 + (off + len).min(8), 0);
        }
        let diff = assert_reference_runs_and_round_trip(&twin, &current);
        prop_assert!(diff.run_count() >= PAGE_SIZE / 16, "{diff}");
    }

    /// Runs across the scan's internal boundaries: straddling a
    /// 64-byte line (one word of the changed-byte map), spanning
    /// several lines, and ending exactly at `PAGE_SIZE`.
    #[test]
    fn boundary_runs_match_reference(
        noise in prop::collection::vec(any::<u8>(), PAGE_SIZE),
        straddles in prop::collection::vec((1usize..64, 1usize..=9, 1usize..=9), 0..8),
        long in prop::collection::vec((0..PAGE_SIZE, 1usize..=300), 0..4),
        tail in 0usize..=130,
        from_zeros in any::<bool>(),
    ) {
        let twin = if from_zeros { Page::new() } else { noise_page(&noise) };
        let mut current = twin.clone();
        for &(line, before, after) in &straddles {
            change(&mut current, line * 64 - before..line * 64 + after, 0);
        }
        for &(start, len) in &long {
            change(&mut current, start..start + len, 0);
        }
        change(&mut current, PAGE_SIZE - tail..PAGE_SIZE, 0);
        let diff = assert_reference_runs_and_round_trip(&twin, &current);
        if tail > 0 && long.is_empty() {
            let (offset, bytes) = diff.runs().last().expect("the tail run");
            prop_assert_eq!(offset + bytes.len(), PAGE_SIZE);
        }
    }

    /// The extremes: a page changed in every byte, an unchanged page,
    /// and either side never written (no buffer of its own).
    #[test]
    fn full_empty_and_unmaterialized_pages_match_reference(
        noise in prop::collection::vec(any::<u8>(), PAGE_SIZE),
    ) {
        let noise = noise_page(&noise);
        let mut inverse = noise.clone();
        change(&mut inverse, 0..PAGE_SIZE, 0);
        let full = assert_reference_runs_and_round_trip(&noise, &inverse);
        prop_assert_eq!((full.run_count(), full.payload_bytes()), (1, PAGE_SIZE));

        let mut zeroed = Page::new();
        zeroed.bytes_mut();
        for same in [&noise, &zeroed, &Page::new()] {
            prop_assert!(assert_reference_runs_and_round_trip(same, &same.clone()).is_empty());
        }
        prop_assert!(assert_reference_runs_and_round_trip(&zeroed, &Page::new()).is_empty());
        prop_assert!(assert_reference_runs_and_round_trip(&Page::new(), &zeroed).is_empty());

        let fresh = Page::new();
        prop_assert!(!fresh.is_materialized());
        let written = assert_reference_runs_and_round_trip(&fresh, &noise);
        let erased = assert_reference_runs_and_round_trip(&noise, &fresh);
        let nonzero = noise.bytes().iter().filter(|&&b| b != 0).count();
        prop_assert_eq!(written.payload_bytes(), nonzero);
        prop_assert_eq!(erased.payload_bytes(), nonzero);
    }
}

/// The maximal runs of bytes in which `twin` and `current` differ,
/// found a byte at a time.
fn changed_runs(twin: &Page, current: &Page) -> Vec<(usize, Vec<u8>)> {
    let (t, c) = (twin.bytes(), current.bytes());
    let mut runs: Vec<(usize, Vec<u8>)> = Vec::new();
    for at in (0..PAGE_SIZE).filter(|&at| t[at] != c[at]) {
        match runs.last_mut() {
            Some((start, bytes)) if *start + bytes.len() == at => bytes.push(c[at]),
            _ => runs.push((at, vec![c[at]])),
        }
    }
    runs
}

/// Runs of 1–150 bytes to change, anywhere on a page.
fn run_edits() -> impl Strategy<Value = Vec<(usize, usize, u8)>> {
    prop::collection::vec((0..PAGE_SIZE, 1usize..=150, any::<u8>()), 0..24)
}

/// A twin holding `noise` and a page changed from it by `edits` —
/// across 64-byte seams — and in its last `to_end` bytes, up to byte
/// 4095.
fn changed_pair(noise: &[u8], edits: &[(usize, usize, u8)], to_end: usize) -> (Page, Page) {
    let twin = noise_page(noise);
    let mut current = twin.clone();
    for &(start, len, salt) in edits {
        change(&mut current, start..start + len, salt);
    }
    change(&mut current, PAGE_SIZE - to_end..PAGE_SIZE, 0);
    (twin, current)
}

// The line form against definitions made a byte at a time: its runs,
// counts, rebuilding, overlap test and apply.
proptest! {
    /// `between` yields the byte scan's runs, and agrees with
    /// `between_reference` in every count the wire and the checkpoint
    /// image are sized from.
    #[test]
    fn line_form_runs_are_the_changed_runs(
        noise in prop::collection::vec(any::<u8>(), PAGE_SIZE),
        edits in run_edits(),
        to_end in 0usize..=70,
    ) {
        let (twin, current) = changed_pair(&noise, &edits, to_end);
        let diff = Diff::between(&twin, &current);
        let reference = Diff::between_reference(&twin, &current);
        let expected = changed_runs(&twin, &current);
        let runs: Vec<(usize, Vec<u8>)> = diff.runs().map(|(at, b)| (at, b.to_vec())).collect();
        prop_assert_eq!(&runs, &expected);
        let reference_runs: Vec<(usize, Vec<u8>)> =
            reference.runs().map(|(at, b)| (at, b.to_vec())).collect();
        prop_assert_eq!(&reference_runs, &expected);
        let payload: usize = expected.iter().map(|(_, b)| b.len()).sum();
        for d in [&diff, &reference] {
            prop_assert_eq!(d.run_count(), expected.len());
            prop_assert_eq!(d.payload_bytes(), payload);
            prop_assert_eq!(d.encoded_bytes(), payload + 4 * expected.len());
            prop_assert_eq!(d.is_empty(), expected.is_empty());
        }
        prop_assert_eq!(&diff, &reference);
    }

    /// A diff rebuilt from its own runs is the same diff.
    #[test]
    fn from_runs_rebuilds_the_diff(
        noise in prop::collection::vec(any::<u8>(), PAGE_SIZE),
        edits in run_edits(),
        to_end in 0usize..=70,
    ) {
        let (twin, current) = changed_pair(&noise, &edits, to_end);
        let diff = Diff::between(&twin, &current);
        prop_assert_eq!(Diff::from_runs(diff.runs()), diff);
    }

    /// Two diffs overlap iff some byte is changed in both.
    #[test]
    fn overlaps_is_byte_set_intersection(
        noise in prop::collection::vec(any::<u8>(), PAGE_SIZE),
        a_edits in run_edits(),
        b_edits in prop::collection::vec((0..PAGE_SIZE, 1usize..=40), 0..12),
    ) {
        let (twin, a) = changed_pair(&noise, &a_edits, 0);
        let mut b = twin.clone();
        for &(start, len) in &b_edits {
            change(&mut b, start..start + len, 0);
        }
        let (da, db) = (Diff::between(&twin, &a), Diff::between(&twin, &b));
        let changed = |runs: Vec<(usize, Vec<u8>)>| -> std::collections::BTreeSet<usize> {
            runs.iter().flat_map(|(at, bytes)| *at..*at + bytes.len()).collect()
        };
        let both = changed(changed_runs(&twin, &a))
            .intersection(&changed(changed_runs(&twin, &b)))
            .count();
        prop_assert_eq!(da.overlaps(&db), both > 0);
        prop_assert_eq!(db.overlaps(&da), both > 0);
    }

    /// Applied onto any page, a diff writes exactly its changed bytes
    /// and leaves every other byte as it was.
    #[test]
    fn apply_changes_exactly_the_diffs_bytes(
        noise in prop::collection::vec(any::<u8>(), PAGE_SIZE),
        edits in run_edits(),
        to_end in 0usize..=70,
        third in prop::collection::vec(any::<u8>(), PAGE_SIZE),
    ) {
        let (twin, current) = changed_pair(&noise, &edits, to_end);
        let diff = Diff::between(&twin, &current);
        let third = noise_page(&third);
        let mut expected = third.clone();
        for (at, bytes) in changed_runs(&twin, &current) {
            expected.bytes_mut()[at..at + bytes.len()].copy_from_slice(&bytes);
        }
        let mut applied = third.clone();
        diff.apply(&mut applied);
        prop_assert_eq!(applied, expected);
    }
}

proptest! {
    /// Whether a page owns a buffer is unobservable: a page built
    /// lazily (unmaterialized when nothing was written) and the same
    /// content in a buffer allocated up front agree in every
    /// operation, and writing a page back to zeros makes it equal to
    /// a fresh one again.
    #[test]
    fn page_representation_is_unobservable(writes in sparse_writes(), other_w in sparse_writes()) {
        let lazy = page_from(&writes);
        let mut eager = Page::new();
        eager.bytes_mut().fill(0);
        prop_assert!(eager.is_materialized());
        for &(off, v) in &writes {
            eager.bytes_mut()[off] = v;
        }
        prop_assert_eq!(lazy.is_materialized(), !writes.is_empty());
        prop_assert_eq!(&lazy, &eager);
        prop_assert_eq!(lazy.bytes(), eager.bytes());
        prop_assert_eq!(format!("{lazy:?}"), format!("{eager:?}"));

        let other = page_from(&other_w);
        prop_assert_eq!(Diff::between(&lazy, &other), Diff::between(&eager, &other));
        prop_assert_eq!(Diff::between(&other, &lazy), Diff::between(&other, &eager));
        let (mut onto_fresh, mut onto_other) = (Page::new(), other.clone());
        onto_fresh.copy_from(&lazy);
        onto_other.copy_from(&lazy);
        prop_assert_eq!(&onto_fresh, &eager);
        prop_assert_eq!(&onto_other, &eager);

        let mut rezeroed = lazy.clone();
        for &(off, _) in &writes {
            rezeroed.bytes_mut()[off] = 0;
        }
        prop_assert_eq!(&rezeroed, &Page::new());
        prop_assert!(Diff::between(&Page::new(), &rezeroed).is_empty());
    }

    /// apply(between(twin, current), twin) == current — always.
    #[test]
    fn diff_round_trip(twin_w in sparse_writes(), cur_w in sparse_writes()) {
        let twin = page_from(&twin_w);
        let mut current = twin.clone();
        for &(off, v) in &cur_w {
            current.bytes_mut()[off] = v;
        }
        let diff = Diff::between(&twin, &current);
        let mut restored = twin.clone();
        diff.apply(&mut restored);
        prop_assert_eq!(restored, current);
    }

    /// A diff is idempotent: applying it twice equals applying once.
    #[test]
    fn diff_idempotent(twin_w in sparse_writes(), cur_w in sparse_writes()) {
        let twin = page_from(&twin_w);
        let mut current = twin.clone();
        for &(off, v) in &cur_w {
            current.bytes_mut()[off] = v;
        }
        let diff = Diff::between(&twin, &current);
        let mut once = twin.clone();
        diff.apply(&mut once);
        let mut twice = once.clone();
        diff.apply(&mut twice);
        prop_assert_eq!(once, twice);
    }

    /// Diffs from writers touching disjoint regions commute — the
    /// multiple-writer protocol's correctness condition.
    #[test]
    fn disjoint_diffs_commute(
        a_writes in prop::collection::vec((0..PAGE_SIZE / 2, any::<u8>()), 1..32),
        b_writes in prop::collection::vec((PAGE_SIZE / 2..PAGE_SIZE, any::<u8>()), 1..32),
    ) {
        let twin = Page::new();
        let pa = page_from(&a_writes);
        let pb = page_from(&b_writes);
        let da = Diff::between(&twin, &pa);
        let db = Diff::between(&twin, &pb);
        prop_assert!(!da.overlaps(&db));
        let mut ab = Page::new();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = Page::new();
        db.apply(&mut ba);
        da.apply(&mut ba);
        prop_assert_eq!(ab, ba);
    }

    /// Encoded size is payload plus per-run framing, and never
    /// exceeds a full-page diff's size plus framing.
    #[test]
    fn diff_size_bounds(cur_w in sparse_writes()) {
        let twin = Page::new();
        let current = page_from(&cur_w);
        let diff = Diff::between(&twin, &current);
        prop_assert!(diff.payload_bytes() <= PAGE_SIZE);
        prop_assert!(diff.encoded_bytes() >= diff.payload_bytes());
        prop_assert!(diff.run_count() <= diff.payload_bytes().max(1));
    }

    /// Vector clock join is commutative, associative, and idempotent
    /// (a semilattice), and dominates both operands.
    #[test]
    fn clock_join_lattice(
        a in prop::collection::vec(0u32..64, 4),
        b in prop::collection::vec(0u32..64, 4),
        c in prop::collection::vec(0u32..64, 4),
    ) {
        let mk = |v: &[u32]| {
            let mut vc = VectorClock::new(v.len());
            for (i, &n) in v.iter().enumerate() {
                for _ in 0..n {
                    vc.tick(i);
                }
            }
            vc
        };
        let (ca, cb, cc) = (mk(&a), mk(&b), mk(&c));

        // Commutative.
        let mut ab = ca.clone();
        ab.join(&cb);
        let mut ba = cb.clone();
        ba.join(&ca);
        prop_assert_eq!(&ab, &ba);

        // Dominates both operands.
        prop_assert!(ab.dominates(&ca));
        prop_assert!(ab.dominates(&cb));

        // Associative.
        let mut ab_c = ab.clone();
        ab_c.join(&cc);
        let mut bc = cb.clone();
        bc.join(&cc);
        let mut a_bc = ca.clone();
        a_bc.join(&bc);
        prop_assert_eq!(ab_c, a_bc);

        // Idempotent.
        let mut aa = ca.clone();
        aa.join(&ca);
        prop_assert_eq!(aa, ca);
    }

    /// hb_cmp is antisymmetric and consistent with dominates.
    #[test]
    fn clock_partial_order_consistency(
        a in prop::collection::vec(0u32..16, 3),
        b in prop::collection::vec(0u32..16, 3),
    ) {
        let mk = |v: &[u32]| {
            let mut vc = VectorClock::new(v.len());
            for (i, &n) in v.iter().enumerate() {
                for _ in 0..n {
                    vc.tick(i);
                }
            }
            vc
        };
        let (ca, cb) = (mk(&a), mk(&b));
        use std::cmp::Ordering::*;
        match ca.hb_cmp(&cb) {
            Some(Equal) => prop_assert_eq!(&ca, &cb),
            Some(Greater) => {
                prop_assert!(ca.dominates(&cb));
                prop_assert_eq!(cb.hb_cmp(&ca), Some(Less));
            }
            Some(Less) => {
                prop_assert!(cb.dominates(&ca));
                prop_assert_eq!(cb.hb_cmp(&ca), Some(Greater));
            }
            None => {
                prop_assert!(ca.is_concurrent_with(&cb));
                prop_assert_eq!(cb.hb_cmp(&ca), None);
            }
        }
    }

    /// Sorting by `hb_key` is a topological order of the partial
    /// order: no element strictly happens-before an earlier one.
    #[test]
    fn hb_key_sort_is_topological(
        clocks in prop::collection::vec(prop::collection::vec(0u32..8, 3), 1..12),
    ) {
        let mut stamps: Vec<VectorClock> =
            clocks.iter().map(|v| VectorClock::from_entries(v)).collect();
        stamps.sort_by(|a, b| a.hb_key().cmp(&b.hb_key()));
        for i in 0..stamps.len() {
            for j in (i + 1)..stamps.len() {
                prop_assert!(
                    !(stamps[i].dominates(&stamps[j]) && stamps[i] != stamps[j]),
                    "element {} strictly precedes element {} but sorted after it",
                    j,
                    i
                );
            }
        }
    }

    /// The chunked `between` and the scalar `between_reference` agree
    /// after apply: both reconstruct `current` exactly from the twin.
    #[test]
    fn chunked_between_matches_reference_apply(
        twin_w in sparse_writes(),
        cur_w in sparse_writes(),
    ) {
        let twin = page_from(&twin_w);
        let mut current = twin.clone();
        for &(off, v) in &cur_w {
            current.bytes_mut()[off] = v;
        }
        let fast = Diff::between(&twin, &current);
        let reference = Diff::between_reference(&twin, &current);
        let mut via_fast = twin.clone();
        fast.apply(&mut via_fast);
        let mut via_reference = twin.clone();
        reference.apply(&mut via_reference);
        prop_assert_eq!(&via_fast, &current);
        prop_assert_eq!(&via_reference, &current);
        // Coherence diffs stay byte-precise: identical runs, so the
        // paper-visible wire size is unchanged by the chunked scan.
        prop_assert_eq!(&fast, &reference);
    }

    /// The bounds-check-eliding u64 accessors are byte-identical to
    /// naive indexed forms.
    #[test]
    fn u64_accessors_match_indexed_reference(
        writes in prop::collection::vec((0..PAGE_SIZE - 7, any::<u64>()), 0..32),
        probes in prop::collection::vec(0..PAGE_SIZE - 7, 0..32),
    ) {
        let mut fast = Page::new();
        let mut reference = Page::new();
        for &(off, v) in &writes {
            fast.write_u64(off, v);
            // Reference form: plain indexing, the pre-optimization code.
            reference.bytes_mut()[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }
        prop_assert_eq!(&fast, &reference);
        for &off in &probes {
            let direct =
                u64::from_le_bytes(reference.bytes()[off..off + 8].try_into().unwrap());
            prop_assert_eq!(fast.read_u64(off), direct);
        }
    }

    /// `Diff::apply`'s single-range-check form matches a per-byte
    /// indexed reference apply.
    #[test]
    fn apply_matches_indexed_reference(
        twin_w in sparse_writes(),
        cur_w in sparse_writes(),
    ) {
        let twin = page_from(&twin_w);
        let mut current = twin.clone();
        for &(off, v) in &cur_w {
            current.bytes_mut()[off] = v;
        }
        let diff = Diff::between(&twin, &current);
        let mut fast = twin.clone();
        diff.apply(&mut fast);
        let mut reference = twin.clone();
        for (off, bytes) in diff.runs() {
            for (k, &b) in bytes.iter().enumerate() {
                reference.bytes_mut()[off + k] = b;
            }
        }
        prop_assert_eq!(fast, reference);
    }

    /// NoticeBoard: recording then applying leaves nothing pending,
    /// regardless of order and duplicates.
    #[test]
    fn notice_board_record_apply(
        ops in prop::collection::vec((0u32..4, 0usize..3, 1u32..5), 1..40),
    ) {
        let mut board = NoticeBoard::new();
        let mut recorded = Vec::new();
        for &(page, origin, ticks) in &ops {
            let mut stamp = VectorClock::new(3);
            for _ in 0..ticks {
                stamp.tick(origin);
            }
            board.record(WriteNotice {
                page: PageId::new(page),
                origin,
                stamp: stamp.clone(),
            });
            recorded.push((PageId::new(page), origin, Arc::new(stamp)));
        }
        for (page, origin, stamp) in &recorded {
            board.mark_applied(*page, *origin, stamp);
        }
        for &(page, origin, ticks) in &ops {
            prop_assert!(board.pending_by_origin(PageId::new(page)).is_empty());
            prop_assert!(board.is_applied(PageId::new(page), origin, ticks));
        }
    }

    /// IntervalLog against the definitions it indexes. A small cluster
    /// closes intervals, relays arbitrary subsets of its logs in
    /// arbitrary order without joining clocks (a diff reply), grants
    /// (learn everything unknown, then join) and snapshots clocks (a
    /// request in flight, a barrier horizon). Clocks therefore change
    /// only by tick and join — every one is causally closed — while
    /// logs fill out of sequence order, with duplicates offered, and
    /// the last node never closes an interval. Every log must then
    /// answer `unknown_to` for every clock exactly as the linear
    /// filter over its records does (same records, same order), and
    /// `of_origin` / `knows` as the scans do. (Which records name a
    /// page is the [`PageIndex`]'s question:
    /// `page_index_views_match_linear_scans`.)
    #[test]
    fn interval_log_matches_linear_scans(
        ops in prop::collection::vec((0u8..4, 0usize..5, 0usize..5, any::<u64>()), 1..120),
    ) {
        const NODES: usize = 5;
        const PAGES: u32 = 6;
        let mut clocks: Vec<VectorClock> = (0..NODES).map(|_| VectorClock::new(NODES)).collect();
        let mut snapshots: Vec<VectorClock> = Vec::new();
        let mut logs: Vec<IntervalLog> = (0..NODES).map(|_| IntervalLog::new()).collect();
        // The reference: a plain list per node, deduplicated by scan.
        let mut lists: Vec<Vec<Arc<IntervalRecord>>> = vec![Vec::new(); NODES];
        let learn = |logs: &mut Vec<IntervalLog>,
                     lists: &mut Vec<Vec<Arc<IntervalRecord>>>,
                     n: usize,
                     rec: &Arc<IntervalRecord>| {
            let known = lists[n]
                .iter()
                .any(|r| r.origin == rec.origin && r.seq() == rec.seq());
            assert_eq!(logs[n].learn(rec), !known);
            if !known {
                lists[n].push(Arc::clone(rec));
            }
        };
        for &(kind, a, b, bits) in &ops {
            match kind {
                0 if a < NODES - 1 => {
                    clocks[a].tick(a);
                    let pages = (0..PAGES)
                        .filter(|p| bits >> p & 1 == 1)
                        .map(PageId::new)
                        .collect();
                    let rec = Arc::new(IntervalRecord {
                        origin: a,
                        stamp: Arc::new(clocks[a].clone()),
                        pages,
                    });
                    learn(&mut logs, &mut lists, a, &rec);
                }
                1 => {
                    let mut relayed: Vec<Arc<IntervalRecord>> = lists[a]
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| bits >> (i % 63) & 1 == 1)
                        .map(|(_, r)| Arc::clone(r))
                        .collect();
                    if bits >> 63 == 1 {
                        relayed.reverse();
                    }
                    for rec in &relayed {
                        learn(&mut logs, &mut lists, b, rec);
                    }
                }
                2 => {
                    for rec in logs[a].unknown_to(&clocks[b]) {
                        learn(&mut logs, &mut lists, b, &rec);
                    }
                    let granter = clocks[a].clone();
                    clocks[b].join(&granter);
                }
                _ => snapshots.push(clocks[a].clone()),
            }
        }
        for (log, list) in logs.iter().zip(&lists) {
            prop_assert!(log.records().iter().map(Arc::as_ptr).eq(list.iter().map(Arc::as_ptr)));
            for vc in clocks.iter().chain(&snapshots) {
                let linear = list.iter().filter(|r| !vc.dominates(&r.stamp));
                prop_assert!(
                    log.unknown_to(vc).iter().map(Arc::as_ptr).eq(linear.map(Arc::as_ptr)),
                    "unknown_to({}) differs from the linear filter",
                    vc
                );
            }
            for (origin, clock) in clocks.iter().enumerate() {
                let scan = list.iter().filter(|r| r.origin == origin);
                let mut by_seq: Vec<_> = scan.map(|r| (r.seq(), Arc::as_ptr(r))).collect();
                by_seq.sort();
                prop_assert!(log
                    .of_origin(origin)
                    .map(|r| (r.seq(), Arc::as_ptr(r)))
                    .eq(by_seq.iter().copied()));
                for seq in 0..=clock.get(origin) + 1 {
                    prop_assert_eq!(
                        log.knows(origin, seq),
                        by_seq.iter().any(|&(s, _)| s == seq)
                    );
                }
            }
            if list.is_empty() {
                prop_assert_eq!(log.indexed_keys(), 0);
            }
        }
    }
}

/// The notice board as it was before its index: per page, every
/// notice in arrival order behind a `HashMap`, each question answered
/// by a scan. The differential reference of [`NoticeBoard`].
#[derive(Default)]
struct MapBoard {
    by_page: HashMap<PageId, Vec<(usize, u32, Stamp, bool)>>,
}

impl MapBoard {
    fn record_stamp(&mut self, page: PageId, origin: usize, stamp: &Stamp) -> bool {
        let seq = stamp.get(origin);
        let entries = self.by_page.entry(page).or_default();
        if entries.iter().any(|e| e.0 == origin && e.1 == seq) {
            return false;
        }
        entries.push((origin, seq, Arc::clone(stamp), false));
        true
    }

    fn pending_by_origin(&self, page: PageId) -> Vec<(usize, Vec<Stamp>)> {
        let mut out: Vec<(usize, Vec<Stamp>)> = Vec::new();
        for e in self.by_page.get(&page).into_iter().flatten() {
            if e.3 {
                continue;
            }
            match out.iter_mut().find(|(o, _)| *o == e.0) {
                Some((_, stamps)) => stamps.push(Arc::clone(&e.2)),
                None => out.push((e.0, vec![Arc::clone(&e.2)])),
            }
        }
        out.sort_by_key(|(o, _)| *o);
        out
    }

    fn mark_applied(&mut self, page: PageId, origin: usize, stamp: &Stamp) {
        let seq = stamp.get(origin);
        let entries = self.by_page.entry(page).or_default();
        match entries.iter_mut().find(|e| e.0 == origin && e.1 == seq) {
            Some(e) => e.3 = true,
            None => entries.push((origin, seq, Arc::clone(stamp), true)),
        }
    }

    fn is_applied(&self, page: PageId, origin: usize, seq: u32) -> bool {
        self.by_page
            .get(&page)
            .is_some_and(|es| es.iter().any(|e| e.3 && e.0 == origin && e.1 == seq))
    }

    fn applied_for(&self, page: PageId) -> Vec<(usize, Stamp)> {
        self.by_page.get(&page).map_or_else(Vec::new, |es| {
            es.iter()
                .filter(|e| e.3)
                .map(|e| (e.0, Arc::clone(&e.2)))
                .collect()
        })
    }
}

/// The interval log as it was before its index: a `BTreeMap` of
/// per-origin `(seq, position)` lists. The differential reference of
/// [`IntervalLog`].
#[derive(Default)]
struct MapLog {
    records: Vec<Arc<IntervalRecord>>,
    by_origin: BTreeMap<usize, Vec<(u32, u32)>>,
}

impl MapLog {
    fn learn(&mut self, rec: &Arc<IntervalRecord>) -> bool {
        let seq = rec.seq();
        let of_origin = self.by_origin.entry(rec.origin).or_default();
        let at = of_origin.partition_point(|&(s, _)| s < seq);
        if of_origin.get(at).is_some_and(|&(s, _)| s == seq) {
            return false;
        }
        let pos = self.records.len() as u32;
        of_origin.insert(at, (seq, pos));
        self.records.push(Arc::clone(rec));
        true
    }

    fn knows(&self, origin: usize, seq: u32) -> bool {
        self.by_origin
            .get(&origin)
            .is_some_and(|l| l.binary_search_by_key(&seq, |&(s, _)| s).is_ok())
    }

    fn unknown_to(&self, vc: &VectorClock) -> Vec<Arc<IntervalRecord>> {
        let mut positions: Vec<u32> = Vec::new();
        for (&origin, of_origin) in &self.by_origin {
            let from = of_origin.partition_point(|&(s, _)| s <= vc.get(origin));
            positions.extend(of_origin[from..].iter().map(|&(_, pos)| pos));
        }
        positions.sort_unstable();
        positions
            .into_iter()
            .map(|pos| Arc::clone(&self.records[pos as usize]))
            .collect()
    }

    fn of_origin(&self, origin: usize) -> impl Iterator<Item = &Arc<IntervalRecord>> {
        let of_origin = self.by_origin.get(&origin).map_or(&[][..], Vec::as_slice);
        of_origin
            .iter()
            .map(|&(_, pos)| &self.records[pos as usize])
    }

    fn indexed_keys(&self) -> usize {
        self.by_origin.len()
    }
}

/// The identity and allocation of a handed-out stamp: two answers
/// agree only if they hand out the very same `Arc`s in the same order.
fn stamp_ids<'a>(
    pairs: impl IntoIterator<Item = (usize, &'a Stamp)>,
) -> Vec<(usize, u32, *const VectorClock)> {
    pairs
        .into_iter()
        .map(|(origin, s)| (origin, s.get(origin), Arc::as_ptr(s)))
        .collect()
}

proptest! {
    /// [`NoticeBoard`] answers every question exactly as the
    /// `HashMap` board it replaced, in the same order and with the
    /// same shared stamps. Notices arrive with their sequence numbers
    /// in any order (a relay can overtake), duplicated (the same
    /// interval piggybacked twice, sometimes in a fresh copy of its
    /// stamp), and after their diff was already applied; pages are
    /// scattered over a range the board has to grow into.
    ///
    /// A third, deferred board takes no notice for a page until the
    /// page's first operation (marking applied, or asking what is
    /// applied or pending) with a notice waiting. Until then the
    /// page's notices wait in a log, deduplicated there, and that
    /// operation first seeds the page from the log; marking applied
    /// on a page with nothing waiting starts its record directly. From then on the deferred board must give
    /// every answer the eager board gives, in the same order; before
    /// it, the eager board must hold nothing applied for the page and
    /// exactly the log's notices pending, in arrival order.
    #[test]
    fn notice_board_matches_the_hash_map_reference(
        ops in prop::collection::vec((0u8..6, 0usize..5, 0usize..4, 1u32..7, any::<bool>()), 1..200),
    ) {
        const PAGES: [u32; 5] = [0, 3, 4, 17, 300];
        let shared: HashMap<(usize, u32), Stamp> = (0..4)
            .flat_map(|o| (1..7).map(move |seq| (o, seq)))
            .map(|(o, seq)| {
                let mut elems = [0; 4];
                elems[o] = seq;
                ((o, seq), Arc::new(VectorClock::from_entries(&elems)))
            })
            .collect();
        let mut board = NoticeBoard::new();
        let mut reference = MapBoard::default();
        let mut deferred = NoticeBoard::new();
        // The notices of each page `deferred` does not track yet, in
        // arrival order.
        let mut waiting: HashMap<PageId, Vec<(usize, Stamp)>> = HashMap::new();
        let track = |deferred: &mut NoticeBoard,
                     waiting: &mut HashMap<PageId, Vec<(usize, Stamp)>>,
                     page: PageId| {
            // As the engine does: a page with nothing waiting stays
            // untracked until marking something applied starts it.
            if let Some(notices) = waiting.remove(&page) {
                deferred.seed(page, notices.iter().map(|(o, s)| (*o, s)));
            }
        };
        for &(kind, page, origin, seq, fresh_copy) in &ops {
            let page = PageId::new(PAGES[page]);
            let stamp = if fresh_copy {
                Arc::new(VectorClock::clone(&shared[&(origin, seq)]))
            } else {
                Arc::clone(&shared[&(origin, seq)])
            };
            match kind {
                0 | 1 => {
                    let new = board.record_stamp(page, origin, &stamp);
                    prop_assert_eq!(new, reference.record_stamp(page, origin, &stamp));
                    let deferred_new = if deferred.tracks(page) {
                        deferred.record_stamp(page, origin, &stamp)
                    } else {
                        let log = waiting.entry(page).or_default();
                        let known = log.iter().any(|(o, s)| *o == origin && s.get(origin) == seq);
                        if !known {
                            log.push((origin, stamp));
                        }
                        !known
                    };
                    prop_assert_eq!(deferred_new, new);
                }
                2 => {
                    board.mark_applied(page, origin, &stamp);
                    reference.mark_applied(page, origin, &stamp);
                    track(&mut deferred, &mut waiting, page);
                    deferred.mark_applied(page, origin, &stamp);
                }
                3 => {
                    let applied = board.is_applied(page, origin, seq);
                    prop_assert_eq!(applied, reference.is_applied(page, origin, seq));
                    track(&mut deferred, &mut waiting, page);
                    prop_assert_eq!(deferred.is_applied(page, origin, seq), applied);
                }
                4 => track(&mut deferred, &mut waiting, page),
                _ => {}
            }
            for page in PAGES.map(PageId::new) {
                let nested = reference.pending_by_origin(page);
                let pending = stamp_ids(board.pending_by_origin(page).iter().map(|(o, s)| (*o, s)));
                let applied = stamp_ids(board.applied_for(page).iter().map(|(o, s)| (*o, s)));
                prop_assert_eq!(
                    &pending,
                    &stamp_ids(nested.iter().flat_map(|(o, ss)| ss.iter().map(move |s| (*o, s))))
                );
                prop_assert_eq!(
                    &applied,
                    &stamp_ids(reference.applied_for(page).iter().map(|(o, s)| (*o, s)))
                );
                if deferred.tracks(page) {
                    prop_assert_eq!(
                        stamp_ids(deferred.pending_by_origin(page).iter().map(|(o, s)| (*o, s))),
                        pending
                    );
                    prop_assert_eq!(
                        stamp_ids(deferred.applied_for(page).iter().map(|(o, s)| (*o, s))),
                        applied
                    );
                } else {
                    prop_assert!(applied.is_empty(), "applied before the first operation");
                    let log = waiting.get(&page).map_or(&[][..], Vec::as_slice);
                    prop_assert_eq!(
                        stamp_ids(board.pending(page)),
                        stamp_ids(log.iter().map(|(o, s)| (*o, s)))
                    );
                }
            }
        }
        for page in PAGES.map(PageId::new) {
            track(&mut deferred, &mut waiting, page);
            prop_assert_eq!(
                stamp_ids(deferred.pending_by_origin(page).iter().map(|(o, s)| (*o, s))),
                stamp_ids(board.pending_by_origin(page).iter().map(|(o, s)| (*o, s)))
            );
            for origin in 0..4 {
                for seq in 0..8 {
                    let applied = board.is_applied(page, origin, seq);
                    prop_assert_eq!(applied, reference.is_applied(page, origin, seq));
                    prop_assert_eq!(deferred.is_applied(page, origin, seq), applied);
                }
            }
        }
    }

    /// The cluster's one [`PageIndex`], read through a node's log,
    /// lists exactly that log's records naming the page, in the order
    /// the log learned them — its own and received, relayed out of
    /// sequence order, as fresh copies, and in duplicate. Three nodes
    /// close intervals (some listing a page twice, which still names
    /// it once), relay arbitrary subsets of their logs in arbitrary
    /// order and grant; one page is never named.
    #[test]
    fn page_index_views_match_linear_scans(
        ops in prop::collection::vec((0u8..3, 0usize..3, 0usize..3, any::<u64>()), 1..100),
    ) {
        const NODES: usize = 3;
        // Records name pages below `PAGES`; page `PAGES` is never named.
        const PAGES: u32 = 5;
        let mut clocks: Vec<VectorClock> = (0..NODES).map(|_| VectorClock::new(NODES)).collect();
        let mut logs: Vec<IntervalLog> = (0..NODES).map(|_| IntervalLog::new()).collect();
        let mut index = PageIndex::new();
        for &(kind, a, b, bits) in &ops {
            match kind {
                0 => {
                    clocks[a].tick(a);
                    let mut pages: Vec<PageId> = (0..PAGES)
                        .filter(|p| bits >> p & 1 == 1)
                        .map(PageId::new)
                        .collect();
                    if bits >> 8 & 1 == 1 {
                        if let Some(&last) = pages.last() {
                            pages.push(last);
                        }
                    }
                    let rec = Arc::new(IntervalRecord {
                        origin: a,
                        stamp: Arc::new(clocks[a].clone()),
                        pages,
                    });
                    logs[a].learn(&rec);
                    index.seal(&rec);
                }
                1 => {
                    let mut relayed: Vec<Arc<IntervalRecord>> = logs[a]
                        .records()
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| bits >> (i % 62) & 1 == 1)
                        .map(|(_, r)| if bits >> 62 & 1 == 1 { Arc::new(IntervalRecord::clone(r)) } else { Arc::clone(r) })
                        .collect();
                    if bits >> 63 == 1 {
                        relayed.reverse();
                    }
                    for rec in &relayed {
                        logs[b].learn(rec);
                    }
                }
                _ => {
                    for rec in logs[a].unknown_to(&clocks[b]) {
                        logs[b].learn(&rec);
                    }
                    let granter = clocks[a].clone();
                    clocks[b].join(&granter);
                }
            }
            for log in &logs {
                for page in (0..=PAGES).map(PageId::new) {
                    let scan = log.records().iter().filter(|r| r.pages.contains(&page));
                    prop_assert!(
                        index.naming(page, log).map(Arc::as_ptr).eq(scan.map(Arc::as_ptr)),
                        "{} differs from the scan",
                        page
                    );
                }
            }
        }
        for log in &logs {
            prop_assert_eq!(index.naming(PageId::new(PAGES), log).count(), 0);
        }
    }

    /// [`IntervalLog`] answers every question exactly as the
    /// `BTreeMap` log it replaced — `learn`, `knows`, `unknown_to`,
    /// `of_origin` and `indexed_keys`, after
    /// every operation. The cluster below closes intervals, relays
    /// arbitrary subsets of its logs in arbitrary order (sequence
    /// numbers out of order, duplicates, fresh copies of a record)
    /// and grants, so every clock stays causally closed.
    #[test]
    fn interval_log_matches_the_map_reference(
        ops in prop::collection::vec((0u8..4, 0usize..5, 0usize..5, any::<u64>()), 1..120),
    ) {
        const NODES: usize = 5;
        const PAGES: [u32; 6] = [0, 1, 2, 9, 10, 200];
        let mut clocks: Vec<VectorClock> = (0..NODES).map(|_| VectorClock::new(NODES)).collect();
        let mut logs: Vec<IntervalLog> = (0..NODES).map(|_| IntervalLog::new()).collect();
        let mut refs: Vec<MapLog> = (0..NODES).map(|_| MapLog::default()).collect();
        for &(kind, a, b, bits) in &ops {
            match kind {
                0 if a < NODES - 1 => {
                    clocks[a].tick(a);
                    let rec = Arc::new(IntervalRecord {
                        origin: a,
                        stamp: Arc::new(clocks[a].clone()),
                        pages: PAGES
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| bits >> i & 1 == 1)
                            .map(|(_, &p)| PageId::new(p))
                            .collect(),
                    });
                    prop_assert_eq!(logs[a].learn(&rec), refs[a].learn(&rec));
                }
                1 => {
                    let mut relayed: Vec<Arc<IntervalRecord>> = refs[a]
                        .records
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| bits >> (i % 62) & 1 == 1)
                        .map(|(_, r)| if bits >> 62 & 1 == 1 { Arc::new(IntervalRecord::clone(r)) } else { Arc::clone(r) })
                        .collect();
                    if bits >> 63 == 1 {
                        relayed.reverse();
                    }
                    for rec in &relayed {
                        prop_assert_eq!(logs[b].learn(rec), refs[b].learn(rec));
                    }
                }
                2 => {
                    let unknown = logs[a].unknown_to(&clocks[b]);
                    prop_assert!(unknown
                        .iter()
                        .map(Arc::as_ptr)
                        .eq(refs[a].unknown_to(&clocks[b]).iter().map(Arc::as_ptr)));
                    for rec in &unknown {
                        prop_assert_eq!(logs[b].learn(rec), refs[b].learn(rec));
                    }
                    let granter = clocks[a].clone();
                    clocks[b].join(&granter);
                }
                _ => {}
            }
            for (log, reference) in logs.iter().zip(&refs) {
                prop_assert_eq!(log.indexed_keys(), reference.indexed_keys());
                prop_assert!(log.records().iter().map(Arc::as_ptr).eq(reference.records.iter().map(Arc::as_ptr)));
                for vc in &clocks {
                    prop_assert!(log
                        .unknown_to(vc)
                        .iter()
                        .map(Arc::as_ptr)
                        .eq(reference.unknown_to(vc).iter().map(Arc::as_ptr)));
                }
                for (origin, clock) in clocks.iter().enumerate() {
                    prop_assert!(log
                        .of_origin(origin)
                        .map(Arc::as_ptr)
                        .eq(reference.of_origin(origin).map(Arc::as_ptr)));
                    for seq in 0..=clock.get(origin) + 1 {
                        prop_assert_eq!(log.knows(origin, seq), reference.knows(origin, seq));
                    }
                }
            }
        }
    }
}

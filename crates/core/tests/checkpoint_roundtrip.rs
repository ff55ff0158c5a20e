//! Property tests for the checkpoint byte encodings: arbitrary
//! recoverable-state snapshots survive an encode/decode round trip
//! exactly, digests track content, and the format is self-delimiting
//! (no strict prefix of a valid encoding parses). The segmented
//! durable-slot format gets the same treatment plus crash-shape
//! coverage: a slot truncated at any byte classifies as `Torn` or
//! falls back cleanly, and classification never panics.

use std::sync::Arc;

use proptest::prelude::*;
use rsdsm_core::{
    classify_slot, Checkpoint, CheckpointError, CommitRecord, DiffRecord, IntervalRecord, LockId,
    PageImage, SlotState,
};
use rsdsm_protocol::{Diff, Page, PageId, VectorClock, PAGE_SIZE};

/// Raw page spec: sparse (word, value) writes into a zeroed page.
type PageSpec = Vec<(usize, u64)>;
/// Raw diff spec: a walk of (gap, payload) segments.
type DiffSpec = Vec<(usize, Vec<u8>)>;

fn build_page(writes: &PageSpec) -> Page {
    let mut page = Page::new();
    for &(word, value) in writes {
        page.write_u64(word * 8, value);
    }
    page
}

/// Turns (gap, payload) segments into ascending, non-overlapping runs
/// for [`Diff::from_runs`], truncating the walk at the page boundary.
fn build_diff(segments: &DiffSpec) -> Diff {
    let mut runs = Vec::new();
    let mut offset = 0usize;
    for (gap, bytes) in segments {
        let start = offset + gap;
        if start + bytes.len() > PAGE_SIZE {
            break;
        }
        offset = start + bytes.len();
        runs.push((start, bytes.clone()));
    }
    Diff::from_runs(runs)
}

#[allow(clippy::type_complexity)]
fn build_checkpoint(
    node: u32,
    epoch: u32,
    vc: &[u32],
    pages: &[(u32, bool, PageSpec)],
    diffs: &[(u32, u32, DiffSpec)],
    intervals: &[(usize, Vec<u32>, Vec<u32>)],
    tokens: &[u32],
) -> Checkpoint {
    Checkpoint {
        node,
        epoch,
        vc: VectorClock::from_entries(vc),
        pages: pages
            .iter()
            .map(|(index, valid, spec)| PageImage {
                index: *index,
                valid: *valid,
                data: build_page(spec),
            })
            .collect(),
        diffs: diffs
            .iter()
            .map(|(page, seq, spec)| DiffRecord {
                page: *page,
                seq: *seq,
                diff: build_diff(spec),
            })
            .collect(),
        intervals: intervals
            .iter()
            .map(|(origin, stamp, pages)| {
                Arc::new(IntervalRecord {
                    origin: *origin,
                    stamp: Arc::new(VectorClock::from_entries(stamp)),
                    pages: pages.iter().copied().map(PageId::new).collect(),
                })
            })
            .collect(),
        tokens: tokens.iter().copied().map(LockId).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn encode_decode_round_trips(
        node in 0u32..8,
        epoch in 1u32..100,
        vc in prop::collection::vec(0u32..1000, 1..8),
        pages in prop::collection::vec(
            (0u32..256, any::<bool>(),
             prop::collection::vec((0usize..PAGE_SIZE / 8, any::<u64>()), 0..8)),
            0..6),
        diffs in prop::collection::vec(
            (0u32..256, 0u32..1000,
             prop::collection::vec((0usize..64, prop::collection::vec(any::<u8>(), 1..16)), 0..6)),
            0..6),
        intervals in prop::collection::vec(
            (0usize..8,
             prop::collection::vec(0u32..1000, 1..8),
             prop::collection::vec(0u32..256, 0..10)),
            0..6),
        tokens in prop::collection::vec(0u32..64, 0..6),
        cut_seed in any::<u64>(),
    ) {
        let ckpt = build_checkpoint(node, epoch, &vc, &pages, &diffs, &intervals, &tokens);
        let bytes = ckpt.encode();
        // The counter measures what the encoder writes, and the
        // segmented image frames it as it always has.
        prop_assert_eq!(ckpt.encoded_len(), bytes.len());
        let segs = bytes.len().div_ceil(4096).max(1);
        prop_assert_eq!(ckpt.encode_segmented().len(), 16 + bytes.len() + 12 * segs);
        let back = Checkpoint::decode(&bytes).expect("decode");
        prop_assert_eq!(&back, &ckpt);
        prop_assert_eq!(back.digest(), ckpt.digest());
        // Re-encoding is byte-stable (digests are well-defined).
        prop_assert_eq!(back.encode(), bytes);

        // Self-delimiting: no strict prefix parses.
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(
            Checkpoint::decode(&bytes[..cut]).is_err(),
            "a {}-byte prefix of a {}-byte checkpoint decoded",
            cut,
            bytes.len()
        );

        // Segmented (durable-slot) framing round-trips the same state
        // and is byte-stable too.
        let seg = ckpt.encode_segmented();
        let seg_back = Checkpoint::decode_segmented(&seg).expect("segmented decode");
        prop_assert_eq!(&seg_back, &ckpt);
        prop_assert_eq!(seg_back.digest(), ckpt.digest());
        prop_assert_eq!(seg_back.encode_segmented(), seg.clone());

        // An intact payload + matching commit record classifies as
        // Committed and restores the identical checkpoint.
        let commit = CommitRecord::for_payload(epoch, 1, &seg).encode();
        match classify_slot(&seg, &commit) {
            SlotState::Committed { seq, ckpt: restored } => {
                prop_assert_eq!(seq, 1);
                prop_assert_eq!(*restored, ckpt);
            }
            other => prop_assert!(false, "intact slot classified as {other:?}"),
        }

        // Crash shapes: a payload truncated at an arbitrary byte with
        // the commit intact is Torn (the commit's length/fnv check
        // catches it); a truncated commit record alongside a full
        // payload is Torn as well, never a bogus Committed.
        let pcut = (cut_seed % seg.len() as u64) as usize;
        prop_assert_eq!(
            classify_slot(&seg[..pcut], &commit),
            SlotState::Torn,
            "payload truncated to {} of {} bytes",
            pcut,
            seg.len()
        );
        let ccut = (cut_seed % commit.len() as u64) as usize;
        if ccut > 0 {
            prop_assert_eq!(
                classify_slot(&seg, &commit[..ccut]),
                SlotState::Torn,
                "commit truncated to {} of {} bytes",
                ccut,
                commit.len()
            );
        }
    }

    /// A changed byte anywhere in the image, or a sector overwritten
    /// with arbitrary bytes, is caught: the per-segment checks (or the
    /// commit's whole-image check) flag the slot Torn instead of
    /// restoring silently-wrong state.
    #[test]
    fn segmented_corruption_is_detected(
        vc in prop::collection::vec(0u32..1000, 1..8),
        pages in prop::collection::vec(
            (0u32..256, any::<bool>(),
             prop::collection::vec((0usize..PAGE_SIZE / 8, any::<u64>()), 0..8)),
            0..4),
        tokens in prop::collection::vec(0u32..64, 0..6),
        at_seed in any::<u64>(),
        xor in 1u8..=255,
        sector in prop::collection::vec(any::<u8>(), 512),
    ) {
        let ckpt = build_checkpoint(3, 7, &vc, &pages, &[], &[], &tokens);
        let seg = ckpt.encode_segmented();
        let commit = CommitRecord::for_payload(7, 9, &seg).encode();
        let at = (at_seed % seg.len() as u64) as usize;
        let mut bad = seg.clone();
        bad[at] ^= xor;
        prop_assert_eq!(
            classify_slot(&bad, &commit),
            SlotState::Torn,
            "byte {} changed by {:#04x} survived classification",
            at,
            xor
        );

        let lo = at / 512 * 512;
        let hi = (lo + 512).min(seg.len());
        let mut torn = seg.clone();
        torn[lo..hi].copy_from_slice(&sector[..hi - lo]);
        if torn != seg {
            prop_assert_eq!(
                classify_slot(&torn, &commit),
                SlotState::Torn,
                "sector [{}, {}) overwritten survived classification",
                lo,
                hi
            );
        }
    }
}

/// Exhaustive tearing sweep on a small checkpoint: truncating the
/// payload at *every* byte (commit intact) must classify `Torn`, and
/// truncating the commit at every byte over an intact payload must
/// never classify `Committed`. No panic at any cut.
#[test]
fn every_truncation_classifies_cleanly() {
    let ckpt = build_checkpoint(
        1,
        4,
        &[3, 1, 4],
        &[(9, true, vec![(0, 0xdead_beef), (5, 42)])],
        &[(9, 2, vec![(3, vec![1, 2, 3])])],
        &[(0, vec![1, 2], vec![9])],
        &[7],
    );
    let seg = ckpt.encode_segmented();
    let commit = CommitRecord::for_payload(4, 1, &seg).encode();

    for cut in 0..seg.len() {
        assert_eq!(
            classify_slot(&seg[..cut], &commit),
            SlotState::Torn,
            "payload cut at {cut}"
        );
    }
    for cut in 0..commit.len() {
        let state = classify_slot(&seg, &commit[..cut]);
        assert!(
            !matches!(state, SlotState::Committed { .. }),
            "commit cut at {cut} classified Committed"
        );
    }
    // The empty slot (nothing ever written) is Empty, not Torn.
    assert_eq!(classify_slot(&[], &[]), SlotState::Empty);
}

/// A run count the image cannot hold is an error, not an allocation:
/// 40 bytes claiming one diff of `u32::MAX` runs must not size a
/// buffer from that count (137 GB, and a process abort).
#[test]
fn an_impossible_run_count_is_rejected() {
    let words: [u32; 10] = [
        0x5243_4b31, // "RCK1"
        0,           // node
        0,           // epoch
        1,           // clock width
        0,           // the one clock entry
        0,           // pages
        1,           // diffs
        0,           // diff page
        0,           // diff seq
        u32::MAX,    // runs
    ];
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    assert_eq!(bytes.len(), 40);
    assert!(matches!(
        Checkpoint::decode(&bytes),
        Err(CheckpointError::Corrupt(_))
    ));
}

/// Diff runs the encoder never writes are corrupt, not a panic: a
/// checkpoint holding one diff of two runs, 0..8 and 64..68, with a
/// run's offset rewritten so that the second overlaps the first,
/// touches it or comes before it.
#[test]
fn diff_runs_out_of_order_are_rejected() {
    let ckpt = build_checkpoint(
        0,
        1,
        &[0],
        &[],
        &[(5, 1, vec![(0, vec![0xAA; 8]), (56, vec![0xBB; 4])])],
        &[],
        &[],
    );
    let runs: Vec<(usize, usize)> = ckpt.diffs[0]
        .diff
        .runs()
        .map(|(at, b)| (at, b.len()))
        .collect();
    assert_eq!(runs, [(0, 8), (64, 4)]);
    let bytes = ckpt.encode();
    assert_eq!(Checkpoint::decode(&bytes).as_ref(), Ok(&ckpt));
    // Where a run's `(offset, length)` header sits in the image.
    let header = |offset: u32, len: u32| {
        let header: Vec<u8> = [offset, len].iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes
            .windows(8)
            .position(|w| w == header)
            .expect("a run header")
    };
    let (first, second) = (header(0, 8), header(64, 4));
    for (at, offset, shape) in [
        (second, 4, "the second run overlaps the first"),
        (second, 8, "the second run touches the first"),
        (first, 100, "the second run comes first"),
    ] {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&u32::to_le_bytes(offset));
        assert!(
            matches!(Checkpoint::decode(&bad), Err(CheckpointError::Corrupt(_))),
            "{shape}"
        );
    }
}

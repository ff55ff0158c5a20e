//! Barrier-aligned checkpoints of recoverable protocol state.
//!
//! At configurable barrier epochs (see
//! [`RecoveryConfig::checkpoint_every`](crate::RecoveryConfig)) each
//! node snapshots the state a replacement would need to rejoin the
//! run: its page images, vector clock, locally-created diffs (the
//! write-notice log payloads), the interval log, and the lock tokens
//! it holds. Barriers are the natural cut: every local interval is
//! closed, twins are empty, and the barrier epoch number totally
//! orders checkpoints across nodes.
//!
//! Checkpoints have a deterministic byte encoding — so their size can
//! be accounted and a digest pinned — and a [`Checkpoint::digest`]
//! built from the same FNV-1a the consistency oracle uses.
//!
//! # Durable two-slot commit protocol
//!
//! When persistence is on (see
//! [`PersistConfig`](rsdsm_simnet::PersistConfig)), checkpoints are
//! written to a modeled persistent device through a detectably
//! recoverable A/B protocol, so a crash at *any* instant — including
//! mid-persist — leaves the device classifiable:
//!
//! 1. The `RCK1` bytes are wrapped into a *segmented image*
//!    ([`Checkpoint::encode_segmented`]): a header plus fixed-size
//!    segments, each carrying its length and FNV-1a check, so a torn
//!    sector anywhere in the payload is caught by a per-segment
//!    checksum rather than only at the end.
//! 2. The image is written to the persist's slot ([`slot_for_seq`]:
//!    consecutive persists alternate slots), flushed, and fenced.
//! 3. Only then is a fixed-size [`CommitRecord`] — epoch, a
//!    monotonic persist sequence number, and the image's length and
//!    FNV — written to the slot's commit region, flushed, and fenced.
//!
//! [`classify_slot`] reads a (payload, commit) region pair back and
//! returns [`SlotState`]: `Committed` only when the commit record is
//! intact *and* the image it names checks out; any mix of old and new
//! bytes — a torn payload under a stale commit, a torn commit over a
//! fresh payload — classifies as `Torn` and recovery falls back to
//! the other slot.
//!
//! # Examples
//!
//! ```
//! use rsdsm_core::{Checkpoint, PageImage, Page};
//! use rsdsm_protocol::VectorClock;
//!
//! let ckpt = Checkpoint {
//!     node: 1,
//!     epoch: 4,
//!     vc: VectorClock::from_entries(&[3, 7]),
//!     pages: vec![PageImage { index: 0, valid: true, data: Page::new() }],
//!     diffs: vec![],
//!     intervals: vec![],
//!     tokens: vec![],
//! };
//! let bytes = ckpt.encode();
//! let back = Checkpoint::decode(&bytes).unwrap();
//! assert_eq!(back, ckpt);
//! assert_eq!(back.digest(), ckpt.digest());
//! ```

use std::sync::Arc;

use rsdsm_protocol::{Diff, Page, PageId, VectorClock, PAGE_SIZE};

use crate::msg::{IntervalRecord, LockId};
use crate::node::NodeState;
use crate::oracle::{fnv1a, fnv1a_extend, fnv1a_pair};

/// A node's copy of one page at checkpoint time. Only pages the node
/// ever held a valid copy of are captured (others would be fetched
/// from their home on first touch anyway).
#[derive(Debug, Clone, PartialEq)]
pub struct PageImage {
    /// Global page index.
    pub index: u32,
    /// Whether the copy was accessible when captured (invalid copies
    /// are kept too: they seed diff application after rejoin).
    pub valid: bool,
    /// The page contents.
    pub data: Page,
}

/// One locally-created diff retained in the checkpoint — the
/// write-notice log payload used to re-resolve in-flight diff
/// requests after a failure.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRecord {
    /// Page the diff applies to.
    pub page: u32,
    /// The creator's vector-clock element when the interval closed.
    pub seq: u32,
    /// The run-length-encoded modifications.
    pub diff: Diff,
}

/// A barrier-aligned snapshot of one node's recoverable protocol
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The node that took the snapshot.
    pub node: u32,
    /// Barrier epoch at which it was taken (epochs count processed
    /// barrier releases, starting at 1).
    pub epoch: u32,
    /// The node's vector clock.
    pub vc: VectorClock,
    /// Page images, ascending by index.
    pub pages: Vec<PageImage>,
    /// Locally-created diffs, ascending by (page, seq).
    pub diffs: Vec<DiffRecord>,
    /// The node's interval log (its own and received write notices),
    /// sharing the live log's records.
    pub intervals: Vec<Arc<IntervalRecord>>,
    /// Lock tokens the node held, ascending.
    pub tokens: Vec<LockId>,
}

const MAGIC: u32 = 0x5243_4b31; // "RCK1"
const SEG_MAGIC: u32 = 0x5253_4731; // "RSG1"
const COMMIT_MAGIC: u32 = 0x5243_4d31; // "RCM1"

/// Payload bytes per segment of the segmented image.
const SEGMENT_BYTES: usize = 4096;

/// Slots of the A/B commit protocol.
pub(crate) const SLOT_COUNT: usize = 2;

/// Device regions per node: payload and commit region per slot.
pub const SLOT_REGIONS: usize = 2 * SLOT_COUNT;

/// Encoded size of a [`CommitRecord`].
pub(crate) const COMMIT_LEN: usize = 36;

/// Device region holding `slot`'s segmented payload image.
pub(crate) const fn payload_region(slot: usize) -> usize {
    2 * slot
}

/// Device region holding `slot`'s commit record.
pub(crate) const fn commit_region(slot: usize) -> usize {
    2 * slot + 1
}

/// The slot the `seq`-th persist (1-based, per node) writes into.
///
/// Alternation must key on the persist *sequence*, not the barrier
/// epoch: epochs are multiples of the checkpoint cadence, so for any
/// even cadence `epoch % SLOT_COUNT` is constant and every persist
/// would overwrite the one slot — a crash mid-persist would then tear
/// the only committed image, which is exactly what A/B exists to
/// prevent.
pub(crate) const fn slot_for_seq(seq: u64) -> usize {
    (seq as usize) % SLOT_COUNT
}

impl Checkpoint {
    /// Snapshots `node`'s recoverable state at barrier epoch `epoch`.
    ///
    /// Must be called at a barrier release point: all local intervals
    /// are closed there, so no twins exist and the page images are
    /// exactly the post-merge state.
    pub(crate) fn capture(node: u32, epoch: u32, state: &NodeState) -> Self {
        let pages = state
            .mem
            .pages
            .iter()
            .enumerate()
            .filter(|(_, e)| e.ever_valid)
            .map(|(i, e)| {
                debug_assert!(e.twin.is_none(), "open interval at a barrier checkpoint");
                PageImage {
                    index: i as u32,
                    valid: e.valid,
                    data: e.data.clone(),
                }
            })
            .collect();
        let mut diffs: Vec<DiffRecord> = state
            .own_diffs
            .iter()
            .map(|(&(page, seq), diff)| DiffRecord {
                page: page as u32,
                seq,
                diff: Diff::clone(diff),
            })
            .collect();
        diffs.sort_by_key(|d| (d.page, d.seq));
        let mut tokens: Vec<LockId> = state.locks.held_tokens().collect();
        tokens.sort_unstable();
        Checkpoint {
            node,
            epoch,
            vc: state.vc().clone(),
            pages,
            diffs,
            intervals: state.interval_log().records().to_vec(),
            tokens,
        }
    }

    /// Serializes the checkpoint to its deterministic little-endian
    /// byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.pages.len() * (PAGE_SIZE + 8));
        put_u32(&mut out, MAGIC);
        put_u32(&mut out, self.node);
        put_u32(&mut out, self.epoch);
        put_clock(&mut out, &self.vc);
        put_u32(&mut out, self.pages.len() as u32);
        for p in &self.pages {
            put_u32(&mut out, p.index);
            out.push(p.valid as u8);
            out.extend_from_slice(p.data.bytes());
        }
        put_u32(&mut out, self.diffs.len() as u32);
        for d in &self.diffs {
            put_u32(&mut out, d.page);
            put_u32(&mut out, d.seq);
            put_u32(&mut out, d.diff.run_count() as u32);
            for (offset, bytes) in d.diff.runs() {
                put_u32(&mut out, offset as u32);
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
        }
        put_u32(&mut out, self.intervals.len() as u32);
        for iv in &self.intervals {
            put_u32(&mut out, iv.origin as u32);
            put_clock(&mut out, &iv.stamp);
            put_u32(&mut out, iv.pages.len() as u32);
            for page in &iv.pages {
                put_u32(&mut out, page.index() as u32);
            }
        }
        put_u32(&mut out, self.tokens.len() as u32);
        for t in &self.tokens {
            put_u32(&mut out, t.0);
        }
        out
    }

    /// Parses a checkpoint from bytes produced by
    /// [`Checkpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut c = Cursor { bytes, at: 0 };
        if c.u32()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let node = c.u32()?;
        let epoch = c.u32()?;
        let vc = c.clock()?;
        let mut pages = Vec::new();
        for _ in 0..c.u32()? {
            let index = c.u32()?;
            let valid = c.u8()? != 0;
            let mut data = Page::new();
            data.bytes_mut().copy_from_slice(c.take(PAGE_SIZE)?);
            pages.push(PageImage { index, valid, data });
        }
        let mut diffs = Vec::new();
        for _ in 0..c.u32()? {
            let page = c.u32()?;
            let seq = c.u32()?;
            let runs = c.u32()?;
            let mut collected = Vec::with_capacity(runs as usize);
            for _ in 0..runs {
                let offset = c.u32()? as usize;
                let len = c.u32()? as usize;
                if offset + len > PAGE_SIZE {
                    return Err(CheckpointError::Corrupt("diff run extends past page"));
                }
                collected.push((offset, c.take(len)?.to_vec()));
            }
            diffs.push(DiffRecord {
                page,
                seq,
                diff: Diff::from_runs(collected),
            });
        }
        let mut intervals = Vec::new();
        for _ in 0..c.u32()? {
            let origin = c.u32()? as usize;
            let stamp = c.clock()?;
            let mut ivpages = Vec::new();
            for _ in 0..c.u32()? {
                ivpages.push(PageId::new(c.u32()?));
            }
            intervals.push(Arc::new(IntervalRecord {
                origin,
                stamp: Arc::new(stamp),
                pages: ivpages,
            }));
        }
        let mut tokens = Vec::new();
        for _ in 0..c.u32()? {
            tokens.push(LockId(c.u32()?));
        }
        if c.at != bytes.len() {
            return Err(CheckpointError::Corrupt("trailing bytes"));
        }
        Ok(Checkpoint {
            node,
            epoch,
            vc,
            pages,
            diffs,
            intervals,
            tokens,
        })
    }

    /// FNV-1a digest of the encoded checkpoint (the same hash the
    /// consistency oracle uses for page images).
    pub fn digest(&self) -> u64 {
        fnv1a(&self.encode())
    }

    /// Wraps the `RCK1` bytes into the segmented persistence image:
    /// a header (magic, epoch, segment count, total length) followed
    /// by up-to-4 KB segments, each framed with its
    /// length and FNV-1a check.
    pub fn encode_segmented(&self) -> Vec<u8> {
        segment(self.epoch, &self.encode())
    }

    /// Parses a segmented image back into a checkpoint, verifying
    /// every segment checksum and the header/inner epoch agreement.
    /// Never panics: arbitrary bytes (torn sectors, stale tails,
    /// truncation at any boundary) yield an error.
    pub fn decode_segmented(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut c = Cursor { bytes, at: 0 };
        if c.u32()? != SEG_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let epoch = c.u32()?;
        let segs = c.u32()? as usize;
        let total = c.u32()? as usize;
        if segs == 0 || segs > total.div_ceil(SEGMENT_BYTES).max(1) {
            return Err(CheckpointError::Corrupt("implausible segment count"));
        }
        let mut inner = Vec::with_capacity(total.min(bytes.len()));
        for _ in 0..segs {
            let len = c.u32()? as usize;
            if len > SEGMENT_BYTES {
                return Err(CheckpointError::Corrupt("oversized segment"));
            }
            let check = c.u64()?;
            let chunk = c.take(len)?;
            if fnv1a(chunk) != check {
                return Err(CheckpointError::Corrupt("segment checksum mismatch"));
            }
            inner.extend_from_slice(chunk);
        }
        if inner.len() != total {
            return Err(CheckpointError::Corrupt(
                "segment lengths disagree with total",
            ));
        }
        let ckpt = Checkpoint::decode(&inner)?;
        if ckpt.epoch != epoch {
            return Err(CheckpointError::Corrupt(
                "header epoch disagrees with payload",
            ));
        }
        Ok(ckpt)
    }
}

/// Frames `inner`, the `RCK1` bytes of a checkpoint taken at `epoch`,
/// as the segmented persistence image.
pub(crate) fn segment(epoch: u32, inner: &[u8]) -> Vec<u8> {
    let mut out = segmented_header(epoch, inner.len());
    for chunk in inner.chunks(SEGMENT_BYTES) {
        put_u32(&mut out, chunk.len() as u32);
        put_u64(&mut out, fnv1a(chunk));
        out.extend_from_slice(chunk);
    }
    out
}

/// [`segment`]'s image together with the FNV-1a of that image (what
/// its [`CommitRecord`] certifies), every payload byte walked once
/// instead of twice: while the image hash runs over segment *i*, the
/// check of segment *i + 1* runs beside it (see [`fnv1a_pair`]).
pub(crate) fn segment_hashed(epoch: u32, inner: &[u8]) -> (Vec<u8>, u64) {
    let mut out = segmented_header(epoch, inner.len());
    let mut image = fnv1a(&out);
    let mut chunks = inner.chunks(SEGMENT_BYTES).peekable();
    let mut check = chunks.peek().map_or(0, |first| fnv1a(first));
    while let Some(chunk) = chunks.next() {
        let frame = out.len();
        put_u32(&mut out, chunk.len() as u32);
        put_u64(&mut out, check);
        image = fnv1a_extend(image, &out[frame..]);
        let next = chunks.peek().copied().unwrap_or_default();
        (image, check) = fnv1a_pair(image, chunk, next);
        out.extend_from_slice(chunk);
    }
    (out, image)
}

/// The segmented image's header, in a buffer sized for the whole
/// image of an `inner_len`-byte checkpoint.
fn segmented_header(epoch: u32, inner_len: usize) -> Vec<u8> {
    let segs = inner_len.div_ceil(SEGMENT_BYTES).max(1);
    let mut out = Vec::with_capacity(16 + inner_len + segs * 12);
    put_u32(&mut out, SEG_MAGIC);
    put_u32(&mut out, epoch);
    put_u32(&mut out, segs as u32);
    put_u32(&mut out, inner_len as u32);
    out
}

/// The fixed-size record that commits one slot of the A/B protocol.
/// Written (and fenced) strictly after the payload image it names, so
/// its integrity certifies the image's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Barrier epoch of the committed checkpoint.
    pub epoch: u32,
    /// Monotonic persist sequence number (across both slots): the
    /// slot with the larger committed `seq` is the newer image.
    pub seq: u64,
    /// Byte length of the segmented image this record commits.
    pub payload_len: u32,
    /// FNV-1a of those bytes.
    pub payload_fnv: u64,
}

impl CommitRecord {
    /// Builds the record committing `payload` (a segmented image) at
    /// `epoch` with persist sequence `seq`.
    pub fn for_payload(epoch: u32, seq: u64, payload: &[u8]) -> Self {
        CommitRecord {
            epoch,
            seq,
            payload_len: payload.len() as u32,
            payload_fnv: fnv1a(payload),
        }
    }

    /// Serializes to the fixed `COMMIT_LEN`-byte format, ending in
    /// an FNV-1a self-check over the preceding fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(COMMIT_LEN);
        put_u32(&mut out, COMMIT_MAGIC);
        put_u32(&mut out, self.epoch);
        put_u64(&mut out, self.seq);
        put_u32(&mut out, self.payload_len);
        put_u64(&mut out, self.payload_fnv);
        let check = fnv1a(&out);
        put_u64(&mut out, check);
        debug_assert_eq!(out.len(), COMMIT_LEN);
        out
    }

    /// Parses a commit region's bytes; `None` for anything that is
    /// not an intact record (truncated, torn, or never written).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < COMMIT_LEN {
            return None;
        }
        let mut c = Cursor { bytes, at: 0 };
        if c.u32().ok()? != COMMIT_MAGIC {
            return None;
        }
        let epoch = c.u32().ok()?;
        let seq = c.u64().ok()?;
        let payload_len = c.u32().ok()?;
        let payload_fnv = c.u64().ok()?;
        let check = c.u64().ok()?;
        if fnv1a(&bytes[..COMMIT_LEN - 8]) != check {
            return None;
        }
        Some(CommitRecord {
            epoch,
            seq,
            payload_len,
            payload_fnv,
        })
    }
}

/// What recovery concludes about one slot of the persisted A/B pair.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotState {
    /// Never written: both regions empty.
    Empty,
    /// Detectably unusable — a torn payload, a torn or stale commit
    /// record, or any old/new byte mix. Recovery discards it and
    /// falls back to the other slot.
    Torn,
    /// The commit record is intact and the image it names checks out.
    Committed {
        /// Persist sequence number from the commit record.
        seq: u64,
        /// The recovered checkpoint.
        ckpt: Box<Checkpoint>,
    },
}

/// Classifies one slot from its raw device regions. Total over
/// arbitrary bytes: any crash state — mid-payload, mid-commit, torn
/// sectors, stale tails from earlier epochs — yields `Empty`, `Torn`,
/// or a fully verified `Committed`; it never panics.
pub fn classify_slot(payload: &[u8], commit: &[u8]) -> SlotState {
    let Some(rec) = CommitRecord::decode(commit) else {
        return if payload.is_empty() && commit.is_empty() {
            SlotState::Empty
        } else {
            SlotState::Torn
        };
    };
    let len = rec.payload_len as usize;
    if len > payload.len() || fnv1a(&payload[..len]) != rec.payload_fnv {
        return SlotState::Torn;
    }
    match Checkpoint::decode_segmented(&payload[..len]) {
        Ok(ckpt) if ckpt.epoch == rec.epoch => SlotState::Committed {
            seq: rec.seq,
            ckpt: Box::new(ckpt),
        },
        _ => SlotState::Torn,
    }
}

/// Why a checkpoint byte string failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The input ended before the structure was complete.
    Truncated,
    /// The magic number was wrong (not a checkpoint).
    BadMagic,
    /// A structural invariant was violated.
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_clock(out: &mut Vec<u8>, vc: &VectorClock) {
    put_u32(out, vc.len() as u32);
    for p in 0..vc.len() {
        put_u32(out, vc.get(p));
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.at + n > self.bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn clock(&mut self) -> Result<VectorClock, CheckpointError> {
        let n = self.u32()? as usize;
        if n == 0 || n > 1024 {
            return Err(CheckpointError::Corrupt("implausible clock width"));
        }
        let mut elems = Vec::with_capacity(n);
        for _ in 0..n {
            elems.push(self.u32()?);
        }
        Ok(VectorClock::from_entries(&elems))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Checkpoint {
        let mut page = Page::new();
        page.write_u64(64, 0xdead_beef);
        let twin = Page::new();
        Checkpoint {
            node: 2,
            epoch: 8,
            vc: VectorClock::from_entries(&[5, 0, 9, 1]),
            pages: vec![
                PageImage {
                    index: 0,
                    valid: true,
                    data: page.clone(),
                },
                PageImage {
                    index: 3,
                    valid: false,
                    data: Page::new(),
                },
            ],
            diffs: vec![DiffRecord {
                page: 0,
                seq: 4,
                diff: Diff::between(&twin, &page),
            }],
            intervals: vec![Arc::new(IntervalRecord {
                origin: 2,
                stamp: Arc::new(VectorClock::from_entries(&[4, 0, 8, 1])),
                pages: vec![PageId::new(0), PageId::new(3)],
            })],
            tokens: vec![LockId(1), LockId(7)],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let ckpt = sample();
        let bytes = ckpt.encode();
        let back = Checkpoint::decode(&bytes).expect("decode");
        assert_eq!(back, ckpt);
        assert_eq!(back.digest(), ckpt.digest());
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        for cut in [0, 3, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xff;
        assert_eq!(Checkpoint::decode(&bytes), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn digest_tracks_content() {
        let a = sample();
        let mut b = sample();
        b.epoch += 1;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn segmented_round_trip() {
        let ckpt = sample();
        let image = ckpt.encode_segmented();
        assert!(image.len() > ckpt.encode().len(), "framing adds bytes");
        let back = Checkpoint::decode_segmented(&image).expect("decode");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn segmented_truncation_never_decodes() {
        let image = sample().encode_segmented();
        for cut in 0..image.len() {
            assert!(
                Checkpoint::decode_segmented(&image[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn commit_record_round_trip_and_tamper_detection() {
        let payload = sample().encode_segmented();
        let rec = CommitRecord::for_payload(8, 17, &payload);
        let bytes = rec.encode();
        assert_eq!(bytes.len(), COMMIT_LEN);
        assert_eq!(CommitRecord::decode(&bytes), Some(rec));
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                CommitRecord::decode(&bad),
                None,
                "flip at byte {i} must not decode"
            );
        }
        assert_eq!(CommitRecord::decode(&bytes[..COMMIT_LEN - 1]), None);
    }

    #[test]
    fn classify_committed_torn_and_empty() {
        let ckpt = sample();
        let payload = ckpt.encode_segmented();
        let commit = CommitRecord::for_payload(ckpt.epoch, 3, &payload).encode();
        match classify_slot(&payload, &commit) {
            SlotState::Committed { seq, ckpt: back } => {
                assert_eq!(seq, 3);
                assert_eq!(*back, ckpt);
            }
            other => panic!("expected committed, got {other:?}"),
        }
        assert_eq!(classify_slot(&[], &[]), SlotState::Empty);
        // Torn payload under an intact commit.
        let mut torn = payload.clone();
        torn[payload.len() / 2] ^= 0xff;
        assert_eq!(classify_slot(&torn, &commit), SlotState::Torn);
        // Truncated payload (crash before the tail drained).
        assert_eq!(
            classify_slot(&payload[..payload.len() - 1], &commit),
            SlotState::Torn
        );
        // Torn commit over an intact payload.
        let mut bad_commit = commit.clone();
        bad_commit[5] ^= 0x01;
        assert_eq!(classify_slot(&payload, &bad_commit), SlotState::Torn);
        // Stale commit from an earlier epoch over a fresh payload.
        let stale = CommitRecord::for_payload(ckpt.epoch, 1, b"old image").encode();
        assert_eq!(classify_slot(&payload, &stale), SlotState::Torn);
    }

    #[test]
    fn classify_is_total_over_every_truncation() {
        let ckpt = sample();
        let payload = ckpt.encode_segmented();
        let commit = CommitRecord::for_payload(ckpt.epoch, 9, &payload).encode();
        for cut in 0..payload.len() {
            let state = classify_slot(&payload[..cut], &commit);
            assert!(
                matches!(state, SlotState::Torn),
                "payload cut at {cut}: {state:?}"
            );
        }
        for cut in 0..commit.len() {
            let state = classify_slot(&payload, &commit[..cut]);
            assert!(
                matches!(state, SlotState::Torn),
                "commit cut at {cut}: {state:?}"
            );
        }
    }

    proptest! {
        /// The one-walk image and hash are the two-pass ones, byte for
        /// byte, at every length around a segment boundary.
        #[test]
        fn one_walk_image_equals_two_pass(
            shape in 0usize..8,
            k in 1usize..6,
            epoch in any::<u32>(),
            bytes in prop::collection::vec(any::<u8>(), 5 * SEGMENT_BYTES + 1),
        ) {
            let len = match shape {
                0 => 0,
                1 => 1,
                2 => SEGMENT_BYTES - 1,
                3 => SEGMENT_BYTES,
                4 => SEGMENT_BYTES + 1,
                5 => k * SEGMENT_BYTES - 1,
                6 => k * SEGMENT_BYTES,
                _ => k * SEGMENT_BYTES + 1,
            };
            let inner = &bytes[..len];
            let (image, hash) = segment_hashed(epoch, inner);
            prop_assert_eq!(&image, &segment(epoch, inner));
            prop_assert_eq!(hash, CommitRecord::for_payload(epoch, 1, &image).payload_fnv);
        }
    }

    #[test]
    fn slot_layout_alternates() {
        assert_eq!(slot_for_seq(2), 0);
        assert_eq!(slot_for_seq(3), 1);
        // Even-cadence epochs must still alternate: consecutive
        // persists land in different slots.
        assert_ne!(slot_for_seq(1), slot_for_seq(2));
        assert_eq!(payload_region(0), 0);
        assert_eq!(commit_region(0), 1);
        assert_eq!(payload_region(1), 2);
        assert_eq!(commit_region(1), 3);
        assert_eq!(SLOT_REGIONS, 4);
    }

    #[test]
    fn multi_segment_images_split_and_rejoin() {
        // The sample's two full page images push the inner encoding
        // past one segment.
        let ckpt = sample();
        let inner = ckpt.encode().len();
        assert!(inner > SEGMENT_BYTES, "sample must span segments");
        let image = ckpt.encode_segmented();
        let segs = inner.div_ceil(SEGMENT_BYTES);
        assert_eq!(image.len(), 16 + inner + segs * 12);
        assert_eq!(Checkpoint::decode_segmented(&image).unwrap(), ckpt);
    }
}

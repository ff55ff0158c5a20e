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
//! Checkpoints have a deterministic byte encoding (`RCK1`) — so their
//! size can be accounted and a digest pinned — and a
//! [`Checkpoint::digest`] built from the same FNV-1a the consistency
//! oracle uses.
//!
//! # One encoder
//!
//! One function writes the `RCK1` body, from a borrowed view of the
//! state, into one of three sinks: a length counter, a `Vec`, or the
//! segmenting writer that lays the persistence image down as the body
//! streams in. A [`Checkpoint`] runs it over its own fields; the
//! engine runs it over a node's live state, so a checkpoint without
//! persistence is only measured, and a persisted one copies each page
//! once, straight into its image.
//!
//! # Durable two-slot commit protocol
//!
//! When persistence is on (see
//! [`PersistConfig`](rsdsm_simnet::PersistConfig)), checkpoints are
//! written to a modeled persistent device through a detectably
//! recoverable A/B protocol, so a crash at *any* instant — including
//! mid-persist — leaves the device classifiable:
//!
//! 1. The `RCK1` bytes are laid out as a *segmented image*
//!    ([`Checkpoint::encode_segmented`], magic `RSG2`): a header plus
//!    fixed-size segments, each carrying its length and check, so a
//!    torn sector anywhere in the payload is caught by a per-segment
//!    check rather than only at the end.
//! 2. The image is written to the persist's slot ([`slot_for_seq`]:
//!    consecutive persists alternate slots), flushed, and fenced.
//! 3. Only then is a fixed-size [`CommitRecord`] (magic `RCM2`) —
//!    epoch, a monotonic persist sequence number, and the image's
//!    length and check — written to the slot's commit region, flushed,
//!    and fenced.
//!
//! [`classify_slot`] reads a (payload, commit) region pair back and
//! returns [`SlotState`]: `Committed` only when the commit record is
//! intact *and* the image it names checks out; any mix of old and new
//! bytes — a torn payload under a stale commit, a torn commit over a
//! fresh payload — classifies as `Torn` and recovery falls back to
//! the other slot.
//!
//! Every check on the device — segment frames, the commit's image hash
//! and its self-check — is the word-at-a-time [`check`], not byte
//! FNV-1a, whose one dependent multiply per byte would bound every
//! persist.
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
//! assert_eq!(ckpt.encoded_len(), bytes.len());
//! let back = Checkpoint::decode(&bytes).unwrap();
//! assert_eq!(back, ckpt);
//! assert_eq!(back.digest(), ckpt.digest());
//! ```

use std::sync::Arc;

use rsdsm_protocol::{Diff, Page, PageId, VectorClock, PAGE_SIZE};
use rsdsm_simnet::{fnv1a, fnv1a_extend, FNV_OFFSET, FNV_PRIME};

use crate::msg::{IntervalRecord, LockId};
use crate::node::NodeState;

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
const SEG_MAGIC: u32 = 0x5253_4732; // "RSG2"
const COMMIT_MAGIC: u32 = 0x5243_4d32; // "RCM2"

/// Payload bytes per segment of the segmented image.
const SEGMENT_BYTES: usize = 4096;

/// The segmented image's header: magic, epoch, segment count, body
/// length.
const HEADER_BYTES: usize = 16;

/// The frame ahead of each segment: its length and its check.
const FRAME_BYTES: usize = 12;

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

/// Segments of the image of an `inner_len`-byte body.
fn segments(inner_len: usize) -> usize {
    inner_len.div_ceil(SEGMENT_BYTES).max(1)
}

/// Independent multiply chains of [`check`]. A step's chain is five
/// cycles long, so eight of them keep one multiplier busy; four leave
/// it idle a fifth of the time (64 pages: 14.4 µs with four lanes,
/// 12.4 µs with eight, on a 2-vCPU Xeon VM).
const LANES: usize = 8;

/// The device check of `bytes`. FNV-1a's offset basis and prime over
/// little-endian `u64` words in [`LANES`] interleaved lanes, folded at
/// the end, with a tail of fewer than `8 × LANES` bytes taken bytewise:
/// one dependent multiply per word per lane where byte FNV-1a takes one
/// per byte. Each step also rotates. A multiply carries only upward,
/// so without it a difference confined to a word's top bits would
/// never reach the low ones, and two sign flips of `f64`s one lane
/// apart would cancel. Every step is a bijection of the running state,
/// so a change confined to one word is always caught.
fn check(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV_PRIME).rotate_left(29);
    let mut lanes = [FNV_OFFSET; LANES];
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(
                *lane,
                u64::from_le_bytes(word.try_into().expect("8-byte word")),
            );
        }
    }
    fnv1a_extend(lanes.into_iter().fold(FNV_OFFSET, step), blocks.remainder())
}

/// Where the encoder's bytes go.
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    fn clock(&mut self, vc: &VectorClock) {
        self.u32(vc.len() as u32);
        for p in 0..vc.len() {
            self.u32(vc.get(p));
        }
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts what it is given: a checkpoint measured, not built.
struct Len(usize);

impl Sink for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Lays the segmented image down as the body streams in: the header
/// first, then a frame ahead of every [`SEGMENT_BYTES`] of body,
/// filled in with the segment's length and check once it is complete.
struct Segmenter {
    out: Vec<u8>,
    /// Where the open segment's frame starts.
    frame: usize,
}

impl Segmenter {
    /// A writer for the image of an `inner_len`-byte body taken at
    /// `epoch`, sized for all of it.
    fn new(epoch: u32, inner_len: usize) -> Self {
        let segs = segments(inner_len);
        let mut out = Vec::with_capacity(HEADER_BYTES + inner_len + FRAME_BYTES * segs);
        for v in [SEG_MAGIC, epoch, segs as u32, inner_len as u32] {
            out.u32(v);
        }
        let mut writer = Segmenter { out, frame: 0 };
        writer.open();
        writer
    }

    fn open(&mut self) {
        self.frame = self.out.len();
        self.out.extend_from_slice(&[0; FRAME_BYTES]);
    }

    /// Fills in the open segment's frame.
    fn close(&mut self) {
        let body = self.frame + FRAME_BYTES;
        let len = (self.out.len() - body) as u32;
        let sum = check(&self.out[body..]);
        self.out[self.frame..self.frame + 4].copy_from_slice(&len.to_le_bytes());
        self.out[self.frame + 4..body].copy_from_slice(&sum.to_le_bytes());
    }

    fn finish(mut self) -> Vec<u8> {
        self.close();
        self.out
    }
}

impl Sink for Segmenter {
    fn put(&mut self, mut bytes: &[u8]) {
        loop {
            let room = SEGMENT_BYTES - (self.out.len() - self.frame - FRAME_BYTES);
            let (now, rest) = bytes.split_at(room.min(bytes.len()));
            self.out.extend_from_slice(now);
            if rest.is_empty() {
                return;
            }
            self.close();
            self.open();
            bytes = rest;
        }
    }
}

/// `(index, valid, contents)` of one page image.
type PagePart<'a> = (u32, bool, &'a [u8]);

/// `(page, seq, diff)` of one diff record.
type DiffPart<'a> = (u32, u32, &'a Diff);

/// A checkpoint's contents, borrowed from wherever they live — a
/// [`Checkpoint`]'s own fields or a node's live state — each list in
/// the order the `RCK1` body gives it. `pages` and `diffs` are walked
/// twice (once to count them), so cloning them must be cheap.
struct Parts<'a, P, D> {
    node: u32,
    epoch: u32,
    vc: &'a VectorClock,
    /// Ascending by index.
    pages: P,
    /// Ascending by `(page, seq)`.
    diffs: D,
    intervals: &'a [Arc<IntervalRecord>],
    /// Ascending.
    tokens: &'a [LockId],
}

impl<'a, P, D> Parts<'a, P, D>
where
    P: Iterator<Item = PagePart<'a>> + Clone,
    D: Iterator<Item = DiffPart<'a>> + Clone,
{
    /// Writes the `RCK1` body: the one encoder.
    fn write(&self, out: &mut impl Sink) {
        out.u32(MAGIC);
        out.u32(self.node);
        out.u32(self.epoch);
        out.clock(self.vc);
        out.u32(self.pages.clone().count() as u32);
        for (index, valid, bytes) in self.pages.clone() {
            out.u32(index);
            out.put(&[valid as u8]);
            out.put(bytes);
        }
        out.u32(self.diffs.clone().count() as u32);
        for (page, seq, diff) in self.diffs.clone() {
            out.u32(page);
            out.u32(seq);
            out.u32(diff.run_count() as u32);
            for (offset, bytes) in diff.runs() {
                out.u32(offset as u32);
                out.u32(bytes.len() as u32);
                out.put(bytes);
            }
        }
        out.u32(self.intervals.len() as u32);
        for iv in self.intervals {
            out.u32(iv.origin as u32);
            out.clock(&iv.stamp);
            out.u32(iv.pages.len() as u32);
            for page in &iv.pages {
                out.u32(page.index() as u32);
            }
        }
        out.u32(self.tokens.len() as u32);
        for t in self.tokens {
            out.u32(t.0);
        }
    }

    /// Length of the body, counted without writing it.
    fn len(&self) -> usize {
        let mut len = Len(0);
        self.write(&mut len);
        len.0
    }

    /// The body written straight into its segmented image.
    fn segmented(&self) -> Vec<u8> {
        let inner_len = self.len();
        let mut image = Segmenter::new(self.epoch, inner_len);
        self.write(&mut image);
        let image = image.finish();
        debug_assert_eq!(
            image.len(),
            HEADER_BYTES + inner_len + FRAME_BYTES * segments(inner_len)
        );
        image
    }
}

/// Node state's checkpoint at a barrier, read where it lives: nothing
/// is copied until a sink asks for bytes.
pub(crate) struct NodeCheckpoint<'a> {
    node: u32,
    epoch: u32,
    state: &'a NodeState,
    /// The tokens the node holds, ascending.
    tokens: Vec<LockId>,
}

impl<'a> NodeCheckpoint<'a> {
    /// `state`'s checkpoint as node `node` at barrier epoch `epoch`.
    ///
    /// Must be taken at a barrier release point: all local intervals
    /// are closed there, so no twins exist and the page images are
    /// exactly the post-merge state.
    pub(crate) fn new(node: u32, epoch: u32, state: &'a NodeState) -> Self {
        debug_assert!(
            state.mem.pages.iter().all(|e| e.twin.is_none()),
            "open interval at a barrier checkpoint"
        );
        let mut tokens: Vec<LockId> = state.locks.held_tokens().collect();
        tokens.sort_unstable();
        NodeCheckpoint {
            node,
            epoch,
            state,
            tokens,
        }
    }

    /// The node's own diffs, in no particular order.
    fn diffs(&self) -> impl Iterator<Item = DiffPart<'a>> + Clone {
        let own = &self.state.own_diffs;
        own.iter()
            .map(|(&(page, seq), diff)| (page as u32, seq, &**diff))
    }

    /// The checkpoint's parts, its diffs given as `diffs`.
    fn parts<D: Iterator<Item = DiffPart<'a>> + Clone>(
        &self,
        diffs: D,
    ) -> Parts<'_, impl Iterator<Item = PagePart<'_>> + Clone, D> {
        Parts {
            node: self.node,
            epoch: self.epoch,
            vc: self.state.vc(),
            pages: self
                .state
                .mem
                .pages
                .iter()
                .enumerate()
                .filter(|(_, e)| e.ever_valid)
                .map(|(i, e)| (i as u32, e.valid, e.data.bytes())),
            diffs,
            intervals: self.state.interval_log().records(),
            tokens: &self.tokens,
        }
    }

    /// Pages the checkpoint holds: every page the node ever held a
    /// valid copy of.
    pub(crate) fn pages(&self) -> usize {
        self.state.mem.pages.iter().filter(|e| e.ever_valid).count()
    }

    /// Length of the `RCK1` body, counted without writing it. Order
    /// does not change a length, so the diffs are counted unsorted.
    pub(crate) fn len(&self) -> usize {
        self.parts(self.diffs()).len()
    }

    /// The segmented persistence image, as
    /// [`Checkpoint::encode_segmented`] lays it out.
    pub(crate) fn segmented(&self) -> Vec<u8> {
        let mut diffs: Vec<DiffPart<'a>> = self.diffs().collect();
        diffs.sort_unstable_by_key(|&(page, seq, _)| (page, seq));
        let parts = self.parts(diffs.iter().copied());
        parts.segmented()
    }
}

impl Checkpoint {
    fn parts(
        &self,
    ) -> Parts<
        '_,
        impl Iterator<Item = PagePart<'_>> + Clone,
        impl Iterator<Item = DiffPart<'_>> + Clone,
    > {
        Parts {
            node: self.node,
            epoch: self.epoch,
            vc: &self.vc,
            pages: self
                .pages
                .iter()
                .map(|p| (p.index, p.valid, p.data.bytes())),
            diffs: self.diffs.iter().map(|d| (d.page, d.seq, &d.diff)),
            intervals: &self.intervals,
            tokens: &self.tokens,
        }
    }

    /// Serializes the checkpoint to its deterministic little-endian
    /// byte format.
    pub fn encode(&self) -> Vec<u8> {
        let parts = self.parts();
        let mut out = Vec::with_capacity(parts.len());
        parts.write(&mut out);
        out
    }

    /// Length of [`Checkpoint::encode`]'s bytes, counted without
    /// building them.
    pub fn encoded_len(&self) -> usize {
        self.parts().len()
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
            // Each run is at least its 8 header bytes: a count the rest
            // of the image cannot hold is corrupt, and is never a
            // buffer size.
            let runs = c.u32()? as usize;
            if runs > c.remaining() / 8 {
                return Err(CheckpointError::Corrupt("more diff runs than bytes"));
            }
            let mut collected = Vec::with_capacity(runs);
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

    /// The segmented persistence image of the `RCK1` bytes: a header
    /// (magic, epoch, segment count, body length) followed by
    /// up-to-4 KB segments, each framed with its length and check.
    pub fn encode_segmented(&self) -> Vec<u8> {
        self.parts().segmented()
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
        if segs == 0 || segs > segments(total) {
            return Err(CheckpointError::Corrupt("implausible segment count"));
        }
        let mut inner = Vec::with_capacity(total.min(bytes.len()));
        for _ in 0..segs {
            let len = c.u32()? as usize;
            if len > SEGMENT_BYTES {
                return Err(CheckpointError::Corrupt("oversized segment"));
            }
            let sum = c.u64()?;
            let chunk = c.take(len)?;
            if check(chunk) != sum {
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
    /// The device check of those bytes (word-wise, not FNV-1a).
    pub payload_check: u64,
}

impl CommitRecord {
    /// Builds the record committing `payload` (a segmented image) at
    /// `epoch` with persist sequence `seq`.
    pub fn for_payload(epoch: u32, seq: u64, payload: &[u8]) -> Self {
        CommitRecord {
            epoch,
            seq,
            payload_len: payload.len() as u32,
            payload_check: check(payload),
        }
    }

    /// Serializes to the fixed `COMMIT_LEN`-byte format, ending in
    /// a self-check over the preceding fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(COMMIT_LEN);
        out.u32(COMMIT_MAGIC);
        out.u32(self.epoch);
        out.u64(self.seq);
        out.u32(self.payload_len);
        out.u64(self.payload_check);
        out.u64(check(&out));
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
        let payload_check = c.u64().ok()?;
        if c.u64().ok()? != check(&bytes[..COMMIT_LEN - 8]) {
            return None;
        }
        Some(CommitRecord {
            epoch,
            seq,
            payload_len,
            payload_check,
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
    if len > payload.len() || check(&payload[..len]) != rec.payload_check {
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

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

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

    /// Two sign flips of `f64`s one lane apart (32 bytes) change only
    /// bit 63 of two words; a word-wise FNV-1a without the rotate
    /// carries bit 63 unchanged through its multiply, and they cancel.
    #[test]
    fn check_catches_what_a_plain_word_fnv_cancels() {
        let words: Vec<u8> = (0..64u64).flat_map(|w| (w as f64).to_le_bytes()).collect();
        let mut flipped = words.clone();
        for at in [7, 8 * LANES + 7] {
            flipped[at] ^= 0x80;
        }
        let plain = |bytes: &[u8]| {
            bytes.chunks_exact(8).fold(FNV_OFFSET, |h, w| {
                (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(FNV_PRIME)
            })
        };
        let lane = |bytes: &[u8]| {
            plain(
                &bytes
                    .chunks_exact(8)
                    .step_by(LANES)
                    .flatten()
                    .copied()
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(lane(&words), lane(&flipped), "the plain lane cancels");
        assert_ne!(check(&words), check(&flipped));
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

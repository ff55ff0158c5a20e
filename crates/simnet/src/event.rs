//! Time-ordered event queue.
//!
//! The heart of the discrete-event simulator: a priority queue of
//! `(time, payload)` pairs ordered by time, with insertion order as a
//! deterministic tie-breaker so runs are reproducible regardless of
//! payload type.
//!
//! Two implementations share the same contract:
//!
//! * [`EventQueue`] — the default engine queue, a hierarchical timing
//!   wheel with a calendar (sorted-map) overflow for far-future
//!   events. Push and pop are O(1) amortized: an event is routed to a
//!   wheel slot by the highest bit-group in which its deadline
//!   differs from the queue's cursor, cascades toward level 0 as the
//!   cursor advances (at most once per level), and slot storage is
//!   recycled through an internal arena so steady-state operation
//!   allocates nothing. A slot is one `Vec` header (24 bytes) and
//!   nothing inline, so the wheel's own footprint — 8 576 slots,
//!   ≈ 0.2 MB — is independent of the payload type.
//! * [`HeapQueue`] — the original `BinaryHeap` implementation, kept
//!   as the differential reference. The equivalence suite drives both
//!   with identical schedules and demands identical pop sequences.
//!
//! # Examples
//!
//! ```
//! use rsdsm_simnet::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_nanos(20), "later");
//! q.push(SimTime::from_nanos(10), "sooner");
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "sooner")));
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "later")));
//! assert_eq!(q.pop(), None);
//! ```

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use crate::time::SimTime;

/// Which [`EventQueue`]-contract implementation an engine should use.
///
/// The wheel is the default; the heap is the differential reference
/// (selected per run through the engine's `with_queue_backend`). Both
/// are pop-for-pop identical by construction and by test, so this
/// choice can never affect simulation results — only wall-clock
/// throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Hierarchical timing wheel ([`EventQueue`]).
    #[default]
    Wheel,
    /// Binary-heap reference ([`HeapQueue`]).
    Heap,
}

impl QueueBackend {
    /// Short label for bench/CI output.
    pub fn label(self) -> &'static str {
        match self {
            QueueBackend::Wheel => "wheel",
            QueueBackend::Heap => "heap",
        }
    }
}

// ---------------------------------------------------------------------
// Timing wheel
// ---------------------------------------------------------------------

/// Granularity of the wheel: a level-0 slot spans one *coarse tick*
/// of `2^BOTTOM_BITS` ns (≈ 2 µs), not a single nanosecond. Events
/// inside one coarse tick are delivered as a batch, sorted by exact
/// `(time, seq)` — the simulated ATM network's deltas are tens of
/// microseconds and up, so a coarse bottom removes the cascade
/// levels a 1 ns tick would force on every event while never holding
/// more than a handful of events per tick.
const BOTTOM_BITS: u32 = 11;
/// Bits of the wide bottom level. 8192 slots of one coarse tick each
/// cover ≈ 16 ms past the cursor — sized so the engine's dominant
/// delta bands (message arrivals, tens of microseconds to ~2 ms, and
/// the ~4 ms retransmit timers) land at level 0 directly and never
/// cascade at all. Measured fastest among nearby `(BOTTOM, L0)`
/// geometries on the million-event replay.
const L0_BITS: u32 = 13;
/// Slots in the bottom level.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Words in the bottom level's occupancy bitmap.
const L0_WORDS: usize = L0_SLOTS / 64;
/// Bits per upper wheel level; each has `2^LEVEL_BITS` slots.
const LEVEL_BITS: u32 = 6;
/// Slots per upper level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of upper levels. Six 6-bit levels above the wide bottom
/// cover deadlines up to `2^57` ns (≈ 4.5 simulated years) past the
/// cursor; anything farther waits in the calendar overflow.
const UPPER_LEVELS: usize = 6;
/// Horizon of the wheel proper: deadlines within `WHEEL_HORIZON_NS`
/// of the cursor route to a wheel level; anything differing in a
/// higher bit overflows to the calendar. Public so the differential
/// suites can aim schedules at the boundary without baking in the
/// wheel's geometry.
pub const WHEEL_HORIZON_NS: u64 = 1 << (BOTTOM_BITS + L0_BITS + LEVEL_BITS * UPPER_LEVELS as u32);
const WHEEL_MASK: u64 = WHEEL_HORIZON_NS - 1;
/// Every digit boundary of the wheel's radix structure, smallest
/// first, ending at the calendar horizon: the coarse tick, the wide
/// bottom level, and each upper level. Public for the same reason as
/// [`WHEEL_HORIZON_NS`] — the fuzz suite aims schedules at each seam.
pub const WHEEL_TIER_BOUNDARIES_NS: [u64; 8] = [
    1 << BOTTOM_BITS,
    1 << (BOTTOM_BITS + L0_BITS),
    1 << (BOTTOM_BITS + L0_BITS + LEVEL_BITS),
    1 << (BOTTOM_BITS + L0_BITS + 2 * LEVEL_BITS),
    1 << (BOTTOM_BITS + L0_BITS + 3 * LEVEL_BITS),
    1 << (BOTTOM_BITS + L0_BITS + 4 * LEVEL_BITS),
    1 << (BOTTOM_BITS + L0_BITS + 5 * LEVEL_BITS),
    WHEEL_HORIZON_NS,
];

/// One scheduled event inside the wheel.
#[derive(Debug)]
struct Entry<T> {
    time: u64,
    /// Insertion sequence number: the FIFO tie-break.
    seq: u64,
    payload: T,
}

/// One wheel slot: the events routed to it, in arbitrary order — pop
/// order is established by the drain-time sort (level 0) or by
/// re-placement (upper levels). An empty slot holds no allocation;
/// the first push into one draws a vector from its level's arena, and
/// draining it hands the vector back. Nothing is inline: a slot is a
/// 24-byte header whatever the payload, so the slot array is
/// ≈ 0.2 MB for every `T` (see `a_slot_is_one_vec_header`).
type Bucket<T> = Vec<Entry<T>>;

/// A deterministic min-priority queue of timestamped events, backed
/// by a hierarchical timing wheel.
///
/// Events with equal timestamps pop in insertion order (FIFO), which
/// keeps multi-component simulations reproducible. The FIFO guarantee
/// is structural: every event carries a monotone insertion sequence
/// number, a level-0 slot holds exactly one coarse tick
/// (`2^BOTTOM_BITS` ns), and a drained tick is sorted by exact
/// `(time, seq)` before delivery (direct pushes and entries cascaded
/// from outer levels meet in slot vectors out of order, so the sort
/// is load-bearing).
///
/// # Structure
///
/// * `ready` — events at or before the cursor, in final pop order.
/// * `slots` — a wide bottom level of `L0_SLOTS` one-tick buckets,
///   then `UPPER_LEVELS` levels of `SLOTS` buckets. An event
///   lands at the level of the highest digit in which its deadline's
///   coarse tick differs from the cursor's, in the bucket indexed by
///   the deadline's digit there. Advancing the cursor into a bucket
///   drains it: level-0 buckets (single coarse ticks) sort and feed
///   `ready`, upper buckets redistribute into inner levels (each
///   event cascades at most `UPPER_LEVELS` times total, and the
///   dominant near-term band lands at level 0 with no cascades).
/// * `overflow` — a `BTreeMap` calendar for deadlines beyond the
///   wheel's [`WHEEL_HORIZON_NS`] (lease expiries, partition heals).
///   When the wheel drains completely, the next calendar epoch is
///   migrated in one batch.
/// * `spare` — arenas of drained slot vectors, one per level, so
///   steady-state push/pop cycles allocate nothing. A level's drained
///   vectors serve that level's next pushes: the bottom level's hold
///   a tick's handful of events, while an upper bucket can collect a
///   large share of the population (far-future leases) — handed to
///   the bottom level, its buffer would leave the next upper bucket
///   to grow from scratch. The arenas are uncapped: every vector is
///   in an occupied slot, in `ready` or in an arena, so an arena
///   never holds more than its level's peak of occupied slots (+1),
///   and a cap below that would free and re-allocate vectors on every
///   swing of it.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Time floor: no pending event is earlier than `cursor` except
    /// those already ordered in `ready`.
    cursor: u64,
    len: usize,
    next_seq: u64,
    /// Occupancy bitmap of the wide bottom level.
    occupied0: [u64; L0_WORDS],
    /// Per-upper-level bitmap of non-empty buckets.
    occupied: [u64; UPPER_LEVELS],
    /// `L0_SLOTS` bottom buckets, then `UPPER_LEVELS * SLOTS` upper
    /// buckets level-major.
    slots: Vec<Bucket<T>>,
    /// Events at or before the cursor, sorted *descending* by
    /// `(time, seq)` so the next event to pop sits at the back —
    /// popping is a bare `Vec::pop`, and a drained tick batch swaps
    /// in wholesale without copying.
    ready: Vec<Entry<T>>,
    /// Far-future calendar, keyed by `(time, seq)`.
    overflow: BTreeMap<(u64, u64), T>,
    /// Recycled bucket storage: the bottom level's, then each upper
    /// level's.
    spare: [Vec<Bucket<T>>; 1 + UPPER_LEVELS],
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            cursor: 0,
            len: 0,
            next_seq: 0,
            occupied0: [0; L0_WORDS],
            occupied: [0; UPPER_LEVELS],
            slots: std::iter::repeat_with(Vec::new)
                .take(L0_SLOTS + UPPER_LEVELS * SLOTS)
                .collect(),
            ready: Vec::new(),
            overflow: BTreeMap::new(),
            spare: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Creates an empty queue sized for `capacity` near-term events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = EventQueue::new();
        q.ready.reserve(capacity);
        q
    }

    /// Reserves room for at least `additional` more near-term events.
    pub fn reserve(&mut self, additional: usize) {
        self.ready.reserve(additional);
    }

    /// Schedules `payload` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let t = time.as_nanos();
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.len == 0 {
            // An empty queue has no ordering constraints: re-anchor
            // the cursor so the event lands in `ready` directly and a
            // long idle gap does not force a pointless overflow trip.
            self.cursor = t;
        }
        self.len += 1;
        self.place(t, seq, payload);
    }

    /// Schedules every `(time, payload)` pair, reserving near-term
    /// space up front so a known burst of events costs at most one
    /// regrowth. Pairs are assigned sequence numbers in iteration
    /// order, so same-time events still pop FIFO.
    pub fn push_batch<I: IntoIterator<Item = (SimTime, T)>>(&mut self, events: I) {
        let iter = events.into_iter();
        self.reserve(iter.size_hint().0);
        for (t, p) in iter {
            self.push(t, p);
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        loop {
            if let Some(e) = self.ready.pop() {
                self.len -= 1;
                return Some((SimTime::from_nanos(e.time), e.payload));
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// The timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.ready.last() {
            return Some(SimTime::from_nanos(e.time));
        }
        if self.len == 0 {
            return None;
        }
        let first_word = ((self.cursor >> BOTTOM_BITS) as usize & (L0_SLOTS - 1)) >> 6;
        let earliest_bucket = self
            .occupied0
            .iter()
            .enumerate()
            .skip(first_word)
            .find(|(_, &bits)| bits != 0)
            .map(|(w, &bits)| (w << 6) | bits.trailing_zeros() as usize)
            .or_else(|| {
                (0..UPPER_LEVELS)
                    .find(|&l| self.occupied[l] != 0)
                    .map(|l| L0_SLOTS + l * SLOTS + self.occupied[l].trailing_zeros() as usize)
            });
        if let Some(idx) = earliest_bucket {
            let min = self.slots[idx]
                .iter()
                .map(|e| e.time)
                .min()
                .expect("occupied bucket is non-empty");
            return Some(SimTime::from_nanos(min));
        }
        self.overflow
            .keys()
            .next()
            .map(|&(t, _)| SimTime::from_nanos(t))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        for bucket in &mut self.slots {
            bucket.clear();
        }
        self.occupied0 = [0; L0_WORDS];
        self.occupied = [0; UPPER_LEVELS];
        self.ready.clear();
        self.overflow.clear();
        self.len = 0;
    }

    /// Routes one event to `ready`, a wheel bucket, or the calendar.
    ///
    /// Invariants relied on and preserved:
    /// * events at or before the cursor — or inside the cursor's
    ///   coarse tick — belong in `ready`, inserted at their
    ///   `(time, seq)` rank (a fresh push at an already-seen time has
    ///   the largest seq at that time, so FIFO holds);
    /// * a wheel event's coarse tick is strictly after the cursor's,
    ///   and its bucket index at its level is strictly above the
    ///   cursor's digit there, so "lowest occupied level, lowest
    ///   occupied bucket" is always the wheel's global minimum.
    fn place(&mut self, t: u64, seq: u64, payload: T) {
        // Wheel routing happens on coarse ticks; `ready` absorbs
        // everything at or before the cursor AND everything sharing
        // the cursor's coarse tick (that tick's bucket has already
        // been drained, or never existed).
        let coarse = t >> BOTTOM_BITS;
        let diff = coarse ^ (self.cursor >> BOTTOM_BITS);
        if t <= self.cursor || diff == 0 {
            // `ready` is sorted descending; the next pop is `last()`.
            // Fast path: an event earlier than everything pending
            // (e.g. a zero-delay re-arm into an otherwise-drained
            // tick) appends at the back — no search, no shifting.
            match self.ready.last() {
                Some(last) if (t, seq) > (last.time, last.seq) => {
                    let at = self.ready.partition_point(|e| (e.time, e.seq) > (t, seq));
                    self.ready.insert(
                        at,
                        Entry {
                            time: t,
                            seq,
                            payload,
                        },
                    );
                }
                _ => self.ready.push(Entry {
                    time: t,
                    seq,
                    payload,
                }),
            }
            return;
        }
        let (idx, arena) = if diff < L0_SLOTS as u64 {
            // Agrees with the cursor above the bottom digit: the
            // dominant case, one bucket write and no cascades ever.
            let slot = (coarse & (L0_SLOTS as u64 - 1)) as usize;
            self.occupied0[slot >> 6] |= 1 << (slot & 63);
            (slot, 0)
        } else {
            let upper = diff >> L0_BITS;
            let level = ((63 - upper.leading_zeros()) / LEVEL_BITS) as usize;
            if level >= UPPER_LEVELS {
                self.overflow.insert((t, seq), payload);
                return;
            }
            let slot =
                ((coarse >> (L0_BITS + level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1)) as usize;
            self.occupied[level] |= 1 << slot;
            (L0_SLOTS + level * SLOTS + slot, 1 + level)
        };
        let bucket = &mut self.slots[idx];
        if bucket.capacity() == 0 {
            if let Some(recycled) = self.spare[arena].pop() {
                *bucket = recycled;
            }
        }
        bucket.push(Entry {
            time: t,
            seq,
            payload,
        });
    }

    /// Advances the cursor to the next pending deadline: drains the
    /// earliest occupied bucket (cascading outer levels inward), or
    /// migrates the next calendar epoch when the wheel is empty.
    fn advance(&mut self) {
        // The wide bottom level first: its lowest occupied slot is
        // the wheel's global minimum (every bottom entry's tick is
        // strictly after the cursor's, so the scan never wraps — and
        // words below the cursor's own digit are provably empty, so
        // the scan starts there).
        let first_word = ((self.cursor >> BOTTOM_BITS) as usize & (L0_SLOTS - 1)) >> 6;
        for w in first_word..L0_WORDS {
            let bits = self.occupied0[w];
            if bits != 0 {
                let slot = (w << 6) | bits.trailing_zeros() as usize;
                self.occupied0[w] = bits & (bits - 1);
                // The slot's vector leaves with its events and the
                // slot holds no allocation until its next push draws
                // one from the arena. (Recycling beats parking
                // capacity per slot: the arena's buffers were touched
                // a tick ago and are cache-hot, where a slot's own
                // buffer would go cold a full wheel revolution ago.)
                let mut drained = std::mem::take(&mut self.slots[slot]);
                // A level-0 bucket is one coarse tick; deliver it
                // whole. The sort is required twice over: the tick
                // spans `2^BOTTOM_BITS` distinct timestamps, and
                // cascaded entries can sit behind later direct pushes
                // with larger seqs. The cursor lands on the tick's
                // LAST nanosecond, so later pushes into this tick
                // take the `t <= cursor` path into `ready` and order
                // correctly among what was just delivered.
                let coarse = (self.cursor >> BOTTOM_BITS & !(L0_SLOTS as u64 - 1)) | slot as u64;
                self.cursor = (coarse << BOTTOM_BITS) | ((1 << BOTTOM_BITS) - 1);
                // `advance` only runs with `ready` empty (see `pop`),
                // so the sorted batch swaps in without copying and
                // the old `ready` allocation recycles via the arena.
                drained.sort_unstable_by_key(|e| {
                    std::cmp::Reverse(((e.time as u128) << 64) | e.seq as u128)
                });
                debug_assert!(self.ready.is_empty());
                std::mem::swap(&mut self.ready, &mut drained);
                self.recycle(0, drained);
                return;
            }
        }
        for level in 0..UPPER_LEVELS {
            if self.occupied[level] != 0 {
                let slot = self.occupied[level].trailing_zeros() as usize;
                self.occupied[level] &= !(1 << slot);
                let mut drained = std::mem::take(&mut self.slots[L0_SLOTS + level * SLOTS + slot]);
                // Step into the bucket's range and redistribute:
                // every entry now agrees with the cursor at this
                // level and above, so it re-places strictly below
                // `level` (or into `ready`, for entries in the
                // range's first coarse tick).
                let shift = level as u32 * LEVEL_BITS + L0_BITS + BOTTOM_BITS;
                let range_mask = (1u64 << shift) * SLOTS as u64 - 1;
                self.cursor = (self.cursor & !range_mask) | ((slot as u64) << shift);
                for e in drained.drain(..) {
                    self.place(e.time, e.seq, e.payload);
                }
                self.recycle(1 + level, drained);
                return;
            }
        }
        self.migrate_overflow();
    }

    /// Returns an emptied vector to `arena` (one that never held
    /// anything has no buffer worth keeping).
    fn recycle(&mut self, arena: usize, emptied: Bucket<T>) {
        debug_assert!(emptied.is_empty());
        if emptied.capacity() > 0 {
            self.spare[arena].push(emptied);
        }
    }

    /// Re-anchors the wheel at the calendar's first deadline and pulls
    /// in every event within one wheel horizon of it.
    fn migrate_overflow(&mut self) {
        let &(first, _) = self
            .overflow
            .keys()
            .next()
            .expect("advance called with events pending");
        self.cursor = first;
        let bound = (first | WHEEL_MASK).wrapping_add(1);
        let batch = if bound == 0 {
            // The epoch reaches the top of the u64 range: take it all.
            std::mem::take(&mut self.overflow)
        } else {
            let rest = self.overflow.split_off(&(bound, 0));
            std::mem::replace(&mut self.overflow, rest)
        };
        for ((t, seq), payload) in batch {
            self.place(t, seq, payload);
        }
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> Extend<(SimTime, T)> for EventQueue<T> {
    fn extend<I: IntoIterator<Item = (SimTime, T)>>(&mut self, iter: I) {
        self.push_batch(iter);
    }
}

// ---------------------------------------------------------------------
// Binary-heap reference
// ---------------------------------------------------------------------

/// A scheduled entry; ordering ignores the payload.
#[derive(Debug)]
struct Scheduled<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    /// Earliest time first; insertion sequence breaks ties.
    ///
    /// This impl is deliberately manual, NOT `#[derive(Ord)]`: the
    /// determinism contract is `(time, then seq)` and nothing else. A
    /// derive would silently couple pop order to struct field order —
    /// reordering `seq` above `time`, or letting `payload` into the
    /// comparison, would reshuffle every simulation. The unit tests
    /// `tie_break_is_insertion_seq_not_field_order` and
    /// `tie_break_ignores_payload` fail under any such derive.
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original `BinaryHeap`-backed queue, kept as the differential
/// reference for [`EventQueue`] (see `tests/wheel_equivalence.rs`,
/// and the engine-level `parallel_determinism` / `engine_soak`
/// suites, which run whole simulations on it).
///
/// Same contract as [`EventQueue`]: earliest time first, equal times
/// pop in insertion order.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
}

impl<T> HeapQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events before
    /// the backing heap regrows.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Reserves room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `payload` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
    }

    /// Schedules every `(time, payload)` pair; see
    /// [`EventQueue::push_batch`].
    pub fn push_batch<I: IntoIterator<Item = (SimTime, T)>>(&mut self, events: I) {
        let iter = events.into_iter();
        self.reserve(iter.size_hint().0);
        for (t, p) in iter {
            self.push(t, p);
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|s| (s.time, s.payload))
    }

    /// The timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

impl<T> Extend<(SimTime, T)> for HeapQueue<T> {
    fn extend<I: IntoIterator<Item = (SimTime, T)>>(&mut self, iter: I) {
        self.push_batch(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared-contract tests, instantiated for both implementations.
    macro_rules! contract_tests {
        ($modname:ident, $Q:ident) => {
            mod $modname {
                use super::*;

                #[test]
                fn pops_in_time_order() {
                    let mut q = $Q::new();
                    q.push(SimTime::from_nanos(5), 'b');
                    q.push(SimTime::from_nanos(1), 'a');
                    q.push(SimTime::from_nanos(9), 'c');
                    let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
                    assert_eq!(order, vec!['a', 'b', 'c']);
                }

                #[test]
                fn equal_times_pop_fifo() {
                    let mut q = $Q::new();
                    let t = SimTime::from_nanos(7);
                    for i in 0..10 {
                        q.push(t, i);
                    }
                    let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
                    assert_eq!(order, (0..10).collect::<Vec<_>>());
                }

                #[test]
                fn peek_does_not_remove() {
                    let mut q = $Q::new();
                    q.push(SimTime::from_nanos(3), ());
                    assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
                    assert_eq!(q.len(), 1);
                }

                #[test]
                fn len_and_clear() {
                    let mut q = $Q::new();
                    assert!(q.is_empty());
                    q.extend([(SimTime::from_nanos(1), 1), (SimTime::from_nanos(2), 2)]);
                    assert_eq!(q.len(), 2);
                    q.clear();
                    assert!(q.is_empty());
                    assert_eq!(q.pop(), None);
                }

                #[test]
                fn push_batch_preserves_fifo_and_reserves() {
                    let mut q = $Q::with_capacity(4);
                    let t = SimTime::from_nanos(7);
                    q.push_batch((0..100).map(|i| (t, i)));
                    q.push_batch([(SimTime::from_nanos(1), -1)]);
                    let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
                    assert_eq!(order[0], -1);
                    assert_eq!(order[1..], (0..100).collect::<Vec<_>>()[..]);
                }

                #[test]
                fn interleaved_push_pop_keeps_order() {
                    let mut q = $Q::new();
                    q.push(SimTime::from_nanos(10), 10);
                    q.push(SimTime::from_nanos(30), 30);
                    assert_eq!(q.pop().unwrap().1, 10);
                    q.push(SimTime::from_nanos(20), 20);
                    assert_eq!(q.pop().unwrap().1, 20);
                    assert_eq!(q.pop().unwrap().1, 30);
                }

                #[test]
                fn tie_break_ignores_payload() {
                    // Payloads in reverse alphabetical order: an Ord
                    // that peeked at the payload would pop 'a' first.
                    let mut q = $Q::new();
                    let t = SimTime::from_nanos(3);
                    for p in ['z', 'm', 'a'] {
                        q.push(t, p);
                    }
                    let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
                    assert_eq!(order, vec!['z', 'm', 'a']);
                }

                #[test]
                fn tie_break_is_insertion_seq_not_field_order() {
                    // The first push gets the *later* time: seq order
                    // (first, second) opposes time order (second,
                    // first). A comparison keyed on seq before time —
                    // what a derived Ord yields the moment the struct
                    // fields are reordered — pops "first" first.
                    let mut q = $Q::new();
                    q.push(SimTime::from_nanos(50), "first");
                    q.push(SimTime::from_nanos(10), "second");
                    assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "second")));
                    assert_eq!(q.pop(), Some((SimTime::from_nanos(50), "first")));
                }
            }
        };
    }

    contract_tests!(wheel, EventQueue);
    contract_tests!(heap, HeapQueue);

    /// Pin the reference comparator itself: `(time, then seq)`,
    /// reversed for the max-heap, payload never consulted. This is
    /// the test that fails under `#[derive(Ord)]` with `seq` listed
    /// before `time` (derives compare in field order).
    #[test]
    fn scheduled_ord_is_reversed_time_then_seq() {
        let early_late_seq = Scheduled {
            time: SimTime::from_nanos(5),
            seq: 9,
            payload: 'z',
        };
        let late_early_seq = Scheduled {
            time: SimTime::from_nanos(7),
            seq: 1,
            payload: 'a',
        };
        // Earlier time ranks Greater (max-heap pops it first), even
        // though both its seq and its payload rank later.
        assert_eq!(early_late_seq.cmp(&late_early_seq), Ordering::Greater);

        let tie_a = Scheduled {
            time: SimTime::from_nanos(5),
            seq: 2,
            payload: 'q',
        };
        // Equal time: lower seq ranks Greater (pops first).
        assert_eq!(tie_a.cmp(&early_late_seq), Ordering::Greater);
        assert_eq!(early_late_seq.cmp(&tie_a), Ordering::Less);
    }

    // ----- wheel-specific structure tests -----

    #[test]
    fn far_future_events_take_the_calendar_and_come_back() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), 1u64);
        // Far beyond the wheel horizon from cursor 0.
        let far = WHEEL_HORIZON_NS * 2;
        q.push(SimTime::from_nanos(far), far);
        q.push(SimTime::from_nanos(far + 1), far + 1);
        assert_eq!(q.overflow.len(), 2, "distant deadlines overflow");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far), far)));
        assert_eq!(q.overflow.len(), 0, "migration drains the epoch");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far + 1), far + 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cascade_meets_direct_push_in_fifo_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), 0); // pins cursor near zero
        let t = SimTime::from_nanos(2048 << BOTTOM_BITS); // upper-level placement (seq 1)
        q.push(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        // The cursor still trails `t` by several coarse ticks; a
        // second push to the same instant (seq 2) joins the wheel
        // while seq 1 waits. Both cascade into the same level-0
        // coarse tick, and the drain-time `(time, seq)` sort must
        // deliver 1 before 2.
        q.push(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn push_into_the_past_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1_000), 'l');
        q.push(SimTime::from_nanos(2_000), 'm');
        assert_eq!(q.pop().unwrap().1, 'l');
        // The cursor sits at 1000 now; schedule before it.
        q.push(SimTime::from_nanos(500), 'e');
        assert_eq!(q.pop(), Some((SimTime::from_nanos(500), 'e')));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2_000), 'm')));
    }

    #[test]
    fn zero_time_and_zero_delay_scheduling() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        q.push(SimTime::ZERO, 1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        // Zero-delay self-send: re-arm at the time just popped.
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 1)));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slot_arena_recycles_buckets() {
        let mut q = EventQueue::new();
        for round in 0..4u64 {
            for i in 0..32u64 {
                q.push(SimTime::from_nanos(round * 10_000 + i * 100), i);
            }
            while q.pop().is_some() {}
        }
        let spare = |q: &EventQueue<u64>| q.spare.iter().map(Vec::len).sum::<usize>();
        assert!(spare(&q) > 0, "drained buckets return to the arena");
        assert!(
            q.slots.iter().all(|b| b.capacity() == 0),
            "an empty slot holds no buffer"
        );
        // Vectors circulate: the arenas hold what one round occupied
        // at most (its slots, plus the outgoing `ready`), and a second
        // identical round allocates no new ones.
        let circulating = spare(&q);
        assert!(circulating <= 32 + 1);
        for i in 0..32u64 {
            q.push(SimTime::from_nanos(90_000 + i * 100), i);
        }
        while q.pop().is_some() {}
        assert_eq!(spare(&q), circulating);
    }

    /// The claim in [`Bucket`]'s doc: a slot is one `Vec` header
    /// whatever the payload — the engine's 48-byte `Event` included —
    /// so the slot array is the same ≈ 0.2 MB for every queue.
    #[test]
    fn a_slot_is_one_vec_header() {
        use std::mem::size_of;
        assert_eq!(size_of::<Bucket<u64>>(), 24);
        assert_eq!(size_of::<Bucket<[u64; 6]>>(), 24);
        let q: EventQueue<[u64; 6]> = EventQueue::new();
        assert_eq!(q.slots.len(), 8_576);
        assert!(q.slots.len() * size_of::<Bucket<[u64; 6]>>() < 210_000);
    }

    #[test]
    fn peek_sees_through_every_layer() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(70), 'w'); // ready (anchors the cursor)
        let far = WHEEL_HORIZON_NS * 2;
        q.push(SimTime::from_nanos(far), 'o'); // calendar overflow
        assert_eq!(q.overflow.len(), 1, "distant deadline overflows");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(70)));
        q.push(SimTime::from_nanos(500_000), 'x'); // wheel proper
        assert_eq!(q.pop().unwrap().1, 'w');
        // 'x' waits in a wheel bucket; peek must scan the bitmaps.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(500_000)));
        assert_eq!(q.pop().unwrap().1, 'x');
        // Only the calendar remains.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(far)));
        assert_eq!(q.pop().unwrap().1, 'o');
        assert_eq!(q.pop(), None);
    }
}

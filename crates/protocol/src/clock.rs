//! Vector clocks and the happens-before-1 partial order.
//!
//! TreadMarks maintains lazy release consistency with a distributed
//! timestamp and interval-based algorithm: every processor keeps a
//! vector timestamp (one element per processor), increments its own
//! element at each interval boundary (synchronization release, or a
//! prefetch-induced interval split), and orders intervals by the
//! *happens-before-1* partial order of Adve & Hill, which for vector
//! timestamps is simply element-wise comparison.
//!
//! # Examples
//!
//! ```
//! use rsdsm_protocol::VectorClock;
//!
//! let mut a = VectorClock::new(4);
//! let mut b = VectorClock::new(4);
//! a.tick(0);
//! b.tick(1);
//! assert!(a.is_concurrent_with(&b));
//! b.join(&a);
//! assert!(b.dominates(&a));
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A per-processor vector timestamp.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct VectorClock {
    elems: Vec<u32>,
}

/// By hand for `clone_from`, which the derive leaves at "drop, then
/// clone": overwriting a clock with another of the cluster's reuses
/// its buffer.
impl Clone for VectorClock {
    #[inline]
    fn clone(&self) -> Self {
        VectorClock {
            elems: self.elems.clone(),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.elems.clone_from(&source.elems);
    }
}

/// The timestamp of a closed interval. It never changes once the
/// interval closes, so the interval's record and every notice,
/// request and payload naming the interval share one allocation.
pub type Stamp = Arc<VectorClock>;

impl VectorClock {
    /// A clock for `n` processors, all elements zero.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "vector clock needs at least one processor");
        VectorClock { elems: vec![0; n] }
    }

    /// Rebuilds a clock from its raw elements (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `elems` is empty.
    pub fn from_entries(elems: &[u32]) -> Self {
        assert!(
            !elems.is_empty(),
            "vector clock needs at least one processor"
        );
        VectorClock {
            elems: elems.to_vec(),
        }
    }

    /// Number of processors this clock covers.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Always false; a clock covers at least one processor.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The timestamp element for processor `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn get(&self, p: usize) -> u32 {
        self.elems[p]
    }

    /// Increments processor `p`'s element (starts a new interval for
    /// `p`) and returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn tick(&mut self, p: usize) -> u32 {
        self.elems[p] += 1;
        self.elems[p]
    }

    /// Element-wise maximum: after `self.join(other)`, `self`
    /// dominates both inputs. This is the lattice join performed at
    /// acquire time when write notices are received.
    ///
    /// # Panics
    ///
    /// Panics if the clocks cover different processor counts.
    pub fn join(&mut self, other: &VectorClock) {
        assert_eq!(self.len(), other.len(), "clock size mismatch");
        for (a, b) in self.elems.iter_mut().zip(&other.elems) {
            *a = (*a).max(*b);
        }
    }

    /// True when every element of `self` is `>=` the corresponding
    /// element of `other` — i.e. `other` happened before or equals
    /// `self` under happens-before-1.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        assert_eq!(self.len(), other.len(), "clock size mismatch");
        self.elems.iter().zip(&other.elems).all(|(a, b)| a >= b)
    }

    /// True when neither clock dominates the other (concurrent
    /// intervals, e.g. two writers under the multiple-writer protocol).
    pub fn is_concurrent_with(&self, other: &VectorClock) -> bool {
        !self.dominates(other) && !other.dominates(self)
    }

    /// Partial order under happens-before-1.
    ///
    /// Returns `None` for concurrent clocks.
    pub fn hb_cmp(&self, other: &VectorClock) -> Option<Ordering> {
        let ge = self.dominates(other);
        let le = other.dominates(self);
        match (ge, le) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Greater),
            (false, true) => Some(Ordering::Less),
            (false, false) => None,
        }
    }

    /// This clock's place in [`HbKey`]'s total order. Costs one pass
    /// over the elements: sort a list of stamps by keys taken once
    /// per stamp, not by comparing clocks pairwise.
    pub fn hb_key(&self) -> HbKey<'_> {
        HbKey {
            sum: self.elems.iter().map(|&e| u64::from(e)).sum(),
            elems: &self.elems,
        }
    }
}

/// Sort key of the one total order that extends happens-before-1:
/// component sum first (a strictly dominated clock has a strictly
/// smaller sum), then lexicographic — the derived ordering of the
/// fields below. Concurrent intervals' diffs touch disjoint bytes, so
/// applying diffs in any such order is correct; every consumer uses
/// this one, which keeps runs deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HbKey<'a> {
    sum: u64,
    elems: &'a [u32],
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_clocks_are_equal() {
        let a = VectorClock::new(3);
        let b = VectorClock::new(3);
        assert_eq!(a.hb_cmp(&b), Some(Ordering::Equal));
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffer() {
        let mut a = VectorClock::new(3);
        let b = VectorClock::from_entries(&[4, 0, 9]);
        let buffer = a.elems.as_ptr();
        a.clone_from(&b);
        assert_eq!(a, b);
        assert_eq!(a.elems.as_ptr(), buffer);
    }

    #[test]
    fn tick_advances_only_own_element() {
        let mut a = VectorClock::new(3);
        assert_eq!(a.tick(1), 1);
        assert_eq!(a.get(0), 0);
        assert_eq!(a.get(1), 1);
        assert_eq!(a.get(2), 0);
    }

    #[test]
    fn domination_after_tick() {
        let mut a = VectorClock::new(2);
        let b = a.clone();
        a.tick(0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert_eq!(a.hb_cmp(&b), Some(Ordering::Greater));
        assert_eq!(b.hb_cmp(&a), Some(Ordering::Less));
    }

    #[test]
    fn concurrent_ticks_are_incomparable() {
        let base = VectorClock::new(2);
        let mut a = base.clone();
        let mut b = base;
        a.tick(0);
        b.tick(1);
        assert!(a.is_concurrent_with(&b));
        assert_eq!(a.hb_cmp(&b), None);
    }

    #[test]
    fn join_is_least_upper_bound() {
        let mut a = VectorClock::new(3);
        let mut b = VectorClock::new(3);
        a.tick(0);
        a.tick(0);
        b.tick(2);
        let mut j = a.clone();
        j.join(&b);
        assert!(j.dominates(&a));
        assert!(j.dominates(&b));
        assert_eq!(j.get(0), 2);
        assert_eq!(j.get(1), 0);
        assert_eq!(j.get(2), 1);
    }

    #[test]
    fn hb_key_extends_the_partial_order() {
        let mut a = VectorClock::new(2); // <1,0>
        a.tick(0);
        let mut b = a.clone(); // <2,0>
        b.tick(0);
        let mut c = VectorClock::new(2); // <0,1>
        c.tick(1);
        assert!(a.hb_key() < b.hb_key(), "a happens before b");
        assert_eq!(a.hb_key(), a.clone().hb_key());
        // c is concurrent with both: equal sums fall back to the
        // lexicographic order, the same from either side.
        assert!(c.hb_key() < a.hb_key());
        assert!(c.hb_key() < b.hb_key());
        let mut sorted = [&b, &a, &c];
        sorted.sort_by_key(|vc| vc.hb_key());
        assert_eq!(sorted, [&c, &a, &b]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_sizes_panic() {
        let a = VectorClock::new(2);
        let b = VectorClock::new(3);
        a.dominates(&b);
    }

    #[test]
    fn display_is_compact() {
        let mut a = VectorClock::new(3);
        a.tick(1);
        assert_eq!(a.to_string(), "<0,1,0>");
    }
}

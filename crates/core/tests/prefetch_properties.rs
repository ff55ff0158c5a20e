//! Property-based tests of the adaptive-prefetch building blocks:
//! the windowed majority-trend detector and the feedback throttle
//! (see `core::prefetch`). These pin the *algebraic* guarantees the
//! engine relies on — majority independence from arrival order,
//! suppression really meaning no issue authority, planted strides
//! always surfacing — over randomized streams.

use proptest::prelude::*;
use rsdsm_core::{MissClass, StrideDetector, ThrottleChange, ThrottleController, TrendChange};

/// The stride alphabet the random cases draw from (selector-indexed:
/// the shim generates unsigned selectors, not signed ranges).
const STRIDES: [i64; 7] = [-17, -9, -3, -1, 1, 2, 7];

/// Turns a delta sequence into a fault-page stream starting high
/// enough that negative deltas never underflow.
fn pages_from(deltas: &[i64]) -> Vec<u64> {
    let mut at: i64 = 1 << 24;
    let mut pages = vec![at as u64];
    for d in deltas {
        at += d;
        pages.push(at as u64);
    }
    pages
}

/// Builds a full detector window holding a strict majority of
/// `stride` (`minority + 1` copies) plus `minority` noise deltas that
/// never collide with the majority value.
fn window_with_majority(stride: i64, minority: usize, noise: &[u8]) -> Vec<i64> {
    let mut w: Vec<i64> = std::iter::repeat_n(stride, minority + 1).collect();
    w.extend(noise.iter().take(minority).map(|&x| {
        let d = i64::from(x) - 50;
        if d == stride {
            d + 101
        } else {
            d
        }
    }));
    w
}

proptest! {
    /// The windowed majority is a multiset property: rotating the
    /// order in which the window's deltas arrive never changes the
    /// detected trend.
    #[test]
    fn trend_is_stable_under_window_rotation(
        stride_sel in 0usize..STRIDES.len(),
        minority in 2usize..=6,
        noise in prop::collection::vec(0u8..100, 6),
        rot in 0usize..16,
    ) {
        let stride = STRIDES[stride_sel];
        let window = window_with_majority(stride, minority, &noise);
        let rot = rot % window.len();
        let mut rotated = window.clone();
        rotated.rotate_left(rot);
        let mut reference = StrideDetector::new(window.len());
        for p in pages_from(&window) {
            reference.observe(p);
        }
        let mut shifted = StrideDetector::new(window.len());
        for p in pages_from(&rotated) {
            shifted.observe(p);
        }
        prop_assert_eq!(reference.trend(), Some(stride));
        prop_assert_eq!(shifted.trend(), reference.trend());
    }

    /// A planted stride stream is always detected, regardless of how
    /// much bounded leading noise precedes it: within two windows of
    /// strided faults the trend is the planted stride.
    #[test]
    fn planted_stride_is_detected(
        stride_sel in 0usize..STRIDES.len(),
        noise in prop::collection::vec(1u64..1_000_000, 0..6),
        window in 3usize..10,
    ) {
        let stride = STRIDES[stride_sel];
        let mut d = StrideDetector::new(window);
        for p in noise {
            d.observe(p);
        }
        let base: i64 = 1 << 30;
        let mut detected = false;
        for k in 0..=(2 * window) as i64 {
            let change = d.observe((base + stride * k) as u64);
            if let TrendChange::Detected(s) | TrendChange::Flipped(s) = change {
                prop_assert_eq!(s, stride, "only the planted stride can win the window");
                detected = true;
            }
        }
        prop_assert!(detected, "a pure stride stream must surface its stride");
        prop_assert_eq!(d.trend(), Some(stride));
    }

    /// Suppression is absolute: from the moment the controller
    /// suppresses until it resumes, `may_issue` stays false and no
    /// operating-point movement (ramp/deepen/backoff) happens — the
    /// only transition that can end the cooldown is `Resume`, which
    /// restores the base operating point. Streams run up to 150
    /// evaluation windows of `EVAL_PERIOD` (16) faults.
    #[test]
    fn throttle_never_moves_while_suppressed(classes in prop::collection::vec(0u8..4, 1..2400)) {
        let mut c = ThrottleController::new();
        let mut suppressed = false;
        for sel in classes {
            let class = match sel {
                0 => MissClass::NoPf,
                1 => MissClass::Hit,
                2 => MissClass::TooLate,
                _ => MissClass::Invalidated,
            };
            let before = (c.degree(), c.lead());
            let change = c.observe(class);
            if suppressed {
                prop_assert!(
                    change.is_none() || change == Some(ThrottleChange::Resume),
                    "suppressed controller moved: {:?}", change
                );
                if change == Some(ThrottleChange::Resume) {
                    suppressed = false;
                    prop_assert!(c.may_issue());
                    prop_assert_eq!(c.degree(), ThrottleController::BASE_DEGREE);
                    prop_assert_eq!(c.lead(), ThrottleController::BASE_LEAD);
                } else {
                    prop_assert!(!c.may_issue(), "cooldown ended without a Resume");
                    prop_assert_eq!((c.degree(), c.lead()), before);
                }
            }
            if change == Some(ThrottleChange::Suppress) {
                suppressed = true;
                prop_assert!(!c.may_issue());
            }
            // Global operating-point sanity, suppressed or not.
            prop_assert!(c.degree() >= 1 && c.degree() <= ThrottleController::MAX_DEGREE);
            prop_assert!(c.lead() >= ThrottleController::BASE_LEAD && c.lead() <= ThrottleController::MAX_LEAD);
        }
    }
}

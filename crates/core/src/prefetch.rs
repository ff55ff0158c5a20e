//! Online adaptive prefetching: majority-trend stride detection with
//! feedback-driven throttling.
//!
//! The paper's §3 prefetching is static — programmer- or
//! compiler-inserted — and `PrefetchMode::History` only replays
//! last-epoch faults at sync points (Bianchini-style history). This
//! module adds the third design point, in the mold of Leap (PAPERS.md):
//! watch the per-thread remote-fault stream through a sliding window,
//! detect the *majority trend* of the page-to-page deltas, and issue
//! prefetches ahead of the trend, with an adaptive depth/degree
//! controller fed by the §3.3 taxonomy the engine already computes per
//! fault:
//!
//! - **Detector** ([`StrideDetector`], one per application thread,
//!   reset at lock/barrier acquisitions so each (thread, lock-epoch)
//!   stream is scored independently): a window of the last `W` fault
//!   deltas with exact windowed majority — a delta is the trend while
//!   its count exceeds `W/2`. O(1) amortized per fault: one hash-map
//!   bump on entry, one on eviction.
//! - **Controller** ([`ThrottleController`], one per node): every
//!   `eval_period` classified faults it recomputes windowed §3.3
//!   coverage/accuracy/lateness (incrementally, from counters — never
//!   by querying the cost model) and moves the (degree, lead) operating
//!   point: ramp the degree when coverage is high and replies timely,
//!   push the lead window deeper when replies run late, halve the
//!   degree when accuracy collapses, and suppress issuing entirely for
//!   a cooldown when backoff bottoms out.
//!
//! Everything here is pure bookkeeping over observations the engine
//! hands in; simulated cost is charged by the engine at execution time
//! (`CostModel::prefetch_check` per observation, `prefetch_issue` per
//! message), never pre-queried. Outside the adaptive
//! [`PrefetchMode`](crate::PrefetchMode)s no detector or controller is
//! ever constructed and no trace event is emitted: whatever tuning the
//! config carries, the run is the same run (pinned by
//! `tests/parallel_determinism.rs`).

use std::collections::{HashMap, VecDeque};

use crate::node::MissClass;

/// Tuning for the adaptive engine. Carried inside
/// [`PrefetchConfig`](crate::PrefetchConfig), whose `mode` decides
/// whether the engine runs at all; never read in any other mode.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Sliding-window length `W` (in faults) per thread stream.
    pub window: usize,
    /// Ceiling for the lead when lateness keeps pushing it deeper.
    pub max_lead: u32,
    /// Classified faults per controller evaluation window.
    pub eval_period: u32,
    /// Minimum covered faults in a window before accuracy/lateness
    /// are trusted (below it the controller holds still).
    pub min_sample: u32,
}

impl AdaptiveConfig {
    /// The default operating point of the adaptive modes.
    pub fn on() -> Self {
        AdaptiveConfig {
            window: 8,
            max_lead: 4,
            eval_period: 16,
            min_sample: 4,
        }
    }
}

/// What [`StrideDetector::observe`] saw happen to the trend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendChange {
    /// The trend is unchanged (possibly still absent).
    None,
    /// A majority stride emerged — the stream's first, or the same
    /// one re-forming after a blip.
    Detected(i64),
    /// A majority stride emerged that *differs* from the last one
    /// this stream had (a window flip: the access phase changed).
    /// Two simultaneous majorities are impossible, so a flip always
    /// passes through a short [`TrendChange::Lost`] gap first.
    Flipped(i64),
    /// The majority dissolved without a successor.
    Lost,
}

/// Windowed majority-trend stride detector for one thread stream.
///
/// Holds the last `window` page-to-page deltas of the thread's remote
/// fault stream and the exact majority element over that window, when
/// one exists (count strictly greater than `window / 2`). All
/// operations are O(1) amortized — rsbench's `core.prefetch.observe_ns`
/// (`benchmark/`) measures the constant.
#[derive(Debug, Clone)]
pub struct StrideDetector {
    window: usize,
    last_page: Option<u64>,
    deltas: VecDeque<i64>,
    counts: HashMap<i64, u32>,
    trend: Option<i64>,
    /// Last majority value this stream ever had (survives `Lost`
    /// gaps; cleared on [`StrideDetector::reset`]) — distinguishes a
    /// re-detection from a genuine window flip.
    prev_trend: Option<i64>,
}

impl StrideDetector {
    /// A detector over windows of `window` deltas.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "detector window must be positive");
        StrideDetector {
            window,
            last_page: None,
            deltas: VecDeque::with_capacity(window),
            counts: HashMap::with_capacity(window + 1),
            trend: None,
            prev_trend: None,
        }
    }

    /// The current majority stride, if any. Zero never qualifies
    /// (refaulting the same page is not a trend worth chasing).
    pub fn trend(&self) -> Option<i64> {
        self.trend
    }

    /// Number of deltas currently in the window.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True when no delta has been observed since the last reset.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Feeds one remote fault (by page index) into the stream and
    /// returns what happened to the majority trend.
    pub fn observe(&mut self, page: u64) -> TrendChange {
        let delta = match self.last_page.replace(page) {
            Some(prev) => page as i64 - prev as i64,
            None => return TrendChange::None,
        };
        if self.deltas.len() == self.window {
            let evicted = self.deltas.pop_front().expect("window is non-empty");
            let c = self
                .counts
                .get_mut(&evicted)
                .expect("evicted delta is counted");
            *c -= 1;
            if *c == 0 {
                self.counts.remove(&evicted);
            }
        }
        self.deltas.push_back(delta);
        let count = self.counts.entry(delta).or_insert(0);
        *count += 1;
        // Exact windowed majority: only the just-bumped delta can have
        // crossed the threshold, and the previous trend (if different)
        // can only have lost count via the eviction above.
        let majority = u32::try_from(self.window / 2).expect("window fits in u32");
        let new_trend = if delta != 0 && *count > majority {
            Some(delta)
        } else {
            match self.trend {
                Some(t) if self.counts.get(&t).is_some_and(|c| *c > majority) => Some(t),
                _ => None,
            }
        };
        let change = match (self.trend, new_trend) {
            (a, b) if a == b => TrendChange::None,
            (None, Some(s)) => match self.prev_trend {
                Some(p) if p != s => TrendChange::Flipped(s),
                _ => TrendChange::Detected(s),
            },
            (Some(_), None) => TrendChange::Lost,
            // Two simultaneous majorities cannot coexist in one
            // window, so Some -> different Some is unreachable; the
            // equality arm already consumed Some -> same Some.
            _ => unreachable!("majority is unique per window"),
        };
        if let Some(s) = new_trend {
            self.prev_trend = Some(s);
        }
        self.trend = new_trend;
        change
    }

    /// Marks a stream boundary (lock/barrier epoch edge) without
    /// discarding evidence: the delta chain is broken — the next
    /// fault re-seeds it, so the cross-boundary jump never enters the
    /// window — but the accumulated deltas, counts, and trend
    /// survive. Real applications fault only a handful of pages
    /// between synchronization points; carrying the window across the
    /// edge is what lets a per-epoch stride (e.g. +1, +1 every
    /// barrier interval) ever reach a majority.
    pub fn break_chain(&mut self) {
        self.last_page = None;
    }

    /// Starts a new stream from nothing: the window empties and the
    /// next fault seeds a fresh delta chain.
    pub fn reset(&mut self) {
        self.last_page = None;
        self.deltas.clear();
        self.counts.clear();
        self.trend = None;
        self.prev_trend = None;
    }
}

/// A throttle state transition, for stats and tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleChange {
    /// Coverage high, lateness low: degree doubled (capped).
    Ramp,
    /// Replies late: lead deepened so requests launch earlier.
    Deepen,
    /// Accuracy collapsed (or lateness with the lead maxed): degree
    /// halved.
    Backoff,
    /// Backoff bottomed out: issuing suppressed for the cooldown.
    Suppress,
    /// Cooldown expired: issuing resumes at the base operating point.
    Resume,
}

impl ThrottleChange {
    /// Wire code for `TraceEvent::AdaptiveThrottle`.
    pub fn code(self) -> u8 {
        match self {
            ThrottleChange::Ramp => 0,
            ThrottleChange::Deepen => 1,
            ThrottleChange::Backoff => 2,
            ThrottleChange::Suppress => 3,
            ThrottleChange::Resume => 4,
        }
    }
}

/// Per-node feedback controller over the (degree, lead) operating
/// point, driven by the engine's per-fault §3.3 classifications.
#[derive(Debug, Clone)]
pub struct ThrottleController {
    cfg: AdaptiveConfig,
    degree: u32,
    lead: u32,
    /// Remaining evaluation windows of suppression (0 = issuing).
    suppressed_for: u32,
    // Classification counters for the current evaluation window.
    faults: u32,
    hits: u32,
    too_late: u32,
    invalidated: u32,
    no_pf: u32,
}

impl ThrottleController {
    /// Degree (pages issued per detecting fault) at start and after a
    /// resume.
    pub const BASE_DEGREE: u32 = 2;
    /// Ramp ceiling for the degree.
    pub const MAX_DEGREE: u32 = 8;
    /// Look-ahead multiplier at start: the first candidate is
    /// `stride * lead` pages ahead of the faulting page.
    pub const BASE_LEAD: u32 = 1;
    /// Windowed coverage at or above which the degree ramps (provided
    /// lateness is at or below half of `LATE_THRESHOLD`).
    const RAMP_COVERAGE: f64 = 0.6;
    /// Windowed accuracy below which the degree is halved.
    const BACKOFF_ACCURACY: f64 = 0.2;
    /// Windowed lateness above which the lead deepens. Past twice
    /// this value — or once the lead is maxed — the degree backs off
    /// instead: the serving nodes are saturated and earlier issue
    /// only lengthens their queues.
    const LATE_THRESHOLD: f64 = 0.25;
    /// Evaluation windows to sit out after a suppression.
    const SUPPRESS_PERIODS: u32 = 2;

    /// A controller at the base operating point.
    pub fn new(cfg: &AdaptiveConfig) -> Self {
        ThrottleController {
            degree: Self::BASE_DEGREE,
            lead: Self::BASE_LEAD,
            cfg: cfg.clone(),
            suppressed_for: 0,
            faults: 0,
            hits: 0,
            too_late: 0,
            invalidated: 0,
            no_pf: 0,
        }
    }

    /// Pages to issue per detecting fault.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Look-ahead multiplier (first candidate is `stride * lead`
    /// pages out).
    pub fn lead(&self) -> u32 {
        self.lead
    }

    /// False while the controller is in a suppression cooldown — the
    /// engine must not issue adaptive prefetches then.
    pub fn may_issue(&self) -> bool {
        self.suppressed_for == 0
    }

    /// Feeds one classified remote fault. Every
    /// [`AdaptiveConfig::eval_period`] faults the operating point is
    /// re-evaluated; the transition taken, if any, is returned.
    pub fn observe(&mut self, class: MissClass) -> Option<ThrottleChange> {
        self.faults += 1;
        match class {
            MissClass::Hit => self.hits += 1,
            MissClass::TooLate => self.too_late += 1,
            MissClass::Invalidated => self.invalidated += 1,
            MissClass::NoPf => self.no_pf += 1,
        }
        if self.faults < self.cfg.eval_period {
            return None;
        }
        let change = self.evaluate();
        self.faults = 0;
        self.hits = 0;
        self.too_late = 0;
        self.invalidated = 0;
        self.no_pf = 0;
        change
    }

    /// One evaluation over the just-finished window.
    fn evaluate(&mut self) -> Option<ThrottleChange> {
        if self.suppressed_for > 0 {
            self.suppressed_for -= 1;
            if self.suppressed_for == 0 {
                self.degree = Self::BASE_DEGREE;
                self.lead = Self::BASE_LEAD;
                return Some(ThrottleChange::Resume);
            }
            return None;
        }
        let covered = self.hits + self.too_late + self.invalidated;
        if covered < self.cfg.min_sample {
            return None;
        }
        let coverage = f64::from(covered) / f64::from(covered + self.no_pf);
        let accuracy = f64::from(self.hits) / f64::from(covered);
        let lateness = f64::from(self.too_late) / f64::from(covered);
        if accuracy < Self::BACKOFF_ACCURACY && lateness <= Self::LATE_THRESHOLD {
            // Covered but neither served nor merely late: the window
            // is dominated by invalidations — wasted traffic.
            return Some(self.back_off());
        }
        if lateness > Self::LATE_THRESHOLD {
            if lateness > 2.0 * Self::LATE_THRESHOLD || self.lead >= self.cfg.max_lead {
                // Most covered faults arrive before their reply (or
                // the lead is already maxed): the serving nodes are
                // saturated, and issuing earlier only lengthens their
                // queues — issue less instead.
                return Some(self.back_off());
            }
            self.lead += 1;
            return Some(ThrottleChange::Deepen);
        }
        if coverage >= Self::RAMP_COVERAGE
            && lateness <= Self::LATE_THRESHOLD / 2.0
            && self.degree < Self::MAX_DEGREE
        {
            // Ramp only while replies also arrive comfortably early:
            // high coverage with creeping lateness means the current
            // depth is already at the fabric's capacity.
            self.degree = (self.degree * 2).min(Self::MAX_DEGREE);
            return Some(ThrottleChange::Ramp);
        }
        None
    }

    fn back_off(&mut self) -> ThrottleChange {
        if self.degree > 1 {
            self.degree /= 2;
            ThrottleChange::Backoff
        } else {
            self.suppressed_for = Self::SUPPRESS_PERIODS;
            ThrottleChange::Suppress
        }
    }
}

/// Run-level counters of the adaptive engine, reported (and pinned)
/// only when the mode is on — [`RunReport`](crate::RunReport) carries
/// them as an `Option` that stays `None` (and invisible to the report
/// digest) otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Majority strides that emerged from windows with no trend.
    pub detected_strides: u64,
    /// Majority strides that changed value mid-window.
    pub window_flips: u64,
    /// Degree ramps (coverage high, replies timely).
    pub ramps: u64,
    /// Lead deepenings (replies late, lead below its cap).
    pub deepens: u64,
    /// Degree backoffs (accuracy collapsed or lead saturated).
    pub backoffs: u64,
    /// Suppressions (backoff bottomed out; issuing paused).
    pub suppressions: u64,
    /// Resumes from suppression cooldowns.
    pub resumes: u64,
    /// Adaptive prefetch pages actually issued.
    pub issued: u64,
    /// Candidates cancelled before issue: already valid or in
    /// flight, outside the heap, or planned while suppressed.
    pub cancelled: u64,
}

impl AdaptiveStats {
    /// Folds a throttle transition into the counters.
    pub fn record(&mut self, change: ThrottleChange) {
        match change {
            ThrottleChange::Ramp => self.ramps += 1,
            ThrottleChange::Deepen => self.deepens += 1,
            ThrottleChange::Backoff => self.backoffs += 1,
            ThrottleChange::Suppress => self.suppressions += 1,
            ThrottleChange::Resume => self.resumes += 1,
        }
    }

    /// Total throttle transitions of any kind.
    pub fn throttle_transitions(&self) -> u64 {
        self.ramps + self.deepens + self.backoffs + self.suppressions + self.resumes
    }

    /// Accumulates another node's counters into this one (run-level
    /// reporting folds per-node stats).
    pub fn absorb(&mut self, other: &AdaptiveStats) {
        self.detected_strides += other.detected_strides;
        self.window_flips += other.window_flips;
        self.ramps += other.ramps;
        self.deepens += other.deepens;
        self.backoffs += other.backoffs;
        self.suppressions += other.suppressions;
        self.resumes += other.resumes;
        self.issued += other.issued;
        self.cancelled += other.cancelled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(det: &mut StrideDetector, pages: &[u64]) {
        for &p in pages {
            det.observe(p);
        }
    }

    #[test]
    fn strided_stream_detects_the_planted_stride() {
        let mut d = StrideDetector::new(8);
        let pages: Vec<u64> = (0..20).map(|i| 100 + 3 * i).collect();
        let mut detected = None;
        for &p in &pages {
            if let TrendChange::Detected(s) = d.observe(p) {
                detected = Some(s);
            }
        }
        assert_eq!(detected, Some(3));
        assert_eq!(d.trend(), Some(3));
    }

    #[test]
    fn negative_strides_are_trends_too() {
        let mut d = StrideDetector::new(8);
        drive(&mut d, &[100, 93, 86, 79, 72, 65]);
        assert_eq!(d.trend(), Some(-7));
    }

    #[test]
    fn zero_delta_never_becomes_the_trend() {
        let mut d = StrideDetector::new(4);
        drive(&mut d, &[5, 5, 5, 5, 5, 5, 5]);
        assert_eq!(d.trend(), None);
    }

    #[test]
    fn random_walk_has_no_majority() {
        let mut d = StrideDetector::new(8);
        drive(&mut d, &[10, 11, 30, 2, 77, 40, 41, 90, 13]);
        assert_eq!(d.trend(), None);
    }

    #[test]
    fn flip_is_reported_when_the_majority_changes() {
        let mut d = StrideDetector::new(4);
        drive(&mut d, &[0, 2, 4, 6, 8]);
        assert_eq!(d.trend(), Some(2));
        // Deltas of 5 take over the window: the old majority first
        // dissolves (Lost), then the new one emerges as a Flip.
        let mut changes = Vec::new();
        for &p in &[13, 18, 23, 28, 33] {
            let c = d.observe(p);
            if c != TrendChange::None {
                changes.push(c);
            }
        }
        assert_eq!(changes, vec![TrendChange::Lost, TrendChange::Flipped(5)]);
        assert_eq!(d.trend(), Some(5));
    }

    #[test]
    fn same_stride_reemerging_is_a_detection_not_a_flip() {
        let mut d = StrideDetector::new(4);
        drive(&mut d, &[0, 2, 4, 6, 8]);
        assert_eq!(d.trend(), Some(2));
        // Two noise faults break the majority, then stride 2 resumes.
        let mut changes = Vec::new();
        for &p in &[100, 200, 202, 204, 206] {
            let c = d.observe(p);
            if c != TrendChange::None {
                changes.push(c);
            }
        }
        assert!(changes.contains(&TrendChange::Detected(2)), "{changes:?}");
        assert!(!changes.iter().any(|c| matches!(c, TrendChange::Flipped(_))));
    }

    #[test]
    fn reset_starts_a_fresh_stream() {
        let mut d = StrideDetector::new(4);
        drive(&mut d, &[0, 2, 4, 6, 8]);
        assert_eq!(d.trend(), Some(2));
        d.reset();
        assert!(d.is_empty());
        assert_eq!(d.trend(), None);
        // The first post-reset fault only seeds the chain: the 1000-page
        // jump from the pre-reset position is never a delta.
        assert_eq!(d.observe(1008), TrendChange::None);
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn window_eviction_forgets_old_deltas() {
        let mut d = StrideDetector::new(4);
        drive(&mut d, &[0, 2, 4, 6, 8]);
        assert_eq!(d.trend(), Some(2));
        drive(&mut d, &[9, 17, 20, 100]);
        assert_eq!(d.len(), 4);
        assert_eq!(d.trend(), None, "the 2s have been evicted");
    }

    #[test]
    fn controller_ramps_on_high_coverage() {
        let cfg = AdaptiveConfig {
            eval_period: 8,
            ..AdaptiveConfig::on()
        };
        let mut c = ThrottleController::new(&cfg);
        assert_eq!(c.degree(), ThrottleController::BASE_DEGREE);
        let mut changes = Vec::new();
        for _ in 0..8 {
            if let Some(ch) = c.observe(MissClass::Hit) {
                changes.push(ch);
            }
        }
        assert_eq!(changes, vec![ThrottleChange::Ramp]);
        assert_eq!(c.degree(), ThrottleController::BASE_DEGREE * 2);
    }

    #[test]
    fn controller_deepens_then_backs_off_on_lateness() {
        let cfg = AdaptiveConfig {
            eval_period: 4,
            max_lead: 2,
            ..AdaptiveConfig::on()
        };
        let mut c = ThrottleController::new(&cfg);
        let mut changes = Vec::new();
        // Half the covered faults are late: above the threshold, but
        // not past the saturation point — deepen first, then (lead
        // maxed) back off, then bottom out.
        for i in 0..12 {
            let class = if i % 2 == 0 {
                MissClass::TooLate
            } else {
                MissClass::Hit
            };
            if let Some(ch) = c.observe(class) {
                changes.push(ch);
            }
        }
        assert_eq!(
            changes,
            vec![
                ThrottleChange::Deepen,
                ThrottleChange::Backoff,
                ThrottleChange::Suppress,
            ]
        );
        assert!(!c.may_issue());
    }

    #[test]
    fn severe_lateness_backs_off_without_deepening() {
        let cfg = AdaptiveConfig {
            eval_period: 4,
            ..AdaptiveConfig::on()
        };
        let mut c = ThrottleController::new(&cfg);
        // Every covered fault is late — the servers are saturated, so
        // the controller must shed load immediately, not walk the
        // lead up first.
        let mut changes = Vec::new();
        for _ in 0..8 {
            if let Some(ch) = c.observe(MissClass::TooLate) {
                changes.push(ch);
            }
        }
        assert_eq!(
            changes,
            vec![ThrottleChange::Backoff, ThrottleChange::Suppress]
        );
        assert_eq!(
            c.lead(),
            ThrottleController::BASE_LEAD,
            "lead never deepened"
        );
    }

    #[test]
    fn suppression_expires_into_a_resume_at_base_point() {
        let cfg = AdaptiveConfig {
            eval_period: 4,
            max_lead: 1,
            ..AdaptiveConfig::on()
        };
        let mut c = ThrottleController::new(&cfg);
        // BASE_DEGREE 2 → one backoff to 1, then suppress.
        for _ in 0..8 {
            c.observe(MissClass::Invalidated);
        }
        assert!(!c.may_issue());
        let mut changes = Vec::new();
        for _ in 0..8 {
            if let Some(ch) = c.observe(MissClass::Invalidated) {
                changes.push(ch);
            }
        }
        assert_eq!(changes, vec![ThrottleChange::Resume]);
        assert!(c.may_issue());
        assert_eq!(c.degree(), ThrottleController::BASE_DEGREE);
        assert_eq!(c.lead(), ThrottleController::BASE_LEAD);
    }

    #[test]
    fn uncovered_windows_hold_still() {
        let cfg = AdaptiveConfig {
            eval_period: 4,
            ..AdaptiveConfig::on()
        };
        let mut c = ThrottleController::new(&cfg);
        for _ in 0..16 {
            assert_eq!(c.observe(MissClass::NoPf), None);
        }
        assert_eq!(c.degree(), ThrottleController::BASE_DEGREE);
        assert!(c.may_issue());
    }

    #[test]
    fn stats_record_every_transition_kind() {
        let mut s = AdaptiveStats::default();
        for ch in [
            ThrottleChange::Ramp,
            ThrottleChange::Deepen,
            ThrottleChange::Backoff,
            ThrottleChange::Suppress,
            ThrottleChange::Resume,
        ] {
            s.record(ch);
        }
        assert_eq!(s.throttle_transitions(), 5);
        assert_eq!(
            (s.ramps, s.deepens, s.backoffs, s.suppressions, s.resumes),
            (1, 1, 1, 1, 1)
        );
    }

    #[test]
    fn throttle_codes_are_distinct() {
        let codes: Vec<u8> = [
            ThrottleChange::Ramp,
            ThrottleChange::Deepen,
            ThrottleChange::Backoff,
            ThrottleChange::Suppress,
            ThrottleChange::Resume,
        ]
        .iter()
        .map(|c| c.code())
        .collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 4]);
    }
}

//! Run results: the measurements behind every figure and table.

use std::fmt;

use rsdsm_simnet::{FaultStats, NetStats, SimDuration};

use crate::accounting::Breakdown;
use crate::config::{ConfigError, DsmConfig, Store};
use crate::node::MissClass;
use crate::oracle::{FnvWriter, OracleOutcome};
use crate::prefetch::AdaptiveStats;
use crate::recovery::RecoveryStats;
use crate::transport::TransportSummary;

/// Errors a simulation run can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An application thread panicked (message included when known).
    AppThread(String),
    /// The simulated-time safety limit was exceeded.
    TimeLimit,
    /// The event queue drained while threads were still blocked.
    Deadlock(String),
    /// The reliable transport exhausted its retry budget for a
    /// message (persistent injected loss beyond what the retry cap
    /// can absorb).
    Transport(String),
    /// The configuration failed [`DsmConfig::validate`]; nothing was
    /// run.
    Config(ConfigError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::AppThread(msg) => write!(f, "application thread panicked: {msg}"),
            SimError::TimeLimit => write!(f, "simulated time limit exceeded"),
            SimError::Deadlock(what) => write!(f, "deadlock: {what}"),
            SimError::Transport(what) => write!(f, "reliable transport gave up: {what}"),
            SimError::Config(err) => write!(f, "invalid configuration: {err}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Declares a summary of counters: the struct, with its fields written
/// once, and its one merge, `AddAssign` field by field — so a run's
/// summary is the sum of its nodes' and no counter can be left out of
/// it.
macro_rules! summary {
    (
        $(#[$attr:meta])*
        pub struct $ty:ident {
            $($(#[$doc:meta])* pub $field:ident: $field_ty:ty,)*
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $ty {
            $($(#[$doc])* pub $field: $field_ty,)*
        }

        impl std::ops::AddAssign for $ty {
            fn add_assign(&mut self, other: Self) {
                $(self.$field += other.$field;)*
            }
        }
    };
}
pub(crate) use summary;

/// Per-kind network traffic row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficRow {
    /// Message kind label.
    pub kind: &'static str,
    /// Messages delivered.
    pub msgs: u64,
    /// Bytes delivered (payload + headers).
    pub bytes: u64,
    /// Messages dropped.
    pub dropped: u64,
}

/// Network totals for a run (Table 1 / Table 2 columns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetSummary {
    /// Messages delivered.
    pub total_msgs: u64,
    /// Bytes delivered, including headers.
    pub total_bytes: u64,
    /// Droppable messages lost to congestion.
    pub drops: u64,
    /// Mean queueing delay per delivered message.
    pub mean_queue_delay: SimDuration,
    /// Worst queueing delay.
    pub max_queue_delay: SimDuration,
    /// Per-kind rows, in kind order.
    pub per_kind: Vec<TrafficRow>,
}

impl NetSummary {
    pub(crate) fn from_stats(stats: &NetStats) -> Self {
        NetSummary {
            total_msgs: stats.total_msgs(),
            total_bytes: stats.total_bytes(),
            drops: stats.drops(),
            mean_queue_delay: stats.mean_queue_delay(),
            max_queue_delay: stats.max_queue_delay(),
            per_kind: stats
                .kinds()
                .map(|(kind, k)| TrafficRow {
                    kind,
                    msgs: k.msgs,
                    bytes: k.bytes,
                    dropped: k.dropped,
                })
                .collect(),
        }
    }
}

summary! {
    /// Remote memory miss measurements (Table 1 right-hand columns).
    pub struct MissSummary {
        /// Page faults that entered the protocol.
        pub faults: u64,
        /// Faults that required remote messages.
        pub misses: u64,
        /// Sum of miss latencies.
        pub latency_sum: SimDuration,
        /// Per-thread memory stall time.
        pub stall_sum: SimDuration,
    }
}

impl MissSummary {
    /// Average latency of a remote miss.
    pub fn avg_latency(&self) -> SimDuration {
        if self.misses == 0 {
            SimDuration::ZERO
        } else {
            self.latency_sum / self.misses
        }
    }
}

summary! {
    /// Lock or barrier stall measurements (Table 2 columns).
    pub struct SyncSummary {
        /// Remote events (token requests / barrier episodes).
        pub events: u64,
        /// Stall occurrences (threads that actually blocked).
        pub waits: u64,
        /// Sum of per-thread stall time.
        pub stall_sum: SimDuration,
    }
}

impl SyncSummary {
    /// Average stall per blocking occurrence.
    pub fn avg_stall(&self) -> SimDuration {
        if self.waits == 0 {
            SimDuration::ZERO
        } else {
            self.stall_sum / self.waits
        }
    }
}

summary! {
    /// Prefetch effectiveness measurements (Table 1 and Figure 3).
    pub struct PrefetchSummary {
        /// Prefetch operations executed (page granularity).
        pub calls: u64,
        /// Prefetches that found their data locally.
        pub unnecessary: u64,
        /// Prefetches suppressed because a request was in flight.
        pub suppressed_inflight: u64,
        /// Prefetches suppressed by the §5.1 redundancy flag.
        pub suppressed_flag: u64,
        /// Prefetches dropped by throttling.
        pub throttled: u64,
        /// Emulated compiler checks on private data.
        pub private_checks: u64,
        /// Prefetch request messages sent.
        pub messages: u64,
        /// Prefetch requests dropped by the network at send time.
        pub send_drops: u64,
        /// Prefetch replies dropped by the network (the requester fell
        /// back to a demand fault).
        pub reply_drops: u64,
        /// Faults fully covered by prefetched data (Figure 3 "pf-hit").
        pub hits: u64,
        /// Prefetched but not arrived in time ("pf-miss: too late").
        pub too_late: u64,
        /// Prefetched but invalidated before use ("pf-miss: invalidated").
        pub invalidated: u64,
        /// Faults on pages never prefetched ("no pf").
        pub no_pf: u64,
    }
}

impl PrefetchSummary {
    /// Tallies a fault's class (Figure 3).
    pub(crate) fn classify(&mut self, class: MissClass) {
        match class {
            MissClass::Hit => self.hits += 1,
            MissClass::NoPf => self.no_pf += 1,
            MissClass::TooLate => self.too_late += 1,
            MissClass::Invalidated => self.invalidated += 1,
        }
    }

    /// Faults a prefetch at least tried to cover.
    pub fn covered(&self) -> u64 {
        self.hits + self.too_late + self.invalidated
    }

    /// The coverage factor: the fraction of original misses that were
    /// prefetched at all (Table 1).
    pub fn coverage(&self) -> f64 {
        let covered = self.covered();
        let total = covered + self.no_pf;
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// §3.3 accuracy: the fraction of covered faults the prefetch
    /// actually served in time (0.0 when nothing was covered).
    pub fn accuracy(&self) -> f64 {
        let covered = self.covered();
        if covered == 0 {
            0.0
        } else {
            self.hits as f64 / covered as f64
        }
    }

    /// §3.3 lateness: the fraction of covered faults whose reply lost
    /// the race with the demand access (0.0 when nothing was covered).
    pub fn lateness(&self) -> f64 {
        let covered = self.covered();
        if covered == 0 {
            0.0
        } else {
            self.too_late as f64 / covered as f64
        }
    }

    /// Fraction of prefetch operations that were unnecessary (Table 1).
    pub fn unnecessary_fraction(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.unnecessary as f64 / self.calls as f64
        }
    }
}

summary! {
    /// Directory-layer measurements (the scale-out suite's hot-spot
    /// analysis). Zero when [`DirectoryConfig`](crate::DirectoryConfig)
    /// is off.
    pub struct DirectorySummary {
        /// Fetch requests served by the page's home node.
        pub home_hits: u64,
    }
}

summary! {
    /// Multithreading measurements (Table 2 left columns).
    pub struct MtSummary {
        /// Context switches taken.
        pub switches: u64,
        /// Sum of busy run lengths between long-latency events.
        pub run_length_sum: SimDuration,
        /// Number of runs measured.
        pub run_length_count: u64,
        /// Sum of all per-thread stalls (memory + locks + barriers).
        pub stall_sum: SimDuration,
        /// Number of stalls.
        pub stall_count: u64,
    }
}

impl MtSummary {
    /// Average busy run length between stalls.
    pub fn avg_run_length(&self) -> SimDuration {
        if self.run_length_count == 0 {
            SimDuration::ZERO
        } else {
            self.run_length_sum / self.run_length_count
        }
    }

    /// Average stall time across all long-latency events.
    pub fn avg_stall(&self) -> SimDuration {
        if self.stall_count == 0 {
            SimDuration::ZERO
        } else {
            self.stall_sum / self.stall_count
        }
    }
}

/// Everything measured in one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Benchmark name.
    pub app: String,
    /// The configuration that produced this run.
    pub config: DsmConfig,
    /// Wall-clock (simulated) completion time.
    pub total_time: SimDuration,
    /// Per-node execution-time breakdowns.
    pub node_breakdowns: Vec<Breakdown>,
    /// Sum of all nodes' breakdowns (the paper's normalized bars are
    /// derived from this).
    pub breakdown: Breakdown,
    /// Whether the application's verification accepted the result.
    pub verified: bool,
    /// Network traffic.
    pub net: NetSummary,
    /// Remote memory misses.
    pub misses: MissSummary,
    /// Lock behaviour.
    pub locks: SyncSummary,
    /// Barrier behaviour.
    pub barriers: SyncSummary,
    /// Prefetch behaviour.
    pub prefetch: PrefetchSummary,
    /// Multithreading behaviour.
    pub mt: MtSummary,
    /// Reliable-transport behaviour (retransmissions, acks, dedup).
    pub transport: TransportSummary,
    /// Fault-injection tallies from the network layer.
    pub fault_injection: FaultStats,
    /// Crash, failure-detection, checkpoint, and recovery tallies.
    pub recovery: RecoveryStats,
    /// Garbage-collection passes across all nodes.
    pub gc_passes: u64,
    /// Directory-layer tallies (home hits); zero unless the run's
    /// [`DirectoryConfig`](crate::DirectoryConfig) is on.
    pub directory: DirectorySummary,
    /// Simulation events the engine loop processed — the scaling
    /// suite's events-per-second numerator.
    pub events_processed: u64,
    /// Consistency-oracle observations (invariant violations, lock
    /// trace, final image); `None` unless the run's
    /// [`OracleConfig`](crate::OracleConfig) is on.
    pub oracle: Option<OracleOutcome>,
    /// Adaptive prefetch engine tallies; `None` unless the run's
    /// [`PrefetchMode`](crate::PrefetchMode) is adaptive.
    pub adaptive: Option<AdaptiveStats>,
}

impl RunReport {
    /// FNV-1a digest of what the run *computed*: the `Debug` text of
    /// every result field — each counter, breakdown and oracle
    /// observation, so a counter added to any of them is covered
    /// without touching this function. Two runs with identical (seed,
    /// config) must produce identical digests; the determinism harness
    /// in `rsdsm-oracle` asserts exactly that.
    ///
    /// One field is outside it. `config` is the run's input, not a
    /// result: hashing it would make every pinned digest depend on how
    /// the configuration types are spelled, and two configs that
    /// differ only in fields the run never reads would digest apart.
    pub fn digest(&self) -> u64 {
        use fmt::Write as _;
        // Exhaustive, so a new field has to be placed in or out.
        let RunReport {
            app,
            config: _,
            total_time,
            node_breakdowns,
            breakdown,
            verified,
            net,
            misses,
            locks,
            barriers,
            prefetch,
            mt,
            transport,
            fault_injection,
            recovery,
            gc_passes,
            directory,
            events_processed,
            oracle,
            adaptive,
        } = self;
        let results: [&dyn fmt::Debug; 19] = [
            app,
            total_time,
            node_breakdowns,
            breakdown,
            verified,
            net,
            misses,
            locks,
            barriers,
            prefetch,
            mt,
            transport,
            fault_injection,
            recovery,
            gc_passes,
            directory,
            events_processed,
            oracle,
            adaptive,
        ];
        // Hashed as it is rendered: the text (every grant record and
        // page of a captured outcome) is never held in memory.
        let mut sink = FnvWriter::new();
        for field in results {
            write!(sink, "{field:?};").expect("the sink never fails");
        }
        sink.0
    }

    /// Speedup of this run relative to a baseline total time
    /// (e.g. `orig.total_time`); greater than 1 means faster.
    pub fn speedup_vs(&self, baseline: SimDuration) -> f64 {
        if self.total_time.is_zero() {
            0.0
        } else {
            baseline.as_nanos() as f64 / self.total_time.as_nanos() as f64
        }
    }

    /// One-line drop/retry/duplicate summary for the figure and table
    /// binaries; `None` when the run saw no losses, no injected
    /// faults, no retransmissions, and took no checkpoint.
    pub fn fault_summary_line(&self) -> Option<String> {
        let f = &self.fault_injection;
        let t = &self.transport;
        let r = &self.recovery;
        let d = &self.directory;
        let quiet = f.injected_drops == 0
            && f.duplicates == 0
            && f.reordered == 0
            && f.partition_drops == 0
            && t.retransmissions == 0
            && self.net.drops == 0
            && r.crashes == 0
            && r.suspicions == 0
            && r.checkpoints_taken == 0
            && r.partitions == 0
            && d.home_hits == 0
            && !self.config.prefetch.mode.is_adaptive();
        if quiet {
            return None;
        }
        use std::fmt::Write as _;
        let mut line = String::with_capacity(256);
        write!(
            line,
            "faults: {} msgs dropped, {} duplicated, {} reordered; \
             transport: {} retransmissions (max {} attempts/frame), \
             {} duplicate frames suppressed; \
             prefetch: {} requests lost, {} replies lost",
            f.injected_drops,
            f.duplicates,
            f.reordered,
            t.retransmissions,
            t.max_attempts,
            t.dup_frames_suppressed,
            self.prefetch.send_drops,
            self.prefetch.reply_drops,
        )
        .expect("write to String");
        if r.crashes > 0 || r.suspicions > 0 || r.recoveries > 0 || r.checkpoints_taken > 0 {
            write!(
                line,
                "; recovery: {} crashes, {} suspicions ({} false), \
                 {} checkpoints ({} bytes), {} recoveries ({} us down)",
                r.crashes,
                r.suspicions,
                r.false_suspicions,
                r.checkpoints_taken,
                r.checkpoint_bytes,
                r.recoveries,
                r.recovery_time.as_micros(),
            )
            .expect("write to String");
        }
        if r.partitions > 0 || f.partition_drops > 0 {
            write!(
                line,
                "; partition: {} cuts, {} frames cut, \
                 {} frozen suspected-but-alive, {} rejoins ({} us reconcile)",
                r.partitions,
                f.partition_drops,
                r.partition_freezes,
                r.partition_rejoins,
                r.partition_reconcile_time.as_micros(),
            )
            .expect("write to String");
        }
        // Gated on the config switch, not the counters: a run without
        // the directory layer must emit the exact pre-directory line.
        if self.config.directory.enabled() {
            write!(line, "; directory: {} home hits", d.home_hits).expect("write to String");
        }
        // Gated on the plan's cadence having a device, not on the
        // counters: a run without one must emit the exact
        // pre-persistence line.
        let store = self.config.recovery.cadence().map(|c| c.store);
        if matches!(store, Some(Store::Device(_))) {
            write!(
                line,
                "; persist: {} bytes, {} flushes, {} fences, \
                 {} torn discarded, {} slot fallbacks",
                r.persist_bytes, r.flushes, r.fences, r.torn_discards, r.slot_fallbacks,
            )
            .expect("write to String");
        }
        // Gated on the config switch, not the counters: runs without
        // the adaptive engine must emit the exact pre-adaptive line.
        if self.config.prefetch.mode.is_adaptive() {
            let a = self.adaptive.unwrap_or_default();
            write!(
                line,
                "; adaptive: {} strides, {} flips, \
                 {} throttle transitions, {} issued, {} cancelled",
                a.detected_strides,
                a.window_flips,
                a.throttle_transitions(),
                a.issued,
                a.cancelled,
            )
            .expect("write to String");
        }
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use std::ops::AddAssign;

    use super::*;

    #[test]
    fn miss_avg_latency() {
        let m = MissSummary {
            faults: 10,
            misses: 4,
            latency_sum: SimDuration::from_micros(400),
            stall_sum: SimDuration::from_micros(500),
        };
        assert_eq!(m.avg_latency(), SimDuration::from_micros(100));
        assert_eq!(MissSummary::default().avg_latency(), SimDuration::ZERO);
    }

    #[test]
    fn prefetch_coverage() {
        let p = PrefetchSummary {
            hits: 6,
            too_late: 2,
            invalidated: 2,
            no_pf: 10,
            calls: 100,
            unnecessary: 25,
            ..PrefetchSummary::default()
        };
        assert!((p.coverage() - 0.5).abs() < 1e-12);
        assert!((p.unnecessary_fraction() - 0.25).abs() < 1e-12);
        let empty = PrefetchSummary::default();
        assert_eq!(
            (empty.coverage(), empty.accuracy(), empty.lateness()),
            (0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn sync_avg_stall() {
        let s = SyncSummary {
            events: 2,
            waits: 4,
            stall_sum: SimDuration::from_micros(100),
        };
        assert_eq!(s.avg_stall(), SimDuration::from_micros(25));
        assert_eq!(SyncSummary::default().avg_stall(), SimDuration::ZERO);
    }

    #[test]
    fn mt_averages() {
        let m = MtSummary {
            switches: 3,
            run_length_sum: SimDuration::from_micros(90),
            run_length_count: 9,
            stall_sum: SimDuration::from_micros(50),
            stall_count: 5,
        };
        assert_eq!(m.avg_run_length(), SimDuration::from_micros(10));
        assert_eq!(m.avg_stall(), SimDuration::from_micros(10));
    }

    #[test]
    fn classify_tallies() {
        let mut p = PrefetchSummary::default();
        for class in [
            MissClass::Hit,
            MissClass::Hit,
            MissClass::TooLate,
            MissClass::Invalidated,
            MissClass::NoPf,
        ] {
            p.classify(class);
        }
        assert_eq!((p.hits, p.too_late, p.invalidated, p.no_pf), (2, 1, 1, 1));
    }

    /// Merged into an empty summary, a value comes back whole: a field
    /// its merge left out would stay zero and show in the `Debug` text.
    fn merges_whole<T: AddAssign + Copy + Default + fmt::Debug>(value: T) {
        let mut total = T::default();
        total += value;
        assert_eq!(format!("{total:?}"), format!("{value:?}"));
    }

    /// Every field of every summary is nonzero here, and a struct
    /// literal names every field: a new counter must be given a value.
    #[test]
    fn every_merge_covers_every_field() {
        let ns = SimDuration::from_nanos;
        merges_whole(MissSummary {
            faults: 1,
            misses: 2,
            latency_sum: ns(3),
            stall_sum: ns(4),
        });
        merges_whole(SyncSummary {
            events: 1,
            waits: 2,
            stall_sum: ns(3),
        });
        merges_whole(PrefetchSummary {
            calls: 1,
            unnecessary: 2,
            suppressed_inflight: 3,
            suppressed_flag: 4,
            throttled: 5,
            private_checks: 6,
            messages: 7,
            send_drops: 8,
            reply_drops: 9,
            hits: 10,
            too_late: 11,
            invalidated: 12,
            no_pf: 13,
        });
        merges_whole(DirectorySummary { home_hits: 1 });
        merges_whole(MtSummary {
            switches: 1,
            run_length_sum: ns(2),
            run_length_count: 3,
            stall_sum: ns(4),
            stall_count: 5,
        });
        merges_whole(AdaptiveStats {
            detected_strides: 1,
            window_flips: 2,
            ramps: 3,
            deepens: 4,
            backoffs: 5,
            suppressions: 6,
            resumes: 7,
            issued: 8,
            cancelled: 9,
        });
    }

    #[test]
    fn error_display() {
        assert!(SimError::TimeLimit.to_string().contains("time limit"));
        assert!(SimError::AppThread("boom".into())
            .to_string()
            .contains("boom"));
        assert!(SimError::Deadlock("x".into())
            .to_string()
            .contains("deadlock"));
    }
}

//! Modeled per-node persistent storage with flush/fence semantics.
//!
//! The crash-recovery story (DESIGN.md §6e) originally treated a
//! checkpoint as a free, atomic in-memory snapshot: a crash could
//! never land mid-checkpoint. Real durable checkpoints are writes to
//! persistent media with a store buffer in front, and a crash at an
//! arbitrary instant exposes exactly three behaviors this module
//! models:
//!
//! - **Store-buffer loss**: writes buffered but never flushed vanish
//!   entirely.
//! - **Progressive drain**: a flush pushes buffered bytes toward the
//!   media at the configured write bandwidth; bytes already drained
//!   when the crash hits are durable, bytes past the drain frontier
//!   are not.
//! - **Sector tearing**: the sector straddling the drain frontier at
//!   the crash instant holds an undefined mix of old and new bytes.
//!   The model fills it with deterministic garbage (a function of the
//!   crash coordinates, so same-seed runs stay bit-identical) —
//!   precisely the case a checksum must catch.
//!
//! A **fence** orders writes: it completes at the flush-drain
//! completion plus the configured fence latency, and holds the drain
//! engine until then, so a write flushed after it drains after it.
//! The device itself never advances time — every operation takes and
//! returns [`SimTime`]s so the caller charges the cost through its own
//! cost model — but the caller issues operations in time order: none
//! at an instant before an earlier one's.
//!
//! A flush first **retires** every write whose drain has completed
//! onto the media. Drains finish in issue order, so those are a prefix
//! of the in-flight list, and since no later call can land before the
//! flush's instant, no crash can observe them half-drained. A retired
//! write that covers its whole region becomes the region's buffer
//! rather than being copied into it. The device therefore holds one
//! image per region, plus whatever is still draining.
//!
//! The address space is a set of independent byte *regions* (the
//! checkpoint layer uses four per node: two payload slots and their
//! two commit records). Regions grow on write and keep stale tail
//! bytes beyond the newest write — exactly like reusing a slot file.
//!
//! # Examples
//!
//! ```
//! use rsdsm_simnet::{PersistConfig, PersistDevice, SimTime};
//!
//! let mut dev = PersistDevice::new(1, PersistConfig::on());
//! dev.write(0, 0, b"hello");
//! let drained = dev.flush(SimTime::ZERO);
//! let durable = dev.fence(drained);
//! assert!(durable > drained);
//! dev.settle(durable);
//! assert_eq!(dev.read(0), b"hello");
//! ```

use crate::fnv::{fnv1a_extend, FNV_OFFSET};
use crate::time::{SimDuration, SimTime};

/// Parameters of the modeled persistent device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistConfig {
    /// Whether checkpoints persist to the device at all. Off by
    /// default: a checkpoint is only measured, free in simulated time,
    /// and every pre-existing digest is untouched.
    pub enabled: bool,
    /// Sustained write bandwidth of the media in bytes per
    /// microsecond (1 byte/us = 1 MB/s).
    pub write_bw: u64,
    /// Sustained read bandwidth in bytes per microsecond, used to
    /// derive the restore cost of reloading a persisted image.
    pub read_bw: u64,
    /// Latency of one fence (drain-completion to durability
    /// guarantee).
    pub fence_latency: SimDuration,
    /// Tearing granularity: the sector straddling the drain frontier
    /// at a crash holds undefined bytes.
    pub sector_bytes: u32,
}

impl PersistConfig {
    /// Persistence disabled; the parameter values are the defaults
    /// [`PersistConfig::on`] enables.
    pub fn off() -> Self {
        PersistConfig {
            enabled: false,
            // ~200 MB/s sustained writes, ~400 MB/s reads, 5 us
            // fences: a modest late-90s-charitable NVRAM/log device.
            write_bw: 200,
            read_bw: 400,
            fence_latency: SimDuration::from_micros(5),
            sector_bytes: 512,
        }
    }

    /// Persistence enabled with the default device parameters.
    pub fn on() -> Self {
        PersistConfig {
            enabled: true,
            ..PersistConfig::off()
        }
    }

    /// Time to drain `bytes` to the media at the write bandwidth.
    pub fn write_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos((bytes as u64 * 1_000).div_ceil(self.write_bw.max(1)))
    }

    /// Time to read `bytes` back from the media at the read
    /// bandwidth.
    pub fn read_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos((bytes as u64 * 1_000).div_ceil(self.read_bw.max(1)))
    }
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig::off()
    }
}

/// Counters the device keeps about its own activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Bytes accepted into the store buffer.
    pub bytes_written: u64,
    /// Flush operations issued.
    pub flushes: u64,
    /// Fence operations issued.
    pub fences: u64,
    /// Sectors torn by crashes mid-drain.
    pub torn_sectors: u64,
    /// Buffered (never-flushed) writes lost to crashes.
    pub writes_lost: u64,
}

/// A write sitting in the volatile store buffer.
#[derive(Debug, Clone)]
struct Buffered {
    region: usize,
    offset: usize,
    bytes: Vec<u8>,
}

/// A flushed write draining toward the media over `[start, end)`.
#[derive(Debug, Clone)]
struct Draining {
    region: usize,
    offset: usize,
    bytes: Vec<u8>,
    start: SimTime,
    end: SimTime,
}

/// One node's persistent device: durable media regions, a volatile
/// store buffer, and the in-flight drain queue between them.
#[derive(Debug, Clone)]
pub struct PersistDevice {
    cfg: PersistConfig,
    media: Vec<Vec<u8>>,
    buffer: Vec<Buffered>,
    inflight: Vec<Draining>,
    /// When the most recently issued flush finishes draining; the
    /// next flush queues behind it (one drain engine).
    drain_free: SimTime,
    stats: PersistStats,
}

impl PersistDevice {
    /// A device with `regions` independent byte regions, all empty.
    pub fn new(regions: usize, cfg: PersistConfig) -> Self {
        PersistDevice {
            cfg,
            media: vec![Vec::new(); regions],
            buffer: Vec::new(),
            inflight: Vec::new(),
            drain_free: SimTime::ZERO,
            stats: PersistStats::default(),
        }
    }

    /// The device's configuration.
    pub fn config(&self) -> &PersistConfig {
        &self.cfg
    }

    /// The device's activity counters.
    pub fn stats(&self) -> PersistStats {
        self.stats
    }

    /// Buffers `bytes` at `offset` of `region` in the (volatile)
    /// store buffer. Takes no time; durability starts at the next
    /// flush.
    pub fn write(&mut self, region: usize, offset: usize, bytes: &[u8]) {
        self.write_owned(region, offset, bytes.to_vec());
    }

    /// [`PersistDevice::write`] of a buffer the caller gives up: the
    /// store buffer keeps it rather than a copy of it.
    pub fn write_owned(&mut self, region: usize, offset: usize, bytes: Vec<u8>) {
        assert!(region < self.media.len(), "write to unknown region");
        if bytes.is_empty() {
            return;
        }
        self.stats.bytes_written += bytes.len() as u64;
        self.buffer.push(Buffered {
            region,
            offset,
            bytes,
        });
    }

    /// Retires the writes that finished draining by `now`, then
    /// starts draining every buffered write toward the media, in issue
    /// order, at the write bandwidth. Returns the drain completion
    /// time. Drained bytes become durable as the frontier passes them
    /// — a fence is still required before issuing writes that must be
    /// ordered after these.
    pub fn flush(&mut self, now: SimTime) -> SimTime {
        self.stats.flushes += 1;
        self.settle(now);
        let mut at = self.drain_free.max(now);
        for w in self.buffer.drain(..) {
            let end = at + self.cfg.write_time(w.bytes.len());
            self.inflight.push(Draining {
                region: w.region,
                offset: w.offset,
                bytes: w.bytes,
                start: at,
                end,
            });
            at = end;
        }
        self.drain_free = at;
        at
    }

    /// A fence issued at `now`: returns the instant after which every
    /// previously flushed write is guaranteed durable (drain
    /// completion plus the fence latency). Writes flushed after it
    /// start draining no earlier than that instant.
    pub fn fence(&mut self, now: SimTime) -> SimTime {
        self.stats.fences += 1;
        self.drain_free = self.drain_free.max(now) + self.cfg.fence_latency;
        self.drain_free
    }

    /// Retires in-flight writes whose drain completed by `now` onto
    /// the media. Call before reading in normal (crash-free)
    /// operation; every flush does it first.
    pub fn settle(&mut self, now: SimTime) {
        // Drains finish in issue order: the completed writes are a
        // prefix.
        let done = self.inflight.partition_point(|w| w.end <= now);
        for w in self.inflight.drain(..done) {
            let media = &mut self.media[w.region];
            if w.offset == 0 && w.bytes.len() >= media.len() {
                *media = w.bytes;
            } else {
                apply(media, w.offset, &w.bytes);
            }
        }
    }

    /// The node crashed at `now`: the store buffer is lost, drained
    /// bytes stay durable, and the sector straddling the drain
    /// frontier of an in-flight write tears into deterministic
    /// garbage. Anything past the frontier never reaches the media.
    pub fn crash(&mut self, now: SimTime) {
        self.settle(now);
        self.stats.writes_lost += self.buffer.len() as u64;
        self.buffer.clear();
        for w in std::mem::take(&mut self.inflight) {
            if w.start >= now {
                continue; // never started draining: fully lost
            }
            // Bytes drained before the crash instant, at the uniform
            // per-byte rate the drain window models.
            let window = w.end.saturating_since(w.start).as_nanos();
            let elapsed = now.saturating_since(w.start).as_nanos();
            let frontier = if window == 0 {
                w.bytes.len()
            } else {
                ((w.bytes.len() as u128 * elapsed as u128) / window as u128) as usize
            };
            let frontier = frontier.min(w.bytes.len());
            let sector = self.cfg.sector_bytes.max(1) as usize;
            // The sector containing the frontier (in device offsets)
            // holds an undefined mix of old and new bytes.
            let tear_lo = ((w.offset + frontier) / sector * sector).max(w.offset);
            let tear_hi = (tear_lo + sector).min(w.offset + w.bytes.len());
            let media = &mut self.media[w.region];
            apply(media, w.offset, &w.bytes[..frontier]);
            if tear_lo < tear_hi && frontier < w.bytes.len() {
                self.stats.torn_sectors += 1;
                let mut rng = tear_seed(w.region, tear_lo, now);
                for off in tear_lo..tear_hi {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let garbage = (rng >> 33) as u8;
                    apply(media, off, &[garbage]);
                }
            }
        }
        self.drain_free = now;
    }

    /// The durable contents of `region`. [`PersistDevice::settle`] or
    /// [`PersistDevice::crash`] must have brought the media up to the
    /// read instant first.
    pub fn read(&self, region: usize) -> &[u8] {
        &self.media[region]
    }
}

/// Copies `bytes` into `media` at `offset`, zero-extending the region
/// as needed (regions grow on write, like a file).
fn apply(media: &mut Vec<u8>, offset: usize, bytes: &[u8]) {
    let end = offset + bytes.len();
    if media.len() < end {
        media.resize(end, 0);
    }
    media[offset..end].copy_from_slice(bytes);
}

/// Deterministic seed for tear garbage: a function of where and when
/// the tear happened, so same-seed runs reproduce bit-identically.
fn tear_seed(region: usize, offset: usize, now: SimTime) -> u64 {
    [region as u64, offset as u64, now.as_nanos()]
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a_extend(h, &v.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn dev() -> PersistDevice {
        // 1 byte/us write bandwidth makes drain windows easy to
        // reason about: N bytes drain in N microseconds.
        PersistDevice::new(
            2,
            PersistConfig {
                enabled: true,
                write_bw: 1,
                read_bw: 2,
                fence_latency: us(5),
                sector_bytes: 4,
            },
        )
    }

    #[test]
    fn write_flush_fence_settle_round_trip() {
        let mut d = dev();
        d.write(0, 0, b"abcdefgh");
        let t0 = SimTime::ZERO + us(10);
        let drained = d.flush(t0);
        assert_eq!(drained, t0 + us(8));
        let durable = d.fence(drained);
        assert_eq!(durable, drained + us(5));
        d.settle(durable);
        assert_eq!(d.read(0), b"abcdefgh");
        assert_eq!(d.stats().flushes, 1);
        assert_eq!(d.stats().fences, 1);
        assert_eq!(d.stats().bytes_written, 8);
    }

    #[test]
    fn unflushed_writes_are_lost_at_crash() {
        let mut d = dev();
        d.write(0, 0, b"doomed");
        d.crash(SimTime::ZERO + us(100));
        assert_eq!(d.read(0), b"");
        assert_eq!(d.stats().writes_lost, 1);
    }

    #[test]
    fn crash_mid_drain_keeps_prefix_and_tears_frontier_sector() {
        let mut d = dev();
        d.write(0, 0, &[0xAA; 16]);
        let t0 = SimTime::ZERO;
        let end = d.flush(t0);
        assert_eq!(end, t0 + us(16));
        // Crash halfway: 8 bytes drained, frontier in sector [8, 12).
        d.crash(t0 + us(8));
        let m = d.read(0);
        assert_eq!(&m[..8], &[0xAA; 8]);
        assert_eq!(d.stats().torn_sectors, 1);
        // Bytes beyond the torn sector never reached the media.
        assert!(m.len() <= 12);
    }

    #[test]
    fn crash_after_drain_is_fully_durable_without_fence() {
        // Drained bytes are on the media even if no fence was issued:
        // the fence guarantees ordering, it does not gate transfer.
        let mut d = dev();
        d.write(0, 0, b"safe");
        let end = d.flush(SimTime::ZERO);
        d.crash(end + us(1));
        assert_eq!(d.read(0), b"safe");
        assert_eq!(d.stats().torn_sectors, 0);
    }

    #[test]
    fn tear_garbage_is_deterministic() {
        let run = || {
            let mut d = dev();
            d.write(0, 0, &[0x55; 32]);
            d.flush(SimTime::ZERO);
            d.crash(SimTime::ZERO + us(13));
            d.read(0).to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn regions_are_independent_and_grow_on_write() {
        let mut d = dev();
        d.write(0, 4, b"xy");
        d.write(1, 0, b"z");
        let end = d.flush(SimTime::ZERO);
        d.settle(end);
        assert_eq!(d.read(0), b"\0\0\0\0xy");
        assert_eq!(d.read(1), b"z");
    }

    #[test]
    fn second_flush_queues_behind_the_first() {
        let mut d = dev();
        d.write(0, 0, &[1; 10]);
        let first = d.flush(SimTime::ZERO);
        d.write(0, 10, &[2; 10]);
        // Issued "immediately", but the drain engine is busy until
        // `first`.
        let second = d.flush(SimTime::ZERO + us(1));
        assert_eq!(first, SimTime::ZERO + us(10));
        assert_eq!(second, first + us(10));
    }

    #[test]
    fn stale_tail_survives_a_shorter_overwrite() {
        let mut d = dev();
        d.write(0, 0, b"longer-original");
        let end = d.flush(SimTime::ZERO);
        d.settle(end);
        d.write(0, 0, b"short");
        let end = d.flush(end);
        d.settle(end);
        assert_eq!(d.read(0), b"shortr-original");
    }

    #[test]
    fn cost_model_rounds_up() {
        let cfg = PersistConfig {
            write_bw: 3,
            read_bw: 7,
            ..PersistConfig::on()
        };
        assert_eq!(cfg.write_time(1), SimDuration::from_nanos(334));
        assert_eq!(cfg.read_time(1), SimDuration::from_nanos(143));
        assert_eq!(cfg.write_time(0), SimDuration::ZERO);
    }
}

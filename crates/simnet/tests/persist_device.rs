//! Integration tests of the persistent-device crash contract through
//! the public API: the durable prefix grows monotonically with the
//! crash instant, tearing is confined to the one frontier sector and
//! is deterministic, and the fence ordering the checkpoint layer
//! relies on (nothing dependent drains before the previous fence
//! completes) holds at every crash time.

use rsdsm_simnet::{PersistConfig, PersistDevice, SimDuration, SimTime};

/// 1 byte/us write bandwidth, 16-byte sectors: windows and frontiers
/// in easy round numbers.
fn cfg() -> PersistConfig {
    PersistConfig {
        enabled: true,
        write_bw: 1,
        read_bw: 2,
        fence_latency: SimDuration::from_micros(5),
        sector_bytes: 16,
    }
}

fn at_us(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// Crashing at every microsecond of a drain window never panics, the
/// durable prefix before the torn sector is exactly the drained
/// bytes, and past the frontier's sector the region still holds what
/// an earlier, completed write left there. That write was retired by
/// the second flush, not by the crash, and the media is the same.
#[test]
fn crash_at_any_point_is_total_and_monotone() {
    let earlier = [0xEEu8; 160]; // drains over [0, 160) us
    let payload: Vec<u8> = (0..128u8).collect(); // then over [200, 328) us
    let sector = cfg().sector_bytes as usize;
    let mut prev_frontier = 0usize;
    for crash_us in 0..=130 {
        let mut dev = PersistDevice::new(1, cfg());
        dev.write(0, 0, &earlier);
        assert_eq!(dev.flush(at_us(0)), at_us(160));
        dev.write(0, 0, &payload);
        let drained = dev.flush(at_us(200));
        assert_eq!(drained, at_us(328));
        dev.crash(at_us(200 + crash_us));
        let media = dev.read(0);
        assert_eq!(media.len(), earlier.len(), "the region lost its tail");

        let frontier = (crash_us as usize).min(payload.len());
        assert!(
            frontier >= prev_frontier,
            "durable prefix shrank at {crash_us} us"
        );
        prev_frontier = frontier;

        // Bytes strictly before the frontier's sector are the real
        // payload; the frontier sector itself may be garbage; past it
        // lies the earlier write.
        let sector_lo = frontier / sector * sector;
        assert_eq!(
            &media[..sector_lo],
            &payload[..sector_lo],
            "drained prefix corrupted at {crash_us} us"
        );
        if frontier >= payload.len() {
            assert_eq!(
                &media[..payload.len()],
                &payload[..],
                "completed drain still torn"
            );
        }
        let sector_hi = (sector_lo + sector).min(payload.len()).max(frontier);
        assert_eq!(
            &media[sector_hi..],
            &earlier[sector_hi..],
            "bytes past the frontier sector reached the media at {crash_us} us"
        );
    }
}

/// A flush retires the writes whose drain has completed: the media
/// shows them without any `settle`.
#[test]
fn flush_retires_completed_drains() {
    let mut dev = PersistDevice::new(2, cfg());
    dev.write(0, 0, b"first image");
    let drained = dev.flush(at_us(0));
    assert!(dev.read(0).is_empty(), "still draining");
    dev.write(1, 0, b"second");
    dev.flush(drained);
    assert_eq!(dev.read(0), b"first image");
    assert!(dev.read(1).is_empty(), "the second write is still draining");
}

/// Same crash coordinates, same garbage: tearing draws no global
/// randomness, so same-seed runs stay bit-identical.
#[test]
fn tear_garbage_is_deterministic() {
    let run = || {
        let mut dev = PersistDevice::new(1, cfg());
        dev.write(0, 0, &[0xAA; 64]);
        dev.flush(at_us(0));
        dev.crash(at_us(20));
        dev.read(0).to_vec()
    };
    assert_eq!(run(), run());
}

/// The ordering contract the two-slot protocol depends on: a write
/// issued after a fence drains strictly after the fenced write's
/// completion, so a crash can catch the second write mid-drain only
/// when the first is already fully durable. The protocol issues every
/// call at the same present: the fence alone holds the second drain
/// back, and the second flush retires nothing still draining.
#[test]
fn fenced_writes_drain_in_order() {
    let run = |crash: SimTime| {
        let mut dev = PersistDevice::new(2, cfg());
        dev.write(0, 0, &[1u8; 32]); // region 0: "payload", 32 us
        assert_eq!(dev.flush(at_us(0)), at_us(32));
        let durable = dev.fence(at_us(0));
        assert_eq!(durable, at_us(32) + SimDuration::from_micros(5));
        dev.write(1, 0, &[2u8; 16]); // region 1: "commit"
        assert_eq!(dev.flush(at_us(0)), durable + SimDuration::from_micros(16));
        dev.crash(crash);
        dev
    };

    // Crash inside the commit's window: payload fully durable, commit
    // at most partially there.
    let dev = run(at_us(37) + SimDuration::from_micros(4));
    assert_eq!(dev.read(0), &[1u8; 32][..]);
    assert!(dev.read(1).len() <= cfg().sector_bytes as usize);
    assert_eq!(dev.stats().torn_sectors, 1);

    // Crash inside the payload's window: the payload tears there, and
    // the commit never started.
    let dev = run(at_us(20));
    assert_eq!(&dev.read(0)[..16], &[1u8; 16][..]);
    assert!(dev.read(0).len() <= 32);
    assert!(dev.read(1).is_empty());
    assert_eq!(dev.stats().torn_sectors, 1);
}

/// An unflushed write is gone entirely after a crash — store buffers
/// are volatile — and counted as lost.
#[test]
fn buffered_writes_vanish_on_crash() {
    let mut dev = PersistDevice::new(1, cfg());
    dev.write(0, 0, &[7u8; 48]);
    dev.crash(at_us(1_000));
    assert!(dev.read(0).is_empty());
    assert_eq!(dev.stats().writes_lost, 1);
    assert_eq!(dev.stats().torn_sectors, 0);
}

/// Regions keep stale tail bytes beyond a newer, shorter write —
/// reusing a slot behaves like reusing a file, which is why the
/// commit record must carry the payload length.
#[test]
fn shorter_rewrite_leaves_stale_tail() {
    let mut dev = PersistDevice::new(1, cfg());
    dev.write(0, 0, &[3u8; 64]);
    let drained = dev.flush(at_us(0));
    dev.settle(drained);
    dev.write(0, 0, &[4u8; 16]);
    let drained = dev.flush(drained);
    dev.settle(drained);

    let media = dev.read(0);
    assert_eq!(media.len(), 64);
    assert_eq!(&media[..16], &[4u8; 16][..]);
    assert_eq!(&media[16..], &[3u8; 48][..]);
}

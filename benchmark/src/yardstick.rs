//! The yardstick: a fixed synthetic kernel timed beside every
//! measurement, so host time can be reported at a nominal machine
//! speed.
//!
//! The box this benchmark runs on is a 2-vCPU VM whose speed shifts by
//! 30–40 % for minutes at a time (noisy neighbours: steal time,
//! shared-cache and memory contention), on top of ±10 % jitter from
//! pass to pass. No amount of repetition inside a run averages a
//! minutes-long phase away, and a raw wall-clock number from one phase
//! is not comparable with one from another. So every timed pass is
//! interleaved with slices of this kernel, which does a fixed amount
//! of work of the same two kinds as the simulator's — thread hand-offs
//! over `std::sync::mpsc` (the conductor's primitive: futex wake,
//! context switch) and a scatter loop over a buffer too large for the
//! private caches (what a neighbour thrashing the shared cache slows)
//! — and calls nothing in `rsdsm`, so no change to the repository can
//! move it. The pass's host time is then scaled by `nominal yardstick
//! time ÷ measured yardstick time`. On a quiet machine of this box's
//! speed the factor is ≈ 1 and nominal seconds are real seconds.
//!
//! Which mix tracks the simulator best depends on the kind of noise:
//! measured against the same passes, hand-offs alone won when the
//! noise was steal time, a 32 MB scatter alone when it was cache
//! contention (9 % residual spread against 15–19 % for hand-offs or a
//! cache-resident scatter), and the mix was never far from the better
//! of the two. See the README, "At nominal machine speed".

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Hand-off round trips per chunk.
const ROUND_TRIPS: u32 = 2_000;
/// Scatter-loop iterations per chunk.
const SCATTER_STEPS: u64 = 700_000;
/// Scatter buffer: 2 Mi words = 16 MB, beyond the private caches and
/// a good part of the shared one. (It is resident for the worker's
/// whole life, so `peak_rss_mb` includes it.)
const SCRATCH_WORDS: usize = 1 << 21;

/// What one chunk takes on the nominal machine: this box when quiet
/// (≈ 3 µs per round trip, ≈ 9 ns per scatter step). Calibrated so
/// that a `paper8` pass reads ≈ 2.2 s both on the clock of a quiet
/// box and in nominal seconds.
pub const NOMINAL_CHUNK_S: f64 = 0.0125;

pub struct Yardstick {
    to_partner: Option<Sender<u64>>,
    from_partner: Receiver<u64>,
    partner: Option<JoinHandle<()>>,
    scratch: Vec<u64>,
    state: u64,
    token: u64,
}

impl Yardstick {
    /// Starts the partner thread the hand-offs bounce off. It lives
    /// as long as the yardstick, so a slice costs no thread spawn.
    pub fn new() -> Self {
        let (to_partner, partner_rx) = channel::<u64>();
        let (partner_tx, from_partner) = channel::<u64>();
        let partner = std::thread::spawn(move || {
            while let Ok(token) = partner_rx.recv() {
                if partner_tx.send(token.wrapping_add(1)).is_err() {
                    break;
                }
            }
        });
        Yardstick {
            to_partner: Some(to_partner),
            from_partner,
            partner: Some(partner),
            // Written, not just reserved: the scatter must never pay a
            // first-touch page fault inside a timed slice.
            scratch: vec![1; SCRATCH_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
            token: 0,
        }
    }

    /// Runs `chunks` chunks of the kernel; returns the seconds taken.
    pub fn run(&mut self, chunks: usize) -> f64 {
        let to_partner = self.to_partner.as_ref().expect("partner lives until drop");
        let start = Instant::now();
        for _ in 0..chunks {
            for _ in 0..ROUND_TRIPS {
                to_partner.send(self.token).expect("partner is alive");
                self.token = self.from_partner.recv().expect("partner is alive");
            }
            let mut x = self.state;
            for i in 0..SCATTER_STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = x as usize & (SCRATCH_WORDS - 1);
                self.scratch[slot] = self.scratch[slot].wrapping_add(x ^ i);
            }
            self.state = x;
        }
        black_box(&self.scratch);
        start.elapsed().as_secs_f64()
    }
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        // Closing the channel ends the partner's loop.
        self.to_partner = None;
        if let Some(partner) = self.partner.take() {
            let _ = partner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_shuts_down() {
        let mut yardstick = Yardstick::new();
        assert!(yardstick.run(1) > 0.0);
        assert_eq!(yardstick.token, u64::from(ROUND_TRIPS));
    }
}

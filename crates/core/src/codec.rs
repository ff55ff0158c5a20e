//! The little-endian byte codec the crate's binary formats are built
//! from: `RTR1` traces and the `RCK1`/`RSG2`/`RCM2` checkpoint images.
//! One bounds-checked reader and one writer trait; each format hands
//! the reader the error it reports when the bytes run out.

use rsdsm_protocol::Diff;

/// Reads fields off the front of a byte string, never past its end.
pub(crate) struct Cursor<'a, E> {
    /// The bytes not yet read.
    rest: &'a [u8],
    /// What a read past the end returns: the format's own truncation.
    truncated: E,
}

impl<'a, E: Clone> Cursor<'a, E> {
    pub(crate) fn new(rest: &'a [u8], truncated: E) -> Self {
        Cursor { rest, truncated }
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], E> {
        let Some((head, rest)) = self.rest.split_at_checked(n) else {
            return Err(self.truncated.clone());
        };
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], E> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, E> {
        self.array().map(u8::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, E> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, E> {
        self.array().map(u64::from_le_bytes)
    }
}

/// Where an encoder's bytes go.
pub(crate) trait Sink {
    fn put(&mut self, bytes: &[u8]);

    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// `diff`'s run count, then each run as offset, length and bytes.
    fn diff_runs(&mut self, diff: &Diff) {
        self.u32(diff.run_count() as u32);
        for (offset, bytes) in diff.runs() {
            self.u32(offset as u32);
            self.u32(bytes.len() as u32);
            self.put(bytes);
        }
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

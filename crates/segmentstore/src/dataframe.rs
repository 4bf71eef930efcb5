//! Data frames: the container's second level of batching (§4.1).
//!
//! The segment container aggregates multiple segment operations into a data
//! frame and writes the frame to the WAL. When the processing queue runs
//! dry, the builder waits for
//!
//! ```text
//! Delay = RecentLatency · (1 − AvgWriteSize / MaxFrameSize)
//! ```
//!
//! before closing the frame: high recent fill rates mean throughput is
//! already maximized (don't wait), underutilized frames justify waiting a
//! little for more operations to batch together.

#![warn(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]

use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use pravega_common::buf::{crc32c, get_bytes, get_u32, get_u64, DecodeError};

use crate::operations::Operation;

const FRAME_MAGIC: u32 = 0x5052_4652; // "PRFR"

/// Frame header: magic, op count, payload CRC, payload length (u32 each).
const FRAME_HEADER_BYTES: usize = 16;

/// A frame buffer with the header region reserved; fields are backfilled at
/// seal time so the payload never has to be copied behind a header.
fn fresh_frame_buf() -> BytesMut {
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_BYTES);
    buf.put_slice(&[0u8; FRAME_HEADER_BYTES]);
    buf
}

/// Backfills a big-endian u32 at `at`; silently skips an out-of-range slot
/// (cannot happen for in-bounds header offsets, and must not panic).
fn put_u32_at(buf: &mut BytesMut, at: usize, v: u32) {
    if let Some(slot) = buf.get_mut(at..at.saturating_add(4)) {
        slot.copy_from_slice(&v.to_be_bytes());
    }
}

/// Computes the adaptive batching delay of §4.1.
///
/// `recent_latency` is the smoothed recent WAL append latency,
/// `avg_write_size` the smoothed recent frame size, `max_frame_size` the
/// frame capacity. The result is capped at `max_delay`.
pub fn batch_delay(
    recent_latency: Duration,
    avg_write_size: f64,
    max_frame_size: f64,
    max_delay: Duration,
) -> Duration {
    let fill = (avg_write_size / max_frame_size).clamp(0.0, 1.0);
    let delay = recent_latency.mul_f64(1.0 - fill);
    delay.min(max_delay)
}

/// Accumulates serialized operations into a frame.
///
/// The frame buffer starts with [`FRAME_HEADER_BYTES`] reserved bytes and
/// operations are encoded directly behind them, so sealing backfills the
/// header in place instead of copying the payload into a fresh buffer, and
/// each operation encodes straight into the frame instead of staging
/// through a per-op scratch buffer (its length slot is backfilled too).
#[derive(Debug)]
pub struct DataFrameBuilder {
    max_frame_bytes: usize,
    buf: BytesMut,
    ops: u32,
    first_seq: Option<u64>,
    last_seq: Option<u64>,
}

impl DataFrameBuilder {
    /// Creates a builder with the given frame capacity.
    pub fn new(max_frame_bytes: usize) -> Self {
        Self {
            max_frame_bytes,
            buf: fresh_frame_buf(),
            ops: 0,
            first_seq: None,
            last_seq: None,
        }
    }

    /// Appends `(seq, op)` to the frame, encoding the operation in place.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "an operation's data arrived in a protocol frame of at most MAX_FRAME_BYTES \
                  (16 MiB), and a frame is sealed once it reaches `max_frame_bytes`, so its \
                  length word and op count stay far below u32::MAX"
    )]
    pub fn push_op(&mut self, seq: u64, op: &Operation) {
        self.buf.put_u64(seq);
        let len_at = self.buf.len();
        self.buf.put_u32(0); // length slot, backfilled below
        let op_start = self.buf.len();
        op.encode(&mut self.buf);
        let op_len = self.buf.len().saturating_sub(op_start);
        put_u32_at(&mut self.buf, len_at, op_len as u32);
        self.ops += 1;
        if self.first_seq.is_none() {
            self.first_seq = Some(seq);
        }
        self.last_seq = Some(seq);
    }

    /// Current payload size in bytes.
    pub fn len(&self) -> usize {
        self.buf.len().saturating_sub(FRAME_HEADER_BYTES)
    }

    /// Whether the builder holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    /// Number of operations buffered.
    pub fn op_count(&self) -> u32 {
        self.ops
    }

    /// Whether adding more data would exceed the frame capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.max_frame_bytes
    }

    /// Seals the frame (header backfill, no payload copy) and resets the
    /// builder. Returns `Ok(None)` if empty.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the internal buffer is shorter than the reserved
    /// header — builder state corruption. CRC-ing a guessed payload here
    /// would produce a frame that decodes cleanly to the wrong bytes, so a
    /// short buffer must surface as an error, never be papered over. Also
    /// [`DecodeError`] if the payload is 4 GiB or more, which its u32
    /// length word cannot hold.
    pub fn seal_frame(&mut self) -> Result<Option<Bytes>, DecodeError> {
        if self.is_empty() {
            return Ok(None);
        }
        let ops = self.ops;
        let mut frame = std::mem::replace(&mut self.buf, fresh_frame_buf());
        self.ops = 0;
        self.first_seq = None;
        self.last_seq = None;
        let Some(payload) = frame.get(FRAME_HEADER_BYTES..) else {
            return Err(DecodeError::new(
                "frame buffer shorter than its header: builder state corrupt",
            ));
        };
        let crc = crc32c(payload);
        let payload_len = frame.len().saturating_sub(FRAME_HEADER_BYTES);
        put_u32_at(&mut frame, 0, FRAME_MAGIC);
        put_u32_at(&mut frame, 4, ops);
        put_u32_at(&mut frame, 8, crc);
        let Ok(payload_len) = u32::try_from(payload_len) else {
            return Err(DecodeError::new("frame payload over 4 GiB"));
        };
        put_u32_at(&mut frame, 12, payload_len);
        Ok(Some(frame.freeze()))
    }
}

/// Decodes a frame into its `(seq, op)` pairs.
///
/// # Errors
///
/// [`DecodeError`] on bad magic, CRC mismatch or truncation.
pub fn decode_frame(frame: &Bytes) -> Result<Vec<(u64, Operation)>, DecodeError> {
    let mut buf = frame.clone();
    if get_u32(&mut buf, "frame magic")? != FRAME_MAGIC {
        return Err(DecodeError::new("bad frame magic"));
    }
    let count = get_u32(&mut buf, "frame op count")?;
    let crc = get_u32(&mut buf, "frame crc")?;
    let payload = get_bytes(&mut buf, "frame payload")?;
    if crc32c(&payload) != crc {
        return Err(DecodeError::new("frame crc mismatch"));
    }
    // Cap the pre-allocation: `count` is attacker-ish (read from disk before
    // the per-op decode validates it), so never trust it for a huge reserve.
    let mut items = Vec::with_capacity((count as usize).min(1024));
    let mut p = payload;
    for _ in 0..count {
        let seq = get_u64(&mut p, "op seq")?;
        let mut op_bytes = get_bytes(&mut p, "op bytes")?;
        items.push((seq, Operation::decode(&mut op_bytes)?));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pravega_common::id::WriterId;

    fn sample_op(i: u64) -> Operation {
        Operation::Append {
            segment: format!("s/t/{i}"),
            offset: i.saturating_mul(100),
            data: Bytes::from(format!("payload-{i}")),
            writer_id: WriterId(i as u128),
            last_event_number: i as i64,
            event_count: 1,
        }
    }

    #[test]
    fn frame_roundtrip() {
        let mut b = DataFrameBuilder::new(1 << 20);
        for i in 0..10u64 {
            b.push_op(i, &sample_op(i));
        }
        assert_eq!(b.op_count(), 10);
        let frame = b.seal_frame().unwrap().unwrap();
        assert!(b.is_empty());
        let items = decode_frame(&frame).unwrap();
        assert_eq!(items.len(), 10);
        for (i, (seq, op)) in items.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(op, &sample_op(i as u64));
        }
    }

    #[test]
    fn empty_builder_seals_to_none() {
        let mut b = DataFrameBuilder::new(1024);
        assert!(b.seal_frame().unwrap().is_none());
    }

    #[test]
    fn full_detection() {
        let mut b = DataFrameBuilder::new(64);
        assert!(!b.is_full());
        b.push_op(0, &sample_op(0));
        assert!(b.is_full());
    }

    #[test]
    fn corrupt_frame_detected() {
        let mut b = DataFrameBuilder::new(1024);
        b.push_op(0, &sample_op(0));
        let frame = b.seal_frame().unwrap().unwrap();
        let mut bad = frame.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(decode_frame(&Bytes::from(bad)).is_err());
        let mut wrong_magic = frame.to_vec();
        wrong_magic[0] ^= 0xff;
        assert!(decode_frame(&Bytes::from(wrong_magic)).is_err());
    }

    #[test]
    fn delay_formula_matches_paper() {
        let latency = Duration::from_millis(10);
        let max_delay = Duration::from_millis(100);
        // Empty recent frames: wait the full recent latency.
        assert_eq!(
            batch_delay(latency, 0.0, 1_000_000.0, max_delay),
            Duration::from_millis(10)
        );
        // Half-full frames: wait half the latency.
        assert_eq!(
            batch_delay(latency, 500_000.0, 1_000_000.0, max_delay),
            Duration::from_millis(5)
        );
        // Full frames: throughput already maximized, no wait.
        assert_eq!(
            batch_delay(latency, 1_000_000.0, 1_000_000.0, max_delay),
            Duration::ZERO
        );
        // Oversized average clamps to zero rather than going negative.
        assert_eq!(
            batch_delay(latency, 2_000_000.0, 1_000_000.0, max_delay),
            Duration::ZERO
        );
    }

    #[test]
    fn delay_is_capped() {
        let delay = batch_delay(
            Duration::from_secs(10),
            0.0,
            1_000_000.0,
            Duration::from_millis(20),
        );
        assert_eq!(delay, Duration::from_millis(20));
    }
}

//! Checked binary encode/decode helpers on top of [`bytes`].
//!
//! WAL data frames, operation serialization, and table-segment records all
//! need a compact, stable binary layout. These helpers never panic on
//! truncated input: all getters return [`DecodeError`].

#![warn(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Error produced when decoding truncated or malformed binary data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was being decoded when the error occurred.
    pub context: &'static str,
}

impl DecodeError {
    /// Creates a decode error with a static description of what failed.
    pub fn new(context: &'static str) -> Self {
        Self { context }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed binary data while decoding {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

/// Reads a `u8`, checking for truncation.
pub fn get_u8(buf: &mut impl Buf, ctx: &'static str) -> Result<u8, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::new(ctx));
    }
    Ok(buf.get_u8())
}

/// Reads a big-endian `u32`, checking for truncation.
pub fn get_u32(buf: &mut impl Buf, ctx: &'static str) -> Result<u32, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::new(ctx));
    }
    Ok(buf.get_u32())
}

/// Reads a big-endian `u64`, checking for truncation.
pub fn get_u64(buf: &mut impl Buf, ctx: &'static str) -> Result<u64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::new(ctx));
    }
    Ok(buf.get_u64())
}

/// Reads a big-endian `i64`, checking for truncation.
pub fn get_i64(buf: &mut impl Buf, ctx: &'static str) -> Result<i64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::new(ctx));
    }
    Ok(buf.get_i64())
}

/// Reads a big-endian `u128`, checking for truncation.
pub fn get_u128(buf: &mut impl Buf, ctx: &'static str) -> Result<u128, DecodeError> {
    if buf.remaining() < 16 {
        return Err(DecodeError::new(ctx));
    }
    Ok(buf.get_u128())
}

/// Writes a length-prefixed byte string (u32 length).
#[expect(
    clippy::cast_possible_truncation,
    reason = "every byte string written here travels in, or was decoded from, a protocol \
              frame, and a receiver rejects any frame over MAX_FRAME_BYTES (16 MiB)"
)]
pub fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32(data.len() as u32);
    buf.put_slice(data);
}

/// Reads a length-prefixed byte string written by [`put_bytes`].
pub fn get_bytes(buf: &mut Bytes, ctx: &'static str) -> Result<Bytes, DecodeError> {
    let len = get_u32(buf, ctx)? as usize;
    if buf.remaining() < len {
        return Err(DecodeError::new(ctx));
    }
    Ok(buf.split_to(len))
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut BytesMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string written by [`put_string`].
pub fn get_string(buf: &mut Bytes, ctx: &'static str) -> Result<String, DecodeError> {
    let raw = get_bytes(buf, ctx)?;
    String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::new(ctx))
}

pub use crate::crc32c::crc32c;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32(42);
        buf.put_u64(1 << 40);
        buf.put_i64(-5);
        buf.put_u128(u128::MAX);
        let mut b = buf.freeze();
        assert_eq!(get_u8(&mut b, "t").unwrap(), 7);
        assert_eq!(get_u32(&mut b, "t").unwrap(), 42);
        assert_eq!(get_u64(&mut b, "t").unwrap(), 1 << 40);
        assert_eq!(get_i64(&mut b, "t").unwrap(), -5);
        assert_eq!(get_u128(&mut b, "t").unwrap(), u128::MAX);
        assert!(get_u8(&mut b, "t").is_err());
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        let mut buf = BytesMut::new();
        put_string(&mut buf, "hello");
        put_bytes(&mut buf, b"\x00\x01\x02");
        let mut b = buf.freeze();
        assert_eq!(get_string(&mut b, "t").unwrap(), "hello");
        assert_eq!(get_bytes(&mut b, "t").unwrap().as_ref(), b"\x00\x01\x02");
    }

    #[test]
    fn truncated_bytes_error_not_panic() {
        let mut buf = BytesMut::new();
        buf.put_u32(100); // claims 100 bytes, provides none
        let mut b = buf.freeze();
        assert!(get_bytes(&mut b, "t").is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut b = buf.freeze();
        assert!(get_string(&mut b, "t").is_err());
    }
}

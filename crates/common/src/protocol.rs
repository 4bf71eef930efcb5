//! Binary framing for the wire protocol: what [`crate::wire`] messages look
//! like as bytes on a TCP connection.
//!
//! Every message travels in one *frame*:
//!
//! ```text
//! ┌─────────┬─────────┬──────┬────────────┬──────────────┬───────┐
//! │ length  │ version │ tag  │ request id │   payload    │ crc32c│
//! │ u32 BE  │ u8      │ u8   │ u64 BE     │ tag-specific │ u32 BE│
//! └─────────┴─────────┴──────┴────────────┴──────────────┴───────┘
//! ```
//!
//! `length` counts every byte after the length field itself (version through
//! crc inclusive), so a reader needs exactly `4 + length` bytes to own a
//! whole frame. The checksum is CRC-32C over `version..payload` (everything
//! the length covers except the checksum itself), guarding against torn or
//! corrupted frames. `version` pins the frame layout; a decoder refuses
//! frames from a future protocol revision rather than misparsing them.
//!
//! The tag space is split: request tags occupy `0x01..=0x7F`, reply tags
//! `0x81..=0xFF`, so accidentally feeding a reply stream to a request
//! decoder fails loudly with [`CodecError::UnknownTag`] instead of aliasing.
//!
//! [`FrameDecoder`] is an incremental decoder: feed it whatever byte slices
//! the transport produces (frames may arrive split across reads or many per
//! read) and pull decoded envelopes out. Malformed input never panics and
//! never hangs — every failure mode is a typed [`CodecError`].

#![warn(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::buf::{
    crc32c, get_bytes, get_i64, get_string, get_u128, get_u32, get_u64, get_u8, put_bytes,
    put_string, DecodeError,
};
use crate::id::{ScopedSegment, WriterId};
use crate::wire::{Reply, ReplyEnvelope, Request, RequestEnvelope, SegmentInfo, TableUpdateEntry};

/// Current frame-layout revision. Bump when the layout changes shape.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard ceiling on `length`: a frame advertising more than this is rejected
/// before any allocation, so a corrupt or hostile length prefix cannot make
/// the decoder buffer unbounded memory. Generous against the largest legal
/// message (a 1 MiB append block plus headers).
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Bytes in a frame that are not payload: version (1) + tag (1) +
/// request id (8) + crc (4).
const FRAME_OVERHEAD: usize = 14;

/// Typed decode failure. Every variant is a protocol error on the stream —
/// after any of these the connection is unrecoverable and must be dropped
/// (framing is lost); the decoder itself never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The frame declares a length above [`MAX_FRAME_BYTES`] (or below the
    /// fixed header size).
    BadLength {
        /// The declared length.
        declared: u64,
    },
    /// The frame checksum does not match its contents.
    BadChecksum {
        /// Checksum carried by the frame.
        expected: u32,
        /// Checksum computed over the received bytes.
        actual: u32,
    },
    /// The frame's version byte is not [`PROTOCOL_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The message tag is not assigned to any known message.
    UnknownTag {
        /// The tag byte received.
        tag: u8,
    },
    /// The payload is structurally invalid for its tag (truncated fields,
    /// bad UTF-8, unparseable segment name, trailing garbage).
    Malformed {
        /// What was being decoded when the error occurred.
        context: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadLength { declared } => {
                write!(
                    f,
                    "frame length {declared} outside [{FRAME_OVERHEAD}, {MAX_FRAME_BYTES}]"
                )
            }
            CodecError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: frame says {expected:#010x}, computed {actual:#010x}"
                )
            }
            CodecError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (speaking {PROTOCOL_VERSION})"
                )
            }
            CodecError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            CodecError::Malformed { context } => write!(f, "malformed payload: {context}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> Self {
        CodecError::Malformed { context: e.context }
    }
}

// ── message tags ────────────────────────────────────────────────────────────

mod tag {
    // Requests: 0x01..=0x7F.
    pub const CREATE_SEGMENT: u8 = 0x01;
    pub const SETUP_APPEND: u8 = 0x02;
    pub const APPEND_BLOCK: u8 = 0x03;
    pub const READ_SEGMENT: u8 = 0x04;
    pub const GET_SEGMENT_INFO: u8 = 0x05;
    pub const SEAL_SEGMENT: u8 = 0x06;
    pub const TRUNCATE_SEGMENT: u8 = 0x07;
    pub const DELETE_SEGMENT: u8 = 0x08;
    pub const GET_WRITER_ATTRIBUTE: u8 = 0x09;
    pub const TABLE_UPDATE: u8 = 0x0A;
    pub const TABLE_REMOVE: u8 = 0x0B;
    pub const TABLE_GET: u8 = 0x0C;
    pub const TABLE_ITERATE: u8 = 0x0D;

    // Replies: 0x81..=0xFF.
    pub const SEGMENT_CREATED: u8 = 0x81;
    pub const APPEND_SETUP: u8 = 0x82;
    pub const DATA_APPENDED: u8 = 0x83;
    pub const SEGMENT_READ: u8 = 0x84;
    pub const SEGMENT_INFO: u8 = 0x85;
    pub const SEGMENT_SEALED: u8 = 0x86;
    pub const SEGMENT_TRUNCATED: u8 = 0x87;
    pub const SEGMENT_DELETED: u8 = 0x88;
    pub const WRITER_ATTRIBUTE: u8 = 0x89;
    pub const TABLE_UPDATED: u8 = 0x8A;
    pub const TABLE_REMOVED: u8 = 0x8B;
    pub const TABLE_READ: u8 = 0x8C;
    pub const TABLE_ITERATED: u8 = 0x8D;
    pub const NO_SUCH_SEGMENT: u8 = 0x90;
    pub const SEGMENT_ALREADY_EXISTS: u8 = 0x91;
    pub const SEGMENT_IS_SEALED: u8 = 0x92;
    pub const CONDITIONAL_CHECK_FAILED: u8 = 0x93;
    pub const OFFSET_TRUNCATED: u8 = 0x94;
    pub const WRONG_HOST: u8 = 0x95;
    pub const CONTAINER_NOT_READY: u8 = 0x96;
    pub const INTERNAL_ERROR: u8 = 0x97;
    pub const WRITER_FENCED: u8 = 0x98;
}

// ── field helpers ───────────────────────────────────────────────────────────

fn put_segment(buf: &mut BytesMut, segment: &ScopedSegment) {
    put_string(buf, &segment.qualified_name());
}

fn get_segment(buf: &mut Bytes, ctx: &'static str) -> Result<ScopedSegment, CodecError> {
    let name = get_string(buf, ctx)?;
    ScopedSegment::parse(&name).map_err(|_| CodecError::Malformed { context: ctx })
}

fn put_opt_u64(buf: &mut BytesMut, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            buf.put_u64(v);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_u64(buf: &mut Bytes, ctx: &'static str) -> Result<Option<u64>, CodecError> {
    match get_u8(buf, ctx)? {
        0 => Ok(None),
        1 => Ok(Some(get_u64(buf, ctx)?)),
        _ => Err(CodecError::Malformed { context: ctx }),
    }
}

fn put_opt_i64(buf: &mut BytesMut, v: Option<i64>) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            buf.put_i64(v);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_i64(buf: &mut Bytes, ctx: &'static str) -> Result<Option<i64>, CodecError> {
    match get_u8(buf, ctx)? {
        0 => Ok(None),
        1 => Ok(Some(get_i64(buf, ctx)?)),
        _ => Err(CodecError::Malformed { context: ctx }),
    }
}

fn put_opt_bytes(buf: &mut BytesMut, v: Option<&Bytes>) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            put_bytes(buf, v);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_bytes(buf: &mut Bytes, ctx: &'static str) -> Result<Option<Bytes>, CodecError> {
    match get_u8(buf, ctx)? {
        0 => Ok(None),
        1 => Ok(Some(get_bytes(buf, ctx)?)),
        _ => Err(CodecError::Malformed { context: ctx }),
    }
}

fn get_bool(buf: &mut Bytes, ctx: &'static str) -> Result<bool, CodecError> {
    match get_u8(buf, ctx)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::Malformed { context: ctx }),
    }
}

/// Collection-length guard: a hostile count field must not drive a huge
/// reservation before the (bounded) payload runs out.
fn checked_len(n: u32, ctx: &'static str) -> Result<usize, CodecError> {
    let n = n as usize;
    if n > MAX_FRAME_BYTES {
        return Err(CodecError::Malformed { context: ctx });
    }
    Ok(n)
}

// ── encoding ────────────────────────────────────────────────────────────────

#[expect(
    clippy::cast_possible_truncation,
    reason = "a collection count is bounded by the frame it is encoded into, and a receiver \
              rejects any frame over MAX_FRAME_BYTES (16 MiB)"
)]
fn encode_request_payload(request: &Request, buf: &mut BytesMut) -> u8 {
    match request {
        Request::CreateSegment { segment, is_table } => {
            put_segment(buf, segment);
            buf.put_u8(u8::from(*is_table));
            tag::CREATE_SEGMENT
        }
        Request::SetupAppend { writer_id, segment } => {
            buf.put_u128(writer_id.0);
            put_segment(buf, segment);
            tag::SETUP_APPEND
        }
        Request::AppendBlock {
            writer_id,
            segment,
            last_event_number,
            event_count,
            data,
            expected_offset,
        } => {
            buf.put_u128(writer_id.0);
            put_segment(buf, segment);
            buf.put_i64(*last_event_number);
            buf.put_u32(*event_count);
            put_opt_u64(buf, *expected_offset);
            put_bytes(buf, data);
            tag::APPEND_BLOCK
        }
        Request::ReadSegment {
            segment,
            offset,
            max_bytes,
            wait_for_data,
        } => {
            put_segment(buf, segment);
            buf.put_u64(*offset);
            buf.put_u32(*max_bytes);
            buf.put_u8(u8::from(*wait_for_data));
            tag::READ_SEGMENT
        }
        Request::GetSegmentInfo { segment } => {
            put_segment(buf, segment);
            tag::GET_SEGMENT_INFO
        }
        Request::SealSegment { segment } => {
            put_segment(buf, segment);
            tag::SEAL_SEGMENT
        }
        Request::TruncateSegment { segment, offset } => {
            put_segment(buf, segment);
            buf.put_u64(*offset);
            tag::TRUNCATE_SEGMENT
        }
        Request::DeleteSegment { segment } => {
            put_segment(buf, segment);
            tag::DELETE_SEGMENT
        }
        Request::GetWriterAttribute { segment, writer_id } => {
            put_segment(buf, segment);
            buf.put_u128(writer_id.0);
            tag::GET_WRITER_ATTRIBUTE
        }
        Request::TableUpdate { segment, entries } => {
            put_segment(buf, segment);
            buf.put_u32(entries.len() as u32);
            for e in entries {
                put_bytes(buf, &e.key);
                put_bytes(buf, &e.value);
                put_opt_i64(buf, e.expected_version);
            }
            tag::TABLE_UPDATE
        }
        Request::TableRemove { segment, keys } => {
            put_segment(buf, segment);
            buf.put_u32(keys.len() as u32);
            for (key, version) in keys {
                put_bytes(buf, key);
                put_opt_i64(buf, *version);
            }
            tag::TABLE_REMOVE
        }
        Request::TableGet { segment, keys } => {
            put_segment(buf, segment);
            buf.put_u32(keys.len() as u32);
            for key in keys {
                put_bytes(buf, key);
            }
            tag::TABLE_GET
        }
        Request::TableIterate {
            segment,
            continuation,
            limit,
        } => {
            put_segment(buf, segment);
            put_opt_bytes(buf, continuation.as_ref());
            buf.put_u32(*limit);
            tag::TABLE_ITERATE
        }
    }
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "a collection count is bounded by the frame it is encoded into, and a receiver \
              rejects any frame over MAX_FRAME_BYTES (16 MiB)"
)]
fn encode_reply_payload(reply: &Reply, buf: &mut BytesMut) -> u8 {
    match reply {
        Reply::SegmentCreated => tag::SEGMENT_CREATED,
        Reply::AppendSetup { last_event_number } => {
            buf.put_i64(*last_event_number);
            tag::APPEND_SETUP
        }
        Reply::DataAppended {
            writer_id,
            last_event_number,
            current_tail,
        } => {
            buf.put_u128(writer_id.0);
            buf.put_i64(*last_event_number);
            buf.put_u64(*current_tail);
            tag::DATA_APPENDED
        }
        Reply::SegmentRead {
            offset,
            data,
            end_of_segment,
            at_tail,
        } => {
            buf.put_u64(*offset);
            buf.put_u8(u8::from(*end_of_segment));
            buf.put_u8(u8::from(*at_tail));
            put_bytes(buf, data);
            tag::SEGMENT_READ
        }
        Reply::SegmentInfo(info) => {
            put_segment(buf, &info.segment);
            buf.put_u64(info.length);
            buf.put_u64(info.start_offset);
            buf.put_u8(u8::from(info.sealed));
            buf.put_u64(info.last_modified_nanos);
            tag::SEGMENT_INFO
        }
        Reply::SegmentSealed { final_length } => {
            buf.put_u64(*final_length);
            tag::SEGMENT_SEALED
        }
        Reply::SegmentTruncated => tag::SEGMENT_TRUNCATED,
        Reply::SegmentDeleted => tag::SEGMENT_DELETED,
        Reply::WriterAttribute { last_event_number } => {
            buf.put_i64(*last_event_number);
            tag::WRITER_ATTRIBUTE
        }
        Reply::TableUpdated { versions } => {
            buf.put_u32(versions.len() as u32);
            for v in versions {
                buf.put_i64(*v);
            }
            tag::TABLE_UPDATED
        }
        Reply::TableRemoved => tag::TABLE_REMOVED,
        Reply::TableRead { values } => {
            buf.put_u32(values.len() as u32);
            for slot in values {
                match slot {
                    Some((value, version)) => {
                        buf.put_u8(1);
                        put_bytes(buf, value);
                        buf.put_i64(*version);
                    }
                    None => buf.put_u8(0),
                }
            }
            tag::TABLE_READ
        }
        Reply::TableIterated {
            entries,
            continuation,
        } => {
            buf.put_u32(entries.len() as u32);
            for (key, value, version) in entries {
                put_bytes(buf, key);
                put_bytes(buf, value);
                buf.put_i64(*version);
            }
            put_opt_bytes(buf, continuation.as_ref());
            tag::TABLE_ITERATED
        }
        Reply::NoSuchSegment => tag::NO_SUCH_SEGMENT,
        Reply::SegmentAlreadyExists => tag::SEGMENT_ALREADY_EXISTS,
        Reply::SegmentIsSealed => tag::SEGMENT_IS_SEALED,
        Reply::ConditionalCheckFailed => tag::CONDITIONAL_CHECK_FAILED,
        Reply::OffsetTruncated { start_offset } => {
            buf.put_u64(*start_offset);
            tag::OFFSET_TRUNCATED
        }
        Reply::WrongHost => tag::WRONG_HOST,
        Reply::ContainerNotReady => tag::CONTAINER_NOT_READY,
        Reply::WriterFenced => tag::WRITER_FENCED,
        Reply::InternalError(message) => {
            put_string(buf, message);
            tag::INTERNAL_ERROR
        }
    }
}

/// Backfills a big-endian u32 at `at`; silently skips an out-of-range slot
/// (cannot happen for in-bounds frame offsets, and must not panic).
fn backfill_u32(out: &mut BytesMut, at: usize, v: u32) {
    if let Some(slot) = out.get_mut(at..at.saturating_add(4)) {
        slot.copy_from_slice(&v.to_be_bytes());
    }
}

/// Writes the frame prefix (length + version + tag + request id) with the
/// length and tag slots zeroed, returning the frame's start offset. The
/// payload is then encoded directly into `out` and [`end_frame`] backfills
/// the slots — no staging buffer, no payload copy.
fn start_frame(out: &mut BytesMut, request_id: u64) -> usize {
    let frame_start = out.len();
    out.put_u32(0); // length slot, backfilled by end_frame
    out.put_u8(PROTOCOL_VERSION);
    out.put_u8(0); // tag slot, backfilled by end_frame
    out.put_u64(request_id);
    frame_start
}

/// Appends the checksum and backfills the length and tag slots written by
/// [`start_frame`].
#[expect(
    clippy::cast_possible_truncation,
    reason = "a receiver rejects any frame over MAX_FRAME_BYTES (16 MiB); a longer one \
              wraps its length word and fails there on the length bound or the CRC"
)]
fn end_frame(out: &mut BytesMut, frame_start: usize, tag: u8) {
    let body_start = frame_start.saturating_add(4);
    if let Some(slot) = out.get_mut(body_start.saturating_add(1)) {
        *slot = tag;
    }
    let crc = crc32c(out.as_slice().get(body_start..).unwrap_or(&[]));
    out.put_u32(crc);
    let length = out.len().saturating_sub(body_start);
    backfill_u32(out, frame_start, length as u32);
}

/// Encodes a request envelope as one frame appended to `out`.
pub fn encode_request(envelope: &RequestEnvelope, out: &mut BytesMut) {
    let frame_start = start_frame(out, envelope.request_id);
    let tag = encode_request_payload(&envelope.request, out);
    end_frame(out, frame_start, tag);
}

/// Encodes a reply envelope as one frame appended to `out`.
pub fn encode_reply(envelope: &ReplyEnvelope, out: &mut BytesMut) {
    let frame_start = start_frame(out, envelope.request_id);
    let tag = encode_reply_payload(&envelope.reply, out);
    end_frame(out, frame_start, tag);
}

// ── decoding ────────────────────────────────────────────────────────────────

fn decode_request_payload(t: u8, buf: &mut Bytes) -> Result<Request, CodecError> {
    let request = match t {
        tag::CREATE_SEGMENT => Request::CreateSegment {
            segment: get_segment(buf, "CreateSegment.segment")?,
            is_table: get_bool(buf, "CreateSegment.is_table")?,
        },
        tag::SETUP_APPEND => Request::SetupAppend {
            writer_id: WriterId(get_u128(buf, "SetupAppend.writer_id")?),
            segment: get_segment(buf, "SetupAppend.segment")?,
        },
        tag::APPEND_BLOCK => Request::AppendBlock {
            writer_id: WriterId(get_u128(buf, "AppendBlock.writer_id")?),
            segment: get_segment(buf, "AppendBlock.segment")?,
            last_event_number: get_i64(buf, "AppendBlock.last_event_number")?,
            event_count: get_u32(buf, "AppendBlock.event_count")?,
            expected_offset: get_opt_u64(buf, "AppendBlock.expected_offset")?,
            data: get_bytes(buf, "AppendBlock.data")?,
        },
        tag::READ_SEGMENT => Request::ReadSegment {
            segment: get_segment(buf, "ReadSegment.segment")?,
            offset: get_u64(buf, "ReadSegment.offset")?,
            max_bytes: get_u32(buf, "ReadSegment.max_bytes")?,
            wait_for_data: get_bool(buf, "ReadSegment.wait_for_data")?,
        },
        tag::GET_SEGMENT_INFO => Request::GetSegmentInfo {
            segment: get_segment(buf, "GetSegmentInfo.segment")?,
        },
        tag::SEAL_SEGMENT => Request::SealSegment {
            segment: get_segment(buf, "SealSegment.segment")?,
        },
        tag::TRUNCATE_SEGMENT => Request::TruncateSegment {
            segment: get_segment(buf, "TruncateSegment.segment")?,
            offset: get_u64(buf, "TruncateSegment.offset")?,
        },
        tag::DELETE_SEGMENT => Request::DeleteSegment {
            segment: get_segment(buf, "DeleteSegment.segment")?,
        },
        tag::GET_WRITER_ATTRIBUTE => Request::GetWriterAttribute {
            segment: get_segment(buf, "GetWriterAttribute.segment")?,
            writer_id: WriterId(get_u128(buf, "GetWriterAttribute.writer_id")?),
        },
        tag::TABLE_UPDATE => {
            let segment = get_segment(buf, "TableUpdate.segment")?;
            let n = checked_len(get_u32(buf, "TableUpdate.count")?, "TableUpdate.count")?;
            let mut entries = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                entries.push(TableUpdateEntry {
                    key: get_bytes(buf, "TableUpdate.key")?,
                    value: get_bytes(buf, "TableUpdate.value")?,
                    expected_version: get_opt_i64(buf, "TableUpdate.expected_version")?,
                });
            }
            Request::TableUpdate { segment, entries }
        }
        tag::TABLE_REMOVE => {
            let segment = get_segment(buf, "TableRemove.segment")?;
            let n = checked_len(get_u32(buf, "TableRemove.count")?, "TableRemove.count")?;
            let mut keys = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = get_bytes(buf, "TableRemove.key")?;
                let version = get_opt_i64(buf, "TableRemove.version")?;
                keys.push((key, version));
            }
            Request::TableRemove { segment, keys }
        }
        tag::TABLE_GET => {
            let segment = get_segment(buf, "TableGet.segment")?;
            let n = checked_len(get_u32(buf, "TableGet.count")?, "TableGet.count")?;
            let mut keys = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                keys.push(get_bytes(buf, "TableGet.key")?);
            }
            Request::TableGet { segment, keys }
        }
        tag::TABLE_ITERATE => Request::TableIterate {
            segment: get_segment(buf, "TableIterate.segment")?,
            continuation: get_opt_bytes(buf, "TableIterate.continuation")?,
            limit: get_u32(buf, "TableIterate.limit")?,
        },
        other => return Err(CodecError::UnknownTag { tag: other }),
    };
    Ok(request)
}

fn decode_reply_payload(t: u8, buf: &mut Bytes) -> Result<Reply, CodecError> {
    let reply = match t {
        tag::SEGMENT_CREATED => Reply::SegmentCreated,
        tag::APPEND_SETUP => Reply::AppendSetup {
            last_event_number: get_i64(buf, "AppendSetup.last_event_number")?,
        },
        tag::DATA_APPENDED => Reply::DataAppended {
            writer_id: WriterId(get_u128(buf, "DataAppended.writer_id")?),
            last_event_number: get_i64(buf, "DataAppended.last_event_number")?,
            current_tail: get_u64(buf, "DataAppended.current_tail")?,
        },
        tag::SEGMENT_READ => Reply::SegmentRead {
            offset: get_u64(buf, "SegmentRead.offset")?,
            end_of_segment: get_bool(buf, "SegmentRead.end_of_segment")?,
            at_tail: get_bool(buf, "SegmentRead.at_tail")?,
            data: get_bytes(buf, "SegmentRead.data")?,
        },
        tag::SEGMENT_INFO => Reply::SegmentInfo(SegmentInfo {
            segment: get_segment(buf, "SegmentInfo.segment")?,
            length: get_u64(buf, "SegmentInfo.length")?,
            start_offset: get_u64(buf, "SegmentInfo.start_offset")?,
            sealed: get_bool(buf, "SegmentInfo.sealed")?,
            last_modified_nanos: get_u64(buf, "SegmentInfo.last_modified_nanos")?,
        }),
        tag::SEGMENT_SEALED => Reply::SegmentSealed {
            final_length: get_u64(buf, "SegmentSealed.final_length")?,
        },
        tag::SEGMENT_TRUNCATED => Reply::SegmentTruncated,
        tag::SEGMENT_DELETED => Reply::SegmentDeleted,
        tag::WRITER_ATTRIBUTE => Reply::WriterAttribute {
            last_event_number: get_i64(buf, "WriterAttribute.last_event_number")?,
        },
        tag::TABLE_UPDATED => {
            let n = checked_len(get_u32(buf, "TableUpdated.count")?, "TableUpdated.count")?;
            let mut versions = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                versions.push(get_i64(buf, "TableUpdated.version")?);
            }
            Reply::TableUpdated { versions }
        }
        tag::TABLE_REMOVED => Reply::TableRemoved,
        tag::TABLE_READ => {
            let n = checked_len(get_u32(buf, "TableRead.count")?, "TableRead.count")?;
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let slot = match get_u8(buf, "TableRead.present")? {
                    0 => None,
                    1 => {
                        let value = get_bytes(buf, "TableRead.value")?;
                        let version = get_i64(buf, "TableRead.version")?;
                        Some((value, version))
                    }
                    _ => {
                        return Err(CodecError::Malformed {
                            context: "TableRead.present",
                        })
                    }
                };
                values.push(slot);
            }
            Reply::TableRead { values }
        }
        tag::TABLE_ITERATED => {
            let n = checked_len(get_u32(buf, "TableIterated.count")?, "TableIterated.count")?;
            let mut entries = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = get_bytes(buf, "TableIterated.key")?;
                let value = get_bytes(buf, "TableIterated.value")?;
                let version = get_i64(buf, "TableIterated.version")?;
                entries.push((key, value, version));
            }
            let continuation = get_opt_bytes(buf, "TableIterated.continuation")?;
            Reply::TableIterated {
                entries,
                continuation,
            }
        }
        tag::NO_SUCH_SEGMENT => Reply::NoSuchSegment,
        tag::SEGMENT_ALREADY_EXISTS => Reply::SegmentAlreadyExists,
        tag::SEGMENT_IS_SEALED => Reply::SegmentIsSealed,
        tag::CONDITIONAL_CHECK_FAILED => Reply::ConditionalCheckFailed,
        tag::OFFSET_TRUNCATED => Reply::OffsetTruncated {
            start_offset: get_u64(buf, "OffsetTruncated.start_offset")?,
        },
        tag::WRONG_HOST => Reply::WrongHost,
        tag::CONTAINER_NOT_READY => Reply::ContainerNotReady,
        tag::WRITER_FENCED => Reply::WriterFenced,
        tag::INTERNAL_ERROR => Reply::InternalError(get_string(buf, "InternalError.message")?),
        other => return Err(CodecError::UnknownTag { tag: other }),
    };
    Ok(reply)
}

/// One frame extracted from the byte stream, checksum-verified but with its
/// payload not yet interpreted.
struct RawFrame {
    tag: u8,
    request_id: u64,
    payload: Bytes,
}

/// Incremental frame decoder: owns a reassembly buffer, accepts arbitrary
/// byte slices and yields whole messages.
///
/// Splitting and coalescing are invisible to callers: a frame may arrive one
/// byte at a time or many frames in one `feed`. All failure modes are typed
/// [`CodecError`]s; after an error the stream is unframed and the connection
/// must be dropped.
#[derive(Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl std::fmt::Debug for FrameDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameDecoder")
            .field("buffered", &self.buf.len())
            .finish()
    }
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw transport bytes to the reassembly buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pulls the next whole frame out of the buffer, if one is complete.
    fn next_frame(&mut self) -> Result<Option<RawFrame>, CodecError> {
        let Some(length_bytes) = self.buf.as_slice().get(..4) else {
            return Ok(None);
        };
        let declared =
            u32::from_be_bytes(length_bytes.try_into().map_err(|_| CodecError::Malformed {
                context: "frame.length",
            })?) as usize;
        if !(FRAME_OVERHEAD..=MAX_FRAME_BYTES).contains(&declared) {
            return Err(CodecError::BadLength {
                declared: declared as u64,
            });
        }
        // Both checked ops are unreachable given the range check above, but
        // the decode path must be panic-free by construction, not by proof.
        let whole = declared.checked_add(4).ok_or(CodecError::Malformed {
            context: "frame.length",
        })?;
        let covered_len = declared.checked_sub(4).ok_or(CodecError::Malformed {
            context: "frame.length",
        })?;
        if self.buf.len() < whole {
            return Ok(None);
        }
        let mut frame = self.buf.split_to(whole).freeze();
        frame.advance(4);
        let crc_declared = {
            let tail = frame
                .as_slice()
                .get(covered_len..)
                .ok_or(CodecError::Malformed {
                    context: "frame.crc",
                })?;
            u32::from_be_bytes(tail.try_into().map_err(|_| CodecError::Malformed {
                context: "frame.crc",
            })?)
        };
        let covered = frame
            .as_slice()
            .get(..covered_len)
            .ok_or(CodecError::Malformed {
                context: "frame.crc",
            })?;
        let crc_actual = crc32c(covered);
        if crc_actual != crc_declared {
            return Err(CodecError::BadChecksum {
                expected: crc_declared,
                actual: crc_actual,
            });
        }
        let mut body = frame.slice(..covered_len);
        let version = get_u8(&mut body, "frame.version")?;
        if version != PROTOCOL_VERSION {
            return Err(CodecError::BadVersion { got: version });
        }
        let tag = get_u8(&mut body, "frame.tag")?;
        let request_id = get_u64(&mut body, "frame.request_id")?;
        Ok(Some(RawFrame {
            tag,
            request_id,
            payload: body,
        }))
    }

    /// Decodes the next complete request frame; `Ok(None)` means more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]; the stream is then unframed and must be dropped.
    pub fn next_request(&mut self) -> Result<Option<RequestEnvelope>, CodecError> {
        let Some(frame) = self.next_frame()? else {
            return Ok(None);
        };
        let mut payload = frame.payload;
        let request = decode_request_payload(frame.tag, &mut payload)?;
        if !payload.is_empty() {
            return Err(CodecError::Malformed {
                context: "request.trailing_bytes",
            });
        }
        Ok(Some(RequestEnvelope {
            request_id: frame.request_id,
            request,
        }))
    }

    /// Decodes the next complete reply frame; `Ok(None)` means more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]; the stream is then unframed and must be dropped.
    pub fn next_reply(&mut self) -> Result<Option<ReplyEnvelope>, CodecError> {
        let Some(frame) = self.next_frame()? else {
            return Ok(None);
        };
        let mut payload = frame.payload;
        let reply = decode_reply_payload(frame.tag, &mut payload)?;
        if !payload.is_empty() {
            return Err(CodecError::Malformed {
                context: "reply.trailing_bytes",
            });
        }
        Ok(Some(ReplyEnvelope {
            request_id: frame.request_id,
            reply,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ScopedStream, SegmentId};

    fn seg() -> ScopedSegment {
        ScopedStream::new("s", "t")
            .unwrap()
            .segment(SegmentId::new(1, 2))
    }

    #[test]
    fn request_roundtrip_through_decoder() {
        let env = RequestEnvelope {
            request_id: 77,
            request: Request::AppendBlock {
                writer_id: WriterId(42),
                segment: seg(),
                last_event_number: 9,
                event_count: 3,
                data: Bytes::from_static(b"abcdef"),
                expected_offset: Some(128),
            },
        };
        let mut out = BytesMut::new();
        encode_request(&env, &mut out);
        let mut dec = FrameDecoder::new();
        dec.feed(out.as_slice());
        let got = dec.next_request().unwrap().unwrap();
        assert_eq!(got, env);
        assert!(dec.next_request().unwrap().is_none());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn reply_roundtrip_through_decoder() {
        let env = ReplyEnvelope {
            request_id: 5,
            reply: Reply::SegmentRead {
                offset: 11,
                data: Bytes::from_static(b"xyz"),
                end_of_segment: false,
                at_tail: true,
            },
        };
        let mut out = BytesMut::new();
        encode_reply(&env, &mut out);
        let mut dec = FrameDecoder::new();
        dec.feed(out.as_slice());
        assert_eq!(dec.next_reply().unwrap().unwrap(), env);
    }

    #[test]
    fn split_feed_reassembles() {
        let env = RequestEnvelope {
            request_id: 1,
            request: Request::GetSegmentInfo { segment: seg() },
        };
        let mut out = BytesMut::new();
        encode_request(&env, &mut out);
        let mut dec = FrameDecoder::new();
        for b in out.as_slice() {
            assert!(dec.next_request().unwrap().is_none() || false);
            dec.feed(&[*b]);
        }
        assert_eq!(dec.next_request().unwrap().unwrap(), env);
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let env = RequestEnvelope {
            request_id: 1,
            request: Request::SealSegment { segment: seg() },
        };
        let mut out = BytesMut::new();
        encode_request(&env, &mut out);
        let mut bytes = out.as_slice().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(matches!(
            dec.next_request(),
            Err(CodecError::BadChecksum { .. })
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(u32::MAX).to_be_bytes());
        assert!(matches!(
            dec.next_request(),
            Err(CodecError::BadLength { .. })
        ));
    }
}

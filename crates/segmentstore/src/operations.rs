//! Container operations: "every request that modifies a segment is converted
//! into an operation and queued up for processing" (§4.1).
//!
//! Operations are serialized into WAL data frames, so each has a stable
//! binary encoding. Application is **idempotent** (appends carry explicit
//! offsets, attributes advance monotonically, seals/truncates are max/flags)
//! so recovery can replay any retained suffix of the log over a metadata
//! checkpoint.

use bytes::{BufMut, Bytes, BytesMut};
use pravega_common::buf::{
    get_bytes, get_i64, get_string, get_u128, get_u32, get_u64, get_u8, put_bytes, put_string,
    DecodeError,
};
use pravega_common::id::WriterId;

/// A single key update inside a [`Operation::TableUpdate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntryUpdate {
    /// The key written.
    pub key: Bytes,
    /// The new value.
    pub value: Bytes,
}

/// A modification to a segment, as persisted in the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Registers a new segment.
    CreateSegment {
        /// Qualified segment name.
        segment: String,
        /// Whether the segment is a table segment.
        is_table: bool,
    },
    /// Appends bytes at a fixed offset, carrying the writer watermark used
    /// for exactly-once deduplication.
    Append {
        /// Target segment.
        segment: String,
        /// Offset the data starts at (assigned by the operation processor).
        offset: u64,
        /// The payload.
        data: Bytes,
        /// Writer that produced the events.
        writer_id: WriterId,
        /// Event number of the last event in the payload.
        last_event_number: i64,
        /// Number of events in the payload.
        event_count: u32,
    },
    /// Seals a segment (no more appends).
    Seal {
        /// Target segment.
        segment: String,
    },
    /// Moves the segment's start offset forward.
    Truncate {
        /// Target segment.
        segment: String,
        /// New start offset.
        offset: u64,
    },
    /// Deletes the segment.
    Delete {
        /// Target segment.
        segment: String,
    },
    /// Writes key/value pairs into a table segment. Versions were validated
    /// by the operation processor before the op was queued; `version` is the
    /// version each key gets (the op's sequence number).
    TableUpdate {
        /// Target table segment.
        segment: String,
        /// Entries written.
        entries: Vec<TableEntryUpdate>,
    },
    /// Removes keys from a table segment.
    TableRemove {
        /// Target table segment.
        segment: String,
        /// Keys removed.
        keys: Vec<Bytes>,
    },
    /// A snapshot of the container's metadata (§4.4): recovery seeds state
    /// from the most recent checkpoint and replays later operations.
    MetadataCheckpoint {
        /// Serialized [`crate::metadata::ContainerSnapshot`].
        snapshot: Bytes,
    },
}

impl Operation {
    /// The segment this operation targets (`None` for checkpoints).
    pub fn segment(&self) -> Option<&str> {
        match self {
            Operation::CreateSegment { segment, .. }
            | Operation::Append { segment, .. }
            | Operation::Seal { segment }
            | Operation::Truncate { segment, .. }
            | Operation::Delete { segment }
            | Operation::TableUpdate { segment, .. }
            | Operation::TableRemove { segment, .. } => Some(segment),
            Operation::MetadataCheckpoint { .. } => None,
        }
    }

    /// Binary encoding.
    pub fn encode(&self, buf: &mut BytesMut) {
        match self {
            Operation::CreateSegment { segment, is_table } => {
                buf.put_u8(1);
                put_string(buf, segment);
                buf.put_u8(*is_table as u8);
            }
            Operation::Append {
                segment,
                offset,
                data,
                writer_id,
                last_event_number,
                event_count,
            } => {
                buf.put_u8(2);
                put_string(buf, segment);
                buf.put_u64(*offset);
                buf.put_u128(writer_id.0);
                buf.put_i64(*last_event_number);
                buf.put_u32(*event_count);
                put_bytes(buf, data);
            }
            Operation::Seal { segment } => {
                buf.put_u8(3);
                put_string(buf, segment);
            }
            Operation::Truncate { segment, offset } => {
                buf.put_u8(4);
                put_string(buf, segment);
                buf.put_u64(*offset);
            }
            Operation::Delete { segment } => {
                buf.put_u8(5);
                put_string(buf, segment);
            }
            Operation::TableUpdate { segment, entries } => {
                buf.put_u8(6);
                put_string(buf, segment);
                buf.put_u32(entries.len() as u32);
                for e in entries {
                    put_bytes(buf, &e.key);
                    put_bytes(buf, &e.value);
                }
            }
            Operation::TableRemove { segment, keys } => {
                buf.put_u8(7);
                put_string(buf, segment);
                buf.put_u32(keys.len() as u32);
                for k in keys {
                    put_bytes(buf, k);
                }
            }
            Operation::MetadataCheckpoint { snapshot } => {
                buf.put_u8(8);
                put_bytes(buf, snapshot);
            }
        }
    }

    /// Decodes one operation.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or an unknown tag.
    pub fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        let tag = get_u8(buf, "op tag")?;
        Ok(match tag {
            1 => Operation::CreateSegment {
                segment: get_string(buf, "segment")?,
                is_table: get_u8(buf, "is_table")? != 0,
            },
            2 => Operation::Append {
                segment: get_string(buf, "segment")?,
                offset: get_u64(buf, "offset")?,
                writer_id: WriterId(get_u128(buf, "writer")?),
                last_event_number: get_i64(buf, "event number")?,
                event_count: get_u32(buf, "event count")?,
                data: get_bytes(buf, "append data")?,
            },
            3 => Operation::Seal {
                segment: get_string(buf, "segment")?,
            },
            4 => Operation::Truncate {
                segment: get_string(buf, "segment")?,
                offset: get_u64(buf, "offset")?,
            },
            5 => Operation::Delete {
                segment: get_string(buf, "segment")?,
            },
            6 => {
                let segment = get_string(buf, "segment")?;
                let n = get_u32(buf, "entry count")? as usize;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(TableEntryUpdate {
                        key: get_bytes(buf, "table key")?,
                        value: get_bytes(buf, "table value")?,
                    });
                }
                Operation::TableUpdate { segment, entries }
            }
            7 => {
                let segment = get_string(buf, "segment")?;
                let n = get_u32(buf, "key count")? as usize;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(get_bytes(buf, "table key")?);
                }
                Operation::TableRemove { segment, keys }
            }
            8 => Operation::MetadataCheckpoint {
                snapshot: get_bytes(buf, "checkpoint")?,
            },
            _ => return Err(DecodeError::new("unknown operation tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(op: &Operation) {
        let mut buf = BytesMut::new();
        op.encode(&mut buf);
        let mut bytes = buf.freeze();
        let decoded = Operation::decode(&mut bytes).unwrap();
        assert_eq!(&decoded, op);
        assert!(bytes.is_empty(), "no trailing bytes");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(&Operation::CreateSegment {
            segment: "s/t/0".into(),
            is_table: true,
        });
        roundtrip(&Operation::Append {
            segment: "s/t/0".into(),
            offset: 12345,
            data: Bytes::from_static(b"payload"),
            writer_id: WriterId(42),
            last_event_number: 7,
            event_count: 3,
        });
        roundtrip(&Operation::Seal {
            segment: "s/t/0".into(),
        });
        roundtrip(&Operation::Truncate {
            segment: "s/t/0".into(),
            offset: 99,
        });
        roundtrip(&Operation::Delete {
            segment: "s/t/0".into(),
        });
        roundtrip(&Operation::TableUpdate {
            segment: "tbl".into(),
            entries: vec![
                TableEntryUpdate {
                    key: Bytes::from_static(b"k1"),
                    value: Bytes::from_static(b"v1"),
                },
                TableEntryUpdate {
                    key: Bytes::from_static(b"k2"),
                    value: Bytes::new(),
                },
            ],
        });
        roundtrip(&Operation::TableRemove {
            segment: "tbl".into(),
            keys: vec![Bytes::from_static(b"k1")],
        });
        roundtrip(&Operation::MetadataCheckpoint {
            snapshot: Bytes::from_static(b"snapshot-bytes"),
        });
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut bytes = Bytes::from_static(&[99]);
        assert!(Operation::decode(&mut bytes).is_err());
    }

    #[test]
    fn truncated_append_is_an_error() {
        let mut buf = BytesMut::new();
        Operation::Append {
            segment: "s".into(),
            offset: 0,
            data: Bytes::from_static(b"abc"),
            writer_id: WriterId(1),
            last_event_number: 0,
            event_count: 1,
        }
        .encode(&mut buf);
        let full = buf.freeze();
        let mut cut = full.slice(0..full.len() - 2);
        assert!(Operation::decode(&mut cut).is_err());
    }

    #[test]
    fn segment_accessor() {
        assert_eq!(
            Operation::Seal {
                segment: "x".into()
            }
            .segment(),
            Some("x")
        );
        assert_eq!(
            Operation::MetadataCheckpoint {
                snapshot: Bytes::new()
            }
            .segment(),
            None
        );
    }

    proptest! {
        #[test]
        fn append_roundtrips_arbitrary_payloads(
            data in prop::collection::vec(any::<u8>(), 0..1024),
            offset in any::<u64>(),
            writer in any::<u128>(),
            event_number in any::<i64>(),
        ) {
            roundtrip(&Operation::Append {
                segment: "scope/stream/0.#epoch.0".into(),
                offset,
                data: Bytes::from(data),
                writer_id: WriterId(writer),
                last_event_number: event_number,
                event_count: 1,
            });
        }
    }
}

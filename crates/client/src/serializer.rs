//! Event (de)serialization.
//!
//! Applications make sense of events using serializers; internally Pravega
//! does not keep the notion of events (§2.1). On the wire the *client*
//! frames each event with a `u32` length prefix so readers can re-establish
//! boundaries.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::ClientError;

/// Maps typed events to and from bytes.
pub trait Serializer<T>: Send + Sync {
    /// Serializes an event.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serde`] on unencodable values.
    fn serialize(&self, value: &T) -> Result<Bytes, ClientError>;

    /// Deserializes an event.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serde`] on malformed payloads.
    fn deserialize(&self, data: Bytes) -> Result<T, ClientError>;
}

/// UTF-8 string events.
#[derive(Debug, Clone, Copy, Default)]
pub struct StringSerializer;

impl Serializer<String> for StringSerializer {
    fn serialize(&self, value: &String) -> Result<Bytes, ClientError> {
        Ok(Bytes::copy_from_slice(value.as_bytes()))
    }

    fn deserialize(&self, data: Bytes) -> Result<String, ClientError> {
        String::from_utf8(data.to_vec()).map_err(|e| ClientError::Serde(e.to_string()))
    }
}

/// Raw byte events (identity).
#[derive(Debug, Clone, Copy, Default)]
pub struct BytesSerializer;

impl Serializer<Bytes> for BytesSerializer {
    fn serialize(&self, value: &Bytes) -> Result<Bytes, ClientError> {
        Ok(value.clone())
    }

    fn deserialize(&self, data: Bytes) -> Result<Bytes, ClientError> {
        Ok(data)
    }
}

/// Frames a serialized event with a `u32` length prefix.
pub fn frame_event(payload: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(payload.len() + 4);
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
    buf.freeze()
}

/// Incrementally de-frames events from a byte stream.
#[derive(Debug, Default)]
pub struct EventDeframer {
    buffer: BytesMut,
}

impl EventDeframer {
    /// Creates an empty deframer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw segment bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buffer.extend_from_slice(data);
    }

    /// Payload length of the event at the front of the buffer, if the whole
    /// of it has been fed.
    fn front_event_len(&self) -> Option<usize> {
        let len_bytes = self.buffer.get(0..4)?;
        let len = u32::from_be_bytes(len_bytes.try_into().ok()?) as usize;
        (self.buffer.len() >= 4 + len).then_some(len)
    }

    /// Whether [`EventDeframer::next_event`] would return an event.
    pub fn has_event(&self) -> bool {
        self.front_event_len().is_some()
    }

    /// Pops the next complete event payload, if one is buffered.
    pub fn next_event(&mut self) -> Option<Bytes> {
        let len = self.front_event_len()?;
        self.buffer.advance(4);
        Some(self.buffer.split_to(len).freeze())
    }

    /// Drops everything buffered (the bytes were truncated away upstream).
    pub fn clear(&mut self) {
        self.buffer.clear();
    }

    /// Bytes consumed so far relative to everything fed minus what remains
    /// buffered (i.e. the number of buffered, not-yet-parsed bytes).
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_serializer_roundtrip() {
        let s = StringSerializer;
        let data = s.serialize(&"héllo".to_string()).unwrap();
        assert_eq!(s.deserialize(data).unwrap(), "héllo");
        assert!(s.deserialize(Bytes::from_static(&[0xff, 0xfe])).is_err());
    }

    #[test]
    fn frame_and_deframe_roundtrip() {
        let mut deframer = EventDeframer::new();
        let events = ["first", "second event", ""];
        for e in events {
            let framed = frame_event(&Bytes::copy_from_slice(e.as_bytes()));
            deframer.feed(&framed);
        }
        for e in events {
            assert_eq!(deframer.next_event().unwrap().as_ref(), e.as_bytes());
        }
        assert!(deframer.next_event().is_none());
    }

    #[test]
    fn deframer_handles_partial_frames() {
        let mut deframer = EventDeframer::new();
        let framed = frame_event(&Bytes::from_static(b"split-me"));
        deframer.feed(&framed[0..3]); // partial length prefix
        assert!(deframer.next_event().is_none());
        deframer.feed(&framed[3..7]); // partial payload
        assert!(deframer.next_event().is_none());
        deframer.feed(&framed[7..]);
        assert_eq!(deframer.next_event().unwrap().as_ref(), b"split-me");
        assert_eq!(deframer.buffered_bytes(), 0);
    }
}

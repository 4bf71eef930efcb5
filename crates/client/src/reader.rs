//! The event reader (§3.3): reads its assigned segments, follows successors
//! at end-of-segment, and participates in reader-group rebalancing.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pravega_common::clock;
use pravega_common::id::ScopedSegment;
use pravega_common::metrics::{Counter, Histogram, MetricsRegistry};
use pravega_common::wire::{Connection, Reply, ReplyEnvelope, Request, RequestEnvelope, Wakeup};

use crate::error::ClientError;
use crate::readergroup::ReaderGroup;
use crate::serializer::{EventDeframer, Serializer};

/// How often a reader syncs with the group (acquire/release/rebalance).
const ACQUIRE_INTERVAL: Duration = Duration::from_millis(200);
/// Read request size.
const READ_CHUNK: u32 = 256 * 1024;
/// How long a segment that answered "nothing new" is left alone before it is
/// asked again.
const TAIL_POLL: Duration = Duration::from_millis(1);

/// An event delivered by [`EventStreamReader::read_next`], with its position.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRead<T> {
    /// The deserialized event.
    pub event: T,
    /// Segment it came from.
    pub segment: ScopedSegment,
    /// Offset of the first byte *after* the event (resume position).
    pub offset: u64,
}

fn disconnected(e: impl std::fmt::Display) -> ClientError {
    ClientError::Disconnected(e.to_string())
}

/// Reads one segment front to back over its own connection with exactly one
/// `ReadSegment` in flight: the moment a reply that carried data is taken,
/// the read for the bytes after it is sent, so the store fetches the next
/// range while the caller works through this one. A reply that brought
/// nothing (tail of an open segment), ended the segment, or was an error
/// leaves nothing in flight; the caller decides when to ask again.
struct SegmentFetcher {
    segment: ScopedSegment,
    connection: Connection,
    /// Next byte to request from the store.
    offset: u64,
    next_id: u64,
    /// Request id of the read in flight; a reply with any other id is not
    /// an answer to it, and is dropped.
    in_flight: Option<u64>,
}

impl SegmentFetcher {
    fn new(connection: Connection, segment: ScopedSegment, offset: u64) -> Self {
        Self {
            segment,
            connection,
            offset,
            next_id: 1,
            in_flight: None,
        }
    }

    /// Sends the read at `offset` unless one is in flight already.
    fn request(&mut self) -> Result<(), ClientError> {
        if self.in_flight.is_some() {
            return Ok(());
        }
        let request_id = self.next_id;
        self.next_id += 1;
        self.connection
            .send(RequestEnvelope {
                request_id,
                request: Request::ReadSegment {
                    segment: self.segment.clone(),
                    offset: self.offset,
                    max_bytes: READ_CHUNK,
                    wait_for_data: false,
                },
            })
            .map_err(disconnected)?;
        self.in_flight = Some(request_id);
        Ok(())
    }

    /// Abandons whatever is in flight and continues from `offset`.
    fn restart_at(&mut self, offset: u64) {
        self.in_flight = None;
        self.offset = offset;
    }

    /// The reply to the read in flight, if it has arrived.
    fn poll(&mut self) -> Result<Option<Reply>, ClientError> {
        while self.in_flight.is_some() {
            let Some(envelope) = self.connection.try_recv().map_err(disconnected)? else {
                break;
            };
            if let Some(reply) = self.accept(envelope)? {
                return Ok(Some(reply));
            }
        }
        Ok(None)
    }

    /// Blocks for the reply to the read in flight (sending it first if none
    /// is).
    fn wait(&mut self) -> Result<Reply, ClientError> {
        self.request()?;
        loop {
            let envelope = self.connection.recv().map_err(disconnected)?;
            if let Some(reply) = self.accept(envelope)? {
                return Ok(reply);
            }
        }
    }

    fn accept(&mut self, envelope: ReplyEnvelope) -> Result<Option<Reply>, ClientError> {
        if self.in_flight != Some(envelope.request_id) {
            return Ok(None);
        }
        self.in_flight = None;
        if let Reply::SegmentRead {
            data,
            end_of_segment,
            ..
        } = &envelope.reply
        {
            self.offset += data.len() as u64;
            if !data.is_empty() && !end_of_segment {
                self.request()?;
            }
        }
        Ok(Some(envelope.reply))
    }
}

struct AssignedSegment {
    fetcher: SegmentFetcher,
    /// Offset of the next event boundary not yet returned to the caller.
    consumed_offset: u64,
    deframer: EventDeframer,
    end_seen: bool,
    /// Earliest moment the next read may be sent when none is in flight.
    poll_at: Instant,
}

impl std::fmt::Debug for AssignedSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AssignedSegment")
            .field("segment", &self.fetcher.segment)
            .field("offset", &self.consumed_offset)
            .finish()
    }
}

/// Cheap handles to the reader's `client.reader.*` instruments.
struct ReaderMetrics {
    events_read: Arc<Counter>,
    read_nanos: Arc<Histogram>,
    fetch_wait_nanos: Arc<Histogram>,
}

impl ReaderMetrics {
    fn new(metrics: &MetricsRegistry) -> Self {
        Self {
            events_read: metrics.counter("client.reader.events_read"),
            read_nanos: metrics.histogram("client.reader.read_nanos"),
            fetch_wait_nanos: metrics.histogram("client.reader.fetch_wait_nanos"),
        }
    }
}

/// A single reader within a reader group.
pub struct EventStreamReader<T, S: Serializer<T>> {
    reader_id: String,
    group: Arc<ReaderGroup>,
    serializer: S,
    assigned: Vec<AssignedSegment>,
    rr_cursor: usize,
    last_acquire: Option<Instant>,
    /// Signalled by every assigned segment's connection when a reply lands.
    wakeup: Arc<Wakeup>,
    metrics: ReaderMetrics,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T, S: Serializer<T>> std::fmt::Debug for EventStreamReader<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStreamReader")
            .field("reader_id", &self.reader_id)
            .field("assigned", &self.assigned.len())
            .finish()
    }
}

impl<T, S: Serializer<T>> EventStreamReader<T, S> {
    /// Creates a reader registered in `group`.
    pub fn new(reader_id: &str, group: Arc<ReaderGroup>, serializer: S) -> Self {
        Self::new_with_metrics(reader_id, group, serializer, &MetricsRegistry::new())
    }

    /// [`EventStreamReader::new`] with an explicit registry for the reader's
    /// `client.reader.*` instruments (the cluster passes its shared one).
    pub fn new_with_metrics(
        reader_id: &str,
        group: Arc<ReaderGroup>,
        serializer: S,
        metrics: &MetricsRegistry,
    ) -> Self {
        Self {
            reader_id: reader_id.to_string(),
            group,
            serializer,
            assigned: Vec::new(),
            rr_cursor: 0,
            last_acquire: None,
            wakeup: Arc::new(Wakeup::default()),
            metrics: ReaderMetrics::new(metrics),
            _marker: std::marker::PhantomData,
        }
    }

    /// This reader's id.
    pub fn reader_id(&self) -> &str {
        &self.reader_id
    }

    /// Segments currently assigned (diagnostics).
    pub fn assigned_segments(&self) -> Vec<ScopedSegment> {
        self.assigned
            .iter()
            .map(|a| a.fetcher.segment.clone())
            .collect()
    }

    fn current_offsets(&self) -> BTreeMap<ScopedSegment, u64> {
        self.assigned
            .iter()
            .map(|a| (a.fetcher.segment.clone(), a.consumed_offset))
            .collect()
    }

    fn sync_with_group(&mut self) -> Result<(), ClientError> {
        let offsets = self.current_offsets();
        let assignment = self.group.acquire_segments(&self.reader_id, &offsets)?;
        // Drop segments no longer ours, and with each its connection: the
        // reply to a read still in flight there is never looked at.
        self.assigned
            .retain(|a| assignment.contains_key(&a.fetcher.segment));
        // Open newly acquired segments.
        for (segment, offset) in assignment {
            if self.assigned.iter().any(|a| a.fetcher.segment == segment) {
                continue;
            }
            let endpoint = self.group.controller().endpoint_for(&segment);
            let connection = self.group.factory().connect(&endpoint)?;
            connection.wake_on_reply(self.wakeup.clone());
            self.assigned.push(AssignedSegment {
                fetcher: SegmentFetcher::new(connection, segment, offset),
                consumed_offset: offset,
                deframer: EventDeframer::new(),
                end_seen: false,
                poll_at: clock::monotonic_now(),
            });
        }
        self.last_acquire = Some(clock::monotonic_now());
        Ok(())
    }

    /// Reads the next event, blocking up to `timeout`. Returns `None` when
    /// no event arrived in time (callers loop — this mirrors the real
    /// client's `readNextEvent` semantics).
    ///
    /// # Errors
    ///
    /// Connection/controller failures and deserialization errors.
    pub fn read_next(&mut self, timeout: Duration) -> Result<Option<EventRead<T>>, ClientError> {
        let started = clock::monotonic_now();
        let deadline = started + timeout;
        loop {
            let need_sync = match self.last_acquire {
                None => true,
                Some(t) => t.elapsed() >= ACQUIRE_INTERVAL || self.assigned.is_empty(),
            };
            if need_sync {
                self.sync_with_group()?;
            }
            // Round-robin over the segments: take the reply of one that has
            // run dry (which sends its next read), then serve what it holds.
            let mut completed: Vec<usize> = Vec::new();
            let mut wake_at = deadline;
            for i in 0..self.assigned.len() {
                let idx = (self.rr_cursor + i) % self.assigned.len();
                if !self.assigned[idx].deframer.has_event() {
                    match self.fetch_more(idx)? {
                        FetchOutcome::Fetching => {}
                        FetchOutcome::Idle(until) => wake_at = wake_at.min(until),
                        FetchOutcome::End => completed.push(idx),
                    }
                }
                if let Some(event) = self.pop_event(idx)? {
                    self.rr_cursor = (idx + 1) % self.assigned.len();
                    self.metrics.events_read.inc();
                    self.metrics
                        .read_nanos
                        .record(started.elapsed().as_nanos() as u64);
                    return Ok(Some(event));
                }
            }
            if !completed.is_empty() {
                for idx in completed.into_iter().rev() {
                    let done = self.assigned.remove(idx);
                    self.group
                        .segment_completed(&self.reader_id, &done.fetcher.segment)?;
                }
                // New successors may be assignable right away.
                self.last_acquire = None;
                continue;
            }
            let now = clock::monotonic_now();
            if now >= deadline {
                return Ok(None);
            }
            // Nothing buffered anywhere: sleep until a reply lands, a segment
            // at its tail is due another look, the group is, or the caller's
            // time is up. A reader that owns nothing keeps asking the group.
            let next_sync = match self.last_acquire {
                Some(at) if !self.assigned.is_empty() => at + ACQUIRE_INTERVAL,
                _ => now + TAIL_POLL,
            };
            let fetching = self.assigned.iter().any(|a| a.fetcher.in_flight.is_some());
            self.wakeup.wait_until(Some(wake_at.min(next_sync)));
            if fetching {
                self.metrics
                    .fetch_wait_nanos
                    .record(now.elapsed().as_nanos() as u64);
            }
        }
    }

    fn pop_event(&mut self, idx: usize) -> Result<Option<EventRead<T>>, ClientError> {
        let a = &mut self.assigned[idx];
        if let Some(payload) = a.deframer.next_event() {
            a.consumed_offset += 4 + payload.len() as u64;
            let event = self.serializer.deserialize(payload)?;
            return Ok(Some(EventRead {
                event,
                segment: a.fetcher.segment.clone(),
                offset: a.consumed_offset,
            }));
        }
        Ok(None)
    }

    /// Takes the reply to segment `idx`'s read if it has arrived, sending the
    /// read first if none is in flight and the segment is due one. Never
    /// blocks.
    fn fetch_more(&mut self, idx: usize) -> Result<FetchOutcome, ClientError> {
        let a = &mut self.assigned[idx];
        if a.end_seen {
            // Every buffered event has been handed out: the segment is done,
            // unless it ended in the middle of one.
            return if a.deframer.buffered_bytes() == 0 {
                Ok(FetchOutcome::End)
            } else {
                Err(ClientError::Protocol(format!(
                    "{:?} ends inside an event",
                    a.fetcher.segment
                )))
            };
        }
        if a.fetcher.in_flight.is_none() {
            if clock::monotonic_now() < a.poll_at {
                return Ok(FetchOutcome::Idle(a.poll_at));
            }
            a.fetcher.request()?;
        }
        let Some(reply) = a.fetcher.poll()? else {
            return Ok(FetchOutcome::Fetching);
        };
        match reply {
            Reply::SegmentRead {
                data,
                end_of_segment,
                ..
            } => {
                a.deframer.feed(&data);
                if end_of_segment {
                    a.end_seen = true;
                    if a.deframer.buffered_bytes() == 0 {
                        return Ok(FetchOutcome::End);
                    }
                }
                if data.is_empty() {
                    a.poll_at = clock::monotonic_now() + TAIL_POLL;
                    Ok(FetchOutcome::Idle(a.poll_at))
                } else {
                    Ok(FetchOutcome::Fetching)
                }
            }
            Reply::OffsetTruncated { start_offset } => {
                // Data below was retention-truncated; resume at the head.
                // What is buffered lies below it too, and goes with it.
                a.deframer.clear();
                a.consumed_offset = start_offset;
                a.fetcher.restart_at(start_offset);
                a.fetcher.request()?;
                Ok(FetchOutcome::Fetching)
            }
            Reply::NoSuchSegment => {
                // Segment deleted by retention: treat as ended.
                a.end_seen = true;
                Ok(FetchOutcome::End)
            }
            other => Err(ClientError::Protocol(format!(
                "unexpected read reply: {other:?}"
            ))),
        }
    }

    /// Gracefully leaves the group, releasing assigned segments at their
    /// current offsets.
    ///
    /// # Errors
    ///
    /// Synchronizer failures.
    pub fn close(mut self) -> Result<(), ClientError> {
        // Record final offsets, then go offline.
        let offsets = self.current_offsets();
        let _ = self.group.acquire_segments(&self.reader_id, &offsets);
        self.assigned.clear();
        self.group.reader_offline(&self.reader_id)
    }
}

enum FetchOutcome {
    /// Bytes were fed to the deframer, or a read is in flight whose reply
    /// will wake the reader.
    Fetching,
    /// Nothing in flight and nothing to ask for until the given moment
    /// (caught up with the tail).
    Idle(Instant),
    /// The segment is fully consumed.
    End,
}

/// Reads a segment from `offset` up to its end (or, if it is not sealed, up
/// to its current tail) as raw event payloads: a historical read outside a
/// reader group.
///
/// # Errors
///
/// Connection/protocol failures.
pub fn read_segment_events(
    connection: Connection,
    segment: &ScopedSegment,
    offset: u64,
) -> Result<Vec<Bytes>, ClientError> {
    let mut fetcher = SegmentFetcher::new(connection, segment.clone(), offset);
    let mut deframer = EventDeframer::new();
    let mut out = Vec::new();
    loop {
        match fetcher.wait()? {
            Reply::SegmentRead {
                data,
                end_of_segment,
                at_tail,
                ..
            } => {
                deframer.feed(&data);
                while let Some(event) = deframer.next_event() {
                    out.push(event);
                }
                if end_of_segment || (at_tail && data.is_empty()) {
                    return Ok(out);
                }
            }
            Reply::NoSuchSegment => return Err(ClientError::NotFound),
            other => {
                return Err(ClientError::Protocol(format!(
                    "unexpected read reply: {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::frame_event;
    use pravega_common::id::{ScopedStream, SegmentId};
    use pravega_common::wire::{connection_pair, ReplyEnvelope};

    /// `read_segment_events` rides the same fetcher as the group reader: the
    /// read after a reply that carried data is on the wire before the reply
    /// has been looked at, and nothing follows the reply that ends the
    /// segment.
    #[test]
    fn read_segment_events_keeps_one_read_in_flight_until_the_segment_ends() {
        let (client, server) = connection_pair();
        let segment = ScopedStream::new("s", "t")
            .unwrap()
            .segment(SegmentId::new(0, 0));
        let events: Vec<Bytes> = (0..5u8).map(|i| Bytes::from(vec![i; 10])).collect();
        let framed: Vec<u8> = events
            .iter()
            .flat_map(|e| frame_event(e).to_vec())
            .collect();
        // Two replies; the cut falls inside the third event.
        let cut = 2 * 14 + 5;
        let store = std::thread::spawn(move || {
            let mut offsets = Vec::new();
            for (data, end_of_segment) in [(&framed[..cut], false), (&framed[cut..], true)] {
                let envelope = server.recv().unwrap();
                let Request::ReadSegment { offset, .. } = envelope.request else {
                    panic!("expected a read, got {:?}", envelope.request);
                };
                offsets.push(offset);
                let reply = Reply::SegmentRead {
                    offset,
                    data: Bytes::copy_from_slice(data),
                    end_of_segment,
                    at_tail: false,
                };
                server
                    .send(ReplyEnvelope {
                        request_id: envelope.request_id,
                        reply,
                    })
                    .unwrap();
            }
            // Dropping the server end fails any read sent past the end.
            offsets
        });
        let got = read_segment_events(client, &segment, 0).unwrap();
        assert_eq!(got, events);
        assert_eq!(store.join().unwrap(), vec![0, cut as u64]);
    }
}

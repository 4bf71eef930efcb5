//! The event reader (§3.3): reads its assigned segments, follows successors
//! at end-of-segment, and participates in reader-group rebalancing.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pravega_common::clock;
use pravega_common::id::ScopedSegment;
use pravega_common::metrics::{Counter, Histogram, MetricsRegistry};
use pravega_common::wire::{Connection, Reply, ReplyEnvelope, Request, RequestEnvelope, Wakeup};

use crate::error::ClientError;
use crate::readergroup::ReaderGroup;
use crate::serializer::{EventDeframer, Serializer};

/// How often a reader syncs with the group (acquire/release/rebalance).
const ACQUIRE_INTERVAL: Duration = Duration::from_millis(200);
/// How often a reader that owns no segment asks the group again.
const UNASSIGNED_RESYNC: Duration = Duration::from_millis(1);
/// Read request size.
const READ_CHUNK: u32 = 256 * 1024;

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
/// `ReadSegment` in flight from the moment it opens until the segment ends.
/// Every read asks the store to wait for data: at the tail the store parks
/// it until the segment's next append, seal or delete, and answers empty
/// only when its wait bound passes. The moment a reply that did not end the
/// segment is taken, the read for the bytes after it is sent — so the store
/// fetches the next range while the caller works through this one, and a
/// caught-up segment waits at the store, not on a client timer. A reply that
/// ended the segment or was an error leaves nothing in flight.
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
    /// A fetcher at `offset`, with its first read sent.
    fn open(
        connection: Connection,
        segment: ScopedSegment,
        offset: u64,
    ) -> Result<Self, ClientError> {
        let mut fetcher = Self {
            segment,
            connection,
            offset,
            next_id: 1,
            in_flight: None,
        };
        fetcher.request()?;
        Ok(fetcher)
    }

    /// Sends the read at `offset`; it is the read in flight from now on.
    fn request(&mut self) -> Result<(), ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        self.connection
            .send(RequestEnvelope {
                request_id,
                request: Request::ReadSegment {
                    segment: self.segment.clone(),
                    offset: self.offset,
                    max_bytes: READ_CHUNK,
                    wait_for_data: true,
                },
            })
            .map_err(disconnected)?;
        self.in_flight = Some(request_id);
        Ok(())
    }

    /// Abandons whatever is in flight and reads on from `offset`.
    fn restart_at(&mut self, offset: u64) -> Result<(), ClientError> {
        self.offset = offset;
        self.request()
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
            if !end_of_segment {
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
                fetcher: SegmentFetcher::open(connection, segment, offset)?,
                consumed_offset: offset,
                deframer: EventDeframer::new(),
                end_seen: false,
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
            for i in 0..self.assigned.len() {
                let idx = (self.rr_cursor + i) % self.assigned.len();
                if !self.assigned[idx].deframer.has_event() && self.fetch_more(idx)? {
                    completed.push(idx);
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
            // Nothing buffered anywhere: sleep until a reply lands, the group
            // is due a sync, or the caller's time is up. A reader that owns
            // nothing keeps asking the group.
            let next_sync = match self.last_acquire {
                Some(at) if !self.assigned.is_empty() => at + ACQUIRE_INTERVAL,
                _ => now + UNASSIGNED_RESYNC,
            };
            let fetching = self.assigned.iter().any(|a| a.fetcher.in_flight.is_some());
            self.wakeup.wait_until(Some(deadline.min(next_sync)));
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

    /// Takes the reply to segment `idx`'s read if it has arrived; never
    /// blocks. Returns whether the segment is fully consumed.
    fn fetch_more(&mut self, idx: usize) -> Result<bool, ClientError> {
        let a = &mut self.assigned[idx];
        if a.end_seen {
            // Every buffered event has been handed out: the segment is done,
            // unless it ended in the middle of one.
            return if a.deframer.buffered_bytes() == 0 {
                Ok(true)
            } else {
                Err(ClientError::Protocol(format!(
                    "{:?} ends inside an event",
                    a.fetcher.segment
                )))
            };
        }
        let Some(reply) = a.fetcher.poll()? else {
            return Ok(false);
        };
        match reply {
            Reply::SegmentRead {
                data,
                end_of_segment,
                ..
            } => {
                a.deframer.feed(&data);
                a.end_seen = end_of_segment;
                Ok(end_of_segment && a.deframer.buffered_bytes() == 0)
            }
            Reply::OffsetTruncated { start_offset } => {
                // Data below was retention-truncated; resume at the head.
                // What is buffered lies below it too, and goes with it.
                a.deframer.clear();
                a.consumed_offset = start_offset;
                a.fetcher.restart_at(start_offset)?;
                Ok(false)
            }
            Reply::NoSuchSegment => {
                // Segment deleted by retention: treat as ended.
                a.end_seen = true;
                Ok(true)
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

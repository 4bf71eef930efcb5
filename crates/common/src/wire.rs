//! The wire protocol spoken between clients and segment stores.
//!
//! Messages carry a `request_id` so replies can be matched out of order,
//! which lets the writer pipeline appends (the client keeps sending append
//! blocks while earlier ones are still being made durable — the "batch data
//! collected on the server side" design of §4.1).
//!
//! A connection is an abstract [`Transport`]: the same [`Connection`] /
//! [`ServerEnd`] handles work over an in-process channel pair (the default,
//! used by every embedded test — see [`connection_pair`]) or over a framed
//! TCP socket (see [`crate::protocol`] for the frame layout and
//! `pravega_segmentstore`'s frontend for the server side). Client code never
//! sees which one it got.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use pravega_sync::{rank, Condvar, Mutex};

use crate::clock;
use crate::id::{ScopedSegment, WriterId};

/// In-flight messages a connection end will queue before `send` blocks.
/// Small enough that a stalled peer exerts backpressure quickly, large
/// enough to keep a pipelining writer's window full. Both the in-process
/// channel pair and the TCP pumps size their queues from this constant, so
/// the embedded transport exhibits the same §4 structural backpressure as
/// the socket path.
pub const SEND_QUEUE_DEPTH: usize = 1024;

/// A single key/value update against a table segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableUpdateEntry {
    /// The key to update.
    pub key: Bytes,
    /// The new value.
    pub value: Bytes,
    /// `None` = unconditional; `Some(-1)` = key must not exist;
    /// `Some(v >= 0)` = current version must equal `v`.
    pub expected_version: Option<i64>,
}

/// Requests a client can send to a segment store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Creates a new, empty segment.
    CreateSegment {
        /// The segment to create.
        segment: ScopedSegment,
        /// Whether to create a table segment (key-value API, §2.2).
        is_table: bool,
    },
    /// Handshake for an event writer: returns the last event number durably
    /// written by this writer, enabling exactly-once resume (§3.2).
    SetupAppend {
        /// The writer performing the handshake.
        writer_id: WriterId,
        /// The segment the writer will append to.
        segment: ScopedSegment,
    },
    /// Appends a block of events. `data` contains the concatenated event
    /// payloads; the server does not track event boundaries (§2.1), only the
    /// `(writer, event number)` watermark for deduplication.
    AppendBlock {
        /// The writer appending.
        writer_id: WriterId,
        /// Target segment.
        segment: ScopedSegment,
        /// Event number of the last event in this block.
        last_event_number: i64,
        /// Number of events in this block.
        event_count: u32,
        /// Concatenated serialized events.
        data: Bytes,
        /// If set, the append only succeeds when the current segment length
        /// equals this value (conditional append — used by the state
        /// synchronizer's optimistic concurrency, §3.3).
        expected_offset: Option<u64>,
    },
    /// Reads up to `max_bytes` from `offset`.
    ReadSegment {
        /// Segment to read.
        segment: ScopedSegment,
        /// Starting byte offset.
        offset: u64,
        /// Maximum bytes to return.
        max_bytes: u32,
        /// When true and `offset` is at the segment tail, the server holds
        /// the reply until new data arrives (tail read, §4.2).
        wait_for_data: bool,
    },
    /// Returns segment metadata.
    GetSegmentInfo {
        /// Segment to describe.
        segment: ScopedSegment,
    },
    /// Seals the segment: no further appends (used by scaling, §3.1).
    SealSegment {
        /// Segment to seal.
        segment: ScopedSegment,
    },
    /// Truncates the segment: data before `offset` becomes unreadable.
    TruncateSegment {
        /// Segment to truncate.
        segment: ScopedSegment,
        /// New start offset.
        offset: u64,
    },
    /// Deletes the segment entirely.
    DeleteSegment {
        /// Segment to delete.
        segment: ScopedSegment,
    },
    /// Returns the persisted event-number attribute for a writer.
    GetWriterAttribute {
        /// Segment holding the attribute.
        segment: ScopedSegment,
        /// Writer whose watermark to fetch.
        writer_id: WriterId,
    },
    /// Conditionally updates table-segment entries (atomic across keys).
    TableUpdate {
        /// Table segment to update.
        segment: ScopedSegment,
        /// Entries to write.
        entries: Vec<TableUpdateEntry>,
    },
    /// Removes keys from a table segment (conditional on version if given).
    TableRemove {
        /// Table segment to update.
        segment: ScopedSegment,
        /// `(key, expected_version)` pairs; `None` version = unconditional.
        keys: Vec<(Bytes, Option<i64>)>,
    },
    /// Point reads from a table segment.
    TableGet {
        /// Table segment to read.
        segment: ScopedSegment,
        /// Keys to fetch.
        keys: Vec<Bytes>,
    },
    /// Iterates table keys after `continuation` (exclusive), up to `limit`.
    TableIterate {
        /// Table segment to scan.
        segment: ScopedSegment,
        /// Resume after this key; `None` starts from the beginning.
        continuation: Option<Bytes>,
        /// Maximum entries to return.
        limit: u32,
    },
}

impl Request {
    /// The segment this request addresses (used for container routing).
    pub fn segment(&self) -> &ScopedSegment {
        match self {
            Request::CreateSegment { segment, .. }
            | Request::SetupAppend { segment, .. }
            | Request::AppendBlock { segment, .. }
            | Request::ReadSegment { segment, .. }
            | Request::GetSegmentInfo { segment }
            | Request::SealSegment { segment }
            | Request::TruncateSegment { segment, .. }
            | Request::DeleteSegment { segment }
            | Request::GetWriterAttribute { segment, .. }
            | Request::TableUpdate { segment, .. }
            | Request::TableRemove { segment, .. }
            | Request::TableGet { segment, .. }
            | Request::TableIterate { segment, .. } => segment,
        }
    }
}

/// Metadata about a segment, returned by `GetSegmentInfo`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The segment described.
    pub segment: ScopedSegment,
    /// Total bytes ever appended (the tail offset).
    pub length: u64,
    /// First readable offset (moves forward on truncation).
    pub start_offset: u64,
    /// Whether the segment is sealed.
    pub sealed: bool,
    /// Nanosecond timestamp of the last modification.
    pub last_modified_nanos: u64,
}

/// Replies a segment store sends back to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Segment created.
    SegmentCreated,
    /// Append handshake result: last durable event number for the writer
    /// (`-1` when the writer has never written to this segment).
    AppendSetup {
        /// Last durably-written event number for the handshaking writer.
        last_event_number: i64,
    },
    /// Events up to `last_event_number` are durable.
    DataAppended {
        /// The writer whose data was appended.
        writer_id: WriterId,
        /// Event number of the last durable event.
        last_event_number: i64,
        /// Segment length after the append.
        current_tail: u64,
    },
    /// Read result.
    SegmentRead {
        /// Offset the data starts at.
        offset: u64,
        /// The bytes read.
        data: Bytes,
        /// True when the segment is sealed and this read reached its end.
        end_of_segment: bool,
        /// True when the read caught up with the tail of an unsealed segment.
        at_tail: bool,
    },
    /// Segment metadata.
    SegmentInfo(SegmentInfo),
    /// Segment sealed; carries the final length.
    SegmentSealed {
        /// Final (immutable) length of the segment.
        final_length: u64,
    },
    /// Segment truncated.
    SegmentTruncated,
    /// Segment deleted.
    SegmentDeleted,
    /// Writer watermark attribute value (`-1` when absent).
    WriterAttribute {
        /// Last recorded event number for the queried writer.
        last_event_number: i64,
    },
    /// Table entries updated; returns the new version per entry.
    TableUpdated {
        /// New versions, in entry order.
        versions: Vec<i64>,
    },
    /// Table keys removed.
    TableRemoved,
    /// Table point-read result: one slot per requested key.
    TableRead {
        /// `(value, version)` per key; `None` if the key does not exist.
        values: Vec<Option<(Bytes, i64)>>,
    },
    /// Table scan result.
    TableIterated {
        /// `(key, value, version)` triples, in key order.
        entries: Vec<(Bytes, Bytes, i64)>,
        /// Pass as `continuation` to resume; `None` means the scan finished.
        continuation: Option<Bytes>,
    },

    // ---- Error replies -------------------------------------------------
    /// The addressed segment does not exist.
    NoSuchSegment,
    /// Create failed: the segment already exists.
    SegmentAlreadyExists,
    /// Append/seal refused: the segment is sealed.
    SegmentIsSealed,
    /// Conditional append or table update failed its precondition.
    ConditionalCheckFailed,
    /// Read offset is below the truncation point.
    OffsetTruncated {
        /// First readable offset.
        start_offset: u64,
    },
    /// This store no longer owns the segment's container (client must
    /// re-resolve the endpoint through the controller).
    WrongHost,
    /// The container is (re)starting and cannot serve yet.
    ContainerNotReady,
    /// The writer's append session was superseded by a newer `SetupAppend`
    /// (a reconnect fenced this connection out); reconnect and re-handshake
    /// to resume.
    WriterFenced,
    /// Unexpected server-side failure.
    InternalError(String),
}

/// A request tagged with a client-chosen id for pipelined matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id.
    pub request_id: u64,
    /// The request payload.
    pub request: Request,
}

/// A reply tagged with the id of the request it answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyEnvelope {
    /// Correlation id of the request this answers.
    pub request_id: u64,
    /// The reply payload.
    pub reply: Reply,
}

/// Error returned when the peer has gone away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionClosed;

impl std::fmt::Display for ConnectionClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "connection closed by peer")
    }
}

impl std::error::Error for ConnectionClosed {}

/// A latched wake-up for a thread that serves several connections at once.
///
/// The owner blocks in [`Wakeup::wait_until`]; a transport's receive side
/// (see [`Transport::wake_on_reply`]) and anyone else with work for the owner
/// calls [`Wakeup::wake`]. A wake-up that arrives while the owner is
/// busy is kept, so the next wait returns at once: nothing is missed between
/// a `try_recv` that found nothing and the wait that follows it.
#[derive(Debug)]
pub struct Wakeup {
    pending: Mutex<bool>,
    signal: Condvar,
}

impl Default for Wakeup {
    fn default() -> Self {
        Self {
            pending: Mutex::new(rank::WIRE_WAKEUP, false),
            signal: Condvar::new(),
        }
    }
}

impl Wakeup {
    /// Wakes the owner, or makes its next wait return immediately.
    pub fn wake(&self) {
        let mut pending = self.pending.lock();
        if !std::mem::replace(&mut *pending, true) {
            self.signal.notify_one();
        }
    }

    /// Blocks until notified or until `deadline` (forever if `None`), then
    /// clears the latch.
    pub fn wait_until(&self, deadline: Option<Instant>) {
        let mut pending = self.pending.lock();
        while !*pending {
            match deadline {
                None => self.signal.wait(&mut pending),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(clock::monotonic_now());
                    if left.is_zero() {
                        break;
                    }
                    self.signal.wait_for(&mut pending, left);
                }
            }
        }
        *pending = false;
    }
}

/// The slot a client transport keeps its owner's [`Wakeup`] in, shared with
/// whatever delivers replies into the transport's queue.
#[derive(Debug, Default)]
pub(crate) struct ReplyWakeup(OnceLock<Arc<Wakeup>>);

impl ReplyWakeup {
    pub(crate) fn register(&self, wakeup: Arc<Wakeup>) {
        // One owner per connection: a second registration is ignored.
        let _ = self.0.set(wakeup);
    }

    /// Call *after* the reply is queued (or the queue's sender is dropped),
    /// so the woken owner finds it.
    pub(crate) fn wake(&self) {
        if let Some(wakeup) = self.0.get() {
            wakeup.wake();
        }
    }
}

/// Wakes the client's [`Wakeup`] when dropped. Declared *after* the reply
/// sender in the struct that owns both, so the owner wakes to a queue that
/// already reads as disconnected.
struct WakeOnDrop(Arc<ReplyWakeup>);

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

/// Client side of a duplex message link to a segment store.
///
/// Implementations: the in-process channel pair ([`connection_pair`]) and
/// the framed TCP transport (`pravega_common::tcp`). All methods may be
/// called concurrently from multiple threads.
pub trait Transport: Send + Sync {
    /// Sends a request without waiting for the reply (pipelining).
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the peer has gone away.
    fn send(&self, envelope: RequestEnvelope) -> Result<(), ConnectionClosed>;

    /// Blocks until the next reply arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the peer has gone away.
    fn recv(&self) -> Result<ReplyEnvelope, ConnectionClosed>;

    /// Waits up to `timeout` for the next reply; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the peer has gone away.
    fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Option<ReplyEnvelope>, ConnectionClosed>;

    /// Non-blocking receive; `Ok(None)` when no reply is pending.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the peer has gone away.
    fn try_recv(&self) -> Result<Option<ReplyEnvelope>, ConnectionClosed>;

    /// Registers `wakeup` to be notified whenever a reply becomes available
    /// to [`Transport::try_recv`] or the link closes. Register before the
    /// first send: earlier arrivals are not signalled. One registration per
    /// connection; later ones are ignored.
    fn wake_on_reply(&self, wakeup: Arc<Wakeup>);
}

/// Server side of a duplex message link: receives requests, sends replies.
pub trait ServerTransport: Send + Sync {
    /// Blocks for the next request.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the client has gone away.
    fn recv(&self) -> Result<RequestEnvelope, ConnectionClosed>;

    /// Sends a reply back to the client.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the client has gone away.
    fn send(&self, envelope: ReplyEnvelope) -> Result<(), ConnectionClosed>;
}

/// Client end of a connection to a segment store.
///
/// A thin handle over an [`Transport`] implementation; cloning shares the
/// underlying link (like a duplicated socket fd).
#[derive(Clone)]
pub struct Connection {
    inner: Arc<dyn Transport>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection").finish_non_exhaustive()
    }
}

impl Connection {
    /// Wraps an arbitrary transport implementation.
    pub fn from_transport(inner: Arc<dyn Transport>) -> Self {
        Connection { inner }
    }

    /// Sends a request without waiting for the reply (pipelining).
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the server end was dropped.
    pub fn send(&self, envelope: RequestEnvelope) -> Result<(), ConnectionClosed> {
        self.inner.send(envelope)
    }

    /// Blocks until the next reply arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the server end was dropped.
    pub fn recv(&self) -> Result<ReplyEnvelope, ConnectionClosed> {
        self.inner.recv()
    }

    /// Waits up to `timeout` for the next reply; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the server end was dropped.
    pub fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        self.inner.recv_timeout(timeout)
    }

    /// Non-blocking receive; `Ok(None)` when no reply is pending.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the server end was dropped.
    pub fn try_recv(&self) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        self.inner.try_recv()
    }

    /// Has `wakeup` notified whenever [`Connection::try_recv`] would return a
    /// reply or an error; see [`Transport::wake_on_reply`].
    pub fn wake_on_reply(&self, wakeup: Arc<Wakeup>) {
        self.inner.wake_on_reply(wakeup);
    }

    /// Convenience: send one request and block for its (matching) reply.
    /// Only valid on connections not used for pipelined traffic.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the server end was dropped.
    pub fn call(&self, request_id: u64, request: Request) -> Result<Reply, ConnectionClosed> {
        self.send(RequestEnvelope {
            request_id,
            request,
        })?;
        loop {
            let env = self.recv()?;
            if env.request_id == request_id {
                return Ok(env.reply);
            }
        }
    }
}

/// Server end of a connection: receives requests, sends replies.
///
/// A thin handle over a [`ServerTransport`] implementation; cloning shares
/// the underlying link.
#[derive(Clone)]
pub struct ServerEnd {
    inner: Arc<dyn ServerTransport>,
}

impl std::fmt::Debug for ServerEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerEnd").finish_non_exhaustive()
    }
}

impl ServerEnd {
    /// Wraps an arbitrary server-side transport implementation.
    pub fn from_transport(inner: Arc<dyn ServerTransport>) -> Self {
        ServerEnd { inner }
    }

    /// Blocks for the next request; `Err` when the client hung up.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the client end was dropped.
    pub fn recv(&self) -> Result<RequestEnvelope, ConnectionClosed> {
        self.inner.recv()
    }

    /// Sends a reply back to the client.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the client end was dropped.
    pub fn send(&self, envelope: ReplyEnvelope) -> Result<(), ConnectionClosed> {
        self.inner.send(envelope)
    }
}

/// In-process client transport: a pair of crossbeam channels standing in for
/// a socket.
struct ChannelTransport {
    tx: Sender<RequestEnvelope>,
    rx: Receiver<ReplyEnvelope>,
    wakeup: Arc<ReplyWakeup>,
}

impl Transport for ChannelTransport {
    fn send(&self, envelope: RequestEnvelope) -> Result<(), ConnectionClosed> {
        self.tx.send(envelope).map_err(|_| ConnectionClosed)
    }

    fn recv(&self) -> Result<ReplyEnvelope, ConnectionClosed> {
        self.rx.recv().map_err(|_| ConnectionClosed)
    }

    fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ConnectionClosed),
        }
    }

    fn try_recv(&self) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        match self.rx.try_recv() {
            Ok(env) => Ok(Some(env)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ConnectionClosed),
        }
    }

    fn wake_on_reply(&self, wakeup: Arc<Wakeup>) {
        self.wakeup.register(wakeup);
    }
}

/// In-process server transport: the other two channel halves.
struct ChannelServerTransport {
    rx: Receiver<RequestEnvelope>,
    tx: Sender<ReplyEnvelope>,
    wakeup: WakeOnDrop,
}

impl ServerTransport for ChannelServerTransport {
    fn recv(&self) -> Result<RequestEnvelope, ConnectionClosed> {
        self.rx.recv().map_err(|_| ConnectionClosed)
    }

    fn send(&self, envelope: ReplyEnvelope) -> Result<(), ConnectionClosed> {
        self.tx.send(envelope).map_err(|_| ConnectionClosed)?;
        self.wakeup.0.wake();
        Ok(())
    }
}

/// Creates a connected in-process (client, server) pair, like
/// `socketpair(2)`. This is the embedded transport every in-process cluster
/// uses. Both directions are bounded at [`SEND_QUEUE_DEPTH`] so a stalled
/// server (or client) pushes back on the sender instead of growing an
/// unbounded queue — the same backpressure contract as the TCP transport.
pub fn connection_pair() -> (Connection, ServerEnd) {
    let (req_tx, req_rx) = bounded(SEND_QUEUE_DEPTH);
    let (rep_tx, rep_rx) = bounded(SEND_QUEUE_DEPTH);
    let wakeup = Arc::new(ReplyWakeup::default());
    (
        Connection {
            inner: Arc::new(ChannelTransport {
                tx: req_tx,
                rx: rep_rx,
                wakeup: wakeup.clone(),
            }),
        },
        ServerEnd {
            inner: Arc::new(ChannelServerTransport {
                rx: req_rx,
                tx: rep_tx,
                wakeup: WakeOnDrop(wakeup),
            }),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ScopedStream, SegmentId};

    fn seg() -> ScopedSegment {
        ScopedStream::new("s", "t")
            .unwrap()
            .segment(SegmentId::new(0, 0))
    }

    #[test]
    fn request_reply_roundtrip() {
        let (client, server) = connection_pair();
        client
            .send(RequestEnvelope {
                request_id: 1,
                request: Request::GetSegmentInfo { segment: seg() },
            })
            .unwrap();
        let req = server.recv().unwrap();
        assert_eq!(req.request_id, 1);
        server
            .send(ReplyEnvelope {
                request_id: 1,
                reply: Reply::NoSuchSegment,
            })
            .unwrap();
        let rep = client.recv().unwrap();
        assert!(matches!(rep.reply, Reply::NoSuchSegment));
    }

    /// Regression test for the unbounded in-process transport: with no
    /// receiver draining, a sender must block once `SEND_QUEUE_DEPTH`
    /// messages are queued instead of growing the queue forever. A race can
    /// only produce a false PASS here (the sender blocking is detected by
    /// the send thread *not* finishing), never a flaky failure.
    #[test]
    fn connection_pair_send_blocks_at_queue_depth() {
        let (client, _server) = connection_pair();
        let sender = std::thread::spawn(move || {
            for id in 0..=SEND_QUEUE_DEPTH as u64 {
                client
                    .send(RequestEnvelope {
                        request_id: id,
                        request: Request::GetSegmentInfo { segment: seg() },
                    })
                    .unwrap();
            }
        });
        // The sender fits SEND_QUEUE_DEPTH messages, then blocks on the
        // final send because nothing drains the server end.
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(
            !sender.is_finished(),
            "send() returned {} times with no receiver; the queue is unbounded",
            SEND_QUEUE_DEPTH + 1
        );
        // Drain one message to unblock, then let the thread exit cleanly.
        let _ = _server.recv().unwrap();
        sender.join().unwrap();
    }

    #[test]
    fn pipelined_requests_preserve_ids() {
        let (client, server) = connection_pair();
        for id in 0..10u64 {
            client
                .send(RequestEnvelope {
                    request_id: id,
                    request: Request::GetSegmentInfo { segment: seg() },
                })
                .unwrap();
        }
        for _ in 0..10 {
            let req = server.recv().unwrap();
            server
                .send(ReplyEnvelope {
                    request_id: req.request_id,
                    reply: Reply::NoSuchSegment,
                })
                .unwrap();
        }
        let mut seen = Vec::new();
        for _ in 0..10 {
            seen.push(client.recv().unwrap().request_id);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_server_closes_connection() {
        let (client, server) = connection_pair();
        drop(server);
        assert!(client
            .send(RequestEnvelope {
                request_id: 0,
                request: Request::GetSegmentInfo { segment: seg() },
            })
            .is_err());
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (client, _server) = connection_pair();
        assert_eq!(client.try_recv().unwrap().map(|e| e.request_id), None);
    }

    #[test]
    fn request_segment_routing_accessor() {
        let r = Request::SealSegment { segment: seg() };
        assert_eq!(r.segment(), &seg());
    }
}

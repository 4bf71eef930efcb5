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
//!
//! One link — a socket, or an in-process pair — carries many **channels**.
//! Every [`Connection`] either transport hands out is a channel of its link,
//! and [`Connection::channel`] opens another one on the same link. A channel
//! has its own `request_id` space, its own bounded reply queue and its own
//! [`Transport::wake_on_reply`] registration, so it behaves like a
//! connection of its own; an event writer gives each segment a channel on
//! one link per store. On the wire a channel's number rides in the bits of
//! the `request_id` above its own id space. The point where the transport
//! delivers replies (the `tcp-cli-reader` thread, the server end of the
//! in-process pair) routes each one to its channel by those bits and hands
//! the channel back the id it sent. The server never looks at them: it echoes
//! ids, as it always has.

#![warn(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]

use std::collections::HashMap;
use std::sync::Arc;
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

/// Replies a channel queues for its owner. A reply that finds the queue full
/// closes the channel instead of waiting for room: the link's other channels
/// must not stall behind one owner that stopped draining, and that owner
/// recovers like any client whose connection dropped (a writer reconnects
/// and re-runs its handshake). A channel's replies answer its own requests,
/// so the queue fills only when more than this many are outstanding and
/// unread.
pub const CHANNEL_REPLY_DEPTH: usize = 1024;

/// Low bits of a wire `request_id` that carry the channel's own id; the bits
/// above carry the channel's number.
const CHANNEL_ID_BITS: u32 = 40;

/// Largest `request_id` a channel may send. A larger one is refused with
/// [`ConnectionClosed`] and closes the channel, so it can never be answered
/// into another channel's queue.
pub const CHANNEL_ID_MAX: u64 = (1 << CHANNEL_ID_BITS) - 1;

/// Channels one link can open in its life. Numbers are never reused, so a
/// late reply for a dropped channel cannot reach a newer one.
const MAX_CHANNELS: u64 = 1 << (u64::BITS - CHANNEL_ID_BITS);

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
    /// connection (per channel, on the built-in transports); later ones are
    /// ignored.
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
/// A thin handle over a [`Transport`] implementation; cloning shares the
/// underlying channel (like a duplicated socket fd). Both built-in
/// transports hand out channels of a link, and [`Connection::channel`] opens
/// siblings on the same link (see the module docs).
#[derive(Clone)]
pub struct Connection {
    inner: Inner,
}

#[derive(Clone)]
enum Inner {
    /// A channel of one of this module's links.
    Channel(Arc<Channel>),
    /// A transport wrapped with [`Connection::from_transport`].
    Foreign(Arc<dyn Transport>),
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection").finish_non_exhaustive()
    }
}

impl Connection {
    /// Wraps an arbitrary transport implementation.
    pub fn from_transport(inner: Arc<dyn Transport>) -> Self {
        Connection {
            inner: Inner::Foreign(inner),
        }
    }

    fn transport(&self) -> &dyn Transport {
        match &self.inner {
            Inner::Channel(channel) => channel.as_ref(),
            Inner::Foreign(transport) => transport.as_ref(),
        }
    }

    /// Opens a new channel on this connection's link: a connection of its
    /// own to the same store, with its own request ids, reply queue and
    /// [`Connection::wake_on_reply`] registration, that costs no socket and
    /// no thread.
    ///
    /// # Errors
    ///
    /// [`ConnectionClosed`] once the link has closed (its socket was
    /// severed, or its server end dropped), so a dead link is never handed
    /// out again; and for a connection built with
    /// [`Connection::from_transport`], which has no link to share.
    pub fn channel(&self) -> Result<Connection, ConnectionClosed> {
        match &self.inner {
            Inner::Channel(channel) => channel.router.open_channel(&channel.requests),
            Inner::Foreign(_) => Err(ConnectionClosed),
        }
    }

    /// Sends a request without waiting for the reply (pipelining).
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the server end was dropped, or if
    /// `request_id` is above [`CHANNEL_ID_MAX`] (which closes the channel).
    pub fn send(&self, envelope: RequestEnvelope) -> Result<(), ConnectionClosed> {
        self.transport().send(envelope)
    }

    /// Blocks until the next reply arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the server end was dropped.
    pub fn recv(&self) -> Result<ReplyEnvelope, ConnectionClosed> {
        pravega_sync::blocking("Connection::recv");
        self.transport().recv()
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
        pravega_sync::blocking("Connection::recv_timeout");
        self.transport().recv_timeout(timeout)
    }

    /// Non-blocking receive; `Ok(None)` when no reply is pending.
    ///
    /// # Errors
    ///
    /// Returns [`ConnectionClosed`] if the server end was dropped.
    pub fn try_recv(&self) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        self.transport().try_recv()
    }

    /// Has `wakeup` notified whenever [`Connection::try_recv`] would return a
    /// reply or an error; see [`Transport::wake_on_reply`].
    pub fn wake_on_reply(&self, wakeup: Arc<Wakeup>) {
        self.transport().wake_on_reply(wakeup);
    }

    /// Convenience: send one request and block for its reply. Replies to
    /// this channel's other requests are skipped, so call it with nothing
    /// else outstanding on the channel; other channels' replies never reach
    /// it.
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
        pravega_sync::blocking("ServerEnd::recv");
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

/// The reply side of a link: which channel each reply belongs to.
///
/// Shared by the link's channels and by the link's reply delivery (the
/// `tcp-cli-reader` thread, or the server end of an in-process pair). It
/// holds no request sender, so it never keeps a link open.
pub(crate) struct Router {
    routes: Mutex<Routes>,
}

struct Routes {
    /// Set once the link is gone: no channel opens after that.
    closed: bool,
    /// The number the next channel gets.
    next: u64,
    /// The open channels, by number.
    open: HashMap<u64, Route>,
}

/// Where one channel's replies go.
struct Route {
    replies: Sender<ReplyEnvelope>,
    /// The owner's, from [`Transport::wake_on_reply`].
    wakeup: Option<Arc<Wakeup>>,
}

impl Route {
    fn new() -> (Route, Receiver<ReplyEnvelope>) {
        let (reply_tx, replies) = bounded(CHANNEL_REPLY_DEPTH);
        let route = Route {
            replies: reply_tx,
            wakeup: None,
        };
        (route, replies)
    }
}

/// Starts a link whose requests go into `requests`: returns its first
/// channel, and the router its replies are to be delivered through.
pub(crate) fn link(requests: Sender<RequestEnvelope>) -> (Connection, Arc<Router>) {
    let (route, replies) = Route::new();
    let routes = Routes {
        closed: false,
        next: 1,
        open: HashMap::from([(0, route)]),
    };
    let router = Arc::new(Router {
        routes: Mutex::new(rank::WIRE_ROUTES, routes),
    });
    let channel = Channel {
        requests,
        router: router.clone(),
        number: 0,
        replies,
    };
    let connection = Connection {
        inner: Inner::Channel(Arc::new(channel)),
    };
    (connection, router)
}

impl Router {
    /// Opens a channel whose requests go into `requests`, the link's queue.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "`routes.next` is checked against MAX_CHANNELS before it is incremented"
    )]
    fn open_channel(
        self: &Arc<Self>,
        requests: &Sender<RequestEnvelope>,
    ) -> Result<Connection, ConnectionClosed> {
        let (route, replies) = Route::new();
        let number = {
            let mut routes = self.routes.lock();
            if routes.closed || routes.next >= MAX_CHANNELS {
                return Err(ConnectionClosed);
            }
            let number = routes.next;
            routes.next += 1;
            routes.open.insert(number, route);
            number
        };
        let channel = Channel {
            requests: requests.clone(),
            router: self.clone(),
            number,
            replies,
        };
        Ok(Connection {
            inner: Inner::Channel(Arc::new(channel)),
        })
    }

    /// Hands `envelope` to the channel its `request_id` names, with the id
    /// that channel sent, and wakes the channel's owner. A reply for a
    /// channel that is gone is dropped; one that finds its channel's queue
    /// full closes that channel (see [`CHANNEL_REPLY_DEPTH`]).
    ///
    /// # Errors
    ///
    /// [`ConnectionClosed`] once no channel of the link is left: the client
    /// hung up.
    pub(crate) fn deliver(&self, envelope: ReplyEnvelope) -> Result<(), ConnectionClosed> {
        let number = envelope.request_id >> CHANNEL_ID_BITS;
        let reply = ReplyEnvelope {
            request_id: envelope.request_id & CHANNEL_ID_MAX,
            reply: envelope.reply,
        };
        let mut routes = self.routes.lock();
        if routes.open.is_empty() {
            return Err(ConnectionClosed);
        }
        let Some(route) = routes.open.get(&number) else {
            return Ok(());
        };
        let wakeup = match route.replies.try_send(reply) {
            Ok(()) => route.wakeup.clone(),
            Err(_) => routes.open.remove(&number).and_then(|route| route.wakeup),
        };
        drop(routes);
        // After the queue changed, so the woken owner finds the reply (or
        // the closed channel).
        if let Some(wakeup) = wakeup {
            wakeup.wake();
        }
        Ok(())
    }

    /// Closes one channel: its owner reads what is queued, then
    /// [`ConnectionClosed`].
    fn close_channel(&self, number: u64) {
        let route = self.routes.lock().open.remove(&number);
        if let Some(wakeup) = route.and_then(|route| route.wakeup) {
            wakeup.wake();
        }
    }

    /// Closes the link: every channel reads what it has queued, then
    /// [`ConnectionClosed`], and its owner is woken to find that out. No
    /// channel opens after.
    pub(crate) fn close(&self) {
        let routes = {
            let mut routes = self.routes.lock();
            routes.closed = true;
            std::mem::take(&mut routes.open)
        };
        for Route { replies, wakeup } in routes.into_values() {
            // Before the wake-up, so the owner wakes to a disconnected queue.
            drop(replies);
            if let Some(wakeup) = wakeup {
                wakeup.wake();
            }
        }
    }

    fn register(&self, number: u64, wakeup: Arc<Wakeup>) {
        let mut routes = self.routes.lock();
        if let Some(route) = routes.open.get_mut(&number) {
            // One owner per channel: a second registration is ignored.
            route.wakeup.get_or_insert(wakeup);
            return;
        }
        drop(routes);
        // The channel is closed already: its owner finds out at once.
        wakeup.wake();
    }
}

/// One channel of a link: the [`Transport`] behind every [`Connection`] the
/// built-in transports hand out.
struct Channel {
    /// The link's request queue, shared by all its channels.
    requests: Sender<RequestEnvelope>,
    router: Arc<Router>,
    number: u64,
    replies: Receiver<ReplyEnvelope>,
}

impl Transport for Channel {
    fn send(&self, envelope: RequestEnvelope) -> Result<(), ConnectionClosed> {
        if envelope.request_id > CHANNEL_ID_MAX {
            self.router.close_channel(self.number);
            return Err(ConnectionClosed);
        }
        self.requests
            .send(RequestEnvelope {
                request_id: (self.number << CHANNEL_ID_BITS) | envelope.request_id,
                request: envelope.request,
            })
            .map_err(|_| ConnectionClosed)
    }

    fn recv(&self) -> Result<ReplyEnvelope, ConnectionClosed> {
        self.replies.recv().map_err(|_| ConnectionClosed)
    }

    fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        match self.replies.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ConnectionClosed),
        }
    }

    fn try_recv(&self) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        match self.replies.try_recv() {
            Ok(env) => Ok(Some(env)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ConnectionClosed),
        }
    }

    fn wake_on_reply(&self, wakeup: Arc<Wakeup>) {
        self.router.register(self.number, wakeup);
    }
}

impl Drop for Channel {
    fn drop(&mut self) {
        self.router.close_channel(self.number);
    }
}

/// In-process server transport: the request queue's receiving end, and the
/// router replies go through.
struct PairServerTransport {
    rx: Receiver<RequestEnvelope>,
    router: Arc<Router>,
}

impl ServerTransport for PairServerTransport {
    fn recv(&self) -> Result<RequestEnvelope, ConnectionClosed> {
        self.rx.recv().map_err(|_| ConnectionClosed)
    }

    fn send(&self, envelope: ReplyEnvelope) -> Result<(), ConnectionClosed> {
        self.router.deliver(envelope)
    }
}

impl Drop for PairServerTransport {
    fn drop(&mut self) {
        // The server hung up: every channel wakes to a closed link.
        self.router.close();
    }
}

/// Creates a connected in-process (client, server) pair, like
/// `socketpair(2)`. This is the embedded transport every in-process cluster
/// uses. Requests are bounded at [`SEND_QUEUE_DEPTH`], so a stalled server
/// pushes back on the sender instead of growing an unbounded queue, and each
/// channel's replies at [`CHANNEL_REPLY_DEPTH`] — the same contract as the
/// TCP transport.
pub fn connection_pair() -> (Connection, ServerEnd) {
    let (req_tx, req_rx) = bounded(SEND_QUEUE_DEPTH);
    let (client, router) = link(req_tx);
    let server = ServerEnd {
        inner: Arc::new(PairServerTransport { rx: req_rx, router }),
    };
    (client, server)
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

    fn info(request_id: u64) -> RequestEnvelope {
        RequestEnvelope {
            request_id,
            request: Request::GetSegmentInfo { segment: seg() },
        }
    }

    fn answer(server: &ServerEnd, request_id: u64) {
        server
            .send(ReplyEnvelope {
                request_id,
                reply: Reply::NoSuchSegment,
            })
            .unwrap();
    }

    /// Drains `conn` until it reads as closed; returns the ids it got.
    fn ids_until_closed(conn: &Connection) -> Vec<u64> {
        let mut ids = Vec::new();
        loop {
            match conn.try_recv() {
                Ok(Some(env)) => ids.push(env.request_id),
                Ok(None) => panic!("channel still open after {ids:?}"),
                Err(ConnectionClosed) => return ids,
            }
        }
    }

    /// True if `wakeup` has a latched wake-up (its wait returns at once).
    fn woken(wakeup: &Wakeup) -> bool {
        let from = clock::monotonic_now();
        wakeup.wait_until(from.checked_add(std::time::Duration::from_secs(2)));
        from.elapsed() < std::time::Duration::from_secs(1)
    }

    #[test]
    fn channels_of_one_link_each_get_their_own_replies() {
        let (a, server) = connection_pair();
        let b = a.channel().unwrap();
        // Both channels use the same ids, interleaved on the one link.
        for id in 1..=5 {
            a.send(info(id)).unwrap();
            b.send(info(id)).unwrap();
        }
        let wire: Vec<u64> = (0..10).map(|_| server.recv().unwrap().request_id).collect();
        let mut distinct = wire.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 10, "wire ids must be distinct: {wire:?}");
        // Answered out of order, pipelined.
        for &id in wire.iter().rev() {
            answer(&server, id);
        }
        let got = |conn: &Connection| -> Vec<u64> {
            (0..5).map(|_| conn.recv().unwrap().request_id).collect()
        };
        assert_eq!(got(&a), vec![5, 4, 3, 2, 1]);
        assert_eq!(got(&b), vec![5, 4, 3, 2, 1]);
        assert_eq!(a.try_recv().unwrap().map(|e| e.request_id), None);
        assert_eq!(b.try_recv().unwrap().map(|e| e.request_id), None);
    }

    #[test]
    fn a_reply_for_a_dropped_channel_is_discarded() {
        let (a, server) = connection_pair();
        let b = a.channel().unwrap();
        b.send(info(1)).unwrap();
        a.send(info(1)).unwrap();
        let for_b = server.recv().unwrap().request_id;
        let for_a = server.recv().unwrap().request_id;
        drop(b);
        answer(&server, for_b);
        answer(&server, for_a);
        assert_eq!(a.recv().unwrap().request_id, 1);
        assert_eq!(a.try_recv().unwrap().map(|e| e.request_id), None);
        // A channel opened later never gets the dropped one's replies.
        let c = a.channel().unwrap();
        answer(&server, for_b);
        assert_eq!(c.try_recv().unwrap().map(|e| e.request_id), None);
    }

    #[test]
    fn dropping_the_server_end_closes_every_channel_and_wakes_each_owner() {
        let (a, server) = connection_pair();
        let b = a.channel().unwrap();
        let (wake_a, wake_b) = (Arc::new(Wakeup::default()), Arc::new(Wakeup::default()));
        a.wake_on_reply(wake_a.clone());
        b.wake_on_reply(wake_b.clone());
        b.send(info(1)).unwrap();
        answer(&server, server.recv().unwrap().request_id);
        assert!(woken(&wake_b), "a reply wakes its own channel's owner");
        drop(server);
        assert!(
            woken(&wake_a) && woken(&wake_b),
            "a closed link wakes every owner"
        );
        assert_eq!(ids_until_closed(&a), Vec::<u64>::new());
        assert_eq!(
            ids_until_closed(&b),
            vec![1],
            "queued replies are read first"
        );
    }

    #[test]
    fn no_channel_opens_on_a_closed_link() {
        let (a, server) = connection_pair();
        drop(server);
        assert_eq!(a.channel().err(), Some(ConnectionClosed));
        let foreign = Connection::from_transport(Arc::new(NoLink));
        assert_eq!(foreign.channel().err(), Some(ConnectionClosed));
    }

    #[test]
    fn an_id_past_the_channel_id_space_is_refused_not_routed() {
        let (a, server) = connection_pair();
        let b = a.channel().unwrap();
        a.send(info(CHANNEL_ID_MAX)).unwrap();
        // Shifted onto the wire, this id would carry channel 1's number plus
        // one: it would be answered into another channel's queue.
        assert_eq!(b.send(info(CHANNEL_ID_MAX + 1)), Err(ConnectionClosed));
        assert_eq!(
            ids_until_closed(&b),
            Vec::<u64>::new(),
            "the channel closed"
        );
        a.send(info(2)).unwrap();
        let first = server.recv().unwrap().request_id;
        let second = server.recv().unwrap().request_id;
        assert_eq!(first & CHANNEL_ID_MAX, CHANNEL_ID_MAX);
        assert_eq!(second & CHANNEL_ID_MAX, 2, "the refused id never left");
        answer(&server, first);
        assert_eq!(a.recv().unwrap().request_id, CHANNEL_ID_MAX);
    }

    #[test]
    fn a_channel_whose_reply_queue_fills_is_closed_alone() {
        let (a, server) = connection_pair();
        let b = a.channel().unwrap();
        let echo = std::thread::spawn(move || {
            while let Ok(req) = server.recv() {
                if server
                    .send(ReplyEnvelope {
                        request_id: req.request_id,
                        reply: Reply::NoSuchSegment,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });
        let overflow = CHANNEL_REPLY_DEPTH as u64 + 1;
        for id in 1..=overflow {
            b.send(info(id)).unwrap();
        }
        // Answered after all of b's: by then b has overflowed.
        a.send(info(7)).unwrap();
        assert_eq!(a.recv().unwrap().request_id, 7, "a is not stalled by b");
        let ids = ids_until_closed(&b);
        assert_eq!(ids, (1..overflow).collect::<Vec<_>>());
        drop((a, b));
        echo.join().unwrap();
    }

    /// A transport with no link behind it.
    struct NoLink;

    impl Transport for NoLink {
        fn send(&self, _: RequestEnvelope) -> Result<(), ConnectionClosed> {
            Err(ConnectionClosed)
        }
        fn recv(&self) -> Result<ReplyEnvelope, ConnectionClosed> {
            Err(ConnectionClosed)
        }
        fn recv_timeout(
            &self,
            _: std::time::Duration,
        ) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
            Err(ConnectionClosed)
        }
        fn try_recv(&self) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
            Err(ConnectionClosed)
        }
        fn wake_on_reply(&self, _: Arc<Wakeup>) {}
    }
}

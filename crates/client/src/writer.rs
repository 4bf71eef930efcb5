//! The event writer (§3.2, §4.1).
//!
//! Routing: an event's key hashes onto `[0, 1)`; the open segment owning
//! that position receives the event, so all events with one key hit one
//! segment between scale events.
//!
//! Batching: the writer accumulates framed events into an *append block*
//! whose target size follows the paper's heuristic —
//! `min(max_batch, rate · RTT/2)` — and ships blocks without waiting for
//! acknowledgements (pipelining). A background pump acknowledges completed
//! blocks, measures the round trip, closes stale blocks (bounding latency at
//! low rates), reconnects after failures and re-routes pending events when a
//! segment is sealed by auto-scaling. The pump polls nothing: it sleeps until
//! a reply arrives on one of its connections, an open block comes due, or
//! the writer has something else for it.
//!
//! Exactly-once: every event carries a per-writer monotonically increasing
//! event number. On (re)connection the writer handshakes with the store,
//! learns the last durable event number, and resends only what is missing;
//! the store deduplicates anything already applied (§3.2).
//!
//! Multiplexing: the writer dials one connection per store, whatever its
//! segment count, and gives each segment a channel of its own on the
//! connection to the segment's store (`pravega_common::wire`). A segment that
//! reconnects takes a new channel; a connection that closed is dialled again
//! by the first segment to find it closed.

use pravega_sync::JoinHandle;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use pravega_common::clock;
use pravega_common::future::{promise, Completer, Promise};
use pravega_common::hashing::routing_key_position;
use pravega_common::id::{ScopedStream, WriterId};
use pravega_common::metrics::{Counter, Histogram, MetricsRegistry};
use pravega_common::rate::{EwmaRate, EwmaValue};
use pravega_common::retry::RetryPolicy;
use pravega_common::wire::{Connection, Reply, Request, RequestEnvelope, Wakeup};
use pravega_controller::{ControllerService, SegmentWithRange};
use pravega_sync::{rank, Mutex};

use crate::connection::SharedConnectionFactory;
use crate::error::ClientError;
use crate::serializer::{frame_event, Serializer};

/// Writer tuning.
#[derive(Debug, Clone)]
pub struct WriterConfig {
    /// Longest an open block may wait for more events.
    pub max_batch_delay: Duration,
    /// Registry the writer's `client.writer.*` instruments register in.
    ///
    /// Defaults to a private registry; the cluster substitutes its shared
    /// one so writer metrics appear in the cluster snapshot.
    pub metrics: MetricsRegistry,
}

impl Default for WriterConfig {
    fn default() -> Self {
        Self {
            max_batch_delay: Duration::from_millis(5),
            metrics: MetricsRegistry::new(),
        }
    }
}

/// Cheap handles to the writer's instruments, resolved once at construction.
struct WriterMetrics {
    events_written: Arc<Counter>,
    batch_bytes: Arc<Histogram>,
    batch_estimate_bytes: Arc<Histogram>,
    rtt_nanos: Arc<Histogram>,
    reconnects: Arc<Counter>,
    permanent_failures: Arc<Counter>,
    flush_nanos: Arc<Histogram>,
    connections_opened: Arc<Counter>,
}

impl WriterMetrics {
    fn new(metrics: &MetricsRegistry) -> Self {
        Self {
            events_written: metrics.counter("client.writer.events_written"),
            batch_bytes: metrics.histogram("client.writer.batch_bytes"),
            batch_estimate_bytes: metrics.histogram("client.writer.batch_estimate_bytes"),
            rtt_nanos: metrics.histogram("client.writer.rtt_nanos"),
            flush_nanos: metrics.histogram("client.writer.flush_nanos"),
            reconnects: metrics.counter("client.writer.reconnects"),
            permanent_failures: metrics.counter("client.writer.permanent_failures"),
            connections_opened: metrics.counter("client.writer.connections_opened"),
        }
    }
}

/// A pending event retained until acknowledged (for resends/re-routing).
#[derive(Debug)]
struct PendingEvent {
    event_number: i64,
    routing_key: String,
    framed: Bytes,
    completer: Option<Completer<Result<(), ClientError>>>,
}

#[derive(Debug)]
struct InflightBlock {
    last_event_number: i64,
    events: Vec<PendingEvent>,
    sent_at: Instant,
}

struct OpenSegment {
    info: SegmentWithRange,
    connection: Connection,
    next_request_id: u64,
    block: BytesMut,
    block_events: Vec<PendingEvent>,
    block_opened: Option<Instant>,
    inflight: VecDeque<InflightBlock>,
    sealed: bool,
    rtt_secs: EwmaValue,
    byte_rate: EwmaRate,
    rate_origin: Instant,
}

impl std::fmt::Debug for OpenSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenSegment")
            .field("segment", &self.info.segment)
            .field("sealed", &self.sealed)
            .finish()
    }
}

struct WriterState {
    segments: Vec<OpenSegment>,
    /// One connection per store endpoint; each segment holds a channel of
    /// its store's. Dropping the writer drops these and its segments'
    /// channels, which closes the sockets.
    connections: HashMap<String, Connection>,
    next_event_number: i64,
    initialized: bool,
    failed: Option<ClientError>,
}

struct WriterShared {
    stream: ScopedStream,
    controller: Arc<ControllerService>,
    factory: SharedConnectionFactory,
    writer_id: WriterId,
    config: WriterConfig,
    state: Mutex<WriterState>,
    pending_events: AtomicUsize,
    stopped: AtomicBool,
    /// Wakes the pump: a reply or a closed link on any segment connection, a
    /// newly opened block (its close time is the pump's next deadline), a
    /// failure recorded by the application thread, or shutdown.
    pump_wakeup: Arc<Wakeup>,
    /// Wakes `flush()`: the last pending event resolved, or the writer failed.
    drained: Wakeup,
    metrics: WriterMetrics,
}

/// Writes events to a stream. Not thread-safe by design (clone-free,
/// `&mut self`), matching the real client's writer semantics; the internal
/// pump thread handles acknowledgements concurrently.
pub struct EventStreamWriter<T, S: Serializer<T>> {
    serializer: S,
    shared: Arc<WriterShared>,
    pump: Option<JoinHandle<()>>,
    _marker: PhantomData<fn(T)>,
}

impl<T, S: Serializer<T>> std::fmt::Debug for EventStreamWriter<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStreamWriter")
            .field("stream", &self.shared.stream)
            .field("writer_id", &self.shared.writer_id)
            .finish()
    }
}

impl<T, S: Serializer<T>> EventStreamWriter<T, S> {
    /// Creates a writer for `stream`.
    pub fn new(
        stream: ScopedStream,
        controller: Arc<ControllerService>,
        factory: SharedConnectionFactory,
        serializer: S,
        config: WriterConfig,
    ) -> Self {
        let metrics = WriterMetrics::new(&config.metrics);
        let shared = Arc::new(WriterShared {
            stream,
            controller,
            factory,
            writer_id: WriterId::random(),
            config,
            metrics,
            state: Mutex::new(
                rank::CLIENT_WRITER,
                WriterState {
                    segments: Vec::new(),
                    connections: HashMap::new(),
                    next_event_number: 0,
                    initialized: false,
                    failed: None,
                },
            ),
            pending_events: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            pump_wakeup: Arc::new(Wakeup::default()),
            drained: Wakeup::default(),
        });
        let pump_shared = shared.clone();
        let pump = match pravega_sync::spawn("writer-pump", move || pump_loop(pump_shared)) {
            Ok(handle) => Some(handle),
            Err(e) => {
                // No pump thread means nothing will ever flush: fail the
                // writer up front so every write surfaces a typed error.
                shared.state.lock().failed =
                    Some(ClientError::Disconnected(format!("spawn writer pump: {e}")));
                None
            }
        };
        Self {
            serializer,
            shared,
            pump,
            _marker: PhantomData,
        }
    }

    /// This writer's id (visible for tests/diagnostics).
    pub fn writer_id(&self) -> WriterId {
        self.shared.writer_id
    }

    /// The writer's serializer (used by transactions).
    pub(crate) fn serializer(&self) -> &S {
        &self.serializer
    }

    /// Begins a buffered transaction: events written to it become visible
    /// atomically (per segment) on commit. See [`crate::transaction`].
    pub fn begin_transaction(&mut self) -> crate::transaction::Transaction<'_, T, S> {
        crate::transaction::Transaction::new(self)
    }

    /// Writes an event with a routing key. Returns immediately with a
    /// promise resolved once the event is durably stored.
    pub fn write_event(
        &mut self,
        routing_key: &str,
        event: &T,
    ) -> Promise<Result<(), ClientError>> {
        let payload = match self.serializer.serialize(event) {
            Ok(p) => p,
            Err(e) => return Promise::ready(Err(e)),
        };
        self.write_raw(routing_key, payload)
    }

    /// Writes a pre-serialized event payload.
    pub fn write_raw(
        &mut self,
        routing_key: &str,
        payload: Bytes,
    ) -> Promise<Result<(), ClientError>> {
        if self.shared.stopped.load(Ordering::SeqCst) {
            return Promise::ready(Err(ClientError::Disconnected("writer closed".into())));
        }
        let framed = frame_event(&payload);
        let (completer, pr) = promise();
        let mut state = self.shared.state.lock();
        if let Some(e) = &state.failed {
            let e = e.clone();
            drop(state);
            completer.complete(Err(e.clone()));
            return pr;
        }
        if let Err(e) = ensure_initialized(&self.shared, &mut state) {
            drop(state);
            completer.complete(Err(e));
            return pr;
        }
        let position = routing_key_position(routing_key);
        let event_number = state.next_event_number;
        state.next_event_number += 1;
        self.shared.pending_events.fetch_add(1, Ordering::SeqCst);
        self.shared.metrics.events_written.inc();
        let pending = PendingEvent {
            event_number,
            routing_key: routing_key.to_string(),
            framed,
            completer: Some(completer),
        };
        if let Err(e) = route_event(&self.shared, &mut state, position, pending) {
            state.failed = Some(e);
            self.shared.pump_wakeup.wake();
        }
        pr
    }

    /// Writes a batch of pre-serialized events so that, **per segment**, the
    /// batch is appended as a single atomic operation: a reader observes
    /// either all of a segment's share of the batch or none of it, even
    /// across crashes. This is the commit path of [`crate::transaction`].
    ///
    /// Returns one promise per event, in input order.
    pub fn write_raw_atomic(
        &mut self,
        items: Vec<(String, Bytes)>,
    ) -> Vec<Promise<Result<(), ClientError>>> {
        let mut promises = Vec::with_capacity(items.len());
        if self.shared.stopped.load(Ordering::SeqCst) {
            return items
                .iter()
                .map(|_| Promise::ready(Err(ClientError::Disconnected("writer closed".into()))))
                .collect();
        }
        let mut state = self.shared.state.lock();
        if let Err(e) = ensure_initialized(&self.shared, &mut state) {
            drop(state);
            return items
                .iter()
                .map(|_| Promise::ready(Err(e.clone())))
                .collect();
        }
        let mut touched: Vec<usize> = Vec::new();
        for (routing_key, payload) in items {
            let framed = frame_event(&payload);
            let (completer, pr) = promise();
            promises.push(pr);
            let position = routing_key_position(&routing_key);
            let event_number = state.next_event_number;
            state.next_event_number += 1;
            self.shared.pending_events.fetch_add(1, Ordering::SeqCst);
            self.shared.metrics.events_written.inc();
            let pending = PendingEvent {
                event_number,
                routing_key,
                framed,
                completer: Some(completer),
            };
            match route_event_inner(&self.shared, &mut state, position, pending, true) {
                Ok(idx) => {
                    if !touched.contains(&idx) {
                        touched.push(idx);
                    }
                }
                Err(e) => {
                    state.failed = Some(e);
                    self.shared.pump_wakeup.wake();
                    break;
                }
            }
        }
        // Ship every affected block: each becomes one atomic append op on
        // its segment.
        for idx in touched {
            if idx < state.segments.len() {
                send_block(&self.shared, &mut state.segments[idx]);
            }
        }
        promises
    }

    /// Blocks until every previously written event is durable.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] after 60 s; writer failures.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        let flush_start = clock::monotonic_now();
        {
            let mut state = self.shared.state.lock();
            for seg in &mut state.segments {
                send_block(&self.shared, seg);
            }
        }
        let deadline = clock::monotonic_now() + Duration::from_secs(60);
        while self.shared.pending_events.load(Ordering::SeqCst) > 0 {
            if let Some(e) = self.shared.state.lock().failed.clone() {
                return Err(e);
            }
            if clock::monotonic_now() > deadline {
                return Err(ClientError::Timeout);
            }
            self.shared.drained.wait_until(Some(deadline));
        }
        self.shared
            .metrics
            .flush_nanos
            .record(flush_start.elapsed().as_nanos() as u64);
        match self.shared.state.lock().failed.clone() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Events written but not yet acknowledged.
    pub fn pending_events(&self) -> usize {
        self.shared.pending_events.load(Ordering::SeqCst)
    }

    /// Flushes and shuts the writer down.
    pub fn close(mut self) -> Result<(), ClientError> {
        let result = self.flush();
        self.shutdown();
        result
    }

    fn shutdown(&mut self) {
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.pump_wakeup.wake();
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

impl<T, S: Serializer<T>> Drop for EventStreamWriter<T, S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A new channel to the store at `endpoint`, on the writer's connection to
/// it. The connection is dialled first if the writer has none to that store
/// or the one it has is closed.
fn channel_to(
    shared: &WriterShared,
    connections: &mut HashMap<String, Connection>,
    endpoint: &str,
) -> Result<Connection, ClientError> {
    if let Some(channel) = connections.get(endpoint).and_then(|c| c.channel().ok()) {
        return Ok(channel);
    }
    let connection = shared.factory.connect(endpoint)?;
    shared.metrics.connections_opened.inc();
    let channel = connection
        .channel()
        .map_err(|e| ClientError::Disconnected(e.to_string()))?;
    connections.insert(endpoint.to_string(), connection);
    Ok(channel)
}

fn open_segment(
    shared: &Arc<WriterShared>,
    connections: &mut HashMap<String, Connection>,
    info: SegmentWithRange,
) -> Result<OpenSegment, ClientError> {
    let connection = channel_to(shared, connections, &info.endpoint)?;
    let mut seg = OpenSegment {
        info,
        connection,
        next_request_id: 1,
        block: BytesMut::new(),
        block_events: Vec::new(),
        block_opened: None,
        inflight: VecDeque::new(),
        sealed: false,
        rtt_secs: EwmaValue::new(0.3),
        byte_rate: EwmaRate::new(Duration::from_secs(1)),
        rate_origin: clock::monotonic_now(),
    };
    // Handshake: learn the last durable event number for this writer.
    let _last = setup(shared, connections, &mut seg)?;
    Ok(seg)
}

/// Has the pump woken by `seg`'s new channel, and runs the handshake on it.
fn setup(
    shared: &Arc<WriterShared>,
    connections: &mut HashMap<String, Connection>,
    seg: &mut OpenSegment,
) -> Result<i64, ClientError> {
    seg.connection.wake_on_reply(shared.pump_wakeup.clone());
    let result = handshake(shared, seg);
    if result.is_err() {
        // The connection may lead to a store that no longer hosts the
        // segment: the next attempt dials afresh.
        connections.remove(&seg.info.endpoint);
    }
    result
}

/// Performs SetupAppend and returns the last durable event number.
fn handshake(shared: &Arc<WriterShared>, seg: &mut OpenSegment) -> Result<i64, ClientError> {
    let request_id = seg.next_request_id;
    seg.next_request_id += 1;
    seg.connection
        .send(RequestEnvelope {
            request_id,
            request: Request::SetupAppend {
                writer_id: shared.writer_id,
                segment: seg.info.segment.clone(),
            },
        })
        .map_err(|e| ClientError::Disconnected(e.to_string()))?;
    loop {
        let envelope = seg
            .connection
            .recv_timeout(Duration::from_secs(10))
            .map_err(|e| ClientError::Disconnected(e.to_string()))?
            .ok_or(ClientError::Timeout)?;
        if envelope.request_id != request_id {
            continue; // stale append ack from a previous connection epoch
        }
        return match envelope.reply {
            Reply::AppendSetup { last_event_number } => Ok(last_event_number),
            Reply::NoSuchSegment => Err(ClientError::NotFound),
            // Not (or not yet) this store's segment: retry, re-resolved.
            reply @ (Reply::WrongHost | Reply::ContainerNotReady) => Err(
                ClientError::Disconnected(format!("handshake answered {reply:?}")),
            ),
            other => Err(ClientError::Protocol(format!(
                "unexpected handshake reply: {other:?}"
            ))),
        };
    }
}

fn ensure_initialized(
    shared: &Arc<WriterShared>,
    state: &mut WriterState,
) -> Result<(), ClientError> {
    if state.initialized {
        return Ok(());
    }
    let current = shared.controller.current_segments(&shared.stream)?;
    if current.is_empty() {
        return Err(ClientError::Sealed);
    }
    for info in current {
        let seg = open_segment(shared, &mut state.connections, info)?;
        state.segments.push(seg);
    }
    state.initialized = true;
    Ok(())
}

/// Routes one pending event to the open segment owning `position`,
/// re-resolving successors if that segment is sealed.
fn route_event(
    shared: &Arc<WriterShared>,
    state: &mut WriterState,
    position: f64,
    event: PendingEvent,
) -> Result<(), ClientError> {
    route_event_inner(shared, state, position, event, false).map(|_| ())
}

/// As [`route_event`], optionally deferring the block send (used by atomic
/// batches to keep all their events contiguous in one append block).
/// Returns the index of the segment the event landed on.
fn route_event_inner(
    shared: &Arc<WriterShared>,
    state: &mut WriterState,
    position: f64,
    event: PendingEvent,
    defer_send: bool,
) -> Result<usize, ClientError> {
    loop {
        let idx = state
            .segments
            .iter()
            .position(|s| s.info.range.contains(position));
        let Some(idx) = idx else {
            // Key space hole: our view is stale; refresh from the controller.
            refresh_segments(shared, state)?;
            if !state
                .segments
                .iter()
                .any(|s| s.info.range.contains(position))
            {
                return Err(ClientError::Protocol(format!(
                    "no open segment covers position {position}"
                )));
            }
            continue;
        };
        if state.segments[idx].sealed {
            handle_sealed(shared, state, idx)?;
            continue;
        }
        let seg = &mut state.segments[idx];
        let opens_block = seg.block_opened.is_none();
        append_to_block(shared, seg, event);
        if !defer_send {
            let estimate = batch_size_estimate(shared, seg);
            if seg.block.len() >= estimate {
                send_block(shared, seg);
            }
        }
        if opens_block && seg.block_opened.is_some() {
            // The block stays open: its close time may now be the pump's
            // earliest deadline.
            shared.pump_wakeup.wake();
        }
        return Ok(idx);
    }
}

fn append_to_block(_shared: &Arc<WriterShared>, seg: &mut OpenSegment, event: PendingEvent) {
    if seg.block_opened.is_none() {
        seg.block_opened = Some(clock::monotonic_now());
    }
    seg.byte_rate.record(
        event.framed.len() as u64,
        seg.rate_origin.elapsed().as_nanos() as u64,
    );
    seg.block.put_slice(&event.framed);
    seg.block_events.push(event);
}

/// Maximum append-block size (the cap in the batch heuristic).
const MAX_BATCH_BYTES: usize = 1024 * 1024;

/// Initial round-trip estimate before any acks arrive.
const INITIAL_RTT: Duration = Duration::from_millis(1);

/// The paper's client batch heuristic: `min(max_batch, rate · RTT/2)`.
fn batch_size_estimate(shared: &Arc<WriterShared>, seg: &OpenSegment) -> usize {
    let rtt = seg.rtt_secs.value_or(INITIAL_RTT.as_secs_f64());
    let rate = seg
        .byte_rate
        .rate(seg.rate_origin.elapsed().as_nanos() as u64);
    let estimate = (rate * rtt / 2.0) as usize;
    let clamped = estimate.clamp(1, MAX_BATCH_BYTES);
    shared.metrics.batch_estimate_bytes.record(clamped as u64);
    clamped
}

fn send_block(shared: &Arc<WriterShared>, seg: &mut OpenSegment) {
    if seg.block_events.is_empty() || seg.sealed {
        return;
    }
    let data = std::mem::take(&mut seg.block).freeze();
    let events = std::mem::take(&mut seg.block_events);
    seg.block_opened = None;
    shared.metrics.batch_bytes.record(data.len() as u64);
    let Some(last) = events.last() else {
        return; // unreachable: block_events checked non-empty above
    };
    let last_event_number = last.event_number;
    let request_id = seg.next_request_id;
    seg.next_request_id += 1;
    let sent = seg.connection.send(RequestEnvelope {
        request_id,
        request: Request::AppendBlock {
            writer_id: shared.writer_id,
            segment: seg.info.segment.clone(),
            last_event_number,
            event_count: events.len() as u32,
            data,
            expected_offset: None,
        },
    });
    seg.inflight.push_back(InflightBlock {
        last_event_number,
        events,
        sent_at: clock::monotonic_now(),
    });
    if sent.is_err() {
        // Connection is gone; the pump will reconnect and resend.
    }
}

fn refresh_segments(
    shared: &Arc<WriterShared>,
    state: &mut WriterState,
) -> Result<(), ClientError> {
    let current = shared.controller.current_segments(&shared.stream)?;
    for info in current {
        if !state
            .segments
            .iter()
            .any(|s| s.info.segment == info.segment)
        {
            let seg = open_segment(shared, &mut state.connections, info)?;
            state.segments.push(seg);
        }
    }
    Ok(())
}

/// Handles a sealed segment: fetch successors, open them, and re-route every
/// unacknowledged event (in event-number order, preserving per-key order).
fn handle_sealed(
    shared: &Arc<WriterShared>,
    state: &mut WriterState,
    idx: usize,
) -> Result<(), ClientError> {
    let mut seg = state.segments.remove(idx);
    // Collect unacked events in order: inflight blocks first, then the open
    // block.
    let mut pending: Vec<PendingEvent> = Vec::new();
    for block in seg.inflight.drain(..) {
        pending.extend(block.events);
    }
    pending.append(&mut seg.block_events);
    pending.sort_by_key(|e| e.event_number);

    let successors = shared
        .controller
        .successors(&shared.stream, seg.info.segment.segment_id())?;
    if successors.is_empty() {
        // Stream sealed: fail the events.
        for event in pending {
            resolve_event(shared, event, Err(ClientError::Sealed));
        }
        return Err(ClientError::Sealed);
    }
    for (info, _preds) in successors {
        if !state
            .segments
            .iter()
            .any(|s| s.info.segment == info.segment)
        {
            let seg = open_segment(shared, &mut state.connections, info)?;
            state.segments.push(seg);
        }
    }
    // Re-route pending events (their positions may now map to different
    // successors).
    for event in pending {
        let position = routing_key_position(&event.routing_key);
        route_event(shared, state, position, event)?;
    }
    Ok(())
}

/// Backoff budget for re-establishing a segment connection. Transient
/// failures (lost connection, timeout) are retried; logical errors like
/// `Sealed` or protocol mismatches surface immediately.
fn reconnect_retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        multiplier: 2.0,
        jitter: 0.2,
    }
}

/// Moves `seg` to a new channel, rebuilds and resends everything
/// unacknowledged, using the handshake watermark to drop already-durable
/// events. The old channel's late replies are dropped with it.
fn reconnect(
    shared: &Arc<WriterShared>,
    connections: &mut HashMap<String, Connection>,
    seg: &mut OpenSegment,
) -> Result<(), ClientError> {
    shared.metrics.reconnects.inc();
    seg.connection = channel_to(shared, connections, &seg.info.endpoint)?;
    seg.next_request_id = 1;
    let last_durable = setup(shared, connections, seg)?;
    let mut pending: Vec<PendingEvent> = Vec::new();
    for block in seg.inflight.drain(..) {
        pending.extend(block.events);
    }
    pending.sort_by_key(|e| e.event_number);
    for event in pending {
        if event.event_number <= last_durable {
            resolve_event(shared, event, Ok(()));
        } else {
            append_to_block(shared, seg, event);
        }
    }
    send_block(shared, seg);
    Ok(())
}

/// Background pump: acknowledge inflight blocks, close stale blocks, handle
/// seals and reconnects.
fn pump_loop(shared: Arc<WriterShared>) {
    while !shared.stopped.load(Ordering::SeqCst) {
        // When the earliest open block comes due; `None` while none is open.
        let next_close = {
            let mut state = shared.state.lock();
            let mut sealed_indices: Vec<usize> = Vec::new();
            let mut broken_indices: Vec<usize> = Vec::new();
            for (i, seg) in state.segments.iter_mut().enumerate() {
                // Drain acknowledgements.
                loop {
                    match seg.connection.try_recv() {
                        Ok(Some(envelope)) => match envelope.reply {
                            Reply::DataAppended {
                                last_event_number, ..
                            } => {
                                while let Some(front) = seg.inflight.front() {
                                    if front.last_event_number > last_event_number {
                                        break;
                                    }
                                    let Some(block) = seg.inflight.pop_front() else {
                                        break;
                                    };
                                    let elapsed = block.sent_at.elapsed();
                                    seg.rtt_secs.record(elapsed.as_secs_f64());
                                    shared.metrics.rtt_nanos.record(elapsed.as_nanos() as u64);
                                    for event in block.events {
                                        resolve_event(&shared, event, Ok(()));
                                    }
                                }
                            }
                            Reply::SegmentIsSealed | Reply::SegmentSealed { .. } => {
                                seg.sealed = true;
                                sealed_indices.push(i);
                            }
                            Reply::NoSuchSegment => {
                                seg.sealed = true;
                                sealed_indices.push(i);
                            }
                            Reply::ContainerNotReady | Reply::WrongHost | Reply::WriterFenced => {
                                broken_indices.push(i);
                            }
                            _ => {}
                        },
                        Ok(None) => break,
                        Err(_) => {
                            broken_indices.push(i);
                            break;
                        }
                    }
                }
                // Close stale blocks (latency bound at low rates).
                if let Some(opened) = seg.block_opened {
                    if opened.elapsed() >= shared.config.max_batch_delay {
                        send_block(&shared, seg);
                    }
                }
            }
            // Handle seals (highest index first to keep indices valid).
            sealed_indices.sort_unstable();
            sealed_indices.dedup();
            for idx in sealed_indices.into_iter().rev() {
                if idx < state.segments.len() {
                    if let Err(e) = handle_sealed(&shared, &mut state, idx) {
                        if e != ClientError::Sealed {
                            state.failed = Some(e);
                        }
                    }
                }
            }
            // Handle reconnects: bounded backoff, re-resolving the endpoint
            // before each retry (the segment's container may have moved).
            // Exactly-once is preserved by the event-number handshake inside
            // `reconnect`, so repeating the whole sequence is safe.
            broken_indices.sort_unstable();
            broken_indices.dedup();
            for idx in broken_indices.into_iter().rev() {
                if idx < state.segments.len() {
                    let WriterState {
                        segments,
                        connections,
                        ..
                    } = &mut *state;
                    let seg = &mut segments[idx];
                    let attempt = std::cell::Cell::new(0u32);
                    let result = reconnect_retry_policy().run(
                        |_, _| {},
                        || {
                            if attempt.replace(attempt.get() + 1) > 0 {
                                seg.info.endpoint =
                                    shared.controller.endpoint_for(&seg.info.segment);
                            }
                            reconnect(&shared, connections, seg)
                        },
                    );
                    if let Err(e) = result {
                        shared.metrics.permanent_failures.inc();
                        state.failed = Some(e);
                    }
                }
            }
            // A permanently failed writer resolves everything outstanding
            // *now*: a caller blocked on an append promise would otherwise
            // wait until the writer is dropped (or forever, if it never is).
            if let Some(e) = state.failed.clone() {
                fail_all_pending(&shared, &mut state, &e);
            }
            state
                .segments
                .iter()
                .filter_map(|seg| seg.block_opened)
                .min()
                .map(|opened| opened + shared.config.max_batch_delay)
        };
        shared.pump_wakeup.wait_until(next_close);
    }
    // Fail anything still pending on shutdown.
    let mut state = shared.state.lock();
    fail_all_pending(
        &shared,
        &mut state,
        &ClientError::Disconnected("writer closed".into()),
    );
}

/// Fails every queued and inflight event promise with `error`.
fn fail_all_pending(shared: &Arc<WriterShared>, state: &mut WriterState, error: &ClientError) {
    for seg in &mut state.segments {
        let inflight = seg.inflight.drain(..).flat_map(|block| block.events);
        for event in inflight.chain(seg.block_events.drain(..)) {
            resolve_event(shared, event, Err(error.clone()));
        }
    }
    // `flush()` must see the failure even if some event's count was lost
    // with it (a re-route that died half way drops its events unresolved).
    shared.drained.wake();
}

/// Resolves one event's promise, waking `flush()` if it was the last one
/// outstanding.
fn resolve_event(shared: &WriterShared, mut event: PendingEvent, result: Result<(), ClientError>) {
    if let Some(completer) = event.completer.take() {
        if shared.pending_events.fetch_sub(1, Ordering::SeqCst) == 1 {
            shared.drained.wake();
        }
        completer.complete(result);
    }
}

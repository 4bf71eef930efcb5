//! The segment store: hosts segment containers and serves the wire protocol
//! (§2.2).
//!
//! Segment stores are agnostic to streams — they only know segments. Each
//! request is routed to the owning container via the stateless uniform hash
//! over the segment's qualified name; a store that does not run that
//! container answers `WrongHost`, prompting the client to re-resolve the
//! endpoint through the controller.

use pravega_sync::JoinHandle;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Sender};
use pravega_common::hashing::container_for_segment;
use pravega_common::id::{ContainerId, WriterId};
use pravega_common::metrics::{Counter, MetricsRegistry};
use pravega_common::wire::{
    connection_pair, Connection, Reply, ReplyEnvelope, Request, SegmentInfo, ServerEnd,
};
use pravega_sync::{rank, Mutex};

use crate::container::{AppendHandle, ContainerConfig, ReadResult, SegmentContainer, SegmentLoad};
use crate::error::SegmentError;

/// How long a read that waits for data stays parked at the tail before it
/// is answered empty (the client then parks another).
const TAIL_WAIT: Duration = Duration::from_secs(2);

/// Parked reads queued for a connection's tail thread beyond the one it is
/// serving. The event reader keeps one read in flight per connection, so it
/// never queues; a client that parks more reads than this stalls its own
/// connection until the thread takes the next one.
const TAIL_QUEUE_DEPTH: usize = 16;

/// Configuration of a segment store instance.
#[derive(Debug, Clone)]
pub struct SegmentStoreConfig {
    /// Stable host identifier (registered in the cluster).
    pub host_id: String,
    /// Total containers in the cluster (the hash space).
    pub container_count: u32,
    /// Per-container tuning.
    pub container: ContainerConfig,
}

impl Default for SegmentStoreConfig {
    fn default() -> Self {
        Self {
            host_id: "segmentstore-0".into(),
            container_count: 4,
            container: ContainerConfig::default(),
        }
    }
}

/// Creates (starting/recovering) a container by id. The embedding layer
/// wires WAL logs and LTS in here.
pub type ContainerFactory =
    Arc<dyn Fn(ContainerId) -> Result<SegmentContainer, SegmentError> + Send + Sync>;

/// A segment store instance.
pub struct SegmentStore {
    config: SegmentStoreConfig,
    factory: ContainerFactory,
    containers: Mutex<HashMap<u32, Arc<SegmentContainer>>>,
    /// `segmentstore.store.tail_read_threads`: one per connection that
    /// parked a read.
    tail_read_threads: Arc<Counter>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("host", &self.config.host_id)
            .field("containers", &self.containers.lock().len())
            .finish()
    }
}

impl SegmentStore {
    /// Creates a store. No containers run until assigned.
    pub fn new(config: SegmentStoreConfig, factory: ContainerFactory) -> Arc<Self> {
        Self::new_with_metrics(config, factory, &MetricsRegistry::new())
    }

    /// [`SegmentStore::new`] with an explicit registry for the store's
    /// `segmentstore.store.*` instruments (the cluster passes its shared one).
    pub fn new_with_metrics(
        config: SegmentStoreConfig,
        factory: ContainerFactory,
        metrics: &MetricsRegistry,
    ) -> Arc<Self> {
        Arc::new(Self {
            config,
            factory,
            containers: Mutex::new(rank::SEGMENTSTORE_STORE, HashMap::new()),
            tail_read_threads: metrics.counter("segmentstore.store.tail_read_threads"),
        })
    }

    /// Host id of this instance.
    pub fn host_id(&self) -> &str {
        &self.config.host_id
    }

    /// Ids of containers currently running here.
    pub fn running_containers(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.containers.lock().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Starts (recovering) a container on this store.
    ///
    /// # Errors
    ///
    /// Propagates recovery failures from the container factory.
    pub fn start_container(&self, id: u32) -> Result<(), SegmentError> {
        if self.containers.lock().contains_key(&id) {
            return Ok(());
        }
        let container = (self.factory)(ContainerId(id))?;
        self.containers.lock().insert(id, Arc::new(container));
        Ok(())
    }

    /// Stops a container (its WAL handle is released; a new owner can fence).
    pub fn stop_container(&self, id: u32) {
        // Remove under the lock, stop (which joins threads) outside it: the
        // guard from `lock().remove()` would otherwise live through the body.
        let container = self.containers.lock().remove(&id);
        if let Some(c) = container {
            c.stop();
        }
    }

    /// Reconciles the set of running containers with `assigned` (start the
    /// missing, stop the extra) — driven by the coordination assignment map
    /// when membership changes (§4.4).
    ///
    /// # Errors
    ///
    /// Propagates the first container start failure (remaining containers
    /// are still reconciled).
    pub fn reconcile_containers(&self, assigned: &[u32]) -> Result<(), SegmentError> {
        let current = self.running_containers();
        let mut first_error = None;
        for id in &current {
            if !assigned.contains(id) {
                self.stop_container(*id);
            }
        }
        for id in assigned {
            if let Err(e) = self.start_container(*id) {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The container that owns `segment`, if it runs here.
    fn container_for(
        &self,
        segment_name: &pravega_common::id::ScopedSegment,
    ) -> Option<Arc<SegmentContainer>> {
        let id = container_for_segment(segment_name, self.config.container_count);
        self.containers.lock().get(&id).cloned()
    }

    /// Direct access to a running container (embedding/test use).
    pub fn container(&self, id: u32) -> Option<Arc<SegmentContainer>> {
        self.containers.lock().get(&id).cloned()
    }

    /// Aggregated per-segment load across containers (auto-scaler feedback).
    pub fn load_report(&self) -> Vec<SegmentLoad> {
        let containers: Vec<Arc<SegmentContainer>> =
            self.containers.lock().values().cloned().collect();
        containers.iter().flat_map(|c| c.load_report()).collect()
    }

    /// Handles one request synchronously (appends wait for durability).
    pub fn call(&self, request: Request) -> Reply {
        let Some(container) = self.container_for(request.segment()) else {
            return Reply::WrongHost;
        };
        dispatch(&container, request)
    }

    /// Opens an in-process connection to this store. Requests are processed
    /// in order; appends are pipelined (acknowledged asynchronously once
    /// durable) and reads parked at the tail do not stall the connection.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Internal`] if the connection-handler thread cannot
    /// be spawned.
    pub fn connect(self: &Arc<Self>) -> Result<Connection, SegmentError> {
        let (client, server) = connection_pair();
        let store = self.clone();
        pravega_sync::spawn(format!("conn-{}", self.config.host_id), move || {
            connection_loop(store, server)
        })
        .map_err(|e| SegmentError::Internal(format!("spawn connection handler: {e}")))?;
        Ok(client)
    }

    /// Stops all containers.
    pub fn shutdown(&self) {
        let ids = self.running_containers();
        for id in ids {
            self.stop_container(id);
        }
    }

    /// Abruptly crashes every container: no draining, no flushing, no
    /// checkpointing — in-flight operations fail without being applied.
    /// Returns the crashed containers' WAL handles ("zombie writers"): once
    /// a new owner fences those logs, appends through them must fail with
    /// [`pravega_wal::error::WalError::Fenced`].
    pub fn crash(&self) -> Vec<Arc<dyn pravega_wal::log::DurableDataLog>> {
        // Drain the map under the lock; crash (which joins threads) outside.
        let containers: Vec<Arc<SegmentContainer>> =
            self.containers.lock().drain().map(|(_, c)| c).collect();
        containers.iter().map(|c| c.crash()).collect()
    }
}

fn error_reply(e: SegmentError) -> Reply {
    match e {
        SegmentError::NoSuchSegment => Reply::NoSuchSegment,
        SegmentError::SegmentExists => Reply::SegmentAlreadyExists,
        SegmentError::SegmentSealed => Reply::SegmentIsSealed,
        SegmentError::ConditionalCheckFailed { .. } | SegmentError::TableKeyBadVersion => {
            Reply::ConditionalCheckFailed
        }
        SegmentError::OffsetTruncated { start_offset } => Reply::OffsetTruncated { start_offset },
        SegmentError::WrongContainer => Reply::WrongHost,
        SegmentError::ContainerStopped => Reply::ContainerNotReady,
        SegmentError::WriterFenced => Reply::WriterFenced,
        other => Reply::InternalError(other.to_string()),
    }
}

fn dispatch(container: &SegmentContainer, request: Request) -> Reply {
    match request {
        Request::CreateSegment { segment, is_table } => {
            match container.create_segment(&segment.qualified_name(), is_table) {
                Ok(()) => Reply::SegmentCreated,
                Err(e) => error_reply(e),
            }
        }
        Request::SetupAppend { writer_id, segment } => {
            match container.setup_append(&segment.qualified_name(), writer_id) {
                Ok(last_event_number) => Reply::AppendSetup { last_event_number },
                Err(e) => error_reply(e),
            }
        }
        Request::AppendBlock {
            writer_id,
            segment,
            last_event_number,
            event_count,
            data,
            expected_offset,
        } => {
            let handle = container.append(
                &segment.qualified_name(),
                data,
                writer_id,
                last_event_number,
                event_count,
                expected_offset,
            );
            append_reply(handle, writer_id, last_event_number)
        }
        Request::ReadSegment {
            segment,
            offset,
            max_bytes,
            wait_for_data,
        } => read_reply(container.read(
            &segment.qualified_name(),
            offset,
            max_bytes as usize,
            wait_for_data.then_some(TAIL_WAIT),
        )),
        Request::GetSegmentInfo { segment } => {
            match container.get_info(&segment.qualified_name()) {
                Ok(info) => Reply::SegmentInfo(SegmentInfo {
                    segment,
                    length: info.length,
                    start_offset: info.start_offset,
                    sealed: info.sealed,
                    last_modified_nanos: info.last_modified_nanos,
                }),
                Err(e) => error_reply(e),
            }
        }
        Request::SealSegment { segment } => match container.seal(&segment.qualified_name()) {
            Ok(final_length) => Reply::SegmentSealed { final_length },
            Err(e) => error_reply(e),
        },
        Request::TruncateSegment { segment, offset } => {
            match container.truncate(&segment.qualified_name(), offset) {
                Ok(()) => Reply::SegmentTruncated,
                Err(e) => error_reply(e),
            }
        }
        Request::DeleteSegment { segment } => match container.delete(&segment.qualified_name()) {
            Ok(()) => Reply::SegmentDeleted,
            Err(e) => error_reply(e),
        },
        Request::GetWriterAttribute { segment, writer_id } => {
            match container.setup_append(&segment.qualified_name(), writer_id) {
                Ok(last_event_number) => Reply::WriterAttribute { last_event_number },
                Err(e) => error_reply(e),
            }
        }
        Request::TableUpdate { segment, entries } => {
            let name = segment.qualified_name();
            // The wire carries table-segment creation implicitly: creating
            // table segments goes through CreateSegment on the container API
            // used by the embedding layer; here we only update.
            let converted = entries
                .into_iter()
                .map(|e| (e.key, e.value, e.expected_version))
                .collect();
            match container.table_update(&name, converted) {
                Ok(versions) => Reply::TableUpdated { versions },
                Err(e) => error_reply(e),
            }
        }
        Request::TableRemove { segment, keys } => {
            match container.table_remove(&segment.qualified_name(), keys) {
                Ok(()) => Reply::TableRemoved,
                Err(e) => error_reply(e),
            }
        }
        Request::TableGet { segment, keys } => {
            match container.table_get(&segment.qualified_name(), &keys) {
                Ok(values) => Reply::TableRead { values },
                Err(e) => error_reply(e),
            }
        }
        Request::TableIterate {
            segment,
            continuation,
            limit,
        } => {
            match container.table_iterate(&segment.qualified_name(), continuation, limit as usize) {
                Ok((entries, continuation)) => Reply::TableIterated {
                    entries,
                    continuation,
                },
                Err(e) => error_reply(e),
            }
        }
    }
}

fn read_reply(result: Result<ReadResult, SegmentError>) -> Reply {
    match result {
        Ok(r) => Reply::SegmentRead {
            offset: r.offset,
            data: r.data,
            end_of_segment: r.end_of_segment,
            at_tail: r.at_tail,
        },
        Err(e) => error_reply(e),
    }
}

/// Waits for an append to become durable and renders the outcome.
fn append_reply(handle: AppendHandle, writer_id: WriterId, last_event_number: i64) -> Reply {
    match handle.wait() {
        Ok(outcome) => Reply::DataAppended {
            writer_id,
            last_event_number,
            current_tail: outcome.tail,
        },
        Err(e) => error_reply(e),
    }
}

pub(crate) fn connection_loop(store: Arc<SegmentStore>, server: ServerEnd) {
    // Appends are acknowledged by a dedicated pump so the request loop never
    // blocks on durability — this is what lets a writer keep the batch
    // in-flight on the wire while the server collects it (§4.1).
    struct AckItem {
        request_id: u64,
        writer_id: WriterId,
        last_event_number: i64,
        handle: AppendHandle,
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "appends complete on durable-log callback threads that must never block; the \
                  ack pump drains into the bounded reply queue, where backpressure applies; \
                  depth is capped by the connection's inflight request window"
    )]
    let (ack_tx, ack_rx) = unbounded::<AckItem>();
    let ack_server = server.clone();
    let pump_result = pravega_sync::spawn("conn-ack-pump", move || {
        while let Ok(ack) = ack_rx.recv() {
            let reply = append_reply(ack.handle, ack.writer_id, ack.last_event_number);
            let request_id = ack.request_id;
            if ack_server
                .send(ReplyEnvelope { request_id, reply })
                .is_err()
            {
                break;
            }
        }
    });
    let Ok(pump) = pump_result else {
        // No ack pump means no append can ever be acknowledged: refuse the
        // connection rather than hang clients.
        return;
    };

    // Append sessions held by THIS connection, per (writer, segment), from
    // its `SetupAppend` handshakes. Appends carry the session so a newer
    // handshake (the writer reconnected elsewhere) fences this connection's
    // still-queued blocks out instead of letting them race the resend.
    let mut sessions: HashMap<(WriterId, String), u64> = HashMap::new();
    // This connection's tail thread, spawned by the first read that has to
    // wait.
    let mut tail: Option<TailReader> = None;

    while let Ok(envelope) = server.recv() {
        let request_id = envelope.request_id;
        match envelope.request {
            Request::SetupAppend { writer_id, segment } => {
                let name = segment.qualified_name();
                let reply = match store.container_for(&segment) {
                    None => Reply::WrongHost,
                    Some(container) => match container.handshake(&name, writer_id) {
                        Ok((last_event_number, session)) => {
                            sessions.insert((writer_id, name), session);
                            Reply::AppendSetup { last_event_number }
                        }
                        Err(e) => error_reply(e),
                    },
                };
                if server.send(ReplyEnvelope { request_id, reply }).is_err() {
                    break;
                }
            }
            Request::AppendBlock {
                writer_id,
                segment,
                last_event_number,
                event_count,
                data,
                expected_offset,
            } => {
                let name = segment.qualified_name();
                let session = sessions.get(&(writer_id, name.clone())).copied();
                let reply_or_handle = match store.container_for(&segment) {
                    None => Err(Reply::WrongHost),
                    Some(container) => Ok(container.append_sessioned(
                        &name,
                        data,
                        writer_id,
                        last_event_number,
                        event_count,
                        expected_offset,
                        session,
                    )),
                };
                match reply_or_handle {
                    Ok(handle) => {
                        if ack_tx
                            .send(AckItem {
                                request_id,
                                writer_id,
                                last_event_number,
                                handle,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                    Err(reply) => {
                        if server.send(ReplyEnvelope { request_id, reply }).is_err() {
                            break;
                        }
                    }
                }
            }
            Request::ReadSegment {
                segment,
                offset,
                max_bytes,
                wait_for_data,
            } => {
                // Whatever can be answered now — bytes, the end, an error —
                // is answered here, as a read that does not wait would be.
                // Only a read at the tail goes to this connection's tail
                // thread, which parks it on the segment's next apply.
                let reply = match store.container_for(&segment) {
                    None => Reply::WrongHost,
                    Some(container) => {
                        let name = segment.qualified_name();
                        let max_bytes = max_bytes as usize;
                        match container.read(&name, offset, max_bytes, None) {
                            Ok(r) if r.at_tail && wait_for_data => {
                                let parked = TailRead {
                                    request_id,
                                    container,
                                    name,
                                    offset,
                                    max_bytes,
                                };
                                match tail_queue(&mut tail, &store, &server) {
                                    Ok(queue) => {
                                        if queue.send(parked).is_err() {
                                            break;
                                        }
                                        continue;
                                    }
                                    Err(e) => Reply::InternalError(format!("spawn tail read: {e}")),
                                }
                            }
                            result => read_reply(result),
                        }
                    }
                };
                if server.send(ReplyEnvelope { request_id, reply }).is_err() {
                    break;
                }
            }
            other => {
                let reply = store.call(other);
                if server.send(ReplyEnvelope { request_id, reply }).is_err() {
                    break;
                }
            }
        }
    }
    drop(ack_tx);
    let _ = pump.join();
    if let Some((tail_tx, tail_reader)) = tail {
        drop(tail_tx);
        let _ = tail_reader.join();
    }
}

/// A read parked at the tail of its segment.
struct TailRead {
    request_id: u64,
    container: Arc<SegmentContainer>,
    name: String,
    offset: u64,
    max_bytes: usize,
}

/// A connection's tail thread and the queue of reads parked for it.
type TailReader = (Sender<TailRead>, JoinHandle<()>);

/// The queue of the connection's tail thread, spawning the thread if the
/// connection has none yet.
fn tail_queue<'a>(
    tail: &'a mut Option<TailReader>,
    store: &SegmentStore,
    server: &ServerEnd,
) -> std::io::Result<&'a Sender<TailRead>> {
    let reader = match tail.take() {
        Some(reader) => reader,
        None => spawn_tail_reader(store, server)?,
    };
    Ok(&tail.insert(reader).0)
}

/// Starts a connection's tail thread. It answers the connection's parked
/// reads in order, each once its segment's next append, seal or delete
/// applies, its container stops, or [`TAIL_WAIT`] passes.
fn spawn_tail_reader(store: &SegmentStore, server: &ServerEnd) -> std::io::Result<TailReader> {
    let (tail_tx, tail_rx) = bounded::<TailRead>(TAIL_QUEUE_DEPTH);
    let reply_server = server.clone();
    let handle = pravega_sync::spawn("conn-tail-read", move || {
        while let Ok(read) = tail_rx.recv() {
            let result =
                read.container
                    .read(&read.name, read.offset, read.max_bytes, Some(TAIL_WAIT));
            let reply = ReplyEnvelope {
                request_id: read.request_id,
                reply: read_reply(result),
            };
            if reply_server.send(reply).is_err() {
                break;
            }
        }
    })?;
    store.tail_read_threads.inc();
    Ok((tail_tx, handle))
}

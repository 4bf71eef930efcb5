//! The workspace lock hierarchy.
//!
//! Blocking acquisitions on one thread must take strictly increasing orders,
//! so a lock's rank encodes how deep in the call stack it may be held:
//! **outermost locks get low orders, innermost leaves get high orders**.
//! Bands of 100 group locks by component, following the write path top-down
//! (client → core → controller → segment store → durable log → WAL → LTS),
//! with the coordination store and metrics registry as the innermost leaves
//! (both are called into from everywhere, while holding anything).
//!
//! Picking a rank for a new lock:
//!
//! 1. Find every lock that can be *held* when the new lock is acquired: the
//!    new rank must be strictly greater than all of them.
//! 2. Find every lock that can be acquired *while holding* the new lock: the
//!    new rank must be strictly less than all of them.
//! 3. Choose an unused order inside the component's band that satisfies both
//!    and add a constant here — never pass an ad-hoc `LockRank::new` at a
//!    call site, so this file stays the single source of truth.
//!
//! A rank is `.may_block()` only where a test shows a thread holding it
//! across a blocking call ([`crate::blocking`]) and the hold is needed; the
//! constant's doc says why.
//!
//! The full table is reproduced in DESIGN.md §"Concurrency discipline".

use crate::LockRank;

// ── client band (outermost: the application calls in through here) ──────────
/// Reader-group membership/state lock; held across state-synchronizer calls
/// that reach the coordination store. May block: each update is an
/// optimistic CAS round trip to the store, and the lock serializes only
/// this process's synchronizer cache; the CAS is the cross-process control.
/// Control-plane path.
pub const CLIENT_READER_GROUP: LockRank = LockRank::new(100, "client.readergroup").may_block();
/// Event writer state; held while routing batches into the segment store.
/// May block: set-up (the controller RPC and the append handshake), seal
/// handling and reconnects swap a segment's connection and re-frame its
/// inflight blocks under it, so `write()` never appends to a connection
/// about to be replaced; a writer stalled by a reconnect is the intended
/// backpressure.
pub const CLIENT_WRITER: LockRank = LockRank::new(120, "client.writer").may_block();

// ── core band (cluster wiring: owns per-host stores and assignments) ────────
/// Cluster's host → segment-store map.
pub const CORE_CLUSTER_STORES: LockRank = LockRank::new(140, "core.cluster.stores");
/// Cluster's container → host assignment map.
pub const CORE_CLUSTER_ASSIGNMENT: LockRank = LockRank::new(150, "core.cluster.assignment");
/// Cluster's list of per-container WAL logs (WAL scrub walks it). Leaf-ish:
/// appended to from the container factory, which may run under store locks.
pub const CORE_CLUSTER_WAL_LOGS: LockRank = LockRank::new(935, "core.cluster.wal_logs");
/// Cluster's background-scrubber handle (taken once at shutdown).
pub const CORE_CLUSTER_SCRUBBER: LockRank = LockRank::new(940, "core.cluster.scrubber");

// ── controller band ─────────────────────────────────────────────────────────
/// Auto-scaler per-stream heat state; held across scale_stream calls that
/// reach the segment stores.
pub const CONTROLLER_AUTOSCALER: LockRank = LockRank::new(210, "controller.autoscaler");
/// Metadata backend scope table.
pub const CONTROLLER_BACKEND_SCOPES: LockRank = LockRank::new(220, "controller.backend.scopes");
/// Metadata backend stream table.
pub const CONTROLLER_BACKEND_STREAMS: LockRank = LockRank::new(230, "controller.backend.streams");

// ── segment store band ──────────────────────────────────────────────────────
/// Store's container-id → container map.
pub const SEGMENTSTORE_STORE: LockRank = LockRank::new(300, "segmentstore.store");
/// TCP frontend's live-connection registry (socket handles for kill/stop);
/// a leaf within the band — nothing is acquired while holding it.
pub const SEGMENTSTORE_FRONTEND: LockRank = LockRank::new(305, "segmentstore.frontend.conns");
/// Container operation-processor state. Acquired *before* the committed
/// core state: table updates validate pending ops against committed state
/// while holding the processor lock (see `SegmentContainer::table_update`).
pub const CONTAINER_PROCESSOR: LockRank = LockRank::new(310, "segmentstore.container.processor");
/// Container segment/attribute core state.
pub const CONTAINER_CORE: LockRank = LockRank::new(320, "segmentstore.container.core");
/// Container per-segment load tracking (EWMA rates).
pub const CONTAINER_LOADS: LockRank = LockRank::new(330, "segmentstore.container.loads");
/// Container background-flusher join handle.
pub const CONTAINER_FLUSHER: LockRank = LockRank::new(340, "segmentstore.container.flusher");

// ── durable log band ────────────────────────────────────────────────────────
/// Durable log operation-queue sender.
pub const DURABLE_LOG_TX: LockRank = LockRank::new(400, "segmentstore.durablelog.tx");
/// Durable log in-flight frame queue.
pub const DURABLE_LOG_FRAMES: LockRank = LockRank::new(410, "segmentstore.durablelog.frames");
/// Durable log recent-WAL-latency EWMA.
pub const DURABLE_LOG_LATENCY: LockRank = LockRank::new(420, "segmentstore.durablelog.latency");
/// Durable log average-frame-size EWMA.
pub const DURABLE_LOG_FRAME_SIZE: LockRank =
    LockRank::new(430, "segmentstore.durablelog.frame_size");
/// Durable log frame-builder thread handle.
pub const DURABLE_LOG_BUILDER_HANDLE: LockRank =
    LockRank::new(440, "segmentstore.durablelog.builder_handle");
/// Durable log commit thread handle.
pub const DURABLE_LOG_COMMIT_HANDLE: LockRank =
    LockRank::new(450, "segmentstore.durablelog.commit_handle");

// ── WAL band ────────────────────────────────────────────────────────────────
/// BookKeeper-style log state (current ledger, rollover); held across ledger
/// creation, coordination CAS and ledger appends.
pub const WAL_LOG: LockRank = LockRank::new(500, "wal.log");
/// Ledger writer entry sequencer; held while enqueueing into `pending`.
pub const WAL_LEDGER_SEQUENCER: LockRank = LockRank::new(510, "wal.ledger.sequencer");
/// Ledger writer pending-entry map (ack accounting).
pub const WAL_LEDGER_PENDING: LockRank = LockRank::new(520, "wal.ledger.pending");
/// Bookie state (entry store + journal cursor).
pub const WAL_BOOKIE: LockRank = LockRank::new(530, "wal.bookie");

// ── LTS band ────────────────────────────────────────────────────────────────
/// Throttled chunk-storage pacing state (wrapper; held around inner writes).
pub const LTS_CHUNK_THROTTLE: LockRank = LockRank::new(600, "lts.chunk.throttle");
/// Seal-tracking chunk-storage wrapper state.
pub const LTS_CHUNK_SEALED: LockRank = LockRank::new(610, "lts.chunk.sealed");
/// Length/seal bookkeeping in verifying chunk-storage wrappers.
pub const LTS_CHUNK_LENGTHS: LockRank = LockRank::new(620, "lts.chunk.lengths");
/// In-memory chunk store map (innermost chunk backend).
pub const LTS_CHUNKS: LockRank = LockRank::new(630, "lts.chunks");
/// Quarantine set of chunks that failed checksum verification.
pub const LTS_QUARANTINE: LockRank = LockRank::new(640, "lts.quarantine");
/// LTS metadata store record map.
pub const LTS_METADATA: LockRank = LockRank::new(650, "lts.metadata");

// ── leaves: called into from every layer ────────────────────────────────────
/// Coordination (ZooKeeper-model) store tree; a leaf — every layer calls in,
/// possibly holding its own locks, and the store calls nothing back under
/// its lock.
pub const COORDINATION_STORE: LockRank = LockRank::new(800, "coordination.store");
/// Metrics registry instrument table (registration/snapshot only; recording
/// is lock-free).
pub const METRICS_REGISTRY: LockRank = LockRank::new(900, "common.metrics.registry");
/// Text-slot instrument value; read by `snapshot()` while the registry lock
/// is held, so it must rank above [`METRICS_REGISTRY`]. Writers take it alone.
pub const METRICS_TEXT: LockRank = LockRank::new(910, "common.metrics.text");
/// A wire link's reply routes (channel number → reply queue). Taken by a
/// writer under its state lock to open or drop a channel, and by a
/// transport's reply delivery; owners' wake-ups ([`WIRE_WAKEUP`]) are sent
/// only after it is released, and nothing else is acquired under it.
pub const WIRE_ROUTES: LockRank = LockRank::new(915, "common.wire.routes");
/// Latch of a `pravega_common::wire::Wakeup`; a leaf — notified from any
/// thread (a writer holding its state lock, a transport's receive side) and
/// nothing is acquired while holding it.
pub const WIRE_WAKEUP: LockRank = LockRank::new(920, "common.wire.wakeup");
/// Fault-plan injection log; a leaf — decorators append to it before
/// delegating and never call into the wrapped backend while holding it.
pub const FAULTS_PLAN: LockRank = LockRank::new(930, "faults.plan.log");

/// Rank for test fixtures (mocks recording calls, assertion buffers). Higher
/// than every production rank except nothing: fixtures are leaves that must
/// never call back into the system while holding their lock.
pub const TEST_FIXTURE: LockRank = LockRank::new(950, "test.fixture");

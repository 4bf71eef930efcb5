//! The segment container: the component that does the heavy lifting on
//! segments (§2.2, §4).
//!
//! One container owns many segments and multiplexes all their operations
//! into a single WAL log. The write path is:
//!
//! ```text
//! append() ──▶ operation processor (validate, dedup, assign offset/seq)
//!          ──▶ durable log (data frames ─▶ WAL)
//!          ──▶ apply to committed state (read index + cache, attributes)
//!          ──▶ ack client promise
//! ```
//!
//! A background storage writer (started with the container) de-multiplexes
//! committed data by segment, flushes it to LTS, truncates the WAL, and
//! writes metadata checkpoints. If LTS lags, `append` blocks (writer
//! throttling, §4.3). If the WAL fails, the container shuts down and must be
//! recovered (§4.4) — recovery replays the retained WAL over the last
//! metadata checkpoint.
//!
//! This file is the facade: configuration, lifecycle (start/stop/crash) and
//! the read-only accessors. The parts of Fig. 3 live one per module:
//! `processor` + `durablelog` (§4.1), `state` (committed state, what §4.1
//! applies and §4.2 serves), `readpath` (§4.2), `storagewriter` + `throttle`
//! (§4.3) and `recovery` (§4.4). Lock order is **processor before core**.

use pravega_sync::JoinHandle;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use pravega_common::clock::Clock;
use pravega_common::crashpoints::CrashHook;
use pravega_common::id::{ContainerId, WriterId};
use pravega_common::metrics::{Counter, Gauge, Histogram, MetricsRegistry, TextSlot};
use pravega_common::rate::EwmaRate;
use pravega_common::stall::StallTracker;
use pravega_lts::ChunkedSegmentStorage;
use pravega_sync::{rank, Mutex};
use pravega_wal::log::DurableDataLog;

use crate::cache::CacheConfig;
use crate::durablelog::{CommitSink, DurableLog};
use crate::error::SegmentError;
use crate::metadata::SegmentInfoSnapshot;
use crate::operations::Operation;
use crate::processor::{settled, OpPromise, Processor};
use crate::recovery;
use crate::state::Core;
use crate::storagewriter;

/// Tuning knobs for a segment container.
#[derive(Debug, Clone)]
pub struct ContainerConfig {
    /// WAL data frame capacity (the paper's MaxFrameSize).
    pub max_frame_bytes: usize,
    /// Cap on the adaptive batching delay.
    pub max_batch_delay: Duration,
    /// Block cache geometry.
    pub cache: CacheConfig,
    /// Cache utilization that triggers eviction of flushed entries.
    pub cache_high_watermark: f64,
    /// Operations between automatic metadata checkpoints.
    pub checkpoint_interval_ops: u64,
    /// Storage-writer pass interval. The flusher and the WAL truncator each
    /// wait one interval before their first pass, so a container runs no
    /// background pass until `flush_interval` after it starts.
    pub flush_interval: Duration,
    /// Largest single write to LTS.
    pub max_flush_bytes: usize,
    /// Unflushed-byte level at which writer throttling engages (§4.3).
    pub throttle_threshold_bytes: u64,
    /// Multiple of `throttle_threshold_bytes` at which throttling stops
    /// delaying appends and blocks them outright (the hard limit on the
    /// backlog). Values below `1.0` are treated as `1.0`: block at the
    /// threshold.
    pub throttle_hard_limit_ratio: f64,
    /// Sustained storage-writer flush rate in bytes/sec (must be positive).
    pub flush_bytes_per_sec: f64,
    /// Flush pacing burst allowance in bytes.
    pub flush_burst_bytes: f64,
    /// Crash-point hook for the container's pipeline, storage writer and
    /// seal path (`segmentstore.*` points); disarmed in production.
    pub crash_hook: CrashHook,
}

impl Default for ContainerConfig {
    fn default() -> Self {
        Self {
            max_frame_bytes: 1024 * 1024,
            max_batch_delay: Duration::from_millis(20),
            cache: CacheConfig::default(),
            cache_high_watermark: 0.85,
            checkpoint_interval_ops: 500,
            flush_interval: Duration::from_millis(10),
            max_flush_bytes: 1024 * 1024,
            throttle_threshold_bytes: 64 * 1024 * 1024,
            throttle_hard_limit_ratio: 2.0,
            flush_bytes_per_sec: 256.0 * 1024.0 * 1024.0,
            flush_burst_bytes: 4.0 * 1024.0 * 1024.0,
            crash_hook: CrashHook::disarmed(),
        }
    }
}

/// Result of a segment read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// Offset the data starts at.
    pub offset: u64,
    /// Bytes read (may be shorter than requested).
    pub data: Bytes,
    /// The segment is sealed and this read reached its end.
    pub end_of_segment: bool,
    /// The read caught up with the tail of an unsealed segment.
    pub at_tail: bool,
}

impl ReadResult {
    /// An empty read that caught up with the tail of an unsealed segment.
    pub(crate) fn at_tail(offset: u64) -> Self {
        Self {
            offset,
            data: Bytes::new(),
            end_of_segment: false,
            at_tail: true,
        }
    }
}

/// Successful append acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Segment length after this writer's events became durable.
    pub tail: u64,
}

/// Smoothed per-segment load, reported to the control plane's auto-scaler
/// (the data-plane side of the feedback loop, §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentLoad {
    /// Qualified segment name.
    pub segment: String,
    /// Smoothed events per second.
    pub events_per_sec: f64,
    /// Smoothed bytes per second.
    pub bytes_per_sec: f64,
}

/// A pending (pipelined) append: wait for durability when needed.
#[derive(Debug)]
pub struct AppendHandle {
    /// The segment length once this append is durable.
    pub(crate) tail: u64,
    pub(crate) inner: OpPromise,
}

impl AppendHandle {
    /// Blocks until the append is durable.
    ///
    /// # Errors
    ///
    /// Propagates validation and durability failures.
    pub fn wait(self) -> Result<AppendOutcome, SegmentError> {
        let tail = self.tail;
        settled(self.inner.wait()).map(|()| AppendOutcome { tail })
    }

    /// Non-blocking poll; `None` while pending.
    pub fn try_take(&self) -> Option<Result<AppendOutcome, SegmentError>> {
        let tail = self.tail;
        let resolved = self.inner.try_take()?;
        Some(settled(resolved).map(|()| AppendOutcome { tail }))
    }
}

/// Cheap handles to the container's instruments, resolved once at startup.
///
/// All containers of a cluster share one [`MetricsRegistry`] and register
/// under the same names, so their recordings aggregate naturally.
pub(crate) struct ContainerMetrics {
    pub(crate) throttle_engaged: Arc<Counter>,
    pub(crate) throttle_wait_nanos: Arc<Histogram>,
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) tail_read_waits: Arc<Counter>,
    pub(crate) flush_pass_nanos: Arc<Histogram>,
    pub(crate) flushed_bytes: Arc<Counter>,
    pub(crate) flush_lag_bytes: Arc<Gauge>,
    pub(crate) flush_errors: Arc<Counter>,
    pub(crate) last_flush_error: Arc<TextSlot>,
    pub(crate) flush_retries: Arc<Counter>,
    pub(crate) recoveries: Arc<Counter>,
    pub(crate) replayed_ops: Arc<Counter>,
    pub(crate) recovery_nanos: Arc<Histogram>,
    pub(crate) checkpoints: Arc<Counter>,
    /// Writer-visible stall taxonomy (`segmentstore.stalls.*`).
    pub(crate) stalls: StallTracker,
}

impl ContainerMetrics {
    pub(crate) fn new(metrics: &MetricsRegistry) -> Self {
        Self {
            throttle_engaged: metrics.counter("segmentstore.container.throttle_engaged"),
            throttle_wait_nanos: metrics.histogram("segmentstore.container.throttle_wait_nanos"),
            cache_hits: metrics.counter("segmentstore.readindex.cache_hits"),
            cache_misses: metrics.counter("segmentstore.readindex.cache_misses"),
            tail_read_waits: metrics.counter("segmentstore.readindex.tail_read_waits"),
            flush_pass_nanos: metrics.histogram("segmentstore.storagewriter.flush_pass_nanos"),
            flushed_bytes: metrics.counter("segmentstore.storagewriter.flushed_bytes"),
            flush_lag_bytes: metrics.gauge("segmentstore.storagewriter.flush_lag_bytes"),
            flush_errors: metrics.counter("segmentstore.storagewriter.flush_errors"),
            last_flush_error: metrics.text("segmentstore.storagewriter.last_flush_error"),
            flush_retries: metrics.counter("segmentstore.storagewriter.retries"),
            recoveries: metrics.counter("segmentstore.container.recoveries"),
            replayed_ops: metrics.counter("segmentstore.container.replayed_ops"),
            recovery_nanos: metrics.histogram("segmentstore.container.recovery_nanos"),
            checkpoints: metrics.counter("segmentstore.container.checkpoints"),
            stalls: StallTracker::new(metrics),
        }
    }
}

pub(crate) struct ContainerInner {
    pub(crate) id: ContainerId,
    pub(crate) config: ContainerConfig,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) core: Mutex<Core>,
    pub(crate) processor: Mutex<Processor>,
    pub(crate) lts: ChunkedSegmentStorage,
    pub(crate) stopped: AtomicBool,
    pub(crate) unflushed_bytes: AtomicU64,
    pub(crate) ops_since_checkpoint: AtomicU64,
    /// Set by a storage-writer pass that wants a checkpoint + WAL
    /// truncation; consumed by the dedicated truncator thread so a slow
    /// truncate can never extend a flush pass.
    pub(crate) truncate_pending: AtomicBool,
    pub(crate) loads: Mutex<HashMap<String, (EwmaRate, EwmaRate)>>,
    pub(crate) log: OnceLock<Arc<DurableLog>>,
    pub(crate) metrics: ContainerMetrics,
}

impl ContainerInner {
    #[expect(
        clippy::expect_used,
        reason = "the durable log is set exactly once during container startup, before any \
                  request can reach the container"
    )]
    pub(crate) fn log(&self) -> &DurableLog {
        self.log.get().expect("durable log initialized at start")
    }

    /// Stops the container for every caller: new requests fail, and reads
    /// parked on a segment's next apply wake to find it stopped instead of
    /// waiting out their bound.
    pub(crate) fn mark_stopped(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.wake_apply_waiters();
    }

    pub(crate) fn check_running(&self) -> Result<(), SegmentError> {
        if self.stopped.load(Ordering::SeqCst) {
            Err(SegmentError::ContainerStopped)
        } else {
            Ok(())
        }
    }

    /// Takes `bytes` off the unflushed backlog (flushed to LTS, or deleted
    /// before they were).
    pub(crate) fn release_unflushed(&self, bytes: u64) {
        let _ = self
            .unflushed_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    pub(crate) fn record_load(&self, segment: &str, events: u64, bytes: u64) {
        let now = self.clock.now_nanos();
        let mut loads = self.loads.lock();
        let (ev, by) = loads.entry(segment.to_string()).or_insert_with(|| {
            (
                EwmaRate::new(Duration::from_secs(5)),
                EwmaRate::new(Duration::from_secs(5)),
            )
        });
        ev.record(events, now);
        by.record(bytes, now);
    }
}

impl CommitSink for ContainerInner {
    fn apply(&self, seq: u64, op: &Operation) {
        self.apply_committed(seq, op);
    }

    fn on_log_failure(&self, _error: &SegmentError) {
        // §4.4: a severe error with a dependency shuts the container down.
        self.mark_stopped();
    }
}

/// A running segment container.
pub struct SegmentContainer {
    pub(crate) inner: Arc<ContainerInner>,
    /// The storage-writer flusher and the checkpoint/WAL-truncator.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for SegmentContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentContainer")
            .field("id", &self.inner.id)
            .field("stopped", &self.is_stopped())
            .finish()
    }
}

impl SegmentContainer {
    /// Starts (and if necessary recovers) a container over an exclusively
    /// owned WAL log and an LTS backend.
    ///
    /// Recovery reads the retained WAL, seeds state from the most recent
    /// metadata checkpoint, and idempotently replays every retained
    /// operation (§4.4).
    ///
    /// # Errors
    ///
    /// Propagates WAL/LTS failures and corrupt-frame errors.
    pub fn start(
        id: ContainerId,
        wal: Arc<dyn DurableDataLog>,
        lts: ChunkedSegmentStorage,
        clock: Arc<dyn Clock>,
        config: ContainerConfig,
    ) -> Result<Self, SegmentError> {
        Self::start_with_metrics(id, wal, lts, clock, config, &MetricsRegistry::new())
    }

    /// [`SegmentContainer::start`] with an explicit metrics registry.
    ///
    /// The cluster passes one shared registry to every container; instruments
    /// register under fixed `segmentstore.*` names so recordings from all
    /// containers aggregate into the same counters and histograms.
    ///
    /// # Errors
    ///
    /// Propagates WAL/LTS failures and corrupt-frame errors.
    pub fn start_with_metrics(
        id: ContainerId,
        wal: Arc<dyn DurableDataLog>,
        lts: ChunkedSegmentStorage,
        clock: Arc<dyn Clock>,
        config: ContainerConfig,
        metrics: &MetricsRegistry,
    ) -> Result<Self, SegmentError> {
        let inner = recovery::recover(id, &wal, lts, clock, config, metrics)?;
        let log = DurableLog::start(
            wal,
            inner.clone() as Arc<dyn CommitSink>,
            inner.config.clone(),
            metrics,
        )?;
        #[expect(
            clippy::expect_used,
            reason = "`inner` was just recovered and nothing else has seen it, so this is the \
                      first and only set"
        )]
        inner.log.set(log).expect("log set exactly once at startup");

        let flusher = storagewriter::start_flusher(inner.clone())?;
        let truncator = storagewriter::start_truncator(inner.clone())?;
        Ok(Self {
            inner,
            threads: Mutex::new(rank::CONTAINER_FLUSHER, vec![flusher, truncator]),
        })
    }

    /// This container's id.
    pub fn id(&self) -> ContainerId {
        self.inner.id
    }

    /// Whether the container has shut down (WAL failure or explicit stop).
    pub fn is_stopped(&self) -> bool {
        self.inner.stopped.load(Ordering::SeqCst)
    }

    /// Writer handshake: the last *durable* event number for `writer_id`
    /// (`-1` if it never wrote here). Used to resume exactly-once (§3.2).
    ///
    /// # Errors
    ///
    /// [`SegmentError::NoSuchSegment`].
    pub fn setup_append(&self, name: &str, writer_id: WriterId) -> Result<i64, SegmentError> {
        self.inner.check_running()?;
        let core = self.inner.core.lock();
        let st = core.segments.get(name).ok_or(SegmentError::NoSuchSegment)?;
        Ok(st.watermark(writer_id))
    }

    /// Reads committed data. With `wait`, a read at the tail blocks up to
    /// that long for new data (tail reads, §4.2). Cache misses are served
    /// from LTS transparently.
    ///
    /// # Errors
    ///
    /// [`SegmentError::NoSuchSegment`], [`SegmentError::OffsetTruncated`],
    /// [`SegmentError::BeyondTail`], LTS failures.
    pub fn read(
        &self,
        name: &str,
        offset: u64,
        max_len: usize,
        wait: Option<Duration>,
    ) -> Result<ReadResult, SegmentError> {
        self.inner.read(name, offset, max_len, wait)
    }

    /// Committed segment metadata.
    ///
    /// # Errors
    ///
    /// [`SegmentError::NoSuchSegment`].
    pub fn get_info(&self, name: &str) -> Result<SegmentInfoSnapshot, SegmentError> {
        self.inner.check_running()?;
        let core = self.inner.core.lock();
        let st = core.segments.get(name).ok_or(SegmentError::NoSuchSegment)?;
        Ok(SegmentInfoSnapshot {
            name: st.meta.name.clone(),
            length: st.meta.length,
            start_offset: st.meta.start_offset,
            sealed: st.meta.sealed,
            is_table: st.meta.is_table,
            last_modified_nanos: st.meta.last_modified_nanos,
        })
    }

    /// Point reads from a table segment (committed state).
    ///
    /// # Errors
    ///
    /// [`SegmentError::NotATable`], [`SegmentError::NoSuchSegment`].
    pub fn table_get(
        &self,
        name: &str,
        keys: &[Bytes],
    ) -> Result<Vec<Option<(Bytes, i64)>>, SegmentError> {
        self.inner.check_running()?;
        let core = self.inner.core.lock();
        let st = core.segments.get(name).ok_or(SegmentError::NoSuchSegment)?;
        let table = st.table.as_ref().ok_or(SegmentError::NotATable)?;
        Ok(keys.iter().map(|k| table.get(k)).collect())
    }

    /// Scans a table segment in key order.
    ///
    /// # Errors
    ///
    /// [`SegmentError::NotATable`], [`SegmentError::NoSuchSegment`].
    #[allow(clippy::type_complexity)]
    pub fn table_iterate(
        &self,
        name: &str,
        after: Option<Bytes>,
        limit: usize,
    ) -> Result<(Vec<(Bytes, Bytes, i64)>, Option<Bytes>), SegmentError> {
        self.inner.check_running()?;
        let core = self.inner.core.lock();
        let st = core.segments.get(name).ok_or(SegmentError::NoSuchSegment)?;
        let table = st.table.as_ref().ok_or(SegmentError::NotATable)?;
        Ok(table.iterate(after.as_ref(), limit))
    }

    /// Smoothed load per segment: the feedback the controller's auto-scaler
    /// consumes (§3.1).
    pub fn load_report(&self) -> Vec<SegmentLoad> {
        let now = self.inner.clock.now_nanos();
        let loads = self.inner.loads.lock();
        loads
            .iter()
            .map(|(segment, (ev, by))| SegmentLoad {
                segment: segment.clone(),
                events_per_sec: ev.rate(now),
                bytes_per_sec: by.rate(now),
            })
            .collect()
    }

    /// Forces one storage-writer pass (flush to LTS + WAL truncation).
    /// Useful in tests; the background flusher does this continuously.
    ///
    /// # Errors
    ///
    /// Propagates LTS/pipeline failures.
    pub fn flush_once(&self) -> Result<bool, SegmentError> {
        storagewriter::flush_pass(&self.inner)
    }

    /// Writes a metadata checkpoint now.
    ///
    /// # Errors
    ///
    /// Pipeline failures.
    pub fn checkpoint(&self) -> Result<(), SegmentError> {
        self.inner.write_checkpoint()
    }

    /// Bytes committed but not yet flushed to LTS.
    pub fn unflushed_bytes(&self) -> u64 {
        self.inner.unflushed_bytes.load(Ordering::Relaxed)
    }

    /// Number of committed-but-untruncated WAL frames.
    pub fn retained_wal_frames(&self) -> usize {
        self.inner.log().retained_frames()
    }

    /// Histogram of committed data-frame sizes (bytes).
    pub fn frame_sizes(&self) -> Arc<Histogram> {
        self.inner.log().frame_sizes()
    }

    /// Names of live segments (diagnostics).
    pub fn segment_names(&self) -> Vec<String> {
        let core = self.inner.core.lock();
        let mut names: Vec<String> = core.segments.keys().cloned().collect();
        names.sort();
        names
    }

    /// A handle to the container's LTS storage (clones share the quarantine
    /// set) — what the background scrubber walks.
    pub fn lts_storage(&self) -> ChunkedSegmentStorage {
        self.inner.lts.clone()
    }

    /// Rebuilds the logical bytes `[start, start + len)` of `segment` from
    /// the retained WAL — the scrubber's repair source. `None` when the WAL
    /// no longer retains the whole range.
    pub fn rebuild_chunk_bytes(&self, segment: &str, start: u64, len: u64) -> Option<Vec<u8>> {
        self.inner.rebuild_from_wal(segment, start, len)
    }

    /// Stops the container: drains the pipeline and joins threads.
    pub fn stop(&self) {
        self.inner.mark_stopped();
        self.inner.log().stop();
        self.join_background_threads();
    }

    /// Takes the background-thread handles out under the lock, then joins
    /// them unlocked (both loops watch `stopped` and exit promptly).
    fn join_background_threads(&self) {
        let taken = std::mem::take(&mut *self.threads.lock());
        for handle in taken {
            let _ = handle.join();
        }
    }

    /// Abruptly crashes the container: **no drain, no flush, no
    /// checkpoint**. Queued operations fail without being applied, exactly
    /// as if the process died. Returns the WAL handle so callers can keep
    /// it as a "zombie writer" — once a new owner fences the log, appends
    /// through this handle must fail with
    /// [`pravega_wal::error::WalError::Fenced`].
    pub fn crash(&self) -> Arc<dyn DurableDataLog> {
        self.inner.mark_stopped();
        self.inner.log().crash();
        self.join_background_threads();
        self.inner.log().wal_handle()
    }
}

impl Drop for SegmentContainer {
    fn drop(&mut self) {
        self.stop();
    }
}

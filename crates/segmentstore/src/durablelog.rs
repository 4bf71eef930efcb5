//! The container's durable log: the operation pipeline of §4.1.
//!
//! Operations from *all* of a container's segments are multiplexed into a
//! single WAL log. A builder thread aggregates operations into data frames
//! (a frame that opens behind a write still waiting for its WAL ack stays
//! open for one adaptive delay, fixed when its first operation arrives; a
//! frame that opens on an idle log takes what is queued and goes at once);
//! a commit thread waits for WAL acknowledgements **in order**, applies the
//! committed operations to the container state, and completes client
//! promises.
//!
//! The log also tracks, per committed frame, the highest append offset per
//! segment — the bookkeeping that lets the storage writer truncate the WAL
//! once data reaches LTS without ever dropping an unflushed byte (§4.3).

use pravega_sync::JoinHandle;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pravega_common::clock;
use pravega_common::crashpoints;
use pravega_common::future::Completer;
use pravega_common::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use pravega_common::rate::EwmaValue;
use pravega_sync::{rank, Mutex};
use pravega_wal::log::{DurableDataLog, LogAddress};

use crate::container::ContainerConfig;
use crate::dataframe::{batch_delay, DataFrameBuilder};
use crate::error::SegmentError;
use crate::metadata::ContainerSnapshot;
use crate::operations::Operation;

pub(crate) type OpCompleter = Completer<Result<(), SegmentError>>;

/// An operation queued for durable processing.
pub(crate) struct EnqueuedOp {
    pub seq: u64,
    pub op: Operation,
    pub completer: Option<OpCompleter>,
}

/// The consumer of committed operations (the container).
pub(crate) trait CommitSink: Send + Sync + 'static {
    /// Applies a durably-committed operation to in-memory state.
    fn apply(&self, seq: u64, op: &Operation);
    /// Called once when the WAL pipeline fails; the container shuts down
    /// (§4.4 failure handling).
    fn on_log_failure(&self, error: &SegmentError);
}

/// Per-committed-frame bookkeeping for WAL truncation.
#[derive(Debug)]
struct FrameRecord {
    addr: LogAddress,
    /// Highest append end-offset per segment in this frame.
    append_ends: Vec<(String, u64)>,
    /// Highest operation sequence number in this frame.
    last_seq: u64,
    /// For a frame carrying a metadata checkpoint: the `applied_seq` its
    /// snapshot covers. An op can be sequenced between the snapshot build
    /// and the checkpoint enqueue; its frame precedes the checkpoint frame
    /// in the WAL yet its effects are NOT in the snapshot, so truncation
    /// must keep every frame with ops above this bound.
    checkpoint_covers: Option<u64>,
}

struct CommitBatch {
    items: Vec<EnqueuedOp>,
    future: pravega_wal::log::AppendFuture,
    /// When the frame's first operation arrived.
    opened_at: Instant,
    /// When the sealed frame was handed to `wal.append`.
    submitted_at: Instant,
    /// Holds the frame in `LogShared::frames_in_flight` until the commit
    /// loop has its outcome; `None` for a frame that never reached the WAL.
    in_flight: Option<InFlight>,
}

impl CommitBatch {
    /// A batch whose frame never reached the WAL; the pipeline is already
    /// marked failed, so the commit loop fails its operations unapplied.
    fn unwritten(items: Vec<EnqueuedOp>, opened_at: Instant) -> Self {
        Self {
            items,
            future: pravega_wal::log::AppendFuture::failed(pravega_wal::error::WalError::Closed),
            opened_at,
            submitted_at: opened_at,
            in_flight: None,
        }
    }
}

/// One frame handed to `wal.append` whose outcome the commit loop has not
/// yet taken. Dropping it takes the frame off the count, so a batch that is
/// committed, failed, or lost with a dead committer's channel is counted
/// out exactly once.
struct InFlight(Arc<LogShared>);

impl InFlight {
    fn enter(shared: &Arc<LogShared>) -> Self {
        shared.frames_in_flight.fetch_add(1, Ordering::SeqCst);
        Self(shared.clone())
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.frames_in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

struct LogShared {
    wal: Arc<dyn DurableDataLog>,
    frames: Mutex<VecDeque<FrameRecord>>,
    recent_latency_secs: Mutex<EwmaValue>,
    avg_frame_size: Mutex<EwmaValue>,
    failed: AtomicBool,
    queued_ops: AtomicUsize,
    /// Frames submitted to the WAL and not yet acked or failed (see
    /// [`InFlight`]). Zero when a frame opens means the log is idle.
    frames_in_flight: AtomicUsize,
    frame_size_hist: Arc<Histogram>,
    wal_latency_nanos: Arc<Histogram>,
    wal_quorum_nanos: Arc<Histogram>,
    frame_open_nanos: Arc<Histogram>,
    fill_pct_hist: Arc<Histogram>,
    batch_delay_nanos: Arc<Histogram>,
    idle_frames: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    truncate_nanos: Arc<Histogram>,
}

impl LogShared {
    /// Takes `item` off the queue accounting and resolves its promise: `Ok`
    /// once committed, `error` if the pipeline failed first.
    fn resolve(&self, item: EnqueuedOp, error: Option<&SegmentError>) {
        self.queued_ops.fetch_sub(1, Ordering::Relaxed);
        self.queue_depth.sub(1);
        if let Some(completer) = item.completer {
            completer.complete(error.map_or(Ok(()), |e| Err(e.clone())));
        }
    }
}

/// The operation pipeline: enqueue → frame → WAL → apply → ack.
pub(crate) struct DurableLog {
    tx: Mutex<Option<Sender<EnqueuedOp>>>,
    shared: Arc<LogShared>,
    builder_handle: Mutex<Option<JoinHandle<()>>>,
    commit_handle: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("failed", &self.is_failed())
            .field(
                "queued_ops",
                &self.shared.queued_ops.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl DurableLog {
    /// Starts the pipeline over `wal`, delivering committed ops to `sink`.
    ///
    /// Instruments under `segmentstore.durablelog.*` are registered in
    /// `metrics`; the registry is shared cluster-wide so histograms from all
    /// containers merge into the same view.
    pub fn start(
        wal: Arc<dyn DurableDataLog>,
        sink: Arc<dyn CommitSink>,
        config: ContainerConfig,
        metrics: &MetricsRegistry,
    ) -> Result<Arc<Self>, SegmentError> {
        let shared = Arc::new(LogShared {
            wal: wal.clone(),
            frames: Mutex::new(rank::DURABLE_LOG_FRAMES, VecDeque::new()),
            recent_latency_secs: Mutex::new(rank::DURABLE_LOG_LATENCY, EwmaValue::new(0.3)),
            avg_frame_size: Mutex::new(rank::DURABLE_LOG_FRAME_SIZE, EwmaValue::new(0.3)),
            failed: AtomicBool::new(false),
            queued_ops: AtomicUsize::new(0),
            frames_in_flight: AtomicUsize::new(0),
            frame_size_hist: metrics.histogram("segmentstore.durablelog.frame_bytes"),
            wal_latency_nanos: metrics.histogram("segmentstore.durablelog.wal_append_nanos"),
            wal_quorum_nanos: metrics.histogram("segmentstore.durablelog.wal_quorum_nanos"),
            frame_open_nanos: metrics.histogram("segmentstore.durablelog.frame_open_nanos"),
            fill_pct_hist: metrics.histogram("segmentstore.durablelog.frame_fill_pct"),
            batch_delay_nanos: metrics.histogram("segmentstore.durablelog.batch_delay_nanos"),
            idle_frames: metrics.counter("segmentstore.durablelog.idle_frames"),
            queue_depth: metrics.gauge("segmentstore.durablelog.queued_ops"),
            truncate_nanos: metrics.histogram("segmentstore.durablelog.truncate_nanos"),
        });

        #[expect(
            clippy::disallowed_methods,
            reason = "producers enqueue under DURABLE_LOG_TX, which the commit applier needs to \
                      drain: a bounded queue would block the request path inside that lock; \
                      depth is capped by the container's writer throttle (§4)"
        )]
        let (op_tx, op_rx) = unbounded::<EnqueuedOp>();
        #[expect(
            clippy::disallowed_methods,
            reason = "the builder hands frames to the committer while the request path holds \
                      DURABLE_LOG_TX; depth is capped by the writer throttle, like the op queue"
        )]
        let (commit_tx, commit_rx) = unbounded::<CommitBatch>();

        let builder_shared = shared.clone();
        let builder_handle = pravega_sync::spawn("durablelog-builder", move || {
            builder_loop(op_rx, commit_tx, builder_shared, config)
        })
        .map_err(|e| SegmentError::Internal(format!("spawn frame builder: {e}")))?;

        let commit_shared = shared.clone();
        let commit_handle = pravega_sync::spawn("durablelog-commit", move || {
            commit_loop(commit_rx, commit_shared, sink)
        });
        let commit_handle = match commit_handle {
            Ok(handle) => handle,
            Err(e) => {
                // Closing the op channel makes the builder exit; join it
                // before reporting the failure.
                drop(op_tx);
                let _ = builder_handle.join();
                return Err(SegmentError::Internal(format!("spawn committer: {e}")));
            }
        };

        Ok(Arc::new(Self {
            tx: Mutex::new(rank::DURABLE_LOG_TX, Some(op_tx)),
            shared,
            builder_handle: Mutex::new(rank::DURABLE_LOG_BUILDER_HANDLE, Some(builder_handle)),
            commit_handle: Mutex::new(rank::DURABLE_LOG_COMMIT_HANDLE, Some(commit_handle)),
        }))
    }

    /// Queues an operation.
    ///
    /// # Errors
    ///
    /// [`SegmentError::ContainerStopped`] if the pipeline has failed/stopped.
    pub fn enqueue(&self, op: EnqueuedOp) -> Result<(), SegmentError> {
        if self.shared.failed.load(Ordering::SeqCst) {
            return Err(SegmentError::ContainerStopped);
        }
        let tx = self.tx.lock();
        match tx.as_ref() {
            Some(tx) => {
                self.shared.queued_ops.fetch_add(1, Ordering::Relaxed);
                self.shared.queue_depth.add(1);
                tx.send(op).map_err(|_| SegmentError::ContainerStopped)?;
                // Re-check *after* the send: if the pipeline died in the
                // window since the check above, the builder's final drain may
                // already have run, leaving this op queued with nobody to
                // fail it. Erroring here means no caller ever blocks on a
                // promise the dead pipeline cannot resolve.
                if self.shared.failed.load(Ordering::SeqCst) {
                    return Err(SegmentError::ContainerStopped);
                }
                Ok(())
            }
            None => Err(SegmentError::ContainerStopped),
        }
    }

    /// Whether the pipeline has permanently failed.
    pub fn is_failed(&self) -> bool {
        self.shared.failed.load(Ordering::SeqCst)
    }

    /// Operations queued but not yet committed.
    #[cfg(test)]
    pub fn pending_ops(&self) -> usize {
        self.shared.queued_ops.load(Ordering::Relaxed)
    }

    /// The smoothed WAL submit -> ack time the batch delay is computed from.
    #[cfg(test)]
    fn recent_latency(&self) -> Duration {
        Duration::from_secs_f64(self.shared.recent_latency_secs.lock().value_or(0.0))
    }

    /// Frames handed to the WAL whose outcome the commit loop has not taken.
    #[cfg(test)]
    fn frames_in_flight(&self) -> usize {
        self.shared.frames_in_flight.load(Ordering::SeqCst)
    }

    /// Histogram of committed frame sizes (bytes).
    pub fn frame_sizes(&self) -> Arc<Histogram> {
        self.shared.frame_size_hist.clone()
    }

    /// Truncates the WAL: drops the longest prefix of committed frames whose
    /// appends are all flushed (per `flushed_offset`) **and** that precede
    /// the most recent metadata checkpoint. `flushed_offset` returns the
    /// segment's flushed length, or `None` when the segment no longer exists
    /// (its data can be dropped).
    pub fn truncate_flushed(
        &self,
        flushed_offset: impl Fn(&str) -> Option<u64>,
    ) -> Result<usize, SegmentError> {
        let cut_addr = {
            let frames = self.shared.frames.lock();
            let Some((cp_idx, covers)) = frames
                .iter()
                .enumerate()
                .rev()
                .find_map(|(i, f)| f.checkpoint_covers.map(|c| (i, c)))
            else {
                return Ok(0);
            };
            let mut cut = 0usize;
            for (i, frame) in frames.iter().enumerate().take(cp_idx) {
                let all_flushed = frame
                    .append_ends
                    .iter()
                    .all(|(segment, end)| flushed_offset(segment).is_none_or(|fo| *end <= fo));
                // `last_seq <= covers` keeps any frame whose ops raced past
                // the checkpoint's snapshot build (e.g. a seal sequenced
                // between the snapshot and the checkpoint enqueue): their
                // effects exist only in these frames until a later
                // checkpoint covers them.
                if all_flushed && frame.last_seq <= covers {
                    cut = i + 1;
                } else {
                    break;
                }
            }
            if cut == 0 {
                return Ok(0);
            }
            frames[cut - 1].addr
        };
        // The WAL truncate runs *without* the frames lock held: ledger
        // deletion can be slow, and holding the lock here would stall the
        // commit loop (and through it, every appender) for its duration.
        // The truncator thread is the only caller in production, so a slow
        // truncate costs only that thread; the duration is recorded so
        // soak timelines can see it.
        let truncate_start = pravega_common::clock::monotonic_now();
        self.shared.wal.truncate(cut_addr)?;
        self.shared
            .truncate_nanos
            .record(truncate_start.elapsed().as_nanos() as u64);
        let mut frames = self.shared.frames.lock();
        let mut dropped = 0;
        while frames.front().map(|f| f.addr <= cut_addr).unwrap_or(false) {
            frames.pop_front();
            dropped += 1;
        }
        Ok(dropped)
    }

    /// Number of committed frames retained (not yet truncated).
    pub fn retained_frames(&self) -> usize {
        self.shared.frames.lock().len()
    }

    /// Abruptly kills the pipeline **without draining**: queued and in-flight
    /// operations fail with [`SegmentError::ContainerStopped`] and are never
    /// applied, modelling a process crash. Unlike [`DurableLog::stop`], no
    /// attempt is made to commit what was enqueued.
    pub fn crash(&self) {
        // Mark failed *first* so the commit loop fails any batch it has not
        // yet applied instead of committing it during teardown.
        self.shared.failed.store(true, Ordering::SeqCst);
        self.stop();
    }

    /// The underlying WAL handle. A crashed store's handle is kept by tests
    /// as a "zombie writer": once a new owner fences the log, its appends
    /// must fail with [`pravega_wal::error::WalError::Fenced`].
    pub fn wal_handle(&self) -> Arc<dyn DurableDataLog> {
        self.shared.wal.clone()
    }

    /// Stops the pipeline, draining in-flight operations first.
    pub fn stop(&self) {
        self.tx.lock().take();
        // Copy the handles out before joining: `lock().take()` inside an
        // `if let` keeps the guard alive for the whole body, which would
        // hold the handle lock across the joins.
        let builder = self.builder_handle.lock().take();
        if let Some(h) = builder {
            let _ = h.join();
        }
        let commit = self.commit_handle.lock().take();
        if let Some(h) = commit {
            let _ = h.join();
        }
    }
}

fn builder_loop(
    op_rx: Receiver<EnqueuedOp>,
    commit_tx: Sender<CommitBatch>,
    shared: Arc<LogShared>,
    config: ContainerConfig,
) {
    let mut builder = DataFrameBuilder::new(config.max_frame_bytes);
    let mut disconnected = false;
    while !disconnected {
        let first = match op_rx.recv() {
            Ok(op) => op,
            Err(_) => break,
        };
        let opened_at = clock::monotonic_now();
        let mut items = Vec::new();
        builder.push_op(first.seq, &first.op);
        items.push(first);
        // The delay (§4.1) lets small writes share a busy WAL: a frame that
        // opens while an earlier one still waits for its ack holds on for
        // company. On an idle log there is no write to share, so the frame
        // takes only what is already queued and goes.
        //
        // One deadline per frame: the delay is fixed when the frame opens
        // and counts from its first operation. Re-arming it per received op
        // would let any trickle with gaps shorter than the delay hold the
        // frame open until `max_batch_delay` (or, uncapped, until
        // MaxFrameSize).
        let delay = if shared.frames_in_flight.load(Ordering::SeqCst) == 0 {
            shared.idle_frames.inc();
            Duration::ZERO
        } else {
            let latency =
                Duration::from_secs_f64(shared.recent_latency_secs.lock().value_or(0.0).max(0.0));
            let avg_size = shared
                .avg_frame_size
                .lock()
                .value_or(config.max_frame_bytes as f64);
            batch_delay(
                latency,
                avg_size,
                config.max_frame_bytes as f64,
                config.max_batch_delay,
            )
        };
        shared.batch_delay_nanos.record(delay.as_nanos() as u64);
        let deadline = opened_at + delay;
        while !builder.is_full() {
            // A zero timeout still hands over what is already queued, so a
            // backlog fills the frame past its deadline without waiting.
            let left = deadline.saturating_duration_since(clock::monotonic_now());
            match op_rx.recv_timeout(left) {
                Ok(op) => {
                    builder.push_op(op.seq, &op.op);
                    items.push(op);
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        shared
            .frame_open_nanos
            .record(opened_at.elapsed().as_nanos() as u64);

        let frame = match builder.seal_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => {
                // A frame that won't seal (empty — can't happen, the loop
                // pushed at least one op — or a corrupt builder buffer) must
                // fail the pipeline, never reach the WAL: ack nothing and die
                // exactly like the crash path below.
                shared.failed.store(true, Ordering::SeqCst);
                let _ = commit_tx.send(CommitBatch::unwritten(items, opened_at));
                break;
            }
        };
        shared.avg_frame_size.lock().record(frame.len() as f64);
        shared.frame_size_hist.record(frame.len() as u64);
        shared
            .fill_pct_hist
            .record((frame.len() as u64 * 100) / config.max_frame_bytes.max(1) as u64);
        if config
            .crash_hook
            .fire(crashpoints::SEGMENTSTORE_DURABLELOG_MID_FRAME)
        {
            // Simulated crash mid-frame-append: a strict prefix of the frame
            // reaches the WAL as a torn final record (replay must tolerate
            // it), the pipeline dies, and none of the frame's ops are acked.
            // Waiting for the torn write makes the torn state deterministic.
            let torn = frame.slice(..frame.len() / 2);
            let _ = shared.wal.append(torn).wait();
            shared.failed.store(true, Ordering::SeqCst);
            // The commit loop sees `failed` and fails these completers
            // without applying anything.
            let _ = commit_tx.send(CommitBatch::unwritten(items, opened_at));
            break;
        }
        let submitted_at = clock::monotonic_now();
        let in_flight = InFlight::enter(&shared);
        let future = shared.wal.append(frame);
        if commit_tx
            .send(CommitBatch {
                items,
                future,
                opened_at,
                submitted_at,
                in_flight: Some(in_flight),
            })
            .is_err()
        {
            // The committer is gone: nothing downstream can resolve promises
            // any more, so the pipeline is dead. (The unsent batch, dropped
            // here, takes its frame off the in-flight count.)
            shared.failed.store(true, Ordering::SeqCst);
            break;
        }
    }
    // Abnormal exits (crash point, dead committer) abandon whatever is still
    // queued behind the frame under construction. Those ops hold completers
    // that nobody else can reach — the queue itself outlives this thread via
    // the sender half — so fail them here; otherwise `wait_done` callers
    // (conn handlers, checkpoints, flush passes) block forever on promises a
    // dead pipeline can never resolve. On graceful exits the queue is empty
    // and this drain is a no-op.
    while let Ok(op) = op_rx.try_recv() {
        shared.resolve(op, Some(&SegmentError::ContainerStopped));
    }
}

fn commit_loop(
    commit_rx: Receiver<CommitBatch>,
    shared: Arc<LogShared>,
    sink: Arc<dyn CommitSink>,
) {
    let mut reported_failure = false;
    while let Ok(batch) = commit_rx.recv() {
        let already_failed = shared.failed.load(Ordering::SeqCst);
        let result = if already_failed {
            Err(SegmentError::ContainerStopped)
        } else {
            batch.future.wait().map_err(SegmentError::from)
        };
        // The WAL is done with this frame: the next one to open may be idle.
        drop(batch.in_flight);
        match result {
            Ok(addr) => {
                // `RecentLatency` in the delay formula is the WAL's own
                // submit -> ack time. Measuring from frame open would fold
                // the delay into the latency it is computed from, and the
                // pair then ratchets up to `max_batch_delay` and stays there.
                let quorum = batch.submitted_at.elapsed();
                shared
                    .recent_latency_secs
                    .lock()
                    .record(quorum.as_secs_f64());
                shared.wal_quorum_nanos.record(quorum.as_nanos() as u64);
                shared
                    .wal_latency_nanos
                    .record(batch.opened_at.elapsed().as_nanos() as u64);
                let mut append_ends: Vec<(String, u64)> = Vec::new();
                let mut last_seq = 0u64;
                let mut checkpoint_covers: Option<u64> = None;
                for item in &batch.items {
                    sink.apply(item.seq, &item.op);
                    last_seq = last_seq.max(item.seq);
                    match &item.op {
                        Operation::Append {
                            segment,
                            offset,
                            data,
                            ..
                        } => {
                            let end = offset + data.len() as u64;
                            match append_ends.iter_mut().find(|(s, _)| s == segment) {
                                Some((_, e)) => *e = (*e).max(end),
                                None => append_ends.push((segment.clone(), end)),
                            }
                        }
                        Operation::MetadataCheckpoint { snapshot } => {
                            // An undecodable snapshot covers nothing: every
                            // earlier frame stays retained (conservative).
                            let covers = ContainerSnapshot::applied_seq_of(snapshot).unwrap_or(0);
                            checkpoint_covers =
                                Some(checkpoint_covers.map_or(covers, |c| c.max(covers)));
                        }
                        _ => {}
                    }
                }
                shared.frames.lock().push_back(FrameRecord {
                    addr,
                    append_ends,
                    last_seq,
                    checkpoint_covers,
                });
                for item in batch.items {
                    shared.resolve(item, None);
                }
            }
            Err(error) => {
                shared.failed.store(true, Ordering::SeqCst);
                if !reported_failure {
                    reported_failure = true;
                    sink.on_log_failure(&error);
                }
                for item in batch.items {
                    shared.resolve(item, Some(&error));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pravega_common::crashpoints::CrashHook;
    use pravega_common::future::{promise, Promise};
    use pravega_common::id::WriterId;
    use pravega_wal::error::WalError;
    use pravega_wal::log::{AppendFuture, InMemoryLog};

    #[derive(Debug)]
    struct RecordingSink {
        applied: Mutex<Vec<(u64, Operation)>>,
        failures: AtomicUsize,
    }

    impl Default for RecordingSink {
        fn default() -> Self {
            Self {
                applied: Mutex::new(rank::TEST_FIXTURE, Vec::new()),
                failures: AtomicUsize::new(0),
            }
        }
    }

    impl CommitSink for RecordingSink {
        fn apply(&self, seq: u64, op: &Operation) {
            self.applied.lock().push((seq, op.clone()));
        }
        fn on_log_failure(&self, _error: &SegmentError) {
            self.failures.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A WAL that acks every append a fixed time after it was submitted.
    #[derive(Debug)]
    struct FixedAckLog {
        inner: InMemoryLog,
        acks: Option<Sender<(Instant, Completer<Result<u64, WalError>>, u64)>>,
        acker: Option<std::thread::JoinHandle<()>>,
        /// When each append was submitted, in order.
        submitted: Mutex<Vec<Instant>>,
        /// How long after its submission an append is acked: `ACK_AFTER`
        /// unless a test holds one frame in flight for longer.
        ack_after: Mutex<Duration>,
    }

    const ACK_AFTER: Duration = Duration::from_millis(2);

    impl FixedAckLog {
        fn new() -> Self {
            let (acks, due) = unbounded::<(Instant, Completer<Result<u64, WalError>>, u64)>();
            let acker = std::thread::spawn(move || {
                for (at, completer, entry) in due {
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    completer.complete(Ok(entry));
                }
            });
            Self {
                inner: InMemoryLog::new(),
                acks: Some(acks),
                acker: Some(acker),
                submitted: Mutex::new(rank::TEST_FIXTURE, Vec::new()),
                ack_after: Mutex::new(rank::TEST_FIXTURE, ACK_AFTER),
            }
        }

        fn submissions(&self) -> Vec<Instant> {
            self.submitted.lock().clone()
        }
    }

    impl Drop for FixedAckLog {
        fn drop(&mut self) {
            self.acks.take();
            if let Some(acker) = self.acker.take() {
                let _ = acker.join();
            }
        }
    }

    impl DurableDataLog for FixedAckLog {
        fn append(&self, data: Bytes) -> AppendFuture {
            let now = Instant::now();
            // Read before the submission shows, so a test that waits for it
            // may then change the ack time for later appends only.
            let at = now + *self.ack_after.lock();
            self.submitted.lock().push(now);
            let stored = match self.inner.append(data).wait() {
                Ok(addr) => addr,
                Err(e) => return AppendFuture::failed(e),
            };
            let (completer, ack) = promise();
            if let Some(acks) = &self.acks {
                let _ = acks.send((at, completer, stored.entry));
            }
            AppendFuture::pending(ack, stored.ledger_seq)
        }
        fn read_after(
            &self,
            from: Option<LogAddress>,
        ) -> Result<Vec<(LogAddress, Bytes)>, WalError> {
            self.inner.read_after(from)
        }
        fn truncate(&self, up_to: LogAddress) -> Result<(), WalError> {
            self.inner.truncate(up_to)
        }
        fn epoch(&self) -> u64 {
            self.inner.epoch()
        }
        fn is_fenced(&self) -> bool {
            self.inner.is_fenced()
        }
    }

    /// Enqueues `count` appends `gap` apart and waits for all of them.
    fn trickle(log: &DurableLog, count: u64, gap: Duration) {
        let promises: Vec<_> = (0..count)
            .map(|seq| {
                let (completer, pr) = promise();
                log.enqueue(EnqueuedOp {
                    seq,
                    op: append_op(seq),
                    completer: Some(completer),
                })
                .unwrap();
                std::thread::sleep(gap);
                pr
            })
            .collect();
        for pr in promises {
            pr.wait().unwrap().unwrap();
        }
    }

    /// Regression: `RecentLatency` was measured from frame open, so it
    /// contained the delay computed from it. With nothing to batch, every
    /// frame waited out the previous latency and reported that wait plus the
    /// WAL's 2 ms as the next one: +0.6 ms per frame until the cap.
    #[test]
    fn sparse_ops_do_not_ratchet_the_delay_up_to_the_cap() {
        let log = DurableLog::start(
            Arc::new(FixedAckLog::new()),
            Arc::new(RecordingSink::default()),
            ContainerConfig::default(),
            &MetricsRegistry::new(),
        )
        .unwrap();
        trickle(&log, 100, Duration::from_millis(10));
        let latency = log.recent_latency();
        assert!(
            latency >= ACK_AFTER / 2 && latency <= ACK_AFTER * 2,
            "latency EWMA {latency:?} after 100 sparse ops on a WAL that acks in {ACK_AFTER:?}"
        );
        log.stop();
    }

    /// Regression: the delay was re-armed after every received op, so ops
    /// arriving closer together than the delay held each frame open until
    /// `max_batch_delay` — here 100 ops per frame instead of about 4.
    #[test]
    fn a_trickle_faster_than_the_delay_gets_one_delay_per_frame() {
        let gap = Duration::from_micros(500);
        let ops = 400u64;
        let log = DurableLog::start(
            Arc::new(FixedAckLog::new()),
            Arc::new(RecordingSink::default()),
            ContainerConfig {
                max_batch_delay: Duration::from_millis(50),
                ..ContainerConfig::default()
            },
            &MetricsRegistry::new(),
        )
        .unwrap();
        trickle(&log, ops, gap);
        let adaptive = log.recent_latency();
        assert!(
            adaptive <= ACK_AFTER * 4,
            "latency EWMA {adaptive:?} on a WAL that acks in {ACK_AFTER:?}"
        );
        // A frame open for `adaptive` sees at most `adaptive / gap` further
        // ops (fewer, since the sender's sleeps overshoot); the mean leaves
        // room for a builder that was descheduled and woke to a backlog.
        let per_frame = ops as f64 / log.retained_frames() as f64;
        let bound = adaptive.as_secs_f64() / gap.as_secs_f64() + 2.0;
        assert!(
            per_frame <= bound,
            "{per_frame:.1} ops per frame with a {adaptive:?} delay and {gap:?} gaps \
             (bound {bound:.1}; the cap alone would allow 100)"
        );
        log.stop();
    }

    fn enqueue_append(log: &DurableLog, seq: u64) -> Promise<Result<(), SegmentError>> {
        let (completer, pr) = promise();
        log.enqueue(EnqueuedOp {
            seq,
            op: append_op(seq),
            completer: Some(completer),
        })
        .unwrap();
        pr
    }

    /// Enqueues an append the pipeline is set to fail (a fenced WAL, an
    /// armed crash point) and waits for it to fail. The builder can fail the
    /// op, and with it the pipeline, before `enqueue` returns; `enqueue`'s
    /// re-check after its send then answers `ContainerStopped`. Either answer
    /// is the op failing, and either way the op was queued, so the commit
    /// loop resolves its promise.
    fn append_fails(log: &DurableLog, seq: u64) {
        let (completer, pr) = promise();
        let queued = log.enqueue(EnqueuedOp {
            seq,
            op: append_op(seq),
            completer: Some(completer),
        });
        assert!(
            matches!(queued, Ok(()) | Err(SegmentError::ContainerStopped)),
            "{queued:?}"
        );
        assert!(pr.wait().unwrap().is_err());
    }

    /// Sparse ops each reach a log with nothing in flight: their frames take
    /// no delay, where the formula alone would hold each one for about one
    /// `RecentLatency` (here `ACK_AFTER`).
    #[test]
    fn an_op_reaching_an_idle_log_is_submitted_at_once() {
        let wal = Arc::new(FixedAckLog::new());
        let metrics = MetricsRegistry::new();
        let log = DurableLog::start(
            wal.clone(),
            Arc::new(RecordingSink::default()),
            ContainerConfig::default(),
            &metrics,
        )
        .unwrap();
        let ops = 40u64;
        let mut lags: Vec<Duration> = (0..ops)
            .map(|seq| {
                let enqueued = Instant::now();
                enqueue_append(&log, seq).wait().unwrap().unwrap();
                let lag = wal.submissions()[seq as usize] - enqueued;
                std::thread::sleep(Duration::from_millis(5));
                lag
            })
            .collect();
        assert!(
            log.recent_latency() >= ACK_AFTER,
            "the delay the idle frames skipped would have been {:?}",
            log.recent_latency()
        );
        lags.sort_unstable();
        let median = lags[lags.len() / 2];
        assert!(
            median < ACK_AFTER / 4,
            "an op on an idle log waited {median:?} (median) to reach a WAL that acks in \
             {ACK_AFTER:?}"
        );
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("segmentstore.durablelog.idle_frames"),
            Some(ops)
        );
        let delays = snap
            .histogram("segmentstore.durablelog.batch_delay_nanos")
            .unwrap();
        assert_eq!(
            (delays.count, delays.max),
            (ops, 0),
            "one zero per idle frame"
        );
        log.stop();
    }

    /// An op that arrives while a frame waits for its ack opens a frame that
    /// waits the adaptive delay, as before.
    #[test]
    fn an_op_behind_a_frame_in_flight_waits_the_adaptive_delay() {
        let wal = Arc::new(FixedAckLog::new());
        let metrics = MetricsRegistry::new();
        let log = DurableLog::start(
            wal.clone(),
            Arc::new(RecordingSink::default()),
            ContainerConfig::default(),
            &metrics,
        )
        .unwrap();
        // Teach the log its WAL's latency.
        // Two trickled ops share a frame when an ack is late, so count the
        // submissions rather than assume one per op.
        trickle(&log, 10, Duration::from_millis(5));
        let trickled = wal.submissions().len();
        // Hold the first op's frame in flight well past any scheduling
        // stall, so the second op certainly arrives behind it.
        *wal.ack_after.lock() = Duration::from_millis(200);
        let first = enqueue_append(&log, 10);
        let deadline = Instant::now() + Duration::from_secs(10);
        while wal.submissions().len() <= trickled {
            assert!(
                Instant::now() < deadline,
                "the first op never reached the WAL"
            );
            std::thread::sleep(Duration::from_micros(50));
        }
        *wal.ack_after.lock() = ACK_AFTER;
        let idle_before = metrics
            .snapshot()
            .counter("segmentstore.durablelog.idle_frames");
        let enqueued = Instant::now();
        let second = enqueue_append(&log, 11);
        first.wait().unwrap().unwrap();
        second.wait().unwrap().unwrap();
        let lag = wal.submissions()[trickled + 1] - enqueued;
        assert!(
            lag >= ACK_AFTER / 2,
            "an op behind a frame in flight was submitted after {lag:?}, not after the \
             adaptive delay (RecentLatency {:?})",
            log.recent_latency()
        );
        let idle = metrics
            .snapshot()
            .counter("segmentstore.durablelog.idle_frames");
        assert_eq!(
            idle, idle_before,
            "the second op's frame opened behind the first's in flight, not on an idle log"
        );
        log.stop();
    }

    /// A sink whose every apply panics: it kills the commit thread.
    struct PanickingSink;

    impl CommitSink for PanickingSink {
        fn apply(&self, _seq: u64, _op: &Operation) {
            panic!("committer dies");
        }
        fn on_log_failure(&self, _error: &SegmentError) {}
    }

    /// Every frame submitted to the WAL is counted out once, whether it is
    /// acked, fails, or is lost with the committer; a frame that never
    /// reaches the WAL is never counted in. A leak would hold every later
    /// frame open for the adaptive delay.
    #[test]
    fn frames_in_flight_return_to_zero_on_every_failure_path() {
        // A WAL error.
        let wal = Arc::new(InMemoryLog::new());
        let log = DurableLog::start(
            wal.clone(),
            Arc::new(RecordingSink::default()),
            ContainerConfig::default(),
            &MetricsRegistry::new(),
        )
        .unwrap();
        enqueue_append(&log, 0).wait().unwrap().unwrap();
        assert_eq!(log.frames_in_flight(), 0);
        wal.fence();
        append_fails(&log, 1);
        assert_eq!(log.frames_in_flight(), 0, "after a WAL error");
        log.stop();

        // The mid-frame crash point: the torn frame is not a submitted batch.
        let log = DurableLog::start(
            Arc::new(InMemoryLog::new()),
            Arc::new(RecordingSink::default()),
            ContainerConfig {
                crash_hook: CrashHook::armed(|point| {
                    point == crashpoints::SEGMENTSTORE_DURABLELOG_MID_FRAME
                }),
                ..ContainerConfig::default()
            },
            &MetricsRegistry::new(),
        )
        .unwrap();
        append_fails(&log, 0);
        assert!(log.is_failed());
        assert_eq!(log.frames_in_flight(), 0, "after the mid-frame crash point");
        log.stop();

        // A dead committer: the builder finds out when its next send fails.
        let log = DurableLog::start(
            Arc::new(InMemoryLog::new()),
            Arc::new(PanickingSink),
            ContainerConfig::default(),
            &MetricsRegistry::new(),
        )
        .unwrap();
        assert!(
            enqueue_append(&log, 0).wait().is_err(),
            "the committer died"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seq = 1;
        while !log.is_failed() {
            assert!(
                Instant::now() < deadline,
                "the builder never saw the dead committer"
            );
            let _ = log.enqueue(EnqueuedOp {
                seq,
                op: append_op(seq),
                completer: None,
            });
            seq += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        log.stop();
        assert_eq!(log.frames_in_flight(), 0, "after the committer died");
    }

    fn append_op(seq: u64) -> Operation {
        Operation::Append {
            segment: "s".into(),
            offset: seq * 10,
            data: Bytes::from(vec![0u8; 10]),
            writer_id: WriterId(1),
            last_event_number: seq as i64,
            event_count: 1,
        }
    }

    /// Pins the shutdown ordering (DESIGN.md §10 lists the join sites):
    /// `stop()` must take the op sender *before* joining the builder thread
    /// (whose exit drops `commit_tx`, which in turn lets the commit thread
    /// drain and exit). Joining a pump first would deadlock with it blocked
    /// in `recv()` on a channel the joiner still owns; the watchdog turns
    /// that hang into a failure.
    #[test]
    fn stop_with_queued_ops_releases_sender_before_join() {
        let wal = Arc::new(InMemoryLog::new());
        let sink = Arc::new(RecordingSink::default());
        let log = DurableLog::start(
            wal,
            sink,
            ContainerConfig::default(),
            &MetricsRegistry::new(),
        )
        .unwrap();
        let mut promises = Vec::new();
        for seq in 0..50u64 {
            let (completer, pr) = promise();
            log.enqueue(EnqueuedOp {
                seq,
                op: append_op(seq),
                completer: Some(completer),
            })
            .unwrap();
            promises.push(pr);
        }
        let stopper = std::thread::spawn(move || log.stop());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !stopper.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "DurableLog::stop deadlocked: joined a pump before releasing the op sender"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        stopper.join().unwrap();
        // Stop drains: everything enqueued before it was committed and acked.
        for pr in promises {
            assert!(matches!(pr.wait(), Ok(Ok(_))));
        }
    }

    #[test]
    fn ops_commit_in_order_and_ack() {
        let wal = Arc::new(InMemoryLog::new());
        let sink = Arc::new(RecordingSink::default());
        let log = DurableLog::start(
            wal,
            sink.clone(),
            ContainerConfig::default(),
            &MetricsRegistry::new(),
        )
        .unwrap();
        let mut promises = Vec::new();
        for seq in 0..50u64 {
            let (completer, pr) = promise();
            log.enqueue(EnqueuedOp {
                seq,
                op: append_op(seq),
                completer: Some(completer),
            })
            .unwrap();
            promises.push(pr);
        }
        for pr in promises {
            pr.wait().unwrap().unwrap();
        }
        {
            let applied = sink.applied.lock();
            assert_eq!(applied.len(), 50);
            for (i, (seq, _)) in applied.iter().enumerate() {
                assert_eq!(*seq, i as u64);
            }
        }
        assert_eq!(log.pending_ops(), 0);
        log.stop();
    }

    #[test]
    fn wal_failure_fails_pipeline_and_notifies_sink() {
        let wal = Arc::new(InMemoryLog::new());
        let sink = Arc::new(RecordingSink::default());
        let log = DurableLog::start(
            wal.clone(),
            sink.clone(),
            ContainerConfig::default(),
            &MetricsRegistry::new(),
        )
        .unwrap();
        // First op succeeds.
        let (c1, p1) = promise();
        log.enqueue(EnqueuedOp {
            seq: 0,
            op: append_op(0),
            completer: Some(c1),
        })
        .unwrap();
        p1.wait().unwrap().unwrap();
        // Fence the WAL: next op must fail.
        wal.fence();
        append_fails(&log, 1);
        // Pipeline is now permanently failed.
        for _ in 0..100 {
            if log.is_failed() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(log.is_failed());
        assert_eq!(sink.failures.load(Ordering::SeqCst), 1);
        let err = log
            .enqueue(EnqueuedOp {
                seq: 2,
                op: append_op(2),
                completer: None,
            })
            .unwrap_err();
        assert_eq!(err, SegmentError::ContainerStopped);
        log.stop();
    }

    #[test]
    fn truncation_respects_flush_boundary_and_checkpoint() {
        let wal = Arc::new(InMemoryLog::new());
        let sink = Arc::new(RecordingSink::default());
        // Force tiny frames so each op is its own frame.
        let log = DurableLog::start(
            wal.clone(),
            sink,
            ContainerConfig {
                max_frame_bytes: 1,
                max_batch_delay: Duration::ZERO,
                ..ContainerConfig::default()
            },
            &MetricsRegistry::new(),
        )
        .unwrap();
        let mut wait_all = Vec::new();
        for seq in 0..4u64 {
            let (c, p) = promise();
            log.enqueue(EnqueuedOp {
                seq,
                op: append_op(seq), // appends end at (seq+1)*10
                completer: Some(c),
            })
            .unwrap();
            wait_all.push(p);
        }
        let (c, p) = promise();
        log.enqueue(EnqueuedOp {
            seq: 4,
            op: Operation::MetadataCheckpoint {
                // A snapshot covering ops 0..=3 (truncation compares frame
                // sequence numbers against this bound).
                snapshot: ContainerSnapshot {
                    applied_seq: 3,
                    segments: Vec::new(),
                }
                .encode(),
            },
            completer: Some(c),
        })
        .unwrap();
        wait_all.push(p);
        for p in wait_all {
            p.wait().unwrap().unwrap();
        }
        assert_eq!(log.retained_frames(), 5);

        // Nothing flushed: nothing truncatable.
        assert_eq!(log.truncate_flushed(|_| Some(0)).unwrap(), 0);

        // First two appends flushed (up to offset 20).
        let dropped = log.truncate_flushed(|_| Some(20)).unwrap();
        assert_eq!(dropped, 2);
        assert_eq!(log.retained_frames(), 3);

        // Everything flushed: appends 3 and 4 go, checkpoint frame stays.
        let dropped = log.truncate_flushed(|_| Some(1_000)).unwrap();
        assert_eq!(dropped, 2);
        assert_eq!(log.retained_frames(), 1);
        assert_eq!(wal.len(), 1, "only the checkpoint frame is retained");
        log.stop();
    }

    /// Regression: an op sequenced between a checkpoint's snapshot build and
    /// the checkpoint enqueue lands in an earlier WAL frame than the
    /// checkpoint, yet its effects are NOT in the snapshot. Truncating that
    /// frame (a seal has no append ends, so the flush test is vacuous) used
    /// to silently lose the op across recovery.
    #[test]
    fn truncation_keeps_frames_the_checkpoint_snapshot_does_not_cover() {
        let wal = Arc::new(InMemoryLog::new());
        let sink = Arc::new(RecordingSink::default());
        let log = DurableLog::start(
            wal.clone(),
            sink,
            ContainerConfig {
                max_frame_bytes: 1,
                max_batch_delay: Duration::ZERO,
                ..ContainerConfig::default()
            },
            &MetricsRegistry::new(),
        )
        .unwrap();
        let mut wait_all = Vec::new();
        for seq in 0..2u64 {
            let (c, p) = promise();
            log.enqueue(EnqueuedOp {
                seq,
                op: append_op(seq),
                completer: Some(c),
            })
            .unwrap();
            wait_all.push(p);
        }
        // The racing seal: sequenced after the snapshot was built (it covers
        // only ops 0..=1) but before the checkpoint op.
        let (c, p) = promise();
        log.enqueue(EnqueuedOp {
            seq: 2,
            op: Operation::Seal {
                segment: "s".into(),
            },
            completer: Some(c),
        })
        .unwrap();
        wait_all.push(p);
        let (c, p) = promise();
        log.enqueue(EnqueuedOp {
            seq: 3,
            op: Operation::MetadataCheckpoint {
                snapshot: ContainerSnapshot {
                    applied_seq: 1,
                    segments: Vec::new(),
                }
                .encode(),
            },
            completer: Some(c),
        })
        .unwrap();
        wait_all.push(p);
        for p in wait_all {
            p.wait().unwrap().unwrap();
        }
        assert_eq!(log.retained_frames(), 4);

        // Everything flushed — but the seal frame (seq 2 > covers 1) and the
        // checkpoint frame must both survive; only the covered appends go.
        let dropped = log.truncate_flushed(|_| Some(1_000)).unwrap();
        assert_eq!(dropped, 2, "only the snapshot-covered append frames go");
        assert_eq!(log.retained_frames(), 2);
        assert_eq!(wal.len(), 2, "the uncovered seal frame is retained");
        log.stop();
    }

    #[test]
    fn steady_trickle_does_not_extend_frames_past_the_deadline() {
        // Regression: the adaptive delay must never re-arm per received op —
        // a steady trickle once kept frames open until they hit MaxFrameSize
        // (tens of seconds of latency).
        let wal = Arc::new(InMemoryLog::new());
        let sink = Arc::new(RecordingSink::default());
        let log = DurableLog::start(
            wal,
            sink,
            ContainerConfig {
                max_frame_bytes: 1 << 20,
                max_batch_delay: Duration::from_millis(10),
                ..ContainerConfig::default()
            },
            &MetricsRegistry::new(),
        )
        .unwrap();
        // Trickle: one op every 2 ms for ~200 ms — far below the frame size.
        let start = Instant::now();
        let mut promises = Vec::new();
        for seq in 0..100u64 {
            let (c, p) = promise();
            log.enqueue(EnqueuedOp {
                seq,
                op: append_op(seq),
                completer: Some(c),
            })
            .unwrap();
            promises.push((Instant::now(), p));
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut worst = Duration::ZERO;
        for (sent, p) in promises {
            p.wait().unwrap().unwrap();
            worst = worst.max(sent.elapsed());
        }
        let _ = start;
        // Generous bound: the regression being guarded against kept frames
        // open for tens of seconds, while a healthy pipeline closes them in
        // ~10 ms. The slack absorbs scheduler jitter when the full test
        // suite runs in parallel.
        assert!(
            worst < Duration::from_millis(1500),
            "a trickled op waited {worst:?} for its frame"
        );
        assert!(
            log.retained_frames() > 3,
            "the trickle must have been split into multiple frames"
        );
        log.stop();
    }

    #[test]
    fn batching_groups_concurrent_ops_into_frames() {
        let wal = Arc::new(InMemoryLog::new());
        let sink = Arc::new(RecordingSink::default());
        let log = DurableLog::start(
            wal,
            sink,
            ContainerConfig::default(),
            &MetricsRegistry::new(),
        )
        .unwrap();
        let mut promises = Vec::new();
        for seq in 0..200u64 {
            let (c, p) = promise();
            log.enqueue(EnqueuedOp {
                seq,
                op: append_op(seq),
                completer: Some(c),
            })
            .unwrap();
            promises.push(p);
        }
        for p in promises {
            p.wait().unwrap().unwrap();
        }
        // 200 ops must land in far fewer frames.
        let frames = log.retained_frames();
        assert!(frames < 200, "expected batching, got {frames} frames");
        log.stop();
    }
}

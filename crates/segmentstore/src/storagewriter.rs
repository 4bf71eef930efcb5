//! The storage writer: integrated tiering on the write path (§4.3).
//!
//! A background thread per container de-multiplexes committed operations by
//! segment, aggregates small appends into large LTS writes, seals/truncates/
//! deletes segments in LTS, and — once data is safely tiered — signals a
//! dedicated truncator thread to write a metadata checkpoint and truncate
//! the WAL. If LTS is slow the unflushed backlog grows and the container
//! throttles its writers rather than letting the backlog grow without bound.
//!
//! Two long-run-stability properties are enforced here:
//!
//! * **Paced flushes.** The background flusher moves bytes through a token
//!   bucket (`flush_bytes_per_sec`/`flush_burst_bytes`) instead of draining
//!   the whole backlog in one burst — burst background I/O is exactly the
//!   kind of maintenance work that wrecks writer tail latency.
//! * **Decoupled truncation.** Checkpoint + WAL truncation run on their own
//!   thread, so a slow truncate (ledger deletion, coordination round-trips)
//!   can never extend a flush pass and back the data path up behind it. The
//!   test hook [`flush_pass`] checkpoints itself instead of signalling, so
//!   tests observe truncation synchronously.

use pravega_sync::JoinHandle;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use pravega_common::clock;
use pravega_common::crashpoints;
use pravega_common::rate::TokenBucket;
use pravega_common::retry::RetryPolicy;
use pravega_common::stall::{sleep_interruptible, StallClass};
use pravega_lts::LtsError;

use crate::container::{ContainerConfig, ContainerInner};
use crate::error::SegmentError;

/// Builds the flush pacer from the container config.
///
/// The burst is clamped to at least `max_flush_bytes`: each chunk is charged
/// in full before it moves, so the burst must be able to cover one whole
/// chunk or the first chunk of every pass would start in debt. With that
/// invariant, bytes moved over any window never exceed
/// `rate * window + burst`.
pub(crate) fn flush_pacer(config: &ContainerConfig) -> Result<TokenBucket, SegmentError> {
    let rate = config.flush_bytes_per_sec;
    if rate.is_nan() || rate <= 0.0 {
        return Err(SegmentError::Internal(format!(
            "flush_bytes_per_sec must be positive, got {rate}"
        )));
    }
    Ok(TokenBucket::new(
        rate,
        config
            .flush_burst_bytes
            .max(config.max_flush_bytes as f64)
            .max(1.0),
    ))
}

/// Starts the background flusher thread for a container.
pub(crate) fn start_flusher(inner: Arc<ContainerInner>) -> Result<JoinHandle<()>, SegmentError> {
    let mut pacer = flush_pacer(&inner.config)?;
    pravega_sync::spawn(format!("storage-writer-{}", inner.id), move || {
        // Sliced sleep so a stopping container joins its flusher
        // promptly even under a long flush interval. It comes first: the
        // first pass runs one interval after start, not at it.
        while !sleep_then_stopped(&inner) {
            let (result, truncate_due) = run_flush_pass(&inner, Some(&mut pacer));
            if truncate_due {
                // The truncator thread picks the signal up within one
                // interval.
                inner.truncate_pending.store(true, Ordering::Release);
            }
            if let Err(e) = result {
                // A failed pass is not fatal — the backlog stays and
                // throttling takes over — but it must not be silent:
                // record it so a stuck tiering path is observable.
                inner.metrics.flush_errors.inc();
                inner.metrics.last_flush_error.set(e.to_string());
            }
        }
    })
    .map_err(|e| SegmentError::Internal(format!("spawn storage writer: {e}")))
}

/// Waits one `flush_interval` (cut short by a stop) and says whether the
/// container has stopped. The background loops call it before each pass.
fn sleep_then_stopped(inner: &ContainerInner) -> bool {
    sleep_interruptible(inner.config.flush_interval, &inner.stopped);
    inner.stopped.load(Ordering::SeqCst)
}

/// Starts the checkpoint/WAL-truncator thread for a container. It wakes on
/// the flush interval and performs a checkpoint + truncation whenever a
/// flush pass has signalled `truncate_pending` — off the flush path, so a
/// slow truncate stalls only this thread.
pub(crate) fn start_truncator(inner: Arc<ContainerInner>) -> Result<JoinHandle<()>, SegmentError> {
    pravega_sync::spawn(format!("wal-truncator-{}", inner.id), move || {
        while !sleep_then_stopped(&inner) {
            if inner.truncate_pending.swap(false, Ordering::AcqRel) {
                if let Err(e) = checkpoint_and_truncate(&inner) {
                    inner.metrics.flush_errors.inc();
                    inner.metrics.last_flush_error.set(e.to_string());
                }
            }
        }
    })
    .map_err(|e| SegmentError::Internal(format!("spawn wal truncator: {e}")))
}

/// Retry budget for a single LTS write within a flush pass. The chunked LTS
/// layer already retries transient chunk errors internally, so this is a
/// second, coarser line of defence; once it is exhausted the error surfaces,
/// the backlog grows and the container throttles its writers (§4.3).
fn flush_retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        initial_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        multiplier: 2.0,
        jitter: 0.2,
    }
}

#[derive(Debug, Clone)]
struct FlushTarget {
    name: String,
    committed_len: u64,
    sealed: bool,
    start_offset: u64,
    flushed: u64,
}

/// One flush pass that does its own checkpoint + truncation and is not paced
/// — the test hook behind [`crate::container::SegmentContainer::flush_once`],
/// so tests polling `retained_wal_frames` observe truncation synchronously.
/// Returns whether any data moved to LTS.
pub(crate) fn flush_pass(inner: &Arc<ContainerInner>) -> Result<bool, SegmentError> {
    let (result, truncate_due) = run_flush_pass(inner, None);
    if truncate_due {
        checkpoint_and_truncate(inner)?;
    }
    result
}

/// Moves committed data to LTS. Returns whether any moved (or the first
/// error), and whether a checkpoint + WAL truncation is now due — which the
/// caller performs or hands to the truncator thread.
fn run_flush_pass(
    inner: &Arc<ContainerInner>,
    mut pacer: Option<&mut TokenBucket>,
) -> (Result<bool, SegmentError>, bool) {
    let pass_start = clock::monotonic_now();
    let (targets, deletes) = snapshot_targets(inner);
    let mut worked = false;
    let mut flush_error: Option<SegmentError> = None;

    for target in targets {
        match flush_segment(inner, &target, pacer.as_deref_mut()) {
            Ok(moved) => worked |= moved,
            Err(e) => {
                // LTS hiccup: leave the backlog; throttling takes over.
                flush_error.get_or_insert(e);
            }
        }
    }

    for name in deletes {
        match inner.lts.delete(&name) {
            Ok(()) | Err(LtsError::NoSuchSegment) => {}
            Err(e) => {
                // Re-queue for the next pass.
                inner.core.lock().pending_lts_deletes.push(name);
                flush_error.get_or_insert(SegmentError::Lts(e));
            }
        }
    }

    // Checkpoint + WAL truncation every `checkpoint_interval_ops` while the
    // container is busy, and once when it goes idle: a pass that found
    // nothing to move and leaves no backlog still checkpoints while ops are
    // outstanding, so the tail of a burst — or a trailing op that moves no
    // segment data, a reader-group position update, an attribute write —
    // does not pin its WAL frame (and the whole tail behind it) forever. A
    // pass that did move data waits for one of the two: checkpointing after
    // every such pass costs one snapshot per `flush_interval` under any
    // steady load, however light.
    //
    // An idle pass also retries the truncation alone when more than the
    // checkpoint frame is still retained with no op since: a checkpoint
    // taken while the flush was behind could not drop the frames holding
    // then-unflushed bytes, and no later checkpoint comes to drop them.
    let ops_since = inner.ops_since_checkpoint.load(Ordering::Relaxed);
    let idle = !worked && inner.unflushed_bytes.load(Ordering::Relaxed) == 0;
    let checkpoint_due =
        (idle || ops_since >= inner.config.checkpoint_interval_ops) && ops_since > 0;
    let truncate_due = (checkpoint_due || (idle && inner.log().retained_frames() > 1))
        && !inner.stopped.load(Ordering::SeqCst);

    inner
        .metrics
        .flush_pass_nanos
        .record(pass_start.elapsed().as_nanos() as u64);
    inner
        .metrics
        .flush_lag_bytes
        .set(inner.unflushed_bytes.load(Ordering::Relaxed) as i64);

    (flush_error.map_or(Ok(worked), Err), truncate_due)
}

/// Writes a metadata checkpoint if any op applied since the last one, and
/// truncates the WAL below the latest. Runs on the truncator thread in
/// production and inline from the test hook; either way the checkpoint
/// contends with appends through the operation processor, so the whole step
/// is attributed as a truncation stall.
fn checkpoint_and_truncate(inner: &Arc<ContainerInner>) -> Result<(), SegmentError> {
    let start = clock::monotonic_now();
    if inner.ops_since_checkpoint.load(Ordering::Relaxed) > 0 {
        if inner
            .config
            .crash_hook
            .fire(crashpoints::SEGMENTSTORE_CONTAINER_MID_CHECKPOINT)
        {
            // Simulated crash between tiering and the metadata checkpoint:
            // data is in LTS but the WAL still holds (and will replay) the
            // corresponding operations. Replay must be idempotent.
            return Err(SegmentError::Internal(
                "crash injected before metadata checkpoint".into(),
            ));
        }
        inner.write_checkpoint()?;
    }
    let flushed: HashMap<String, u64> = inner
        .core
        .lock()
        .segments
        .iter()
        .map(|(name, st)| (name.clone(), st.flushed))
        .collect();
    let _ = inner
        .log()
        .truncate_flushed(|segment| flushed.get(segment).copied());
    inner
        .metrics
        .stalls
        .record(StallClass::Truncation, start.elapsed());
    Ok(())
}

fn snapshot_targets(inner: &Arc<ContainerInner>) -> (Vec<FlushTarget>, Vec<String>) {
    let mut guard = inner.core.lock();
    let core = &mut *guard;
    let deletes = std::mem::take(&mut core.pending_lts_deletes);
    let targets = core
        .segments
        .iter()
        .map(|(name, st)| FlushTarget {
            name: name.clone(),
            committed_len: st.meta.length,
            sealed: st.meta.sealed,
            start_offset: st.meta.start_offset,
            flushed: st.flushed,
        })
        .collect();
    (targets, deletes)
}

fn flush_segment(
    inner: &Arc<ContainerInner>,
    target: &FlushTarget,
    mut pacer: Option<&mut TokenBucket>,
) -> Result<bool, SegmentError> {
    let mut flushed = target.flushed;
    let mut worked = false;

    if flushed < target.committed_len && !inner.lts.exists(&target.name) {
        match inner.lts.create(&target.name) {
            Ok(()) | Err(LtsError::SegmentExists) => {}
            Err(e) => return Err(SegmentError::Lts(e)),
        }
    }

    while flushed < target.committed_len {
        if inner.stopped.load(Ordering::SeqCst) {
            return Ok(worked);
        }
        let n = ((target.committed_len - flushed) as usize).min(inner.config.max_flush_bytes);
        // Pace the flush: pay for the chunk *before* it moves. Charging up
        // front means every byte on the wire is backed by tokens, so over any
        // window the flusher transfers at most rate * window + burst bytes —
        // tiering trickles at the configured rate instead of monopolizing LTS
        // in bursts. (A retry that resumes mid-batch moves fewer bytes than
        // charged; overpaying keeps the bound conservative.)
        if let Some(bucket) = pacer.as_deref_mut() {
            let wait = bucket.take_and_wait(n as f64, inner.clock.now_nanos());
            sleep_interruptible(wait, &inner.stopped);
        }
        let data = inner.read_committed_range(&target.name, flushed, n)?;
        // Retry transient LTS errors with backoff. Between attempts the
        // durable offset is re-verified against LTS: a torn write may have
        // landed a prefix of the batch, so the retry resumes from whatever
        // actually committed instead of re-sending (and duplicating) it.
        let attempt_offset = Cell::new(flushed);
        let write_start = clock::monotonic_now();
        let new_len = flush_retry_policy()
            .run(
                |_, _| {
                    inner.metrics.flush_retries.inc();
                    if let Ok(info) = inner.lts.info(&target.name) {
                        if info.length > attempt_offset.get() {
                            attempt_offset.set(info.length.min(target.committed_len));
                        }
                    }
                },
                || {
                    let from = attempt_offset.get();
                    let already = (from - flushed) as usize;
                    if already >= data.len() {
                        // A previous torn attempt landed the whole batch.
                        return Ok(from);
                    }
                    inner.lts.write(&target.name, from, &data[already..])
                },
            )
            .map_err(SegmentError::Lts)?;
        // Time blocked in the LTS write is the flush-stall class: when a
        // timeline spike coincides with these, tiering I/O is the cause.
        inner
            .metrics
            .stalls
            .record(StallClass::Flush, write_start.elapsed());
        if inner
            .config
            .crash_hook
            .fire(crashpoints::SEGMENTSTORE_STORAGEWRITER_MID_FLUSH)
        {
            // Simulated crash mid-flush: the LTS write landed but none of
            // the flush bookkeeping (nor any later checkpoint) did. After
            // restart the flusher re-reads LTS and resumes from the length
            // that actually committed, so nothing is duplicated.
            return Err(SegmentError::Internal(
                "crash injected mid storage-writer flush".into(),
            ));
        }
        let moved = new_len - flushed;
        flushed = new_len;
        inner.metrics.flushed_bytes.add(moved);
        {
            let mut core = inner.core.lock();
            // (A segment deleted mid-flush has no record left to advance.)
            if let Some(st) = core.segments.get_mut(&target.name) {
                st.flushed = flushed;
            }
            // What was just flushed may leave memory: evict now, not at the
            // next apply, which may be long in coming.
            inner.evict_if_needed(&mut core);
        }
        inner.release_unflushed(moved);
        worked = true;
    }

    // Propagate truncation to LTS (only below what is already flushed).
    if target.start_offset > 0 {
        if let Ok(info) = inner.lts.info(&target.name) {
            let truncate_at = target.start_offset.min(flushed);
            if truncate_at > info.start_offset {
                inner
                    .lts
                    .truncate(&target.name, truncate_at)
                    .map_err(SegmentError::Lts)?;
            }
        }
    }

    // Seal in LTS once fully flushed.
    if target.sealed && flushed >= target.committed_len {
        match inner.lts.info(&target.name) {
            Ok(info) if !info.sealed => {
                inner.lts.seal(&target.name).map_err(SegmentError::Lts)?;
            }
            _ => {}
        }
    }

    Ok(worked)
}

#[cfg(test)]
mod pacing_tests {
    use super::*;
    use pravega_common::clock::Timestamp;

    fn paced_config(rate: f64, burst: f64) -> ContainerConfig {
        ContainerConfig {
            flush_bytes_per_sec: rate,
            flush_burst_bytes: burst,
            ..ContainerConfig::default()
        }
    }

    #[test]
    fn non_positive_rate_is_rejected() {
        assert!(flush_pacer(&paced_config(0.0, 1024.0)).is_err());
        assert!(flush_pacer(&paced_config(1024.0, 1024.0)).is_ok());
    }

    /// The flush token bucket never exceeds its configured rate over *any*
    /// window: simulate chunk writes the way `flush_segment` paces them —
    /// charge the bucket, absorb the demanded wait, *then* send — and check
    /// every window of the send log against `rate * window + burst`.
    #[test]
    fn flush_pacer_rate_is_bounded_over_every_window() {
        let rate = 1_000_000.0; // 1 MB/s
                                // Configured burst is *smaller* than the largest chunk; the pacer
                                // must clamp it up to max_flush_bytes or the bound below is false.
        let mut config = paced_config(rate, 64.0 * 1024.0);
        config.max_flush_bytes = 128 * 1024;
        let burst = config.max_flush_bytes as f64;
        let mut bucket = flush_pacer(&config).expect("positive rate");
        let mut now: Timestamp = 0;
        // (timestamp, bytes) of each simulated chunk write; sizes vary the
        // way real passes do (small trickle chunks up to max-flush bursts).
        let sizes = [512u64, 65_536, 4_096, 131_072, 1_024, 65_536, 32_768, 7];
        let mut sends: Vec<(Timestamp, u64)> = Vec::new();
        for round in 0..200 {
            let moved = sizes[round % sizes.len()];
            let wait = bucket.take_and_wait(moved as f64, now);
            now += wait.as_nanos() as u64;
            sends.push((now, moved));
        }
        for i in 0..sends.len() {
            let mut bytes = 0u64;
            for (t, moved) in &sends[i..] {
                bytes += moved;
                let window_secs = (t - sends[i].0) as f64 / 1e9;
                let allowed = rate * window_secs + burst + 1.0;
                assert!(
                    (bytes as f64) <= allowed,
                    "window starting at send {i}: {bytes} bytes in {window_secs}s exceeds {allowed}"
                );
            }
        }
    }
}

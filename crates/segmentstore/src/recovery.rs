//! Recovery and metadata checkpoints (§4.4).
//!
//! A container's durable state is its WAL. [`recover`] seeds the in-memory
//! state from the latest metadata checkpoint in the retained WAL and replays
//! every retained operation over it; [`ContainerInner::write_checkpoint`]
//! sequences such a snapshot so the storage writer can truncate what
//! precedes it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use pravega_common::clock::{self, Clock};
use pravega_common::id::ContainerId;
use pravega_common::metrics::MetricsRegistry;
use pravega_lts::ChunkedSegmentStorage;
use pravega_sync::{rank, Mutex};
use pravega_wal::log::DurableDataLog;

use crate::cache::BlockCache;
use crate::container::{ContainerConfig, ContainerInner, ContainerMetrics};
use crate::dataframe::decode_frame;
use crate::error::SegmentError;
use crate::metadata::{ContainerSnapshot, SegmentSnapshotRecord};
use crate::operations::Operation;
use crate::processor::{wait_done, PendingSegment, Processor};
use crate::state::{Core, SegmentState};
use crate::tablesegment::TableState;

/// Rebuilds a container's state from its retained WAL and LTS: the state a
/// new owner starts from, before the durable log accepts new operations.
///
/// # Errors
///
/// Propagates WAL read failures and corrupt-frame / corrupt-checkpoint
/// errors.
pub(crate) fn recover(
    id: ContainerId,
    wal: &Arc<dyn DurableDataLog>,
    lts: ChunkedSegmentStorage,
    clock: Arc<dyn Clock>,
    config: ContainerConfig,
    metrics: &MetricsRegistry,
) -> Result<Arc<ContainerInner>, SegmentError> {
    // ---- Recovery: read the retained log -----------------------------
    let recovery_start = clock::monotonic_now();
    let records = wal.read_after(None)?;
    let mut ops: Vec<(u64, Operation)> = Vec::new();
    let last = records.len().saturating_sub(1);
    for (i, (_, frame)) in records.iter().enumerate() {
        match decode_frame(frame) {
            Ok(items) => ops.extend(items),
            // A torn *final* frame is the expected signature of a crash
            // mid WAL append: its operations were never acknowledged,
            // so dropping them loses nothing. Corruption anywhere else
            // in the log stays fatal.
            Err(_) if i == last => break,
            Err(e) => {
                return Err(SegmentError::Internal(format!("corrupt WAL frame: {e}")));
            }
        }
    }
    // Seed from the last checkpoint, if any.
    let mut snapshot = ContainerSnapshot::default();
    for (_, op) in ops.iter().rev() {
        if let Operation::MetadataCheckpoint { snapshot: bytes } = op {
            snapshot = ContainerSnapshot::decode(bytes)
                .map_err(|e| SegmentError::Internal(format!("corrupt checkpoint: {e}")))?;
            break;
        }
    }

    // What LTS holds of a segment is its flush point.
    let lts_len =
        |lts: &ChunkedSegmentStorage, name: &str| lts.info(name).map(|i| i.length).unwrap_or(0);
    let mut segments: HashMap<String, SegmentState> = HashMap::new();
    for record in snapshot.segments {
        let name = record.metadata.name.clone();
        let table = record
            .metadata
            .is_table
            .then(|| TableState::from_entries(record.table_entries));
        let flushed = lts_len(&lts, &name);
        segments.insert(name, SegmentState::new(record.metadata, table, flushed));
    }

    let inner = Arc::new(ContainerInner {
        id,
        clock,
        core: Mutex::new(
            rank::CONTAINER_CORE,
            Core {
                cache: BlockCache::new(config.cache),
                segments,
                applied_seq: snapshot.applied_seq,
                pending_lts_deletes: Vec::new(),
            },
        ),
        processor: Mutex::new(rank::CONTAINER_PROCESSOR, Processor::default()),
        lts,
        stopped: AtomicBool::new(false),
        unflushed_bytes: AtomicU64::new(0),
        ops_since_checkpoint: AtomicU64::new(0),
        truncate_pending: AtomicBool::new(false),
        loads: Mutex::new(rank::CONTAINER_LOADS, HashMap::new()),
        log: OnceLock::new(),
        metrics: ContainerMetrics::new(metrics),
        config,
    });

    // Replay every retained operation idempotently.
    let max_seq = ops.iter().map(|(s, _)| *s).max().unwrap_or(0);
    let mut replayed = 0u64;
    for (seq, op) in &ops {
        if matches!(op, Operation::MetadataCheckpoint { .. }) {
            continue;
        }
        inner.apply_committed(*seq, op);
        // A segment (re)created during replay takes its flush point from
        // LTS, like the ones the checkpoint carried.
        if let Operation::CreateSegment { segment, .. } = op {
            let flushed = lts_len(&inner.lts, segment);
            if let Some(st) = inner.core.lock().segments.get_mut(segment) {
                st.flushed = flushed;
            }
        }
        replayed += 1;
    }
    if !records.is_empty() {
        inner.metrics.recoveries.inc();
        inner.metrics.replayed_ops.add(replayed);
    }
    inner
        .metrics
        .recovery_nanos
        .record(recovery_start.elapsed().as_nanos() as u64);
    // Recompute the unflushed backlog from scratch (replay double-counts
    // are possible through the idempotent path).
    let backlog: u64 = inner
        .core
        .lock()
        .segments
        .values()
        .map(SegmentState::unflushed)
        .sum();
    inner.unflushed_bytes.store(backlog, Ordering::Relaxed);

    // Seed the operation processor from committed state. Copy the seed
    // out before taking the processor lock: the canonical lock order is
    // processor before core (see `table_update`), never the reverse.
    let (applied_seq, seed) = {
        let core = inner.core.lock();
        let seed: Vec<(String, PendingSegment)> = core
            .segments
            .iter()
            .map(|(name, st)| (name.clone(), PendingSegment::recovered(&st.meta)))
            .collect();
        (core.applied_seq, seed)
    };
    inner
        .processor
        .lock()
        .seed_recovered(applied_seq.max(max_seq) + 1, seed);
    Ok(inner)
}

impl ContainerInner {
    fn build_snapshot(&self) -> ContainerSnapshot {
        let core = self.core.lock();
        ContainerSnapshot {
            applied_seq: core.applied_seq,
            segments: core
                .segments
                .values()
                .map(|st| SegmentSnapshotRecord {
                    metadata: st.meta.clone(),
                    table_entries: st
                        .table
                        .as_ref()
                        .map(|t| t.snapshot_entries())
                        .unwrap_or_default(),
                })
                .collect(),
        }
    }

    /// Sequences a snapshot of the committed state into the WAL and waits
    /// for it to commit.
    pub(crate) fn write_checkpoint(&self) -> Result<(), SegmentError> {
        // Counted before the snapshot is built, so every op counted here is
        // in it. Ops that apply while the checkpoint is in flight are not:
        // they stay counted, so that a later checkpoint covers them and the
        // WAL can drop their frames.
        let covered = self.ops_since_checkpoint.load(Ordering::Relaxed);
        let op = Operation::MetadataCheckpoint {
            snapshot: self.build_snapshot().encode(),
        };
        let pr = self.processor.lock().sequence(self.log(), op)?;
        wait_done(pr)?;
        self.metrics.checkpoints.inc();
        // `+ 1`: the checkpoint op's own apply.
        let _ = self
            .ops_since_checkpoint
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(covered + 1))
            });
        Ok(())
    }
}

//! The container's committed state: what the durable log has acknowledged,
//! applied in sequence order (§4.1), and what the read index and block cache
//! serve from (§4.2).
//!
//! One [`SegmentState`] record per segment — metadata, read index, table
//! contents, LTS flush point, apply waiters — so every path reaches a
//! segment through one lookup under the core lock.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use pravega_common::clock;
use pravega_common::future::{promise, Completer, Promise};
use pravega_common::id::WriterId;
use pravega_common::stall::StallClass;

use crate::cache::BlockCache;
use crate::container::ContainerInner;
use crate::metadata::SegmentMetadata;
use crate::operations::Operation;
use crate::readindex::{lru_cutoff, ReadIndex};
use crate::tablesegment::TableState;

pub(crate) struct SegmentState {
    pub(crate) meta: SegmentMetadata,
    pub(crate) index: ReadIndex,
    pub(crate) table: Option<TableState>,
    /// Bytes `[0, flushed)` are in LTS; only those may leave the cache.
    pub(crate) flushed: u64,
    /// Woken by the next apply on this segment: tail reads and the
    /// handshake barrier.
    waiters: Vec<Completer<()>>,
}

impl SegmentState {
    pub(crate) fn new(meta: SegmentMetadata, table: Option<TableState>, flushed: u64) -> Self {
        Self {
            meta,
            index: ReadIndex::new(),
            table,
            flushed,
            waiters: Vec::new(),
        }
    }

    /// Committed bytes not yet in LTS.
    pub(crate) fn unflushed(&self) -> u64 {
        self.meta.length.saturating_sub(self.flushed)
    }

    /// The writer's durable watermark (`-1` if it never wrote here).
    pub(crate) fn watermark(&self, writer: WriterId) -> i64 {
        self.meta.attributes.get(&writer).copied().unwrap_or(-1)
    }

    /// A promise completed by the next apply on this segment (append, seal
    /// or delete). Wait on it *outside* the core lock.
    pub(crate) fn next_apply(&mut self) -> Promise<()> {
        let (completer, pr) = promise();
        self.waiters.push(completer);
        pr
    }

    fn wake_waiters(&mut self) {
        for w in self.waiters.drain(..) {
            w.complete(());
        }
    }
}

pub(crate) struct Core {
    pub(crate) cache: BlockCache,
    pub(crate) segments: HashMap<String, SegmentState>,
    pub(crate) applied_seq: u64,
    pub(crate) pending_lts_deletes: Vec<String>,
}

impl ContainerInner {
    /// Applies one committed operation. Idempotent, so recovery can replay
    /// any retained WAL suffix over a checkpoint.
    pub(crate) fn apply_committed(&self, seq: u64, op: &Operation) {
        let now = self.clock.now_nanos();
        {
            let mut guard = self.core.lock();
            let core = &mut *guard;
            match op {
                Operation::CreateSegment { segment, is_table } => {
                    core.segments.entry(segment.clone()).or_insert_with(|| {
                        SegmentState::new(
                            SegmentMetadata {
                                name: segment.clone(),
                                is_table: *is_table,
                                last_modified_nanos: now,
                                ..SegmentMetadata::default()
                            },
                            is_table.then(TableState::new),
                            0,
                        )
                    });
                }
                Operation::Append {
                    segment,
                    offset,
                    data,
                    writer_id,
                    last_event_number,
                    ..
                } => {
                    if let Some(st) = core.segments.get_mut(segment) {
                        let end = offset + data.len() as u64;
                        if end <= st.meta.length {
                            // Replay of an op already reflected in metadata
                            // (recovery): re-insert any record with unflushed
                            // bytes. A crash mid-flush leaves the LTS length
                            // (the recovered flush point) in the *middle* of
                            // a record; such a straddling record must stay
                            // resident or its suffix would exist nowhere.
                            if end > st.flushed {
                                st.index.append(&mut core.cache, *offset, data);
                            }
                        } else if *offset == st.meta.length {
                            st.index.append(&mut core.cache, *offset, data);
                            st.meta.length = end;
                            self.unflushed_bytes
                                .fetch_add(data.len() as u64, Ordering::Relaxed);
                        }
                        // (An overlapping partial append cannot be produced
                        // by the operation processor: sequence numbers are
                        // assigned and enqueued under one lock.)
                        let attr = st.meta.attributes.entry(*writer_id).or_insert(-1);
                        *attr = (*attr).max(*last_event_number);
                        st.meta.last_modified_nanos = now;
                        st.wake_waiters();
                    }
                }
                Operation::Seal { segment } => {
                    if let Some(st) = core.segments.get_mut(segment) {
                        st.meta.sealed = true;
                        st.meta.last_modified_nanos = now;
                        st.wake_waiters();
                    }
                }
                Operation::Truncate { segment, offset } => {
                    if let Some(st) = core.segments.get_mut(segment) {
                        if *offset > st.meta.start_offset {
                            st.meta.start_offset = (*offset).min(st.meta.length);
                            st.index.evict_below(&mut core.cache, st.meta.start_offset);
                            st.meta.last_modified_nanos = now;
                        }
                    }
                }
                Operation::Delete { segment } => {
                    if let Some(mut st) = core.segments.remove(segment) {
                        self.release_unflushed(st.unflushed());
                        st.index.clear(&mut core.cache);
                        st.wake_waiters();
                    }
                    core.pending_lts_deletes.push(segment.clone());
                }
                Operation::TableUpdate { segment, entries } => {
                    if let Some(st) = core.segments.get_mut(segment) {
                        if let Some(table) = st.table.as_mut() {
                            table.apply_update(seq as i64, entries);
                            st.meta.last_modified_nanos = now;
                        }
                    }
                }
                Operation::TableRemove { segment, keys } => {
                    if let Some(st) = core.segments.get_mut(segment) {
                        if let Some(table) = st.table.as_mut() {
                            table.apply_remove(keys);
                            st.meta.last_modified_nanos = now;
                        }
                    }
                }
                Operation::MetadataCheckpoint { .. } => {
                    // The checkpoint *is* the state; nothing to apply.
                }
            }
            core.applied_seq = core.applied_seq.max(seq);
            self.evict_if_needed(core);
        }
        self.ops_since_checkpoint.fetch_add(1, Ordering::Relaxed);
        // A table op's pending versions are now reflected in committed
        // state. Taken after the core lock is released: the order is
        // processor before core, never the reverse.
        match op {
            Operation::TableUpdate { segment, entries } => {
                let keys = entries.iter().map(|e| &e.key);
                self.processor
                    .lock()
                    .settle_table_overlay(segment, keys, seq);
            }
            Operation::TableRemove { segment, keys } => {
                self.processor
                    .lock()
                    .settle_table_overlay(segment, keys.iter(), seq);
            }
            _ => {}
        }
    }

    /// Wakes every waiter on every segment's next apply.
    pub(crate) fn wake_apply_waiters(&self) {
        for st in self.core.lock().segments.values_mut() {
            st.wake_waiters();
        }
    }

    /// Evicts flushed entries, least recently used first, once resident
    /// data passes the cache's high watermark. Bytes held on the heap beside
    /// a full cache count: they are resident too, and a cache full of
    /// unflushed bytes sends everything appended after them there.
    pub(crate) fn evict_if_needed(&self, core: &mut Core) {
        let capacity = core.cache.capacity_bytes() as f64;
        if core.cache.resident_bytes() as f64 <= capacity * self.config.cache_high_watermark {
            return;
        }
        // Eviction runs under the core lock on the apply path, so its cost
        // is a writer-visible stall — attribute it.
        let evict_start = clock::monotonic_now();
        // Evict down to 80% of the high watermark, least recently used first
        // across every segment: a cold fill one reader is still working
        // through must outlive what any reader has long since passed.
        let low = (capacity * self.config.cache_high_watermark * 0.8) as u64;
        let target = (core.cache.resident_bytes() as u64)
            .saturating_sub(low)
            .max(1);
        let evictable = core
            .segments
            .values()
            .flat_map(|st| st.index.evictable(st.flushed));
        if let Some(cutoff) = lru_cutoff(evictable, target) {
            for st in core.segments.values_mut() {
                st.index.evict_through(&mut core.cache, st.flushed, cutoff);
            }
        }
        self.metrics
            .stalls
            .record(StallClass::CacheEvict, evict_start.elapsed());
    }
}

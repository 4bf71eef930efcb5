//! The operation processor (§4.1): every modifying request is validated
//! against the *pending* view of its segment (committed state plus whatever
//! is already in flight), given a sequence number, and queued into the
//! durable log — all under one lock, so sequence order equals queue order
//! equals WAL order equals apply order.
//!
//! [`Processor::sequence`] is the only place a sequence number is assigned;
//! the seven modifying verbs and the metadata checkpoint all go through it.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use pravega_common::crashpoints;
use pravega_common::future::{promise, BrokenPromise, Promise};
use pravega_common::id::WriterId;

use crate::container::{AppendHandle, SegmentContainer};
use crate::durablelog::{DurableLog, EnqueuedOp};
use crate::error::SegmentError;
use crate::metadata::SegmentMetadata;
use crate::operations::{Operation, TableEntryUpdate};
use crate::tablesegment::{TableState, VERSION_NOT_EXISTS};

/// Resolves once the operation is durable and applied.
pub(crate) type OpPromise = Promise<Result<(), SegmentError>>;

/// What a resolved [`OpPromise`] means; a promise dropped unresolved died
/// with its container.
pub(crate) fn settled(
    resolved: Result<Result<(), SegmentError>, BrokenPromise>,
) -> Result<(), SegmentError> {
    resolved.unwrap_or(Err(SegmentError::ContainerStopped))
}

/// Blocks until a sequenced operation is durable.
pub(crate) fn wait_done(pr: OpPromise) -> Result<(), SegmentError> {
    settled(pr.wait())
}

/// A segment as the processor sees it: committed state plus the effect of
/// every operation already sequenced.
#[derive(Debug, Default)]
pub(crate) struct PendingSegment {
    tail: u64,
    sealed: bool,
    deleted: bool,
    is_table: bool,
    attributes: HashMap<WriterId, i64>,
    /// Per-writer append-session fence: [`SegmentContainer::handshake`] bumps
    /// the writer's session, and sessioned appends carrying an older value
    /// are refused ([`SegmentError::WriterFenced`]). This keeps a dead
    /// connection's still-queued blocks from re-applying events that the
    /// reconnected writer is about to resend.
    sessions: HashMap<WriterId, u64>,
}

impl PendingSegment {
    /// The pending view right after recovery: exactly the committed state.
    /// Sessions do not survive recovery — every connection died with the old
    /// process, so writers re-handshake from session 1.
    pub(crate) fn recovered(meta: &SegmentMetadata) -> Self {
        Self {
            tail: meta.length,
            sealed: meta.sealed,
            deleted: false,
            is_table: meta.is_table,
            attributes: meta.attributes.clone(),
            sessions: HashMap::new(),
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct Processor {
    next_seq: u64,
    segments: HashMap<String, PendingSegment>,
    /// Pending per-key table versions (negative = pending removal).
    table_overlay: HashMap<String, HashMap<Bytes, i64>>,
}

impl Processor {
    /// Installs the recovered view.
    pub(crate) fn seed_recovered(
        &mut self,
        next_seq: u64,
        segments: impl IntoIterator<Item = (String, PendingSegment)>,
    ) {
        self.next_seq = next_seq;
        self.segments.extend(segments);
    }

    fn live_segment(&mut self, name: &str) -> Result<&mut PendingSegment, SegmentError> {
        self.segments
            .get_mut(name)
            .filter(|p| !p.deleted)
            .ok_or(SegmentError::NoSuchSegment)
    }

    fn live_table(&mut self, name: &str) -> Result<(), SegmentError> {
        if self.live_segment(name)?.is_table {
            Ok(())
        } else {
            Err(SegmentError::NotATable)
        }
    }

    /// Assigns the next sequence number to `op` and queues it into the
    /// durable log; the promise resolves once the operation is committed.
    ///
    /// Runs under the processor lock (the caller holds it to reach `self`):
    /// sequence order must equal queue order, or apply and recovery would
    /// see operations reordered.
    pub(crate) fn sequence(
        &mut self,
        log: &DurableLog,
        op: Operation,
    ) -> Result<OpPromise, SegmentError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (completer, pr) = promise();
        log.enqueue(EnqueuedOp {
            seq,
            op,
            completer: Some(completer),
        })?;
        Ok(pr)
    }

    /// The version a table operation sequenced next (under this same lock
    /// hold) gives its keys: its sequence number.
    fn next_table_version(&self) -> i64 {
        self.next_seq as i64
    }

    /// Validates expected table versions against committed state overlaid
    /// with the versions of operations still in flight.
    fn check_table_versions<'a>(
        &self,
        name: &str,
        committed: Option<&TableState>,
        checks: impl Iterator<Item = (&'a [u8], Option<i64>)>,
    ) -> Result<(), SegmentError> {
        static EMPTY: TableState = TableState::new();
        let overlay = self.table_overlay.get(name);
        committed.unwrap_or(&EMPTY).check_versions(checks, |key| {
            let pending = overlay.and_then(|o| o.get(key).copied())?;
            Some(if pending < 0 {
                VERSION_NOT_EXISTS
            } else {
                pending
            })
        })
    }

    fn overlay_table_keys<'a>(
        &mut self,
        name: &str,
        keys: impl Iterator<Item = &'a Bytes>,
        version: i64,
    ) {
        let overlay = self.table_overlay.entry(name.to_string()).or_default();
        for key in keys {
            overlay.insert(key.clone(), version);
        }
    }

    /// Drops the overlay entries of a table operation that has been applied,
    /// unless a later operation has since overwritten them.
    pub(crate) fn settle_table_overlay<'a>(
        &mut self,
        segment: &str,
        keys: impl Iterator<Item = &'a Bytes>,
        seq: u64,
    ) {
        if let Some(overlay) = self.table_overlay.get_mut(segment) {
            for key in keys {
                if overlay.get(key).map(|v| v.unsigned_abs()) == Some(seq) {
                    overlay.remove(key);
                }
            }
            if overlay.is_empty() {
                self.table_overlay.remove(segment);
            }
        }
    }
}

impl SegmentContainer {
    /// Creates a segment.
    ///
    /// # Errors
    ///
    /// [`SegmentError::SegmentExists`] and pipeline failures.
    pub fn create_segment(&self, name: &str, is_table: bool) -> Result<(), SegmentError> {
        self.inner.check_running()?;
        let pr = {
            let mut processor = self.inner.processor.lock();
            if processor.segments.contains_key(name) {
                return Err(SegmentError::SegmentExists);
            }
            processor.segments.insert(
                name.to_string(),
                PendingSegment {
                    is_table,
                    ..PendingSegment::default()
                },
            );
            let op = Operation::CreateSegment {
                segment: name.to_string(),
                is_table,
            };
            processor.sequence(self.inner.log(), op)?
        };
        wait_done(pr)
    }

    /// Appends a block of events (pipelined): returns immediately with a
    /// handle that resolves once the data is durable.
    ///
    /// Deduplication: if `last_event_number` is not beyond the writer's
    /// recorded watermark the append is acknowledged without re-writing
    /// (exactly-once, §3.2). Blocks while LTS backpressure is active.
    ///
    /// Unfenced: callers that hold no append session (direct embedders,
    /// tests). Connections serving writers must use [`Self::append_sessioned`]
    /// with the session from [`Self::handshake`].
    pub fn append(
        &self,
        name: &str,
        data: Bytes,
        writer_id: WriterId,
        last_event_number: i64,
        event_count: u32,
        expected_offset: Option<u64>,
    ) -> AppendHandle {
        self.append_sessioned(
            name,
            data,
            writer_id,
            last_event_number,
            event_count,
            expected_offset,
            None,
        )
    }

    /// [`Self::append`] carrying the connection's append session for
    /// `writer_id` (from [`Self::handshake`]): if a newer handshake has
    /// bumped the writer's session since, the append is refused with
    /// [`SegmentError::WriterFenced`] instead of enqueued. `None` skips the
    /// fence (a caller that never handshook).
    #[allow(clippy::too_many_arguments)] // the wire append verb, plus its fence
    pub fn append_sessioned(
        &self,
        name: &str,
        data: Bytes,
        writer_id: WriterId,
        last_event_number: i64,
        event_count: u32,
        expected_offset: Option<u64>,
        session: Option<u64>,
    ) -> AppendHandle {
        // Every refusal is an `Err`; a duplicate resolves on the spot. `Ok`
        // carries the segment tail once this writer's events are durable.
        let sequenced = || -> Result<(u64, OpPromise), SegmentError> {
            self.inner.check_running()?;
            self.inner.throttle_wait()?;
            let bytes = data.len() as u64;
            let sequenced = {
                let mut processor = self.inner.processor.lock();
                let pending = processor.live_segment(name)?;
                if pending.sealed {
                    return Err(SegmentError::SegmentSealed);
                }
                if let Some(session) = session {
                    // Fenced before dedup: a stale connection must not be
                    // able to advance the watermark (or ack anything) after
                    // a newer handshake has taken over the writer.
                    if pending.sessions.get(&writer_id).copied().unwrap_or(0) != session {
                        return Err(SegmentError::WriterFenced);
                    }
                }
                if let Some(expected) = expected_offset {
                    if pending.tail != expected {
                        return Err(SegmentError::ConditionalCheckFailed {
                            expected: pending.tail,
                            actual: expected,
                        });
                    }
                }
                let watermark = pending.attributes.get(&writer_id).copied().unwrap_or(-1);
                if last_event_number <= watermark {
                    // Duplicate (reconnection resend): ack without re-writing.
                    return Ok((pending.tail, Promise::ready(Ok(()))));
                }
                let offset = pending.tail;
                pending.tail += bytes;
                pending.attributes.insert(writer_id, last_event_number);
                let tail = pending.tail;
                let op = Operation::Append {
                    segment: name.to_string(),
                    offset,
                    data,
                    writer_id,
                    last_event_number,
                    event_count,
                };
                (tail, processor.sequence(self.inner.log(), op)?)
            };
            self.inner.record_load(name, event_count as u64, bytes);
            Ok(sequenced)
        };
        let (tail, inner) = sequenced().unwrap_or_else(|refused| (0, Promise::ready(Err(refused))));
        AppendHandle { tail, inner }
    }

    /// Fencing writer handshake for connection-serving callers: bumps the
    /// writer's append session (so blocks still queued by an older
    /// connection are refused with [`SegmentError::WriterFenced`]), waits
    /// until everything the writer had in flight is durable, and returns
    /// `(last durable event number, new session)`.
    ///
    /// The barrier is what makes the returned watermark *complete*: without
    /// it, a block enqueued by the dead connection but not yet committed
    /// could straddle the watermark, and the reconnected writer's resend
    /// would partially re-apply it (duplicates). With fence + barrier a
    /// resend can only be a full duplicate (acked, not re-written) or
    /// entirely new events.
    ///
    /// # Errors
    ///
    /// [`SegmentError::NoSuchSegment`]; [`SegmentError::ContainerStopped`]
    /// if the container dies while the barrier waits.
    pub fn handshake(&self, name: &str, writer_id: WriterId) -> Result<(i64, u64), SegmentError> {
        self.inner.check_running()?;
        // Fence first (processor lock), then barrier (core lock) — taken
        // sequentially in the canonical processor-before-core order. After
        // the bump no older-session append can be enqueued, so the pending
        // watermark read here is the writer's final in-flight high mark.
        let (session, pending_mark) = {
            let mut processor = self.inner.processor.lock();
            let pending = processor.live_segment(name)?;
            let slot = pending.sessions.entry(writer_id).or_insert(0);
            *slot += 1;
            (
                *slot,
                pending.attributes.get(&writer_id).copied().unwrap_or(-1),
            )
        };
        loop {
            let waiter = {
                let mut core = self.inner.core.lock();
                let st = core
                    .segments
                    .get_mut(name)
                    .ok_or(SegmentError::NoSuchSegment)?;
                let committed = st.watermark(writer_id);
                if committed >= pending_mark {
                    return Ok((committed, session));
                }
                // The writer's pending op will trigger the next apply on
                // this segment; wait for it outside the lock.
                st.next_apply()
            };
            // Bounded slice so a condemned pipeline (op never applies) is
            // noticed via check_running instead of hanging the handshake.
            let _ = waiter.wait_for(Duration::from_millis(50));
            self.inner.check_running()?;
        }
    }

    /// Seals the segment; returns its final length. Idempotent.
    ///
    /// # Errors
    ///
    /// [`SegmentError::NoSuchSegment`] and pipeline failures.
    pub fn seal(&self, name: &str) -> Result<u64, SegmentError> {
        self.inner.check_running()?;
        let (pr, final_len) = {
            let mut processor = self.inner.processor.lock();
            let pending = processor.live_segment(name)?;
            pending.sealed = true;
            let final_len = pending.tail;
            let op = Operation::Seal {
                segment: name.to_string(),
            };
            let pr = processor.sequence(self.inner.log(), op)?;
            (pr, final_len)
        };
        if self
            .inner
            .config
            .crash_hook
            .fire(crashpoints::SEGMENTSTORE_CONTAINER_MID_SEAL)
        {
            // Simulated crash mid-seal: the Seal op is already in the WAL
            // pipeline (it may or may not commit) but the acknowledgement
            // never reaches the caller. Recovery must tolerate either
            // outcome, and sealing again after restart is idempotent.
            drop(pr);
            return Err(SegmentError::ContainerStopped);
        }
        wait_done(pr)?;
        Ok(final_len)
    }

    /// Truncates the segment at `offset`.
    ///
    /// # Errors
    ///
    /// [`SegmentError::BeyondTail`] if `offset` exceeds the tail.
    pub fn truncate(&self, name: &str, offset: u64) -> Result<(), SegmentError> {
        self.inner.check_running()?;
        let pr = {
            let mut processor = self.inner.processor.lock();
            let pending = processor.live_segment(name)?;
            if offset > pending.tail {
                return Err(SegmentError::BeyondTail {
                    length: pending.tail,
                });
            }
            let op = Operation::Truncate {
                segment: name.to_string(),
                offset,
            };
            processor.sequence(self.inner.log(), op)?
        };
        wait_done(pr)
    }

    /// Deletes the segment (data in WAL, cache and LTS is reclaimed).
    ///
    /// # Errors
    ///
    /// [`SegmentError::NoSuchSegment`] and pipeline failures.
    pub fn delete(&self, name: &str) -> Result<(), SegmentError> {
        self.inner.check_running()?;
        let pr = {
            let mut processor = self.inner.processor.lock();
            processor.live_segment(name)?.deleted = true;
            let op = Operation::Delete {
                segment: name.to_string(),
            };
            processor.sequence(self.inner.log(), op)?
        };
        wait_done(pr)?;
        self.inner.processor.lock().segments.remove(name);
        Ok(())
    }

    /// Conditionally updates table entries (atomic across keys): each entry
    /// is `(key, value, expected_version)` with `None` = unconditional and
    /// `Some(-1)` = must-not-exist. Returns the new version per entry.
    ///
    /// # Errors
    ///
    /// [`SegmentError::TableKeyBadVersion`] (nothing applied),
    /// [`SegmentError::NotATable`], pipeline failures.
    pub fn table_update(
        &self,
        name: &str,
        entries: Vec<(Bytes, Bytes, Option<i64>)>,
    ) -> Result<Vec<i64>, SegmentError> {
        self.inner.check_running()?;
        let (pr, versions) = {
            let mut processor = self.inner.processor.lock();
            processor.live_table(name)?;
            {
                // Validate against committed state + pending overlay.
                let core = self.inner.core.lock();
                processor.check_table_versions(
                    name,
                    core.segments.get(name).and_then(|st| st.table.as_ref()),
                    entries.iter().map(|(k, _, v)| (k.as_ref(), *v)),
                )?;
            }
            let version = processor.next_table_version();
            processor.overlay_table_keys(name, entries.iter().map(|(k, _, _)| k), version);
            let versions = vec![version; entries.len()];
            let op = Operation::TableUpdate {
                segment: name.to_string(),
                entries: entries
                    .into_iter()
                    .map(|(key, value, _)| TableEntryUpdate { key, value })
                    .collect(),
            };
            (processor.sequence(self.inner.log(), op)?, versions)
        };
        wait_done(pr)?;
        Ok(versions)
    }

    /// Conditionally removes table keys: `(key, expected_version)`.
    ///
    /// # Errors
    ///
    /// Same as [`SegmentContainer::table_update`].
    pub fn table_remove(
        &self,
        name: &str,
        keys: Vec<(Bytes, Option<i64>)>,
    ) -> Result<(), SegmentError> {
        self.inner.check_running()?;
        let pr = {
            let mut processor = self.inner.processor.lock();
            processor.live_table(name)?;
            {
                let core = self.inner.core.lock();
                processor.check_table_versions(
                    name,
                    core.segments.get(name).and_then(|st| st.table.as_ref()),
                    keys.iter().map(|(k, v)| (k.as_ref(), *v)),
                )?;
            }
            let version = processor.next_table_version();
            processor.overlay_table_keys(name, keys.iter().map(|(k, _)| k), -version);
            let op = Operation::TableRemove {
                segment: name.to_string(),
                keys: keys.into_iter().map(|(k, _)| k).collect(),
            };
            processor.sequence(self.inner.log(), op)?
        };
        wait_done(pr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An insert-if-absent behind a still-pending removal of the same key
    /// must see the key as absent, whichever verb does the check.
    #[test]
    fn pending_removal_reads_as_absent() {
        let mut processor = Processor::default();
        let key = Bytes::from_static(b"k");
        let mut committed = TableState::new();
        committed.apply_update(
            3,
            &[TableEntryUpdate {
                key: key.clone(),
                value: Bytes::from_static(b"v"),
            }],
        );
        processor.overlay_table_keys("t", [&key].into_iter(), -5);
        let check = |expected| {
            processor.check_table_versions(
                "t",
                Some(&committed),
                [(key.as_ref(), Some(expected))].into_iter(),
            )
        };
        assert_eq!(check(VERSION_NOT_EXISTS), Ok(()));
        assert_eq!(check(3), Err(SegmentError::TableKeyBadVersion));
        // No committed table yet (create still in flight): everything absent.
        assert_eq!(
            processor.check_table_versions(
                "fresh",
                None,
                [(key.as_ref(), Some(VERSION_NOT_EXISTS))].into_iter()
            ),
            Ok(())
        );
    }
}

//! The read path (§4.2): one entry point that serves a range from wherever
//! it lives — block cache, or LTS on a miss — without the caller knowing
//! which, plus tail reads that wait for the next append.
//!
//! The decision is taken under the core lock ([`ContainerInner::decide_read`]);
//! waiting and LTS fetches happen outside it. A fetch that hits a corrupt
//! chunk repairs it from the retained WAL before giving up.

use std::sync::atomic::Ordering;
use std::time::Duration;

use bytes::Bytes;
use pravega_common::clock;
use pravega_common::future::{Promise, WaitError};
use pravega_lts::LtsError;

use crate::container::{ContainerInner, ReadResult};
use crate::dataframe::decode_frame;
use crate::error::SegmentError;
use crate::operations::Operation;
use crate::readindex::IndexRead;

enum ReadDecision {
    Return(ReadResult),
    Wait(Promise<()>),
    FetchLts { read_offset: u64, read_len: usize },
    Fail(SegmentError),
}

impl ContainerInner {
    /// Committed-state read decision (lock scope kept small; LTS fetches
    /// happen outside the lock).
    fn decide_read(
        &self,
        segment: &str,
        offset: u64,
        max_len: usize,
        want_wait: bool,
    ) -> ReadDecision {
        let mut guard = self.core.lock();
        let core = &mut *guard;
        let Some(st) = core.segments.get_mut(segment) else {
            return ReadDecision::Fail(SegmentError::NoSuchSegment);
        };
        if offset < st.meta.start_offset {
            return ReadDecision::Fail(SegmentError::OffsetTruncated {
                start_offset: st.meta.start_offset,
            });
        }
        if offset > st.meta.length {
            return ReadDecision::Fail(SegmentError::BeyondTail {
                length: st.meta.length,
            });
        }
        if offset == st.meta.length {
            if st.meta.sealed {
                return ReadDecision::Return(ReadResult {
                    offset,
                    data: Bytes::new(),
                    end_of_segment: true,
                    at_tail: false,
                });
            }
            if !want_wait {
                return ReadDecision::Return(ReadResult::at_tail(offset));
            }
            // Read under the core lock, which `mark_stopped` takes after
            // setting the flag: a read parked here is woken by the stop.
            if self.stopped.load(Ordering::SeqCst) {
                return ReadDecision::Fail(SegmentError::ContainerStopped);
            }
            self.metrics.tail_read_waits.inc();
            return ReadDecision::Wait(st.next_apply());
        }
        let available = ((st.meta.length - offset) as usize).min(max_len);
        match st.index.read(&core.cache, offset, available) {
            IndexRead::Hit(data) => {
                self.metrics.cache_hits.inc();
                ReadDecision::Return(ReadResult {
                    offset,
                    data,
                    end_of_segment: false,
                    at_tail: false,
                })
            }
            IndexRead::Miss => {
                self.metrics.cache_misses.inc();
                // Resident data never misses above the flushed offset, so
                // this range is in LTS. Cap the fetch at the flushed point.
                let read_len = available.min((st.flushed.saturating_sub(offset)) as usize);
                if read_len == 0 {
                    return ReadDecision::Fail(SegmentError::Internal(format!(
                        "read miss at {offset} with flushed={}: cache/index invariant broken",
                        st.flushed
                    )));
                }
                ReadDecision::FetchLts {
                    read_offset: offset,
                    read_len,
                }
            }
        }
    }

    pub(crate) fn read(
        &self,
        segment: &str,
        offset: u64,
        max_len: usize,
        wait: Option<Duration>,
    ) -> Result<ReadResult, SegmentError> {
        let deadline = wait.map(|d| clock::monotonic_now() + d);
        loop {
            self.check_running()?;
            match self.decide_read(segment, offset, max_len, deadline.is_some()) {
                ReadDecision::Return(r) => return Ok(r),
                ReadDecision::Fail(e) => return Err(e),
                ReadDecision::Wait(pr) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "`decide_read` returns Wait only when told a deadline exists"
                    )]
                    let remaining = deadline
                        .expect("wait decision only with deadline")
                        .saturating_duration_since(clock::monotonic_now());
                    if remaining.is_zero() {
                        return Ok(ReadResult::at_tail(offset));
                    }
                    match pr.wait_for(remaining) {
                        Ok(()) => continue,
                        Err(WaitError::Timeout) => return Ok(ReadResult::at_tail(offset)),
                        Err(WaitError::Broken) => return Err(SegmentError::ContainerStopped),
                    }
                }
                ReadDecision::FetchLts {
                    read_offset,
                    read_len,
                } => {
                    // Whole verified blocks come back: the reply keeps to
                    // `read_len`, the rest of the last block goes into the
                    // read index so the next read does not fetch it again.
                    let fetched = match self.lts.read_to_block_end(segment, read_offset, read_len) {
                        Ok(data) => data,
                        Err(LtsError::ChecksumMismatch { chunk, .. }) => {
                            // A cold read hit a corrupt chunk (now
                            // quarantined). Rebuild it from the retained WAL
                            // and retry once; if the bytes are gone, the
                            // damage is permanent and must surface as typed
                            // data loss — never as garbage.
                            if self.repair_chunk_from_wal(segment, &chunk) {
                                self.lts
                                    .read_to_block_end(segment, read_offset, read_len)
                                    .map_err(SegmentError::Lts)?
                            } else {
                                return Err(SegmentError::Lts(LtsError::DataLoss { chunk }));
                            }
                        }
                        Err(e) => return Err(SegmentError::Lts(e)),
                    };
                    if fetched.is_empty() {
                        return Err(SegmentError::Internal(
                            "LTS returned no data for a flushed range".into(),
                        ));
                    }
                    let mut guard = self.core.lock();
                    let core = &mut *guard;
                    if let Some(st) = core.segments.get_mut(segment) {
                        st.index
                            .insert_from_storage(&mut core.cache, read_offset, &fetched);
                    }
                    return Ok(ReadResult {
                        offset: read_offset,
                        data: fetched.slice(..read_len.min(fetched.len())),
                        end_of_segment: false,
                        at_tail: false,
                    });
                }
            }
        }
    }

    /// Reads exactly `len` committed bytes at `offset` (used by the storage
    /// writer; loops over short reads).
    pub(crate) fn read_committed_range(
        &self,
        segment: &str,
        offset: u64,
        len: usize,
    ) -> Result<Bytes, SegmentError> {
        let mut out = bytes::BytesMut::with_capacity(len);
        let mut cursor = offset;
        while out.len() < len {
            let r = self.read(segment, cursor, len - out.len(), None)?;
            if r.data.is_empty() {
                return Err(SegmentError::Internal(format!(
                    "short committed read at {cursor} (wanted {len} from {offset})"
                )));
            }
            cursor += r.data.len() as u64;
            out.extend_from_slice(&r.data);
        }
        Ok(out.freeze())
    }

    /// Reconstructs the logical bytes `[start, start + len)` of `segment`
    /// from the container's retained WAL frames. Returns `None` unless every
    /// byte of the range is covered by retained `Append` operations — a
    /// partial reconstruction cannot repair a chunk. A torn final frame (the
    /// signature of a crash mid WAL append) is skipped like recovery does.
    pub(crate) fn rebuild_from_wal(&self, segment: &str, start: u64, len: u64) -> Option<Vec<u8>> {
        if len == 0 {
            return Some(Vec::new());
        }
        let records = self.log().wal_handle().read_after(None).ok()?;
        let end = start + len;
        let mut buf = vec![0u8; len as usize];
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for (_, frame) in records {
            let Ok(items) = decode_frame(&frame) else {
                continue;
            };
            for (_, op) in items {
                let Operation::Append {
                    segment: s,
                    offset,
                    data,
                    ..
                } = op
                else {
                    continue;
                };
                if s != segment {
                    continue;
                }
                let a = offset.max(start);
                let b = (offset + data.len() as u64).min(end);
                if a >= b {
                    continue;
                }
                if let (Some(dst), Some(src)) = (
                    buf.get_mut((a - start) as usize..(b - start) as usize),
                    data.get((a - offset) as usize..(b - offset) as usize),
                ) {
                    dst.copy_from_slice(src);
                    covered.push((a, b));
                }
            }
        }
        covered.sort_unstable();
        let mut reach = start;
        for (a, b) in covered {
            if a > reach {
                return None;
            }
            reach = reach.max(b);
        }
        (reach >= end).then_some(buf)
    }

    /// Attempts to repair a corrupt LTS chunk in place from retained WAL
    /// data. [`ChunkedSegmentStorage::repair_chunk`] re-verifies the rebuilt
    /// bytes against the checksums recorded at ack time, so a stale or
    /// mismatched reconstruction can never be laundered into the chunk.
    fn repair_chunk_from_wal(&self, segment: &str, chunk: &str) -> bool {
        let Ok(chunks) = self.lts.chunk_names(segment) else {
            return false;
        };
        let Some((start, len)) = chunks
            .iter()
            .find(|(name, _, _)| name == chunk)
            .map(|&(_, start, len)| (start, len))
        else {
            return false;
        };
        let Some(bytes) = self.rebuild_from_wal(segment, start, len) else {
            return false;
        };
        self.lts.repair_chunk(segment, chunk, &bytes).is_ok()
    }
}

//! Chunked segment layout: a segment in LTS is a sequence of non-overlapping
//! chunks (§4.3).
//!
//! The chunk list and segment attributes (length, truncation offset, sealed)
//! live in a [`MetadataStore`] record updated with conditional writes, so a
//! crashed flush can never corrupt the layout: chunk data written without a
//! committed metadata update is simply unreferenced.
//!
//! # Integrity
//!
//! Chunk bytes are stored framed in the checksummed block format of
//! [`crate::format`]: the metadata record keeps each block's `(len, crc)`
//! captured at ack time, every cold read verifies the blocks it touches
//! before returning a byte, and a chunk that fails verification is
//! *quarantined* — all further reads fail fast with
//! [`LtsError::ChecksumMismatch`] until [`ChunkedSegmentStorage::repair_chunk`]
//! installs bytes that match the acked checksums. Offsets and lengths in the
//! metadata record and all public APIs stay *logical* (payload bytes);
//! framing overhead exists only inside the chunk.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pravega_common::buf::crc32c;
use pravega_common::clock;
use pravega_common::crashpoints::{self, CrashHook};
use pravega_common::metrics::{Counter, Histogram, MetricsRegistry};
use pravega_common::retry::RetryPolicy;
use pravega_sync::{rank, Mutex};

use crate::chunk::ChunkStorage;
use crate::error::LtsError;
use crate::format::{self, BlockInfo};
use crate::metadata::{MetadataStore, MetadataUpdate};

/// Configuration for the chunked layout.
#[derive(Debug, Clone, Copy)]
pub struct ChunkedStorageConfig {
    /// Maximum bytes per chunk before a new one is rolled.
    pub max_chunk_bytes: u64,
}

impl Default for ChunkedStorageConfig {
    fn default() -> Self {
        Self {
            max_chunk_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Externally-visible attributes of a segment in LTS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStorageInfo {
    /// Total bytes ever written (tail offset).
    pub length: u64,
    /// First readable offset.
    pub start_offset: u64,
    /// Whether the segment is sealed in LTS.
    pub sealed: bool,
    /// Number of chunks currently referenced.
    pub chunk_count: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ChunkRecord {
    name: String,
    start: u64,
    /// Logical (payload) bytes in the chunk; framing overhead excluded.
    length: u64,
    /// `(payload_len, crc32c)` of every committed block, in physical order.
    blocks: Vec<BlockInfo>,
    /// Whether the footer has been appended (chunk full or segment sealed).
    finalized: bool,
}

impl ChunkRecord {
    /// Physical bytes the committed blocks (and footer, once finalized)
    /// occupy in chunk storage.
    fn physical_len(&self) -> u64 {
        let data = format::physical_data_len(&self.blocks);
        if self.finalized {
            data + format::footer_physical_len(self.blocks.len())
        } else {
            data
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentRecord {
    length: u64,
    start_offset: u64,
    sealed: bool,
    next_chunk_index: u64,
    chunks: Vec<ChunkRecord>,
}

impl SegmentRecord {
    fn new() -> Self {
        Self {
            length: 0,
            start_offset: 0,
            sealed: false,
            next_chunk_index: 0,
            chunks: Vec::new(),
        }
    }

    fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u64(self.length);
        buf.put_u64(self.start_offset);
        buf.put_u8(self.sealed as u8);
        buf.put_u64(self.next_chunk_index);
        buf.put_u32(self.chunks.len() as u32);
        for c in &self.chunks {
            pravega_common::buf::put_string(&mut buf, &c.name);
            buf.put_u64(c.start);
            buf.put_u64(c.length);
            buf.put_u8(c.finalized as u8);
            buf.put_u32(c.blocks.len() as u32);
            for &(len, crc) in &c.blocks {
                buf.put_u32(len);
                buf.put_u32(crc);
            }
        }
        buf.freeze()
    }

    fn decode(data: &Bytes) -> Result<Self, LtsError> {
        let mut buf = data.clone();
        let err = |_| LtsError::Metadata("corrupt segment record".into());
        if buf.remaining() < 29 {
            return Err(LtsError::Metadata("corrupt segment record".into()));
        }
        let length = buf.get_u64();
        let start_offset = buf.get_u64();
        let sealed = buf.get_u8() != 0;
        let next_chunk_index = buf.get_u64();
        let n = buf.get_u32() as usize;
        let mut chunks = Vec::with_capacity(n);
        for _ in 0..n {
            let name = pravega_common::buf::get_string(&mut buf, "chunk name").map_err(err)?;
            if buf.remaining() < 21 {
                return Err(LtsError::Metadata("corrupt segment record".into()));
            }
            let start = buf.get_u64();
            let length = buf.get_u64();
            let finalized = buf.get_u8() != 0;
            let block_count = buf.get_u32() as usize;
            if buf.remaining() < block_count * 8 {
                return Err(LtsError::Metadata("corrupt segment record".into()));
            }
            let mut blocks = Vec::with_capacity(block_count);
            for _ in 0..block_count {
                blocks.push((buf.get_u32(), buf.get_u32()));
            }
            chunks.push(ChunkRecord {
                name,
                start,
                length,
                blocks,
                finalized,
            });
        }
        Ok(Self {
            length,
            start_offset,
            sealed,
            next_chunk_index,
            chunks,
        })
    }
}

/// Segment storage on top of chunks + metadata: the "storage subsystem" the
/// storage writer flushes into (§4.3).
#[derive(Debug, Clone)]
pub struct ChunkedSegmentStorage {
    chunks: Arc<dyn ChunkStorage>,
    metadata: Arc<dyn MetadataStore>,
    config: ChunkedStorageConfig,
    retry: RetryPolicy,
    metrics: LtsMetrics,
    crash_hook: CrashHook,
    /// Chunks that failed checksum verification, mapped to the physical
    /// offset of the first corrupt block. Shared across clones so a chunk
    /// detected corrupt anywhere is never silently re-read anywhere.
    quarantine: Arc<Mutex<HashMap<String, u64>>>,
}

/// Cheap handles to the `lts.chunked.*` instruments.
#[derive(Debug, Clone)]
struct LtsMetrics {
    write_nanos: Arc<Histogram>,
    write_bytes: Arc<Counter>,
    read_nanos: Arc<Histogram>,
    read_bytes: Arc<Counter>,
    fetched_bytes: Arc<Counter>,
    blocks_verified: Arc<Counter>,
    retries: Arc<Counter>,
}

impl LtsMetrics {
    fn new(metrics: &MetricsRegistry) -> Self {
        Self {
            write_nanos: metrics.histogram("lts.chunked.write_nanos"),
            write_bytes: metrics.counter("lts.chunked.write_bytes"),
            read_nanos: metrics.histogram("lts.chunked.read_nanos"),
            read_bytes: metrics.counter("lts.chunked.read_bytes"),
            fetched_bytes: metrics.counter("lts.chunked.fetched_bytes"),
            blocks_verified: metrics.counter("lts.chunked.blocks_verified"),
            retries: metrics.counter("lts.chunked.retries"),
        }
    }
}

fn record_key(segment: &str) -> String {
    format!("lts/segments/{segment}")
}

impl ChunkedSegmentStorage {
    /// Creates segment storage over the given chunk and metadata backends.
    pub fn new(
        chunks: Arc<dyn ChunkStorage>,
        metadata: Arc<dyn MetadataStore>,
        config: ChunkedStorageConfig,
    ) -> Self {
        Self {
            chunks,
            metadata,
            config,
            retry: RetryPolicy::default(),
            metrics: LtsMetrics::new(&MetricsRegistry::new()),
            crash_hook: CrashHook::disarmed(),
            quarantine: Arc::new(Mutex::new(rank::LTS_QUARANTINE, HashMap::new())),
        }
    }

    /// Re-homes this storage's `lts.chunked.*` instruments in `metrics`.
    ///
    /// The cluster calls this with its shared registry; clones made
    /// afterwards keep recording into the same instruments.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.metrics = LtsMetrics::new(metrics);
        self
    }

    /// Replaces the retry policy applied to chunk/metadata operations.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Arms the crash-point hook
    /// ([`crashpoints::LTS_SEGMENT_MID_CHUNK_ROLL`]); disarmed by default.
    #[must_use]
    pub fn with_crash_hook(mut self, hook: CrashHook) -> Self {
        self.crash_hook = hook;
        self
    }

    /// The underlying chunk storage (for parallel historical reads).
    pub fn chunk_storage(&self) -> &Arc<dyn ChunkStorage> {
        &self.chunks
    }

    fn load(&self, segment: &str) -> Result<(SegmentRecord, i64), LtsError> {
        let (data, version) = self
            .metadata
            .get(&record_key(segment))
            .ok_or(LtsError::NoSuchSegment)?;
        Ok((SegmentRecord::decode(&data)?, version))
    }

    fn store(&self, segment: &str, record: &SegmentRecord, version: i64) -> Result<(), LtsError> {
        self.metadata
            .commit(vec![MetadataUpdate::replace(
                record_key(segment),
                record.encode(),
                version,
            )])
            .map(|_| ())
    }

    /// Registers a new, empty segment.
    ///
    /// # Errors
    ///
    /// [`LtsError::SegmentExists`] if already present.
    pub fn create(&self, segment: &str) -> Result<(), LtsError> {
        self.metadata
            .commit(vec![MetadataUpdate::insert(
                record_key(segment),
                SegmentRecord::new().encode(),
            )])
            .map(|_| ())
            .map_err(|e| match e {
                LtsError::MetadataConflict => LtsError::SegmentExists,
                other => other,
            })
    }

    /// Whether the segment exists in LTS metadata.
    pub fn exists(&self, segment: &str) -> bool {
        self.metadata.get(&record_key(segment)).is_some()
    }

    /// Appends `data` at `offset` (which must equal the current length),
    /// rolling chunks as needed. Returns the new length.
    ///
    /// Transient chunk/metadata failures (unavailability, torn writes,
    /// conditional-update races) are retried with backoff under the storage's
    /// [`RetryPolicy`]. Retries are idempotent even after a *torn* write —
    /// one where a prefix of the payload physically reached the chunk but the
    /// call failed: each attempt reloads committed metadata and verifies the
    /// physical chunk offset, skipping payload bytes a previous attempt
    /// already landed. This relies on the single-writer-per-segment ownership
    /// the storage writer guarantees (§4.3).
    ///
    /// # Errors
    ///
    /// [`LtsError::BadOffset`] for non-append writes; [`LtsError::Sealed`];
    /// chunk-backend failures that outlast the retry budget propagate and
    /// leave metadata untouched.
    pub fn write(&self, segment: &str, offset: u64, data: &[u8]) -> Result<u64, LtsError> {
        let start = clock::monotonic_now();
        let length = self.retry.run(
            |_, _| self.metrics.retries.inc(),
            || self.try_write(segment, offset, data),
        )?;
        self.metrics
            .write_nanos
            .record(start.elapsed().as_nanos() as u64);
        self.metrics.write_bytes.add(data.len() as u64);
        Ok(length)
    }

    /// One write attempt: reload committed metadata, land the payload as
    /// checksummed blocks, commit.
    fn try_write(&self, segment: &str, offset: u64, data: &[u8]) -> Result<u64, LtsError> {
        let (mut record, version) = self.load(segment)?;
        if record.sealed {
            return Err(LtsError::Sealed);
        }
        if offset != record.length {
            return Err(LtsError::BadOffset {
                expected: record.length,
                actual: offset,
            });
        }
        let mut remaining = data;
        while !remaining.is_empty() {
            let need_new_chunk = match record.chunks.last() {
                None => true,
                Some(last) => last.finalized || last.length >= self.config.max_chunk_bytes,
            };
            if need_new_chunk {
                // Finalize the chunk being rolled away from: append its
                // footer so it verifies standalone from now on. Footer bytes
                // are deterministic from committed metadata, so a crash here
                // is healed by the same torn-frame logic as data blocks.
                if let Some(last) = record.chunks.last_mut() {
                    if !last.finalized {
                        self.finalize_chunk(last)?;
                    }
                }
                let name = format!("{segment}.chunk-{:08}", record.next_chunk_index);
                record.next_chunk_index += 1;
                match self.chunks.create(&name) {
                    Ok(()) => {}
                    // Chunk names are deterministic from next_chunk_index,
                    // which only advances when metadata commits — so an
                    // existing chunk here is leftover from an earlier,
                    // uncommitted attempt of this very write (single writer).
                    // Adopt it; any torn frame it holds is healed below.
                    Err(LtsError::ChunkExists) => {}
                    Err(e) => return Err(e),
                }
                if self
                    .crash_hook
                    .fire(crashpoints::LTS_SEGMENT_MID_CHUNK_ROLL)
                {
                    // Simulated crash mid chunk-roll: the physical chunk was
                    // created but the metadata commit never happened. On the
                    // next write attempt the deterministic chunk name hits
                    // `ChunkExists` above and the orphan is adopted.
                    return Err(LtsError::Unavailable);
                }
                record.chunks.push(ChunkRecord {
                    name,
                    start: record.length,
                    length: 0,
                    blocks: Vec::new(),
                    finalized: false,
                });
            }
            // A chunk was rolled above if the list was empty or full, so the
            // list is non-empty here; guard anyway rather than panic.
            let Some(last) = record.chunks.last_mut() else {
                return Err(LtsError::Metadata(format!(
                    "segment {segment}: chunk list empty after roll"
                )));
            };
            let capacity = (self.config.max_chunk_bytes - last.length) as usize;
            let take = remaining.len().min(capacity);
            let payload = &remaining[..take];
            let frame = format::encode_block(payload);
            self.write_frame(&last.name, format::physical_data_len(&last.blocks), &frame)?;
            last.blocks.push((take as u32, format::block_crc(&frame)));
            last.length += take as u64;
            record.length += take as u64;
            remaining = &remaining[take..];
        }
        self.store(segment, &record, version)?;
        Ok(record.length)
    }

    /// Lands one frame at physical offset `at` of `chunk`, healing leftovers
    /// from earlier uncommitted attempts.
    ///
    /// The physical chunk can be ahead of committed metadata when a previous
    /// attempt landed bytes before failing. If those bytes are a prefix of
    /// this very frame (the common case: retries recompute identical frames
    /// from committed metadata), they are adopted and only the missing
    /// suffix is appended. If they differ — a re-flush framed the same
    /// logical bytes into different block boundaries — the uncommitted tail
    /// is discarded with [`ChunkStorage::truncate`] and the frame rewritten.
    fn write_frame(&self, chunk: &str, at: u64, frame: &[u8]) -> Result<(), LtsError> {
        let end = at + frame.len() as u64;
        match self.chunks.write(chunk, at, frame) {
            Ok(()) => Ok(()),
            Err(LtsError::BadOffset { expected, actual }) if actual == at && expected > at => {
                let overlap = ((expected - at) as usize).min(frame.len());
                let leftover = self.chunks.read(chunk, at, overlap)?;
                if leftover.as_ref() == &frame[..overlap] {
                    if expected >= end {
                        // The whole frame landed in a previous attempt (any
                        // bytes past it belong to later frames of that same
                        // attempt and are healed on their own turn).
                        Ok(())
                    } else {
                        self.chunks.write(chunk, expected, &frame[overlap..])
                    }
                } else {
                    self.chunks.truncate(chunk, at)?;
                    self.chunks.write(chunk, at, frame)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Appends the footer to a chunk and marks it finalized (in the caller's
    /// record; committing that record is the caller's job).
    fn finalize_chunk(&self, chunk: &mut ChunkRecord) -> Result<(), LtsError> {
        let footer = format::encode_footer(&chunk.blocks);
        self.write_frame(
            &chunk.name,
            format::physical_data_len(&chunk.blocks),
            &footer,
        )?;
        chunk.finalized = true;
        Ok(())
    }

    /// Reads up to `len` bytes at `offset`, crossing chunk boundaries.
    /// Short reads happen only at the segment's end.
    ///
    /// # Errors
    ///
    /// [`LtsError::Truncated`] below the start offset; [`LtsError::BeyondEnd`]
    /// past the tail.
    pub fn read(&self, segment: &str, offset: u64, len: usize) -> Result<Bytes, LtsError> {
        let mut out = self.read_blocks(segment, offset, len)?;
        out.truncate(len);
        self.metrics.read_bytes.add(out.len() as u64);
        Ok(out)
    }

    /// Like [`ChunkedSegmentStorage::read`], but the result runs on to the
    /// end of the last block the range touches. A block is fetched and
    /// verified whole whichever part of it was asked for, so a caller reading
    /// sequentially keeps the surplus instead of paying for that block again
    /// on its next read.
    ///
    /// # Errors
    ///
    /// As [`ChunkedSegmentStorage::read`].
    pub fn read_to_block_end(
        &self,
        segment: &str,
        offset: u64,
        len: usize,
    ) -> Result<Bytes, LtsError> {
        let out = self.read_blocks(segment, offset, len)?;
        self.metrics.read_bytes.add(out.len() as u64);
        Ok(out)
    }

    /// [`Self::try_read`] under the retry policy, timed.
    fn read_blocks(&self, segment: &str, offset: u64, len: usize) -> Result<Bytes, LtsError> {
        let start = clock::monotonic_now();
        let out = self.retry.run(
            |_, _| self.metrics.retries.inc(),
            || self.try_read(segment, offset, len),
        )?;
        self.metrics
            .read_nanos
            .record(start.elapsed().as_nanos() as u64);
        Ok(out)
    }

    /// One read attempt (reads are naturally idempotent): `[offset, offset +
    /// len)` clamped to the segment, extended to the end of the last block it
    /// touches. Every touched block is checksum verified before any byte is
    /// returned.
    fn try_read(&self, segment: &str, offset: u64, len: usize) -> Result<Bytes, LtsError> {
        let (record, _) = self.load(segment)?;
        if offset < record.start_offset {
            return Err(LtsError::Truncated {
                start_offset: record.start_offset,
            });
        }
        if offset > record.length {
            return Err(LtsError::BeyondEnd {
                length: record.length,
            });
        }
        let end = (offset + len as u64).min(record.length);
        let mut out = BytesMut::with_capacity((end - offset) as usize);
        let mut cursor = offset;
        for chunk in &record.chunks {
            let chunk_end = chunk.start + chunk.length;
            if chunk_end <= cursor || cursor >= end {
                continue;
            }
            let within = cursor - chunk.start;
            let take = (chunk_end.min(end) - cursor) as usize;
            cursor += self.read_verified(chunk, within, take, &mut out)?;
            if cursor >= end {
                break;
            }
        }
        Ok(out.freeze())
    }

    /// Appends to `out` the logical bytes of one chunk from `within` to the
    /// end of the last block `[within, within + take)` touches, decoding and
    /// verifying every touched block; returns how many bytes that was.
    /// Corruption quarantines the chunk; a quarantined chunk fails fast
    /// without touching storage.
    fn read_verified(
        &self,
        chunk: &ChunkRecord,
        within: u64,
        take: usize,
        out: &mut BytesMut,
    ) -> Result<u64, LtsError> {
        if let Some(&offset) = self.quarantine.lock().get(&chunk.name) {
            return Err(LtsError::ChecksumMismatch {
                chunk: chunk.name.clone(),
                offset,
            });
        }
        let want_end = within + take as u64;
        // Locate the touched blocks: (logical start, physical offset, info).
        let mut touched: Vec<(u64, u64, BlockInfo)> = Vec::new();
        let mut logical = 0u64;
        let mut phys = 0u64;
        for &(blen, bcrc) in &chunk.blocks {
            let bl = blen as u64;
            if logical < want_end && logical + bl > within {
                touched.push((logical, phys, (blen, bcrc)));
            }
            logical += bl;
            phys += format::BLOCK_OVERHEAD + bl;
            if logical >= want_end {
                break;
            }
        }
        let (Some(&(_, span_start, _)), Some(&(_, last_phys, (last_len, _)))) =
            (touched.first(), touched.last())
        else {
            return Ok(0);
        };
        let span_end = last_phys + format::BLOCK_OVERHEAD + last_len as u64;
        let raw = self
            .chunks
            .read(&chunk.name, span_start, (span_end - span_start) as usize)?;
        self.metrics.fetched_bytes.add(raw.len() as u64);
        let before = out.len();
        // Room for the surplus too: the caller sized `out` for what was asked.
        out.reserve(raw.len());
        for (block_logical, block_phys, info) in touched {
            let payload = format::decode_block(&raw, block_phys - span_start, info)
                .map_err(|_| self.mark_corrupt(&chunk.name, block_phys))?;
            self.metrics.blocks_verified.inc();
            let from = within.saturating_sub(block_logical) as usize;
            out.put_slice(&payload[from..]);
        }
        Ok((out.len() - before) as u64)
    }

    /// Quarantines `chunk` and returns the error to surface. Detection is
    /// sticky: until repaired, every read of the chunk fails fast.
    fn mark_corrupt(&self, chunk: &str, offset: u64) -> LtsError {
        self.quarantine
            .lock()
            .entry(chunk.to_string())
            .or_insert(offset);
        LtsError::ChecksumMismatch {
            chunk: chunk.to_string(),
            offset,
        }
    }

    /// Seals the segment in LTS: no further writes. The last chunk is
    /// finalized (footer appended) so every chunk of a sealed segment
    /// verifies standalone.
    ///
    /// # Errors
    ///
    /// [`LtsError::NoSuchSegment`] if absent.
    pub fn seal(&self, segment: &str) -> Result<(), LtsError> {
        // Reload-and-reapply on conflict: sealing is idempotent, and the
        // footer write is healed like any other frame on a retry.
        self.retry.run(
            |_, _| self.metrics.retries.inc(),
            || {
                let (mut record, version) = self.load(segment)?;
                if let Some(last) = record.chunks.last_mut() {
                    if !last.finalized {
                        self.finalize_chunk(last)?;
                    }
                }
                record.sealed = true;
                self.store(segment, &record, version)
            },
        )
    }

    /// Truncates the segment at `offset`: earlier data becomes unreadable and
    /// chunks entirely below the offset are deleted from chunk storage.
    ///
    /// # Errors
    ///
    /// [`LtsError::BadOffset`] if `offset` exceeds the length.
    pub fn truncate(&self, segment: &str, offset: u64) -> Result<(), LtsError> {
        // Reload-and-reapply on conflict: truncation to a fixed offset is
        // idempotent (a later start_offset simply wins).
        let doomed = self.retry.run(
            |_, _| self.metrics.retries.inc(),
            || {
                let (mut record, version) = self.load(segment)?;
                if offset > record.length {
                    return Err(LtsError::BadOffset {
                        expected: record.length,
                        actual: offset,
                    });
                }
                if offset <= record.start_offset {
                    return Ok(Vec::new());
                }
                record.start_offset = offset;
                let (doomed, kept): (Vec<ChunkRecord>, Vec<ChunkRecord>) = record
                    .chunks
                    .clone()
                    .into_iter()
                    .partition(|c| c.start + c.length <= offset);
                record.chunks = kept;
                self.store(segment, &record, version)?;
                Ok(doomed)
            },
        )?;
        for chunk in doomed {
            let _ = self.chunks.delete(&chunk.name);
            self.quarantine.lock().remove(&chunk.name);
        }
        Ok(())
    }

    /// Deletes the segment: metadata record and all chunks.
    ///
    /// # Errors
    ///
    /// [`LtsError::NoSuchSegment`] if absent.
    pub fn delete(&self, segment: &str) -> Result<(), LtsError> {
        let (record, _) = self.load(segment)?;
        self.metadata
            .commit(vec![MetadataUpdate::remove(record_key(segment), None)])?;
        for chunk in record.chunks {
            let _ = self.chunks.delete(&chunk.name);
            self.quarantine.lock().remove(&chunk.name);
        }
        Ok(())
    }

    /// Concatenates a *sealed* `source` segment onto `target` (used when
    /// merging transaction/scale artifacts): source chunks are re-parented,
    /// no data is copied, and the source record is removed — all in one
    /// metadata transaction.
    ///
    /// # Errors
    ///
    /// [`LtsError::Metadata`] if the source is not sealed;
    /// [`LtsError::Sealed`] if the target is sealed.
    pub fn concat(&self, target: &str, source: &str) -> Result<u64, LtsError> {
        let (mut target_record, target_version) = self.load(target)?;
        let (source_record, source_version) = self.load(source)?;
        if !source_record.sealed {
            return Err(LtsError::Metadata("concat source must be sealed".into()));
        }
        if target_record.sealed {
            return Err(LtsError::Sealed);
        }
        if source_record.start_offset != 0 {
            return Err(LtsError::Metadata(
                "cannot concat a truncated source".into(),
            ));
        }
        let base = target_record.length;
        for chunk in &source_record.chunks {
            target_record.chunks.push(ChunkRecord {
                name: chunk.name.clone(),
                start: base + chunk.start,
                length: chunk.length,
                blocks: chunk.blocks.clone(),
                // The source was sealed, so all its chunks are finalized;
                // carrying the flag keeps the tail chunk un-appendable and
                // forces the next write to roll a fresh chunk.
                finalized: chunk.finalized,
            });
        }
        target_record.length += source_record.length;
        // Single transaction: update target + remove source.
        self.metadata.commit(vec![
            MetadataUpdate::replace(record_key(target), target_record.encode(), target_version),
            MetadataUpdate::remove(record_key(source), Some(source_version)),
        ])?;
        Ok(target_record.length)
    }

    /// Returns the segment's LTS attributes.
    ///
    /// # Errors
    ///
    /// [`LtsError::NoSuchSegment`] if absent.
    pub fn info(&self, segment: &str) -> Result<SegmentStorageInfo, LtsError> {
        let (record, _) = self.load(segment)?;
        Ok(SegmentStorageInfo {
            length: record.length,
            start_offset: record.start_offset,
            sealed: record.sealed,
            chunk_count: record.chunks.len(),
        })
    }

    /// Names of the chunks currently composing the segment, in order. Used
    /// by historical readers to issue parallel chunk fetches (§5.7).
    ///
    /// # Errors
    ///
    /// [`LtsError::NoSuchSegment`] if absent.
    pub fn chunk_names(&self, segment: &str) -> Result<Vec<(String, u64, u64)>, LtsError> {
        let (record, _) = self.load(segment)?;
        Ok(record
            .chunks
            .iter()
            .map(|c| (c.name.clone(), c.start, c.length))
            .collect())
    }

    /// All segments registered in this store's LTS metadata (scrubber walk).
    pub fn segment_names(&self) -> Vec<String> {
        self.metadata
            .list_prefix("lts/segments/")
            .into_iter()
            .filter_map(|(key, _, _)| key.strip_prefix("lts/segments/").map(str::to_string))
            .collect()
    }

    /// Chunks currently quarantined, with the physical offset of the first
    /// corrupt block detected in each.
    pub fn quarantined_chunks(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .quarantine
            .lock()
            .iter()
            .map(|(name, &offset)| (name.clone(), offset))
            .collect();
        out.sort();
        out
    }

    /// Verifies every committed block of `chunk` (and its footer, when
    /// finalized) against the checksums recorded at ack time. Returns the
    /// physical bytes scanned. Physical bytes beyond the committed blocks of
    /// an *unfinalized* chunk are ignored: they are uncommitted leftovers of
    /// an in-flight or torn write, not corruption.
    ///
    /// # Errors
    ///
    /// [`LtsError::ChecksumMismatch`] on corruption (the chunk is
    /// quarantined); [`LtsError::NoSuchSegment`] / [`LtsError::NoSuchChunk`]
    /// if the segment or chunk is gone.
    pub fn verify_chunk(&self, segment: &str, chunk: &str) -> Result<u64, LtsError> {
        let (record, _) = self.load(segment)?;
        let rec = record
            .chunks
            .iter()
            .find(|c| c.name == chunk)
            .ok_or(LtsError::NoSuchChunk)?;
        if let Some(&offset) = self.quarantine.lock().get(chunk) {
            return Err(LtsError::ChecksumMismatch {
                chunk: chunk.to_string(),
                offset,
            });
        }
        let total = rec.physical_len();
        let raw = self.chunks.read(chunk, 0, total as usize)?;
        let mut phys = 0u64;
        for &(blen, bcrc) in &rec.blocks {
            format::decode_block(&raw, phys, (blen, bcrc))
                .map_err(|_| self.mark_corrupt(chunk, phys))?;
            phys += format::BLOCK_OVERHEAD + blen as u64;
        }
        if rec.finalized {
            format::decode_footer(&raw, phys, &rec.blocks)
                .map_err(|_| self.mark_corrupt(chunk, phys))?;
        }
        Ok(total)
    }

    /// Replaces the physical bytes of `chunk` with a re-framed copy of
    /// `data`, which must be the chunk's complete logical contents. The
    /// supplied bytes are verified against the block checksums recorded at
    /// ack time *before* anything is rewritten — repair can never launder
    /// wrong bytes into a chunk — and on success the quarantine is lifted.
    ///
    /// # Errors
    ///
    /// [`LtsError::Metadata`] if `data` has the wrong length or does not
    /// match the acked checksums; storage errors from the rewrite.
    pub fn repair_chunk(&self, segment: &str, chunk: &str, data: &[u8]) -> Result<(), LtsError> {
        let (record, _) = self.load(segment)?;
        let rec = record
            .chunks
            .iter()
            .find(|c| c.name == chunk)
            .ok_or(LtsError::NoSuchChunk)?;
        if data.len() as u64 != rec.length {
            return Err(LtsError::Metadata(format!(
                "repair data for {chunk} is {} bytes, chunk holds {}",
                data.len(),
                rec.length
            )));
        }
        let mut frames = BytesMut::new();
        let mut off = 0usize;
        for &(blen, bcrc) in &rec.blocks {
            let payload = &data[off..off + blen as usize];
            if crc32c(payload) != bcrc {
                return Err(LtsError::Metadata(format!(
                    "repair data for {chunk} does not match acked checksums"
                )));
            }
            frames.extend_from_slice(&format::encode_block(payload));
            off += blen as usize;
        }
        if rec.finalized {
            frames.extend_from_slice(&format::encode_footer(&rec.blocks));
        }
        match self.chunks.delete(chunk) {
            Ok(()) | Err(LtsError::NoSuchChunk) => {}
            Err(e) => return Err(e),
        }
        self.chunks.create(chunk)?;
        self.chunks.write(chunk, 0, &frames)?;
        self.quarantine.lock().remove(chunk);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::InMemoryChunkStorage;
    use crate::metadata::InMemoryMetadataStore;

    fn storage(max_chunk: u64) -> (ChunkedSegmentStorage, Arc<InMemoryChunkStorage>) {
        let chunks = Arc::new(InMemoryChunkStorage::new());
        (
            ChunkedSegmentStorage::new(
                chunks.clone(),
                Arc::new(InMemoryMetadataStore::new()),
                ChunkedStorageConfig {
                    max_chunk_bytes: max_chunk,
                },
            ),
            chunks,
        )
    }

    #[test]
    fn write_read_roundtrip_across_chunks() {
        let (s, chunks) = storage(8);
        s.create("seg").unwrap();
        s.write("seg", 0, b"the quick brown fox jumps").unwrap();
        assert_eq!(
            s.read("seg", 0, 25).unwrap().as_ref(),
            b"the quick brown fox jumps"
        );
        assert_eq!(s.read("seg", 4, 5).unwrap().as_ref(), b"quick");
        assert_eq!(s.read("seg", 10, 9).unwrap().as_ref(), b"brown fox");
        let info = s.info("seg").unwrap();
        assert_eq!(info.length, 25);
        assert_eq!(info.chunk_count, 4); // ceil(25/8)
        assert_eq!(chunks.chunk_names().len(), 4);
    }

    #[test]
    fn appends_must_be_at_tail() {
        let (s, _) = storage(1024);
        s.create("seg").unwrap();
        s.write("seg", 0, b"abc").unwrap();
        assert_eq!(
            s.write("seg", 1, b"x"),
            Err(LtsError::BadOffset {
                expected: 3,
                actual: 1
            })
        );
        s.write("seg", 3, b"def").unwrap();
        assert_eq!(s.read("seg", 0, 6).unwrap().as_ref(), b"abcdef");
    }

    #[test]
    fn create_twice_fails() {
        let (s, _) = storage(16);
        s.create("seg").unwrap();
        assert_eq!(s.create("seg"), Err(LtsError::SegmentExists));
    }

    #[test]
    fn sealed_segment_rejects_writes() {
        let (s, _) = storage(16);
        s.create("seg").unwrap();
        s.write("seg", 0, b"x").unwrap();
        s.seal("seg").unwrap();
        assert_eq!(s.write("seg", 1, b"y"), Err(LtsError::Sealed));
        assert!(s.info("seg").unwrap().sealed);
        // Reads still work.
        assert_eq!(s.read("seg", 0, 1).unwrap().as_ref(), b"x");
    }

    #[test]
    fn truncate_deletes_covered_chunks() {
        let (s, chunks) = storage(4);
        s.create("seg").unwrap();
        s.write("seg", 0, b"0123456789abcdef").unwrap(); // 4 chunks
        assert_eq!(chunks.chunk_names().len(), 4);
        s.truncate("seg", 9).unwrap();
        // Chunks [0..4) and [4..8) fully below 9 are deleted; [8..12) kept.
        assert_eq!(chunks.chunk_names().len(), 2);
        assert_eq!(s.info("seg").unwrap().start_offset, 9);
        assert_eq!(s.read("seg", 9, 7).unwrap().as_ref(), b"9abcdef");
        assert_eq!(
            s.read("seg", 2, 2),
            Err(LtsError::Truncated { start_offset: 9 })
        );
        // Truncating backwards is a no-op.
        s.truncate("seg", 3).unwrap();
        assert_eq!(s.info("seg").unwrap().start_offset, 9);
        // Truncating beyond the end fails.
        assert!(matches!(
            s.truncate("seg", 100),
            Err(LtsError::BadOffset { .. })
        ));
    }

    #[test]
    fn delete_removes_chunks_and_metadata() {
        let (s, chunks) = storage(4);
        s.create("seg").unwrap();
        s.write("seg", 0, b"0123456789").unwrap();
        s.delete("seg").unwrap();
        assert!(!s.exists("seg"));
        assert!(chunks.chunk_names().is_empty());
        assert_eq!(s.read("seg", 0, 1), Err(LtsError::NoSuchSegment));
    }

    #[test]
    fn concat_reparents_chunks_without_copy() {
        let (s, chunks) = storage(4);
        s.create("a").unwrap();
        s.create("b").unwrap();
        s.write("a", 0, b"first-").unwrap();
        s.write("b", 0, b"second").unwrap();
        // Unsealed source refuses.
        assert!(s.concat("a", "b").is_err());
        s.seal("b").unwrap();
        let new_len = s.concat("a", "b").unwrap();
        assert_eq!(new_len, 12);
        assert!(!s.exists("b"));
        assert_eq!(s.read("a", 0, 12).unwrap().as_ref(), b"first-second");
        // No data was copied: same chunk count as the two had together.
        assert_eq!(chunks.chunk_names().len(), 4);
    }

    #[test]
    fn read_beyond_end_is_an_error_but_short_reads_ok() {
        let (s, _) = storage(16);
        s.create("seg").unwrap();
        s.write("seg", 0, b"abc").unwrap();
        assert_eq!(s.read("seg", 0, 100).unwrap().as_ref(), b"abc");
        assert_eq!(s.read("seg", 3, 10).unwrap().len(), 0); // at tail: empty
        assert_eq!(s.read("seg", 4, 1), Err(LtsError::BeyondEnd { length: 3 }));
    }

    // Fault-injection coverage (unavailability, transient bursts, torn-write
    // healing, and the retried-writes property test) lives in
    // crates/lts/tests/faults.rs: the pravega-faults decorator can only be
    // used from integration tests because the cfg(test) build of this crate
    // is a distinct crate from the one pravega-faults links against.

    #[test]
    fn chunk_names_report_layout() {
        let (s, _) = storage(4);
        s.create("seg").unwrap();
        s.write("seg", 0, b"0123456789").unwrap();
        let names = s.chunk_names("seg").unwrap();
        assert_eq!(names.len(), 3);
        assert_eq!(names[0].1, 0);
        assert_eq!(names[1].1, 4);
        assert_eq!(names[2], (names[2].0.clone(), 8, 2));
    }

    #[test]
    fn corrupt_block_is_detected_quarantined_and_repairable() {
        let (s, chunks) = storage(8);
        s.create("seg").unwrap();
        s.write("seg", 0, b"the quick brown fox jumps").unwrap();
        // Flip a payload bit in the second chunk (logical bytes [8, 16)).
        let name = s.chunk_names("seg").unwrap()[1].0.clone();
        assert!(chunks.flip_bit(&name, 6, 0x04));
        let err = s.read("seg", 0, 25).unwrap_err();
        assert!(
            matches!(err, LtsError::ChecksumMismatch { ref chunk, .. } if *chunk == name),
            "{err}"
        );
        // Quarantine is sticky: reads touching the corrupt chunk fail fast,
        // reads confined to healthy chunks still succeed.
        assert!(matches!(
            s.read("seg", 8, 8),
            Err(LtsError::ChecksumMismatch { .. })
        ));
        assert_eq!(s.read("seg", 0, 8).unwrap().as_ref(), b"the quic");
        assert_eq!(s.quarantined_chunks().len(), 1);
        // Repair refuses bytes that do not match the acked checksums, then
        // heals with the true bytes and lifts the quarantine.
        assert!(s.repair_chunk("seg", &name, b"X brown ").is_err());
        s.repair_chunk("seg", &name, b"k brown ").unwrap();
        assert!(s.quarantined_chunks().is_empty());
        assert_eq!(
            s.read("seg", 0, 25).unwrap().as_ref(),
            b"the quick brown fox jumps"
        );
    }

    #[test]
    fn torn_tail_truncation_is_detected() {
        let (s, chunks) = storage(1024);
        s.create("seg").unwrap();
        s.write("seg", 0, b"hello world").unwrap();
        let name = s.chunk_names("seg").unwrap()[0].0.clone();
        assert!(chunks.truncate_tail(&name, 3)); // tears the CRC trailer
        assert!(matches!(
            s.read("seg", 0, 11),
            Err(LtsError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn verify_chunk_scans_blocks_and_footer() {
        let (s, chunks) = storage(8);
        s.create("seg").unwrap();
        s.write("seg", 0, b"0123456789abcdef").unwrap();
        s.seal("seg").unwrap();
        let names = s.chunk_names("seg").unwrap();
        for (name, _, _) in &names {
            s.verify_chunk("seg", name).unwrap();
        }
        // One 8-byte block per chunk: data frame is 16 bytes, so offset 20
        // lands inside the appended footer.
        assert!(chunks.flip_bit(&names[0].0, 20, 0x01));
        assert!(matches!(
            s.verify_chunk("seg", &names[0].0),
            Err(LtsError::ChecksumMismatch { .. })
        ));
        assert_eq!(s.quarantined_chunks().len(), 1);
    }

    #[test]
    fn sealed_segment_chunks_are_finalized_and_verify() {
        let (s, _) = storage(8);
        s.create("seg").unwrap();
        s.write("seg", 0, b"short").unwrap();
        s.seal("seg").unwrap();
        // Sealing twice is still idempotent with footer finalization.
        s.seal("seg").unwrap();
        let names = s.chunk_names("seg").unwrap();
        assert_eq!(names.len(), 1);
        s.verify_chunk("seg", &names[0].0).unwrap();
        assert_eq!(s.read("seg", 0, 5).unwrap().as_ref(), b"short");
    }

    #[test]
    fn uncommitted_leftover_with_different_framing_is_discarded() {
        let (s, chunks) = storage(1024);
        s.create("seg").unwrap();
        s.write("seg", 0, b"abc").unwrap();
        // Simulate a failed earlier flush that framed different bytes past
        // the committed tail: the next write must discard it, not adopt it.
        let name = s.chunk_names("seg").unwrap()[0].0.clone();
        let phys = chunks.length(&name).unwrap();
        chunks
            .write(&name, phys, b"\x00\x00\x00\x02ZZ\xde\xad\xbe\xef")
            .unwrap();
        s.write("seg", 3, b"defgh").unwrap();
        assert_eq!(s.read("seg", 0, 8).unwrap().as_ref(), b"abcdefgh");
        let names = s.chunk_names("seg").unwrap();
        s.verify_chunk("seg", &names[0].0).unwrap();
    }

    #[test]
    fn segment_names_lists_registered_segments() {
        let (s, _) = storage(16);
        s.create("a").unwrap();
        s.create("b").unwrap();
        let mut names = s.segment_names();
        names.sort();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }
}

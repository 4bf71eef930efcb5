//! Integration tests for the segment container: the full §4 write/read path
//! over an in-memory WAL and LTS, including tiering, truncation, recovery,
//! exactly-once deduplication and throttling.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use pravega_common::clock::SystemClock;
use pravega_common::id::{ContainerId, WriterId};
use pravega_lts::{
    ChunkedSegmentStorage, ChunkedStorageConfig, InMemoryChunkStorage, InMemoryMetadataStore,
    ThrottleModel, ThrottledChunkStorage,
};
use pravega_segmentstore::cache::CacheConfig;
use pravega_segmentstore::{ContainerConfig, SegmentContainer, SegmentError};
use pravega_wal::log::{DurableDataLog, InMemoryLog};

fn lts_over(chunks: Arc<dyn pravega_lts::ChunkStorage>) -> ChunkedSegmentStorage {
    ChunkedSegmentStorage::new(
        chunks,
        Arc::new(InMemoryMetadataStore::new()),
        ChunkedStorageConfig {
            max_chunk_bytes: 1024,
        },
    )
}

fn quick_config() -> ContainerConfig {
    ContainerConfig {
        max_batch_delay: Duration::from_millis(1),
        flush_interval: Duration::from_millis(2),
        checkpoint_interval_ops: 50,
        ..ContainerConfig::default()
    }
}

fn start_container(wal: Arc<dyn DurableDataLog>, lts: ChunkedSegmentStorage) -> SegmentContainer {
    SegmentContainer::start(
        ContainerId(0),
        wal,
        lts,
        Arc::new(SystemClock::new()),
        quick_config(),
    )
    .unwrap()
}

fn basic_container() -> SegmentContainer {
    start_container(
        Arc::new(InMemoryLog::new()),
        lts_over(Arc::new(InMemoryChunkStorage::new())),
    )
}

#[test]
fn append_then_read_roundtrip() {
    let c = basic_container();
    c.create_segment("s/t/0", false).unwrap();
    let w = WriterId::random();
    let mut expected = Vec::new();
    for i in 0..50 {
        let payload = format!("event-{i:03};");
        expected.extend_from_slice(payload.as_bytes());
        c.append("s/t/0", Bytes::from(payload), w, i as i64, 1, None)
            .wait()
            .unwrap();
    }
    let info = c.get_info("s/t/0").unwrap();
    assert_eq!(info.length, expected.len() as u64);
    let mut got = Vec::new();
    let mut offset = 0u64;
    while got.len() < expected.len() {
        let r = c.read("s/t/0", offset, 64, None).unwrap();
        assert!(!r.data.is_empty());
        got.extend_from_slice(&r.data);
        offset += r.data.len() as u64;
    }
    assert_eq!(got, expected);
    c.stop();
}

#[test]
fn pipelined_appends_ack_in_order() {
    let c = basic_container();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    let handles: Vec<_> = (0..100)
        .map(|i| c.append("seg", Bytes::from(vec![i as u8; 10]), w, i as i64, 1, None))
        .collect();
    let mut prev_tail = 0;
    for h in handles {
        let outcome = h.wait().unwrap();
        assert!(outcome.tail > prev_tail);
        prev_tail = outcome.tail;
    }
    assert_eq!(prev_tail, 1000);
    c.stop();
}

#[test]
fn duplicate_appends_are_acked_but_not_written() {
    let c = basic_container();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    c.append("seg", Bytes::from_static(b"e0"), w, 0, 1, None)
        .wait()
        .unwrap();
    c.append("seg", Bytes::from_static(b"e1"), w, 1, 1, None)
        .wait()
        .unwrap();
    // Resend of event 1 (reconnection): acked, not re-appended.
    let outcome = c
        .append("seg", Bytes::from_static(b"e1"), w, 1, 1, None)
        .wait()
        .unwrap();
    assert_eq!(outcome.tail, 4);
    assert_eq!(c.get_info("seg").unwrap().length, 4);
    // Watermark is queryable for the reconnect handshake.
    assert_eq!(c.setup_append("seg", w).unwrap(), 1);
    assert_eq!(c.setup_append("seg", WriterId::random()).unwrap(), -1);
    c.stop();
}

#[test]
fn handshake_fences_stale_append_sessions() {
    let c = basic_container();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();

    // First connection handshakes: fresh segment, session 1.
    let (watermark, s1) = c.handshake("seg", w).unwrap();
    assert_eq!(watermark, -1);
    c.append_sessioned("seg", Bytes::from_static(b"e0"), w, 0, 1, None, Some(s1))
        .wait()
        .unwrap();

    // The writer reconnects: the new handshake returns the now-durable
    // watermark and bumps the session, fencing the old connection out.
    let (watermark, s2) = c.handshake("seg", w).unwrap();
    assert_eq!(watermark, 0);
    assert!(s2 > s1);
    let err = c
        .append_sessioned("seg", Bytes::from_static(b"e1"), w, 1, 1, None, Some(s1))
        .wait()
        .unwrap_err();
    assert_eq!(err, SegmentError::WriterFenced);
    // The fenced block must not have advanced the watermark or the tail.
    assert_eq!(c.setup_append("seg", w).unwrap(), 0);
    assert_eq!(c.get_info("seg").unwrap().length, 2);

    // The current session (and unfenced callers) still append fine.
    c.append_sessioned("seg", Bytes::from_static(b"e1"), w, 1, 1, None, Some(s2))
        .wait()
        .unwrap();
    c.append("seg", Bytes::from_static(b"e2"), w, 2, 1, None)
        .wait()
        .unwrap();
    assert_eq!(c.get_info("seg").unwrap().length, 6);

    // Sessions are per writer: another writer's handshake starts at 1 and
    // is unaffected by w's reconnects.
    let other = WriterId::random();
    let (watermark, os) = c.handshake("seg", other).unwrap();
    assert_eq!((watermark, os), (-1, 1));
    c.stop();
}

#[test]
fn handshake_waits_out_the_writers_pending_appends() {
    // The barrier half of the handshake: the returned watermark must cover
    // every block the writer had in flight, even ones enqueued but not yet
    // durable when the reconnect lands — otherwise a resend could straddle
    // the watermark and partially re-apply (duplicates).
    let c = basic_container();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    let (_, s1) = c.handshake("seg", w).unwrap();
    // Pipeline a burst without waiting on any handle (still pending).
    let handles: Vec<_> = (0..32)
        .map(|i| {
            c.append_sessioned(
                "seg",
                Bytes::from(vec![b'x'; 8]),
                w,
                i as i64,
                1,
                None,
                Some(s1),
            )
        })
        .collect();
    // Reconnect immediately: the handshake must not return until event 31
    // is durable, so the watermark is complete.
    let (watermark, _) = c.handshake("seg", w).unwrap();
    assert_eq!(watermark, 31);
    for h in handles {
        h.wait().unwrap();
    }
    c.stop();
}

#[test]
fn conditional_appends_enforce_offsets() {
    let c = basic_container();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    c.append("seg", Bytes::from_static(b"abc"), w, 0, 1, Some(0))
        .wait()
        .unwrap();
    // Wrong expected offset fails.
    let err = c
        .append("seg", Bytes::from_static(b"xyz"), w, 1, 1, Some(0))
        .wait()
        .unwrap_err();
    assert!(matches!(err, SegmentError::ConditionalCheckFailed { .. }));
    // Right offset succeeds.
    c.append("seg", Bytes::from_static(b"xyz"), w, 2, 1, Some(3))
        .wait()
        .unwrap();
    c.stop();
}

#[test]
fn sealed_segment_rejects_appends_and_reports_end() {
    let c = basic_container();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    c.append("seg", Bytes::from_static(b"data"), w, 0, 1, None)
        .wait()
        .unwrap();
    let final_len = c.seal("seg").unwrap();
    assert_eq!(final_len, 4);
    let err = c
        .append("seg", Bytes::from_static(b"more"), w, 1, 1, None)
        .wait()
        .unwrap_err();
    assert_eq!(err, SegmentError::SegmentSealed);
    // Reading at the end of a sealed segment reports end_of_segment.
    let r = c.read("seg", 4, 10, None).unwrap();
    assert!(r.end_of_segment);
    c.stop();
}

#[test]
fn tail_reads_block_until_data_arrives() {
    let c = Arc::new(basic_container());
    c.create_segment("seg", false).unwrap();
    let reader = {
        let c = c.clone();
        std::thread::spawn(move || c.read("seg", 0, 100, Some(Duration::from_secs(5))).unwrap())
    };
    std::thread::sleep(Duration::from_millis(50));
    let w = WriterId::random();
    c.append("seg", Bytes::from_static(b"tail-event"), w, 0, 1, None)
        .wait()
        .unwrap();
    let r = reader.join().unwrap();
    assert_eq!(r.data.as_ref(), b"tail-event");
    c.stop();
}

#[test]
fn tail_read_times_out_quietly() {
    let c = basic_container();
    c.create_segment("seg", false).unwrap();
    let r = c
        .read("seg", 0, 100, Some(Duration::from_millis(30)))
        .unwrap();
    assert!(r.at_tail);
    assert!(r.data.is_empty());
    c.stop();
}

#[test]
fn truncate_moves_start_offset_and_rejects_old_reads() {
    let c = basic_container();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    c.append("seg", Bytes::from(vec![1u8; 100]), w, 0, 1, None)
        .wait()
        .unwrap();
    c.truncate("seg", 40).unwrap();
    let info = c.get_info("seg").unwrap();
    assert_eq!(info.start_offset, 40);
    assert_eq!(
        c.read("seg", 0, 10, None).unwrap_err(),
        SegmentError::OffsetTruncated { start_offset: 40 }
    );
    let r = c.read("seg", 40, 10, None).unwrap();
    assert_eq!(r.data.len(), 10);
    // Truncating beyond the tail fails.
    assert!(matches!(
        c.truncate("seg", 1000),
        Err(SegmentError::BeyondTail { .. })
    ));
    c.stop();
}

#[test]
fn delete_removes_segment() {
    let c = basic_container();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    c.append("seg", Bytes::from_static(b"x"), w, 0, 1, None)
        .wait()
        .unwrap();
    c.delete("seg").unwrap();
    assert_eq!(
        c.read("seg", 0, 1, None).unwrap_err(),
        SegmentError::NoSuchSegment
    );
    assert_eq!(c.get_info("seg").unwrap_err(), SegmentError::NoSuchSegment);
    // The name is reusable after deletion.
    c.create_segment("seg", false).unwrap();
    assert_eq!(c.get_info("seg").unwrap().length, 0);
    c.stop();
}

#[test]
fn create_twice_fails() {
    let c = basic_container();
    c.create_segment("seg", false).unwrap();
    assert_eq!(
        c.create_segment("seg", false).unwrap_err(),
        SegmentError::SegmentExists
    );
    c.stop();
}

#[test]
fn data_tiers_to_lts_and_wal_truncates() {
    let chunks = Arc::new(InMemoryChunkStorage::new());
    let wal = Arc::new(InMemoryLog::new());
    let c = start_container(wal.clone(), lts_over(chunks.clone()));
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    for i in 0..100 {
        c.append("seg", Bytes::from(vec![i as u8; 100]), w, i as i64, 1, None)
            .wait()
            .unwrap();
    }
    // Wait for the storage writer to tier everything and truncate the WAL.
    for _ in 0..500 {
        if c.unflushed_bytes() == 0 && c.retained_wal_frames() <= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(c.unflushed_bytes(), 0, "all data should reach LTS");
    assert!(!chunks.chunk_names().is_empty(), "chunks exist in LTS");
    assert!(
        c.retained_wal_frames() <= 2,
        "WAL should be truncated to ~the last checkpoint, got {}",
        c.retained_wal_frames()
    );
    c.stop();
}

#[test]
fn reads_are_served_from_lts_after_eviction() {
    // Tiny cache: data must flow to LTS and be re-fetched on read.
    let mut config = quick_config();
    config.cache = CacheConfig {
        block_size: 64,
        blocks_per_buffer: 8,
        max_buffers: 4,
    };
    config.cache_high_watermark = 0.5;
    let chunks = Arc::new(InMemoryChunkStorage::new());
    let c = SegmentContainer::start(
        ContainerId(0),
        Arc::new(InMemoryLog::new()),
        lts_over(chunks),
        Arc::new(SystemClock::new()),
        config,
    )
    .unwrap();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    let mut expected = Vec::new();
    for i in 0..60u8 {
        let payload = vec![i; 100];
        expected.extend_from_slice(&payload);
        c.append("seg", Bytes::from(payload), w, i as i64, 1, None)
            .wait()
            .unwrap();
    }
    // Let tiering catch up.
    for _ in 0..500 {
        if c.unflushed_bytes() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(c.unflushed_bytes(), 0);
    // Full read-back (mostly from LTS given the tiny cache).
    let mut got = Vec::new();
    let mut offset = 0u64;
    while got.len() < expected.len() {
        let r = c.read("seg", offset, 999, None).unwrap();
        assert!(!r.data.is_empty(), "unexpected empty read at {offset}");
        got.extend_from_slice(&r.data);
        offset += r.data.len() as u64;
    }
    assert_eq!(got, expected);
    c.stop();
}

#[test]
fn a_full_cache_evicts_the_least_recently_read_segment_and_no_more_than_it_must() {
    const KIB: usize = 1024;
    // 120 KiB of cache; above 60 KiB used, eviction frees down to 48 KiB.
    // Tiering runs by hand, so what is flushed (= evictable) is known.
    let mut config = quick_config();
    config.flush_interval = Duration::from_secs(3600);
    config.cache = CacheConfig {
        block_size: KIB,
        blocks_per_buffer: 16,
        max_buffers: 8,
    };
    config.cache_high_watermark = 0.5;
    let registry = pravega_common::metrics::MetricsRegistry::new();
    let recorder = RecordingChunkStorage::over(Arc::new(InMemoryChunkStorage::new()));
    let c = SegmentContainer::start_with_metrics(
        ContainerId(0),
        Arc::new(InMemoryLog::new()),
        lts_over(recorder.clone()),
        Arc::new(SystemClock::new()),
        config,
        &registry,
    )
    .unwrap();
    let w = WriterId::random();
    let append = |segment: &str, fill: u8, len: usize, event: i64| {
        c.append(segment, Bytes::from(vec![fill; len]), w, event, 1, None)
            .wait()
            .unwrap();
    };
    // `reread` is written first, so by age alone it would be the first to go.
    for (segment, fill) in [("reread", 1u8), ("passed", 2), ("tail", 3)] {
        c.create_segment(segment, false).unwrap();
        if segment != "tail" {
            append(segment, fill, 16 * KIB, 1);
        }
    }
    for _ in 0..100 {
        if c.unflushed_bytes() == 0 {
            break;
        }
        c.flush_once().unwrap();
    }
    assert_eq!(c.unflushed_bytes(), 0, "tiering did not finish");
    let hits = registry.counter("segmentstore.readindex.cache_hits");
    let misses = registry.counter("segmentstore.readindex.cache_misses");
    // Tiering read both segments out of the cache; read `reread` once more.
    let r = c.read("reread", 0, 16 * KIB, None).unwrap();
    assert_eq!(r.data.as_ref(), &[1u8; 16 * KIB][..]);
    assert_eq!(misses.get(), 0);
    recorder.reads.lock().unwrap().clear();

    // Unflushed appends fill the cache: 32 KiB + 4 x 8 KiB = 64 KiB crosses
    // the watermark, and 16 KiB must go to get back to 48.
    for i in 0..4 {
        append("tail", 3, 8 * KIB, i + 1);
    }

    // Exactly `passed` went: `reread` and the unflushed tail still hit, …
    let before = (hits.get(), misses.get());
    let r = c.read("reread", 0, 16 * KIB, None).unwrap();
    assert_eq!(r.data.as_ref(), &[1u8; 16 * KIB][..]);
    let r = c.read("tail", 0, 32 * KIB, None).unwrap();
    assert_eq!(r.data.as_ref(), &[3u8; 32 * KIB][..]);
    assert_eq!((hits.get(), misses.get()), (before.0 + 2, before.1));
    assert!(recorder.reads.lock().unwrap().is_empty());
    // … and `passed` comes from LTS, unharmed.
    let mut got = Vec::new();
    while got.len() < 16 * KIB {
        let r = c.read("passed", got.len() as u64, 16 * KIB, None).unwrap();
        assert!(!r.data.is_empty());
        got.extend_from_slice(&r.data);
    }
    assert_eq!(got, vec![2u8; 16 * KIB]);
    assert!(misses.get() > before.1, "`passed` was still in the cache");
    let reads = recorder.reads.lock().unwrap();
    assert!(reads
        .iter()
        .all(|(chunk, _, _)| chunk.starts_with("passed")));
    drop(reads);
    c.stop();
}

/// Chunk storage that refuses to materialize chunks of segments named
/// `pin*`: the pinned segment never flushes, so the WAL retains every frame
/// from its first append onward (truncation stops at the first unflushed
/// frame) — a deterministic window where tiered data still has its WAL
/// repair source.
#[derive(Debug)]
struct PinningChunkStorage {
    inner: Arc<InMemoryChunkStorage>,
}

impl pravega_lts::ChunkStorage for PinningChunkStorage {
    fn create(&self, name: &str) -> Result<(), pravega_lts::LtsError> {
        if name.starts_with("pin") {
            return Err(pravega_lts::LtsError::Unavailable);
        }
        self.inner.create(name)
    }
    fn write(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), pravega_lts::LtsError> {
        if name.starts_with("pin") {
            return Err(pravega_lts::LtsError::Unavailable);
        }
        self.inner.write(name, offset, data)
    }
    fn read(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, pravega_lts::LtsError> {
        self.inner.read(name, offset, len)
    }
    fn length(&self, name: &str) -> Result<u64, pravega_lts::LtsError> {
        self.inner.length(name)
    }
    fn seal(&self, name: &str) -> Result<(), pravega_lts::LtsError> {
        self.inner.seal(name)
    }
    fn delete(&self, name: &str) -> Result<(), pravega_lts::LtsError> {
        self.inner.delete(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn truncate(&self, name: &str, len: u64) -> Result<(), pravega_lts::LtsError> {
        self.inner.truncate(name, len)
    }
}

/// Chunk storage that records every read it serves, so a test can count
/// physical bytes fetched instead of timing them.
#[derive(Debug)]
struct RecordingChunkStorage {
    inner: Arc<dyn pravega_lts::ChunkStorage>,
    reads: std::sync::Mutex<Vec<(String, u64, usize)>>,
}

impl RecordingChunkStorage {
    fn over(inner: Arc<dyn pravega_lts::ChunkStorage>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            reads: std::sync::Mutex::new(Vec::new()),
        })
    }

    /// Asserts no physical byte was read twice; returns the bytes read.
    fn assert_each_byte_read_at_most_once(&self) -> u64 {
        let mut reads = self.reads.lock().unwrap().clone();
        reads.sort();
        for pair in reads.windows(2) {
            let ((chunk, at, len), (next_chunk, next_at, _)) = (&pair[0], &pair[1]);
            assert!(
                chunk != next_chunk || at + *len as u64 <= *next_at,
                "{chunk}: bytes at {next_at} fetched again after a read of {len} at {at}"
            );
        }
        reads.iter().map(|(_, _, len)| *len as u64).sum()
    }
}

impl pravega_lts::ChunkStorage for RecordingChunkStorage {
    fn create(&self, name: &str) -> Result<(), pravega_lts::LtsError> {
        self.inner.create(name)
    }
    fn write(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), pravega_lts::LtsError> {
        self.inner.write(name, offset, data)
    }
    fn read(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, pravega_lts::LtsError> {
        let data = self.inner.read(name, offset, len)?;
        self.reads
            .lock()
            .unwrap()
            .push((name.to_string(), offset, data.len()));
        Ok(data)
    }
    fn length(&self, name: &str) -> Result<u64, pravega_lts::LtsError> {
        self.inner.length(name)
    }
    fn seal(&self, name: &str) -> Result<(), pravega_lts::LtsError> {
        self.inner.seal(name)
    }
    fn delete(&self, name: &str) -> Result<(), pravega_lts::LtsError> {
        self.inner.delete(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn truncate(&self, name: &str, len: u64) -> Result<(), pravega_lts::LtsError> {
        self.inner.truncate(name, len)
    }
}

/// A container whose segment `seg` holds `expected`, tiered in blocks of
/// `block_bytes` and read by nobody yet: the container was restarted from
/// its checkpoint, so its cache is empty and every read goes to LTS.
struct ColdSegment {
    container: SegmentContainer,
    expected: Vec<u8>,
    mem: Arc<InMemoryChunkStorage>,
    recorder: Arc<RecordingChunkStorage>,
    registry: pravega_common::metrics::MetricsRegistry,
}

/// With `keep_wal`, a pinned segment that never flushes holds the WAL back
/// from truncating, so tiered data keeps its repair source.
fn cold_segment(block_bytes: usize, total_bytes: usize, keep_wal: bool) -> ColdSegment {
    let mem = Arc::new(InMemoryChunkStorage::new());
    let recorder = RecordingChunkStorage::over(if keep_wal {
        Arc::new(PinningChunkStorage { inner: mem.clone() })
    } else {
        mem.clone()
    });
    let registry = pravega_common::metrics::MetricsRegistry::new();
    let lts = ChunkedSegmentStorage::new(
        recorder.clone(),
        Arc::new(InMemoryMetadataStore::new()),
        ChunkedStorageConfig {
            max_chunk_bytes: 2 * 1024 * 1024,
        },
    )
    .with_metrics(&registry);
    // The test flushes by hand, so every block but a chunk's last is exactly
    // `block_bytes` long.
    let config = ContainerConfig {
        max_batch_delay: Duration::from_millis(1),
        flush_interval: Duration::from_secs(3600),
        max_flush_bytes: block_bytes,
        ..ContainerConfig::default()
    };
    let wal: Arc<dyn DurableDataLog> = Arc::new(InMemoryLog::new());
    let start = |wal: Arc<dyn DurableDataLog>| {
        SegmentContainer::start_with_metrics(
            ContainerId(0),
            wal,
            lts.clone(),
            Arc::new(SystemClock::new()),
            config.clone(),
            &registry,
        )
        .unwrap()
    };
    let c = start(wal.clone());
    let w = WriterId::random();
    let mut pinned = 0;
    if keep_wal {
        c.create_segment("pin", false).unwrap();
        c.append("pin", Bytes::from(vec![0xAA; 10]), w, 0, 1, None)
            .wait()
            .unwrap();
        pinned = 10;
    }
    c.create_segment("seg", false).unwrap();
    let expected: Vec<u8> = (0..total_bytes).map(|i| (i % 251) as u8).collect();
    for (i, piece) in expected.chunks(32 * 1024).enumerate() {
        c.append(
            "seg",
            Bytes::copy_from_slice(piece),
            w,
            i as i64 + 1,
            1,
            None,
        )
        .wait()
        .unwrap();
    }
    for _ in 0..1000 {
        if c.unflushed_bytes() == pinned {
            break;
        }
        // The pinned segment fails every pass; the others still flush.
        let _ = c.flush_once();
    }
    assert_eq!(c.unflushed_bytes(), pinned, "tiering did not finish");
    if keep_wal {
        c.checkpoint().unwrap();
    } else {
        // An idle pass checkpoints and truncates the WAL below it.
        c.flush_once().unwrap();
    }
    c.stop();
    let container = start(wal);
    recorder.reads.lock().unwrap().clear();
    ColdSegment {
        container,
        expected,
        mem,
        recorder,
        registry,
    }
}

#[test]
fn cold_sequential_read_fetches_every_lts_byte_once() {
    const KIB: usize = 1024;
    for (block, request) in [
        (1024 * KIB, 64 * KIB),
        (1024 * KIB, 256 * KIB),
        (90 * KIB, 256 * KIB),
    ] {
        let cold = cold_segment(block, 3 * 1024 * KIB + 300 * KIB, false);
        let c = &cold.container;
        let mut got = Vec::new();
        while got.len() < cold.expected.len() {
            let r = c.read("seg", got.len() as u64, request, None).unwrap();
            assert!(!r.data.is_empty(), "empty read at {}", got.len());
            assert!(
                r.data.len() <= request,
                "{} bytes answer a read of at most {request}",
                r.data.len()
            );
            got.extend_from_slice(&r.data);
        }
        assert_eq!(got, cold.expected, "block {block} request {request}");
        let fetched = cold.recorder.assert_each_byte_read_at_most_once();
        let physical: u64 = cold
            .mem
            .chunk_names()
            .iter()
            .map(|name| pravega_lts::ChunkStorage::length(&*cold.mem, name).unwrap())
            .sum();
        assert!(
            fetched <= physical,
            "{fetched} fetched of {physical} stored"
        );
        // The same, as the registry tells it: physical bytes fetched per
        // logical byte LTS handed up.
        let snap = cold.registry.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        assert_eq!(counter("lts.chunked.fetched_bytes") as u64, fetched);
        assert_eq!(
            counter("lts.chunked.read_bytes") as usize,
            cold.expected.len()
        );
        let ratio = counter("lts.chunked.fetched_bytes") / counter("lts.chunked.read_bytes");
        assert!(ratio <= 1.1, "fetched {ratio:.3} bytes per byte returned");
        assert!(counter("lts.chunked.blocks_verified") >= (cold.expected.len() / block) as f64);
        c.stop();
    }
}

#[test]
fn corrupt_block_in_a_fetched_span_leaves_nothing_of_the_span_in_the_cache() {
    const KIB: usize = 1024;
    let (block, request) = (90 * KIB, 256 * KIB);
    // The rot sits in the second of the three blocks a read at 0 touches.
    let rot_at = (8 + block + 4 + 10) as u64;

    // No repair source: the read fails typed, again and again, and never
    // from the cache — not even the span's first block, which verified.
    let cold = cold_segment(block, 600 * KIB, false);
    let chunk = cold.mem.chunk_names()[0].clone();
    assert!(cold.mem.flip_bit(&chunk, rot_at, 0x10));
    // (Tiering read the cache too; count from here.)
    let hits = cold.registry.counter("segmentstore.readindex.cache_hits");
    let misses = cold.registry.counter("segmentstore.readindex.cache_misses");
    let (hits_before, misses_before) = (hits.get(), misses.get());
    for _ in 0..2 {
        match cold.container.read("seg", 0, request, None) {
            Err(SegmentError::Lts(pravega_lts::LtsError::DataLoss { .. })) => {}
            other => panic!("expected typed data loss, got {other:?}"),
        }
    }
    assert_eq!(hits.get(), hits_before);
    assert_eq!(misses.get(), misses_before + 2);
    assert_eq!(cold.container.lts_storage().quarantined_chunks().len(), 1);
    cold.container.stop();

    // With the WAL retained the chunk is rebuilt, the fetch retried, and the
    // whole segment reads back right, surplus and all.
    let cold = cold_segment(block, 600 * KIB, true);
    let chunk = cold
        .mem
        .chunk_names()
        .into_iter()
        .find(|name| name.starts_with("seg"))
        .unwrap();
    assert!(cold.mem.flip_bit(&chunk, rot_at, 0x10));
    let mut got = Vec::new();
    while got.len() < cold.expected.len() {
        let r = cold
            .container
            .read("seg", got.len() as u64, request, None)
            .unwrap();
        assert!(!r.data.is_empty() && r.data.len() <= request);
        got.extend_from_slice(&r.data);
    }
    assert_eq!(got, cold.expected);
    assert!(cold.container.lts_storage().quarantined_chunks().is_empty());
    cold.container.stop();
}

#[test]
fn corrupt_lts_chunk_is_repaired_from_retained_wal_on_read() {
    // Tiny cache (reads must go to LTS); the pinned segment keeps the WAL
    // from truncating past its first frame, so every acked op stays
    // retained — the repair source.
    let mut config = quick_config();
    config.cache = CacheConfig {
        block_size: 64,
        blocks_per_buffer: 8,
        max_buffers: 4,
    };
    config.cache_high_watermark = 0.5;
    let chunks = Arc::new(InMemoryChunkStorage::new());
    let c = SegmentContainer::start(
        ContainerId(0),
        Arc::new(InMemoryLog::new()),
        lts_over(Arc::new(PinningChunkStorage {
            inner: chunks.clone(),
        })),
        Arc::new(SystemClock::new()),
        config,
    )
    .unwrap();
    let w = WriterId::random();
    // The pin append rides in the earliest WAL frame: truncation can never
    // advance past it.
    c.create_segment("pin", false).unwrap();
    c.append("pin", Bytes::from(vec![0xAA; 10]), w, 0, 1, None)
        .wait()
        .unwrap();
    c.create_segment("seg", false).unwrap();
    let mut expected = Vec::new();
    for i in 0..60u8 {
        let payload = vec![i; 100];
        expected.extend_from_slice(&payload);
        c.append("seg", Bytes::from(payload), w, i as i64 + 1, 1, None)
            .wait()
            .unwrap();
    }
    // Wait until everything except the pinned append has tiered.
    for _ in 0..500 {
        if c.unflushed_bytes() <= 10 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(c.unflushed_bytes(), 10, "only the pinned append may remain");
    // Silently rot every stored chunk: one flipped bit each, inside the
    // first block's payload.
    let names = chunks.chunk_names();
    assert!(!names.is_empty());
    for name in &names {
        assert!(chunks.flip_bit(name, 10, 0x04));
    }
    // Every read must return exactly the acked bytes: LTS fetches detect
    // the rot, rebuild the chunk from the retained WAL, and retry. A read
    // that returned garbage (or a DataLoss error) fails the test.
    let mut got = Vec::new();
    let mut offset = 0u64;
    while got.len() < expected.len() {
        let r = c.read("seg", offset, 999, None).unwrap();
        assert!(!r.data.is_empty(), "unexpected empty read at {offset}");
        got.extend_from_slice(&r.data);
        offset += r.data.len() as u64;
    }
    assert_eq!(got, expected);
    // Repair lifts the quarantine; nothing stays fenced off.
    assert!(c.lts_storage().quarantined_chunks().is_empty());
    c.stop();
}

#[test]
fn corrupt_chunk_beyond_wal_retention_is_typed_data_loss_never_garbage() {
    // Normal checkpointing: the WAL truncates once data tiers, so a rotten
    // chunk has no repair source left.
    let mut config = quick_config();
    config.cache = CacheConfig {
        block_size: 64,
        blocks_per_buffer: 8,
        max_buffers: 4,
    };
    config.cache_high_watermark = 0.5;
    let chunks = Arc::new(InMemoryChunkStorage::new());
    let c = SegmentContainer::start(
        ContainerId(0),
        Arc::new(InMemoryLog::new()),
        lts_over(chunks.clone()),
        Arc::new(SystemClock::new()),
        config,
    )
    .unwrap();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    let mut expected = Vec::new();
    for i in 0..100u8 {
        let payload = vec![i; 100];
        expected.extend_from_slice(&payload);
        c.append("seg", Bytes::from(payload), w, i as i64, 1, None)
            .wait()
            .unwrap();
    }
    for _ in 0..500 {
        if c.unflushed_bytes() == 0 && c.retained_wal_frames() <= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(c.unflushed_bytes(), 0);
    for name in chunks.chunk_names() {
        assert!(chunks.flip_bit(&name, 10, 0x04));
    }
    // The integrity contract: every read returns either exactly the acked
    // bytes (cache) or a typed DataLoss error (unrepairable LTS rot) —
    // never silently wrong bytes, never a panic.
    let mut got = Vec::new();
    let mut offset = 0u64;
    let mut saw_data_loss = false;
    while got.len() < expected.len() {
        match c.read("seg", offset, 999, None) {
            Ok(r) => {
                assert!(!r.data.is_empty(), "unexpected empty read at {offset}");
                assert_eq!(
                    r.data.as_ref(),
                    &expected[offset as usize..offset as usize + r.data.len()],
                    "read returned bytes differing from what was acked"
                );
                got.extend_from_slice(&r.data);
                offset += r.data.len() as u64;
            }
            Err(SegmentError::Lts(pravega_lts::LtsError::DataLoss { .. })) => {
                saw_data_loss = true;
                break;
            }
            Err(e) => panic!("expected DataLoss or correct bytes, got {e:?}"),
        }
    }
    assert!(
        saw_data_loss || got == expected,
        "reads must end in typed data loss or return every acked byte"
    );
    c.stop();
}

#[test]
fn container_recovers_from_wal_after_crash() {
    let wal = Arc::new(InMemoryLog::new());
    let chunks = Arc::new(InMemoryChunkStorage::new());
    let meta = Arc::new(InMemoryMetadataStore::new());
    let lts = ChunkedSegmentStorage::new(
        chunks.clone(),
        meta.clone(),
        ChunkedStorageConfig {
            max_chunk_bytes: 1024,
        },
    );
    let w = WriterId::random();
    {
        let c = start_container(wal.clone(), lts.clone());
        c.create_segment("seg", false).unwrap();
        for i in 0..20 {
            c.append(
                "seg",
                Bytes::from(format!("ev{i:02}")),
                w,
                i as i64,
                1,
                None,
            )
            .wait()
            .unwrap();
        }
        c.seal("seg").unwrap();
        // Simulate a crash: drop without stopping cleanly (stop() is called
        // by Drop, but WAL content remains — recovery path reads it).
    }
    let c = start_container(wal, lts);
    let info = c.get_info("seg").unwrap();
    assert_eq!(info.length, 80);
    assert!(info.sealed);
    // Writer watermark survived (exactly-once across recovery).
    assert_eq!(c.setup_append("seg", w).unwrap(), 19);
    // All data readable after recovery.
    let mut got = Vec::new();
    let mut offset = 0u64;
    while (got.len() as u64) < info.length {
        let r = c.read("seg", offset, 1000, None).unwrap();
        assert!(!r.data.is_empty());
        got.extend_from_slice(&r.data);
        offset += r.data.len() as u64;
    }
    assert_eq!(&got[0..4], b"ev00");
    assert_eq!(&got[76..80], b"ev19");
    c.stop();
}

#[test]
fn recovery_after_tiering_and_truncation_keeps_all_data() {
    let wal = Arc::new(InMemoryLog::new());
    let chunks = Arc::new(InMemoryChunkStorage::new());
    let meta = Arc::new(InMemoryMetadataStore::new());
    let lts = ChunkedSegmentStorage::new(
        chunks,
        meta,
        ChunkedStorageConfig {
            max_chunk_bytes: 512,
        },
    );
    let w = WriterId::random();
    let mut expected = Vec::new();
    {
        let c = start_container(wal.clone(), lts.clone());
        c.create_segment("seg", false).unwrap();
        for i in 0..50u8 {
            let payload = vec![i; 50];
            expected.extend_from_slice(&payload);
            c.append("seg", Bytes::from(payload), w, i as i64, 1, None)
                .wait()
                .unwrap();
        }
        // Ensure at least one flush + checkpoint + truncation happened.
        for _ in 0..500 {
            if c.unflushed_bytes() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Write a bit more that may not be flushed before the "crash".
        for i in 50..60u8 {
            let payload = vec![i; 50];
            expected.extend_from_slice(&payload);
            c.append("seg", Bytes::from(payload), w, i as i64, 1, None)
                .wait()
                .unwrap();
        }
    }
    let c = start_container(wal, lts);
    let info = c.get_info("seg").unwrap();
    assert_eq!(info.length, expected.len() as u64);
    let mut got = Vec::new();
    let mut offset = 0u64;
    while got.len() < expected.len() {
        let r = c.read("seg", offset, 4096, None).unwrap();
        assert!(!r.data.is_empty());
        got.extend_from_slice(&r.data);
        offset += r.data.len() as u64;
    }
    assert_eq!(got, expected);
    c.stop();
}

#[test]
fn table_segment_conditional_updates() {
    let c = basic_container();
    c.create_segment("tbl", true).unwrap();
    let versions = c
        .table_update(
            "tbl",
            vec![
                (
                    Bytes::from_static(b"k1"),
                    Bytes::from_static(b"v1"),
                    Some(-1),
                ),
                (
                    Bytes::from_static(b"k2"),
                    Bytes::from_static(b"v2"),
                    Some(-1),
                ),
            ],
        )
        .unwrap();
    assert_eq!(versions.len(), 2);
    // Conditional re-insert fails.
    assert_eq!(
        c.table_update(
            "tbl",
            vec![(
                Bytes::from_static(b"k1"),
                Bytes::from_static(b"v1b"),
                Some(-1)
            )],
        )
        .unwrap_err(),
        SegmentError::TableKeyBadVersion
    );
    // Replace with the right version succeeds.
    let v1 = versions[0];
    c.table_update(
        "tbl",
        vec![(
            Bytes::from_static(b"k1"),
            Bytes::from_static(b"v1-new"),
            Some(v1),
        )],
    )
    .unwrap();
    let values = c
        .table_get(
            "tbl",
            &[Bytes::from_static(b"k1"), Bytes::from_static(b"nope")],
        )
        .unwrap();
    assert_eq!(values[0].as_ref().unwrap().0.as_ref(), b"v1-new");
    assert!(values[1].is_none());
    // Remove with wrong version fails; right version succeeds.
    assert_eq!(
        c.table_remove("tbl", vec![(Bytes::from_static(b"k2"), Some(999))])
            .unwrap_err(),
        SegmentError::TableKeyBadVersion
    );
    c.table_remove("tbl", vec![(Bytes::from_static(b"k2"), Some(versions[1]))])
        .unwrap();
    assert!(c.table_get("tbl", &[Bytes::from_static(b"k2")]).unwrap()[0].is_none());
    c.stop();
}

#[test]
fn table_state_survives_recovery() {
    let wal = Arc::new(InMemoryLog::new());
    let lts = lts_over(Arc::new(InMemoryChunkStorage::new()));
    {
        let c = start_container(wal.clone(), lts.clone());
        c.create_segment("tbl", true).unwrap();
        for i in 0..20 {
            c.table_update(
                "tbl",
                vec![(
                    Bytes::from(format!("key-{i:02}")),
                    Bytes::from(format!("value-{i}")),
                    None,
                )],
            )
            .unwrap();
        }
        c.checkpoint().unwrap();
        // More updates after the checkpoint.
        c.table_update(
            "tbl",
            vec![(
                Bytes::from_static(b"key-05"),
                Bytes::from_static(b"updated"),
                None,
            )],
        )
        .unwrap();
    }
    let c = start_container(wal, lts);
    let values = c
        .table_get(
            "tbl",
            &[Bytes::from_static(b"key-05"), Bytes::from_static(b"key-19")],
        )
        .unwrap();
    assert_eq!(values[0].as_ref().unwrap().0.as_ref(), b"updated");
    assert_eq!(values[1].as_ref().unwrap().0.as_ref(), b"value-19");
    let (all, _) = c.table_iterate("tbl", None, 100).unwrap();
    assert_eq!(all.len(), 20);
    c.stop();
}

#[test]
fn event_segment_rejects_table_ops_and_vice_versa() {
    let c = basic_container();
    c.create_segment("events", false).unwrap();
    assert_eq!(
        c.table_get("events", &[Bytes::from_static(b"k")])
            .unwrap_err(),
        SegmentError::NotATable
    );
    assert_eq!(
        c.table_update(
            "events",
            vec![(Bytes::from_static(b"k"), Bytes::from_static(b"v"), None)]
        )
        .unwrap_err(),
        SegmentError::NotATable
    );
    c.stop();
}

/// Every modifying verb (and the checkpoint write) takes its sequence number
/// and its place in the WAL queue in one step: under contention from four
/// threads the WAL must replay gap-free, in strictly increasing sequence
/// order, with each segment's appends laid end to end — and recovery over
/// that WAL must land on the same segments.
#[test]
fn concurrent_verbs_share_one_gap_free_sequence() {
    use pravega_segmentstore::dataframe::decode_frame;
    use pravega_segmentstore::operations::Operation;
    use std::collections::HashMap;

    const THREADS: usize = 4;
    const ROUNDS: usize = 40;
    let wal = Arc::new(InMemoryLog::new());
    let lts = lts_over(Arc::new(InMemoryChunkStorage::new()));
    let config = ContainerConfig {
        // No background flush pass, so no checkpoint or WAL truncation
        // beyond the ones this test issues: the WAL keeps every operation.
        flush_interval: Duration::from_secs(3600),
        ..quick_config()
    };
    let c = SegmentContainer::start(
        ContainerId(0),
        wal.clone(),
        lts.clone(),
        Arc::new(SystemClock::new()),
        config,
    )
    .unwrap();
    c.create_segment("shared", false).unwrap();
    let start = std::sync::Barrier::new(THREADS);
    let sequenced: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (c, start) = (&c, &start);
                scope.spawn(move || {
                    let (own, table, temp) = (
                        format!("own-{t}"),
                        format!("table-{t}"),
                        format!("temp-{t}"),
                    );
                    let w = WriterId::random();
                    start.wait();
                    c.create_segment(&own, false).unwrap();
                    c.create_segment(&table, true).unwrap();
                    let mut ops = 2;
                    for i in 0..ROUNDS {
                        let n = i as i64;
                        let pending = c.append(&own, Bytes::from(vec![t as u8; 10]), w, n, 1, None);
                        c.append("shared", Bytes::from(vec![t as u8; 7]), w, n, 1, None)
                            .wait()
                            .unwrap();
                        pending.wait().unwrap();
                        let key = Bytes::from(format!("k{}", i % 5));
                        c.table_update(&table, vec![(key.clone(), Bytes::from_static(b"v"), None)])
                            .unwrap();
                        ops += 3;
                        if i % 8 == 0 {
                            c.table_remove(&table, vec![(key, None)]).unwrap();
                            c.truncate(&own, 5).unwrap();
                            c.create_segment(&temp, false).unwrap();
                            c.delete(&temp).unwrap();
                            c.checkpoint().unwrap();
                            ops += 5;
                        }
                    }
                    c.seal(&own).unwrap();
                    ops + 1
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let info_of = |c: &SegmentContainer| -> Vec<_> {
        c.segment_names()
            .iter()
            .map(|name| {
                let i = c.get_info(name).unwrap();
                (i.name, i.length, i.start_offset, i.sealed, i.is_table)
            })
            .collect()
    };
    let before = info_of(&c);
    assert_eq!(before.len(), 1 + 2 * THREADS);
    c.stop();

    let mut replayed = Vec::new();
    for (_, frame) in wal.read_after(None).unwrap() {
        replayed.extend(decode_frame(&frame).unwrap());
    }
    assert_eq!(
        replayed.len(),
        1 + sequenced,
        "one WAL record per sequenced op"
    );
    let mut tails: HashMap<&str, u64> = HashMap::new();
    for (i, (seq, op)) in replayed.iter().enumerate() {
        assert_eq!(
            *seq,
            replayed[0].0 + i as u64,
            "gap or reorder at WAL position {i}"
        );
        if let Operation::Append {
            segment,
            offset,
            data,
            ..
        } = op
        {
            let tail = tails.entry(segment).or_insert(0);
            assert_eq!(
                offset, tail,
                "append to {segment} out of place at seq {seq}"
            );
            *tail += data.len() as u64;
        }
    }

    let recovered = start_container(wal, lts);
    assert_eq!(info_of(&recovered), before);
    recovered.stop();
}

#[test]
fn slow_lts_throttles_writers() {
    // LTS slower than the offered load, and a small throttle threshold:
    // appends must block rather than grow the backlog unboundedly (§4.3).
    let slow = ThrottledChunkStorage::new(
        InMemoryChunkStorage::new(),
        ThrottleModel {
            bandwidth_bytes_per_sec: 50_000, // 50 KB/s
            per_op_latency: Duration::from_millis(1),
        },
    );
    let mut config = quick_config();
    config.throttle_threshold_bytes = 20_000;
    // A hard-limit ratio of 1.0 leaves no soft zone and holds the hard
    // bound: no append is admitted while the backlog is above the threshold
    // (a soft zone trades this bound for smooth latency; see the test below).
    config.throttle_hard_limit_ratio = 1.0;
    let c = SegmentContainer::start(
        ContainerId(0),
        Arc::new(InMemoryLog::new()),
        lts_over(Arc::new(slow)),
        Arc::new(SystemClock::new()),
        config,
    )
    .unwrap();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    // Offer ~100 KB as fast as possible.
    for i in 0..100 {
        c.append("seg", Bytes::from(vec![0u8; 1000]), w, i as i64, 1, None)
            .wait()
            .unwrap();
        // The backlog must never exceed threshold + one append burst.
        assert!(
            c.unflushed_bytes() <= 20_000 + 2_000,
            "backlog exploded: {}",
            c.unflushed_bytes()
        );
    }
    c.stop();
}

#[test]
fn gradual_throttle_bounds_backlog_and_releases_promptly() {
    // The soft zone admits appends with a delay that grows with the
    // backlog: the backlog must stay below the hard limit
    // (plus one append burst), and once the backlog drains an append must
    // go through with no residual throttle delay.
    let slow = ThrottledChunkStorage::new(
        InMemoryChunkStorage::new(),
        ThrottleModel {
            bandwidth_bytes_per_sec: 50_000, // 50 KB/s
            per_op_latency: Duration::from_millis(1),
        },
    );
    let mut config = quick_config();
    config.throttle_threshold_bytes = 20_000;
    config.throttle_hard_limit_ratio = 2.0;
    let hard_limit = 40_000u64;
    let c = SegmentContainer::start(
        ContainerId(0),
        Arc::new(InMemoryLog::new()),
        lts_over(Arc::new(slow)),
        Arc::new(SystemClock::new()),
        config,
    )
    .unwrap();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    for i in 0..100 {
        c.append("seg", Bytes::from(vec![0u8; 1000]), w, i as i64, 1, None)
            .wait()
            .unwrap();
        assert!(
            c.unflushed_bytes() <= hard_limit + 2_000,
            "backlog exceeded the hard limit: {}",
            c.unflushed_bytes()
        );
    }
    // Let the backlog drain fully...
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while c.unflushed_bytes() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "backlog never drained: {}",
            c.unflushed_bytes()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...then the very next append must be admitted without throttle delay:
    // gradual engagement is a function of the *current* backlog, never a
    // lingering penalty.
    let start = std::time::Instant::now();
    c.append("seg", Bytes::from(vec![0u8; 100]), w, 100, 1, None)
        .wait()
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_millis(250),
        "append after drain took {:?}",
        start.elapsed()
    );
    c.stop();
}

/// A WAL whose `truncate` blocks until the test opens a gate — used to prove
/// that a stalled WAL truncation cannot stall the flush path.
#[derive(Debug)]
struct GatedTruncateLog {
    inner: InMemoryLog,
    gate_open: std::sync::atomic::AtomicBool,
    truncate_entered: std::sync::atomic::AtomicBool,
}

impl GatedTruncateLog {
    fn new() -> Self {
        Self {
            inner: InMemoryLog::new(),
            gate_open: std::sync::atomic::AtomicBool::new(false),
            truncate_entered: std::sync::atomic::AtomicBool::new(false),
        }
    }
}

impl DurableDataLog for GatedTruncateLog {
    fn append(&self, data: Bytes) -> pravega_wal::log::AppendFuture {
        self.inner.append(data)
    }

    fn read_after(
        &self,
        from: Option<pravega_wal::log::LogAddress>,
    ) -> Result<Vec<(pravega_wal::log::LogAddress, Bytes)>, pravega_wal::WalError> {
        self.inner.read_after(from)
    }

    fn truncate(&self, up_to: pravega_wal::log::LogAddress) -> Result<(), pravega_wal::WalError> {
        use std::sync::atomic::Ordering;
        self.truncate_entered.store(true, Ordering::Release);
        // Park until the test opens the gate; bail out after a generous
        // timeout so a regression fails the test instead of hanging it.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !self.gate_open.load(Ordering::Acquire) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.truncate(up_to)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn is_fenced(&self) -> bool {
        self.inner.is_fenced()
    }
}

#[test]
fn stalled_wal_truncation_does_not_block_flushing() {
    use std::sync::atomic::Ordering;
    let log = Arc::new(GatedTruncateLog::new());
    let mut config = quick_config();
    // Checkpoint eagerly so the truncator engages (and blocks on the gate)
    // early in the run.
    config.checkpoint_interval_ops = 5;
    let c = SegmentContainer::start(
        ContainerId(0),
        log.clone(),
        lts_over(Arc::new(InMemoryChunkStorage::new())),
        Arc::new(SystemClock::new()),
        config,
    )
    .unwrap();
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    for i in 0..20 {
        c.append("seg", Bytes::from(vec![0u8; 500]), w, i as i64, 1, None)
            .wait()
            .unwrap();
    }
    // Wait until the truncator thread is wedged inside the gated truncate.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !log.truncate_entered.load(Ordering::Acquire) {
        assert!(
            std::time::Instant::now() < deadline,
            "truncator never attempted a WAL truncation"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // With the truncation stalled, appends and flush passes must proceed:
    // new data keeps reaching LTS and the backlog drains to zero.
    for i in 20..60 {
        c.append("seg", Bytes::from(vec![0u8; 500]), w, i as i64, 1, None)
            .wait()
            .unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while c.unflushed_bytes() > 0 {
        assert!(
            !log.gate_open.load(Ordering::Acquire),
            "gate must stay closed while proving the flush path is free"
        );
        assert!(
            std::time::Instant::now() < deadline,
            "flush path stalled behind the blocked WAL truncation: {} bytes unflushed",
            c.unflushed_bytes()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Release the truncator before teardown so stop() can join it.
    log.gate_open.store(true, Ordering::Release);
    c.stop();
}

#[test]
fn load_report_tracks_append_rates() {
    let c = basic_container();
    c.create_segment("hot", false).unwrap();
    c.create_segment("cold", false).unwrap();
    let w = WriterId::random();
    for i in 0..200 {
        c.append("hot", Bytes::from(vec![0u8; 100]), w, i as i64, 1, None)
            .wait()
            .unwrap();
    }
    let report = c.load_report();
    let hot = report.iter().find(|l| l.segment == "hot").unwrap();
    assert!(hot.events_per_sec > 0.0);
    assert!(hot.bytes_per_sec > 0.0);
    assert!(report.iter().all(|l| l.segment != "cold"));
    c.stop();
}

#[test]
fn wal_failure_stops_container() {
    let wal = Arc::new(InMemoryLog::new());
    let c = start_container(wal.clone(), lts_over(Arc::new(InMemoryChunkStorage::new())));
    c.create_segment("seg", false).unwrap();
    let w = WriterId::random();
    c.append("seg", Bytes::from_static(b"ok"), w, 0, 1, None)
        .wait()
        .unwrap();
    // Fence the WAL (as a new container owner would): the container must
    // detect the failure and shut down (§4.4).
    wal.fence();
    let _ = c
        .append("seg", Bytes::from_static(b"fail"), w, 1, 1, None)
        .wait();
    for _ in 0..200 {
        if c.is_stopped() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(c.is_stopped());
    assert_eq!(
        c.create_segment("another", false).unwrap_err(),
        SegmentError::ContainerStopped
    );
}

#[test]
fn frame_batching_multiplexes_many_segments() {
    let c = basic_container();
    for i in 0..20 {
        c.create_segment(&format!("seg-{i}"), false).unwrap();
    }
    let w = WriterId::random();
    let handles: Vec<_> = (0..20)
        .flat_map(|i| (0..10).map(move |j| (i, j)))
        .map(|(i, j)| {
            c.append(
                &format!("seg-{i}"),
                Bytes::from(vec![0u8; 50]),
                w,
                j as i64,
                1,
                None,
            )
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    // 200 appends across 20 segments share one WAL: far fewer frames.
    let frames = c.frame_sizes();
    assert!(frames.count() < 200, "multiplexing should batch frames");
    assert!(frames.count() > 0);
    c.stop();
}

//! Background integrity scrubber: walks every chunk of every segment,
//! verifying blocks and footers against the checksums recorded at ack time.
//!
//! Scrubbing is *paced* with a token bucket (one token per physical byte
//! scanned) rather than run at full tilt: burst background I/O is exactly
//! the kind of maintenance work that wrecks tail latency, so the scrubber
//! trickles along at a configured rate and p999 stays flat. Tests bypass
//! the pacing with [`Scrubber::scrub_now`].
//!
//! A corrupt chunk is quarantined by the storage layer; the scrubber then
//! asks its [`RepairSource`] (wired by the cluster to still-retained
//! WAL/cache data) for the chunk's true bytes and repairs in place when a
//! healthy copy exists. Chunks with no healthy copy stay quarantined —
//! readers get a typed error, never garbage.

use pravega_sync::JoinHandle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pravega_common::clock::{Clock, SystemClock};
use pravega_common::metrics::{Counter, MetricsRegistry};
use pravega_common::rate::TokenBucket;
use pravega_common::stall::sleep_interruptible;

use crate::error::LtsError;
use crate::segment::ChunkedSegmentStorage;

/// Supplies known-good chunk bytes for repair: given
/// `(segment, chunk, start_offset, logical_len)`, returns the chunk's
/// complete logical contents if a healthy copy is still retained somewhere
/// (WAL frames, cache), or `None`. Returned bytes are re-verified against
/// the acked checksums before being written, so a buggy source cannot
/// launder wrong bytes into storage.
pub type RepairSource = Arc<dyn Fn(&str, &str, u64, u64) -> Option<Vec<u8>> + Send + Sync>;

/// Pacing and scheduling knobs for the background scrubber.
#[derive(Debug, Clone, Copy)]
pub struct ScrubConfig {
    /// Sustained scan rate (physical bytes per second).
    pub bytes_per_sec: f64,
    /// Burst allowance in bytes.
    pub burst_bytes: f64,
    /// Idle time between full passes.
    pub pass_interval: Duration,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        Self {
            bytes_per_sec: 8.0 * 1024.0 * 1024.0,
            burst_bytes: 1024.0 * 1024.0,
            pass_interval: Duration::from_secs(1),
        }
    }
}

/// What one scrub pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Chunks examined this pass.
    pub chunks_scanned: u64,
    /// Physical bytes verified this pass.
    pub bytes_scanned: u64,
    /// Chunks that failed verification this pass.
    pub corruption_detected: u64,
    /// Corrupt chunks restored from a healthy retained copy.
    pub repaired: u64,
    /// Corrupt chunks left quarantined (no healthy copy available).
    pub quarantined: u64,
}

#[derive(Debug, Clone)]
struct ScrubMetrics {
    chunks_scanned: Arc<Counter>,
    corruption_detected: Arc<Counter>,
    repaired: Arc<Counter>,
    quarantined: Arc<Counter>,
}

impl ScrubMetrics {
    fn new(metrics: &MetricsRegistry) -> Self {
        Self {
            chunks_scanned: metrics.counter("lts.scrub.chunks_scanned"),
            corruption_detected: metrics.counter("lts.scrub.corruption_detected"),
            repaired: metrics.counter("lts.scrub.repaired"),
            quarantined: metrics.counter("lts.scrub.quarantined"),
        }
    }
}

/// The per-store scrubber. Create one per [`ChunkedSegmentStorage`], then
/// either call [`Scrubber::scrub_now`] from tests or [`Scrubber::start`] to
/// run paced passes on a background thread.
pub struct Scrubber {
    storage: ChunkedSegmentStorage,
    config: ScrubConfig,
    clock: Arc<dyn Clock>,
    metrics: ScrubMetrics,
    repair: Option<RepairSource>,
}

impl std::fmt::Debug for Scrubber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scrubber")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Scrubber {
    /// Creates a scrubber over `storage`, registering its `lts.scrub.*`
    /// instruments in `metrics`.
    pub fn new(
        storage: ChunkedSegmentStorage,
        config: ScrubConfig,
        metrics: &MetricsRegistry,
    ) -> Self {
        Self {
            storage,
            config,
            clock: Arc::new(SystemClock::new()),
            metrics: ScrubMetrics::new(metrics),
            repair: None,
        }
    }

    /// Wires the repair source consulted when a corrupt chunk is found.
    #[must_use]
    pub fn with_repair(mut self, repair: RepairSource) -> Self {
        self.repair = Some(repair);
        self
    }

    /// One full unpaced pass — the test hook. Detection and repair behave
    /// exactly as in the background pass; only the token-bucket waits are
    /// skipped.
    pub fn scrub_now(&self) -> ScrubReport {
        let never = AtomicBool::new(false);
        self.pass(None, &never)
    }

    /// One pass over every chunk of every segment. `bucket` paces by bytes
    /// scanned when present; `stop` aborts the pass early.
    fn pass(&self, mut bucket: Option<&mut TokenBucket>, stop: &AtomicBool) -> ScrubReport {
        let mut report = ScrubReport::default();
        for segment in self.storage.segment_names() {
            let Ok(chunks) = self.storage.chunk_names(&segment) else {
                continue; // deleted mid-pass
            };
            for (chunk, start, len) in chunks {
                if stop.load(Ordering::Acquire) {
                    return report;
                }
                match self.storage.verify_chunk(&segment, &chunk) {
                    Ok(scanned) => {
                        report.chunks_scanned += 1;
                        report.bytes_scanned += scanned;
                        self.metrics.chunks_scanned.inc();
                        if let Some(bucket) = bucket.as_deref_mut() {
                            let wait = bucket.take_and_wait(scanned as f64, self.clock.now_nanos());
                            sleep_interruptible(wait, stop);
                        }
                    }
                    Err(LtsError::ChecksumMismatch { .. }) => {
                        report.chunks_scanned += 1;
                        report.corruption_detected += 1;
                        self.metrics.chunks_scanned.inc();
                        self.metrics.corruption_detected.inc();
                        if self.try_repair(&segment, &chunk, start, len) {
                            report.repaired += 1;
                            self.metrics.repaired.inc();
                        } else {
                            report.quarantined += 1;
                            self.metrics.quarantined.inc();
                        }
                    }
                    // Segment/chunk deleted mid-pass or backend transiently
                    // unavailable: skip, the next pass will revisit.
                    Err(_) => {}
                }
            }
        }
        report
    }

    fn try_repair(&self, segment: &str, chunk: &str, start: u64, len: u64) -> bool {
        let Some(repair) = &self.repair else {
            return false;
        };
        let Some(bytes) = repair(segment, chunk, start, len) else {
            return false;
        };
        self.storage.repair_chunk(segment, chunk, &bytes).is_ok()
    }

    /// Starts the paced background loop. The scrubber keeps running passes
    /// (separated by `pass_interval`) until the handle is stopped.
    ///
    /// # Errors
    ///
    /// Returns [`LtsError::Io`] if the scrubber thread cannot be spawned.
    pub fn start(self) -> Result<ScrubberHandle, LtsError> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = stop.clone();
        let thread = pravega_sync::spawn("lts-scrubber", move || {
            let mut bucket = TokenBucket::new(self.config.bytes_per_sec, self.config.burst_bytes);
            while !stop_thread.load(Ordering::Acquire) {
                let _ = self.pass(Some(&mut bucket), &stop_thread);
                sleep_interruptible(self.config.pass_interval, &stop_thread);
            }
        })
        .map_err(|e| LtsError::Io(format!("spawn lts-scrubber: {e}")))?;
        Ok(ScrubberHandle {
            stop,
            thread: Some(thread),
        })
    }
}

/// Stops and joins the background scrubber when dropped or via
/// [`ScrubberHandle::stop`].
#[derive(Debug)]
pub struct ScrubberHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ScrubberHandle {
    /// Signals the loop to stop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ScrubberHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::InMemoryChunkStorage;
    use crate::metadata::InMemoryMetadataStore;
    use crate::segment::ChunkedStorageConfig;

    fn setup(max_chunk: u64) -> (ChunkedSegmentStorage, Arc<InMemoryChunkStorage>) {
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
    fn clean_store_scans_without_findings() {
        let (s, _) = setup(8);
        s.create("seg").unwrap();
        s.write("seg", 0, b"all healthy bytes here").unwrap();
        let registry = MetricsRegistry::new();
        let scrubber = Scrubber::new(s, ScrubConfig::default(), &registry);
        let report = scrubber.scrub_now();
        assert_eq!(report.chunks_scanned, 3);
        assert_eq!(report.corruption_detected, 0);
        assert!(report.bytes_scanned > 22);
    }

    #[test]
    fn scrubber_detects_all_injected_corruption_in_one_pass() {
        let (s, chunks) = setup(8);
        s.create("seg").unwrap();
        s.write("seg", 0, b"0123456789abcdefghijklmn").unwrap(); // 3 chunks
        let names = s.chunk_names("seg").unwrap();
        assert!(chunks.flip_bit(&names[0].0, 5, 0x80));
        assert!(chunks.truncate_tail(&names[2].0, 2));
        let registry = MetricsRegistry::new();
        let scrubber = Scrubber::new(s.clone(), ScrubConfig::default(), &registry);
        let report = scrubber.scrub_now();
        assert_eq!(report.corruption_detected, 2);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.quarantined, 2);
        assert_eq!(s.quarantined_chunks().len(), 2);
    }

    #[test]
    fn scrubber_repairs_from_a_healthy_source() {
        let (s, chunks) = setup(8);
        s.create("seg").unwrap();
        let acked = b"0123456789abcdef".to_vec();
        s.write("seg", 0, &acked).unwrap();
        let names = s.chunk_names("seg").unwrap();
        assert!(chunks.flip_bit(&names[1].0, 6, 0x01));
        let registry = MetricsRegistry::new();
        let source = acked.clone();
        let repair: RepairSource = Arc::new(move |_seg, _chunk, start, len| {
            Some(source[start as usize..(start + len) as usize].to_vec())
        });
        let scrubber =
            Scrubber::new(s.clone(), ScrubConfig::default(), &registry).with_repair(repair);
        let report = scrubber.scrub_now();
        assert_eq!(report.corruption_detected, 1);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.quarantined, 0);
        // The store is healthy again: reads return the acked bytes.
        assert_eq!(s.read("seg", 0, 16).unwrap().as_ref(), &acked[..]);
        assert!(s.quarantined_chunks().is_empty());
        // A second pass finds nothing.
        assert_eq!(scrubber.scrub_now().corruption_detected, 0);
    }

    #[test]
    fn repair_source_with_wrong_bytes_cannot_launder_corruption() {
        let (s, chunks) = setup(8);
        s.create("seg").unwrap();
        s.write("seg", 0, b"truthful").unwrap();
        let names = s.chunk_names("seg").unwrap();
        assert!(chunks.flip_bit(&names[0].0, 4, 0x10));
        let registry = MetricsRegistry::new();
        let repair: RepairSource = Arc::new(|_, _, _, len| Some(vec![b'!'; len as usize]));
        let scrubber =
            Scrubber::new(s.clone(), ScrubConfig::default(), &registry).with_repair(repair);
        let report = scrubber.scrub_now();
        assert_eq!(report.corruption_detected, 1);
        assert_eq!(report.repaired, 0);
        assert_eq!(report.quarantined, 1);
        assert!(matches!(
            s.read("seg", 0, 8),
            Err(LtsError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn background_loop_starts_and_stops_cleanly() {
        let (s, _) = setup(8);
        s.create("seg").unwrap();
        s.write("seg", 0, b"paced scanning").unwrap();
        let registry = MetricsRegistry::new();
        let scrubber = Scrubber::new(
            s,
            ScrubConfig {
                bytes_per_sec: 1e9,
                burst_bytes: 1e6,
                pass_interval: Duration::from_millis(5),
            },
            &registry,
        );
        let scanned = registry.counter("lts.scrub.chunks_scanned");
        let handle = scrubber.start().expect("spawn scrubber");
        let deadline = pravega_common::clock::monotonic_now() + Duration::from_secs(5);
        while scanned.get() == 0 && pravega_common::clock::monotonic_now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
        assert!(scanned.get() > 0);
    }
}

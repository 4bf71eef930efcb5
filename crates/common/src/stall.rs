//! Writer-visible stall taxonomy for the segment store's hot path.
//!
//! Long-run tail latency is dominated by background-work scheduling — flush
//! bursts, WAL truncation, cache-eviction storms, ledger rollovers — that
//! short benchmarks never see. Every place the write path can hold a writer
//! up classifies its stall under one [`StallClass`] and records it through a
//! [`StallTracker`], so a latency-timeline spike (see the `soak` bench) is
//! always attributable to exactly one cause.
//!
//! The instruments live under fixed `segmentstore.stalls.*` names: one
//! counter per class counting stall *events* (durations at or above
//! [`MIN_STALL`]) and one histogram per class recording every nonzero stall
//! duration in nanoseconds, sub-millisecond ones included, so accumulations
//! of small stalls remain visible in the per-second sums.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clock;
use crate::metrics::{Counter, Histogram, MetricsRegistry};

/// A stall event at or above this duration counts against the class's event
/// counter; shorter ones are recorded only in the duration histogram.
pub const MIN_STALL: Duration = Duration::from_millis(1);

/// The cause of a writer-visible stall on the segment-store write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallClass {
    /// Backpressure: the append waited because the unflushed backlog was
    /// over the throttle threshold (§4.3).
    Throttle,
    /// The storage writer was blocked in an LTS write while tiering
    /// committed data.
    Flush,
    /// Metadata checkpoint + WAL truncation (contends with appends through
    /// the operation processor).
    Truncation,
    /// Cache eviction performed under the core lock on the apply path.
    CacheEvict,
    /// A WAL ledger rollover: either performing the ledger swap or parked
    /// waiting for a concurrent appender's swap to finish.
    WalRollover,
}

impl StallClass {
    /// Every class, in taxonomy order.
    pub const ALL: &'static [StallClass] = &[
        StallClass::Throttle,
        StallClass::Flush,
        StallClass::Truncation,
        StallClass::CacheEvict,
        StallClass::WalRollover,
    ];

    /// The class's short name — the final segment of its metric names.
    pub fn name(self) -> &'static str {
        match self {
            StallClass::Throttle => "throttle",
            StallClass::Flush => "flush",
            StallClass::Truncation => "truncation",
            StallClass::CacheEvict => "cache_evict",
            StallClass::WalRollover => "wal_rollover",
        }
    }
}

/// Cheap handles to the ten `segmentstore.stalls.*` instruments, resolved
/// once at startup. Recording is atomics-only, so it is safe under any lock.
#[derive(Debug, Clone)]
pub struct StallTracker {
    throttle: Arc<Counter>,
    throttle_nanos: Arc<Histogram>,
    flush: Arc<Counter>,
    flush_nanos: Arc<Histogram>,
    truncation: Arc<Counter>,
    truncation_nanos: Arc<Histogram>,
    cache_evict: Arc<Counter>,
    cache_evict_nanos: Arc<Histogram>,
    wal_rollover: Arc<Counter>,
    wal_rollover_nanos: Arc<Histogram>,
}

impl StallTracker {
    /// Registers (or re-resolves) the stall instruments on `registry`.
    ///
    /// All components of a cluster share one registry, so the container and
    /// the WAL resolve the same underlying instruments and their recordings
    /// aggregate naturally.
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            throttle: registry.counter("segmentstore.stalls.throttle"),
            throttle_nanos: registry.histogram("segmentstore.stalls.throttle_nanos"),
            flush: registry.counter("segmentstore.stalls.flush"),
            flush_nanos: registry.histogram("segmentstore.stalls.flush_nanos"),
            truncation: registry.counter("segmentstore.stalls.truncation"),
            truncation_nanos: registry.histogram("segmentstore.stalls.truncation_nanos"),
            cache_evict: registry.counter("segmentstore.stalls.cache_evict"),
            cache_evict_nanos: registry.histogram("segmentstore.stalls.cache_evict_nanos"),
            wal_rollover: registry.counter("segmentstore.stalls.wal_rollover"),
            wal_rollover_nanos: registry.histogram("segmentstore.stalls.wal_rollover_nanos"),
        }
    }

    /// Attributes one stall of `duration` to `class`. Zero durations are
    /// ignored; durations below [`MIN_STALL`] reach only the histogram.
    pub fn record(&self, class: StallClass, duration: Duration) {
        let nanos = duration.as_nanos() as u64;
        if nanos == 0 {
            return;
        }
        let (counter, hist) = match class {
            StallClass::Throttle => (&self.throttle, &self.throttle_nanos),
            StallClass::Flush => (&self.flush, &self.flush_nanos),
            StallClass::Truncation => (&self.truncation, &self.truncation_nanos),
            StallClass::CacheEvict => (&self.cache_evict, &self.cache_evict_nanos),
            StallClass::WalRollover => (&self.wal_rollover, &self.wal_rollover_nanos),
        };
        hist.record(nanos);
        if duration >= MIN_STALL {
            counter.inc();
        }
    }
}

/// Sleeps up to `total`, waking early when `stop` is set.
///
/// This is the workspace's one sanctioned pacing sleep: background loops
/// (storage-writer passes, flush pacing, scrub pacing, throttle waits) sleep
/// through it in short slices so a stopping component joins its threads
/// promptly even under a long pacing interval. It paces work; it never
/// retries a failure — retries go through [`crate::retry`].
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one sanctioned pacing sleep, sliced so stopping components wake \
              promptly; it retries nothing"
)]
pub fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    const SLICE: Duration = Duration::from_millis(10);
    pravega_sync::blocking("sleep_interruptible");
    let deadline = clock::monotonic_now() + total;
    while !stop.load(Ordering::Acquire) {
        let now = clock::monotonic_now();
        if now >= deadline {
            return;
        }
        let nap = (deadline - now).min(SLICE);
        std::thread::sleep(nap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_the_right_class() {
        let registry = MetricsRegistry::new();
        let tracker = StallTracker::new(&registry);
        tracker.record(StallClass::Throttle, Duration::from_millis(3));
        tracker.record(StallClass::WalRollover, Duration::from_micros(200));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("segmentstore.stalls.throttle"), Some(1));
        // Sub-millisecond: histogram only, no event counted.
        assert_eq!(snap.counter("segmentstore.stalls.wal_rollover"), Some(0));
        let h = snap
            .histogram("segmentstore.stalls.wal_rollover_nanos")
            .expect("registered");
        assert_eq!(h.count, 1);
        assert_eq!(snap.counter("segmentstore.stalls.flush"), Some(0));
    }

    #[test]
    fn every_class_registers_counter_and_histogram() {
        let registry = MetricsRegistry::new();
        let tracker = StallTracker::new(&registry);
        for &class in StallClass::ALL {
            tracker.record(class, Duration::from_millis(2));
        }
        let snap = registry.snapshot();
        for &class in StallClass::ALL {
            let counter = format!("segmentstore.stalls.{}", class.name());
            let hist = format!("segmentstore.stalls.{}_nanos", class.name());
            assert_eq!(snap.counter(&counter), Some(1), "{counter}");
            assert_eq!(snap.histogram(&hist).map(|h| h.count), Some(1), "{hist}");
        }
    }

    #[test]
    fn zero_duration_is_ignored() {
        let registry = MetricsRegistry::new();
        let tracker = StallTracker::new(&registry);
        tracker.record(StallClass::Flush, Duration::ZERO);
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("segmentstore.stalls.flush_nanos")
                .map(|h| h.count),
            Some(0)
        );
    }

    #[test]
    fn interruptible_sleep_wakes_on_stop() {
        let stop = AtomicBool::new(true);
        let start = clock::monotonic_now();
        sleep_interruptible(Duration::from_secs(10), &stop);
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}

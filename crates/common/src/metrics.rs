//! Lightweight metrics: lock-free counters and log-linear histograms.
//!
//! The benchmark harness and the segment store's load reporting both need
//! cheap percentile tracking (the paper reports p50/p95 latencies throughout
//! §5). The histogram uses log-linear buckets (64 sub-buckets per power of
//! two), the same scheme as HdrHistogram, giving <1.6% relative error.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use pravega_sync::{rank, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (queue depth, lag bytes, in-flight count).
///
/// Unlike [`Counter`] a gauge can go down; `add`/`sub` are used by code that
/// tracks a level incrementally, `set` by code that recomputes it wholesale.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `value`.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` to the gauge.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtracts `delta` from the gauge.
    pub fn sub(&self, delta: i64) {
        self.value.fetch_sub(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named slot holding one free-form string (e.g. the last error seen by a
/// background worker), exposed through the metrics snapshot.
///
/// Unlike counters/gauges the value is not numeric, so reads take a short
/// mutex; writers replace the whole string. An empty string means "nothing
/// recorded yet".
#[derive(Debug)]
pub struct TextSlot {
    value: Mutex<String>,
}

impl Default for TextSlot {
    fn default() -> Self {
        Self {
            value: Mutex::new(rank::METRICS_TEXT, String::new()),
        }
    }
}

impl TextSlot {
    /// Creates an empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the slot's value.
    pub fn set(&self, value: impl Into<String>) {
        *self.value.lock() = value.into();
    }

    /// Clears the slot.
    pub fn clear(&self) {
        self.value.lock().clear();
    }

    /// Current value (empty string if never set).
    pub fn get(&self) -> String {
        self.value.lock().clone()
    }
}

const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 64
const BUCKET_COUNT: usize = (64 - SUB_BUCKET_BITS as usize + 1) * SUB_BUCKETS;

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        let h = 63 - value.leading_zeros() as usize; // highest set bit, >= 6
        let sub = ((value >> (h - SUB_BUCKET_BITS as usize)) & (SUB_BUCKETS as u64 - 1)) as usize;
        (h - SUB_BUCKET_BITS as usize + 1) * SUB_BUCKETS + sub
    }
}

fn bucket_value(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        index as u64
    } else {
        let h = index / SUB_BUCKETS + SUB_BUCKET_BITS as usize - 1;
        let sub = (index % SUB_BUCKETS) as u64;
        let base = (SUB_BUCKETS as u64 + sub) << (h - SUB_BUCKET_BITS as usize);
        // Midpoint of the bucket to halve the representation error.
        base + ((1u64 << (h - SUB_BUCKET_BITS as usize)) >> 1)
    }
}

/// A thread-safe log-linear histogram over `u64` values.
///
/// # Example
///
/// ```
/// use pravega_common::metrics::Histogram;
///
/// let h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((480..=520).contains(&p50));
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records a value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate value at percentile `p` (0.0–100.0), or 0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_value(i).min(self.max());
            }
        }
        self.max()
    }

    /// Folds all of `other`'s recorded values into `self`.
    ///
    /// Bucket counts are added; count and sum accumulate; min/max widen.
    /// `other` is unchanged. Used at snapshot time to aggregate per-component
    /// histograms (e.g. one journal per bookie) into a cluster-wide view.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        let n = other.count.load(Ordering::Relaxed);
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Clears all recorded values.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Panics in a debug build unless `name` has the `<crate>.<component>.<name>`
/// shape: three non-empty dotted segments of lowercase ASCII letters, digits
/// and `_`, so the per-stage dashboards can group instruments by stage.
fn debug_assert_metric_name(name: &str) {
    debug_assert!(
        name.split('.').count() == 3
            && name.split('.').all(|s| {
                !s.is_empty()
                    && s.bytes()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_')
            }),
        "metric name `{name}` must match <crate>.<component>.<name>"
    );
}

/// A named registry of counters and histograms. Every name follows
/// `<crate>.<component>.<name>`; a debug build panics on any other.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            inner: Arc::new(Mutex::new(rank::METRICS_REGISTRY, RegistryInner::default())),
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: HashMap<String, Arc<Counter>>,
    gauges: HashMap<String, Arc<Gauge>>,
    histograms: HashMap<String, Arc<Histogram>>,
    texts: HashMap<String, Arc<TextSlot>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating if needed) the counter with the given name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        debug_assert_metric_name(name);
        let mut inner = self.inner.lock();
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// Returns (creating if needed) the histogram with the given name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        debug_assert_metric_name(name);
        let mut inner = self.inner.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Returns (creating if needed) the gauge with the given name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        debug_assert_metric_name(name);
        let mut inner = self.inner.lock();
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// Returns (creating if needed) the text slot with the given name.
    pub fn text(&self, name: &str) -> Arc<TextSlot> {
        debug_assert_metric_name(name);
        let mut inner = self.inner.lock();
        inner
            .texts
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(TextSlot::new()))
            .clone()
    }

    /// Snapshot of all counter values, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock();
        let mut v: Vec<(String, u64)> = inner
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        v.sort();
        v
    }

    /// Point-in-time capture of every instrument in the registry.
    ///
    /// Counters and gauges are read atomically per-instrument; histograms are
    /// summarised (count/sum/min/max/mean/p50/p95/p99). Everything is sorted
    /// by name so output is stable across runs.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        let mut counters: Vec<(String, u64)> = inner
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = inner
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSummary)> = inner
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), HistogramSummary::of(h)))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut texts: Vec<(String, String)> = inner
            .texts
            .iter()
            .map(|(k, t)| (k.clone(), t.get()))
            .collect();
        texts.sort();
        Snapshot {
            counters,
            gauges,
            histograms,
            texts,
        }
    }
}

/// Summary statistics for one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 if empty).
    pub min: u64,
    /// Largest recorded value (0 if empty).
    pub max: u64,
    /// Mean of recorded values (0.0 if empty).
    pub mean: f64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Summarises `h` at this moment.
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
        }
    }
}

/// A point-in-time, serialisable view of a [`MetricsRegistry`].
///
/// `Display` renders a human-readable table (used by the examples and the
/// bench harness); [`Snapshot::to_json`] emits the same data as JSON for
/// machine consumption.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Text-slot values, sorted by name (empty string = never set).
    pub texts: Vec<(String, String)>,
}

impl Snapshot {
    /// Value of a named counter, or `None` if it was never created.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Value of a named gauge, or `None` if it was never created.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Summary of a named histogram, or `None` if it was never created.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Value of a named text slot, or `None` if it was never created.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.texts
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Number of instruments that have observed at least one event: counters
    /// and gauges with non-zero values, histograms with `count > 0`, and
    /// non-empty text slots.
    pub fn active_instruments(&self) -> usize {
        self.counters.iter().filter(|(_, v)| *v > 0).count()
            + self.gauges.iter().filter(|(_, v)| *v != 0).count()
            + self.histograms.iter().filter(|(_, h)| h.count > 0).count()
            + self.texts.iter().filter(|(_, t)| !t.is_empty()).count()
    }

    /// Serialises the snapshot as a JSON object.
    ///
    /// Hand-rolled: metric names follow `<crate>.<component>.<name>` and
    /// contain no characters that need escaping beyond the standard set,
    /// but escaping is applied anyway for safety.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_string(k),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean,
                h.p50,
                h.p95,
                h.p99
            ));
        }
        out.push_str("},\"texts\":{");
        for (i, (k, v)) in self.texts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), json_string(v)));
        }
        out.push_str("}}");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .chain(self.texts.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (k, v) in &self.counters {
                writeln!(f, "  {k:<width$}  {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (k, v) in &self.gauges {
                writeln!(f, "  {k:<width$}  {v}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (k, h) in &self.histograms {
                writeln!(
                    f,
                    "  {k:<width$}  n={} mean={:.1} min={} p50={} p95={} p99={} max={}",
                    h.count, h.mean, h.min, h.p50, h.p95, h.p99, h.max
                )?;
            }
        }
        let set_texts: Vec<_> = self.texts.iter().filter(|(_, v)| !v.is_empty()).collect();
        if !set_texts.is_empty() {
            writeln!(f, "texts:")?;
            for (k, v) in set_texts {
                writeln!(f, "  {k:<width$}  {v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn bucket_index_is_monotonic() {
        let mut prev = 0usize;
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            65_535,
            1 << 30,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotonic at {v}");
            prev = idx;
            assert!(idx < BUCKET_COUNT);
        }
    }

    #[test]
    fn bucket_value_within_relative_error() {
        for v in [100u64, 1000, 12_345, 999_999, 123_456_789] {
            let approx = bucket_value(bucket_index(v));
            let err = (approx as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.016, "value {v} approx {approx} err {err}");
        }
    }

    #[test]
    fn percentiles_are_accurate() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, expect) in [(50.0, 5000u64), (95.0, 9500), (99.0, 9900)] {
            let got = h.percentile(p);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.02, "p{p}: got {got}, want ~{expect}");
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        assert!((h.mean() - 5000.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn reset_clears() {
        let h = Histogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
    }

    #[test]
    fn registry_returns_same_instance() {
        let r = MetricsRegistry::new();
        r.counter("test.registry.events").inc();
        r.counter("test.registry.events").inc();
        assert_eq!(r.counter("test.registry.events").get(), 2);
        assert_eq!(
            r.counter_values(),
            vec![("test.registry.events".to_string(), 2)]
        );
        r.histogram("test.registry.latency").record(1);
        assert_eq!(r.histogram("test.registry.latency").count(), 1);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-5);
        assert_eq!(g.get(), -5);
        g.add(5);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn text_slot_records_last_value() {
        let r = MetricsRegistry::new();
        assert_eq!(r.text("x.last.error").get(), "");
        r.text("x.last.error").set("chunk store unavailable");
        r.text("x.last.error").set("torn write");
        let s = r.snapshot();
        assert_eq!(s.text("x.last.error"), Some("torn write"));
        assert_eq!(s.text("missing"), None);
        assert_eq!(s.active_instruments(), 1);
        assert!(s.to_json().contains("\"x.last.error\":\"torn write\""));
        assert!(s.to_string().contains("torn write"));
        r.text("x.last.error").clear();
        assert_eq!(r.snapshot().active_instruments(), 0);
    }

    #[test]
    fn registry_gauge_is_shared() {
        let r = MetricsRegistry::new();
        r.gauge("test.registry.depth").set(3);
        r.gauge("test.registry.depth").add(2);
        assert_eq!(r.gauge("test.registry.depth").get(), 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn off_shape_metric_names_panic_in_debug_builds() {
        let r = MetricsRegistry::new();
        r.text("segmentstore.storagewriter.last_flush_error");
        r.counter("segmentstore.durablelog.queued_ops");
        for bad in [
            "events",
            "a.b",
            "a.b.c.d",
            "A.B.C",
            "a..c",
            "x.last-error.y",
        ] {
            let r = r.clone();
            let registered = std::panic::catch_unwind(move || {
                r.gauge(bad);
            });
            assert!(registered.is_err(), "`{bad}` was accepted");
        }
    }

    #[test]
    fn merge_from_combines_distributions() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.sum(), (1..=1000u64).sum::<u64>());
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1000);
        let p50 = a.percentile(50.0);
        assert!(
            (485..=515).contains(&p50),
            "merged p50 should be ~500, got {p50}"
        );
        // b is unchanged.
        assert_eq!(b.count(), 500);
        assert_eq!(b.min(), 501);
    }

    #[test]
    fn merge_from_empty_is_noop() {
        let a = Histogram::new();
        a.record(7);
        let empty = Histogram::new();
        a.merge_from(&empty);
        assert_eq!(a.count(), 1);
        assert_eq!(a.min(), 7);
        assert_eq!(a.max(), 7);
        // Merging into an empty histogram adopts the other's min.
        let target = Histogram::new();
        target.merge_from(&a);
        assert_eq!(target.min(), 7);
        assert_eq!(target.count(), 1);
    }

    #[test]
    fn snapshot_captures_all_instrument_kinds() {
        let r = MetricsRegistry::new();
        r.counter("test.x.events").add(3);
        r.gauge("test.x.depth").set(-2);
        for v in [10u64, 20, 30] {
            r.histogram("test.x.lat").record(v);
        }
        let s = r.snapshot();
        assert_eq!(s.counter("test.x.events"), Some(3));
        assert_eq!(s.gauge("test.x.depth"), Some(-2));
        let h = s.histogram("test.x.lat").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 60);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 30);
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.active_instruments(), 3);
    }

    #[test]
    fn snapshot_json_and_display_are_well_formed() {
        let r = MetricsRegistry::new();
        r.counter("a.b.c").inc();
        r.gauge("a.b.g").set(4);
        r.histogram("a.b.h").record(100);
        let s = r.snapshot();
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a.b.c\":1"));
        assert!(json.contains("\"a.b.g\":4"));
        assert!(json.contains("\"count\":1"));
        // Balanced braces (no nesting surprises in the hand-rolled writer).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        let text = s.to_string();
        assert!(text.contains("counters:"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("histograms:"));
        assert!(text.contains("a.b.h"));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("plain.name"), "\"plain.name\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        let g = Arc::new(Gauge::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = h.clone();
                let c = c.clone();
                let g = g.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i + 1);
                        c.inc();
                        g.add(1);
                        g.sub(1);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let total = threads * per_thread;
        assert_eq!(h.count(), total);
        assert_eq!(c.get(), total);
        assert_eq!(g.get(), 0);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), total);
        let expect_sum: u64 = total * (total + 1) / 2;
        assert_eq!(h.sum(), expect_sum);
    }

    proptest::proptest! {
        #[test]
        fn prop_bucket_round_trip_bounds_error(v in 1u64..u64::MAX / 2) {
            let idx = bucket_index(v);
            proptest::prop_assert!(idx < BUCKET_COUNT);
            let approx = bucket_value(idx);
            let err = (approx as f64 - v as f64).abs() / v as f64;
            proptest::prop_assert!(
                err < 0.016,
                "value {} approx {} relative error {}",
                v, approx, err
            );
        }

        #[test]
        fn prop_bucket_index_is_monotonic(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            proptest::prop_assert!(bucket_index(lo) <= bucket_index(hi));
        }

        #[test]
        fn prop_percentile_error_bound(values in proptest::prop::collection::vec(1u64..1_000_000, 10..200)) {
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for p in [50.0f64, 95.0, 99.0] {
                let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
                let exact = sorted[rank - 1];
                let got = h.percentile(p);
                let err = (got as f64 - exact as f64).abs() / exact as f64;
                proptest::prop_assert!(
                    err < 0.016,
                    "p{}: exact {} got {} err {}",
                    p, exact, got, err
                );
            }
        }

        #[test]
        fn prop_merge_equals_combined_recording(
            xs in proptest::prop::collection::vec(1u64..1_000_000, 0..100),
            ys in proptest::prop::collection::vec(1u64..1_000_000, 0..100),
        ) {
            let separate_a = Histogram::new();
            let separate_b = Histogram::new();
            let combined = Histogram::new();
            for &v in &xs {
                separate_a.record(v);
                combined.record(v);
            }
            for &v in &ys {
                separate_b.record(v);
                combined.record(v);
            }
            separate_a.merge_from(&separate_b);
            proptest::prop_assert_eq!(separate_a.count(), combined.count());
            proptest::prop_assert_eq!(separate_a.sum(), combined.sum());
            proptest::prop_assert_eq!(separate_a.min(), combined.min());
            proptest::prop_assert_eq!(separate_a.max(), combined.max());
            for p in [50.0f64, 95.0, 99.0] {
                proptest::prop_assert_eq!(separate_a.percentile(p), combined.percentile(p));
            }
        }
    }
}

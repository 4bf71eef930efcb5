//! Long-run soak harness: sustained multi-writer ingest plus catch-up reads
//! against an embedded cluster, recording a **per-second latency timeline**
//! so tail-latency spikes are visible *and attributable*.
//!
//! Every writer follows a fixed, deterministically *bursty* schedule of send
//! slots (a 2x ingest surge opens every 5 s block — see [`slot_for`]) and
//! measures latency from the *scheduled* slot, not the actual send — a
//! writer that falls behind because the store stalled accrues the stall into
//! every queued event's latency (coordinated-omission corrected). Summary
//! statistics skip a short warmup window so one-time startup costs don't
//! masquerade as long-run instability. A sampler thread reads
//! the cluster's `segmentstore.stalls.*` instruments once a second, so each
//! spike second in the timeline carries the stall classes (throttle, flush,
//! truncation, cache_evict, wal_rollover) that were active around it.
//!
//! The store runs with gradual throttle engagement and token-bucket-paced
//! flushes — the configuration the soak gate holds. (The on/off
//! throttle and unpaced flusher it replaced measured a p999 of 333 ms
//! against 8–25 ms here; DESIGN.md §14.3 keeps the numbers.)
//!
//! The run gates itself ([`gate`]): it prints the verdict and exits 1 when
//! it recorded no events or no timeline, when a spike has no attributed
//! stall class, when the p90 second's p999 exceeds
//! [`MAX_P90_SECOND_P999_MS`], or when the overall p50 exceeds
//! [`MAX_ON_SCHEDULE_P50_MS`].
//!
//! Results: `BENCH_soak.json` at the repo root (summary + timeline) and
//! `bench_results/soak.metrics.json` (full instrument snapshot).
//!
//! ```text
//! cargo run --release -p pravega-bench --bin soak            # full run
//! cargo run --release -p pravega-bench --bin soak -- --smoke # CI smoke
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pravega_bench::{emit_metrics_snapshot, fmt, FigureTable};
use pravega_client::{StringSerializer, WriterConfig};
use pravega_common::clock;
use pravega_common::id::ScopedStream;
use pravega_common::metrics::Histogram;
use pravega_common::policy::{ScalingPolicy, StreamConfiguration};
use pravega_common::retry::RetryClass;
use pravega_common::stall::StallClass;
use pravega_core::{ClusterConfig, LtsKind, PravegaCluster};
use pravega_faults::{FaultPlan, FaultSpec};
use pravega_lts::ThrottleModel;

/// One run's knobs. `--smoke` picks a CI-sized run; every knob can also be
/// set individually.
#[derive(Debug, Clone)]
struct Config {
    /// Ingest duration.
    seconds: u64,
    /// Concurrent writers, each with its own schedule and key.
    writers: usize,
    /// Events per second *per writer*.
    rate: usize,
    payload_bytes: usize,
    /// When set, a low-rate seeded `FaultPlan` decorates LTS — the chaos
    /// variant proving graceful degradation.
    fault_seed: Option<u64>,
}

/// The `profile` field of the report: one flush/throttle policy is left, and
/// the committed baseline names it.
const PROFILE: &str = "paced";

/// Overall-p50 ceiling. Latency is measured from each event's *scheduled*
/// slot, so a median in the hundreds of milliseconds means the writers spent
/// the run queued behind the store — the collapse regime, which flattens the
/// tail into the median instead of spiking it.
const MAX_ON_SCHEDULE_P50_MS: f64 = 250.0;

/// Bound on the 90th-percentile second's p999, in milliseconds. Healthy
/// `soak --smoke` runs, paced and under `--fault-seed 7`, read
/// 1.5–26 ms (EXPERIMENTS.md lists every run); the on/off throttle
/// oscillation this gate exists to catch parks that second at the
/// threshold drain time, 333 ms under the burst-control profile.
const MAX_P90_SECOND_P999_MS: f64 = 50.0;

impl Config {
    fn full() -> Self {
        Config {
            seconds: 180,
            writers: 4,
            // Each writer blocks on its ack (~2.5 ms) before the next slot,
            // so the per-writer rate must leave headroom for stall cycles.
            rate: 100,
            payload_bytes: 1024,
            fault_seed: None,
        }
    }

    fn smoke() -> Self {
        Config {
            seconds: 35,
            ..Config::full()
        }
    }

    fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut cfg = if args.iter().any(|a| a == "--smoke") {
            Config::smoke()
        } else {
            Config::full()
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().unwrap_or_else(|| panic!("{arg} needs a value"));
            match arg.as_str() {
                "--seconds" => cfg.seconds = value().parse().expect("--seconds takes a u64"),
                "--writers" => cfg.writers = value().parse().expect("--writers takes a usize"),
                "--rate" => cfg.rate = value().parse().expect("--rate takes a usize"),
                "--payload-bytes" => {
                    cfg.payload_bytes = value().parse().expect("--payload-bytes takes a usize");
                }
                "--fault-seed" => {
                    cfg.fault_seed = Some(value().parse().expect("--fault-seed takes a u64"));
                }
                "--smoke" => {}
                other => panic!("unknown argument: {other}"),
            }
        }
        assert!(cfg.seconds > 0 && cfg.writers > 0 && cfg.rate > 0 && cfg.payload_bytes > 0);
        cfg
    }

    fn ingest_bytes_per_sec(&self) -> f64 {
        (self.writers * self.rate * self.payload_bytes) as f64
    }

    /// Seconds excluded from the summary statistics (the timeline still
    /// reports them). One-time startup costs — first segment creation in
    /// LTS, the first WAL truncation dropping the entire accumulated
    /// prefix — land in the opening seconds and are not what a *long-run*
    /// stability gate should measure.
    fn warmup_secs(&self) -> usize {
        ((self.seconds / 5) as usize).min(10)
    }
}

/// Low-rate chaos for the `--fault-seed` variant: rare enough that the run
/// must *degrade gracefully* (retries ride through, no dispersion blowup)
/// rather than merely survive.
fn soak_fault_spec() -> FaultSpec {
    FaultSpec {
        transient_error_rate: 0.01,
        latency_spike_rate: 0.01,
        latency_spike: Duration::from_millis(2),
        torn_write_rate: 0.005,
    }
}

fn cluster_config(cfg: &Config) -> ClusterConfig {
    let ingest = cfg.ingest_bytes_per_sec();
    // LTS that can absorb ~4x the ingest rate: sustainable, but slow enough
    // that tiering in bursts would hurt.
    let mut config = ClusterConfig {
        lts: LtsKind::Throttled(ThrottleModel {
            bandwidth_bytes_per_sec: (ingest * 4.0) as u64,
            per_op_latency: Duration::from_micros(500),
        }),
        ..ClusterConfig::default()
    };
    config.container.max_batch_delay = Duration::from_millis(1);
    config.container.max_flush_bytes = 64 * 1024;
    config.container.flush_interval = Duration::from_millis(5);
    config.container.throttle_threshold_bytes = 128 * 1024;
    // Pace tiering at 3x ingest: above the 2x surge rate (so surges drain
    // with headroom instead of racing the pacer) but below the device's 4x
    // bandwidth, so the pacer — not the device — shapes the flush traffic.
    config.container.flush_bytes_per_sec = ingest * 3.0;
    config.container.flush_burst_bytes = 128.0 * 1024.0;
    if let Some(seed) = cfg.fault_seed {
        config.lts_faults = Some(Arc::new(FaultPlan::new(seed, soak_fault_spec())));
    }
    config
}

/// What one writer thread hands back: which payloads were acked, and how
/// many sends errored.
struct WriterReport {
    acked: Vec<String>,
    errors: u64,
}

/// Deterministic bursty schedule: within every 5 s block, the first 18% of
/// that block's events arrive in its first 9% (a 2x ingest surge), and the
/// rest spread evenly over the remainder. The long-run average rate stays
/// `rate`; the surge is what separates a throttle that degrades gracefully
/// from one that cliffs.
fn slot_for(seq: u64, rate: u64) -> Duration {
    const BLOCK_SECS: f64 = 5.0;
    const SURGE_EVENT_FRACTION: f64 = 0.18;
    const SURGE_TIME_FRACTION: f64 = 0.09;
    let per_block = (rate as f64 * BLOCK_SECS).max(1.0);
    let block = (seq as f64 / per_block).floor();
    let within = seq as f64 - block * per_block;
    let surge_events = per_block * SURGE_EVENT_FRACTION;
    let frac = if within < surge_events {
        (within / surge_events) * SURGE_TIME_FRACTION
    } else {
        SURGE_TIME_FRACTION
            + (within - surge_events) / (per_block - surge_events) * (1.0 - SURGE_TIME_FRACTION)
    };
    Duration::from_secs_f64((block + frac) * BLOCK_SECS)
}

#[allow(clippy::too_many_arguments)]
fn run_writer(
    w: usize,
    cfg: &Config,
    cluster: &PravegaCluster,
    stream: &ScopedStream,
    start: std::time::Instant,
    buckets: &[Histogram],
) -> WriterReport {
    let mut writer =
        cluster.create_writer(stream.clone(), StringSerializer, WriterConfig::default());
    let key = format!("w{w}");
    let duration = Duration::from_secs(cfg.seconds);
    let pad = "x".repeat(cfg.payload_bytes.saturating_sub(24));
    let mut report = WriterReport {
        acked: Vec::new(),
        errors: 0,
    };
    let mut seq = 0u64;
    loop {
        // The *scheduled* slot for event `seq`. Latency is measured from
        // here: if the store stalls and this writer falls behind, every
        // queued slot inherits the stall (coordinated-omission corrected).
        let slot = slot_for(seq, cfg.rate as u64);
        if slot >= duration {
            break;
        }
        let now = start.elapsed();
        if now < slot {
            #[expect(
                clippy::disallowed_methods,
                reason = "pacing: waits for the writer's fixed send slot; retries nothing"
            )]
            std::thread::sleep(slot - now);
        }
        let payload = format!("w{w}-{seq:012}-{pad}");
        let promise = writer.write_event(&key, &payload);
        match promise.wait_for(Duration::from_secs(60)) {
            Ok(Ok(())) => {
                let done = start.elapsed();
                let latency = done.saturating_sub(slot);
                let sec = (done.as_secs() as usize).min(buckets.len() - 1);
                buckets[sec].record(latency.as_nanos() as u64);
                report.acked.push(payload);
            }
            Ok(Err(e)) => {
                // A failed (never-acked) event: tolerated when transient —
                // that's the graceful-degradation contract — but it still
                // counts against the run's error budget.
                assert!(
                    e.is_transient(),
                    "writer {w} event {seq}: permanent error {e}"
                );
                report.errors += 1;
            }
            Err(e) => panic!("writer {w} event {seq}: ack never resolved: {e}"),
        }
        seq += 1;
    }
    writer.flush().expect("final flush");
    report
}

/// Cumulative per-class stall nanos, sampled once a second.
fn run_sampler(
    cluster: &PravegaCluster,
    start: std::time::Instant,
    stop: &AtomicBool,
) -> Vec<[u64; 5]> {
    let registry = cluster.metrics().registry().clone();
    let hists: Vec<_> = StallClass::ALL
        .iter()
        .map(|c| registry.histogram(&format!("segmentstore.stalls.{}_nanos", c.name())))
        .collect();
    let sample = |hists: &[Arc<Histogram>]| -> [u64; 5] {
        let mut s = [0u64; 5];
        for (i, h) in hists.iter().enumerate() {
            s[i] = h.sum();
        }
        s
    };
    let mut samples = vec![sample(&hists)];
    let mut k = 1u64;
    loop {
        let target = Duration::from_secs(k);
        let now = start.elapsed();
        if now < target {
            #[expect(
                clippy::disallowed_methods,
                reason = "pacing: the sampler's once-a-second tick; retries nothing"
            )]
            std::thread::sleep(target - now);
        }
        samples.push(sample(&hists));
        if stop.load(Ordering::Acquire) {
            return samples;
        }
        k += 1;
    }
}

/// Reads the whole stream back — starting late, so the read is a genuine
/// catch-up from historical (tiered) data into the tail — and keeps a count
/// per payload for the exactly-once check.
fn run_reader(
    cluster: &PravegaCluster,
    stream: &ScopedStream,
    start_delay: Duration,
    stop: &AtomicBool,
) -> HashMap<String, u64> {
    #[expect(
        clippy::disallowed_methods,
        reason = "pacing: the catch-up reader's deliberate late start; retries nothing"
    )]
    std::thread::sleep(start_delay);
    let group = cluster
        .create_reader_group("soak", "catchup", vec![stream.clone()])
        .expect("create reader group");
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let mut seen: HashMap<String, u64> = HashMap::new();
    let mut transient_strikes = 0u32;
    loop {
        match reader.read_next(Duration::from_millis(250)) {
            Ok(Some(e)) => {
                *seen.entry(e.event).or_insert(0) += 1;
                transient_strikes = 0;
            }
            Ok(None) => {
                // Caught up to the tail; once the writers are done and the
                // tail stays dry, the read-back is complete.
                if stop.load(Ordering::Acquire) {
                    return seen;
                }
            }
            Err(e) if e.is_transient() && transient_strikes < 200 => transient_strikes += 1,
            Err(e) => panic!("catch-up reader failed after {} events: {e}", seen.len()),
        }
    }
}

struct TimelineRow {
    sec: usize,
    count: u64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    /// Stall milliseconds accrued in this second, per class (same order as
    /// [`StallClass::ALL`]).
    stall_ms: [f64; 5],
}

fn build_timeline(buckets: &[Histogram], samples: &[[u64; 5]], seconds: usize) -> Vec<TimelineRow> {
    let to_ms = |nanos: u64| nanos as f64 / 1e6;
    (0..seconds)
        .map(|sec| {
            let b = &buckets[sec];
            let mut stall_ms = [0.0; 5];
            if sec + 1 < samples.len() {
                for i in 0..5 {
                    stall_ms[i] = to_ms(samples[sec + 1][i].saturating_sub(samples[sec][i]));
                }
            }
            TimelineRow {
                sec,
                count: b.count(),
                p50_ms: to_ms(b.percentile(50.0)),
                p99_ms: to_ms(b.percentile(99.0)),
                p999_ms: to_ms(b.percentile(99.9)),
                stall_ms,
            }
        })
        .collect()
}

/// A spike second has p999 above both 10 ms and 10x the run's overall p50 —
/// an order of magnitude over the median is a stall, while a sub-10x wobble
/// is the scheduler noise any shared machine produces. A spike is
/// *attributed* when any stall class accrued ≥ 1 ms in a window of
/// ±1 s around it (sampler alignment jitter). Warmup seconds are not
/// counted as spikes, though they can still attribute a neighbor.
fn classify_spikes(timeline: &[TimelineRow], warmup: usize, overall_p50_ms: f64) -> (usize, usize) {
    let spike_floor_ms = (overall_p50_ms * 10.0).max(10.0);
    let mut spikes = 0;
    let mut unattributed = 0;
    for row in timeline {
        if row.sec < warmup || row.count == 0 || row.p999_ms <= spike_floor_ms {
            continue;
        }
        spikes += 1;
        let lo = row.sec.saturating_sub(1);
        let hi = (row.sec + 1).min(timeline.len() - 1);
        let attributed = timeline[lo..=hi]
            .iter()
            .any(|r| r.stall_ms.iter().any(|&ms| ms >= 1.0));
        if !attributed {
            unattributed += 1;
        }
    }
    (spikes, unattributed)
}

/// The scalar summary of a run: the `summary` object of `BENCH_soak.json`,
/// plus the timeline length the gate checks.
struct Summary {
    seconds: u64,
    warmup_seconds: usize,
    writers: usize,
    events: u64,
    errors: u64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    measured_seconds: usize,
    /// The gated tail statistic: the 90th-percentile second's p999.
    p90_second_p999_ms: f64,
    worst_second_p999_ms: f64,
    spike_seconds: usize,
    unattributed_spike_seconds: usize,
    timeline_rows: usize,
}

fn summarize(
    cfg: &Config,
    timeline: &[TimelineRow],
    overall: &Histogram,
    events: u64,
    errors: u64,
    spikes: usize,
    unattributed: usize,
) -> Summary {
    let to_ms = |nanos: u64| nanos as f64 / 1e6;
    let warmup = cfg.warmup_secs();
    let mut measured_p999s: Vec<f64> = timeline
        .iter()
        .filter(|r| r.sec >= warmup && r.count > 0)
        .map(|r| r.p999_ms)
        .collect();
    measured_p999s.sort_by(|a, b| a.total_cmp(b));
    let measured_seconds = measured_p999s.len();
    // The robust tail statistic: the 90th-percentile second's p999
    // (nearest-rank). One unlucky collision second in a half-minute run
    // cannot move it, but a regime where a third of the seconds spike
    // (the on/off throttle oscillation) lands it squarely on a spike.
    let p90_second_p999_ms = if measured_seconds == 0 {
        0.0
    } else {
        let rank = ((measured_seconds as f64 * 0.9).ceil() as usize).clamp(1, measured_seconds);
        measured_p999s[rank - 1]
    };
    Summary {
        seconds: cfg.seconds,
        warmup_seconds: warmup,
        writers: cfg.writers,
        events,
        errors,
        p50_ms: to_ms(overall.percentile(50.0)),
        p99_ms: to_ms(overall.percentile(99.0)),
        p999_ms: to_ms(overall.percentile(99.9)),
        measured_seconds,
        p90_second_p999_ms,
        worst_second_p999_ms: measured_p999s.last().copied().unwrap_or(0.0),
        spike_seconds: spikes,
        unattributed_spike_seconds: unattributed,
        timeline_rows: timeline.len(),
    }
}

/// The soak gate: every bound the run breaks, as one line each (empty when
/// it passes).
///
/// The gated tail statistic is `p90_second_p999_ms`. The single worst
/// second (and the overall p999 it drags along) is deliberately not
/// bounded: a soak under a bursty workload legitimately catches an
/// occasional flush × surge collision, and a gate keyed to the worst second
/// would flake on it. What separates a healthy run from an oscillating one
/// is spike *depth* across the run: host scheduling noise produces shallow
/// (tens of ms) wobbles, while throttle oscillation parks the p90 second at
/// hundreds of ms. The p50 ceiling is there because a store whose writers
/// fall hopelessly behind schedule shows a *flat* tail (every latency
/// balloons together), so a tail bound alone would wave through exactly
/// the collapse the soak exists to catch.
fn gate(summary: &Summary) -> Vec<String> {
    let mut failures = Vec::new();
    if summary.events == 0 {
        failures.push("run recorded no events".to_string());
    }
    if summary.timeline_rows == 0 {
        failures.push("run recorded no per-second timeline".to_string());
    }
    if summary.unattributed_spike_seconds > 0 {
        failures.push(format!(
            "{} spike second(s) not attributed to any stall class",
            summary.unattributed_spike_seconds
        ));
    }
    if summary.p90_second_p999_ms > MAX_P90_SECOND_P999_MS {
        failures.push(format!(
            "p90 second's p999 {}ms exceeds the bound {MAX_P90_SECOND_P999_MS}ms",
            fmt(summary.p90_second_p999_ms, 3)
        ));
    }
    if summary.p50_ms > MAX_ON_SCHEDULE_P50_MS {
        failures.push(format!(
            "overall p50 {}ms exceeds the on-schedule ceiling {MAX_ON_SCHEDULE_P50_MS}ms \
             (writers collapsed behind the store)",
            fmt(summary.p50_ms, 3)
        ));
    }
    failures
}

fn write_report(summary: &Summary, timeline: &[TimelineRow]) -> std::path::PathBuf {
    let s = summary;
    let ratio = |ms: f64| if s.p50_ms > 0.0 { ms / s.p50_ms } else { 0.0 };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"soak\",\n");
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!("    \"profile\": \"{}\",\n", PROFILE));
    out.push_str(&format!("    \"seconds\": {},\n", s.seconds));
    out.push_str(&format!("    \"warmup_seconds\": {},\n", s.warmup_seconds));
    out.push_str(&format!("    \"writers\": {},\n", s.writers));
    out.push_str(&format!("    \"events\": {},\n", s.events));
    out.push_str(&format!("    \"errors\": {},\n", s.errors));
    out.push_str(&format!("    \"p50_ms\": {},\n", fmt(s.p50_ms, 3)));
    out.push_str(&format!("    \"p99_ms\": {},\n", fmt(s.p99_ms, 3)));
    out.push_str(&format!("    \"p999_ms\": {},\n", fmt(s.p999_ms, 3)));
    out.push_str(&format!(
        "    \"dispersion\": {},\n",
        fmt(ratio(s.p999_ms), 2)
    ));
    out.push_str(&format!(
        "    \"measured_seconds\": {},\n",
        s.measured_seconds
    ));
    out.push_str(&format!(
        "    \"p90_second_p999_ms\": {},\n",
        fmt(s.p90_second_p999_ms, 3)
    ));
    out.push_str(&format!(
        "    \"typical_dispersion\": {},\n",
        fmt(ratio(s.p90_second_p999_ms), 2)
    ));
    out.push_str(&format!(
        "    \"worst_second_p999_ms\": {},\n",
        fmt(s.worst_second_p999_ms, 3)
    ));
    out.push_str(&format!(
        "    \"worst_dispersion\": {},\n",
        fmt(ratio(s.worst_second_p999_ms), 2)
    ));
    out.push_str(&format!("    \"spike_seconds\": {},\n", s.spike_seconds));
    out.push_str(&format!(
        "    \"unattributed_spike_seconds\": {}\n",
        s.unattributed_spike_seconds
    ));
    out.push_str("  },\n  \"timeline\": [\n");
    for (i, row) in timeline.iter().enumerate() {
        let stalls = StallClass::ALL
            .iter()
            .enumerate()
            .map(|(j, c)| format!("\"{}\": {}", c.name(), fmt(row.stall_ms[j], 3)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"sec\": {}, \"count\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"p999_ms\": {}, \"stall_ms\": {{{}}}}}{}\n",
            row.sec,
            row.count,
            fmt(row.p50_ms, 3),
            fmt(row.p99_ms, 3),
            fmt(row.p999_ms, 3),
            stalls,
            if i + 1 == timeline.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_soak.json");
    std::fs::write(&path, out).expect("write BENCH_soak.json");
    path
}

fn main() -> ExitCode {
    let cfg = Config::from_args();
    println!("soak config: {cfg:?}");

    let cluster = PravegaCluster::start(cluster_config(&cfg)).expect("start cluster");
    let stream = ScopedStream::new("soak", "steady").expect("stream name");
    cluster.create_scope("soak").expect("create scope");
    cluster
        .create_stream(&stream, StreamConfiguration::new(ScalingPolicy::fixed(2)))
        .expect("create stream");

    // One latency bucket per wall-clock second (plus slack for late acks).
    let buckets: Vec<Histogram> = (0..cfg.seconds as usize + 120)
        .map(|_| Histogram::new())
        .collect();
    let stop = AtomicBool::new(false);
    let start = clock::monotonic_now();

    let (reports, samples, seen) = std::thread::scope(|scope| {
        let writer_handles: Vec<_> = (0..cfg.writers)
            .map(|w| {
                let (cfg, cluster, stream, buckets) = (&cfg, &cluster, &stream, &buckets);
                scope.spawn(move || run_writer(w, cfg, cluster, stream, start, buckets))
            })
            .collect();
        let sampler = scope.spawn(|| run_sampler(&cluster, start, &stop));
        // The reader starts a third of the way in, so it must catch up
        // through data that has already tiered to LTS before reaching the
        // tail.
        let reader_delay = Duration::from_secs(cfg.seconds / 3);
        let (cluster_ref, stream_ref, stop_ref) = (&cluster, &stream, &stop);
        let reader =
            scope.spawn(move || run_reader(cluster_ref, stream_ref, reader_delay, stop_ref));

        let reports: Vec<WriterReport> = writer_handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect();
        // Writers are done and flushed; give the reader a dry-tail pass to
        // finish, then release both background threads.
        #[expect(
            clippy::disallowed_methods,
            reason = "pacing: the end-of-run dry-tail grace; retries nothing"
        )]
        std::thread::sleep(Duration::from_secs(1));
        stop.store(true, Ordering::Release);
        let samples = sampler.join().expect("sampler thread");
        let seen = reader.join().expect("reader thread");
        (reports, samples, seen)
    });

    // Exactly-once: every acked event appears in the read-back exactly once,
    // and nothing appears twice (a retried-but-unacked event may legally
    // appear once).
    let mut acked = 0u64;
    let mut errors = 0u64;
    for report in &reports {
        errors += report.errors;
        for payload in &report.acked {
            acked += 1;
            match seen.get(payload).copied() {
                Some(1) => {}
                Some(n) => panic!("acked event read {n} times: {payload}"),
                None => panic!("acked event lost: {payload}"),
            }
        }
    }
    if let Some((payload, n)) = seen.iter().find(|(_, &n)| n > 1) {
        panic!("event duplicated in read-back ({n} copies): {payload}");
    }

    // Summary statistics exclude the warmup window; the timeline reports
    // every second so the excluded startup transient stays visible.
    let overall = Histogram::new();
    for b in &buckets[cfg.warmup_secs()..] {
        overall.merge_from(b);
    }
    let timeline = build_timeline(&buckets, &samples, cfg.seconds as usize);
    let overall_p50_ms = overall.percentile(50.0) as f64 / 1e6;
    let (spikes, unattributed) = classify_spikes(&timeline, cfg.warmup_secs(), overall_p50_ms);
    let summary = summarize(
        &cfg,
        &timeline,
        &overall,
        acked,
        errors,
        spikes,
        unattributed,
    );
    let path = write_report(&summary, &timeline);

    let mut table = FigureTable::new(
        "soak",
        "Soak run (latency from scheduled slot, ms)",
        &[
            "profile", "secs", "events", "errors", "p50", "p99", "p999", "disp", "spikes",
            "unattrib",
        ],
    );
    table.row(vec![
        PROFILE.to_string(),
        cfg.seconds.to_string(),
        acked.to_string(),
        errors.to_string(),
        fmt(summary.p50_ms, 3),
        fmt(summary.p99_ms, 3),
        fmt(summary.p999_ms, 3),
        fmt(summary.p999_ms / summary.p50_ms.max(f64::MIN_POSITIVE), 1),
        spikes.to_string(),
        unattributed.to_string(),
    ]);
    table.emit();
    emit_metrics_snapshot("soak", &cluster.metrics().snapshot());
    println!(
        "soak complete: {acked} acked events, {} read back, report at {}",
        seen.len(),
        path.display()
    );
    println!(
        "soak-gate: p50={}ms p90_second_p999={}ms spikes={}/{} unattributed={}",
        fmt(summary.p50_ms, 3),
        fmt(summary.p90_second_p999_ms, 3),
        summary.spike_seconds,
        summary.measured_seconds,
        summary.unattributed_spike_seconds,
    );
    let failures = gate(&summary);
    if failures.is_empty() {
        println!("soak-gate: pass");
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        println!("  FAIL  {f}");
    }
    println!("soak-gate: FAILED");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy smoke run's summary.
    fn healthy() -> Summary {
        Summary {
            seconds: 35,
            warmup_seconds: 7,
            writers: 4,
            events: 21000,
            errors: 0,
            p50_ms: 1.5,
            p99_ms: 6.0,
            p999_ms: 12.0,
            measured_seconds: 28,
            p90_second_p999_ms: 9.0,
            worst_second_p999_ms: 20.0,
            spike_seconds: 2,
            unattributed_spike_seconds: 0,
            timeline_rows: 35,
        }
    }

    #[test]
    fn a_healthy_run_passes() {
        assert!(gate(&healthy()).is_empty());
    }

    #[test]
    fn the_tail_bound_is_absolute() {
        // The bound is in milliseconds, whatever the median: a faster p50
        // does not turn the same tail into a failure.
        let fast = Summary {
            p50_ms: 0.25,
            ..healthy()
        };
        assert!(gate(&fast).is_empty());
        let with_p90 = |ms: f64| Summary {
            p90_second_p999_ms: ms,
            ..healthy()
        };
        assert!(gate(&with_p90(50.0)).is_empty());
        assert_eq!(gate(&with_p90(51.0)).len(), 1);
    }

    #[test]
    fn a_single_bad_second_does_not_fail() {
        // One collision second blows up the worst-second and overall-p999
        // stats, but the p90 second stays healthy — the gate must absorb
        // it, not flake.
        let one_bad = Summary {
            p999_ms: 265.0,
            worst_second_p999_ms: 274.0,
            ..healthy()
        };
        assert!(gate(&one_bad).is_empty());
    }

    #[test]
    fn a_collapsed_schedule_fails_despite_a_flat_tail() {
        // The collapse regime: every latency balloons together, so the tail
        // sits on the median — only the p50 ceiling catches it.
        let collapsed = Summary {
            p50_ms: 2900.0,
            p999_ms: 5800.0,
            ..healthy()
        };
        assert_eq!(gate(&collapsed).len(), 1);
        let at_ceiling = Summary {
            p50_ms: 250.0,
            ..healthy()
        };
        assert!(gate(&at_ceiling).is_empty());
        let over_ceiling = Summary {
            p50_ms: 251.0,
            ..healthy()
        };
        assert_eq!(gate(&over_ceiling).len(), 1);
    }

    #[test]
    fn an_unattributed_spike_fails() {
        let unattributed = Summary {
            unattributed_spike_seconds: 1,
            ..healthy()
        };
        assert_eq!(gate(&unattributed).len(), 1);
    }

    #[test]
    fn no_events_or_no_timeline_fails() {
        let no_events = Summary {
            events: 0,
            ..healthy()
        };
        assert_eq!(gate(&no_events).len(), 1);
        let no_timeline = Summary {
            timeline_rows: 0,
            ..healthy()
        };
        assert_eq!(gate(&no_timeline).len(), 1);
    }
}

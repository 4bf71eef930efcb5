//! Every metric the benchmark prints, by name: the four end-to-end metrics a
//! user of the system sees, and the per-layer metrics of the traced run.
//!
//! Per-layer values come from three places, all outside the layers: spans
//! the harness records around its own calls, probes (`probes.rs`), and the
//! registry the cluster already keeps (differences between a snapshot taken
//! when the window opens and one taken when it has drained).

use pravega_common::metrics::Snapshot;

use crate::event::FRAME_PREFIX_BYTES;
use crate::probes::{Probed, Sizes};
use crate::stats::{is_traced_sub_window, percentile, summarize, Reported};
use crate::trace::durations_of;
use crate::workloads::{Load, Reading, RunOutput, Spec};

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What `--trace 0` prints. What `latency_*` and `throughput_mb_s` measure
/// is the workload's own headline (see `Spec::latency_is`).
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", "lower"),
    def("latency_p50_ms", "ms", "lower"),
    def("latency_p99_ms", "ms", "lower"),
    def("throughput_mb_s", "MB/s", "higher"),
];

/// What `--trace 1` prints. A value of 0 on a metric that is a ratio or a
/// reader-side time means the workload does not exercise that layer.
pub const PER_LAYER: [MetricDef; 63] = [
    def("client.append_p50_ms", "ms", "lower"),
    def("client.append_p99_ms", "ms", "lower"),
    def("client.ingest_mb_s", "MB/s", "higher"),
    def("client.e2e_p50_ms", "ms", "lower"),
    def("client.e2e_p99_ms", "ms", "lower"),
    def("client.read_mb_s", "MB/s", "higher"),
    def("client.writer.enqueue_ns", "ns", "lower"),
    def("client.writer.batch_bytes_mean", "B", "higher"),
    def("client.writer.rtt_us_mean", "us", "lower"),
    def("client.reader.read_next_ns", "ns", "lower"),
    def("common.crc32c.mib_s", "MiB/s", "higher"),
    def("common.protocol.encode_append_ns", "ns", "lower"),
    def("common.protocol.decode_append_ns", "ns", "lower"),
    def("common.protocol.decode_read_ns", "ns", "lower"),
    def("common.tcp.rtt_us", "us", "lower"),
    def("common.tcp.stream_mib_s", "MiB/s", "higher"),
    def("segmentstore.frontend.append_rtt_us", "us", "lower"),
    def("segmentstore.container.append_us_p50", "us", "lower"),
    def("segmentstore.container.append_mib_s", "MiB/s", "higher"),
    def("segmentstore.container.read_hit_us", "us", "lower"),
    def("segmentstore.container.read_miss_us", "us", "lower"),
    def("segmentstore.dataframe.build_ns_per_op", "ns", "lower"),
    def("segmentstore.dataframe.decode_ns_per_op", "ns", "lower"),
    def("segmentstore.cache.append_ns", "ns", "lower"),
    def("segmentstore.cache.get_64k_ns", "ns", "lower"),
    def("segmentstore.readindex.append_ns", "ns", "lower"),
    def("segmentstore.readindex.read_ns", "ns", "lower"),
    def("segmentstore.readindex.hit_ratio", "ratio", "higher"),
    def("segmentstore.durablelog.ops_per_frame", "count", "higher"),
    def("segmentstore.durablelog.frame_bytes_mean", "B", "higher"),
    def("segmentstore.durablelog.batch_delay_us_mean", "us", "lower"),
    def("segmentstore.durablelog.wal_append_us_mean", "us", "lower"),
    def("segmentstore.storagewriter.drain_s", "s", "lower"),
    def(
        "segmentstore.storagewriter.flush_lag_bytes_max",
        "B",
        "lower",
    ),
    def("segmentstore.stalls.flush_ms_per_s", "ms/s", "lower"),
    def("segmentstore.stalls.truncation_ms_per_s", "ms/s", "lower"),
    def("segmentstore.stalls.throttle_ms_per_s", "ms/s", "lower"),
    def("wal.ledger.append_us_p50", "us", "lower"),
    def("wal.ledger.append_mib_s", "MiB/s", "higher"),
    def("wal.journal.append_us", "us", "lower"),
    def("wal.bookie.envelope_ns", "ns", "lower"),
    def("wal.journal.syncs_per_kevent", "count", "lower"),
    def("wal.journal.group_commit_mean", "count", "higher"),
    def("lts.chunked.write_mib_s", "MiB/s", "higher"),
    def("lts.chunked.read_mib_s", "MiB/s", "higher"),
    def("lts.chunked.read_far_us", "us", "lower"),
    def("lts.format.encode_block_mib_s", "MiB/s", "higher"),
    def("lts.format.decode_block_mib_s", "MiB/s", "higher"),
    def("lts.read_amp", "ratio", "lower"),
    def("lts.write_amp", "ratio", "lower"),
    def("controller.create_stream_us", "us", "lower"),
    def("controller.current_segments_us", "us", "lower"),
    def("proc.cpu_us_per_event", "us", "lower"),
    def("proc.rss_peak_mib", "MiB", "lower"),
    def("gen.late_p99_us", "us", "lower"),
    def("gen.offered_ev_s", "1/s", "higher"),
    def("trace.overhead_pct", "%", "lower"),
    def("trace.spans", "count", "higher"),
    def("budget.layer_sum_us_per_event", "us", "lower"),
    def("budget.unaccounted_pct", "%", "lower"),
    def("budget.wait_sum_ms", "ms", "lower"),
    def("budget.wait_unaccounted_pct", "%", "lower"),
    def("check.full_replays", "count", "higher"),
];

/// What the reader asks a store for per request (`READ_CHUNK`, private to
/// the client) and the read-reply probe therefore decodes.
const READ_REPLY_BYTES: f64 = 256.0 * 1024.0;
/// `WriterConfig::default().max_batch_delay`, which every workload uses.
const WRITER_MAX_BATCH_DELAY_MS: f64 = 5.0;

fn window_s(out: &RunOutput) -> f64 {
    (out.window.end_ns - out.window.start_ns) as f64 / 1e9
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Line {
    pub def: MetricDef,
    pub reported: Reported,
}

/// Nanoseconds to milliseconds.
const MS: f64 = 1e-6;
/// Bytes (per second, from `Window::rate`) to megabytes.
const MB: f64 = 1e-6;

struct Headline<'a> {
    latency: &'a [(u64, u64)],
    throughput: &'a [(u64, u64)],
}

/// The samples behind the workload's own `latency_*` and `throughput_mb_s`.
fn headline<'a>(spec: &Spec, out: &'a RunOutput) -> Headline<'a> {
    let read = out.read.as_ref();
    let delivered: &[(u64, u64)] = read.map_or(&[], |r| &r.delivered_at);
    match spec.reading {
        Reading::None => Headline {
            latency: &out.write.latency,
            throughput: &out.write.acked_at,
        },
        Reading::Tail => Headline {
            latency: read.map_or(&[], |r| &r.e2e),
            throughput: delivered,
        },
        Reading::ColdReplay { .. } => Headline {
            latency: &out.write.latency,
            throughput: delivered,
        },
    }
}

pub fn end_to_end(spec: &Spec, out: &RunOutput) -> Vec<Line> {
    let w = out.window;
    let h = headline(spec, out);
    let values = [
        summarize(&out.setup_s, out.setup_s.len()),
        w.percentile(h.latency, 50.0, MS),
        w.percentile(h.latency, 99.0, MS),
        w.rate(h.throughput, MB),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&def, reported)| Line { def, reported })
        .collect()
}

/// Registry differences over the window.
struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let at = |s: &Snapshot| s.counter(name).unwrap_or(0);
        at(self.after).saturating_sub(at(self.before)) as f64
    }

    /// `(count, sum)` a histogram gained.
    fn histogram(&self, name: &str) -> (f64, f64) {
        let at = |s: &Snapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c1, s1) = at(self.after);
        let (c0, s0) = at(self.before);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }

    fn mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        ratio(sum, count)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The sizes the probes should use for this run.
pub fn probe_sizes(spec: &Spec, out: &RunOutput) -> Sizes {
    let d = Delta {
        before: &out.before,
        after: &out.snapshot,
    };
    let event = spec.event_bytes + FRAME_PREFIX_BYTES;
    let block = (d.mean("client.writer.batch_bytes") as usize).clamp(event, 1 << 20);
    let frame = (d.mean("segmentstore.durablelog.frame_bytes") as usize).clamp(block, 1 << 20);
    Sizes {
        event,
        block,
        frame,
    }
}

pub fn per_layer(spec: &Spec, out: &RunOutput, probed: &Probed) -> Result<Vec<Line>, String> {
    let w = out.window;
    let d = Delta {
        before: &out.before,
        after: &out.snapshot,
    };
    let sizes = probe_sizes(spec, out);
    let measured_s = (w.end_ns - w.measured_start_ns()) as f64 / 1e9;
    let window_s = window_s(out);
    let read = out.read.as_ref();
    let e2e: &[(u64, u64)] = match (spec.reading, read) {
        (Reading::Tail, Some(r)) => &r.e2e,
        _ => &[],
    };
    let delivered: &[(u64, u64)] = read.map_or(&[], |r| &r.delivered_at);

    // The median, not the mean: one hypervisor pause inside a 5 µs call
    // would otherwise add its 50 ms to six thousand samples' average.
    let span_p50 = |name: &str| {
        let mut v = durations_of(&out.spans, name);
        Reported::single(percentile(&mut v, 50.0).unwrap_or(0) as f64, v.len())
    };

    // Operations the measured part of the window completed: appends acked
    // plus events the timed reader delivered.
    let acked_events: usize = w.split(&out.write.acked_at).iter().map(Vec::len).sum();
    let read_events: usize = w.split(delivered).iter().map(Vec::len).sum();
    let operations = (acked_events + read_events).max(1) as f64;
    let system_cpu_us = out
        .sampled
        .cpu_us
        .saturating_sub(out.write.generator_cpu_us) as f64;
    let cpu_us_per_event = system_cpu_us / operations;

    let acked_total = out.write.acked_at.len() as f64;
    let acked_bytes = acked_total * spec.event_bytes as f64;
    let delivered_bytes: f64 = delivered.iter().map(|&(_, b)| b as f64).sum();
    let hits = d.counter("segmentstore.readindex.cache_hits");
    let misses = d.counter("segmentstore.readindex.cache_misses");
    let (frames, frame_bytes) = d.histogram("segmentstore.durablelog.frame_bytes");
    let (blocks, _) = d.histogram("client.writer.batch_bytes");

    let mut late: Vec<u64> = w.split(&out.write.late).into_iter().flatten().collect();
    let offered_ev_s = match spec.load {
        Load::Paced { .. } => out.write.late.len() as f64 / window_s,
        Load::Saturate { .. } => (acked_total + out.verdict.unacked as f64) / window_s,
    };

    // Traced against untraced sub-windows of this same run.
    let h = headline(spec, out);
    let traced = w.percentile_where(is_traced_sub_window, h.latency, 50.0, MS);
    let untraced = w.percentile_where(|i| !is_traced_sub_window(i), h.latency, 50.0, MS);
    let overhead_pct = ratio(traced.value - untraced.value, untraced.value) * 100.0;

    let budget = Budget::new(spec, sizes, probed, &d, out, cpu_us_per_event);

    let one = |v: f64| Reported::single(v, 1);
    let stall_ms_per_s = |class: usize| one(out.sampled.stall_ns[class] as f64 / 1e6 / measured_s);
    let lines: Vec<(&str, Reported)> = vec![
        (
            "client.append_p50_ms",
            w.percentile(&out.write.latency, 50.0, MS),
        ),
        (
            "client.append_p99_ms",
            w.percentile(&out.write.latency, 99.0, MS),
        ),
        ("client.ingest_mb_s", w.rate(&out.write.acked_at, MB)),
        ("client.e2e_p50_ms", w.percentile(e2e, 50.0, MS)),
        ("client.e2e_p99_ms", w.percentile(e2e, 99.0, MS)),
        ("client.read_mb_s", w.rate(delivered, MB)),
        ("client.writer.enqueue_ns", span_p50("client.write_event")),
        (
            "client.writer.batch_bytes_mean",
            one(d.mean("client.writer.batch_bytes")),
        ),
        (
            "client.writer.rtt_us_mean",
            one(d.mean("client.writer.rtt_nanos") / 1e3),
        ),
        ("client.reader.read_next_ns", span_p50("client.read_next")),
        (
            "segmentstore.readindex.hit_ratio",
            one(ratio(hits, hits + misses)),
        ),
        (
            "segmentstore.durablelog.ops_per_frame",
            one(ratio(blocks, frames)),
        ),
        (
            "segmentstore.durablelog.frame_bytes_mean",
            one(ratio(frame_bytes, frames)),
        ),
        (
            "segmentstore.durablelog.batch_delay_us_mean",
            one(d.mean("segmentstore.durablelog.batch_delay_nanos") / 1e3),
        ),
        (
            "segmentstore.durablelog.wal_append_us_mean",
            one(d.mean("segmentstore.durablelog.wal_append_nanos") / 1e3),
        ),
        ("segmentstore.storagewriter.drain_s", one(out.drain_s)),
        (
            "segmentstore.storagewriter.flush_lag_bytes_max",
            one(out.sampled.flush_lag_bytes_max as f64),
        ),
        (
            "wal.journal.syncs_per_kevent",
            one(ratio(d.counter("wal.journal.syncs"), acked_total / 1e3)),
        ),
        (
            "wal.journal.group_commit_mean",
            one(d.mean("wal.journal.group_commit_entries")),
        ),
        (
            "lts.read_amp",
            one(ratio(d.counter("lts.chunked.read_bytes"), delivered_bytes)),
        ),
        (
            "lts.write_amp",
            one(ratio(d.counter("lts.chunked.write_bytes"), acked_bytes)),
        ),
        ("proc.cpu_us_per_event", one(cpu_us_per_event)),
        (
            "proc.rss_peak_mib",
            one(crate::workloads::rss_peak_kib() as f64 / 1024.0),
        ),
        (
            "gen.late_p99_us",
            Reported::single(
                percentile(&mut late, 99.0).unwrap_or(0) as f64 / 1e3,
                late.len(),
            ),
        ),
        ("gen.offered_ev_s", one(offered_ev_s)),
        ("trace.overhead_pct", one(overhead_pct)),
        ("trace.spans", one(out.spans.len() as f64)),
        ("budget.layer_sum_us_per_event", one(budget.cpu_sum_us())),
        ("budget.unaccounted_pct", one(budget.cpu_unaccounted_pct())),
        ("budget.wait_sum_ms", one(budget.wait_sum_ms())),
        (
            "budget.wait_unaccounted_pct",
            one(budget.wait_unaccounted_pct()),
        ),
        (
            "check.full_replays",
            one(read.map_or(0, |r| r.full_passes) as f64),
        ),
        // In `STALL_CLASSES` order.
        ("segmentstore.stalls.flush_ms_per_s", stall_ms_per_s(0)),
        ("segmentstore.stalls.truncation_ms_per_s", stall_ms_per_s(1)),
        ("segmentstore.stalls.throttle_ms_per_s", stall_ms_per_s(2)),
    ];
    // Whatever is not derived above is a probe's. A name that neither has
    // is a metric the program promises in `--list` and does not measure.
    PER_LAYER
        .iter()
        .map(|&def| {
            lines
                .iter()
                .find(|(n, _)| *n == def.name)
                .map(|(_, r)| *r)
                .or_else(|| probed.get(def.name).map(|v| Reported::single(v, 1)))
                .map(|reported| Line { def, reported })
                .ok_or(format!("no value for per-layer metric {}", def.name))
        })
        .collect()
}

/// Whether the layer costs add up to what the whole costs: probe cost times
/// how often the layer runs per event, against the CPU one event takes
/// (the throughput side) and against the median append latency (the waiting
/// side). Printed, not gated; the README names the largest missing term.
pub struct Budget {
    /// `(term, µs of CPU per appended event)`.
    pub cpu_terms: Vec<(&'static str, f64)>,
    pub cpu_us_per_event: f64,
    /// `(term, ms of waiting at the median)`.
    pub wait_terms: Vec<(&'static str, f64)>,
    pub append_p50_ms: f64,
}

impl Budget {
    fn new(
        spec: &Spec,
        sizes: Sizes,
        probed: &Probed,
        d: &Delta<'_>,
        out: &RunOutput,
        cpu_us_per_event: f64,
    ) -> Self {
        let events_per_block = (sizes.block as f64 / sizes.event as f64).max(1.0);
        let events_per_frame = (sizes.frame as f64 / sizes.event as f64).max(1.0);
        let ns_per_byte = |mib_s: f64| ratio(1e9, mib_s * 1024.0 * 1024.0);
        let crc_ns_per_byte = ns_per_byte(probed.value("common.crc32c.mib_s"));
        let enqueue_ns = percentile(&mut durations_of(&out.spans, "client.write_event"), 50.0)
            .unwrap_or(0) as f64;
        let write_amp = ratio(
            d.counter("lts.chunked.write_bytes"),
            out.write.acked_at.len() as f64 * spec.event_bytes as f64,
        );
        // Per operation: an append's terms weigh by the appends' share of
        // the operations, a delivered event's by the reads' share.
        let appends = out.write.acked_at.len() as f64;
        let delivered: &[(u64, u64)] = out.read.as_ref().map_or(&[], |r| &r.delivered_at);
        let reads = delivered.len() as f64;
        let (append_share, read_share) = (
            ratio(appends, appends + reads),
            ratio(reads, appends + reads),
        );
        let read_amp = ratio(
            d.counter("lts.chunked.read_bytes"),
            delivered.iter().map(|&(_, b)| b as f64).sum(),
        );
        let events_per_read = READ_REPLY_BYTES / sizes.event as f64;
        let cpu_terms = vec![
            ("client.write_event", append_share * enqueue_ns / 1e3),
            (
                "common.protocol encode+decode of the append block",
                append_share
                    * (probed.value("common.protocol.encode_append_ns")
                        + probed.value("common.protocol.decode_append_ns"))
                    / events_per_block
                    / 1e3,
            ),
            (
                "segmentstore.container append (frame build, cache, index)",
                append_share
                    * sizes.event as f64
                    * ns_per_byte(probed.value("segmentstore.container.append_mib_s"))
                    / 1e3,
            ),
            (
                // The ledger envelope once, then each of three journals
                // checksums the entry again.
                "wal entry checksums (1 envelope + 3 journals)",
                append_share * 4.0 * sizes.frame as f64 * crc_ns_per_byte / events_per_frame / 1e3,
            ),
            (
                "lts chunk write (block encode + store)",
                append_share
                    * sizes.event as f64
                    * write_amp
                    * ns_per_byte(probed.value("lts.chunked.write_mib_s"))
                    / 1e3,
            ),
            (
                // Encoding the reply costs what decoding it does: both are
                // one checksum pass over the same bytes.
                "common.protocol encode+decode of the read reply",
                read_share * 2.0 * probed.value("common.protocol.decode_read_ns")
                    / events_per_read
                    / 1e3,
            ),
            (
                "lts chunk read (fetch + verify)",
                read_share
                    * sizes.event as f64
                    * read_amp
                    * ns_per_byte(probed.value("lts.chunked.read_mib_s"))
                    / 1e3,
            ),
        ];

        // An event joins its WAL frame, on average, half-way through the
        // time the frame stays open; the registry times the frame from its
        // first operation to the WAL ack.
        let batch_ms = d.mean("segmentstore.durablelog.batch_delay_nanos") / 1e6;
        let wal_ms = d.mean("segmentstore.durablelog.wal_append_nanos") / 1e6;
        let mut late: Vec<u64> = out.write.late.iter().map(|&(_, l)| l).collect();
        // The writer closes a block when it holds `rate x RTT / 2` bytes or
        // has been open for its 5 ms `max_batch_delay`; an event waits half
        // of that on average. Modelled from the observed block size, since
        // the writer keeps no instrument for it.
        let per_segment_ev_s =
            ratio(out.write.late.len() as f64, window_s(out)) / spec.segments as f64;
        let block_open_ms = ratio(events_per_block - 1.0, per_segment_ev_s) * 1e3;
        let wait_terms = vec![
            (
                "generator behind its slot (p50)",
                percentile(&mut late, 50.0).unwrap_or(0) as f64 / 1e6,
            ),
            (
                "client block open (modelled: half the fill time, at most 5 ms)",
                block_open_ms.min(WRITER_MAX_BATCH_DELAY_MS) / 2.0,
            ),
            (
                "tcp + frontend (frontend probe less container probe)",
                ((probed.value("segmentstore.frontend.append_rtt_us")
                    - probed.value("segmentstore.container.append_us_p50"))
                    / 1e3)
                    .max(0.0),
            ),
            (
                "durable log: frame open to WAL ack, less half the batch delay",
                (wal_ms - batch_ms / 2.0).max(0.0),
            ),
        ];
        let append_p50_ms = out.window.percentile(&out.write.latency, 50.0, MS).value;
        Budget {
            cpu_terms,
            cpu_us_per_event,
            wait_terms,
            append_p50_ms,
        }
    }

    pub fn cpu_sum_us(&self) -> f64 {
        self.cpu_terms.iter().map(|(_, v)| v).sum()
    }

    pub fn cpu_unaccounted_pct(&self) -> f64 {
        ratio(
            self.cpu_us_per_event - self.cpu_sum_us(),
            self.cpu_us_per_event,
        ) * 100.0
    }

    pub fn wait_sum_ms(&self) -> f64 {
        self.wait_terms.iter().map(|(_, v)| v).sum()
    }

    pub fn wait_unaccounted_pct(&self) -> f64 {
        ratio(self.append_p50_ms - self.wait_sum_ms(), self.append_p50_ms) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn metric_names_and_units_fit_the_contract_and_are_used_once() {
        let all: Vec<MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for m in &all {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} {}", m.name, m.unit);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
            assert_eq!(
                all.iter().filter(|o| o.name == m.name).count(),
                1,
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it from drifting away
    /// from what the program prints.
    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let json = include_str!("../../BENCHMARK.json");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the program does not print"
        );
        for w in &crate::workloads::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(
            json.matches("\"why\":").count(),
            crate::workloads::WORKLOADS.len()
        );
    }
}

//! The four workloads, the cluster they run on, and the generator threads
//! that drive it. One process, at most two client objects doing timed work
//! per workload (the sandbox has two cores).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pravega_client::{
    BytesSerializer, ClientError, EventStreamReader, EventStreamWriter, WriterConfig,
};
use pravega_common::clock::monotonic_now;
use pravega_common::future::Promise;
use pravega_common::id::ScopedStream;
use pravega_common::metrics::{Histogram, Snapshot};
use pravega_common::policy::{ScalingPolicy, StreamConfiguration};
use pravega_common::stall::sleep_interruptible;
use pravega_core::{ClusterConfig, LtsKind, PravegaCluster, TransportKind};
use pravega_lts::ThrottleModel;

use crate::event::{key_names, slot_schedule, EventFactory, EventHeader, KeyDraw};
use crate::stats::{Window, TRACED_SUB_WINDOWS};
use crate::trace::{Recorder, Span, NO_PARENT};
use crate::verify::{Verdict, Verifier, WriterLedger};

/// The stated device delay of one bookie journal sync. With instant syncs
/// the journal's group commit has nothing to amortise.
pub const JOURNAL_SYNC: Duration = Duration::from_micros(250);
/// LTS model on `catchup-cold` only: one shared 160 MiB/s pipe, 1 ms per op.
pub const COLD_LTS: ThrottleModel = ThrottleModel {
    bandwidth_bytes_per_sec: 160 * 1024 * 1024,
    per_op_latency: Duration::from_millis(1),
};
/// Block-cache buffers per container on `catchup-cold` (2 MiB each): 16 MiB
/// across the four containers, half of the backlog the replay walks.
pub const COLD_CACHE_BUFFERS: u16 = 2;
/// Events handed to the ack collector but not yet waited on. Sized for a
/// multi-second stall at the highest paced rate, so the sender never blocks
/// on the collector.
const ACK_QUEUE_CAPACITY: usize = 65_536;
/// The open-loop sender sleeps to within this of its slot, then spins. A
/// sleep in this sandbox overshoots by 0.35 ms at the median and 3 ms at
/// p99, against gaps of 0.2 to 0.5 ms between slots, so in effect the sender
/// spins (yielding) and only the idle stretches before a window sleep.
const SPIN_BEFORE_SLOT: Duration = Duration::from_millis(5);
/// An ack that has not come in this long counts as failed.
const ACK_TIMEOUT: Duration = Duration::from_secs(30);
/// A reader that delivers nothing for this long once writing has ended is
/// done (whatever is still unread is then reported missing).
const READ_IDLE_LIMIT: Duration = Duration::from_secs(3);
const READ_POLL: Duration = Duration::from_millis(100);
const TIERING_TIMEOUT: Duration = Duration::from_secs(60);
/// The set-up is done at least this often per run, and `setup_s` is the
/// median: one set-up of the light workloads takes 10 to 40 ms, which a
/// single hypervisor pause doubles.
const SETUP_REPEATS_MIN: usize = 3;
/// ... and on until this much time has gone into it or `SETUP_REPEATS_MAX`
/// are done, so the cheap set-ups are repeated more often than the 2 s one.
const SETUP_REPEAT_BUDGET: Duration = Duration::from_millis(800);
const SETUP_REPEATS_MAX: usize = 15;
const SCOPE: &str = "bench";

/// Harness time: nanoseconds since the process started measuring.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    pub fn start() -> Self {
        Clock {
            origin: monotonic_now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sleeps to [`SPIN_BEFORE_SLOT`] before `due_ns`, then spins on the
    /// clock, yielding the core between looks.
    fn pace_until(&self, due_ns: u64) {
        let now = self.now_ns();
        let spin_ns = SPIN_BEFORE_SLOT.as_nanos() as u64;
        if due_ns > now + spin_ns {
            nap(Duration::from_nanos(due_ns - now - spin_ns));
        }
        while self.now_ns() < due_ns {
            std::thread::yield_now();
        }
    }
}

/// The one sanctioned sleep (`thread::sleep` is the retry module's); nothing
/// here ever needs to cut one short.
pub fn nap(length: Duration) {
    static NEVER: AtomicBool = AtomicBool::new(false);
    sleep_interruptible(length, &NEVER);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Open loop: one sender on a fixed schedule plus one ack collector.
    Paced { events_per_sec: u64 },
    /// Closed loop: each writer keeps `outstanding` events in flight.
    Saturate { writers: u32, outstanding: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reading {
    /// Nothing reads during the timed window.
    None,
    /// One reader in a one-reader group tails the written stream.
    Tail,
    /// One reader replays a tiered backlog of this many events from the
    /// head, again and again, with a fresh reader group per pass.
    ColdReplay { backlog_events: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub segments: u32,
    pub event_bytes: usize,
    pub load: Load,
    pub reading: Reading,
    /// What `latency_*` and `throughput_mb_s` mean on this workload.
    pub latency_is: &'static str,
    pub throughput_is: &'static str,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ingest-paced",
        why: "2000 ev/s of 1 KiB, a tenth of capacity: nothing queues, so append latency is the sum of the waits on the path and per-byte work does not show",
        segments: 4,
        event_bytes: 1024,
        load: Load::Paced {
            events_per_sec: 2_000,
        },
        reading: Reading::None,
        latency_is: "append: scheduled send to ack observed",
        throughput_is: "acked payload",
    },
    Spec {
        name: "ingest-saturate",
        why: "2 closed-loop writers x 512 outstanding 1 KiB events over 16 segments: CPU-bound on two cores, so per-byte work and tiering cost show and waits do not",
        segments: 16,
        event_bytes: 1024,
        load: Load::Saturate {
            writers: 2,
            outstanding: 512,
        },
        reading: Reading::None,
        latency_is: "append: send to ack observed, 1024 events in flight",
        throughput_is: "acked payload",
    },
    Spec {
        name: "tail-small",
        why: "5000 ev/s of 100 B with one tailing reader: per-event cost dominates, and reads come from the cache beside the writes, so batching harder shows as latency",
        segments: 4,
        event_bytes: 100,
        load: Load::Paced {
            events_per_sec: 5_000,
        },
        reading: Reading::Tail,
        latency_is: "end to end: scheduled send to read_next returning the event",
        throughput_is: "payload delivered by read_next",
    },
    Spec {
        name: "catchup-cold",
        why: "one reader replays a 32 MiB tiered backlog through a 16 MiB cache and a 160 MiB/s LTS while 2000 ev/s are appended: the only workload served from LTS",
        segments: 4,
        event_bytes: 1024,
        load: Load::Paced {
            events_per_sec: 2_000,
        },
        reading: Reading::ColdReplay {
            backlog_events: 32 * 1024,
        },
        latency_is: "append beside the replay: scheduled send to ack observed",
        throughput_is: "backlog payload delivered by read_next",
    },
];

pub fn cluster_config(spec: &Spec) -> ClusterConfig {
    let mut config = ClusterConfig {
        transport: TransportKind::Tcp,
        ..ClusterConfig::default()
    };
    config.journal.simulated_sync_latency = JOURNAL_SYNC;
    if let Reading::ColdReplay { .. } = spec.reading {
        config.lts = LtsKind::Throttled(COLD_LTS);
        config.container.cache.max_buffers = COLD_CACHE_BUFFERS;
    }
    config
}

type Writer = EventStreamWriter<Bytes, BytesSerializer>;
type Reader = EventStreamReader<Bytes, BytesSerializer>;
type Ack = Promise<Result<(), ClientError>>;

/// A cluster with its stream created and, for the cold workload, the backlog
/// ingested into it and tiered: everything before the first timed operation.
pub struct Ready {
    pub cluster: PravegaCluster,
    pub written: ScopedStream,
}

pub fn set_up(spec: &Spec, seed: u64, clock: Clock) -> Result<Ready, String> {
    let cluster =
        PravegaCluster::start(cluster_config(spec)).map_err(|e| format!("start cluster: {e}"))?;
    cluster
        .create_scope(SCOPE)
        .map_err(|e| format!("create scope: {e}"))?;
    let written = ScopedStream::new(SCOPE, "written").map_err(|e| format!("stream name: {e}"))?;
    let config = StreamConfiguration::new(ScalingPolicy::fixed(spec.segments));
    cluster
        .create_stream(&written, config)
        .map_err(|e| format!("create stream: {e}"))?;
    if let Reading::ColdReplay { backlog_events } = spec.reading {
        let factory = EventFactory::new(seed, spec.event_bytes);
        let mut writer =
            cluster.create_writer(written.clone(), BytesSerializer, WriterConfig::default());
        let report = closed_loop(
            clock,
            &mut writer,
            &factory,
            seed,
            BACKLOG_WRITER,
            BACKLOG_OUTSTANDING,
            Until::Count(backlog_events),
            Recorder::off(),
        );
        if report.ledger.acked.iter().any(|a| !a) {
            return Err("backlog ingest: an event was not acknowledged".into());
        }
        writer
            .close()
            .map_err(|e| format!("close backlog writer: {e}"))?;
        cluster
            .wait_for_tiering(TIERING_TIMEOUT)
            .map_err(|e| format!("backlog tiering: {e}"))?;
    }
    Ok(Ready { cluster, written })
}

/// The backlog is writer 0's; the writer that appends beside the replay, into
/// the same stream and so the same containers, is writer 1.
const BACKLOG_WRITER: u32 = 0;
const BACKLOG_OUTSTANDING: usize = 512;

/// One event on its way from the sender to the ack collector.
struct Pending {
    seq: u64,
    due_ns: u64,
    ack: Ack,
}

#[derive(Debug, Default)]
pub struct WriteReport {
    /// `(due or send time, latency to ack)` per acked event.
    pub latency: Vec<(u64, u64)>,
    /// `(ack time, payload bytes)` per acked event.
    pub acked_at: Vec<(u64, u64)>,
    pub ledger: WriterLedger,
    /// `(slot, nanoseconds the send ran behind it)` per open-loop send.
    pub late: Vec<(u64, u64)>,
    /// CPU the open-loop sender burnt pacing itself over the measured part
    /// of the window: the generator's, not the system's.
    pub generator_cpu_us: u64,
    pub spans: Vec<Span>,
}

impl WriteReport {
    fn record(&mut self, seq: u64, from_ns: u64, now_ns: u64, ok: bool, bytes: usize) {
        if self.ledger.acked.len() <= seq as usize {
            self.ledger.acked.resize(seq as usize + 1, false);
        }
        if ok {
            self.ledger.acked[seq as usize] = true;
            self.latency.push((from_ns, now_ns.saturating_sub(from_ns)));
            self.acked_at.push((now_ns, bytes as u64));
        }
    }

    pub fn merge(&mut self, other: WriteReport) {
        self.latency.extend(other.latency);
        self.acked_at.extend(other.acked_at);
        self.late.extend(other.late);
        self.generator_cpu_us += other.generator_cpu_us;
        self.spans.extend(other.spans);
    }
}

/// The open-loop sender: hands event `i` to the writer at slot `i` whatever
/// the acks are doing, and passes the promise on to the collector.
#[allow(clippy::too_many_arguments)]
fn paced_sender(
    clock: Clock,
    writer: &mut Writer,
    factory: &EventFactory,
    seed: u64,
    writer_no: u32,
    slots: &[u64],
    window: Window,
    acks: SyncSender<Pending>,
    mut rec: Recorder,
) -> WriteReport {
    let names = key_names();
    let mut keys = KeyDraw::new(seed, writer_no);
    let mut report = WriteReport::default();
    report.late.reserve(slots.len());
    let mut cpu_from = None;
    for (seq, slot) in slots.iter().enumerate() {
        let due_ns = window.start_ns + slot;
        clock.pace_until(due_ns);
        if cpu_from.is_none() && due_ns >= window.measured_start_ns() {
            cpu_from = Some(thread_cpu_us());
        }
        let key = keys.next_key();
        let sent_ns = clock.now_ns();
        report.late.push((due_ns, sent_ns.saturating_sub(due_ns)));
        // Stamped with the slot, not the send: a sender the system held up
        // must not make the events it sends late look young.
        let payload = factory.build(EventHeader {
            writer: writer_no,
            key,
            seq: seq as u64,
            created_ns: due_ns,
        });
        let ack = writer.write_event(&names[key as usize], &payload);
        if rec.active(sent_ns) {
            rec.push("client.write_event", sent_ns, clock.now_ns(), seq as u64);
        }
        let pending = Pending {
            seq: seq as u64,
            due_ns,
            ack,
        };
        if acks.send(pending).is_err() {
            break;
        }
    }
    report.generator_cpu_us = cpu_from.map_or(0, |from| thread_cpu_us().saturating_sub(from));
    report.spans = rec.into_spans();
    report
}

/// Waits for each ack in send order, on a thread of its own so that an ack
/// which stalls never delays the next send.
fn collect_acks(
    clock: Clock,
    acks: Receiver<Pending>,
    event_bytes: usize,
    mut rec: Recorder,
) -> WriteReport {
    let mut report = WriteReport::default();
    while let Ok(p) = acks.recv() {
        let wait_from = clock.now_ns();
        let ok = matches!(p.ack.wait_for(ACK_TIMEOUT), Ok(Ok(())));
        let now = clock.now_ns();
        rec.push("client.ack_wait", wait_from, now, p.seq);
        report.record(p.seq, p.due_ns, now, ok, event_bytes);
    }
    report.spans = rec.into_spans();
    report
}

#[derive(Debug, Clone, Copy)]
enum Until {
    Time(u64),
    Count(usize),
}

/// A closed-loop writer: sends as fast as `write_event` returns, keeping at
/// most `outstanding` events unacknowledged.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    clock: Clock,
    writer: &mut Writer,
    factory: &EventFactory,
    seed: u64,
    writer_no: u32,
    outstanding: usize,
    until: Until,
    mut rec: Recorder,
) -> WriteReport {
    let names = key_names();
    let mut keys = KeyDraw::new(seed, writer_no);
    let mut report = WriteReport::default();
    let mut inflight: VecDeque<(u64, u64, Ack)> = VecDeque::with_capacity(outstanding);
    let bytes = factory.event_bytes();
    let mut seq = 0u64;
    loop {
        let sent_ns = clock.now_ns();
        let more = match until {
            Until::Time(end_ns) => sent_ns < end_ns,
            Until::Count(n) => (seq as usize) < n,
        };
        if !more {
            break;
        }
        let key = keys.next_key();
        let payload = factory.build(EventHeader {
            writer: writer_no,
            key,
            seq,
            created_ns: sent_ns,
        });
        let ack = writer.write_event(&names[key as usize], &payload);
        if rec.active(sent_ns) {
            rec.push("client.write_event", sent_ns, clock.now_ns(), seq);
        }
        inflight.push_back((seq, sent_ns, ack));
        seq += 1;
        // Reap what has completed without blocking.
        while let Some((s, from, ack)) = inflight.front() {
            let Some(r) = ack.try_take() else { break };
            report.record(*s, *from, clock.now_ns(), matches!(r, Ok(Ok(()))), bytes);
            inflight.pop_front();
        }
        // Full: the caller is blocked until the oldest event is durable.
        if inflight.len() >= outstanding {
            if let Some((s, from, ack)) = inflight.pop_front() {
                let wait_from = clock.now_ns();
                let r = ack.wait_for(ACK_TIMEOUT);
                let now = clock.now_ns();
                rec.push("client.ack_wait", wait_from, now, s);
                report.record(s, from, now, matches!(r, Ok(Ok(()))), bytes);
            }
        }
    }
    for (s, from, ack) in inflight {
        let ok = matches!(ack.wait_for(ACK_TIMEOUT), Ok(Ok(())));
        report.record(s, from, clock.now_ns(), ok, bytes);
    }
    report.spans = rec.into_spans();
    report
}

#[derive(Debug, Default)]
pub struct ReadReport {
    /// `(created, created → delivered)` per event.
    pub e2e: Vec<(u64, u64)>,
    /// `(delivery time, payload bytes)` per event.
    pub delivered_at: Vec<(u64, u64)>,
    pub verdict: Verdict,
    pub spans: Vec<Span>,
    /// Passes over the backlog that ran to its end (cold replay only).
    pub full_passes: u32,
    pub error: Option<String>,
}

fn open_reader(
    cluster: &PravegaCluster,
    stream: &ScopedStream,
    group_name: &str,
) -> Result<Reader, String> {
    let group = cluster
        .create_reader_group(SCOPE, group_name, vec![stream.clone()])
        .map_err(|e| format!("create reader group {group_name}: {e}"))?;
    Ok(cluster.create_reader(&group, "reader-0", BytesSerializer))
}

/// Reads `stream` from its head in a one-reader group and checks it against
/// `ledgers`. Ends once every offered event has been delivered, or once
/// writing is done and the stream has stayed dry for [`READ_IDLE_LIMIT`]
/// (what is still unread then counts as missing).
#[allow(clippy::too_many_arguments)]
fn read_stream(
    clock: Clock,
    cluster: &PravegaCluster,
    stream: &ScopedStream,
    group_name: &str,
    factory: &EventFactory,
    offered: &[usize],
    writing_done: &AtomicBool,
    mut rec: Recorder,
) -> (ReadReport, Verifier) {
    let mut report = ReadReport::default();
    let mut verifier = Verifier::new(offered);
    let total: usize = offered.iter().sum();
    let mut reader = match open_reader(cluster, stream, group_name) {
        Ok(r) => r,
        Err(e) => {
            report.error = Some(e);
            return (report, verifier);
        }
    };
    let mut delivered = 0usize;
    let mut idle_since: Option<u64> = None;
    while delivered < total {
        let call_ns = clock.now_ns();
        match reader.read_next(READ_POLL) {
            Ok(Some(ev)) => {
                let now = clock.now_ns();
                rec.push("client.read_next", call_ns, now, delivered as u64);
                let header = factory.parse(&ev.event);
                if let Some(h) = header {
                    report
                        .e2e
                        .push((h.created_ns, now.saturating_sub(h.created_ns)));
                }
                report.delivered_at.push((now, ev.event.len() as u64));
                verifier.observe(header);
                delivered += 1;
                idle_since = None;
            }
            Ok(None) => {
                if !writing_done.load(Ordering::Acquire) {
                    continue;
                }
                let now = clock.now_ns();
                if now - *idle_since.get_or_insert(now) > READ_IDLE_LIMIT.as_nanos() as u64 {
                    break;
                }
            }
            Err(e) => {
                report.error = Some(format!("read_next on {stream:?}: {e}"));
                return (report, verifier);
            }
        }
    }
    if let Err(e) = reader.close() {
        report.error = Some(format!("close reader: {e}"));
    }
    report.spans = rec.into_spans();
    (report, verifier)
}

/// Replays the tiered backlog from the head of `stream` until the window
/// closes, each pass in a fresh reader group, checking every pass as it goes.
/// A pass ends when all of the backlog has been delivered; what it meets of
/// the events appended beside it is checked for order and duplicates only.
#[allow(clippy::too_many_arguments)]
fn cold_replay(
    clock: Clock,
    cluster: &PravegaCluster,
    stream: &ScopedStream,
    factory: &EventFactory,
    backlog_events: usize,
    live_offered: usize,
    window: Window,
    mut rec: Recorder,
) -> ReadReport {
    let mut report = ReadReport::default();
    let backlog_ledger = [WriterLedger {
        acked: vec![true; backlog_events],
    }];
    clock.pace_until(window.start_ns);
    let mut pass = 0u32;
    'passes: while clock.now_ns() < window.end_ns {
        let open_ns = clock.now_ns();
        let mut reader = match open_reader(cluster, stream, &format!("cold-{pass}")) {
            Ok(r) => r,
            Err(e) => {
                report.error = Some(e);
                break;
            }
        };
        rec.push("client.open_reader", open_ns, clock.now_ns(), pass as u64);
        let mut verifier = Verifier::new(&[backlog_events, live_offered]);
        let mut backlog_read = 0usize;
        let mut complete = true;
        while backlog_read < backlog_events {
            let call_ns = clock.now_ns();
            if call_ns >= window.end_ns {
                complete = false;
                break;
            }
            match reader.read_next(READ_IDLE_LIMIT) {
                Ok(Some(ev)) => {
                    let now = clock.now_ns();
                    rec.push("client.read_next", call_ns, now, backlog_read as u64);
                    let header = factory.parse(&ev.event);
                    backlog_read += header.is_some_and(|h| h.writer == BACKLOG_WRITER) as usize;
                    verifier.observe(header);
                    report.delivered_at.push((now, ev.event.len() as u64));
                }
                // The backlog is all there before the window opens: a dry
                // read is a lost event, which `finish` then reports.
                Ok(None) => break,
                Err(e) => {
                    report.error = Some(format!("read_next on the backlog: {e}"));
                    break 'passes;
                }
            }
        }
        report
            .verdict
            .add(verifier.finish(&backlog_ledger, complete));
        report.full_passes += complete as u32;
        if let Err(e) = reader.close() {
            report.error = Some(format!("close reader: {e}"));
            break;
        }
        pass += 1;
    }
    report.spans = rec.into_spans();
    report
}

/// Background state of the store sampled once a second during the window.
#[derive(Debug, Default, Clone)]
pub struct Sampled {
    pub flush_lag_bytes_max: u64,
    /// Stall nanoseconds accrued over the measured part of the window, per
    /// class in [`STALL_CLASSES`] order.
    pub stall_ns: [u64; 3],
    pub cpu_us: u64,
}

pub const STALL_CLASSES: [&str; 3] = ["flush", "truncation", "throttle"];

fn stall_sums(cluster: &PravegaCluster) -> [u64; 3] {
    let registry = cluster.metrics().registry().clone();
    STALL_CLASSES.map(|c| {
        let h: Arc<Histogram> = registry.histogram(&format!("segmentstore.stalls.{c}_nanos"));
        h.sum()
    })
}

/// `utime + stime` of this process in microseconds.
pub fn process_cpu_us() -> u64 {
    cpu_us_of("/proc/self/stat")
}

/// `utime + stime` of the calling thread in microseconds.
fn thread_cpu_us() -> u64 {
    cpu_us_of("/proc/thread-self/stat")
}

fn cpu_us_of(stat_path: &str) -> u64 {
    let Ok(stat) = std::fs::read_to_string(stat_path) else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, in clock ticks of 10 ms.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * 10_000
}

pub fn rss_peak_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs on the main thread for the length of the window.
fn watch_window(clock: Clock, cluster: &PravegaCluster, window: Window) -> Sampled {
    let lag = cluster
        .metrics()
        .registry()
        .gauge("segmentstore.storagewriter.flush_lag_bytes");
    let mut sampled = Sampled::default();
    clock.pace_until(window.measured_start_ns());
    let cpu_from = process_cpu_us();
    let stalls_from = stall_sums(cluster);
    let mut next = window.measured_start_ns();
    while next < window.end_ns {
        clock.pace_until(next);
        sampled.flush_lag_bytes_max = sampled.flush_lag_bytes_max.max(lag.get().max(0) as u64);
        next += 1_000_000_000;
    }
    clock.pace_until(window.end_ns);
    sampled.cpu_us = process_cpu_us().saturating_sub(cpu_from);
    let stalls_to = stall_sums(cluster);
    for (i, (to, from)) in stalls_to.iter().zip(stalls_from).enumerate() {
        sampled.stall_ns[i] = to.saturating_sub(from);
    }
    sampled
}

/// Everything one run of one workload produced.
pub struct RunOutput {
    pub setup_s: Vec<f64>,
    pub window: Window,
    pub write: WriteReport,
    /// The reader that ran inside the window, if the workload has one.
    pub read: Option<ReadReport>,
    pub verdict: Verdict,
    /// Events offered to the writers plus events the cold replay delivered.
    pub attempted: u64,
    pub sampled: Sampled,
    /// Last ack to `unflushed_bytes() == 0`.
    pub drain_s: f64,
    /// Registry just before the window opens (on the cold workload the
    /// backlog ingest has already counted into it).
    pub before: Snapshot,
    /// Registry when the window and the drain have ended, before the
    /// read-back touches it.
    pub snapshot: Snapshot,
    pub spans: Vec<Span>,
    pub errors: Vec<String>,
}

/// Where spans are on: nowhere on the untraced run; on the traced run the
/// middle third of the sub-windows ([`TRACED_SUB_WINDOWS`]).
fn recorder(traced: bool, window: Window, root: u32) -> Recorder {
    if !traced {
        return Recorder::off();
    }
    let at = |sub: usize| window.measured_start_ns() + sub as u64 * window.sub_len_ns();
    Recorder::between(
        at(TRACED_SUB_WINDOWS.start),
        at(TRACED_SUB_WINDOWS.end),
        root,
    )
}

fn phase_span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent: NO_PARENT,
        request: 0,
    }
}

pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    clock: Clock,
) -> Result<RunOutput, String> {
    let mut spans: Vec<Span> = Vec::new();

    // Set-up, several times over; the last one is the one that gets used.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS_MAX);
    let mut ready = None;
    let setup_from = clock.now_ns();
    while setup_s.len() < SETUP_REPEATS_MIN
        || (setup_s.len() < SETUP_REPEATS_MAX
            && clock.now_ns() - setup_from < SETUP_REPEAT_BUDGET.as_nanos() as u64)
    {
        drop(ready.take());
        let from = clock.now_ns();
        ready = Some(set_up(spec, seed, clock)?);
        let to = clock.now_ns();
        spans.push(phase_span("harness.set_up", from, to));
        setup_s.push((to - from) as f64 / 1e9);
    }
    let Some(Ready { cluster, written }) = ready else {
        return Err("set-up did not run".into());
    };

    // Writer numbers index the ledgers the read-back is checked against.
    let mut ledgers: Vec<WriterLedger> = Vec::new();
    if let Reading::ColdReplay { backlog_events } = spec.reading {
        ledgers.push(WriterLedger {
            acked: vec![true; backlog_events],
        });
    }
    let first_writer = ledgers.len() as u32;
    let factory = EventFactory::new(seed, spec.event_bytes);
    let writers: Vec<Writer> = (0..match spec.load {
        Load::Paced { .. } => 1,
        Load::Saturate { writers, .. } => writers,
    })
        .map(|_| cluster.create_writer(written.clone(), BytesSerializer, WriterConfig::default()))
        .collect();
    let before = cluster.metrics().snapshot();
    // A short lead, so every thread is parked on the clock when it opens.
    let start_ns = clock.now_ns() + 20_000_000;
    let window = Window {
        start_ns,
        end_ns: start_ns + seconds * 1_000_000_000,
    };
    let window_span = spans.len() as u32;
    spans.push(phase_span("harness.window", window.start_ns, window.end_ns));
    let rec = || recorder(traced, window, window_span);
    let writing_done = AtomicBool::new(false);
    let slots = match spec.load {
        Load::Paced { events_per_sec } => {
            slot_schedule(seed, events_per_sec, window.end_ns - window.start_ns)
        }
        Load::Saturate { .. } => Vec::new(),
    };

    let (write_reports, read, tail_verifier, sampled, drain_s, snapshot) =
        std::thread::scope(|scope| {
            let (cluster, factory, written, writing_done, slots) =
                (&cluster, &factory, &written, &writing_done, &slots);
            let reader = match spec.reading {
                Reading::None => None,
                Reading::Tail => Some(scope.spawn(move || {
                    let (report, verifier) = read_stream(
                        clock,
                        cluster,
                        written,
                        "tail",
                        factory,
                        &[slots.len()],
                        writing_done,
                        rec(),
                    );
                    (report, Some(verifier))
                })),
                Reading::ColdReplay { backlog_events } => Some(scope.spawn(move || {
                    let report = cold_replay(
                        clock,
                        cluster,
                        written,
                        factory,
                        backlog_events,
                        slots.len(),
                        window,
                        rec(),
                    );
                    (report, None)
                })),
            };
            let mut generators = Vec::new();
            for (i, mut writer) in writers.into_iter().enumerate() {
                let writer_no = first_writer + i as u32;
                match spec.load {
                    Load::Paced { .. } => {
                        let (tx, rx) = sync_channel::<Pending>(ACK_QUEUE_CAPACITY);
                        let bytes = spec.event_bytes;
                        let collector = scope.spawn(move || collect_acks(clock, rx, bytes, rec()));
                        let sender = scope.spawn(move || {
                            let report = paced_sender(
                                clock,
                                &mut writer,
                                factory,
                                seed,
                                writer_no,
                                slots,
                                window,
                                tx,
                                rec(),
                            );
                            // A failed flush shows as events the collector
                            // never saw acknowledged.
                            let _ = writer.close();
                            report
                        });
                        generators.push((collector, Some(sender)));
                    }
                    Load::Saturate { outstanding, .. } => {
                        let writer_thread = scope.spawn(move || {
                            clock.pace_until(window.start_ns);
                            let report = closed_loop(
                                clock,
                                &mut writer,
                                factory,
                                seed,
                                writer_no,
                                outstanding,
                                Until::Time(window.end_ns),
                                rec(),
                            );
                            let _ = writer.close();
                            report
                        });
                        generators.push((writer_thread, None));
                    }
                }
            }
            let sampled = watch_window(clock, cluster, window);
            // One report per writer: the collector's, with its sender's
            // lateness and spans folded in.
            let write_reports: Vec<WriteReport> = generators
                .into_iter()
                .map(|(main, sender)| {
                    let mut report = main.join().expect("generator thread panicked");
                    if let Some(sender) = sender {
                        report.merge(sender.join().expect("sender thread panicked"));
                    }
                    report
                })
                .collect();
            writing_done.store(true, Ordering::Release);
            let last_ack_ns = clock.now_ns();
            let drained = cluster.wait_for_tiering(TIERING_TIMEOUT);
            let drain_s = (clock.now_ns() - last_ack_ns) as f64 / 1e9;
            let (read, tail_verifier) = match reader {
                Some(h) => {
                    let (r, v) = h.join().expect("reader thread panicked");
                    (Some(r), v)
                }
                None => (None, None),
            };
            let snapshot = cluster.metrics().snapshot();
            match drained {
                Ok(()) => Ok((
                    write_reports,
                    read,
                    tail_verifier,
                    sampled,
                    drain_s,
                    snapshot,
                )),
                Err(e) => Err(format!("tiering after the window: {e}")),
            }
        })?;
    spans.push(phase_span(
        "harness.drain",
        window.end_ns,
        window.end_ns + (drain_s * 1e9) as u64,
    ));

    let mut write = WriteReport::default();
    for mut report in write_reports {
        let mut ledger = std::mem::take(&mut report.ledger);
        if !slots.is_empty() {
            // Slots whose ack the collector never got to see are un-acked.
            ledger.acked.resize(slots.len(), false);
        }
        ledgers.push(ledger);
        write.merge(report);
    }
    let offered: Vec<usize> = ledgers.iter().map(|l| l.acked.len()).collect();
    let mut attempted: u64 = offered.iter().skip(first_writer as usize).sum::<usize>() as u64;

    // The check: every acked event read back exactly once, in key order.
    let verify_from = clock.now_ns();
    let mut errors = Vec::new();
    let mut verdict = Verdict::default();
    let mut read = read;
    if let Some(r) = &mut read {
        verdict.add(r.verdict);
        if let Reading::ColdReplay { .. } = spec.reading {
            attempted += r.delivered_at.len() as u64;
        }
        spans.append(&mut r.spans);
        errors.extend(r.error.take());
    }
    let verifier = match tail_verifier {
        Some(v) => v,
        None => {
            let (mut r, v) = read_stream(
                clock,
                &cluster,
                &written,
                "read-back",
                &factory,
                &offered,
                &writing_done,
                Recorder::off(),
            );
            errors.extend(r.error.take());
            v
        }
    };
    verdict.add(verifier.finish(&ledgers, true));
    spans.push(phase_span("harness.verify", verify_from, clock.now_ns()));
    spans.append(&mut write.spans);
    drop(cluster);

    Ok(RunOutput {
        setup_s,
        window,
        write,
        read,
        verdict,
        attempted,
        sampled,
        drain_s,
        before,
        snapshot,
        spans,
        errors,
    })
}

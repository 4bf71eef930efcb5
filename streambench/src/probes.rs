//! Per-layer probes: single-threaded timed loops over one layer's public
//! functions, fed with the sizes the workload just produced (its event size,
//! its mean client block, its mean WAL frame). Each probe is measured from
//! outside the layer; nothing in the product is instrumented for it.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use pravega_common::buf::crc32c;
use pravega_common::clock::SystemClock;
use pravega_common::id::{ContainerId, ScopedSegment, ScopedStream, SegmentId, WriterId};
use pravega_common::metrics::MetricsRegistry;
use pravega_common::policy::{ScalingPolicy, StreamConfiguration};
use pravega_common::protocol::{encode_reply, encode_request, FrameDecoder};
use pravega_common::tcp;
use pravega_common::wire::{Connection, Reply, ReplyEnvelope, Request, RequestEnvelope};
use pravega_coordination::CoordinationService;
use pravega_core::{ClusterConfig, PravegaCluster};
use pravega_lts::format::{decode_block, encode_block};
use pravega_lts::{
    ChunkedSegmentStorage, ChunkedStorageConfig, InMemoryChunkStorage, InMemoryMetadataStore,
};
use pravega_segmentstore::dataframe::{decode_frame, DataFrameBuilder};
use pravega_segmentstore::operations::Operation;
use pravega_segmentstore::readindex::{IndexRead, ReadIndex};
use pravega_segmentstore::store::ContainerFactory;
use pravega_segmentstore::{
    BlockCache, CacheConfig, ContainerConfig, SegmentContainer, SegmentStore, SegmentStoreConfig,
    TcpFrontend,
};
use pravega_wal::bookie::mem_bookies;
use pravega_wal::journal::{Journal, MemSink};
use pravega_wal::{
    decode_entry_envelope, encode_entry_envelope, BookiePool, InMemoryLog, JournalConfig,
    LedgerManager, ReplicationConfig,
};

use crate::event::Rng;
use crate::stats::percentile;
use crate::trace::{Span, NO_PARENT};
use crate::workloads::{nap, Clock, JOURNAL_SYNC};

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;

/// The sizes a workload hands its probes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Payload of one event as framed in the segment.
    pub event: usize,
    /// Mean client append block (`client.writer.batch_bytes`).
    pub block: usize,
    /// Mean WAL data frame (`segmentstore.durablelog.frame_bytes`).
    pub frame: usize,
}

/// Probe results by per-layer metric name, plus one span per probe.
#[derive(Debug, Default)]
pub struct Probed {
    pub values: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

impl Probed {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// For the budget's arithmetic, where a probe that did not run counts
    /// as a cost of nothing.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).unwrap_or(0.0)
    }
}

struct Bench {
    clock: Clock,
    out: Probed,
}

impl Bench {
    /// Runs one probe, which returns its `(metric, value)` pairs, under a
    /// span of its own. A probe that cannot set itself up reports why; the
    /// run then fails rather than print a per-layer number it did not take.
    fn probe(
        &mut self,
        name: &'static str,
        f: impl FnOnce(Clock) -> Result<Vec<(&'static str, f64)>, String>,
    ) -> Result<(), String> {
        let from = self.clock.now_ns();
        let values = f(self.clock).map_err(|e| format!("probe {name}: {e}"))?;
        self.out.spans.push(Span {
            name,
            start_ns: from,
            end_ns: self.clock.now_ns(),
            parent: NO_PARENT,
            request: 0,
        });
        self.out.values.extend(values);
        Ok(())
    }
}

/// Nanoseconds per call of `f` over `iters` calls.
fn ns_per_call(clock: Clock, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let from = clock.now_ns();
    for i in 0..iters {
        f(i);
    }
    (clock.now_ns() - from) as f64 / iters.max(1) as f64
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / MIB as f64 / (ns / 1e9)
}

/// Seeded, incompressible bytes: a checksum or codec cannot shortcut them.
fn noise(seed: u64, len: usize) -> Bytes {
    let mut rng = Rng::new(seed);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    Bytes::from(v)
}

fn segment() -> Result<ScopedSegment, String> {
    Ok(ScopedStream::new("probe", "stream")
        .map_err(|e| e.to_string())?
        .segment(SegmentId::new(0, 0)))
}

fn append_block(seg: &ScopedSegment, n: i64, data: Bytes, events: u32) -> Request {
    Request::AppendBlock {
        writer_id: WriterId(7),
        segment: seg.clone(),
        last_event_number: n,
        event_count: events,
        data,
        expected_offset: None,
    }
}

pub fn run_all(clock: Clock, seed: u64, sizes: Sizes) -> Result<Probed, String> {
    let mut b = Bench {
        clock,
        out: Probed::default(),
    };
    let events_per_block = (sizes.block / sizes.event.max(1)).max(1) as u32;
    let block = noise(seed, sizes.block);
    let frame = noise(seed ^ 1, sizes.frame);

    b.probe("probe.common.crc32c", |clock| {
        let buf = noise(seed ^ 2, 64 * KIB);
        let ns = ns_per_call(clock, 256, |_| {
            std::hint::black_box(crc32c(std::hint::black_box(&buf)));
        });
        Ok(vec![("common.crc32c.mib_s", mib_per_s(buf.len(), ns))])
    })?;

    b.probe("probe.common.protocol", |clock| {
        let seg = segment()?;
        let request = RequestEnvelope {
            request_id: 1,
            request: append_block(&seg, 1, block.clone(), events_per_block),
        };
        let mut wire = BytesMut::new();
        let iters = (8 * MIB / sizes.block.max(1)).clamp(64, 4096);
        let encode_ns = ns_per_call(clock, iters, |_| {
            wire.clear();
            encode_request(std::hint::black_box(&request), &mut wire);
        });
        let mut decoder = FrameDecoder::new();
        let mut failed = false;
        let decode_ns = ns_per_call(clock, iters, |_| {
            decoder.feed(&wire);
            failed |= !matches!(decoder.next_request(), Ok(Some(_)));
        });
        let reply = ReplyEnvelope {
            request_id: 1,
            reply: Reply::SegmentRead {
                offset: 0,
                data: noise(seed ^ 3, 256 * KIB),
                end_of_segment: false,
                at_tail: false,
            },
        };
        let mut read_wire = BytesMut::new();
        encode_reply(&reply, &mut read_wire);
        let decode_read_ns = ns_per_call(clock, 32, |_| {
            decoder.feed(&read_wire);
            failed |= !matches!(decoder.next_reply(), Ok(Some(_)));
        });
        if failed {
            return Err("a frame it had just encoded did not decode".into());
        }
        Ok(vec![
            ("common.protocol.encode_append_ns", encode_ns),
            ("common.protocol.decode_append_ns", decode_ns),
            ("common.protocol.decode_read_ns", decode_read_ns),
        ])
    })?;

    b.probe("probe.common.tcp", |clock| {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let echo = std::thread::spawn(move || -> Result<(), String> {
            let (sock, _) = listener.accept().map_err(|e| e.to_string())?;
            let server = tcp::serve_stream(sock).map_err(|e| e.to_string())?;
            while let Ok(req) = server.recv() {
                let reply = Reply::DataAppended {
                    writer_id: WriterId(7),
                    last_event_number: req.request_id as i64,
                    current_tail: 0,
                };
                let request_id = req.request_id;
                if server.send(ReplyEnvelope { request_id, reply }).is_err() {
                    break;
                }
            }
            Ok(())
        });
        let conn = tcp::connect(addr).map_err(|e| e.to_string())?;
        let seg = segment()?;
        let one = noise(seed ^ 4, sizes.event);
        let mut rtts = Vec::with_capacity(2000);
        for i in 0..2000u64 {
            let from = clock.now_ns();
            conn.call(i, append_block(&seg, i as i64, one.clone(), 1))
                .map_err(|e| e.to_string())?;
            rtts.push(clock.now_ns() - from);
        }
        // Streaming: keep a window of blocks in flight.
        let blocks = (16 * MIB / sizes.block.max(1)).clamp(256, 16_384);
        let from = clock.now_ns();
        let (mut sent, mut acked) = (0usize, 0usize);
        while acked < blocks {
            while sent < blocks && sent - acked < TCP_WINDOW {
                let request = append_block(&seg, sent as i64, block.clone(), events_per_block);
                let request_id = sent as u64;
                conn.send(RequestEnvelope {
                    request_id,
                    request,
                })
                .map_err(|e| e.to_string())?;
                sent += 1;
            }
            conn.recv().map_err(|e| e.to_string())?;
            acked += 1;
        }
        let stream_ns = (clock.now_ns() - from) as f64;
        drop(conn);
        echo.join().map_err(|_| "echo thread panicked")??;
        Ok(vec![
            (
                "common.tcp.rtt_us",
                percentile(&mut rtts, 50.0).unwrap_or(0) as f64 / 1e3,
            ),
            (
                "common.tcp.stream_mib_s",
                mib_per_s(blocks * sizes.block, stream_ns),
            ),
        ])
    })?;

    b.probe("probe.segmentstore.frontend", |clock| {
        let lts = memory_lts(4 * MIB as u64);
        let factory: ContainerFactory = Arc::new(move |id| {
            SegmentContainer::start(
                id,
                Arc::new(InMemoryLog::new()),
                lts.clone(),
                Arc::new(SystemClock::new()),
                ContainerConfig::default(),
            )
        });
        let config = SegmentStoreConfig {
            host_id: "probe".into(),
            container_count: 1,
            container: ContainerConfig::default(),
        };
        let store = SegmentStore::new(config, factory);
        store.start_container(0).map_err(|e| e.to_string())?;
        let frontend = TcpFrontend::start(store.clone(), &MetricsRegistry::new())
            .map_err(|e| e.to_string())?;
        let conn = tcp::connect(frontend.local_addr()).map_err(|e| e.to_string())?;
        let seg = segment()?;
        let result = frontend_rtt(clock, &conn, &seg, noise(seed ^ 5, sizes.event));
        drop(conn);
        frontend.stop();
        store.shutdown();
        Ok(vec![("segmentstore.frontend.append_rtt_us", result?)])
    })?;

    b.probe("probe.segmentstore.container", |clock| {
        let registry = MetricsRegistry::new();
        // A cache small enough that most of what is written gets evicted
        // once it is in LTS, so both kinds of read can be timed.
        let mut config = ContainerConfig::default();
        config.cache.max_buffers = 1;
        let container = SegmentContainer::start_with_metrics(
            ContainerId(0),
            Arc::new(InMemoryLog::new()),
            memory_lts(4 * MIB as u64),
            Arc::new(SystemClock::new()),
            config,
            &registry,
        )
        .map_err(|e| e.to_string())?;
        let result = container_probe(clock, &container, &registry, &block, events_per_block);
        container.stop();
        result
    })?;

    b.probe("probe.segmentstore.dataframe", |clock| {
        let ops = (sizes.frame / sizes.block.max(1)).max(1);
        let op = Operation::Append {
            segment: "probe/stream/0.#epoch.0".into(),
            offset: 0,
            data: block.clone(),
            writer_id: WriterId(7),
            last_event_number: 1,
            event_count: events_per_block,
        };
        let mut builder = DataFrameBuilder::new(MIB);
        let frames = (8 * MIB / sizes.frame.max(1)).clamp(32, 2048);
        let mut last = None;
        let build_ns = ns_per_call(clock, frames, |_| {
            for seq in 0..ops {
                builder.push_op(seq as u64, &op);
            }
            last = builder.seal_frame().ok().flatten();
        });
        let sealed = last.ok_or("the builder sealed no frame")?;
        let mut failed = false;
        let decode_ns = ns_per_call(clock, frames, |_| {
            failed |= decode_frame(std::hint::black_box(&sealed)).is_err();
        });
        if failed {
            return Err("a frame it had just sealed did not decode".into());
        }
        Ok(vec![
            (
                "segmentstore.dataframe.build_ns_per_op",
                build_ns / ops as f64,
            ),
            (
                "segmentstore.dataframe.decode_ns_per_op",
                decode_ns / ops as f64,
            ),
        ])
    })?;

    b.probe("probe.segmentstore.cache", |clock| {
        let mut cache = BlockCache::new(CacheConfig::default());
        // Entries grow by one client block per append until they hold 64 KiB.
        let per_entry = (64 * KIB / sizes.block.max(1)).max(2);
        let entries = 256;
        let mut addrs = Vec::with_capacity(entries);
        let mut failed = false;
        let append_ns = ns_per_call(clock, entries, |_| {
            let Ok(mut addr) = cache.insert(&block) else {
                failed = true;
                return;
            };
            for _ in 1..per_entry {
                match cache.append(addr, &block) {
                    Ok(next) => addr = next,
                    Err(_) => failed = true,
                }
            }
            addrs.push(addr);
        }) / per_entry as f64;
        let get_ns = ns_per_call(clock, 4 * entries, |i| {
            failed |= cache.get(addrs[i % addrs.len().max(1)]).is_err();
        });
        if failed {
            return Err("the block cache refused an entry".into());
        }
        let mut index = ReadIndex::new();
        let mut offset = 0u64;
        let index_appends = per_entry * entries;
        let index_append_ns = ns_per_call(clock, index_appends, |_| {
            index.append(&mut cache, offset, &block);
            offset += block.len() as u64;
        });
        let mut at = 0u64;
        let index_read_ns = ns_per_call(clock, 4 * entries, |_| {
            match index.read(&cache, at, 64 * KIB) {
                IndexRead::Hit(data) => at = (at + data.len() as u64) % offset,
                IndexRead::Miss => failed = true,
            }
        });
        if failed {
            return Err("the read index missed data it had just been given".into());
        }
        Ok(vec![
            ("segmentstore.cache.append_ns", append_ns),
            ("segmentstore.cache.get_64k_ns", get_ns),
            ("segmentstore.readindex.append_ns", index_append_ns),
            ("segmentstore.readindex.read_ns", index_read_ns),
        ])
    })?;

    b.probe("probe.wal.ledger", |clock| {
        let journal = JournalConfig {
            simulated_sync_latency: JOURNAL_SYNC,
            ..JournalConfig::default()
        };
        let pool = BookiePool::new(mem_bookies(3, journal).map_err(|e| e.to_string())?);
        let manager = LedgerManager::new(&CoordinationService::new(), &pool);
        let ledger = manager
            .create(ReplicationConfig::default(), 0)
            .map_err(|e| e.to_string())?;
        let mut one = Vec::with_capacity(400);
        for _ in 0..400 {
            let from = clock.now_ns();
            match ledger.append(frame.clone()).wait() {
                Ok(Ok(_)) => one.push(clock.now_ns() - from),
                other => return Err(format!("ledger append: {other:?}")),
            }
        }
        let entries = (16 * MIB / sizes.frame.max(1)).clamp(256, 8192);
        let from = clock.now_ns();
        let mut inflight = std::collections::VecDeque::with_capacity(LEDGER_WINDOW);
        for _ in 0..entries {
            if inflight.len() >= LEDGER_WINDOW {
                if let Some(ack) = inflight.pop_front() {
                    wait_ledger(ack)?;
                }
            }
            inflight.push_back(ledger.append(frame.clone()));
        }
        for ack in inflight {
            wait_ledger(ack)?;
        }
        let stream_ns = (clock.now_ns() - from) as f64;
        ledger.close();
        Ok(vec![
            (
                "wal.ledger.append_us_p50",
                percentile(&mut one, 50.0).unwrap_or(0) as f64 / 1e3,
            ),
            (
                "wal.ledger.append_mib_s",
                mib_per_s(entries * sizes.frame, stream_ns),
            ),
        ])
    })?;

    b.probe("probe.wal.journal", |clock| {
        let config = JournalConfig {
            simulated_sync_latency: JOURNAL_SYNC,
            ..JournalConfig::default()
        };
        let journal = Journal::start(Box::new(MemSink::new(JOURNAL_SYNC)), config)
            .map_err(|e| e.to_string())?;
        let mut failed = false;
        let append_ns = ns_per_call(clock, 400, |_| {
            failed |= journal.append(frame.clone()).is_err();
        });
        let mut stored = None;
        let envelope_ns = ns_per_call(
            clock,
            (8 * MIB / sizes.frame.max(1)).clamp(64, 4096),
            |_| {
                let wrapped = encode_entry_envelope(std::hint::black_box(&frame));
                failed |= decode_entry_envelope(&wrapped).is_none();
                stored = Some(wrapped);
            },
        );
        if failed || stored.is_none() {
            return Err("the journal or the entry envelope refused a frame".into());
        }
        Ok(vec![
            ("wal.journal.append_us", append_ns / 1e3),
            ("wal.bookie.envelope_ns", envelope_ns),
        ])
    })?;

    b.probe("probe.lts.chunked", |clock| {
        let lts = memory_lts(4 * MIB as u64);
        lts.create("probe").map_err(|e| e.to_string())?;
        let piece = noise(seed ^ 6, MIB);
        let mut offset = 0u64;
        let mut error = None;
        let write_ns = ns_per_call(clock, LTS_PROBE_MIB, |_| {
            match lts.write("probe", offset, &piece) {
                Ok(_) => offset += piece.len() as u64,
                Err(e) => error = Some(e.to_string()),
            }
        });
        let mut at = 0u64;
        let reads = LTS_PROBE_MIB * MIB / (256 * KIB);
        let read_ns = ns_per_call(clock, reads, |_| match lts.read("probe", at, 256 * KIB) {
            Ok(data) => at += data.len() as u64,
            Err(e) => error = Some(e.to_string()),
        });
        let far = offset.saturating_sub(4 * KIB as u64);
        let far_ns = ns_per_call(clock, 50, |_| {
            if let Err(e) = lts.read("probe", far, 4 * KIB) {
                error = Some(e.to_string());
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
        Ok(vec![
            ("lts.chunked.write_mib_s", mib_per_s(MIB, write_ns)),
            ("lts.chunked.read_mib_s", mib_per_s(256 * KIB, read_ns)),
            ("lts.chunked.read_far_us", far_ns / 1e3),
        ])
    })?;

    b.probe("probe.lts.format", |clock| {
        let payload = noise(seed ^ 7, MIB);
        let mut encoded = Bytes::new();
        let encode_ns = ns_per_call(clock, 16, |_| {
            encoded = encode_block(std::hint::black_box(&payload));
        });
        let expected = (payload.len() as u32, crc32c(&payload));
        let mut failed = false;
        let decode_ns = ns_per_call(clock, 16, |_| {
            failed |= decode_block(std::hint::black_box(&encoded), 0, expected).is_err();
        });
        if failed {
            return Err("a block it had just encoded did not decode".into());
        }
        Ok(vec![
            ("lts.format.encode_block_mib_s", mib_per_s(MIB, encode_ns)),
            ("lts.format.decode_block_mib_s", mib_per_s(MIB, decode_ns)),
        ])
    })?;

    b.probe("probe.controller", |clock| {
        let cluster = PravegaCluster::start(ClusterConfig::default()).map_err(|e| e.to_string())?;
        let controller = cluster.controller();
        controller
            .create_scope("probe")
            .map_err(|e| e.to_string())?;
        let config = StreamConfiguration::new(ScalingPolicy::fixed(4));
        let mut error = None;
        let mut last = None;
        let create_ns = ns_per_call(clock, 16, |i| {
            let created = ScopedStream::new("probe", format!("stream-{i}"))
                .map_err(|e| e.to_string())
                .and_then(|s| {
                    controller
                        .create_stream(&s, config)
                        .map_err(|e| e.to_string())
                        .map(|()| s)
                });
            match created {
                Ok(s) => last = Some(s),
                Err(e) => error = Some(e),
            }
        });
        let stream = last.ok_or("no stream was created")?;
        let current_ns = ns_per_call(clock, 2000, |_| {
            if let Err(e) = controller.current_segments(&stream) {
                error = Some(e.to_string());
            }
        });
        cluster.shutdown();
        if let Some(e) = error {
            return Err(e);
        }
        Ok(vec![
            ("controller.create_stream_us", create_ns / 1e3),
            ("controller.current_segments_us", current_ns / 1e3),
        ])
    })?;

    Ok(b.out)
}

/// Blocks in flight in the TCP streaming probe.
const TCP_WINDOW: usize = 64;
/// Entries in flight in the ledger streaming probe.
const LEDGER_WINDOW: usize = 64;
/// Appends in flight in the container streaming probe.
const CONTAINER_WINDOW: usize = 256;
/// Size of the segment the LTS probe writes and reads back: 8 chunks of
/// 4 MiB, 4 blocks each. The far read walks all of them.
const LTS_PROBE_MIB: usize = 32;
/// Cache hits the container read probe takes before it stops.
const READ_SAMPLES: usize = 256;
/// Appends the one-outstanding probes of the container and the frontend
/// make. Few, because today each takes the durable log's whole 20 ms batch
/// delay even on an in-memory WAL.
const ONE_OUTSTANDING_APPENDS: usize = 40;

fn memory_lts(max_chunk_bytes: u64) -> ChunkedSegmentStorage {
    ChunkedSegmentStorage::new(
        Arc::new(InMemoryChunkStorage::new()),
        Arc::new(InMemoryMetadataStore::new()),
        ChunkedStorageConfig { max_chunk_bytes },
    )
}

fn wait_ledger(
    ack: pravega_common::future::Promise<Result<u64, pravega_wal::WalError>>,
) -> Result<(), String> {
    match ack.wait() {
        Ok(Ok(_)) => Ok(()),
        other => Err(format!("ledger append: {other:?}")),
    }
}

fn frontend_rtt(
    clock: Clock,
    conn: &Connection,
    seg: &ScopedSegment,
    event: Bytes,
) -> Result<f64, String> {
    let created = conn
        .call(
            0,
            Request::CreateSegment {
                segment: seg.clone(),
                is_table: false,
            },
        )
        .map_err(|e| e.to_string())?;
    if created != Reply::SegmentCreated {
        return Err(format!("create segment: {created:?}"));
    }
    let setup = Request::SetupAppend {
        writer_id: WriterId(7),
        segment: seg.clone(),
    };
    conn.call(1, setup).map_err(|e| e.to_string())?;
    let mut rtts = Vec::with_capacity(ONE_OUTSTANDING_APPENDS);
    for i in 0..ONE_OUTSTANDING_APPENDS as u64 {
        let from = clock.now_ns();
        let reply = conn
            .call(2 + i, append_block(seg, i as i64, event.clone(), 1))
            .map_err(|e| e.to_string())?;
        if !matches!(reply, Reply::DataAppended { .. }) {
            return Err(format!("append: {reply:?}"));
        }
        rtts.push(clock.now_ns() - from);
    }
    Ok(percentile(&mut rtts, 50.0).unwrap_or(0) as f64 / 1e3)
}

fn container_probe(
    clock: Clock,
    container: &SegmentContainer,
    registry: &MetricsRegistry,
    block: &Bytes,
    events_per_block: u32,
) -> Result<Vec<(&'static str, f64)>, String> {
    const NAME: &str = "probe/stream/0.#epoch.0";
    container
        .create_segment(NAME, false)
        .map_err(|e| e.to_string())?;
    let writer = WriterId(7);
    let mut event_no = 0i64;
    let mut next = |n: u32| {
        event_no += n as i64;
        event_no
    };
    let mut one = Vec::with_capacity(ONE_OUTSTANDING_APPENDS);
    for _ in 0..ONE_OUTSTANDING_APPENDS {
        let from = clock.now_ns();
        let n = next(events_per_block);
        container
            .append(NAME, block.clone(), writer, n, events_per_block, None)
            .wait()
            .map_err(|e| e.to_string())?;
        one.push(clock.now_ns() - from);
    }
    let blocks = (16 * MIB / block.len().max(1)).clamp(1024, 32_768);
    let from = clock.now_ns();
    let mut inflight = std::collections::VecDeque::with_capacity(CONTAINER_WINDOW);
    for _ in 0..blocks {
        if inflight.len() >= CONTAINER_WINDOW {
            if let Some(h) = inflight.pop_front() {
                pravega_segmentstore::container::AppendHandle::wait(h)
                    .map_err(|e| e.to_string())?;
            }
        }
        let n = next(events_per_block);
        inflight.push_back(container.append(
            NAME,
            block.clone(),
            writer,
            n,
            events_per_block,
            None,
        ));
    }
    for h in inflight {
        h.wait().map_err(|e| e.to_string())?;
    }
    let stream_ns = (clock.now_ns() - from) as f64;

    // Let tiering finish, then push the tail along so eviction runs.
    let deadline = clock.now_ns() + 10_000_000_000;
    while container.unflushed_bytes() > 0 {
        if clock.now_ns() > deadline {
            return Err("the probe container did not finish tiering".into());
        }
        nap(Duration::from_millis(1));
    }
    for _ in 0..64 {
        let n = next(events_per_block);
        container
            .append(NAME, block.clone(), writer, n, events_per_block, None)
            .wait()
            .map_err(|e| e.to_string())?;
    }
    let length = container.get_info(NAME).map_err(|e| e.to_string())?.length;
    // One walk over the segment: most of it was evicted and comes from LTS
    // (told apart by the miss counter). Then the same walk again over what
    // the first one brought back in, which now hits.
    let misses = registry.counter("segmentstore.readindex.cache_misses");
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let mut at = 0u64;
        while at < length && hit_ns.len() < READ_SAMPLES {
            let before = misses.get();
            let from = clock.now_ns();
            let r = container
                .read(NAME, at, 64 * KIB, None::<Duration>)
                .map_err(|e| e.to_string())?;
            let took = clock.now_ns() - from;
            if r.data.is_empty() {
                break;
            }
            at += r.data.len() as u64;
            if misses.get() > before {
                miss_ns.push(took);
            } else {
                hit_ns.push(took);
            }
        }
    }
    if hit_ns.is_empty() || miss_ns.is_empty() {
        return Err(format!(
            "container reads were {} hits and {} misses; the probe needs both",
            hit_ns.len(),
            miss_ns.len()
        ));
    }
    Ok(vec![
        (
            "segmentstore.container.append_us_p50",
            percentile(&mut one, 50.0).unwrap_or(0) as f64 / 1e3,
        ),
        (
            "segmentstore.container.append_mib_s",
            mib_per_s(blocks * block.len(), stream_ns),
        ),
        (
            "segmentstore.container.read_hit_us",
            percentile(&mut hit_ns, 50.0).unwrap_or(0) as f64 / 1e3,
        ),
        (
            "segmentstore.container.read_miss_us",
            percentile(&mut miss_ns, 50.0).unwrap_or(0) as f64 / 1e3,
        ),
    ])
}

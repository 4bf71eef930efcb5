//! Metrics-asserting integration tests: drive the embedded cluster through
//! realistic load shapes and assert on what the per-stage instruments report,
//! not just on the data path's outputs. This is the test layer that keeps the
//! metrics pipeline honest — a refactor that silently stops recording a stage
//! fails here even if the data path still works.

use std::time::{Duration, Instant};

use bytes::Bytes;
use pravega::client::{BytesSerializer, StringSerializer, WriterConfig};
use pravega::common::id::ScopedStream;
use pravega::common::metrics::Snapshot;
use pravega::common::policy::{ScalingPolicy, StreamConfiguration};
use pravega::core::{ClusterConfig, LtsKind, PravegaCluster, TransportKind};
use pravega::lts::ThrottleModel;

fn stream(name: &str) -> ScopedStream {
    ScopedStream::new("obs", name).unwrap()
}

/// Polls `cond` against fresh snapshots until it holds or `timeout` elapses.
/// Returns the last snapshot either way so assertion messages can include it.
fn poll_snapshot(
    cluster: &PravegaCluster,
    timeout: Duration,
    mut cond: impl FnMut(&Snapshot) -> bool,
) -> (bool, Snapshot) {
    let deadline = Instant::now() + timeout;
    loop {
        let snap = cluster.metrics().snapshot();
        if cond(&snap) {
            return (true, snap);
        }
        if Instant::now() > deadline {
            return (false, snap);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A slow LTS makes unflushed bytes pile up past the throttle threshold, so
/// the container must push back on writers (§4.3); once the burst ends the
/// storage writer drains the backlog and the flush lag returns to zero.
#[test]
fn throttled_lts_engages_writer_throttling_and_drains() {
    // ~4 MB/s LTS against a 64 KiB throttle threshold: any burst larger than
    // the threshold must engage throttling almost immediately.
    let mut config = ClusterConfig {
        lts: LtsKind::Throttled(ThrottleModel {
            bandwidth_bytes_per_sec: 4 * 1024 * 1024,
            per_op_latency: Duration::from_millis(1),
        }),
        ..ClusterConfig::default()
    };
    config.container.throttle_threshold_bytes = 64 * 1024;
    config.container.flush_interval = Duration::from_millis(5);
    let cluster = PravegaCluster::start(config).unwrap();
    let s = stream("throttled");
    cluster.create_scope("obs").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();

    // Phase 1: burst ~1.5 MB and wait for durability. The whole burst rides
    // the pipeline, so by the time `flush` returns the backlog is committed
    // to the WAL but barely drained to the 4 MB/s LTS (needs ~360 ms).
    let mut writer = cluster.create_writer(s, BytesSerializer, WriterConfig::default());
    let payload = Bytes::from(vec![0x5a; 8 * 1024]);
    for i in 0..192 {
        writer.write_raw(&format!("key-{}", i % 7), payload.clone());
    }
    writer.flush().unwrap();

    // Phase 2: appends arriving while the backlog exceeds the threshold must
    // block in the container until the storage writer drains it (§4.3) —
    // backpressure applies to new appends, not ones already in the pipeline.
    for i in 0..4 {
        writer.write_raw(&format!("key-{i}"), payload.clone());
    }
    writer.flush().unwrap();

    let snap = cluster.metrics().snapshot();
    let engaged = snap
        .counter("segmentstore.container.throttle_engaged")
        .unwrap_or(0);
    assert!(
        engaged > 0,
        "appends behind a 1.5 MB committed backlog (64 KiB threshold, 4 MB/s \
         LTS) must engage throttling at least once\n{snap}"
    );
    let waited = snap.histogram("segmentstore.container.throttle_wait_nanos");
    assert!(
        waited.is_some_and(|h| h.count > 0 && h.sum > 0),
        "engaged throttling must also record time spent waiting\n{snap}"
    );
    // The same wait must be attributed in the stall taxonomy: a throttled
    // append is a writer-visible stall of class `throttle`.
    assert!(
        snap.counter("segmentstore.stalls.throttle").unwrap_or(0) > 0,
        "a throttle wait over 1 ms must count a `throttle` stall\n{snap}"
    );
    assert!(
        snap.histogram("segmentstore.stalls.throttle_nanos")
            .is_some_and(|h| h.count > 0 && h.sum > 0),
        "throttle stall durations must be recorded\n{snap}"
    );

    // After the burst the storage writer catches up: the flush lag gauge must
    // come back to (exactly) zero once a flush pass observes a drained
    // backlog. 1.5 MB / 4 MB/s plus jitter fits comfortably in 30 s.
    cluster.wait_for_tiering(Duration::from_secs(30)).unwrap();
    let (drained, snap) = poll_snapshot(&cluster, Duration::from_secs(10), |s| {
        s.gauge("segmentstore.storagewriter.flush_lag_bytes") == Some(0)
    });
    assert!(
        drained,
        "flush lag must return to 0 after the burst is tiered\n{snap}"
    );
    cluster.shutdown();
}

/// The stall taxonomy (DESIGN.md §14): every stall class registers its
/// counter + duration histogram at startup, and forcing a flush stall (slow
/// LTS writes) plus throttle engagement (backlog past the threshold) makes
/// the corresponding classes fire — so a soak-timeline spike is always
/// attributable to a named cause.
#[test]
fn stall_instruments_register_and_fire_under_forced_stalls() {
    // Every LTS op costs >= 5 ms and small flush chunks force many ops per
    // pass: each paced LTS write is a flush stall well above the 1 ms
    // attribution floor. The low bandwidth + tiny threshold also push the
    // backlog into throttle territory immediately.
    let mut config = ClusterConfig {
        lts: LtsKind::Throttled(ThrottleModel {
            bandwidth_bytes_per_sec: 2 * 1024 * 1024,
            per_op_latency: Duration::from_millis(5),
        }),
        ..ClusterConfig::default()
    };
    config.container.throttle_threshold_bytes = 32 * 1024;
    config.container.flush_interval = Duration::from_millis(5);
    config.container.max_flush_bytes = 16 * 1024;
    let cluster = PravegaCluster::start(config).unwrap();
    let s = stream("stalls");
    cluster.create_scope("obs").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();

    // Before any load: all five stall classes are registered (counter and
    // duration histogram) — attribution must never depend on a class having
    // fired before it appears in a snapshot.
    let snap = cluster.metrics().snapshot();
    for class in [
        "throttle",
        "flush",
        "truncation",
        "cache_evict",
        "wal_rollover",
    ] {
        let counter = format!("segmentstore.stalls.{class}");
        let hist = format!("segmentstore.stalls.{class}_nanos");
        assert!(
            snap.counter(&counter).is_some(),
            "stall counter {counter} must register at startup\n{snap}"
        );
        assert!(
            snap.histogram(&hist).is_some(),
            "stall histogram {hist} must register at startup\n{snap}"
        );
    }

    // Burst ~1 MB: far past the 32 KiB threshold, drained at 2 MB/s in
    // 16 KiB chunks costing >= 5 ms each.
    let mut writer = cluster.create_writer(s, BytesSerializer, WriterConfig::default());
    let payload = Bytes::from(vec![0x3c; 8 * 1024]);
    for i in 0..128 {
        writer.write_raw(&format!("key-{}", i % 5), payload.clone());
    }
    writer.flush().unwrap();
    for i in 0..4 {
        writer.write_raw(&format!("key-{i}"), payload.clone());
    }
    writer.flush().unwrap();
    cluster.wait_for_tiering(Duration::from_secs(30)).unwrap();

    let (fired, snap) = poll_snapshot(&cluster, Duration::from_secs(10), |s| {
        s.counter("segmentstore.stalls.flush").unwrap_or(0) > 0
            && s.counter("segmentstore.stalls.throttle").unwrap_or(0) > 0
    });
    assert!(
        fired,
        "forced slow flushes and an over-threshold backlog must fire the \
         `flush` and `throttle` stall classes\n{snap}"
    );
    assert!(
        snap.histogram("segmentstore.stalls.flush_nanos")
            .is_some_and(|h| h.count > 0 && h.sum > 0),
        "flush stall durations must be recorded\n{snap}"
    );
    assert!(
        snap.histogram("segmentstore.stalls.truncation_nanos")
            .is_some_and(|h| h.count > 0),
        "tiering a 1 MB burst must record at least one checkpoint+truncate \
         duration\n{snap}"
    );
    cluster.shutdown();
}

/// Segment multiplexing on the client: a writer keeps one connection per
/// store, not one per segment. Over 16 segments on the default 3-store
/// cluster it dials at most 3, on either transport, and over TCP the stores
/// accept no more than that.
#[test]
fn a_writer_dials_one_connection_per_store() {
    for transport in [TransportKind::InProcess, TransportKind::Tcp] {
        let config = ClusterConfig {
            transport,
            ..ClusterConfig::default()
        };
        let cluster = PravegaCluster::start(config).unwrap();
        let s = stream("conns");
        cluster.create_scope("obs").unwrap();
        cluster
            .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(16)))
            .unwrap();
        let accepted = |snap: &Snapshot| {
            snap.counter("segmentstore.frontend.connections_total")
                .unwrap_or(0)
        };
        let before = accepted(&cluster.metrics().snapshot());

        let mut writer = cluster.create_writer(s, StringSerializer, WriterConfig::default());
        for i in 0..512 {
            writer.write_event(&format!("k{i}"), &format!("e{i}"));
        }
        writer.flush().unwrap();

        let snap = cluster.metrics().snapshot();
        let opened = snap
            .counter("client.writer.connections_opened")
            .unwrap_or(0);
        assert!(
            (1..=3).contains(&opened),
            "{transport:?}: a writer over 16 segments on 3 stores dialled {opened} \
             connections\n{snap}"
        );
        if transport == TransportKind::Tcp {
            let accepted = accepted(&snap) - before;
            assert!(
                (1..=3).contains(&accepted),
                "the stores accepted {accepted} connections from one writer\n{snap}"
            );
        }
        drop(writer);
        cluster.shutdown();
    }
}

/// Under saturating load frames should seal because they are full, not
/// because the batch delay expired: the median fill ratio stays above 50%.
#[test]
fn frames_fill_up_under_saturating_load() {
    let mut config = ClusterConfig::default();
    config.container.max_frame_bytes = 32 * 1024;
    config.container.flush_interval = Duration::from_millis(5);
    let cluster = PravegaCluster::start(config).unwrap();
    let s = stream("saturated");
    cluster.create_scope("obs").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();

    // 2 MB of 1 KiB appends with no pacing and no per-event waits: the frame
    // builder always has queued work, so frames seal at capacity.
    let mut writer = cluster.create_writer(s, BytesSerializer, WriterConfig::default());
    let payload = Bytes::from(vec![0x42; 1024]);
    for i in 0..2048 {
        writer.write_raw(&format!("key-{}", i % 11), payload.clone());
    }
    writer.flush().unwrap();

    let snap = cluster.metrics().snapshot();
    let fill = snap
        .histogram("segmentstore.durablelog.frame_fill_pct")
        .expect("fill ratio histogram exists");
    assert!(fill.count > 0, "saturating load must seal frames\n{snap}");
    assert!(
        fill.p50 > 50,
        "median frame fill {}% is not saturated (expected > 50%)\n{snap}",
        fill.p50
    );
    cluster.shutdown();
}

/// One full write → tier → read pass lights up every stage of the pipeline:
/// the snapshot must report non-zero values for at least 8 distinct
/// instruments, and the stage-level ones must be consistent with the load.
#[test]
fn end_to_end_pass_activates_instruments_at_every_stage() {
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_millis(5);
    let cluster = PravegaCluster::start(config).unwrap();
    let s = stream("e2e");
    cluster.create_scope("obs").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(2)))
        .unwrap();

    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..50 {
        writer.write_event(&format!("key-{}", i % 5), &format!("event-{i}"));
    }
    writer.flush().unwrap();

    let group = cluster
        .create_reader_group("obs", "g-e2e", vec![s])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let mut read = 0;
    while read < 50 {
        match reader.read_next(Duration::from_secs(5)).unwrap() {
            Some(_) => read += 1,
            None => panic!("timed out after {read} events"),
        }
    }
    cluster.wait_for_tiering(Duration::from_secs(10)).unwrap();
    // The checkpoint that lets the WAL truncate is written by the first
    // flush pass that finds nothing left to move.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while cluster
        .metrics()
        .snapshot()
        .counter("segmentstore.container.checkpoints")
        .unwrap_or(0)
        == 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "no metadata checkpoint after tiering drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let snap = cluster.metrics().snapshot();
    assert!(
        snap.active_instruments() >= 8,
        "expected >= 8 active instruments after an end-to-end pass, got {}\n{snap}",
        snap.active_instruments()
    );

    // Client edges agree with the workload.
    assert_eq!(
        snap.counter("client.writer.events_written"),
        Some(50),
        "\n{snap}"
    );
    assert_eq!(
        snap.counter("client.reader.events_read"),
        Some(50),
        "\n{snap}"
    );

    // Middle stages all saw traffic.
    for hist in [
        "client.writer.flush_nanos",
        "client.writer.rtt_nanos",
        "segmentstore.durablelog.frame_bytes",
        "segmentstore.durablelog.wal_append_nanos",
        "segmentstore.durablelog.wal_quorum_nanos",
        "segmentstore.durablelog.frame_open_nanos",
        "segmentstore.storagewriter.flush_pass_nanos",
        "lts.chunked.write_nanos",
        "wal.journal.group_commit_entries",
    ] {
        assert!(
            snap.histogram(hist).is_some_and(|h| h.count > 0),
            "histogram {hist} recorded nothing\n{snap}"
        );
    }
    for counter in [
        "segmentstore.durablelog.idle_frames",
        "segmentstore.storagewriter.flushed_bytes",
        "segmentstore.container.checkpoints",
        "lts.chunked.write_bytes",
        "wal.journal.syncs",
    ] {
        assert!(
            snap.counter(counter).unwrap_or(0) > 0,
            "counter {counter} recorded nothing\n{snap}"
        );
    }
    // `wal_append` (frame opened -> ack) is `frame_open` (first op -> seal)
    // plus `wal_quorum` (submit -> ack), frame by frame.
    let mean = |name: &str| snap.histogram(name).map_or(0.0, |h| h.mean);
    assert!(
        mean("segmentstore.durablelog.wal_quorum_nanos")
            <= mean("segmentstore.durablelog.wal_append_nanos"),
        "the WAL's own latency exceeds the latency that contains it\n{snap}"
    );

    // The snapshot serialises to well-formed JSON with every section present.
    let json = snap.to_json();
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "client.writer.events_written",
    ] {
        assert!(json.contains(key), "JSON snapshot missing {key}: {json}");
    }
    cluster.shutdown();

    // The batch delay is recorded once per frame, as zero for a frame that
    // opened on an idle log. The delay is recorded when a frame opens and
    // its size when it seals, and the flusher keeps writing checkpoint
    // frames until shutdown, so compare on a snapshot with no frame
    // half-built.
    let snap = cluster.metrics().snapshot();
    let frames = snap
        .histogram("segmentstore.durablelog.frame_bytes")
        .unwrap();
    let delays = snap
        .histogram("segmentstore.durablelog.batch_delay_nanos")
        .unwrap();
    assert_eq!(delays.count, frames.count, "\n{snap}");
    assert_eq!(delays.min, 0, "an idle frame waits no delay\n{snap}");
}

/// A caught-up event reader parks its read at the store: the wait shows in
/// the read index (`tail_read_waits`) and in the store (`tail_read_threads`,
/// one per connection that parked a read), the append that ends it reaches
/// the reader as part of its fetch wait, and reads of freshly appended data
/// hit the block cache.
#[test]
fn tail_read_waits_and_cache_hits_are_observable() {
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_millis(5);
    let cluster = PravegaCluster::start(config).unwrap();
    let s = stream("tail");
    cluster.create_scope("obs").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();

    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..20 {
        writer.write_event("key", &format!("event-{i}"));
    }
    writer.flush().unwrap();

    let group = cluster
        .create_reader_group("obs", "g-tail", vec![s])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    for read in 0..20 {
        assert!(
            reader.read_next(Duration::from_secs(5)).unwrap().is_some(),
            "timed out after {read} events"
        );
    }
    // Caught up: the read the last reply sent waits at the store.
    let (parked, snap) = poll_snapshot(&cluster, Duration::from_secs(10), |s| {
        s.counter("segmentstore.readindex.tail_read_waits")
            .unwrap_or(0)
            > 0
    });
    assert!(
        parked,
        "a caught-up reader must park a read at the tail\n{snap}"
    );
    assert_eq!(
        snap.counter("segmentstore.store.tail_read_threads"),
        Some(1),
        "the reader's one data connection parked its read on one tail thread\n{snap}"
    );
    // Nothing new: the reader sleeps on its parked read for the whole call,
    // and that sleep is a fetch wait.
    let waited = |snap: &Snapshot| {
        snap.histogram("client.reader.fetch_wait_nanos")
            .map_or(0, |h| h.sum)
    };
    let before = waited(&snap);
    assert!(reader
        .read_next(Duration::from_millis(100))
        .unwrap()
        .is_none());
    let snap = cluster.metrics().snapshot();
    assert!(
        waited(&snap) - before >= 50_000_000,
        "a reader waiting on its parked read records a fetch wait\n{snap}"
    );

    // The next append answers the parked read.
    writer.write_event("key", &"event-20".to_string());
    writer.flush().unwrap();
    let e = reader.read_next(Duration::from_secs(5)).unwrap();
    assert_eq!(e.map(|e| e.event).as_deref(), Some("event-20"));

    let snap = cluster.metrics().snapshot();
    assert!(
        snap.counter("segmentstore.readindex.cache_hits")
            .unwrap_or(0)
            > 0,
        "reads of freshly appended data must hit the block cache\n{snap}"
    );
    cluster.shutdown();
}

/// A catch-up read served from LTS is visible at both ends: the chunked
/// layer counts the physical bytes it fetched and the blocks it verified
/// beside the logical bytes it returned, and the reader records how long
/// `read_next` sat with nothing buffered, waiting for a read in flight.
#[test]
fn cold_read_counts_fetched_bytes_verified_blocks_and_reader_waits() {
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_millis(5);
    // A 2 MiB cache under a 6 MiB stream: once the stream is tiered, only its
    // newest ~1.4 MiB (the cache's low watermark) is still in memory.
    config.container.cache.max_buffers = 1;
    config.lts = LtsKind::Throttled(ThrottleModel {
        bandwidth_bytes_per_sec: 256 * 1024 * 1024,
        per_op_latency: Duration::from_millis(2),
    });
    let cluster = PravegaCluster::start(config).unwrap();
    let s = stream("cold");
    cluster.create_scope("obs").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), BytesSerializer, WriterConfig::default());
    let payload = Bytes::from(vec![0x5A; 1024]);
    let events = 6 * 1024;
    for i in 0..events {
        writer.write_raw(&format!("key-{}", i % 7), payload.clone());
    }
    writer.flush().unwrap();
    drop(writer);
    cluster.wait_for_tiering(Duration::from_secs(30)).unwrap();
    let before = cluster.metrics().snapshot();

    let group = cluster
        .create_reader_group("obs", "g-cold", vec![s])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", BytesSerializer);
    // Only the cold first half. Past it, the reader would go from LTS fills
    // to the resident tail, and any apply in this container may evict tail
    // entries just ahead of it: the read that then misses starts inside a
    // block whose head came from memory, and pays for all of it.
    for read in 0..events / 2 {
        assert!(
            reader.read_next(Duration::from_secs(10)).unwrap().is_some(),
            "timed out after {read} events"
        );
    }

    let snap = cluster.metrics().snapshot();
    let gained = |name: &str| snap.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let returned = gained("lts.chunked.read_bytes");
    let fetched = gained("lts.chunked.fetched_bytes");
    let blocks = gained("lts.chunked.blocks_verified");
    assert!(
        returned >= 2 * 1024 * 1024 && blocks > 0,
        "the head of the stream did not come from LTS\n{snap}"
    );
    // Framing is 8 bytes a block; anything much above that is a block
    // fetched more than once.
    assert!(
        fetched >= returned + 8 * blocks && fetched as f64 <= returned as f64 * 1.1,
        "{fetched} physical bytes fetched for {returned} returned\n{snap}"
    );
    let waits = snap
        .histogram("client.reader.fetch_wait_nanos")
        .expect("the reader registers its wait histogram");
    assert!(
        waits.count > 0 && waits.sum >= 2_000_000,
        "a read that costs the LTS 2 ms was waited for\n{snap}"
    );
    cluster.shutdown();
}

/// The integrity instruments (DESIGN.md §13): scrubbing records scan and
/// detection counts under `lts.scrub.*`, and a corrupt bookie replica bumps
/// `wal.bookie.entry_corrupt`. Two clusters because the two injection
/// surfaces need opposite tiering configs: chunks must be tiered to exist,
/// entries must *not* be tiered so the WAL still retains them.
#[test]
fn scrub_instruments_record_detection_and_repair() {
    // LTS side: tier, corrupt a stored chunk, scrub.
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_millis(5);
    config.container.max_flush_bytes = 1024;
    config.max_chunk_bytes = 4096;
    let cluster = PravegaCluster::start(config).unwrap();
    let s = stream("scrub-lts");
    cluster.create_scope("obs").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..100 {
        writer.write_event("k", &format!("event-{i:03}"));
    }
    writer.flush().unwrap();
    cluster.wait_for_tiering(Duration::from_secs(10)).unwrap();

    let backend = cluster.chunk_backend().expect("in-memory LTS");
    let victim = backend
        .chunk_names()
        .into_iter()
        .find(|n| n.contains("scrub-lts"))
        .expect("tiering produced a chunk");
    assert!(backend.flip_bit(&victim, 6, 0x20));
    let (report, _) = cluster.scrub_now();
    assert!(report.corruption_detected >= 1);

    let snap = cluster.metrics().snapshot();
    assert!(
        snap.counter("lts.scrub.chunks_scanned").unwrap_or(0) > 0,
        "chunks_scanned must record the pass\n{snap}"
    );
    assert!(
        snap.counter("lts.scrub.corruption_detected").unwrap_or(0) >= 1,
        "corruption_detected must record the flip\n{snap}"
    );
    let handled = snap.counter("lts.scrub.repaired").unwrap_or(0)
        + snap.counter("lts.scrub.quarantined").unwrap_or(0);
    assert!(
        handled >= 1,
        "a detected chunk is either repaired or quarantined\n{snap}"
    );
    cluster.shutdown();

    // WAL side: keep entries WAL-resident, corrupt one replica, scrub.
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_secs(3600);
    let cluster = PravegaCluster::start(config).unwrap();
    let s = stream("scrub-wal");
    cluster.create_scope("obs").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..50 {
        writer.write_event("k", &format!("event-{i:03}"));
    }
    writer.flush().unwrap();

    let bookie = &cluster.mem_bookies()[0];
    let (ledger, entry) = bookie
        .ledger_ids()
        .into_iter()
        .find_map(|l| bookie.entry_ids(l).first().map(|&e| (l, e)))
        .expect("acked appends left stored entries");
    assert!(bookie.flip_entry_bit(ledger, entry, 9, 0x01));
    let (_, ledgers) = cluster.scrub_now();
    assert!(ledgers.corrupt >= 1);

    let snap = cluster.metrics().snapshot();
    assert!(
        snap.counter("wal.bookie.entry_corrupt").unwrap_or(0) >= 1,
        "entry_corrupt must record the detection\n{snap}"
    );
    cluster.shutdown();
}

//! End-to-end integration tests over the embedded cluster: the full path of
//! Figure 1 — client → segment store → WAL (bookies) → LTS — including
//! exactly-once semantics, reader groups, tiering, store failure and
//! recovery, and metadata stored in Pravega's own tables.

use std::collections::HashMap;
use std::time::Duration;

use pravega::client::{BytesSerializer, StringSerializer, WriterConfig};
use pravega::common::id::ScopedStream;
use pravega::common::policy::{RetentionPolicy, ScalingPolicy, StreamConfiguration};
use pravega::core::{ClusterConfig, LtsKind, PravegaCluster};
use pravega_core as _;

fn small_cluster() -> PravegaCluster {
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_millis(5);
    PravegaCluster::start(config).unwrap()
}

fn stream(name: &str) -> ScopedStream {
    ScopedStream::new("it", name).unwrap()
}

#[test]
fn write_then_read_single_segment() {
    let cluster = small_cluster();
    let s = stream("basic");
    cluster.create_scope("it").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..100 {
        writer.write_event("key", &format!("event-{i:03}"));
    }
    writer.flush().unwrap();

    let group = cluster
        .create_reader_group("it", "g-basic", vec![s])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let mut got = Vec::new();
    while got.len() < 100 {
        match reader.read_next(Duration::from_secs(5)).unwrap() {
            Some(e) => got.push(e.event),
            None => panic!("timed out after {} events", got.len()),
        }
    }
    for (i, e) in got.iter().enumerate() {
        assert_eq!(e, &format!("event-{i:03}"));
    }
    cluster.shutdown();
}

#[test]
fn per_key_order_with_many_keys_and_segments() {
    let cluster = small_cluster();
    let s = stream("ordered");
    cluster.create_scope("it").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(4)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    let keys: Vec<String> = (0..10).map(|k| format!("key-{k}")).collect();
    for i in 0..40 {
        for key in &keys {
            writer.write_event(key, &format!("{key}:{i:03}"));
        }
    }
    writer.flush().unwrap();

    let group = cluster
        .create_reader_group("it", "g-ordered", vec![s])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let mut per_key: HashMap<String, Vec<u32>> = HashMap::new();
    let total = 40 * keys.len();
    for _ in 0..total {
        let e = reader
            .read_next(Duration::from_secs(5))
            .unwrap()
            .expect("event within timeout");
        let (key, seq) = e.event.split_once(':').unwrap();
        per_key
            .entry(key.to_string())
            .or_default()
            .push(seq.parse().unwrap());
    }
    // Per-routing-key order must hold even across parallel segments.
    for (key, seqs) in per_key {
        assert_eq!(seqs.len(), 40, "missing events for {key}");
        for (i, seq) in seqs.iter().enumerate() {
            assert_eq!(*seq as usize, i, "out of order for {key}: {seqs:?}");
        }
    }
    cluster.shutdown();
}

#[test]
fn two_readers_split_the_stream_without_duplicates() {
    let cluster = small_cluster();
    let s = stream("group");
    cluster.create_scope("it").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(4)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    let total = 400;
    for i in 0..total {
        writer.write_event(&format!("key-{}", i % 37), &format!("e{i:04}"));
    }
    writer.flush().unwrap();

    let group = cluster.create_reader_group("it", "g-two", vec![s]).unwrap();
    let g1 = group.clone();
    let cluster_ref = &cluster;
    let (tx, rx) = std::sync::mpsc::channel::<Vec<String>>();
    std::thread::scope(|scope| {
        for r in ["r1", "r2"] {
            let group = g1.clone();
            let tx = tx.clone();
            let reader = cluster_ref.create_reader(&group, r, StringSerializer);
            scope.spawn(move || {
                let mut reader = reader;
                let mut got = Vec::new();
                // Drain until the group quiesces (None = timed out, no data).
                while let Some(e) = reader.read_next(Duration::from_millis(1500)).unwrap() {
                    got.push(e.event);
                }
                tx.send(got).unwrap();
            });
        }
    });
    drop(tx);
    let mut all: Vec<String> = rx.into_iter().flatten().collect();
    assert_eq!(all.len(), total, "exactly-once across the group");
    all.sort();
    all.dedup();
    assert_eq!(all.len(), total, "no duplicates");
    // Both readers saw work (the group rebalances fairly).
    let state = group.state().unwrap();
    assert!(state.assignments_disjoint());
    cluster.shutdown();
}

#[test]
fn manual_scale_preserves_key_order_for_live_writer_and_reader() {
    let cluster = small_cluster();
    let s = stream("scaled");
    cluster.create_scope("it").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();

    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    // First half before the scale.
    for i in 0..50 {
        for k in 0..5 {
            writer.write_event(&format!("key-{k}"), &format!("key-{k}:{i:03}"));
        }
    }
    writer.flush().unwrap();

    // Scale 1 → 2 while the writer is alive.
    let current = cluster.controller().current_segments(&s).unwrap();
    let old = current[0].clone();
    cluster
        .controller()
        .scale_stream(&s, vec![old.segment.segment_id()], old.range.split(2))
        .unwrap();

    // Second half: the writer must discover the seal and re-route.
    for i in 50..100 {
        for k in 0..5 {
            writer.write_event(&format!("key-{k}"), &format!("key-{k}:{i:03}"));
        }
    }
    writer.flush().unwrap();

    // Read everything; per-key order must span the scale boundary.
    let group = cluster
        .create_reader_group("it", "g-scaled", vec![s])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let mut per_key: HashMap<String, Vec<u32>> = HashMap::new();
    for _ in 0..500 {
        let e = reader
            .read_next(Duration::from_secs(5))
            .unwrap()
            .expect("event within timeout");
        let (key, seq) = e.event.split_once(':').unwrap();
        per_key
            .entry(key.to_string())
            .or_default()
            .push(seq.parse().unwrap());
    }
    for (key, seqs) in per_key {
        assert_eq!(seqs.len(), 100);
        for (i, seq) in seqs.iter().enumerate() {
            assert_eq!(*seq as usize, i, "order broken across scale for {key}");
        }
    }
    cluster.shutdown();
}

#[test]
fn data_tiers_to_lts_and_remains_readable() {
    let cluster = small_cluster();
    let s = stream("tiered");
    cluster.create_scope("it").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(2)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), BytesSerializer, WriterConfig::default());
    for i in 0..200u32 {
        writer.write_event(
            &format!("key-{}", i % 11),
            &bytes::Bytes::from(vec![i as u8; 512]),
        );
    }
    writer.flush().unwrap();
    cluster.wait_for_tiering(Duration::from_secs(20)).unwrap();

    // Everything is in LTS now; historical read still returns every event.
    let group = cluster
        .create_reader_group("it", "g-tiered", vec![s.clone()])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", BytesSerializer);
    let mut count = 0;
    while count < 200 {
        match reader.read_next(Duration::from_secs(5)).unwrap() {
            Some(e) => {
                assert_eq!(e.event.len(), 512);
                count += 1;
            }
            None => panic!("timed out after {count} events"),
        }
    }
    // LTS really holds chunks for the stream's segments.
    let segments = cluster.controller().current_segments(&s).unwrap();
    let chunks = cluster
        .lts()
        .chunk_names(&segments[0].segment.qualified_name())
        .unwrap();
    assert!(!chunks.is_empty(), "expected chunks in LTS");
    cluster.shutdown();
}

#[test]
fn store_failure_recovers_containers_without_data_loss() {
    let cluster = small_cluster();
    let s = stream("failover");
    cluster.create_scope("it").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(2)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..100 {
        writer.write_event(&format!("k{}", i % 7), &format!("pre-{i:03}"));
    }
    writer.flush().unwrap();
    drop(writer);

    // Crash one store abruptly: its containers move and recover from the WAL.
    let victim = cluster.store_hosts()[0].clone();
    cluster.crash_store(&victim).unwrap();

    // A fresh writer keeps working after failover.
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..100 {
        writer.write_event(&format!("k{}", i % 7), &format!("post-{i:03}"));
    }
    writer.flush().unwrap();

    // All 200 events are there, exactly once.
    let group = cluster
        .create_reader_group("it", "g-failover", vec![s])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let mut got = Vec::new();
    while got.len() < 200 {
        match reader.read_next(Duration::from_secs(10)).unwrap() {
            Some(e) => got.push(e.event),
            None => panic!("timed out after {} events", got.len()),
        }
    }
    got.sort();
    got.dedup();
    assert_eq!(got.len(), 200, "no duplicates, no loss across failover");
    cluster.shutdown();
}

#[test]
fn controller_metadata_lives_in_pravega_tables() {
    // Verify streams survive via the metadata table segment by listing
    // through the controller.
    let cluster = small_cluster();
    cluster.create_scope("it").unwrap();
    for name in ["a", "b", "c"] {
        cluster
            .create_stream(
                &stream(name),
                StreamConfiguration::new(ScalingPolicy::fixed(1)),
            )
            .unwrap();
    }
    let mut streams = cluster.controller().list_streams("it");
    streams.sort();
    assert_eq!(streams.len(), 3);
    assert_eq!(streams[0], stream("a"));
    let scopes = cluster.controller().list_scopes();
    assert!(scopes.contains(&"it".to_string()));
    cluster.shutdown();
}

#[test]
fn sealed_stream_rejects_writes_and_signals_readers() {
    let cluster = small_cluster();
    let s = stream("sealme");
    cluster.create_scope("it").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    writer.write_event("k", &"last".to_string());
    writer.flush().unwrap();
    cluster.controller().seal_stream(&s).unwrap();

    let pr = writer.write_event("k", &"too-late".to_string());
    assert!(pr.wait().unwrap().is_err(), "write after seal must fail");

    // Readers drain the stream and then see no more events.
    let group = cluster
        .create_reader_group("it", "g-sealed", vec![s])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let e = reader.read_next(Duration::from_secs(5)).unwrap().unwrap();
    assert_eq!(e.event, "last");
    assert!(reader
        .read_next(Duration::from_millis(300))
        .unwrap()
        .is_none());
    cluster.shutdown();
}

#[test]
fn size_retention_truncates_stream_head() {
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_millis(5);
    let cluster = PravegaCluster::start(config).unwrap();
    let s = stream("retained");
    cluster.create_scope("it").unwrap();
    cluster
        .create_stream(
            &s,
            StreamConfiguration::new(ScalingPolicy::fixed(1))
                .with_retention(RetentionPolicy::BySize { max_bytes: 4096 }),
        )
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), BytesSerializer, WriterConfig::default());
    for _ in 0..100 {
        writer.write_event("k", &bytes::Bytes::from(vec![0u8; 256]));
    }
    writer.flush().unwrap();
    cluster.run_retention_once(&s).unwrap();
    let head = cluster.controller().head_segments(&s).unwrap();
    assert_eq!(head.len(), 1);
    assert!(head[0].1 > 0, "head offset should move forward");
    cluster.shutdown();
}

#[test]
fn noop_lts_accepts_writes_without_storing_data() {
    let mut config = ClusterConfig {
        lts: LtsKind::NoOp,
        ..ClusterConfig::default()
    };
    config.container.flush_interval = Duration::from_millis(5);
    let cluster = PravegaCluster::start(config).unwrap();
    let s = stream("noop");
    cluster.create_scope("it").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..50 {
        writer.write_event("k", &format!("e{i}"));
    }
    writer.flush().unwrap();
    cluster.wait_for_tiering(Duration::from_secs(10)).unwrap();
    cluster.shutdown();
}

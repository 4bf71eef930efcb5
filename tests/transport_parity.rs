//! Embedded-vs-TCP transport parity: the same workload run over the
//! in-process channel transport and over the framed TCP transport must be
//! observably identical — same events, same order, same seal semantics, same
//! exactly-once behavior across a store failure and reconnect.
//!
//! Each scenario returns its full observable outcome as data; the test body
//! runs it once per [`TransportKind`] and compares the outcomes with `==`.
//! A client must never be able to tell which transport it is on.

use std::time::Duration;

use pravega::client::{StringSerializer, WriterConfig};
use pravega::common::id::ScopedStream;
use pravega::common::policy::{ScalingPolicy, StreamConfiguration};
use pravega::core::{ClusterConfig, PravegaCluster, TransportKind};
use pravega_core as _;

fn cluster_with(transport: TransportKind) -> PravegaCluster {
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_millis(5);
    config.transport = transport;
    PravegaCluster::start(config).unwrap()
}

fn stream(name: &str) -> ScopedStream {
    ScopedStream::new("parity", name).unwrap()
}

fn read_events(
    cluster: &PravegaCluster,
    s: &ScopedStream,
    group: &str,
    total: usize,
) -> Vec<String> {
    let group = cluster
        .create_reader_group("parity", group, vec![s.clone()])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let mut got = Vec::new();
    while got.len() < total {
        match reader.read_next(Duration::from_secs(10)).unwrap() {
            Some(e) => got.push(e.event),
            None => panic!("timed out after {} of {total} events", got.len()),
        }
    }
    got
}

/// Write → read on a single segment: the exact event sequence read back.
fn run_write_then_read(transport: TransportKind) -> Vec<String> {
    let cluster = cluster_with(transport);
    let s = stream("basic");
    cluster.create_scope("parity").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..100 {
        writer.write_event("key", &format!("event-{i:03}"));
    }
    writer.flush().unwrap();
    let got = read_events(&cluster, &s, "g-basic", 100);
    cluster.shutdown();
    got
}

/// Seal semantics: (last event read, post-seal write failed, tail is quiet).
fn run_seal_behavior(transport: TransportKind) -> (String, bool, bool) {
    let cluster = cluster_with(transport);
    let s = stream("sealme");
    cluster.create_scope("parity").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(1)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    writer.write_event("k", &"last".to_string());
    writer.flush().unwrap();
    cluster.controller().seal_stream(&s).unwrap();

    let pr = writer.write_event("k", &"too-late".to_string());
    let write_failed = pr.wait().unwrap().is_err();

    let group = cluster
        .create_reader_group("parity", "g-sealed", vec![s])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let last = reader
        .read_next(Duration::from_secs(5))
        .unwrap()
        .unwrap()
        .event;
    let tail_quiet = reader
        .read_next(Duration::from_millis(300))
        .unwrap()
        .is_none();
    cluster.shutdown();
    (last, write_failed, tail_quiet)
}

/// Exactly-once across a store crash: the sorted, deduped event set (must be
/// all 200) — the writer reconnects mid-stream and the event-number
/// handshake suppresses duplicates.
fn run_failover_exactly_once(transport: TransportKind) -> Vec<String> {
    let cluster = cluster_with(transport);
    let s = stream("failover");
    cluster.create_scope("parity").unwrap();
    cluster
        .create_stream(&s, StreamConfiguration::new(ScalingPolicy::fixed(2)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..100 {
        writer.write_event(&format!("k{}", i % 7), &format!("pre-{i:03}"));
    }
    writer.flush().unwrap();
    drop(writer);

    // Crash one store abruptly. On TCP this also severs its sockets; a fresh
    // writer must handshake with the new owner and resume exactly-once.
    let victim = cluster.store_hosts()[0].clone();
    cluster.crash_store(&victim).unwrap();

    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    for i in 0..100 {
        writer.write_event(&format!("k{}", i % 7), &format!("post-{i:03}"));
    }
    writer.flush().unwrap();
    drop(writer);

    let mut got = read_events(&cluster, &s, "g-failover", 200);
    cluster.shutdown();
    got.sort();
    got.dedup();
    got
}

#[test]
fn write_then_read_is_identical_across_transports() {
    let embedded = run_write_then_read(TransportKind::InProcess);
    let tcp = run_write_then_read(TransportKind::Tcp);
    assert_eq!(embedded.len(), 100);
    assert_eq!(
        embedded, tcp,
        "TCP and embedded transports must read back the identical sequence"
    );
}

#[test]
fn seal_semantics_are_identical_across_transports() {
    let embedded = run_seal_behavior(TransportKind::InProcess);
    let tcp = run_seal_behavior(TransportKind::Tcp);
    assert_eq!(embedded, ("last".to_string(), true, true));
    assert_eq!(
        embedded, tcp,
        "seal must behave identically on both transports"
    );
}

#[test]
fn failover_exactly_once_is_identical_across_transports() {
    let embedded = run_failover_exactly_once(TransportKind::InProcess);
    let tcp = run_failover_exactly_once(TransportKind::Tcp);
    assert_eq!(embedded.len(), 200, "no loss, no duplicates (embedded)");
    assert_eq!(tcp.len(), 200, "no loss, no duplicates (TCP)");
    assert_eq!(
        embedded, tcp,
        "exactly-once resume must produce the identical event set"
    );
}

#[test]
fn tcp_cluster_exposes_endpoints_and_embedded_does_not() {
    let embedded = cluster_with(TransportKind::InProcess);
    assert!(embedded.tcp_endpoints().is_empty());
    assert_eq!(embedded.kill_tcp_connections(), 0, "no-op without sockets");
    embedded.shutdown();

    let tcp = cluster_with(TransportKind::Tcp);
    let endpoints = tcp.tcp_endpoints();
    assert_eq!(endpoints.len(), 3, "one listener per default store");
    for (host, addr) in &endpoints {
        assert!(host.starts_with("segmentstore-"));
        assert!(addr.ip().is_loopback());
    }
    tcp.shutdown();
}

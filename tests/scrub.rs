//! Corruption matrix: seeded silent-corruption injection against stored LTS
//! chunks and bookie entries, verified end to end (DESIGN.md §13).
//!
//! Every test derives its injection sequence from one `u64` seed, on the
//! fault plan's third (corruption) stream. CI runs the suite under several
//! fixed seeds plus one random seed; any failure prints the seed, the
//! injection log is persisted under `target/scrub-logs/` for the CI
//! artifact, and `SCRUB_SEED=<n> cargo test --test scrub` replays the exact
//! same corruption sequence byte-for-byte.

use std::sync::Arc;
use std::time::Duration;

use pravega::client::{StringSerializer, WriterConfig};
use pravega::common::id::ScopedStream;
use pravega::common::policy::{ScalingPolicy, StreamConfiguration};
use pravega::common::retry::RetryClass;
use pravega::core::{ClusterConfig, PravegaCluster};
use pravega::faults::{corrupt_chunk, corrupt_entry, FaultPlan, FaultRecord, FaultSpec};
use pravega::segmentstore::cache::CacheConfig;

/// The seed every plan in this file draws from. `SCRUB_SEED=<n>` overrides
/// the built-in default so a CI failure can be replayed locally.
fn scrub_seed() -> u64 {
    let seed = std::env::var("SCRUB_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_C0DE);
    eprintln!("scrub seed: {seed} (replay with SCRUB_SEED={seed})");
    seed
}

/// Corruption draws come off the plan's own disjoint stream; no operation
/// faults fire, so the write path itself stays healthy.
fn corruption_spec() -> FaultSpec {
    FaultSpec {
        transient_error_rate: 0.0,
        latency_spike_rate: 0.0,
        latency_spike: Duration::ZERO,
        torn_write_rate: 0.0,
    }
}

/// Writes the plan's injection log under `target/scrub-logs/` so a CI
/// failure can attach the exact corruption schedule that produced it.
fn persist_log(name: &str, seed: u64, log: &[FaultRecord]) {
    let dir = std::path::Path::new("target/scrub-logs");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut text = String::new();
    for r in log {
        text.push_str(&format!(
            "op={} operation={} decision={:?}\n",
            r.op_index, r.operation, r.decision
        ));
    }
    let _ = std::fs::write(dir.join(format!("{name}-{seed}.log")), text);
}

fn stream(name: &str) -> ScopedStream {
    ScopedStream::new("scrub", name).unwrap()
}

fn write_events(cluster: &PravegaCluster, s: &ScopedStream, total: usize) -> Vec<String> {
    cluster.create_scope("scrub").unwrap();
    cluster
        .create_stream(s, StreamConfiguration::new(ScalingPolicy::fixed(2)))
        .unwrap();
    let mut writer = cluster.create_writer(s.clone(), StringSerializer, WriterConfig::default());
    let events: Vec<String> = (0..total).map(|i| format!("event-{i:04}")).collect();
    for (i, e) in events.iter().enumerate() {
        writer.write_event(&format!("k{}", i % 13), e);
    }
    writer.flush().unwrap();
    events
}

/// The LTS side of the matrix: tier everything, corrupt every stored chunk
/// on the seeded corruption stream, and prove (a) one scrub pass detects
/// 100% of the injected corruption, and (b) readers get acked bytes or a
/// typed corruption error — never silent wrong bytes, never a panic.
#[test]
fn every_injected_chunk_corruption_is_detected_in_one_scrub_pass() {
    let seed = scrub_seed();
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_millis(5);
    config.container.max_flush_bytes = 1024;
    config.max_chunk_bytes = 4096;
    // A small cache with a low eviction watermark: flushed entries are
    // evicted, so reads after tiering go cold — through LTS verification.
    config.container.cache = CacheConfig {
        block_size: 256,
        blocks_per_buffer: 16,
        max_buffers: 8,
    };
    config.container.cache_high_watermark = 0.25;
    let cluster = PravegaCluster::start(config).unwrap();

    let s = stream("chunks");
    let total = 200;
    let events = write_events(&cluster, &s, total);
    cluster.wait_for_tiering(Duration::from_secs(30)).unwrap();

    // Corrupt every stored chunk, decisions drawn off the seed stream.
    let plan = Arc::new(FaultPlan::new(seed, corruption_spec()));
    let backend = cluster.chunk_backend().expect("InMemory cluster");
    let mut hit = 0u64;
    for name in backend.chunk_names() {
        if corrupt_chunk(&plan, &backend, &name).is_some() {
            hit += 1;
        }
    }
    persist_log("chunk-corruption", seed, &plan.log());
    assert!(hit > 0, "tiering produced chunks to corrupt");

    // One unpaced pass detects every corrupted chunk, and each one ends up
    // either repaired or quarantined — none silently pass.
    let (chunks, _ledgers) = cluster.scrub_now();
    assert_eq!(
        chunks.corruption_detected, hit,
        "scrubber must detect 100% of injected corruption in one pass"
    );
    assert_eq!(chunks.repaired + chunks.quarantined, hit);

    // Reads never serve wrong bytes: each event comes back byte-identical
    // or the read fails with a typed, permanent corruption error.
    let group = cluster
        .create_reader_group("scrub", "g-chunks", vec![s.clone()])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let mut got = Vec::new();
    loop {
        match reader.read_next(Duration::from_secs(5)) {
            Ok(Some(e)) => got.push(e.event),
            Ok(None) => break, // quiesced: nothing more is readable
            Err(e) => {
                assert!(
                    !e.is_transient(),
                    "corruption must surface typed/permanent, got transient {e}"
                );
                let msg = e.to_string();
                assert!(
                    msg.contains("checksum mismatch") || msg.contains("data loss"),
                    "expected a typed corruption error, got: {msg}"
                );
                break;
            }
        }
        if got.len() == total {
            break;
        }
    }
    // Whatever was served is exactly acked data (reader order is per-key;
    // set-compare against the acked events).
    let acked: std::collections::HashSet<&str> = events.iter().map(String::as_str).collect();
    for e in &got {
        assert!(
            acked.contains(e.as_str()),
            "reader served non-acked bytes: {e}"
        );
    }
    cluster.shutdown();
}

/// The WAL side of the matrix: keep everything in the WAL (no tiering),
/// corrupt one bookie's stored entries on the seeded stream, and prove one
/// scrub pass detects and heals every corrupt replica from its healthy
/// peers, after which every acked event reads back byte-identical.
#[test]
fn every_injected_entry_corruption_is_detected_and_healed() {
    let seed = scrub_seed();
    let mut config = ClusterConfig::default();
    // No tiering: acked data stays WAL-resident so every corrupt replica
    // has two healthy peers to heal from.
    config.container.flush_interval = Duration::from_secs(3600);
    let cluster = PravegaCluster::start(config).unwrap();

    let s = stream("entries");
    let total = 120;
    let events = write_events(&cluster, &s, total);

    let plan = Arc::new(FaultPlan::new(seed, corruption_spec()));
    let bookie = &cluster.mem_bookies()[1];
    let mut hit = 0u64;
    for ledger in bookie.ledger_ids() {
        for entry in bookie.entry_ids(ledger) {
            if corrupt_entry(&plan, bookie, ledger, entry).is_some() {
                hit += 1;
            }
        }
    }
    persist_log("entry-corruption", seed, &plan.log());
    assert!(hit > 0, "acked appends left entries to corrupt");

    // One pass detects every corrupt replica and heals it from a healthy
    // peer; a second pass finds a fully healthy ensemble.
    let (_chunks, ledgers) = cluster.scrub_now();
    assert_eq!(
        ledgers.corrupt, hit,
        "scrubber must detect 100% of injected corruption in one pass"
    );
    assert_eq!(
        ledgers.repaired, hit,
        "two healthy replicas remain for each entry"
    );
    let (_chunks, clean) = cluster.scrub_now();
    assert_eq!(clean.corrupt, 0, "first pass healed the ensemble");

    // The detections are on the books.
    let snap = cluster.metrics().snapshot();
    let detected = snap
        .counters
        .iter()
        .find(|(n, _)| n == "wal.bookie.entry_corrupt")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(
        detected >= hit,
        "entry_corrupt counter must record detections"
    );

    // Every acked event reads back byte-identical.
    let group = cluster
        .create_reader_group("scrub", "g-entries", vec![s.clone()])
        .unwrap();
    let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
    let mut got = Vec::new();
    while got.len() < total {
        match reader.read_next(Duration::from_secs(10)) {
            Ok(Some(e)) => got.push(e.event),
            Ok(None) => panic!("timed out after {} of {total} events", got.len()),
            Err(e) => panic!("healed cluster must read clean, got {e}"),
        }
    }
    got.sort();
    let mut expected = events.clone();
    expected.sort();
    assert_eq!(got, expected, "every acked event reads back byte-identical");
    cluster.shutdown();
}

/// Same seed, same injection log — byte for byte. The corruption stream is
/// disjoint from the operation-fault stream, so replaying with the seed
/// reproduces exactly the decisions a red CI run persisted.
#[test]
fn same_seed_reproduces_the_same_injection_log() {
    let seed = scrub_seed();
    let targets: Vec<(String, u64)> = (0..40)
        .map(|i| (format!("chunk:seg.chunk-{i:08}"), 16 + i as u64 * 7))
        .collect();

    let draw_all = |plan: &FaultPlan| {
        for (target, len) in &targets {
            let _ = plan.draw_corruption(target, *len);
        }
        plan.log()
    };
    let a = draw_all(&FaultPlan::new(seed, corruption_spec()));
    let b = draw_all(&FaultPlan::new(seed, corruption_spec()));
    let fmt = |log: &[FaultRecord]| {
        log.iter()
            .map(|r| {
                format!(
                    "op={} operation={} decision={:?}\n",
                    r.op_index, r.operation, r.decision
                )
            })
            .collect::<String>()
    };
    assert_eq!(
        fmt(&a),
        fmt(&b),
        "same seed must reproduce the log byte-for-byte"
    );

    let c = draw_all(&FaultPlan::new(seed ^ 1, corruption_spec()));
    assert_ne!(fmt(&a), fmt(&c), "different seeds must diverge");
}

//! Tests for the segment store layer: container hosting/reconciliation,
//! wire-protocol dispatch, and wrong-host routing (§2.2, §4.4).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pravega_common::clock::SystemClock;
use pravega_common::hashing::container_for_segment;
use pravega_common::id::{ScopedStream, SegmentId, WriterId};
use pravega_common::metrics::MetricsRegistry;
use pravega_common::wire::{Connection, Reply, Request, RequestEnvelope, TableUpdateEntry};
use pravega_lts::{
    ChunkedSegmentStorage, ChunkedStorageConfig, InMemoryChunkStorage, InMemoryMetadataStore,
};
use pravega_segmentstore::{
    ContainerConfig, SegmentContainer, SegmentStore, SegmentStoreConfig, TcpFrontend,
};
use pravega_wal::log::InMemoryLog;

fn new_store(container_count: u32) -> Arc<SegmentStore> {
    new_store_with_metrics(container_count, &MetricsRegistry::new())
}

fn new_store_with_metrics(container_count: u32, metrics: &MetricsRegistry) -> Arc<SegmentStore> {
    let lts = ChunkedSegmentStorage::new(
        Arc::new(InMemoryChunkStorage::new()),
        Arc::new(InMemoryMetadataStore::new()),
        ChunkedStorageConfig::default(),
    );
    let container_metrics = metrics.clone();
    SegmentStore::new_with_metrics(
        SegmentStoreConfig {
            host_id: "test-store".into(),
            container_count,
            container: ContainerConfig {
                max_batch_delay: Duration::from_millis(1),
                flush_interval: Duration::from_millis(5),
                ..ContainerConfig::default()
            },
        },
        Arc::new(move |id| {
            SegmentContainer::start_with_metrics(
                id,
                Arc::new(InMemoryLog::new()),
                lts.clone(),
                Arc::new(SystemClock::new()),
                ContainerConfig {
                    max_batch_delay: Duration::from_millis(1),
                    flush_interval: Duration::from_millis(5),
                    ..ContainerConfig::default()
                },
                &container_metrics,
            )
        }),
        metrics,
    )
}

fn segment(name: &str) -> pravega_common::id::ScopedSegment {
    ScopedStream::new("s", name)
        .unwrap()
        .segment(SegmentId::new(0, 0))
}

#[test]
fn reconcile_starts_and_stops_containers() {
    let store = new_store(4);
    assert!(store.running_containers().is_empty());
    store.reconcile_containers(&[0, 2]).unwrap();
    assert_eq!(store.running_containers(), vec![0, 2]);
    store.reconcile_containers(&[1, 2]).unwrap();
    assert_eq!(store.running_containers(), vec![1, 2]);
    // Idempotent.
    store.reconcile_containers(&[1, 2]).unwrap();
    assert_eq!(store.running_containers(), vec![1, 2]);
    store.shutdown();
    assert!(store.running_containers().is_empty());
}

#[test]
fn requests_for_unowned_containers_get_wrong_host() {
    let store = new_store(4);
    let seg = segment("t");
    let owner = container_for_segment(&seg, 4);
    // Run every container EXCEPT the owner.
    let assigned: Vec<u32> = (0..4).filter(|c| *c != owner).collect();
    store.reconcile_containers(&assigned).unwrap();
    match store.call(Request::CreateSegment {
        segment: seg.clone(),
        is_table: false,
    }) {
        Reply::WrongHost => {}
        other => panic!("expected WrongHost, got {other:?}"),
    }
    // Now run the owner: the request succeeds.
    store.reconcile_containers(&[owner]).unwrap();
    match store.call(Request::CreateSegment {
        segment: seg,
        is_table: false,
    }) {
        Reply::SegmentCreated => {}
        other => panic!("expected created, got {other:?}"),
    }
    store.shutdown();
}

#[test]
fn wire_protocol_full_lifecycle_over_a_connection() {
    let store = new_store(2);
    store.reconcile_containers(&[0, 1]).unwrap();
    let conn = store.connect().unwrap();
    let seg = segment("wire");
    let writer = WriterId::random();

    // Create.
    assert!(matches!(
        conn.call(
            1,
            Request::CreateSegment {
                segment: seg.clone(),
                is_table: false
            }
        )
        .unwrap(),
        Reply::SegmentCreated
    ));
    // Handshake: fresh writer.
    match conn
        .call(
            2,
            Request::SetupAppend {
                writer_id: writer,
                segment: seg.clone(),
            },
        )
        .unwrap()
    {
        Reply::AppendSetup { last_event_number } => assert_eq!(last_event_number, -1),
        other => panic!("{other:?}"),
    }
    // Pipelined appends (fire all, then collect acks).
    for i in 0..5u64 {
        conn.send(RequestEnvelope {
            request_id: 10 + i,
            request: Request::AppendBlock {
                writer_id: writer,
                segment: seg.clone(),
                last_event_number: i as i64,
                event_count: 1,
                data: Bytes::from(format!("e{i}")),
                expected_offset: None,
            },
        })
        .unwrap();
    }
    let mut acked = 0;
    while acked < 5 {
        let env = conn.recv().unwrap();
        if let Reply::DataAppended { .. } = env.reply {
            acked += 1;
        }
    }
    // Read back.
    match conn
        .call(
            20,
            Request::ReadSegment {
                segment: seg.clone(),
                offset: 0,
                max_bytes: 100,
                wait_for_data: false,
            },
        )
        .unwrap()
    {
        Reply::SegmentRead { data, .. } => assert_eq!(data.as_ref(), b"e0e1e2e3e4"),
        other => panic!("{other:?}"),
    }
    // Seal, verify, truncate, info, delete.
    assert!(matches!(
        conn.call(
            21,
            Request::SealSegment {
                segment: seg.clone()
            }
        )
        .unwrap(),
        Reply::SegmentSealed { final_length: 10 }
    ));
    assert!(matches!(
        conn.call(
            22,
            Request::TruncateSegment {
                segment: seg.clone(),
                offset: 4
            }
        )
        .unwrap(),
        Reply::SegmentTruncated
    ));
    match conn
        .call(
            23,
            Request::GetSegmentInfo {
                segment: seg.clone(),
            },
        )
        .unwrap()
    {
        Reply::SegmentInfo(info) => {
            assert_eq!(info.length, 10);
            assert_eq!(info.start_offset, 4);
            assert!(info.sealed);
        }
        other => panic!("{other:?}"),
    }
    assert!(matches!(
        conn.call(
            24,
            Request::DeleteSegment {
                segment: seg.clone()
            }
        )
        .unwrap(),
        Reply::SegmentDeleted
    ));
    assert!(matches!(
        conn.call(25, Request::GetSegmentInfo { segment: seg })
            .unwrap(),
        Reply::NoSuchSegment
    ));
    store.shutdown();
}

#[test]
fn wire_table_operations() {
    let store = new_store(2);
    store.reconcile_containers(&[0, 1]).unwrap();
    let conn = store.connect().unwrap();
    let seg = segment("table");
    assert!(matches!(
        conn.call(
            1,
            Request::CreateSegment {
                segment: seg.clone(),
                is_table: true
            }
        )
        .unwrap(),
        Reply::SegmentCreated
    ));
    // Insert two keys atomically.
    let versions = match conn
        .call(
            2,
            Request::TableUpdate {
                segment: seg.clone(),
                entries: vec![
                    TableUpdateEntry {
                        key: Bytes::from_static(b"a"),
                        value: Bytes::from_static(b"1"),
                        expected_version: Some(-1),
                    },
                    TableUpdateEntry {
                        key: Bytes::from_static(b"b"),
                        value: Bytes::from_static(b"2"),
                        expected_version: Some(-1),
                    },
                ],
            },
        )
        .unwrap()
    {
        Reply::TableUpdated { versions } => versions,
        other => panic!("{other:?}"),
    };
    // Conditional failure.
    assert!(matches!(
        conn.call(
            3,
            Request::TableUpdate {
                segment: seg.clone(),
                entries: vec![TableUpdateEntry {
                    key: Bytes::from_static(b"a"),
                    value: Bytes::from_static(b"x"),
                    expected_version: Some(-1),
                }],
            },
        )
        .unwrap(),
        Reply::ConditionalCheckFailed
    ));
    // Point read + iterate.
    match conn
        .call(
            4,
            Request::TableGet {
                segment: seg.clone(),
                keys: vec![Bytes::from_static(b"a")],
            },
        )
        .unwrap()
    {
        Reply::TableRead { values } => {
            let (v, ver) = values[0].clone().unwrap();
            assert_eq!(v.as_ref(), b"1");
            assert_eq!(ver, versions[0]);
        }
        other => panic!("{other:?}"),
    }
    match conn
        .call(
            5,
            Request::TableIterate {
                segment: seg.clone(),
                continuation: None,
                limit: 10,
            },
        )
        .unwrap()
    {
        Reply::TableIterated {
            entries,
            continuation,
        } => {
            assert_eq!(entries.len(), 2);
            assert!(continuation.is_none());
        }
        other => panic!("{other:?}"),
    }
    // Remove.
    assert!(matches!(
        conn.call(
            6,
            Request::TableRemove {
                segment: seg.clone(),
                keys: vec![(Bytes::from_static(b"a"), None)],
            },
        )
        .unwrap(),
        Reply::TableRemoved
    ));
    store.shutdown();
}

#[test]
fn tail_read_over_the_wire_does_not_block_the_connection() {
    let store = new_store(1);
    store.reconcile_containers(&[0]).unwrap();
    let conn = store.connect().unwrap();
    let seg = segment("tail");
    conn.call(
        1,
        Request::CreateSegment {
            segment: seg.clone(),
            is_table: false,
        },
    )
    .unwrap();
    // Issue a blocking tail read...
    conn.send(RequestEnvelope {
        request_id: 2,
        request: Request::ReadSegment {
            segment: seg.clone(),
            offset: 0,
            max_bytes: 100,
            wait_for_data: true,
        },
    })
    .unwrap();
    // ...then, on the SAME connection, an append that must not be stuck
    // behind it.
    conn.send(RequestEnvelope {
        request_id: 3,
        request: Request::AppendBlock {
            writer_id: WriterId::random(),
            segment: seg,
            last_event_number: 0,
            event_count: 1,
            data: Bytes::from_static(b"wake"),
            expected_offset: None,
        },
    })
    .unwrap();
    // Both replies arrive: the append ack and the tail read carrying the
    // appended bytes.
    let mut got_read = false;
    let mut got_append = false;
    for _ in 0..2 {
        let env = conn
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("reply within timeout");
        match env.reply {
            Reply::SegmentRead { data, .. } => {
                assert_eq!(data.as_ref(), b"wake");
                got_read = true;
            }
            Reply::DataAppended { .. } => got_append = true,
            other => panic!("{other:?}"),
        }
    }
    assert!(got_read && got_append);
    store.shutdown();
}

fn counter(metrics: &MetricsRegistry, name: &str) -> u64 {
    metrics.snapshot().counter(name).unwrap_or(0)
}

fn tail_read_threads(metrics: &MetricsRegistry) -> u64 {
    counter(metrics, "segmentstore.store.tail_read_threads")
}

/// Waits until `name` counts at least `want`.
fn await_counter(metrics: &MetricsRegistry, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(metrics, name) < want {
        assert!(Instant::now() < deadline, "{name} never reached {want}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn create(conn: &Connection, seg: &pravega_common::id::ScopedSegment) {
    let reply = conn
        .call(
            1,
            Request::CreateSegment {
                segment: seg.clone(),
                is_table: false,
            },
        )
        .unwrap();
    assert_eq!(reply, Reply::SegmentCreated);
}

fn append(store: &SegmentStore, seg: &pravega_common::id::ScopedSegment, data: &'static [u8]) {
    let reply = store.call(Request::AppendBlock {
        writer_id: WriterId::random(),
        segment: seg.clone(),
        last_event_number: 0,
        event_count: 1,
        data: Bytes::from_static(data),
        expected_offset: None,
    });
    assert!(matches!(reply, Reply::DataAppended { .. }), "{reply:?}");
}

fn waiting_read(conn: &Connection, request_id: u64, seg: &pravega_common::id::ScopedSegment) {
    conn.send(RequestEnvelope {
        request_id,
        request: Request::ReadSegment {
            segment: seg.clone(),
            offset: 0,
            max_bytes: 100,
            wait_for_data: true,
        },
    })
    .unwrap();
}

/// A read that may wait but finds bytes is answered on the connection
/// itself, as a read that may not wait would be: no tail thread.
#[test]
fn a_waiting_read_with_bytes_available_is_answered_without_a_tail_thread() {
    let metrics = MetricsRegistry::new();
    let store = new_store_with_metrics(1, &metrics);
    store.reconcile_containers(&[0]).unwrap();
    let conn = store.connect().unwrap();
    let seg = segment("ready");
    create(&conn, &seg);
    append(&store, &seg, b"ready");
    waiting_read(&conn, 2, &seg);
    let env = conn
        .recv_timeout(Duration::from_secs(5))
        .unwrap()
        .expect("reply within timeout");
    match env.reply {
        Reply::SegmentRead { data, .. } => assert_eq!(data.as_ref(), b"ready"),
        other => panic!("{other:?}"),
    }
    assert_eq!(tail_read_threads(&metrics), 0);
    store.shutdown();
}

/// Reads parked at the tail share their connection's one tail thread, and
/// one append answers every one of them.
#[test]
fn connections_that_park_many_reads_spawn_one_tail_thread_each() {
    let metrics = MetricsRegistry::new();
    let store = new_store_with_metrics(1, &metrics);
    store.reconcile_containers(&[0]).unwrap();
    let seg = segment("parked");
    let conns = [store.connect().unwrap(), store.connect().unwrap()];
    create(&conns[0], &seg);
    let per_conn = 8u64;
    for conn in &conns {
        for id in 0..per_conn {
            waiting_read(conn, 10 + id, &seg);
        }
    }
    // Each tail thread waits on its connection's first read, the others
    // queue behind it.
    await_counter(&metrics, "segmentstore.readindex.tail_read_waits", 2);
    append(&store, &seg, b"wake");
    for conn in &conns {
        for _ in 0..per_conn {
            let env = conn
                .recv_timeout(Duration::from_secs(1))
                .unwrap()
                .expect("the append answers every parked read");
            match env.reply {
                Reply::SegmentRead { data, .. } => assert_eq!(data.as_ref(), b"wake"),
                other => panic!("{other:?}"),
            }
        }
    }
    assert_eq!(
        tail_read_threads(&metrics),
        2,
        "one tail thread per connection"
    );
    store.shutdown();
}

/// A connection's teardown releases each queue before joining the thread
/// that drains it: the ack pump after `ack_tx`, the tail thread after
/// `tail_tx`. A client over TCP parks a read at the tail, has an append
/// acknowledged, and drops its connection; the connection must be gone
/// within the watchdog's 10 s. Joining either thread first hangs it.
///
/// The append's ack is received before the drop on purpose: an ack written
/// after it would fail on the closed socket and end the socket's writer
/// thread, and the parked read's reply would then fail too, letting the
/// tail thread exit whatever order the teardown used.
#[test]
fn a_dropped_tcp_connection_with_a_parked_read_tears_down() {
    let metrics = MetricsRegistry::new();
    let store = new_store_with_metrics(1, &metrics);
    store.reconcile_containers(&[0]).unwrap();
    let frontend = TcpFrontend::start(store.clone(), &metrics).unwrap();
    let conn = pravega_common::tcp::connect(frontend.local_addr()).unwrap();
    let (parked, written) = (segment("parked"), segment("written"));
    create(&conn, &parked);
    create(&conn, &written);
    waiting_read(&conn, 2, &parked);
    await_counter(&metrics, "segmentstore.readindex.tail_read_waits", 1);
    conn.send(RequestEnvelope {
        request_id: 3,
        request: Request::AppendBlock {
            writer_id: WriterId::random(),
            segment: written,
            last_event_number: 0,
            event_count: 1,
            data: Bytes::from_static(b"acked"),
            expected_offset: None,
        },
    })
    .unwrap();
    loop {
        let env = conn
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("the append is acknowledged");
        match env.reply {
            Reply::DataAppended { .. } => break,
            // The parked read's wait bound passed first on a slow host.
            Reply::SegmentRead { .. } => {}
            other => panic!("{other:?}"),
        }
    }
    drop(conn);

    let active = || {
        metrics
            .snapshot()
            .gauge("segmentstore.frontend.connections_active")
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while active() != Some(0) {
        assert!(
            Instant::now() < deadline,
            "connection teardown hung: connections_active = {:?}",
            active()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    frontend.stop();
    store.shutdown();
}

/// Stopping a container answers the reads parked on its segments at once,
/// not when their wait bound passes.
#[test]
fn a_parked_read_is_answered_when_its_container_stops() {
    let metrics = MetricsRegistry::new();
    let store = new_store_with_metrics(1, &metrics);
    store.reconcile_containers(&[0]).unwrap();
    let conn = store.connect().unwrap();
    let seg = segment("stopping");
    create(&conn, &seg);
    waiting_read(&conn, 2, &seg);
    await_counter(&metrics, "segmentstore.readindex.tail_read_waits", 1);
    let stopped = Instant::now();
    store.shutdown();
    let env = conn
        .recv_timeout(Duration::from_secs(1))
        .unwrap()
        .expect("the stop answers the parked read");
    assert_eq!(env.reply, Reply::ContainerNotReady);
    assert!(stopped.elapsed() < Duration::from_secs(1));
}

//! The reader keeps one `ReadSegment` in flight per assigned segment. These
//! tests pin what happens to that read when the segment under it changes
//! hands, ends, loses its head or its connection — and that a caught-up
//! reader parks that one read at the store instead of polling.
//!
//! Two test doubles make "with a read in flight" a state the test puts the
//! reader in rather than a race it hopes for: a gate that parks the reader's
//! data reads on their way to a real cluster (the reader sees them in flight
//! for as long as the gate is shut), and a scripted store — the server end of
//! an in-process connection pair, answered by hand.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use pravega::client::serializer::frame_event;
use pravega::client::{
    BytesSerializer, ClientError, ConnectionFactory, EventStreamReader, ReaderGroup,
    StringSerializer, WriterConfig,
};
use pravega::common::id::ScopedStream;
use pravega::common::policy::{ScalingPolicy, StreamConfiguration};
use pravega::common::wire::{
    connection_pair, Connection, ConnectionClosed, Reply, ReplyEnvelope, Request, RequestEnvelope,
    ServerEnd, Transport, Wakeup,
};
use pravega::core::{ClusterConfig, PravegaCluster};
use pravega_core as _;

const SCOPE: &str = "rp";

/// Shared between the factory below and the connections it hands out.
#[derive(Default)]
struct Gate {
    /// While set, reads of the data stream are parked instead of sent.
    shut: AtomicBool,
    parked: Mutex<Vec<(Connection, RequestEnvelope)>>,
    /// While set, new connections are in-process pairs whose server ends
    /// collect in `scripted` for the test to answer.
    script: AtomicBool,
    scripted: Mutex<Vec<ServerEnd>>,
}

impl Gate {
    fn open(&self) {
        self.shut.store(false, Ordering::SeqCst);
        for (connection, envelope) in self.parked.lock().unwrap().drain(..) {
            // The reader may have dropped its end by now; the store answers
            // into the void, which is the point.
            let _ = connection.send(envelope);
        }
    }
}

/// A reader-group connection factory over the cluster's own.
struct GatedFactory {
    inner: Arc<dyn ConnectionFactory>,
    gate: Arc<Gate>,
}

impl ConnectionFactory for GatedFactory {
    fn connect(&self, endpoint: &str) -> Result<Connection, ClientError> {
        if self.gate.script.load(Ordering::SeqCst) {
            let (client, server) = connection_pair();
            self.gate.scripted.lock().unwrap().push(server);
            return Ok(client);
        }
        Ok(Connection::from_transport(Arc::new(GatedTransport {
            inner: self.inner.connect(endpoint)?,
            gate: self.gate.clone(),
        })))
    }
}

struct GatedTransport {
    inner: Connection,
    gate: Arc<Gate>,
}

impl Transport for GatedTransport {
    fn send(&self, envelope: RequestEnvelope) -> Result<(), ConnectionClosed> {
        // The group's own state segment (`rg-*`) is read with the same
        // request; only the data stream is gated.
        let data_read = matches!(&envelope.request, Request::ReadSegment { segment, .. }
            if !segment.stream().stream().starts_with("rg-"));
        if data_read && self.gate.shut.load(Ordering::SeqCst) {
            self.gate
                .parked
                .lock()
                .unwrap()
                .push((self.inner.clone(), envelope));
            return Ok(());
        }
        self.inner.send(envelope)
    }
    fn recv(&self) -> Result<ReplyEnvelope, ConnectionClosed> {
        self.inner.recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        self.inner.recv_timeout(timeout)
    }
    fn try_recv(&self) -> Result<Option<ReplyEnvelope>, ConnectionClosed> {
        self.inner.try_recv()
    }
    fn wake_on_reply(&self, wakeup: Arc<Wakeup>) {
        self.inner.wake_on_reply(wakeup);
    }
}

struct Fixture {
    cluster: PravegaCluster,
    stream: ScopedStream,
    gate: Arc<Gate>,
    group: Arc<ReaderGroup>,
}

fn fixture(stream_name: &str, segments: u32) -> Fixture {
    let mut config = ClusterConfig::default();
    config.container.flush_interval = Duration::from_millis(5);
    let cluster = PravegaCluster::start(config).unwrap();
    let stream = ScopedStream::new(SCOPE, stream_name).unwrap();
    cluster.create_scope(SCOPE).unwrap();
    cluster
        .create_stream(
            &stream,
            StreamConfiguration::new(ScalingPolicy::fixed(segments)),
        )
        .unwrap();
    let gate = Arc::new(Gate::default());
    let group = ReaderGroup::create(
        SCOPE,
        &format!("g-{stream_name}"),
        vec![stream.clone()],
        cluster.controller(),
        Arc::new(GatedFactory {
            inner: cluster.connection_factory(),
            gate: gate.clone(),
        }),
    )
    .unwrap();
    Fixture {
        cluster,
        stream,
        gate,
        group,
    }
}

/// `key:seq` padded to about 1 KiB, so a few hundred events outgrow the two
/// read chunks a reader may hold per segment.
fn event(key: usize, seq: usize) -> String {
    format!("key-{key}:{seq:05}:{}", "x".repeat(1000))
}

fn parse(event: &str) -> (String, usize) {
    let mut parts = event.split(':');
    let key = parts.next().unwrap().to_string();
    (key, parts.next().unwrap().parse().unwrap())
}

/// Reads with the gate shut until the reader has nothing left to hand out
/// and `want` reads are parked: everything it had fetched is consumed, and
/// the read it sent after each segment's last reply is in flight for good.
fn read_until_parked(
    reader: &mut EventStreamReader<String, StringSerializer>,
    gate: &Gate,
    want: usize,
) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = Vec::new();
    loop {
        match reader.read_next(Duration::from_millis(50)).unwrap() {
            Some(e) => got.push(e.event),
            None if gate.parked.lock().unwrap().len() == want => return got,
            None => assert!(Instant::now() < deadline, "reads never parked"),
        }
    }
}

#[test]
fn segment_released_with_a_read_in_flight_loses_and_repeats_nothing() {
    let f = fixture("released", 2);
    let mut writer =
        f.cluster
            .create_writer(f.stream.clone(), StringSerializer, WriterConfig::default());
    let per_key = 150;
    for seq in 0..per_key {
        for key in 0..8 {
            writer.write_event(&format!("key-{key}"), &event(key, seq));
        }
    }
    writer.flush().unwrap();
    let total = per_key * 8;

    let mut r1 = EventStreamReader::new("r1", f.group.clone(), StringSerializer);
    let mut r2 = EventStreamReader::new("r2", f.group.clone(), StringSerializer);
    let mut seen: Vec<String> = Vec::new();
    // r1 owns both segments; once the gate shuts it runs dry with a read
    // parked on each.
    seen.push(r1.read_next(Duration::from_secs(5)).unwrap().unwrap().event);
    f.gate.shut.store(true, Ordering::SeqCst);
    seen.extend(read_until_parked(&mut r1, &f.gate, 2));
    assert_eq!(r1.assigned_segments().len(), 2);
    assert!(seen.len() < total, "the gate let the whole stream through");

    // r2 joins; at its next sync r1 gives one segment up, read in flight and
    // all, and r2 picks it up where r1 had got to.
    assert!(r2.read_next(Duration::from_millis(50)).unwrap().is_none());
    std::thread::sleep(Duration::from_millis(250));
    assert!(r1.read_next(Duration::from_millis(50)).unwrap().is_none());
    assert!(r2.read_next(Duration::from_millis(50)).unwrap().is_none());
    assert_eq!(r1.assigned_segments().len(), 1);
    assert_eq!(r2.assigned_segments().len(), 1);

    f.gate.open();
    let mut idle = 0;
    while seen.len() < total && idle < 20 {
        let before = seen.len();
        for r in [&mut r1, &mut r2] {
            if let Some(e) = r.read_next(Duration::from_millis(100)).unwrap() {
                seen.push(e.event);
            }
        }
        idle = if seen.len() == before { idle + 1 } else { 0 };
    }
    assert_eq!(seen.len(), total, "events lost across the release");
    let distinct: HashSet<&String> = seen.iter().collect();
    assert_eq!(distinct.len(), total, "events repeated across the release");
    f.cluster.shutdown();
}

#[test]
fn segment_sealed_by_a_scale_with_a_read_in_flight_keeps_key_order() {
    let f = fixture("sealed", 1);
    let mut writer =
        f.cluster
            .create_writer(f.stream.clone(), StringSerializer, WriterConfig::default());
    let (keys, half) = (5, 120);
    for seq in 0..half {
        for key in 0..keys {
            writer.write_event(&format!("key-{key}"), &event(key, seq));
        }
    }
    writer.flush().unwrap();

    let mut reader = EventStreamReader::new("r1", f.group.clone(), StringSerializer);
    let mut seen = vec![
        reader
            .read_next(Duration::from_secs(5))
            .unwrap()
            .unwrap()
            .event,
    ];
    f.gate.shut.store(true, Ordering::SeqCst);
    seen.extend(read_until_parked(&mut reader, &f.gate, 1));
    assert!(seen.len() < half * keys);

    // Scale 1 -> 2 under the parked read, then write the second half into
    // the successors.
    let old = f.cluster.controller().current_segments(&f.stream).unwrap()[0].clone();
    f.cluster
        .controller()
        .scale_stream(
            &f.stream,
            vec![old.segment.segment_id()],
            old.range.split(2),
        )
        .unwrap();
    for seq in half..2 * half {
        for key in 0..keys {
            writer.write_event(&format!("key-{key}"), &event(key, seq));
        }
    }
    writer.flush().unwrap();

    f.gate.open();
    while seen.len() < 2 * half * keys {
        let e = reader
            .read_next(Duration::from_secs(5))
            .unwrap()
            .unwrap_or_else(|| panic!("timed out after {} events", seen.len()));
        seen.push(e.event);
    }
    let mut per_key: HashMap<String, Vec<usize>> = HashMap::new();
    for e in &seen {
        let (key, seq) = parse(e);
        per_key.entry(key).or_default().push(seq);
    }
    for (key, seqs) in per_key {
        assert_eq!(
            seqs,
            (0..2 * half).collect::<Vec<_>>(),
            "order broken across the scale for {key}"
        );
    }
    f.cluster.shutdown();
}

/// A reader over a one-segment stream whose data connection ends at the
/// returned server end.
fn scripted_reader(
    name: &str,
) -> (
    Fixture,
    EventStreamReader<Bytes, BytesSerializer>,
    ServerEnd,
) {
    let f = fixture(name, 1);
    f.gate.script.store(true, Ordering::SeqCst);
    let mut reader = EventStreamReader::new("r1", f.group.clone(), BytesSerializer);
    // The first call syncs with the group, connects, and sends the first read.
    assert!(reader.read_next(Duration::ZERO).unwrap().is_none());
    let server = f.gate.scripted.lock().unwrap().pop().expect("connected");
    (f, reader, server)
}

fn framed(payloads: &[&[u8]]) -> Bytes {
    payloads
        .iter()
        .flat_map(|p| frame_event(&Bytes::copy_from_slice(p)).to_vec())
        .collect()
}

/// Takes the next request off the scripted store and checks it is the read
/// the reader should have in flight.
fn expect_read(server: &ServerEnd, at: u64) -> u64 {
    check_read(server.recv().unwrap(), at)
}

/// Checks that `envelope` is a read at `at` that asks the store to wait for
/// data, and returns its request id.
fn check_read(envelope: RequestEnvelope, at: u64) -> u64 {
    match envelope.request {
        Request::ReadSegment {
            offset,
            wait_for_data,
            ..
        } => {
            assert_eq!(offset, at, "read sent for the wrong offset");
            assert!(
                wait_for_data,
                "a read that does not wait turns the tail into a poll"
            );
        }
        other => panic!("expected a read, got {other:?}"),
    }
    envelope.request_id
}

fn answer(server: &ServerEnd, request_id: u64, offset: u64, data: Bytes, end_of_segment: bool) {
    let at_tail = data.is_empty() && !end_of_segment;
    let reply = Reply::SegmentRead {
        offset,
        data,
        end_of_segment,
        at_tail,
    };
    server.send(ReplyEnvelope { request_id, reply }).unwrap();
}

#[test]
fn head_truncated_under_the_read_in_flight_resumes_at_the_new_head() {
    let (f, mut reader, server) = scripted_reader("truncated");
    // Three whole events and the first bytes of a fourth.
    let first = framed(&[b"e1", b"e2", b"e3", b"e4-cut-short"]).slice(..24);
    let id = expect_read(&server, 0);
    answer(&server, id, 0, first.clone(), false);
    let e1 = reader.read_next(Duration::from_secs(5)).unwrap().unwrap();
    assert_eq!(e1.event.as_ref(), b"e1");
    // Taking that reply sent the next read; the head moves past it before
    // the store gets to it.
    let id = expect_read(&server, first.len() as u64);
    let new_head = 1_000;
    let reply = Reply::OffsetTruncated {
        start_offset: new_head,
    };
    server
        .send(ReplyEnvelope {
            request_id: id,
            reply,
        })
        .unwrap();
    // What was fetched whole is still handed out; the torn event is not, and
    // the reader asks again at the new head, nowhere else.
    for want in [b"e2", b"e3"] {
        let e = reader.read_next(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(e.event.as_ref(), want);
    }
    assert!(reader
        .read_next(Duration::from_millis(20))
        .unwrap()
        .is_none());
    let id = expect_read(&server, new_head);
    answer(&server, id, new_head, framed(&[b"after"]), true);
    let e = reader.read_next(Duration::from_secs(5)).unwrap().unwrap();
    assert_eq!(e.event.as_ref(), b"after");
    assert_eq!(
        e.offset,
        new_head + 4 + 5,
        "position restarts at the new head"
    );
    drop(server);
    f.cluster.shutdown();
}

#[test]
fn store_disconnect_with_a_read_in_flight_is_an_error_not_a_hang() {
    let (f, mut reader, server) = scripted_reader("severed");
    expect_read(&server, 0);
    let blocked = std::thread::spawn(move || reader.read_next(Duration::from_secs(60)));
    // Let the reader block on its unanswered read, then take the store away.
    std::thread::sleep(Duration::from_millis(50));
    drop(server);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !blocked.is_finished() {
        assert!(
            Instant::now() < deadline,
            "read_next hung after the server end disconnected"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(matches!(
        blocked.join().unwrap(),
        Err(ClientError::Disconnected(_))
    ));
    f.cluster.shutdown();
}

/// The requests the scripted store receives, forwarded so that the test can
/// wait for one with a timeout.
fn forward_requests(server: &ServerEnd) -> mpsc::Receiver<RequestEnvelope> {
    let (tx, rx) = mpsc::channel();
    let server = server.clone();
    std::thread::spawn(move || {
        while let Ok(envelope) = server.recv() {
            if tx.send(envelope).is_err() {
                break;
            }
        }
    });
    rx
}

/// A caught-up reader parks one read at the store and waits on it: held
/// unanswered it stays the only request, the data in its answer reaches the
/// application with no other request sent first, and an empty answer (the
/// store's wait bound passed) brings exactly one new read.
#[test]
fn caught_up_reader_parks_one_read_at_the_store() {
    let (f, mut reader, server) = scripted_reader("tailing");
    let requests = forward_requests(&server);
    let stop = Arc::new(AtomicBool::new(false));
    let (events_tx, events) = mpsc::channel();
    let reading = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if let Some(e) = reader.read_next(Duration::from_millis(20)).unwrap() {
                    events_tx.send(e.event).unwrap();
                }
            }
        })
    };
    let quiet = || {
        assert!(
            requests.recv_timeout(Duration::from_millis(200)).is_err(),
            "a second read was sent while one was parked"
        )
    };

    let id = next_read(&requests, 0);
    quiet();
    let data = framed(&[b"e1"]);
    answer(&server, id, 0, data.clone(), false);
    let e = events.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(e.as_ref(), b"e1");
    let at = data.len() as u64;
    let id = next_read(&requests, at);
    quiet();
    answer(&server, id, at, Bytes::new(), false);
    next_read(&requests, at);
    quiet();

    stop.store(true, Ordering::SeqCst);
    reading.join().unwrap();
    drop(server);
    f.cluster.shutdown();
}

/// [`expect_read`] over the forwarded requests.
fn next_read(requests: &mpsc::Receiver<RequestEnvelope>, at: u64) -> u64 {
    let envelope = requests
        .recv_timeout(Duration::from_secs(5))
        .expect("the reader sends its next read");
    check_read(envelope, at)
}

//! Heap allocations per event on the append path and on a tail read,
//! counted by a global allocator over the whole process.
//!
//! One cluster, one segment, 1 KiB events. Each append is waited on before
//! the next, so each gets its own frame and its own journal group: the count
//! is per append, not amortised over a batch. Tiering and scrubbing are
//! parked (an hour's interval) so no background pass runs while counting.
//! The append counts repeat run after run, in debug and release builds
//! alike, and each append bound sits less than one allocation above its
//! count, so one allocation more per append fails the test. When an
//! allocation leaves the path, lower the bound.
//!
//! The file holds a single `#[test]`: libtest runs a binary's tests on
//! parallel threads, and they would share the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pravega::client::{EventStreamReader, EventStreamWriter, StringSerializer, WriterConfig};
use pravega::common::id::ScopedStream;
use pravega::common::policy::{ScalingPolicy, StreamConfiguration};
use pravega::core::{ClusterConfig, PravegaCluster, TransportKind};
use pravega_core as _;

/// Counts `alloc` and `realloc` calls (`alloc_zeroed` goes through `alloc`).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const WARM_UP: u32 = 500;
const MEASURED: u32 = 2_000;
/// A tail read is counted in windows of this many events, taking the
/// quietest: the reader's group sync every 200 ms lands in some windows and
/// not in others, so on a slow run the total grows and the minimum does not.
const WINDOW: u32 = 10;
const EVENT_BYTES: usize = 1024;

/// Allocations per append over all [`MEASURED`] appends, in process and over
/// TCP: 40.797 and 56.797 when measured.
const APPEND_BOUND_IN_PROCESS: f64 = 41.0;
const APPEND_BOUND_TCP: f64 = 57.0;
/// Allocations per event with a reader parked at the tail, the append plus
/// the read it completes, in the quietest window: 56.9-58.1 and 88.6-90.1
/// when measured, the spread being what periodic work leaves there.
const TAIL_EVENT_BOUND_IN_PROCESS: f64 = 59.5;
const TAIL_EVENT_BOUND_TCP: f64 = 91.5;

struct Rig {
    cluster: PravegaCluster,
    writer: EventStreamWriter<String, StringSerializer>,
    reader: Option<EventStreamReader<String, StringSerializer>>,
    event: String,
}

impl Rig {
    fn start(transport: TransportKind, tail_reader: bool) -> Rig {
        let mut config = ClusterConfig {
            transport,
            ..ClusterConfig::default()
        };
        config.container.flush_interval = Duration::from_secs(3_600);
        config.scrub.pass_interval = Duration::from_secs(3_600);
        let cluster = PravegaCluster::start(config).unwrap();
        let stream = ScopedStream::new("alloc", "hot").unwrap();
        cluster.create_scope("alloc").unwrap();
        cluster
            .create_stream(&stream, StreamConfiguration::new(ScalingPolicy::fixed(1)))
            .unwrap();
        let writer =
            cluster.create_writer(stream.clone(), StringSerializer, WriterConfig::default());
        let reader = tail_reader.then(|| {
            let group = cluster
                .create_reader_group("alloc", "tail", vec![stream])
                .unwrap();
            cluster.create_reader(&group, "r1", StringSerializer)
        });
        Rig {
            cluster,
            writer,
            reader,
            event: "x".repeat(EVENT_BYTES),
        }
    }

    fn events(&mut self, n: u32) {
        for _ in 0..n {
            self.writer
                .write_event("key", &self.event)
                .wait()
                .unwrap()
                .unwrap();
            if let Some(reader) = &mut self.reader {
                let read = reader.read_next(Duration::from_secs(10)).unwrap();
                assert!(read.is_some(), "the tail reader timed out");
            }
        }
    }

    /// Allocations per event over [`MEASURED`] events after a warm-up, and
    /// in the quietest [`WINDOW`] of them.
    fn allocations_per_event(mut self) -> (f64, f64) {
        self.events(WARM_UP);
        let start = ALLOCATIONS.load(Ordering::Relaxed);
        let (mut last, mut quietest) = (start, u64::MAX);
        for _ in 0..MEASURED / WINDOW {
            self.events(WINDOW);
            let now = ALLOCATIONS.load(Ordering::Relaxed);
            quietest = quietest.min(now - last);
            last = now;
        }
        self.cluster.shutdown();
        (
            (last - start) as f64 / f64::from(MEASURED),
            quietest as f64 / f64::from(WINDOW),
        )
    }
}

#[test]
fn hot_path_allocations_per_event_stay_within_their_bounds() {
    let cases = [
        (
            "append, in process",
            TransportKind::InProcess,
            false,
            APPEND_BOUND_IN_PROCESS,
        ),
        ("append, TCP", TransportKind::Tcp, false, APPEND_BOUND_TCP),
        (
            "tail read, in process",
            TransportKind::InProcess,
            true,
            TAIL_EVENT_BOUND_IN_PROCESS,
        ),
        (
            "tail read, TCP",
            TransportKind::Tcp,
            true,
            TAIL_EVENT_BOUND_TCP,
        ),
    ];
    let mut report = Vec::new();
    for (what, transport, tail_reader, bound) in cases {
        let (overall, quietest) = Rig::start(transport, tail_reader).allocations_per_event();
        let per_event = if tail_reader { quietest } else { overall };
        report.push(format!(
            "{what}: {per_event:.3} allocations per event (bound {bound})"
        ));
        assert!(
            per_event <= bound,
            "{what}: {per_event:.3} allocations per event, bound {bound}; every case: {report:?}"
        );
    }
    println!("{}", report.join("\n"));
}

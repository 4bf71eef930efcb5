//! Bookie journal with group commit.
//!
//! Every append to a bookie is journaled before it is acknowledged. The
//! journal thread drains all requests queued while the previous sync was in
//! flight and persists them with a *single* device sync — the opportunistic
//! grouping the paper credits for Bookkeeper's good durable-write latency
//! (§5.2: "data is persisted before being acknowledged, but opportunistically
//! grouped upon flushes").
//!
//! A request carries its own [`Completion`], which the journal thread runs
//! after the group's sync with the group's shared result. A bookie add is
//! completed right there — indexed and acked to its ledger writer (see
//! [`crate::bookie`]) — so nobody waits on a thread per add, and any number
//! of one ledger's adds can share a group.

use pravega_sync::JoinHandle;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use pravega_common::crashpoints::{self, CrashHook};
use pravega_common::future::{promise, Completer, Promise};
use pravega_common::metrics::{Counter, Histogram};

use crate::error::BookieError;

/// Journal behaviour knobs.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Whether to sync (fsync / simulated device sync) before acknowledging.
    /// Disabling this reproduces the "no flush" configurations of §5.2.
    pub sync_on_add: bool,
    /// Simulated device-sync latency for in-memory journals (zero for unit
    /// tests; the sim crate models real devices instead).
    pub simulated_sync_latency: Duration,
    /// Crash-point hook ([`crashpoints::WAL_JOURNAL_MID_WRITE`],
    /// [`crashpoints::WAL_JOURNAL_WRITE_NO_ACK`]); disarmed in production.
    pub crash_hook: CrashHook,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self {
            sync_on_add: true,
            simulated_sync_latency: Duration::ZERO,
            crash_hook: CrashHook::disarmed(),
        }
    }
}

/// Where journaled bytes go.
pub trait JournalSink: Send + 'static {
    /// Appends one record to the journal device: `head`, then `body`.
    fn write(&mut self, head: &[u8], body: &[u8]) -> Result<(), BookieError>;
    /// Syncs the device (fsync or a simulated equivalent).
    fn sync(&mut self) -> Result<(), BookieError>;
}

/// In-memory sink: counts bytes, optionally sleeps to emulate a device sync.
#[derive(Debug, Default)]
pub struct MemSink {
    bytes_written: u64,
    sync_latency: Duration,
}

impl MemSink {
    /// Creates a sink whose `sync` sleeps for `sync_latency`.
    pub fn new(sync_latency: Duration) -> Self {
        Self {
            bytes_written: 0,
            sync_latency,
        }
    }
}

impl JournalSink for MemSink {
    fn write(&mut self, head: &[u8], body: &[u8]) -> Result<(), BookieError> {
        self.bytes_written += (head.len() + body.len()) as u64;
        Ok(())
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "simulated journal fsync latency: models disk time, retries nothing"
    )]
    fn sync(&mut self) -> Result<(), BookieError> {
        pravega_sync::blocking("MemSink::sync");
        if !self.sync_latency.is_zero() {
            thread::sleep(self.sync_latency);
        }
        Ok(())
    }
}

/// File-backed sink: appends to a journal file, `sync_data` on sync.
#[derive(Debug)]
pub struct FileSink {
    file: std::fs::File,
}

impl FileSink {
    /// Opens (creating or appending to) the journal file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`BookieError::Io`] if the file cannot be opened.
    pub fn open(path: &PathBuf) -> Result<Self, BookieError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| BookieError::Io(e.to_string()))?;
        Ok(Self { file })
    }
}

impl JournalSink for FileSink {
    fn write(&mut self, head: &[u8], body: &[u8]) -> Result<(), BookieError> {
        pravega_sync::blocking("FileSink::write");
        self.file
            .write_all(head)
            .and_then(|()| self.file.write_all(body))
            .map_err(|e| BookieError::Io(e.to_string()))
    }

    fn sync(&mut self) -> Result<(), BookieError> {
        pravega_sync::blocking("FileSink::sync");
        self.file
            .sync_data()
            .map_err(|e| BookieError::Io(e.to_string()))
    }
}

/// What the journal thread does with one record: the header it writes
/// ahead of the record's body, and what it runs once the record's group is
/// synced. The journal knows no record format; its owner does (a bookie's
/// add record is in [`crate::bookie`]). Dropped unrun (a stopped journal, a
/// failed send), a completion must leave its waiter seeing
/// [`BookieError::Unavailable`].
pub trait Completion: Send + 'static {
    /// A header's bytes.
    type Head: AsRef<[u8]>;

    /// The header written just ahead of `body`, if any. Runs on the journal
    /// thread, so an owner can keep the header's work off its caller's path.
    fn head(&self, body: &[u8]) -> Option<Self::Head>;

    /// Runs after the group's sync with the group's shared result and the
    /// record's body.
    fn settle(self, result: Result<(), BookieError>, body: Bytes);
}

/// A blocking caller waiting on a promise: its record is the body alone. A
/// dropped completer breaks the promise, which [`Journal::append`] reports
/// as [`BookieError::Unavailable`].
impl Completion for Completer<Result<(), BookieError>> {
    type Head = [u8; 0];

    fn head(&self, _: &[u8]) -> Option<[u8; 0]> {
        None
    }

    fn settle(self, result: Result<(), BookieError>, _: Bytes) {
        self.complete(result);
    }
}

struct JournalRequest<C> {
    body: Bytes,
    done: C,
}

/// Maximum requests drained into a single group commit.
const MAX_GROUP_SIZE: usize = 4096;

/// The journal thread's group-commit loop: drain a batch, write every
/// record, sync once, then run every completion with the shared result.
fn journal_commit_loop<C: Completion>(
    sink: &mut dyn JournalSink,
    rx: &Receiver<JournalRequest<C>>,
    config: &JournalConfig,
    syncs: &Counter,
    sizes: &Histogram,
) {
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < MAX_GROUP_SIZE {
            match rx.try_recv() {
                Ok(req) => batch.push(req),
                Err(_) => break,
            }
        }
        let mut result: Result<(), BookieError> = Ok(());
        for req in &batch {
            if result.is_ok() {
                let head = req.done.head(&req.body);
                let head: &[u8] = head.as_ref().map_or(&[], AsRef::as_ref);
                let body: &[u8] = &req.body;
                if config.crash_hook.fire(crashpoints::WAL_JOURNAL_MID_WRITE) {
                    // Simulated crash mid-write: a strict prefix of the
                    // record reaches the device, nothing is synced, nothing
                    // is acked.
                    let keep = (head.len() + body.len()) / 2;
                    let _ = sink.write(
                        head.get(..keep).unwrap_or(head),
                        body.get(..keep.saturating_sub(head.len())).unwrap_or(&[]),
                    );
                    result = Err(BookieError::Io("crash injected mid journal write".into()));
                } else {
                    result = sink.write(head, body);
                }
            }
        }
        // Crash between journal write and ack: the batch is fully written
        // (and synced below, so it is durable on this bookie) but the acks
        // never leave the process.
        let crash_before_ack = result.is_ok()
            && config
                .crash_hook
                .fire(crashpoints::WAL_JOURNAL_WRITE_NO_ACK);
        if result.is_ok() && config.sync_on_add {
            result = sink.sync();
            syncs.inc();
        }
        sizes.record(batch.len() as u64);
        if crash_before_ack && result.is_ok() {
            result = Err(BookieError::AckLost);
        }
        for req in batch {
            req.done.settle(result.clone(), req.body);
        }
    }
}

/// A group-committing journal whose records complete as `C`.
/// [`Journal::append`] blocks until the record is durable (or, with
/// `sync_on_add = false`, merely written); [`Journal::submit`] queues a
/// record with its completion and returns at once.
pub struct Journal<C: Completion = Completer<Result<(), BookieError>>> {
    tx: Option<Sender<JournalRequest<C>>>,
    handle: Option<JoinHandle<()>>,
    /// Number of group commits (syncs) performed.
    pub sync_count: Arc<Counter>,
    /// Histogram of group sizes (records per sync).
    pub group_sizes: Arc<Histogram>,
    /// 1 once the journal thread has died by a panic (a failing sink); a
    /// dead journal answers every add `Unavailable`.
    pub thread_deaths: Arc<Counter>,
}

/// Lives on the journal thread; on a panic it counts the death and says
/// which journal died. It is dropped before the thread's queue, so a caller
/// whose queued add was answered `Unavailable` already sees the count.
struct DeathWatch {
    owner: String,
    deaths: Arc<Counter>,
}

impl Drop for DeathWatch {
    fn drop(&mut self) {
        if thread::panicking() {
            self.deaths.inc();
            eprintln!(
                "wal.journal: {} lost its journal thread; its adds now answer Unavailable",
                self.owner
            );
        }
    }
}

impl<C: Completion> std::fmt::Debug for Journal<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("syncs", &self.sync_count.get())
            .finish()
    }
}

impl<C: Completion> Journal<C> {
    /// Starts the journal thread writing to `sink`.
    ///
    /// # Errors
    ///
    /// [`BookieError::Io`] if the journal thread cannot be spawned.
    pub fn start(sink: Box<dyn JournalSink>, config: JournalConfig) -> Result<Self, BookieError> {
        Self::start_for("a standalone journal".to_string(), sink, config)
    }

    /// [`Journal::start`] for a journal that says `owner` (say, `bookie b0`)
    /// lost its thread if the thread dies.
    pub(crate) fn start_for(
        owner: String,
        mut sink: Box<dyn JournalSink>,
        config: JournalConfig,
    ) -> Result<Self, BookieError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "a ledger writer enqueues each replica's add under its sequencer lock (and \
                      the log's), and `Bookie::add_entry_then` must never block there; depth is \
                      capped by the WAL's pending-append accounting above this layer"
        )]
        let (tx, rx): (Sender<JournalRequest<C>>, Receiver<JournalRequest<C>>) = unbounded();
        let sync_count = Arc::new(Counter::new());
        let group_sizes = Arc::new(Histogram::new());
        let thread_deaths = Arc::new(Counter::new());
        let syncs = sync_count.clone();
        let sizes = group_sizes.clone();
        let deaths = thread_deaths.clone();
        let handle = pravega_sync::spawn("bookie-journal", move || {
            // A local, so it drops before the captured `rx` and its queue.
            let _watch = DeathWatch { owner, deaths };
            journal_commit_loop(&mut *sink, &rx, &config, &syncs, &sizes);
        })
        .map_err(|e| BookieError::Io(format!("spawn journal thread: {e}")))?;
        Ok(Self {
            tx: Some(tx),
            handle: Some(handle),
            sync_count,
            group_sizes,
            thread_deaths,
        })
    }

    /// Queues a record and returns at once. The journal thread runs `done`
    /// once the record's group is synced.
    pub fn submit(&self, body: Bytes, done: C) {
        if let Some(tx) = &self.tx {
            // A failed send drops the request, and `done` with it, which
            // reports `Unavailable`.
            let _ = tx.send(JournalRequest { body, done });
        }
    }
}

impl Journal {
    /// Queues a record and returns a promise completed once it is persisted.
    pub fn append_async(&self, record: Bytes) -> Promise<Result<(), BookieError>> {
        let (completer, pr) = promise();
        self.submit(record, completer);
        pr
    }

    /// Appends a record and blocks until it is persisted.
    ///
    /// # Errors
    ///
    /// Propagates sink failures; [`BookieError::Unavailable`] if the journal
    /// thread has stopped.
    pub fn append(&self, record: Bytes) -> Result<(), BookieError> {
        self.append_async(record)
            .wait()
            .unwrap_or(Err(BookieError::Unavailable))
    }
}

impl<C: Completion> Drop for Journal<C> {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Test sinks shared by the journal, bookie and ledger tests.
#[cfg(test)]
pub(crate) mod test_sinks {
    use super::*;

    /// A sink whose every sync waits at a gate the test holds, after
    /// saying so on `entered`: each `()` sent lets one sync through, and so
    /// does closing the gate. A `dying` sink panics once let through — the
    /// journal device failing and taking the journal thread down with it.
    pub(crate) struct GatedSink {
        gate: Receiver<()>,
        entered: Sender<()>,
        dying: bool,
    }

    impl JournalSink for GatedSink {
        fn write(&mut self, _: &[u8], _: &[u8]) -> Result<(), BookieError> {
            Ok(())
        }

        fn sync(&mut self) -> Result<(), BookieError> {
            let _ = self.entered.send(());
            let _ = self.gate.recv();
            assert!(!self.dying, "journal device died");
            Ok(())
        }
    }

    /// A gated sink, the sender that opens its gate, and the receiver told
    /// each time a sync reaches the gate.
    pub(crate) fn gated(dying: bool) -> (Sender<()>, Receiver<()>, Box<dyn JournalSink>) {
        let (open, gate) = unbounded();
        let (entered, at_gate) = unbounded();
        let sink = GatedSink {
            gate,
            entered,
            dying,
        };
        (open, at_gate, Box::new(sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_persists_and_acks() {
        let j = Journal::start(Box::new(MemSink::default()), JournalConfig::default()).unwrap();
        for i in 0..100u32 {
            j.append(Bytes::from(i.to_be_bytes().to_vec())).unwrap();
        }
        assert!(j.sync_count.get() >= 1);
        assert_eq!(j.group_sizes.count(), j.sync_count.get());
    }

    #[test]
    fn concurrent_appends_group_commit() {
        // With a slow sync, concurrent appenders pile up behind the first
        // sync and get committed together: far fewer syncs than appends.
        let j = Arc::new(
            Journal::start(
                Box::new(MemSink::new(Duration::from_millis(2))),
                JournalConfig::default(),
            )
            .unwrap(),
        );
        let mut handles = Vec::new();
        for _ in 0..8 {
            let j = j.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..20 {
                    j.append(Bytes::from_static(b"x")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let syncs = j.sync_count.get();
        assert!(syncs < 160, "group commit should cut syncs: {syncs}");
        assert!(j.group_sizes.max() > 1, "expected some grouped batches");
    }

    #[test]
    fn no_sync_mode_skips_syncs() {
        let cfg = JournalConfig {
            sync_on_add: false,
            ..JournalConfig::default()
        };
        let j = Journal::start(Box::new(MemSink::default()), cfg).unwrap();
        j.append(Bytes::from_static(b"x")).unwrap();
        assert_eq!(j.sync_count.get(), 0);
    }

    #[test]
    fn file_sink_roundtrips() {
        let dir = std::env::temp_dir().join(format!("pravega-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal-test.log");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::start(
                Box::new(FileSink::open(&path).unwrap()),
                JournalConfig::default(),
            )
            .unwrap();
            j.append(Bytes::from_static(b"hello")).unwrap();
            j.append(Bytes::from_static(b"world")).unwrap();
        }
        let contents = std::fs::read(&path).unwrap();
        assert_eq!(contents, b"helloworld");
        let _ = std::fs::remove_file(&path);
    }

    /// A journal whose thread has stopped (its device died mid-sync) answers
    /// every append `Unavailable`: the one in flight, and any sent later.
    /// `append_async`'s promise breaks, which is the `Unavailable` that
    /// `append` returns.
    #[test]
    fn append_after_drop_reports_unavailable() {
        let (gate, at_gate, sink) = test_sinks::gated(true);
        let j: Journal = Journal::start(sink, JournalConfig::default()).unwrap();
        let in_flight = j.append_async(Bytes::from_static(b"in flight"));
        at_gate.recv().unwrap();
        // The thread panics at the sync, dropping its group and, with its
        // receiver, its queue.
        drop(gate);
        assert_eq!(
            j.append(Bytes::from_static(b"late")),
            Err(BookieError::Unavailable)
        );
        let later = j.append_async(Bytes::from_static(b"later"));
        for p in [in_flight, later] {
            assert_eq!(
                p.wait_for(Duration::from_secs(30)),
                Err(pravega_common::future::WaitError::Broken)
            );
        }
        assert_eq!(j.sync_count.get(), 0);
    }

    /// Pins the shutdown ordering (DESIGN.md §10 lists the join sites):
    /// `Drop` must release `tx` *before* joining the journal thread, so the
    /// recv loop sees disconnect once the queue drains. Joining first would
    /// deadlock forever (the thread blocks in `recv()` on a channel the
    /// joiner still owns); the watchdog turns that hang into a failure.
    #[test]
    fn drop_with_queued_appends_releases_sender_before_join() {
        let j = Journal::start(
            Box::new(MemSink::new(Duration::from_millis(1))),
            JournalConfig::default(),
        )
        .unwrap();
        let mut pending = Vec::new();
        for _ in 0..32 {
            pending.push(j.append_async(Bytes::from_static(b"queued")));
        }
        let deaths = j.thread_deaths.clone();
        let dropper = thread::spawn(move || drop(j));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !dropper.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "Journal::drop deadlocked: joined the journal thread before releasing tx"
            );
            thread::sleep(Duration::from_millis(5));
        }
        dropper.join().unwrap();
        assert_eq!(deaths.get(), 0, "a clean stop is not a death");
        // The queue was drained (not abandoned) before the thread exited.
        for p in pending {
            assert!(matches!(p.wait(), Ok(Ok(()))));
        }
    }
}

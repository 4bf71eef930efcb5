//! Bookie journal with group commit.
//!
//! Every append to a bookie is journaled before it is acknowledged. The
//! journal thread drains all requests queued while the previous sync was in
//! flight and persists them with a *single* device sync — the opportunistic
//! grouping the paper credits for Bookkeeper's good durable-write latency
//! (§5.2: "data is persisted before being acknowledged, but opportunistically
//! grouped upon flushes").

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
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
    /// Appends one record's bytes to the journal device.
    fn write(&mut self, record: &[u8]) -> Result<(), BookieError>;
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
    fn write(&mut self, record: &[u8]) -> Result<(), BookieError> {
        self.bytes_written += record.len() as u64;
        Ok(())
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "simulated journal fsync latency: models disk time, retries nothing"
    )]
    fn sync(&mut self) -> Result<(), BookieError> {
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
    fn write(&mut self, record: &[u8]) -> Result<(), BookieError> {
        self.file
            .write_all(record)
            .map_err(|e| BookieError::Io(e.to_string()))
    }

    fn sync(&mut self) -> Result<(), BookieError> {
        self.file
            .sync_data()
            .map_err(|e| BookieError::Io(e.to_string()))
    }
}

struct JournalRequest {
    record: Bytes,
    completer: Completer<Result<(), BookieError>>,
}

/// Maximum requests drained into a single group commit.
const MAX_GROUP_SIZE: usize = 4096;

/// The journal thread's group-commit loop: drain a batch, write every
/// record, sync once, then complete all acks with the shared result.
fn journal_commit_loop(
    sink: &mut dyn JournalSink,
    rx: &Receiver<JournalRequest>,
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
                if config.crash_hook.fire(crashpoints::WAL_JOURNAL_MID_WRITE) {
                    // Simulated crash mid-write: a strict prefix of the
                    // record reaches the device, nothing is synced, nothing
                    // is acked.
                    let keep = req.record.len() / 2;
                    let _ = sink.write(req.record.get(..keep).unwrap_or(&req.record));
                    result = Err(BookieError::Io("crash injected mid journal write".into()));
                } else {
                    result = sink.write(&req.record);
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
            req.completer.complete(result.clone());
        }
    }
}

/// A group-committing journal. `append` blocks until the record is durable
/// (or, with `sync_on_add = false`, merely written).
pub struct Journal {
    tx: Option<Sender<JournalRequest>>,
    handle: Option<JoinHandle<()>>,
    /// Number of group commits (syncs) performed.
    pub sync_count: Arc<Counter>,
    /// Histogram of group sizes (records per sync).
    pub group_sizes: Arc<Histogram>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("syncs", &self.sync_count.get())
            .finish()
    }
}

impl Journal {
    /// Starts the journal thread writing to `sink`.
    ///
    /// # Errors
    ///
    /// [`BookieError::Io`] if the journal thread cannot be spawned.
    pub fn start(
        mut sink: Box<dyn JournalSink>,
        config: JournalConfig,
    ) -> Result<Self, BookieError> {
        let (tx, rx): (Sender<JournalRequest>, Receiver<JournalRequest>) = unbounded();
        let sync_count = Arc::new(Counter::new());
        let group_sizes = Arc::new(Histogram::new());
        let syncs = sync_count.clone();
        let sizes = group_sizes.clone();
        let handle = thread::Builder::new()
            .name("bookie-journal".into())
            .spawn(move || journal_commit_loop(&mut *sink, &rx, &config, &syncs, &sizes))
            .map_err(|e| BookieError::Io(format!("spawn journal thread: {e}")))?;
        Ok(Self {
            tx: Some(tx),
            handle: Some(handle),
            sync_count,
            group_sizes,
        })
    }

    /// Queues a record and returns a promise completed once it is persisted.
    pub fn append_async(&self, record: Bytes) -> Promise<Result<(), BookieError>> {
        let (completer, pr) = promise();
        match &self.tx {
            Some(tx) => {
                if tx.send(JournalRequest { record, completer }).is_err() {
                    return Promise::ready(Err(BookieError::Unavailable));
                }
            }
            None => return Promise::ready(Err(BookieError::Unavailable)),
        }
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

impl Drop for Journal {
    fn drop(&mut self) {
        self.tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
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

    #[test]
    fn append_after_drop_reports_unavailable() {
        let j = Journal::start(Box::new(MemSink::default()), JournalConfig::default()).unwrap();
        let sync_count = j.sync_count.clone();
        drop(j);
        let _ = sync_count; // journal thread joined cleanly
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
        // The queue was drained (not abandoned) before the thread exited.
        for p in pending {
            assert!(matches!(p.wait(), Ok(Ok(()))));
        }
    }
}

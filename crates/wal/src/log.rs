//! The durable-log abstraction segment containers write to.
//!
//! A [`DurableDataLog`] is an append-only, truncatable, *exclusively owned*
//! log. [`BookkeeperLog`] implements it as a sequence of rolling ledgers:
//!
//! - appends go to the current ledger; when it exceeds the rollover size a
//!   fresh ledger is started (rollover is what makes truncation possible —
//!   WAL truncation deletes whole ledgers whose data reached LTS, §4.3);
//! - opening a log bumps its **epoch** (a CAS on the log metadata) and fences
//!   every existing ledger with that epoch, guaranteeing exclusive access for
//!   the new owner — the fencing of §4.4;
//! - recovery reads everything after a given address (the last metadata
//!   checkpoint) to rebuild container state.

use std::collections::VecDeque;
use std::sync::OnceLock;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pravega_common::clock;
use pravega_common::future::Promise;
use pravega_common::stall::{StallClass, StallTracker};
use pravega_coordination::{CoordError, CoordinationService};
use pravega_sync::{rank, Condvar, Mutex};

use crate::error::WalError;
use crate::ledger::{
    BookiePool, LedgerId, LedgerManager, LedgerScrubReport, LedgerState, LedgerWriter,
    ReplicationConfig,
};

/// Position of a record in a durable log: `(ledger sequence, entry)`.
///
/// Orders lexicographically: all entries of ledger-sequence *k* precede those
/// of *k+1*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogAddress {
    /// Sequence number of the ledger within the log (not the ledger id).
    pub ledger_seq: u64,
    /// Entry id within the ledger.
    pub entry: u64,
}

impl std::fmt::Display for LogAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.ledger_seq, self.entry)
    }
}

/// A pending append: wait to learn the address the record was persisted at.
#[derive(Debug)]
pub struct AppendFuture {
    inner: Promise<Result<u64, WalError>>,
    ledger_seq: u64,
}

impl AppendFuture {
    /// An append in ledger `ledger_seq` that resolves to its entry id when
    /// `inner` does: what a [`DurableDataLog`] implemented outside this
    /// crate returns from `append`.
    pub fn pending(inner: Promise<Result<u64, WalError>>, ledger_seq: u64) -> Self {
        Self { inner, ledger_seq }
    }

    /// An already-failed append (used when a crash is injected before the
    /// record ever reaches the log).
    pub fn failed(error: WalError) -> Self {
        Self {
            inner: Promise::ready(Err(error)),
            ledger_seq: 0,
        }
    }

    /// Blocks until the append is durable (or failed).
    ///
    /// # Errors
    ///
    /// Propagates replication failures; [`WalError::Closed`] if the log shut
    /// down before completing the append.
    pub fn wait(self) -> Result<LogAddress, WalError> {
        let entry = self.inner.wait().map_err(|_| WalError::Closed)??;
        Ok(LogAddress {
            ledger_seq: self.ledger_seq,
            entry,
        })
    }

    /// Non-blocking poll; `None` while still pending.
    pub fn try_take(&self) -> Option<Result<LogAddress, WalError>> {
        let ledger_seq = self.ledger_seq;
        self.inner.try_take().map(|r| match r {
            Ok(Ok(entry)) => Ok(LogAddress { ledger_seq, entry }),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(WalError::Closed),
        })
    }
}

/// An exclusively-owned durable log (the segment container's WAL).
pub trait DurableDataLog: Send + Sync + std::fmt::Debug {
    /// Appends a record; the future resolves once it is durable.
    fn append(&self, data: Bytes) -> AppendFuture;

    /// Reads every record strictly after `from` (everything when `None`),
    /// in order. Used by container recovery.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    fn read_after(&self, from: Option<LogAddress>) -> Result<Vec<(LogAddress, Bytes)>, WalError>;

    /// Allows the log to discard all records at addresses `<= up_to`.
    /// (Implementations may retain some: BookKeeper deletes whole ledgers.)
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    fn truncate(&self, up_to: LogAddress) -> Result<(), WalError>;

    /// The epoch (fence token) this handle owns.
    fn epoch(&self) -> u64;

    /// Whether this handle has been fenced out by a newer owner.
    fn is_fenced(&self) -> bool;
}

/// Configuration of a [`BookkeeperLog`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Bytes after which the current ledger is rolled over.
    pub rollover_bytes: u64,
    /// Replication scheme for each ledger.
    pub replication: ReplicationConfig,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self {
            rollover_bytes: 4 * 1024 * 1024,
            replication: ReplicationConfig::default(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct LogMetadata {
    epoch: u64,
    /// `(ledger sequence, ledger id)` pairs, oldest first.
    ledgers: Vec<(u64, LedgerId)>,
}

impl LogMetadata {
    fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u64(self.epoch);
        buf.put_u32(self.ledgers.len() as u32);
        for (seq, id) in &self.ledgers {
            buf.put_u64(*seq);
            buf.put_u64(id.0);
        }
        buf.to_vec()
    }

    fn decode(data: &[u8]) -> Result<Self, WalError> {
        let mut buf = Bytes::from(data.to_vec());
        if buf.remaining() < 12 {
            return Err(WalError::Metadata("corrupt log metadata".into()));
        }
        let epoch = buf.get_u64();
        let n = buf.get_u32() as usize;
        let mut ledgers = Vec::with_capacity(n);
        for _ in 0..n {
            if buf.remaining() < 16 {
                return Err(WalError::Metadata("corrupt log metadata".into()));
            }
            ledgers.push((buf.get_u64(), LedgerId(buf.get_u64())));
        }
        Ok(Self { epoch, ledgers })
    }
}

#[derive(Debug)]
struct BkLogInner {
    metadata: LogMetadata,
    meta_version: i64,
    writer: Option<LedgerWriter>,
    current_seq: u64,
    bytes_in_current: u64,
    fenced: bool,
    /// True while an appender is swapping ledgers with the lock released.
    /// Concurrent appenders wait on `rollover_done` instead of holding the
    /// lock across the bookie/metadata I/O of the rollover.
    rolling: bool,
}

/// A [`DurableDataLog`] built from rolling BookKeeper ledgers.
#[derive(Debug)]
pub struct BookkeeperLog {
    path: String,
    coord: CoordinationService,
    manager: LedgerManager,
    config: LogConfig,
    inner: Mutex<BkLogInner>,
    rollover_done: Condvar,
    /// Stall attribution (set by [`Self::bind_metrics`]): time appenders
    /// spend blocked behind a ledger rollover is recorded under
    /// `segmentstore.stalls.wal_rollover` so soak-timeline spikes caused by
    /// ledger swaps are distinguishable from flush/throttle stalls.
    stalls: OnceLock<StallTracker>,
}

impl BookkeeperLog {
    fn meta_path(log_id: &str) -> String {
        format!("/wal/logs/{log_id}")
    }

    /// Opens (creating if new) the log named `log_id`, taking exclusive
    /// ownership: the epoch is bumped and all prior ledgers are fenced and
    /// recovered. Any previous owner is permanently locked out.
    ///
    /// # Errors
    ///
    /// Propagates metadata/bookie failures; [`WalError::Fenced`] if another
    /// opener won the ownership race.
    pub fn open(
        log_id: &str,
        pool: &BookiePool,
        coord: &CoordinationService,
        config: LogConfig,
    ) -> Result<Self, WalError> {
        config.replication.validate()?;
        let manager = LedgerManager::new(coord, pool);
        let path = Self::meta_path(log_id);

        // Claim ownership: CAS the epoch forward.
        let (mut metadata, mut version) = loop {
            match coord.get(&path) {
                None => {
                    let fresh = LogMetadata {
                        epoch: 1,
                        ledgers: Vec::new(),
                    };
                    match coord.create(
                        &path,
                        fresh.encode(),
                        pravega_coordination::CreateMode::Persistent,
                    ) {
                        Ok(()) => break (fresh, 0i64),
                        Err(CoordError::NodeExists) => continue,
                        Err(e) => return Err(WalError::Metadata(e.to_string())),
                    }
                }
                Some((data, v)) => {
                    let mut meta = LogMetadata::decode(&data)?;
                    meta.epoch += 1;
                    match coord.set(&path, meta.encode(), Some(v)) {
                        Ok(nv) => break (meta, nv),
                        Err(CoordError::BadVersion { .. }) => continue,
                        Err(e) => return Err(WalError::Metadata(e.to_string())),
                    }
                }
            }
        };

        // Fence + recover all existing ledgers so no zombie can append.
        for (_, ledger_id) in metadata.ledgers.clone() {
            manager.recover_and_close(ledger_id, metadata.epoch)?;
        }

        // Start a fresh ledger for our writes.
        let writer = manager.create(config.replication, metadata.epoch)?;
        let current_seq = metadata.ledgers.last().map(|(s, _)| s + 1).unwrap_or(0);
        metadata.ledgers.push((current_seq, writer.metadata().id));
        version = coord
            .set(&path, metadata.encode(), Some(version))
            .map_err(|_| WalError::Fenced)?;

        Ok(Self {
            path,
            coord: coord.clone(),
            manager,
            config,
            inner: Mutex::new(
                rank::WAL_LOG,
                BkLogInner {
                    metadata,
                    meta_version: version,
                    writer: Some(writer),
                    current_seq,
                    bytes_in_current: 0,
                    fenced: false,
                    rolling: false,
                },
            ),
            rollover_done: Condvar::new(),
            stalls: OnceLock::new(),
        })
    }

    /// Seals `old` and creates its successor. Runs with **no lock held**:
    /// closing a ledger drains its in-flight adds and both the close and the
    /// create round-trip to the bookies.
    fn swap_ledger_unlocked(
        &self,
        old: LedgerWriter,
        epoch: u64,
    ) -> Result<LedgerWriter, WalError> {
        let old_id = old.metadata().id;
        let last = old.close();
        self.manager.close(old_id, last)?;
        self.manager.create(self.config.replication, epoch)
    }

    /// Number of ledgers currently backing the log (exposed for tests).
    pub fn ledger_count(&self) -> usize {
        self.inner.lock().metadata.ledgers.len()
    }

    /// Registers the `wal.bookie.entry_corrupt` counter and the
    /// `segmentstore.stalls.wal_rollover` stall instruments on `registry`.
    pub fn bind_metrics(&self, registry: &pravega_common::metrics::MetricsRegistry) {
        self.manager.bind_metrics(registry);
        let _ = self.stalls.set(StallTracker::new(registry));
    }

    fn record_rollover_stall(&self, start: std::time::Instant) {
        if let Some(stalls) = self.stalls.get() {
            stalls.record(StallClass::WalRollover, start.elapsed());
        }
    }

    /// Scrubs every ledger backing this log: verifies all stored entry
    /// replicas against their envelopes and overwrites corrupt copies with
    /// a healthy peer's bytes.
    pub fn scrub_ledgers(&self) -> LedgerScrubReport {
        let ledgers: Vec<(u64, LedgerId)> = self.inner.lock().metadata.ledgers.clone();
        let mut total = LedgerScrubReport::default();
        for (_, id) in ledgers {
            if let Ok(meta) = self.manager.metadata(id) {
                let r = self.manager.scrub_ledger(&meta);
                total.replicas_checked += r.replicas_checked;
                total.corrupt += r.corrupt;
                total.repaired += r.repaired;
            }
        }
        total
    }
}

impl DurableDataLog for BookkeeperLog {
    fn append(&self, data: Bytes) -> AppendFuture {
        let mut inner = self.inner.lock();
        loop {
            if inner.fenced {
                return AppendFuture {
                    inner: Promise::ready(Err(WalError::Fenced)),
                    ledger_seq: inner.current_seq,
                };
            }
            if inner.rolling {
                // Another appender is swapping ledgers with the lock
                // released; park until it finishes rather than racing it.
                let wait_start = clock::monotonic_now();
                self.rollover_done.wait(&mut inner);
                self.record_rollover_stall(wait_start);
                continue;
            }
            if inner.writer.is_none() {
                return AppendFuture {
                    inner: Promise::ready(Err(WalError::Closed)),
                    ledger_seq: inner.current_seq,
                };
            }
            if inner.bytes_in_current < self.config.rollover_bytes {
                break;
            }

            // Rollover, in three phases so the bookie I/O runs unlocked.
            // Phase 1 (locked): claim the rollover and take the old writer.
            let rollover_start = clock::monotonic_now();
            inner.rolling = true;
            let Some(old) = inner.writer.take() else {
                // Unreachable: `writer.is_none()` was rejected above.
                inner.rolling = false;
                return AppendFuture {
                    inner: Promise::ready(Err(WalError::Closed)),
                    ledger_seq: inner.current_seq,
                };
            };
            let epoch = inner.metadata.epoch;
            drop(inner);

            // Phase 2 (unlocked): seal the old ledger, create the new one.
            let swapped = self.swap_ledger_unlocked(old, epoch);

            // Phase 3 (locked): publish the new ledger in the metadata (a
            // concurrent truncate may have rewritten it, so apply a delta to
            // the current state rather than installing a snapshot) and
            // install the writer. A writer the CAS refuses comes back out
            // unpublished, to be dropped once the lock is released: dropping
            // a writer drains it, a blocking wait.
            inner = self.inner.lock();
            inner.rolling = false;
            let mut unpublished = None;
            let result = swapped.and_then(|writer| {
                inner.current_seq += 1;
                let seq = inner.current_seq;
                inner.metadata.ledgers.push((seq, writer.metadata().id));
                match self.coord.set(
                    &self.path,
                    inner.metadata.encode(),
                    Some(inner.meta_version),
                ) {
                    Ok(v) => {
                        inner.meta_version = v;
                        inner.bytes_in_current = 0;
                        inner.writer = Some(writer);
                        Ok(())
                    }
                    Err(_) => {
                        inner.fenced = true;
                        unpublished = Some(writer);
                        Err(WalError::Fenced)
                    }
                }
            });
            self.rollover_done.notify_all();
            // The appender that performed the swap stalled for the full
            // rollover (phases 1-3); attribute it.
            self.record_rollover_stall(rollover_start);
            if let Err(e) = result {
                let ledger_seq = inner.current_seq;
                drop(inner);
                drop(unpublished);
                return AppendFuture {
                    inner: Promise::ready(Err(e)),
                    ledger_seq,
                };
            }
            // Loop back to re-run the state checks with the fresh writer.
        }
        inner.bytes_in_current += data.len() as u64;
        // `writer.is_none()` was rejected above and rollover re-installs a
        // writer on success, so this branch is unreachable in practice.
        let Some(writer) = inner.writer.as_ref() else {
            return AppendFuture {
                inner: Promise::ready(Err(WalError::Closed)),
                ledger_seq: inner.current_seq,
            };
        };
        let promise = writer.append(data);
        let fenced_now = writer.is_fenced();
        if fenced_now {
            inner.fenced = true;
        }
        AppendFuture {
            inner: promise,
            ledger_seq: inner.current_seq,
        }
    }

    fn read_after(&self, from: Option<LogAddress>) -> Result<Vec<(LogAddress, Bytes)>, WalError> {
        let (ledgers, current_seq, lac) = {
            let inner = self.inner.lock();
            (
                inner.metadata.ledgers.clone(),
                inner.current_seq,
                inner.writer.as_ref().and_then(|w| w.last_add_confirmed()),
            )
        };
        let mut out = Vec::new();
        for (seq, ledger_id) in ledgers {
            let meta = self.manager.metadata(ledger_id)?;
            let last = match meta.state {
                LedgerState::Closed { last_entry } => last_entry,
                LedgerState::Open => {
                    if seq == current_seq {
                        lac
                    } else {
                        return Err(WalError::Metadata(format!(
                            "non-current ledger {ledger_id} still open"
                        )));
                    }
                }
            };
            let Some(last) = last else { continue };
            for entry in 0..=last {
                let addr = LogAddress {
                    ledger_seq: seq,
                    entry,
                };
                if let Some(from) = from {
                    if addr <= from {
                        continue;
                    }
                }
                out.push((addr, self.manager.read_entry(&meta, entry)?));
            }
        }
        Ok(out)
    }

    fn truncate(&self, up_to: LogAddress) -> Result<(), WalError> {
        let doomed: Vec<(u64, LedgerId)> = {
            let inner = self.inner.lock();
            inner
                .metadata
                .ledgers
                .iter()
                .filter(|(seq, _)| *seq < up_to.ledger_seq)
                .copied()
                .collect()
        };
        for (_, ledger_id) in &doomed {
            self.manager.delete(*ledger_id)?;
        }
        if !doomed.is_empty() {
            let mut inner = self.inner.lock();
            inner
                .metadata
                .ledgers
                .retain(|(seq, _)| *seq >= up_to.ledger_seq);
            inner.meta_version = self
                .coord
                .set(
                    &self.path,
                    inner.metadata.encode(),
                    Some(inner.meta_version),
                )
                .map_err(|_| {
                    inner.fenced = true;
                    WalError::Fenced
                })?;
        }
        Ok(())
    }

    fn epoch(&self) -> u64 {
        self.inner.lock().metadata.epoch
    }

    fn is_fenced(&self) -> bool {
        let inner = self.inner.lock();
        inner.fenced
            || inner
                .writer
                .as_ref()
                .map(|w| w.is_fenced())
                .unwrap_or(false)
    }
}

/// An in-memory [`DurableDataLog`] for unit tests: appends complete
/// immediately and durability is simulated.
#[derive(Debug)]
pub struct InMemoryLog {
    inner: Mutex<MemLogInner>,
}

impl Default for InMemoryLog {
    fn default() -> Self {
        Self {
            inner: Mutex::new(rank::WAL_LOG, MemLogInner::default()),
        }
    }
}

#[derive(Debug, Default)]
struct MemLogInner {
    base_entry: u64,
    entries: VecDeque<Bytes>,
    fenced: bool,
}

impl InMemoryLog {
    /// Creates an empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Failure injection: fence the log (all appends fail from now on).
    pub fn fence(&self) {
        self.inner.lock().fenced = true;
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl DurableDataLog for InMemoryLog {
    fn append(&self, data: Bytes) -> AppendFuture {
        let mut inner = self.inner.lock();
        if inner.fenced {
            return AppendFuture {
                inner: Promise::ready(Err(WalError::Fenced)),
                ledger_seq: 0,
            };
        }
        let entry = inner.base_entry + inner.entries.len() as u64;
        inner.entries.push_back(data);
        AppendFuture {
            inner: Promise::ready(Ok(entry)),
            ledger_seq: 0,
        }
    }

    fn read_after(&self, from: Option<LogAddress>) -> Result<Vec<(LogAddress, Bytes)>, WalError> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        for (i, data) in inner.entries.iter().enumerate() {
            let addr = LogAddress {
                ledger_seq: 0,
                entry: inner.base_entry + i as u64,
            };
            if let Some(from) = from {
                if addr <= from {
                    continue;
                }
            }
            out.push((addr, data.clone()));
        }
        Ok(out)
    }

    fn truncate(&self, up_to: LogAddress) -> Result<(), WalError> {
        let mut inner = self.inner.lock();
        while inner.base_entry <= up_to.entry && !inner.entries.is_empty() {
            inner.entries.pop_front();
            inner.base_entry += 1;
        }
        Ok(())
    }

    fn epoch(&self) -> u64 {
        1
    }

    fn is_fenced(&self) -> bool {
        self.inner.lock().fenced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bookie::mem_bookies;
    use crate::journal::JournalConfig;

    fn small_log(coord: &CoordinationService, pool: &BookiePool, rollover: u64) -> BookkeeperLog {
        BookkeeperLog::open(
            "test-log",
            pool,
            coord,
            LogConfig {
                rollover_bytes: rollover,
                replication: ReplicationConfig::default(),
            },
        )
        .unwrap()
    }

    fn setup() -> (CoordinationService, BookiePool) {
        (
            CoordinationService::new(),
            BookiePool::new(mem_bookies(3, JournalConfig::default()).unwrap()),
        )
    }

    #[test]
    fn append_and_read_back_in_order() {
        let (coord, pool) = setup();
        let log = small_log(&coord, &pool, 1 << 20);
        let mut addrs = Vec::new();
        for i in 0..20u32 {
            addrs.push(log.append(Bytes::from(format!("r{i}"))).wait().unwrap());
        }
        let read = log.read_after(None).unwrap();
        assert_eq!(read.len(), 20);
        for (i, (addr, data)) in read.iter().enumerate() {
            assert_eq!(*addr, addrs[i]);
            assert_eq!(data.as_ref(), format!("r{i}").as_bytes());
        }
        // read_after skips up to and including the given address.
        let tail = log.read_after(Some(addrs[14])).unwrap();
        assert_eq!(tail.len(), 5);
        assert_eq!(tail[0].0, addrs[15]);
    }

    #[test]
    fn rollover_creates_new_ledgers_and_keeps_order() {
        let (coord, pool) = setup();
        let log = small_log(&coord, &pool, 64); // tiny rollover
        let mut addrs = Vec::new();
        for i in 0..30u32 {
            addrs.push(
                log.append(Bytes::from(format!("record-{i:04}")))
                    .wait()
                    .unwrap(),
            );
        }
        assert!(log.ledger_count() > 1, "expected rollover");
        // Addresses strictly increase.
        for w in addrs.windows(2) {
            assert!(w[0] < w[1]);
        }
        let read = log.read_after(None).unwrap();
        assert_eq!(read.len(), 30);
    }

    #[test]
    fn truncate_deletes_whole_old_ledgers() {
        let (coord, pool) = setup();
        let log = small_log(&coord, &pool, 64);
        let mut addrs = Vec::new();
        for i in 0..30u32 {
            addrs.push(
                log.append(Bytes::from(format!("record-{i:04}")))
                    .wait()
                    .unwrap(),
            );
        }
        let before = log.ledger_count();
        assert!(before > 2);
        log.truncate(addrs[25]).unwrap();
        let after = log.ledger_count();
        assert!(after < before, "truncation should drop ledgers");
        // Remaining data still contains everything after the truncation point
        // (may contain a bit more from the partially-covered ledger).
        let read = log.read_after(Some(addrs[25])).unwrap();
        assert_eq!(read.len(), 4);
    }

    #[test]
    fn reopen_fences_previous_owner_and_recovers_data() {
        let (coord, pool) = setup();
        let log1 = small_log(&coord, &pool, 1 << 20);
        for i in 0..5u32 {
            log1.append(Bytes::from(format!("r{i}"))).wait().unwrap();
        }
        assert_eq!(log1.epoch(), 1);

        // New owner opens the same log.
        let log2 = small_log(&coord, &pool, 1 << 20);
        assert_eq!(log2.epoch(), 2);

        // Old owner is fenced out.
        let r = log1.append(Bytes::from_static(b"zombie")).wait();
        assert!(matches!(r, Err(WalError::Fenced)), "got {r:?}");

        // New owner sees the recovered data.
        let read = log2.read_after(None).unwrap();
        assert_eq!(read.len(), 5);
        assert_eq!(read[4].1.as_ref(), b"r4");

        // And can append more, at strictly later addresses.
        let addr = log2.append(Bytes::from_static(b"new")).wait().unwrap();
        assert!(addr > read[4].0);
    }

    /// The interleaving behind the `crashed_store_leaves_fenced_zombie_wal_handles`
    /// flake: the new owner tiers the recovered data and truncates the old
    /// owner's ledger away *before* the zombie's next append. Deleting the
    /// ledger must not delete its fence.
    #[test]
    fn zombie_stays_fenced_after_new_owner_truncates_its_ledger() {
        let (coord, pool) = setup();
        let log1 = small_log(&coord, &pool, 1 << 20);
        log1.append(Bytes::from_static(b"r0")).wait().unwrap();

        let log2 = small_log(&coord, &pool, 1 << 20);
        let addr = log2.append(Bytes::from_static(b"new")).wait().unwrap();
        log2.truncate(addr).unwrap();
        assert_eq!(log2.ledger_count(), 1, "the recovered ledger is deleted");

        let r = log1.append(Bytes::from_static(b"zombie")).wait();
        assert!(matches!(r, Err(WalError::Fenced)), "got {r:?}");
        assert!(log1.is_fenced());
    }

    #[test]
    fn reopen_twice_preserves_everything() {
        let (coord, pool) = setup();
        {
            let log = small_log(&coord, &pool, 128);
            for i in 0..10u32 {
                log.append(Bytes::from(format!("gen1-{i}"))).wait().unwrap();
            }
        }
        {
            let log = small_log(&coord, &pool, 128);
            assert_eq!(log.read_after(None).unwrap().len(), 10);
            for i in 0..10u32 {
                log.append(Bytes::from(format!("gen2-{i}"))).wait().unwrap();
            }
        }
        let log = small_log(&coord, &pool, 128);
        let all = log.read_after(None).unwrap();
        assert_eq!(all.len(), 20);
        assert_eq!(all[0].1.as_ref(), b"gen1-0");
        assert_eq!(all[19].1.as_ref(), b"gen2-9");
    }

    #[test]
    fn in_memory_log_matches_contract() {
        let log = InMemoryLog::new();
        let a0 = log.append(Bytes::from_static(b"a")).wait().unwrap();
        let a1 = log.append(Bytes::from_static(b"b")).wait().unwrap();
        assert!(a0 < a1);
        assert_eq!(log.read_after(None).unwrap().len(), 2);
        assert_eq!(log.read_after(Some(a0)).unwrap().len(), 1);
        log.truncate(a0).unwrap();
        assert_eq!(log.read_after(None).unwrap().len(), 1);
        log.fence();
        assert!(matches!(
            log.append(Bytes::from_static(b"c")).wait(),
            Err(WalError::Fenced)
        ));
        assert!(log.is_fenced());
    }

    #[test]
    fn log_addresses_order_lexicographically() {
        let a = LogAddress {
            ledger_seq: 0,
            entry: 100,
        };
        let b = LogAddress {
            ledger_seq: 1,
            entry: 0,
        };
        assert!(a < b);
        assert_eq!(a.to_string(), "0:100");
    }
}

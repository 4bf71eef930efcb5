//! Bookies: the storage servers of the replicated WAL.
//!
//! A bookie journals every add (see [`crate::journal`]) and keeps a ledger
//! index for reads. An add does not block: it is queued on the journal with
//! its [`Ack`], and the journal thread completes it after the group's sync —
//! it re-checks availability and the fence, indexes the entry, and only then
//! acks. Fencing gives a new ledger owner exclusive access: once fenced with
//! token `t`, adds presenting a token `< t` are rejected — the mechanism
//! behind the segment container's exclusive WAL access (§4.4).

#![warn(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pravega_common::buf::crc32c;
use pravega_common::future::{promise, Completer};
use pravega_sync::{rank, Mutex};

use crate::error::BookieError;
use crate::journal::{Completion, FileSink, Journal, JournalConfig, JournalSink, MemSink};
use crate::ledger::{LedgerId, WriterShared};

/// A WAL storage server.
pub trait Bookie: Send + Sync + std::fmt::Debug {
    /// Stable identifier of this bookie (used in ledger ensembles).
    fn id(&self) -> &str;

    /// Stores an entry durably and reports the outcome to `ack`. It must not
    /// block: ledger writers call it under their sequencer lock. An add
    /// refused up front is acked on the calling thread; an accepted one is
    /// acked later, once it is durable. `fence_token` must be at least the
    /// ledger's current fence token.
    ///
    /// The ack reports [`BookieError::Fenced`] if a newer owner fenced the
    /// ledger, [`BookieError::Unavailable`] if the bookie is down, and
    /// [`BookieError::AckLost`] if the entry was stored but its ack lost.
    fn add_entry_then(&self, ledger: LedgerId, entry: u64, fence_token: u64, data: Bytes, ack: Ack);

    /// Durably stores an entry, waiting for
    /// [`add_entry_then`](Bookie::add_entry_then)'s ack.
    ///
    /// # Errors
    ///
    /// As reported to the ack of [`add_entry_then`](Bookie::add_entry_then).
    fn add_entry(
        &self,
        ledger: LedgerId,
        entry: u64,
        fence_token: u64,
        data: Bytes,
    ) -> Result<(), BookieError> {
        let (completer, done) = promise();
        self.add_entry_then(ledger, entry, fence_token, data, Ack::waiter(completer));
        done.wait().unwrap_or(Err(BookieError::Unavailable))
    }

    /// Reads an entry.
    ///
    /// # Errors
    ///
    /// [`BookieError::NoSuchLedger`] / [`BookieError::NoSuchEntry`] when
    /// absent; [`BookieError::Unavailable`] if the bookie is down.
    fn read_entry(&self, ledger: LedgerId, entry: u64) -> Result<Bytes, BookieError>;

    /// Highest entry id stored for the ledger, if any.
    fn last_entry(&self, ledger: LedgerId) -> Result<Option<u64>, BookieError>;

    /// Raises the ledger's fence token to `token` (never lowers it) and
    /// returns the highest stored entry. Creates fencing state even for
    /// ledgers this bookie has never seen (so late adds are still rejected).
    ///
    /// # Errors
    ///
    /// [`BookieError::Unavailable`] if the bookie is down.
    fn fence(&self, ledger: LedgerId, token: u64) -> Result<Option<u64>, BookieError>;

    /// Deletes all data for a ledger (WAL truncation deletes whole ledgers).
    ///
    /// # Errors
    ///
    /// [`BookieError::Unavailable`] if the bookie is down.
    fn delete_ledger(&self, ledger: LedgerId) -> Result<(), BookieError>;
}

/// Where one bookie add's outcome goes: a ledger writer's in-order ack
/// logic, or a caller blocked in [`Bookie::add_entry`]. A writer's ack is
/// its shared state plus the entry id, so an add allocates nothing for it.
/// Dropped without being completed, an ack reports
/// [`BookieError::Unavailable`], so no add can strand its waiter.
pub struct Ack {
    to: Option<AckTo>,
    delay: Duration,
}

enum AckTo {
    Writer(Arc<WriterShared>, u64),
    Waiter(Completer<Result<(), BookieError>>),
}

impl Ack {
    pub(crate) fn writer(shared: Arc<WriterShared>, entry: u64) -> Self {
        Self {
            to: Some(AckTo::Writer(shared, entry)),
            delay: Duration::ZERO,
        }
    }

    fn waiter(completer: Completer<Result<(), BookieError>>) -> Self {
        Self {
            to: Some(AckTo::Waiter(completer)),
            delay: Duration::ZERO,
        }
    }

    /// Holds the add back by `by` before it completes, on the journal thread
    /// of the bookie that stores it: a slow replica, injected. The caller
    /// never serves the delay; the whole bookie does. The journal thread
    /// sleeps after the group's sync, so every completion behind it waits
    /// too — adds already durable in the same group, later groups, other
    /// ledgers' adds — and spikes drawn for different ledgers add up on that
    /// one thread. An add refused before it reaches a journal is acked
    /// without it.
    #[must_use]
    pub fn delayed(mut self, by: Duration) -> Self {
        self.delay = self.delay.saturating_add(by);
        self
    }

    /// Reports the add's outcome.
    pub fn complete(mut self, result: Result<(), BookieError>) {
        self.report(result);
    }

    fn report(&mut self, result: Result<(), BookieError>) {
        match self.to.take() {
            Some(AckTo::Writer(shared, entry)) => shared.on_ack(entry, result),
            Some(AckTo::Waiter(completer)) => completer.complete(result),
            None => {}
        }
    }
}

impl Drop for Ack {
    fn drop(&mut self) {
        self.report(Err(BookieError::Unavailable));
    }
}

/// A record on a bookie's journal: an add, or a delete whose caller waits.
enum Record {
    Add(PendingAdd),
    Delete(Completer<Result<(), BookieError>>),
}

/// Length of an add record's header, `[b'A'][u64 ledger][u64 entry][u32
/// len][u32 crc32c(data)]`: written just ahead of the entry bytes, which
/// the record shares rather than copies.
const ADD_HEAD_LEN: usize = 25;

impl Completion for Record {
    type Head = [u8; ADD_HEAD_LEN];

    /// An add's header, encoded here on the journal thread (its crc off the
    /// appender's path). A delete record is its body alone.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`data` is one enveloped entry: a durable-log data frame plus 8 bytes, far \
                  below 4 GiB"
    )]
    fn head(&self, data: &[u8]) -> Option<[u8; ADD_HEAD_LEN]> {
        let Self::Add(add) = self else {
            return None;
        };
        let mut head = [0u8; ADD_HEAD_LEN];
        let mut out = head.as_mut_slice();
        out.put_u8(b'A');
        out.put_u64(add.ledger.0);
        out.put_u64(add.entry);
        out.put_u32(data.len() as u32);
        out.put_u32(crc32c(data));
        Some(head)
    }

    fn settle(self, result: Result<(), BookieError>, body: Bytes) {
        match self {
            Self::Add(add) => add.index_then_ack(result, body),
            Self::Delete(completer) => completer.complete(result),
        }
    }
}

/// An add queued on a bookie's journal: what the journal thread needs to
/// finish it once the record's group is synced.
struct PendingAdd {
    state: Arc<Mutex<BookieState>>,
    ledger: LedgerId,
    entry: u64,
    fence_token: u64,
    ack: Ack,
}

impl PendingAdd {
    /// Runs on the journal thread with the group's result and the entry
    /// bytes the record shared: re-checks availability and the fence,
    /// indexes the entry, releases `WAL_BOOKIE`, and only then acks (a
    /// writer's ack takes `WAL_LEDGER_PENDING`, which ranks above it).
    fn index_then_ack(self, journaled: Result<(), BookieError>, data: Bytes) {
        serve_delay(self.ack.delay);
        let result = match journaled {
            // `AckLost`: a crash between journal write and ack. The record
            // is durable on this bookie, so index it — the caller still sees
            // a failed add, which is exactly the asymmetry a real crash
            // leaves.
            Ok(()) | Err(BookieError::AckLost) => self
                .state
                .lock()
                .admit(self.ledger, self.fence_token)
                .map(|ls| ls.entries.insert(self.entry, data))
                .and(journaled),
            Err(e) => Err(e),
        };
        self.ack.complete(result);
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "an injected slow replica: the sleep is the slow bookie being modeled, on its own \
              journal thread, and retries nothing"
)]
fn serve_delay(delay: Duration) {
    if !delay.is_zero() {
        std::thread::sleep(delay);
    }
}

#[derive(Debug, Default)]
pub(crate) struct LedgerState {
    entries: BTreeMap<u64, Bytes>,
    fence_token: u64,
    /// Set by `delete_ledger`: the data is gone but the fence must outlive
    /// it. A new owner recovers (fences) a crashed owner's ledger and soon
    /// truncates it away; forgetting the fence with the data would let the
    /// crashed owner's late adds succeed — acked into a ledger nobody reads.
    deleted: bool,
}

impl LedgerState {
    fn tombstone(&mut self) {
        self.entries.clear();
        self.deleted = true;
    }
}

#[derive(Debug)]
pub(crate) struct BookieState {
    ledgers: BTreeMap<LedgerId, LedgerState>,
    available: bool,
}

impl BookieState {
    fn up(&self) -> Result<(), BookieError> {
        if self.available {
            Ok(())
        } else {
            Err(BookieError::Unavailable)
        }
    }

    /// The checks an add passes before its journal write and again after
    /// it: the bookie is up and the ledger not fenced past `fence_token`.
    fn admit(
        &mut self,
        ledger: LedgerId,
        fence_token: u64,
    ) -> Result<&mut LedgerState, BookieError> {
        self.up()?;
        let ls = self.ledgers.entry(ledger).or_default();
        if fence_token < ls.fence_token {
            return Err(BookieError::Fenced {
                presented: fence_token,
                current: ls.fence_token,
            });
        }
        Ok(ls)
    }
}

/// A bookie: a group-committing journal plus an in-memory ledger index,
/// with one add path whatever the journal's device. [`JournalBookie::new`]
/// journals to memory; [`JournalBookie::open`] journals to a file, which
/// doubles as its persistent store, and rebuilds the index from it on open
/// (crash recovery).
#[derive(Debug)]
pub struct JournalBookie {
    id: String,
    journal: Journal<Record>,
    state: Arc<Mutex<BookieState>>,
    journal_path: Option<PathBuf>,
}

impl JournalBookie {
    /// Creates a bookie journaling to memory.
    ///
    /// # Errors
    ///
    /// [`BookieError::Io`] if the journal thread cannot be spawned.
    pub fn new(id: &str, config: JournalConfig) -> Result<Self, BookieError> {
        let sink = Box::new(MemSink::new(config.simulated_sync_latency));
        Self::with_sink(id, sink, config, BTreeMap::new(), None)
    }

    /// Opens (or recovers) a bookie whose journal lives in `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`BookieError::Io`] on filesystem failures or a corrupt
    /// journal record.
    pub fn open(id: &str, dir: &PathBuf, config: JournalConfig) -> Result<Self, BookieError> {
        std::fs::create_dir_all(dir).map_err(|e| BookieError::Io(e.to_string()))?;
        let journal_path = dir.join(format!("{id}.journal"));
        let ledgers = Self::replay(&journal_path)?;
        let sink = Box::new(FileSink::open(&journal_path)?);
        Self::with_sink(id, sink, config, ledgers, Some(journal_path))
    }

    /// Starts a bookie journaling to `sink` over an index recovered as
    /// `ledgers`.
    pub(crate) fn with_sink(
        id: &str,
        sink: Box<dyn JournalSink>,
        config: JournalConfig,
        ledgers: BTreeMap<LedgerId, LedgerState>,
        journal_path: Option<PathBuf>,
    ) -> Result<Self, BookieError> {
        Ok(Self {
            id: id.to_string(),
            journal: Journal::start_for(format!("bookie {id}"), sink, config)?,
            state: Arc::new(Mutex::new(
                rank::WAL_BOOKIE,
                BookieState {
                    ledgers,
                    available: true,
                },
            )),
            journal_path,
        })
    }

    /// Path of the journal file, for a file-backed bookie (exposed for
    /// tests).
    pub fn journal_path(&self) -> Option<&PathBuf> {
        self.journal_path.as_ref()
    }

    fn replay(path: &PathBuf) -> Result<BTreeMap<LedgerId, LedgerState>, BookieError> {
        let mut ledgers: BTreeMap<LedgerId, LedgerState> = BTreeMap::new();
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ledgers),
            Err(e) => return Err(BookieError::Io(e.to_string())),
        };
        let mut buf = Bytes::from(raw);
        while buf.has_remaining() {
            let tag = buf.get_u8();
            match tag {
                b'A' => {
                    if buf.remaining() < ADD_HEAD_LEN - 1 {
                        break; // torn tail write: stop replay here
                    }
                    let ledger = LedgerId(buf.get_u64());
                    let entry = buf.get_u64();
                    let len = buf.get_u32() as usize;
                    let crc = buf.get_u32();
                    if buf.remaining() < len {
                        break; // torn data
                    }
                    let data = buf.split_to(len);
                    if crc32c(&data) != crc {
                        return Err(BookieError::EntryCorrupt {
                            ledger: ledger.0,
                            entry,
                        });
                    }
                    ledgers
                        .entry(ledger)
                        .or_default()
                        .entries
                        .insert(entry, data);
                }
                b'D' => {
                    if buf.remaining() < 8 {
                        break;
                    }
                    let ledger = LedgerId(buf.get_u64());
                    ledgers.remove(&ledger);
                }
                _ => return Err(BookieError::Io("unknown journal record tag".into())),
            }
        }
        Ok(ledgers)
    }

    /// Failure injection: mark the bookie down (`false`) or back up (`true`).
    pub fn set_available(&self, available: bool) {
        self.state.lock().available = available;
    }

    /// Number of journal syncs performed (used to verify group commit).
    pub fn journal_syncs(&self) -> u64 {
        self.journal.sync_count.get()
    }

    /// 1 once this bookie's journal thread has died (a panicking sink).
    pub fn journal_thread_deaths(&self) -> u64 {
        self.journal.thread_deaths.get()
    }

    /// Histogram of entries per journal sync (the group-commit batch size).
    pub fn journal_group_sizes(&self) -> std::sync::Arc<pravega_common::metrics::Histogram> {
        self.journal.group_sizes.clone()
    }

    /// Ledger ids currently stored on this bookie (scrubber enumeration).
    pub fn ledger_ids(&self) -> Vec<LedgerId> {
        self.state.lock().ledgers.keys().copied().collect()
    }

    /// Entry ids stored for `ledger`, in order (scrubber enumeration).
    pub fn entry_ids(&self, ledger: LedgerId) -> Vec<u64> {
        self.state
            .lock()
            .ledgers
            .get(&ledger)
            .map(|ls| ls.entries.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Raw stored bytes of an entry — envelope included, availability gate
    /// bypassed. Scrub and corruption injection both need the bytes as they
    /// sit on disk, not as a client read would present them.
    pub fn raw_entry(&self, ledger: LedgerId, entry: u64) -> Option<Bytes> {
        self.state
            .lock()
            .ledgers
            .get(&ledger)?
            .entries
            .get(&entry)
            .cloned()
    }

    /// Corruption injection: XORs `mask` into the byte at `offset` of a
    /// stored entry, behind the system's back. Returns `false` when the
    /// entry is absent or `offset` is out of range.
    pub fn flip_entry_bit(&self, ledger: LedgerId, entry: u64, offset: u64, mask: u8) -> bool {
        let mut state = self.state.lock();
        let Some(stored) = state
            .ledgers
            .get_mut(&ledger)
            .and_then(|ls| ls.entries.get_mut(&entry))
        else {
            return false;
        };
        let mut bytes = stored.to_vec();
        let Some(byte) = usize::try_from(offset)
            .ok()
            .and_then(|offset| bytes.get_mut(offset))
        else {
            return false;
        };
        *byte ^= mask;
        *stored = Bytes::from(bytes);
        true
    }

    /// Corruption injection: silently drops the last `drop` bytes of a
    /// stored entry, as a lost tail write would. Returns `false` when the
    /// entry is absent or shorter than `drop`.
    pub fn truncate_entry_tail(&self, ledger: LedgerId, entry: u64, drop: u64) -> bool {
        let mut state = self.state.lock();
        let Some(stored) = state
            .ledgers
            .get_mut(&ledger)
            .and_then(|ls| ls.entries.get_mut(&entry))
        else {
            return false;
        };
        let Some(keep) = usize::try_from(drop)
            .ok()
            .and_then(|drop| stored.len().checked_sub(drop))
        else {
            return false;
        };
        let mut bytes = stored.to_vec();
        bytes.truncate(keep);
        *stored = Bytes::from(bytes);
        true
    }

    /// Scrub repair: overwrites a stored entry with a healthy enveloped
    /// copy re-replicated from a peer. Creates the entry if the corruption
    /// was a lost index record. Fencing is not consulted: the caller has
    /// already verified `stored` against the acked checksum, and restoring
    /// byte-identical acked data is fence-neutral.
    pub fn overwrite_entry(&self, ledger: LedgerId, entry: u64, stored: Bytes) {
        let mut state = self.state.lock();
        state
            .ledgers
            .entry(ledger)
            .or_default()
            .entries
            .insert(entry, stored);
    }
}

impl Bookie for JournalBookie {
    fn id(&self) -> &str {
        &self.id
    }

    fn add_entry_then(
        &self,
        ledger: LedgerId,
        entry: u64,
        fence_token: u64,
        data: Bytes,
        ack: Ack,
    ) {
        // Bound first: the guard must be gone before the ack runs.
        let admitted = self.state.lock().admit(ledger, fence_token).map(|_| ());
        if let Err(e) = admitted {
            ack.complete(Err(e));
            return;
        }
        let add = PendingAdd {
            state: self.state.clone(),
            ledger,
            entry,
            fence_token,
            ack,
        };
        self.journal.submit(data, Record::Add(add));
    }

    fn read_entry(&self, ledger: LedgerId, entry: u64) -> Result<Bytes, BookieError> {
        let state = self.state.lock();
        state.up()?;
        let ls = state
            .ledgers
            .get(&ledger)
            .filter(|ls| !ls.deleted)
            .ok_or(BookieError::NoSuchLedger)?;
        ls.entries
            .get(&entry)
            .cloned()
            .ok_or(BookieError::NoSuchEntry)
    }

    fn last_entry(&self, ledger: LedgerId) -> Result<Option<u64>, BookieError> {
        let state = self.state.lock();
        state.up()?;
        Ok(state
            .ledgers
            .get(&ledger)
            .and_then(|ls| ls.entries.keys().next_back().copied()))
    }

    fn fence(&self, ledger: LedgerId, token: u64) -> Result<Option<u64>, BookieError> {
        let mut state = self.state.lock();
        state.up()?;
        let ls = state.ledgers.entry(ledger).or_default();
        ls.fence_token = ls.fence_token.max(token);
        Ok(ls.entries.keys().next_back().copied())
    }

    fn delete_ledger(&self, ledger: LedgerId) -> Result<(), BookieError> {
        self.state.lock().up()?;
        if self.journal_path.is_some() {
            // The file is the store: replay must see the delete.
            let (completer, done) = promise();
            let record = encode_journal_delete(ledger);
            self.journal.submit(record, Record::Delete(completer));
            done.wait().unwrap_or(Err(BookieError::Unavailable))?;
        }
        if let Some(ls) = self.state.lock().ledgers.get_mut(&ledger) {
            ls.tombstone();
        }
        Ok(())
    }
}

/// Wraps an entry payload in the stored-entry envelope
/// `[u32 len][u32 crc32c(payload)][payload]`.
///
/// The ledger layer wraps every payload once before replication, so all
/// replicas hold identical enveloped bytes and any replica's copy can be
/// verified — and compared against its peers — without consulting the
/// others.
#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "an entry is one durable-log data frame, sealed once it reaches its \
              `max_frame_bytes` (1 MiB by default), far below 4 GiB; a slice plus 8 cannot \
              overflow usize"
)]
pub fn encode_entry_envelope(data: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(data.len() + 8);
    buf.put_u32(data.len() as u32);
    buf.put_u32(crc32c(data));
    buf.put_slice(data);
    buf.freeze()
}

/// Verifies and strips a stored-entry envelope, returning the payload.
/// `None` means the stored bytes are corrupt: torn, truncated, or failing
/// the checksum.
pub fn decode_entry_envelope(stored: &Bytes) -> Option<Bytes> {
    let mut buf = stored.clone();
    if buf.remaining() < 8 {
        return None;
    }
    let len = buf.get_u32() as usize;
    let crc = buf.get_u32();
    if buf.remaining() != len {
        return None;
    }
    let payload = buf.split_to(len);
    (crc32c(&payload) == crc).then_some(payload)
}

fn encode_journal_delete(ledger: LedgerId) -> Bytes {
    let mut buf = BytesMut::with_capacity(9);
    buf.put_u8(b'D');
    buf.put_u64(ledger.0);
    buf.freeze()
}

/// Convenience: builds `n` in-memory bookies sharing one journal config.
///
/// # Errors
///
/// [`BookieError::Io`] if a journal thread cannot be spawned.
pub fn mem_bookies(n: usize, config: JournalConfig) -> Result<Vec<Arc<dyn Bookie>>, BookieError> {
    (0..n)
        .map(|i| {
            JournalBookie::new(&format!("bookie-{i}"), config.clone())
                .map(|b| Arc::new(b) as Arc<dyn Bookie>)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bookie() -> JournalBookie {
        JournalBookie::new("b0", JournalConfig::default()).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let (pid, nonce) = (std::process::id(), rand::random::<u32>());
        std::env::temp_dir().join(format!("{tag}-{pid}-{nonce}"))
    }

    /// `add_entry_then` with an ack a test can wait on.
    fn add_then(
        b: &JournalBookie,
        entry: u64,
        fence_token: u64,
    ) -> pravega_common::future::Promise<Result<(), BookieError>> {
        let (completer, done) = promise();
        let data = Bytes::from(format!("e{entry}"));
        b.add_entry_then(
            LedgerId(1),
            entry,
            fence_token,
            data,
            Ack::waiter(completer),
        );
        done
    }

    #[test]
    fn a_fence_landing_while_the_add_is_journaled_rejects_it_unindexed() {
        let (gate, _, sink) = crate::journal::test_sinks::gated(false);
        let b =
            JournalBookie::with_sink("b0", sink, JournalConfig::default(), BTreeMap::new(), None)
                .unwrap();
        // The add passes the up-front check and sits in the journal, whose
        // sync is held at the gate; the fence lands meanwhile.
        let done = add_then(&b, 0, 1);
        assert_eq!(b.fence(LedgerId(1), 2).unwrap(), None);
        gate.send(()).unwrap();
        assert_eq!(
            done.wait().unwrap(),
            Err(BookieError::Fenced {
                presented: 1,
                current: 2
            })
        );
        assert!(b.entry_ids(LedgerId(1)).is_empty());
    }

    #[test]
    fn a_lost_ack_on_the_async_path_leaves_the_entry_indexed() {
        use pravega_common::crashpoints::{CrashHook, WAL_JOURNAL_WRITE_NO_ACK};
        let config = JournalConfig {
            crash_hook: CrashHook::armed(|point| point == WAL_JOURNAL_WRITE_NO_ACK),
            ..JournalConfig::default()
        };
        let b = JournalBookie::new("b0", config).unwrap();
        assert_eq!(
            add_then(&b, 0, 0).wait().unwrap(),
            Err(BookieError::AckLost)
        );
        // Durable and indexed on this bookie, though its caller saw a failure.
        assert_eq!(b.read_entry(LedgerId(1), 0).unwrap().as_ref(), b"e0");
    }

    #[test]
    fn a_stopped_journal_answers_every_outstanding_add_unavailable() {
        let (gate, at_gate, sink) = crate::journal::test_sinks::gated(true);
        let b =
            JournalBookie::with_sink("b0", sink, JournalConfig::default(), BTreeMap::new(), None)
                .unwrap();
        // One add in the group whose sync is held, the rest queued behind it.
        let mut outstanding = vec![add_then(&b, 0, 0)];
        at_gate.recv().unwrap();
        outstanding.extend((1..16).map(|e| add_then(&b, e, 0)));
        // The device dies at the sync: the journal thread panics, dropping
        // its group and, with its receiver, its queue.
        drop(gate);
        // Bounded waits: a stranded waiter fails the test instead of hanging it.
        let answer = |done: pravega_common::future::Promise<_>| {
            done.wait_for(std::time::Duration::from_secs(30)).unwrap()
        };
        for done in outstanding {
            assert_eq!(answer(done), Err(BookieError::Unavailable));
        }
        // An add sent to the stopped journal is answered the same way.
        assert_eq!(answer(add_then(&b, 16, 0)), Err(BookieError::Unavailable));
        assert!(b.entry_ids(LedgerId(1)).is_empty());
        assert_eq!(b.journal_thread_deaths(), 1, "the death is counted");
    }

    #[test]
    fn a_delayed_ack_stalls_the_journal_thread_not_the_caller() {
        let b = bookie();
        let (completer, done) = promise();
        let slow = std::time::Duration::from_millis(200);
        let start = std::time::Instant::now();
        let data = Bytes::from_static(b"slow");
        b.add_entry_then(
            LedgerId(1),
            0,
            0,
            data,
            Ack::waiter(completer).delayed(slow),
        );
        assert!(start.elapsed() < slow, "the caller served the delay");
        // The whole bookie is slow: another ledger's add, undelayed, waits
        // behind the spike on the journal thread.
        let (completer, behind) = promise();
        let data = Bytes::from_static(b"behind");
        b.add_entry_then(LedgerId(2), 0, 0, data, Ack::waiter(completer));
        assert_eq!(done.wait().unwrap(), Ok(()));
        assert!(start.elapsed() >= slow, "the delay was skipped");
        assert_eq!(behind.wait().unwrap(), Ok(()));
        assert!(start.elapsed() >= slow, "an add overtook the spike");
    }

    /// Pins the on-disk bytes of a journal add record: the header written
    /// ahead of the shared entry bytes must match the layout replay reads.
    #[test]
    fn journal_add_record_golden_bytes() {
        let dir = temp_dir("pravega-goldenbookie");
        let path = {
            let b = JournalBookie::open("fb", &dir, JournalConfig::default()).unwrap();
            b.add_entry(LedgerId(5), 7, 0, Bytes::from_static(b"golden"))
                .unwrap();
            b.journal_path().unwrap().clone()
        };
        let mut golden = vec![b'A'];
        golden.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 5]); // ledger
        golden.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 7]); // entry
        golden.extend_from_slice(&[0, 0, 0, 6]); // length
        golden.extend_from_slice(&[0x42, 0x6b, 0x21, 0x2b]); // crc32c("golden")
        golden.extend_from_slice(b"golden");
        assert_eq!(std::fs::read(&path).unwrap(), golden);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn add_read_roundtrip() {
        let b = bookie();
        b.add_entry(LedgerId(1), 0, 0, Bytes::from_static(b"e0"))
            .unwrap();
        b.add_entry(LedgerId(1), 1, 0, Bytes::from_static(b"e1"))
            .unwrap();
        assert_eq!(b.read_entry(LedgerId(1), 0).unwrap().as_ref(), b"e0");
        assert_eq!(b.last_entry(LedgerId(1)).unwrap(), Some(1));
        assert_eq!(b.read_entry(LedgerId(1), 9), Err(BookieError::NoSuchEntry));
        assert_eq!(b.read_entry(LedgerId(9), 0), Err(BookieError::NoSuchLedger));
    }

    #[test]
    fn fencing_rejects_old_tokens() {
        let b = bookie();
        b.add_entry(LedgerId(1), 0, 1, Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(b.fence(LedgerId(1), 2).unwrap(), Some(0));
        let err = b.add_entry(LedgerId(1), 1, 1, Bytes::from_static(b"y"));
        assert_eq!(
            err,
            Err(BookieError::Fenced {
                presented: 1,
                current: 2
            })
        );
        // The new owner's token still works.
        b.add_entry(LedgerId(1), 1, 2, Bytes::from_static(b"y"))
            .unwrap();
    }

    #[test]
    fn fence_never_lowers_token() {
        let b = bookie();
        b.fence(LedgerId(1), 5).unwrap();
        b.fence(LedgerId(1), 3).unwrap();
        assert!(matches!(
            b.add_entry(LedgerId(1), 0, 4, Bytes::new()),
            Err(BookieError::Fenced { current: 5, .. })
        ));
    }

    #[test]
    fn fence_unknown_ledger_blocks_future_adds() {
        let b = bookie();
        assert_eq!(b.fence(LedgerId(7), 3).unwrap(), None);
        assert!(matches!(
            b.add_entry(LedgerId(7), 0, 1, Bytes::new()),
            Err(BookieError::Fenced { .. })
        ));
    }

    #[test]
    fn delete_removes_ledger() {
        let b = bookie();
        b.add_entry(LedgerId(1), 0, 0, Bytes::from_static(b"x"))
            .unwrap();
        b.delete_ledger(LedgerId(1)).unwrap();
        assert_eq!(b.read_entry(LedgerId(1), 0), Err(BookieError::NoSuchLedger));
    }

    #[test]
    fn delete_keeps_the_fence() {
        let b = bookie();
        b.add_entry(LedgerId(1), 0, 1, Bytes::from_static(b"x"))
            .unwrap();
        b.fence(LedgerId(1), 2).unwrap();
        b.delete_ledger(LedgerId(1)).unwrap();
        // The old owner (token 1) is still locked out of the deleted ledger.
        assert!(matches!(
            b.add_entry(LedgerId(1), 1, 1, Bytes::from_static(b"late")),
            Err(BookieError::Fenced { .. })
        ));
        assert_eq!(b.last_entry(LedgerId(1)).unwrap(), None);
    }

    #[test]
    fn unavailable_bookie_rejects_everything() {
        let b = bookie();
        b.set_available(false);
        assert_eq!(
            b.add_entry(LedgerId(1), 0, 0, Bytes::new()),
            Err(BookieError::Unavailable)
        );
        assert_eq!(b.read_entry(LedgerId(1), 0), Err(BookieError::Unavailable));
        assert_eq!(b.fence(LedgerId(1), 1), Err(BookieError::Unavailable));
        b.set_available(true);
        b.add_entry(LedgerId(1), 0, 0, Bytes::new()).unwrap();
    }

    #[test]
    fn entry_envelope_roundtrip() {
        let payload = Bytes::from_static(b"acked payload");
        let stored = encode_entry_envelope(&payload);
        assert_eq!(stored.len(), payload.len() + 8);
        assert_eq!(decode_entry_envelope(&stored).unwrap(), payload);
        assert_eq!(
            decode_entry_envelope(&encode_entry_envelope(b"")).unwrap(),
            Bytes::new()
        );
    }

    #[test]
    fn every_single_bit_flip_in_an_envelope_is_detected() {
        let stored = encode_entry_envelope(b"every bit matters");
        for i in 0..stored.len() {
            for bit in 0..8u8 {
                let mut rotten = stored.to_vec();
                rotten[i] ^= 1 << bit;
                assert!(
                    decode_entry_envelope(&Bytes::from(rotten)).is_none(),
                    "flip of byte {i} bit {bit} went undetected"
                );
            }
        }
        // Torn tails (any strict prefix) are detected too.
        for keep in 0..stored.len() {
            assert!(
                decode_entry_envelope(&stored.slice(0..keep)).is_none(),
                "torn tail at {keep} went undetected"
            );
        }
    }

    #[test]
    fn injection_helpers_mutate_stored_entries() {
        let b = bookie();
        let stored = encode_entry_envelope(b"victim");
        b.add_entry(LedgerId(3), 0, 0, stored.clone()).unwrap();
        assert_eq!(b.ledger_ids(), vec![LedgerId(3)]);
        assert_eq!(b.entry_ids(LedgerId(3)), vec![0]);
        assert_eq!(b.raw_entry(LedgerId(3), 0).unwrap(), stored);

        assert!(b.flip_entry_bit(LedgerId(3), 0, 9, 0x04));
        assert!(decode_entry_envelope(&b.raw_entry(LedgerId(3), 0).unwrap()).is_none());
        assert!(!b.flip_entry_bit(LedgerId(3), 0, 10_000, 0x04));
        assert!(!b.flip_entry_bit(LedgerId(3), 7, 0, 0x04));

        // Repair restores the healthy copy over the rotten one.
        b.overwrite_entry(LedgerId(3), 0, stored.clone());
        assert_eq!(b.raw_entry(LedgerId(3), 0).unwrap(), stored);

        assert!(b.truncate_entry_tail(LedgerId(3), 0, 3));
        assert!(decode_entry_envelope(&b.raw_entry(LedgerId(3), 0).unwrap()).is_none());
        assert!(!b.truncate_entry_tail(LedgerId(3), 0, 10_000));
    }

    #[test]
    fn corrupt_journal_replay_is_typed() {
        let dir = temp_dir("pravega-rottenbookie");
        let path = {
            let b = JournalBookie::open("fb", &dir, JournalConfig::default()).unwrap();
            b.add_entry(LedgerId(5), 7, 0, Bytes::from_static(b"soon rotten"))
                .unwrap();
            b.journal_path().unwrap().clone()
        };
        // Flip one bit of the journaled payload (the record tail).
        let mut raw = std::fs::read(&path).unwrap();
        let at = raw.len() - 3;
        raw[at] ^= 0x40;
        std::fs::write(&path, raw).unwrap();
        let err = JournalBookie::open("fb", &dir, JournalConfig::default()).unwrap_err();
        assert_eq!(
            err,
            BookieError::EntryCorrupt {
                ledger: 5,
                entry: 7
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_bookie_recovers_after_restart() {
        let dir = temp_dir("pravega-filebookie");
        {
            let b = JournalBookie::open("fb", &dir, JournalConfig::default()).unwrap();
            b.add_entry(LedgerId(1), 0, 0, Bytes::from_static(b"persisted"))
                .unwrap();
            b.add_entry(LedgerId(2), 0, 0, Bytes::from_static(b"doomed"))
                .unwrap();
            b.delete_ledger(LedgerId(2)).unwrap();
        }
        let b = JournalBookie::open("fb", &dir, JournalConfig::default()).unwrap();
        assert_eq!(b.read_entry(LedgerId(1), 0).unwrap().as_ref(), b"persisted");
        assert_eq!(b.read_entry(LedgerId(2), 0), Err(BookieError::NoSuchLedger));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A down bookie refuses a delete and journals nothing: on reopen, a
    /// file bookie's replay still finds the ledger.
    #[test]
    fn unavailable_file_bookie_refuses_delete() {
        let dir = temp_dir("pravega-downbookie");
        {
            let b = JournalBookie::open("fb", &dir, JournalConfig::default()).unwrap();
            b.add_entry(LedgerId(1), 0, 0, Bytes::from_static(b"kept"))
                .unwrap();
            b.set_available(false);
            assert_eq!(b.delete_ledger(LedgerId(1)), Err(BookieError::Unavailable));
        }
        let b = JournalBookie::open("fb", &dir, JournalConfig::default()).unwrap();
        assert_eq!(b.read_entry(LedgerId(1), 0).unwrap().as_ref(), b"kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_bookie_tolerates_torn_tail() {
        let dir = temp_dir("pravega-tornbookie");
        let path = {
            let b = JournalBookie::open("fb", &dir, JournalConfig::default()).unwrap();
            b.add_entry(LedgerId(1), 0, 0, Bytes::from_static(b"good"))
                .unwrap();
            b.journal_path().unwrap().clone()
        };
        // Simulate a torn write: append a partial record header.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[b'A', 0, 0, 1]).unwrap();
        drop(f);
        let b = JournalBookie::open("fb", &dir, JournalConfig::default()).unwrap();
        assert_eq!(b.read_entry(LedgerId(1), 0).unwrap().as_ref(), b"good");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

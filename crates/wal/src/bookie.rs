//! Bookies: the storage servers of the replicated WAL.
//!
//! A bookie journals every add (see [`crate::journal`]) and keeps a ledger
//! index for reads. Fencing gives a new ledger owner exclusive access: once
//! fenced with token `t`, adds presenting a token `< t` are rejected — the
//! mechanism behind the segment container's exclusive WAL access (§4.4).

#![warn(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pravega_common::buf::crc32c;
use pravega_sync::{rank, Mutex};

use crate::error::BookieError;
use crate::journal::{FileSink, Journal, JournalConfig, MemSink};
use crate::ledger::LedgerId;

/// A WAL storage server.
pub trait Bookie: Send + Sync + std::fmt::Debug {
    /// Stable identifier of this bookie (used in ledger ensembles).
    fn id(&self) -> &str;

    /// Durably stores an entry. `fence_token` must be at least the ledger's
    /// current fence token.
    ///
    /// # Errors
    ///
    /// [`BookieError::Fenced`] if a newer owner fenced the ledger;
    /// [`BookieError::Unavailable`] if the bookie is down.
    fn add_entry(
        &self,
        ledger: LedgerId,
        entry: u64,
        fence_token: u64,
        data: Bytes,
    ) -> Result<(), BookieError>;

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

#[derive(Debug, Default)]
struct LedgerState {
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

#[derive(Debug, Default)]
struct BookieState {
    ledgers: BTreeMap<LedgerId, LedgerState>,
    available: bool,
}

/// An in-memory bookie with a group-committing journal.
#[derive(Debug)]
pub struct MemBookie {
    id: String,
    journal: Journal,
    state: Mutex<BookieState>,
}

impl MemBookie {
    /// Creates a bookie journaling to memory.
    ///
    /// # Errors
    ///
    /// [`BookieError::Io`] if the journal thread cannot be spawned.
    pub fn new(id: &str, config: JournalConfig) -> Result<Self, BookieError> {
        let sink = Box::new(MemSink::new(config.simulated_sync_latency));
        Ok(Self {
            id: id.to_string(),
            journal: Journal::start(sink, config)?,
            state: Mutex::new(
                rank::WAL_BOOKIE,
                BookieState {
                    ledgers: BTreeMap::new(),
                    available: true,
                },
            ),
        })
    }

    /// Failure injection: mark the bookie down (`false`) or back up (`true`).
    pub fn set_available(&self, available: bool) {
        self.state.lock().available = available;
    }

    /// Number of journal syncs performed (used to verify group commit).
    pub fn journal_syncs(&self) -> u64 {
        self.journal.sync_count.get()
    }

    /// Histogram of entries per journal sync (the group-commit batch size).
    pub fn journal_group_sizes(&self) -> std::sync::Arc<pravega_common::metrics::Histogram> {
        self.journal.group_sizes.clone()
    }

    fn check_available(&self) -> Result<(), BookieError> {
        if self.state.lock().available {
            Ok(())
        } else {
            Err(BookieError::Unavailable)
        }
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

impl Bookie for MemBookie {
    fn id(&self) -> &str {
        &self.id
    }

    fn add_entry(
        &self,
        ledger: LedgerId,
        entry: u64,
        fence_token: u64,
        data: Bytes,
    ) -> Result<(), BookieError> {
        self.check_available()?;
        {
            let mut state = self.state.lock();
            let ls = state.ledgers.entry(ledger).or_default();
            if fence_token < ls.fence_token {
                return Err(BookieError::Fenced {
                    presented: fence_token,
                    current: ls.fence_token,
                });
            }
        }
        // Journal first (group commit), then index.
        let journaled = match self
            .journal
            .append(encode_journal_add(ledger, entry, &data))
        {
            Ok(()) => Ok(()),
            // Crash injection between journal write and ack: the record is
            // durable on this bookie, so index it — the caller still sees a
            // failed add, which is exactly the asymmetry a real crash leaves.
            Err(BookieError::AckLost) => Err(BookieError::AckLost),
            Err(e) => return Err(e),
        };
        let mut state = self.state.lock();
        if !state.available {
            return Err(BookieError::Unavailable);
        }
        let ls = state.ledgers.entry(ledger).or_default();
        if fence_token < ls.fence_token {
            // Fenced while we were journaling: reject the (now moot) add.
            return Err(BookieError::Fenced {
                presented: fence_token,
                current: ls.fence_token,
            });
        }
        ls.entries.insert(entry, data);
        journaled
    }

    fn read_entry(&self, ledger: LedgerId, entry: u64) -> Result<Bytes, BookieError> {
        self.check_available()?;
        let state = self.state.lock();
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
        self.check_available()?;
        let state = self.state.lock();
        Ok(state
            .ledgers
            .get(&ledger)
            .and_then(|ls| ls.entries.keys().next_back().copied()))
    }

    fn fence(&self, ledger: LedgerId, token: u64) -> Result<Option<u64>, BookieError> {
        self.check_available()?;
        let mut state = self.state.lock();
        let ls = state.ledgers.entry(ledger).or_default();
        ls.fence_token = ls.fence_token.max(token);
        Ok(ls.entries.keys().next_back().copied())
    }

    fn delete_ledger(&self, ledger: LedgerId) -> Result<(), BookieError> {
        self.check_available()?;
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

#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "`data` is one enveloped entry: a durable-log data frame plus 8 bytes, far \
              below 4 GiB; a slice plus 28 cannot overflow usize"
)]
fn encode_journal_add(ledger: LedgerId, entry: u64, data: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(data.len() + 28);
    buf.put_u8(b'A');
    buf.put_u64(ledger.0);
    buf.put_u64(entry);
    buf.put_u32(data.len() as u32);
    buf.put_u32(crc32c(data));
    buf.put_slice(data);
    buf.freeze()
}

fn encode_journal_delete(ledger: LedgerId) -> Bytes {
    let mut buf = BytesMut::with_capacity(9);
    buf.put_u8(b'D');
    buf.put_u64(ledger.0);
    buf.freeze()
}

/// A file-backed bookie: the journal doubles as the persistent store, and an
/// in-memory index is rebuilt from it on open (crash recovery).
#[derive(Debug)]
pub struct FileBookie {
    id: String,
    journal: Journal,
    state: Mutex<BookieState>,
    journal_path: PathBuf,
}

impl FileBookie {
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
        Ok(Self {
            id: id.to_string(),
            journal: Journal::start(sink, config)?,
            state: Mutex::new(
                rank::WAL_BOOKIE,
                BookieState {
                    ledgers,
                    available: true,
                },
            ),
            journal_path,
        })
    }

    /// Path of the journal file (exposed for tests).
    pub fn journal_path(&self) -> &PathBuf {
        &self.journal_path
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
                    if buf.remaining() < 24 {
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
}

impl Bookie for FileBookie {
    fn id(&self) -> &str {
        &self.id
    }

    fn add_entry(
        &self,
        ledger: LedgerId,
        entry: u64,
        fence_token: u64,
        data: Bytes,
    ) -> Result<(), BookieError> {
        {
            let mut state = self.state.lock();
            if !state.available {
                return Err(BookieError::Unavailable);
            }
            let ls = state.ledgers.entry(ledger).or_default();
            if fence_token < ls.fence_token {
                return Err(BookieError::Fenced {
                    presented: fence_token,
                    current: ls.fence_token,
                });
            }
        }
        let journaled = match self
            .journal
            .append(encode_journal_add(ledger, entry, &data))
        {
            Ok(()) => Ok(()),
            // The journal file holds the record (replay will recover it), so
            // index it now and surface the lost ack to the caller.
            Err(BookieError::AckLost) => Err(BookieError::AckLost),
            Err(e) => return Err(e),
        };
        let mut state = self.state.lock();
        let ls = state.ledgers.entry(ledger).or_default();
        if fence_token < ls.fence_token {
            return Err(BookieError::Fenced {
                presented: fence_token,
                current: ls.fence_token,
            });
        }
        ls.entries.insert(entry, data);
        journaled
    }

    fn read_entry(&self, ledger: LedgerId, entry: u64) -> Result<Bytes, BookieError> {
        let state = self.state.lock();
        if !state.available {
            return Err(BookieError::Unavailable);
        }
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
        if !state.available {
            return Err(BookieError::Unavailable);
        }
        Ok(state
            .ledgers
            .get(&ledger)
            .and_then(|ls| ls.entries.keys().next_back().copied()))
    }

    fn fence(&self, ledger: LedgerId, token: u64) -> Result<Option<u64>, BookieError> {
        let mut state = self.state.lock();
        if !state.available {
            return Err(BookieError::Unavailable);
        }
        let ls = state.ledgers.entry(ledger).or_default();
        ls.fence_token = ls.fence_token.max(token);
        Ok(ls.entries.keys().next_back().copied())
    }

    fn delete_ledger(&self, ledger: LedgerId) -> Result<(), BookieError> {
        self.journal.append(encode_journal_delete(ledger))?;
        if let Some(ls) = self.state.lock().ledgers.get_mut(&ledger) {
            ls.tombstone();
        }
        Ok(())
    }
}

/// Convenience: builds `n` in-memory bookies sharing one journal config.
///
/// # Errors
///
/// [`BookieError::Io`] if a journal thread cannot be spawned.
pub fn mem_bookies(n: usize, config: JournalConfig) -> Result<Vec<Arc<dyn Bookie>>, BookieError> {
    (0..n)
        .map(|i| {
            MemBookie::new(&format!("bookie-{i}"), config.clone())
                .map(|b| Arc::new(b) as Arc<dyn Bookie>)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bookie() -> MemBookie {
        MemBookie::new("b0", JournalConfig::default()).unwrap()
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
        let dir = std::env::temp_dir().join(format!(
            "pravega-rottenbookie-{}-{}",
            std::process::id(),
            rand::random::<u32>()
        ));
        let path = {
            let b = FileBookie::open("fb", &dir, JournalConfig::default()).unwrap();
            b.add_entry(LedgerId(5), 7, 0, Bytes::from_static(b"soon rotten"))
                .unwrap();
            b.journal_path().clone()
        };
        // Flip one bit of the journaled payload (the record tail).
        let mut raw = std::fs::read(&path).unwrap();
        let at = raw.len() - 3;
        raw[at] ^= 0x40;
        std::fs::write(&path, raw).unwrap();
        let err = FileBookie::open("fb", &dir, JournalConfig::default()).unwrap_err();
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
        let dir = std::env::temp_dir().join(format!(
            "pravega-filebookie-{}-{}",
            std::process::id(),
            rand::random::<u32>()
        ));
        {
            let b = FileBookie::open("fb", &dir, JournalConfig::default()).unwrap();
            b.add_entry(LedgerId(1), 0, 0, Bytes::from_static(b"persisted"))
                .unwrap();
            b.add_entry(LedgerId(2), 0, 0, Bytes::from_static(b"doomed"))
                .unwrap();
            b.delete_ledger(LedgerId(2)).unwrap();
        }
        let b = FileBookie::open("fb", &dir, JournalConfig::default()).unwrap();
        assert_eq!(b.read_entry(LedgerId(1), 0).unwrap().as_ref(), b"persisted");
        assert_eq!(b.read_entry(LedgerId(2), 0), Err(BookieError::NoSuchLedger));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_bookie_tolerates_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "pravega-tornbookie-{}-{}",
            std::process::id(),
            rand::random::<u32>()
        ));
        let path = {
            let b = FileBookie::open("fb", &dir, JournalConfig::default()).unwrap();
            b.add_entry(LedgerId(1), 0, 0, Bytes::from_static(b"good"))
                .unwrap();
            b.journal_path().clone()
        };
        // Simulate a torn write: append a partial record header.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[b'A', 0, 0, 1]).unwrap();
        drop(f);
        let b = FileBookie::open("fb", &dir, JournalConfig::default()).unwrap();
        assert_eq!(b.read_entry(LedgerId(1), 0).unwrap().as_ref(), b"good");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

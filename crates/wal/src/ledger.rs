//! Replicated ledgers: append-only logs striped across an ensemble of
//! bookies with quorum acknowledgement (ensemble/writeQuorum/ackQuorum — the
//! 3/3/2 scheme of Table 1).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::{BufMut, Bytes, BytesMut};
use pravega_common::buf::{get_string, get_u64, get_u8};
use pravega_common::future::{promise, Completer, Promise};
use pravega_common::metrics::{Counter, MetricsRegistry};
use pravega_coordination::CoordinationService;
use pravega_sync::{rank, Condvar, Mutex};

use crate::bookie::{decode_entry_envelope, encode_entry_envelope, Ack, Bookie};
use crate::error::{BookieError, WalError};

/// Identifier of a ledger, unique within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LedgerId(pub u64);

impl std::fmt::Display for LedgerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ledger-{}", self.0)
    }
}

/// Replication scheme for a ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Bookies the ledger's entries are spread over.
    pub ensemble: usize,
    /// Bookies each entry is written to.
    pub write_quorum: usize,
    /// Acks required before an entry is confirmed durable.
    pub ack_quorum: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        // Table 1: ensemble=3, writeQuorum=3, ackQuorum=2.
        Self {
            ensemble: 3,
            write_quorum: 3,
            ack_quorum: 2,
        }
    }
}

impl ReplicationConfig {
    /// Validates internal consistency (`ack <= write <= ensemble`, all > 0).
    pub fn validate(&self) -> Result<(), WalError> {
        if self.ack_quorum == 0
            || self.ack_quorum > self.write_quorum
            || self.write_quorum > self.ensemble
        {
            return Err(WalError::Metadata(format!(
                "invalid replication config {self:?}: need 0 < ack <= write <= ensemble"
            )));
        }
        Ok(())
    }
}

/// State of a ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerState {
    /// Accepting appends.
    Open,
    /// Closed; `last_entry` is the final confirmed entry (None = empty).
    Closed {
        /// Highest entry in the ledger, `None` if it closed empty.
        last_entry: Option<u64>,
    },
}

/// Metadata describing a ledger: its ensemble and state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerMetadata {
    /// The ledger's id.
    pub id: LedgerId,
    /// Bookie ids forming the ensemble, in stripe order.
    pub ensemble: Vec<String>,
    /// Replication scheme.
    pub config: ReplicationConfig,
    /// Open/closed state.
    pub state: LedgerState,
}

impl LedgerMetadata {
    fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u64(self.id.0);
        buf.put_u8(self.ensemble.len() as u8);
        for b in &self.ensemble {
            pravega_common::buf::put_string(&mut buf, b);
        }
        buf.put_u8(self.config.ensemble as u8);
        buf.put_u8(self.config.write_quorum as u8);
        buf.put_u8(self.config.ack_quorum as u8);
        match self.state {
            LedgerState::Open => buf.put_u8(0),
            LedgerState::Closed { last_entry } => {
                buf.put_u8(1);
                buf.put_u64(last_entry.map(|e| e + 1).unwrap_or(0));
            }
        }
        buf.to_vec()
    }

    fn decode(data: &[u8]) -> Result<Self, WalError> {
        let mut buf = Bytes::from(data.to_vec());
        let err = |_| WalError::Metadata("corrupt ledger metadata".into());
        let id = LedgerId(get_u64(&mut buf, "ledger id").map_err(err)?);
        let n = get_u8(&mut buf, "ensemble len").map_err(err)? as usize;
        let mut ensemble = Vec::with_capacity(n);
        for _ in 0..n {
            ensemble.push(get_string(&mut buf, "bookie id").map_err(err)?);
        }
        let config = ReplicationConfig {
            ensemble: get_u8(&mut buf, "ensemble").map_err(err)? as usize,
            write_quorum: get_u8(&mut buf, "writeq").map_err(err)? as usize,
            ack_quorum: get_u8(&mut buf, "ackq").map_err(err)? as usize,
        };
        let state = match get_u8(&mut buf, "state").map_err(err)? {
            0 => LedgerState::Open,
            1 => {
                let raw = get_u64(&mut buf, "last entry").map_err(err)?;
                LedgerState::Closed {
                    last_entry: raw.checked_sub(1),
                }
            }
            _ => return Err(WalError::Metadata("unknown ledger state".into())),
        };
        Ok(Self {
            id,
            ensemble,
            config,
            state,
        })
    }

    /// The bookies (by stripe order) responsible for `entry`.
    pub fn stripe_indices(&self, entry: u64) -> Vec<usize> {
        let e = self.ensemble.len();
        (0..self.config.write_quorum)
            .map(|i| ((entry as usize) + i) % e)
            .collect()
    }
}

/// A set of available bookies.
#[derive(Debug, Clone)]
pub struct BookiePool {
    bookies: Vec<Arc<dyn Bookie>>,
    next: Arc<AtomicUsize>,
}

impl BookiePool {
    /// Creates a pool over the given bookies.
    pub fn new(bookies: Vec<Arc<dyn Bookie>>) -> Self {
        Self {
            bookies,
            next: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Number of bookies in the pool.
    pub fn len(&self) -> usize {
        self.bookies.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.bookies.is_empty()
    }

    /// Finds a bookie by id.
    pub fn get(&self, id: &str) -> Option<Arc<dyn Bookie>> {
        self.bookies.iter().find(|b| b.id() == id).cloned()
    }

    /// Picks `n` distinct bookies round-robin.
    ///
    /// # Errors
    ///
    /// [`WalError::NotEnoughBookies`] if fewer than `n` exist.
    pub fn select_ensemble(&self, n: usize) -> Result<Vec<Arc<dyn Bookie>>, WalError> {
        if self.bookies.len() < n {
            return Err(WalError::NotEnoughBookies {
                needed: n,
                available: self.bookies.len(),
            });
        }
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        Ok((0..n)
            .map(|i| self.bookies[(start + i) % self.bookies.len()].clone())
            .collect())
    }
}

struct PendingEntry {
    acks: usize,
    nacks: usize,
    completer: Completer<Result<u64, WalError>>,
}

/// A writer's unanswered work, under `WAL_LEDGER_PENDING`.
#[derive(Default)]
struct Pending {
    /// Entries neither confirmed nor failed, by entry id.
    entries: BTreeMap<u64, PendingEntry>,
    /// Replica adds sent and not yet answered: what `close` drains.
    replica_adds: usize,
}

/// The state a ledger writer shares with its replicas' acks.
pub(crate) struct WriterShared {
    config: ReplicationConfig,
    pending: Mutex<Pending>,
    /// Signalled when `pending.replica_adds` reaches zero.
    drained: Condvar,
    lac: AtomicI64,
    failed: AtomicBool,
    fenced: AtomicBool,
}

impl WriterShared {
    fn failure(&self) -> WalError {
        if self.fenced.load(Ordering::SeqCst) {
            WalError::Fenced
        } else {
            WalError::QuorumLost
        }
    }

    /// One replica's answer for `entry`, run by the bookie that answers
    /// (its journal thread, or the appender for an add refused up front).
    /// A fence — or an entry that can no longer reach its ack quorum —
    /// fails every pending entry; otherwise entries confirm strictly in
    /// order from the head, as in BookKeeper.
    pub(crate) fn on_ack(&self, entry: u64, result: Result<(), BookieError>) {
        let mut pending = self.pending.lock();
        pending.replica_adds = pending.replica_adds.saturating_sub(1);
        let fail_all = match pending.entries.get_mut(&entry) {
            None => false,
            Some(p) => match result {
                Ok(()) => {
                    p.acks += 1;
                    false
                }
                Err(BookieError::Fenced { .. }) => {
                    self.fenced.store(true, Ordering::SeqCst);
                    true
                }
                Err(_) => {
                    p.nacks += 1;
                    p.nacks > self.config.write_quorum - self.config.ack_quorum
                }
            },
        };
        if fail_all || self.failed.load(Ordering::SeqCst) {
            self.failed.store(true, Ordering::SeqCst);
            let error = self.failure();
            for (_, p) in std::mem::take(&mut pending.entries) {
                p.completer.complete(Err(error.clone()));
            }
        }
        while pending
            .entries
            .first_key_value()
            .is_some_and(|(_, p)| p.acks >= self.config.ack_quorum)
        {
            if let Some((entry, p)) = pending.entries.pop_first() {
                self.lac.store(entry as i64, Ordering::SeqCst);
                p.completer.complete(Ok(entry));
            }
        }
        if pending.replica_adds == 0 {
            self.drained.notify_all();
        }
    }
}

/// An open handle for appending to a ledger with quorum replication.
///
/// Appends are pipelined: [`LedgerWriter::append`] returns a [`Promise`]
/// completed once `ack_quorum` bookies confirm the entry *and* every earlier
/// entry is confirmed (entries confirm strictly in order, as in BookKeeper).
/// The writer owns no threads: each entry goes straight to its replicas,
/// whose journal threads run the acknowledgement.
pub struct LedgerWriter {
    metadata: LedgerMetadata,
    fence_token: u64,
    ensemble: Vec<Arc<dyn Bookie>>,
    shared: Arc<WriterShared>,
    sequencer: Mutex<u64>,
}

impl std::fmt::Debug for LedgerWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerWriter")
            .field("ledger", &self.metadata.id)
            .field("lac", &self.last_add_confirmed())
            .finish()
    }
}

impl LedgerWriter {
    fn new(metadata: LedgerMetadata, ensemble: Vec<Arc<dyn Bookie>>, fence_token: u64) -> Self {
        let shared = Arc::new(WriterShared {
            config: metadata.config,
            pending: Mutex::new(rank::WAL_LEDGER_PENDING, Pending::default()),
            drained: Condvar::new(),
            lac: AtomicI64::new(-1),
            failed: AtomicBool::new(false),
            fenced: AtomicBool::new(false),
        });
        Self {
            metadata,
            fence_token,
            ensemble,
            shared,
            sequencer: Mutex::new(rank::WAL_LEDGER_SEQUENCER, 0),
        }
    }

    /// This writer's ledger metadata.
    pub fn metadata(&self) -> &LedgerMetadata {
        &self.metadata
    }

    /// Appends an entry; the promise completes with the entry id once the
    /// entry (and all earlier ones) reach the ack quorum.
    ///
    /// The payload is wrapped once in the stored-entry envelope
    /// ([`encode_entry_envelope`]) before replication, so every replica
    /// holds identical checksummed bytes.
    pub fn append(&self, data: Bytes) -> Promise<Result<u64, WalError>> {
        let data = encode_entry_envelope(&data);
        let (completer, pr) = promise();
        let mut seq = self.sequencer.lock();
        let entry = *seq;
        let stripe = self.metadata.stripe_indices(entry);
        {
            let mut pending = self.shared.pending.lock();
            if self.shared.failed.load(Ordering::SeqCst) {
                return Promise::ready(Err(self.shared.failure()));
            }
            pending.entries.insert(
                entry,
                PendingEntry {
                    acks: 0,
                    nacks: 0,
                    completer,
                },
            );
            pending.replica_adds += stripe.len();
        }
        *seq += 1;
        // Handed over under the sequencer, so every bookie journals this
        // ledger's entries in entry order. No bookie blocks here; one that
        // refuses an add acks it on this thread, and a missing ensemble
        // member drops its ack, which answers `Unavailable`.
        for idx in stripe {
            let ack = Ack::writer(self.shared.clone(), entry);
            if let Some(bookie) = self.ensemble.get(idx) {
                bookie.add_entry_then(self.metadata.id, entry, self.fence_token, data.clone(), ack);
            }
        }
        pr
    }

    /// Highest entry confirmed durable, if any.
    pub fn last_add_confirmed(&self) -> Option<u64> {
        let lac = self.shared.lac.load(Ordering::SeqCst);
        if lac < 0 {
            None
        } else {
            Some(lac as u64)
        }
    }

    /// Whether the writer has been fenced out by a newer owner.
    pub fn is_fenced(&self) -> bool {
        self.shared.fenced.load(Ordering::SeqCst)
    }

    /// Whether the writer has permanently failed (fence or quorum loss).
    pub fn is_failed(&self) -> bool {
        self.shared.failed.load(Ordering::SeqCst)
    }

    /// Drains the writer and returns the last confirmed entry: every
    /// replica add it sent has been answered (stored, refused, or lost with
    /// its bookie) when this returns, so each in-flight append has completed
    /// or failed.
    pub fn close(self) -> Option<u64> {
        self.wait_drained();
        self.last_add_confirmed()
    }

    /// Waits out every replica add in flight; `close` and `Drop` both come
    /// here, so neither may run under a lock.
    fn wait_drained(&self) {
        pravega_sync::blocking("LedgerWriter::wait_drained");
        let mut pending = self.shared.pending.lock();
        while pending.replica_adds > 0 {
            self.shared.drained.wait(&mut pending);
        }
    }
}

impl Drop for LedgerWriter {
    fn drop(&mut self) {
        self.wait_drained();
    }
}

const LEDGER_PREFIX: &str = "/wal/ledgers/";
const LEDGER_COUNTER: &str = "/wal/ledger-counter";

/// What one ledger scrub pass over an ensemble found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerScrubReport {
    /// Entry replicas whose stored bytes were verified.
    pub replicas_checked: u64,
    /// Replicas whose stored bytes failed envelope verification.
    pub corrupt: u64,
    /// Corrupt replicas overwritten with a healthy peer copy.
    pub repaired: u64,
}

/// Creates, recovers, reads and deletes ledgers; metadata lives in the
/// coordination service (as it does in BookKeeper/ZooKeeper).
#[derive(Debug, Clone)]
pub struct LedgerManager {
    coord: CoordinationService,
    pool: BookiePool,
    /// `wal.bookie.entry_corrupt`, shared across clones; unset until
    /// [`LedgerManager::bind_metrics`].
    entry_corrupt: Arc<OnceLock<Arc<Counter>>>,
}

impl LedgerManager {
    /// Creates a manager over a bookie pool.
    pub fn new(coord: &CoordinationService, pool: &BookiePool) -> Self {
        Self {
            coord: coord.clone(),
            pool: pool.clone(),
            entry_corrupt: Arc::new(OnceLock::new()),
        }
    }

    /// Registers the `wal.bookie.entry_corrupt` counter on `registry`,
    /// counting every stored replica that fails envelope verification.
    /// Shared across clones of this manager.
    pub fn bind_metrics(&self, registry: &MetricsRegistry) {
        let _ = self
            .entry_corrupt
            .set(registry.counter("wal.bookie.entry_corrupt"));
    }

    fn note_corrupt(&self) {
        if let Some(c) = self.entry_corrupt.get() {
            c.inc();
        }
    }

    fn next_ledger_id(&self) -> LedgerId {
        loop {
            match self.coord.get(LEDGER_COUNTER) {
                None => {
                    if self
                        .coord
                        .create(
                            LEDGER_COUNTER,
                            1u64.to_be_bytes().to_vec(),
                            pravega_coordination::CreateMode::Persistent,
                        )
                        .is_ok()
                    {
                        return LedgerId(0);
                    }
                }
                Some((data, version)) => {
                    let current = u64::from_be_bytes(data.try_into().unwrap_or([0; 8]));
                    if self
                        .coord
                        .set(
                            LEDGER_COUNTER,
                            (current + 1).to_be_bytes().to_vec(),
                            Some(version),
                        )
                        .is_ok()
                    {
                        return LedgerId(current);
                    }
                }
            }
        }
    }

    fn metadata_path(id: LedgerId) -> String {
        format!("{LEDGER_PREFIX}{:020}", id.0)
    }

    /// Creates a new open ledger and returns a writer presenting
    /// `fence_token` to the bookies.
    ///
    /// # Errors
    ///
    /// [`WalError::NotEnoughBookies`] or invalid replication config.
    pub fn create(
        &self,
        config: ReplicationConfig,
        fence_token: u64,
    ) -> Result<LedgerWriter, WalError> {
        config.validate()?;
        let ensemble = self.pool.select_ensemble(config.ensemble)?;
        let metadata = LedgerMetadata {
            id: self.next_ledger_id(),
            ensemble: ensemble.iter().map(|b| b.id().to_string()).collect(),
            config,
            state: LedgerState::Open,
        };
        self.coord
            .create(
                &Self::metadata_path(metadata.id),
                metadata.encode(),
                pravega_coordination::CreateMode::Persistent,
            )
            .map_err(|e| WalError::Metadata(e.to_string()))?;
        Ok(LedgerWriter::new(metadata, ensemble, fence_token))
    }

    /// Loads ledger metadata.
    ///
    /// # Errors
    ///
    /// [`WalError::Metadata`] if the ledger is unknown or corrupt.
    pub fn metadata(&self, id: LedgerId) -> Result<LedgerMetadata, WalError> {
        let (data, _) = self
            .coord
            .get(&Self::metadata_path(id))
            .ok_or_else(|| WalError::Metadata(format!("unknown ledger {id}")))?;
        LedgerMetadata::decode(&data)
    }

    /// Reads one entry, trying each stripe bookie until one serves bytes
    /// that pass envelope verification; returns the verified payload.
    ///
    /// A replica whose stored bytes fail verification is never trusted:
    /// the read falls back to the next replica, and once a healthy copy is
    /// found its enveloped bytes are re-replicated over every corrupt
    /// replica encountered — so one rotten disk heals instead of rotting
    /// further. Restoring byte-identical acked data is fence-neutral, so
    /// repair presents the maximal token rather than threading the owner's
    /// token through every read path.
    ///
    /// # Errors
    ///
    /// [`WalError::Bookie`] if no replica can serve a verified copy —
    /// [`BookieError::EntryCorrupt`] when at least one replica held rotten
    /// bytes and none held healthy ones.
    pub fn read_entry(&self, metadata: &LedgerMetadata, entry: u64) -> Result<Bytes, WalError> {
        let mut last_err = BookieError::NoSuchEntry;
        let mut corrupt: Vec<Arc<dyn Bookie>> = Vec::new();
        for idx in metadata.stripe_indices(entry) {
            let Some(bookie) = self.pool.get(&metadata.ensemble[idx]) else {
                continue;
            };
            match bookie.read_entry(metadata.id, entry) {
                Ok(stored) => match decode_entry_envelope(&stored) {
                    Some(payload) => {
                        for rotten in corrupt {
                            let _ = rotten.add_entry(metadata.id, entry, u64::MAX, stored.clone());
                        }
                        return Ok(payload);
                    }
                    None => {
                        self.note_corrupt();
                        last_err = BookieError::EntryCorrupt {
                            ledger: metadata.id.0,
                            entry,
                        };
                        corrupt.push(bookie);
                    }
                },
                Err(e) => last_err = e,
            }
        }
        Err(WalError::Bookie(last_err))
    }

    /// Scrubs every stored replica of the ledger's entries: verifies each
    /// replica's envelope and overwrites corrupt copies with a healthy
    /// peer's bytes. Open ledgers are scanned up to the highest entry any
    /// reachable replica reports.
    pub fn scrub_ledger(&self, metadata: &LedgerMetadata) -> LedgerScrubReport {
        let mut report = LedgerScrubReport::default();
        let last = match metadata.state {
            LedgerState::Closed { last_entry } => last_entry,
            LedgerState::Open => {
                let mut last: Option<u64> = None;
                for bid in &metadata.ensemble {
                    if let Some(bookie) = self.pool.get(bid) {
                        if let Ok(Some(e)) = bookie.last_entry(metadata.id) {
                            last = Some(last.map_or(e, |l| l.max(e)));
                        }
                    }
                }
                last
            }
        };
        let Some(last) = last else {
            return report;
        };
        for entry in 0..=last {
            let mut healthy: Option<Bytes> = None;
            let mut corrupt: Vec<Arc<dyn Bookie>> = Vec::new();
            for idx in metadata.stripe_indices(entry) {
                let Some(bookie) = self.pool.get(&metadata.ensemble[idx]) else {
                    continue;
                };
                let Ok(stored) = bookie.read_entry(metadata.id, entry) else {
                    continue; // down or missing: not this scrub's business
                };
                report.replicas_checked += 1;
                if decode_entry_envelope(&stored).is_some() {
                    if healthy.is_none() {
                        healthy = Some(stored);
                    }
                } else {
                    report.corrupt += 1;
                    self.note_corrupt();
                    corrupt.push(bookie);
                }
            }
            if let Some(stored) = healthy {
                for rotten in corrupt {
                    if rotten
                        .add_entry(metadata.id, entry, u64::MAX, stored.clone())
                        .is_ok()
                    {
                        report.repaired += 1;
                    }
                }
            }
        }
        report
    }

    /// Reads all entries of a closed ledger, in order.
    ///
    /// # Errors
    ///
    /// Propagates read failures; [`WalError::Metadata`] if the ledger is
    /// still open (close or recover it first).
    pub fn read_all(&self, metadata: &LedgerMetadata) -> Result<Vec<Bytes>, WalError> {
        let LedgerState::Closed { last_entry } = metadata.state else {
            return Err(WalError::Metadata("cannot read an open ledger".into()));
        };
        let Some(last) = last_entry else {
            return Ok(Vec::new());
        };
        (0..=last).map(|e| self.read_entry(metadata, e)).collect()
    }

    /// Fences the ledger with `fence_token` and closes it at the highest
    /// recoverable entry. Returns the closed metadata.
    ///
    /// A tail entry is included **iff** it can be restored to a full ack
    /// quorum: entries confirm strictly in order, so acked entries form a
    /// prefix, and each readable entry is re-replicated to its stripe
    /// bookies under the recovery token before being accepted. Recovery
    /// refuses to run with fewer reachable ensemble members than can prove
    /// what was acked (`max(ack_quorum, ensemble − ack_quorum + 1)`): with
    /// `r` reachable members an acked entry — present on ≥ `ack_quorum`
    /// replicas — has at least `ack_quorum + r − ensemble ≥ 1` reachable
    /// replicas, so the scan cannot silently cut acked data. Repeated
    /// recoveries agree on the close offset by construction: the first
    /// close wins and later (higher-token) recoveries return it unchanged,
    /// so a sub-quorum tail beyond the close point never resurrects.
    ///
    /// # Errors
    ///
    /// [`WalError::QuorumLost`] when too few ensemble members are reachable
    /// to recover safely (or a readable tail entry cannot be restored to
    /// quorum); [`WalError::Metadata`] on metadata failures.
    pub fn recover_and_close(
        &self,
        id: LedgerId,
        fence_token: u64,
    ) -> Result<LedgerMetadata, WalError> {
        let mut metadata = self.metadata(id)?;
        if let LedgerState::Closed { .. } = metadata.state {
            return Ok(metadata); // already closed: the first close wins
        }
        // Fence every reachable ensemble member and count them.
        let mut reachable = 0usize;
        for bid in &metadata.ensemble {
            if let Some(bookie) = self.pool.get(bid) {
                if bookie.fence(id, fence_token).is_ok() {
                    reachable += 1;
                }
            }
        }
        let config = metadata.config;
        let needed = config
            .ack_quorum
            .max(config.ensemble - config.ack_quorum + 1);
        if reachable < needed {
            return Err(WalError::QuorumLost);
        }
        // Forward scan with re-replication: the first unreadable entry is
        // the end of the recoverable log (acked entries form a prefix).
        let mut last: Option<u64> = None;
        let mut entry = 0u64;
        while let Ok(data) = self.read_entry(&metadata, entry) {
            // Restore the entry to a full ack quorum under the recovery
            // token (the bookies were just fenced with it, so it passes
            // their check; a concurrent higher-token recovery rejects it).
            // `read_entry` returned the verified payload, so re-enveloping
            // here re-replicates known-good bytes — overwriting any replica
            // whose copy had silently rotted.
            let stored = encode_entry_envelope(&data);
            let mut replicas = 0usize;
            for idx in metadata.stripe_indices(entry) {
                let Some(bookie) = self.pool.get(&metadata.ensemble[idx]) else {
                    continue;
                };
                if bookie
                    .add_entry(id, entry, fence_token, stored.clone())
                    .is_ok()
                {
                    replicas += 1;
                }
            }
            if replicas < config.ack_quorum {
                // Readable but not restorable: bookies failed mid-recovery
                // or a newer owner fenced us. Do not close at a guess.
                return Err(WalError::QuorumLost);
            }
            last = Some(entry);
            entry += 1;
        }
        metadata.state = LedgerState::Closed { last_entry: last };
        self.coord.put(&Self::metadata_path(id), metadata.encode());
        Ok(metadata)
    }

    /// Marks an owned, open ledger closed at `last_entry` (graceful close).
    pub fn close(&self, id: LedgerId, last_entry: Option<u64>) -> Result<(), WalError> {
        let mut metadata = self.metadata(id)?;
        metadata.state = LedgerState::Closed { last_entry };
        self.coord.put(&Self::metadata_path(id), metadata.encode());
        Ok(())
    }

    /// Deletes the ledger's data from all bookies and drops its metadata.
    ///
    /// # Errors
    ///
    /// [`WalError::Metadata`] if the ledger is unknown.
    pub fn delete(&self, id: LedgerId) -> Result<(), WalError> {
        let metadata = self.metadata(id)?;
        for bid in &metadata.ensemble {
            if let Some(bookie) = self.pool.get(bid) {
                let _ = bookie.delete_ledger(id);
            }
        }
        let _ = self.coord.delete(&Self::metadata_path(id), None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bookie::{mem_bookies, JournalBookie};
    use crate::journal::JournalConfig;

    fn setup(n: usize) -> (CoordinationService, BookiePool, LedgerManager) {
        let coord = CoordinationService::new();
        let pool = BookiePool::new(mem_bookies(n, JournalConfig::default()).unwrap());
        let mgr = LedgerManager::new(&coord, &pool);
        (coord, pool, mgr)
    }

    /// Runs `f` on a thread and fails, rather than hangs, if it has not
    /// returned within 30 s.
    fn within_30s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let worker = std::thread::spawn(f);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !worker.is_finished() {
            assert!(std::time::Instant::now() < deadline, "{what} hung");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        worker.join().unwrap()
    }

    /// Pins the drain: `close` returns only once every replica add it sent
    /// has been answered, not merely once each entry reached its quorum —
    /// so after it, every replica holds every entry.
    #[test]
    fn close_with_inflight_appends_drains_every_replica_add() {
        let (bookies, mgr) = concrete_setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        let id = writer.metadata().id;
        let pending: Vec<_> = (0..64u64)
            .map(|i| writer.append(Bytes::from(format!("inflight-{i}"))))
            .collect();
        assert_eq!(
            within_30s("LedgerWriter::close", move || writer.close()),
            Some(63)
        );
        for p in pending {
            assert!(matches!(p.wait(), Ok(Ok(_))));
        }
        for b in &bookies {
            assert_eq!(b.entry_ids(id), (0..64).collect::<Vec<_>>());
        }
    }

    /// With adds completed by the journal thread, one ledger's outstanding
    /// appends share a journal sync instead of reaching each bookie one at
    /// a time.
    #[test]
    fn group_commit_engages_on_one_ledger() {
        let config = JournalConfig {
            simulated_sync_latency: std::time::Duration::from_micros(250),
            ..JournalConfig::default()
        };
        let (bookies, mgr) = concrete_setup_with(3, config);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        let entry = Bytes::from(vec![7u8; 8192]);
        let mut window = std::collections::VecDeque::new();
        for _ in 0..1024 {
            if window.len() == 64 {
                assert!(matches!(
                    window.pop_front().map(|p: Promise<_>| p.wait()),
                    Some(Ok(Ok(_)))
                ));
            }
            window.push_back(writer.append(entry.clone()));
        }
        for p in window {
            assert!(matches!(p.wait(), Ok(Ok(_))));
        }
        let (records, groups) = bookies.iter().fold((0, 0), |(r, g), b| {
            let sizes = b.journal_group_sizes();
            (r + sizes.sum(), g + sizes.count())
        });
        let mean = records as f64 / groups as f64;
        assert!(
            mean >= 4.0,
            "mean journal group {mean:.2} over {groups} syncs"
        );
    }

    /// A replica whose journal dies answers its outstanding adds
    /// `Unavailable`; the quorum confirms without it and `close` returns.
    #[test]
    fn close_returns_when_a_replica_journal_stops() {
        let (gate, _, sink) = crate::journal::test_sinks::gated(true);
        let dying =
            JournalBookie::with_sink("b0", sink, JournalConfig::default(), BTreeMap::new(), None)
                .unwrap();
        let mut members: Vec<Arc<dyn Bookie>> = vec![Arc::new(dying)];
        members.extend(mem_bookies(2, JournalConfig::default()).unwrap());
        let pool = BookiePool::new(members);
        let mgr = LedgerManager::new(&CoordinationService::new(), &pool);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        let pending: Vec<_> = (0..64u64)
            .map(|i| writer.append(Bytes::from(format!("e{i}"))))
            .collect();
        let closer = std::thread::spawn(move || writer.close());
        drop(gate);
        assert_eq!(
            within_30s("LedgerWriter::close", move || closer.join().unwrap()),
            Some(63)
        );
        for p in pending {
            assert!(matches!(p.wait(), Ok(Ok(_))));
        }
    }

    #[test]
    fn append_confirms_in_order_and_reads_back() {
        let (_c, _p, mgr) = setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        let promises: Vec<_> = (0..50u64)
            .map(|i| writer.append(Bytes::from(format!("entry-{i}"))))
            .collect();
        for (i, p) in promises.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap().unwrap(), i as u64);
        }
        assert_eq!(writer.last_add_confirmed(), Some(49));
        let meta = writer.metadata().clone();
        let id = meta.id;
        let last = writer.close();
        mgr.close(id, last).unwrap();
        let closed = mgr.metadata(id).unwrap();
        let entries = mgr.read_all(&closed).unwrap();
        assert_eq!(entries.len(), 50);
        assert_eq!(entries[7].as_ref(), b"entry-7");
    }

    #[test]
    fn survives_one_bookie_failure_with_ack_quorum_two() {
        let (bookies, mgr) = concrete_setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        writer
            .append(Bytes::from_static(b"before"))
            .wait()
            .unwrap()
            .unwrap();
        // Take one bookie down: ack quorum 2/3 still reachable.
        bookies[2].set_available(false);
        let r = writer.append(Bytes::from_static(b"after")).wait().unwrap();
        assert_eq!(r.unwrap(), 1);
    }

    #[test]
    fn loses_quorum_with_two_failures() {
        let (bookies, mgr) = concrete_setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        bookies[1].set_available(false);
        bookies[2].set_available(false);
        let r = writer.append(Bytes::from_static(b"x")).wait().unwrap();
        assert_eq!(r, Err(WalError::QuorumLost));
        assert!(writer.is_failed());
        // Subsequent appends fail fast.
        assert!(writer
            .append(Bytes::from_static(b"y"))
            .wait()
            .unwrap()
            .is_err());
    }

    #[test]
    fn recovery_fences_old_writer() {
        let (_c, _p, mgr) = setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        writer
            .append(Bytes::from_static(b"a"))
            .wait()
            .unwrap()
            .unwrap();
        writer
            .append(Bytes::from_static(b"b"))
            .wait()
            .unwrap()
            .unwrap();
        let id = writer.metadata().id;

        // A new owner fences and recovers with a higher token.
        let closed = mgr.recover_and_close(id, 2).unwrap();
        assert_eq!(
            closed.state,
            LedgerState::Closed {
                last_entry: Some(1)
            }
        );

        // The zombie writer is now rejected.
        let r = writer.append(Bytes::from_static(b"zombie")).wait().unwrap();
        assert_eq!(r, Err(WalError::Fenced));
        assert!(writer.is_fenced());

        // Recovered data is intact.
        let entries = mgr.read_all(&closed).unwrap();
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn recover_empty_ledger_closes_empty() {
        let (_c, _p, mgr) = setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        let id = writer.metadata().id;
        drop(writer);
        let closed = mgr.recover_and_close(id, 2).unwrap();
        assert_eq!(closed.state, LedgerState::Closed { last_entry: None });
        assert!(mgr.read_all(&closed).unwrap().is_empty());
    }

    #[test]
    fn recover_is_idempotent() {
        let (_c, _p, mgr) = setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        writer
            .append(Bytes::from_static(b"x"))
            .wait()
            .unwrap()
            .unwrap();
        let id = writer.metadata().id;
        let first = mgr.recover_and_close(id, 2).unwrap();
        let second = mgr.recover_and_close(id, 3).unwrap();
        assert_eq!(first.state, second.state);
    }

    #[test]
    fn delete_removes_data_and_metadata() {
        let (_c, pool, mgr) = setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        writer
            .append(Bytes::from_static(b"x"))
            .wait()
            .unwrap()
            .unwrap();
        let meta = writer.metadata().clone();
        let id = meta.id;
        drop(writer);
        mgr.delete(id).unwrap();
        assert!(mgr.metadata(id).is_err());
        let bookie = pool.get(&meta.ensemble[0]).unwrap();
        assert_eq!(bookie.read_entry(id, 0), Err(BookieError::NoSuchLedger));
    }

    #[test]
    fn not_enough_bookies_is_an_error() {
        let (_c, _p, mgr) = setup(2);
        let err = mgr.create(ReplicationConfig::default(), 1).unwrap_err();
        assert_eq!(
            err,
            WalError::NotEnoughBookies {
                needed: 3,
                available: 2
            }
        );
    }

    #[test]
    fn invalid_replication_config_rejected() {
        let (_c, _p, mgr) = setup(3);
        let bad = ReplicationConfig {
            ensemble: 3,
            write_quorum: 2,
            ack_quorum: 3,
        };
        assert!(mgr.create(bad, 1).is_err());
    }

    #[test]
    fn metadata_roundtrip() {
        let meta = LedgerMetadata {
            id: LedgerId(42),
            ensemble: vec!["a".into(), "b".into(), "c".into()],
            config: ReplicationConfig::default(),
            state: LedgerState::Closed {
                last_entry: Some(17),
            },
        };
        assert_eq!(LedgerMetadata::decode(&meta.encode()).unwrap(), meta);
        let open = LedgerMetadata {
            state: LedgerState::Open,
            ..meta.clone()
        };
        assert_eq!(LedgerMetadata::decode(&open.encode()).unwrap(), open);
        let empty = LedgerMetadata {
            state: LedgerState::Closed { last_entry: None },
            ..meta
        };
        assert_eq!(LedgerMetadata::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn striping_spreads_entries_when_ensemble_exceeds_write_quorum() {
        let meta = LedgerMetadata {
            id: LedgerId(0),
            ensemble: vec!["a".into(), "b".into(), "c".into()],
            config: ReplicationConfig {
                ensemble: 3,
                write_quorum: 2,
                ack_quorum: 2,
            },
            state: LedgerState::Open,
        };
        assert_eq!(meta.stripe_indices(0), vec![0, 1]);
        assert_eq!(meta.stripe_indices(1), vec![1, 2]);
        assert_eq!(meta.stripe_indices(2), vec![2, 0]);
    }

    fn concrete_setup_with(
        n: usize,
        config: JournalConfig,
    ) -> (Vec<Arc<JournalBookie>>, LedgerManager) {
        let bookies: Vec<Arc<JournalBookie>> = (0..n)
            .map(|i| Arc::new(JournalBookie::new(&format!("b{i}"), config.clone()).unwrap()))
            .collect();
        let pool = BookiePool::new(
            bookies
                .iter()
                .map(|b| b.clone() as Arc<dyn Bookie>)
                .collect(),
        );
        let coord = CoordinationService::new();
        let mgr = LedgerManager::new(&coord, &pool);
        (bookies, mgr)
    }

    fn concrete_setup(n: usize) -> (Vec<Arc<JournalBookie>>, LedgerManager) {
        concrete_setup_with(n, JournalConfig::default())
    }

    #[test]
    fn read_falls_back_and_repairs_a_corrupt_replica() {
        let (bookies, mgr) = concrete_setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        writer
            .append(Bytes::from_static(b"precious"))
            .wait()
            .unwrap()
            .unwrap();
        let meta = writer.metadata().clone();
        let id = meta.id;
        drop(writer);
        // Silently rot the first stripe replica's copy (offset 9 lands in
        // the enveloped payload).
        assert!(bookies[0].flip_entry_bit(id, 0, 9, 0x01));
        assert_ne!(bookies[0].raw_entry(id, 0), bookies[1].raw_entry(id, 0));
        // The read never surfaces rotten bytes — and it heals the replica.
        assert_eq!(mgr.read_entry(&meta, 0).unwrap().as_ref(), b"precious");
        assert_eq!(bookies[0].raw_entry(id, 0), bookies[1].raw_entry(id, 0));
    }

    #[test]
    fn unrepairable_corruption_is_a_typed_error_not_garbage() {
        use pravega_common::retry::RetryClass;
        let (bookies, mgr) = concrete_setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        writer
            .append(Bytes::from_static(b"doomed"))
            .wait()
            .unwrap()
            .unwrap();
        let meta = writer.metadata().clone();
        let id = meta.id;
        drop(writer);
        for b in &bookies {
            assert!(b.flip_entry_bit(id, 0, 3, 0x80));
        }
        let err = mgr.read_entry(&meta, 0).unwrap_err();
        assert_eq!(
            err,
            WalError::Bookie(BookieError::EntryCorrupt {
                ledger: id.0,
                entry: 0
            })
        );
        assert!(!err.is_transient(), "corruption must not be retried");
    }

    #[test]
    fn scrub_ledger_detects_and_repairs_rotten_replicas() {
        let (bookies, mgr) = concrete_setup(3);
        let registry = MetricsRegistry::new();
        mgr.bind_metrics(&registry);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        for i in 0..5u64 {
            writer
                .append(Bytes::from(format!("entry-{i}")))
                .wait()
                .unwrap()
                .unwrap();
        }
        let id = writer.metadata().id;
        let last = writer.close();
        mgr.close(id, last).unwrap();
        let meta = mgr.metadata(id).unwrap();
        assert!(bookies[1].flip_entry_bit(id, 2, 10, 0x20));
        assert!(bookies[2].truncate_entry_tail(id, 4, 3));
        let report = mgr.scrub_ledger(&meta);
        assert_eq!(report.replicas_checked, 15);
        assert_eq!(report.corrupt, 2);
        assert_eq!(report.repaired, 2);
        assert_eq!(registry.counter("wal.bookie.entry_corrupt").get(), 2);
        // Every replica verifies now: a second pass is clean and reads are
        // byte-identical to what was acked.
        assert_eq!(mgr.scrub_ledger(&meta).corrupt, 0);
        assert_eq!(mgr.read_all(&meta).unwrap()[2].as_ref(), b"entry-2");
        assert_eq!(mgr.read_all(&meta).unwrap()[4].as_ref(), b"entry-4");
    }

    #[test]
    fn recovery_re_replicates_verified_bytes_over_rot() {
        let (bookies, mgr) = concrete_setup(3);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();
        writer
            .append(Bytes::from_static(b"a"))
            .wait()
            .unwrap()
            .unwrap();
        let id = writer.metadata().id;
        // The append confirmed at the 2-of-3 quorum; wait for the straggler
        // replica so the flip below has stored bytes to rot.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while bookies[0].raw_entry(id, 0).is_none() {
            assert!(std::time::Instant::now() < deadline, "replica never stored");
            std::thread::yield_now();
        }
        assert!(bookies[0].flip_entry_bit(id, 0, 8, 0x01));
        let closed = mgr.recover_and_close(id, 2).unwrap();
        assert_eq!(
            closed.state,
            LedgerState::Closed {
                last_entry: Some(0)
            }
        );
        assert_eq!(bookies[0].raw_entry(id, 0), bookies[1].raw_entry(id, 0));
        assert_eq!(mgr.read_all(&closed).unwrap()[0].as_ref(), b"a");
    }

    #[test]
    fn striped_writes_read_back() {
        let (_c, _p, mgr) = setup(3);
        let cfg = ReplicationConfig {
            ensemble: 3,
            write_quorum: 2,
            ack_quorum: 2,
        };
        let writer = mgr.create(cfg, 1).unwrap();
        for i in 0..9u64 {
            writer
                .append(Bytes::from(format!("s{i}")))
                .wait()
                .unwrap()
                .unwrap();
        }
        let id = writer.metadata().id;
        let last = writer.close();
        mgr.close(id, last).unwrap();
        let meta = mgr.metadata(id).unwrap();
        let all = mgr.read_all(&meta).unwrap();
        assert_eq!(all.len(), 9);
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.as_ref(), format!("s{i}").as_bytes());
        }
    }
}

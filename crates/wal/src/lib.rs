#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
//! A BookKeeper stand-in: the replicated write-ahead log Pravega uses for
//! durability and low-latency appends (§2.2, §4.1).
//!
//! The pieces, bottom-up:
//!
//! - [`journal`] — each bookie journals appends with **group commit**: many
//!   concurrent appends are persisted with a single device sync. This is the
//!   *third* level of batching in Pravega's write path (client append blocks,
//!   container data frames, bookie journal). The journal thread also
//!   completes each add after its group's sync, so an add never waits on a
//!   thread of its own and one ledger's adds group as freely as many
//!   ledgers'.
//! - [`bookie`] — the storage server: stores ledger entries, enforces
//!   **fencing** (an epoch token that lets a new ledger owner lock out a
//!   zombie writer, the mechanism behind §4.4's exclusive WAL access).
//! - [`ledger`] — replicated append-only logs: entries are striped across an
//!   ensemble of bookies, acknowledged once `ack_quorum` bookies confirm,
//!   and recovered by fencing + forward scan. A writer owns no threads: it
//!   hands each entry straight to its replicas, and their journal threads
//!   run its in-order acknowledgement.
//! - [`log`] — the [`log::DurableDataLog`] abstraction the
//!   segment container writes to: a sequence of rolling ledgers with
//!   truncation (deleting whole ledgers once their data reaches LTS).
//!
//! # Example
//!
//! ```
//! use pravega_wal::bookie::JournalBookie;
//! use pravega_wal::journal::JournalConfig;
//! use pravega_wal::ledger::{BookiePool, ReplicationConfig};
//! use pravega_wal::log::{BookkeeperLog, DurableDataLog, LogConfig};
//! use pravega_coordination::CoordinationService;
//! use bytes::Bytes;
//! use std::sync::Arc;
//!
//! let pool = BookiePool::new(
//!     (0..3).map(|i| Arc::new(JournalBookie::new(&format!("bookie-{i}"), JournalConfig::default()).unwrap()) as _).collect(),
//! );
//! let coord = CoordinationService::new();
//! let log = BookkeeperLog::open("container-0", &pool, &coord, LogConfig::default()).unwrap();
//! let addr = log.append(Bytes::from_static(b"frame")).wait().unwrap();
//! let read = log.read_after(None).unwrap();
//! assert_eq!(read, vec![(addr, Bytes::from_static(b"frame"))]);
//! ```

pub mod bookie;
pub mod error;
pub mod journal;
pub mod ledger;
pub mod log;

pub use bookie::{decode_entry_envelope, encode_entry_envelope, Ack, Bookie, JournalBookie};
pub use error::{BookieError, WalError};
pub use journal::JournalConfig;
pub use ledger::{BookiePool, LedgerId, LedgerManager, LedgerScrubReport, ReplicationConfig};
pub use log::{BookkeeperLog, DurableDataLog, InMemoryLog, LogAddress, LogConfig};

//! Error types for the WAL substrate.

use std::fmt;

use pravega_common::retry::{ErrorClass, RetryClass};

/// Errors produced by a single bookie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BookieError {
    /// The caller's fence token is older than the ledger's current token:
    /// a newer owner has fenced this ledger (§4.4).
    Fenced {
        /// Token presented by the caller.
        presented: u64,
        /// Token currently required.
        current: u64,
    },
    /// The ledger does not exist on this bookie.
    NoSuchLedger,
    /// The entry does not exist in the ledger.
    NoSuchEntry,
    /// The bookie is unavailable (crashed / partitioned — failure injection).
    Unavailable,
    /// The record was durably journaled, but the bookie crashed before the
    /// acknowledgement left the process (crash injection between journal
    /// write and ack). The caller must treat this as a failed add even
    /// though the entry survives on this bookie.
    AckLost,
    /// A stored entry failed checksum verification: the bytes on this
    /// bookie differ from what was acknowledged (silent corruption). Unlike
    /// [`BookieError::Unavailable`], retrying the same replica cannot help —
    /// the rot is in the data, not the path to it. The quorum layer falls
    /// back to another replica and re-replicates a healthy copy.
    EntryCorrupt {
        /// Ledger holding the corrupt entry.
        ledger: u64,
        /// Entry id within the ledger.
        entry: u64,
    },
    /// Underlying storage failure.
    Io(String),
}

impl fmt::Display for BookieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BookieError::Fenced { presented, current } => {
                write!(f, "fenced: presented token {presented} < current {current}")
            }
            BookieError::NoSuchLedger => write!(f, "no such ledger"),
            BookieError::NoSuchEntry => write!(f, "no such entry"),
            BookieError::Unavailable => write!(f, "bookie unavailable"),
            BookieError::AckLost => {
                write!(f, "record journaled but the acknowledgement was lost")
            }
            BookieError::EntryCorrupt { ledger, entry } => {
                write!(
                    f,
                    "entry corrupt: ledger {ledger} entry {entry} failed checksum verification"
                )
            }
            BookieError::Io(msg) => write!(f, "bookie io error: {msg}"),
        }
    }
}

impl std::error::Error for BookieError {}

impl RetryClass for BookieError {
    /// Transient: the bookie being down or an I/O hiccup. Fencing, missing
    /// ledgers/entries and corruption are logical outcomes a retry cannot
    /// change — re-reading a rotten entry cannot un-rot it.
    fn error_class(&self) -> ErrorClass {
        match self {
            BookieError::Unavailable | BookieError::AckLost | BookieError::Io(_) => {
                ErrorClass::Transient
            }
            BookieError::Fenced { .. }
            | BookieError::NoSuchLedger
            | BookieError::NoSuchEntry
            | BookieError::EntryCorrupt { .. } => ErrorClass::Permanent,
        }
    }
}

/// Errors produced by the replicated log layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Not enough bookies to form the requested ensemble.
    NotEnoughBookies {
        /// Bookies required.
        needed: usize,
        /// Bookies available.
        available: usize,
    },
    /// An append could not reach its ack quorum.
    QuorumLost,
    /// The log/ledger was fenced by a newer owner; this handle is dead.
    Fenced,
    /// The log handle was closed.
    Closed,
    /// Ledger metadata is missing or corrupt.
    Metadata(String),
    /// Underlying bookie failure.
    Bookie(BookieError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::NotEnoughBookies { needed, available } => {
                write!(f, "not enough bookies: need {needed}, have {available}")
            }
            WalError::QuorumLost => write!(f, "append lost its ack quorum"),
            WalError::Fenced => write!(f, "log fenced by a newer owner"),
            WalError::Closed => write!(f, "log closed"),
            WalError::Metadata(msg) => write!(f, "ledger metadata error: {msg}"),
            WalError::Bookie(e) => write!(f, "bookie error: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Bookie(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BookieError> for WalError {
    fn from(e: BookieError) -> Self {
        WalError::Bookie(e)
    }
}

impl RetryClass for WalError {
    /// Transient: quorum shortfalls (bookies may come back) and transient
    /// bookie failures. Fencing and closure are terminal for this handle.
    fn error_class(&self) -> ErrorClass {
        match self {
            WalError::NotEnoughBookies { .. } | WalError::QuorumLost => ErrorClass::Transient,
            WalError::Bookie(e) => e.error_class(),
            WalError::Fenced | WalError::Closed | WalError::Metadata(_) => ErrorClass::Permanent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = BookieError::Fenced {
            presented: 1,
            current: 2,
        };
        assert!(e.to_string().contains("fenced"));
        let w: WalError = e.into();
        assert!(w.to_string().contains("bookie error"));
        assert!(std::error::Error::source(&w).is_some());
    }

    #[test]
    fn classification_splits_transient_from_permanent() {
        assert!(BookieError::Unavailable.is_transient());
        assert!(BookieError::Io("disk".into()).is_transient());
        assert!(!BookieError::NoSuchEntry.is_transient());
        assert!(!BookieError::EntryCorrupt {
            ledger: 1,
            entry: 2
        }
        .is_transient());
        assert!(WalError::QuorumLost.is_transient());
        assert!(WalError::Bookie(BookieError::Unavailable).is_transient());
        assert!(!WalError::Fenced.is_transient());
        assert!(!WalError::Closed.is_transient());
        assert!(!WalError::Bookie(BookieError::Fenced {
            presented: 1,
            current: 2
        })
        .is_transient());
    }
}

#![deny(unsafe_code)]
#![warn(missing_docs)]
//! A ZooKeeper stand-in: the coordination substrate Pravega uses for cluster
//! management (§2.2).
//!
//! What the cluster needs from ZooKeeper, and what this crate provides
//! in-process:
//!
//! 1. a small, consistent, *versioned* key-value store (compare-and-set) for
//!    cluster metadata such as the segment-container→host assignment and the
//!    WAL's log and ledger metadata;
//! 2. sessions with ephemeral nodes for membership and failure detection.
//!
//! Versioned writes are linearizable (a single lock guards the tree), and
//! sessions can be expired explicitly for failure-injection tests.
//!
//! # Example
//!
//! ```
//! use pravega_coordination::{CoordinationService, CreateMode};
//!
//! let coord = CoordinationService::new();
//! let session = coord.create_session();
//! coord
//!     .create("/cluster/hosts/a", b"host-a".to_vec(), CreateMode::Ephemeral(session.id()))
//!     .unwrap();
//! assert!(coord.exists("/cluster/hosts/a"));
//! coord.expire_session(session.id());
//! assert!(!coord.exists("/cluster/hosts/a"));
//! ```

mod assignment;
mod store;

pub use assignment::{compute_assignment, ContainerAssigner, ASSIGNMENT_PATH, HOSTS_PREFIX};
pub use store::{CoordError, CoordinationService, CreateMode, Session, SessionId};

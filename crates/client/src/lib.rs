#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
//! The Pravega client library (§2.1, §3): event writers, event readers,
//! reader groups and the state synchronizer.
//!
//! - [`writer::EventStreamWriter`] appends events with a routing key.
//!   Batching is **dynamic**: the append-block size tracks
//!   `min(max_batch, rate · RTT/2)` (§4.1) so users never choose between a
//!   latency-oriented and a throughput-oriented configuration (§5.3). The
//!   writer id + event-number protocol gives exactly-once semantics across
//!   reconnections (§3.2), and sealed segments are handled by re-routing
//!   pending events to their successors, preserving per-key order.
//! - [`reader::EventStreamReader`] reads events exactly once within a
//!   [`readergroup::ReaderGroup`]: segment-to-reader assignment is agreed
//!   through the [`statesync::StateSynchronizer`] (optimistic concurrency on
//!   a segment), successors are only eligible once **all** their
//!   predecessors are fully consumed (the scale-down hold of §3.3).
//! - [`serializer::Serializer`] maps applications' typed events to bytes;
//!   Pravega itself never tracks event boundaries — the client frames them.
//! - [`transaction::Transaction`] buffers events and commits them atomically
//!   per segment (the buffered-commit variant of Pravega transactions).

pub mod connection;
pub mod error;
pub mod reader;
pub mod readergroup;
pub mod serializer;
pub mod statesync;
pub mod transaction;
pub mod writer;

pub use connection::ConnectionFactory;
pub use error::ClientError;
pub use reader::{EventRead, EventStreamReader};
pub use readergroup::ReaderGroup;
pub use serializer::{BytesSerializer, Serializer, StringSerializer};
pub use statesync::StateSynchronizer;
pub use transaction::{Transaction, TransactionStatus};
pub use writer::{EventStreamWriter, WriterConfig};

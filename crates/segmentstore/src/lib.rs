#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
//! The Pravega data plane: segment stores and segment containers (§2.2, §4).
//!
//! A **segment store** hosts **segment containers**; a segment maps to one
//! container for life via a stateless hash. The container does the heavy
//! lifting:
//!
//! - every modifying request becomes an [`operations::Operation`] queued into
//!   the container's durable log, which aggregates operations
//!   from *all* the container's segments into data frames written to a single
//!   WAL log (**segment multiplexing**, the paper's answer to challenge c3);
//! - the [`dataframe::DataFrameBuilder`] sizes frames adaptively using the
//!   paper's delay formula `Delay = RecentLatency · (1 − AvgWriteSize/MaxFrameSize)`;
//! - acknowledged operations are applied to the in-memory state: the
//!   [`readindex::ReadIndex`] (backed by the Figure-4 [`cache::BlockCache`])
//!   serves reads without callers knowing whether data lives in cache, WAL
//!   or LTS;
//! - the storage writer de-multiplexes operations by
//!   segment, flushes them to LTS in large writes, then truncates the WAL —
//!   and throttles ingestion when LTS cannot keep up (§4.3);
//! - `(writer id, event number)` **segment attributes** deduplicate appends
//!   for exactly-once semantics (§3.2);
//! - [`tablesegment`] builds the key-value API on top of segments that
//!   Pravega uses to store its own metadata;
//! - recovery replays the WAL from the last **metadata checkpoint** (§4.4),
//!   and WAL fencing guarantees exclusive container ownership.

pub mod cache;
pub mod container;
pub mod dataframe;
pub mod error;
pub mod frontend;
pub mod metadata;
pub mod operations;
pub mod readindex;
pub mod store;
pub mod tablesegment;

pub use cache::{BlockCache, CacheAddress, CacheConfig};
pub use container::{ContainerConfig, SegmentContainer};
pub use error::SegmentError;
pub use frontend::TcpFrontend;
pub use metadata::SegmentInfoSnapshot;
pub use store::{SegmentStore, SegmentStoreConfig};

mod durablelog;
mod processor;
mod readpath;
mod recovery;
mod state;
mod storagewriter;
mod throttle;

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
//! Long-Term Storage (LTS): the scale-out tier historical stream data lives
//! in (§2.2, §4.3).
//!
//! Pravega stores *chunks* in LTS — contiguous ranges of segment bytes — and
//! a segment is a sequence of non-overlapping chunks. Chunks carry no
//! metadata themselves; chunk metadata lives in a key-value store updated
//! with conditional writes so concurrent operations can never leave it
//! inconsistent (§4.3).
//!
//! Backends provided:
//!
//! - [`InMemoryChunkStorage`] — unit tests;
//! - [`FileChunkStorage`] — one file per chunk on a local filesystem (the
//!   NFS-like deployment of the paper's experiments);
//! - [`ThrottledChunkStorage`] — wraps any backend with a bandwidth/latency
//!   model, standing in for AWS EFS/S3 (the paper measured ≈160 MB/s);
//! - [`NoOpChunkStorage`] — persists metadata but discards data, reproducing
//!   the paper's "NoOp LTS" test feature used in §5.4 to show the LTS
//!   bottleneck.
//!
//! # Example
//!
//! ```
//! use pravega_lts::{ChunkedSegmentStorage, ChunkedStorageConfig, InMemoryChunkStorage,
//!                   InMemoryMetadataStore};
//! use std::sync::Arc;
//!
//! let storage = ChunkedSegmentStorage::new(
//!     Arc::new(InMemoryChunkStorage::new()),
//!     Arc::new(InMemoryMetadataStore::new()),
//!     ChunkedStorageConfig { max_chunk_bytes: 16 },
//! );
//! storage.create("scope/stream/0")?;
//! storage.write("scope/stream/0", 0, b"hello world, this rolls chunks")?;
//! let data = storage.read("scope/stream/0", 6, 5)?;
//! assert_eq!(data.as_ref(), b"world");
//! # Ok::<(), pravega_lts::LtsError>(())
//! ```

pub mod chunk;
pub mod error;
pub mod format;
pub mod metadata;
pub mod scrub;
pub mod segment;

pub use chunk::{
    ChunkStorage, FileChunkStorage, InMemoryChunkStorage, NoOpChunkStorage, ThrottleModel,
    ThrottledChunkStorage,
};
pub use error::LtsError;
pub use metadata::{InMemoryMetadataStore, MetadataStore, MetadataUpdate};
pub use scrub::{RepairSource, ScrubConfig, ScrubReport, Scrubber, ScrubberHandle};
pub use segment::{ChunkedSegmentStorage, ChunkedStorageConfig, SegmentStorageInfo};

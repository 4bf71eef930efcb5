#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::undocumented_unsafe_blocks)]
//! Shared foundation types for the Pravega reproduction.
//!
//! This crate contains the vocabulary that every other crate in the workspace
//! speaks: stream/segment identifiers, routing-key hashing, key-space ranges,
//! stream policies, a pluggable clock, rate estimators, metrics, and the wire
//! protocol spoken between clients and segment stores.
//!
//! # Example
//!
//! ```
//! use pravega_common::id::{ScopedStream, SegmentId};
//! use pravega_common::keyspace::KeyRange;
//! use pravega_common::hashing::routing_key_position;
//!
//! let stream = ScopedStream::new("iot", "sensors").unwrap();
//! let segment = SegmentId::new(0, 3);
//! assert_eq!(segment.number(), 3);
//! let range = KeyRange::new(0.5, 1.0).unwrap();
//! let pos = routing_key_position("device-42");
//! assert!((0.0..1.0).contains(&pos));
//! let _ = (stream, range, pos);
//! ```

pub mod buf;
pub mod clock;
pub mod crashpoints;
mod crc32c;
pub mod future;
pub mod hashing;
pub mod id;
pub mod keyspace;
pub mod metrics;
pub mod policy;
pub mod protocol;
pub mod rate;
pub mod retry;
pub mod stall;
pub mod tcp;
pub mod wire;

pub use clock::{Clock, ManualClock, SystemClock, Timestamp};
pub use id::{ContainerId, ScopedSegment, ScopedStream, SegmentId, WriterId};
pub use keyspace::KeyRange;
pub use policy::{RetentionPolicy, ScalingPolicy, StreamConfiguration};

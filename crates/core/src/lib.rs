#![deny(unsafe_code)]
#![warn(missing_docs)]
//! The embedded Pravega cluster: wires the coordination service, bookies
//! (WAL), long-term storage, segment stores, controller, auto-scaler and
//! retention manager into one in-process system matching Figure 1 of the
//! paper.
//!
//! # Quickstart
//!
//! ```
//! use pravega_core::{ClusterConfig, PravegaCluster};
//! use pravega_client::{StringSerializer, WriterConfig};
//! use pravega_common::id::ScopedStream;
//! use pravega_common::policy::{ScalingPolicy, StreamConfiguration};
//! use std::time::Duration;
//!
//! let cluster = PravegaCluster::start(ClusterConfig::default()).unwrap();
//! let stream = ScopedStream::new("demo", "events").unwrap();
//! cluster.create_scope("demo").unwrap();
//! cluster
//!     .create_stream(&stream, StreamConfiguration::new(ScalingPolicy::fixed(2)))
//!     .unwrap();
//!
//! let mut writer = cluster.create_writer(
//!     stream.clone(),
//!     StringSerializer,
//!     WriterConfig::default(),
//! );
//! writer.write_event("device-1", &"hello".to_string());
//! writer.flush().unwrap();
//!
//! let group = cluster
//!     .create_reader_group("demo", "g1", vec![stream])
//!     .unwrap();
//! let mut reader = cluster.create_reader(&group, "r1", StringSerializer);
//! let event = reader.read_next(Duration::from_secs(5)).unwrap().unwrap();
//! assert_eq!(event.event, "hello");
//! cluster.shutdown();
//! ```

pub mod cluster;
pub mod error;
pub mod tablebackend;
mod wiring;

pub use cluster::{ClusterConfig, ClusterMetrics, LtsKind, PravegaCluster, TransportKind};
pub use error::ClusterError;
pub use tablebackend::TableMetadataBackend;

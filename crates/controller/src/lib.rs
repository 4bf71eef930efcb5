#![deny(unsafe_code)]
#![warn(missing_docs)]
//! The Pravega control plane (§2.2): stream lifecycle, segment-record
//! metadata (epochs, successors/predecessors), the scale workflow, stream
//! policies — auto-scaling (§3.1) and retention — and endpoint resolution
//! for clients.
//!
//! The controller is deliberately separated from the data plane: segment
//! stores know nothing about streams. The controller maintains the mapping
//! from a stream's routing-key space to its open segments, orchestrates
//! scale-up/down (seal predecessors → create successors → commit a new
//! epoch), and closes the feedback loop by consuming per-segment load
//! reports from the data plane to drive the auto-scaler.

pub mod autoscaler;
pub mod backend;
pub mod error;
pub mod records;
pub mod retention;
pub mod service;

pub use autoscaler::{AutoScaler, AutoScalerConfig, ScaleDecision, SegmentLoadSample};
pub use backend::{InMemoryMetadataBackend, MetadataBackend};
pub use error::ControllerError;
pub use records::{EpochRecord, StreamMetadata, StreamSegmentRecord, StreamState};
pub use retention::RetentionManager;
pub use service::{ControllerService, EndpointResolver, SegmentManager, SegmentWithRange};

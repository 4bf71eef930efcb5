//! Facade crate re-exporting the full Pravega reproduction workspace.
//!
//! See the individual crates for detail:
//! - [`pravega_core`] — embedded cluster and client factory (start here)
//! - [`pravega_client`] — event writers, reader groups, state synchronizer
//! - [`pravega_controller`] — control plane: streams, scaling, retention
//! - [`pravega_segmentstore`] — data plane: segment containers, cache, tiering
//! - [`pravega_wal`] — BookKeeper-like replicated write-ahead log
//! - [`pravega_lts`] — long-term storage backends and chunk management
//! - [`pravega_faults`] — deterministic fault injection for chaos testing
//! - [`pravega_coordination`] — ZooKeeper-like coordination service
//! - `pravega_sim` — discrete-event simulator used by the benchmark harness

#![deny(unsafe_code)]

pub use pravega_client as client;
pub use pravega_common as common;
pub use pravega_controller as controller;
pub use pravega_coordination as coordination;
pub use pravega_core as core;
pub use pravega_faults as faults;
pub use pravega_lts as lts;
pub use pravega_segmentstore as segmentstore;
pub use pravega_wal as wal;

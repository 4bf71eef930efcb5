#![deny(unsafe_code)]
#![warn(missing_docs)]
//! Deterministic trace-driven simulator used by the benchmark harness to
//! regenerate the paper's evaluation figures (§5).
//!
//! # Why a simulator
//!
//! The paper's experiments ran on an AWS testbed (Table 1): i3.4xlarge
//! instances with local NVMe journal drives, 10 GbE networking, EFS/S3 as
//! long-term storage, against real Kafka 2.6 and Pulsar 2.6 clusters. None
//! of that hardware is available here, and the figures compare *mechanisms*:
//! flush-per-message vs group commit, per-partition log files vs segment
//! multiplexing, client-knob batching vs adaptive batching, bolt-on tiering
//! vs integrated throttled tiering.
//!
//! This crate executes those mechanisms against calibrated device models:
//! every write physically traverses client batcher → network pipe → server
//! CPU → (frames) → journal device with group commit → replication → ack,
//! with queueing emerging from resource contention rather than from closed
//! formulas. Calibration constants (drive ≈ 800 MB/s sync writes as the
//! paper measured with `dd`, EFS ≈ 160 MB/s, RTT ≈ 250 µs) live in
//! [`config::CalibratedEnv`] and are documented in EXPERIMENTS.md.
//!
//! The models intentionally reuse the *real engine's* policy formulas: the
//! client batch estimate `min(max_batch, rate·RTT/2)` and the data-frame
//! delay `RecentLatency · (1 − AvgWriteSize/MaxFrameSize)` (§4.1).

pub mod config;
pub mod historical;
pub mod kafka;
pub mod pravega;
pub mod pulsar;
pub mod resources;
pub mod result;
pub mod workload;

pub use config::CalibratedEnv;
pub use historical::{pravega_catchup, pulsar_catchup, CatchupResult, CatchupSpec};
pub use kafka::{simulate_kafka, KafkaOptions};
pub use pravega::{simulate_pravega, LtsMode, PravegaOptions};
pub use pulsar::{simulate_pulsar, PulsarOptions};
pub use result::RunResult;
pub use workload::{RoutingKeys, WorkloadSpec};

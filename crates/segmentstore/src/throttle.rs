//! Writer throttling: the integrated-tiering backpressure of §4.3.
//!
//! Past `throttle_threshold_bytes` of unflushed backlog each append is
//! *delayed* in proportion to the overage; past the hard limit
//! (`throttle_hard_limit_ratio` times the threshold) appends block until the
//! storage writer catches up. Ingest slows smoothly toward the flush rate
//! instead of oscillating against a wall. A ratio of `1.0` leaves no soft zone.

use std::sync::atomic::Ordering;
use std::time::Duration;

use pravega_common::clock;
use pravega_common::stall::{sleep_interruptible, StallClass};

use crate::container::ContainerInner;
use crate::error::SegmentError;

/// Per-append delay applied as the backlog reaches the hard limit.
const THROTTLE_MAX_DELAY: Duration = Duration::from_millis(20);

/// Longest a single append may be held back before it fails with
/// [`SegmentError::ThrottleTimeout`].
const THROTTLE_TIMEOUT: Duration = Duration::from_secs(120);

/// The backlog level at which throttling blocks outright.
fn hard_limit_bytes(threshold: u64, ratio: f64) -> u64 {
    (threshold as f64 * ratio.max(1.0)) as u64
}

/// The per-append delay for a backlog of `backlog` bytes: zero at or below
/// `threshold`, growing linearly to `max_delay` at `hard_limit`. Monotone
/// non-decreasing in `backlog`, so heavier backlogs always wait at least as
/// long — and the delay vanishes the moment the backlog drains.
pub(crate) fn throttle_delay(
    backlog: u64,
    threshold: u64,
    hard_limit: u64,
    max_delay: Duration,
) -> Duration {
    if backlog <= threshold {
        return Duration::ZERO;
    }
    let span = hard_limit.saturating_sub(threshold).max(1) as f64;
    let over = (backlog - threshold) as f64;
    max_delay.mul_f64((over / span).clamp(0.0, 1.0))
}

impl ContainerInner {
    /// Holds the append back while the unflushed backlog exceeds the
    /// throttle threshold. A wait longer than [`THROTTLE_TIMEOUT`] fails with
    /// [`SegmentError::ThrottleTimeout`] (transient — clients back off).
    pub(crate) fn throttle_wait(&self) -> Result<(), SegmentError> {
        let limit = self.config.throttle_threshold_bytes;
        let mut backlog = self.unflushed_bytes.load(Ordering::Relaxed);
        if backlog <= limit {
            return Ok(());
        }
        self.metrics.throttle_engaged.inc();
        let start = clock::monotonic_now();
        let hard_limit = hard_limit_bytes(limit, self.config.throttle_hard_limit_ratio);
        let result = loop {
            if let Err(e) = self.check_running() {
                break Err(e);
            }
            if backlog <= limit {
                break Ok(());
            }
            if backlog <= hard_limit {
                // Soft zone: hold this append back proportionally to the
                // overage, then admit it.
                let delay = throttle_delay(backlog, limit, hard_limit, THROTTLE_MAX_DELAY);
                sleep_interruptible(delay, &self.stopped);
                break self.check_running();
            }
            // Past the hard limit: block in short slices until the backlog
            // recedes.
            sleep_interruptible(Duration::from_millis(1), &self.stopped);
            if start.elapsed() > THROTTLE_TIMEOUT {
                break Err(SegmentError::ThrottleTimeout {
                    waited: start.elapsed(),
                    backlog_bytes: backlog,
                });
            }
            backlog = self.unflushed_bytes.load(Ordering::Relaxed);
        };
        let waited = start.elapsed();
        self.metrics
            .throttle_wait_nanos
            .record(waited.as_nanos() as u64);
        self.metrics.stalls.record(StallClass::Throttle, waited);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIB: u64 = 1024;

    #[test]
    fn delay_is_zero_at_or_below_the_threshold() {
        let max = Duration::from_millis(20);
        assert_eq!(throttle_delay(0, 64 * KIB, 128 * KIB, max), Duration::ZERO);
        assert_eq!(
            throttle_delay(64 * KIB, 64 * KIB, 128 * KIB, max),
            Duration::ZERO
        );
    }

    #[test]
    fn delay_grows_monotonically_with_backlog() {
        let max = Duration::from_millis(20);
        let mut last = Duration::ZERO;
        for backlog in (64 * KIB..=160 * KIB).step_by(KIB as usize) {
            let d = throttle_delay(backlog, 64 * KIB, 128 * KIB, max);
            assert!(
                d >= last,
                "delay must be monotone: backlog {backlog} gave {d:?} after {last:?}"
            );
            last = d;
        }
    }

    #[test]
    fn delay_saturates_at_max_past_the_hard_limit() {
        let max = Duration::from_millis(20);
        assert_eq!(throttle_delay(128 * KIB, 64 * KIB, 128 * KIB, max), max);
        assert_eq!(throttle_delay(1 << 40, 64 * KIB, 128 * KIB, max), max);
    }

    #[test]
    fn delay_releases_the_moment_the_backlog_drains() {
        let max = Duration::from_millis(20);
        // One byte over the threshold: a barely-positive delay...
        let just_over = throttle_delay(64 * KIB + 1, 64 * KIB, 128 * KIB, max);
        assert!(just_over > Duration::ZERO && just_over < Duration::from_millis(1));
        // ...and none at all once the backlog is back at the threshold.
        assert_eq!(
            throttle_delay(64 * KIB, 64 * KIB, 128 * KIB, max),
            Duration::ZERO
        );
    }

    #[test]
    fn degenerate_span_does_not_divide_by_zero() {
        let max = Duration::from_millis(20);
        // hard limit == threshold (ratio 1.0): any overage gets the max.
        assert_eq!(throttle_delay(65 * KIB, 64 * KIB, 64 * KIB, max), max);
    }

    #[test]
    fn hard_limit_respects_the_ratio_floor() {
        assert_eq!(hard_limit_bytes(64 * KIB, 2.0), 128 * KIB);
        // Ratios below 1.0 clamp: the hard limit is never below the threshold.
        assert_eq!(hard_limit_bytes(64 * KIB, 0.5), 64 * KIB);
    }
}

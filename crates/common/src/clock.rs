//! Pluggable time source.
//!
//! Components that make time-based decisions (batching delays, auto-scaling
//! cooldowns, retention) take a [`Clock`] so tests can drive time manually.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nanoseconds since an arbitrary (per-clock) origin.
pub type Timestamp = u64;

/// The single sanctioned source of raw monotonic time in the workspace.
///
/// Components that make *policy* decisions on time (batching delays,
/// cooldowns, retention) must take a [`Clock`] so tests can drive time
/// manually. Mechanical uses that need an [`Instant`] (condvar deadlines,
/// latency stopwatches) go through this function instead of calling
/// `Instant::now()` directly, so every raw time read in the tree flows
/// through one choke point — clippy's `disallowed_methods` rejects
/// `Instant::now()` anywhere else, which keeps the deterministic-simulation
/// discipline auditable.
#[expect(
    clippy::disallowed_methods,
    reason = "the sanctioned monotonic time source"
)]
pub fn monotonic_now() -> Instant {
    Instant::now()
}

/// Wall-clock counterpart of [`monotonic_now`]: the only sanctioned
/// `SystemTime::now()` call site in the workspace.
#[expect(
    clippy::disallowed_methods,
    reason = "the sanctioned wall-clock source"
)]
pub fn wall_now() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

/// A monotonic time source.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time in nanoseconds since the clock's origin.
    fn now_nanos(&self) -> Timestamp;

    /// Current time as a [`Duration`] since the clock's origin.
    fn now(&self) -> Duration {
        Duration::from_nanos(self.now_nanos())
    }
}

/// Wall-clock backed [`Clock`] using a monotonic [`Instant`] origin.
#[derive(Debug, Clone)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// Creates a clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: monotonic_now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_nanos(&self) -> Timestamp {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Manually-driven [`Clock`] for deterministic tests.
///
/// # Example
///
/// ```
/// use pravega_common::clock::{Clock, ManualClock};
/// use std::time::Duration;
///
/// let clock = ManualClock::new();
/// assert_eq!(clock.now_nanos(), 0);
/// clock.advance(Duration::from_millis(5));
/// assert_eq!(clock.now_nanos(), 5_000_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// Creates a manual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `delta`.
    pub fn advance(&self, delta: Duration) {
        self.nanos
            .fetch_add(delta.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute number of nanoseconds.
    pub fn set_nanos(&self, nanos: Timestamp) {
        self.nanos.store(nanos, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> Timestamp {
        self.nanos.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances() {
        let clock = ManualClock::new();
        clock.advance(Duration::from_secs(1));
        clock.advance(Duration::from_millis(500));
        assert_eq!(clock.now(), Duration::from_millis(1500));
        clock.set_nanos(42);
        assert_eq!(clock.now_nanos(), 42);
    }

    #[test]
    fn manual_clock_clones_share_state() {
        let clock = ManualClock::new();
        let other = clock.clone();
        clock.advance(Duration::from_secs(2));
        assert_eq!(other.now_nanos(), 2_000_000_000);
    }
}

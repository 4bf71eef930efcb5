//! Typed error classification and bounded-exponential-backoff retry.
//!
//! The tiering write path talks to backends that fail in two fundamentally
//! different ways: *transient* conditions (a chunk store that is briefly
//! unreachable, a torn write, an optimistic-concurrency conflict) that a
//! bounded retry will ride out, and *permanent* conditions (bad offset on a
//! sealed segment, missing chunk) where retrying only repeats the failure.
//! Each layer's error type declares which is which by implementing
//! [`RetryClass`]; [`RetryPolicy`] then retries only the transient class,
//! sleeping a bounded, jittered, exponentially growing backoff between
//! attempts.
//!
//! This module is the **only** sanctioned home for retry sleeps: clippy's
//! `disallowed-methods` rejects `thread::sleep` elsewhere in non-test code
//! (pacing and simulated-device sleeps each carry an `#[expect]` with their
//! reason) so ad-hoc spin-retry loops cannot creep back in.
//!
//! # Example
//!
//! ```
//! use pravega_common::retry::{ErrorClass, RetryClass, RetryPolicy};
//!
//! #[derive(Debug)]
//! enum E {
//!     Flaky,
//!     Fatal,
//! }
//! impl RetryClass for E {
//!     fn error_class(&self) -> ErrorClass {
//!         match self {
//!             E::Flaky => ErrorClass::Transient,
//!             E::Fatal => ErrorClass::Permanent,
//!         }
//!     }
//! }
//!
//! let mut calls = 0;
//! let out = RetryPolicy::fast_test().run(
//!     |_attempt, _err: &E| {},
//!     || {
//!         calls += 1;
//!         if calls < 3 { Err(E::Flaky) } else { Ok(calls) }
//!     },
//! );
//! assert_eq!(out.unwrap(), 3);
//! ```

use std::time::Duration;

use rand::{Rng, SeedableRng};

/// Whether an error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The operation may succeed if repeated after a backoff (backend briefly
    /// unavailable, torn write, optimistic-concurrency conflict).
    Transient,
    /// Retrying will deterministically fail again (logical error, sealed
    /// segment, missing resource). Callers must give up or escalate.
    Permanent,
}

/// Implemented by error types that can say whether they are retryable.
pub trait RetryClass {
    /// Classifies this error as [`ErrorClass::Transient`] or
    /// [`ErrorClass::Permanent`].
    fn error_class(&self) -> ErrorClass;

    /// Convenience: true when [`error_class`](Self::error_class) is
    /// [`ErrorClass::Transient`].
    fn is_transient(&self) -> bool {
        self.error_class() == ErrorClass::Transient
    }
}

/// Bounded exponential backoff with jitter.
///
/// Attempt `n` (0-based) sleeps `initial_backoff * multiplier^n`, capped at
/// `max_backoff`, then scaled by a random factor in `[1 - jitter, 1 + jitter]`
/// so synchronized retriers spread out. The total number of *attempts*
/// (initial try included) is `max_attempts`.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub initial_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Exponential growth factor between consecutive backoffs.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by a uniform factor
    /// from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            multiplier: 2.0,
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// Policy with no retries: one attempt, errors surface immediately.
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Aggressive sub-millisecond policy for tests: retries are plentiful and
    /// sleeps are tiny so fault-heavy suites stay fast.
    pub fn fast_test() -> Self {
        Self {
            max_attempts: 10,
            initial_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(2),
            multiplier: 2.0,
            jitter: 0.2,
        }
    }

    /// The backoff to sleep after failed attempt `attempt` (0-based), before
    /// jitter.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self.initial_backoff.as_secs_f64() * self.multiplier.powi(attempt as i32);
        let capped = base.min(self.max_backoff.as_secs_f64());
        Duration::from_secs_f64(capped)
    }

    fn jittered(&self, base: Duration, rng: &mut rand::rngs::StdRng) -> Duration {
        if self.jitter <= 0.0 || base.is_zero() {
            return base;
        }
        let factor = rng.gen_range((1.0 - self.jitter)..(1.0 + self.jitter));
        Duration::from_secs_f64(base.as_secs_f64() * factor.max(0.0))
    }

    /// Runs `op`, retrying transient errors up to `max_attempts` total
    /// attempts with jittered exponential backoff between them.
    ///
    /// `on_retry` is invoked before each backoff sleep with the 0-based
    /// attempt index that failed and the error, so callers can bump retry
    /// counters or re-resolve endpoints. Permanent errors and transient
    /// errors on the final attempt are returned to the caller unchanged.
    pub fn run<T, E, F, R>(&self, mut on_retry: R, mut op: F) -> Result<T, E>
    where
        E: RetryClass,
        F: FnMut() -> Result<T, E>,
        R: FnMut(u32, &E),
    {
        let mut rng = rand::rngs::StdRng::seed_from_u64(rand::random());
        let attempts = self.max_attempts.max(1);
        if attempts > 1 {
            pravega_sync::blocking("RetryPolicy::run backoff");
        }
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if !e.is_transient() || attempt + 1 >= attempts {
                        return Err(e);
                    }
                    on_retry(attempt, &e);
                    let sleep = self.jittered(self.backoff(attempt), &mut rng);
                    if !sleep.is_zero() {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "the one sanctioned retry sleep in the workspace"
                        )]
                        std::thread::sleep(sleep);
                    }
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum TestError {
        Transient,
        Permanent,
    }

    impl RetryClass for TestError {
        fn error_class(&self) -> ErrorClass {
            match self {
                TestError::Transient => ErrorClass::Transient,
                TestError::Permanent => ErrorClass::Permanent,
            }
        }
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let mut calls = 0;
        let mut retries = 0;
        let out = RetryPolicy::fast_test().run(
            |_, _| retries += 1,
            || {
                calls += 1;
                if calls < 4 {
                    Err(TestError::Transient)
                } else {
                    Ok(calls)
                }
            },
        );
        assert_eq!(out, Ok(4));
        assert_eq!(retries, 3);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let mut calls = 0;
        let out: Result<(), _> = RetryPolicy::fast_test().run(
            |_, _| {},
            || {
                calls += 1;
                Err(TestError::Permanent)
            },
        );
        assert_eq!(out, Err(TestError::Permanent));
        assert_eq!(calls, 1);
    }

    #[test]
    fn exhausts_attempts_on_sustained_transient_failure() {
        let policy = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_micros(10),
            ..RetryPolicy::fast_test()
        };
        let mut calls = 0;
        let out: Result<(), _> = policy.run(
            |_, _| {},
            || {
                calls += 1;
                Err(TestError::Transient)
            },
        );
        assert_eq!(out, Err(TestError::Transient));
        assert_eq!(calls, 3);
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let policy = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            multiplier: 2.0,
            jitter: 0.0,
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(1));
        assert_eq!(policy.backoff(1), Duration::from_millis(2));
        assert_eq!(policy.backoff(2), Duration::from_millis(4));
        assert_eq!(policy.backoff(3), Duration::from_millis(8));
        assert_eq!(policy.backoff(7), Duration::from_millis(8));
    }

    #[test]
    fn no_retries_policy_surfaces_first_error() {
        let mut calls = 0;
        let out: Result<(), _> = RetryPolicy::no_retries().run(
            |_, _| {},
            || {
                calls += 1;
                Err(TestError::Transient)
            },
        );
        assert_eq!(out, Err(TestError::Transient));
        assert_eq!(calls, 1);
    }
}

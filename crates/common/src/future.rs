//! A minimal oneshot promise used for pipelined acknowledgements.
//!
//! Appends in Pravega are pipelined: the caller keeps issuing writes while
//! earlier ones are still being replicated and fsynced. A [`Promise`] is the
//! handle the caller blocks on when (and only when) it needs the result.

use std::fmt;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

/// Error: the completer was dropped without completing the promise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokenPromise;

impl fmt::Display for BrokenPromise {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "promise abandoned without a value")
    }
}

impl std::error::Error for BrokenPromise {}

/// Error returned by [`Promise::wait_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The deadline elapsed before the promise completed.
    Timeout,
    /// The completer was dropped without completing the promise.
    Broken,
}

impl fmt::Display for WaitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitError::Timeout => write!(f, "timed out waiting for promise"),
            WaitError::Broken => write!(f, "promise abandoned without a value"),
        }
    }
}

impl std::error::Error for WaitError {}

/// The write side of a oneshot promise.
#[derive(Debug)]
pub struct Completer<T> {
    tx: Sender<T>,
}

impl<T> Completer<T> {
    /// Completes the promise. Ignores the value if the waiter went away.
    pub fn complete(self, value: T) {
        let _ = self.tx.send(value);
    }
}

/// The read side of a oneshot promise.
#[derive(Debug)]
pub struct Promise<T> {
    rx: Receiver<T>,
}

impl<T> Promise<T> {
    /// A promise that is already completed with `value`.
    pub fn ready(value: T) -> Self {
        let (completer, promise) = promise();
        completer.complete(value);
        promise
    }

    /// Blocks until the value arrives.
    ///
    /// # Errors
    ///
    /// Returns [`BrokenPromise`] if the completer was dropped first.
    pub fn wait(self) -> Result<T, BrokenPromise> {
        pravega_sync::blocking("Promise::wait");
        self.rx.recv().map_err(|_| BrokenPromise)
    }

    /// Blocks up to `timeout` for the value.
    ///
    /// # Errors
    ///
    /// Returns [`WaitError::Timeout`] on deadline, [`WaitError::Broken`] if
    /// the completer was dropped.
    pub fn wait_for(self, timeout: Duration) -> Result<T, WaitError> {
        pravega_sync::blocking("Promise::wait_for");
        match self.rx.recv_timeout(timeout) {
            Ok(v) => Ok(v),
            Err(RecvTimeoutError::Timeout) => Err(WaitError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(WaitError::Broken),
        }
    }

    /// Non-blocking poll: `Some(Ok(v))` when done, `Some(Err)` when broken,
    /// `None` when still pending. Consumes the promise only via `Option`.
    pub fn try_take(&self) -> Option<Result<T, BrokenPromise>> {
        match self.rx.try_recv() {
            Ok(v) => Some(Ok(v)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(BrokenPromise)),
        }
    }
}

/// A promise carries exactly one completion value, so its channel needs
/// exactly one slot; the completer never blocks.
const ONESHOT_CAPACITY: usize = 1;

/// Creates a connected `(completer, promise)` pair.
pub fn promise<T>() -> (Completer<T>, Promise<T>) {
    let (tx, rx) = bounded(ONESHOT_CAPACITY);
    (Completer { tx }, Promise { rx })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn complete_then_wait() {
        let (c, p) = promise();
        c.complete(42);
        assert_eq!(p.wait(), Ok(42));
    }

    #[test]
    fn wait_blocks_until_complete() {
        let (c, p) = promise();
        let h = thread::spawn(move || p.wait());
        thread::sleep(Duration::from_millis(10));
        c.complete("done");
        assert_eq!(h.join().unwrap(), Ok("done"));
    }

    #[test]
    fn dropped_completer_breaks_promise() {
        let (c, p) = promise::<u32>();
        drop(c);
        assert_eq!(p.wait(), Err(BrokenPromise));
    }

    #[test]
    fn wait_for_times_out() {
        let (_c, p) = promise::<u32>();
        assert_eq!(
            p.wait_for(Duration::from_millis(5)),
            Err(WaitError::Timeout)
        );
    }

    #[test]
    fn ready_is_immediate() {
        assert_eq!(Promise::ready(7).wait(), Ok(7));
    }

    #[test]
    fn try_take_polls() {
        let (c, p) = promise();
        assert!(p.try_take().is_none());
        c.complete(1);
        assert_eq!(p.try_take(), Some(Ok(1)));
    }
}

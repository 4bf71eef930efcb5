#![deny(unsafe_code)]
#![warn(missing_docs)]
//! Rank-checked lock facade for the Pravega workspace.
//!
//! Every lock in the repo is a [`Mutex`], [`RwLock`] or [`Condvar`] from this
//! crate, created with a [`LockRank`] from the documented hierarchy in
//! [`rank`] (see DESIGN.md §"Concurrency discipline"). In debug and test
//! builds (or with the `lock-order-check` feature) a per-thread acquisition
//! tracker enforces that ranks are acquired in **strictly increasing** order:
//!
//! * acquiring a lock whose rank is *lower* than one already held is a rank
//!   inversion — two threads taking the same pair in opposite orders is a
//!   deadlock, so the tracker panics immediately, naming both lock sites;
//! * acquiring a lock whose rank *equals* one already held is a same-rank
//!   double-acquire — either a re-entrant acquire of the same lock (a
//!   guaranteed self-deadlock with non-reentrant mutexes) or two sibling
//!   locks with no defined order between them; both are flagged.
//!
//! `try_lock`-style acquisitions cannot block and therefore cannot deadlock;
//! they skip the ordering check but still register the guard so later
//! blocking acquisitions are checked against it.
//!
//! The same tracker checks blocking calls. [`blocking`], called by every
//! primitive that can park its thread (a promise wait, a channel `recv`, a
//! sleep, a join, file or socket I/O), panics if the thread holds a lock
//! whose rank is not marked [`LockRank::may_block`]: a thread parked with a
//! lock held stalls every other thread that needs the lock. A
//! [`Condvar`] wait runs the same check over every held lock but its own.
//! Threads are started with [`spawn`], whose [`JoinHandle::join`] checks.
//!
//! Set `PRAVEGA_LOCK_BACKTRACE=1` to capture a full backtrace at every
//! acquisition, so violation panics can print the held lock's backtrace in
//! addition to both acquisition sites.
//!
//! In release builds without the feature, the facade compiles down to the
//! underlying `parking_lot` primitives with a 4-byte rank tag and no
//! per-acquisition work.
#![expect(
    clippy::disallowed_types,
    reason = "the facade wraps parking_lot's locks and defines the guards it hands out"
)]

use std::fmt;

pub mod rank;

/// A position in the global lock hierarchy: a numeric order plus a stable
/// human-readable name used in violation panics and documentation.
///
/// Use a constant from [`rank`]; new locks must pick (or add) a rank there so
/// the hierarchy stays centrally documented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRank {
    /// Position in the hierarchy; blocking acquisitions must be strictly
    /// increasing per thread.
    pub order: u16,
    /// Stable name, `<crate>.<component>` style.
    pub name: &'static str,
    /// Whether a thread may block (wait, sleep, join, do I/O) while holding
    /// a lock of this rank; see [`blocking`].
    pub may_block: bool,
}

impl LockRank {
    /// Creates a rank that must not be held across a blocking call. Prefer
    /// the constants in [`rank`].
    pub const fn new(order: u16, name: &'static str) -> Self {
        Self {
            order,
            name,
            may_block: false,
        }
    }

    /// The same rank, allowed to be held across a blocking call. Each use in
    /// [`rank`] says why the hold is needed.
    pub const fn may_block(self) -> Self {
        Self {
            may_block: true,
            ..self
        }
    }
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` (rank {})", self.name, self.order)
    }
}

#[cfg(any(debug_assertions, feature = "lock-order-check"))]
mod tracker {
    use super::LockRank;
    use std::cell::RefCell;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) type Token = u64;

    struct Held {
        token: Token,
        order: u16,
        name: &'static str,
        may_block: bool,
        location: &'static Location<'static>,
        backtrace: Option<String>,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    fn capture_backtraces() -> bool {
        static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *ENABLED.get_or_init(|| {
            std::env::var("PRAVEGA_LOCK_BACKTRACE")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false)
        })
    }

    /// Registers a lock acquisition. For blocking acquisitions, panics if any
    /// held lock's rank is >= the new rank.
    #[track_caller]
    pub(crate) fn acquired(rank: &LockRank, blocking: bool) -> Token {
        let location = Location::caller();
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if blocking {
                if let Some(conflict) = held.iter().max_by_key(|h| h.order) {
                    if conflict.order >= rank.order {
                        let kind = if conflict.order == rank.order {
                            "same-rank double-acquire"
                        } else {
                            "rank inversion"
                        };
                        let held_bt = conflict.backtrace.as_deref().map_or_else(
                            || {
                                "<set PRAVEGA_LOCK_BACKTRACE=1 to capture held-lock backtraces>"
                                    .to_string()
                            },
                            |bt| format!("\n{bt}"),
                        );
                        panic!(
                            "lock-order violation ({kind}): acquiring lock `{}` (rank {}) at \
                             {location} while holding lock `{}` (rank {}) acquired at {}\n\
                             blocking acquisitions must take strictly increasing ranks; see \
                             DESIGN.md \"Concurrency discipline\" for the hierarchy.\n\
                             held-lock backtrace: {held_bt}",
                            rank.name, rank.order, conflict.name, conflict.order, conflict.location,
                        );
                    }
                }
            }
            let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            held.push(Held {
                token,
                order: rank.order,
                name: rank.name,
                may_block: rank.may_block,
                location,
                backtrace: capture_backtraces()
                    .then(|| std::backtrace::Backtrace::force_capture().to_string()),
            });
            token
        })
    }

    /// Unregisters an acquisition when its guard drops. Guards may drop in
    /// any order, so removal is by token, not a stack pop.
    pub(crate) fn released(token: Token) {
        // Ignore access errors during thread teardown: the thread-local may
        // already be destroyed while guards held in statics unwind.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|h| h.token == token) {
                held.remove(i);
            }
        });
    }

    /// Panics if the current thread holds a lock, other than `except`, whose
    /// rank is not may-block. Skipped while the thread unwinds, so a drop
    /// that joins or waits cannot turn one panic into an abort.
    #[track_caller]
    pub(crate) fn blocking(what: &str, except: Option<Token>) {
        let site = Location::caller();
        if std::thread::panicking() {
            return;
        }
        let offenders = HELD
            .try_with(|held| {
                held.borrow()
                    .iter()
                    .filter(|h| !h.may_block && Some(h.token) != except)
                    .map(|h| format!("`{}` (rank {}) acquired at {}", h.name, h.order, h.location))
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        if !offenders.is_empty() {
            panic!(
                "blocking call ({what}) at {site} while holding {}\n\
                 release the lock before blocking, or mark its rank may-block with a reason; \
                 see DESIGN.md \"Concurrency discipline\".",
                offenders.join(", "),
            );
        }
    }

    /// Number of locks the current thread holds (test hook).
    pub(crate) fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }
}

#[cfg(not(any(debug_assertions, feature = "lock-order-check")))]
mod tracker {
    use super::LockRank;

    pub(crate) type Token = ();

    #[inline(always)]
    pub(crate) fn acquired(_rank: &LockRank, _blocking: bool) -> Token {}

    #[inline(always)]
    pub(crate) fn released(_token: Token) {}

    #[inline(always)]
    pub(crate) fn blocking(_what: &str, _except: Option<Token>) {}

    #[inline(always)]
    pub(crate) fn held_count() -> usize {
        0
    }
}

/// Whether the runtime lock-order checker is compiled in.
pub const fn checker_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "lock-order-check"))
}

/// Declares that the caller is about to block: wait on another thread, sleep,
/// join, or do file or socket I/O. Panics (checker builds) if the thread
/// holds a lock whose rank is not [`LockRank::may_block`], naming each such
/// lock, where it was acquired, and the blocking call's site. Call it where
/// a call *can* block, not only where it does, so a path that blocks only
/// under load is caught by a test that runs it idle. Compiles to nothing in
/// release builds without the `lock-order-check` feature.
#[cfg(any(debug_assertions, feature = "lock-order-check"))]
#[track_caller]
pub fn blocking(what: &str) {
    tracker::blocking(what, None);
}

/// Declares that the caller is about to block; see the checker builds' docs.
#[cfg(not(any(debug_assertions, feature = "lock-order-check")))]
#[inline(always)]
pub fn blocking(_what: &str) {}

/// Spawns a named thread whose [`JoinHandle::join`] is a checked blocking
/// call. The workspace starts its threads here (clippy bans
/// `std::thread::Builder::spawn` elsewhere).
///
/// # Errors
///
/// Returns the OS error if the thread could not be created.
pub fn spawn<F, T>(name: impl Into<String>, f: F) -> std::io::Result<JoinHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's one thread spawn, wrapping the handle so its join is checked"
    )]
    std::thread::Builder::new()
        .name(name.into())
        .spawn(f)
        .map(JoinHandle)
}

/// Handle of a thread started with [`spawn`].
#[derive(Debug)]
pub struct JoinHandle<T>(std::thread::JoinHandle<T>);

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish; a checked [`blocking`] call.
    ///
    /// # Errors
    ///
    /// Returns the thread's panic payload if it panicked.
    #[cfg_attr(any(debug_assertions, feature = "lock-order-check"), track_caller)]
    pub fn join(self) -> std::thread::Result<T> {
        blocking("thread join");
        self.0.join()
    }
}

/// Number of facade locks the current thread holds (0 when the checker is
/// compiled out). Exposed for tests.
pub fn held_lock_count() -> usize {
    tracker::held_count()
}

/// A mutual-exclusion lock carrying a [`LockRank`].
///
/// `lock()` returns the guard directly (no poisoning), matching the
/// `parking_lot` API the workspace uses.
pub struct Mutex<T: ?Sized> {
    rank: LockRank,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex at the given rank.
    pub fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// This lock's rank.
    pub fn rank(&self) -> &LockRank {
        &self.rank
    }

    /// Acquires the lock, blocking. Panics (checker builds) on rank
    /// inversion or same-rank double-acquire.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = tracker::acquired(&self.rank, true);
        MutexGuard {
            inner: self.inner.lock(),
            token,
        }
    }

    /// Attempts the lock without blocking. Exempt from the ordering check
    /// (a failed try cannot deadlock), but a successful guard still counts
    /// as held for later blocking acquisitions.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        let token = tracker::acquired(&self.rank, false);
        Some(MutexGuard { inner, token })
    }

    /// Mutable access through exclusive ownership; no locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Mutex");
        d.field("rank", &self.rank.name);
        match self.inner.try_lock() {
            Some(g) => d.field("data", &&*g).finish(),
            None => d.field("data", &"<locked>").finish(),
        }
    }
}

/// Guard for [`Mutex`]; releases the lock (and its tracker entry) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: parking_lot::MutexGuard<'a, T>,
    token: tracker::Token,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        tracker::released(self.token);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A reader-writer lock carrying a [`LockRank`]. Read acquisitions follow
/// the same ordering rules as writes: a read-read self-deadlock is rare but
/// possible (writer-priority queues), and keeping one rule keeps audits
/// simple.
pub struct RwLock<T: ?Sized> {
    rank: LockRank,
    inner: parking_lot::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a reader-writer lock at the given rank.
    pub fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// This lock's rank.
    pub fn rank(&self) -> &LockRank {
        &self.rank
    }

    /// Acquires a shared read guard, blocking.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = tracker::acquired(&self.rank, true);
        RwLockReadGuard {
            inner: self.inner.read(),
            token,
        }
    }

    /// Acquires an exclusive write guard, blocking.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = tracker::acquired(&self.rank, true);
        RwLockWriteGuard {
            inner: self.inner.write(),
            token,
        }
    }

    /// Mutable access through exclusive ownership; no locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("rank", &self.rank.name)
            .finish()
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    token: tracker::Token,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        tracker::released(self.token);
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    token: tracker::Token,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        tracker::released(self.token);
    }
}

/// Result of a timed [`Condvar`] wait.
pub use parking_lot::WaitTimeoutResult;

/// A condition variable compatible with this crate's [`Mutex`].
///
/// Waiting releases and re-acquires the mutex inside the primitive; the
/// tracker keeps the lock registered across the wait (the critical section
/// conceptually spans it), so ordering rules still apply to any lock taken
/// after wakeup.
#[derive(Debug, Default)]
pub struct Condvar(parking_lot::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        Self(parking_lot::Condvar::new())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Blocks until notified, releasing the mutex while waiting. A checked
    /// blocking call over every held lock but `guard`'s (see [`blocking`]).
    #[cfg_attr(any(debug_assertions, feature = "lock-order-check"), track_caller)]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        tracker::blocking("Condvar::wait", Some(guard.token));
        self.0.wait(&mut guard.inner);
    }

    /// Blocks until notified or `timeout` elapses; checked like
    /// [`Condvar::wait`].
    #[cfg_attr(any(debug_assertions, feature = "lock-order-check"), track_caller)]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        tracker::blocking("Condvar::wait_for", Some(guard.token));
        self.0.wait_for(&mut guard.inner, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Test-only ranks; orders chosen to sit between real bands.
    const LOW: LockRank = LockRank::new(1, "test.low");
    const MID: LockRank = LockRank::new(2, "test.mid");
    const HIGH: LockRank = LockRank::new(3, "test.high");

    #[test]
    fn clean_increasing_order_is_not_flagged() {
        let a = Mutex::new(LOW, 1);
        let b = Mutex::new(MID, 2);
        let c = Mutex::new(HIGH, 3);
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        assert_eq!(*ga + *gb + *gc, 6);
        drop(gb); // out-of-order release is fine
        assert_eq!(held_lock_count(), 2);
        drop(ga);
        drop(gc);
        assert_eq!(held_lock_count(), 0);
    }

    #[test]
    fn rank_inversion_is_detected() {
        let low = Mutex::new(LOW, ());
        let high = Mutex::new(HIGH, ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g_high = high.lock();
            let _g_low = low.lock(); // inversion: 1 while holding 3
        }));
        let err = result.expect_err("inversion must panic");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("rank inversion"), "got: {msg}");
        assert!(msg.contains("test.low"), "got: {msg}");
        assert!(msg.contains("test.high"), "got: {msg}");
        // Both acquisition sites are named.
        assert!(msg.contains(file!()), "got: {msg}");
        assert_eq!(held_lock_count(), 0, "panicked acquire must not leak");
    }

    #[test]
    fn reentrant_acquire_is_detected() {
        let m = Mutex::new(MID, ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g1 = m.lock();
            let _g2 = m.lock(); // self-deadlock without the checker
        }));
        let err = result.expect_err("re-entrant acquire must panic");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("same-rank double-acquire"), "got: {msg}");
        assert_eq!(held_lock_count(), 0);
    }

    #[test]
    fn sibling_same_rank_locks_are_detected() {
        let a = Mutex::new(MID, ());
        let b = Mutex::new(MID, ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ga = a.lock();
            let _gb = b.lock();
        }));
        assert!(result.is_err(), "same-rank siblings must be flagged");
    }

    #[test]
    fn try_lock_is_exempt_but_registers() {
        let low = Mutex::new(LOW, ());
        let high = Mutex::new(HIGH, ());
        let _gh = high.lock();
        // try_lock below a held rank does not panic...
        let gl = low.try_lock().expect("uncontended");
        assert_eq!(held_lock_count(), 2);
        drop(gl);
        // ...but a blocking acquire still checks against try-held guards.
        let _gl = low.try_lock().expect("uncontended");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = low.lock();
        }));
        assert!(result.is_err(), "blocking acquire checks try-held locks");
    }

    #[test]
    fn rwlock_follows_the_same_rules() {
        let low = RwLock::new(LOW, 0u32);
        let high = RwLock::new(HIGH, 0u32);
        {
            let _r = low.read();
            let _w = high.write();
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _w = high.write();
            let _r = low.read();
        }));
        assert!(result.is_err(), "read below a held write rank is flagged");
    }

    #[test]
    fn condvar_roundtrip() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(MID, false), Condvar::new()));
        let pair2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            *done = true;
            cv.notify_one();
            drop(done);
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        drop(done);
        h.join().expect("join");
        let timed = {
            let mut g = pair.0.lock();
            pair.1.wait_for(&mut g, std::time::Duration::from_millis(5))
        };
        assert!(timed.timed_out());
    }

    const BLOCKS: LockRank = LockRank::new(4, "test.may_block").may_block();

    fn panic_message(result: std::thread::Result<()>) -> String {
        let err = result.expect_err("must panic");
        err.downcast_ref::<String>().expect("panic message").clone()
    }

    #[test]
    fn blocking_with_a_guard_held_names_the_lock_and_both_sites() {
        let m = Mutex::new(MID, ());
        let msg = panic_message(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || {
                let _g = m.lock();
                blocking("test sleep");
            },
        )));
        assert!(msg.contains("test sleep"), "got: {msg}");
        assert!(msg.contains("test.mid"), "got: {msg}");
        // The acquisition and the blocking call, on consecutive lines.
        let sites: Vec<u32> = msg
            .split(concat!(file!(), ":"))
            .skip(1)
            .filter_map(|rest| rest.split(':').next()?.parse().ok())
            .collect();
        assert_eq!(sites.len(), 2, "got: {msg}");
        assert_eq!(
            sites[0],
            sites[1] + 1,
            "blocking site, then lock site: {msg}"
        );
        assert_eq!(held_lock_count(), 0);
    }

    #[test]
    fn a_may_block_rank_may_be_held_across_a_blocking_call() {
        let m = Mutex::new(BLOCKS, ());
        let _g = m.lock();
        blocking("test sleep");
    }

    #[test]
    fn a_released_guard_does_not_count() {
        let m = Mutex::new(MID, ());
        drop(m.lock());
        blocking("test sleep");
    }

    #[test]
    fn a_try_locked_guard_counts_as_held() {
        let m = Mutex::new(MID, ());
        let msg = panic_message(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || {
                let _g = m.try_lock().expect("uncontended");
                blocking("test sleep");
            },
        )));
        assert!(msg.contains("test.mid"), "got: {msg}");
    }

    #[test]
    fn a_condvar_wait_on_its_own_guard_passes() {
        let m = Mutex::new(MID, ());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv
            .wait_for(&mut g, std::time::Duration::from_millis(1))
            .timed_out());
    }

    #[test]
    fn a_condvar_wait_with_another_guard_held_panics() {
        let outer = Mutex::new(LOW, ());
        let m = Mutex::new(MID, ());
        let cv = Condvar::new();
        let msg = panic_message(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || {
                let _o = outer.lock();
                let mut g = m.lock();
                cv.wait_for(&mut g, std::time::Duration::from_millis(1));
            },
        )));
        assert!(msg.contains("Condvar::wait_for"), "got: {msg}");
        assert!(msg.contains("test.low"), "got: {msg}");
        assert!(!msg.contains("test.mid"), "its own guard is exempt: {msg}");
    }

    #[test]
    fn joining_a_spawned_thread_is_a_blocking_call() {
        let m = Mutex::new(MID, ());
        let idle = spawn("test-idle", || 7).expect("spawn");
        let msg = panic_message(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || {
                let _g = m.lock();
                let _ = idle.join();
            },
        )));
        assert!(msg.contains("thread join"), "got: {msg}");
        let joined = spawn("test-idle", || 7).expect("spawn").join();
        assert_eq!(joined.expect("no panic"), 7);
    }

    #[test]
    fn tracking_is_per_thread() {
        let a = Mutex::new(HIGH, ());
        let _ga = a.lock();
        // Another thread is free to take a lower rank.
        let b = std::sync::Arc::new(Mutex::new(LOW, ()));
        let b2 = b.clone();
        std::thread::spawn(move || {
            let _gb = b2.lock();
        })
        .join()
        .expect("no cross-thread false positive");
    }
}

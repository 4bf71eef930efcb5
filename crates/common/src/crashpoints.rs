//! Named crash points for crash-faithful failure injection.
//!
//! Production code on the tiering write path *fires* named crash points at
//! the moments a real process crash would be most damaging (mid-frame
//! append, between journal write and ack, mid-flush, mid-chunk-roll,
//! mid-checkpoint, mid-seal). A [`CrashHook`] decides whether the crash
//! actually happens: in production it is permanently disarmed (a `None`
//! behind an `Option`, so firing is a branch on a null pointer), while the
//! `pravega-faults` crate arms it with a seeded schedule.
//!
//! Arming (`CrashHook::armed`) is reserved to `pravega-faults` — a clippy
//! `disallowed-methods` entry everywhere else — so production code can
//! observe crash points but can never *depend* on the crash machinery.

use std::fmt;
use std::sync::Arc;

/// Crash point: the bookie journal thread has written part of a record but
/// not synced it — the on-disk journal holds a torn write.
pub const WAL_JOURNAL_MID_WRITE: &str = "wal.journal.mid_write";

/// Crash point: the bookie journal thread wrote and synced the record but
/// crashed before completing the ack — durable on this bookie, unacked.
pub const WAL_JOURNAL_WRITE_NO_ACK: &str = "wal.journal.write_no_ack";

/// Crash point: the durable-log builder sealed a frame but the process died
/// mid-append — a torn prefix of the frame may reach the WAL.
pub const SEGMENTSTORE_DURABLELOG_MID_FRAME: &str = "segmentstore.durablelog.mid_frame";

/// Crash point: the storage writer landed bytes in LTS but crashed before
/// updating its flush bookkeeping.
pub const SEGMENTSTORE_STORAGEWRITER_MID_FLUSH: &str = "segmentstore.storagewriter.mid_flush";

/// Crash point: the container crashed between deciding to checkpoint and
/// making the checkpoint durable.
pub const SEGMENTSTORE_CONTAINER_MID_CHECKPOINT: &str = "segmentstore.container.mid_checkpoint";

/// Crash point: a seal was durably logged but the process crashed before
/// acknowledging it (e.g. mid-seal during a scale event).
pub const SEGMENTSTORE_CONTAINER_MID_SEAL: &str = "segmentstore.container.mid_seal";

/// Crash point: LTS created a new chunk object but crashed before the
/// metadata commit that references it.
pub const LTS_SEGMENT_MID_CHUNK_ROLL: &str = "lts.segment.mid_chunk_roll";

/// Every crash point, in firing-site order (WAL → durable log → storage
/// writer → container → LTS). Used by schedules and tests to enumerate the
/// matrix.
pub const ALL_CRASH_POINTS: &[&str] = &[
    WAL_JOURNAL_MID_WRITE,
    WAL_JOURNAL_WRITE_NO_ACK,
    SEGMENTSTORE_DURABLELOG_MID_FRAME,
    SEGMENTSTORE_STORAGEWRITER_MID_FLUSH,
    SEGMENTSTORE_CONTAINER_MID_CHECKPOINT,
    SEGMENTSTORE_CONTAINER_MID_SEAL,
    LTS_SEGMENT_MID_CHUNK_ROLL,
];

/// A decision function for named crash points.
///
/// Disarmed by default (and in all production wiring): [`CrashHook::fire`]
/// returns `false` without any work. Armed hooks consult a schedule — in
/// this workspace always a seeded `pravega_faults::FaultPlan` — and return
/// `true` when the process should behave as if it crashed at that point.
#[derive(Clone, Default)]
pub struct CrashHook {
    inner: Option<Arc<dyn Fn(&'static str) -> bool + Send + Sync>>,
}

impl CrashHook {
    /// A hook that never fires. This is the production state.
    pub fn disarmed() -> Self {
        Self::default()
    }

    /// Arms a hook with a decision function.
    ///
    /// Only `pravega-faults` may call this (clippy `disallowed-methods`):
    /// the sanctioned way for test code to obtain an armed hook is
    /// `FaultPlan::crash_hook`.
    pub fn armed(decide: impl Fn(&'static str) -> bool + Send + Sync + 'static) -> Self {
        Self {
            inner: Some(Arc::new(decide)),
        }
    }

    /// Consults the schedule for the named crash `point`.
    ///
    /// Returns `true` when the caller should abandon the operation as a
    /// simulated crash. Disarmed hooks always return `false`.
    pub fn fire(&self, point: &'static str) -> bool {
        match &self.inner {
            Some(decide) => decide(point),
            None => false,
        }
    }

    /// Whether this hook has a schedule attached.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }
}

impl fmt::Debug for CrashHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashHook")
            .field("armed", &self.is_armed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn disarmed_hook_never_fires() {
        let hook = CrashHook::disarmed();
        assert!(!hook.is_armed());
        for point in ALL_CRASH_POINTS {
            assert!(!hook.fire(point));
        }
        // Default is the disarmed state.
        assert!(!CrashHook::default().is_armed());
    }

    #[test]
    fn armed_hook_consults_the_decision_function() {
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let hook = CrashHook::armed(move |point| {
            calls2.fetch_add(1, Ordering::SeqCst);
            point == WAL_JOURNAL_MID_WRITE
        });
        assert!(hook.is_armed());
        assert!(hook.fire(WAL_JOURNAL_MID_WRITE));
        assert!(!hook.fire(WAL_JOURNAL_WRITE_NO_ACK));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn clones_share_the_schedule() {
        let hook = CrashHook::armed(|_| true);
        let clone = hook.clone();
        assert!(clone.fire(LTS_SEGMENT_MID_CHUNK_ROLL));
    }

    #[test]
    fn debug_shows_armed_state_only() {
        assert_eq!(
            format!("{:?}", CrashHook::disarmed()),
            "CrashHook { armed: false }"
        );
        assert_eq!(
            format!("{:?}", CrashHook::armed(|_| false)),
            "CrashHook { armed: true }"
        );
    }
}

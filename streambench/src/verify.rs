//! The correctness check every workload ends with: each acked event is read
//! exactly once, and each routing key's events come back in the order they
//! were written.

use crate::event::{EventHeader, KEY_COUNT};

/// What one writer offered and what the system acknowledged.
#[derive(Debug, Clone, Default)]
pub struct WriterLedger {
    /// `acked[seq]` for every event the writer handed over, in send order.
    pub acked: Vec<bool>,
}

/// Everything that can be wrong with a read-back, as counts of events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Offered but never acknowledged (or acknowledged with an error).
    pub unacked: u64,
    /// Acknowledged but not read back.
    pub missing: u64,
    /// Read back more than once.
    pub duplicated: u64,
    /// Read back behind a later event of the same writer and key.
    pub reordered: u64,
    /// Read back with an unknown writer or sequence, or a damaged payload.
    pub corrupt: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.unacked + self.missing + self.duplicated + self.reordered + self.corrupt
    }

    pub fn add(&mut self, other: Verdict) {
        self.unacked += other.unacked;
        self.missing += other.missing;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.corrupt += other.corrupt;
    }
}

/// Accumulates one read-back of a stream.
#[derive(Debug)]
pub struct Verifier {
    /// Times each `(writer, seq)` was read.
    seen: Vec<Vec<u8>>,
    /// Highest seq read so far per `(writer, key)`.
    last: Vec<Vec<Option<u64>>>,
    verdict: Verdict,
}

impl Verifier {
    /// `offered[w]` is how many events writer `w` handed over.
    pub fn new(offered: &[usize]) -> Self {
        Verifier {
            seen: offered.iter().map(|&n| vec![0u8; n]).collect(),
            last: offered
                .iter()
                .map(|_| vec![None; KEY_COUNT as usize])
                .collect(),
            verdict: Verdict::default(),
        }
    }

    /// Feeds one event in the order the reader delivered it. `None` is a
    /// payload that failed [`crate::event::EventFactory::parse`].
    pub fn observe(&mut self, header: Option<EventHeader>) {
        let Some(h) = header else {
            self.verdict.corrupt += 1;
            return;
        };
        let slot = self
            .seen
            .get_mut(h.writer as usize)
            .and_then(|w| w.get_mut(h.seq as usize));
        let (Some(count), true) = (slot, h.key < KEY_COUNT) else {
            self.verdict.corrupt += 1;
            return;
        };
        *count = count.saturating_add(1);
        if *count > 1 {
            self.verdict.duplicated += 1;
            return;
        }
        let last = &mut self.last[h.writer as usize][h.key as usize];
        match *last {
            Some(prev) if prev >= h.seq => self.verdict.reordered += 1,
            _ => *last = Some(h.seq),
        }
    }

    /// Closes the read-back against what was acknowledged. With
    /// `complete = false` (a replay cut short by the clock) events not read
    /// are not counted as missing.
    pub fn finish(mut self, ledgers: &[WriterLedger], complete: bool) -> Verdict {
        for (w, ledger) in ledgers.iter().enumerate() {
            for (seq, &acked) in ledger.acked.iter().enumerate() {
                if !acked {
                    self.verdict.unacked += 1;
                } else if complete && self.seen[w][seq] == 0 {
                    self.verdict.missing += 1;
                }
            }
        }
        self.verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(writer: u32, key: u32, seq: u64) -> Option<EventHeader> {
        Some(EventHeader {
            writer,
            key,
            seq,
            created_ns: 0,
        })
    }

    fn all_acked(n: usize) -> Vec<WriterLedger> {
        vec![WriterLedger {
            acked: vec![true; n],
        }]
    }

    #[test]
    fn clean_history_passes() {
        let mut v = Verifier::new(&[4]);
        // Keys interleave; each key's own order is kept.
        for (key, seq) in [(1, 0), (2, 1), (1, 2), (2, 3)] {
            v.observe(h(0, key, seq));
        }
        assert_eq!(v.finish(&all_acked(4), true), Verdict::default());
    }

    #[test]
    fn dropped_event_is_reported() {
        let mut v = Verifier::new(&[3]);
        v.observe(h(0, 1, 0));
        v.observe(h(0, 1, 2));
        let verdict = v.finish(&all_acked(3), true);
        assert_eq!(verdict.missing, 1);
        assert_eq!(verdict.failed(), 1);
    }

    #[test]
    fn duplicated_event_is_reported() {
        let mut v = Verifier::new(&[2]);
        v.observe(h(0, 1, 0));
        v.observe(h(0, 1, 1));
        v.observe(h(0, 1, 1));
        let verdict = v.finish(&all_acked(2), true);
        assert_eq!(verdict.duplicated, 1);
        assert_eq!(verdict.failed(), 1);
    }

    #[test]
    fn reordered_event_is_reported() {
        let mut v = Verifier::new(&[3]);
        v.observe(h(0, 5, 0));
        v.observe(h(0, 5, 2));
        v.observe(h(0, 5, 1));
        let verdict = v.finish(&all_acked(3), true);
        assert_eq!(verdict.reordered, 1);
        assert_eq!(verdict.missing, 0);
        // The same seqs on different keys are not a reorder.
        let mut v = Verifier::new(&[3]);
        v.observe(h(0, 5, 0));
        v.observe(h(0, 5, 2));
        v.observe(h(0, 6, 1));
        assert_eq!(v.finish(&all_acked(3), true), Verdict::default());
    }

    #[test]
    fn unacked_unknown_and_damaged_events_count() {
        let mut v = Verifier::new(&[2]);
        v.observe(h(0, 1, 0));
        v.observe(h(0, 1, 9)); // seq never offered
        v.observe(h(3, 1, 0)); // writer never existed
        v.observe(None); // payload failed its own check
        let ledger = vec![WriterLedger {
            acked: vec![true, false],
        }];
        let verdict = v.finish(&ledger, true);
        assert_eq!(verdict.corrupt, 3);
        assert_eq!(verdict.unacked, 1);
        // An un-acked event that was not read is not also "missing".
        assert_eq!(verdict.missing, 0);
    }

    #[test]
    fn a_replay_cut_short_is_not_missing_events() {
        let mut v = Verifier::new(&[3]);
        v.observe(h(0, 1, 0));
        assert_eq!(v.finish(&all_acked(3), false), Verdict::default());
    }
}

//! Table segments: the key-value API built on top of segments.
//!
//! Pravega stores its own metadata — stream metadata at the control plane and
//! LTS chunk metadata — in key-value tables backed by segments (§2.2, §4.3).
//! Updates are conditional on per-key versions and multi-key updates are
//! atomic, which is what guarantees metadata consistency under concurrency.
//!
//! A table segment's authoritative state is the sequence of `TableUpdate` /
//! `TableRemove` operations in the container's WAL; this module holds the
//! materialized index. Contents are included in metadata checkpoints so the
//! WAL can be truncated.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::error::SegmentError;
use crate::operations::TableEntryUpdate;

/// Version a caller passes to require that a key **not** exist.
pub const VERSION_NOT_EXISTS: i64 = -1;

/// Materialized state of one table segment.
#[derive(Debug, Default, Clone)]
pub struct TableState {
    entries: BTreeMap<Bytes, (Bytes, i64)>,
}

impl TableState {
    /// Creates an empty table.
    pub const fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// Rebuilds a table from snapshot entries.
    pub fn from_entries(entries: Vec<(Bytes, Bytes, i64)>) -> Self {
        Self {
            entries: entries
                .into_iter()
                .map(|(k, v, ver)| (k, (v, ver)))
                .collect(),
        }
    }

    /// Point read: `(value, version)`.
    pub fn get(&self, key: &[u8]) -> Option<(Bytes, i64)> {
        self.entries.get(key).cloned()
    }

    /// Current version of a key, or [`VERSION_NOT_EXISTS`].
    pub fn version(&self, key: &[u8]) -> i64 {
        self.entries
            .get(key)
            .map(|(_, v)| *v)
            .unwrap_or(VERSION_NOT_EXISTS)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Validates expected versions for a batch (all-or-nothing semantics).
    ///
    /// `effective_version` lets the caller overlay pending (not yet
    /// committed) versions on top of this committed state.
    ///
    /// # Errors
    ///
    /// [`SegmentError::TableKeyBadVersion`] on the first mismatch.
    pub fn check_versions<'a>(
        &self,
        checks: impl Iterator<Item = (&'a [u8], Option<i64>)>,
        effective_version: impl Fn(&[u8]) -> Option<i64>,
    ) -> Result<(), SegmentError> {
        for (key, expected) in checks {
            if let Some(expected) = expected {
                let actual = effective_version(key).unwrap_or_else(|| self.version(key));
                if actual != expected {
                    return Err(SegmentError::TableKeyBadVersion);
                }
            }
        }
        Ok(())
    }

    /// Applies a committed `TableUpdate`: every key gets version `version`.
    pub fn apply_update(&mut self, version: i64, entries: &[TableEntryUpdate]) {
        for e in entries {
            self.entries
                .insert(e.key.clone(), (e.value.clone(), version));
        }
    }

    /// Applies a committed `TableRemove`.
    pub fn apply_remove(&mut self, keys: &[Bytes]) {
        for k in keys {
            self.entries.remove(k);
        }
    }

    /// Iterates entries with keys strictly greater than `after` (or from the
    /// start), returning up to `limit` plus a continuation key.
    pub fn iterate(
        &self,
        after: Option<&Bytes>,
        limit: usize,
    ) -> (Vec<(Bytes, Bytes, i64)>, Option<Bytes>) {
        let iter: Box<dyn Iterator<Item = (&Bytes, &(Bytes, i64))>> = match after {
            Some(k) => Box::new(
                self.entries
                    .range::<Bytes, _>((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded)),
            ),
            None => Box::new(self.entries.iter()),
        };
        let mut out = Vec::new();
        for (k, (v, ver)) in iter.take(limit) {
            out.push((k.clone(), v.clone(), *ver));
        }
        let continuation = if out.len() == limit {
            out.last().map(|(k, _, _)| k.clone())
        } else {
            None
        };
        (out, continuation)
    }

    /// Full contents for checkpoint snapshots.
    pub fn snapshot_entries(&self) -> Vec<(Bytes, Bytes, i64)> {
        self.entries
            .iter()
            .map(|(k, (v, ver))| (k.clone(), v.clone(), *ver))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(key: &str, value: &str) -> TableEntryUpdate {
        TableEntryUpdate {
            key: Bytes::copy_from_slice(key.as_bytes()),
            value: Bytes::copy_from_slice(value.as_bytes()),
        }
    }

    #[test]
    fn update_get_remove_roundtrip() {
        let mut t = TableState::new();
        t.apply_update(5, &[upd("a", "1"), upd("b", "2")]);
        assert_eq!(t.get(b"a"), Some((Bytes::from_static(b"1"), 5)));
        assert_eq!(t.version(b"b"), 5);
        assert_eq!(t.version(b"missing"), VERSION_NOT_EXISTS);
        t.apply_remove(&[Bytes::from_static(b"a")]);
        assert_eq!(t.get(b"a"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn version_checks_enforce_preconditions() {
        let mut t = TableState::new();
        t.apply_update(3, &[upd("k", "v")]);
        // Expect-exists with right version passes.
        t.check_versions([(b"k".as_ref(), Some(3))].into_iter(), |_| None)
            .unwrap();
        // Wrong version fails.
        assert_eq!(
            t.check_versions([(b"k".as_ref(), Some(2))].into_iter(), |_| None),
            Err(SegmentError::TableKeyBadVersion)
        );
        // Not-exists on an existing key fails.
        assert_eq!(
            t.check_versions(
                [(b"k".as_ref(), Some(VERSION_NOT_EXISTS))].into_iter(),
                |_| None
            ),
            Err(SegmentError::TableKeyBadVersion)
        );
        // Not-exists on a missing key passes.
        t.check_versions(
            [(b"new".as_ref(), Some(VERSION_NOT_EXISTS))].into_iter(),
            |_| None,
        )
        .unwrap();
        // Unconditional always passes.
        t.check_versions([(b"k".as_ref(), None)].into_iter(), |_| None)
            .unwrap();
    }

    #[test]
    fn pending_overlay_takes_precedence() {
        let mut t = TableState::new();
        t.apply_update(3, &[upd("k", "v")]);
        // A pending (uncommitted) update bumped the key to version 7.
        let overlay = |key: &[u8]| if key == b"k" { Some(7i64) } else { None };
        assert_eq!(
            t.check_versions([(b"k".as_ref(), Some(3))].into_iter(), overlay),
            Err(SegmentError::TableKeyBadVersion)
        );
        t.check_versions([(b"k".as_ref(), Some(7))].into_iter(), overlay)
            .unwrap();
    }

    #[test]
    fn iterate_pages_in_key_order() {
        let mut t = TableState::new();
        for i in 0..10 {
            t.apply_update(i, &[upd(&format!("key-{i}"), "v")]);
        }
        let (page1, cont) = t.iterate(None, 4);
        assert_eq!(page1.len(), 4);
        assert_eq!(page1[0].0.as_ref(), b"key-0");
        let cont = cont.unwrap();
        let (page2, _) = t.iterate(Some(&cont), 4);
        assert_eq!(page2[0].0.as_ref(), b"key-4");
        // Exhausting returns no continuation.
        let (all, done) = t.iterate(None, 100);
        assert_eq!(all.len(), 10);
        assert!(done.is_none());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut t = TableState::new();
        t.apply_update(1, &[upd("a", "1"), upd("b", "2")]);
        let restored = TableState::from_entries(t.snapshot_entries());
        assert_eq!(restored.get(b"a"), t.get(b"a"));
        assert_eq!(restored.len(), 2);
    }
}

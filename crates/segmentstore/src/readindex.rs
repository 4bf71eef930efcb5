//! The per-segment read index (§4.2).
//!
//! "The read index provides a complete view of all the data in a segment,
//! both from WAL and LTS, without the reader having to know where such data
//! resides." Entries are indexed by their start offsets in an ordered map
//! (DESIGN.md §2 says why std's B-tree rather than the paper's AVL tree);
//! the data itself lives in the block cache (with a heap fallback when the
//! cache is full — correctness requires that unflushed data stays readable).

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::cache::{BlockCache, CacheAddress, CacheError};

/// Where an index entry's bytes live.
#[derive(Debug)]
enum Location {
    /// In the block cache, addressed by the entry's last block.
    Cache(CacheAddress),
    /// Pinned on the heap (cache was full when the data arrived).
    Heap(Bytes),
}

/// One contiguous range of segment bytes known to the index.
#[derive(Debug)]
struct IndexEntry {
    length: u64,
    location: Location,
    /// When the entry was last written or read, by the cache's use clock
    /// ([`BlockCache::touch`]): one order across every index on that cache.
    touched: u64,
}

/// Outcome of a read-index lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum IndexRead {
    /// Bytes found, starting exactly at the requested offset.
    Hit(Bytes),
    /// The offset is not resident; fetch from LTS (a cache miss, §4.2).
    Miss,
}

/// The read index of a single segment.
#[derive(Debug, Default)]
pub struct ReadIndex {
    entries: BTreeMap<u64, IndexEntry>,
    /// Bytes resident (cache + heap).
    resident_bytes: u64,
    /// Bytes resident on the heap (fallback).
    heap_bytes: u64,
}

/// Maximum bytes a single cache entry may hold before the index starts a new
/// one. Bounds the work of entry reassembly on reads.
const MAX_ENTRY_BYTES: u64 = 1024 * 1024;

impl ReadIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Bytes resident on the heap fallback.
    pub fn heap_bytes(&self) -> u64 {
        self.heap_bytes
    }

    /// Number of index entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Records freshly appended tail bytes at `offset`. Appends to the last
    /// entry when contiguous and under the size cap; otherwise starts a new
    /// entry. Data that cannot enter the cache is pinned on the heap.
    pub fn append(&mut self, cache: &mut BlockCache, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        if let Some((key, entry)) = self.entries.iter_mut().next_back() {
            let end = key + entry.length;
            if end == offset && entry.length + (data.len() as u64) <= MAX_ENTRY_BYTES {
                // O(1) append to the entry's last block chain (Figure 4).
                if let Location::Cache(addr) = entry.location {
                    match cache.append(addr, data) {
                        Ok(new_addr) => {
                            entry.location = Location::Cache(new_addr);
                            entry.length += data.len() as u64;
                            entry.touched = cache.touch();
                            self.resident_bytes += data.len() as u64;
                            return;
                        }
                        Err(CacheError::CacheFull) => { /* fall through: new entry */ }
                        Err(_) => { /* stale address: fall through */ }
                    }
                }
            }
        }
        self.insert_entry(cache, offset, data);
    }

    /// Inserts bytes fetched from LTS (cache fill after a miss). The fill
    /// never overlaps a resident entry: one that covers `offset` keeps the
    /// fill out altogether, one that starts further up cuts the fill short.
    pub fn insert_from_storage(&mut self, cache: &mut BlockCache, offset: u64, data: &[u8]) {
        if let Some((key, entry)) = self.entries.range(..=offset).next_back() {
            if key + entry.length > offset {
                return; // keep the authoritative resident copy
            }
        }
        let gap = match self.entries.range(offset..).next() {
            Some((key, _)) => ((key - offset) as usize).min(data.len()),
            None => data.len(),
        };
        if gap == 0 {
            return;
        }
        self.insert_entry(cache, offset, &data[..gap]);
    }

    fn insert_entry(&mut self, cache: &mut BlockCache, offset: u64, data: &[u8]) {
        let location = match cache.insert(data) {
            Ok(addr) => Location::Cache(addr),
            Err(_) => {
                self.heap_bytes += data.len() as u64;
                cache.overflowed(data.len());
                Location::Heap(Bytes::copy_from_slice(data))
            }
        };
        self.resident_bytes += data.len() as u64;
        self.entries.insert(
            offset,
            IndexEntry {
                length: data.len() as u64,
                location,
                touched: cache.touch(),
            },
        );
    }

    /// Reads up to `max_len` bytes at `offset`. Returns at most one entry's
    /// worth of data (callers loop); `Miss` means the data must come from
    /// LTS.
    pub fn read(&mut self, cache: &BlockCache, offset: u64, max_len: usize) -> IndexRead {
        let Some((key, entry)) = self.entries.range_mut(..=offset).next_back() else {
            return IndexRead::Miss;
        };
        let end = key + entry.length;
        if offset >= end {
            return IndexRead::Miss;
        }
        let start = (offset - key) as usize;
        let slice = match &entry.location {
            Location::Cache(addr) => match cache.get_range(*addr, start, max_len) {
                Ok(b) => b,
                Err(_) => return IndexRead::Miss,
            },
            Location::Heap(b) => b.slice(start..start.saturating_add(max_len).min(b.len())),
        };
        entry.touched = cache.touch();
        IndexRead::Hit(slice)
    }

    /// Drops all entries that end at or below `offset` (safe once that data
    /// is flushed to LTS, or gone after truncation). Returns bytes freed.
    pub fn evict_below(&mut self, cache: &mut BlockCache, offset: u64) -> u64 {
        let doomed: Vec<u64> = self
            .entries
            .iter()
            .filter(|(k, e)| *k + e.length <= offset)
            .map(|(k, _)| *k)
            .collect();
        self.remove_all(cache, doomed)
    }

    /// `(last touch, length)` of every entry ending at or below
    /// `flushed_offset`: the ones that may leave the cache. Entries above it
    /// never may (their bytes exist nowhere else).
    pub fn evictable(&self, flushed_offset: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries
            .iter()
            .filter(move |(k, e)| *k + e.length <= flushed_offset)
            .map(|(_, e)| (e.touched, e.length))
    }

    /// Drops every evictable entry (see [`ReadIndex::evictable`]) last
    /// touched at or before `cutoff`. Returns bytes freed.
    pub fn evict_through(
        &mut self,
        cache: &mut BlockCache,
        flushed_offset: u64,
        cutoff: u64,
    ) -> u64 {
        let doomed: Vec<u64> = self
            .entries
            .iter()
            .filter(|(k, e)| *k + e.length <= flushed_offset && e.touched <= cutoff)
            .map(|(k, _)| *k)
            .collect();
        self.remove_all(cache, doomed)
    }

    fn remove_all(&mut self, cache: &mut BlockCache, keys: Vec<u64>) -> u64 {
        let mut freed = 0;
        for key in keys {
            if let Some(entry) = self.entries.remove(&key) {
                freed += entry.length;
                self.release(cache, &entry);
            }
        }
        self.resident_bytes -= freed;
        freed
    }

    fn release(&mut self, cache: &mut BlockCache, entry: &IndexEntry) {
        match &entry.location {
            Location::Cache(addr) => {
                let _ = cache.delete(*addr);
            }
            Location::Heap(b) => {
                self.heap_bytes -= b.len() as u64;
                cache.overflow_released(b.len());
            }
        }
    }

    /// Removes everything (segment deletion).
    pub fn clear(&mut self, cache: &mut BlockCache) {
        self.evict_below(cache, u64::MAX);
    }
}

/// Which entries leave a cache shared by several indexes: given every
/// index's [`ReadIndex::evictable`] entries, the touch stamp up to which they
/// must be dropped ([`ReadIndex::evict_through`]) to free `target_bytes`,
/// least recently used first and not one entry more. `None`: nothing to drop.
pub fn lru_cutoff(evictable: impl Iterator<Item = (u64, u64)>, target_bytes: u64) -> Option<u64> {
    let mut by_age: Vec<(u64, u64)> = evictable.collect();
    by_age.sort_unstable();
    let mut freed = 0u64;
    let mut cutoff = None;
    for (touched, length) in by_age {
        if freed >= target_bytes {
            break;
        }
        freed += length;
        cutoff = Some(touched);
    }
    cutoff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn cache() -> BlockCache {
        BlockCache::new(CacheConfig {
            block_size: 64,
            blocks_per_buffer: 16,
            max_buffers: 16,
        })
    }

    #[test]
    fn tail_appends_coalesce_into_one_entry() {
        let mut c = cache();
        let mut idx = ReadIndex::new();
        idx.append(&mut c, 0, b"hello ");
        idx.append(&mut c, 6, b"world");
        assert_eq!(idx.entry_count(), 1);
        match idx.read(&c, 0, 100) {
            IndexRead::Hit(b) => assert_eq!(b.as_ref(), b"hello world"),
            other => panic!("unexpected {other:?}"),
        }
        match idx.read(&c, 6, 3) {
            IndexRead::Hit(b) => assert_eq!(b.as_ref(), b"wor"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_contiguous_appends_create_new_entries() {
        let mut c = cache();
        let mut idx = ReadIndex::new();
        idx.append(&mut c, 0, b"aaa");
        idx.append(&mut c, 10, b"bbb"); // gap [3, 10)
        assert_eq!(idx.entry_count(), 2);
        assert_eq!(idx.read(&c, 5, 2), IndexRead::Miss);
        match idx.read(&c, 10, 3) {
            IndexRead::Hit(b) => assert_eq!(b.as_ref(), b"bbb"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn miss_below_and_storage_fill() {
        let mut c = cache();
        let mut idx = ReadIndex::new();
        idx.append(&mut c, 100, b"tail-data");
        assert_eq!(idx.read(&c, 0, 10), IndexRead::Miss);
        idx.insert_from_storage(&mut c, 0, b"cold-data!");
        match idx.read(&c, 0, 10) {
            IndexRead::Hit(b) => assert_eq!(b.as_ref(), b"cold-data!"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn storage_fill_never_overlaps_resident_data() {
        let mut c = cache();
        let mut idx = ReadIndex::new();
        idx.append(&mut c, 10, b"fresh");
        idx.insert_from_storage(&mut c, 8, b"stale-overlap");
        // The overlapping fill is rejected; resident data intact.
        match idx.read(&c, 10, 5) {
            IndexRead::Hit(b) => assert_eq!(b.as_ref(), b"fresh"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn storage_fill_stops_at_the_next_resident_entry() {
        let mut c = cache();
        let mut idx = ReadIndex::new();
        idx.append(&mut c, 10, b"fresh");
        // A fill that starts in the gap below resident data keeps its part
        // of the gap and leaves the resident bytes alone.
        idx.insert_from_storage(&mut c, 4, b"456789STALE");
        match idx.read(&c, 4, 100) {
            IndexRead::Hit(b) => assert_eq!(b.as_ref(), b"456789"),
            other => panic!("unexpected {other:?}"),
        }
        match idx.read(&c, 10, 5) {
            IndexRead::Hit(b) => assert_eq!(b.as_ref(), b"fresh"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(idx.resident_bytes(), 11);
    }

    #[test]
    fn evict_below_frees_only_flushed_data() {
        let mut c = cache();
        let mut idx = ReadIndex::new();
        idx.append(&mut c, 0, &[1u8; 100]);
        idx.append(&mut c, 100, &[2u8; 100]);
        // Force a second entry.
        idx.insert_from_storage(&mut c, 300, &[3u8; 50]);
        let before = idx.resident_bytes();
        assert_eq!(before, 250);
        let freed = idx.evict_below(&mut c, 200);
        assert_eq!(freed, 200);
        assert_eq!(idx.read(&c, 0, 10), IndexRead::Miss);
        match idx.read(&c, 300, 50) {
            IndexRead::Hit(b) => assert_eq!(b.len(), 50),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// What the container does when the cache is over its watermark.
    fn evict_lru(
        cache: &mut BlockCache,
        indexes: &mut [(&mut ReadIndex, u64)],
        target_bytes: u64,
    ) -> u64 {
        let evictable = indexes
            .iter()
            .flat_map(|(idx, flushed)| idx.evictable(*flushed));
        let Some(cutoff) = lru_cutoff(evictable, target_bytes) else {
            return 0;
        };
        indexes
            .iter_mut()
            .map(|(idx, flushed)| idx.evict_through(cache, *flushed, cutoff))
            .sum()
    }

    #[test]
    fn evict_lru_respects_flush_boundary() {
        let mut c = cache();
        let mut idx = ReadIndex::new();
        idx.insert_from_storage(&mut c, 0, &[0u8; 100]);
        idx.insert_from_storage(&mut c, 200, &[1u8; 100]);
        idx.insert_from_storage(&mut c, 400, &[2u8; 100]);
        // The unflushed entry is the least recently used of the three.
        let _ = idx.read(&c, 0, 1);
        let _ = idx.read(&c, 200, 1);
        // Only data below 300 is flushed; ask for everything.
        let freed = evict_lru(&mut c, &mut [(&mut idx, 300)], u64::MAX);
        assert_eq!(freed, 200);
        assert_eq!(idx.resident_bytes(), 100);
        assert_eq!(c.used_bytes(), 100);
        match idx.read(&c, 400, 10) {
            IndexRead::Hit(_) => {}
            other => panic!("unflushed data must stay resident, got {other:?}"),
        }
        // Nothing evictable is left: there is no cutoff to evict through.
        assert_eq!(lru_cutoff(idx.evictable(300), u64::MAX), None);
    }

    #[test]
    fn evict_lru_prefers_cold_entries() {
        let mut c = cache();
        let mut idx = ReadIndex::new();
        idx.insert_from_storage(&mut c, 0, &[0u8; 100]);
        idx.insert_from_storage(&mut c, 200, &[1u8; 100]);
        // Touch the first entry to make it hot.
        let _ = idx.read(&c, 0, 1);
        let freed = evict_lru(&mut c, &mut [(&mut idx, u64::MAX)], 100);
        assert_eq!(freed, 100, "eviction stops at the target");
        // The hot entry survived.
        match idx.read(&c, 0, 1) {
            IndexRead::Hit(_) => {}
            other => panic!("hot entry evicted: {other:?}"),
        }
        assert_eq!(idx.read(&c, 200, 1), IndexRead::Miss);
    }

    #[test]
    fn evict_lru_orders_entries_across_the_indexes_of_one_cache() {
        let mut c = cache();
        let (mut a, mut b) = (ReadIndex::new(), ReadIndex::new());
        // Filled a, b, a, b; then a's oldest entry is read again.
        a.insert_from_storage(&mut c, 0, &[0u8; 100]);
        b.insert_from_storage(&mut c, 0, &[1u8; 100]);
        a.insert_from_storage(&mut c, 200, &[2u8; 100]);
        b.insert_from_storage(&mut c, 200, &[3u8; 100]);
        let _ = a.read(&c, 0, 1);
        // 150 bytes take the two least recently used entries, whichever
        // index they are in, and not a third.
        let freed = evict_lru(&mut c, &mut [(&mut a, u64::MAX), (&mut b, u64::MAX)], 150);
        assert_eq!(freed, 200);
        assert_eq!(b.read(&c, 0, 1), IndexRead::Miss, "oldest");
        assert_eq!(a.read(&c, 200, 1), IndexRead::Miss, "second oldest");
        assert!(matches!(b.read(&c, 200, 1), IndexRead::Hit(_)));
        assert!(matches!(a.read(&c, 0, 1), IndexRead::Hit(_)), "re-read");
        assert_eq!((a.resident_bytes(), b.resident_bytes()), (100, 100));
    }

    #[test]
    fn heap_fallback_when_cache_full() {
        // A cache too small for the data: index must still serve it.
        let mut c = BlockCache::new(CacheConfig {
            block_size: 16,
            blocks_per_buffer: 2,
            max_buffers: 1,
        }); // capacity: 16 bytes
        let mut idx = ReadIndex::new();
        idx.append(&mut c, 0, &[7u8; 100]);
        assert!(idx.heap_bytes() > 0, "expected heap fallback");
        match idx.read(&c, 50, 10) {
            IndexRead::Hit(b) => assert_eq!(b.as_ref(), &[7u8; 10][..]),
            other => panic!("unexpected {other:?}"),
        }
        // Eviction releases heap bytes too.
        idx.clear(&mut c);
        assert_eq!(idx.heap_bytes(), 0);
        assert_eq!(idx.resident_bytes(), 0);
    }

    #[test]
    fn entry_size_cap_rolls_entries() {
        let mut c = BlockCache::new(CacheConfig {
            block_size: 4096,
            blocks_per_buffer: 64,
            max_buffers: 64,
        });
        let mut idx = ReadIndex::new();
        let chunk = vec![0u8; 512 * 1024];
        idx.append(&mut c, 0, &chunk);
        idx.append(&mut c, chunk.len() as u64, &chunk);
        idx.append(&mut c, 2 * chunk.len() as u64, &chunk);
        assert!(idx.entry_count() >= 2, "1.5MB must span >= 2 entries");
    }

    #[test]
    fn read_across_entry_boundary_returns_short() {
        let mut c = cache();
        let mut idx = ReadIndex::new();
        // Tail entry first, then a storage fill right below it: two distinct
        // entries that happen to be contiguous.
        idx.append(&mut c, 5, b"second");
        idx.insert_from_storage(&mut c, 0, b"first");
        assert_eq!(idx.entry_count(), 2);
        // A read spanning the boundary returns only the first entry's part;
        // the caller loops.
        match idx.read(&c, 3, 100) {
            IndexRead::Hit(b) => assert_eq!(b.as_ref(), b"st"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

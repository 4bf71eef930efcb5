//! The block cache of §4.2 / Figure 4, built from scratch for append-heavy
//! workloads.
//!
//! Layout (mirroring the paper):
//!
//! - The cache pre-allocates contiguous **buffers**; each buffer is divided
//!   into equal-sized **blocks** (e.g. a 2 MB buffer holds 512 4 KB blocks).
//! - Every block is addressable with a 32-bit pointer
//!   (`buffer id << 16 | block id`).
//! - Blocks are daisy-chained (each block points to the one *before* it) to
//!   form **cache entries**; the address of an entry is the address of its
//!   *last* block, so appending to an entry is O(1): write into the last
//!   block's spare capacity or chain a fresh block.
//! - Block 0 of every buffer is reserved for metadata (the `M` block in
//!   Figure 4).
//! - Empty blocks are chained into a **per-buffer free list** (a smaller
//!   concurrency domain than one global list), and buffers with free blocks
//!   sit in a queue the allocator pulls from.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{BufMut, Bytes, BytesMut};

/// Errors produced by cache operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// All buffers are allocated and no block is free: evict and retry.
    CacheFull,
    /// The address does not point at a live entry's last block.
    BadAddress,
    /// Appending to this entry would exceed the maximum entry size.
    EntryTooLarge,
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::CacheFull => write!(f, "cache full: eviction required"),
            CacheError::BadAddress => write!(f, "invalid cache address"),
            CacheError::EntryTooLarge => write!(f, "cache entry would exceed maximum size"),
        }
    }
}

impl std::error::Error for CacheError {}

/// A 32-bit block pointer: `buffer id << 16 | block id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheAddress(pub u32);

impl CacheAddress {
    fn new(buffer: u16, block: u16) -> Self {
        Self(((buffer as u32) << 16) | block as u32)
    }

    fn buffer(self) -> u16 {
        (self.0 >> 16) as u16
    }

    fn block(self) -> u16 {
        self.0 as u16
    }
}

impl fmt::Display for CacheAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.buffer(), self.block())
    }
}

/// Cache geometry.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Bytes per block (4 KB in the paper's example).
    pub block_size: usize,
    /// Blocks per buffer, including the reserved metadata block.
    pub blocks_per_buffer: u16,
    /// Maximum number of buffers the cache may allocate.
    pub max_buffers: u16,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 4 KB blocks, 512-block (2 MB) buffers, up to 128 MB of cache.
        Self {
            block_size: 4096,
            blocks_per_buffer: 512,
            max_buffers: 64,
        }
    }
}

impl CacheConfig {
    /// Tiny geometry for tests: easy to fill and evict.
    pub fn small() -> Self {
        Self {
            block_size: 16,
            blocks_per_buffer: 8,
            max_buffers: 4,
        }
    }

    /// Total data capacity in bytes (excludes reserved metadata blocks).
    pub fn capacity_bytes(&self) -> usize {
        self.block_size * (self.blocks_per_buffer as usize - 1) * self.max_buffers as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    used: bool,
    /// Bytes of data in this block.
    length: u16,
    /// Address of the previous block in the entry's chain.
    prev: Option<CacheAddress>,
    /// Next block in the buffer's free list (when unused).
    next_free: Option<u16>,
}

struct Buffer {
    data: Box<[u8]>,
    meta: Vec<BlockMeta>,
    free_head: Option<u16>,
    free_count: u16,
}

impl Buffer {
    fn new(config: &CacheConfig) -> Self {
        let n = config.blocks_per_buffer;
        let mut meta = vec![
            BlockMeta {
                used: false,
                length: 0,
                prev: None,
                next_free: None,
            };
            n as usize
        ];
        // Block 0 is reserved for metadata; chain 1..n into the free list.
        meta[0].used = true;
        for i in 1..n {
            meta[i as usize].next_free = if i + 1 < n { Some(i + 1) } else { None };
        }
        Self {
            data: vec![0u8; config.block_size * n as usize].into_boxed_slice(),
            meta,
            free_head: Some(1),
            free_count: n - 1,
        }
    }

    fn alloc_block(&mut self) -> Option<u16> {
        let block = self.free_head?;
        let next = self.meta[block as usize].next_free;
        self.free_head = next;
        self.free_count -= 1;
        let m = &mut self.meta[block as usize];
        m.used = true;
        m.length = 0;
        m.prev = None;
        m.next_free = None;
        Some(block)
    }

    fn free_block(&mut self, block: u16) {
        let m = &mut self.meta[block as usize];
        m.used = false;
        m.length = 0;
        m.prev = None;
        m.next_free = self.free_head;
        self.free_head = Some(block);
        self.free_count += 1;
    }
}

impl fmt::Debug for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Buffer")
            .field("free_count", &self.free_count)
            .finish()
    }
}

/// The block cache. Not internally synchronized: the container wraps it in a
/// lock (the per-buffer free lists bound how long that lock is held).
#[derive(Debug)]
pub struct BlockCache {
    config: CacheConfig,
    buffers: Vec<Buffer>,
    /// Queue of buffer ids that have free blocks (Figure 4's buffer queue).
    available: VecDeque<u16>,
    /// Whether a buffer id is currently in `available`.
    queued: Vec<bool>,
    used_bytes: usize,
    /// Bytes held on the heap beside the cache: see [`BlockCache::overflowed`].
    overflow_bytes: usize,
    entry_count: usize,
    /// The cache's use clock: see [`BlockCache::touch`].
    touches: AtomicU64,
}

impl BlockCache {
    /// Creates a cache with the given geometry. Buffers are allocated lazily
    /// up to `max_buffers`.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.block_size > 0, "block size must be non-zero");
        assert!(
            config.blocks_per_buffer >= 2,
            "need at least one data block per buffer"
        );
        assert!(config.max_buffers >= 1, "need at least one buffer");
        Self {
            config,
            buffers: Vec::new(),
            available: VecDeque::new(),
            queued: vec![false; config.max_buffers as usize],
            used_bytes: 0,
            overflow_bytes: 0,
            entry_count: 0,
            touches: AtomicU64::new(0),
        }
    }

    /// The next stamp of the cache's use clock (larger = more recent). Every
    /// read index that keeps its data here stamps its entries from it, so
    /// "least recently used" is one order across all the segments that
    /// compete for this cache, not one order per segment.
    pub fn touch(&self) -> u64 {
        self.touches.fetch_add(1, Ordering::Relaxed)
    }

    /// Bytes of entry data currently stored.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Notes `bytes` of index data that a read index holds on the heap
    /// because no block was free when they arrived. The cache does not store
    /// them, but they are memory it answers for: they count toward
    /// [`BlockCache::resident_bytes`], which eviction works down.
    pub fn overflowed(&mut self, bytes: usize) {
        self.overflow_bytes += bytes;
    }

    /// Notes that `bytes` noted by [`BlockCache::overflowed`] were released.
    pub fn overflow_released(&mut self, bytes: usize) {
        self.overflow_bytes = self.overflow_bytes.saturating_sub(bytes);
    }

    /// Bytes of entry data resident: stored in the cache or held on the heap
    /// beside it.
    pub fn resident_bytes(&self) -> usize {
        self.used_bytes + self.overflow_bytes
    }

    /// Number of live entries.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Total data capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.config.capacity_bytes()
    }

    /// Cache utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.used_bytes as f64 / self.capacity_bytes() as f64
    }

    fn alloc_block(&mut self) -> Result<CacheAddress, CacheError> {
        loop {
            match self.available.front().copied() {
                Some(buffer_id) => {
                    let buffer = &mut self.buffers[buffer_id as usize];
                    match buffer.alloc_block() {
                        Some(block) => {
                            if buffer.free_count == 0 {
                                self.available.pop_front();
                                self.queued[buffer_id as usize] = false;
                            }
                            return Ok(CacheAddress::new(buffer_id, block));
                        }
                        None => {
                            self.available.pop_front();
                            self.queued[buffer_id as usize] = false;
                        }
                    }
                }
                None => {
                    if self.buffers.len() >= self.config.max_buffers as usize {
                        return Err(CacheError::CacheFull);
                    }
                    let id = self.buffers.len() as u16;
                    self.buffers.push(Buffer::new(&self.config));
                    self.available.push_back(id);
                    self.queued[id as usize] = true;
                }
            }
        }
    }

    fn mark_available(&mut self, buffer_id: u16) {
        if !self.queued[buffer_id as usize] && self.buffers[buffer_id as usize].free_count > 0 {
            self.available.push_back(buffer_id);
            self.queued[buffer_id as usize] = true;
        }
    }

    fn meta(&self, addr: CacheAddress) -> Option<&BlockMeta> {
        let buffer = self.buffers.get(addr.buffer() as usize)?;
        let meta = buffer.meta.get(addr.block() as usize)?;
        if addr.block() == 0 || !meta.used {
            return None;
        }
        Some(meta)
    }

    fn block_slice_mut(&mut self, addr: CacheAddress) -> &mut [u8] {
        let bs = self.config.block_size;
        let buffer = &mut self.buffers[addr.buffer() as usize];
        let start = addr.block() as usize * bs;
        &mut buffer.data[start..start + bs]
    }

    fn block_slice(&self, addr: CacheAddress) -> &[u8] {
        let bs = self.config.block_size;
        let buffer = &self.buffers[addr.buffer() as usize];
        let start = addr.block() as usize * bs;
        &buffer.data[start..start + bs]
    }

    /// Inserts a new entry, returning its address (the last block's address).
    ///
    /// # Errors
    ///
    /// [`CacheError::CacheFull`] when no block can be allocated; the caller
    /// should evict and retry. A partially-built entry is rolled back.
    pub fn insert(&mut self, data: &[u8]) -> Result<CacheAddress, CacheError> {
        let first = self.alloc_block()?;
        match self.append_to_chain(first, data, 0) {
            Ok(last) => {
                self.entry_count += 1;
                Ok(last)
            }
            Err(e) => {
                self.delete_chain(first);
                Err(e)
            }
        }
    }

    /// Appends to an existing entry; returns the entry's (possibly new)
    /// address.
    ///
    /// # Errors
    ///
    /// [`CacheError::BadAddress`] for a dead/invalid address;
    /// [`CacheError::CacheFull`] when blocks run out (entry is left intact
    /// with as much appended as fit rolled back).
    pub fn append(&mut self, addr: CacheAddress, data: &[u8]) -> Result<CacheAddress, CacheError> {
        let meta = self.meta(addr).ok_or(CacheError::BadAddress)?;
        let used = meta.length;
        self.append_to_chain(addr, data, used as usize)
    }

    fn append_to_chain(
        &mut self,
        last: CacheAddress,
        data: &[u8],
        last_used: usize,
    ) -> Result<CacheAddress, CacheError> {
        let bs = self.config.block_size;
        let mut cursor = 0usize;
        let mut current = last;
        let mut current_used = last_used;
        let mut added_blocks: Vec<CacheAddress> = Vec::new();

        while cursor < data.len() {
            let space = bs - current_used;
            if space == 0 {
                match self.alloc_block() {
                    Ok(fresh) => {
                        self.buffers[fresh.buffer() as usize].meta[fresh.block() as usize].prev =
                            Some(current);
                        added_blocks.push(fresh);
                        current = fresh;
                        current_used = 0;
                        continue;
                    }
                    Err(e) => {
                        // Roll back: free freshly-added blocks, restore the
                        // original last block's fill, and un-count every byte
                        // this call wrote (`cursor` bytes so far).
                        for b in added_blocks.iter().rev() {
                            let buffer_id = b.buffer();
                            self.buffers[buffer_id as usize].free_block(b.block());
                            self.mark_available(buffer_id);
                        }
                        self.buffers[last.buffer() as usize].meta[last.block() as usize].length =
                            last_used as u16;
                        self.used_bytes -= cursor;
                        return Err(e);
                    }
                }
            }
            let take = space.min(data.len() - cursor);
            let slice = self.block_slice_mut(current);
            slice[current_used..current_used + take].copy_from_slice(&data[cursor..cursor + take]);
            cursor += take;
            current_used += take;
            self.buffers[current.buffer() as usize].meta[current.block() as usize].length =
                current_used as u16;
            self.used_bytes += take;
        }
        Ok(current)
    }

    /// Reads an entire entry by its address.
    ///
    /// # Errors
    ///
    /// [`CacheError::BadAddress`] for dead/invalid addresses.
    pub fn get(&self, addr: CacheAddress) -> Result<Bytes, CacheError> {
        self.get_range(addr, 0, usize::MAX)
    }

    /// Reads up to `max_len` bytes of the entry at `addr`, starting `start`
    /// bytes into it: only the blocks the range touches are copied out.
    ///
    /// # Errors
    ///
    /// [`CacheError::BadAddress`] for dead/invalid addresses.
    pub fn get_range(
        &self,
        addr: CacheAddress,
        start: usize,
        max_len: usize,
    ) -> Result<Bytes, CacheError> {
        self.meta(addr).ok_or(CacheError::BadAddress)?;
        // Walk the chain backwards, then assemble forwards.
        let mut chain = Vec::new();
        let mut cur = Some(addr);
        while let Some(a) = cur {
            let meta = self.meta(a).ok_or(CacheError::BadAddress)?;
            chain.push((a, meta.length as usize));
            cur = meta.prev;
        }
        let total: usize = chain.iter().map(|(_, l)| l).sum();
        let start = start.min(total);
        let end = start.saturating_add(max_len).min(total);
        let mut out = BytesMut::with_capacity(end - start);
        let mut block_start = 0usize;
        for (a, len) in chain.into_iter().rev() {
            let block_end = block_start + len;
            if block_end > start && block_start < end {
                let from = start.saturating_sub(block_start);
                let to = (end - block_start).min(len);
                out.put_slice(&self.block_slice(a)[from..to]);
            }
            block_start = block_end;
            if block_start >= end {
                break;
            }
        }
        Ok(out.freeze())
    }

    /// Length in bytes of the entry at `addr`.
    ///
    /// # Errors
    ///
    /// [`CacheError::BadAddress`] for dead/invalid addresses.
    pub fn entry_length(&self, addr: CacheAddress) -> Result<usize, CacheError> {
        self.meta(addr).ok_or(CacheError::BadAddress)?;
        let mut total = 0usize;
        let mut cur = Some(addr);
        while let Some(a) = cur {
            let meta = self.meta(a).ok_or(CacheError::BadAddress)?;
            total += meta.length as usize;
            cur = meta.prev;
        }
        Ok(total)
    }

    /// Deletes the entry at `addr`, returning the bytes freed.
    ///
    /// # Errors
    ///
    /// [`CacheError::BadAddress`] for dead/invalid addresses.
    pub fn delete(&mut self, addr: CacheAddress) -> Result<usize, CacheError> {
        self.meta(addr).ok_or(CacheError::BadAddress)?;
        let freed = self.delete_chain(addr);
        self.entry_count -= 1;
        Ok(freed)
    }

    #[expect(
        clippy::expect_used,
        reason = "block chains are immutable while the owning entry is live; a broken chain \
                  means the allocator's free/alloc accounting is corrupted"
    )]
    fn delete_chain(&mut self, addr: CacheAddress) -> usize {
        let mut freed = 0usize;
        let mut cur = Some(addr);
        while let Some(a) = cur {
            let meta = *self
                .meta(a)
                .expect("chain blocks are valid while entry is live");
            freed += meta.length as usize;
            let buffer_id = a.buffer();
            self.buffers[buffer_id as usize].free_block(a.block());
            self.mark_available(buffer_id);
            cur = meta.prev;
        }
        self.used_bytes -= freed;
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_roundtrip_small() {
        let mut c = BlockCache::new(CacheConfig::small());
        let addr = c.insert(b"hello").unwrap();
        assert_eq!(c.get(addr).unwrap().as_ref(), b"hello");
        assert_eq!(c.entry_length(addr).unwrap(), 5);
        assert_eq!(c.used_bytes(), 5);
        assert_eq!(c.entry_count(), 1);
    }

    #[test]
    fn multi_block_entries_chain() {
        let mut c = BlockCache::new(CacheConfig::small()); // 16-byte blocks
        let data: Vec<u8> = (0..100u8).collect();
        let addr = c.insert(&data).unwrap();
        assert_eq!(c.get(addr).unwrap().as_ref(), &data[..]);
        assert_eq!(c.entry_length(addr).unwrap(), 100);
    }

    #[test]
    fn append_extends_entry_and_may_move_address() {
        let mut c = BlockCache::new(CacheConfig::small());
        let a0 = c.insert(b"0123456789").unwrap(); // 10 bytes in a 16-byte block
        let a1 = c.append(a0, b"abcdef").unwrap(); // fills to exactly 16
        assert_eq!(a1, a0, "fits in the same block");
        let a2 = c.append(a1, b"MORE").unwrap(); // overflows into a new block
        assert_ne!(a2, a1);
        assert_eq!(c.get(a2).unwrap().as_ref(), b"0123456789abcdefMORE");
        // The old address no longer identifies the entry's last block... but
        // it is still a live block inside the chain, so reading via it gives
        // the prefix. Deleting must use the entry address.
        assert_eq!(c.get(a1).unwrap().as_ref(), b"0123456789abcdef");
    }

    #[test]
    fn get_range_copies_only_the_requested_bytes() {
        let mut c = BlockCache::new(CacheConfig::small()); // 16-byte blocks
        let data: Vec<u8> = (0..100u8).collect();
        let addr = c.insert(&data).unwrap();
        for (start, len) in [(0, 100), (0, 1), (15, 2), (16, 16), (37, 40), (99, 1)] {
            assert_eq!(
                c.get_range(addr, start, len).unwrap().as_ref(),
                &data[start..start + len],
                "start {start} len {len}"
            );
        }
        // Ranges are clamped to the entry, never an error.
        assert_eq!(c.get_range(addr, 90, 50).unwrap().as_ref(), &data[90..]);
        assert_eq!(c.get_range(addr, 100, 5).unwrap().len(), 0);
        assert_eq!(c.get_range(addr, 500, 5).unwrap().len(), 0);
    }

    #[test]
    fn empty_insert_is_valid() {
        let mut c = BlockCache::new(CacheConfig::small());
        let addr = c.insert(b"").unwrap();
        assert_eq!(c.get(addr).unwrap().len(), 0);
        c.delete(addr).unwrap();
    }

    #[test]
    fn delete_frees_blocks_for_reuse() {
        let cfg = CacheConfig::small(); // 4 buffers * 7 usable * 16B = 448B
        let mut c = BlockCache::new(cfg);
        let mut addrs = Vec::new();
        for _ in 0..4 {
            addrs.push(c.insert(&[7u8; 112]).unwrap()); // fills one buffer each
        }
        assert_eq!(c.insert(b"x").unwrap_err(), CacheError::CacheFull);
        let freed = c.delete(addrs.pop().unwrap()).unwrap();
        assert_eq!(freed, 112);
        // Space is reusable now.
        let addr = c.insert(&[9u8; 112]).unwrap();
        assert_eq!(c.get(addr).unwrap().as_ref(), &[9u8; 112][..]);
    }

    #[test]
    fn bad_addresses_are_rejected() {
        let mut c = BlockCache::new(CacheConfig::small());
        let addr = c.insert(b"x").unwrap();
        assert_eq!(c.get(CacheAddress::new(0, 0)), Err(CacheError::BadAddress)); // metadata block
        assert_eq!(c.get(CacheAddress::new(9, 1)), Err(CacheError::BadAddress)); // no such buffer
        c.delete(addr).unwrap();
        assert_eq!(c.get(addr), Err(CacheError::BadAddress)); // freed
        assert_eq!(c.delete(addr), Err(CacheError::BadAddress));
    }

    #[test]
    fn cache_full_insert_rolls_back() {
        let mut c = BlockCache::new(CacheConfig {
            block_size: 16,
            blocks_per_buffer: 4,
            max_buffers: 1,
        }); // capacity 48 bytes
        let used_before = c.used_bytes();
        assert_eq!(c.insert(&[1u8; 100]).unwrap_err(), CacheError::CacheFull);
        assert_eq!(c.used_bytes(), used_before, "failed insert must roll back");
        assert_eq!(c.entry_count(), 0);
        // Capacity still fully usable.
        let addr = c.insert(&[2u8; 48]).unwrap();
        assert_eq!(c.get(addr).unwrap().len(), 48);
    }

    #[test]
    fn cache_full_append_rolls_back_to_pre_append_state() {
        let mut c = BlockCache::new(CacheConfig {
            block_size: 16,
            blocks_per_buffer: 4,
            max_buffers: 1,
        });
        let addr = c.insert(b"0123456789").unwrap();
        let err = c.append(addr, &[0u8; 200]).unwrap_err();
        assert_eq!(err, CacheError::CacheFull);
        assert_eq!(c.get(addr).unwrap().as_ref(), b"0123456789");
        assert_eq!(c.used_bytes(), 10);
    }

    #[test]
    fn utilization_tracks_usage() {
        let mut c = BlockCache::new(CacheConfig::small());
        assert_eq!(c.utilization(), 0.0);
        c.insert(&[0u8; 224]).unwrap(); // half of 448
        assert!((c.utilization() - 0.5).abs() < 0.01);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_ops_match_reference(ops in prop::collection::vec(
            (0u8..3, prop::collection::vec(any::<u8>(), 0..64)), 1..120,
        )) {
            let mut cache = BlockCache::new(CacheConfig {
                block_size: 16,
                blocks_per_buffer: 16,
                max_buffers: 8,
            });
            let mut reference: HashMap<u32, Vec<u8>> = HashMap::new();
            let mut live: Vec<CacheAddress> = Vec::new();
            let mut ids: HashMap<u32, usize> = HashMap::new();
            let mut next_id = 0u32;

            for (op, data) in ops {
                match op {
                    0 => {
                        // insert
                        if let Ok(addr) = cache.insert(&data) {
                            let id = next_id;
                            next_id += 1;
                            reference.insert(id, data);
                            ids.insert(id, live.len());
                            live.push(addr);
                        }
                    }
                    1 if !live.is_empty() => {
                        // append to the most recent entry
                        let idx = live.len() - 1;
                        let id = ids.iter().find(|(_, i)| **i == idx).map(|(id, _)| *id).unwrap();
                        if let Ok(new_addr) = cache.append(live[idx], &data) {
                            live[idx] = new_addr;
                            reference.get_mut(&id).unwrap().extend_from_slice(&data);
                        }
                    }
                    2 if !live.is_empty() => {
                        // delete the oldest entry
                        let addr = live.remove(0);
                        let id = ids.iter().find(|(_, i)| **i == 0).map(|(id, _)| *id).unwrap();
                        ids.remove(&id);
                        for (_, i) in ids.iter_mut() { *i -= 1; }
                        let expected = reference.remove(&id).unwrap();
                        let freed = cache.delete(addr).unwrap();
                        prop_assert_eq!(freed, expected.len());
                    }
                    _ => {}
                }
                // Verify every live entry reads back exactly.
                for (id, idx) in &ids {
                    let got = cache.get(live[*idx]).unwrap();
                    prop_assert_eq!(got.as_ref(), &reference[id][..]);
                }
                let expected_bytes: usize = reference.values().map(|v| v.len()).sum();
                prop_assert_eq!(cache.used_bytes(), expected_bytes);
                prop_assert_eq!(cache.entry_count(), reference.len());
            }
        }
    }
}

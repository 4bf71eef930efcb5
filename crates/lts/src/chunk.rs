//! Chunk storage backends.
//!
//! A chunk is an immutable-once-sealed blob of contiguous segment bytes.
//! Backends only need create / append / read / delete — exactly the subset
//! that object stores (S3), NFS and HDFS all offer, which is what lets
//! Pravega tier to any of them (§4.3).

use std::collections::HashMap;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pravega_common::clock;
use pravega_sync::{rank, Mutex};

use crate::error::LtsError;

/// Abstract chunk storage: the minimal contract LTS backends implement.
///
/// Every call is I/O and may block, so each backend's methods open with
/// [`pravega_sync::blocking`]: no caller may hold a lock across one.
pub trait ChunkStorage: Send + Sync + std::fmt::Debug {
    /// Creates an empty chunk.
    ///
    /// # Errors
    ///
    /// [`LtsError::ChunkExists`] if the name is taken.
    fn create(&self, name: &str) -> Result<(), LtsError>;

    /// Appends `data` at `offset`, which must equal the chunk's length.
    ///
    /// # Errors
    ///
    /// [`LtsError::BadOffset`] on a non-append write; [`LtsError::Sealed`]
    /// after sealing; [`LtsError::NoSuchChunk`] if absent.
    fn write(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), LtsError>;

    /// Reads `len` bytes starting at `offset` (short reads only at the end).
    ///
    /// # Errors
    ///
    /// [`LtsError::NoSuchChunk`] if absent; [`LtsError::BeyondEnd`] if
    /// `offset` exceeds the chunk length.
    fn read(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, LtsError>;

    /// Current length of the chunk.
    ///
    /// # Errors
    ///
    /// [`LtsError::NoSuchChunk`] if absent.
    fn length(&self, name: &str) -> Result<u64, LtsError>;

    /// Seals the chunk: no further writes.
    ///
    /// # Errors
    ///
    /// [`LtsError::NoSuchChunk`] if absent.
    fn seal(&self, name: &str) -> Result<(), LtsError>;

    /// Deletes the chunk.
    ///
    /// # Errors
    ///
    /// [`LtsError::NoSuchChunk`] if absent.
    fn delete(&self, name: &str) -> Result<(), LtsError>;

    /// Whether the chunk exists.
    fn exists(&self, name: &str) -> bool;

    /// Discards all bytes at and beyond `len`, shrinking the chunk. Used to
    /// drop an uncommitted tail left by a torn or abandoned write before
    /// re-appending; never applied below committed metadata.
    ///
    /// # Errors
    ///
    /// [`LtsError::NoSuchChunk`] if absent; [`LtsError::Sealed`] after
    /// sealing; [`LtsError::BadOffset`] if `len` exceeds the current length.
    fn truncate(&self, name: &str, len: u64) -> Result<(), LtsError>;
}

#[derive(Debug, Default)]
struct MemChunk {
    data: Vec<u8>,
    sealed: bool,
}

/// In-memory chunk storage for tests.
///
/// Failure injection lives in the `pravega-faults` crate: wrap any backend
/// (this one included) in a `FaultyChunkStorage` instead of flipping ad-hoc
/// toggles here.
#[derive(Debug)]
pub struct InMemoryChunkStorage {
    chunks: Mutex<HashMap<String, MemChunk>>,
}

impl Default for InMemoryChunkStorage {
    fn default() -> Self {
        Self {
            chunks: Mutex::new(rank::LTS_CHUNKS, HashMap::new()),
        }
    }
}

impl InMemoryChunkStorage {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Names of all stored chunks (test helper).
    pub fn chunk_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.chunks.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Silent-corruption injection: flips the bits selected by `mask` in the
    /// byte at `offset`. Ignores seals — bit rot does not respect them.
    /// Returns false if the chunk is absent or shorter than `offset`.
    pub fn flip_bit(&self, name: &str, offset: u64, mask: u8) -> bool {
        let mut chunks = self.chunks.lock();
        let Some(chunk) = chunks.get_mut(name) else {
            return false;
        };
        match chunk.data.get_mut(offset as usize) {
            Some(byte) => {
                *byte ^= mask;
                true
            }
            None => false,
        }
    }

    /// Silent-corruption injection: drops the last `drop` bytes of the chunk
    /// (a torn sector / lost tail). Returns false if the chunk is absent or
    /// has fewer than `drop` bytes.
    pub fn truncate_tail(&self, name: &str, drop: u64) -> bool {
        let mut chunks = self.chunks.lock();
        let Some(chunk) = chunks.get_mut(name) else {
            return false;
        };
        let len = chunk.data.len() as u64;
        if drop > len {
            return false;
        }
        chunk.data.truncate((len - drop) as usize);
        true
    }
}

impl ChunkStorage for InMemoryChunkStorage {
    fn create(&self, name: &str) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::create");
        let mut chunks = self.chunks.lock();
        if chunks.contains_key(name) {
            return Err(LtsError::ChunkExists);
        }
        chunks.insert(name.to_string(), MemChunk::default());
        Ok(())
    }

    fn write(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::write");
        let mut chunks = self.chunks.lock();
        let chunk = chunks.get_mut(name).ok_or(LtsError::NoSuchChunk)?;
        if chunk.sealed {
            return Err(LtsError::Sealed);
        }
        if offset != chunk.data.len() as u64 {
            return Err(LtsError::BadOffset {
                expected: chunk.data.len() as u64,
                actual: offset,
            });
        }
        chunk.data.extend_from_slice(data);
        Ok(())
    }

    fn read(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, LtsError> {
        pravega_sync::blocking("ChunkStorage::read");
        let chunks = self.chunks.lock();
        let chunk = chunks.get(name).ok_or(LtsError::NoSuchChunk)?;
        if offset > chunk.data.len() as u64 {
            return Err(LtsError::BeyondEnd {
                length: chunk.data.len() as u64,
            });
        }
        let start = offset as usize;
        let end = (start + len).min(chunk.data.len());
        Ok(Bytes::copy_from_slice(&chunk.data[start..end]))
    }

    fn length(&self, name: &str) -> Result<u64, LtsError> {
        pravega_sync::blocking("ChunkStorage::length");
        let chunks = self.chunks.lock();
        chunks
            .get(name)
            .map(|c| c.data.len() as u64)
            .ok_or(LtsError::NoSuchChunk)
    }

    fn seal(&self, name: &str) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::seal");
        let mut chunks = self.chunks.lock();
        chunks
            .get_mut(name)
            .map(|c| c.sealed = true)
            .ok_or(LtsError::NoSuchChunk)
    }

    fn delete(&self, name: &str) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::delete");
        let mut chunks = self.chunks.lock();
        chunks.remove(name).map(|_| ()).ok_or(LtsError::NoSuchChunk)
    }

    fn exists(&self, name: &str) -> bool {
        pravega_sync::blocking("ChunkStorage::exists");
        self.chunks.lock().contains_key(name)
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::truncate");
        let mut chunks = self.chunks.lock();
        let chunk = chunks.get_mut(name).ok_or(LtsError::NoSuchChunk)?;
        if chunk.sealed {
            return Err(LtsError::Sealed);
        }
        if len > chunk.data.len() as u64 {
            return Err(LtsError::BadOffset {
                expected: chunk.data.len() as u64,
                actual: len,
            });
        }
        chunk.data.truncate(len as usize);
        Ok(())
    }
}

fn sanitize(name: &str) -> String {
    name.replace(['/', '#'], "_")
}

/// Filesystem chunk storage: one file per chunk under a root directory
/// (an NFS mount in the paper's deployment).
#[derive(Debug)]
pub struct FileChunkStorage {
    root: PathBuf,
    sealed: Mutex<HashMap<String, bool>>,
}

impl FileChunkStorage {
    /// Opens chunk storage rooted at `root` (created if missing).
    ///
    /// # Errors
    ///
    /// [`LtsError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, LtsError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| LtsError::Io(e.to_string()))?;
        Ok(Self {
            root,
            sealed: Mutex::new(rank::LTS_CHUNK_SEALED, HashMap::new()),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(sanitize(name))
    }
}

impl ChunkStorage for FileChunkStorage {
    fn create(&self, name: &str) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::create");
        let path = self.path(name);
        if path.exists() {
            return Err(LtsError::ChunkExists);
        }
        std::fs::File::create(&path).map_err(|e| LtsError::Io(e.to_string()))?;
        Ok(())
    }

    fn write(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::write");
        if *self.sealed.lock().get(name).unwrap_or(&false) {
            return Err(LtsError::Sealed);
        }
        let path = self.path(name);
        if !path.exists() {
            return Err(LtsError::NoSuchChunk);
        }
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| LtsError::Io(e.to_string()))?;
        let current = file
            .metadata()
            .map_err(|e| LtsError::Io(e.to_string()))?
            .len();
        if offset != current {
            return Err(LtsError::BadOffset {
                expected: current,
                actual: offset,
            });
        }
        file.write_all(data)
            .map_err(|e| LtsError::Io(e.to_string()))?;
        file.sync_data().map_err(|e| LtsError::Io(e.to_string()))?;
        Ok(())
    }

    fn read(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, LtsError> {
        pravega_sync::blocking("ChunkStorage::read");
        let path = self.path(name);
        if !path.exists() {
            return Err(LtsError::NoSuchChunk);
        }
        let mut file = std::fs::File::open(&path).map_err(|e| LtsError::Io(e.to_string()))?;
        let total = file
            .metadata()
            .map_err(|e| LtsError::Io(e.to_string()))?
            .len();
        if offset > total {
            return Err(LtsError::BeyondEnd { length: total });
        }
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| LtsError::Io(e.to_string()))?;
        let to_read = len.min((total - offset) as usize);
        let mut buf = vec![0u8; to_read];
        file.read_exact(&mut buf)
            .map_err(|e| LtsError::Io(e.to_string()))?;
        Ok(Bytes::from(buf))
    }

    fn length(&self, name: &str) -> Result<u64, LtsError> {
        pravega_sync::blocking("ChunkStorage::length");
        let path = self.path(name);
        std::fs::metadata(&path)
            .map(|m| m.len())
            .map_err(|_| LtsError::NoSuchChunk)
    }

    fn seal(&self, name: &str) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::seal");
        if !self.exists(name) {
            return Err(LtsError::NoSuchChunk);
        }
        self.sealed.lock().insert(name.to_string(), true);
        Ok(())
    }

    fn delete(&self, name: &str) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::delete");
        let path = self.path(name);
        std::fs::remove_file(&path).map_err(|_| LtsError::NoSuchChunk)?;
        self.sealed.lock().remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        pravega_sync::blocking("ChunkStorage::exists");
        self.path(name).exists()
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::truncate");
        if *self.sealed.lock().get(name).unwrap_or(&false) {
            return Err(LtsError::Sealed);
        }
        let path = self.path(name);
        if !path.exists() {
            return Err(LtsError::NoSuchChunk);
        }
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| LtsError::Io(e.to_string()))?;
        let current = file
            .metadata()
            .map_err(|e| LtsError::Io(e.to_string()))?
            .len();
        if len > current {
            return Err(LtsError::BadOffset {
                expected: current,
                actual: len,
            });
        }
        file.set_len(len).map_err(|e| LtsError::Io(e.to_string()))?;
        file.sync_data().map_err(|e| LtsError::Io(e.to_string()))?;
        Ok(())
    }
}

/// Bandwidth/latency model for [`ThrottledChunkStorage`].
#[derive(Debug, Clone, Copy)]
pub struct ThrottleModel {
    /// Sustained throughput of the backing store.
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed per-operation latency.
    pub per_op_latency: Duration,
}

impl ThrottleModel {
    /// EFS-like model from the paper's measurements (≈160 MB/s, §5.7).
    pub fn efs_like() -> Self {
        Self {
            bandwidth_bytes_per_sec: 160 * 1024 * 1024,
            per_op_latency: Duration::from_millis(3),
        }
    }
}

/// Wraps a chunk storage with a shared bandwidth pipe and per-op latency.
///
/// All operations (reads and writes) contend for the same bandwidth, which
/// is how a saturated EFS/S3 endpoint behaves and is what makes Pravega
/// throttle its writers (§4.3, §5.4).
#[derive(Debug)]
pub struct ThrottledChunkStorage<S> {
    inner: S,
    model: ThrottleModel,
    next_free: Arc<Mutex<Instant>>,
}

impl<S: ChunkStorage> ThrottledChunkStorage<S> {
    /// Wraps `inner` with the given throttle model.
    pub fn new(inner: S, model: ThrottleModel) -> Self {
        Self {
            inner,
            model,
            next_free: Arc::new(Mutex::new(rank::LTS_CHUNK_THROTTLE, clock::monotonic_now())),
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "bandwidth/latency throttle model: the sleep is the simulated device"
    )]
    fn charge(&self, bytes: usize) {
        pravega_sync::blocking("ChunkStorage throttle");
        let cost =
            Duration::from_secs_f64(bytes as f64 / self.model.bandwidth_bytes_per_sec as f64);
        let wake = {
            let mut next_free = self.next_free.lock();
            let start = (*next_free).max(clock::monotonic_now());
            *next_free = start + cost;
            *next_free
        };
        let deadline = wake + self.model.per_op_latency;
        let now = clock::monotonic_now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
    }
}

impl<S: ChunkStorage> ChunkStorage for ThrottledChunkStorage<S> {
    fn create(&self, name: &str) -> Result<(), LtsError> {
        self.charge(0);
        self.inner.create(name)
    }

    fn write(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), LtsError> {
        self.charge(data.len());
        self.inner.write(name, offset, data)
    }

    fn read(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, LtsError> {
        self.charge(len);
        self.inner.read(name, offset, len)
    }

    fn length(&self, name: &str) -> Result<u64, LtsError> {
        self.inner.length(name)
    }

    fn seal(&self, name: &str) -> Result<(), LtsError> {
        self.inner.seal(name)
    }

    fn delete(&self, name: &str) -> Result<(), LtsError> {
        self.charge(0);
        self.inner.delete(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), LtsError> {
        self.charge(0);
        self.inner.truncate(name, len)
    }
}

/// The paper's "NoOp LTS" test feature (§5.4): chunk *lengths* are tracked,
/// data is discarded. Reads return zero bytes of the correct length, so this
/// backend must only be used for write-path experiments.
#[derive(Debug)]
pub struct NoOpChunkStorage {
    lengths: Mutex<HashMap<String, (u64, bool)>>,
}

impl Default for NoOpChunkStorage {
    fn default() -> Self {
        Self {
            lengths: Mutex::new(rank::LTS_CHUNK_LENGTHS, HashMap::new()),
        }
    }
}

impl NoOpChunkStorage {
    /// Creates an empty NoOp store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ChunkStorage for NoOpChunkStorage {
    fn create(&self, name: &str) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::create");
        let mut lengths = self.lengths.lock();
        if lengths.contains_key(name) {
            return Err(LtsError::ChunkExists);
        }
        lengths.insert(name.to_string(), (0, false));
        Ok(())
    }

    fn write(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::write");
        let mut lengths = self.lengths.lock();
        let (len, sealed) = lengths.get_mut(name).ok_or(LtsError::NoSuchChunk)?;
        if *sealed {
            return Err(LtsError::Sealed);
        }
        if offset != *len {
            return Err(LtsError::BadOffset {
                expected: *len,
                actual: offset,
            });
        }
        *len += data.len() as u64;
        Ok(())
    }

    fn read(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, LtsError> {
        pravega_sync::blocking("ChunkStorage::read");
        let lengths = self.lengths.lock();
        let (total, _) = lengths.get(name).ok_or(LtsError::NoSuchChunk)?;
        if offset > *total {
            return Err(LtsError::BeyondEnd { length: *total });
        }
        let available = (*total - offset) as usize;
        Ok(Bytes::from(vec![0u8; len.min(available)]))
    }

    fn length(&self, name: &str) -> Result<u64, LtsError> {
        pravega_sync::blocking("ChunkStorage::length");
        self.lengths
            .lock()
            .get(name)
            .map(|(l, _)| *l)
            .ok_or(LtsError::NoSuchChunk)
    }

    fn seal(&self, name: &str) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::seal");
        self.lengths
            .lock()
            .get_mut(name)
            .map(|(_, s)| *s = true)
            .ok_or(LtsError::NoSuchChunk)
    }

    fn delete(&self, name: &str) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::delete");
        self.lengths
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or(LtsError::NoSuchChunk)
    }

    fn exists(&self, name: &str) -> bool {
        pravega_sync::blocking("ChunkStorage::exists");
        self.lengths.lock().contains_key(name)
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), LtsError> {
        pravega_sync::blocking("ChunkStorage::truncate");
        let mut lengths = self.lengths.lock();
        let (total, sealed) = lengths.get_mut(name).ok_or(LtsError::NoSuchChunk)?;
        if *sealed {
            return Err(LtsError::Sealed);
        }
        if len > *total {
            return Err(LtsError::BadOffset {
                expected: *total,
                actual: len,
            });
        }
        *total = len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_backend(storage: &dyn ChunkStorage) {
        storage.create("c1").unwrap();
        assert_eq!(storage.create("c1"), Err(LtsError::ChunkExists));
        storage.write("c1", 0, b"hello").unwrap();
        storage.write("c1", 5, b" world").unwrap();
        assert_eq!(
            storage.write("c1", 3, b"x"),
            Err(LtsError::BadOffset {
                expected: 11,
                actual: 3
            })
        );
        assert_eq!(storage.length("c1").unwrap(), 11);
        assert_eq!(storage.read("c1", 6, 5).unwrap().len(), 5);
        assert_eq!(storage.read("c1", 6, 100).unwrap().len(), 5); // short read
        assert!(matches!(
            storage.read("c1", 50, 1),
            Err(LtsError::BeyondEnd { length: 11 })
        ));
        // Truncate drops the tail and re-opens it for appends.
        assert!(matches!(
            storage.truncate("c1", 50),
            Err(LtsError::BadOffset { .. })
        ));
        storage.truncate("c1", 5).unwrap();
        assert_eq!(storage.length("c1").unwrap(), 5);
        storage.write("c1", 5, b" world").unwrap();
        assert_eq!(storage.length("c1").unwrap(), 11);
        storage.seal("c1").unwrap();
        assert_eq!(storage.write("c1", 11, b"!"), Err(LtsError::Sealed));
        assert_eq!(storage.truncate("c1", 0), Err(LtsError::Sealed));
        storage.delete("c1").unwrap();
        assert!(!storage.exists("c1"));
        assert_eq!(storage.read("c1", 0, 1), Err(LtsError::NoSuchChunk));
    }

    #[test]
    fn memory_backend_contract() {
        exercise_backend(&InMemoryChunkStorage::new());
    }

    #[test]
    fn noop_backend_contract() {
        exercise_backend(&NoOpChunkStorage::new());
    }

    #[test]
    fn file_backend_contract() {
        let dir = std::env::temp_dir().join(format!(
            "pravega-lts-{}-{}",
            std::process::id(),
            rand::random::<u32>()
        ));
        let storage = FileChunkStorage::open(&dir).unwrap();
        exercise_backend(&storage);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_backend_reads_correct_data() {
        let s = InMemoryChunkStorage::new();
        s.create("c").unwrap();
        s.write("c", 0, b"0123456789").unwrap();
        assert_eq!(s.read("c", 2, 4).unwrap().as_ref(), b"2345");
    }

    #[test]
    fn file_backend_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "pravega-lts-reopen-{}-{}",
            std::process::id(),
            rand::random::<u32>()
        ));
        {
            let s = FileChunkStorage::open(&dir).unwrap();
            s.create("seg/chunk-0").unwrap();
            s.write("seg/chunk-0", 0, b"durable").unwrap();
        }
        let s = FileChunkStorage::open(&dir).unwrap();
        assert_eq!(s.read("seg/chunk-0", 0, 7).unwrap().as_ref(), b"durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Unavailability injection now lives in the pravega-faults decorator;
    // see crates/lts/tests/faults.rs (a dev-dep cycle keeps those tests out
    // of this module: the cfg(test) build of this crate is a distinct crate
    // from the one pravega-faults links against).

    #[test]
    fn throttled_storage_limits_bandwidth() {
        let model = ThrottleModel {
            bandwidth_bytes_per_sec: 1_000_000, // 1 MB/s
            per_op_latency: Duration::ZERO,
        };
        let s = ThrottledChunkStorage::new(InMemoryChunkStorage::new(), model);
        s.create("c").unwrap();
        let start = Instant::now();
        // 200 KB at 1 MB/s should take >= ~180ms.
        for i in 0..10u64 {
            s.write("c", i * 20_000, &vec![0u8; 20_000]).unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(150),
            "throttle too weak: {elapsed:?}"
        );
    }

    #[test]
    fn noop_discards_data_but_tracks_length() {
        let s = NoOpChunkStorage::new();
        s.create("c").unwrap();
        s.write("c", 0, b"not stored").unwrap();
        assert_eq!(s.length("c").unwrap(), 10);
        let read = s.read("c", 0, 10).unwrap();
        assert_eq!(read.len(), 10);
        assert!(read.iter().all(|&b| b == 0));
    }
}

#![deny(unsafe_code)]
#![warn(missing_docs)]
//! Deterministic fault injection for the tiering write path.
//!
//! The paper's resilience claims (§4.3–§4.4: tiering is on the write path and
//! the system throttles rather than fails when a tier misbehaves) can only be
//! tested by provoking the misbehavior. This crate provides a seeded
//! [`FaultPlan`] — per-operation probabilistic transient errors, latency
//! spikes, and partial (torn) writes, plus scripted "fail the next N ops" and
//! all-or-nothing unavailability — and decorator wrappers implementing the
//! [`ChunkStorage`] and [`Bookie`] traits so any LTS backend or WAL bookie
//! can be wrapped without touching its code.
//!
//! Every probabilistic decision is a pure function of `(seed, op_index)`, so
//! the same seed over the same operation sequence reproduces the same fault
//! sequence byte-for-byte; the plan keeps an injection log that tests can
//! compare across runs to prove it.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pravega_faults::{FaultPlan, FaultSpec, FaultyChunkStorage};
//! use pravega_lts::{ChunkStorage, InMemoryChunkStorage};
//!
//! let plan = Arc::new(FaultPlan::new(42, FaultSpec::default()));
//! let chunks = FaultyChunkStorage::new(Arc::new(InMemoryChunkStorage::new()), plan.clone());
//! chunks.create("c0").unwrap();
//! plan.set_unavailable(true);
//! assert!(chunks.write("c0", 0, b"x").is_err());
//! plan.set_unavailable(false);
//! chunks.write("c0", 0, b"x").unwrap();
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use pravega_common::crashpoints::CrashHook;
use pravega_common::metrics::{Counter, MetricsRegistry};
use pravega_lts::{ChunkStorage, LtsError};
use pravega_sync::{rank, Mutex};
use pravega_wal::{Ack, Bookie, BookieError, LedgerId};
use rand::{Rng, SeedableRng};

/// Probabilistic fault rates for a [`FaultPlan`].
///
/// Rates are per-operation probabilities in `[0, 1]`; at most one fault fires
/// per operation (torn writes are considered first, then transient errors,
/// then latency spikes).
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Probability that an operation fails with a transient error.
    pub transient_error_rate: f64,
    /// Probability that an operation is delayed by [`latency_spike`](Self::latency_spike).
    pub latency_spike_rate: f64,
    /// Injected delay for latency-spike faults.
    pub latency_spike: Duration,
    /// Probability that a write is torn: a strict prefix reaches the backend
    /// but the call still reports a transient failure. Only applies to writes
    /// carrying at least 2 bytes.
    pub torn_write_rate: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            transient_error_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike: Duration::from_millis(1),
            torn_write_rate: 0.0,
        }
    }
}

/// What the plan decided to do to one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultDecision {
    /// Let the operation through untouched.
    None,
    /// Delay the operation by the given duration, then let it through.
    Latency(Duration),
    /// Fail the operation with a transient error; the backend is untouched.
    Transient,
    /// Tear the write: apply only the first `keep` bytes to the backend,
    /// then report a transient failure.
    Torn {
        /// Number of payload bytes that reach the backend (a strict prefix).
        keep: usize,
    },
    /// Simulate a process crash at a named crash point: the firing site
    /// abandons the operation exactly as an abrupt death would. Only emitted
    /// by [`FaultPlan::decide_crash`], never by [`FaultPlan::decide`].
    Crash,
    /// Silent corruption: flip one bit of already-stored state (a chunk or a
    /// bookie entry) behind the system's back. Only emitted by
    /// [`FaultPlan::draw_corruption`], never by [`FaultPlan::decide`].
    FlipBit {
        /// Byte offset of the corrupted byte within the stored blob.
        offset: u64,
        /// Single-bit mask XORed into that byte.
        mask: u8,
    },
    /// Silent corruption: drop the last `drop` bytes of already-stored state,
    /// as a lost tail write would. Only emitted by
    /// [`FaultPlan::draw_corruption`], never by [`FaultPlan::decide`].
    TruncateTail {
        /// Number of trailing bytes discarded (at least 1, less than the
        /// blob length).
        drop: u64,
    },
}

/// Seeded crash-point schedule for a [`FaultPlan`].
///
/// Each time production code reaches a named crash point
/// ([`pravega_common::crashpoints`]) with this plan's hook armed, the plan
/// draws from `(seed, crash_index)` — a stream independent of the
/// operation-fault stream, so arming crashes never shifts the transient /
/// torn / latency sequence.
#[derive(Debug, Clone, Default)]
pub struct CrashSpec {
    /// Per-occurrence probability that an eligible crash point fires.
    pub crash_rate: f64,
    /// Ceiling on fired crashes over the plan's lifetime (a crashed process
    /// stays dead; without a ceiling a probabilistic schedule would keep
    /// "crashing" the replacement too).
    pub max_crashes: u64,
    /// When non-empty, only these points are eligible to fire.
    pub points: Vec<&'static str>,
}

/// One entry of a plan's injection log: which fault hit which operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The probabilistic op index the decision was drawn for, or the current
    /// index at the time for scripted (non-probabilistic) faults.
    pub op_index: u64,
    /// The decorated operation, e.g. `"chunk.write"`.
    pub operation: String,
    /// The injected fault (never [`FaultDecision::None`]).
    pub decision: FaultDecision,
}

/// A seeded, deterministic fault plan.
///
/// Probabilistic decisions are a pure function of `(seed, op_index)`: every
/// operation that reaches an *enabled* plan consumes one index and draws its
/// fate from a PRNG seeded by mixing the index into the plan seed. Scripted
/// faults ([`set_unavailable`](Self::set_unavailable),
/// [`fail_next_ops`](Self::fail_next_ops)) take precedence and do **not**
/// consume an index, so toggling them never shifts the probabilistic
/// sequence.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    crash: CrashSpec,
    enabled: AtomicBool,
    always_fail: AtomicBool,
    fail_next: AtomicU64,
    /// One-shot scripted crash targets: the next occurrence of a listed
    /// point fires unconditionally (and is removed). Under FAULTS_PLAN rank —
    /// same leaf discipline as the log.
    crash_script: Mutex<Vec<&'static str>>,
    ops: AtomicU64,
    crash_ops: AtomicU64,
    corrupt_ops: AtomicU64,
    crashes: AtomicU64,
    injected: AtomicU64,
    log: Mutex<Vec<FaultRecord>>,
    injected_counter: OnceLock<Arc<Counter>>,
}

impl FaultPlan {
    /// Creates an enabled plan drawing probabilistic faults from `seed`.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        Self::with_crashes(seed, spec, CrashSpec::default())
    }

    /// Creates an enabled plan with both an operation-fault spec and a
    /// crash-point schedule.
    pub fn with_crashes(seed: u64, spec: FaultSpec, crash: CrashSpec) -> Self {
        Self {
            seed,
            spec,
            crash,
            enabled: AtomicBool::new(true),
            always_fail: AtomicBool::new(false),
            fail_next: AtomicU64::new(0),
            crash_script: Mutex::new(rank::FAULTS_PLAN, Vec::new()),
            ops: AtomicU64::new(0),
            crash_ops: AtomicU64::new(0),
            corrupt_ops: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            log: Mutex::new(rank::FAULTS_PLAN, Vec::new()),
            injected_counter: OnceLock::new(),
        }
    }

    /// A plan with no probabilistic faults: everything passes until scripted
    /// faults are armed. This reproduces the old `set_unavailable` toggle.
    pub fn manual() -> Self {
        Self::new(0, FaultSpec::default())
    }

    /// The seed this plan draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Turns the whole plan on or off. While disabled every operation passes
    /// through and no op index is consumed, so re-enabling resumes the
    /// probabilistic sequence exactly where it left off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Scripted all-or-nothing unavailability: while `true`, every operation
    /// fails with a transient error (the old `AtomicBool` toggle semantics).
    pub fn set_unavailable(&self, unavailable: bool) {
        self.always_fail.store(unavailable, Ordering::SeqCst);
    }

    /// Scripted burst: the next `n` operations fail with transient errors,
    /// then the plan reverts to probabilistic behavior.
    pub fn fail_next_ops(&self, n: u64) {
        self.fail_next.store(n, Ordering::SeqCst);
    }

    /// Scripted one-shot crash: the next time production code reaches the
    /// named crash `point`, it fires unconditionally (then the script entry
    /// is consumed). Scripted crashes bypass the probabilistic stream and
    /// consume no crash index, and they ignore [`CrashSpec::max_crashes`].
    pub fn crash_at_next(&self, point: &'static str) {
        self.crash_script.lock().push(point);
    }

    /// Number of crash points fired so far.
    pub fn injected_crashes(&self) -> u64 {
        self.crashes.load(Ordering::SeqCst)
    }

    /// Total faults injected so far (all kinds, crashes included).
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Copy of the injection log, in injection order.
    pub fn log(&self) -> Vec<FaultRecord> {
        self.log.lock().clone()
    }

    /// Registers this plan's fault counter as `faults.plan.faults_injected`
    /// on `registry`. Faults injected before binding are counted too.
    pub fn bind_metrics(&self, registry: &MetricsRegistry) {
        let counter = registry.counter("faults.plan.faults_injected");
        counter.add(self.injected.load(Ordering::SeqCst));
        let _ = self.injected_counter.set(counter);
    }

    fn record(&self, op_index: u64, operation: &str, decision: FaultDecision) {
        self.injected.fetch_add(1, Ordering::SeqCst);
        if let Some(c) = self.injected_counter.get() {
            c.inc();
        }
        self.log.lock().push(FaultRecord {
            op_index,
            operation: operation.to_string(),
            decision,
        });
    }

    /// Decides the fate of one operation. `payload_len` is the write payload
    /// size (0 for non-writes); torn faults require at least 2 bytes so the
    /// kept prefix is a strict, non-empty prefix.
    pub fn decide(&self, operation: &str, payload_len: usize) -> FaultDecision {
        if !self.enabled.load(Ordering::SeqCst) {
            return FaultDecision::None;
        }
        if self.always_fail.load(Ordering::SeqCst) {
            self.record(
                self.ops.load(Ordering::SeqCst),
                operation,
                FaultDecision::Transient,
            );
            return FaultDecision::Transient;
        }
        if self
            .fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            self.record(
                self.ops.load(Ordering::SeqCst),
                operation,
                FaultDecision::Transient,
            );
            return FaultDecision::Transient;
        }
        let i = self.ops.fetch_add(1, Ordering::SeqCst);
        // Pure function of (seed, i): mix the index into the seed with a
        // splitmix increment so consecutive indices decorrelate.
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            self.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17),
        );
        let decision = if payload_len >= 2 && rng.gen_bool(self.spec.torn_write_rate) {
            let keep = 1 + (rng.next_u64() % (payload_len as u64 - 1)) as usize;
            FaultDecision::Torn { keep }
        } else if rng.gen_bool(self.spec.transient_error_rate) {
            FaultDecision::Transient
        } else if rng.gen_bool(self.spec.latency_spike_rate) {
            FaultDecision::Latency(self.spec.latency_spike)
        } else {
            FaultDecision::None
        };
        if decision != FaultDecision::None {
            self.record(i, operation, decision.clone());
        }
        decision
    }

    /// Decides whether the named crash `point` fires.
    ///
    /// Scripted targets ([`crash_at_next`](Self::crash_at_next)) fire first
    /// and consume no crash index. Otherwise eligible points (per
    /// [`CrashSpec::points`]) consume one index from the crash stream — a
    /// pure function of `(seed, crash_index)`, independent of the
    /// operation-fault stream — and fire with
    /// [`CrashSpec::crash_rate`] probability, capped at
    /// [`CrashSpec::max_crashes`] lifetime firings. Every firing is appended
    /// to the injection log as [`FaultDecision::Crash`].
    pub fn decide_crash(&self, point: &'static str) -> bool {
        if !self.enabled.load(Ordering::SeqCst) {
            return false;
        }
        let scripted = {
            let mut script = self.crash_script.lock();
            match script.iter().position(|p| *p == point) {
                Some(at) => {
                    script.remove(at);
                    true
                }
                None => false,
            }
        };
        if scripted {
            self.crashes.fetch_add(1, Ordering::SeqCst);
            self.record(
                self.crash_ops.load(Ordering::SeqCst),
                point,
                FaultDecision::Crash,
            );
            return true;
        }
        if !self.crash.points.is_empty() && !self.crash.points.contains(&point) {
            return false;
        }
        if self.crash.crash_rate <= 0.0 {
            return false;
        }
        let i = self.crash_ops.fetch_add(1, Ordering::SeqCst);
        // Same splitmix mixing as `decide`, offset into a disjoint stream so
        // crash draws never correlate with operation-fault draws.
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            (self.seed ^ 0xC4A5_11FA_u64.rotate_left(32))
                ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17),
        );
        if !rng.gen_bool(self.crash.crash_rate) {
            return false;
        }
        // A crashed process stays dead: respect the lifetime ceiling even
        // when concurrent sites draw a firing at the same time.
        if self
            .crashes
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.crash.max_crashes).then_some(n + 1)
            })
            .is_err()
        {
            return false;
        }
        self.record(i, point, FaultDecision::Crash);
        true
    }

    /// Draws one silent corruption for a stored blob of `len` bytes.
    ///
    /// Consumes one index from the corruption stream — a pure function of
    /// `(seed, corrupt_index)`, disjoint from both the operation-fault and
    /// crash streams, so arming corruption never shifts either. Returns
    /// [`FaultDecision::FlipBit`] or [`FaultDecision::TruncateTail`] sized to
    /// the blob, or `None` when the blob is too small to corrupt without
    /// erasing it (under 2 bytes). `target` names the victim in the injection
    /// log (e.g. `"chunk:lts/segments/s/c-0"` or `"bookie:b0/7/3"`).
    pub fn draw_corruption(&self, target: &str, len: u64) -> Option<FaultDecision> {
        if !self.enabled.load(Ordering::SeqCst) || len < 2 {
            return None;
        }
        let i = self.corrupt_ops.fetch_add(1, Ordering::SeqCst);
        // Same splitmix mixing as `decide`, offset into a third disjoint
        // stream.
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            (self.seed ^ 0xB17F_11B5_u64.rotate_left(24))
                ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17),
        );
        let decision = if rng.gen_bool(0.5) {
            FaultDecision::FlipBit {
                offset: rng.next_u64() % len,
                mask: 1u8 << (rng.next_u64() % 8),
            }
        } else {
            // Keep at least one byte so the blob still exists, drop at least
            // one so something is actually lost.
            FaultDecision::TruncateTail {
                drop: 1 + rng.next_u64() % (len - 1),
            }
        };
        self.record(i, target, decision.clone());
        Some(decision)
    }

    /// An armed [`CrashHook`] driving crash points from this plan.
    ///
    /// This is the sanctioned way to arm crash machinery: production crates
    /// thread the hook through their configs and fire it, while the arming
    /// itself stays here (clippy's `disallowed_methods` bans
    /// `CrashHook::armed` everywhere else).
    #[expect(
        clippy::disallowed_methods,
        reason = "the one arming site: every armed hook flows from a seeded FaultPlan"
    )]
    pub fn crash_hook(self: &Arc<Self>) -> CrashHook {
        let plan = Arc::clone(self);
        CrashHook::armed(move |point| plan.decide_crash(point))
    }
}

/// Draws one corruption from `plan` and applies it to a stored chunk.
///
/// Returns the applied decision, or `None` when the plan drew nothing
/// (disabled or the chunk is too small) or the chunk is gone. The decision
/// lands in the plan's injection log either way it was drawn, so a seed
/// reproduces the same corruption sequence byte for byte.
pub fn corrupt_chunk(
    plan: &FaultPlan,
    storage: &pravega_lts::InMemoryChunkStorage,
    name: &str,
) -> Option<FaultDecision> {
    let len = storage.length(name).ok()?;
    let decision = plan.draw_corruption(&format!("chunk:{name}"), len)?;
    let applied = match decision {
        FaultDecision::FlipBit { offset, mask } => storage.flip_bit(name, offset, mask),
        FaultDecision::TruncateTail { drop } => storage.truncate_tail(name, drop),
        _ => false,
    };
    applied.then_some(decision)
}

/// Draws one corruption from `plan` and applies it to a bookie's stored
/// entry (the checksummed envelope as replicated, not the logical payload).
///
/// Returns the applied decision, or `None` when the plan drew nothing or
/// the entry is absent.
pub fn corrupt_entry(
    plan: &FaultPlan,
    bookie: &pravega_wal::JournalBookie,
    ledger: LedgerId,
    entry: u64,
) -> Option<FaultDecision> {
    let stored = bookie.raw_entry(ledger, entry)?;
    let target = format!("bookie:{}/{}/{entry}", bookie.id(), ledger.0);
    let decision = plan.draw_corruption(&target, stored.len() as u64)?;
    let applied = match decision {
        FaultDecision::FlipBit { offset, mask } => {
            bookie.flip_entry_bit(ledger, entry, offset, mask)
        }
        FaultDecision::TruncateTail { drop } => bookie.truncate_entry_tail(ledger, entry, drop),
        _ => false,
    };
    applied.then_some(decision)
}

#[expect(
    clippy::disallowed_methods,
    reason = "an injected latency spike: the sleep is the slow backend being modeled, not a retry"
)]
fn spike(duration: Duration) {
    std::thread::sleep(duration);
}

/// [`ChunkStorage`] decorator injecting faults from a [`FaultPlan`].
///
/// Transient faults surface as [`LtsError::Unavailable`]; torn writes apply a
/// strict prefix of the payload to the inner backend and surface as
/// [`LtsError::Io`], leaving the physical chunk ahead of what the caller
/// believes was written — exactly the state a crashed PUT leaves on an object
/// store.
#[derive(Debug)]
pub struct FaultyChunkStorage {
    inner: Arc<dyn ChunkStorage>,
    plan: Arc<FaultPlan>,
}

impl FaultyChunkStorage {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Arc<dyn ChunkStorage>, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }

    /// The plan driving this decorator.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    fn gate(&self, operation: &str) -> Result<(), LtsError> {
        match self.plan.decide(operation, 0) {
            FaultDecision::None => Ok(()),
            FaultDecision::Latency(d) => {
                spike(d);
                Ok(())
            }
            // `decide` never emits Crash or corruption; treat them as
            // unavailability if they ever appear rather than panicking inside
            // a decorator.
            FaultDecision::Transient
            | FaultDecision::Torn { .. }
            | FaultDecision::Crash
            | FaultDecision::FlipBit { .. }
            | FaultDecision::TruncateTail { .. } => Err(LtsError::Unavailable),
        }
    }
}

impl ChunkStorage for FaultyChunkStorage {
    fn create(&self, name: &str) -> Result<(), LtsError> {
        self.gate("chunk.create")?;
        self.inner.create(name)
    }

    fn write(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), LtsError> {
        match self.plan.decide("chunk.write", data.len()) {
            FaultDecision::None => self.inner.write(name, offset, data),
            FaultDecision::Latency(d) => {
                spike(d);
                self.inner.write(name, offset, data)
            }
            FaultDecision::Transient
            | FaultDecision::Crash
            | FaultDecision::FlipBit { .. }
            | FaultDecision::TruncateTail { .. } => Err(LtsError::Unavailable),
            FaultDecision::Torn { keep } => {
                // Apply the prefix, then report failure: the caller cannot
                // tell how much landed, like a connection cut mid-PUT. If the
                // prefix write itself fails the chunk is simply untouched.
                let _ = self
                    .inner
                    .write(name, offset, &data[..keep.min(data.len())]);
                Err(LtsError::Io("injected torn write".to_string()))
            }
        }
    }

    fn read(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, LtsError> {
        self.gate("chunk.read")?;
        self.inner.read(name, offset, len)
    }

    fn length(&self, name: &str) -> Result<u64, LtsError> {
        self.gate("chunk.length")?;
        self.inner.length(name)
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), LtsError> {
        self.gate("chunk.truncate")?;
        self.inner.truncate(name, len)
    }

    fn seal(&self, name: &str) -> Result<(), LtsError> {
        self.gate("chunk.seal")?;
        self.inner.seal(name)
    }

    fn delete(&self, name: &str) -> Result<(), LtsError> {
        self.gate("chunk.delete")?;
        self.inner.delete(name)
    }

    fn exists(&self, name: &str) -> bool {
        // Existence probes are metadata-cheap and not a useful fault point:
        // they cannot report an error through this signature.
        self.inner.exists(name)
    }
}

/// [`Bookie`] decorator injecting faults from a [`FaultPlan`].
///
/// All faults (including torn draws — bookie entries are atomic, there is no
/// partial append) surface as [`BookieError::Unavailable`]; the quorum layer
/// above decides whether the ensemble still acks.
#[derive(Debug)]
pub struct FaultyBookie {
    inner: Arc<dyn Bookie>,
    plan: Arc<FaultPlan>,
}

impl FaultyBookie {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Arc<dyn Bookie>, plan: Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }

    /// The plan driving this decorator.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    /// The plan's draw for one operation: `Ok(Some(d))` is a latency spike.
    /// Entries are atomic, so the payload length passed is 0 and no torn
    /// write is drawn; every other fault is plain unavailability.
    fn draw(&self, operation: &str) -> Result<Option<Duration>, BookieError> {
        match self.plan.decide(operation, 0) {
            FaultDecision::None => Ok(None),
            FaultDecision::Latency(d) => Ok(Some(d)),
            FaultDecision::Transient
            | FaultDecision::Torn { .. }
            | FaultDecision::Crash
            | FaultDecision::FlipBit { .. }
            | FaultDecision::TruncateTail { .. } => Err(BookieError::Unavailable),
        }
    }

    fn gate(&self, operation: &str) -> Result<(), BookieError> {
        if let Some(d) = self.draw(operation)? {
            spike(d);
        }
        Ok(())
    }
}

impl Bookie for FaultyBookie {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn add_entry_then(
        &self,
        ledger: LedgerId,
        entry: u64,
        fence_token: u64,
        data: Bytes,
        ack: Ack,
    ) {
        // A latency draw must not sleep here, on the appender under its
        // ledger's sequencer: it rides with the ack onto this bookie's
        // journal thread, so the spike stalls this whole bookie (every
        // completion behind it, `Ack::delayed`) but never the appender, and
        // the quorum acks without it.
        match self.draw("bookie.add_entry") {
            Ok(delay) => {
                let ack = ack.delayed(delay.unwrap_or_default());
                self.inner
                    .add_entry_then(ledger, entry, fence_token, data, ack);
            }
            Err(e) => ack.complete(Err(e)),
        }
    }

    fn read_entry(&self, ledger: LedgerId, entry: u64) -> Result<Bytes, BookieError> {
        self.gate("bookie.read_entry")?;
        self.inner.read_entry(ledger, entry)
    }

    fn last_entry(&self, ledger: LedgerId) -> Result<Option<u64>, BookieError> {
        self.gate("bookie.last_entry")?;
        self.inner.last_entry(ledger)
    }

    fn fence(&self, ledger: LedgerId, token: u64) -> Result<Option<u64>, BookieError> {
        self.gate("bookie.fence")?;
        self.inner.fence(ledger, token)
    }

    fn delete_ledger(&self, ledger: LedgerId) -> Result<(), BookieError> {
        self.gate("bookie.delete_ledger")?;
        self.inner.delete_ledger(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pravega_lts::InMemoryChunkStorage;

    fn lossy_spec() -> FaultSpec {
        FaultSpec {
            transient_error_rate: 0.3,
            latency_spike_rate: 0.1,
            latency_spike: Duration::from_micros(10),
            torn_write_rate: 0.2,
        }
    }

    fn drive(plan: &FaultPlan, ops: usize) -> Vec<FaultDecision> {
        (0..ops)
            .map(|i| plan.decide("chunk.write", 64 + i % 7))
            .collect()
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let a = FaultPlan::new(0xfeed, lossy_spec());
        let b = FaultPlan::new(0xfeed, lossy_spec());
        assert_eq!(drive(&a, 500), drive(&b, 500));
        assert_eq!(a.log(), b.log());
        assert!(
            a.injected_faults() > 0,
            "lossy spec should inject something"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(1, lossy_spec());
        let b = FaultPlan::new(2, lossy_spec());
        assert_ne!(drive(&a, 500), drive(&b, 500));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::new(7, lossy_spec());
        let decisions = drive(&plan, 4000);
        let transient = decisions
            .iter()
            .filter(|d| matches!(d, FaultDecision::Transient))
            .count() as f64
            / 4000.0;
        // Torn is drawn first at 0.2, so transient lands near 0.8 * 0.3.
        assert!(
            (0.15..0.35).contains(&transient),
            "transient rate {transient} out of band"
        );
    }

    #[test]
    fn disabled_plan_is_transparent_and_resumes_in_place() {
        let plan = FaultPlan::new(9, lossy_spec());
        let first = plan.decide("chunk.write", 64);
        plan.set_enabled(false);
        for _ in 0..100 {
            assert_eq!(plan.decide("chunk.write", 64), FaultDecision::None);
        }
        plan.set_enabled(true);
        let second = plan.decide("chunk.write", 64);
        // Indices 0 and 1 of a fresh identical plan must match: the disabled
        // stretch consumed no indices.
        let fresh = FaultPlan::new(9, lossy_spec());
        assert_eq!(fresh.decide("chunk.write", 64), first);
        assert_eq!(fresh.decide("chunk.write", 64), second);
    }

    #[test]
    fn fail_next_ops_scripts_a_burst() {
        let plan = FaultPlan::manual();
        plan.fail_next_ops(3);
        for _ in 0..3 {
            assert_eq!(plan.decide("op", 0), FaultDecision::Transient);
        }
        assert_eq!(plan.decide("op", 0), FaultDecision::None);
        assert_eq!(plan.injected_faults(), 3);
    }

    #[test]
    fn trivial_plan_reproduces_set_unavailable() {
        let plan = Arc::new(FaultPlan::manual());
        let chunks = FaultyChunkStorage::new(Arc::new(InMemoryChunkStorage::new()), plan.clone());
        chunks.create("c").unwrap();
        chunks.write("c", 0, b"ab").unwrap();
        plan.set_unavailable(true);
        assert!(matches!(
            chunks.write("c", 2, b"cd"),
            Err(LtsError::Unavailable)
        ));
        assert!(matches!(chunks.read("c", 0, 2), Err(LtsError::Unavailable)));
        plan.set_unavailable(false);
        chunks.write("c", 2, b"cd").unwrap();
        assert_eq!(&chunks.read("c", 0, 4).unwrap()[..], b"abcd");
    }

    #[test]
    fn torn_write_applies_strict_prefix() {
        // Find a seed/op where the first write draw is Torn, then verify the
        // backend holds exactly the prefix.
        for seed in 0..200u64 {
            let probe = FaultPlan::new(
                seed,
                FaultSpec {
                    torn_write_rate: 1.0,
                    ..FaultSpec::default()
                },
            );
            let payload = b"0123456789";
            let FaultDecision::Torn { keep } = probe.decide("chunk.write", payload.len()) else {
                continue;
            };
            assert!(
                keep >= 1 && keep < payload.len(),
                "keep {keep} not a strict prefix"
            );
            let plan = Arc::new(FaultPlan::new(
                seed,
                FaultSpec {
                    torn_write_rate: 1.0,
                    ..FaultSpec::default()
                },
            ));
            let inner = Arc::new(InMemoryChunkStorage::new());
            let chunks = FaultyChunkStorage::new(inner.clone(), plan);
            inner.create("c").unwrap();
            assert!(matches!(
                chunks.write("c", 0, payload),
                Err(LtsError::Io(_))
            ));
            assert_eq!(inner.length("c").unwrap(), keep as u64);
            assert_eq!(&inner.read("c", 0, keep).unwrap()[..], &payload[..keep]);
            return;
        }
        panic!("no torn draw in 200 seeds with torn_write_rate = 1.0");
    }

    #[test]
    fn crash_schedule_is_a_pure_function_of_the_seed() {
        use pravega_common::crashpoints::ALL_CRASH_POINTS;
        let spec = CrashSpec {
            crash_rate: 0.25,
            max_crashes: u64::MAX,
            points: Vec::new(),
        };
        let drive = |plan: &FaultPlan| -> Vec<bool> {
            (0..400)
                .map(|i| plan.decide_crash(ALL_CRASH_POINTS[i % ALL_CRASH_POINTS.len()]))
                .collect()
        };
        let a = FaultPlan::with_crashes(0xbeef, FaultSpec::default(), spec.clone());
        let b = FaultPlan::with_crashes(0xbeef, FaultSpec::default(), spec.clone());
        assert_eq!(drive(&a), drive(&b));
        assert_eq!(a.log(), b.log());
        assert!(a.injected_crashes() > 0, "25% over 400 draws should fire");
        let c = FaultPlan::with_crashes(0xcafe, FaultSpec::default(), spec);
        assert_ne!(drive(&a), drive(&c), "different seeds should diverge");
    }

    #[test]
    fn crash_stream_does_not_shift_operation_faults() {
        let with = FaultPlan::with_crashes(
            11,
            lossy_spec(),
            CrashSpec {
                crash_rate: 1.0,
                max_crashes: u64::MAX,
                points: Vec::new(),
            },
        );
        let without = FaultPlan::new(11, lossy_spec());
        for _ in 0..50 {
            let _ = with.decide_crash(pravega_common::crashpoints::WAL_JOURNAL_MID_WRITE);
        }
        assert_eq!(drive(&with, 200), drive(&without, 200));
    }

    #[test]
    fn scripted_crash_fires_once_at_the_named_point() {
        use pravega_common::crashpoints as cp;
        let plan = Arc::new(FaultPlan::manual());
        plan.crash_at_next(cp::SEGMENTSTORE_STORAGEWRITER_MID_FLUSH);
        let hook = plan.crash_hook();
        assert!(hook.is_armed());
        // Other points pass through without consuming the script entry.
        assert!(!hook.fire(cp::WAL_JOURNAL_MID_WRITE));
        assert!(hook.fire(cp::SEGMENTSTORE_STORAGEWRITER_MID_FLUSH));
        // One-shot: the next occurrence passes.
        assert!(!hook.fire(cp::SEGMENTSTORE_STORAGEWRITER_MID_FLUSH));
        assert_eq!(plan.injected_crashes(), 1);
        let log = plan.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].operation, cp::SEGMENTSTORE_STORAGEWRITER_MID_FLUSH);
        assert_eq!(log[0].decision, FaultDecision::Crash);
    }

    #[test]
    fn max_crashes_caps_probabilistic_firings() {
        use pravega_common::crashpoints::WAL_JOURNAL_WRITE_NO_ACK;
        let plan = FaultPlan::with_crashes(
            3,
            FaultSpec::default(),
            CrashSpec {
                crash_rate: 1.0,
                max_crashes: 2,
                points: vec![WAL_JOURNAL_WRITE_NO_ACK],
            },
        );
        let fired: usize = (0..10)
            .filter(|_| plan.decide_crash(WAL_JOURNAL_WRITE_NO_ACK))
            .count();
        assert_eq!(fired, 2);
        // Points outside the eligibility list never fire.
        assert!(!plan.decide_crash(pravega_common::crashpoints::WAL_JOURNAL_MID_WRITE));
        // Disabled plans pass everything through, even scripted crashes.
        plan.crash_at_next(WAL_JOURNAL_WRITE_NO_ACK);
        plan.set_enabled(false);
        assert!(!plan.decide_crash(WAL_JOURNAL_WRITE_NO_ACK));
    }

    #[test]
    fn metrics_binding_counts_faults() {
        let registry = MetricsRegistry::new();
        let plan = FaultPlan::manual();
        plan.fail_next_ops(2);
        let _ = plan.decide("op", 0);
        plan.bind_metrics(&registry);
        let _ = plan.decide("op", 0);
        assert_eq!(
            registry.counter("faults.plan.faults_injected").get(),
            2,
            "pre-binding faults folded in, post-binding faults counted live"
        );
    }

    #[derive(Debug)]
    struct StubBookie;

    impl Bookie for StubBookie {
        fn id(&self) -> &str {
            "stub"
        }
        fn add_entry_then(&self, _: LedgerId, _: u64, _: u64, _: Bytes, ack: Ack) {
            ack.complete(Ok(()));
        }
        fn read_entry(&self, _: LedgerId, _: u64) -> Result<Bytes, BookieError> {
            Ok(Bytes::new())
        }
        fn last_entry(&self, _: LedgerId) -> Result<Option<u64>, BookieError> {
            Ok(None)
        }
        fn fence(&self, _: LedgerId, _: u64) -> Result<Option<u64>, BookieError> {
            Ok(None)
        }
        fn delete_ledger(&self, _: LedgerId) -> Result<(), BookieError> {
            Ok(())
        }
    }

    #[test]
    fn faulty_bookie_surfaces_unavailable() {
        let plan = Arc::new(FaultPlan::manual());
        let bookie = FaultyBookie::new(Arc::new(StubBookie), plan.clone());
        assert_eq!(bookie.id(), "stub");
        bookie
            .add_entry(LedgerId(1), 0, 0, Bytes::from_static(b"e"))
            .unwrap();
        plan.set_unavailable(true);
        assert!(matches!(
            bookie.add_entry(LedgerId(1), 1, 0, Bytes::from_static(b"e")),
            Err(BookieError::Unavailable)
        ));
        assert!(matches!(
            bookie.last_entry(LedgerId(1)),
            Err(BookieError::Unavailable)
        ));
        plan.set_unavailable(false);
        bookie.fence(LedgerId(1), 1).unwrap();
    }

    #[test]
    fn corruption_stream_is_deterministic_and_disjoint() {
        let a = FaultPlan::new(0xC0DE, lossy_spec());
        let b = FaultPlan::new(0xC0DE, lossy_spec());
        let da: Vec<_> = (0..40).map(|i| a.draw_corruption("blob", 2 + i)).collect();
        // `b` burns 123 operation faults first: the corruption stream is
        // disjoint, so its draws must still match `a`'s byte for byte.
        drive(&b, 123);
        let db: Vec<_> = (0..40).map(|i| b.draw_corruption("blob", 2 + i)).collect();
        assert_eq!(da, db);
        let corruption_log = |p: &FaultPlan| -> Vec<FaultRecord> {
            p.log()
                .into_iter()
                .filter(|r| {
                    matches!(
                        r.decision,
                        FaultDecision::FlipBit { .. } | FaultDecision::TruncateTail { .. }
                    )
                })
                .collect()
        };
        assert_eq!(corruption_log(&a), corruption_log(&b));
        let c = FaultPlan::new(0xD00D, lossy_spec());
        let dc: Vec<_> = (0..40).map(|i| c.draw_corruption("blob", 2 + i)).collect();
        assert_ne!(da, dc, "different seeds should draw different corruption");
    }

    #[test]
    fn corruption_draws_do_not_shift_operation_faults() {
        let with = FaultPlan::new(5, lossy_spec());
        let without = FaultPlan::new(5, lossy_spec());
        for i in 0..50 {
            let _ = with.draw_corruption("blob", 64 + i);
        }
        assert_eq!(drive(&with, 300), drive(&without, 300));
    }

    #[test]
    fn draw_corruption_respects_bounds_and_tiny_blobs() {
        let plan = FaultPlan::new(42, lossy_spec());
        assert_eq!(plan.draw_corruption("blob", 0), None);
        assert_eq!(plan.draw_corruption("blob", 1), None);
        for i in 0..200 {
            let len = 2 + i % 13;
            match plan.draw_corruption("blob", len) {
                Some(FaultDecision::FlipBit { offset, mask }) => {
                    assert!(offset < len);
                    assert_eq!(mask.count_ones(), 1);
                }
                Some(FaultDecision::TruncateTail { drop }) => {
                    assert!(drop >= 1 && drop < len, "drop {drop} of {len}");
                }
                other => panic!("unexpected draw {other:?}"),
            }
        }
        // Disabled plans draw nothing and consume no index.
        plan.set_enabled(false);
        assert_eq!(plan.draw_corruption("blob", 64), None);
    }

    #[test]
    fn corrupt_chunk_applies_the_drawn_decision() {
        let plan = FaultPlan::new(3, lossy_spec());
        let chunks = InMemoryChunkStorage::new();
        chunks.create("c").unwrap();
        chunks.write("c", 0, &[7u8; 64]).unwrap();
        let decision = corrupt_chunk(&plan, &chunks, "c").expect("chunk is corruptible");
        match decision {
            FaultDecision::FlipBit { offset, mask } => {
                let data = chunks.read("c", 0, 64).unwrap();
                assert_eq!(data[offset as usize], 7u8 ^ mask);
            }
            FaultDecision::TruncateTail { drop } => {
                assert_eq!(chunks.length("c").unwrap(), 64 - drop);
            }
            other => panic!("unexpected corruption {other:?}"),
        }
        assert_eq!(corrupt_chunk(&plan, &chunks, "missing"), None);
    }

    #[test]
    fn corrupt_entry_mutates_the_stored_envelope() {
        let plan = FaultPlan::new(4, lossy_spec());
        let bookie =
            pravega_wal::JournalBookie::new("b0", pravega_wal::JournalConfig::default()).unwrap();
        bookie
            .add_entry(LedgerId(1), 0, 0, Bytes::from(vec![9u8; 32]))
            .unwrap();
        let before = bookie.raw_entry(LedgerId(1), 0).unwrap();
        let decision = corrupt_entry(&plan, &bookie, LedgerId(1), 0).expect("entry exists");
        let after = bookie.raw_entry(LedgerId(1), 0).unwrap();
        assert_ne!(before, after, "{decision:?} must change the stored bytes");
        assert_eq!(corrupt_entry(&plan, &bookie, LedgerId(1), 99), None);
    }
}

//! What the generator sends: seeded payloads, routing keys and the open-loop
//! slot schedule. Everything here is a pure function of `--seed`.

use bytes::{BufMut, Bytes, BytesMut};

/// Routing keys a workload draws from.
pub const KEY_COUNT: u32 = 64;
/// `(writer u32, key u32, seq u64, created_ns u64)` in front of the fill.
pub const HEADER_BYTES: usize = 24;
/// Bytes the client's event framing adds in the segment (`u32` length).
pub const FRAME_PREFIX_BYTES: usize = 4;
/// Size of the seeded byte pool event fills are cut from.
const POOL_BYTES: usize = 1 << 20;

/// SplitMix64: small, seedable, and good enough to make payloads that a
/// codec or checksum cannot shortcut the way it could a constant fill.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻³² for the
    /// small ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fields the generator stamps on every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHeader {
    pub writer: u32,
    pub key: u32,
    /// Per-writer sequence number, dense from 0.
    pub seq: u64,
    /// Harness nanoseconds the event counts as created at: its scheduled
    /// slot on an open loop, the moment it was sent on a closed one.
    pub created_ns: u64,
}

/// Builds and checks event payloads of one size for one seed.
#[derive(Debug)]
pub struct EventFactory {
    pool: Vec<u8>,
    fill_len: usize,
    seed: u64,
}

impl EventFactory {
    /// `event_bytes` is the payload size handed to `write_event`, header
    /// included.
    pub fn new(seed: u64, event_bytes: usize) -> Self {
        assert!(event_bytes >= HEADER_BYTES, "event smaller than its header");
        let mut rng = Rng::new(seed ^ 0xF11_1F11);
        let mut pool = Vec::with_capacity(POOL_BYTES);
        while pool.len() < POOL_BYTES {
            pool.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        EventFactory {
            pool,
            fill_len: event_bytes - HEADER_BYTES,
            seed,
        }
    }

    pub fn event_bytes(&self) -> usize {
        self.fill_len + HEADER_BYTES
    }

    fn fill(&self, writer: u32, seq: u64) -> &[u8] {
        let span = (POOL_BYTES - self.fill_len) as u64;
        let at = (mix(self.seed ^ ((writer as u64) << 48) ^ seq) % span) as usize;
        &self.pool[at..at + self.fill_len]
    }

    pub fn build(&self, h: EventHeader) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.event_bytes());
        buf.put_u32(h.writer);
        buf.put_u32(h.key);
        buf.put_u64(h.seq);
        buf.put_u64(h.created_ns);
        buf.put_slice(self.fill(h.writer, h.seq));
        buf.freeze()
    }

    /// Parses a payload read back from the system; `None` if its size or its
    /// fill is not what [`EventFactory::build`] produced for that header.
    pub fn parse(&self, payload: &[u8]) -> Option<EventHeader> {
        if payload.len() != self.event_bytes() {
            return None;
        }
        let word = |at: usize, len: usize| payload.get(at..at + len);
        let h = EventHeader {
            writer: u32::from_be_bytes(word(0, 4)?.try_into().ok()?),
            key: u32::from_be_bytes(word(4, 4)?.try_into().ok()?),
            seq: u64::from_be_bytes(word(8, 8)?.try_into().ok()?),
            created_ns: u64::from_be_bytes(word(16, 8)?.try_into().ok()?),
        };
        (payload.get(HEADER_BYTES..)? == self.fill(h.writer, h.seq)).then_some(h)
    }
}

/// Routing-key strings, indexed by key number.
pub fn key_names() -> Vec<String> {
    (0..KEY_COUNT).map(|k| format!("key-{k:02}")).collect()
}

/// The key each of a writer's events goes to, drawn from the seed.
#[derive(Debug, Clone)]
pub struct KeyDraw(Rng);

impl KeyDraw {
    pub fn new(seed: u64, writer: u32) -> Self {
        KeyDraw(Rng::new(seed ^ 0x6B65_7900 ^ ((writer as u64) << 32)))
    }

    pub fn next_key(&mut self) -> u32 {
        self.0.below(KEY_COUNT as u64) as u32
    }
}

/// Open-loop send slots, as nanoseconds from the window start: event `i` is
/// due at `i / rate` plus a seeded jitter of up to half a gap, so arrivals
/// are not phase-locked to the system's own timers while every whole second
/// still carries `rate` events. Ends before `window_ns`.
pub fn slot_schedule(seed: u64, rate_per_sec: u64, window_ns: u64) -> Vec<u64> {
    let gap_ns = 1_000_000_000 / rate_per_sec;
    let events = (window_ns / gap_ns) as usize;
    let mut rng = Rng::new(seed ^ 0x510F_5C4E);
    (0..events)
        .map(|i| i as u64 * gap_ns + rng.below(gap_ns / 2))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_roundtrip_and_depend_on_the_seed() {
        let f = EventFactory::new(7, 100);
        let h = EventHeader {
            writer: 1,
            key: 63,
            seq: 123_456,
            created_ns: 42,
        };
        let p = f.build(h);
        assert_eq!(p.len(), 100);
        assert_eq!(f.parse(&p), Some(h));
        // Another seed cuts another fill; the same seed cuts the same one.
        assert_ne!(EventFactory::new(8, 100).build(h), p);
        assert_eq!(EventFactory::new(7, 100).build(h), p);
        // A flipped fill byte, a wrong size and a wrong seq are all caught.
        let mut bad = p.to_vec();
        bad[50] ^= 1;
        assert_eq!(f.parse(&bad), None);
        assert_eq!(f.parse(&p[..99]), None);
        let mut reseq = p.to_vec();
        reseq[15] ^= 1;
        assert_eq!(f.parse(&reseq), None);
        // Not a constant fill.
        assert!(p[HEADER_BYTES..].iter().any(|&b| b != p[HEADER_BYTES]));
    }

    #[test]
    fn keys_are_seeded_and_in_range() {
        let draw = |seed, writer| {
            let mut d = KeyDraw::new(seed, writer);
            (0..1000).map(|_| d.next_key()).collect::<Vec<u32>>()
        };
        let a = draw(1, 0);
        assert_eq!(a, draw(1, 0));
        assert_ne!(a, draw(2, 0));
        assert_ne!(a, draw(1, 1));
        assert!(a.iter().all(|&k| k < KEY_COUNT));
        assert_eq!(key_names().len(), KEY_COUNT as usize);
    }

    #[test]
    fn slot_schedule_carries_the_stated_rate() {
        let slots = slot_schedule(3, 2_000, 10_000_000_000);
        assert_eq!(slots.len(), 20_000);
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots are ordered");
        assert!(*slots.last().unwrap() < 10_000_000_000);
        // Every whole second holds exactly `rate` slots.
        for sec in 0..10u64 {
            let n = slots.iter().filter(|&&s| s / 1_000_000_000 == sec).count();
            assert_eq!(n, 2_000, "second {sec}");
        }
        assert_eq!(slots, slot_schedule(3, 2_000, 10_000_000_000));
        assert_ne!(slots, slot_schedule(4, 2_000, 10_000_000_000));
    }
}

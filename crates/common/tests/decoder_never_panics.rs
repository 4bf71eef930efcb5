//! Property: [`FrameDecoder`] never panics, whatever bytes it is fed.
//!
//! This is the testable face of the clippy restriction lints the codec
//! files switch on (`indexing_slicing`, `arithmetic_side_effects`,
//! `cast_possible_truncation`): the decode path may only fail through
//! typed [`CodecError`]s. The workspace test profile runs with
//! `overflow-checks = true`, so any unchecked length/offset arithmetic in
//! the decoder turns into a panic these cases would catch.

use bytes::BytesMut;
use proptest::prelude::*;

use pravega_common::protocol::{encode_request, FrameDecoder, MAX_FRAME_BYTES};
use pravega_common::wire::{Request, RequestEnvelope};

fn sample_frame() -> Vec<u8> {
    let env = RequestEnvelope {
        request_id: 7,
        request: Request::SetupAppend {
            writer_id: pravega_common::id::WriterId(1),
            segment: pravega_common::id::ScopedStream::new("s", "t")
                .expect("valid")
                .segment(pravega_common::id::SegmentId::new(0, 1)),
        },
    };
    let mut out = BytesMut::new();
    encode_request(&env, &mut out);
    out.as_slice().to_vec()
}

/// Drains a decoder until it reports "need more bytes" or condemns the
/// stream. Every outcome except a panic is acceptable here.
fn drain(dec: &mut FrameDecoder) {
    for _ in 0..16 {
        match dec.next_request() {
            Ok(Some(_)) | Ok(None) => {}
            Err(_) => break,
        }
    }
    for _ in 0..16 {
        match dec.next_reply() {
            Ok(Some(_)) | Ok(None) => {}
            Err(_) => break,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..1024),
        split in any::<u16>(),
    ) {
        // Feed in two chunks at an arbitrary cut so reassembly paths (length
        // prefix straddling a read boundary, etc.) are exercised too.
        let cut = (split as usize) % (bytes.len() + 1);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes[..cut]);
        drain(&mut dec);
        dec.feed(&bytes[cut..]);
        drain(&mut dec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn mutated_valid_frame_never_panics(pos in any::<u16>(), flip in any::<u8>()) {
        // A single corrupted byte anywhere in an otherwise valid frame —
        // including the length prefix, version, tag, and crc — must produce
        // a typed error or an incomplete read, never a panic.
        let mut frame = sample_frame();
        let idx = (pos as usize) % frame.len();
        frame[idx] ^= flip | 1; // always flips at least one bit
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        drain(&mut dec);
    }
}

#[test]
fn boundary_length_prefixes_never_panic() {
    // Length prefixes at every interesting boundary: zero, just below the
    // minimum, the minimum with no body, the maximum, one past it, and the
    // all-ones pattern.
    let lengths: [u32; 7] = [
        0,
        13,
        14,
        MAX_FRAME_BYTES as u32 - 1,
        MAX_FRAME_BYTES as u32,
        MAX_FRAME_BYTES as u32 + 1,
        u32::MAX,
    ];
    for len in lengths {
        let mut dec = FrameDecoder::new();
        dec.feed(&len.to_be_bytes());
        // In-range prefixes are incomplete reads; out-of-range ones are
        // typed errors. Either way: no panic, even polled repeatedly.
        for _ in 0..4 {
            let _ = dec.next_request();
        }
        // Append a plausible body and poll again so the crc/body paths run.
        let body = vec![0u8; (len as usize).min(MAX_FRAME_BYTES)];
        dec.feed(&body);
        for _ in 0..4 {
            let _ = dec.next_request();
        }
    }
}

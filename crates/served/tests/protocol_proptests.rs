//! Property-based tests of the wire protocol (satellite of ISSUE 9):
//! render→parse is the identity for random payload lengths in both
//! encodings and both directions, and no line of garbage — truncated,
//! mutated, or random bytes — can make either parser panic.

use ldpc_served::protocol::{
    b64_decode, b64_encode, hex_decode, hex_encode, parse_request, parse_response, render_request,
    render_response, DecodedFrame, Encoding, ErrorKind, Payload, Request, Response,
};
use proptest::prelude::*;

fn encoding(b64: bool) -> Encoding {
    if b64 {
        Encoding::Base64
    } else {
        Encoding::Hex
    }
}

/// Spec strings exercise the full printable range the grammar can meet,
/// minus the two protocol metacharacters (`|` frames fields, control
/// characters are rejected by design).
fn arb_spec() -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 1..40).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| if b == b'|' { b'/' } else { b } as char)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_codecs_roundtrip(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        prop_assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes.clone());
        prop_assert_eq!(b64_decode(&b64_encode(&bytes)).unwrap(), bytes);
    }

    #[test]
    fn decode_requests_roundtrip(
        spec in arb_spec(),
        soft in any::<bool>(),
        b64 in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 1..600),
    ) {
        let payload = if soft {
            Payload::Llr8(bytes.iter().map(|&b| b as i8).collect())
        } else {
            Payload::Bits(bytes)
        };
        let req = Request::Decode { spec, payload, encoding: encoding(b64) };
        prop_assert_eq!(parse_request(&render_request(&req)).unwrap(), req);
    }

    #[test]
    fn ok_responses_roundtrip(
        bit_len in 1usize..4000,
        iterations in 0u32..1000,
        converged in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let bits: Vec<u8> = (0..bit_len.div_ceil(8))
            .map(|i| (seed.rotate_left((i % 64) as u32) ^ i as u64) as u8)
            .collect();
        let resp = Response::Decoded(DecodedFrame { bits, bit_len, iterations, converged });
        prop_assert_eq!(parse_response(&render_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn busy_error_and_stats_responses_roundtrip(
        retry_after_us in any::<u64>(),
        kind_idx in 0usize..5,
        message in arb_spec(),
        stats_lines in prop::collection::vec(arb_spec(), 0..8),
    ) {
        let busy = Response::Busy { retry_after_us, reason: None };
        prop_assert_eq!(parse_response(&render_response(&busy)).unwrap(), busy);
        let refused = Response::Busy { retry_after_us, reason: Some(message.clone()) };
        prop_assert_eq!(parse_response(&render_response(&refused)).unwrap(), refused);

        let kind = [
            ErrorKind::BadRequest,
            ErrorKind::BadSpec,
            ErrorKind::BadPayload,
            ErrorKind::ShuttingDown,
            ErrorKind::Internal,
        ][kind_idx];
        let err = Response::Error { kind, message };
        prop_assert_eq!(parse_response(&render_response(&err)).unwrap(), err);

        // Stats bodies round-trip as long as no line is the terminator
        // (the renderer filters such lines out by contract).
        let body: Vec<String> = stats_lines.into_iter().filter(|l| l != ".").collect();
        let stats = Response::Stats(body.join("\n"));
        prop_assert_eq!(parse_response(&render_response(&stats)).unwrap(), stats);
    }

    /// Random printable garbage never panics either parser; it either
    /// parses (the fuzzer can assemble a valid line) or errors.
    #[test]
    fn random_lines_never_panic(bytes in prop::collection::vec(32u8..127, 0..200)) {
        let line: String = bytes.into_iter().map(|b| b as char).collect();
        let _ = parse_request(&line);
        let _ = parse_response(&line);
    }

    /// Truncating a valid request anywhere is rejected or re-parsed,
    /// never a panic — and a truncated payload can never silently
    /// produce the original frame.
    #[test]
    fn truncated_requests_never_panic(
        spec in arb_spec(),
        bytes in prop::collection::vec(any::<u8>(), 1..64),
        b64 in any::<bool>(),
        cut_num in 0usize..10_000,
    ) {
        let req = Request::Decode {
            spec,
            payload: Payload::Llr8(bytes.iter().map(|&b| b as i8).collect()),
            encoding: encoding(b64),
        };
        let line = render_request(&req);
        let cut = cut_num % line.len();
        let truncated = &line[..cut];
        if let Ok(Request::Decode { payload, .. }) = parse_request(truncated) {
            prop_assert_ne!(payload, Payload::Llr8(bytes.iter().map(|&b| b as i8).collect()));
        }
    }

    /// Flipping one byte of a valid response line never panics the
    /// parser.
    #[test]
    fn mutated_responses_never_panic(
        bit_len in 1usize..200,
        flip_pos_num in any::<usize>(),
        flip_to in 32u8..127,
    ) {
        let resp = Response::Decoded(DecodedFrame {
            bits: vec![0x5A; bit_len.div_ceil(8)],
            bit_len,
            iterations: 9,
            converged: true,
        });
        let mut line = render_response(&resp).into_bytes();
        let pos = flip_pos_num % line.len();
        line[pos] = flip_to;
        let line = String::from_utf8(line).unwrap();
        let _ = parse_response(&line);
    }
}

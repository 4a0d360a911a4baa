//! Loopback integration test of the decode service (satellite of
//! ISSUE 9): a server on port 0, N frames over M concurrent
//! connections, and every decoded frame — bits, iteration count,
//! convergence flag — bit-identical to decoding the same LLRs directly
//! through the library, one frame at a time with the scalar variant of
//! the served spec.
//!
//! That comparison is exact by design: the packed/batched engines are
//! conformance-pinned lane-exact against their scalar mirrors whatever
//! the word-mates, so coalescing frames from different connections into
//! one word must not change any answer.

use ccsds_ldpc::channel::AwgnChannel;
use ccsds_ldpc::core::codes::small::demo_code;
use ccsds_ldpc::core::{DecodeResult, DecoderSpec};
use ccsds_ldpc::gf2::BitVec;
use ccsds_ldpc::served::{protocol, Client, DecodedFrame, Encoding, ServeConfig, Server};
use std::time::Duration;

const ITERS: u32 = 18;
const CONNECTIONS: usize = 6;
const FRAMES_PER_CONNECTION: usize = 16;

/// Noisy all-zero demo frames, pre-quantized to the wire scale. 3 dB
/// keeps a few frames unconverged so iteration counts and flags are
/// exercised, not just happy paths.
fn workload(seed: u64) -> Vec<Vec<i8>> {
    let code = demo_code();
    let mut channel = AwgnChannel::from_ebn0(3.0, code.rate(), seed);
    let zero = BitVec::zeros(code.n());
    (0..CONNECTIONS * FRAMES_PER_CONNECTION)
        .map(|_| {
            channel
                .transmit_codeword(&zero)
                .into_iter()
                .map(protocol::quantize_llr)
                .collect()
        })
        .collect()
}

/// The library-direct reference: the scalar variant of `spec`, decoding
/// the dequantized LLRs one frame at a time.
fn reference(spec: &str, frames: &[Vec<i8>]) -> Vec<DecodeResult> {
    let scenario: ccsds_ldpc::sim::Scenario = spec.parse().unwrap();
    let scalar = DecoderSpec::scalar(scenario.decoder.family);
    let code = demo_code();
    let mut decoder = scalar.build(&code);
    frames
        .iter()
        .flat_map(|q| decoder.decode_block(&protocol::llr8_to_f32(q), ITERS))
        .collect()
}

fn assert_matches_reference(spec: &str, frames: &[Vec<i8>], served: &[DecodedFrame]) {
    let reference = reference(spec, frames);
    let n = demo_code().n();
    assert_eq!(served.len(), reference.len());
    for (i, (got, want)) in served.iter().zip(&reference).enumerate() {
        assert_eq!(got.iterations, want.iterations, "{spec} frame {i}");
        assert_eq!(got.converged, want.converged, "{spec} frame {i}");
        assert_eq!(got.bit_len, n, "{spec} frame {i}");
        for bit in 0..n {
            assert_eq!(
                got.bit(bit),
                want.hard_decision.get(bit),
                "{spec} frame {i} bit {bit}"
            );
        }
    }
}

/// Decodes the workload over `CONNECTIONS` concurrent connections and
/// returns the frames in workload order.
fn serve_workload(addr: std::net::SocketAddr, spec: &str, frames: &[Vec<i8>]) -> Vec<DecodedFrame> {
    let mut out: Vec<Option<DecodedFrame>> = vec![None; frames.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = frames
            .chunks(FRAMES_PER_CONNECTION)
            .map(|share| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    share
                        .iter()
                        .map(|q| client.decode_llr8(spec, q, Encoding::Hex).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (c, h) in handles.into_iter().enumerate() {
            for (i, frame) in h.join().unwrap().into_iter().enumerate() {
                out[c * FRAMES_PER_CONNECTION + i] = Some(frame);
            }
        }
    });
    out.into_iter().map(Option::unwrap).collect()
}

#[test]
fn served_counts_are_bit_identical_to_direct_decoding() {
    let server = Server::bind(ServeConfig {
        max_iterations: ITERS,
        ..ServeConfig::default()
    })
    .expect("bind port 0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let frames = workload(0xA12);
    // A soft packed spec and a batched spec share the server; their
    // queues coalesce independently under the same worker pool.
    for spec in ["demo / fixed@pack=8", "demo / nms:1.25@batch=8"] {
        let served = serve_workload(addr, spec, &frames);
        assert_matches_reference(spec, &frames, &served);
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.contains(&format!(
            "ldpc_served_frames_decoded_total {}",
            2 * frames.len()
        )),
        "{stats}"
    );

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.frames_decoded, 2 * frames.len() as u64);
    assert_eq!(summary.frames_rejected, 0);
}

#[test]
fn served_hard_decision_bitslice_matches_direct_decoding() {
    // Hard-decision path: 64-lane bit-sliced Gallager-B. The wire
    // carries packed bits; the reference decodes the same ±HARD_BIT_LLR
    // expansion through scalar gallager-b.
    let server = Server::bind(ServeConfig {
        max_iterations: ITERS,
        ..ServeConfig::default()
    })
    .expect("bind port 0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let code = demo_code();
    let n = code.n();
    let spec = "demo / gallager-b@bitslice";
    // Flip a couple of bits per frame so the decoder has work to do.
    let frames_bits: Vec<Vec<u8>> = (0..CONNECTIONS * FRAMES_PER_CONNECTION)
        .map(|f| {
            let mut packed = vec![0u8; n.div_ceil(8)];
            for k in 0..2 {
                let bit = (f * 37 + k * 101) % n;
                packed[bit / 8] |= 1 << (7 - (bit % 8));
            }
            packed
        })
        .collect();

    let served: Vec<DecodedFrame> = std::thread::scope(|s| {
        let handles: Vec<_> = frames_bits
            .chunks(FRAMES_PER_CONNECTION)
            .map(|share| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    share
                        .iter()
                        .map(|p| client.decode_bits(spec, p, Encoding::Base64).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let mut scalar = DecoderSpec::parse("gallager-b").unwrap().build(&code);
    for (i, (got, packed)) in served.iter().zip(&frames_bits).enumerate() {
        let llrs = protocol::bits_to_llrs(packed, n);
        let want = &scalar.decode_block(&llrs, ITERS)[0];
        assert_eq!(got.iterations, want.iterations, "frame {i}");
        assert_eq!(got.converged, want.converged, "frame {i}");
        for bit in 0..n {
            assert_eq!(
                got.bit(bit),
                want.hard_decision.get(bit),
                "frame {i} bit {bit}"
            );
        }
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn staggered_frames_on_two_keys_match_direct_decoding() {
    // Frames trickle in over several connections, alternating between a
    // packed key and a batched key with uneven gaps, so words ship with
    // anywhere from one frame to a full queue and claims alternate
    // between the keys. None of that may change an answer.
    let server = Server::bind(ServeConfig {
        max_iterations: ITERS,
        ..ServeConfig::default()
    })
    .expect("bind port 0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let specs = ["demo / fixed@pack=8", "demo / nms:1.25@batch=8"];
    let frames = workload(0x57A6);
    let mut served: Vec<Option<DecodedFrame>> = vec![None; frames.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let frames = &frames;
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    (c..frames.len())
                        .step_by(CONNECTIONS)
                        .map(|i| {
                            std::thread::sleep(Duration::from_micros(150 * ((i * 7 % 5) as u64)));
                            let frame = client
                                .decode_llr8(specs[i % 2], &frames[i], Encoding::Hex)
                                .unwrap();
                            (i, frame)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, frame) in h.join().unwrap() {
                served[i] = Some(frame);
            }
        }
    });
    for (k, spec) in specs.iter().enumerate() {
        let own: Vec<usize> = (k..frames.len()).step_by(2).collect();
        let sent: Vec<Vec<i8>> = own.iter().map(|&i| frames[i].clone()).collect();
        let got: Vec<DecodedFrame> = own.iter().map(|&i| served[i].clone().unwrap()).collect();
        assert_matches_reference(spec, &sent, &got);
    }

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.frames_decoded, frames.len() as u64);
    assert_eq!(summary.frames_rejected, 0);
}

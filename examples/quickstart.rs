//! Quickstart: encode one CCSDS C2 frame, push it through an AWGN channel,
//! and decode it with the paper's fixed-point datapath.
//!
//! Run with `cargo run --release --example quickstart`.

use ccsds_ldpc::channel::AwgnChannel;
use ccsds_ldpc::core::codes::ccsds_c2;
use ccsds_ldpc::core::DecoderSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// `pub` so tests/quickstart_smoke.rs can include this file as a module and
// run it under `cargo test`.
pub fn main() {
    // --- The code (paper §2.2, Figures 1-2). ---
    let code = ccsds_c2::code();
    println!("code: {}", code.name());
    println!(
        "  n = {} bits, checks = {}, edges = {}",
        code.n(),
        code.n_checks(),
        code.graph().n_edges()
    );
    println!(
        "  rank(H) = {} -> dimension {} (rate {:.4})",
        code.rank(),
        code.dimension(),
        code.rate()
    );
    println!("  row weight = 32, column weight = 4 (quasi-cyclic, 2x16 circulants of 511)");

    // --- Encode a random 7154-bit telemetry frame. ---
    let mut rng = StdRng::seed_from_u64(2009);
    let info: Vec<u8> = (0..ccsds_c2::K_INFO)
        .map(|_| rng.gen_range(0..2u8))
        .collect();
    let codeword = ccsds_c2::encode_frame(&info).expect("frame has the right length");
    println!(
        "\nencoded {} info bits into an {}-bit codeword",
        info.len(),
        codeword.len()
    );

    // --- Transmit at 4.2 dB Eb/N0 over BPSK/AWGN. ---
    let ebn0_db = 4.2;
    let mut channel = AwgnChannel::from_ebn0(ebn0_db, code.rate(), 42);
    let llrs = channel.transmit_codeword(&codeword);
    let raw_errors = llrs
        .iter()
        .enumerate()
        .filter(|(i, &l)| (l < 0.0) != codeword.get(*i))
        .count();
    println!(
        "channel: Eb/N0 = {ebn0_db} dB, sigma = {:.4}, raw bit errors = {raw_errors}",
        channel.sigma()
    );

    // --- Decode with the hardware datapath (18 iterations, paper §4),
    // built through the declarative registry front door: swap the spec
    // string ("nms:1.25", "fixed@pack=8", "gallager-b@bitslice", ...)
    // to try any registered family.
    let spec = DecoderSpec::parse("fixed").expect("valid spec");
    let mut decoder = spec.build(&code);
    let out = &decoder.decode_block(&llrs, 18)[0];
    let residual = (0..code.n())
        .filter(|&i| out.hard_decision.get(i) != codeword.get(i))
        .count();
    println!(
        "\ndecoder: {spec} ({}) | converged = {} after {} iterations | residual bit errors = {residual}",
        decoder.name(),
        out.converged,
        out.iterations
    );
    assert!(
        out.converged,
        "4.2 dB is well inside the waterfall; decode should succeed"
    );
    assert_eq!(residual, 0);
    println!(
        "frame recovered exactly — all {} parity checks satisfied",
        code.n_checks()
    );
}

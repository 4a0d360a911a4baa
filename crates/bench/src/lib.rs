//! Shared helpers for the benchmark harness.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper (see DESIGN.md §10 for the experiment index) and additionally
//! measures the runtime of the computation behind it with Criterion. The
//! regenerated rows are printed to stdout so `cargo bench` output doubles
//! as the reproduction record collected in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gf2::BitVec;
use ldpc_channel::AwgnChannel;
use ldpc_core::codes::{ccsds_c2, small::demo_code};
use ldpc_core::{LdpcCode, PackedFixedDecoder};
use ldpc_sim::{MonteCarloConfig, Transmission};
use std::sync::Arc;

/// A Monte-Carlo configuration sized for benchmark runs: statistically
/// meaningful on the demo code yet fast enough to keep `cargo bench`
/// under a few minutes.
pub fn bench_mc_config(ebn0_db: f64, max_iterations: u32) -> MonteCarloConfig {
    MonteCarloConfig {
        ebn0_db,
        max_frames: 3_000,
        target_frame_errors: 60,
        max_iterations,
        seed: 0xBE7C4,
        threads: 0,
        transmission: Transmission::AllZero,
    }
}

/// A very short Monte-Carlo configuration for the full 8176-bit C2 code.
pub fn c2_mc_config(ebn0_db: f64, max_iterations: u32) -> MonteCarloConfig {
    MonteCarloConfig {
        ebn0_db,
        max_frames: 40,
        target_frame_errors: 15,
        max_iterations,
        seed: 0xC2BE,
        threads: 0,
        transmission: Transmission::AllZero,
    }
}

/// Header line announcing which paper artifact a bench regenerates.
pub fn announce(experiment: &str, artifact: &str) {
    println!("\n=== {experiment}: regenerating {artifact} ===");
}

/// Noisy all-zero frames at `ebn0` dB over AWGN, stored back to back —
/// the shared workload generator of the throughput benches (A5/A6/A7),
/// so per-family setup is not copy-pasted per target.
pub fn noisy_frames(code: &Arc<LdpcCode>, count: usize, ebn0: f64, seed: u64) -> Vec<f32> {
    let mut channel = AwgnChannel::from_ebn0(ebn0, code.rate(), seed);
    let zero = BitVec::zeros(code.n());
    let mut llrs = Vec::with_capacity(count * code.n());
    for _ in 0..count {
        llrs.extend(channel.transmit_codeword(&zero));
    }
    llrs
}

/// Wall-clock frames/second of one invocation of `run` over
/// `total_frames` frames.
pub fn frames_per_sec(total_frames: usize, mut run: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    run();
    total_frames as f64 / start.elapsed().as_secs_f64()
}

/// Provenance of the build a bench measured, as the JSON `build` object
/// of its `BENCH_*.json`: cargo features (the workspace crates define
/// none, so the list is empty), whether a vector tier of the packed
/// decoder runs on this host and which (`"avx2"`, `"sse4.1"` or
/// `"portable"`), the form the C2 encoder took (`"clmul"` or
/// `"columns"`, see [`ldpc_core::Encoder::form`]), the target architecture, and
/// the checkout's git revision (`-dirty` with uncommitted changes,
/// `unknown` outside a git checkout).
pub fn build_json() -> String {
    let rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"features\": [], \"simd_active\": {}, \"simd_tier\": \"{}\", \"encoder_form\": \"{}\", \"target_arch\": \"{}\", \"git_rev\": \"{rev}\"}}",
        PackedFixedDecoder::simd_active(),
        PackedFixedDecoder::simd_tier(),
        ccsds_c2::encoder().form(),
        std::env::consts::ARCH,
    )
}

/// The demo code's length, for sizing workloads.
pub fn demo_n() -> usize {
    demo_code().n()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_fast_but_nontrivial() {
        let c = bench_mc_config(3.0, 18);
        assert!(c.max_frames >= 1_000);
        let c2 = c2_mc_config(4.0, 18);
        assert!(c2.max_frames <= 100);
    }

    #[test]
    fn build_json_names_every_provenance_field() {
        let json = build_json();
        for key in [
            "features",
            "simd_active",
            "simd_tier",
            "encoder_form",
            "target_arch",
            "git_rev",
        ] {
            assert!(json.contains(&format!("\"{key}\": ")), "{json}");
        }
    }
}

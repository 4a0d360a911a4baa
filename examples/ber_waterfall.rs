//! BER/PER waterfall (paper Figure 4), in two speeds:
//!
//! * a quick sweep on the C2-shaped demo code (default);
//! * `--c2` for a short sweep on the real 8176-bit CCSDS C2 code.
//!
//! Prints a CSV (`ebn0_db,frames,ber,per,avg_iterations,undetected`) that
//! plots directly; the counts do not depend on the machine's core count.
//! Run with `cargo run --release --example ber_waterfall [--c2]`.

use ccsds_ldpc::sim::{run_sweep, sweep_grid, to_csv, PointResult, Scenario, SweepConfig};

fn main() {
    let full_c2 = std::env::args().any(|a| a == "--c2");
    let (scenario, points, cfg) = if full_c2 {
        eprintln!("sweeping CCSDS C2 (8176,7156), 18-iteration fixed-point decoder…");
        // Short sweep near the waterfall; Monte-Carlo depth kept modest so
        // the example finishes in seconds (the bench harness goes deeper).
        let cfg = SweepConfig {
            max_frames: 60,
            target_frame_errors: 20,
            chunk_frames: 10,
            ..SweepConfig::default()
        };
        ("c2 / awgn / fixed", &[3.4, 3.7, 4.0, 4.3][..], cfg)
    } else {
        eprintln!("sweeping the (248) demo code (same 2xB weight-2 QC structure as C2)…");
        eprintln!("pass --c2 for the full 8176-bit code");
        let cfg = SweepConfig {
            max_frames: 4_000,
            target_frame_errors: 60,
            ..SweepConfig::default()
        };
        (
            "demo / awgn / fixed",
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0][..],
            cfg,
        )
    };
    let scenario = Scenario::parse(scenario).expect("a valid scenario");
    let results = run_sweep(&sweep_grid(&[scenario], points, 0xF164), &cfg)
        .expect("the built-in codes build");
    let points: Vec<PointResult> = results.iter().map(|r| r.point).collect();
    print!("{}", to_csv(&points));
}

//! A11 — Adaptive, resumable sweep orchestration: cold vs warm wall
//! time of `ldpc_sim::run_sweep` over a demo waterfall grid.
//!
//! Regenerates the cold-run / warm-rerun comparison behind EXPERIMENTS.md
//! A11: a cold adaptive sweep into a fresh chunk cache, then the same
//! sweep against the warm cache — asserting the warm pass simulates
//! **zero** frames, returns bit-identical merged points, and finishes in
//! under a second (the ISSUE 8 acceptance bar). Writes the measured
//! numbers to `BENCH_SWEEP.json` at the workspace root so CI and
//! EXPERIMENTS.md can consume them machine-readably.

use criterion::{criterion_group, criterion_main, Criterion};
use ldpc_bench::{announce, build_json};
use ldpc_sim::{run_sweep, sweep_grid, Scenario, SweepConfig, SweepUnitResult};
use std::path::PathBuf;
use std::time::Instant;

const EBN0S: [f64; 6] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
const TARGET_ERRORS: u64 = 50;
const MAX_FRAMES: u64 = 20_000;
const CHUNK_FRAMES: u64 = 1_000;

struct A11Numbers {
    cold_secs: f64,
    warm_secs: f64,
    cold_simulated: u64,
    warm_simulated: u64,
    results: Vec<SweepUnitResult>,
}

fn cache_dir() -> PathBuf {
    std::env::temp_dir().join(format!("ldpc-bench-a11-cache-{}", std::process::id()))
}

fn sweep_cfg(cache: Option<PathBuf>) -> SweepConfig {
    SweepConfig {
        max_frames: MAX_FRAMES,
        target_frame_errors: TARGET_ERRORS,
        chunk_frames: CHUNK_FRAMES,
        max_iterations: 18,
        threads: 0,
        cache_dir: cache,
        progress_frames: None,
    }
}

fn regenerate_a11() -> A11Numbers {
    announce(
        "A11",
        "adaptive sweep orchestration: cold vs warm-cache wall time on a demo waterfall",
    );
    let scenario = Scenario::parse("demo / awgn / nms:1.25").expect("valid scenario");
    let units = sweep_grid(&[scenario], &EBN0S, 0xC11);
    let dir = cache_dir();
    let _ = std::fs::remove_dir_all(&dir);

    let started = Instant::now();
    let cold = run_sweep(&units, &sweep_cfg(Some(dir.clone()))).expect("cold sweep");
    let cold_secs = started.elapsed().as_secs_f64();
    let cold_simulated: u64 = cold.iter().map(|r| r.frames_simulated).sum();

    let started = Instant::now();
    let warm = run_sweep(&units, &sweep_cfg(Some(dir.clone()))).expect("warm sweep");
    let warm_secs = started.elapsed().as_secs_f64();
    let warm_simulated: u64 = warm.iter().map(|r| r.frames_simulated).sum();

    // The acceptance bar: a warm cache re-runs the completed grid in
    // under a second with zero frames resimulated, bit-identically.
    assert_eq!(warm_simulated, 0, "warm cache must simulate nothing");
    assert!(warm_secs < 1.0, "warm re-run took {warm_secs:.3}s");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.point, w.point, "warm merge diverged at {}", c.ebn0_db);
    }

    println!(
        "  cold : {cold_secs:>7.2}s, {cold_simulated} frames simulated over {} points",
        cold.len()
    );
    println!("  warm : {warm_secs:>7.3}s, {warm_simulated} frames simulated (all from cache)");
    for r in &cold {
        println!(
            "    {:>5.1} dB: {:>6} frames, per {:.3e}, stopped by {}",
            r.ebn0_db,
            r.point.frames,
            r.point.per(),
            if r.hit_target { "target" } else { "cap" }
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    A11Numbers {
        cold_secs,
        warm_secs,
        cold_simulated,
        warm_simulated,
        results: cold,
    }
}

/// Writes the measured numbers to `BENCH_SWEEP.json` at the workspace
/// root (hand-rolled JSON — the workspace vendors no serializer).
fn write_json(n: &A11Numbers) {
    let points = n
        .results
        .iter()
        .map(|r| {
            let (per_lo, per_hi) = r.point.per_confidence();
            format!(
                "    {{\"scenario\": \"{}\", \"ebn0_db\": {:?}, \"frames\": {}, \
                 \"frame_errors\": {}, \"ber\": {:.6e}, \"per\": {:.6e}, \
                 \"per_lo\": {per_lo:.6e}, \"per_hi\": {per_hi:.6e}, \"hit_target\": {}}}",
                r.scenario,
                r.ebn0_db,
                r.point.frames,
                r.point.frame_errors,
                r.point.ber(),
                r.point.per(),
                r.hit_target
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"A11\",\n  \"target_frame_errors\": {TARGET_ERRORS},\n  \
         \"chunk_frames\": {CHUNK_FRAMES},\n  \"max_frames\": {MAX_FRAMES},\n  \
         \"cold\": {{\"seconds\": {:.2}, \"frames_simulated\": {}}},\n  \
         \"warm\": {{\"seconds\": {:.3}, \"frames_simulated\": {}}},\n  \
         \"points\": [\n{points}\n  ],\n  \"build\": {}\n}}\n",
        n.cold_secs,
        n.cold_simulated,
        n.warm_secs,
        n.warm_simulated,
        build_json(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SWEEP.json");
    std::fs::write(path, json).expect("write BENCH_SWEEP.json");
    println!("  wrote {path}");
}

fn bench(c: &mut Criterion) {
    let numbers = regenerate_a11();
    write_json(&numbers);

    // Criterion timing of the orchestrator itself on a tiny cacheless
    // grid: measures scheduling + engine overhead, not channel depth.
    let scenario = Scenario::parse("demo / awgn / nms:1.25").expect("valid scenario");
    let units = sweep_grid(&[scenario], &[4.0, 5.0], 0xC11);
    let cfg = SweepConfig {
        max_frames: 200,
        target_frame_errors: 0,
        chunk_frames: 100,
        max_iterations: 18,
        threads: 1,
        cache_dir: None,
        progress_frames: None,
    };
    let mut group = c.benchmark_group("a11_sweep_orchestrator");
    group.sample_size(10);
    group.bench_function("demo_2pt_400f", |b| {
        b.iter(|| run_sweep(std::hint::black_box(&units), &cfg).expect("sweep"))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! `waterfall-sweep`: the adaptive, resumable sweep `ldpc-tool sweep
//! --adaptive --resume` runs, cold, across C2's waterfall — where the
//! decoder's check and bit phases dominate and the orchestrator's chunk
//! scheduling, stop rule, multi-core scaling and cache writes all run.

use crate::layers::{
    gate_packed_vs_scalar, nproc, report_partial_words, spec, DecoderLog, FrameSource,
    MAX_ITERATIONS, PACKED_SPEC, REPLAYS, WORKER_SEED_STRIDE,
};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{rep_seed, Args};
use ldpc_core::codes::ccsds_c2;
use ldpc_core::{CodeHandle, LdpcCode, PlainCode};
use ldpc_sim::{run_sweep, sweep_grid, Scenario, SweepConfig, SweepUnit, SweepUnitResult};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Eb/N0 points spanning C2's waterfall: PER near 1 at 3 dB, below 1e-2
/// at 4 dB.
pub const POINTS_DB: [f64; 3] = [3.0, 3.5, 4.0];
/// Frames per chunk, the scheduling and caching quantum.
pub const CHUNK_FRAMES: u64 = 32;
/// Frame cap per point.
pub const MAX_FRAMES: u64 = 256;
/// Frame-error target per point.
pub const TARGET_ERRORS: u64 = 16;

fn scenario() -> Scenario {
    Scenario::parse(&format!("c2 / awgn / {PACKED_SPEC}")).expect("the benchmark scenario parses")
}

fn config(threads: usize, cache_dir: &Path) -> SweepConfig {
    SweepConfig {
        max_frames: MAX_FRAMES,
        target_frame_errors: TARGET_ERRORS,
        chunk_frames: CHUNK_FRAMES,
        max_iterations: MAX_ITERATIONS,
        threads,
        cache_dir: Some(cache_dir.to_path_buf()),
        progress_frames: None,
    }
}

/// One cold sweep into a fresh cache directory: results and wall seconds.
fn cold_sweep(
    units: &[SweepUnit],
    cfg: &SweepConfig,
) -> Result<(Vec<SweepUnitResult>, f64), String> {
    let dir = cfg.cache_dir.as_ref().expect("sweeps run with a cache");
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let results = run_sweep(units, cfg).map_err(|e| e.to_string())?;
    Ok((results, t.elapsed().as_secs_f64()))
}

fn simulated(results: &[SweepUnitResult]) -> u64 {
    results.iter().map(|r| r.frames_simulated).sum()
}

/// Reruns a finished sweep from its own cache: it must simulate nothing
/// and merge identical counts.
fn warm_rerun_matches(
    units: &[SweepUnit],
    cfg: &SweepConfig,
    cold: &[SweepUnitResult],
) -> Result<(), String> {
    let warm = run_sweep(units, cfg).map_err(|e| e.to_string())?;
    if simulated(&warm) != 0 {
        return Err(format!("warm rerun simulated {} frames", simulated(&warm)));
    }
    for (w, c) in warm.iter().zip(cold) {
        if w.point != c.point {
            return Err(format!(
                "{} dB: warm {:?} vs cold {:?}",
                c.ebn0_db, w.point, c.point
            ));
        }
    }
    Ok(())
}

pub fn run(report: &mut Report, args: &Args) {
    let code = ccsds_c2::code();
    let scenario = scenario();

    // Verification sample: all-zero frames at the sweep's hardest point.
    let mut source = FrameSource::new(&code, None, POINTS_DB[0], rep_seed(args.seed, u64::MAX));
    let sample: Vec<f32> = (0..16).flat_map(|_| source.frame().1).collect();
    gate_packed_vs_scalar(report, &code, &sample, "all-zero 3 dB");

    if args.trace {
        return traced(report, args, &code, &scenario, &sample);
    }

    let cfg = config(nproc(), &args.work_dir.join("sweep-cache"));
    let deadline = Instant::now() + args.duration();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut warm_errors = Vec::new();
    let mut rep = 0;
    while walls.len() < 3 || Instant::now() < deadline {
        let units = sweep_grid(
            std::slice::from_ref(&scenario),
            &POINTS_DB,
            rep_seed(args.seed, rep),
        );
        match cold_sweep(&units, &cfg) {
            Ok((results, wall)) => {
                let frames = simulated(&results);
                report.attempted += frames;
                walls.push(wall);
                rates.push(frames as f64 / wall);
                if let Err(e) = warm_rerun_matches(&units, &cfg, &results) {
                    warm_errors.push(format!("sweep {rep}: {e}"));
                }
            }
            Err(e) => {
                report.failed += 1;
                warm_errors.push(format!("sweep {rep} failed: {e}"));
                break;
            }
        }
        rep += 1;
    }
    report.gate(
        "warm rerun simulates nothing",
        warm_errors.is_empty(),
        if warm_errors.is_empty() {
            format!("{rep} cold sweeps, each rerun warm from its cache: 0 frames simulated, identical merged counts")
        } else {
            warm_errors.join("; ")
        },
    );
    report.set("solve_s", median(&walls), "s");
    report.set("frames_per_s", median(&rates), "frames/s");
}

/// Replays the merged chunks of every point single-threaded through the
/// public layer calls, in the engine's order: chunk `c` of a point seeded
/// `s` is an engine run seeded `s + c·STRIDE`, whose only worker draws
/// from `s + (c + 1)·STRIDE`.
fn replay(
    tracer: &mut Tracer,
    log: &mut DecoderLog,
    code: &Arc<LdpcCode>,
    units: &[SweepUnit],
    results: &[SweepUnitResult],
) -> Result<u64, String> {
    let handle = PlainCode::new(Arc::clone(code));
    let n = code.n();
    let mut frames = 0;
    for (i, (unit, result)) in units.iter().zip(results).enumerate() {
        let (mut bit_errors, mut frame_errors, mut iterations, mut merged) =
            (0u64, 0u64, 0u64, 0u64);
        for c in 0..result.chunks_merged {
            tracer.span("engine.chunk", i as u64, |tracer| {
                let seed = unit
                    .seed
                    .wrapping_add(WORKER_SEED_STRIDE.wrapping_mul(c + 1));
                // Each chunk is one engine run: its own decoder and channel.
                let mut decoder = spec(PACKED_SPEC).build(code);
                let block = decoder.block_frames() as u64;
                let mut source = FrameSource::new(code, None, unit.ebn0_db, seed);
                let mut done = 0;
                while done < CHUNK_FRAMES {
                    let take = block.min(CHUNK_FRAMES - done);
                    let mut llrs = Vec::with_capacity(take as usize * n);
                    for _ in 0..take {
                        let codeword = gf2::BitVec::zeros(n);
                        let received = tracer.span("channel.transmit", i as u64, |_| {
                            source.channel.transmit_codeword(&codeword)
                        });
                        tracer.span("engine.expand", i as u64, |_| {
                            handle.expand_llrs_into(&received, &mut llrs)
                        });
                    }
                    let out = log.decode(tracer, i as u64, decoder.as_mut(), &llrs);
                    tracer.span("engine.count", i as u64, |_| {
                        for r in &out {
                            let errors = r.hard_decision.count_ones() as u64;
                            iterations += u64::from(r.iterations);
                            if errors > 0 {
                                bit_errors += errors;
                                frame_errors += 1;
                            }
                        }
                    });
                    done += take;
                }
                merged += CHUNK_FRAMES;
            });
        }
        let p = &result.point;
        if (merged, bit_errors, frame_errors, iterations)
            != (p.frames, p.bit_errors, p.frame_errors, p.total_iterations)
        {
            return Err(format!(
                "{} dB: sweep merged {} frames, {} bit errors, {} frame errors, {} iterations; replica {merged}, {bit_errors}, {frame_errors}, {iterations}",
                unit.ebn0_db, p.frames, p.bit_errors, p.frame_errors, p.total_iterations
            ));
        }
        frames += merged;
    }
    Ok(frames)
}

fn traced(
    report: &mut Report,
    args: &Args,
    code: &Arc<LdpcCode>,
    scenario: &Scenario,
    sample: &[f32],
) {
    let units = sweep_grid(
        std::slice::from_ref(scenario),
        &POINTS_DB,
        rep_seed(args.seed, 0),
    );
    let dir: PathBuf = args.work_dir.join("sweep-cache");
    let (wide, wide_s) = match cold_sweep(&units, &config(nproc(), &dir)) {
        Ok(s) => s,
        Err(e) => {
            report.failed += 1;
            return report.gate("sweep runs", false, e);
        }
    };
    let simulated_wide = simulated(&wide);
    let merged: u64 = wide.iter().map(|r| r.point.frames).sum();
    report.attempted += simulated_wide;
    report.set(
        "orchestrator.frames_simulated",
        simulated_wide as f64,
        "frames",
    );
    report.set("orchestrator.frames_merged", merged as f64, "frames");
    report.set(
        "orchestrator.useful_ratio",
        merged as f64 / simulated_wide as f64,
        "ratio",
    );
    report.set(
        "orchestrator.hit_target_points",
        wide.iter().filter(|r| r.hit_target).count() as f64,
        "points",
    );

    // One worker never speculates, so it simulates exactly the merged
    // prefix — the frames the replica replays. Untraced single-worker
    // sweeps and traced replays alternate.
    let mut tracer = Tracer::new();
    let mut log = DecoderLog::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut frames = 0;
    for _ in 0..REPLAYS {
        let (single, single_s) = match cold_sweep(&units, &config(1, &dir)) {
            Ok(s) => s,
            Err(e) => return report.gate("sweep runs", false, e),
        };
        frames = simulated(&single);
        untraced.push(single_s);
        let t = Instant::now();
        let replayed = replay(&mut tracer, &mut log, code, &units, &single);
        traced.push(t.elapsed().as_secs_f64());
        let problem = match replayed {
            Ok(f) if f == frames => continue,
            Ok(f) => format!("replayed {f} frames, single-worker sweep simulated {frames}"),
            Err(e) => e,
        };
        return report.gate("traced replica reproduces the sweep", false, problem);
    }
    let _ = std::fs::remove_dir_all(&dir);
    report.gate(
        "traced replica reproduces the sweep",
        true,
        format!("{REPLAYS} replays of {frames} merged frames: identical bit, frame-error and iteration counts per point"),
    );
    let single_s = median(&untraced);
    report.set(
        "orchestrator.scaling_eff",
        (simulated_wide as f64 / wide_s) / (nproc() as f64 * frames as f64 / single_s),
        "ratio",
    );
    report.set("trace.overhead_ratio", median(&traced) / single_s, "ratio");
    let replayed_frames = (REPLAYS as u64 * frames) as f64;
    let per_frame = |name: &str| tracer.total_us(name) / replayed_frames;
    let stage_sum: f64 = [
        "channel.transmit",
        "engine.expand",
        "decoder.decode_block",
        "engine.count",
    ]
    .iter()
    .map(|s| per_frame(s))
    .sum();
    report.set(
        "channel.transmit_us_per_frame",
        per_frame("channel.transmit"),
        "us",
    );
    report.set(
        "engine.expand_us_per_frame",
        per_frame("engine.expand"),
        "us",
    );
    report.set("engine.count_us_per_frame", per_frame("engine.count"), "us");
    report.set(
        "engine.residual_us_per_frame",
        single_s * 1e6 / frames as f64 - stage_sum,
        "us",
    );
    log.report(report, &tracer);
    report_partial_words(report, code, sample, 64);
    report.spans_json = Some(tracer.to_json());
}

//! `floor-sim`: random codewords far past the waterfall (7 dB, about one
//! iteration per frame), a fixed frame count and no stop rule — the regime
//! of a long error-floor run, where message draw, encoding and channel
//! sampling cost as much as decoding.
//!
//! The untraced points run on every core, as `simulate` does by default
//! (one worker alone measured twice as noisy on a shared 2-vCPU host); the
//! traced replica replays a one-worker point, the only kind whose frame
//! order it can reproduce exactly.

use crate::layers::{
    gate_packed_vs_scalar, nproc, report_partial_words, spec, DecoderLog, FrameSource,
    MAX_ITERATIONS, PACKED_SPEC, REPLAYS, WORKER_SEED_STRIDE,
};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{rep_seed, Args};
use ldpc_core::codes::ccsds_c2;
use ldpc_core::{CodeHandle, Encoder, LdpcCode, PlainCode};
use ldpc_sim::{run_point_spec, MonteCarloConfig, PointResult, Transmission};
use std::sync::Arc;
use std::time::Instant;

pub const EBN0_DB: f64 = 7.0;
/// Frames per simulated point (a whole number of 8-frame words).
pub const FRAMES: u64 = 256;

fn config(seed: u64, frames: u64, threads: usize) -> MonteCarloConfig {
    MonteCarloConfig {
        ebn0_db: EBN0_DB,
        max_frames: frames,
        target_frame_errors: 0,
        max_iterations: MAX_ITERATIONS,
        seed,
        threads,
        transmission: Transmission::Random,
    }
}

/// The engine door `simulate` uses for random codewords.
fn engine_point(
    code: &Arc<LdpcCode>,
    enc: &Arc<Encoder>,
    cfg: &MonteCarloConfig,
) -> (PointResult, f64) {
    let t = Instant::now();
    let point = run_point_spec(code, Some(enc), cfg, &spec(PACKED_SPEC));
    (point, t.elapsed().as_secs_f64())
}

pub fn run(report: &mut Report, args: &Args) {
    let code = ccsds_c2::code();
    let enc = ccsds_c2::encoder();

    // Verification sample: this workload's own frames.
    let mut source = FrameSource::new(
        &code,
        Some(Arc::clone(&enc)),
        EBN0_DB,
        rep_seed(args.seed, u64::MAX),
    );
    let sample: Vec<f32> = (0..16).flat_map(|_| source.frame().1).collect();
    gate_packed_vs_scalar(report, &code, &sample, "random-codeword 7 dB");

    if args.trace {
        return traced(report, args, &code, &enc, &sample);
    }

    let deadline = Instant::now() + args.duration();
    let mut walls = Vec::new();
    let mut frames_ok = true;
    let mut rep = 0;
    while walls.len() < 3 || Instant::now() < deadline {
        let cfg = config(rep_seed(args.seed, rep), FRAMES, nproc());
        let (point, wall) = engine_point(&code, &enc, &cfg);
        frames_ok &= point.frames == FRAMES;
        report.attempted += point.frames;
        walls.push(wall);
        rep += 1;
    }
    report.gate(
        "fixed frame count",
        frames_ok,
        format!("{rep} points of {FRAMES} random codewords each simulated in full"),
    );
    report.set("solve_s", median(&walls), "s");
    report.set(
        "frames_per_s",
        median(&walls.iter().map(|w| FRAMES as f64 / w).collect::<Vec<_>>()),
        "frames/s",
    );
}

/// Counts of one replayed point, in the engine's terms.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    frames: u64,
    bit_errors: u64,
    frame_errors: u64,
    undetected: u64,
    iterations: u64,
}

fn counts_of(p: &PointResult) -> Counts {
    Counts {
        frames: p.frames,
        bit_errors: p.bit_errors,
        frame_errors: p.frame_errors,
        undetected: p.undetected_frame_errors,
        iterations: p.total_iterations,
    }
}

/// Replays a single-worker engine point through the public layer calls in
/// the engine's order, with a span around each.
fn replay(
    tracer: &mut Tracer,
    log: &mut DecoderLog,
    code: &Arc<LdpcCode>,
    enc: &Arc<Encoder>,
    cfg: &MonteCarloConfig,
) -> Counts {
    let handle = PlainCode::new(Arc::clone(code));
    let positions = enc.info_positions();
    let worker_seed = cfg.seed.wrapping_add(WORKER_SEED_STRIDE);
    let mut source = FrameSource::new(code, Some(Arc::clone(enc)), cfg.ebn0_db, worker_seed);
    let mut decoder = spec(PACKED_SPEC).build(code);
    let block = decoder.block_frames() as u64;
    let mut counts = Counts::default();
    let mut llrs = Vec::new();
    let mut codewords = Vec::new();
    let mut request = 0;
    while counts.frames < cfg.max_frames {
        let take = block.min(cfg.max_frames - counts.frames);
        tracer.span("engine.block", request, |tracer| {
            llrs.clear();
            codewords.clear();
            for _ in 0..take {
                let msg = tracer.span("encoder.message", request, |_| source.message());
                let codeword = tracer.span("encoder.encode", request, |_| source.encode(&msg));
                let received = tracer.span("channel.transmit", request, |_| {
                    source.channel.transmit_codeword(&codeword)
                });
                tracer.span("engine.expand", request, |_| {
                    handle.expand_llrs_into(&received, &mut llrs)
                });
                codewords.push(codeword);
            }
            let results = log.decode(tracer, request, decoder.as_mut(), &llrs);
            tracer.span("engine.count", request, |_| {
                for (out, codeword) in results.iter().zip(&codewords) {
                    counts.frames += 1;
                    counts.iterations += u64::from(out.iterations);
                    let errors = positions
                        .iter()
                        .filter(|&&p| out.hard_decision.get(p as usize) != codeword.get(p as usize))
                        .count() as u64;
                    if errors > 0 {
                        counts.bit_errors += errors;
                        counts.frame_errors += 1;
                        counts.undetected += u64::from(out.converged);
                    }
                }
            });
        });
        request += 1;
    }
    counts
}

fn traced(
    report: &mut Report,
    args: &Args,
    code: &Arc<LdpcCode>,
    enc: &Arc<Encoder>,
    sample: &[f32],
) {
    let cfg = config(rep_seed(args.seed, 0), FRAMES, 1);
    let mut tracer = Tracer::new();
    let mut log = DecoderLog::default();
    // Untraced and traced passes over the same point alternate, so drift
    // on a shared machine hits both sides of the overhead ratio alike.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut faithful = Ok(());
    for _ in 0..REPLAYS {
        let (point, wall) = engine_point(code, enc, &cfg);
        untraced.push(wall);
        let t = Instant::now();
        let replayed = replay(&mut tracer, &mut log, code, enc, &cfg);
        traced.push(t.elapsed().as_secs_f64());
        let engine = counts_of(&point);
        report.attempted += engine.frames;
        if replayed != engine && faithful.is_ok() {
            faithful = Err(format!("engine {engine:?}, replica {replayed:?}"));
        }
    }
    report.gate(
        "traced replica reproduces the engine",
        faithful.is_ok(),
        faithful.err().unwrap_or_else(|| {
            format!("{REPLAYS} replays of {FRAMES} frames: identical frame, bit-error, frame-error and iteration counts")
        }),
    );
    let untraced_s = median(&untraced);
    report.set(
        "trace.overhead_ratio",
        median(&traced) / untraced_s,
        "ratio",
    );

    let frames = (REPLAYS as u64 * FRAMES) as f64;
    let per_frame = |name: &str| tracer.total_us(name) / frames;
    let stages = [
        "encoder.message",
        "encoder.encode",
        "channel.transmit",
        "engine.expand",
        "decoder.decode_block",
        "engine.count",
    ];
    let stage_sum: f64 = stages.iter().map(|s| per_frame(s)).sum();
    report.set(
        "encoder.message_us_per_frame",
        per_frame("encoder.message"),
        "us",
    );
    report.set(
        "encoder.encode_us_per_frame",
        per_frame("encoder.encode"),
        "us",
    );
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
        untraced_s * 1e6 / FRAMES as f64 - stage_sum,
        "us",
    );
    log.report(report, &tracer);
    report_partial_words(report, code, sample, 64);
    report.spans_json = Some(tracer.to_json());
}

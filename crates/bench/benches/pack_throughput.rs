//! A10 — SWAR `@pack=8` packed soft datapath throughput: 8 frames per
//! `u64` message word against the scalar fixed-point decoder on the full
//! CCSDS C2 code.
//!
//! Regenerates a single-core frames/sec comparison at 18 iterations in
//! fixed-latency mode (no early termination), asserts the packed lanes
//! are bit-exact against scalar `fixed` frame by frame before timing
//! anything, and writes the measured numbers to `BENCH_A10.json` at the
//! workspace root. The acceptance bar is >= 8x frames/sec over scalar
//! `fixed`. The decoder runs its edge pass on the widest vector tier the
//! CPU has — AVX2 (four edges per 256-bit op), else SSE4.1 (two per
//! 128-bit op), else the portable SWAR words — reported as `simd_tier`
//! in the JSON's `build` object (`simd` says whether a vector tier ran).
//! The per-tier pass times and the per-stage split of a frame stream on
//! each tier come from `ldpc-core`'s ignored `profile_phase_split` test,
//! which can pin a tier:
//! `cargo test --release -p ldpc-core --lib profile_phase_split -- --ignored --nocapture`.
//!
//! A second table decodes 2000 frames at 4 dB with early termination on,
//! word by word (each word runs until its slowest lane retires) and
//! streamed in 32- and 256-frame chunks (each lane refills as its frame
//! retires), and records frames/sec and the lane-iterations issued
//! (8 × passes) against those used (the frames' own iterations).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldpc_bench::{announce, build_json, frames_per_sec, noisy_frames};
use ldpc_channel::AwgnChannel;
use ldpc_core::codes::{ccsds_c2, small::demo_code};
use ldpc_core::{
    decode_frames, BatchDecoder, BlockDecoder, DecodeResult, FixedConfig, FixedDecoder,
    PackedFixedDecoder, PACK_LANES,
};
use std::time::Instant;

const ITERS: u32 = 18;

struct A10Numbers {
    frames: usize,
    fixed_fps: f64,
    packed_fps: f64,
}

/// Decodes `llrs` through the packed decoder in full-width chunks.
fn decode_packed(dec: &mut PackedFixedDecoder, llrs: &[f32]) {
    for chunk in llrs.chunks(dec.capacity() * dec.code().n()) {
        let _ = dec.decode_batch(chunk, ITERS);
    }
}

fn regenerate_a10() -> A10Numbers {
    announce(
        "A10",
        "SWAR pack=8 vs scalar fixed on C2 (18 iterations, fixed latency)",
    );
    let c2 = ccsds_c2::code();
    let total = 48;
    let llrs = noisy_frames(&c2, total, 4.0, 9);
    let cfg = FixedConfig::default().with_early_stop(false);

    let mut fixed = FixedDecoder::new(c2.clone(), cfg);
    let mut packed = PackedFixedDecoder::new(c2.clone(), cfg);

    // Correctness gate before any timing: every packed lane must be
    // bit-exact against the scalar decoder run frame by frame.
    let reference = decode_frames(&mut fixed, &llrs, ITERS);
    let n = c2.n();
    for (chunk_idx, chunk) in llrs.chunks(PACK_LANES * n).enumerate() {
        for (f, out) in packed.decode_batch(chunk, ITERS).iter().enumerate() {
            let frame = chunk_idx * PACK_LANES + f;
            assert_eq!(
                out, &reference[frame],
                "packed lane diverged from scalar fixed on frame {frame}"
            );
        }
    }

    let fixed_fps = frames_per_sec(total, || {
        let _ = decode_frames(&mut fixed, &llrs, ITERS);
    });
    let packed_fps = frames_per_sec(total, || decode_packed(&mut packed, &llrs));

    println!("  simd tier: {}", PackedFixedDecoder::simd_tier());
    println!("  fixed (scalar)     : {fixed_fps:>8.1} fr/s");
    println!(
        "  fixed@pack=8       : {packed_fps:>8.1} fr/s = {:.2}x fixed (all {total} frames bit-exact)",
        packed_fps / fixed_fps,
    );

    A10Numbers {
        frames: total,
        fixed_fps,
        packed_fps,
    }
}

/// Frames of the early-stop table.
const STREAM_FRAMES: usize = 2000;

/// One way of feeding the early-stop table's frames to the decoder.
struct StreamRow {
    label: &'static str,
    /// Frames per chunk handed to the decoder (0 = word by word).
    chunk: usize,
    fps: f64,
    /// Lane-iterations issued per frame: 8 × passes / frames.
    issued: f64,
}

/// Decodes the same 2000 frames (4 dB, early stop on) word by word and
/// streamed in 32- and 256-frame chunks, gating every streamed frame
/// against its word-by-word result. Returns the rows and the mean
/// iterations per frame (the lane-iterations used).
fn regenerate_streamed() -> (Vec<StreamRow>, f64) {
    let c2 = ccsds_c2::code();
    let n = c2.n();
    let cfg = FixedConfig::default();
    let mut words: Vec<DecodeResult> = Vec::with_capacity(STREAM_FRAMES);
    let mut rows = Vec::new();
    for (label, chunk) in [
        ("word by word", 0),
        ("streamed, 32-frame chunks", 32),
        ("streamed, 256-frame chunks", 256),
    ] {
        // Same noise stream for every row; chunks are generated untimed.
        let mut channel = AwgnChannel::from_ebn0(4.0, c2.rate(), 31);
        let zero = gf2::BitVec::zeros(n);
        let mut dec = PackedFixedDecoder::new(c2.clone(), cfg);
        let mut seconds = 0.0;
        let mut first = 0;
        while first < STREAM_FRAMES {
            let len = if chunk == 0 { 256 } else { chunk }.min(STREAM_FRAMES - first);
            let llrs: Vec<f32> = (0..len)
                .flat_map(|_| channel.transmit_codeword(&zero))
                .collect();
            let start = Instant::now();
            if chunk == 0 {
                for word in llrs.chunks(PACK_LANES * n) {
                    words.extend(dec.decode_batch(word, ITERS));
                }
                seconds += start.elapsed().as_secs_f64();
            } else {
                let mut frames = llrs.chunks_exact(n);
                let mut out: Vec<Option<DecodeResult>> = vec![None; len];
                dec.decode_stream(
                    ITERS,
                    &mut |buf| frames.next().map(|f| buf.extend_from_slice(f)).is_some(),
                    &mut |i, r| out[i as usize] = Some(r),
                );
                seconds += start.elapsed().as_secs_f64();
                for (i, r) in out.into_iter().enumerate() {
                    assert_eq!(
                        r.as_ref(),
                        Some(&words[first + i]),
                        "streamed frame {} diverged from its word-by-word decode",
                        first + i
                    );
                }
            }
            first += len;
        }
        let issued = (PACK_LANES as u64 * dec.passes()) as f64 / STREAM_FRAMES as f64;
        rows.push(StreamRow {
            label,
            chunk,
            fps: STREAM_FRAMES as f64 / seconds,
            issued,
        });
    }
    let used = words.iter().map(|r| f64::from(r.iterations)).sum::<f64>() / STREAM_FRAMES as f64;
    println!("  early stop on, 4 dB, {STREAM_FRAMES} frames: {used:.2} iterations used per frame");
    for r in &rows {
        println!(
            "  {:<28}: {:>8.1} fr/s, {:.2} lane-iterations issued per frame ({:.2}x used)",
            r.label,
            r.fps,
            r.issued,
            r.issued / used
        );
    }
    (rows, used)
}

/// Writes the measured numbers to `BENCH_A10.json` at the workspace root
/// (hand-rolled JSON — the workspace vendors no serializer).
fn write_json(n: &A10Numbers, rows: &[StreamRow], used: f64) {
    let streamed = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"chunk_frames\": {}, \"frames_per_sec\": {:.1}, \"lane_iterations_issued_per_frame\": {:.3}}}",
                r.chunk, r.fps, r.issued
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    let json = format!(
        "{{\n  \"experiment\": \"A10\",\n  \"code\": \"c2\",\n  \"channel\": \"awgn\",\n  \"ebn0_db\": 4.0,\n  \"iterations\": {iters},\n  \"frames\": {frames},\n  \"lanes\": {lanes},\n  \"simd\": {simd},\n  \"frames_per_sec\": {{\"fixed\": {fixed:.1}, \"fixed@pack=8\": {packed:.1}}},\n  \"speedup\": {{\"vs_fixed\": {su_f:.2}}},\n  \"bit_exact_frames\": {frames},\n  \"early_stop\": {{\n    \"frames\": {stream_frames},\n    \"lane_iterations_used_per_frame\": {used:.3},\n    \"rows\": [\n      {streamed}\n    ]\n  }},\n  \"build\": {build}\n}}\n",
        stream_frames = STREAM_FRAMES,
        iters = ITERS,
        frames = n.frames,
        lanes = PACK_LANES,
        simd = PackedFixedDecoder::simd_active(),
        fixed = n.fixed_fps,
        packed = n.packed_fps,
        su_f = n.packed_fps / n.fixed_fps,
        build = build_json(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_A10.json");
    std::fs::write(path, json).expect("write BENCH_A10.json");
    println!("  wrote {path}");
}

fn bench(c: &mut Criterion) {
    let numbers = regenerate_a10();
    let (rows, used) = regenerate_streamed();
    write_json(&numbers, &rows, used);

    // Criterion timing on the demo code keeps the measured group fast.
    let code = demo_code();
    let llrs8 = noisy_frames(&code, PACK_LANES, 4.0, 23);
    let cfg = FixedConfig::default().with_early_stop(false);
    let mut group = c.benchmark_group("a10_pack_throughput_demo");
    group.sample_size(20);
    group.throughput(Throughput::Elements(PACK_LANES as u64));
    group.bench_function("fixed_scalar_8x", |b| {
        let mut dec = FixedDecoder::new(code.clone(), cfg);
        b.iter(|| decode_frames(&mut dec, std::hint::black_box(&llrs8), ITERS))
    });
    group.bench_function("fixed_pack8_8x", |b| {
        let mut dec = PackedFixedDecoder::new(code.clone(), cfg);
        b.iter(|| dec.decode_batch(std::hint::black_box(&llrs8), ITERS))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

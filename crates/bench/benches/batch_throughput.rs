//! A5 — Frame-batched decoding throughput: per-frame float min-sum vs the
//! lockstep batch decoder that mirrors the architecture's frames-per-word
//! packing (Table 3 packs 8 frames per message-memory word).
//!
//! Regenerates a frames/sec comparison at batch size 8 on the small code,
//! in fixed-latency mode (no early termination — how the hardware runs),
//! asserting along the way that the batched output is bit-identical to
//! per-frame decoding. The acceptance bar is >= 1.5x frames/sec at batch
//! 8. The fixed-point datapath's 8-frame mirror is `fixed@pack=8`,
//! measured on the full C2 code by `pack_throughput` (A10).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldpc_bench::{announce, frames_per_sec, noisy_frames};
use ldpc_core::codes::small::demo_code;
use ldpc_core::{decode_frames, BatchDecoder, BatchMinSumDecoder, MinSumConfig, MinSumDecoder};

const ITERS: u32 = 10;

fn regenerate_a5() {
    announce(
        "A5",
        "per-frame vs frame-batched decoding throughput (batch 8, fixed latency)",
    );
    let code = demo_code();
    let total = 512;
    let llrs = noisy_frames(&code, total, 4.0, 11);
    let cfg = MinSumConfig::normalized(4.0 / 3.0).with_early_stop(false);
    let mut per_frame = MinSumDecoder::new(code.clone(), cfg.clone());
    let reference = decode_frames(&mut per_frame, &llrs, ITERS);
    let base = frames_per_sec(total, || {
        let _ = decode_frames(&mut per_frame, &llrs, ITERS);
    });
    let mut batched = BatchMinSumDecoder::new(code.clone(), cfg, 8);
    let mut out = Vec::new();
    let fps = frames_per_sec(total, || {
        out = llrs
            .chunks(8 * code.n())
            .flat_map(|block| batched.decode_batch(block, ITERS))
            .collect();
    });
    assert_eq!(out, reference, "batched output diverged from per-frame");
    println!("  demo code, min-sum   : per-frame {base:>8.0} fr/s, batch 8 {fps:>8.0} fr/s = {:.2}x (bit-identical)", fps / base);
}

fn bench(c: &mut Criterion) {
    regenerate_a5();

    let code = demo_code();
    let llrs8 = noisy_frames(&code, 8, 4.0, 21);
    let cfg = MinSumConfig::normalized(4.0 / 3.0).with_early_stop(false);
    let mut group = c.benchmark_group("a5_batch_throughput_demo");
    group.sample_size(20);
    group.throughput(Throughput::Elements(8));
    group.bench_function("per_frame_minsum_8x", |b| {
        let mut dec = MinSumDecoder::new(code.clone(), cfg.clone());
        b.iter(|| decode_frames(&mut dec, std::hint::black_box(&llrs8), ITERS))
    });
    group.bench_function("batch8_minsum", |b| {
        let mut dec = BatchMinSumDecoder::new(code.clone(), cfg.clone(), 8);
        b.iter(|| dec.decode_batch(std::hint::black_box(&llrs8), ITERS))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

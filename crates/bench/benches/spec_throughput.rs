//! A7 — Registry-driven decoding throughput: every family in the
//! [`DecoderSpec`] registry, one harness.
//!
//! Where A5/A6 compare one packed mirror against its scalar reference,
//! this target sweeps the *whole registry* through the object-safe
//! [`BlockDecoder`] front door: the same frame workload, the same driving
//! loop, one frames/sec row per spec. Registering a new family in
//! `DecoderSpec::all_families()` adds it here automatically — no
//! per-family setup code to copy.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldpc_bench::{announce, frames_per_sec, noisy_frames};
use ldpc_core::codes::small::demo_code;
use ldpc_core::DecoderSpec;

const ITERS: u32 = 10;
const FRAMES: usize = 512;

fn regenerate_a7() {
    announce(
        "A7",
        "registry-wide decoder throughput (demo code, one harness, early termination on)",
    );
    let code = demo_code();
    let llrs = noisy_frames(&code, FRAMES, 4.0, 77);
    println!("  {:<22} {:>12} {:>10}", "spec", "frames/sec", "decoded");
    for spec in DecoderSpec::all_families() {
        let mut decoder = spec.build(&code);
        let mut decoded = 0usize;
        let fps = frames_per_sec(FRAMES, || {
            decoded = decoder.decode_block(&llrs, ITERS).len();
        });
        assert_eq!(decoded, FRAMES, "{spec}: dropped frames");
        println!("  {:<22} {fps:>12.0} {decoded:>10}", spec.to_string());
    }
}

fn bench(c: &mut Criterion) {
    regenerate_a7();

    // Criterion timing for a representative spread: the hardware mirror,
    // its packed form, and the hard-decision limit.
    let code = demo_code();
    let llrs = noisy_frames(&code, 64, 4.0, 78);
    let mut group = c.benchmark_group("a7_spec_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(64));
    for spec_str in ["fixed", "fixed@pack=8", "gallager-b@bitslice"] {
        let spec = DecoderSpec::parse(spec_str).unwrap();
        let mut decoder = spec.build(&code);
        group.bench_function(spec_str, |b| {
            b.iter(|| decoder.decode_block(std::hint::black_box(&llrs), ITERS))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

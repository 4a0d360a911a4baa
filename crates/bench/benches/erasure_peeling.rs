//! A13 — Erasure and burst channels vs the peeling decoder on C2.
//!
//! Regenerates the C2-vs-peeling comparison behind EXPERIMENTS.md A13:
//! random codewords (not all-zero — on an erasure channel ties and free
//! variables default to bit 0, so the all-zero word would flatter every
//! decoder above threshold) are pushed through the `erasure:p` grid and
//! the Gilbert-Elliott burst channel, decoded by both the paper's
//! fixed-point datapath and the `peeling` erasure decoder. The pinned
//! claims:
//!
//! * below the code's erasure limit (m/n ≈ 0.1248 for C2) peeling
//!   recovers **100 %** of frames — including `erasure:0.11`, past the
//!   iterative-BP threshold where the soft decoders fail every frame;
//! * above the limit (`erasure:0.14`) no decoder can recover, and
//!   peeling's underdetermined solve surfaces as *undetected* errors —
//!   recorded, not hidden;
//! * on the burst channel (bit flips, not losses) peeling fails
//!   honestly — zero undetected errors — while the soft decoders, whose
//!   regime it is, recover every frame at the mild operating point.
//!
//! A packet-loss run (`run_point_packets`) pins the tentpole workload
//! end to end: 16-packet C2 frames over `erasure:0.05`, peeling, zero
//! frame errors. The single-threaded loop is fully deterministic, so
//! the emitted CSV is byte-reproducible. Its FNV-1a fingerprint must
//! equal [`CSV_FNV1A`] — the value EXPERIMENTS.md records — before
//! anything is timed, which pins random-codeword encoding (every
//! codeword of the grid) end to end. The fingerprint, the measured rows
//! and the build provenance go to `BENCH_A13.json` at the workspace
//! root.

use criterion::{criterion_group, criterion_main, Criterion};
use ldpc_bench::{announce, build_json};
use ldpc_channel::ChannelSpec;
use ldpc_core::codes::ccsds_c2;
use ldpc_core::DecoderSpec;
use ldpc_sim::{run_point_packets, MonteCarloConfig, Scenario, Transmission};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FRAMES: u64 = 40;
const MAX_ITERATIONS: u32 = 50;
const CHANNEL_SEED: u64 = 0x2009_0413;
const MESSAGE_SEED: u64 = 0xA13 ^ 0x2009_0413;
const PACKET_SYMBOLS: usize = 511;
/// The recorded fingerprint of the grid's CSV (EXPERIMENTS.md A13).
const CSV_FNV1A: u64 = 0xc83c_dd5c_3d84_33ce;

/// The measured grid: every erasure rate × both decoders, plus the mild
/// burst operating point (capacity above C2's 0.875 rate) where the
/// soft decoders succeed and peeling must fail honestly.
const CHANNELS: &[&str] = &[
    "erasure:0.02",
    "erasure:0.05",
    "erasure:0.08",
    "erasure:0.11",
    "erasure:0.14",
    "burst:0.001,0.01,0.02",
];
const DECODERS: &[&str] = &["peeling", "fixed"];

struct Row {
    channel: &'static str,
    decoder: &'static str,
    bit_errors: u64,
    frame_errors: u64,
    undetected: u64,
    total_iterations: u64,
    code_bits: u64,
}

impl Row {
    fn ber(&self) -> f64 {
        self.bit_errors as f64 / (FRAMES * self.code_bits) as f64
    }
    fn per(&self) -> f64 {
        self.frame_errors as f64 / FRAMES as f64
    }
    fn avg_iterations(&self) -> f64 {
        self.total_iterations as f64 / FRAMES as f64
    }
}

/// One grid cell: `FRAMES` fresh random codewords through `channel`,
/// decoded by `decoder`, errors counted over all code bits against the
/// true codeword. Channel and message RNGs are pinned, the loop is
/// single-threaded, so equal inputs give byte-equal rows.
fn run_cell(channel: &'static str, decoder: &'static str) -> Row {
    let code = ccsds_c2::code();
    let enc = ccsds_c2::encoder();
    let spec = ChannelSpec::parse(channel).expect("valid channel spec");
    let mut ch = spec.build(4.0, code.rate(), CHANNEL_SEED);
    let mut dec = DecoderSpec::parse(decoder)
        .expect("valid decoder spec")
        .build(&code);
    let mut rng = StdRng::seed_from_u64(MESSAGE_SEED);
    let mut row = Row {
        channel,
        decoder,
        bit_errors: 0,
        frame_errors: 0,
        undetected: 0,
        total_iterations: 0,
        code_bits: code.n() as u64,
    };
    for _ in 0..FRAMES {
        let msg: Vec<u8> = (0..enc.dimension())
            .map(|_| rng.gen_range(0..2u8))
            .collect();
        let cw = enc
            .encode_bits(&msg)
            .expect("message has encoder dimension");
        let llrs = ch.transmit_codeword(&cw);
        let out = &dec.decode_block(&llrs, MAX_ITERATIONS)[0];
        let errs = (0..code.n())
            .filter(|&i| out.hard_decision.get(i) != cw.get(i))
            .count() as u64;
        row.bit_errors += errs;
        if errs > 0 {
            row.frame_errors += 1;
            row.undetected += u64::from(out.converged);
        }
        row.total_iterations += u64::from(out.iterations);
    }
    row
}

/// FNV-1a 64 over the CSV bytes — the reproducibility fingerprint
/// EXPERIMENTS.md records (the workspace vendors no hash crate).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn regenerate_a13() -> (Vec<Row>, String, u64) {
    announce(
        "A13",
        "erasure/burst channels: C2 fixed-point vs the peeling decoder",
    );
    let rows: Vec<Row> = CHANNELS
        .iter()
        .flat_map(|&ch| DECODERS.iter().map(move |&d| run_cell(ch, d)))
        .collect();

    let mut csv = String::from(
        "code,channel,decoder,frames,frame_errors,undetected,ber,per,avg_iterations\n",
    );
    for r in &rows {
        // RFC 4180: a spec containing a comma (the burst parameters) is
        // quoted so every row keeps the header's field count.
        let channel = if r.channel.contains(',') {
            format!("\"{}\"", r.channel)
        } else {
            r.channel.to_owned()
        };
        csv.push_str(&format!(
            "c2,{},{},{FRAMES},{},{},{:.6e},{:.6e},{:.3}\n",
            channel,
            r.decoder,
            r.frame_errors,
            r.undetected,
            r.ber(),
            r.per(),
            r.avg_iterations(),
        ));
    }
    print!("{csv}");
    let fingerprint = fnv1a(csv.as_bytes());
    println!("  csv fnv1a fingerprint: {fingerprint:016x}");
    assert_eq!(
        fingerprint, CSV_FNV1A,
        "A13's CSV changed: the encoder, channel or decoders no longer reproduce the recorded grid"
    );

    let cell = |ch: &str, d: &str| {
        rows.iter()
            .find(|r| r.channel == ch && r.decoder == d)
            .expect("grid cell present")
    };
    // Peeling recovers 100% of frames below the erasure limit — even at
    // 0.11, past the BP threshold where the soft datapath loses every
    // frame. That gap is the reason the family exists.
    for ch in [
        "erasure:0.02",
        "erasure:0.05",
        "erasure:0.08",
        "erasure:0.11",
    ] {
        assert_eq!(
            cell(ch, "peeling").frame_errors,
            0,
            "peeling must recover every frame on {ch}"
        );
    }
    assert_eq!(
        cell("erasure:0.11", "fixed").frame_errors,
        FRAMES,
        "the BP decoders are expected to fail at erasure:0.11 on C2"
    );
    // Above the limit nobody recovers; peeling's failures there are
    // undetected (a valid-but-wrong codeword from the underdetermined
    // solve) and the CSV says so.
    assert_eq!(cell("erasure:0.14", "peeling").frame_errors, FRAMES);
    // The burst channel flips bits instead of erasing them: the soft
    // datapath's regime. Peeling trusts surviving symbols, so it must
    // fail every burst frame *detectably* — never a false convergence.
    assert_eq!(cell("burst:0.001,0.01,0.02", "fixed").frame_errors, 0);
    let burst_peeling = cell("burst:0.001,0.01,0.02", "peeling");
    assert_eq!(burst_peeling.frame_errors, FRAMES);
    assert_eq!(
        burst_peeling.undetected, 0,
        "peeling must never report a burst-corrupted frame as converged"
    );

    (rows, csv, fingerprint)
}

/// The packet-loss workload end to end: C2 frames in 16 packets of 511
/// symbols over `erasure:0.05` drops, peeling recovery, zero frame
/// errors — the tentpole acceptance run.
fn packet_numbers() -> (u64, u64, u64, f64) {
    let scenario = Scenario::parse("c2 / erasure:0.05 / peeling").expect("valid scenario");
    let cfg = MonteCarloConfig {
        ebn0_db: 4.0,
        max_frames: FRAMES,
        target_frame_errors: 0,
        max_iterations: MAX_ITERATIONS,
        seed: CHANNEL_SEED,
        threads: 1,
        transmission: Transmission::AllZero,
    };
    let (point, report) = run_point_packets(&scenario, PACKET_SYMBOLS, &cfg).expect("c2 builds");
    assert_eq!(
        point.frame_errors, 0,
        "peeling must recover every packetized frame at 5% drops"
    );
    println!(
        "  packet workload: {} packets, {} dropped (rate {:.4}), {} frame errors",
        report.packets,
        report.dropped,
        report.loss_rate(),
        point.frame_errors
    );
    (
        point.frame_errors,
        report.packets,
        report.dropped,
        report.loss_rate(),
    )
}

/// Writes the measured numbers to `BENCH_A13.json` at the workspace
/// root (hand-rolled JSON — the workspace vendors no serializer).
fn write_json(rows: &[Row], fingerprint: u64, packets: (u64, u64, u64, f64)) {
    let row_json = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"channel\": \"{}\", \"decoder\": \"{}\", \"frames\": {FRAMES}, \
                 \"frame_errors\": {}, \"undetected\": {}, \"ber\": {:.6e}, \
                 \"per\": {:.6e}, \"avg_iterations\": {:.3}}}",
                r.channel,
                r.decoder,
                r.frame_errors,
                r.undetected,
                r.ber(),
                r.per(),
                r.avg_iterations(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let (pkt_fe, pkt_sent, pkt_dropped, pkt_rate) = packets;
    let json = format!(
        "{{\n  \"experiment\": \"A13\",\n  \"frames\": {FRAMES},\n  \
         \"max_iterations\": {MAX_ITERATIONS},\n  \
         \"csv_fnv1a\": \"{fingerprint:016x}\",\n  \
         \"packet_workload\": {{\"scenario\": \"c2 / erasure:0.05 / peeling\", \
         \"packet_symbols\": {PACKET_SYMBOLS}, \"packets\": {pkt_sent}, \
         \"dropped\": {pkt_dropped}, \"loss_rate\": {pkt_rate:.4}, \
         \"frame_errors\": {pkt_fe}}},\n  \"rows\": [\n{row_json}\n  ],\n  \
         \"build\": {build}\n}}\n",
        build = build_json(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_A13.json");
    std::fs::write(path, json).expect("write BENCH_A13.json");
    println!("  wrote {path}");
}

fn bench(c: &mut Criterion) {
    let (rows, _csv, fingerprint) = regenerate_a13();
    let packets = packet_numbers();
    write_json(&rows, fingerprint, packets);

    // Criterion timing of the two peeling regimes on C2: pure degree-1
    // peeling at 5% erasures, and the dense inactivation fallback at
    // 11% (past the BP threshold — the expensive path).
    let code = ccsds_c2::code();
    let mut group = c.benchmark_group("a13_peeling");
    group.sample_size(10);
    for &(label, rate) in &[
        ("peel_5pct", "erasure:0.05"),
        ("inactivate_11pct", "erasure:0.11"),
    ] {
        let spec = ChannelSpec::parse(rate).expect("valid channel spec");
        let mut ch = spec.build(4.0, code.rate(), CHANNEL_SEED);
        let llrs = ch.transmit_codeword(&gf2::BitVec::zeros(code.n()));
        let mut dec = DecoderSpec::parse("peeling")
            .expect("valid decoder spec")
            .build(&code);
        group.bench_function(label, |b| {
            b.iter(|| dec.decode_block(std::hint::black_box(&llrs), MAX_ITERATIONS))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

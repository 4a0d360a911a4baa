//! A12 — decode-as-a-service throughput under frame coalescing: the
//! served mirror of the paper's 8-frames-in-flight datapath, measured
//! end to end through the TCP loopback.
//!
//! One connection sending frames back to back leaves each frame alone
//! in its word (a one-frame `@pack=8` word, decoded at once); 64
//! concurrent connections keep the per-(code, decoder) queue deep, so a
//! worker that frees up finds up to a full word queued. The acceptance bar is >= 4x frames/sec at 64
//! connections over the single-connection rate on `c2 / fixed@pack=8`,
//! with every served frame bit-identical to decoding the same LLRs
//! directly through the scalar library path. Two operating points: 3 dB,
//! where C2 rarely converges in 18 iterations, and 5 dB, where almost
//! every frame does. Measured numbers go to `BENCH_SERVED.json` at the
//! workspace root.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ldpc_bench::{announce, build_json, noisy_frames};
use ldpc_core::codes::{ccsds_c2, small::demo_code};
use ldpc_core::DecoderSpec;
use ldpc_served::{protocol, Client, DecodedFrame, Encoding, ServeConfig, Server};
use std::net::SocketAddr;
use std::time::Instant;

const ITERS: u32 = 18;
/// Below the waterfall (frames rarely converge) and past it.
const EBN0_DB: [f64; 2] = [3.0, 5.0];
const FRAMES: usize = 256;
const SPEC: &str = "c2 / fixed@pack=8";
const COALESCED_CONNECTIONS: usize = 64;

struct RunPoint {
    connections: usize,
    fps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

struct A12Numbers {
    ebn0_db: f64,
    single: RunPoint,
    coalesced: RunPoint,
    /// `(lanes, words)` rows of the server's batch-fill histogram over
    /// the coalesced run, as deltas of two STATS bodies.
    batch_fill: Vec<(usize, u64)>,
    converged: usize,
}

/// Quantized noisy all-zero C2 frames on the wire's signed-byte scale.
fn wire_workload(ebn0_db: f64) -> Vec<Vec<i8>> {
    let c2 = ccsds_c2::code();
    noisy_frames(&c2, FRAMES, ebn0_db, 0xA12)
        .chunks(c2.n())
        .map(|frame| frame.iter().copied().map(protocol::quantize_llr).collect())
        .collect()
}

/// Decodes the whole workload over `connections` concurrent
/// connections (each sending its share sequentially, like a telemetry
/// ingest stream) and returns per-frame results in workload order plus
/// the sorted per-frame latencies.
fn run_point(
    addr: SocketAddr,
    frames: &[Vec<i8>],
    connections: usize,
) -> (Vec<DecodedFrame>, RunPoint) {
    let share_len = frames.len().div_ceil(connections);
    let start = Instant::now();
    let results: Vec<Vec<(DecodedFrame, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = frames
            .chunks(share_len)
            .map(|share| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    share
                        .iter()
                        .map(|q| {
                            let sent = Instant::now();
                            let frame = client
                                .decode_llr8(SPEC, q, Encoding::Base64)
                                .expect("decode");
                            (frame, sent.elapsed().as_micros() as u64)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();

    let mut decoded = Vec::with_capacity(frames.len());
    let mut latencies: Vec<u64> = Vec::with_capacity(frames.len());
    for share in results {
        for (frame, lat) in share {
            decoded.push(frame);
            latencies.push(lat);
        }
    }
    latencies.sort_unstable();
    let pct = |q: f64| {
        let rank = ((latencies.len() as f64 * q).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1] as f64 / 1e3
    };
    let point = RunPoint {
        connections,
        fps: frames.len() as f64 / wall.as_secs_f64(),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    };
    (decoded, point)
}

/// Parses `ldpc_served_batch_fill{lanes="N"} COUNT` rows out of the
/// server's STATS body.
fn read_batch_fill(addr: SocketAddr) -> Vec<(usize, u64)> {
    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    stats
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("ldpc_served_batch_fill{lanes=\"")?;
            let (lanes, rest) = rest.split_once("\"} ")?;
            Some((lanes.parse().ok()?, rest.trim().parse().ok()?))
        })
        .collect()
}

/// `after - before`, row by row, dropping rows that did not move.
fn fill_delta(before: &[(usize, u64)], after: &[(usize, u64)]) -> Vec<(usize, u64)> {
    after
        .iter()
        .map(|&(lanes, count)| {
            let was = before.iter().find(|r| r.0 == lanes).map_or(0, |r| r.1);
            (lanes, count - was)
        })
        .filter(|r| r.1 > 0)
        .collect()
}

/// One operating point against the standing server: the coalesced run
/// (gated bit-exact against the scalar library decode), then the
/// single-connection run.
fn regenerate_point(addr: SocketAddr, ebn0_db: f64) -> A12Numbers {
    let frames = wire_workload(ebn0_db);
    let before = read_batch_fill(addr);
    let (decoded, coalesced) = run_point(addr, &frames, COALESCED_CONNECTIONS);
    let batch_fill = fill_delta(&before, &read_batch_fill(addr));

    // Correctness gate before anything is reported: every frame served
    // through the coalescer must match the scalar library decode of the
    // same dequantized LLRs — bits, iteration count, convergence flag.
    let c2 = ccsds_c2::code();
    let scenario: ldpc_sim::Scenario = SPEC.parse().expect("spec");
    let mut scalar = DecoderSpec::scalar(scenario.decoder.family).build(&c2);
    for (i, (got, q)) in decoded.iter().zip(&frames).enumerate() {
        let want = &scalar.decode_block(&protocol::llr8_to_f32(q), ITERS)[0];
        assert_eq!(got.iterations, want.iterations, "frame {i} iterations");
        assert_eq!(got.converged, want.converged, "frame {i} convergence");
        for bit in 0..c2.n() {
            assert_eq!(
                got.bit(bit),
                want.hard_decision.get(bit),
                "frame {i} bit {bit} diverged from the direct library decode"
            );
        }
    }
    let converged = decoded.iter().filter(|f| f.converged).count();
    println!(
        "  {ebn0_db} dB bit-exactness gate: all {FRAMES} served frames identical to direct decode ({converged} converged)"
    );

    let (_, single) = run_point(addr, &frames, 1);
    for point in [&single, &coalesced] {
        println!(
            "  {ebn0_db} dB {:>3} connection(s): {:>7.1} fr/s  p50 {:>6.1} ms  p99 {:>6.1} ms",
            point.connections, point.fps, point.p50_ms, point.p99_ms
        );
    }
    println!(
        "  {ebn0_db} dB coalescing speedup: {:.2}x (bar: >= 4x at >= {COALESCED_CONNECTIONS} in-flight frames)",
        coalesced.fps / single.fps
    );
    let full: u64 = batch_fill
        .iter()
        .filter(|&&(lanes, _)| lanes == 8)
        .map(|&(_, c)| c)
        .sum();
    let total: u64 = batch_fill.iter().map(|&(_, c)| c).sum();
    println!("  {ebn0_db} dB batch-fill histogram: {batch_fill:?} ({full}/{total} words carried 8 frames)");
    A12Numbers {
        ebn0_db,
        single,
        coalesced,
        batch_fill,
        converged,
    }
}

fn regenerate_a12() -> Vec<A12Numbers> {
    announce(
        "A12",
        "decode-as-a-service coalescing on c2 / fixed@pack=8 (1 vs 64 connections, 18 iterations, 3 and 5 dB)",
    );
    let server = Server::bind(ServeConfig {
        max_iterations: ITERS,
        ..ServeConfig::default()
    })
    .expect("bind port 0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    // One warm-up word before any timing: the first frame for a new
    // (code, decoder) key pays the C2 handle construction and each
    // worker's decoder build, which belongs to no measured point.
    let (_, _) = run_point(addr, &wire_workload(EBN0_DB[0])[..8], 8);

    let points: Vec<A12Numbers> = EBN0_DB
        .iter()
        .map(|&ebn0| regenerate_point(addr, ebn0))
        .collect();

    handle.shutdown();
    let summary = join.join().expect("server thread");
    assert_eq!(
        summary.frames_decoded,
        8 + (2 * FRAMES * EBN0_DB.len()) as u64
    );
    points
}

/// Writes the measured numbers to `BENCH_SERVED.json` at the workspace
/// root (hand-rolled JSON — the workspace vendors no serializer).
fn write_json(points: &[A12Numbers]) {
    let points = points
        .iter()
        .map(|n| {
            let fill = n
                .batch_fill
                .iter()
                .map(|(lanes, count)| format!("\"{lanes}\": {count}"))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "    {{\"ebn0_db\": {ebn0}, \"converged_frames\": {converged}, \"frames_per_sec\": {{\"connections=1\": {single:.1}, \"connections={conns}\": {coal:.1}}}, \"latency_ms\": {{\"connections=1\": {{\"p50\": {sp50:.1}, \"p99\": {sp99:.1}}}, \"connections={conns}\": {{\"p50\": {cp50:.1}, \"p99\": {cp99:.1}}}}}, \"speedup\": {speedup:.2}, \"batch_fill\": {{{fill}}}, \"bit_exact_frames\": {FRAMES}}}",
                ebn0 = n.ebn0_db,
                converged = n.converged,
                single = n.single.fps,
                conns = n.coalesced.connections,
                coal = n.coalesced.fps,
                sp50 = n.single.p50_ms,
                sp99 = n.single.p99_ms,
                cp50 = n.coalesced.p50_ms,
                cp99 = n.coalesced.p99_ms,
                speedup = n.coalesced.fps / n.single.fps,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"A12\",\n  \"spec\": \"{SPEC}\",\n  \"channel\": \"awgn\",\n  \"iterations\": {ITERS},\n  \"frames\": {FRAMES},\n  \"build\": {build},\n  \"points\": [\n{points}\n  ]\n}}\n",
        build = build_json(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SERVED.json");
    std::fs::write(path, json).expect("write BENCH_SERVED.json");
    println!("  wrote {path}");
}

fn bench(c: &mut Criterion) {
    let points = regenerate_a12();
    write_json(&points);

    // Criterion timing on the demo code keeps the measured group fast:
    // one full 8-lane word through the loopback, client connect
    // amortized outside the timed closure.
    let server = Server::bind(ServeConfig {
        max_iterations: ITERS,
        ..ServeConfig::default()
    })
    .expect("bind port 0");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let code = demo_code();
    let demo_frames: Vec<Vec<i8>> = noisy_frames(&code, 8, 4.0, 23)
        .chunks(code.n())
        .map(|f| f.iter().copied().map(protocol::quantize_llr).collect())
        .collect();
    let mut group = c.benchmark_group("a12_served_loopback_demo");
    group.sample_size(20);
    group.throughput(Throughput::Elements(8));
    group.bench_function("served_8_frames_8_connections", |b| {
        b.iter(|| {
            let (decoded, _) = run_point_demo(addr, &demo_frames);
            std::hint::black_box(decoded)
        })
    });
    group.bench_function("direct_8_frames_scalar", |b| {
        let mut dec = DecoderSpec::parse("fixed").expect("spec").build(&code);
        let frames_f32: Vec<Vec<f32>> = demo_frames
            .iter()
            .map(|q| protocol::llr8_to_f32(q))
            .collect();
        b.iter(|| {
            for llrs in &frames_f32 {
                std::hint::black_box(dec.decode_block(std::hint::black_box(llrs), ITERS));
            }
        })
    });
    group.finish();

    handle.shutdown();
    join.join().expect("server thread");
}

/// One 8-connection burst of demo frames against the standing server,
/// used inside the Criterion closure (spec differs from A12's: the demo
/// code keeps the timed group fast).
fn run_point_demo(addr: SocketAddr, frames: &[Vec<i8>]) -> (Vec<DecodedFrame>, ()) {
    let decoded = std::thread::scope(|s| {
        let handles: Vec<_> = frames
            .iter()
            .map(|q| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .decode_llr8("demo / fixed@pack=8", q, Encoding::Hex)
                        .expect("decode")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (decoded, ())
}

criterion_group!(benches, bench);
criterion_main!(benches);

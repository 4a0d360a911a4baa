//! `served-open-loop`: an in-process decode server on loopback, driven
//! open-loop at three fixed rates with random C2 codewords at 5 dB. The
//! server decodes one line per connection at a time, so with at most
//! `nproc` connections its packed words ship under-filled — the
//! partial-word regime the simulations never reach.

use crate::layers::{
    nproc, report_partial_words, spec, DecoderLog, FrameSource, MAX_ITERATIONS, PACKED_SPEC,
    REPLAYS,
};
use crate::report::Report;
use crate::stats::{median, summarize_phase, Outcome, PhaseSummary, Schedule};
use crate::trace::Tracer;
use crate::{rep_seed, Args};
use ldpc_core::codes::ccsds_c2;
use ldpc_core::{DecodeResult, LdpcCode};
use ldpc_served::protocol::{self, DecodedFrame, Encoding, Payload, Request, Response};
use ldpc_served::{Client, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const EBN0_DB: f64 = 5.0;
/// Distinct frames the requests cycle through.
pub const POOL: usize = 256;
/// The fixed offered rates, frames per second over all connections. A
/// connection is served one line at a time, so its utilization is
/// (rate / connections) × per-request time, about 3.5 ms at 5 dB on a
/// 2-vCPU host. These rates keep that at or below 0.35, so a host running
/// half as fast again still builds no queue and the latencies measure the
/// service, not a backlog.
pub const RATES: [(&str, f64); 3] = [("low", 100.0), ("mid", 150.0), ("high", 200.0)];
/// A rate meets the service's latency limit when its p99 (from the due
/// time) is at most this and its backlog does not grow.
pub const LIMIT_MS: f64 = 50.0;
/// Requests per rate are at least this, so p99 has 10 samples beyond it.
pub const MIN_REQUESTS: usize = 1000;
/// How long a connection waits for a reply before giving it up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

fn spec_line() -> String {
    format!("c2 / {PACKED_SPEC}")
}

/// The request pool: wire lines and the frames a direct library decode
/// of the same llr8 payloads returns.
struct Pool {
    lines: Vec<Vec<u8>>,
    /// Dequantized payloads, back to back (what the server decodes).
    llrs: Vec<f32>,
    expected: Vec<DecodedFrame>,
}

fn to_frame(n: usize, r: &DecodeResult) -> DecodedFrame {
    DecodedFrame {
        bits: protocol::pack_bits((0..n).map(|i| r.hard_decision.get(i))),
        bit_len: n,
        iterations: r.iterations,
        converged: r.converged,
    }
}

fn build_pool(
    code: &Arc<LdpcCode>,
    seed: u64,
    tracer: Option<(&mut Tracer, &mut DecoderLog)>,
) -> Pool {
    let n = code.n();
    let mut source = FrameSource::new(code, Some(ccsds_c2::encoder()), EBN0_DB, seed);
    let mut lines = Vec::with_capacity(POOL);
    let mut llrs = Vec::with_capacity(POOL * n);
    for _ in 0..POOL {
        let frame = source.frame().1;
        llrs.extend(protocol::llr8_to_f32(&quantize(&frame)));
        let mut line = render(&frame).into_bytes();
        line.push(b'\n');
        lines.push(line);
    }
    let mut decoder = spec(PACKED_SPEC).build(code);
    let results: Vec<DecodeResult> = match tracer {
        // Traced: one frame per call, the served path's one-lane words.
        Some((tracer, log)) => llrs
            .chunks(n)
            .enumerate()
            .flat_map(|(i, frame)| log.decode(tracer, i as u64, decoder.as_mut(), frame))
            .collect(),
        None => decoder.decode_block(&llrs, MAX_ITERATIONS),
    };
    let expected = results.iter().map(|r| to_frame(n, r)).collect();
    Pool {
        lines,
        llrs,
        expected,
    }
}

/// Counters read from `STATS`.
#[derive(Debug, Default, Clone)]
struct Stats {
    batches: f64,
    lanes: f64,
    rejected: f64,
    bad_requests: f64,
    /// The server's own latency quantiles (histogram bucket bounds, µs).
    p50_us: f64,
    p99_us: f64,
}

fn read_stats(client: &mut Client) -> Result<Stats, String> {
    let body = client.stats().map_err(|e| format!("STATS: {e}"))?;
    let mut s = Stats::default();
    for line in body.lines() {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(v) = value.parse::<f64>() else {
            continue;
        };
        match key {
            "ldpc_served_batches_total" => s.batches = v,
            "ldpc_served_frames_rejected_total" => s.rejected = v,
            "ldpc_served_bad_requests_total" => s.bad_requests = v,
            "ldpc_served_latency_us{quantile=\"0.5\"}" => s.p50_us = v,
            "ldpc_served_latency_us{quantile=\"0.99\"}" => s.p99_us = v,
            _ => {
                if let Some(lanes) = key
                    .strip_prefix("ldpc_served_batch_fill{lanes=\"")
                    .and_then(|k| k.strip_suffix("\"}"))
                    .and_then(|k| k.parse::<f64>().ok())
                {
                    s.lanes += lanes * v;
                }
            }
        }
    }
    Ok(s)
}

/// What went wrong with replies, beyond latency.
#[derive(Debug, Default)]
struct Faults {
    busy: usize,
    errors: Vec<String>,
    mismatched: usize,
    /// Requests with no correct reply, for any reason.
    unanswered: usize,
}

/// One open-loop phase over `conns`: per connection, a generator thread
/// writes each request at its due time whatever the replies do, and a
/// reader thread times each reply and checks it against the direct
/// decode.
fn run_phase(
    conns: &[TcpStream],
    pool: &Pool,
    order: &[usize],
    sched: Schedule,
    faults: &mut Faults,
) -> Vec<Outcome> {
    let start = Instant::now() + Duration::from_millis(20);
    let mut outcomes: Vec<Outcome> = (0..sched.count)
        .map(|i| Outcome {
            due: sched.due(i),
            sent: None,
            answered: None,
        })
        .collect();
    let k = conns.len();
    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for (c, conn) in conns.iter().enumerate() {
            let mut writer = conn.try_clone().expect("loopback socket clones");
            let reader = conn.try_clone().expect("loopback socket clones");
            let send = s.spawn(move || {
                let mut sent = Vec::new();
                for i in sched.for_connection(c, k) {
                    let due = start + sched.due(i);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    if writer.write_all(&pool.lines[order[i]]).is_err() {
                        break;
                    }
                    sent.push((i, start.elapsed()));
                }
                sent
            });
            let recv = s.spawn(move || {
                let _ = reader.set_read_timeout(Some(REPLY_TIMEOUT));
                let mut reader = BufReader::new(reader);
                let mut got = Vec::new();
                let mut faults = Faults::default();
                let mut line = String::new();
                for i in sched.for_connection(c, k) {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    let at = start.elapsed();
                    match protocol::parse_response(line.trim_end_matches('\n')) {
                        Ok(Response::Decoded(frame)) if frame == pool.expected[order[i]] => {
                            got.push((i, at))
                        }
                        Ok(Response::Decoded(_)) => faults.mismatched += 1,
                        Ok(Response::Busy { .. }) => faults.busy += 1,
                        Ok(other) => faults.errors.push(format!("{other:?}")),
                        Err(e) => faults.errors.push(e.to_string()),
                    }
                }
                (got, faults)
            });
            workers.push((send, recv));
        }
        for (send, recv) in workers {
            for (i, at) in send.join().expect("generator thread") {
                outcomes[i].sent = Some(at);
            }
            let (got, f) = recv.join().expect("reader thread");
            for (i, at) in got {
                outcomes[i].answered = Some(at);
            }
            faults.busy += f.busy;
            faults.mismatched += f.mismatched;
            faults.errors.extend(f.errors);
        }
    });
    faults.unanswered += outcomes.iter().filter(|o| o.answered.is_none()).count();
    outcomes
}

/// The requests of one phase and the pool entry each sends.
fn phase_plan(rate: f64, seconds: u64, seed: u64) -> (Schedule, Vec<usize>) {
    let count = MIN_REQUESTS.max((rate * seconds as f64 / RATES.len() as f64) as usize);
    let order = (0..count)
        .map(|i| (rep_seed(seed, i as u64) % POOL as u64) as usize)
        .collect();
    (
        Schedule {
            rate_per_s: rate,
            count,
        },
        order,
    )
}

struct PhaseResult {
    name: &'static str,
    summary: PhaseSummary,
    latencies_ms: Vec<f64>,
    stats: Stats,
}

pub fn run(report: &mut Report, args: &Args) {
    let code = ccsds_c2::code();
    let mut tracer = Tracer::new();
    let mut log = DecoderLog::default();
    let pool = build_pool(
        &code,
        rep_seed(args.seed, u64::MAX),
        args.trace.then_some((&mut tracer, &mut log)),
    );
    crate::layers::gate_packed_vs_scalar(
        report,
        &code,
        &pool.llrs[..16 * code.n()],
        "served llr8 5 dB",
    );

    let server = match Server::bind(ServeConfig::default()) {
        Ok(s) => s,
        Err(e) => return report.gate("server binds", false, e.to_string()),
    };
    let handle = server.handle();
    let addr = handle.addr();
    let phases = std::thread::scope(|s| {
        let serving = s.spawn(move || server.run());
        let phases = drive(addr, &pool, args);
        handle.shutdown();
        serving.join().expect("server thread");
        phases
    });
    let (phases, faults) = match phases {
        Ok(p) => p,
        Err(e) => return report.gate("served phases run", false, e),
    };

    report.attempted += phases.iter().map(|p| p.summary.samples as u64).sum::<u64>();
    report.failed += phases.iter().map(|p| p.summary.failed as u64).sum::<u64>();
    report.gate(
        "served frames equal direct library decodes",
        faults.mismatched == 0 && faults.errors.is_empty(),
        format!(
            "{} replies checked against a direct decode of the same llr8 payload: {} differ, {} ERR{}; {} BUSY, {} without a correct reply",
            report.attempted,
            faults.mismatched,
            faults.errors.len(),
            faults.errors.first().map(|e| format!(" (first: {e})")).unwrap_or_default(),
            faults.busy,
            faults.unanswered
        ),
    );
    let supported = phases.iter().all(|p| p.summary.tail_level >= 0.99);
    report.gate(
        "p99 has 10 samples beyond it",
        supported,
        phases
            .iter()
            .map(|p| format!("{}: n={}", p.name, p.summary.samples))
            .collect::<Vec<_>>()
            .join(", "),
    );

    // The highest rate that meets the limit sets the goodput.
    let best = phases.iter().rfind(|p| p.summary.meets_limit);
    let goodput = best.map_or(0.0, |p| p.summary.goodput_per_s());
    // Over the whole schedule: correct replies within the limit per second.
    let within: usize = phases.iter().map(|p| p.summary.within_limit).sum();
    let span_s: f64 = phases.iter().map(|p| p.summary.span_s).sum();
    let all_latencies: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let lag = phases
        .iter()
        .map(|p| p.summary.lag_p99_ms)
        .fold(0.0, f64::max);
    for p in &phases {
        let s = &p.summary;
        report.notes.push(format!(
            "rate {} ({} frames/s): n={} p50 {:.3} ms, p99 {:.3} ms (nearest rank, >=10 beyond), lag p99 {:.3} ms, backlog {}, {} failed, goodput {:.1} frames/s, {}",
            p.name,
            RATES.iter().find(|r| r.0 == p.name).map_or(0.0, |r| r.1),
            s.samples,
            s.p50_ms,
            s.p99_ms,
            s.lag_p99_ms,
            if s.backlog_growing { "growing" } else { "steady" },
            s.failed,
            s.goodput_per_s(),
            if s.meets_limit { "meets the limit" } else { "misses the limit" }
        ));
    }
    if let Some(last) = phases.last() {
        report.notes.push(format!(
            "server STATS latency quantiles (bucket bounds, cumulative): p50 {} us, p99 {} us; client-side timing above is authoritative",
            last.stats.p50_us, last.stats.p99_us
        ));
    }
    if args.trace {
        for p in &phases {
            report.set(&format!("served.p50_ms.{}", p.name), p.summary.p50_ms, "ms");
            report.set(&format!("served.p99_ms.{}", p.name), p.summary.p99_ms, "ms");
        }
        report.set("served.goodput_fps", goodput, "frames/s");
        report.set("bench.generator_lag_p99_ms", lag, "ms");
        traced(report, &code, &pool, &phases, &mut tracer, &mut log);
        report.spans_json = Some(tracer.to_json());
    } else {
        for p in &phases {
            report.extra(&format!("p50_ms.{}", p.name), p.summary.p50_ms, "ms");
            report.extra(&format!("p99_ms.{}", p.name), p.summary.p99_ms, "ms");
        }
        report.extra("goodput_fps", goodput, "frames/s");
        report.extra("generator_lag_p99_ms", lag, "ms");
        report.set("frames_per_s", within as f64 / span_s, "frames/s");
        report.set("solve_s", median(&all_latencies) / 1e3, "s");
    }
}

/// Connects, warms the server's decoders, and runs the three phases with
/// `STATS` read before and after each.
fn drive(addr: SocketAddr, pool: &Pool, args: &Args) -> Result<(Vec<PhaseResult>, Faults), String> {
    let mut control = Client::connect(addr).map_err(|e| format!("control connection: {e}"))?;
    let conns: Vec<TcpStream> = (0..nproc())
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("load connection: {e}"))?;
    let mut faults = Faults::default();
    // Warm-up: every worker builds its decoder before timing starts.
    let warm = Schedule {
        rate_per_s: 200.0,
        count: 8 * conns.len(),
    };
    let warm_order: Vec<usize> = (0..warm.count).collect();
    run_phase(&conns, pool, &warm_order, warm, &mut faults);
    if faults.unanswered > 0 || faults.mismatched > 0 || !faults.errors.is_empty() {
        return Err(format!("warm-up failed: {faults:?}"));
    }
    let mut phases = Vec::new();
    for (p, (name, rate)) in RATES.iter().enumerate() {
        let (sched, order) = phase_plan(*rate, args.seconds, rep_seed(args.seed, p as u64));
        let before = read_stats(&mut control)?;
        let outcomes = run_phase(&conns, pool, &order, sched, &mut faults);
        let after = read_stats(&mut control)?;
        phases.push(PhaseResult {
            name,
            summary: summarize_phase(&outcomes, LIMIT_MS),
            latencies_ms: outcomes.iter().map(Outcome::latency_ms).collect(),
            stats: Stats {
                batches: after.batches - before.batches,
                lanes: after.lanes - before.lanes,
                rejected: after.rejected - before.rejected,
                bad_requests: after.bad_requests - before.bad_requests,
                ..after
            },
        });
    }
    Ok((phases, faults))
}

fn traced(
    report: &mut Report,
    code: &Arc<LdpcCode>,
    pool: &Pool,
    phases: &[PhaseResult],
    tracer: &mut Tracer,
    log: &mut DecoderLog,
) {
    // Codec costs per frame: the client's render and the server's parse
    // of the same request, replayed on the pool.
    // Untraced and traced render passes alternate; the medians give the
    // overhead ratio.
    let n = code.n();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..REPLAYS {
        let t = Instant::now();
        for frame in pool.llrs.chunks(n) {
            std::hint::black_box(render(frame));
        }
        untraced.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for (i, frame) in pool.llrs.chunks(n).enumerate() {
            tracer.span("protocol.render", i as u64, |_| {
                std::hint::black_box(render(frame))
            });
        }
        traced.push(t.elapsed().as_secs_f64());
    }
    for (i, line) in pool.lines.iter().enumerate() {
        let text = std::str::from_utf8(line).expect("rendered lines are ASCII");
        tracer
            .span("protocol.parse", i as u64, |_| {
                std::hint::black_box(protocol::parse_request(text.trim_end()))
            })
            .expect("rendered lines parse");
    }
    let render_us = tracer.total_us("protocol.render") / (REPLAYS * POOL) as f64;
    let parse_us = tracer.total_us("protocol.parse") / POOL as f64;
    report.set("protocol.render_us_per_frame", render_us, "us");
    report.set("protocol.parse_us_per_frame", parse_us, "us");
    report.set(
        "trace.overhead_ratio",
        median(&traced) / median(&untraced),
        "ratio",
    );

    log.report(report, tracer);
    report_partial_words(report, code, &pool.llrs, 64);
    let lanes1_ms = report.get("decoder.partial_word_us.lanes1").unwrap_or(0.0) / 1e3;
    let mut totals = BTreeMap::new();
    for p in phases {
        let s = &p.stats;
        report.set(
            &format!("served.lane_fill.{}", p.name),
            s.lanes / (ldpc_core::PACK_LANES as f64 * s.batches.max(1.0)),
            "share",
        );
        report.set(
            &format!("served.wait_transport_ms.{}", p.name),
            p.summary.p50_ms - lanes1_ms - (render_us + parse_us) / 1e3,
            "ms",
        );
        for (k, v) in [
            ("batches", s.batches),
            ("rejected", s.rejected),
            ("bad_requests", s.bad_requests),
        ] {
            *totals.entry(k).or_insert(0.0) += v;
        }
    }
    for (k, v) in totals {
        report.set(&format!("served.{k}"), v, "count");
    }
    report.notes.push(
        "served.wait_transport_ms.* is derived: client p50 minus a one-lane decode minus render and parse".to_string(),
    );
}

fn quantize(frame: &[f32]) -> Vec<i8> {
    frame.iter().map(|&l| protocol::quantize_llr(l)).collect()
}

/// Quantizes and renders one request line, as a client does per frame.
fn render(frame: &[f32]) -> String {
    protocol::render_request(&Request::Decode {
        spec: spec_line(),
        payload: Payload::Llr8(quantize(frame)),
        encoding: Encoding::Hex,
    })
}

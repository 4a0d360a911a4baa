//! Shared pieces every workload uses: set-up timing, frame generation
//! that mirrors the Monte-Carlo engine, the packed-vs-scalar gate, the
//! outside-in decoder cost fit, peak memory and build provenance.

use crate::report::Report;
use crate::stats::{fit_line, median};
use crate::trace::Tracer;
use gf2::BitVec;
use ldpc_channel::{Channel, ChannelSpec};
use ldpc_core::codes::ccsds_c2;
use ldpc_core::{BlockDecoder, DecodeResult, DecoderSpec, Encoder, LdpcCode, PackedFixedDecoder};
use ldpc_served::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The decoder every workload runs: the paper's 8-frames-per-word
/// fixed-point datapath.
pub const PACKED_SPEC: &str = "fixed@pack=8";
/// Its scalar reference, bit-exact by contract.
pub const SCALAR_SPEC: &str = "fixed";
/// Iteration budget of the paper's throughput tables (and of every door).
pub const MAX_ITERATIONS: u32 = 18;
/// Untraced/traced pass pairs in a traced run; the medians of each side
/// give `trace.overhead_ratio`, so drift on a shared host hits both alike.
pub const REPLAYS: usize = 3;

/// Seed offset between the engine's per-worker streams (worker `t` of a
/// point seeded `s` draws from `s + (t + 1) · WORKER_SEED_STRIDE`); the
/// value `ldpc-sim` uses, repeated here so the traced replicas draw the
/// engine's exact noise.
pub const WORKER_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
/// The engine's message-stream salt (`worker_seed ^ MSG_SALT`).
const MSG_SALT: u64 = 0xABCD_EF01;

pub fn spec(s: &str) -> DecoderSpec {
    DecoderSpec::parse(s).expect("benchmark decoder specs are valid")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// One set-up pass, in ms per layer.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub code_ms: f64,
    pub encoder_ms: f64,
    pub decoder_ms: f64,
    pub server_ms: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        (self.code_ms + self.encoder_ms + self.decoder_ms + self.server_ms) / 1e3
    }
}

/// Builds everything a user pays for before the first frame — the C2
/// code from its QC spec, the systematic encoder, the packed decoder,
/// and a bound decode server — `reps` times from scratch (the library's
/// process-wide caches are bypassed).
pub fn measure_setup(reps: usize) -> Vec<SetupTimes> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let code = LdpcCode::from_qc_spec("CCSDS C2 (8176,7156)", ccsds_c2::spec())
                .expect("C2 construction is statically valid");
            let code_ms = ms_since(t);
            let t = Instant::now();
            let encoder = Encoder::new(&code).expect("C2 has positive dimension");
            let encoder_ms = ms_since(t);
            let t = Instant::now();
            let decoder = spec(PACKED_SPEC).build(&code);
            let decoder_ms = ms_since(t);
            let t = Instant::now();
            let server = Server::bind(ServeConfig::default()).expect("loopback bind succeeds");
            let server_ms = ms_since(t);
            black_box((&encoder, &decoder, &server));
            SetupTimes {
                code_ms,
                encoder_ms,
                decoder_ms,
                server_ms,
            }
        })
        .collect()
}

/// Records `setup_s` (median total) and, when traced, the per-layer
/// medians.
pub fn report_setup(report: &mut Report, setups: &[SetupTimes], traced: bool) {
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    if traced {
        report.set("setup.code_ms", med(|s| s.code_ms), "ms");
        report.set("setup.encoder_ms", med(|s| s.encoder_ms), "ms");
        report.set("setup.decoder_ms", med(|s| s.decoder_ms), "ms");
        report.set("setup.server_ms", med(|s| s.server_ms), "ms");
    } else {
        report.set("setup_s", med(SetupTimes::total_s), "s");
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A frame source that draws exactly what the Monte-Carlo engine's
/// worker draws from the same worker seed: the message bits from
/// `StdRng(worker_seed ^ MSG_SALT)`, the noise from the AWGN channel
/// built with `worker_seed`.
pub struct FrameSource {
    pub channel: Box<dyn Channel>,
    msg_rng: StdRng,
    encoder: Option<Arc<Encoder>>,
    n: usize,
}

impl FrameSource {
    /// `encoder = None` sends the all-zero codeword.
    pub fn new(
        code: &LdpcCode,
        encoder: Option<Arc<Encoder>>,
        ebn0_db: f64,
        worker_seed: u64,
    ) -> Self {
        Self {
            channel: ChannelSpec::awgn().build(ebn0_db, code.rate(), worker_seed),
            msg_rng: StdRng::seed_from_u64(worker_seed ^ MSG_SALT),
            encoder,
            n: code.n(),
        }
    }

    /// The engine's per-bit message draw.
    pub fn message(&mut self) -> BitVec {
        let k = self
            .encoder
            .as_ref()
            .expect("random frames need an encoder")
            .dimension();
        (0..k).map(|_| self.msg_rng.gen_bool(0.5)).collect()
    }

    pub fn encode(&self, message: &BitVec) -> BitVec {
        self.encoder
            .as_ref()
            .expect("random frames need an encoder")
            .encode(message)
            .expect("message length matches dimension")
    }

    /// One frame: the transmitted codeword and its channel LLRs.
    pub fn frame(&mut self) -> (BitVec, Vec<f32>) {
        let codeword = if self.encoder.is_some() {
            let msg = self.message();
            self.encode(&msg)
        } else {
            BitVec::zeros(self.n)
        };
        let llrs = self.channel.transmit_codeword(&codeword);
        (codeword, llrs)
    }
}

/// Decodes `llrs` (back-to-back frames) with the packed decoder and with
/// its scalar reference and checks hard decisions, iteration counts and
/// convergence frame by frame.
pub fn packed_matches_scalar(code: &Arc<LdpcCode>, llrs: &[f32]) -> Result<usize, String> {
    let packed = spec(PACKED_SPEC)
        .build(code)
        .decode_block(llrs, MAX_ITERATIONS);
    let scalar = spec(SCALAR_SPEC)
        .build(code)
        .decode_block(llrs, MAX_ITERATIONS);
    for (f, (p, s)) in packed.iter().zip(&scalar).enumerate() {
        if p != s {
            return Err(format!(
                "frame {f}: packed {} iterations (converged {}), scalar {} iterations (converged {}), hard decisions {}",
                p.iterations,
                p.converged,
                s.iterations,
                s.converged,
                if p.hard_decision == s.hard_decision { "equal" } else { "differ" }
            ));
        }
    }
    if packed.len() != scalar.len() || packed.is_empty() {
        return Err(format!(
            "{} packed vs {} scalar results",
            packed.len(),
            scalar.len()
        ));
    }
    Ok(packed.len())
}

/// Runs the packed-vs-scalar gate on a verification sample.
pub fn gate_packed_vs_scalar(report: &mut Report, code: &Arc<LdpcCode>, llrs: &[f32], what: &str) {
    match packed_matches_scalar(code, llrs) {
        Ok(n) => report.gate(
            "packed decode equals scalar fixed",
            true,
            format!("{n} {what} frames: identical hard decisions and iterations"),
        ),
        Err(e) => report.gate("packed decode equals scalar fixed", false, e),
    }
}

/// Per-call decoder observations collected by the traced replicas.
#[derive(Default)]
pub struct DecoderLog {
    /// `(max lane iterations, µs)` per `decode_block` call.
    calls: Vec<(f64, f64)>,
    frames: u64,
    iterations: u64,
    converged: u64,
}

impl DecoderLog {
    /// Decodes one block inside a `decoder.decode_block` span.
    pub fn decode(
        &mut self,
        tracer: &mut Tracer,
        request: u64,
        decoder: &mut dyn BlockDecoder,
        llrs: &[f32],
    ) -> Vec<DecodeResult> {
        let t = Instant::now();
        let out = tracer.span("decoder.decode_block", request, |_| {
            decoder.decode_block(llrs, MAX_ITERATIONS)
        });
        let us = t.elapsed().as_secs_f64() * 1e6;
        let max_iter = out.iter().map(|r| r.iterations).max().unwrap_or(0);
        self.calls.push((f64::from(max_iter), us));
        self.frames += out.len() as u64;
        self.iterations += out.iter().map(|r| u64::from(r.iterations)).sum::<u64>();
        self.converged += out.iter().filter(|r| r.converged).count() as u64;
        out
    }

    /// The `decoder.*` per-layer metrics, including the outside-in cost
    /// fit (intercept = per-call overhead, slope = per-iteration cost).
    pub fn report(&self, report: &mut Report, tracer: &Tracer) {
        let frames = self.frames.max(1) as f64;
        let decode_us = tracer.total_us("decoder.decode_block");
        report.set("decoder.decode_us_per_frame", decode_us / frames, "us");
        report.set(
            "decoder.iterations_per_frame",
            self.iterations as f64 / frames,
            "iterations",
        );
        report.set(
            "decoder.converged_share",
            self.converged as f64 / frames,
            "share",
        );
        report.set(
            "decoder.medges_per_s",
            self.iterations as f64 * ccsds_c2::EDGES as f64 / decode_us.max(1e-9),
            "Medges/s",
        );
        match fit_line(&self.calls) {
            Some(fit) => {
                report.set("decoder.call_overhead_us", fit.intercept, "us");
                report.set("decoder.iteration_us", fit.slope, "us");
                report.set("decoder.fit_r2", fit.r2, "share");
                report.notes.push(format!(
                    "decoder cost fit over {} decode_block calls: {:.1} us + {:.1} us x max lane iterations (R^2 {:.3})",
                    fit.n, fit.intercept, fit.slope, fit.r2
                ));
            }
            None => report.gate(
                "decoder cost fit",
                false,
                "every traced word ran the same iteration count; no line fits",
            ),
        }
    }
}

/// Median `decode_block` time for words carrying 1 and 2 frames of
/// `llrs` — the under-filled words the served path ships.
pub fn report_partial_words(report: &mut Report, code: &Arc<LdpcCode>, llrs: &[f32], reps: usize) {
    let n = code.n();
    let mut decoder = spec(PACKED_SPEC).build(code);
    for lanes in [1usize, 2] {
        let frames = llrs.len() / n;
        let times: Vec<f64> = (0..reps)
            .map(|r| {
                let start = (r * lanes) % (frames - lanes + 1);
                let block = &llrs[start * n..(start + lanes) * n];
                let t = Instant::now();
                black_box(decoder.decode_block(block, MAX_ITERATIONS));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        report.set(
            &format!("decoder.partial_word_us.lanes{lanes}"),
            median(&times),
            "us",
        );
    }
}

/// Peak resident memory of this process in MiB: the kernel's high-water
/// mark of its address space (`VmHWM`). Unlike `getrusage`'s `ru_maxrss`,
/// it starts afresh at exec, so the launcher's (cargo's) memory does not
/// leak into it. NaN where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// The build and machine this run measured.
pub fn provenance() -> String {
    let mut flags: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("sse2", is_x86_feature_detected!("sse2")),
            ("sse4.1", is_x86_feature_detected!("sse4.1")),
            ("popcnt", is_x86_feature_detected!("popcnt")),
            ("bmi2", is_x86_feature_detected!("bmi2")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                flags.push(name);
            }
        }
    }
    format!(
        "{{\"cargo_features\": \"default (ldpc-core simd off)\", \"simd_active\": {}, \
         \"target_arch\": \"{}\", \"cpu_flags\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"profile\": \"{}\", \"nproc\": {}}}",
        PackedFixedDecoder::simd_active(),
        std::env::consts::ARCH,
        flags.join(" "),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        nproc()
    )
}

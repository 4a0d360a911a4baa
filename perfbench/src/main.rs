//! The repository's benchmark: three workloads through the library calls
//! `ldpc-tool sweep / simulate / serve` make, in the default-feature
//! release build.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload floor-sim --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! replays the workload with spans around every call into a layer and
//! reports the per-layer metrics. Every run checks its outputs (the
//! gates) and ends with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics`. A failed gate exits with code 1. `--workload all` runs
//! every workload in turn. NOTES.md defines each metric.

mod floor;
mod layers;
mod report;
mod served;
mod stats;
mod sweep;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["waterfall-sweep", "floor-sim", "served-open-loop"];

/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Metrics of the untraced run, on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("frames_per_s", "frames/s"),
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of the traced run, on every workload; a layer off a
/// workload's path reports 0 there.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("setup.code_ms", "ms"),
    ("setup.encoder_ms", "ms"),
    ("setup.decoder_ms", "ms"),
    ("setup.server_ms", "ms"),
    ("encoder.message_us_per_frame", "us"),
    ("encoder.encode_us_per_frame", "us"),
    ("channel.transmit_us_per_frame", "us"),
    ("decoder.decode_us_per_frame", "us"),
    ("decoder.iterations_per_frame", "iterations"),
    ("decoder.iteration_us", "us"),
    ("decoder.call_overhead_us", "us"),
    ("decoder.fit_r2", "share"),
    ("decoder.medges_per_s", "Medges/s"),
    ("decoder.converged_share", "share"),
    ("decoder.partial_word_us.lanes1", "us"),
    ("decoder.partial_word_us.lanes2", "us"),
    ("engine.expand_us_per_frame", "us"),
    ("engine.count_us_per_frame", "us"),
    ("engine.residual_us_per_frame", "us"),
    ("orchestrator.frames_simulated", "frames"),
    ("orchestrator.frames_merged", "frames"),
    ("orchestrator.useful_ratio", "ratio"),
    ("orchestrator.hit_target_points", "points"),
    ("orchestrator.scaling_eff", "ratio"),
    ("protocol.render_us_per_frame", "us"),
    ("protocol.parse_us_per_frame", "us"),
    ("served.p50_ms.low", "ms"),
    ("served.p99_ms.low", "ms"),
    ("served.p50_ms.mid", "ms"),
    ("served.p99_ms.mid", "ms"),
    ("served.p50_ms.high", "ms"),
    ("served.p99_ms.high", "ms"),
    ("served.goodput_fps", "frames/s"),
    ("served.lane_fill.low", "share"),
    ("served.lane_fill.mid", "share"),
    ("served.lane_fill.high", "share"),
    ("served.batches", "count"),
    ("served.rejected", "count"),
    ("served.bad_requests", "count"),
    ("served.wait_transport_ms.low", "ms"),
    ("served.wait_transport_ms.mid", "ms"),
    ("served.wait_transport_ms.high", "ms"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.failed_share", "share"),
    ("trace.overhead_ratio", "ratio"),
    ("peak_rss_mb.traced", "MiB"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch space inside the benchmark's directory, removed at exit.
    pub work_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} expects a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let workload = workload.ok_or("--workload <name> is required")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
            ));
        }
        if seconds == 0 {
            return Err("--seconds must be positive".to_string());
        }
        let work_dir = work_root().join(format!("{workload}-{}", std::process::id()));
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            work_dir,
        })
    }

    /// The measuring budget of one workload.
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// The benchmark's own scratch directory inside the checkout (ignored by
/// git): per-run cache directories, and the spans of the last traced run
/// of each workload.
fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// A per-repetition seed derived from the run seed (splitmix64).
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Layers (metric-name prefixes) a workload's path never calls; their
/// per-layer metrics read 0 there.
fn off_path(workload: &str) -> &'static [&'static str] {
    match workload {
        "waterfall-sweep" => &["encoder.", "protocol.", "served.", "bench.generator_lag"],
        "floor-sim" => &[
            "orchestrator.",
            "protocol.",
            "served.",
            "bench.generator_lag",
        ],
        _ => &["encoder.", "channel.", "engine.", "orchestrator."],
    }
}

fn run_workload(name: &str, args: &Args) -> Report {
    let mut report = Report::default();
    let started = Instant::now();
    let setups = layers::measure_setup(SETUP_REPS);
    layers::report_setup(&mut report, &setups, args.trace);
    match name {
        "waterfall-sweep" => sweep::run(&mut report, args),
        "floor-sim" => floor::run(&mut report, args),
        "served-open-loop" => served::run(&mut report, args),
        _ => unreachable!("workload names are validated"),
    }
    let rss = layers::peak_rss_mb();
    if args.trace {
        report.set("peak_rss_mb.traced", rss, "MiB");
        report.set(
            "bench.failed_share",
            report.failed as f64 / report.attempted.max(1) as f64,
            "share",
        );
        let off_path = off_path(name);
        let zeroed: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(metric, _)| off_path.iter().any(|layer| metric.starts_with(layer)))
            .map(|&(metric, unit)| {
                report.set(metric, 0.0, unit);
                metric
            })
            .collect();
        report.notes.push(format!(
            "off this workload's path, reported as 0: {}",
            zeroed.join(" ")
        ));
    } else {
        report.set("peak_rss_mb", rss, "MiB");
        report.extra(
            "failed_share",
            report.failed as f64 / report.attempted.max(1) as f64,
            "share",
        );
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = expected
        .iter()
        .filter(|(metric, _)| report.get(metric).is_none())
        .map(|(metric, _)| *metric)
        .collect();
    report.gate(
        "every metric reported",
        missing.is_empty(),
        if missing.is_empty() {
            "all".to_string()
        } else {
            format!("missing {}", missing.join(" "))
        },
    );
    report.check_metrics();
    report
        .notes
        .push(format!("wall {:.1} s", started.elapsed().as_secs_f64()));
    report
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!("provenance {}", layers::provenance());
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut reports = Vec::new();
    for name in &names {
        let report = run_workload(name, &args);
        for line in report.human().lines() {
            println!("{name}: {line}");
        }
        if let Some(spans) = &report.spans_json {
            let path = work_root().join(format!("trace-{name}.json"));
            match std::fs::create_dir_all(work_root()).and_then(|()| std::fs::write(&path, spans)) {
                Ok(()) => println!("{name}: spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
            }
        }
        reports.push((name, report));
    }
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let correct = reports.iter().all(|(_, r)| r.correct());
    let last = if let [(_, only)] = reports.as_slice() {
        only.json()
    } else {
        let mut all = Report::default();
        for (name, r) in &reports {
            all.attempted += r.attempted;
            all.failed += r.failed;
            all.gate(name, r.correct(), "see above");
            for (metric, unit) in if args.trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            } {
                if let Some(v) = r.get(metric) {
                    all.set(&format!("{name}.{metric}"), v, unit);
                }
            }
        }
        all.json()
    };
    println!("{last}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::valid_metric_name;

    #[test]
    fn metric_names_follow_the_grammar_and_are_unique() {
        let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &names {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")),
                "{workload}"
            );
        }
        let declared = text.matches("{\"name\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn repetition_seeds_are_deterministic_and_distinct() {
        assert_eq!(rep_seed(7, 3), rep_seed(7, 3));
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|r| rep_seed(7, r)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(rep_seed(7, 0), rep_seed(8, 0));
    }
}

//! Subcommand implementations for `ldpc-tool`.
//!
//! Each command returns its output as a `String` so the logic is unit
//! testable; `main` only does I/O.

use crate::args::{ArgError, CommandOptions, ParsedArgs};
use ldpc_channel::ChannelSpec;
use ldpc_core::codes::ccsds_c2;
use ldpc_core::{CodeSpec, DecoderSpec};
use ldpc_hwsim::{
    devices, plan, render_table, ArchConfig, CodeDims, PlannerRequest, ResourceEstimate,
    ThroughputModel,
};
use ldpc_sim::{run_sweep, split_spec_list, sweep_grid, Scenario, SweepConfig, SweepUnitResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::path::PathBuf;

/// Every command with the options it accepts; the parser rejects any
/// other option, so a misspelled or retired one never runs silently.
#[rustfmt::skip]
pub const COMMANDS: &[CommandOptions] = &[
    ("help", &[]),
    ("info", &[]),
    ("encode", &["random", "zeros", "seed"]),
    ("simulate", &["code", "demo", "c2", "channel", "decoder", "ebn0", "frames", "iters",
                   "threads", "seed"]),
    ("sweep", &["decoders", "codes", "channels", "demo", "c2", "ebn0s", "ebn0", "frames",
                "iters", "threads", "seed", "target-errors", "chunk-frames", "resume",
                "cache-dir", "json"]),
    ("serve", &["port", "addr", "workers", "iters", "queue-frames"]),
    ("plan", &["mbps", "iters", "clock"]),
    ("tables", &[]),
];

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns an error string suitable for printing to stderr.
pub fn run(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    // `simulate --help` must print usage, not run a simulation.
    if args.flag("help") {
        return Ok(help_text());
    }
    match args.command.as_str() {
        "help" => Ok(help_text()),
        "info" => cmd_info(args),
        "encode" => cmd_encode(args),
        "simulate" => cmd_simulate(args),
        "sweep" => cmd_sweep(args),
        "serve" => cmd_serve(args),
        "plan" => cmd_plan(args),
        "tables" => Ok(cmd_tables()),
        other => Err(format!("unknown command {other:?} (try `ldpc-tool help`)").into()),
    }
}

/// The help text.
pub fn help_text() -> String {
    format!(
        "\
ldpc-tool — CCSDS near-earth LDPC decoder toolbox

USAGE: ldpc-tool <COMMAND> [OPTIONS]

COMMANDS:
  info                      print the C2 code parameters
  encode [--random|--zeros] [--seed N]
                            encode one 7154-bit frame; prints codeword bits
  simulate [--code SPEC|--demo|--c2] [--channel SPEC] [--decoder SPEC]
           [--ebn0 DB] [--frames N] [--iters N] [--threads N] [--seed N]
                            Monte-Carlo one scenario at one operating
                            point; prints the row `sweep` prints for it
                            (--threads 0 = all cores)
  sweep --decoders SPEC,SPEC,... [--codes SPEC,...] [--channels SPEC,...]
        [--demo|--c2] [--ebn0s DB,DB,...] [--frames N] [--iters N]
        [--threads N] [--seed N] [--target-errors K] [--chunk-frames N]
        [--resume] [--cache-dir DIR] [--json PATH]
                            grid sweep: one long-format CSV over every
                            code x channel x decoder x Eb/N0 combination.
                            Chunks of {chunk} frames of every point are
                            work-stolen across the cores; each point runs
                            --frames N frames, or stops early once it has
                            K frame errors (default 0 = no early stop).
                            --resume caches finished chunks under
                            --cache-dir (default .ldpc-sweep-cache), so a
                            re-run simulates nothing and a larger budget
                            simulates only the extension.
                            --json PATH also writes machine-readable
                            results (the BENCH_SWEEP.json format)
                            simulate and sweep print the same bytes for
                            any --threads value and cache state
  serve [--port N | --addr HOST:PORT] [--workers N] [--iters N]
        [--queue-frames N]
                            decode-as-a-service: newline-delimited TCP
                            protocol (see docs/scenarios.md recipe 12)
                            coalescing concurrent clients' frames into
                            @pack/@batch/@bitslice words with no batching
                            timer: an idle worker claims whatever a key
                            has queued, up to a full word, so a lone
                            frame decodes at once. Serves at most {conns}
                            connections at once; one more gets a BUSY
                            line naming the cap and is closed. Drains
                            gracefully on ctrl-c / SIGTERM / a SHUTDOWN
                            request. Default 127.0.0.1:7878
  plan --mbps X [--iters N] [--clock MHZ]
                            pick the cheapest architecture meeting a rate
  tables                    print the paper's Tables 1-3 from the models
  help                      this text

CODE SPECS (simulate --code / sweep --codes; default c2):
  families: {codes}
  examples: demo | c2 | ar4ja:r=1/2,k=1024 | shortened:c2,k=4096

CHANNEL SPECS (simulate --channel / sweep --channels; default awgn):
  families: {channels} — modifier @quant=B (B-bit LLR quantization)
  examples: awgn | bsc:0.02 | rayleigh | awgn@quant=5
            erasure:0.05 | burst:0.01,0.3,0.05 (Gilbert-Elliott
            good/bad crossover + switch probability; pair the loss
            channels with the peeling decoder)

DECODER SPECS (simulate --decoder / sweep --decoders):
  family[:param][@modifier...] — families: {families}
  examples: spa | nms:1.25 | oms:0.15 | fixed | layered:1.25
            gallager-b:t=2 | nms:1.25@batch=8 | fixed@pack=8
            gallager-b@bitslice
  modifiers: @batch=N (lockstep frame batching: ms, nms, oms)
             @pack=8 (8 frames per u64 word: fixed)
             @bitslice (64 frames per u64 word: gallager-b)

The full grammar and copy-pasteable recipes live in docs/scenarios.md.
",
        chunk = SweepConfig::default().chunk_frames,
        conns = ldpc_served::MAX_CONNECTIONS,
        codes = CodeSpec::family_names().join(", "),
        channels = ChannelSpec::family_names().join(", "),
        families = DecoderSpec::family_names().join(", ")
    )
}

/// Resolves the single code spec of `simulate` from `--code SPEC` or the
/// `--demo` / `--c2` shorthand flags (default: the paper's C2 code).
fn resolve_code_spec(args: &ParsedArgs) -> Result<CodeSpec, Box<dyn Error>> {
    match args.get("code") {
        Some(raw) => {
            if args.flag("demo") || args.flag("c2") {
                return Err("--code conflicts with --demo/--c2; give just one".into());
            }
            Ok(raw.parse::<CodeSpec>()?)
        }
        None if args.flag("demo") => Ok(CodeSpec::Demo),
        None => Ok(CodeSpec::C2),
    }
}

fn cmd_info(_args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let code = ccsds_c2::code();
    let mut out = String::new();
    out.push_str(&format!("name        : {}\n", code.name()));
    out.push_str(&format!("n           : {}\n", code.n()));
    out.push_str(&format!(
        "checks      : {} (rank {})\n",
        code.n_checks(),
        code.rank()
    ));
    out.push_str(&format!("dimension   : {}\n", code.dimension()));
    out.push_str(&format!("info bits   : {}\n", ccsds_c2::K_INFO));
    out.push_str(&format!("rate        : {:.4}\n", code.rate()));
    out.push_str(&format!("edges       : {}\n", code.graph().n_edges()));
    out.push_str(&format!(
        "structure   : {}x{} circulants of {}, row weight 32, column weight 4\n",
        ccsds_c2::BLOCK_ROWS,
        ccsds_c2::BLOCK_COLS,
        ccsds_c2::CIRCULANT_SIZE
    ));
    Ok(out)
}

fn cmd_encode(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let seed: u64 = args.get_or("seed", 1u64)?;
    let info: Vec<u8> = if args.flag("zeros") {
        vec![0u8; ccsds_c2::K_INFO]
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..ccsds_c2::K_INFO)
            .map(|_| rng.gen_range(0..2u8))
            .collect()
    };
    let cw = ccsds_c2::encode_frame(&info)?;
    let mut out = String::with_capacity(cw.len() + 1);
    for i in 0..cw.len() {
        out.push(if cw.get(i) { '1' } else { '0' });
    }
    out.push('\n');
    Ok(out)
}

/// The base seed of `simulate` and `sweep` when `--seed` is absent.
const DEFAULT_SEED: u64 = 0xC11;

/// The shared Monte-Carlo configuration of `simulate` and `sweep`,
/// parsed from the common flags. One definition, so a sweep row always
/// reproduces a simulate run with the same flags at point index 0.
/// Defaults come from [`SweepConfig::default`], except the error
/// target: 0, so a point runs its whole `--frames` budget unless
/// `--target-errors` asks otherwise (`simulate` accepts none of the
/// target, chunk or cache flags, so it always runs that way). The frame
/// default is sized to the smallest code in play: 2000 frames for
/// demo-only runs, 50 once a full-scale code is involved.
fn sweep_config_from_args(
    args: &ParsedArgs,
    codes: &[CodeSpec],
) -> Result<SweepConfig, Box<dyn Error>> {
    let all_demo = codes.iter().all(|c| {
        matches!(
            c,
            CodeSpec::Demo
                | CodeSpec::Shortened {
                    base: ldpc_core::ShortenedBase::Demo,
                    ..
                }
        )
    });
    let default_frames = if all_demo { 2_000 } else { 50 };
    let positive = |option: &str, default: u64| -> Result<u64, ArgError> {
        match args.get_or(option, default)? {
            0 => Err(ArgError::InvalidValue {
                option: option.into(),
                value: "0".into(),
            }),
            n => Ok(n),
        }
    };
    let defaults = SweepConfig::default();
    let cache_dir = match args.get("cache-dir") {
        Some(path) => Some(PathBuf::from(path)),
        None if args.flag("resume") => Some(PathBuf::from(".ldpc-sweep-cache")),
        None => None,
    };
    Ok(SweepConfig {
        max_frames: positive("frames", default_frames)?,
        target_frame_errors: args.get_or("target-errors", 0u64)?,
        chunk_frames: positive("chunk-frames", defaults.chunk_frames)?,
        max_iterations: args.get_or("iters", defaults.max_iterations)?,
        threads: args.get_or("threads", defaults.threads)?,
        cache_dir,
        progress_frames: None,
    })
}

/// Parses an Eb/N0 value in dB. It must be finite and within ±1000 dB,
/// where the channel noise σ is a finite positive number for any code
/// rate.
fn parse_ebn0(option: &str, raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(db) if db.is_finite() && db.abs() <= 1000.0 => Ok(db),
        _ => Err(format!(
            "invalid value {raw:?} for --{option}: expected a finite Eb/N0 in dB \
             within ±1000 (e.g. --{option} 4.0)"
        )),
    }
}

fn cmd_simulate(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let channel = match args.get("channel") {
        Some(raw) => raw.parse::<ChannelSpec>()?,
        None => ChannelSpec::awgn(),
    };
    let scenario = Scenario {
        code: resolve_code_spec(args)?,
        channel,
        decoder: DecoderSpec::parse(args.get("decoder").unwrap_or("fixed"))?,
    };
    let ebn0_db = parse_ebn0("ebn0", args.get("ebn0").unwrap_or("4.0"))?;
    let cfg = sweep_config_from_args(args, std::slice::from_ref(&scenario.code))?;
    // A one-unit grid: exactly the row `sweep` prints for this cell.
    let units = sweep_grid(&[scenario], &[ebn0_db], args.get_or("seed", DEFAULT_SEED)?);
    Ok(render_csv(&run_sweep(&units, &cfg)?))
}

fn cmd_sweep(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let decoders: Vec<DecoderSpec> = split_spec_list(
        args.get("decoders")
            .ok_or("sweep requires --decoders <spec,spec,...> (try `ldpc-tool help`)")?,
    )
    .iter()
    .map(|s| DecoderSpec::parse(s).map_err(Box::<dyn Error>::from))
    .collect::<Result<_, _>>()?;
    let codes: Vec<CodeSpec> = match args.get("codes") {
        Some(list) => {
            if args.flag("demo") || args.flag("c2") {
                return Err("--codes conflicts with --demo/--c2; give just one".into());
            }
            split_spec_list(list)
                .iter()
                .map(|s| s.parse().map_err(Box::<dyn Error>::from))
                .collect::<Result<_, _>>()?
        }
        None => vec![resolve_code_spec(args)?],
    };
    let channels: Vec<ChannelSpec> = match args.get("channels") {
        Some(list) => split_spec_list(list)
            .iter()
            .map(|s| s.parse().map_err(Box::<dyn Error>::from))
            .collect::<Result<_, _>>()?,
        None => vec![ChannelSpec::awgn()],
    };
    let ebn0s: Vec<f64> = match args.get("ebn0s") {
        Some(list) => list
            .split(',')
            .map(|v| parse_ebn0("ebn0s", v))
            .collect::<Result<_, _>>()?,
        None => vec![parse_ebn0("ebn0", args.get("ebn0").unwrap_or("4.0"))?],
    };
    let cfg = sweep_config_from_args(args, &codes)?;
    let mut scenarios = Vec::with_capacity(codes.len() * channels.len() * decoders.len());
    for code in &codes {
        for channel in &channels {
            for decoder in &decoders {
                scenarios.push(Scenario {
                    code: *code,
                    channel: *channel,
                    decoder: decoder.clone(),
                });
            }
        }
    }
    let units = sweep_grid(&scenarios, &ebn0s, args.get_or("seed", DEFAULT_SEED)?);
    let started = std::time::Instant::now();
    let results = run_sweep(&units, &cfg)?;
    if let Some(path) = args.get("json") {
        std::fs::write(path, sweep_json(&results, &cfg))
            .map_err(|e| format!("writing --json {path}: {e}"))?;
    }
    let simulated: u64 = results.iter().map(|r| r.frames_simulated).sum();
    let cached: u64 = results.iter().map(|r| r.frames_from_cache).sum();
    // Progress/accounting goes to stderr so stdout stays exactly the CSV
    // (and a warm re-run stays byte-identical to the cold one).
    eprintln!(
        "sweep: {} point(s), {simulated} frame(s) simulated, {cached} from cache, {:.2}s",
        results.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(render_csv(&results))
}

/// The CSV header of `simulate` and `sweep`: the scenario, the rates,
/// the raw error count, the Wilson 95 % PER interval, and which rule
/// stopped the point. Every column is a function of the *merged*
/// counts — invariant under thread count and under cold/warm/resumed
/// execution — so a warm re-run's CSV is byte-identical to the cold one.
/// The per-run resume accounting (frames simulated vs adopted from
/// cache) is provenance, not result: it goes to the `--json` file and
/// the stderr summary instead.
const CSV_HEADER: &str = "code,channel,decoder,ebn0_db,frames,ber,per,avg_iterations,\
                          frame_errors,per_lo,per_hi,stopped_by";

/// Renders one CSV field, quoting per RFC 4180 when the value contains
/// a comma (a `shortened:c2,k=4096` code spec), a quote, or a CR/LF —
/// an embedded line break would otherwise split one record in two — so
/// every row keeps exactly the header's field count under any standard
/// CSV reader.
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\r', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// One CSV data row: the code, channel, and decoder columns are
/// canonical spec strings, so `nms:1.25` and `nms:1.0` (or `bsc:0.02`
/// and `bsc:0.1`) never collapse into the same label, and any row can
/// be re-run by pasting its first three columns (unquoted) into
/// `simulate --code/--channel/--decoder`.
fn csv_row(result: &SweepUnitResult) -> String {
    let (scenario, point) = (&result.scenario, &result.point);
    let (per_lo, per_hi) = point.per_confidence();
    format!(
        "{},{},{},{:.3},{},{:.6e},{:.6e},{:.2},{},{per_lo:.6e},{per_hi:.6e},{}",
        csv_field(&scenario.code.to_string()),
        csv_field(&scenario.channel.to_string()),
        csv_field(&scenario.decoder.to_string()),
        point.ebn0_db,
        point.frames,
        point.ber(),
        point.per(),
        point.avg_iterations(),
        point.frame_errors,
        if result.hit_target { "target" } else { "cap" }
    )
}

/// The header plus one row per result, in unit order.
fn render_csv(results: &[SweepUnitResult]) -> String {
    let mut out = format!("{CSV_HEADER}\n");
    for result in results {
        out.push_str(&csv_row(result));
        out.push('\n');
    }
    out
}

/// Escapes a string for a JSON literal (spec strings are plain ASCII,
/// but the writer must not be the component that trusts that).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a rate for JSON: a finite value in exponent notation, `null`
/// when undefined (a zero-frame point).
fn json_rate(x: f64) -> String {
    if x.is_nan() {
        "null".to_string()
    } else {
        format!("{x:.6e}")
    }
}

/// The machine-readable result set written by `sweep --json PATH` (the
/// `BENCH_SWEEP.json` format). Deliberately excludes wall time so that
/// a warm re-run produces byte-identical JSON except for the resume
/// accounting — `total_frames_simulated` is the field CI greps to
/// assert a warm cache simulated nothing.
fn sweep_json(results: &[SweepUnitResult], cfg: &SweepConfig) -> String {
    let mut json = String::from("{\n  \"tool\": \"ldpc-tool sweep\",\n");
    json.push_str(&format!(
        "  \"target_frame_errors\": {},\n  \"chunk_frames\": {},\n  \"max_frames\": {},\n",
        cfg.target_frame_errors, cfg.chunk_frames, cfg.max_frames
    ));
    let simulated: u64 = results.iter().map(|r| r.frames_simulated).sum();
    let cached: u64 = results.iter().map(|r| r.frames_from_cache).sum();
    json.push_str(&format!(
        "  \"total_frames_simulated\": {simulated},\n  \"total_frames_from_cache\": {cached},\n"
    ));
    json.push_str("  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let (per_lo, per_hi) = r.point.per_confidence();
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"ebn0_db\": {:?}, \"frames\": {}, \
             \"bit_errors\": {}, \"frame_errors\": {}, \"undetected_frame_errors\": {}, \
             \"total_iterations\": {}, \"ber\": {}, \"per\": {}, \
             \"per_lo\": {per_lo:.6e}, \"per_hi\": {per_hi:.6e}, \
             \"frames_simulated\": {}, \"frames_from_cache\": {}, \"chunks_merged\": {}, \
             \"hit_target\": {}}}{}\n",
            json_escape(&r.scenario.to_string()),
            r.ebn0_db,
            r.point.frames,
            r.point.bit_errors,
            r.point.frame_errors,
            r.point.undetected_frame_errors,
            r.point.total_iterations,
            json_rate(r.point.ber()),
            json_rate(r.point.per()),
            r.frames_simulated,
            r.frames_from_cache,
            r.chunks_merged,
            r.hit_target,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

fn cmd_plan(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let mbps: f64 = args
        .get("mbps")
        .ok_or("plan requires --mbps")?
        .parse()
        .map_err(|_| "invalid --mbps value")?;
    let iters: u32 = args.get_or("iters", 18u32)?;
    let clock: f64 = args.get_or("clock", 200.0)?;
    let request = PlannerRequest {
        min_info_mbps: mbps,
        iterations: iters,
        clock_mhz: clock,
    };
    match plan(&request, &CodeDims::ccsds_c2()) {
        None => Ok(format!(
            "no swept configuration reaches {mbps} Mbps at {iters} iterations / {clock} MHz\n"
        )),
        Some(choice) => Ok(format!(
            "config : {}\nrate   : {:.1} Mbps info at {iters} iterations\ndevice : {} {} ({})\n",
            choice.config,
            choice.info_mbps,
            choice.device.family,
            choice.device.name,
            choice.device.utilization(&choice.estimate),
        )),
    }
}

/// `serve`: run the decode-as-a-service front end until a shutdown
/// signal (SIGINT/SIGTERM), a client `SHUTDOWN` request, or a fatal
/// bind error. Returns the run summary once the drain completes.
fn cmd_serve(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let addr = match args.get("addr") {
        Some(a) => {
            if args.get("port").is_some() {
                return Err("--addr conflicts with --port; give just one".into());
            }
            a.to_string()
        }
        None => format!("127.0.0.1:{}", args.get_or("port", 7878u16)?),
    };
    let cfg = ldpc_served::ServeConfig {
        addr: addr.clone(),
        workers: args.get_or("workers", 0usize)?,
        max_iterations: args.get_or("iters", 18u32)?,
        queue_frames: args.get_or("queue-frames", 1024usize)?,
    };
    // A clean one-line error — an occupied port must not panic.
    let server = ldpc_served::Server::bind(cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let handle = server.handle();
    eprintln!(
        "ldpc-tool serve: listening on {} (ctrl-c, SIGTERM, or a SHUTDOWN request drains and exits)",
        handle.addr()
    );

    // SIGINT/SIGTERM handlers only set a flag; this watcher turns the
    // flag into a graceful drain (a blocked accept() is not interrupted
    // by the signal — see ldpc_served::signals).
    let flag = ldpc_served::shutdown_flag();
    let watcher_handle = handle.clone();
    let watcher = std::thread::spawn(move || {
        while !watcher_handle.stopped() {
            if flag.load(std::sync::atomic::Ordering::SeqCst) {
                watcher_handle.shutdown();
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    });
    let summary = server.run();
    let _ = watcher.join();
    Ok(format!("{summary}\n"))
}

fn cmd_tables() -> String {
    let dims = CodeDims::ccsds_c2();
    let mut out = String::new();
    let lc = ThroughputModel::new(ArchConfig::low_cost(), dims);
    let hs = ThroughputModel::new(ArchConfig::high_speed(), dims);
    let rows: Vec<Vec<String>> = [10u32, 18, 50]
        .iter()
        .map(|&it| {
            vec![
                it.to_string(),
                format!("{:.0} Mbps", lc.info_throughput_mbps(it)),
                format!("{:.0} Mbps", hs.info_throughput_mbps(it)),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Table 1 — output throughput at 200 MHz",
        &["iterations", "low-cost", "high-speed"],
        &rows,
    ));
    for cfg in [ArchConfig::low_cost(), ArchConfig::high_speed()] {
        let est = ResourceEstimate::new(&cfg, &dims);
        out.push_str(&format!("\n{} decoder: {est}\n", cfg.name));
        for dev in devices() {
            if dev.fits(&est) {
                out.push_str(&format!(
                    "  fits {} {} ({})\n",
                    dev.family,
                    dev.name,
                    dev.utilization(&est)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(words: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(words.iter().map(|s| s.to_string()), COMMANDS).unwrap()
    }

    /// Parses and runs a command line, as `main` does.
    fn try_run(words: &[&str]) -> Result<String, Box<dyn Error>> {
        run(&ParsedArgs::parse(
            words.iter().map(|s| s.to_string()),
            COMMANDS,
        )?)
    }

    #[test]
    fn help_lists_all_commands() {
        let h = help_text();
        for cmd in [
            "info", "encode", "simulate", "sweep", "serve", "plan", "tables",
        ] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
        // The spec grammar is part of the contract: every family shows up.
        for family in DecoderSpec::family_names() {
            assert!(h.contains(family), "help missing family {family}");
        }
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(&parsed(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn serve_bind_failure_is_a_clean_error_not_a_panic() {
        // Hold the port open so the serve bind must fail.
        let occupied = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = occupied.local_addr().unwrap().port().to_string();
        let err = run(&parsed(&["serve", "--port", &port])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cannot bind"), "{msg}");
        assert!(msg.contains(&port), "{msg}");
    }

    #[test]
    fn serve_option_errors_are_clean() {
        let err = run(&parsed(&[
            "serve",
            "--addr",
            "127.0.0.1:1",
            "--port",
            "7878",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("conflicts"), "{err}");
        // `serve` has no batching timer, so there is no wait to set.
        let err = try_run(&["serve", "--max-wait-us", "500"]).unwrap_err();
        assert!(
            err.to_string().contains("unknown option --max-wait-us"),
            "{err}"
        );
        let err = run(&parsed(&["serve", "--port", "notaport"])).unwrap_err();
        assert!(err.to_string().contains("invalid value"), "{err}");
    }

    #[test]
    fn info_reports_c2_parameters() {
        let out = run(&parsed(&["info"])).unwrap();
        assert!(out.contains("8176"));
        assert!(out.contains("7156"));
        assert!(out.contains("7154"));
    }

    #[test]
    fn encode_zeros_gives_zero_codeword() {
        let out = run(&parsed(&["encode", "--zeros"])).unwrap();
        let line = out.trim();
        assert_eq!(line.len(), 8176);
        assert!(line.chars().all(|c| c == '0'));
    }

    #[test]
    fn encode_random_is_seeded_and_valid() {
        let a = run(&parsed(&["encode", "--seed", "5"])).unwrap();
        let b = run(&parsed(&["encode", "--seed", "5"])).unwrap();
        let c = run(&parsed(&["encode", "--seed", "6"])).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let bits: Vec<u8> = a.trim().bytes().map(|b| b - b'0').collect();
        let cw = gf2::BitVec::from_bits(&bits);
        assert!(ccsds_c2::code().is_codeword(&cw));
    }

    #[test]
    fn simulate_demo_produces_csv() {
        let out = run(&parsed(&[
            "simulate", "--demo", "--ebn0", "6.0", "--frames", "100", "--iters", "10",
        ]))
        .unwrap();
        assert!(out.starts_with("code,channel,decoder"));
        let data = out.lines().nth(1).unwrap();
        assert!(data.starts_with("demo,awgn,fixed,6.000,100,"));
    }

    #[test]
    fn simulate_batched_matches_per_frame_counts() {
        // One worker so the per-frame and batched runs draw identical
        // noise; bit-exact batched decoding then makes the whole CSV
        // byte-identical.
        let base = &[
            "simulate",
            "--demo",
            "--decoder",
            "fixed",
            "--ebn0",
            "3.0",
            "--frames",
            "64",
            "--iters",
            "12",
            "--seed",
            "9",
            "--threads",
            "1",
        ];
        // Identical counts; only the decoder label records the packing.
        for (scalar, packed) in [("fixed", "fixed@pack=8"), ("nms", "nms@batch=8")] {
            let mut args = base.to_vec();
            args[3] = scalar; // replaces the --decoder value
            let per_frame = run(&parsed(&args)).unwrap();
            args[3] = packed;
            let batched = run(&parsed(&args)).unwrap();
            assert!(
                batched
                    .lines()
                    .nth(1)
                    .unwrap()
                    .starts_with(&format!("demo,awgn,{packed},3.000,64,")),
                "{batched}"
            );
            assert_eq!(
                per_frame.replace(&format!(",{scalar},"), &format!(",{packed},")),
                batched
            );
        }
    }

    #[test]
    fn simulate_batched_nms_works() {
        let out = run(&parsed(&[
            "simulate",
            "--demo",
            "--decoder",
            "nms@batch=4",
            "--frames",
            "32",
            "--ebn0",
            "5.0",
        ]))
        .unwrap();
        assert!(out
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("demo,awgn,nms@batch=4,5.000,32,"));
    }

    #[test]
    fn simulate_hard_bitslice_matches_scalar_hard_counts() {
        // One worker: scalar Gallager-B and the 64-wide bit-sliced run
        // draw identical noise and decode bit-exactly per lane, so the
        // CSV differs only in the decoder column.
        let base = &[
            "simulate",
            "--demo",
            "--decoder",
            "gallager-b:t=3",
            "--ebn0",
            "5.0",
            "--frames",
            "96",
            "--iters",
            "20",
            "--seed",
            "4",
            "--threads",
            "1",
        ];
        let scalar = run(&parsed(base)).unwrap();
        let mut with_bitslice = base.to_vec();
        with_bitslice[3] = "gallager-b:t=3@bitslice";
        let sliced = run(&parsed(&with_bitslice)).unwrap();
        assert!(scalar
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("demo,awgn,gallager-b,5.000,96,"));
        assert!(sliced
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("demo,awgn,gallager-b@bitslice,5.000,96,"));
        assert_eq!(
            scalar.replace(",gallager-b,", ",gallager-b@bitslice,"),
            sliced,
            "bit-sliced counts diverged from scalar Gallager-B"
        );
    }

    /// Bit-slicing is the hard-decision family's mirror: the spec
    /// grammar rejects it on a soft decoder, and the retired `--bitslice`
    /// flag is an unknown option rather than a silent no-op.
    #[test]
    fn simulate_bitslice_requires_hard() {
        let err = run(&parsed(&[
            "simulate",
            "--demo",
            "--decoder",
            "nms@bitslice",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("gallager-b"), "{err}");
        let err = try_run(&["simulate", "--demo", "--bitslice"]).unwrap_err();
        assert!(
            err.to_string().contains("unknown option --bitslice"),
            "{err}"
        );
        assert!(err.to_string().contains("--decoder"), "{err}");
    }

    /// A flip threshold is a Gallager-B parameter; the retired
    /// `--threshold` flag must not silently run the soft decoder.
    #[test]
    fn simulate_threshold_requires_hard() {
        let err = try_run(&["simulate", "--demo", "--threshold", "5"]).unwrap_err();
        assert!(
            err.to_string().contains("unknown option --threshold"),
            "{err}"
        );
        let err = run(&parsed(&["simulate", "--demo", "--decoder", "nms:t=5"])).unwrap_err();
        assert!(err.to_string().contains("nms"), "{err}");
    }

    #[test]
    fn simulate_hard_rejects_decoder_and_batch() {
        let err = try_run(&["simulate", "--demo", "--hard", "--decoder", "nms"]).unwrap_err();
        assert!(err.to_string().contains("unknown option --hard"), "{err}");
        let err = run(&parsed(&[
            "simulate",
            "--demo",
            "--decoder",
            "gallager-b@batch=8",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("not supported for gallager-b"),
            "{err}"
        );
    }

    #[test]
    fn simulate_hard_rejects_zero_threshold() {
        let err = run(&parsed(&[
            "simulate",
            "--demo",
            "--decoder",
            "gallager-b:t=0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("threshold"), "{err}");
    }

    #[test]
    fn simulate_rejects_zero_batch() {
        let err = run(&parsed(&["simulate", "--demo", "--decoder", "nms@batch=0"])).unwrap_err();
        assert!(err.to_string().contains("batch"), "{err}");
    }

    #[test]
    fn simulate_rejects_batched_spa() {
        let err = run(&parsed(&["simulate", "--demo", "--decoder", "spa@batch=8"])).unwrap_err();
        assert!(err.to_string().contains("spa"), "{err}");
    }

    /// Retired options and spellings fail loudly, naming the accepted
    /// options or the replacement; none runs a different decoder.
    #[test]
    fn removed_options_fail_loudly() {
        for (cmd, want) in [
            (&["simulate", "--demo", "--batch", "8"][..], "--decoder"),
            (&["simulate", "--demo", "--hard"][..], "--decoder"),
            (&["simulate", "--demo", "--frmes", "10"][..], "--frames"),
            (&["simulate", "--demo", "--bogus", "3"][..], "--frames"),
            (
                &["sweep", "--demo", "--decoders", "ms", "--threshold", "2"][..],
                "--decoders",
            ),
            (
                &["simulate", "--demo", "--decoder", "fixed@batch=8"][..],
                "fixed@pack=8",
            ),
            (
                &["sweep", "--demo", "--decoders", "fixed@batch=8"][..],
                "fixed@pack=8",
            ),
            (
                &["sweep", "--demo", "--decoders", "ms", "--adaptive"][..],
                "unknown option --adaptive",
            ),
        ] {
            let err = try_run(cmd).unwrap_err();
            assert!(err.to_string().contains(want), "{cmd:?}: {err}");
        }
    }

    #[test]
    fn non_finite_ebn0_is_an_error() {
        for value in ["nan", "inf", "-inf", "NaN", "1e9", "-4000"] {
            let err = try_run(&["simulate", "--demo", "--ebn0", value]).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("--ebn0") && msg.contains(value), "{msg}");
            let list = format!("3,{value}");
            let err =
                try_run(&["sweep", "--demo", "--decoders", "ms", "--ebn0s", &list]).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("--ebn0s") && msg.contains(value), "{msg}");
        }
    }

    #[test]
    fn oversized_code_spec_is_an_error_not_an_abort() {
        let err = try_run(&["simulate", "--code", "ar4ja:r=1/2,k=4000000000"]).unwrap_err();
        assert!(err.to_string().contains("2^20"), "{err}");
    }

    #[test]
    fn simulate_rejects_unknown_decoder() {
        let err = run(&parsed(&["simulate", "--demo", "--decoder", "magic"])).unwrap_err();
        assert!(err.to_string().contains("decoder"));
    }

    #[test]
    fn simulate_accepts_every_registered_family() {
        for spec in DecoderSpec::all_families() {
            let out = run(&parsed(&[
                "simulate",
                "--demo",
                "--decoder",
                &spec.to_string(),
                "--frames",
                "8",
                "--ebn0",
                "6.0",
                "--iters",
                "5",
            ]))
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(
                out.lines()
                    .nth(1)
                    .unwrap()
                    .starts_with(&format!("demo,awgn,{spec},6.000,8,")),
                "{spec}: {out}"
            );
        }
    }

    #[test]
    fn simulate_decoder_label_keeps_parameters() {
        // nms:1.25 and nms:1.0 must not collapse into the same CSV label.
        let out = run(&parsed(&[
            "simulate",
            "--demo",
            "--decoder",
            "nms:1.25",
            "--frames",
            "8",
            "--iters",
            "5",
        ]))
        .unwrap();
        assert!(out
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("demo,awgn,nms:1.25,"));
    }

    #[test]
    fn sweep_emits_one_csv_across_families_and_points() {
        let out = run(&parsed(&[
            "sweep",
            "--demo",
            "--decoders",
            "nms:1.25,fixed@pack=8,gallager-b@bitslice",
            "--ebn0s",
            "4.0,6.0",
            "--frames",
            "16",
            "--iters",
            "5",
            "--threads",
            "1",
        ]))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + 3 * 2, "one row per (decoder, ebn0)");
        assert!(lines[1].starts_with("demo,awgn,nms:1.25,4.000,16,"));
        assert!(lines[2].starts_with("demo,awgn,nms:1.25,6.000,16,"));
        assert!(lines[3].starts_with("demo,awgn,fixed@pack=8,4.000,16,"));
        assert!(lines[5].starts_with("demo,awgn,gallager-b@bitslice,4.000,16,"));
    }

    #[test]
    fn sweep_first_point_matches_simulate_counts() {
        // Same seed derivation at point index 0: sweep rows reproduce a
        // plain simulate run exactly.
        let shared = [
            "--demo",
            "--frames",
            "32",
            "--iters",
            "8",
            "--seed",
            "5",
            "--threads",
            "1",
        ];
        let mut sim_args = vec!["simulate", "--decoder", "nms:1.25"];
        sim_args.extend(shared);
        let mut sweep_args = vec!["sweep", "--decoders", "nms:1.25"];
        sweep_args.extend(shared);
        assert_eq!(
            run(&parsed(&sim_args)).unwrap(),
            run(&parsed(&sweep_args)).unwrap()
        );
    }

    #[test]
    fn simulate_and_sweep_reject_zero_frames() {
        for cmd in [
            vec!["simulate", "--demo", "--frames", "0"],
            vec!["sweep", "--demo", "--decoders", "spa", "--frames", "0"],
        ] {
            let err = run(&parsed(&cmd)).unwrap_err();
            assert!(err.to_string().contains("frames"), "{err}");
        }
    }

    #[test]
    fn sweep_rejects_legacy_decoder_flags() {
        // Decoder choice is exactly the --decoders list: any other
        // decoder option is unknown to sweep, never silently ignored.
        for extra in [
            vec!["--hard"],
            vec!["--bitslice"],
            vec!["--threshold", "2"],
            vec!["--batch", "8"],
            vec!["--decoder", "nms:1.25"],
        ] {
            let mut cmd = vec!["sweep", "--demo", "--decoders", "gallager-b"];
            cmd.extend(extra.iter().copied());
            let err = try_run(&cmd).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("unknown option {}", extra[0])),
                "{msg}"
            );
            assert!(msg.contains("--decoders"), "{extra:?}: {msg}");
        }
    }

    #[test]
    fn sweep_requires_decoders() {
        let err = run(&parsed(&["sweep", "--demo"])).unwrap_err();
        assert!(err.to_string().contains("--decoders"));
    }

    #[test]
    fn sweep_rejects_bad_spec_with_actionable_message() {
        let err = run(&parsed(&[
            "sweep",
            "--demo",
            "--decoders",
            "nms:1.25,magic",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("known families"), "{err}");
    }

    #[test]
    fn spec_lists_reattach_parameter_continuations() {
        assert_eq!(
            split_spec_list("demo,ar4ja:r=2/3,k=1024,shortened:c2,k=4096"),
            vec!["demo", "ar4ja:r=2/3,k=1024", "shortened:c2,k=4096"]
        );
        assert_eq!(
            split_spec_list("nms:1.25,gallager-b:t=2@bitslice,fixed@pack=8"),
            vec!["nms:1.25", "gallager-b:t=2@bitslice", "fixed@pack=8"]
        );
        assert_eq!(
            split_spec_list("awgn@quant=5,bsc:0.02"),
            vec!["awgn@quant=5", "bsc:0.02"]
        );
    }

    #[test]
    fn sweep_grid_emits_one_row_per_combination() {
        // The acceptance-criterion grid, demo-sized: codes x channels x
        // decoders x points, canonical spec strings in the first three
        // columns.
        let out = run(&parsed(&[
            "sweep",
            "--codes",
            "demo,shortened:demo,k=120",
            "--channels",
            "awgn,bsc:0.02",
            "--decoders",
            "ms,nms:1.25",
            "--ebn0s",
            "3,4",
            "--frames",
            "16",
            "--iters",
            "5",
            "--threads",
            "1",
        ]))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(
            lines.len(),
            1 + 2 * 2 * 2 * 2,
            "2 codes x 2 channels x 2 decoders x 2 points"
        );
        assert!(lines[1].starts_with("demo,awgn,ms,3.000,16,"));
        assert!(lines[2].starts_with("demo,awgn,ms,4.000,16,"));
        assert!(lines[3].starts_with("demo,awgn,nms:1.25,3.000,16,"));
        assert!(lines[5].starts_with("demo,bsc:0.02,ms,3.000,16,"));
        // A comma-containing code spec is RFC 4180-quoted, so the row
        // keeps the header's field count.
        assert!(lines[9].starts_with("\"shortened:demo,k=120\",awgn,ms,3.000,16,"));
        // Every data row's first columns are canonical: re-parsing and
        // re-rendering them is the identity.
        for line in &lines[1..] {
            let (code_str, rest) = if let Some(quoted) = line.strip_prefix('"') {
                let (code_str, rest) = quoted.split_once('"').expect("closing quote");
                (code_str, rest.strip_prefix(',').expect("field separator"))
            } else {
                line.split_once(',').unwrap()
            };
            let fields: Vec<&str> = rest.split(',').collect();
            assert_eq!(fields.len(), 11, "{line}: field count after code");
            assert_eq!(
                CodeSpec::parse(code_str).unwrap().to_string(),
                code_str,
                "{line}"
            );
            assert_eq!(
                ChannelSpec::parse(fields[0]).unwrap().to_string(),
                fields[0],
                "{line}"
            );
            assert_eq!(
                DecoderSpec::parse(fields[1]).unwrap().to_string(),
                fields[1],
                "{line}"
            );
        }
    }

    #[test]
    fn sweep_rejects_codes_with_demo_flag() {
        let err = run(&parsed(&[
            "sweep",
            "--demo",
            "--codes",
            "c2",
            "--decoders",
            "ms",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--demo"), "{err}");
    }

    #[test]
    fn sweep_row_reproduces_simulate_with_matching_flags() {
        let shared = [
            "--frames",
            "24",
            "--iters",
            "6",
            "--seed",
            "5",
            "--threads",
            "1",
        ];
        let mut sim = vec![
            "simulate",
            "--demo",
            "--channel",
            "bsc:0.02",
            "--decoder",
            "nms:1.25",
        ];
        sim.extend(shared);
        let mut sweep = vec![
            "sweep",
            "--demo",
            "--channels",
            "bsc:0.02",
            "--decoders",
            "nms:1.25",
        ];
        sweep.extend(shared);
        assert_eq!(run(&parsed(&sim)).unwrap(), run(&parsed(&sweep)).unwrap());
    }

    #[test]
    fn simulate_channel_column_defaults_to_awgn_and_tracks_spec() {
        let out = run(&parsed(&[
            "simulate",
            "--demo",
            "--channel",
            "rayleigh",
            "--frames",
            "8",
            "--iters",
            "5",
        ]))
        .unwrap();
        assert!(out.lines().nth(1).unwrap().starts_with("demo,rayleigh,"));
    }

    #[test]
    fn simulate_rejects_conflicting_code_selectors() {
        let err = run(&parsed(&["simulate", "--demo", "--code", "c2"])).unwrap_err();
        assert!(err.to_string().contains("--demo"), "{err}");
        let err = try_run(&["simulate", "--codes", "demo"]).unwrap_err();
        assert!(err.to_string().contains("sweep"), "{err}");
        let err = try_run(&["sweep", "--decoders", "ms", "--channel", "bsc:0.02"]).unwrap_err();
        assert!(err.to_string().contains("--channels"), "{err}");
    }

    #[test]
    fn simulate_rejects_unknown_code_and_channel_specs() {
        let err = run(&parsed(&["simulate", "--code", "zeta"])).unwrap_err();
        assert!(err.to_string().contains("known families"), "{err}");
        let err = run(&parsed(&["simulate", "--demo", "--channel", "zeta"])).unwrap_err();
        assert!(err.to_string().contains("known models"), "{err}");
    }

    #[test]
    fn csv_field_quotes_commas_quotes_and_line_breaks() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
        // RFC 4180: an unquoted CR or LF would split one record in two.
        assert_eq!(csv_field("a\nb"), "\"a\nb\"");
        assert_eq!(csv_field("a\r\nb"), "\"a\r\nb\"");
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ldpc-cli-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn adaptive_sweep_stops_on_target() {
        // At -4 dB every demo frame errors, so one 20-frame chunk covers
        // a target of 3.
        let out = run(&parsed(&[
            "sweep",
            "--demo",
            "--decoders",
            "nms:1.25",
            "--ebn0s",
            "-4.0",
            "--frames",
            "200",
            "--chunk-frames",
            "20",
            "--target-errors",
            "3",
            "--iters",
            "6",
            "--threads",
            "1",
        ]))
        .unwrap();
        let row = out.lines().nth(1).unwrap();
        assert!(row.starts_with("demo,awgn,nms:1.25,-4.000,20,"), "{row}");
        assert!(row.ends_with(",target"), "{row}");
    }

    #[test]
    fn adaptive_resume_rerun_is_byte_identical_with_zero_frames_simulated() {
        let cache = temp_path("resume-cache");
        let json = temp_path("resume.json");
        let _ = std::fs::remove_dir_all(&cache);
        let cache_s = cache.to_str().unwrap().to_owned();
        let json_s = json.to_str().unwrap().to_owned();
        let args = [
            "sweep",
            "--demo",
            "--decoders",
            "nms:1.25",
            "--ebn0s",
            "2.0,4.0",
            "--frames",
            "60",
            "--chunk-frames",
            "30",
            "--target-errors",
            "0",
            "--iters",
            "6",
            "--threads",
            "1",
            "--resume",
            "--cache-dir",
            &cache_s,
            "--json",
            &json_s,
        ];
        let cold = run(&parsed(&args)).unwrap();
        let cold_json = std::fs::read_to_string(&json).unwrap();
        assert!(
            cold_json.contains("\"total_frames_simulated\": 120"),
            "{cold_json}"
        );
        let warm = run(&parsed(&args)).unwrap();
        let warm_json = std::fs::read_to_string(&json).unwrap();
        assert_eq!(cold, warm, "warm CSV must be byte-identical");
        assert!(
            warm_json.contains("\"total_frames_simulated\": 0"),
            "{warm_json}"
        );
        assert!(
            warm_json.contains("\"total_frames_from_cache\": 120"),
            "{warm_json}"
        );
        let _ = std::fs::remove_dir_all(&cache);
        let _ = std::fs::remove_file(&json);
    }

    #[test]
    fn adaptive_sweep_rejects_zero_chunk_frames() {
        let err = run(&parsed(&[
            "sweep",
            "--demo",
            "--decoders",
            "nms",
            "--chunk-frames",
            "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("chunk-frames"), "{err}");
    }

    #[test]
    fn plan_reports_a_device_for_the_paper_rates() {
        let out = run(&parsed(&["plan", "--mbps", "70"])).unwrap();
        assert!(out.contains("device"));
        let out = run(&parsed(&["plan", "--mbps", "560"])).unwrap();
        assert!(out.contains("Mbps info"));
    }

    #[test]
    fn plan_requires_mbps() {
        let err = run(&parsed(&["plan"])).unwrap_err();
        assert!(err.to_string().contains("--mbps"));
    }

    #[test]
    fn tables_include_paper_numbers() {
        let out = cmd_tables();
        assert!(out.contains("Table 1"));
        assert!(out.contains("130 Mbps"));
    }
}

//! Adaptive, resumable sweep orchestration — the Monte-Carlo door
//! behind `ldpc-tool simulate` and `ldpc-tool sweep`.
//!
//! Publication-depth waterfall curves (the paper's Fig. 4 at BER 1e-7)
//! need ~1e7 frames per point at high SNR but only thousands at low SNR.
//! Running every grid point to a fixed frame budget wastes work on the
//! easy points and starves the hard ones; running points one after
//! another lets a single slow point serialize the grid. This module
//! fixes both, and makes the whole computation incremental:
//!
//! * **Work stealing across points.** [`run_sweep`] decomposes every
//!   (scenario, Eb/N0) unit into fixed-size *chunks* and schedules
//!   chunks — not points — over the worker pool, so workers drain the
//!   whole grid together and a slow high-SNR point keeps every core
//!   busy instead of idle.
//! * **Adaptive stopping.** Each point runs until it has accumulated
//!   [`SweepConfig::target_frame_errors`] frame errors (standard
//!   Monte-Carlo practice: the relative error of a PER estimate depends
//!   on the *error count*, not the frame count) or until the frame cap,
//!   whichever comes first. Wilson confidence intervals on the merged
//!   counts come from [`PointResult::per_confidence`].
//! * **Content-addressed resume.** Every finished chunk is written to an
//!   on-disk cache keyed by the SHA-256 of its full identity (canonical
//!   scenario string, Eb/N0, seed, frame count, iteration budget — see
//!   [`chunk_key`]). A re-run with a warm cache adopts the cached chunks
//!   and simulates nothing; a run with a *larger* budget or a different
//!   error target re-uses every chunk it can and simulates only the
//!   extension.
//!
//! # Determinism
//!
//! Chunk `c` of a unit seeded `s` runs single-threaded with engine seed
//! `s + c · WORKER_SEED_STRIDE` — exactly the noise stream worker `t = c`
//! of a multithreaded engine run of the same point would draw, and chunk
//! 0 is bit-identical to a plain single-threaded
//! [`run_point_scenario`](crate::run_point_scenario) run of the chunk
//! budget. Every chunk holds [`SweepConfig::chunk_frames`] frames except
//! the last, which holds what is left of the cap, so a point simulates
//! exactly `max_frames` frames unless its target stops it first. A point
//! stops at the shortest chunk *prefix* whose cumulative frame errors
//! reach the target, and its merged [`PointResult`] sums exactly that
//! prefix — so the merged counts are **invariant under the worker-thread
//! count and under cold/warm/resumed execution** (pinned by tests).
//! Speculative chunks beyond the stop prefix are bounded by the
//! in-flight window (one chunk per worker) and are cached for future
//! resumes rather than discarded. Scheduling state per point is a
//! running prefix sum plus the completions inside that window, so a cap
//! of any size costs no memory up front.
//!
//! # Example
//!
//! ```
//! use ldpc_sim::{run_sweep, sweep_grid, Scenario, SweepConfig};
//!
//! let scenario = Scenario::parse("demo / awgn / nms:1.25")?;
//! let units = sweep_grid(&[scenario], &[4.0], 0xC11);
//! let cfg = SweepConfig {
//!     max_frames: 100,
//!     target_frame_errors: 10,
//!     chunk_frames: 50,
//!     ..SweepConfig::default()
//! };
//! let results = run_sweep(&units, &cfg).unwrap();
//! assert_eq!(results.len(), 1);
//! assert!(results[0].point.frames > 0);
//! # Ok::<(), ldpc_sim::ScenarioError>(())
//! ```

use crate::scenario::run_point_scenario_observed;
use crate::{
    MonteCarloConfig, PointResult, Scenario, ScenarioError, Transmission, CURVE_SEED_STRIDE,
    WORKER_SEED_STRIDE,
};
use ldpc_core::CodeHandle;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

// ---------------------------------------------------------------------------
// SHA-256 (the cache's content address; no external crates in this tree)
// ---------------------------------------------------------------------------

#[rustfmt::skip]
const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 digest of `data`, as 64 lowercase hex characters.
///
/// This is the cache's content-address function (FIPS 180-4,
/// hand-rolled because the workspace vendors no hashing crate), exposed
/// so external tooling — the CI resume smoke test, plotting scripts —
/// can locate or verify chunk files without re-deriving the algorithm.
///
/// ```
/// assert_eq!(
///     ldpc_sim::sha256_hex(b"abc"),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256_hex(data: &[u8]) -> String {
    use fmt::Write;
    let mut out = String::with_capacity(64);
    for byte in sha256(data) {
        let _ = write!(out, "{byte:02x}");
    }
    out
}

fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09_e667,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (state, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *state = state.wrapping_add(v);
        }
    }

    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

// ---------------------------------------------------------------------------
// Chunk cache
// ---------------------------------------------------------------------------

/// Raw additive counts of one finished chunk — the unit of caching and
/// merging. A chunk is a single-threaded engine run of a fixed frame
/// budget with no early stopping, so its counts are a pure function of
/// its key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ChunkCounts {
    frames: u64,
    bit_errors: u64,
    frame_errors: u64,
    undetected_frame_errors: u64,
    total_iterations: u64,
    info_bits_per_frame: u64,
}

impl ChunkCounts {
    fn from_point(point: &PointResult) -> Self {
        Self {
            frames: point.frames,
            bit_errors: point.bit_errors,
            frame_errors: point.frame_errors,
            undetected_frame_errors: point.undetected_frame_errors,
            total_iterations: point.total_iterations,
            info_bits_per_frame: point.info_bits_per_frame,
        }
    }

    /// Adds another chunk's counts (the merge of one prefix step).
    fn absorb(&mut self, other: &Self) {
        debug_assert!(
            self.frames == 0 || self.info_bits_per_frame == other.info_bits_per_frame,
            "chunks of one unit must count the same positions"
        );
        self.frames += other.frames;
        self.bit_errors += other.bit_errors;
        self.frame_errors += other.frame_errors;
        self.undetected_frame_errors += other.undetected_frame_errors;
        self.total_iterations += other.total_iterations;
        self.info_bits_per_frame = other.info_bits_per_frame;
    }

    fn render(&self) -> String {
        format!(
            "frames={}\nbit_errors={}\nframe_errors={}\nundetected_frame_errors={}\n\
             total_iterations={}\ninfo_bits_per_frame={}\n",
            self.frames,
            self.bit_errors,
            self.frame_errors,
            self.undetected_frame_errors,
            self.total_iterations,
            self.info_bits_per_frame
        )
    }

    fn parse(text: &str) -> Option<Self> {
        let mut counts = Self::default();
        let mut seen = 0u32;
        for line in text.lines() {
            let (key, value) = line.split_once('=')?;
            let value: u64 = value.parse().ok()?;
            let field = match key {
                "frames" => &mut counts.frames,
                "bit_errors" => &mut counts.bit_errors,
                "frame_errors" => &mut counts.frame_errors,
                "undetected_frame_errors" => &mut counts.undetected_frame_errors,
                "total_iterations" => &mut counts.total_iterations,
                "info_bits_per_frame" => &mut counts.info_bits_per_frame,
                _ => return None,
            };
            *field = value;
            seen += 1;
        }
        (seen == 6).then_some(counts)
    }
}

/// Separator between the embedded key and the counts in a chunk file.
const CHUNK_SEPARATOR: &str = "----\n";

/// The canonical, versioned identity of one chunk — the preimage of its
/// cache address.
///
/// Everything that determines the chunk's counts is in the key: the
/// canonical scenario string (specs render canonically, so `minsum` and
/// `ms` address the same chunks), the operating point (`{:?}` on `f64`
/// is the shortest round-trip form), the chunk's own engine seed, its
/// frame count (a point's last chunk may be partial and is keyed by its
/// real count), and the decoder iteration budget. The error *target*
/// is deliberately absent: chunks always run their full budget with no
/// early stop, so the same cache serves any target — adaptive stopping
/// is applied between chunks at merge time.
///
/// The version tag names the noise stream: `v2` chunks hold counts of the
/// ziggurat AWGN sampler, so a cache filled under `v1` (Box–Muller) is a
/// miss and re-simulates.
///
/// The chunk file stored at `sha256_hex(key).chunk` embeds this key and
/// is rejected on mismatch, so a (astronomically unlikely) hash
/// collision or a torn file degrades to a cache miss, never to wrong
/// counts.
pub fn chunk_key(
    scenario: &Scenario,
    ebn0_db: f64,
    seed: u64,
    frames: u64,
    max_iterations: u32,
) -> String {
    format!(
        "ldpc-sweep-chunk-v2\nscenario={scenario}\nebn0_db={ebn0_db:?}\nseed={seed}\n\
         frames={frames}\nmax_iterations={max_iterations}\ntransmission=all-zero\n"
    )
}

fn chunk_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{}.chunk", sha256_hex(key.as_bytes())))
}

/// Loads a chunk from the cache; any miss, parse failure, key mismatch,
/// or frame-count mismatch is a plain `None` (the chunk is re-simulated
/// and the file overwritten — corruption can cost work, never
/// correctness).
fn load_chunk(dir: &Path, key: &str, expect_frames: u64) -> Option<ChunkCounts> {
    let text = fs::read_to_string(chunk_path(dir, key)).ok()?;
    let (stored_key, body) = text.split_once(CHUNK_SEPARATOR)?;
    if stored_key != key.strip_suffix('\n').unwrap_or(key) {
        return None;
    }
    let counts = ChunkCounts::parse(body)?;
    (counts.frames == expect_frames).then_some(counts)
}

/// Distinguishes concurrent writers' temporary files within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Persists a finished chunk: write-to-temp + rename, so a reader never
/// observes a torn file and concurrent sweeps over the same cache
/// directory last-write-win identical content.
fn store_chunk(dir: &Path, key: &str, counts: &ChunkCounts) -> Result<(), SweepError> {
    let cache_err = |path: &Path, e: std::io::Error| SweepError::Cache {
        path: path.to_path_buf(),
        message: e.to_string(),
    };
    fs::create_dir_all(dir).map_err(|e| cache_err(dir, e))?;
    let path = chunk_path(dir, key);
    let tmp = dir.join(format!(
        "{}.tmp-{}-{}",
        sha256_hex(key.as_bytes()),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let body = format!(
        "{}{CHUNK_SEPARATOR}{}",
        key.strip_suffix('\n').unwrap_or(key),
        counts.render()
    );
    fs::write(&tmp, body).map_err(|e| cache_err(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| cache_err(&path, e))
}

// ---------------------------------------------------------------------------
// Public sweep types
// ---------------------------------------------------------------------------

/// One work unit of a sweep: a scenario at one operating point with its
/// own base seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepUnit {
    /// The experiment (code / channel / decoder).
    pub scenario: Scenario,
    /// Operating point in dB.
    pub ebn0_db: f64,
    /// Base seed of this point; chunk `c` derives its engine seed as
    /// `seed + c · WORKER_SEED_STRIDE`.
    pub seed: u64,
}

impl SweepUnit {
    fn chunk_seed(&self, chunk_index: u64) -> u64 {
        self.seed
            .wrapping_add(WORKER_SEED_STRIDE.wrapping_mul(chunk_index))
    }
}

/// Expands scenarios × Eb/N0 points into [`SweepUnit`]s with the
/// workspace's standard seed derivation: point `i` of every scenario is
/// seeded `base_seed + i · 0x5151_5151` — so an orchestrated sweep at
/// `target_frame_errors: 0` with a whole-budget chunk reproduces a
/// single-threaded [`run_point_scenario`](crate::run_point_scenario) of
/// each point at that seed bit for bit (pinned by tests). Unit order is
/// scenario-major with Eb/N0 innermost, matching `ldpc-tool sweep`'s CSV
/// row order.
pub fn sweep_grid(scenarios: &[Scenario], ebn0_points: &[f64], base_seed: u64) -> Vec<SweepUnit> {
    let mut units = Vec::with_capacity(scenarios.len() * ebn0_points.len());
    for scenario in scenarios {
        for (i, &ebn0_db) in ebn0_points.iter().enumerate() {
            units.push(SweepUnit {
                scenario: scenario.clone(),
                ebn0_db,
                seed: base_seed.wrapping_add(i as u64 * CURVE_SEED_STRIDE),
            });
        }
    }
    units
}

/// Configuration of one orchestrated sweep (applies to every unit).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Frame cap per point, met exactly: the last chunk holds whatever
    /// is left after the whole chunks.
    pub max_frames: u64,
    /// Stop a point once its merged chunk prefix has this many frame
    /// errors (0 = run every point to the cap).
    pub target_frame_errors: u64,
    /// Frames per chunk — the scheduling and caching quantum. Clamped
    /// to `1..=max_frames`. Smaller chunks stop more precisely and
    /// parallelize better; larger chunks amortize per-chunk setup. The
    /// default, 256, is a multiple of every decoder's block size (1, 8,
    /// 64 frames), so no chunk but a point's last splits a packed word.
    pub chunk_frames: u64,
    /// Decoder iteration budget per frame (part of the cache key).
    pub max_iterations: u32,
    /// Worker threads (0 = available parallelism). Merged counts do not
    /// depend on this; only wall time and speculative overshoot do.
    pub threads: usize,
    /// Chunk cache directory (`None` disables caching and resume).
    pub cache_dir: Option<PathBuf>,
    /// Optional live gauge: incremented by every frame the sweep
    /// accounts for — simulated frames at claim time, cached frames at
    /// adoption time — for progress reporting from another thread.
    pub progress_frames: Option<Arc<AtomicU64>>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            max_frames: 10_000,
            target_frame_errors: 100,
            chunk_frames: 256,
            max_iterations: 18,
            threads: 0,
            cache_dir: None,
            progress_frames: None,
        }
    }
}

/// The outcome of one [`SweepUnit`]: merged statistics plus the
/// accounting that makes resume auditable.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepUnitResult {
    /// The experiment this point belongs to.
    pub scenario: Scenario,
    /// Operating point in dB.
    pub ebn0_db: f64,
    /// Merged counts of the stop prefix — invariant under thread count
    /// and cold/warm/resumed execution.
    pub point: PointResult,
    /// Frames actually simulated by this run (0 on a fully warm cache).
    pub frames_simulated: u64,
    /// Frames adopted from the cache instead of simulated.
    pub frames_from_cache: u64,
    /// Chunks merged into `point` (the stop prefix length).
    pub chunks_merged: u64,
    /// `true` if the point stopped on reaching the frame-error target,
    /// `false` if it exhausted the frame cap.
    pub hit_target: bool,
}

/// Error produced by [`run_sweep`].
#[derive(Debug)]
pub enum SweepError {
    /// A unit's code spec failed to build.
    Code(ScenarioError),
    /// The chunk cache could not be written.
    Cache {
        /// The file or directory the operation failed on.
        path: PathBuf,
        /// The underlying I/O error.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Code(e) => write!(f, "building a sweep unit's code: {e}"),
            Self::Cache { path, message } => {
                write!(f, "writing sweep cache entry {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for SweepError {}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/// Stop decision of one point: how many prefix chunks are merged, and
/// whether the error target (rather than the cap) ended it.
#[derive(Debug, Clone, Copy)]
struct Stop {
    chunks: u64,
    hit_target: bool,
}

/// Per-point scheduling state. Chunks complete in any order; the merge
/// prefix only ever advances over contiguous completed chunks from 0,
/// and the stop rule is evaluated on that prefix alone — which is what
/// makes the merged result independent of scheduling.
///
/// The state is a running sum of the prefix plus the completions that
/// arrived ahead of it. Chunks are only handed out inside the
/// speculation window (`prefix_len + threads`), so at most `threads`
/// completions ever wait here, whatever the chunk count.
struct PointState {
    /// Chunks in the point's frame cap (the last may be partial).
    n_chunks: u64,
    /// Next chunk index not yet handed to a worker.
    next: u64,
    /// Completed chunks past the merge prefix, by index.
    ahead: BTreeMap<u64, ChunkCounts>,
    /// Contiguous completed chunks from 0 summed into `merged`.
    prefix_len: u64,
    merged: ChunkCounts,
    stop: Option<Stop>,
    frames_simulated: u64,
    frames_from_cache: u64,
}

impl PointState {
    fn new(n_chunks: u64) -> Self {
        Self {
            n_chunks,
            next: 0,
            ahead: BTreeMap::new(),
            prefix_len: 0,
            merged: ChunkCounts::default(),
            stop: None,
            frames_simulated: 0,
            frames_from_cache: 0,
        }
    }

    /// Records chunk `c`, advances the merge prefix over newly
    /// contiguous chunks and applies the stop rule. A chunk that lands
    /// after the stop is speculation: it is not merged.
    fn record(&mut self, c: u64, counts: ChunkCounts, target_frame_errors: u64) {
        if self.stop.is_some() {
            return;
        }
        self.ahead.insert(c, counts);
        while let Some(counts) = self.ahead.remove(&self.prefix_len) {
            self.merged.absorb(&counts);
            self.prefix_len += 1;
            if target_frame_errors > 0 && self.merged.frame_errors >= target_frame_errors {
                self.stop = Some(Stop {
                    chunks: self.prefix_len,
                    hit_target: true,
                });
            } else if self.prefix_len == self.n_chunks {
                self.stop = Some(Stop {
                    chunks: self.n_chunks,
                    hit_target: false,
                });
            }
            if self.stop.is_some() {
                self.ahead.clear();
                break;
            }
        }
    }
}

struct Sched {
    points: Vec<PointState>,
    /// Points whose stop rule has not fired yet.
    unresolved: usize,
    error: Option<SweepError>,
}

impl Sched {
    /// Hands out the lowest unscheduled chunk of the first point that
    /// can still make progress. The per-point speculation window
    /// (`prefix_len + window`) bounds wasted work past an undecided
    /// stop rule to one chunk per worker; when a point's window is
    /// full, workers flow to the next point — work stealing across the
    /// grid.
    fn take_job(&mut self, window: u64) -> Option<(usize, u64)> {
        for (p, point) in self.points.iter_mut().enumerate() {
            if point.stop.is_none()
                && point.next < point.n_chunks
                && point.next < point.prefix_len.saturating_add(window)
            {
                let c = point.next;
                point.next += 1;
                return Some((p, c));
            }
        }
        None
    }
}

/// Builds (or reuses) the code handle of a scenario. Handles are shared
/// across every unit of the sweep by canonical code spec, so each code
/// is constructed exactly once — and never at all when the cache fully
/// resolves every unit that needs it.
fn code_handle(
    handles: &Mutex<HashMap<String, Arc<dyn CodeHandle>>>,
    scenario: &Scenario,
) -> Result<Arc<dyn CodeHandle>, SweepError> {
    let key = scenario.code.to_string();
    let mut map = handles.lock().unwrap();
    if let Some(handle) = map.get(&key) {
        return Ok(Arc::clone(handle));
    }
    let handle = scenario.build_code().map_err(SweepError::Code)?;
    map.insert(key, Arc::clone(&handle));
    Ok(handle)
}

/// Runs a sweep: every unit chunked, scheduled across the worker pool,
/// stopped adaptively, and (with a cache directory) resumable.
///
/// DESIGN.md §7 records the scheduling and determinism contract.
/// Returns one [`SweepUnitResult`] per unit, in unit order.
///
/// # Errors
///
/// [`SweepError::Code`] if a unit's code spec cannot be built;
/// [`SweepError::Cache`] if a finished chunk cannot be persisted.
/// Cache *read* problems are never errors — unreadable or corrupt
/// entries are re-simulated.
///
/// # Panics
///
/// Panics if `cfg.max_frames == 0`.
pub fn run_sweep(
    units: &[SweepUnit],
    cfg: &SweepConfig,
) -> Result<Vec<SweepUnitResult>, SweepError> {
    assert!(cfg.max_frames > 0, "max_frames must be positive");
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        cfg.threads
    };
    let chunk = cfg.chunk_frames.clamp(1, cfg.max_frames);
    let n_chunks = cfg.max_frames.div_ceil(chunk);
    // Whole chunks, then whatever is left of the cap.
    let chunk_len = |c: u64| chunk.min(cfg.max_frames - c * chunk);
    let key_of = |unit: &SweepUnit, c: u64| {
        chunk_key(
            &unit.scenario,
            unit.ebn0_db,
            unit.chunk_seed(c),
            chunk_len(c),
            cfg.max_iterations,
        )
    };
    let progress = cfg.progress_frames.as_deref();

    // Phase 1: adopt each unit's contiguous cached prefix serially. A
    // fully warm cache resolves every point here — no worker threads,
    // no code construction, no simulation.
    let mut points = Vec::with_capacity(units.len());
    for unit in units {
        let mut state = PointState::new(n_chunks);
        if let Some(dir) = &cfg.cache_dir {
            while state.stop.is_none() {
                let c = state.prefix_len;
                let Some(counts) = load_chunk(dir, &key_of(unit, c), chunk_len(c)) else {
                    break;
                };
                state.frames_from_cache += counts.frames;
                if let Some(progress) = progress {
                    progress.fetch_add(counts.frames, Ordering::Relaxed);
                }
                state.record(c, counts, cfg.target_frame_errors);
            }
            state.next = state.prefix_len;
        }
        points.push(state);
    }

    let unresolved = points.iter().filter(|p| p.stop.is_none()).count();
    let sched = Mutex::new(Sched {
        points,
        unresolved,
        error: None,
    });
    let work_cv = Condvar::new();
    let handles: Mutex<HashMap<String, Arc<dyn CodeHandle>>> = Mutex::new(HashMap::new());

    // Phase 2: the worker pool drains chunks until every point's stop
    // rule has fired (or an error aborts the sweep).
    if unresolved > 0 {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let (p, c) = {
                        let mut st = sched.lock().unwrap();
                        loop {
                            if st.error.is_some() || st.unresolved == 0 {
                                return;
                            }
                            if let Some(job) = st.take_job(threads as u64) {
                                break job;
                            }
                            st = work_cv.wait(st).unwrap();
                        }
                    };
                    let unit = &units[p];
                    let key = key_of(unit, c);
                    let frames = chunk_len(c);
                    let mut from_cache = false;
                    let outcome = (|| {
                        if let Some(dir) = &cfg.cache_dir {
                            // Beyond-prefix chunks cached by an earlier
                            // speculative run are found here, after the
                            // serial preload stopped at its first miss.
                            if let Some(counts) = load_chunk(dir, &key, frames) {
                                from_cache = true;
                                if let Some(progress) = progress {
                                    progress.fetch_add(counts.frames, Ordering::Relaxed);
                                }
                                return Ok(counts);
                            }
                        }
                        let handle = code_handle(&handles, &unit.scenario)?;
                        let mc = MonteCarloConfig {
                            ebn0_db: unit.ebn0_db,
                            max_frames: frames,
                            target_frame_errors: 0,
                            max_iterations: cfg.max_iterations,
                            seed: unit.chunk_seed(c),
                            threads: 1,
                            transmission: Transmission::AllZero,
                        };
                        let point =
                            run_point_scenario_observed(&handle, &unit.scenario, &mc, progress);
                        let counts = ChunkCounts::from_point(&point);
                        if let Some(dir) = &cfg.cache_dir {
                            store_chunk(dir, &key, &counts)?;
                        }
                        Ok(counts)
                    })();
                    let mut st = sched.lock().unwrap();
                    match outcome {
                        Ok(counts) => {
                            let point = &mut st.points[p];
                            if from_cache {
                                point.frames_from_cache += counts.frames;
                            } else {
                                point.frames_simulated += counts.frames;
                            }
                            let was_resolved = point.stop.is_some();
                            point.record(c, counts, cfg.target_frame_errors);
                            if !was_resolved && point.stop.is_some() {
                                st.unresolved -= 1;
                            }
                        }
                        Err(e) => {
                            st.error.get_or_insert(e);
                        }
                    }
                    work_cv.notify_all();
                });
            }
        });
    }

    let sched = sched.into_inner().unwrap();
    if let Some(e) = sched.error {
        return Err(e);
    }

    Ok(units
        .iter()
        .zip(sched.points)
        .map(|(unit, state)| {
            let stop = state.stop.expect("every point resolved");
            let merged = state.merged;
            SweepUnitResult {
                scenario: unit.scenario.clone(),
                ebn0_db: unit.ebn0_db,
                point: PointResult {
                    ebn0_db: unit.ebn0_db,
                    frames: merged.frames,
                    bit_errors: merged.bit_errors,
                    frame_errors: merged.frame_errors,
                    undetected_frame_errors: merged.undetected_frame_errors,
                    total_iterations: merged.total_iterations,
                    info_bits_per_frame: merged.info_bits_per_frame,
                },
                frames_simulated: state.frames_simulated,
                frames_from_cache: state.frames_from_cache,
                chunks_merged: stop.chunks,
                hit_target: stop.hit_target,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_point_scenario;

    fn sc(s: &str) -> Scenario {
        Scenario::parse(s).unwrap()
    }

    fn quick_sweep_cfg() -> SweepConfig {
        SweepConfig {
            max_frames: 200,
            target_frame_errors: 0,
            chunk_frames: 200,
            max_iterations: 20,
            threads: 1,
            cache_dir: None,
            progress_frames: None,
        }
    }

    fn point_cfg(ebn0_db: f64, seed: u64, max_frames: u64) -> MonteCarloConfig {
        MonteCarloConfig {
            ebn0_db,
            max_frames,
            target_frame_errors: 0,
            max_iterations: 20,
            seed,
            threads: 1,
            transmission: Transmission::AllZero,
        }
    }

    fn temp_cache(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ldpc-sweep-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Two-block message (FIPS 180-4 example B.2).
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn chunk_cache_roundtrips_and_rejects_corruption() {
        let dir = temp_cache("roundtrip");
        let key = chunk_key(&sc("demo / awgn / nms:1.25"), 4.0, 42, 100, 20);
        let counts = ChunkCounts {
            frames: 100,
            bit_errors: 7,
            frame_errors: 3,
            undetected_frame_errors: 1,
            total_iterations: 250,
            info_bits_per_frame: 128,
        };
        assert_eq!(load_chunk(&dir, &key, 100), None, "cold cache is a miss");
        store_chunk(&dir, &key, &counts).unwrap();
        assert_eq!(load_chunk(&dir, &key, 100), Some(counts));
        // A frame-budget mismatch is a miss even with matching content.
        assert_eq!(load_chunk(&dir, &key, 200), None);
        // Truncation and key tampering degrade to misses, not bad counts.
        let path = chunk_path(&dir, &key);
        fs::write(&path, "garbage").unwrap();
        assert_eq!(load_chunk(&dir, &key, 100), None);
        let other = chunk_key(&sc("demo / awgn / nms:1.25"), 4.0, 43, 100, 20);
        let body = format!(
            "{}{CHUNK_SEPARATOR}{}",
            other.strip_suffix('\n').unwrap(),
            counts.render()
        );
        fs::write(&path, body).unwrap();
        assert_eq!(load_chunk(&dir, &key, 100), None, "embedded key must match");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn whole_budget_chunk_matches_curve_door_exactly() {
        // target 0 + one chunk per point ≡ a single-threaded engine run
        // of each point at its curve seed: bit-identical counts.
        let scenario = sc("demo / awgn / nms:1.25");
        let ebn0s = [2.0, 4.0];
        let units = sweep_grid(std::slice::from_ref(&scenario), &ebn0s, 99);
        assert_eq!(units[1].seed, 99u64.wrapping_add(0x5151_5151));
        let results = run_sweep(&units, &quick_sweep_cfg()).unwrap();
        assert_eq!(results.len(), 2);
        for (i, (r, &ebn0_db)) in results.iter().zip(&ebn0s).enumerate() {
            let seed = 99u64.wrapping_add(i as u64 * 0x5151_5151);
            let expected = run_point_scenario(&scenario, &point_cfg(ebn0_db, seed, 200)).unwrap();
            assert_eq!(r.point, expected);
            assert_eq!(r.frames_simulated, 200);
            assert_eq!(r.frames_from_cache, 0);
            assert_eq!(r.chunks_merged, 1);
            assert!(!r.hit_target);
        }
    }

    #[test]
    fn chunked_merge_is_the_exact_sum_of_chunk_runs() {
        let scenario = sc("demo / awgn / fixed");
        let units = sweep_grid(std::slice::from_ref(&scenario), &[3.0], 7);
        let cfg = SweepConfig {
            max_frames: 150,
            chunk_frames: 50,
            ..quick_sweep_cfg()
        };
        let result = &run_sweep(&units, &cfg).unwrap()[0];
        let mut expected = (0u64, 0u64, 0u64, 0u64);
        for c in 0..3 {
            let seed = 7u64.wrapping_add(WORKER_SEED_STRIDE.wrapping_mul(c));
            let p = run_point_scenario(&scenario, &point_cfg(3.0, seed, 50)).unwrap();
            expected.0 += p.frames;
            expected.1 += p.bit_errors;
            expected.2 += p.frame_errors;
            expected.3 += p.total_iterations;
        }
        assert_eq!(result.point.frames, expected.0);
        assert_eq!(result.point.bit_errors, expected.1);
        assert_eq!(result.point.frame_errors, expected.2);
        assert_eq!(result.point.total_iterations, expected.3);
        assert_eq!(result.chunks_merged, 3);
    }

    #[test]
    fn adaptive_stop_halts_at_the_first_satisfying_prefix() {
        // At -4 dB essentially every frame errors: the first chunk
        // already satisfies the target, so exactly one chunk is merged.
        let units = sweep_grid(&[sc("demo / awgn / nms:1.25")], &[-4.0], 3);
        let cfg = SweepConfig {
            max_frames: 400,
            target_frame_errors: 5,
            chunk_frames: 40,
            ..quick_sweep_cfg()
        };
        let result = &run_sweep(&units, &cfg).unwrap()[0];
        assert!(result.hit_target);
        assert_eq!(result.point.frames, 40);
        assert!(result.point.frame_errors >= 5);
        assert_eq!(result.chunks_merged, 1);
    }

    #[test]
    fn cap_is_exact_with_a_partial_last_chunk() {
        // 250 frames in 100-frame chunks: 100 + 100 + 50, the last chunk
        // an engine run of its real length under its own key.
        let dir = temp_cache("partial");
        let scenario = sc("demo / awgn / fixed");
        let units = sweep_grid(std::slice::from_ref(&scenario), &[2.0], 1);
        let cfg = SweepConfig {
            max_frames: 250,
            chunk_frames: 100,
            cache_dir: Some(dir.clone()),
            ..quick_sweep_cfg()
        };
        let result = &run_sweep(&units, &cfg).unwrap()[0];
        assert_eq!(result.point.frames, 250);
        assert_eq!(result.frames_simulated, 250);
        assert_eq!(result.chunks_merged, 3);
        assert!(!result.hit_target);
        let mut expected = ChunkCounts::default();
        for (c, frames) in [(0u64, 100u64), (1, 100), (2, 50)] {
            let seed = units[0].chunk_seed(c);
            let p = run_point_scenario(&scenario, &point_cfg(2.0, seed, frames)).unwrap();
            expected.absorb(&ChunkCounts::from_point(&p));
            let key = chunk_key(&scenario, 2.0, seed, frames, 20);
            assert_eq!(
                load_chunk(&dir, &key, frames),
                Some(ChunkCounts::from_point(&p))
            );
        }
        assert_eq!(ChunkCounts::from_point(&result.point), expected);
        // Raising the cap re-simulates the partial chunk at full length
        // and reuses the two whole ones.
        let bigger = SweepConfig {
            max_frames: 300,
            ..cfg
        };
        let grown = &run_sweep(&units, &bigger).unwrap()[0];
        assert_eq!(grown.point.frames, 300);
        assert_eq!(grown.frames_from_cache, 200);
        assert_eq!(grown.frames_simulated, 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunks_cached_under_the_v1_key_are_misses() {
        let dir = temp_cache("v1");
        let scenario = sc("demo / awgn / fixed");
        let units = sweep_grid(std::slice::from_ref(&scenario), &[2.0], 1);
        let cfg = SweepConfig {
            max_frames: 100,
            chunk_frames: 100,
            cache_dir: Some(dir.clone()),
            ..quick_sweep_cfg()
        };
        let seed = units[0].chunk_seed(0);
        let key = chunk_key(&scenario, 2.0, seed, 100, 20);
        assert!(key.starts_with("ldpc-sweep-chunk-v2\n"));
        // A chunk of the old noise stream, stored under its v1 key.
        let v1_key = key.replacen("ldpc-sweep-chunk-v2", "ldpc-sweep-chunk-v1", 1);
        let stale = ChunkCounts {
            frames: 100,
            frame_errors: 100,
            bit_errors: 12_345,
            info_bits_per_frame: 999,
            ..ChunkCounts::default()
        };
        store_chunk(&dir, &v1_key, &stale).unwrap();
        assert_eq!(load_chunk(&dir, &v1_key, 100), Some(stale));
        let result = &run_sweep(&units, &cfg).unwrap()[0];
        assert_eq!(result.frames_from_cache, 0);
        assert_eq!(result.frames_simulated, 100);
        let fresh = run_point_scenario(&scenario, &point_cfg(2.0, seed, 100)).unwrap();
        assert_eq!(
            ChunkCounts::from_point(&result.point),
            ChunkCounts::from_point(&fresh)
        );
        assert_eq!(
            load_chunk(&dir, &key, 100),
            Some(ChunkCounts::from_point(&fresh))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn huge_caps_cost_no_memory_up_front() {
        // A slot per chunk would need terabytes at 1e11 one-frame chunks
        // and overflow at u64::MAX; the target stops both after a
        // handful of chunks at -4 dB.
        let units = sweep_grid(&[sc("demo / awgn / nms:1.25")], &[-4.0], 3);
        for max_frames in [100_000_000_000, u64::MAX] {
            let cfg = SweepConfig {
                max_frames,
                target_frame_errors: 1,
                chunk_frames: 1,
                threads: 4,
                ..quick_sweep_cfg()
            };
            let result = &run_sweep(&units, &cfg).unwrap()[0];
            assert!(result.hit_target);
            assert_eq!(result.point.frame_errors, 1);
            assert_eq!(result.point.frames, result.chunks_merged);
        }
    }

    #[test]
    fn out_of_order_completions_wait_only_inside_the_window() {
        let counts = ChunkCounts {
            frames: 10,
            frame_errors: 1,
            info_bits_per_frame: 8,
            ..ChunkCounts::default()
        };
        let mut state = PointState::new(u64::MAX);
        // Chunks 1..4 finish before chunk 0: they wait, nothing merges.
        for c in 1..4 {
            state.record(c, counts, 100);
        }
        assert_eq!((state.prefix_len, state.ahead.len()), (0, 3));
        // Chunk 0 releases the whole run of four.
        state.record(0, counts, 100);
        assert_eq!((state.prefix_len, state.ahead.len()), (4, 0));
        assert_eq!(state.merged.frames, 40);
        // The target fires on chunk 4's errors; later arrivals are
        // speculation and never merge.
        state.record(4, counts, 5);
        assert!(state.stop.is_some_and(|s| s.hit_target && s.chunks == 5));
        state.record(5, counts, 5);
        assert_eq!((state.merged.frames, state.ahead.len()), (50, 0));
    }

    #[test]
    fn warm_cache_rerun_simulates_nothing() {
        let dir = temp_cache("warm");
        let units = sweep_grid(&[sc("demo / awgn / nms:1.25")], &[2.0, 4.0], 5);
        let progress = Arc::new(AtomicU64::new(0));
        let cfg = SweepConfig {
            max_frames: 120,
            chunk_frames: 60,
            cache_dir: Some(dir.clone()),
            progress_frames: Some(Arc::clone(&progress)),
            ..quick_sweep_cfg()
        };
        let cold = run_sweep(&units, &cfg).unwrap();
        assert!(cold.iter().all(|r| r.frames_simulated == 120));
        assert_eq!(progress.load(Ordering::Relaxed), 240);
        let warm = run_sweep(&units, &cfg).unwrap();
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.point, w.point);
            assert_eq!(w.frames_simulated, 0);
            assert_eq!(w.frames_from_cache, 120);
        }
        assert_eq!(progress.load(Ordering::Relaxed), 480);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_extends_budget_and_matches_cold_run_bit_for_bit() {
        let dir = temp_cache("resume");
        let units = sweep_grid(&[sc("demo / awgn / nms:1.25")], &[1.0], 21);
        let small = SweepConfig {
            max_frames: 100,
            chunk_frames: 50,
            cache_dir: Some(dir.clone()),
            ..quick_sweep_cfg()
        };
        let first = &run_sweep(&units, &small).unwrap()[0];
        assert_eq!(first.frames_simulated, 100);
        // Double the budget: only the extension is simulated…
        let big = SweepConfig {
            max_frames: 200,
            ..small.clone()
        };
        let resumed = &run_sweep(&units, &big).unwrap()[0];
        assert_eq!(resumed.frames_from_cache, 100);
        assert_eq!(resumed.frames_simulated, 100);
        // …and the merged counts equal a cold cacheless run of the
        // combined budget.
        let cold_cfg = SweepConfig {
            cache_dir: None,
            ..big
        };
        let cold = &run_sweep(&units, &cold_cfg).unwrap()[0];
        assert_eq!(resumed.point, cold.point);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_chunks_serve_any_error_target() {
        // The target is not part of the chunk key: chunks cached by a
        // capped run are reused verbatim by an adaptive run.
        let dir = temp_cache("targets");
        let units = sweep_grid(&[sc("demo / awgn / nms:1.25")], &[-2.0], 13);
        let full = SweepConfig {
            max_frames: 120,
            chunk_frames: 40,
            cache_dir: Some(dir.clone()),
            ..quick_sweep_cfg()
        };
        run_sweep(&units, &full).unwrap();
        let adaptive = SweepConfig {
            target_frame_errors: 3,
            ..full
        };
        let result = &run_sweep(&units, &adaptive).unwrap()[0];
        assert_eq!(result.frames_simulated, 0, "warm chunks cover the target");
        assert!(result.hit_target);
        assert_eq!(result.point.frames, 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_point_is_thread_count_invariant() {
        // The prefix stop rule makes the merged counts a pure function
        // of the unit — speculative chunks never leak into the result.
        let units = sweep_grid(
            &[sc("demo / awgn / nms:1.25"), sc("demo / bsc:0.04 / fixed")],
            &[0.0, 2.0],
            17,
        );
        let cfg = SweepConfig {
            max_frames: 200,
            target_frame_errors: 3,
            chunk_frames: 40,
            ..quick_sweep_cfg()
        };
        let serial = run_sweep(&units, &cfg).unwrap();
        let parallel = run_sweep(&units, &SweepConfig { threads: 4, ..cfg }).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.hit_target, b.hit_target);
            assert_eq!(a.chunks_merged, b.chunks_merged);
        }
    }

    #[test]
    fn bad_code_spec_surfaces_as_an_error() {
        let units = sweep_grid(&[sc("shortened:demo,k=9999 / awgn / nms")], &[4.0], 1);
        let err = run_sweep(&units, &quick_sweep_cfg()).unwrap_err();
        assert!(err.to_string().contains("code"), "{err}");
    }
}

//! Lock-free counters behind the `STATS` request.
//!
//! Everything here is plain atomics so the hot path (enqueue, batch
//! dispatch, reply) never takes an extra lock for accounting. The
//! `STATS` renderer reads a consistent-enough snapshot: counters are
//! monotone, so a reader can at worst see a frame enqueued but not yet
//! decoded.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Widest word any decoder family packs (64-lane `@bitslice`); sizes
/// the batch-fill histogram.
pub const MAX_WORD_LANES: usize = 64;

/// Upper bounds (inclusive, microseconds) of the request-latency
/// histogram buckets; the last bucket is unbounded.
const LATENCY_BOUNDS_US: [u64; 17] = [
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    u64::MAX,
];

/// A log-bucketed latency histogram over [`LATENCY_BOUNDS_US`]: one
/// relaxed atomic add per sample.
#[derive(Debug)]
struct Histogram([AtomicU64; LATENCY_BOUNDS_US.len()]);

impl Histogram {
    fn new() -> Self {
        Self(std::array::from_fn(|_| AtomicU64::new(0)))
    }

    fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = LATENCY_BOUNDS_US.partition_point(|&b| b < us);
        self.0[idx.min(LATENCY_BOUNDS_US.len() - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Quantile in microseconds, reported as the upper bound of the
    /// bucket containing it (0 when nothing is recorded; the unbounded
    /// top bucket reports its lower bound).
    fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.0.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if LATENCY_BOUNDS_US[i] == u64::MAX {
                    LATENCY_BOUNDS_US[i - 1]
                } else {
                    LATENCY_BOUNDS_US[i]
                };
            }
        }
        LATENCY_BOUNDS_US[LATENCY_BOUNDS_US.len() - 2]
    }
}

/// Shared serving counters: request totals, batch-fill histogram, and
/// log-bucketed histograms of each frame's enqueue-to-reply latency and
/// of its two parts, queue wait (enqueue until a worker claims the
/// frame's word) and decode (claim until the word's decode returns).
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    requests_total: AtomicU64,
    bad_requests_total: AtomicU64,
    frames_enqueued_total: AtomicU64,
    frames_decoded_total: AtomicU64,
    frames_converged_total: AtomicU64,
    frames_rejected_total: AtomicU64,
    connections_refused_total: AtomicU64,
    batches_total: AtomicU64,
    batch_fill: [AtomicU64; MAX_WORD_LANES],
    latency: Histogram,
    queue_wait: Histogram,
    decode: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh counters with the uptime clock starting now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            bad_requests_total: AtomicU64::new(0),
            frames_enqueued_total: AtomicU64::new(0),
            frames_decoded_total: AtomicU64::new(0),
            frames_converged_total: AtomicU64::new(0),
            frames_rejected_total: AtomicU64::new(0),
            connections_refused_total: AtomicU64::new(0),
            batches_total: AtomicU64::new(0),
            batch_fill: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: Histogram::new(),
            queue_wait: Histogram::new(),
            decode: Histogram::new(),
        }
    }

    /// Counts one request line of any kind.
    pub fn record_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request that produced an `ERR` response.
    pub fn record_bad_request(&self) {
        self.bad_requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one frame accepted into a queue.
    pub fn record_enqueued(&self) {
        self.frames_enqueued_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one frame refused with `BUSY`.
    pub fn record_rejected(&self) {
        self.frames_rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection refused at the connection cap.
    pub fn record_connection_refused(&self) {
        self.connections_refused_total
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one decoded word carrying `fill` frames (1..=`word`
    /// lanes).
    pub fn record_batch(&self, fill: usize) {
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        let idx = fill.clamp(1, MAX_WORD_LANES) - 1;
        self.batch_fill[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one decoded frame: `queue_wait` from enqueue until a
    /// worker claimed its word, `decode` from the claim until the word's
    /// decode returned; its latency is their sum.
    pub fn record_frame_done(&self, queue_wait: Duration, decode: Duration, converged: bool) {
        self.frames_decoded_total.fetch_add(1, Ordering::Relaxed);
        if converged {
            self.frames_converged_total.fetch_add(1, Ordering::Relaxed);
        }
        self.queue_wait.record(queue_wait);
        self.decode.record(decode);
        self.latency.record(queue_wait + decode);
    }

    /// Total frames decoded so far.
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded_total.load(Ordering::Relaxed)
    }

    /// Total frames refused with `BUSY` so far.
    pub fn frames_rejected(&self) -> u64 {
        self.frames_rejected_total.load(Ordering::Relaxed)
    }

    /// Total request lines seen so far.
    pub fn requests(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Total words decoded so far.
    pub fn batches(&self) -> u64 {
        self.batches_total.load(Ordering::Relaxed)
    }

    /// How many decoded words carried exactly `lanes` frames.
    pub fn batch_fill_count(&self, lanes: usize) -> u64 {
        assert!((1..=MAX_WORD_LANES).contains(&lanes));
        self.batch_fill[lanes - 1].load(Ordering::Relaxed)
    }

    /// Enqueue-to-reply latency quantile in microseconds, reported as
    /// the upper bound of the histogram bucket containing it (0 when
    /// nothing is recorded; the unbounded top bucket reports its lower
    /// bound).
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        self.latency.quantile_us(q)
    }

    /// Decode-time quantile in microseconds, bucketed like
    /// [`latency_quantile_us`](Self::latency_quantile_us).
    pub(crate) fn decode_quantile_us(&self, q: f64) -> u64 {
        self.decode.quantile_us(q)
    }

    /// Seconds since the server started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Renders the plaintext `STATS` body. `queue_depths` is the
    /// current per-key queue snapshot `(key, depth, word_lanes)`.
    pub fn render(&self, queue_depths: &[(String, usize, usize)]) -> String {
        self.render_at(self.uptime().as_secs_f64(), queue_depths)
    }

    /// [`render`](Self::render) at a given uptime in seconds.
    fn render_at(&self, uptime: f64, queue_depths: &[(String, usize, usize)]) -> String {
        let decoded = self.frames_decoded();
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("ldpc_served_uptime_seconds {uptime:.3}"));
        line(format!("ldpc_served_requests_total {}", self.requests()));
        line(format!(
            "ldpc_served_bad_requests_total {}",
            self.bad_requests_total.load(Ordering::Relaxed)
        ));
        line(format!(
            "ldpc_served_frames_enqueued_total {}",
            self.frames_enqueued_total.load(Ordering::Relaxed)
        ));
        line(format!("ldpc_served_frames_decoded_total {decoded}"));
        line(format!(
            "ldpc_served_frames_converged_total {}",
            self.frames_converged_total.load(Ordering::Relaxed)
        ));
        line(format!(
            "ldpc_served_frames_rejected_total {}",
            self.frames_rejected_total.load(Ordering::Relaxed)
        ));
        line(format!(
            "ldpc_served_connections_refused_total {}",
            self.connections_refused_total.load(Ordering::Relaxed)
        ));
        line(format!("ldpc_served_batches_total {}", self.batches()));
        line(format!(
            "ldpc_served_frames_per_sec {:.1}",
            if uptime > 0.0 {
                decoded as f64 / uptime
            } else {
                0.0
            }
        ));
        for lanes in 1..=MAX_WORD_LANES {
            let count = self.batch_fill_count(lanes);
            if count > 0 {
                line(format!(
                    "ldpc_served_batch_fill{{lanes=\"{lanes}\"}} {count}"
                ));
            }
        }
        for (name, histogram) in [
            ("latency", &self.latency),
            ("queue_wait", &self.queue_wait),
            ("decode", &self.decode),
        ] {
            for (label, q) in [("0.5", 0.5), ("0.99", 0.99)] {
                line(format!(
                    "ldpc_served_{name}_us{{quantile=\"{label}\"}} {}",
                    histogram.quantile_us(q)
                ));
            }
        }
        for (key, depth, word) in queue_depths {
            line(format!(
                "ldpc_served_queue_depth{{key=\"{key}\",word=\"{word}\"}} {depth}"
            ));
        }
        // Drop the final newline: the protocol's STATS renderer owns
        // line framing.
        out.pop();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let m = Metrics::new();
        assert_eq!(m.latency_quantile_us(0.5), 0);
        for _ in 0..90 {
            m.record_frame_done(Duration::from_micros(300), Duration::from_micros(500), true);
        }
        for _ in 0..10 {
            m.record_frame_done(
                Duration::from_micros(39_000),
                Duration::from_micros(1_000),
                false,
            );
        }
        assert_eq!(m.latency_quantile_us(0.5), 1_000);
        assert_eq!(m.latency_quantile_us(0.99), 50_000);
        assert_eq!(m.queue_wait.quantile_us(0.5), 500);
        assert_eq!(m.queue_wait.quantile_us(0.99), 50_000);
        assert_eq!(m.decode_quantile_us(0.5), 500);
        assert_eq!(m.decode_quantile_us(0.99), 1_000);
        assert_eq!(m.frames_decoded(), 100);
    }

    #[test]
    fn render_exposes_fill_histogram_and_queues() {
        let m = Metrics::new();
        m.record_request();
        m.record_enqueued();
        m.record_batch(8);
        m.record_batch(3);
        m.record_frame_done(Duration::from_micros(40), Duration::from_micros(150), true);
        let body = m.render_at(2.0, &[("c2 / fixed@pack=8".into(), 2, 8)]);
        let want = [
            "ldpc_served_uptime_seconds 2.000",
            "ldpc_served_requests_total 1",
            "ldpc_served_bad_requests_total 0",
            "ldpc_served_frames_enqueued_total 1",
            "ldpc_served_frames_decoded_total 1",
            "ldpc_served_frames_converged_total 1",
            "ldpc_served_frames_rejected_total 0",
            "ldpc_served_connections_refused_total 0",
            "ldpc_served_batches_total 2",
            "ldpc_served_frames_per_sec 0.5",
            "ldpc_served_batch_fill{lanes=\"3\"} 1",
            "ldpc_served_batch_fill{lanes=\"8\"} 1",
            "ldpc_served_latency_us{quantile=\"0.5\"} 200",
            "ldpc_served_latency_us{quantile=\"0.99\"} 200",
            "ldpc_served_queue_wait_us{quantile=\"0.5\"} 50",
            "ldpc_served_queue_wait_us{quantile=\"0.99\"} 50",
            "ldpc_served_decode_us{quantile=\"0.5\"} 200",
            "ldpc_served_decode_us{quantile=\"0.99\"} 200",
            "ldpc_served_queue_depth{key=\"c2 / fixed@pack=8\",word=\"8\"} 2",
        ]
        .join("\n");
        assert_eq!(body, want);
    }
}

//! The benchmark's pure pieces: summary statistics, the tail-percentile
//! rule, the decoder cost fit, the open-loop schedule and the metric-name
//! grammar. Everything here is deterministic and unit-tested.

use std::time::Duration;

/// Median of a sample (mean of the two middle values for an even count);
/// NaN for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Percentile levels the tail rule chooses from, highest last.
const TAIL_LEVELS: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a reported percentile.
const TAIL_SAMPLES_BEYOND: usize = 10;

/// The highest percentile level of [`TAIL_LEVELS`] that leaves at least
/// [`TAIL_SAMPLES_BEYOND`] of `n` samples strictly beyond its
/// nearest-rank position, or `None` when even the median does not.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .iter()
        .copied()
        .rfind(|&q| n - nearest_rank(n, q) >= TAIL_SAMPLES_BEYOND)
}

/// 1-based nearest-rank position of quantile `q` in `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `q` of a sample. Infinite entries (requests
/// that failed, and so missed every latency limit) sort last.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), q) - 1]
}

/// A least-squares line `y = intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    pub intercept: f64,
    pub slope: f64,
    /// Coefficient of determination (1 for a perfect fit; NaN when `y`
    /// has no variance).
    pub r2: f64,
    pub n: usize,
}

/// Ordinary least squares over `(x, y)` points; `None` with fewer than
/// two points or when every `x` is equal.
pub fn fit_line(points: &[(f64, f64)]) -> Option<LineFit> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / nf;
    let my = points.iter().map(|p| p.1).sum::<f64>() / nf;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let syy: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let sse: f64 = points
        .iter()
        .map(|p| (p.1 - intercept - slope * p.0).powi(2))
        .sum();
    Some(LineFit {
        intercept,
        slope,
        r2: 1.0 - sse / syy,
        n,
    })
}

/// A fixed-rate open-loop schedule: request `i` is due `i / rate`
/// seconds after the start, whatever happened to earlier requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    pub rate_per_s: f64,
    pub count: usize,
}

impl Schedule {
    /// Offset of request `i`'s due time from the schedule start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }

    /// The requests connection `c` of `connections` sends, in due
    /// order (round-robin assignment).
    pub fn for_connection(&self, c: usize, connections: usize) -> impl Iterator<Item = usize> {
        (c..self.count).step_by(connections)
    }
}

/// What one open-loop request went through, as offsets from the
/// schedule start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub due: Duration,
    /// When the generator actually wrote it (`None`: never sent).
    pub sent: Option<Duration>,
    /// When its correct reply arrived (`None`: refused, failed, wrong
    /// or never answered).
    pub answered: Option<Duration>,
}

impl Outcome {
    /// Latency from the due time in ms; infinite for a request without
    /// a correct reply, so it misses any limit.
    pub fn latency_ms(&self) -> f64 {
        self.answered.map_or(f64::INFINITY, |a| {
            a.saturating_sub(self.due).as_secs_f64() * 1e3
        })
    }

    /// How late the generator wrote the request, in ms (`None` if it was
    /// never sent; its latency is then infinite).
    pub fn lag_ms(&self) -> Option<f64> {
        self.sent
            .map(|s| s.saturating_sub(self.due).as_secs_f64() * 1e3)
    }
}

/// A summary of one fixed-rate phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    pub samples: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// The tail level the sample supports (see [`tail_level`]).
    pub tail_level: f64,
    pub lag_p99_ms: f64,
    /// Median latency of the last quarter exceeds twice that of the
    /// first quarter plus one millisecond: the queue kept growing.
    pub backlog_growing: bool,
    /// Requests answered correctly within the limit.
    pub within_limit: usize,
    /// Seconds from the first due time to the last reply.
    pub span_s: f64,
    pub meets_limit: bool,
}

impl PhaseSummary {
    /// Requests answered correctly within the limit per second of the phase.
    pub fn goodput_per_s(&self) -> f64 {
        if self.span_s > 0.0 {
            self.within_limit as f64 / self.span_s
        } else {
            0.0
        }
    }
}

/// Summarizes outcomes (in due order) against a p99 latency limit.
pub fn summarize_phase(outcomes: &[Outcome], limit_ms: f64) -> PhaseSummary {
    let lat: Vec<f64> = outcomes.iter().map(Outcome::latency_ms).collect();
    let failed = lat.iter().filter(|l| l.is_infinite()).count();
    let lags: Vec<f64> = outcomes.iter().filter_map(Outcome::lag_ms).collect();
    let quarter = (outcomes.len() / 4).max(1);
    let head = median(&lat[..quarter.min(lat.len())]);
    let tail = median(&lat[lat.len().saturating_sub(quarter)..]);
    let backlog_growing = tail > 2.0 * head + 1.0;
    let end = outcomes
        .iter()
        .filter_map(|o| o.answered.or(o.sent))
        .max()
        .unwrap_or_default();
    let span_s = end
        .saturating_sub(outcomes.first().map_or(Duration::ZERO, |o| o.due))
        .as_secs_f64();
    let p99 = percentile(&lat, 0.99);
    PhaseSummary {
        samples: outcomes.len(),
        failed,
        p50_ms: percentile(&lat, 0.5),
        p99_ms: p99,
        tail_level: tail_level(outcomes.len()).unwrap_or(f64::NAN),
        lag_p99_ms: percentile(&lags, 0.99),
        backlog_growing,
        within_limit: lat.iter().filter(|&&l| l <= limit_ms).count(),
        span_s,
        meets_limit: p99 <= limit_ms && !backlog_growing,
    }
}

/// The metric-name grammar: 1 to 64 of `[A-Za-z0-9_.-]`, starting with
/// a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_level_needs_ten_samples_beyond() {
        assert_eq!(tail_level(10), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(199), Some(0.9));
        assert_eq!(tail_level(200), Some(0.95));
        assert_eq!(tail_level(999), Some(0.95));
        assert_eq!(tail_level(1000), Some(0.99));
        assert_eq!(tail_level(9999), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_percentile_leaves_ten_beyond_at_p99() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(percentile(&xs, 0.5), 500.0);
        assert_eq!(xs.iter().filter(|&&x| x > 990.0).count(), 10);
    }

    #[test]
    fn failures_sort_last_and_miss_the_limit() {
        let mut xs = vec![1.0; 98];
        xs.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(percentile(&xs, 0.98), 1.0);
        assert!(percentile(&xs, 0.99).is_infinite());
    }

    #[test]
    fn fit_recovers_an_exact_line() {
        let pts: Vec<(f64, f64)> = (1..=18)
            .map(|i| (f64::from(i), 40.0 + 7.5 * f64::from(i)))
            .collect();
        let fit = fit_line(&pts).unwrap();
        assert!((fit.intercept - 40.0).abs() < 1e-9);
        assert!((fit.slope - 7.5).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
        assert_eq!(fit.n, 18);
    }

    #[test]
    fn fit_reports_r2_below_one_for_noise_and_rejects_degenerate_x() {
        let pts = [(1.0, 1.0), (2.0, 3.0), (3.0, 2.0), (4.0, 4.0)];
        let fit = fit_line(&pts).unwrap();
        assert!((fit.slope - 0.8).abs() < 1e-12);
        assert!((fit.intercept - 0.5).abs() < 1e-12);
        assert!((fit.r2 - 0.64).abs() < 1e-12);
        assert!(fit_line(&[(2.0, 1.0), (2.0, 5.0)]).is_none());
        assert!(fit_line(&[(1.0, 1.0)]).is_none());
    }

    #[test]
    fn schedule_is_fixed_rate_and_round_robin() {
        let s = Schedule {
            rate_per_s: 200.0,
            count: 7,
        };
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(3), ms(15));
        assert_eq!(s.for_connection(0, 2).collect::<Vec<_>>(), [0, 2, 4, 6]);
        assert_eq!(s.for_connection(1, 2).collect::<Vec<_>>(), [1, 3, 5]);
    }

    #[test]
    fn latency_and_lag_count_from_the_due_time() {
        let late = Outcome {
            due: ms(10),
            sent: Some(ms(14)),
            answered: Some(ms(17)),
        };
        assert_eq!(late.latency_ms(), 7.0);
        assert_eq!(late.lag_ms(), Some(4.0));
        let refused = Outcome {
            due: ms(10),
            sent: Some(ms(10)),
            answered: None,
        };
        assert!(refused.latency_ms().is_infinite());
    }

    #[test]
    fn steady_phase_meets_the_limit_and_a_stall_does_not() {
        let steady: Vec<Outcome> = (0..1000u64)
            .map(|i| Outcome {
                due: ms(i),
                sent: Some(ms(i)),
                answered: Some(ms(i) + Duration::from_micros(3000)),
            })
            .collect();
        let s = summarize_phase(&steady, 20.0);
        assert_eq!((s.samples, s.failed), (1000, 0));
        assert!((s.p50_ms - 3.0).abs() < 1e-9 && (s.p99_ms - 3.0).abs() < 1e-9);
        assert_eq!(s.tail_level, 0.99);
        assert!(!s.backlog_growing && s.meets_limit);
        assert_eq!(s.within_limit, 1000);
        assert!((s.goodput_per_s() - 1000.0 / 1.002).abs() < 1e-6);

        // A generator that falls behind: each request waits for all
        // earlier ones, so latency from the due time grows without bound.
        let stalled: Vec<Outcome> = (0..1000u64)
            .map(|i| Outcome {
                due: ms(i),
                sent: Some(ms(2 * i)),
                answered: Some(ms(2 * i + 3)),
            })
            .collect();
        let s = summarize_phase(&stalled, 2000.0);
        assert!(s.backlog_growing && !s.meets_limit);
        assert!(s.lag_p99_ms > 900.0);
    }

    #[test]
    fn failed_requests_count_against_goodput_and_p99() {
        let outcomes: Vec<Outcome> = (0..1000u64)
            .map(|i| Outcome {
                due: ms(i),
                sent: Some(ms(i)),
                answered: (i % 50 != 0).then(|| ms(i + 2)),
            })
            .collect();
        let s = summarize_phase(&outcomes, 20.0);
        assert_eq!((s.failed, s.within_limit), (20, 980));
        assert!(s.p99_ms.is_infinite() && !s.meets_limit);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "frames_per_s",
            "p99_ms.high",
            "decoder.partial_word_us.lanes1",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "p99/ms", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}

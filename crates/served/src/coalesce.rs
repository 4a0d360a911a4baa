//! The frame coalescer: per-(code, decoder) queues that a worker pool
//! claims a word at a time, with no batching timer.
//!
//! Every decode request lands in the queue of its key — the canonical
//! `"<code> / <decoder>"` rendering of its scenario. The channel part,
//! if present, must parse under the full channel grammar (`awgn`,
//! `bsc:p`, `erasure:p`, `burst:…`, `@quant=B`, …) — an unknown channel
//! is rejected with that grammar's own actionable error — but a valid
//! channel does not enter the key: the server decodes what it is sent,
//! it does not simulate a channel. At most [`MAX_KEYS`] keys exist per
//! server; a request for one more is refused.
//!
//! A worker sleeps only while every queue is empty (or the server has
//! drained and is stopping). Otherwise it claims the key whose front
//! frame has waited longest — first-come first-served across keys — and
//! takes whatever that key has queued, up to a full word:
//! `block_frames()` of the key's decoder, 8 for `@pack=8`/`@batch=8`,
//! 64 for `@bitslice`, 1 for scalar specs. A lone frame is therefore
//! decoded at once in a one-frame word (the engines' partial-word path
//! is lane-exact against scalar decoding), and under load the queues
//! hold a word's worth by the time a worker frees up, so the words run
//! full — the software analogue of the paper's 8-frames-in-flight
//! datapath, with fill coming from *independent* concurrent clients.
//!
//! Queues are bounded (`queue_frames` per key): when full, the enqueue
//! reports backpressure and the connection answers `BUSY` with a
//! retry-after hint — the words queued ahead times the measured median
//! word decode time — instead of letting latency grow without bound.
//!
//! Decoder instances are *not* shared: [`BlockDecoder`] is stateful
//! workspace and not `Send`, so each worker lazily builds and caches
//! its own decoder per key, mirroring the per-worker build in
//! `ldpc_sim`'s Monte-Carlo engine.

use crate::metrics::Metrics;
use crate::protocol::{pack_bits, DecodedFrame};
use ldpc_core::{BlockDecoder, CodeHandle, DecoderSpec};
use ldpc_sim::{Scenario, ScenarioError};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Most distinct `code / decoder` keys one server holds. Each key keeps
/// a code handle and, per worker, a decoder, so the map is capped rather
/// than left to grow with every spec a client names.
pub(crate) const MAX_KEYS: usize = 64;

/// What a queued word costs in the `BUSY` hint before any decode has
/// been measured: the finest latency bucket, 50 µs.
const UNMEASURED_WORD_US: u64 = 50;

/// One queued frame: its LLRs and the channel its reply travels back on.
struct Job {
    llrs: Vec<f32>,
    enqueued: Instant,
    reply: Sender<DecodedFrame>,
}

/// Per-key queue plus everything a worker needs to build the decoder.
struct KeyEntry {
    scenario: Scenario,
    handle: Arc<dyn CodeHandle>,
    /// Code length n — every frame of this key carries n LLRs.
    n: usize,
    /// Full word width: the decoder's preferred `block_frames()`.
    word: usize,
    queue: VecDeque<Job>,
}

struct State {
    keys: HashMap<String, KeyEntry>,
    shutting_down: bool,
    /// Test hook: while set (and not draining), no word is claimed, so
    /// queues can be filled deterministically.
    #[cfg(test)]
    held: bool,
}

/// A batch a worker has claimed: jobs plus the build recipe for the
/// worker-local decoder cache.
struct Batch {
    key: String,
    jobs: Vec<Job>,
    handle: Arc<dyn CodeHandle>,
    decoder: DecoderSpec,
}

/// Outcome of trying to enqueue one frame.
pub(crate) enum Enqueue {
    /// Accepted; the decoded frame will arrive on this receiver.
    Queued(Receiver<DecodedFrame>),
    /// Queue full; retry after roughly this many microseconds.
    Busy {
        /// Suggested client backoff.
        retry_after_us: u64,
    },
    /// The server is draining and accepts no new frames.
    ShuttingDown,
}

/// Spec errors surfaced to the wire, split by responsibility.
#[derive(Debug)]
pub(crate) enum KeyError {
    /// The scenario string failed to parse.
    Parse(ScenarioError),
    /// The scenario parsed but its code could not be built.
    Build(ScenarioError),
    /// The key is new and the server already holds [`MAX_KEYS`] keys.
    TooManyKeys,
}

impl KeyError {
    pub(crate) fn message(&self) -> String {
        match self {
            Self::Parse(e) | Self::Build(e) => e.to_string(),
            Self::TooManyKeys => format!(
                "this server already serves {MAX_KEYS} distinct `code / decoder` keys, \
                 its cap; send frames under a key already in use"
            ),
        }
    }
}

/// The shared coalescer: keyed bounded queues + the worker rendezvous.
pub(crate) struct Coalescer {
    state: Mutex<State>,
    work: Condvar,
    queue_frames: usize,
    max_iterations: u32,
    metrics: Arc<Metrics>,
}

impl Coalescer {
    pub(crate) fn new(queue_frames: usize, max_iterations: u32, metrics: Arc<Metrics>) -> Self {
        Self {
            state: Mutex::new(State {
                keys: HashMap::new(),
                shutting_down: false,
                #[cfg(test)]
                held: false,
            }),
            work: Condvar::new(),
            queue_frames: queue_frames.max(1),
            max_iterations,
            metrics,
        }
    }

    /// Resolves a spec string to its canonical queue key, creating the
    /// key (code handle + word probe) on first use. Returns the key and
    /// the code length n. The expensive build runs outside the lock.
    pub(crate) fn ensure_key(&self, spec: &str) -> Result<(String, usize), KeyError> {
        let scenario: Scenario = spec.parse().map_err(KeyError::Parse)?;
        let key = format!("{} / {}", scenario.code, scenario.decoder);
        {
            let st = self.state.lock().unwrap();
            if let Some(entry) = st.keys.get(&key) {
                return Ok((key, entry.n));
            }
            if st.keys.len() >= MAX_KEYS {
                return Err(KeyError::TooManyKeys);
            }
        }
        let handle = scenario.build_code().map_err(KeyError::Build)?;
        let probe = scenario.decoder.build(handle.code());
        let n = probe.n();
        let word = probe.block_frames();
        let mut st = self.state.lock().unwrap();
        // Another connection may have filled the map while we built.
        if !st.keys.contains_key(&key) && st.keys.len() >= MAX_KEYS {
            return Err(KeyError::TooManyKeys);
        }
        st.keys.entry(key.clone()).or_insert(KeyEntry {
            scenario,
            handle,
            n,
            word,
            queue: VecDeque::new(),
        });
        Ok((key, n))
    }

    /// Queues one frame under an existing key (from [`ensure_key`]).
    ///
    /// # Panics
    ///
    /// Panics if the key was never ensured or `llrs.len()` is not the
    /// key's code length — the server validates both first.
    pub(crate) fn enqueue(&self, key: &str, llrs: Vec<f32>) -> Enqueue {
        let mut st = self.state.lock().unwrap();
        if st.shutting_down {
            return Enqueue::ShuttingDown;
        }
        let entry = st.keys.get_mut(key).expect("enqueue on an ensured key");
        assert_eq!(entry.n, llrs.len(), "frame length mismatch");
        if entry.queue.len() >= self.queue_frames {
            let retry_after_us = self.retry_after_us(entry.queue.len(), entry.word);
            self.metrics.record_rejected();
            return Enqueue::Busy { retry_after_us };
        }
        let (tx, rx) = std::sync::mpsc::channel();
        entry.queue.push_back(Job {
            llrs,
            enqueued: Instant::now(),
            reply: tx,
        });
        self.metrics.record_enqueued();
        self.work.notify_one();
        Enqueue::Queued(rx)
    }

    /// Backoff hint for a frame refused behind `queued` frames of a
    /// `word`-wide key: the words queued ahead of it times the measured
    /// median word decode time.
    fn retry_after_us(&self, queued: usize, word: usize) -> u64 {
        let words = u64::try_from(queued.div_ceil(word.max(1))).unwrap_or(u64::MAX);
        let word_us = match self.metrics.decode_quantile_us(0.5) {
            0 => UNMEASURED_WORD_US,
            us => us,
        };
        words.saturating_mul(word_us)
    }

    /// Starts the drain: no new frames are accepted, every queued frame
    /// is still decoded, and workers exit once the queues are empty.
    /// Idempotent.
    pub(crate) fn begin_shutdown(&self) {
        self.state.lock().unwrap().shutting_down = true;
        self.work.notify_all();
    }

    /// Test hook: while `held`, workers claim no word (until the drain
    /// starts).
    #[cfg(test)]
    pub(crate) fn hold(&self, held: bool) {
        self.state.lock().unwrap().held = held;
        self.work.notify_all();
    }

    /// Current `(key, depth, word)` snapshot for `STATS`.
    pub(crate) fn queue_depths(&self) -> Vec<(String, usize, usize)> {
        let st = self.state.lock().unwrap();
        let mut depths: Vec<_> = st
            .keys
            .iter()
            .map(|(k, e)| (k.clone(), e.queue.len(), e.word))
            .collect();
        depths.sort();
        depths
    }

    /// Claims up to a word of the key whose front frame has waited
    /// longest, if any frame is queued.
    fn take_batch(st: &mut State) -> Option<Batch> {
        #[cfg(test)]
        if st.held && !st.shutting_down {
            return None;
        }
        let key = st
            .keys
            .iter()
            .filter(|(_, e)| !e.queue.is_empty())
            .min_by_key(|(_, e)| e.queue.front().map(|j| j.enqueued))
            .map(|(k, _)| k.clone())?;
        let entry = st.keys.get_mut(&key).unwrap();
        let take = entry.word.min(entry.queue.len());
        let jobs = entry.queue.drain(..take).collect();
        Some(Batch {
            key,
            jobs,
            handle: entry.handle.clone(),
            decoder: entry.scenario.decoder.clone(),
        })
    }

    /// One worker: claim a word as soon as any frame is queued, decode
    /// it through the cached per-key decoder, reply per frame. Returns
    /// when the server is draining and every queue is empty.
    pub(crate) fn worker_loop(&self) {
        let mut decoders: HashMap<String, Box<dyn BlockDecoder>> = HashMap::new();
        loop {
            let batch = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if let Some(b) = Self::take_batch(&mut st) {
                        break Some(b);
                    }
                    if st.shutting_down {
                        break None;
                    }
                    st = self.work.wait(st).unwrap();
                }
            };
            let Some(batch) = batch else { return };
            self.run_batch(batch, &mut decoders);
        }
    }

    fn run_batch(&self, batch: Batch, decoders: &mut HashMap<String, Box<dyn BlockDecoder>>) {
        let Batch {
            key,
            jobs,
            handle,
            decoder: spec,
        } = batch;
        let decoder = decoders
            .entry(key)
            .or_insert_with(|| spec.build(handle.code()));
        let n = decoder.n();
        let claimed = Instant::now();
        let mut llrs = Vec::with_capacity(jobs.len() * n);
        for job in &jobs {
            llrs.extend_from_slice(&job.llrs);
        }
        let results = decoder.decode_block(&llrs, self.max_iterations);
        let decode = claimed.elapsed();
        self.metrics.record_batch(jobs.len());
        for (job, result) in jobs.into_iter().zip(results) {
            let frame = DecodedFrame {
                bits: pack_bits((0..n).map(|i| result.hard_decision.get(i))),
                bit_len: n,
                iterations: result.iterations,
                converged: result.converged,
            };
            self.metrics.record_frame_done(
                claimed.duration_since(job.enqueued),
                decode,
                result.converged,
            );
            // A client that hung up mid-flight is not an error.
            let _ = job.reply.send(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn coalescer(queue_frames: usize) -> Arc<Coalescer> {
        Arc::new(Coalescer::new(queue_frames, 20, Arc::new(Metrics::new())))
    }

    /// Clean all-zero demo frames: every LLR votes hard for bit 0.
    fn clean_frame(n: usize) -> Vec<f32> {
        vec![4.0; n]
    }

    fn queued(c: &Coalescer, key: &str, llrs: Vec<f32>) -> Receiver<DecodedFrame> {
        match c.enqueue(key, llrs) {
            Enqueue::Queued(rx) => rx,
            _ => panic!("queue refused a frame"),
        }
    }

    #[test]
    fn full_word_dispatches_without_waiting_for_the_deadline() {
        // Eight frames queued before the worker starts fill one word.
        let c = coalescer(1024);
        let (key, n) = c.ensure_key("demo / fixed@pack=8").unwrap();
        let receivers: Vec<_> = (0..8).map(|_| queued(&c, &key, clean_frame(n))).collect();
        std::thread::scope(|s| {
            let worker = {
                let c = Arc::clone(&c);
                s.spawn(move || c.worker_loop())
            };
            for rx in receivers {
                let frame = rx.recv_timeout(Duration::from_secs(10)).unwrap();
                assert!(frame.converged);
                assert_eq!(frame.bit_len, n);
                assert!(frame.bits.iter().all(|&b| b == 0));
            }
            assert_eq!(c.metrics.batches(), 1, "8 frames must ship as one word");
            assert_eq!(c.metrics.batch_fill_count(8), 1);
            c.begin_shutdown();
            worker.join().unwrap();
        });
    }

    #[test]
    fn lone_frame_decodes_at_once() {
        // No timer: one frame on an 8-lane key ships as a word of its
        // own, well inside a generous bound, while the worker keeps
        // running.
        let c = coalescer(1024);
        let (key, n) = c.ensure_key("demo / fixed@pack=8").unwrap();
        std::thread::scope(|s| {
            let worker = {
                let c = Arc::clone(&c);
                s.spawn(move || c.worker_loop())
            };
            let rx = queued(&c, &key, clean_frame(n));
            let frame = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(frame.converged);
            assert_eq!(c.metrics.batches(), 1, "one word");
            assert_eq!(c.metrics.batch_fill_count(1), 1, "of one frame");
            c.begin_shutdown();
            worker.join().unwrap();
        });
    }

    #[test]
    fn oldest_frame_first_across_keys() {
        // Queued b1, s1, a1, s2, a2 on two 8-frame keys (a, b) and the
        // one-frame key s. Each claim goes to the key whose front frame
        // has waited longest and takes up to a word of its queue, so a2
        // ships with a1 ahead of the older s2.
        let c = coalescer(1024);
        let (a, n) = c.ensure_key("demo / fixed@pack=8").unwrap();
        let (b, _) = c.ensure_key("demo / nms:1.25@batch=8").unwrap();
        let (s, _) = c.ensure_key("demo / fixed").unwrap();
        let queue_all = || -> Vec<_> {
            [&b, &s, &a, &s, &a]
                .into_iter()
                .map(|key| {
                    // Distinct arrival instants, whatever the clock's grain.
                    std::thread::sleep(Duration::from_millis(1));
                    queued(&c, key, clean_frame(n))
                })
                .collect()
        };
        let receivers = queue_all();
        {
            let mut st = c.state.lock().unwrap();
            for (key, frames) in [(&b, 1), (&s, 1), (&a, 2), (&s, 1)] {
                let batch = Coalescer::take_batch(&mut st).expect("frames are queued");
                assert_eq!((&batch.key, batch.jobs.len()), (key, frames));
            }
            assert!(Coalescer::take_batch(&mut st).is_none());
        }
        drop(receivers);
        // The same queue order through one worker: four words, one of
        // them two frames wide.
        let receivers = queue_all();
        std::thread::scope(|scope| {
            let c2 = Arc::clone(&c);
            scope.spawn(move || c2.worker_loop());
            for rx in receivers {
                assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap().converged);
            }
            c.begin_shutdown();
        });
        assert_eq!(c.metrics.batches(), 4);
        assert_eq!(c.metrics.batch_fill_count(2), 1, "a1 and a2 share a word");
        assert_eq!(c.metrics.batch_fill_count(1), 3);
        assert_eq!(c.metrics.frames_decoded(), 5);
    }

    #[test]
    fn bounded_queue_reports_busy_and_recovers() {
        // No worker running: the queue can only fill.
        let c = coalescer(2);
        let (key, n) = c.ensure_key("demo / fixed").unwrap();
        let _rx1 = queued(&c, &key, clean_frame(n));
        let _rx2 = queued(&c, &key, clean_frame(n));
        match c.enqueue(&key, clean_frame(n)) {
            Enqueue::Busy { retry_after_us } => assert!(retry_after_us > 0),
            _ => panic!("third frame must bounce off the 2-frame bound"),
        }
        assert_eq!(c.metrics.frames_rejected(), 1);
    }

    #[test]
    fn busy_hint_grows_with_the_words_queued_ahead() {
        // Before any decode is measured the hint is still positive.
        let c = coalescer(2);
        assert_eq!(c.retry_after_us(2, 1), 2 * UNMEASURED_WORD_US);
        // A measured median decode of 800 µs reports its bucket, 1 ms.
        c.metrics
            .record_frame_done(Duration::ZERO, Duration::from_micros(800), true);
        let hint = |queued, word| c.retry_after_us(queued, word);
        assert_eq!(hint(2, 1), 2_000);
        assert_eq!(hint(16, 1), 16_000);
        assert_eq!(hint(16, 8), 2_000, "16 frames are two 8-lane words");
        assert!(hint(17, 8) > hint(16, 8));
        // And through the enqueue path, at two queue bounds.
        let busy_at = |bound| {
            let c = coalescer(bound);
            c.metrics
                .record_frame_done(Duration::ZERO, Duration::from_micros(800), true);
            let (key, n) = c.ensure_key("demo / fixed").unwrap();
            let _held: Vec<_> = (0..bound)
                .map(|_| queued(&c, &key, clean_frame(n)))
                .collect();
            match c.enqueue(&key, clean_frame(n)) {
                Enqueue::Busy { retry_after_us } => retry_after_us,
                _ => panic!("a full queue must answer BUSY"),
            }
        };
        let (shallow, deep) = (busy_at(2), busy_at(16));
        assert!(shallow > 0 && deep > shallow, "{shallow} vs {deep}");
    }

    #[test]
    fn shutdown_drains_queued_frames_then_stops_workers() {
        // 3 frames held back from the workers: only the drain can send
        // them on.
        let c = coalescer(1024);
        c.hold(true);
        let (key, n) = c.ensure_key("demo / fixed@pack=8").unwrap();
        let receivers: Vec<_> = (0..3).map(|_| queued(&c, &key, clean_frame(n))).collect();
        let worker_exited = AtomicBool::new(false);
        std::thread::scope(|s| {
            let c2 = Arc::clone(&c);
            let exited = &worker_exited;
            s.spawn(move || {
                c2.worker_loop();
                exited.store(true, Ordering::SeqCst);
            });
            c.begin_shutdown();
            for rx in receivers {
                assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap().converged);
            }
        });
        assert!(worker_exited.load(Ordering::SeqCst));
        assert_eq!(c.metrics.batch_fill_count(3), 1, "the drain ships all 3");
        assert!(matches!(
            c.enqueue(&key, clean_frame(n)),
            Enqueue::ShuttingDown
        ));
    }

    #[test]
    fn key_map_is_capped() {
        let c = coalescer(8);
        for k in 0..MAX_KEYS {
            c.ensure_key(&format!("demo / nms:{}", 1.0 + k as f64 / 100.0))
                .unwrap();
        }
        let err = c.ensure_key("demo / fixed").unwrap_err();
        assert!(err.message().contains("64 distinct"), "{}", err.message());
        // Keys already held still resolve.
        assert!(c.ensure_key("demo / nms:1").is_ok());
    }

    #[test]
    fn spec_errors_are_actionable() {
        let c = coalescer(8);
        let err = c.ensure_key("c2 / bsc:0.02").unwrap_err();
        assert!(
            err.message().contains("name the decoder"),
            "{}",
            err.message()
        );
        let err = c.ensure_key("wat / fixed").unwrap_err();
        assert!(err.message().contains("code part"), "{}", err.message());
        // An unknown channel in a 3-part spec is rejected with the
        // channel grammar's own error, which names the known models.
        let err = c.ensure_key("demo / zeta / fixed").unwrap_err();
        assert!(err.message().contains("channel part"), "{}", err.message());
        assert!(err.message().contains("known models"), "{}", err.message());
        assert!(err.message().contains("erasure"), "{}", err.message());
        assert!(err.message().contains("burst"), "{}", err.message());
        // A malformed parameter of a known channel is rejected too.
        let err = c.ensure_key("demo / burst:0.01,0.3 / fixed").unwrap_err();
        assert!(
            err.message().contains("p_good,p_bad,p_switch"),
            "{}",
            err.message()
        );
        // A *valid* channel part of a 3-part spec must parse but does
        // not enter the key: the key collapses to code / decoder, for
        // the loss channels exactly as for the noise channels.
        for channel in ["rayleigh", "erasure:0.05", "burst:0.01,0.3,0.05"] {
            let (key, _) = c.ensure_key(&format!("demo / {channel} / fixed")).unwrap();
            assert_eq!(key, "demo / fixed", "{channel}");
        }
        let (key2, _) = c.ensure_key("demo / fixed").unwrap();
        assert_eq!(key2, "demo / fixed");
    }
}

//! SWAR-packed fixed-point decoder: 8 frames per `u64` word, one edge pass
//! per iteration — the soft-decision realization of the paper's
//! frames-per-word packing (Table 3), bit-exact lane by lane against
//! [`FixedDecoder`](crate::decoder::FixedDecoder).

use crate::decoder::batch::BatchDecoder;
use crate::decoder::block::BlockDecoder;
use crate::decoder::swar::{
    self, abs_i8, apply_sign8, eq7_mask, ltu15_mask16, ltu7_mask, min_u16, narrow_halves,
    scale_mag8, select8, sign_mask8, splat8, widen_hi, widen_lo,
};
use crate::decoder::{DecodeResult, FixedConfig};
use crate::{LdpcCode, LlrQuantizer};
use gf2::BitVec;
use std::sync::Arc;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod sse;

/// Lanes (frames) packed into each message word.
pub const PACK_LANES: usize = swar::LANES;

/// Low byte of every u16 lane.
const M16: u64 = 0x00FF_00FF_00FF_00FF;

/// Largest check-node degree: the lane scan's edge indices fit a lane.
const MAX_CN_DEGREE: usize = 127;

/// A word with `x` in all four u16 lanes.
#[inline(always)]
fn splat16(x: u16) -> u64 {
    u64::from(x) * 0x0001_0001_0001_0001
}

/// The instruction set the edge pass and the lane load run on, picked
/// once per decoder from the running CPU: the widest of AVX2, SSE4.1
/// and portable SWAR that it supports. Every tier computes the same
/// planes bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    /// `u64` SWAR word ops: every target, and the reference the vector
    /// tiers are tested against.
    Portable,
    /// 128-bit SSE4.1: two edges per scan op.
    #[cfg(target_arch = "x86_64")]
    Sse41,
    /// 256-bit AVX2: four edges per scan op.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// The widest tier the running CPU supports.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if avx2::available() {
                return Tier::Avx2;
            }
            if sse::available() {
                return Tier::Sse41;
            }
        }
        Tier::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Tier::Sse41 => "sse4.1",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => "avx2",
        }
    }

    /// Every tier the running CPU supports, narrowest first.
    #[cfg(test)]
    fn available() -> Vec<Self> {
        let mut tiers = vec![Tier::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if sse::available() {
                tiers.push(Tier::Sse41);
            }
            if avx2::available() {
                tiers.push(Tier::Avx2);
            }
        }
        tiers
    }
}

/// One bit's eight u16 lanes: frames 0..4 in word 0, frames 4..8 in word
/// 1 (the memory order of eight `i16` vector lanes).
type Wide = [u64; 2];

/// Splits signed byte lanes into their positive and negative magnitude
/// planes (`v = pm − nm` lane by lane, one of the two is zero).
#[inline(always)]
fn split_signed(v: u64) -> (u64, u64) {
    let s = sign_mask8(v);
    let mag = abs_i8(v);
    (mag & !s, mag & s)
}

/// `w + v` lane by lane: signed byte lanes added into biased u16 lanes.
#[inline(always)]
fn add_wide(w: Wide, v: u64) -> Wide {
    let (pm, nm) = split_signed(v);
    [
        w[0].wrapping_add(widen_lo(pm)).wrapping_sub(widen_lo(nm)),
        w[1].wrapping_add(widen_hi(pm)).wrapping_sub(widen_hi(nm)),
    ]
}

/// Lane `f` of a byte word set to `v`.
#[inline(always)]
fn with_byte(w: u64, f: usize, v: i8) -> u64 {
    (w & !(0xFF << (8 * f))) | u64::from(v as u8) << (8 * f)
}

/// Lane `f` of a u16 lane pair set to `v`.
#[inline(always)]
fn with_u16(mut w: Wide, f: usize, v: u16) -> Wide {
    let s = 16 * (f % 4);
    w[f / 4] = (w[f / 4] & !(0xFFFF << s)) | u64::from(v) << s;
    w
}

/// Frame-packed fixed-point normalized min-sum decoder.
///
/// Eight frames share each `u64`: edge `e`'s check→bit word carries frame
/// `f`'s message in byte lane `f` (the [`gf2::ByteSlices`] transpose), and
/// every update is a handful of SWAR word ops from
/// [`swar`](crate::decoder::swar) that advance all 8 lanes at once.
///
/// The state is **posterior** (APP) form: per edge the check→bit word
/// `cb`, per bit the quantized channel word `ch` and the biased total
/// `t = bias + ch + Σ cb` in eight u16 lanes. One iteration is one pass
/// over the edges in check-major order: the check node's input
/// `clamp(t[bit] − cb[e])` is exactly the scalar datapath's bit→check
/// message (the biased lanes hold the exact sum, and the clamp is
/// [`bn_output`](crate::decoder::kernels::bn_output)'s saturation); the
/// two-minimum scan then writes `cb` in place and scatter-adds it into
/// the new total, which the pass starts at `bias + ch`. The bias
/// (`ch_max + max_bn_degree · msg_max`) keeps every lane in
/// `0..=2·bias` in any accumulation order, so plain word adds never
/// borrow across lanes.
///
/// Refilling a lane is O(n): write the new frame's channel into lane `f`
/// of `ch` and of the total `t`, and read that lane of `cb` as zero on
/// the next pass, which is then exactly the scalar decoder's first
/// iteration. [`BlockDecoder::decode_stream`] keeps all 8 lanes busy
/// that way: a lane that converges or spends its budget emits its frame
/// and takes the next one, while the other lanes iterate on.
///
/// The result is **bit-exact per lane** against
/// [`FixedDecoder`](crate::decoder::FixedDecoder) with the same
/// [`FixedConfig`] — same hard decisions, same iteration counts, whichever
/// lane a frame lands in — which the conformance and golden suites pin.
///
/// On `x86_64` the pass and the lane load run on the widest vector tier
/// the CPU has, detected once at construction: AVX2 (four edges per
/// 256-bit op), else SSE4.1 (two per 128-bit op), else the portable SWAR
/// words. The results are identical bit for bit
/// ([`simd_tier`](Self::simd_tier) names the tier).
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::{BatchDecoder, FixedConfig, PackedFixedDecoder};
///
/// let code = demo_code();
/// let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
/// // Eight noiseless all-zero frames, stored back to back.
/// let llrs = vec![3.0_f32; 8 * code.n()];
/// let out = dec.decode_batch(&llrs, 10);
/// assert!(out.iter().all(|r| r.converged));
/// ```
pub struct PackedFixedDecoder {
    code: Arc<LdpcCode>,
    config: FixedConfig,
    quantizer: LlrQuantizer,
    /// Bias of the u16 total lanes: they hold `bias + value`.
    bias: u16,
    /// Check→bit messages: one signed-byte lane word per edge.
    cb: Vec<u64>,
    /// Lanes of `cb` the next pass reads: `0x00` in lanes loaded since
    /// the last pass (their messages read as 0), `0xFF` elsewhere.
    cb_keep: u64,
    /// Quantized channel LLRs: one signed-byte lane word per bit.
    ch: Vec<u64>,
    /// Biased posterior totals the next pass reads.
    t: Vec<Wide>,
    /// The pass's accumulator of new totals, preset to `bias + ch` as
    /// the pass starts.
    acc: Vec<Wide>,
    /// Hard-decision masks: `0xFF` in lane `f` where frame `f` decides 1.
    hard_mask: Vec<u64>,
    /// Per-lane unsatisfied-check mask: byte `f` is zero iff frame `f`'s
    /// syndrome is zero after the last pass.
    unsat: u64,
    /// Edge passes run since construction.
    passes: u64,
    /// The instruction set the pass and the lane load run on.
    tier: Tier,
}

/// A frame in flight: its index in the stream and its progress.
#[derive(Clone, Copy)]
struct Lane {
    frame: u64,
    iterations: u32,
    converged: bool,
}

/// Loads the next frames of a stream into the given free lanes, in
/// order; returns how many it loaded (fewer once the stream ends).
type Fill<'a> = dyn FnMut(&mut PackedFixedDecoder, &[usize]) -> usize + 'a;

impl PackedFixedDecoder {
    /// Creates a packed decoder for the given code and datapath
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured widths do not fit the packed datapath
    /// (`q_msg` or `q_ch` above 8 bits, or a bias that overflows the u16
    /// total lanes), or if any check node has degree outside `2..=127`
    /// (the two-minimum lane scan needs at least two absorbs to mirror
    /// the scalar kernel, and edge indices must fit a lane).
    pub fn new(code: Arc<LdpcCode>, config: FixedConfig) -> Self {
        assert!(
            config.q_msg <= 8,
            "packed datapath requires q_msg <= 8 (i8 lanes), got {}",
            config.q_msg
        );
        assert!(
            config.q_ch <= 8,
            "packed datapath requires q_ch <= 8 (i8 lanes), got {}",
            config.q_ch
        );
        let quantizer = config.channel_quantizer();
        let graph = code.graph();
        for m in 0..graph.n_checks() {
            let deg = graph.cn_degree(m);
            assert!(
                (2..=MAX_CN_DEGREE).contains(&deg),
                "packed datapath requires check degrees in 2..={MAX_CN_DEGREE}, check {m} has {deg}"
            );
        }
        let ch_max = quantizer.max_level() as u32;
        let msg_max = config.msg_max() as u32;
        let bias = ch_max + graph.max_bn_degree() as u32 * msg_max;
        assert!(
            2 * bias <= 0x7FFF,
            "bit-node bias {bias} overflows the u16 total lanes"
        );
        let edges = graph.n_edges();
        let n = code.n();
        // Lanes never loaded hold channel 0: total = bias.
        let idle = [splat16(bias as u16); 2];
        Self {
            quantizer,
            config,
            bias: bias as u16,
            cb: vec![0; edges],
            cb_keep: !0,
            ch: vec![0; n],
            t: vec![idle; n],
            acc: vec![[0; 2]; n],
            hard_mask: vec![0; n],
            unsat: 0,
            passes: 0,
            tier: Tier::detect(),
            code,
        }
    }

    /// The datapath configuration.
    pub fn config(&self) -> &FixedConfig {
        &self.config
    }

    /// The code this decoder operates on.
    pub fn code(&self) -> &Arc<LdpcCode> {
        &self.code
    }

    /// Edge passes run since construction. Each advances all 8 lanes by
    /// one iteration, so `8 × passes` is the lane-iterations issued, to
    /// set against the sum of the decoded frames' iteration counts.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Whether a vector tier runs: the build targets `x86_64` **and**
    /// the running CPU supports SSE4.1 (see
    /// [`simd_tier`](Self::simd_tier)). When `false` the portable SWAR
    /// kernels run; the results are identical either way.
    pub fn simd_active() -> bool {
        Tier::detect() != Tier::Portable
    }

    /// The instruction set a decoder built on this host runs its edge
    /// pass and lane load on: `"avx2"` (four edges per op), `"sse4.1"`
    /// (two) or `"portable"` (SWAR words), the widest the CPU supports.
    /// The results are identical on every tier.
    pub fn simd_tier() -> &'static str {
        Tier::detect().name()
    }

    /// A decoder whose pass runs on `tier`, which must be one of
    /// [`Tier::available`].
    #[cfg(test)]
    fn with_tier(code: Arc<LdpcCode>, config: FixedConfig, tier: Tier) -> Self {
        assert!(
            Tier::available().contains(&tier),
            "{tier:?} not on this CPU"
        );
        Self {
            tier,
            ..Self::new(code, config)
        }
    }

    /// Number of frames in a batch of `len` values, checked against the
    /// code length and the word width.
    fn batch_frames(&self, len: usize, what: &str) -> usize {
        let n = self.code.n();
        assert!(
            len > 0 && len.is_multiple_of(n),
            "{what} length must be a positive multiple of the code length"
        );
        let frames = len / n;
        assert!(
            frames <= PACK_LANES,
            "batch of {frames} frames exceeds the {PACK_LANES} lanes of one word"
        );
        frames
    }

    /// Decodes a batch of already-quantized frames stored back to back
    /// (frame `f` occupies `channel[f*n .. (f+1)*n]`), the hardware input
    /// format. See [`BatchDecoder::decode_batch`] for the result contract.
    ///
    /// # Panics
    ///
    /// Panics if `channel.len()` is not a positive multiple of the code
    /// length, if the frame count exceeds [`PACK_LANES`], or if any value
    /// exceeds the channel quantizer range.
    pub fn decode_quantized_batch(
        &mut self,
        channel: &[i16],
        max_iterations: u32,
    ) -> Vec<DecodeResult> {
        self.batch_frames(channel.len(), "channel");
        let ch_max = self.quantizer.max_level();
        assert!(
            channel.iter().all(|&c| (-ch_max..=ch_max).contains(&c)),
            "channel value outside quantizer range"
        );
        let mut frames = channel.chunks_exact(self.code.n());
        self.decode_in_order(max_iterations, &mut |dec, lanes| {
            let mut loaded = 0;
            for (&f, frame) in lanes.iter().zip(&mut frames) {
                dec.load_lane(f, 0, |b| frame[b]);
                loaded += 1;
            }
            loaded
        })
    }

    /// Streams back-to-back `f32` frames through the lanes and returns
    /// their results in input order.
    fn decode_llrs(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        let mut frames = llrs.chunks_exact(self.code.n());
        self.decode_in_order(max_iterations, &mut |dec, lanes| {
            let batch: Vec<(usize, &[f32])> = lanes.iter().copied().zip(&mut frames).collect();
            dec.load_llrs(&batch);
            batch.len()
        })
    }

    /// [`stream`](Self::stream) with the results collected in frame
    /// order.
    fn decode_in_order(&mut self, max_iterations: u32, fill: &mut Fill) -> Vec<DecodeResult> {
        let mut results: Vec<Option<DecodeResult>> = Vec::new();
        self.stream(max_iterations, fill, &mut |frame, result| {
            let i = frame as usize;
            if results.len() <= i {
                results.resize(i + 1, None);
            }
            results[i] = Some(result);
        });
        results
            .into_iter()
            .map(|r| r.expect("every pulled frame is emitted"))
            .collect()
    }

    /// The streaming driver: keeps every lane busy with frames loaded by
    /// `fill(self, lanes)` (which loads the next frames into the given
    /// free lanes, in order, and returns how many it loaded — fewer once
    /// the stream is exhausted) and hands each frame's result to
    /// `done(index, result)` the moment its lane retires: on a zero
    /// syndrome with early stop on, or when its budget is spent. Retired
    /// lanes take the next frames before the following pass, so a word
    /// never idles behind its slowest frame.
    ///
    /// With `max_iterations == 0` every frame is emitted at load with its
    /// channel hard decision, 0 iterations, not converged.
    fn stream(
        &mut self,
        max_iterations: u32,
        fill: &mut Fill,
        done: &mut dyn FnMut(u64, DecodeResult),
    ) {
        let mut lanes: [Option<Lane>; PACK_LANES] = [None; PACK_LANES];
        let mut pulled = 0u64;
        let mut exhausted = false;
        loop {
            while !exhausted {
                let mut free = [0; PACK_LANES];
                let mut count = 0;
                for f in (0..PACK_LANES).filter(|&f| lanes[f].is_none()) {
                    free[count] = f;
                    count += 1;
                }
                if count == 0 {
                    break;
                }
                let loaded = fill(self, &free[..count]);
                exhausted = loaded < count;
                for &f in &free[..loaded] {
                    if max_iterations == 0 {
                        done(pulled, self.channel_decision(f));
                    } else {
                        lanes[f] = Some(Lane {
                            frame: pulled,
                            iterations: 0,
                            converged: false,
                        });
                    }
                    pulled += 1;
                }
                if max_iterations > 0 {
                    break;
                }
            }
            if lanes.iter().all(Option::is_none) {
                return;
            }
            let active = (0..PACK_LANES)
                .filter(|&f| lanes[f].is_some())
                .fold(0u64, |m, f| m | 0xFF << (8 * f));
            self.iterate(active);
            for (f, slot) in lanes.iter_mut().enumerate() {
                let Some(lane) = slot else { continue };
                lane.iterations += 1;
                lane.converged = (self.unsat >> (8 * f)) & 0xFF == 0;
                if (lane.converged && self.config.early_stop) || lane.iterations == max_iterations {
                    done(
                        lane.frame,
                        DecodeResult {
                            hard_decision: self.hard_decision(f),
                            iterations: lane.iterations,
                            converged: lane.converged,
                        },
                    );
                    *slot = None;
                }
            }
        }
    }

    /// Loads each `(lane, frame)` pair: quantizes the frames straight
    /// into their lanes of the channel and total planes (one pass over
    /// the planes for all of them on a vector tier, the portable loop
    /// for the bits it leaves). The quantizer's output is in range by
    /// construction, so unlike the `i16` door this needs no range scan.
    fn load_llrs(&mut self, frames: &[(usize, &[f32])]) {
        let n = self.code.n();
        assert!(
            frames
                .iter()
                .all(|&(f, llrs)| f < PACK_LANES && llrs.len() == n),
            "lane or frame length out of range"
        );
        let first = match self.tier {
            Tier::Portable => 0,
            #[cfg(target_arch = "x86_64")]
            Tier::Sse41 => self.load_llrs_sse(frames),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => self.load_llrs_avx2(frames),
        };
        let quantizer = self.quantizer;
        for &(f, llrs) in frames {
            self.load_lane(f, first, |b| quantizer.quantize(llrs[b]));
        }
    }

    /// Resets lane `f` to a new frame: writes channel value `value(b)`
    /// of bits `first..n` into lane `f` of `ch` and `t` (bits below
    /// `first` were written by a vector load), and masks the lane
    /// out of the next pass's `cb` reads. The next pass is then the new
    /// frame's first iteration.
    fn load_lane(&mut self, f: usize, first: usize, value: impl Fn(usize) -> i16) {
        let n = self.code.n();
        for b in first..n {
            let c = value(b);
            let biased = self.bias.wrapping_add(c as u16);
            self.ch[b] = with_byte(self.ch[b], f, c as i8);
            self.t[b] = with_u16(self.t[b], f, biased);
        }
        self.cb_keep &= !(0xFF << (8 * f));
    }

    /// The channel hard decision of lane `f`, as a 0-iteration result.
    fn channel_decision(&mut self, f: usize) -> DecodeResult {
        for (mask, &c) in self.hard_mask.iter_mut().zip(&self.ch) {
            *mask = with_byte(*mask, f, ((c >> (8 * f)) as i8) >> 7);
        }
        DecodeResult {
            hard_decision: self.hard_decision(f),
            iterations: 0,
            converged: false,
        }
    }

    /// One iteration of all 8 lanes: the edge pass on the decoder's
    /// tier and the syndrome of the `active` lanes (a byte mask).
    fn iterate(&mut self, active: u64) {
        self.passes += 1;
        self.edge_pass();
        self.syndrome_pass(active);
    }

    /// The edge pass on the decoder's tier.
    fn edge_pass(&mut self) {
        match self.tier {
            Tier::Portable => self.pass(),
            #[cfg(target_arch = "x86_64")]
            Tier::Sse41 => self.pass_sse41(),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => self.pass_avx2(),
        }
    }

    /// The edge pass, all 8 lanes per word op: the accumulator preset to
    /// `bias + ch`, the edges, then [`finish_pass`](Self::finish_pass).
    ///
    /// Per check: each edge's input is `clamp(t[bit] − cb[e])`, computed
    /// in the biased u16 lanes and saturated to `msg_max` exactly like
    /// [`bn_output`](crate::decoder::kernels::bn_output); the two-minimum
    /// scan is the word form of
    /// [`cn_scan`](crate::decoder::kernels::cn_scan) +
    /// [`CnState::output`](crate::decoder::kernels::CnState::output),
    /// with the sign product as the XOR of the raw input words (sign bits
    /// XOR in place). Its seed `min1 = min2 = 127` coincides with the
    /// scalar kernel's `i16::MAX` seed for degrees >= 2 because lane
    /// magnitudes never exceed 127: the first two absorbs pull both
    /// minima down to real message values either way, through the same
    /// strict-`<` first-wins tie rule. Each output is stored in place and
    /// added into the bit's next total.
    fn pass(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let scaling = self.config.scaling;
        let keep = self.cb_keep;
        let b16 = splat16(self.bias);
        let m16 = splat16(self.config.msg_max() as u16);
        let mut inputs = [0u64; MAX_CN_DEGREE];
        for (acc, &c) in self.acc.iter_mut().zip(&self.ch) {
            *acc = add_wide([b16; 2], c);
        }
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            let bits = graph.cn_bits(m);
            let mut sp = 0u64;
            let mut min1 = splat8(0x7F);
            let mut min2 = splat8(0x7F);
            let mut argmin = 0u64;
            for (idx, (e, &b)) in range.clone().zip(bits).enumerate() {
                let (pm, nm) = split_signed(self.cb[e] & keep);
                let [lo, hi] = self.t[b as usize];
                let ulo = lo.wrapping_sub(widen_lo(pm)).wrapping_add(widen_lo(nm));
                let uhi = hi.wrapping_sub(widen_hi(pm)).wrapping_add(widen_hi(nm));
                let v = clamp_extrinsic(ulo, uhi, b16, m16);
                inputs[idx] = v;
                sp ^= v;
                let mag = abs_i8(v);
                let lt1 = ltu7_mask(mag, min1);
                let lt2 = ltu7_mask(mag, min2);
                min2 = select8(lt1, min1, select8(lt2, mag, min2));
                min1 = select8(lt1, mag, min1);
                argmin = select8(lt1, splat8(idx as i8), argmin);
            }
            // Scaling commutes with the excluded-self select, so scale the
            // two minima once per check instead of once per edge.
            let s1 = scale_mag8(min1, scaling);
            let s2 = scale_mag8(min2, scaling);
            for (idx, (e, &b)) in range.zip(bits).enumerate() {
                let eq = eq7_mask(argmin, splat8(idx as i8));
                let smag = select8(eq, s2, s1);
                // Output sign = sign product excluding self = sign bits
                // of the XOR accumulator XOR this edge's own sign.
                let out = apply_sign8(smag, sign_mask8(sp ^ inputs[idx]));
                self.cb[e] = out;
                self.acc[b as usize] = add_wide(self.acc[b as usize], out);
            }
        }
        self.finish_pass();
    }

    /// Closes a pass: hard decisions from the new totals in `acc`
    /// (posterior < 0 iff the biased total < bias), and the two total
    /// planes swapped.
    fn finish_pass(&mut self) {
        let b16 = splat16(self.bias);
        for (mask, &[lo, hi]) in self.hard_mask.iter_mut().zip(&self.acc) {
            *mask = narrow_halves(ltu15_mask16(lo, b16) & M16, ltu15_mask16(hi, b16) & M16);
        }
        std::mem::swap(&mut self.t, &mut self.acc);
        self.cb_keep = !0;
    }

    /// Word-parallel syndrome: XOR the hard masks of each check's bits —
    /// lane `f` of `unsat` becomes non-zero iff frame `f` leaves some
    /// check unsatisfied. Only the lanes in the byte mask `active` are
    /// decided: the scan stops once each of them has an unsatisfied
    /// check, which an unconverged frame shows within a few checks.
    fn syndrome_pass(&mut self, active: u64) {
        const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
        let code = self.code.clone();
        let graph = code.graph();
        let hot = active & !LOW7;
        let mut unsat = 0u64;
        for m in 0..graph.n_checks() {
            let mut parity = 0u64;
            for &bn in graph.cn_bits(m) {
                parity ^= self.hard_mask[bn as usize];
            }
            unsat |= parity;
            // Bit 7 of each byte set iff that byte of `unsat` is non-zero.
            if (((unsat & LOW7) + LOW7) | unsat) & hot == hot {
                break;
            }
        }
        self.unsat = unsat;
    }

    /// Hard decision of lane `f`: its lane of the hard-decision masks,
    /// packed straight into bit-vector words. Lane `f` of a mask is 0x00
    /// or 0xFF, so bit `i` of that byte already is bit `i`'s decision:
    /// eight masks fold into one byte with an AND and an OR each.
    fn hard_decision(&self, f: usize) -> BitVec {
        let shift = 8 * f;
        let words = self
            .hard_mask
            .chunks(64)
            .map(|masks| {
                masks.chunks(8).enumerate().fold(0u64, |w, (k, eight)| {
                    let byte = eight
                        .iter()
                        .enumerate()
                        .fold(0u64, |acc, (i, &m)| acc | (m & (1 << (shift + i))));
                    w | ((byte >> shift) << (8 * k))
                })
            })
            .collect();
        BitVec::from_words(self.code.n(), words)
    }
}

/// The extrinsic message of biased u16 sums `u` (frames 0..4 in `lo`,
/// 4..8 in `hi`): `u − bias` saturated to `±msg_max`, as signed bytes.
///
/// Sign: negative iff `u < bias`. Magnitude: `|u − bias|` via max/min
/// (xor recovers the other of the pair), then the rail.
#[inline(always)]
fn clamp_extrinsic(lo: u64, hi: u64, b16: u64, m16: u64) -> u64 {
    let (llo, lhi) = (ltu15_mask16(lo, b16), ltu15_mask16(hi, b16));
    let mxlo = select8(llo, b16, lo);
    let maglo = min_u16(mxlo.wrapping_sub(lo ^ b16 ^ mxlo), m16);
    let mxhi = select8(lhi, b16, hi);
    let maghi = min_u16(mxhi.wrapping_sub(hi ^ b16 ^ mxhi), m16);
    let sign = narrow_halves(llo & M16, lhi & M16);
    apply_sign8(narrow_halves(maglo, maghi), sign)
}

impl BlockDecoder for PackedFixedDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        let n = self.code.n();
        assert!(
            !llrs.is_empty() && llrs.len().is_multiple_of(n),
            "LLR length must be a positive multiple of the code length"
        );
        self.decode_llrs(llrs, max_iterations)
    }

    fn decode_stream(
        &mut self,
        max_iterations: u32,
        next: &mut dyn FnMut(&mut Vec<f32>) -> bool,
        done: &mut dyn FnMut(u64, DecodeResult),
    ) {
        let n = self.code.n();
        let mut staged = Vec::with_capacity(PACK_LANES * n);
        let mut fill = |dec: &mut Self, lanes: &[usize]| {
            staged.clear();
            for _ in lanes {
                let before = staged.len();
                if !next(&mut staged) {
                    break;
                }
                assert_eq!(
                    staged.len(),
                    before + n,
                    "a streamed frame must hold n LLRs"
                );
            }
            let batch: Vec<(usize, &[f32])> =
                lanes.iter().copied().zip(staged.chunks_exact(n)).collect();
            dec.load_llrs(&batch);
            batch.len()
        };
        self.stream(max_iterations, &mut fill, done);
    }

    fn block_frames(&self) -> usize {
        PACK_LANES
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        BatchDecoder::name(self)
    }
}

impl BatchDecoder for PackedFixedDecoder {
    fn decode_batch(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        self.batch_frames(llrs.len(), "LLR");
        self.decode_llrs(llrs, max_iterations)
    }

    fn capacity(&self) -> usize {
        PACK_LANES
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        format!(
            "packed fixed-point normalized min-sum ({} frames/word, {}b msg)",
            PACK_LANES, self.config.q_msg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;
    use crate::decoder::kernels::Scaling;
    use crate::FixedDecoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A batch of frames spanning the convergence spectrum: clean frames
    /// that converge immediately, noisy ones that take several
    /// iterations, and garbage that stalls — so lanes retire at
    /// different iterations.
    fn mixed_batch(code: &Arc<LdpcCode>, frames: usize, seed: u64) -> Vec<i16> {
        let n = code.n();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(frames * n);
        for f in 0..frames {
            match f % 3 {
                0 => out.extend(std::iter::repeat_n(10i16, n)),
                1 => out.extend((0..n).map(|_| {
                    let v: i16 = rng.gen_range(1..=8);
                    if rng.gen_bool(0.12) {
                        -v
                    } else {
                        v
                    }
                })),
                _ => out.extend((0..n).map(|_| rng.gen_range(-15i16..=15))),
            }
        }
        out
    }

    fn assert_lanes_match_scalar(config: FixedConfig, frames: usize, seed: u64, iters: u32) {
        let code = demo_code();
        let ch = mixed_batch(&code, frames, seed);
        let n = code.n();
        let mut packed = PackedFixedDecoder::new(code.clone(), config);
        let mut scalar = FixedDecoder::new(code.clone(), config);
        let got = packed.decode_quantized_batch(&ch, iters);
        assert_eq!(got.len(), frames);
        for (f, out) in got.iter().enumerate() {
            let want = scalar.decode_quantized(&ch[f * n..(f + 1) * n], iters);
            assert_eq!(out, &want, "lane {f} diverged from scalar fixed");
        }
    }

    #[test]
    fn full_word_matches_scalar_lane_by_lane() {
        assert_lanes_match_scalar(FixedConfig::default(), 8, 40, 25);
    }

    #[test]
    fn partial_words_match_scalar_lane_by_lane() {
        for frames in 1..8 {
            assert_lanes_match_scalar(FixedConfig::default(), frames, 41 + frames as u64, 20);
        }
    }

    #[test]
    fn fixed_latency_mode_matches_scalar() {
        assert_lanes_match_scalar(FixedConfig::default().with_early_stop(false), 8, 42, 12);
    }

    #[test]
    fn every_scaling_matches_scalar() {
        for s in [
            Scaling::Unity,
            Scaling::SevenEighths,
            Scaling::ThreeQuarters,
            Scaling::Half,
        ] {
            assert_lanes_match_scalar(FixedConfig::default().with_scaling(s), 8, 43, 15);
        }
    }

    #[test]
    fn narrow_quantization_matches_scalar() {
        let cfg = FixedConfig::default().with_q_msg(4).with_q_ch(3);
        let code = demo_code();
        let n = code.n();
        // Regenerate the batch within the narrow channel range.
        let mut rng = StdRng::seed_from_u64(44);
        let ch: Vec<i16> = (0..8 * n).map(|_| rng.gen_range(-3i16..=3)).collect();
        let mut packed = PackedFixedDecoder::new(code.clone(), cfg);
        let mut scalar = FixedDecoder::new(code.clone(), cfg);
        for (f, out) in packed.decode_quantized_batch(&ch, 20).iter().enumerate() {
            let want = scalar.decode_quantized(&ch[f * n..(f + 1) * n], 20);
            assert_eq!(out, &want, "lane {f}");
        }
    }

    #[test]
    fn wide_eight_bit_quantization_matches_scalar() {
        // q_msg = q_ch = 8: magnitudes up to 127 exercise the lane-scan
        // seed coincidence at the i8 boundary.
        let cfg = FixedConfig::default().with_q_msg(8).with_q_ch(8);
        let code = demo_code();
        let n = code.n();
        let mut rng = StdRng::seed_from_u64(45);
        let ch: Vec<i16> = (0..8 * n).map(|_| rng.gen_range(-127i16..=127)).collect();
        let mut packed = PackedFixedDecoder::new(code.clone(), cfg);
        let mut scalar = FixedDecoder::new(code.clone(), cfg);
        for (f, out) in packed.decode_quantized_batch(&ch, 15).iter().enumerate() {
            let want = scalar.decode_quantized(&ch[f * n..(f + 1) * n], 15);
            assert_eq!(out, &want, "lane {f}");
        }
    }

    #[test]
    fn float_entry_point_quantizes_like_scalar() {
        let code = demo_code();
        let n = code.n();
        let mut rng = StdRng::seed_from_u64(46);
        let llrs: Vec<f32> = (0..8 * n).map(|_| rng.gen_range(-6.0..6.0)).collect();
        let mut packed = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let mut scalar = FixedDecoder::new(code.clone(), FixedConfig::default());
        use crate::decoder::Decoder;
        for (f, out) in packed.decode_batch(&llrs, 18).iter().enumerate() {
            let want = scalar.decode(&llrs[f * n..(f + 1) * n], 18);
            assert_eq!(out, &want, "lane {f}");
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let code = demo_code();
        let ch = mixed_batch(&code, 8, 47);
        let mut dec = PackedFixedDecoder::new(code, FixedConfig::default());
        let a = dec.decode_quantized_batch(&ch, 18);
        let b = dec.decode_quantized_batch(&ch, 18);
        assert_eq!(a, b);
    }

    /// `f32` inputs the quantizer must map exactly like the scalar
    /// decoder: NaN, infinities, signed zeros, subnormals, exact
    /// half-steps of the default 0.5 step, values around them, and
    /// values far beyond saturation.
    fn special_llrs() -> Vec<f32> {
        let mut v = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            -f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            7.5,
            -7.5,
            7.75,
            -7.75,
            8.0,
            -9.0,
            1e30,
            -1e30,
            f32::MAX,
            f32::MIN,
        ];
        for k in 0..16 {
            let half = 0.25 + 0.5 * k as f32;
            for x in [half, half.next_up(), half.next_down()] {
                v.extend([x, -x]);
            }
        }
        v
    }

    /// LLR frames with special values sprinkled over mostly-clean noise,
    /// so lanes see every edge input yet still converge at different
    /// iterations.
    fn special_batch(n: usize, frames: usize, seed: u64) -> Vec<f32> {
        let specials = special_llrs();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..frames * n)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-1.0f32..5.0)
                }
            })
            .collect()
    }

    #[test]
    fn float_entry_point_edge_values_match_scalar_in_every_partial_word() {
        use crate::decoder::Decoder;
        let code = demo_code();
        let n = code.n();
        for cfg in [
            FixedConfig::default(),
            FixedConfig::default().with_q_msg(8).with_q_ch(8),
        ] {
            let mut packed = PackedFixedDecoder::new(code.clone(), cfg);
            let mut scalar = FixedDecoder::new(code.clone(), cfg);
            for frames in 1..=PACK_LANES {
                let llrs = special_batch(n, frames, 60 + frames as u64);
                let got = packed.decode_batch(&llrs, 12);
                assert_eq!(got.len(), frames);
                for (f, out) in got.iter().enumerate() {
                    let want = scalar.decode(&llrs[f * n..(f + 1) * n], 12);
                    assert_eq!(out, &want, "{frames}-lane word, lane {f}");
                }
            }
        }
    }

    /// Frames of every convergence class for the `f32` doors: clean,
    /// noisy (12% flipped), and garbage, scaled to the quantizer's top
    /// level `top` so every configuration sees its own rails.
    fn stream_llrs(n: usize, frames: usize, seed: u64, top: f32) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(frames * n);
        for f in 0..frames {
            match f % 3 {
                0 => out.extend(std::iter::repeat_n(top, n)),
                1 => out.extend((0..n).map(|_| {
                    let v = top * rng.gen_range(0.1f32..0.6);
                    if rng.gen_bool(0.12) {
                        -v
                    } else {
                        v
                    }
                })),
                _ => out.extend((0..n).map(|_| top * rng.gen_range(-1.0f32..1.0))),
            }
        }
        out
    }

    /// Streams `llrs` through `decode_stream` on every tier the CPU has
    /// and checks every frame against a reused scalar decoder, and that
    /// `done` fires exactly once per pulled frame.
    fn assert_stream_matches_scalar(
        code: &Arc<LdpcCode>,
        cfg: FixedConfig,
        llrs: &[f32],
        iters: u32,
        label: &str,
    ) {
        use crate::decoder::Decoder;
        let n = code.n();
        let frames = llrs.len() / n;
        let mut scalar = FixedDecoder::new(code.clone(), cfg);
        let want: Vec<DecodeResult> = llrs
            .chunks_exact(n)
            .map(|frame| scalar.decode(frame, iters))
            .collect();
        for tier in Tier::available() {
            let label = format!("{label} ({})", tier.name());
            let mut packed = PackedFixedDecoder::with_tier(code.clone(), cfg, tier);
            let mut source = llrs.chunks_exact(n);
            let mut pulled = 0usize;
            let mut got: Vec<Option<DecodeResult>> = vec![None; frames];
            packed.decode_stream(
                iters,
                &mut |buf| match source.next() {
                    Some(frame) => {
                        buf.extend_from_slice(frame);
                        pulled += 1;
                        true
                    }
                    None => false,
                },
                &mut |i, result| {
                    let slot = &mut got[i as usize];
                    assert!(slot.is_none(), "{label}: frame {i} emitted twice");
                    *slot = Some(result);
                },
            );
            assert_eq!(pulled, frames, "{label}");
            for (f, (out, want)) in got.into_iter().zip(&want).enumerate() {
                assert_eq!(out.as_ref(), Some(want), "{label}: frame {f}");
            }
        }
    }

    /// The streaming driver against scalar `fixed`, frame by frame, over
    /// stream lengths around the word width (lanes refill as they
    /// retire), budgets 0 / 1 / 18 and both early-stop modes.
    #[test]
    fn stream_matches_scalar_per_frame() {
        let code = demo_code();
        let n = code.n();
        for frames in [1usize, 7, 8, 9, 40] {
            let llrs = stream_llrs(n, frames, 70 + frames as u64, 7.5);
            for iters in [0, 1, 18] {
                for early_stop in [true, false] {
                    let cfg = FixedConfig::default().with_early_stop(early_stop);
                    let label = format!("{frames} frames, {iters} its, early stop {early_stop}");
                    assert_stream_matches_scalar(&code, cfg, &llrs, iters, &label);
                }
            }
        }
    }

    /// Every scaling and quantization through the streaming driver.
    #[test]
    fn stream_matches_scalar_in_every_configuration() {
        let code = demo_code();
        let n = code.n();
        for scaling in [
            Scaling::Unity,
            Scaling::SevenEighths,
            Scaling::ThreeQuarters,
            Scaling::Half,
        ] {
            for (q_msg, q_ch) in [(6, 5), (4, 3), (8, 8)] {
                let cfg = FixedConfig::default()
                    .with_scaling(scaling)
                    .with_q_msg(q_msg)
                    .with_q_ch(q_ch);
                let q = cfg.channel_quantizer();
                let top = f32::from(q.max_level()) * q.step();
                let llrs = stream_llrs(n, 19, u64::from(q_msg * 16 + q_ch), top);
                let label = format!("{scaling:?} q_msg={q_msg} q_ch={q_ch}");
                assert_stream_matches_scalar(&code, cfg, &llrs, 18, &label);
            }
        }
    }

    /// The streaming driver on C2 (degree-32 checks, even pairs only).
    #[test]
    fn stream_matches_scalar_on_c2() {
        let code = crate::codes::ccsds_c2::code();
        let llrs = stream_llrs(code.n(), 9, 80, 7.5);
        for iters in [0, 1, 18] {
            let label = format!("c2, {iters} its");
            assert_stream_matches_scalar(&code, FixedConfig::default(), &llrs, iters, &label);
        }
    }

    /// Zero iterations return the channel hard decision, whatever the
    /// decoder decoded before: the scalar reference and the packed lanes
    /// (fresh and refilled) agree.
    #[test]
    fn zero_iterations_return_the_channel_decision() {
        use crate::decoder::Decoder;
        for code in [demo_code(), crate::codes::ccsds_c2::code()] {
            let n = code.n();
            let a = stream_llrs(n, 3, 90, 7.5);
            let clean = vec![4.0f32; n];
            let mut scalar = FixedDecoder::new(code.clone(), FixedConfig::default());
            let mut packed = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
            let _ = scalar.decode(&a[2 * n..], 18);
            let _ = packed.decode_block(&a, 18);
            let want = DecodeResult {
                hard_decision: BitVec::zeros(n),
                iterations: 0,
                converged: false,
            };
            assert_eq!(scalar.decode(&clean, 0), want, "n={n} scalar");
            assert_eq!(packed.decode_block(&clean, 0), vec![want], "n={n} packed");
            // A stream at 0 iterations refills one lane over and over.
            let b = stream_llrs(n, 10, 91, 7.5);
            let got = packed.decode_block(&b, 0);
            for (f, out) in got.iter().enumerate() {
                assert_eq!(
                    out,
                    &scalar.decode(&b[f * n..(f + 1) * n], 0),
                    "n={n} frame {f}"
                );
                assert_eq!(out.iterations, 0);
            }
        }
    }

    /// A code whose check degrees leave every remainder mod 4 (2, 3, 5,
    /// 6, 7, 9, 10, 13, 17, 21), over 24 bits: row `r` of degree `d`
    /// takes columns `3r + 5i mod 24`, `i < d`.
    fn mixed_degree_code() -> Arc<LdpcCode> {
        let degrees = [5, 9, 2, 13, 5, 3, 6, 7, 17, 5, 10, 21];
        let rows = degrees
            .iter()
            .enumerate()
            .map(|(r, &d)| {
                let mut row: Vec<u32> = (0..d).map(|i| ((3 * r + 5 * i) % 24) as u32).collect();
                row.sort_unstable();
                row
            })
            .collect();
        let h = gf2::SparseMatrix::from_rows(24, rows);
        LdpcCode::from_parity_check("mixed degrees (24)", h).expect("every column is covered")
    }

    /// Every vector tier against the portable SWAR path from identical
    /// state: the `f32` lane load (every lane, on top of stale state) and
    /// then the edge pass, comparing every state plane after every load
    /// and every pass — including passes right after lanes refill. The
    /// codes' check degrees leave every remainder mod 4 (demo 16, C2 32,
    /// AR4JA r=1/2 3 and 6, and [`mixed_degree_code`]), so the AVX2
    /// tier's quad, pair and odd-edge steps all run.
    #[test]
    fn every_tier_matches_portable_swar_planes() {
        let tiers: Vec<Tier> = Tier::available()
            .into_iter()
            .filter(|&t| t != Tier::Portable)
            .collect();
        if tiers.is_empty() {
            println!("note: no vector tier on this host; nothing to compare");
            return;
        }
        let planes = |d: &PackedFixedDecoder| {
            (
                d.ch.clone(),
                d.t.clone(),
                d.acc.clone(),
                d.cb.clone(),
                d.cb_keep,
                d.hard_mask.clone(),
            )
        };
        let ar4ja =
            crate::codes::ar4ja::Ar4jaCode::build(crate::codes::ar4ja::Ar4jaRate::Half, 16, 5);
        let codes = [
            demo_code(),
            crate::codes::ccsds_c2::code(),
            ar4ja.code().clone(),
            mixed_degree_code(),
        ];
        for (tier, code) in tiers
            .iter()
            .flat_map(|&t| codes.iter().map(move |c| (t, c)))
        {
            let n = code.n();
            for scaling in [
                Scaling::Unity,
                Scaling::SevenEighths,
                Scaling::ThreeQuarters,
                Scaling::Half,
            ] {
                for (q_msg, q_ch) in [(6, 5), (4, 3), (8, 8)] {
                    let cfg = FixedConfig::default()
                        .with_scaling(scaling)
                        .with_q_msg(q_msg)
                        .with_q_ch(q_ch);
                    let label = format!(
                        "{} n={n} {scaling:?} q_msg={q_msg} q_ch={q_ch}",
                        tier.name()
                    );
                    let q = cfg.channel_quantizer();
                    let top = f32::from(q.max_level()) * q.step();
                    let mut rng = StdRng::seed_from_u64(u64::from(q_msg * 16 + q_ch));
                    // Lane-biased noise reaching past saturation, plus
                    // the special values; frames 8.. refill lanes.
                    let specials = special_llrs();
                    let llrs: Vec<f32> = (0..12 * n)
                        .map(|i| {
                            if rng.gen_bool(0.05) {
                                specials[rng.gen_range(0..specials.len())]
                            } else {
                                let lean = 0.1 * (i / n % PACK_LANES) as f32;
                                top * rng.gen_range(lean - 0.6..lean + 0.8)
                            }
                        })
                        .collect();
                    let frame = |i: usize| &llrs[i * n..(i + 1) * n];
                    let mut swar = PackedFixedDecoder::with_tier(code.clone(), cfg, Tier::Portable);
                    let mut simd = PackedFixedDecoder::with_tier(code.clone(), cfg, tier);
                    // Loads frames `(lane, frame index)` on the decoder's
                    // tier.
                    let load = |dec: &mut PackedFixedDecoder, batch: &[(usize, usize)]| {
                        let frames: Vec<(usize, &[f32])> =
                            batch.iter().map(|&(f, i)| (f, frame(i))).collect();
                        dec.load_llrs(&frames);
                    };
                    // Lane by lane over the fresh state, then all 8 at once
                    // over stale lanes.
                    for f in 0..PACK_LANES {
                        load(&mut swar, &[(f, f)]);
                        load(&mut simd, &[(f, f)]);
                        assert_eq!(planes(&simd), planes(&swar), "{label}: load lane {f}");
                    }
                    let word: Vec<(usize, usize)> = (0..PACK_LANES).map(|f| (f, 7 - f)).collect();
                    load(&mut swar, &word);
                    load(&mut simd, &word);
                    assert_eq!(planes(&simd), planes(&swar), "{label}: load word");
                    // Refills after passes 2 and 4: one lane, then three.
                    let refills: [&[(usize, usize)]; 6] =
                        [&[], &[], &[(3, 8)], &[], &[(0, 9), (5, 10), (7, 11)], &[]];
                    for (it, &batch) in refills.iter().enumerate() {
                        load(&mut swar, batch);
                        load(&mut simd, batch);
                        assert_eq!(planes(&simd), planes(&swar), "{label}: before pass {it}");
                        swar.edge_pass();
                        simd.edge_pass();
                        assert_eq!(planes(&simd), planes(&swar), "{label}: after pass {it}");
                    }
                }
            }
        }
    }

    /// The default tier is the widest the CPU has, and names itself.
    #[test]
    fn default_tier_is_the_widest_available() {
        let widest = *Tier::available().last().expect("portable is always there");
        let dec = PackedFixedDecoder::new(demo_code(), FixedConfig::default());
        assert_eq!(dec.tier, widest);
        assert_eq!(PackedFixedDecoder::simd_tier(), widest.name());
        assert_eq!(PackedFixedDecoder::simd_active(), widest != Tier::Portable);
    }

    /// `frames` all-zero BPSK frames of `code` over AWGN at `ebn0_db`, as
    /// channel LLRs `2y/σ²` (Box–Muller noise), stored back to back.
    fn awgn_frames(code: &LdpcCode, frames: usize, ebn0_db: f64, seed: u64) -> Vec<f32> {
        let rate = code.dimension() as f64 / code.n() as f64;
        let sigma2 = 1.0 / (2.0 * rate * 10f64.powf(ebn0_db / 10.0));
        let mut rng = StdRng::seed_from_u64(seed);
        (0..frames * code.n())
            .map(|_| {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (2.0 * (1.0 + sigma2.sqrt() * z) / sigma2) as f32
            })
            .collect()
    }

    /// Stage attribution on C2, per tier. Shared hosts are noisy, so
    /// every timing is the best of several runs taken round-robin across
    /// the tiers. First each stage alone: the edge pass and the 1- and
    /// 8-lane loads on every tier the CPU has, the syndrome and hard-bit
    /// extraction. Then 512 frames streamed in 32-frame chunks (18
    /// iterations, early stop) at 3, 3.5, 4 and 7 dB on each vector tier,
    /// per frame: wall time, edge pass (passes × the tier's pass time),
    /// lane load (timed in the fill), hard bits, and the rest (syndrome
    /// and stream bookkeeping).
    #[test]
    #[ignore = "manual profiling aid: run with --release -- --ignored --nocapture"]
    fn profile_phase_split() {
        use std::time::{Duration, Instant};
        let code = crate::codes::ccsds_c2::code();
        let n = code.n();
        let ch = mixed_batch(&code, 8, 99);
        // The same batch through the f32 door the engine and server call.
        let llrs: Vec<f32> = ch.iter().map(|&c| f32::from(c) * 0.5).collect();
        let word: Vec<(usize, &[f32])> = llrs.chunks_exact(n).enumerate().collect();
        let tiers = Tier::available();
        let mut decs: Vec<PackedFixedDecoder> = tiers
            .iter()
            .map(|&tier| {
                let mut dec =
                    PackedFixedDecoder::with_tier(code.clone(), FixedConfig::default(), tier);
                let _ = dec.decode_batch(&llrs, 2); // warm buffers
                dec
            })
            .collect();
        // Per decoder, the best of 15 batches of 10 calls.
        let best = |decs: &mut [PackedFixedDecoder], f: &dyn Fn(&mut PackedFixedDecoder)| {
            let mut best = vec![Duration::MAX; decs.len()];
            for _ in 0..15 {
                for (dec, best) in decs.iter_mut().zip(&mut best) {
                    let start = Instant::now();
                    for _ in 0..10 {
                        f(dec);
                    }
                    *best = (*best).min(start.elapsed() / 10);
                }
            }
            best
        };
        let pass = best(&mut decs, &|dec| dec.edge_pass());
        let load1 = best(&mut decs, &|dec| dec.load_llrs(&[(3, &llrs[3 * n..4 * n])]));
        let load8 = best(&mut decs, &|dec| dec.load_llrs(&word));
        for (i, tier) in tiers.iter().enumerate() {
            println!(
                "  {:<8}: pass {:?}, load 1 lane {:?}, load 8 lanes {:?}",
                tier.name(),
                pass[i],
                load1[i],
                load8[i]
            );
        }
        let syndrome = best(&mut decs[..1], &|dec| dec.syndrome_pass(!0))[0];
        let hard8 = best(&mut decs[..1], &|dec| {
            for f in 0..PACK_LANES {
                std::hint::black_box(dec.hard_decision(f));
            }
        })[0];
        println!("  syndrome: {syndrome:?}, hard bits x8: {hard8:?}");
        let frames = 512;
        let vector: Vec<usize> = (0..tiers.len())
            .filter(|&i| tiers[i] != Tier::Portable)
            .collect();
        let run = |tier: Tier, all: &[f32]| {
            let mut dec = PackedFixedDecoder::with_tier(code.clone(), FixedConfig::default(), tier);
            let mut load = Duration::ZERO;
            let start = Instant::now();
            for chunk in all.chunks(32 * n) {
                let mut source = chunk.chunks_exact(n);
                dec.stream(
                    18,
                    &mut |dec, lanes| {
                        let t0 = Instant::now();
                        let batch: Vec<(usize, &[f32])> =
                            lanes.iter().copied().zip(&mut source).collect();
                        dec.load_llrs(&batch);
                        load += t0.elapsed();
                        batch.len()
                    },
                    &mut |_, r| {
                        std::hint::black_box(r);
                    },
                );
            }
            (start.elapsed(), load, dec.passes())
        };
        println!("  stream, {frames} frames in 32-frame chunks (best of 5), us per frame:");
        println!("  tier      Eb/N0   wall   pass   load   hard   rest  passes/frame");
        for ebn0 in [3.0, 3.5, 4.0, 7.0] {
            let all = awgn_frames(&code, frames, ebn0, 17);
            let mut runs = vec![(Duration::MAX, Duration::ZERO, 0); vector.len()];
            for _ in 0..5 {
                for (best, &i) in runs.iter_mut().zip(&vector) {
                    *best = (*best).min(run(tiers[i], &all));
                }
            }
            for (&(wall, load, passes), &i) in runs.iter().zip(&vector) {
                let us = |d: Duration| d.as_secs_f64() * 1e6 / frames as f64;
                let passes = passes as f64 / frames as f64;
                let (wall, load) = (us(wall), us(load));
                let pass = pass[i].as_secs_f64() * 1e6 * passes;
                let hard = us(hard8 / 8 * frames as u32);
                println!(
                    "  {:<8} {ebn0:>5.1} {wall:>6.1} {pass:>6.1} {load:>6.1} {hard:>6.1} {:>6.1}  {passes:.3}",
                    tiers[i].name(),
                    wall - pass - load - hard
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn nine_frames_rejected() {
        let code = demo_code();
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let _ = dec.decode_quantized_batch(&vec![0i16; 9 * code.n()], 1);
    }

    #[test]
    #[should_panic(expected = "q_msg <= 8")]
    fn too_wide_messages_rejected() {
        let _ = PackedFixedDecoder::new(demo_code(), FixedConfig::default().with_q_msg(9));
    }

    #[test]
    #[should_panic(expected = "quantizer range")]
    fn out_of_range_channel_rejected() {
        let code = demo_code();
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let mut ch = vec![0i16; code.n()];
        ch[0] = 16;
        let _ = dec.decode_quantized_batch(&ch, 1);
    }
}

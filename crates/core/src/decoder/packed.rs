//! SWAR-packed fixed-point decoder: 8 frames per `u64` word, one word op
//! per edge visit — the soft-decision realization of the paper's
//! frames-per-word packing (Table 3), bit-exact lane by lane against
//! [`FixedDecoder`](crate::decoder::FixedDecoder).

use crate::decoder::batch::{drive_batch, BatchDecoder, BatchPhases, BatchState};
use crate::decoder::swar::{
    self, abs_i8, add_wrap8, apply_sign8, clamp_i8, eq7_mask, ltu15_mask16, ltu7_mask, min_u16,
    narrow_bytes, scale_mag8, select8, sign_mask8, splat8, widen_even, widen_odd,
};
use crate::decoder::{DecodeResult, FixedConfig};
use crate::{LdpcCode, LlrQuantizer};
use gf2::BitVec;
use std::sync::Arc;

#[cfg(target_arch = "x86_64")]
mod sse;

/// Lanes (frames) packed into each message word.
pub const PACK_LANES: usize = swar::LANES;

/// Low byte of every u16 lane.
const M16: u64 = 0x00FF_00FF_00FF_00FF;

/// Low bit of every i8 lane.
const L8: u64 = 0x0101_0101_0101_0101;

/// Largest bit-node degree the stack-resident per-edge caches cover.
const MAX_BN_DEGREE: usize = 64;

/// A word with `x` in all four u16 lanes.
#[inline(always)]
fn splat16(x: u16) -> u64 {
    u64::from(x) * 0x0001_0001_0001_0001
}

/// Frame-packed fixed-point normalized min-sum decoder.
///
/// Eight frames' messages share each `u64`: edge `e`'s word carries frame
/// `f`'s message in byte lane `f` (the [`gf2::ByteSlices`] transpose), and
/// every check-node and bit-node update is a handful of SWAR word ops from
/// [`swar`](crate::decoder::swar) that advance all 8 lanes at once. Each
/// direction keeps **one** signed-byte word per edge (not separate sign
/// and magnitude planes), so an iteration streams exactly two words per
/// edge visit — the check node splits sign from magnitude on the fly
/// (the sign product is the XOR of the raw words: sign bits XOR in
/// place) and the bit node re-signs on the way out. The bit-node sum
/// runs in biased u16 lanes (bias `B = ch_max + max_bn_degree ·
/// msg_max`), which keeps every partial sum non-negative in any
/// accumulation order; the sum therefore never wraps a lane and matches
/// the scalar datapath's widen-accumulate-then-clamp exactly.
///
/// The result is **bit-exact per lane** against [`FixedDecoder`](crate::decoder::FixedDecoder) with the
/// same [`FixedConfig`] — same messages, same hard decisions, same
/// iteration counts — which the conformance and golden suites pin.
///
/// On `x86_64` hosts with SSE4.1 (detected at runtime) the same phases,
/// and the channel load that quantizes and transposes each call's
/// input, run on 128-bit vector instructions; the results are identical
/// bit for bit.
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
    /// Bit-node bias: u16 accumulator lanes hold `bias + value`.
    bias: u16,
    /// Bit→check messages: one signed-byte lane word per edge.
    bc: Vec<u64>,
    /// Check→bit messages: one signed-byte lane word per edge.
    cb: Vec<u64>,
    /// Channel LLRs saturated to the message width, one word per bit
    /// (the initial bit→check message of every adjacent edge).
    ch_sat: Vec<u64>,
    /// Biased channel LLRs, u16 lanes, even frames (0, 2, 4, 6).
    chb_even: Vec<u64>,
    /// Biased channel LLRs, u16 lanes, odd frames (1, 3, 5, 7).
    chb_odd: Vec<u64>,
    /// Hard-decision masks: `0xFF` in lane `f` where frame `f` decides 1.
    hard_mask: Vec<u64>,
    /// Per-lane unsatisfied-check mask: byte `f` is zero iff frame `f`'s
    /// syndrome is zero after the last iteration.
    unsat: u64,
}

impl PackedFixedDecoder {
    /// Creates a packed decoder for the given code and datapath
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured widths do not fit the packed datapath
    /// (`q_msg` or `q_ch` above 8 bits, or a bias that overflows the u16
    /// bit-node lanes), if any check node has degree outside `2..=127`
    /// (the two-minimum lane scan needs at least two absorbs to mirror
    /// the scalar kernel, and edge indices must fit a lane), or if any
    /// bit node has degree above 64 (the per-edge contribution caches
    /// are stack-sized).
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
                (2..=127).contains(&deg),
                "packed datapath requires check degrees in 2..=127, check {m} has {deg}"
            );
        }
        assert!(
            graph.max_bn_degree() <= MAX_BN_DEGREE,
            "packed datapath requires bit degrees <= {MAX_BN_DEGREE}, got {}",
            graph.max_bn_degree()
        );
        let ch_max = quantizer.max_level() as u32;
        let msg_max = config.msg_max() as u32;
        let bias = ch_max + graph.max_bn_degree() as u32 * msg_max;
        assert!(
            2 * bias <= 0x7FFF,
            "bit-node bias {bias} overflows the u16 accumulator lanes"
        );
        let edges = graph.n_edges();
        let n = code.n();
        Self {
            quantizer,
            config,
            bias: bias as u16,
            bc: vec![0; edges],
            cb: vec![0; edges],
            ch_sat: vec![0; n],
            chb_even: vec![0; n],
            chb_odd: vec![0; n],
            hard_mask: vec![0; n],
            unsat: 0,
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

    /// Whether the 128-bit SSE4.1 mirror runs: the build targets
    /// `x86_64` **and** the running CPU supports SSE4.1. When `false`
    /// the portable SWAR kernels run; the results are identical either
    /// way.
    pub fn simd_active() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            sse::available()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
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
        let frames = self.batch_frames(channel.len(), "channel");
        let ch_max = self.quantizer.max_level();
        assert!(
            channel.iter().all(|&c| (-ch_max..=ch_max).contains(&c)),
            "channel value outside quantizer range"
        );
        self.load_lanes(frames, 0, |i| channel[i]);
        self.start_messages();
        drive_batch(self, frames, max_iterations)
    }

    /// Quantizes the `frames` frames of `llrs` straight into the channel
    /// lane planes — the SSE4.1 load where the CPU has it, the portable
    /// transpose for the rest — and initializes the messages. The
    /// quantizer's output is in range by construction, so unlike the
    /// `i16` door this needs no range scan.
    fn load_llrs(&mut self, llrs: &[f32], frames: usize) {
        #[cfg(target_arch = "x86_64")]
        let done = self.load_llrs_sse(llrs, frames);
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        let quantizer = self.quantizer;
        self.load_lanes(frames, done, |i| quantizer.quantize(llrs[i]));
        self.start_messages();
    }

    /// Writes the channel lane planes of bits `first..n` from `value(i)`,
    /// the channel value at flat index `i = f*n + b` of frame `f`, bit
    /// `b` (the portable transpose). Saturated signed bytes feed message
    /// initialization, biased u16 lanes the bit-node accumulator. Unused
    /// lanes stay at channel 0 (bias B in the u16 plane), which keeps
    /// every lane inside the proven value ranges.
    fn load_lanes(&mut self, frames: usize, first: usize, value: impl Fn(usize) -> i16) {
        let n = self.code.n();
        let bias = u64::from(self.bias);
        let msg_max = self.config.msg_max() as u8 as i8;
        for b in first..n {
            let mut sat = 0u64;
            let mut even = 0u64;
            let mut odd = 0u64;
            for f in 0..PACK_LANES {
                let c = if f < frames { value(f * n + b) } else { 0 };
                sat |= u64::from(c as i8 as u8) << (8 * f);
                let biased = bias.wrapping_add(c as u64) & 0xFFFF;
                if f % 2 == 0 {
                    even |= biased << (8 * f);
                } else {
                    odd |= biased << (8 * (f - 1));
                }
            }
            self.ch_sat[b] = clamp_i8(sat, msg_max);
            self.chb_even[b] = even;
            self.chb_odd[b] = odd;
        }
    }

    /// Initial bit→check messages: the saturated channel value of the
    /// edge's bit, in every lane at once.
    fn start_messages(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        for m in 0..graph.n_checks() {
            let edges = &mut self.bc[graph.cn_edge_range(m)];
            for (bc, &b) in edges.iter_mut().zip(graph.cn_bits(m)) {
                *bc = self.ch_sat[b as usize];
            }
        }
    }

    /// Check-node phase, all 8 lanes per word op: sign product by XOR of
    /// the raw message words (sign bits XOR in place; the low bits are
    /// masked off at output), two-minimum magnitude scan via lane
    /// compares — the word form of
    /// [`cn_scan`](crate::decoder::kernels::cn_scan) +
    /// [`CnState::output`](crate::decoder::kernels::CnState::output).
    ///
    /// The scan seeds `min1 = min2 = 127`, which coincides with the
    /// scalar kernel's `i16::MAX` seed for degrees >= 2 because lane
    /// magnitudes never exceed 127: the first two absorbs pull both
    /// minima down to real message values either way, through the same
    /// strict-`<` first-wins tie rule.
    fn cn_phase(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let scaling = self.config.scaling;
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            let mut sp = 0u64;
            let mut min1 = splat8(0x7F);
            let mut min2 = splat8(0x7F);
            let mut argmin = 0u64;
            for (idx, e) in range.clone().enumerate() {
                let v = self.bc[e];
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
            for (idx, e) in range.enumerate() {
                let eq = eq7_mask(argmin, splat8(idx as i8));
                let smag = select8(eq, s2, s1);
                // Output sign = sign product excluding self = sign bits
                // of the XOR accumulator XOR this edge's own sign.
                let sign = sign_mask8(sp ^ self.bc[e]);
                self.cb[e] = apply_sign8(smag, sign);
            }
        }
    }

    /// Bit-node phase, all 8 lanes per word op, in biased u16 lanes.
    ///
    /// Lane values stay in `[0, 2·bias]` through every partial sum (each
    /// check→bit magnitude is at most `msg_max` and at most
    /// `max_bn_degree` of them are subtracted), so the plain `u64`
    /// add/sub never borrows across lanes and the accumulator is exact —
    /// the packed equivalent of the scalar datapath's i32 widening. The
    /// per-edge output `bias + ch + total − own` then saturates to
    /// `msg_max` exactly like
    /// [`bn_output`](crate::decoder::kernels::bn_output), and the hard
    /// decision `t < bias` is [`bn_posterior`](crate::decoder::kernels::bn_posterior)` < 0`.
    fn bn_phase(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let b16 = splat16(self.bias);
        let m16 = splat16(self.config.msg_max() as u16);
        let mut pms = [0u64; MAX_BN_DEGREE];
        let mut nms = [0u64; MAX_BN_DEGREE];
        for n in 0..graph.n_bits() {
            let edges = graph.bn_edge_ids(n);
            let mut te = self.chb_even[n];
            let mut to = self.chb_odd[n];
            for (i, &e) in edges.iter().enumerate() {
                let v = self.cb[e as usize];
                // Split the signed lanes into positive / negative
                // magnitude planes: conditional two's-complement via the
                // shared sign mask, then mask each half.
                let s = sign_mask8(v);
                let mag = add_wrap8(v ^ s, s & L8);
                let pm = mag & !s;
                let nm = mag & s;
                pms[i] = pm;
                nms[i] = nm;
                te = te.wrapping_add(widen_even(pm)).wrapping_sub(widen_even(nm));
                to = to.wrapping_add(widen_odd(pm)).wrapping_sub(widen_odd(nm));
            }
            for (i, &e) in edges.iter().enumerate() {
                let (pm, nm) = (pms[i], nms[i]);
                let ue = te.wrapping_sub(widen_even(pm)).wrapping_add(widen_even(nm));
                let uo = to.wrapping_sub(widen_odd(pm)).wrapping_add(widen_odd(nm));
                // Sign: the extrinsic sum is negative iff u < bias.
                let lte = ltu15_mask16(ue, b16);
                let lto = ltu15_mask16(uo, b16);
                // Magnitude: |u - bias| via max/min (xor recovers the
                // other of the pair), saturated to the message width.
                let mxe = select8(lte, b16, ue);
                let mage = min_u16(mxe.wrapping_sub(ue ^ b16 ^ mxe), m16);
                let mxo = select8(lto, b16, uo);
                let mago = min_u16(mxo.wrapping_sub(uo ^ b16 ^ mxo), m16);
                let sign = narrow_bytes(lte & M16, lto & M16);
                let mag = narrow_bytes(mage, mago);
                self.bc[e as usize] = apply_sign8(mag, sign);
            }
            // Hard decision: posterior < 0 iff the biased total < bias.
            let he = ltu15_mask16(te, b16);
            let ho = ltu15_mask16(to, b16);
            self.hard_mask[n] = narrow_bytes(he & M16, ho & M16);
        }
    }

    /// Word-parallel syndrome: XOR the hard masks of each check's bits —
    /// lane `f` of `unsat` becomes non-zero iff frame `f` leaves some
    /// check unsatisfied.
    fn syndrome_pass(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let mut unsat = 0u64;
        for m in 0..graph.n_checks() {
            let mut parity = 0u64;
            for &bn in graph.cn_bits(m) {
                parity ^= self.hard_mask[bn as usize];
            }
            unsat |= parity;
        }
        self.unsat = unsat;
    }
}

impl BatchPhases for PackedFixedDecoder {
    fn run_phases(&mut self, _iter: u32, _frames: usize, _state: &BatchState) {
        // All 8 lanes always advance — a retired lane's results were
        // snapshotted by the driver, so its lanes idling along is free
        // (that is the whole point of the packing: no masking, ever).
        #[cfg(target_arch = "x86_64")]
        if self.simd_phases() {
            self.syndrome_pass();
            return;
        }
        self.cn_phase();
        self.bn_phase();
        self.syndrome_pass();
    }

    fn hard_decision(&self, f: usize) -> BitVec {
        // Pack frame f's lane of the hard-decision masks straight into
        // bit-vector words, on demand — once per frame per decode
        // instead of every iteration. Lane f of a mask is 0x00 or 0xFF,
        // so bit `i` of that byte already is bit `i`'s decision: eight
        // masks fold into one byte with an AND and an OR each.
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

    fn syndrome_ok_frame(&self, f: usize) -> bool {
        (self.unsat >> (8 * f)) & 0xFF == 0
    }

    fn early_stop(&self) -> bool {
        self.config.early_stop
    }
}

impl BatchDecoder for PackedFixedDecoder {
    fn decode_batch(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        let frames = self.batch_frames(llrs.len(), "LLR");
        self.load_llrs(llrs, frames);
        drive_batch(self, frames, max_iterations)
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

    /// The SSE4.1 mirror against the portable SWAR path from identical
    /// state: the `f32` channel load (every partial word) and then
    /// the check / bit phases, comparing every message, channel plane
    /// and hard-decision word after every iteration.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse_mirror_matches_portable_swar_words() {
        if !PackedFixedDecoder::simd_active() {
            println!("note: no SSE4.1 on this host; SSE mirror not checked");
            return;
        }
        let planes = |d: &PackedFixedDecoder| {
            [
                d.ch_sat.clone(),
                d.chb_even.clone(),
                d.chb_odd.clone(),
                d.bc.clone(),
            ]
        };
        for code in [demo_code(), crate::codes::ccsds_c2::code()] {
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
                    let label = format!("n={n} {scaling:?} q_msg={q_msg} q_ch={q_ch}");
                    let q = cfg.channel_quantizer();
                    let top = f32::from(q.max_level()) * q.step();
                    let mut rng = StdRng::seed_from_u64(u64::from(q_msg * 16 + q_ch));
                    // Lane-biased noise reaching past saturation, plus
                    // the special values.
                    let specials = special_llrs();
                    let llrs: Vec<f32> = (0..PACK_LANES * n)
                        .map(|i| {
                            if rng.gen_bool(0.05) {
                                specials[rng.gen_range(0..specials.len())]
                            } else {
                                let lean = 0.1 * (i / n) as f32;
                                top * rng.gen_range(lean - 0.6..lean + 0.8)
                            }
                        })
                        .collect();
                    let mut swar = PackedFixedDecoder::new(code.clone(), cfg);
                    let mut sse = PackedFixedDecoder::new(code.clone(), cfg);
                    for frames in 1..=PACK_LANES {
                        let batch = &llrs[..frames * n];
                        swar.load_lanes(frames, 0, |i| q.quantize(batch[i]));
                        swar.start_messages();
                        let done = sse.load_llrs_sse(batch, frames);
                        assert_eq!(done, n - n % 16, "{label}");
                        sse.load_lanes(frames, done, |i| q.quantize(batch[i]));
                        sse.start_messages();
                        assert_eq!(planes(&sse), planes(&swar), "{label}: load, {frames} lanes");
                    }
                    for it in 0..6 {
                        swar.cn_phase();
                        swar.bn_phase();
                        assert!(sse.simd_phases());
                        assert_eq!(sse.cb, swar.cb, "{label}: cb after iteration {it}");
                        assert_eq!(sse.bc, swar.bc, "{label}: bc after iteration {it}");
                        assert_eq!(
                            sse.hard_mask, swar.hard_mask,
                            "{label}: hard_mask after iteration {it}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[ignore = "manual profiling aid: run with --release --nocapture"]
    fn profile_phase_split() {
        let code = crate::codes::ccsds_c2::code();
        let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let ch = mixed_batch(&code, 8, 99);
        // The same batch through the f32 door the engine and server call.
        let llrs: Vec<f32> = ch.iter().map(|&c| f32::from(c) * 0.5).collect();
        let _ = dec.decode_batch(&llrs, 2); // warm buffers
        let reps = 200u32;
        let time = |label: &str, f: &mut dyn FnMut()| {
            let start = std::time::Instant::now();
            for _ in 0..reps {
                f();
            }
            let per = start.elapsed() / reps;
            println!("  {label}: {per:?}/iter");
            per
        };
        time("full decode ", &mut || {
            let _ = dec.decode_quantized_batch(&ch, 18);
        });
        time("decode 1 it ", &mut || {
            let _ = dec.decode_quantized_batch(&ch, 1);
        });
        let door = time("f32 door 1 it", &mut || {
            let _ = dec.decode_batch(&llrs, 1);
        });
        let syndrome = time("syndrome    ", &mut || dec.syndrome_pass());
        #[cfg(target_arch = "x86_64")]
        if PackedFixedDecoder::simd_active() {
            let phases = time("simd phases ", &mut || {
                let _ = dec.simd_phases();
            });
            let floor = phases + syndrome;
            println!(
                "  setup ratio: f32 door 1 it / (simd phases + syndrome) = {:?} / {:?} = {:.2}x",
                door,
                floor,
                door.as_secs_f64() / floor.as_secs_f64()
            );
        }
        time("cn (swar)   ", &mut || dec.cn_phase());
        time("bn (swar)   ", &mut || dec.bn_phase());
        time("f32 load    ", &mut || dec.load_llrs(&llrs, 8));
        time("hard bits   ", &mut || {
            for f in 0..8 {
                std::hint::black_box(dec.hard_decision(f));
            }
        });
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

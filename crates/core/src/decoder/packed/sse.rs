//! SSE4.1 mirror of the packed edge pass and of the per-lane channel
//! load, compiled on every `x86_64` build.
//!
//! Same buffers, same algorithm, same results bit for bit — but each
//! bit's posterior total is one register of eight i16 lanes
//! (`pmovsxbw` widens a message word into it, `packsswb` narrows the
//! extrinsic input back to bytes), and the check-node two-minimum scan
//! runs on native byte-lane ops (`pabsb`/`pminub`/`pmaxub`/`pblendvb`),
//! replacing the multi-op SWAR emulations with single instructions.
//! The lane load quantizes 16 bits of every loaded frame per step and
//! transposes the 8 × 16 byte tile into lane words in registers.
//! Selected at runtime via `is_x86_feature_detected!`; a host without
//! SSE4.1 falls back to the portable kernels.
//!
//! This is the one module in the crate allowed to contain `unsafe`: the
//! entry points below are guarded by the runtime feature check, and
//! every intrinsic sits inside a `#[target_feature]` function matching
//! the detected features.

#![allow(unsafe_code)]

use super::{PackedFixedDecoder, MAX_CN_DEGREE, PACK_LANES};
use crate::decoder::kernels::Scaling;
use crate::LlrQuantizer;
use std::arch::x86_64::*;

/// Bits per channel-load step.
const LOAD_BITS: usize = 16;

/// Whether the running CPU supports the mirror's instruction set.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("ssse3") && is_x86_feature_detected!("sse4.1")
}

impl PackedFixedDecoder {
    /// Runs one edge pass (and closes it) on the SSE4.1 path. Returns
    /// `false` (having done nothing) when the CPU lacks the required
    /// features, so the caller falls back to portable SWAR.
    pub(super) fn simd_pass(&mut self) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just confirmed ssse3 + sse4.1 on the
        // running CPU, which is exactly what the callees require.
        unsafe {
            self.pass_sse();
            self.finish_pass_sse();
        }
        true
    }

    /// Quantizes each `(lane, frame)` pair straight into its lane of the
    /// channel and total planes, 16 bits per step for all the frames at
    /// once. Returns how many leading bits it wrote — `0` without SSE4.1
    /// — so the caller finishes the rest on the portable path.
    pub(super) fn load_llrs_sse(&mut self, frames: &[(usize, &[f32])]) -> usize {
        if !available() {
            return 0;
        }
        // SAFETY: feature presence checked on the line above.
        unsafe { self.load_llrs_impl(frames) }
    }

    /// One pass over the planes per call: quantizes a 16-bit row of
    /// every loaded frame, transposes the 8 × 16 byte tile into lane
    /// words with three rounds of unpacks, and blends the loaded lanes
    /// into the channel word and the total of each bit.
    #[target_feature(enable = "ssse3,sse4.1")]
    fn load_llrs_impl(&mut self, frames: &[(usize, &[f32])]) -> usize {
        let n = self.code.n();
        let quantizer = QuantizerSse::new(&self.quantizer);
        let bias = _mm_set1_epi16(self.bias as i16);
        let lanes = frames.iter().fold(0u64, |m, &(f, _)| m | 0xFF << (8 * f));
        let mask8 = _mm_set1_epi64x(lanes as i64);
        let mask16 = _mm_cvtepi8_epi16(mask8);
        let ch = self.ch.as_mut_ptr().cast::<__m128i>();
        let t = self.t.as_mut_ptr().cast::<__m128i>();
        let steps = n / LOAD_BITS;
        for k in 0..steps {
            let b = k * LOAD_BITS;
            let mut rows = [_mm_setzero_si128(); PACK_LANES];
            for &(f, llrs) in frames {
                rows[f] = quantizer.quantize16(&llrs[b..b + LOAD_BITS]);
            }
            for (i, w) in transpose(rows).into_iter().enumerate() {
                // Word pair i covers bits b + 2i (low half) and b + 2i + 1.
                let (b0, b1) = (b + 2 * i, b + 2 * i + 1);
                let w0 = _mm_add_epi16(_mm_cvtepi8_epi16(w), bias);
                let w1 = _mm_add_epi16(_mm_cvtepi8_epi16(_mm_unpackhi_epi64(w, w)), bias);
                // SAFETY: b1 < b + 16 <= n, so the 16-byte channel pair at
                // word b0 and the 16-byte totals of bits b0 and b1 are in
                // bounds of their n-entry planes.
                unsafe {
                    blend_into(ch.cast::<u64>().add(b0).cast(), w, mask8);
                    blend_into(t.add(b0), w0, mask16);
                    blend_into(t.add(b1), w1, mask16);
                }
            }
        }
        steps * LOAD_BITS
    }

    /// The edge pass on 128-bit vectors: the accumulator preset to
    /// `bias + ch` (`pmovsxbw` + `paddw` per bit), then the edges.
    ///
    /// Inputs: `clamp(t[bit] − cb[e])` per edge — `pmovsxbw` widens the
    /// (keep-masked) message word, `psubw` takes it off the bit's total,
    /// and `packsswb` of two edges' `u − bias` followed by a byte clamp
    /// to `±msg_max` is the saturated extrinsic (the i8 saturation never
    /// cuts inside the `±msg_max` rail).
    ///
    /// Scan: sign product as the XOR of the raw input words (sign bits
    /// XOR in place), two-minimum as `min1' = pminub(min1, mag)`,
    /// `min2' = pminub(min2, pmaxub(min1, mag))` — value-identical to
    /// the strict-`<` scalar recurrence (ties keep the earlier argmin
    /// via the strict `pcmpgtb` blend). A check's edges are contiguous,
    /// so the scan walks them **two per 128-bit op**: edge `2p` in the
    /// low half, edge `2p+1` in the high half, each half carrying its own
    /// running two-minimum state. The halves merge at the end —
    /// combined `min1 = min(a, b)`,
    /// `min2 = min(max(min1_a, min1_b), min(min2_a, min2_b))`, and on a
    /// `min1` value tie the smaller edge index wins (`pminub` on the
    /// argmin lanes), which reproduces the scalar first-wins rule
    /// because the halves interleave even/odd edge positions.
    ///
    /// Outputs are stored in place and `paddw`-ed into the bits' next
    /// totals.
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) fn pass_sse(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let scaling = self.config.scaling;
        let msg_max = self.config.msg_max() as i8;
        let rail = (_mm_set1_epi8(msg_max), _mm_set1_epi8(-msg_max));
        let b16 = _mm_set1_epi16(self.bias as i16);
        let keep = _mm_set1_epi64x(self.cb_keep as i64);
        let seed = _mm_set1_epi8(0x7F);
        let zero = _mm_setzero_si128();
        // Edge indices of the first pair (0 in the low half, 1 in the
        // high half) and the step to the next pair.
        let first_pair = _mm_set_epi64x(0x0101_0101_0101_0101, 0);
        let two = _mm_set1_epi8(2);
        let t = self.t.as_ptr().cast::<__m128i>();
        let cb = self.cb.as_mut_ptr();
        let mut inputs = [zero; MAX_CN_DEGREE.div_ceil(2)];
        for (acc, &c) in self.acc.iter_mut().zip(&self.ch) {
            let preset = _mm_add_epi16(_mm_cvtepi8_epi16(load64(c)), b16);
            // SAFETY: `acc` is one bit's 16-byte total.
            unsafe { _mm_storeu_si128(acc.as_mut_ptr().cast(), preset) };
        }
        let acc = self.acc.as_mut_ptr().cast::<__m128i>();
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            let bits = graph.cn_bits(m);
            let (start, deg) = (range.start, range.len());
            let pairs = deg / 2;
            let mut sp = zero;
            let mut min1 = seed;
            let mut min2 = seed;
            let mut argmin = zero;
            let mut idx = first_pair;
            for p in 0..pairs {
                let (b0, b1) = (bits[2 * p] as usize, bits[2 * p + 1] as usize);
                // SAFETY: start + 2p + 1 < start + deg <= cb.len(), so
                // the 128-bit load covers two in-bounds words; b0 and b1
                // are bit indices < n = t.len().
                let val = unsafe {
                    let c = _mm_and_si128(_mm_loadu_si128(cb.add(start + 2 * p).cast()), keep);
                    let u0 = _mm_sub_epi16(_mm_loadu_si128(t.add(b0)), _mm_cvtepi8_epi16(c));
                    let c1 = _mm_cvtepi8_epi16(_mm_unpackhi_epi64(c, c));
                    let u1 = _mm_sub_epi16(_mm_loadu_si128(t.add(b1)), c1);
                    extrinsic(u0, u1, b16, rail)
                };
                inputs[p] = val;
                sp = _mm_xor_si128(sp, val);
                let mag = _mm_abs_epi8(val);
                // Strict mag < min1; signed compare is safe because every
                // lane is in 0..=127.
                let lt1 = _mm_cmpgt_epi8(min1, mag);
                min2 = _mm_min_epu8(min2, _mm_max_epu8(min1, mag));
                min1 = _mm_min_epu8(min1, mag);
                argmin = _mm_blendv_epi8(argmin, idx, lt1);
                idx = _mm_add_epi8(idx, two);
            }
            // Merge the two half-states (the combined multiset's two
            // smallest values and first-wins argmin; indices are
            // unsigned-comparable since degree <= 127).
            let min1_b = _mm_unpackhi_epi64(min1, min1);
            let min2_b = _mm_unpackhi_epi64(min2, min2);
            let argmin_b = _mm_unpackhi_epi64(argmin, argmin);
            let lt_b = _mm_cmpgt_epi8(min1, min1_b);
            let eq_b = _mm_cmpeq_epi8(min1, min1_b);
            argmin = _mm_blendv_epi8(argmin, argmin_b, lt_b);
            argmin = _mm_blendv_epi8(argmin, _mm_min_epu8(argmin, argmin_b), eq_b);
            min2 = _mm_min_epu8(_mm_max_epu8(min1, min1_b), _mm_min_epu8(min2, min2_b));
            min1 = _mm_min_epu8(min1, min1_b);
            let mut tail = zero;
            if deg % 2 == 1 {
                // Odd tail: absorb the last edge in the low half (the
                // high half stays zero, so the sign fold below is exact).
                let b = bits[deg - 1] as usize;
                let c = _mm_and_si128(load64(self.cb[start + deg - 1]), keep);
                // SAFETY: b is a bit index < n = t.len().
                let u = _mm_sub_epi16(unsafe { _mm_loadu_si128(t.add(b)) }, _mm_cvtepi8_epi16(c));
                tail = _mm_move_epi64(extrinsic(u, u, b16, rail));
                sp = _mm_xor_si128(sp, tail);
                let mag = _mm_abs_epi8(tail);
                let lt1 = _mm_cmpgt_epi8(min1, mag);
                min2 = _mm_min_epu8(min2, _mm_max_epu8(min1, mag));
                min1 = _mm_min_epu8(min1, mag);
                argmin = _mm_blendv_epi8(argmin, _mm_set1_epi8((deg - 1) as i8), lt1);
            }
            // Broadcast the folded low-half state to both halves for the
            // paired output pass. sp folds by XOR of its halves.
            sp = _mm_xor_si128(sp, _mm_unpackhi_epi64(sp, sp));
            sp = _mm_unpacklo_epi64(sp, sp);
            argmin = _mm_unpacklo_epi64(argmin, argmin);
            let s1 = scale_sse(_mm_unpacklo_epi64(min1, min1), scaling);
            let s2 = scale_sse(_mm_unpacklo_epi64(min2, min2), scaling);
            let state = CheckOut { sp, argmin, s1, s2 };
            let mut idx = first_pair;
            for (p, &val) in inputs[..pairs].iter().enumerate() {
                let (b0, b1) = (bits[2 * p] as usize, bits[2 * p + 1] as usize);
                let out = state.output(val, idx);
                idx = _mm_add_epi8(idx, two);
                // SAFETY: the same in-bounds edge pair and bit indices as
                // the scan above.
                unsafe {
                    _mm_storeu_si128(cb.add(start + 2 * p).cast(), out);
                    let o1 = _mm_cvtepi8_epi16(_mm_unpackhi_epi64(out, out));
                    add_into(acc.add(b0), _mm_cvtepi8_epi16(out));
                    add_into(acc.add(b1), o1);
                }
            }
            if deg % 2 == 1 {
                let out = state.output(tail, _mm_set1_epi8((deg - 1) as i8));
                self.cb[start + deg - 1] = store64(out);
                // SAFETY: a bit index < n = acc.len().
                unsafe { add_into(acc.add(bits[deg - 1] as usize), _mm_cvtepi8_epi16(out)) };
            }
        }
    }

    /// [`finish_pass`](Self::finish_pass) on 128-bit vectors: hard masks
    /// from the new totals, two bits per `packsswb`, and the planes
    /// swapped.
    #[target_feature(enable = "ssse3,sse4.1")]
    fn finish_pass_sse(&mut self) {
        let b16 = _mm_set1_epi16(self.bias as i16);
        let mut masks = self.hard_mask.chunks_exact_mut(2);
        let mut totals = self.acc.chunks_exact(2);
        for (mask, acc) in (&mut masks).zip(&mut totals) {
            // SAFETY: `acc` holds two bits' 16-byte totals and `mask` two
            // 8-byte words.
            unsafe {
                let h0 = _mm_cmpgt_epi16(b16, _mm_loadu_si128(acc[0].as_ptr().cast()));
                let h1 = _mm_cmpgt_epi16(b16, _mm_loadu_si128(acc[1].as_ptr().cast()));
                _mm_storeu_si128(mask.as_mut_ptr().cast(), _mm_packs_epi16(h0, h1));
            }
        }
        for (mask, acc) in masks.into_remainder().iter_mut().zip(totals.remainder()) {
            // SAFETY: `acc` is one bit's 16-byte total.
            let hard = _mm_cmpgt_epi16(b16, unsafe { _mm_loadu_si128(acc.as_ptr().cast()) });
            *mask = store64(_mm_packs_epi16(hard, hard));
        }
        std::mem::swap(&mut self.t, &mut self.acc);
        self.cb_keep = !0;
    }
}

/// A check's folded scan state, broadcast to both halves.
struct CheckOut {
    sp: __m128i,
    argmin: __m128i,
    s1: __m128i,
    s2: __m128i,
}

impl CheckOut {
    /// Outputs toward the edges at `idx` whose inputs were `val`:
    /// magnitude `s2` at the argmin and `s1` elsewhere, negated where the
    /// sign product XOR own input has its sign bit set (`psignb` on that
    /// XOR with bit 0 forced, so it is never zero).
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    fn output(&self, val: __m128i, idx: __m128i) -> __m128i {
        let mag = _mm_blendv_epi8(self.s1, self.s2, _mm_cmpeq_epi8(self.argmin, idx));
        let sign = _mm_or_si128(_mm_xor_si128(self.sp, val), _mm_set1_epi8(1));
        _mm_sign_epi8(mag, sign)
    }
}

/// Two edges' extrinsic inputs from their biased sums `u0`, `u1`:
/// `u − bias` narrowed with signed saturation (`packsswb`, edge 0 in the
/// low half) and clamped to the message rail `±msg_max`.
#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
fn extrinsic(u0: __m128i, u1: __m128i, b16: __m128i, rail: (__m128i, __m128i)) -> __m128i {
    let v = _mm_packs_epi16(_mm_sub_epi16(u0, b16), _mm_sub_epi16(u1, b16));
    _mm_max_epi8(_mm_min_epi8(v, rail.0), rail.1)
}

/// Transposes an 8 × 16 tile of bytes (row `f` = frame `f`, column `i`
/// = bit `b + i`) into lane words: afterwards the low half of word `i`
/// is bit `b + 2i`'s lane word (frame `f` in byte `f`), the high half
/// bit `b + 2i + 1`'s. Round 1 pairs frames (i16 elements), round 2
/// quads (i32), round 3 octets (i64).
#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
fn transpose(r: [__m128i; PACK_LANES]) -> [__m128i; PACK_LANES] {
    let t = [
        _mm_unpacklo_epi8(r[0], r[1]),
        _mm_unpackhi_epi8(r[0], r[1]),
        _mm_unpacklo_epi8(r[2], r[3]),
        _mm_unpackhi_epi8(r[2], r[3]),
        _mm_unpacklo_epi8(r[4], r[5]),
        _mm_unpackhi_epi8(r[4], r[5]),
        _mm_unpacklo_epi8(r[6], r[7]),
        _mm_unpackhi_epi8(r[6], r[7]),
    ];
    let u = [
        _mm_unpacklo_epi16(t[0], t[2]),
        _mm_unpackhi_epi16(t[0], t[2]),
        _mm_unpacklo_epi16(t[1], t[3]),
        _mm_unpackhi_epi16(t[1], t[3]),
        _mm_unpacklo_epi16(t[4], t[6]),
        _mm_unpackhi_epi16(t[4], t[6]),
        _mm_unpacklo_epi16(t[5], t[7]),
        _mm_unpackhi_epi16(t[5], t[7]),
    ];
    [
        _mm_unpacklo_epi32(u[0], u[4]),
        _mm_unpackhi_epi32(u[0], u[4]),
        _mm_unpacklo_epi32(u[1], u[5]),
        _mm_unpackhi_epi32(u[1], u[5]),
        _mm_unpacklo_epi32(u[2], u[6]),
        _mm_unpackhi_epi32(u[2], u[6]),
        _mm_unpacklo_epi32(u[3], u[7]),
        _mm_unpackhi_epi32(u[3], u[7]),
    ]
}

/// `*p = v` in the byte lanes `mask` selects, `*p` kept elsewhere.
///
/// # Safety
///
/// `p` must point at 16 readable and writable bytes.
#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
unsafe fn blend_into(p: *mut __m128i, v: __m128i, mask: __m128i) {
    // SAFETY: the caller guarantees `p` covers 16 valid bytes.
    unsafe { _mm_storeu_si128(p, _mm_blendv_epi8(_mm_loadu_si128(p), v, mask)) };
}

/// `*p += v` on eight i16 lanes.
///
/// # Safety
///
/// `p` must point at 16 readable and writable bytes.
#[inline]
#[target_feature(enable = "ssse3,sse4.1")]
unsafe fn add_into(p: *mut __m128i, v: __m128i) {
    // SAFETY: the caller guarantees `p` covers 16 valid bytes.
    unsafe { _mm_storeu_si128(p, _mm_add_epi16(_mm_loadu_si128(p), v)) };
}

/// [`LlrQuantizer::quantize`] on four `f32` lanes at a time, bit-exact
/// for every input (NaN → 0 like the scalar `as` cast, ±inf saturate).
struct QuantizerSse {
    step: __m128,
    max: __m128,
    neg_max: __m128,
}

impl QuantizerSse {
    #[target_feature(enable = "sse4.1")]
    fn new(q: &LlrQuantizer) -> Self {
        let max = f32::from(q.max_level());
        Self {
            step: _mm_set1_ps(q.step()),
            max: _mm_set1_ps(max),
            neg_max: _mm_set1_ps(-max),
        }
    }

    /// Quantizes four LLRs into i32 lanes.
    ///
    /// The scalar rule is `round(x / step)` (half away from zero), then
    /// clamp to `±max`. The clamp bounds are integers, so clamping
    /// first gives the same level, and within `±max` (far below 2²³)
    /// `trunc(x + copysign(0.5 − 2⁻²⁵, x))` is exactly that rounding:
    /// the addend just below one half never rounds a value under a
    /// half-step up, and at an exact half-step the sum rounds (ties to
    /// even) onto the next integer.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn quantize4(&self, llr: __m128) -> __m128i {
        let x = _mm_div_ps(llr, self.step);
        // NaN lanes compare unordered with themselves: zero them.
        let x = _mm_and_ps(x, _mm_cmpord_ps(x, x));
        let x = _mm_min_ps(_mm_max_ps(x, self.neg_max), self.max);
        let sign = _mm_and_ps(x, _mm_set1_ps(-0.0));
        let half = _mm_or_ps(_mm_set1_ps(0.5 - f32::EPSILON / 4.0), sign);
        _mm_cvttps_epi32(_mm_add_ps(x, half))
    }

    /// Quantizes 16 LLRs into 16 i8 lanes (the quantizer range of the
    /// packed datapath fits a byte, so both narrows are exact).
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn quantize16(&self, llrs: &[f32]) -> __m128i {
        assert_eq!(llrs.len(), LOAD_BITS);
        let p = llrs.as_ptr();
        // SAFETY: `llrs` holds 16 floats, so the four 4-lane loads at
        // offsets 0, 4, 8 and 12 are in bounds.
        let (a, b, c, d) = unsafe {
            (
                _mm_loadu_ps(p),
                _mm_loadu_ps(p.add(4)),
                _mm_loadu_ps(p.add(8)),
                _mm_loadu_ps(p.add(12)),
            )
        };
        let lo = _mm_packs_epi32(self.quantize4(a), self.quantize4(b));
        let hi = _mm_packs_epi32(self.quantize4(c), self.quantize4(d));
        _mm_packs_epi16(lo, hi)
    }
}

/// Loads one 8-lane message word into the low half of a vector.
#[inline]
#[target_feature(enable = "sse2")]
fn load64(w: u64) -> __m128i {
    _mm_cvtsi64_si128(w as i64)
}

/// Stores the low half of a vector back to an 8-lane message word.
#[inline]
#[target_feature(enable = "sse2")]
fn store64(v: __m128i) -> u64 {
    _mm_cvtsi128_si64(v) as u64
}

/// [`Scaling::apply`] on byte lanes in `0..=127`: shift the 16-bit
/// lanes and mask off the bits dragged across byte boundaries.
#[target_feature(enable = "ssse3,sse4.1")]
fn scale_sse(mag: __m128i, scaling: Scaling) -> __m128i {
    match scaling {
        Scaling::Unity => mag,
        Scaling::SevenEighths => _mm_sub_epi8(
            mag,
            _mm_and_si128(_mm_srli_epi16(mag, 3), _mm_set1_epi8(0x1F)),
        ),
        Scaling::ThreeQuarters => _mm_sub_epi8(
            mag,
            _mm_and_si128(_mm_srli_epi16(mag, 2), _mm_set1_epi8(0x3F)),
        ),
        Scaling::Half => _mm_and_si128(_mm_srli_epi16(mag, 1), _mm_set1_epi8(0x7F)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quantizes four LLRs through the vector kernel.
    #[target_feature(enable = "sse4.1")]
    fn quantize4_lanes(q: &QuantizerSse, x: [f32; 4]) -> [i32; 4] {
        // SAFETY: both arrays hold exactly four 32-bit lanes.
        unsafe {
            let v = q.quantize4(_mm_loadu_ps(x.as_ptr()));
            let mut out = [0i32; 4];
            _mm_storeu_si128(out.as_mut_ptr().cast(), v);
            out
        }
    }

    /// Every `f32` bit pattern through the vector quantizer against
    /// [`LlrQuantizer::quantize`], for the default channel quantizer
    /// and the narrowest and widest the packed datapath accepts.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs: run with --release -- --ignored"]
    fn vector_quantizer_matches_scalar_on_every_f32() {
        if !available() {
            println!("note: no SSE4.1 on this host; vector quantizer not checked");
            return;
        }
        for (bits, step) in [(5, 0.5), (3, 0.5), (8, 0.125)] {
            let scalar = LlrQuantizer::new(bits, step);
            // SAFETY: SSE4.1 presence checked at the top of the test.
            let vector = unsafe { QuantizerSse::new(&scalar) };
            for hi in 0..=u32::MAX >> 2 {
                let x = std::array::from_fn(|i| f32::from_bits(hi << 2 | i as u32));
                // SAFETY: as above.
                let got = unsafe { quantize4_lanes(&vector, x) };
                for (i, &v) in x.iter().enumerate() {
                    assert_eq!(
                        got[i],
                        i32::from(scalar.quantize(v)),
                        "input {v:e} ({:#010x}), {bits}-bit step {step}",
                        v.to_bits()
                    );
                }
            }
        }
    }
}

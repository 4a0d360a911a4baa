//! SSE4.1 mirror of the packed SWAR phases and of the per-call channel
//! load, compiled on every `x86_64` build.
//!
//! Same buffers, same algorithm, same results bit for bit — but the
//! check-node two-minimum scan runs on native byte-lane vector ops
//! (`pabsb`/`pminub`/`pmaxub`/`pblendvb`) and the bit-node accumulator
//! holds all 8 frames' biased sums in one register of eight i16 lanes
//! (`pmovsxbw` widening, `packsswb` narrowing), replacing the multi-op
//! SWAR emulations with single instructions. The channel load quantizes
//! 16 bits of every frame per step and transposes the 8 × 16 byte tile
//! into lane words with three rounds of unpacks. Selected at runtime via
//! `is_x86_feature_detected!`; a host without SSE4.1 falls back to the
//! portable kernels.
//!
//! This is the one module in the crate allowed to contain `unsafe`: the
//! entry points below are guarded by the runtime feature check, and
//! every intrinsic sits inside a `#[target_feature]` function matching
//! the detected features.

#![allow(unsafe_code)]

use super::{PackedFixedDecoder, MAX_BN_DEGREE};
use crate::decoder::kernels::Scaling;
use crate::LlrQuantizer;
use std::arch::x86_64::*;

/// Bits per channel-load step: one 16-byte row per frame.
const LOAD_BITS: usize = 16;

/// Whether the running CPU supports the mirror's instruction set.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("ssse3") && is_x86_feature_detected!("sse4.1")
}

impl PackedFixedDecoder {
    /// Runs one check-node + bit-node iteration on the SSE4.1 path.
    /// Returns `false` (having done nothing) when the CPU lacks the
    /// required features, so the caller falls back to portable SWAR.
    pub(super) fn simd_phases(&mut self) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just confirmed ssse3 + sse4.1 on the
        // running CPU, which is exactly what the callee requires.
        unsafe { self.phases_sse() };
        true
    }

    /// Quantizes the first `frames` frames of `llrs` straight into the
    /// channel lane planes, 16 bits at a time. Returns how many leading
    /// bits it wrote — `0` without SSE4.1 — so the caller finishes the
    /// rest on the portable path.
    pub(super) fn load_llrs_sse(&mut self, llrs: &[f32], frames: usize) -> usize {
        if !available() {
            return 0;
        }
        // SAFETY: feature presence checked on the line above.
        unsafe { self.load_llrs_impl(llrs, frames) }
    }

    #[target_feature(enable = "ssse3,sse4.1")]
    fn load_llrs_impl(&mut self, llrs: &[f32], frames: usize) -> usize {
        let n = self.code.n();
        let quantizer = QuantizerSse::new(&self.quantizer);
        let steps = n / LOAD_BITS;
        for k in 0..steps {
            let b = k * LOAD_BITS;
            // Absent frames stay at channel 0, like the portable load.
            let mut rows = [_mm_setzero_si128(); 8];
            for (f, row) in rows.iter_mut().enumerate().take(frames) {
                *row = quantizer.quantize16(&llrs[f * n + b..f * n + b + LOAD_BITS]);
            }
            self.store_tile(b, rows);
        }
        steps * LOAD_BITS
    }

    /// Transposes an 8 × 16 tile of quantized channel bytes (row `f` =
    /// frame `f`, column `i` = bit `b + i`) into the lane words of bits
    /// `b..b + 16` and writes all three channel planes for them.
    #[target_feature(enable = "ssse3,sse4.1")]
    fn store_tile(&mut self, b: usize, r: [__m128i; 8]) {
        // Round 1 pairs frames (i16 elements), round 2 quads (i32),
        // round 3 octets (i64): afterwards word `j` of `words[i]` is bit
        // `b + 2i + j`'s lane word, frame f in byte f.
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
        let words = [
            _mm_unpacklo_epi32(u[0], u[4]),
            _mm_unpackhi_epi32(u[0], u[4]),
            _mm_unpacklo_epi32(u[1], u[5]),
            _mm_unpackhi_epi32(u[1], u[5]),
            _mm_unpacklo_epi32(u[2], u[6]),
            _mm_unpackhi_epi32(u[2], u[6]),
            _mm_unpacklo_epi32(u[3], u[7]),
            _mm_unpackhi_epi32(u[3], u[7]),
        ];
        let msg_max = _mm_set1_epi8(self.config.msg_max() as i8);
        let neg_msg_max = _mm_set1_epi8(-self.config.msg_max() as i8);
        let bias = _mm_set1_epi16(self.bias as i16);
        let sat = &mut self.ch_sat[b..b + LOAD_BITS];
        let even = &mut self.chb_even[b..b + LOAD_BITS];
        let odd = &mut self.chb_odd[b..b + LOAD_BITS];
        for (i, w) in words.into_iter().enumerate() {
            // Saturate to the message width; widen the even / odd byte
            // lanes (sign-extending) into the biased u16 planes.
            let s = _mm_max_epi8(_mm_min_epi8(w, msg_max), neg_msg_max);
            let e = _mm_add_epi16(_mm_srai_epi16(_mm_slli_epi16(w, 8), 8), bias);
            let o = _mm_add_epi16(_mm_srai_epi16(w, 8), bias);
            // SAFETY: each plane slice holds 16 words, so words 2i and
            // 2i + 1 (i < 8) are in bounds for one 128-bit store.
            unsafe {
                _mm_storeu_si128(sat.as_mut_ptr().add(2 * i).cast(), s);
                _mm_storeu_si128(even.as_mut_ptr().add(2 * i).cast(), e);
                _mm_storeu_si128(odd.as_mut_ptr().add(2 * i).cast(), o);
            }
        }
    }

    /// One full iteration (cn + bn phases) on 128-bit vectors.
    #[target_feature(enable = "ssse3,sse4.1")]
    fn phases_sse(&mut self) {
        self.cn_phase_sse();
        self.bn_phase_sse();
    }

    /// Check-node phase: sign product as the XOR of the raw signed
    /// words (sign bits XOR in place), two-minimum scan as
    /// `min1' = pminub(min1, mag)`,
    /// `min2' = pminub(min2, pmaxub(min1, mag))` — value-identical to
    /// the strict-`<` scalar recurrence (ties keep the earlier argmin
    /// via the strict `pcmpgtb` blend).
    ///
    /// A check's edges are contiguous in the message arrays, so the
    /// scan walks them **two per 128-bit op**: edge `2p` in the low
    /// half, edge `2p+1` in the high half, each half carrying its own
    /// running two-minimum state. The halves merge at the end —
    /// combined `min1 = min(a, b)`,
    /// `min2 = min(max(min1_a, min1_b), min(min2_a, min2_b))`, and on a
    /// `min1` value tie the smaller edge index wins (`pminub` on the
    /// argmin lanes), which reproduces the scalar first-wins rule
    /// because the halves interleave even/odd edge positions.
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) fn cn_phase_sse(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let scaling = self.config.scaling;
        let seed = _mm_set1_epi8(0x7F);
        let zero = _mm_setzero_si128();
        // Byte 0 in the low half, 1 in the high half: offsets of the two
        // edges a pair op covers, relative to index `2p`.
        let lane_off = _mm_set_epi64x(0x0101_0101_0101_0101, 0);
        let bc = self.bc.as_ptr();
        let cb = self.cb.as_mut_ptr();
        for m in 0..graph.n_checks() {
            let range = graph.cn_edge_range(m);
            let (start, deg) = (range.start, range.len());
            let pairs = deg / 2;
            let mut sp = zero;
            let mut min1 = seed;
            let mut min2 = seed;
            let mut argmin = zero;
            for p in 0..pairs {
                // SAFETY: start + 2p + 1 < start + deg <= bc.len(), so
                // the 128-bit load covers two in-bounds words.
                let val = unsafe { _mm_loadu_si128(bc.add(start + 2 * p).cast()) };
                sp = _mm_xor_si128(sp, val);
                let mag = _mm_abs_epi8(val);
                let idx = _mm_add_epi8(_mm_set1_epi8((2 * p) as i8), lane_off);
                // Strict mag < min1; signed compare is safe because every
                // lane is in 0..=127.
                let lt1 = _mm_cmpgt_epi8(min1, mag);
                min2 = _mm_min_epu8(min2, _mm_max_epu8(min1, mag));
                min1 = _mm_min_epu8(min1, mag);
                argmin = _mm_blendv_epi8(argmin, idx, lt1);
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
            if deg % 2 == 1 {
                // Odd tail: absorb the last edge in the low half.
                let val = load64(self.bc[start + deg - 1]);
                sp = _mm_xor_si128(sp, val);
                let mag = _mm_abs_epi8(val);
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
            for p in 0..pairs {
                let e = start + 2 * p;
                // SAFETY: same in-bounds pair as the scan above.
                let val = unsafe { _mm_loadu_si128(bc.add(e).cast()) };
                let idx = _mm_add_epi8(_mm_set1_epi8((2 * p) as i8), lane_off);
                let eq = _mm_cmpeq_epi8(argmin, idx);
                let mag = _mm_blendv_epi8(s1, s2, eq);
                // Output sign mask = sign bits of (sign product XOR own
                // sign); re-sign by conditional two's complement.
                let neg = _mm_cmpgt_epi8(zero, _mm_xor_si128(sp, val));
                let out = _mm_sub_epi8(_mm_xor_si128(mag, neg), neg);
                // SAFETY: writes the same two in-bounds words.
                unsafe { _mm_storeu_si128(cb.add(e).cast(), out) };
            }
            if deg % 2 == 1 {
                let e = start + deg - 1;
                let eq = _mm_cmpeq_epi8(argmin, _mm_set1_epi8((deg - 1) as i8));
                let mag = _mm_blendv_epi8(s1, s2, eq);
                let neg = _mm_cmpgt_epi8(zero, _mm_xor_si128(sp, load64(self.bc[e])));
                self.cb[e] = store64(_mm_sub_epi8(_mm_xor_si128(mag, neg), neg));
            }
        }
    }

    /// Bit-node phase: all 8 frames' biased sums in one register of
    /// eight i16 lanes. Each edge's contribution is one sign-extending
    /// widen of the signed message word (`pmovsxbw`), cached so the
    /// exclude-self pass is a single `psubw`; the output clamps to the
    /// signed message range and narrows with `packsswb`.
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) fn bn_phase_sse(&mut self) {
        let code = self.code.clone();
        let graph = code.graph();
        let b16 = _mm_set1_epi16(self.bias as i16);
        let m16 = _mm_set1_epi16(self.config.msg_max());
        let neg_m16 = _mm_set1_epi16(-self.config.msg_max());
        let mut contrib = [_mm_setzero_si128(); MAX_BN_DEGREE];
        for n in 0..graph.n_bits() {
            let edges = graph.bn_edge_ids(n);
            // Interleave the even/odd-frame u16 lane words into frame
            // order: [f0 f1 f2 f3 f4 f5 f6 f7]. Lanes stay in
            // 0..=2·bias <= 0x7FFF, so i16 arithmetic is exact.
            let mut t = _mm_unpacklo_epi16(load64(self.chb_even[n]), load64(self.chb_odd[n]));
            for (i, &e) in edges.iter().enumerate() {
                let c = _mm_cvtepi8_epi16(load64(self.cb[e as usize]));
                contrib[i] = c;
                t = _mm_add_epi16(t, c);
            }
            for (i, &e) in edges.iter().enumerate() {
                let u = _mm_sub_epi16(t, contrib[i]);
                // Signed extrinsic value = u - bias; saturate to the
                // message range, then the signed narrow is exact.
                let v = _mm_sub_epi16(u, b16);
                let clamped = _mm_max_epi16(_mm_min_epi16(v, m16), neg_m16);
                self.bc[e as usize] = store64(_mm_packs_epi16(clamped, clamped));
            }
            // Hard decision: posterior < 0 iff biased total < bias.
            let hard = _mm_cmpgt_epi16(b16, t);
            self.hard_mask[n] = store64(_mm_packs_epi16(hard, hard));
        }
    }
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

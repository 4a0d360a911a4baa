//! SSE4.1 tier of the packed edge pass and the per-lane channel load,
//! compiled on every `x86_64` build.
//!
//! Same buffers, same algorithm, same results bit for bit — but each
//! bit's posterior total is one register of eight i16 lanes
//! (`pmovsxbw` widens a message word into it, `packsswb` narrows the
//! extrinsic input back to bytes), and the check-node two-minimum scan
//! runs on native byte-lane ops (`pabsb`/`pminub`/`pmaxub`/`pblendvb`),
//! replacing the multi-op SWAR emulations with single instructions.
//! The lane load quantizes 16 bits of every loaded frame per step and
//! transposes the 8 × 16 byte tile into lane words in registers.
//!
//! The check-level pieces here — the per-qword [`Scan`] state with its
//! merge rule, the pair and odd-last-edge steps, the preset and the hard
//! masks — also finish the AVX2 tier's checks and planes.
//!
//! Like [`avx2`](super::avx2), this module may contain `unsafe`: the
//! safe entry points check the CPU features at runtime, and every
//! intrinsic sits inside a `#[target_feature]` function matching them.

#![allow(unsafe_code)]

use super::{PackedFixedDecoder, Wide, MAX_CN_DEGREE, PACK_LANES};
use crate::decoder::kernels::Scaling;
use crate::LlrQuantizer;
use std::arch::x86_64::*;

/// Bits per channel-load step.
const LOAD_BITS: usize = 16;

/// Whether the running CPU supports this tier's instruction set.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("ssse3") && is_x86_feature_detected!("sse4.1")
}

impl PackedFixedDecoder {
    /// Runs one edge pass (and closes it) on the SSE4.1 tier.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks SSE4.1 (the tier is only picked where it
    /// is detected).
    pub(super) fn pass_sse41(&mut self) {
        assert!(available(), "SSE4.1 tier on a CPU without SSE4.1");
        // SAFETY: ssse3 + sse4.1 confirmed on the running CPU just above,
        // which is exactly what the callees require.
        unsafe {
            self.pass_sse();
            self.finish_pass_sse();
        }
    }

    /// Quantizes each `(lane, frame)` pair straight into its lane of the
    /// channel and total planes, 16 bits per step for all the frames at
    /// once. Returns how many leading bits it wrote, so the caller
    /// finishes the rest on the portable path.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks SSE4.1.
    pub(super) fn load_llrs_sse(&mut self, frames: &[(usize, &[f32])]) -> usize {
        assert!(available(), "SSE4.1 tier on a CPU without SSE4.1");
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
    /// `bias + ch`, then the edges of each check **two per op** — edge
    /// `2p` in the low half, `2p + 1` in the high half, each half
    /// keeping its own [`Scan`] state until the two merge — then the
    /// outputs.
    #[target_feature(enable = "ssse3,sse4.1")]
    fn pass_sse(&mut self) {
        preset(self.bias, &mut self.acc, &self.ch);
        let code = self.code.clone();
        let graph = code.graph();
        let ctx = EdgePass::new(self);
        let mut inputs = [_mm_setzero_si128(); MAX_CN_DEGREE / 2];
        for m in 0..graph.n_checks() {
            let start = graph.cn_edge_range(m).start;
            let bits = graph.cn_bits(m);
            let pairs = bits.len() / 2;
            let bit = |i: usize| bits[i] as usize;
            let mut scan = Scan::seed();
            for (p, input) in inputs[..pairs].iter_mut().enumerate() {
                let e = 2 * p;
                // SAFETY: edges `start + e` and `start + e + 1` are the
                // check's, so in bounds of `cb`; bits index the planes.
                let val = unsafe { ctx.pair_input(start + e, bit(e), bit(e + 1)) };
                *input = val;
                scan.absorb(val);
            }
            let mut scan = scan.fold();
            // SAFETY: the check's edges index `cb`, its bits the planes.
            let last = unsafe { ctx.scan_last(&mut scan, start, bits) };
            let out = scan.finish(ctx.scaling);
            for (p, &val) in inputs[..pairs].iter().enumerate() {
                let e = 2 * p;
                // SAFETY: the same edges and bits as the scan.
                unsafe { ctx.store_pair(start + e, bit(e), bit(e + 1), out.output(val)) };
            }
            // SAFETY: as above.
            unsafe { ctx.store_last(&out, start, bits, last) };
        }
    }

    /// [`finish_pass`](Self::finish_pass) on 128-bit vectors: hard masks
    /// from the new totals, two bits per `packsswb`, and the planes
    /// swapped.
    #[target_feature(enable = "ssse3,sse4.1")]
    fn finish_pass_sse(&mut self) {
        hard_masks(self.bias, &mut self.hard_mask, &self.acc);
        std::mem::swap(&mut self.t, &mut self.acc);
        self.cb_keep = !0;
    }
}

/// Presets each bit's accumulator to `bias + ch` (`pmovsxbw` + `paddw`
/// per bit).
#[target_feature(enable = "ssse3,sse4.1")]
pub(super) fn preset(bias: u16, acc: &mut [Wide], ch: &[u64]) {
    let b16 = _mm_set1_epi16(bias as i16);
    for (acc, &c) in acc.iter_mut().zip(ch) {
        let v = _mm_add_epi16(_mm_cvtepi8_epi16(load64(c)), b16);
        // SAFETY: `acc` is one bit's 16-byte total.
        unsafe { _mm_storeu_si128(acc.as_mut_ptr().cast(), v) };
    }
}

/// Hard-decision masks from biased totals (`0xFF` lanes where the
/// total is below the bias), two bits per `packsswb`.
#[target_feature(enable = "ssse3,sse4.1")]
pub(super) fn hard_masks(bias: u16, masks: &mut [u64], totals: &[Wide]) {
    let b16 = _mm_set1_epi16(bias as i16);
    let mut mask_pairs = masks.chunks_exact_mut(2);
    let mut total_pairs = totals.chunks_exact(2);
    for (mask, acc) in (&mut mask_pairs).zip(&mut total_pairs) {
        // SAFETY: `acc` holds two bits' 16-byte totals and `mask` two
        // 8-byte words.
        unsafe {
            let h0 = _mm_cmpgt_epi16(b16, _mm_loadu_si128(acc[0].as_ptr().cast()));
            let h1 = _mm_cmpgt_epi16(b16, _mm_loadu_si128(acc[1].as_ptr().cast()));
            _mm_storeu_si128(mask.as_mut_ptr().cast(), _mm_packs_epi16(h0, h1));
        }
    }
    let rest = mask_pairs.into_remainder();
    for (mask, acc) in rest.iter_mut().zip(total_pairs.remainder()) {
        // SAFETY: `acc` is one bit's 16-byte total.
        let hard = _mm_cmpgt_epi16(b16, unsafe { _mm_loadu_si128(acc.as_ptr().cast()) });
        *mask = store64(_mm_packs_epi16(hard, hard));
    }
}

/// One edge pass's constants and plane pointers: what scanning and
/// writing back a run of a check's edges needs, on either vector tier.
pub(super) struct EdgePass {
    /// Totals the pass reads (one 16-byte register per bit).
    pub(super) t: *const __m128i,
    /// Totals the pass accumulates.
    pub(super) acc: *mut __m128i,
    /// Check→bit message words, written in place.
    pub(super) cb: *mut u64,
    b16: __m128i,
    keep: __m128i,
    rail: (__m128i, __m128i),
    pub(super) scaling: Scaling,
}

impl EdgePass {
    /// Captures the decoder's planes for one pass. The pointers stay
    /// valid while the decoder is not otherwise touched.
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) fn new(dec: &mut PackedFixedDecoder) -> Self {
        let msg_max = dec.config.msg_max() as i8;
        Self {
            t: dec.t.as_ptr().cast(),
            acc: dec.acc.as_mut_ptr().cast(),
            cb: dec.cb.as_mut_ptr(),
            b16: _mm_set1_epi16(dec.bias as i16),
            keep: _mm_set1_epi64x(dec.cb_keep as i64),
            rail: (_mm_set1_epi8(msg_max), _mm_set1_epi8(-msg_max)),
            scaling: dec.config.scaling,
        }
    }

    /// Inputs `clamp(t[bit] − cb[e])` of edges `e` (low half, toward
    /// bit `b0`) and `e + 1` (high half, toward `b1`): `pmovsxbw` widens
    /// the keep-masked message words, `psubw` takes them off the bits'
    /// totals, and [`extrinsic`] narrows and rails them.
    ///
    /// # Safety
    ///
    /// `e + 1 < cb.len()`, and `b0`, `b1` are bit indices of the planes.
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) unsafe fn pair_input(&self, e: usize, b0: usize, b1: usize) -> __m128i {
        // SAFETY: the 128-bit load covers words e and e + 1, and each
        // total is one bit's 16 bytes (caller).
        unsafe {
            let c = _mm_and_si128(_mm_loadu_si128(self.cb.add(e).cast()), self.keep);
            let u0 = _mm_sub_epi16(_mm_loadu_si128(self.t.add(b0)), _mm_cvtepi8_epi16(c));
            let c1 = _mm_cvtepi8_epi16(_mm_unpackhi_epi64(c, c));
            let u1 = _mm_sub_epi16(_mm_loadu_si128(self.t.add(b1)), c1);
            extrinsic(u0, u1, self.b16, self.rail)
        }
    }

    /// Writes edges `e` and `e + 1`'s outputs `o` (low and high half) to
    /// `cb` in place and `paddw`s them into bits `b0` and `b1`'s
    /// accumulators.
    ///
    /// # Safety
    ///
    /// As for [`pair_input`](Self::pair_input).
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) unsafe fn store_pair(&self, e: usize, b0: usize, b1: usize, o: __m128i) {
        // SAFETY: in bounds as the caller guarantees.
        unsafe {
            _mm_storeu_si128(self.cb.add(e).cast(), o);
            add_into(self.acc.add(b0), _mm_cvtepi8_epi16(o));
            add_into(
                self.acc.add(b1),
                _mm_cvtepi8_epi16(_mm_unpackhi_epi64(o, o)),
            );
        }
    }

    /// For a check of odd degree (edges from `cb` index `start`, bits
    /// `bits`), absorbs its last edge into `scan`'s low half — after
    /// the fold, so only the low state is used from here on, and the
    /// input's high half is zero — and returns that input.
    ///
    /// # Safety
    ///
    /// `start + bits.len() <= cb.len()`, and `bits` are bit indices of
    /// the planes.
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) unsafe fn scan_last(
        &self,
        scan: &mut Scan,
        start: usize,
        bits: &[u32],
    ) -> Option<__m128i> {
        let deg = bits.len();
        if deg.is_multiple_of(2) {
            return None;
        }
        // SAFETY: edge `start + deg - 1` is the check's last (caller).
        let (w, t) = unsafe {
            (
                *self.cb.add(start + deg - 1),
                _mm_loadu_si128(self.t.add(bits[deg - 1] as usize)),
            )
        };
        let u = _mm_sub_epi16(t, _mm_cvtepi8_epi16(_mm_and_si128(load64(w), self.keep)));
        let val = _mm_move_epi64(extrinsic(u, u, self.b16, self.rail));
        scan.absorb(val);
        Some(val)
    }

    /// Writes the output toward the last edge of an odd-degree check,
    /// whose input [`scan_last`](Self::scan_last) returned.
    ///
    /// # Safety
    ///
    /// As for [`scan_last`](Self::scan_last).
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) unsafe fn store_last(
        &self,
        out: &CheckOut,
        start: usize,
        bits: &[u32],
        last: Option<__m128i>,
    ) {
        let Some(val) = last else { return };
        let e = bits.len() - 1;
        let o = out.output(val);
        // SAFETY: the check's last edge and bit (caller).
        unsafe {
            *self.cb.add(start + e) = store64(o);
            add_into(self.acc.add(bits[e] as usize), _mm_cvtepi8_epi16(o));
        }
    }
}

/// A check's running two-minimum scan, one independent state per qword:
/// over the edges that qword absorbed, the XOR of their inputs (sign
/// bits carry the sign product) and their two smallest magnitudes.
///
/// Absorbing is `min1' = pminub(min1, mag)`,
/// `min2' = pminub(min2, pmaxub(min1, mag))` — the two smallest of the
/// magnitudes seen, in any order. The seed `min1 = min2 = 127` is
/// neutral: magnitudes never exceed 127, and a check has at least two
/// edges, so the merged `min2` is a real magnitude.
///
/// No edge index is tracked. The scalar kernel gives `min2` to its
/// first edge of magnitude `min1` and `min1` to the others; the vector
/// tiers give `min2` to **every** edge whose input magnitude equals
/// `min1`. The two agree: an edge of magnitude `min1` other than the
/// first exists only if `min1` occurs twice, and then `min2 = min1`.
#[derive(Clone, Copy)]
pub(super) struct Scan {
    pub(super) sp: __m128i,
    pub(super) min1: __m128i,
    pub(super) min2: __m128i,
}

impl Scan {
    /// The empty state.
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) fn seed() -> Self {
        Self {
            sp: _mm_setzero_si128(),
            min1: _mm_set1_epi8(0x7F),
            min2: _mm_set1_epi8(0x7F),
        }
    }

    /// Absorbs the inputs `val` of one edge per qword.
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) fn absorb(&mut self, val: __m128i) {
        self.sp = _mm_xor_si128(self.sp, val);
        let mag = _mm_abs_epi8(val);
        self.min2 = _mm_min_epu8(self.min2, _mm_max_epu8(self.min1, mag));
        self.min1 = _mm_min_epu8(self.min1, mag);
    }

    /// The state of the union of two disjoint edge sets, qword by qword:
    /// the XOR of the sign products, and `min1 = min(min1_a, min1_b)`,
    /// `min2 = min(max(min1_a, min1_b), min(min2_a, min2_b))` — the two
    /// smallest of the combined multiset of magnitudes. It depends on
    /// no edge order, so it is exact for **any** partition of a check's
    /// edges, interleaved or not.
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) fn merge(self, b: Self) -> Self {
        Self {
            sp: _mm_xor_si128(self.sp, b.sp),
            min1: _mm_min_epu8(self.min1, b.min1),
            min2: _mm_min_epu8(
                _mm_max_epu8(self.min1, b.min1),
                _mm_min_epu8(self.min2, b.min2),
            ),
        }
    }

    /// Merges the high qword's state into the low qword's.
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) fn fold(self) -> Self {
        let hi = |v| _mm_unpackhi_epi64(v, v);
        self.merge(Self {
            sp: hi(self.sp),
            min1: hi(self.min1),
            min2: hi(self.min2),
        })
    }

    /// The low qword's final state, scaled and broadcast to both halves.
    /// Scaling commutes with the excluded-self select, so the two
    /// minima are scaled once per check instead of once per edge.
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) fn finish(self, scaling: Scaling) -> CheckOut {
        let lo = |v| _mm_unpacklo_epi64(v, v);
        CheckOut {
            sp: lo(self.sp),
            min1: lo(self.min1),
            s1: scale_sse(lo(self.min1), scaling),
            s2: scale_sse(lo(self.min2), scaling),
        }
    }
}

/// A check's folded scan state, broadcast to both halves.
pub(super) struct CheckOut {
    pub(super) sp: __m128i,
    pub(super) min1: __m128i,
    pub(super) s1: __m128i,
    pub(super) s2: __m128i,
}

impl CheckOut {
    /// Outputs toward the edges whose inputs were `val`: magnitude `s2`
    /// where the input magnitude is `min1` and `s1` elsewhere (see
    /// [`Scan`] for why that is the scalar excluded-self select),
    /// negated where the sign product XOR own input has its sign bit set
    /// (`psignb` on that XOR with bit 0 forced, so it is never zero).
    #[inline]
    #[target_feature(enable = "ssse3,sse4.1")]
    pub(super) fn output(&self, val: __m128i) -> __m128i {
        let at_min = _mm_cmpeq_epi8(self.min1, _mm_abs_epi8(val));
        let mag = _mm_blendv_epi8(self.s1, self.s2, at_min);
        let sign = _mm_or_si128(_mm_xor_si128(self.sp, val), _mm_set1_epi8(1));
        _mm_sign_epi8(mag, sign)
    }
}

/// Two edges' extrinsic inputs from their biased sums `u0`, `u1`:
/// `u − bias` narrowed with signed saturation (`packsswb`, edge 0 in the
/// low half) and clamped to the message rail `±msg_max` (the i8
/// saturation never cuts inside the rail).
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
pub(super) unsafe fn blend_into(p: *mut __m128i, v: __m128i, mask: __m128i) {
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
pub(super) unsafe fn add_into(p: *mut __m128i, v: __m128i) {
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
    use super::super::avx2::{self, QuantizerAvx2};
    use super::*;

    /// Quantizes eight LLRs through the SSE4.1 kernel, four at a time.
    #[target_feature(enable = "sse4.1")]
    fn quantize4_lanes(q: &QuantizerSse, x: [f32; 8]) -> [i32; 8] {
        let mut out = [0i32; 8];
        for (x, out) in x.chunks_exact(4).zip(out.chunks_exact_mut(4)) {
            // SAFETY: both chunks hold exactly four 32-bit lanes.
            unsafe {
                let v = q.quantize4(_mm_loadu_ps(x.as_ptr()));
                _mm_storeu_si128(out.as_mut_ptr().cast(), v);
            }
        }
        out
    }

    /// Quantizes eight LLRs through the AVX2 kernel.
    #[target_feature(enable = "avx2")]
    fn quantize8_lanes(q: &QuantizerAvx2, x: [f32; 8]) -> [i32; 8] {
        let mut out = [0i32; 8];
        // SAFETY: both arrays hold exactly eight 32-bit lanes.
        unsafe {
            let v = q.quantize8(_mm256_loadu_ps(x.as_ptr()));
            _mm256_storeu_si256(out.as_mut_ptr().cast(), v);
        }
        out
    }

    /// Every `f32` bit pattern through the vector quantizers — the
    /// SSE4.1 tier's four-lane one and, where the CPU has AVX2, the
    /// eight-lane one — against [`LlrQuantizer::quantize`], for the
    /// default channel quantizer and the narrowest and widest the
    /// packed datapath accepts.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs: run with --release -- --ignored"]
    fn vector_quantizer_matches_scalar_on_every_f32() {
        if !available() {
            println!("note: no SSE4.1 on this host; vector quantizers not checked");
            return;
        }
        let wide = avx2::available();
        if !wide {
            println!("note: no AVX2 on this host; eight-lane quantizer not checked");
        }
        for (bits, step) in [(5, 0.5), (3, 0.5), (8, 0.125)] {
            let scalar = LlrQuantizer::new(bits, step);
            // SAFETY: SSE4.1 presence checked at the top of the test, and
            // AVX2's where `wide` is set.
            let narrow = unsafe { QuantizerSse::new(&scalar) };
            let eight = wide.then(|| unsafe { QuantizerAvx2::new(&scalar) });
            for hi in 0..=u32::MAX >> 3 {
                let x: [f32; 8] = std::array::from_fn(|i| f32::from_bits(hi << 3 | i as u32));
                let want = x.map(|v| i32::from(scalar.quantize(v)));
                // SAFETY: as above.
                let got = [
                    Some(unsafe { quantize4_lanes(&narrow, x) }),
                    eight.as_ref().map(|q| unsafe { quantize8_lanes(q, x) }),
                ];
                for got in got.into_iter().flatten() {
                    if got != want {
                        let i = (0..8).find(|&i| got[i] != want[i]).unwrap();
                        panic!(
                            "input {:e} ({:#010x}), {bits}-bit step {step}: got {}, want {}",
                            x[i],
                            x[i].to_bits(),
                            got[i],
                            want[i]
                        );
                    }
                }
            }
        }
    }
}

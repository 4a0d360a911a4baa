//! AVX2 tier of the packed edge pass, compiled on every `x86_64` build.
//!
//! The state is the SSE4.1 tier's, unchanged — eight frames per message
//! word, one 16-byte register of eight i16 totals per bit — so the wider
//! registers go to **more edges per op**, not more frames per word: each
//! scan step takes four contiguous edges of a check in one 256-bit
//! load, and the preset and hard masks take two and four bits per op.
//! A check's last 1–3 edges (degree not a multiple of 4) finish on the
//! SSE4.1 tier's pair/odd-edge steps in the low 128 bits. The lane load
//! quantizes 8 LLRs per op and transposes an 8 × 32 byte tile per step.
//!
//! Like [`sse`](super::sse), this module may contain `unsafe`: the safe
//! entry point checks the CPU features at runtime, and every intrinsic
//! sits inside a `#[target_feature]` function matching them.

#![allow(unsafe_code)]

use super::sse::{self, add_into, blend_into, CheckOut, EdgePass, Scan};
use super::{PackedFixedDecoder, MAX_CN_DEGREE, PACK_LANES};
use crate::LlrQuantizer;
use std::arch::x86_64::*;

/// Bits per channel-load step.
const LOAD_BITS: usize = 32;

/// Whether the running CPU supports this tier's instruction set.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx2") && sse::available()
}

/// `vpermq` immediate restoring edge order from the `vpacksswb` qword
/// order 0, 2, 1, 3 (it is its own inverse).
const EDGE_ORDER: i32 = 0b11_01_10_00;

impl PackedFixedDecoder {
    /// Runs one edge pass (and closes it) on the AVX2 tier.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX2 (the tier is only picked where it is
    /// detected).
    pub(super) fn pass_avx2(&mut self) {
        assert!(available(), "AVX2 tier on a CPU without AVX2");
        // SAFETY: avx2 (and with it ssse3 + sse4.1) confirmed on the
        // running CPU just above, which is what the callees require.
        unsafe {
            self.pass_avx2_impl();
            self.finish_pass_avx2();
        }
    }

    /// Quantizes each `(lane, frame)` pair straight into its lane of the
    /// channel and total planes, 32 bits per step for all the frames at
    /// once. Returns how many leading bits it wrote, so the caller
    /// finishes the rest on the portable path.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX2.
    pub(super) fn load_llrs_avx2(&mut self, frames: &[(usize, &[f32])]) -> usize {
        assert!(available(), "AVX2 tier on a CPU without AVX2");
        // SAFETY: feature presence checked on the line above.
        unsafe { self.load_llrs_impl_avx2(frames) }
    }

    /// One pass over the planes per call: quantizes a 32-bit row of
    /// every loaded frame (8 LLRs per op), transposes the 8 × 32 byte
    /// tile into lane words with three rounds of in-lane unpacks (the
    /// SSE4.1 transpose on both 128-bit halves at once), and blends the
    /// loaded lanes into the channel words and the totals — a bit pair's
    /// two totals in one 256-bit blend.
    #[target_feature(enable = "avx2")]
    fn load_llrs_impl_avx2(&mut self, frames: &[(usize, &[f32])]) -> usize {
        let n = self.code.n();
        let quantizer = QuantizerAvx2::new(&self.quantizer);
        let bias = _mm256_set1_epi16(self.bias as i16);
        let lanes = frames.iter().fold(0u64, |m, &(f, _)| m | 0xFF << (8 * f));
        let mask8 = _mm_set1_epi64x(lanes as i64);
        let mask16 = _mm256_cvtepi8_epi16(mask8);
        let ch = self.ch.as_mut_ptr().cast::<__m128i>();
        let t = self.t.as_mut_ptr().cast::<__m256i>();
        let steps = n / LOAD_BITS;
        for k in 0..steps {
            let b = k * LOAD_BITS;
            let mut rows = [_mm256_setzero_si256(); PACK_LANES];
            for &(f, llrs) in frames {
                rows[f] = quantizer.quantize32(&llrs[b..b + LOAD_BITS]);
            }
            for (i, w) in transpose(rows).into_iter().enumerate() {
                // Word i's low half covers bits b + 2i and b + 2i + 1,
                // its high half bits b + 16 + 2i and b + 17 + 2i.
                let (lo, hi) = (_mm256_castsi256_si128(w), _mm256_extracti128_si256::<1>(w));
                let (b0, b1) = (b + 2 * i, b + 16 + 2 * i);
                let w0 = _mm256_add_epi16(_mm256_cvtepi8_epi16(lo), bias);
                let w1 = _mm256_add_epi16(_mm256_cvtepi8_epi16(hi), bias);
                // SAFETY: b1 + 1 < b + 32 <= n, so the 16-byte channel
                // pairs at words b0 and b1 and the 32-byte total pairs of
                // bits b0 and b1 are in bounds of their n-entry planes
                // (`t` holds 16 bytes per bit, so pair b0 starts at byte
                // 16 · b0 = 32 · (b0 / 2) with b0 even).
                unsafe {
                    blend_into(ch.cast::<u64>().add(b0).cast(), lo, mask8);
                    blend_into(ch.cast::<u64>().add(b1).cast(), hi, mask8);
                    blend_into256(t.add(b0 / 2), w0, mask16);
                    blend_into256(t.add(b1 / 2), w1, mask16);
                }
            }
        }
        steps * LOAD_BITS
    }

    /// The edge pass on 256-bit vectors: the accumulator preset to
    /// `bias + ch` two bits per op, then each check's edges **four per
    /// op**, then its outputs.
    ///
    /// A scan step loads four contiguous `cb` words, keep-masks them and
    /// widens them with two `vpmovsxbw` (edges 0, 1 and 2, 3 of the
    /// step); subtracts them from the four bits' totals, gathered as two
    /// 128-bit pairs with `vinserti128`; and narrows `u − bias` with one
    /// `vpacksswb` plus the `±msg_max` rail. `vpacksswb` packs within
    /// each 128-bit lane, so the qwords hold edges 0, 2, 1, 3 of the
    /// step. The scan and the outputs keep that order — neither tracks
    /// an edge index (see [`Scan`]) — and only the stores to `cb` put
    /// the outputs back in edge order (`vpermq 0xD8`).
    ///
    /// Each qword keeps its own [`Scan`] state over the edges it saw.
    /// After the quads, the four states merge — the 128-bit lanes first,
    /// then the qwords — with [`Scan::merge`], which is exact for any
    /// partition of the edges; the remaining 1–3 edges run through the
    /// SSE4.1 tier's steps in between.
    #[target_feature(enable = "avx2")]
    fn pass_avx2_impl(&mut self) {
        self.preset_avx2();
        let code = self.code.clone();
        let graph = code.graph();
        let ctx = EdgePass::new(self);
        let (t, acc, cb) = (ctx.t, ctx.acc, ctx.cb);
        let b16 = _mm256_set1_epi16(self.bias as i16);
        let keep = _mm256_set1_epi64x(self.cb_keep as i64);
        let msg_max = self.config.msg_max() as i8;
        let rail = (_mm256_set1_epi8(msg_max), _mm256_set1_epi8(-msg_max));
        let mut inputs = [_mm256_setzero_si256(); MAX_CN_DEGREE / 4];
        for m in 0..graph.n_checks() {
            let start = graph.cn_edge_range(m).start;
            let bits = graph.cn_bits(m);
            let quads = bits.len() / 4;
            let mut scan = Scan4::seed();
            for (k, input) in inputs[..quads].iter_mut().enumerate() {
                let b = |i: usize| bits[4 * k + i] as usize;
                // SAFETY: the quad's edges `start + 4k ..= start + 4k + 3`
                // are the check's, so the 256-bit load covers four
                // in-bounds words; b(i) are bit indices.
                let val = unsafe {
                    let c =
                        _mm256_and_si256(_mm256_loadu_si256(cb.add(start + 4 * k).cast()), keep);
                    let c01 = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(c));
                    let c23 = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(c));
                    let u01 = _mm256_sub_epi16(totals(t, b(0), b(1)), c01);
                    let u23 = _mm256_sub_epi16(totals(t, b(2), b(3)), c23);
                    let v =
                        _mm256_packs_epi16(_mm256_sub_epi16(u01, b16), _mm256_sub_epi16(u23, b16));
                    _mm256_max_epi8(_mm256_min_epi8(v, rail.0), rail.1)
                };
                *input = val;
                scan.absorb(val);
            }
            // The last 1–3 edges: a pair on the two merged lane states,
            // then an odd last edge on the fully merged state.
            let mut scan = scan.fold();
            let e = 4 * quads;
            let pair = if bits.len() - e >= 2 {
                // SAFETY: edges `start + e` and `start + e + 1` are the
                // check's; its bits index the planes.
                let val =
                    unsafe { ctx.pair_input(start + e, bits[e] as usize, bits[e + 1] as usize) };
                scan.absorb(val);
                Some(val)
            } else {
                None
            };
            let mut scan = scan.fold();
            // SAFETY: the check's edges index `cb`, its bits the planes.
            let last = unsafe { ctx.scan_last(&mut scan, start, bits) };
            let out = scan.finish(ctx.scaling);
            let out4 = CheckOut4::new(&out);
            for (k, &val) in inputs[..quads].iter().enumerate() {
                let q = &bits[4 * k..4 * k + 4];
                let o = _mm256_permute4x64_epi64::<EDGE_ORDER>(out4.output(val));
                let w01 = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(o));
                let w23 = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(o));
                // SAFETY: the same in-bounds edges and bit indices as the
                // scan above.
                unsafe {
                    _mm256_storeu_si256(cb.add(start + 4 * k).cast(), o);
                    add_into(acc.add(q[0] as usize), _mm256_castsi256_si128(w01));
                    add_into(acc.add(q[1] as usize), _mm256_extracti128_si256::<1>(w01));
                    add_into(acc.add(q[2] as usize), _mm256_castsi256_si128(w23));
                    add_into(acc.add(q[3] as usize), _mm256_extracti128_si256::<1>(w23));
                }
            }
            if let Some(val) = pair {
                let o = out.output(val);
                // SAFETY: the same edges and bits as the pair's scan.
                unsafe { ctx.store_pair(start + e, bits[e] as usize, bits[e + 1] as usize, o) };
            }
            // SAFETY: as for `scan_last` above.
            unsafe { ctx.store_last(&out, start, bits, last) };
        }
    }

    /// The accumulator preset `bias + ch`, two bits per op: one 16-byte
    /// load of two channel words, one `vpmovsxbw` to their two 16-byte
    /// totals. An odd last bit takes the SSE4.1 preset.
    #[target_feature(enable = "avx2")]
    fn preset_avx2(&mut self) {
        let b16 = _mm256_set1_epi16(self.bias as i16);
        let mut accs = self.acc.chunks_exact_mut(2);
        let mut chs = self.ch.chunks_exact(2);
        for (acc, ch) in (&mut accs).zip(&mut chs) {
            // SAFETY: `ch` holds two 8-byte words and `acc` two bits'
            // 16-byte totals.
            unsafe {
                let c = _mm_loadu_si128(ch.as_ptr().cast());
                let v = _mm256_add_epi16(_mm256_cvtepi8_epi16(c), b16);
                _mm256_storeu_si256(acc.as_mut_ptr().cast(), v);
            }
        }
        sse::preset(self.bias, accs.into_remainder(), chs.remainder());
    }

    /// [`finish_pass`](Self::finish_pass) on 256-bit vectors: hard masks
    /// from the new totals four bits per `vpacksswb` + `vpermq` (the
    /// last 1–3 bits on the SSE4.1 tier), and the planes swapped.
    #[target_feature(enable = "avx2")]
    fn finish_pass_avx2(&mut self) {
        let b16 = _mm256_set1_epi16(self.bias as i16);
        let mut masks = self.hard_mask.chunks_exact_mut(4);
        let mut totals = self.acc.chunks_exact(4);
        for (mask, acc) in (&mut masks).zip(&mut totals) {
            // SAFETY: `acc` holds four bits' 16-byte totals and `mask`
            // four 8-byte words.
            unsafe {
                let p = acc.as_ptr().cast::<__m256i>();
                let h01 = _mm256_cmpgt_epi16(b16, _mm256_loadu_si256(p));
                let h23 = _mm256_cmpgt_epi16(b16, _mm256_loadu_si256(p.add(1)));
                let h = _mm256_permute4x64_epi64::<EDGE_ORDER>(_mm256_packs_epi16(h01, h23));
                _mm256_storeu_si256(mask.as_mut_ptr().cast(), h);
            }
        }
        sse::hard_masks(self.bias, masks.into_remainder(), totals.remainder());
        std::mem::swap(&mut self.t, &mut self.acc);
        self.cb_keep = !0;
    }
}

/// The SSE4.1 tier's 8 × 16 byte transpose on both 128-bit halves of
/// eight rows at once (row `f` = frame `f`, byte `i` of each half = bit
/// `i` of that half): afterwards each half of word `i` holds its two
/// bits `2i` (low qword) and `2i + 1` (high qword) as lane words.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose(r: [__m256i; PACK_LANES]) -> [__m256i; PACK_LANES] {
    let t = [
        _mm256_unpacklo_epi8(r[0], r[1]),
        _mm256_unpackhi_epi8(r[0], r[1]),
        _mm256_unpacklo_epi8(r[2], r[3]),
        _mm256_unpackhi_epi8(r[2], r[3]),
        _mm256_unpacklo_epi8(r[4], r[5]),
        _mm256_unpackhi_epi8(r[4], r[5]),
        _mm256_unpacklo_epi8(r[6], r[7]),
        _mm256_unpackhi_epi8(r[6], r[7]),
    ];
    let u = [
        _mm256_unpacklo_epi16(t[0], t[2]),
        _mm256_unpackhi_epi16(t[0], t[2]),
        _mm256_unpacklo_epi16(t[1], t[3]),
        _mm256_unpackhi_epi16(t[1], t[3]),
        _mm256_unpacklo_epi16(t[4], t[6]),
        _mm256_unpackhi_epi16(t[4], t[6]),
        _mm256_unpacklo_epi16(t[5], t[7]),
        _mm256_unpackhi_epi16(t[5], t[7]),
    ];
    [
        _mm256_unpacklo_epi32(u[0], u[4]),
        _mm256_unpackhi_epi32(u[0], u[4]),
        _mm256_unpacklo_epi32(u[1], u[5]),
        _mm256_unpackhi_epi32(u[1], u[5]),
        _mm256_unpacklo_epi32(u[2], u[6]),
        _mm256_unpackhi_epi32(u[2], u[6]),
        _mm256_unpacklo_epi32(u[3], u[7]),
        _mm256_unpackhi_epi32(u[3], u[7]),
    ]
}

/// `*p = v` in the byte lanes `mask` selects, `*p` kept elsewhere.
///
/// # Safety
///
/// `p` must point at 32 readable and writable bytes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn blend_into256(p: *mut __m256i, v: __m256i, mask: __m256i) {
    // SAFETY: the caller guarantees `p` covers 32 valid bytes.
    unsafe { _mm256_storeu_si256(p, _mm256_blendv_epi8(_mm256_loadu_si256(p), v, mask)) };
}

/// [`LlrQuantizer::quantize`] on eight `f32` lanes at a time, bit-exact
/// for every input by the same argument as the SSE4.1 tier's four-lane
/// quantizer (NaN → 0, ±inf saturate, clamp before the rounding add).
pub(super) struct QuantizerAvx2 {
    step: __m256,
    max: __m256,
    neg_max: __m256,
}

impl QuantizerAvx2 {
    #[target_feature(enable = "avx2")]
    pub(super) fn new(q: &LlrQuantizer) -> Self {
        let max = f32::from(q.max_level());
        Self {
            step: _mm256_set1_ps(q.step()),
            max: _mm256_set1_ps(max),
            neg_max: _mm256_set1_ps(-max),
        }
    }

    /// Quantizes eight LLRs into i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize8(&self, llr: __m256) -> __m256i {
        let x = _mm256_div_ps(llr, self.step);
        // NaN lanes compare unordered with themselves: zero them.
        let x = _mm256_and_ps(x, _mm256_cmp_ps::<_CMP_ORD_Q>(x, x));
        let x = _mm256_min_ps(_mm256_max_ps(x, self.neg_max), self.max);
        let sign = _mm256_and_ps(x, _mm256_set1_ps(-0.0));
        let half = _mm256_or_ps(_mm256_set1_ps(0.5 - f32::EPSILON / 4.0), sign);
        _mm256_cvttps_epi32(_mm256_add_ps(x, half))
    }

    /// Quantizes 32 LLRs into 32 i8 lanes in bit order (the quantizer
    /// range of the packed datapath fits a byte, so both narrows are
    /// exact). The in-lane packs leave the dwords in the order bits
    /// 0–3, 8–11, 16–19, 24–27, 4–7, 12–15, 20–23, 28–31; one `vpermd`
    /// restores bit order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn quantize32(&self, llrs: &[f32]) -> __m256i {
        assert_eq!(llrs.len(), LOAD_BITS);
        let p = llrs.as_ptr();
        // SAFETY: `llrs` holds 32 floats, so the four 8-lane loads at
        // offsets 0, 8, 16 and 24 are in bounds.
        let q = |i: usize| self.quantize8(unsafe { _mm256_loadu_ps(p.add(8 * i)) });
        let lo = _mm256_packs_epi32(q(0), q(1));
        let hi = _mm256_packs_epi32(q(2), q(3));
        let bytes = _mm256_packs_epi16(lo, hi);
        _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7))
    }
}

/// The totals of bits `b0` (low lane) and `b1` (high lane).
///
/// # Safety
///
/// `b0` and `b1` must be bit indices of the plane at `t`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn totals(t: *const __m128i, b0: usize, b1: usize) -> __m256i {
    // SAFETY: both loads are one bit's 16-byte total (caller).
    unsafe {
        _mm256_inserti128_si256::<1>(
            _mm256_castsi128_si256(_mm_loadu_si128(t.add(b0))),
            _mm_loadu_si128(t.add(b1)),
        )
    }
}

/// [`Scan`] on four qwords: one state per qword of a scan step.
#[derive(Clone, Copy)]
struct Scan4 {
    sp: __m256i,
    min1: __m256i,
    min2: __m256i,
}

impl Scan4 {
    /// The empty state (see [`Scan`] for why the seed is neutral).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn seed() -> Self {
        Self {
            sp: _mm256_setzero_si256(),
            min1: _mm256_set1_epi8(0x7F),
            min2: _mm256_set1_epi8(0x7F),
        }
    }

    /// Absorbs the inputs `val` of one edge per qword (the [`Scan`]
    /// recurrence on four qwords).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn absorb(&mut self, val: __m256i) {
        self.sp = _mm256_xor_si256(self.sp, val);
        let mag = _mm256_abs_epi8(val);
        self.min2 = _mm256_min_epu8(self.min2, _mm256_max_epu8(self.min1, mag));
        self.min1 = _mm256_min_epu8(self.min1, mag);
    }

    /// Merges the high 128-bit lane's two states into the low lane's:
    /// qword 0 (edges ≡ 0 mod 4) with qword 2 (≡ 1), qword 1 (≡ 2) with
    /// qword 3 (≡ 3). [`Scan::fold`] later merges the two qwords.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn fold(self) -> Scan {
        let lo = |v| _mm256_castsi256_si128(v);
        let hi = |v| _mm256_extracti128_si256::<1>(v);
        Scan {
            sp: lo(self.sp),
            min1: lo(self.min1),
            min2: lo(self.min2),
        }
        .merge(Scan {
            sp: hi(self.sp),
            min1: hi(self.min1),
            min2: hi(self.min2),
        })
    }
}

/// A check's final [`CheckOut`] in all four qwords.
struct CheckOut4 {
    sp: __m256i,
    min1: __m256i,
    s1: __m256i,
    s2: __m256i,
}

impl CheckOut4 {
    #[inline]
    #[target_feature(enable = "avx2")]
    fn new(out: &CheckOut) -> Self {
        Self {
            sp: _mm256_broadcastsi128_si256(out.sp),
            min1: _mm256_broadcastsi128_si256(out.min1),
            s1: _mm256_broadcastsi128_si256(out.s1),
            s2: _mm256_broadcastsi128_si256(out.s2),
        }
    }

    /// [`CheckOut::output`] on four edges.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn output(&self, val: __m256i) -> __m256i {
        let at_min = _mm256_cmpeq_epi8(self.min1, _mm256_abs_epi8(val));
        let mag = _mm256_blendv_epi8(self.s1, self.s2, at_min);
        let sign = _mm256_or_si256(_mm256_xor_si256(self.sp, val), _mm256_set1_epi8(1));
        _mm256_sign_epi8(mag, sign)
    }
}

//! The carry-less multiply kernel of the encoder's circulant form.
//!
//! A circulant block of size Z is a polynomial of degree < Z over GF(2),
//! held in `w = ⌈Z/64⌉` little-endian words (bit `s` of word `x` is the
//! coefficient of `x^{64·x + s}`). The kernel sums products of such
//! polynomials unreduced — the caller folds each sum modulo `x^Z − 1`
//! once.
//!
//! Operands are stored word-major so that one 128-bit load fetches word
//! `x` of two consecutive message blocks: `m[x·kp + i]` is word `x` of
//! message block `i`, and `g[(j·w + y)·kp + i]` is word `y` of the
//! polynomial that block `i` multiplies into output block `j`. `kp` is
//! the block count rounded up to even, the pad block zero. One PCLMULQDQ
//! pair then multiplies two blocks' words at once (`0x00` and `0x11`).
//!
//! This module may contain `unsafe`: the safe entry point checks the CPU
//! feature and every operand length at runtime, and every intrinsic sits
//! inside a `#[target_feature]` function matching it.

#![allow(unsafe_code)]

use std::arch::x86_64::*;

/// Whether the running CPU has the carry-less multiply instruction.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("pclmulqdq")
}

/// Sums of circulant products, unreduced: for every output block `j`,
/// words `j·2w .. (j+1)·2w` of `acc` become `Σ_i m_i · g_ij`, in the
/// word-major layout of the module docs (`kp = m.len() / w` even,
/// `pb = acc.len() / 2w` output blocks).
///
/// # Panics
///
/// Panics if the CPU lacks PCLMULQDQ or a slice length disagrees with
/// that layout.
pub(super) fn sum_of_products(m: &[u64], g: &[u64], w: usize, acc: &mut [u64]) {
    assert!(available(), "carry-less encoder on a CPU without PCLMULQDQ");
    assert!(w > 0 && m.len().is_multiple_of(2 * w) && acc.len().is_multiple_of(2 * w));
    let pb = acc.len() / (2 * w);
    assert_eq!(g.len(), pb * m.len(), "one polynomial per (i, j) pair");
    // SAFETY: feature presence checked above; the lengths checked above
    // keep every load in `sum_of_products_clmul` in bounds.
    unsafe { sum_of_products_clmul(m, g, w, acc) }
}

/// Each output block keeps one 128-bit running sum per output word pair
/// `k = x + y` in a register, over every block pair and every `(x, y)`
/// with that sum, and spills it once: `lo` into word `k`, `hi` into
/// `k + 1`.
///
/// # Safety
///
/// PCLMULQDQ must be present and the lengths must satisfy
/// [`sum_of_products`]'s checks.
#[target_feature(enable = "pclmulqdq")]
unsafe fn sum_of_products_clmul(m: &[u64], g: &[u64], w: usize, acc: &mut [u64]) {
    let kp = m.len() / w;
    let (mp, gp) = (m.as_ptr(), g.as_ptr());
    for (j, out) in acc.chunks_exact_mut(2 * w).enumerate() {
        out.fill(0);
        for k in 0..2 * w - 1 {
            let (mut even, mut odd) = (_mm_setzero_si128(), _mm_setzero_si128());
            for x in k.saturating_sub(w - 1)..=k.min(w - 1) {
                let (mx, gy) = (mp.add(x * kp), gp.add((j * w + k - x) * kp));
                for i in (0..kp).step_by(2) {
                    let a = _mm_loadu_si128(mx.add(i).cast());
                    let b = _mm_loadu_si128(gy.add(i).cast());
                    even = _mm_xor_si128(even, _mm_clmulepi64_si128::<0x00>(a, b));
                    odd = _mm_xor_si128(odd, _mm_clmulepi64_si128::<0x11>(a, b));
                }
            }
            let s = _mm_xor_si128(even, odd);
            out[k] ^= _mm_cvtsi128_si64(s) as u64;
            out[k + 1] ^= _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)) as u64;
        }
    }
}

//! Distribution tests of the AWGN channel's standard normal sampler.
//!
//! With σ = 1, `AwgnChannel::transmit(0.0)` returns the sampler's deviate
//! unchanged, so these tests see exactly the noise the simulators add.
//! Each statistic is compared with its exact value under N(0, 1) at a
//! bound that a correct sampler exceeds with probability ≈ 1e-4 or less.

use ldpc_channel::AwgnChannel;

fn deviates(seed: u64, count: usize) -> impl Iterator<Item = f64> {
    let mut channel = AwgnChannel::new(1.0, seed);
    (0..count).map(move |_| channel.transmit(0.0))
}

/// `erfc` to a relative error below 1.2e-7 (Chebyshev fit; Press et al.,
/// *Numerical Recipes*, §6.2).
fn erfc(x: f64) -> f64 {
    const C: [f64; 10] = [
        -1.265_512_23,
        1.000_023_68,
        0.374_091_96,
        0.096_784_18,
        -0.186_288_06,
        0.278_868_07,
        -1.135_203_98,
        1.488_515_87,
        -0.822_152_23,
        0.170_872_77,
    ];
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = C.iter().rev().fold(0.0, |acc, &c| acc * t + c);
    let r = t * (poly - z * z).exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// The standard normal CDF Φ.
fn phi(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// The two-sided 99.9% acceptance region `[lo, hi]` of Binomial(n, p):
/// each side holds at most 0.05% of the probability.
fn binomial_999(n: u64, p: f64) -> (u64, u64) {
    let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
    let mut ln_choose = 0.0;
    let mut cdf = 0.0;
    let mut lo = None;
    for k in 0..n {
        let pmf = (ln_choose + k as f64 * ln_p + (n - k) as f64 * ln_q).exp();
        if lo.is_none() && cdf + pmf > 0.0005 {
            lo = Some(k);
        }
        cdf += pmf;
        if cdf >= 0.9995 {
            return (lo.unwrap_or(0), k);
        }
        ln_choose += ((n - k) as f64 / (k + 1) as f64).ln();
    }
    (lo.unwrap_or(0), n)
}

#[test]
fn moments_match_the_standard_normal() {
    // Mean 0, variance 1, skewness 0, kurtosis 3, each within four
    // standard errors over 1e7 samples.
    let n = 10_000_000;
    let mut sums = [0.0f64; 4];
    for z in deviates(1, n) {
        let z2 = z * z;
        sums[0] += z;
        sums[1] += z2;
        sums[2] += z2 * z;
        sums[3] += z2 * z2;
    }
    let nf = n as f64;
    let [m1, m2, m3, m4] = sums.map(|s| s / nf);
    let var = m2 - m1 * m1;
    let skew = m3 / var.powf(1.5);
    let kurt = m4 / (var * var);
    let se = |v: f64| 4.0 * (v / nf).sqrt();
    assert!(m1.abs() < se(1.0), "mean {m1}");
    assert!((var - 1.0).abs() < se(2.0), "variance {var}");
    assert!(skew.abs() < se(6.0), "skewness {skew}");
    assert!((kurt - 3.0).abs() < se(24.0), "kurtosis {kurt}");
}

#[test]
fn kolmogorov_smirnov_against_phi() {
    // D_n against Φ over 1e6 samples; 1.949/√n is the 0.1% critical
    // value of the Kolmogorov distribution.
    let n = 1_000_000;
    let mut z: Vec<f64> = deviates(2, n).collect();
    z.sort_by(f64::total_cmp);
    let nf = n as f64;
    let d = z
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = phi(x);
            ((i + 1) as f64 / nf - f).max(f - i as f64 / nf)
        })
        .fold(0.0, f64::max);
    assert!(d < 1.949 / nf.sqrt(), "KS statistic {d}");
}

#[test]
fn tail_probabilities_within_binomial_bounds() {
    // Two-sided exceedances of |z| > t over 4e7 samples, including the
    // ziggurat's own tail start R, where the base strip hands over to
    // Marsaglia's tail method.
    let n = 40_000_000u64;
    let thresholds = [3.654_152_885_361_009, 4.0, 5.0];
    let mut counts = [0u64; 3];
    for z in deviates(3, n as usize) {
        let a = z.abs();
        for (count, &t) in counts.iter_mut().zip(&thresholds) {
            *count += u64::from(a > t);
        }
    }
    for (&count, &t) in counts.iter().zip(&thresholds) {
        let p = 2.0 * phi(-t);
        let (lo, hi) = binomial_999(n, p);
        assert!(
            (lo..=hi).contains(&count),
            "P(|z| > {t}): {count} of {n}, expected {:.1} in [{lo}, {hi}]",
            p * n as f64
        );
    }
}

#[test]
fn binomial_bounds_are_sane() {
    // Mean 100, sd ≈ 10: the 99.9% region is about ±3.29 sd.
    let (lo, hi) = binomial_999(1_000_000, 1e-4);
    assert!(
        (64..=70).contains(&lo) && (130..=136).contains(&hi),
        "[{lo}, {hi}]"
    );
    assert!((phi(0.0) - 0.5).abs() < 1e-7);
    assert!((2.0 * phi(-5.0) - 5.733_031e-7).abs() < 1e-12);
}

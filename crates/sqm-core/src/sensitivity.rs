//! Sensitivity analysis of the quantized computation (Lemmas 3, 4, 5, 7).
//!
//! All bounds are on the *integer-valued* (amplified) outputs that the MPC
//! protocol perturbs; the server's down-scaling by `gamma^(lambda+1)` is
//! post-processing and does not change privacy. The characteristic shape is
//! `Delta_2 = gamma^(lambda+1) * max||f|| + (lower-order overhead)` — the
//! overhead's *relative* size vanishes as `gamma` grows, which is Figure 4's
//! message.

use sqm_accounting::skellam::Sensitivity;

use crate::polynomial::Polynomial;

/// Lemma 5: sensitivities for the covariance computation of PCA.
///
/// Records have L2 norm at most `c`; data quantized at scale `gamma`; the
/// output is the `n x n` matrix `hatX^T hatX`, so `d = n^2`. Neighbouring
/// outputs differ by one quantized record's `hat x hat x^T`, whose
/// Frobenius norm is `||hat x||^2`. Algorithm 2 rounds each coordinate of
/// `gamma x` to a neighbouring integer with no norm check, so every
/// rounding outcome only guarantees `||hat x|| < gamma c + sqrt(n)`, and
/// `Delta_2 = (gamma c + sqrt(n))^2` — the bound for every outcome, not
/// `gamma^2 c^2 + n`, which an all-up rounding of a record with equal
/// fractional coordinates exceeds.
pub fn pca_sensitivity(gamma: f64, c: f64, n: usize) -> Sensitivity {
    assert!(gamma > 0.0 && c > 0.0 && n > 0);
    let d2 = (gamma * c + (n as f64).sqrt()).powi(2);
    Sensitivity::from_l2_for_dim(d2, n * n)
}

/// Lemma 3 at `lambda = 1`: sensitivities for the per-column sums of `n`
/// columns.
///
/// Records have L2 norm at most `c`, quantized at scale `gamma`, and
/// neighbouring outputs differ by one quantized record `hat x`. As for
/// [`pca_sensitivity`], Algorithm 2 rounds each coordinate with no norm
/// check, so every rounding outcome only guarantees
/// `||hat x|| < gamma c + sqrt(n)`, and `Delta_2 = gamma c + sqrt(n)` — the
/// bound for every outcome.
pub fn column_sum_sensitivity(gamma: f64, c: f64, n: usize) -> Sensitivity {
    Sensitivity::from_l2_for_dim(gamma * c + (n as f64).sqrt(), n)
}

/// The relative sensitivity overhead of PCA quantization:
/// `(Delta_2 - gamma^2 c^2) / (gamma^2 c^2) = (2 gamma c sqrt(n) + n) /
/// (gamma^2 c^2)`, which vanishes as `1 / gamma`.
pub fn pca_sensitivity_overhead(gamma: f64, c: f64, n: usize) -> f64 {
    let main = gamma * gamma * c * c;
    (2.0 * gamma * c * (n as f64).sqrt() + n as f64) / main
}

/// Lemma 7: sensitivities for one SQM logistic-regression gradient step.
///
/// Features have `||x||_2 <= 1`, the gradient polynomial (Eq. 9) has degree
/// 2 over `d` feature dimensions, and
/// `Delta_2 = sqrt((3/4 gamma^3)^2 + 9 gamma^5 d + 36 gamma^4)`.
pub fn lr_sensitivity(gamma: f64, d: usize) -> Sensitivity {
    assert!(gamma > 0.0 && d > 0);
    let g3 = gamma.powi(3);
    let d2 = ((0.75 * g3).powi(2) + 9.0 * gamma.powi(5) * d as f64 + 36.0 * gamma.powi(4)).sqrt();
    Sensitivity::from_l2_for_dim(d2, d)
}

/// The relative L2 sensitivity overhead of LR quantization versus the
/// unquantized bound `3/4`:
/// `sqrt((3/4)^2 + 9d/gamma + 36/gamma^2) - 3/4` (Figure 4, left).
pub fn lr_sensitivity_overhead(gamma: f64, d: usize) -> f64 {
    ((0.75f64).powi(2) + 9.0 * d as f64 / gamma + 36.0 / (gamma * gamma)).sqrt() - 0.75
}

/// Lemma 4 for a generic multi-dimensional polynomial.
///
/// `max_f_norm` bounds `max_{||x||_2 <= c} ||f(x)||_2` (supply an analytic
/// bound or use [`estimate_max_norm`]). The overhead term follows the
/// proof's multiplicity argument: each of the (at most `d * max_t v_t`)
/// monomials contributes a rounding deviation of `O(lambda * gamma^lambda *
/// max(c,1)^(lambda-1))` to the amplified output.
pub fn generic_sensitivity(poly: &Polynomial, gamma: f64, c: f64, max_f_norm: f64) -> Sensitivity {
    assert!(gamma > 1.0, "gamma must exceed 1");
    assert!(max_f_norm >= 0.0 && c > 0.0);
    let lambda = poly.degree() as i32;
    let d = poly.n_dims() as f64;
    let v = poly.max_monomials_per_dim() as f64;
    let max_abs_coeff = poly
        .dims()
        .flat_map(|ms| ms.iter().map(|m| m.coeff.abs()))
        .fold(0.0, f64::max);
    let main = gamma.powi(lambda + 1) * max_f_norm;
    // Rounding overhead: per monomial, the paper's Lemma 2 bound
    // 2*lambda*max(c,1)^(lambda-1)*gamma^(lambda-1) on the variable part,
    // amplified by the (quantized, up-to gamma^(1+lambda-deg)-scaled)
    // coefficient; plus 1 for the coefficient's own rounding. Summed over
    // d*v monomials via the triangle inequality.
    let per_monomial = (max_abs_coeff * gamma + 1.0)
        * (2.0
            * lambda.max(1) as f64
            * c.max(1.0).powi((lambda - 1).max(0))
            * gamma.powi((lambda - 1).max(0))
            + 1.0);
    let overhead = d.sqrt() * v * per_monomial;
    Sensitivity::from_l2_for_dim(main + overhead, poly.n_dims())
}

/// Monte-Carlo lower estimate of `max_{||x||_2 <= c} ||f(x)||_2`, inflated
/// by a small safety factor. For production use supply an analytic bound;
/// this helper is for exploratory workloads.
pub fn estimate_max_norm<R: rand::Rng + ?Sized>(
    rng: &mut R,
    poly: &Polynomial,
    c: f64,
    samples: usize,
) -> f64 {
    assert!(samples > 0);
    let n = poly.n_vars();
    let mut best = 0.0f64;
    for _ in 0..samples {
        // Random direction on the sphere of radius c (extremes of a
        // polynomial over a ball lie on the boundary for the dominating
        // homogeneous part).
        let mut x: Vec<f64> = (0..n)
            .map(|_| {
                // Rough normal via sum of uniforms (Irwin-Hall), adequate
                // for direction sampling.
                (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() - 3.0
            })
            .collect();
        let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            continue;
        }
        for v in &mut x {
            *v *= c / norm;
        }
        let fx = poly.eval(&x);
        let fnorm = fx.iter().map(|v| v * v).sum::<f64>().sqrt();
        best = best.max(fnorm);
    }
    best * 1.05
}

/// A worst-case bound on the magnitude of any intermediate value of the
/// amplified computation over `m` records, used to choose a field that
/// cannot wrap around: `m * gamma^(lambda+1) * (max||f|| + overhead) +
/// noise_tail`, with a 12-sigma Skellam tail.
pub fn magnitude_bound(sens: Sensitivity, m: usize, mu: f64) -> f64 {
    let noise_tail = 12.0 * (2.0 * mu).sqrt();
    m as f64 * sens.l2 + noise_tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::Monomial;

    #[test]
    fn column_sum_sensitivity_is_the_three_formulas_it_replaced() {
        for gamma in [1.0, 18.0, 64.0, 1024.5, 2f64.powi(24)] {
            for n in [1usize, 3, 49, 500] {
                for c in [1e-9, 0.3, 1.0, 2f64.sqrt()] {
                    let got = column_sum_sensitivity(gamma, c, n);
                    // The session's and the mean task's expression.
                    let want = Sensitivity::from_l2_for_dim(gamma * c + (n as f64).sqrt(), n);
                    assert_eq!(got.l2.to_bits(), want.l2.to_bits(), "{gamma} {c} {n}");
                    assert_eq!(got.l1.to_bits(), want.l1.to_bits(), "{gamma} {c} {n}");
                }
                // The histogram's, with one-hot rows of norm 1.
                let got = column_sum_sensitivity(gamma, 1.0, n);
                let want = Sensitivity::from_l2_for_dim(gamma + (n as f64).sqrt(), n);
                assert_eq!(got.l2.to_bits(), want.l2.to_bits(), "{gamma} {n}");
                assert_eq!(got.l1.to_bits(), want.l1.to_bits(), "{gamma} {n}");
            }
        }
    }

    #[test]
    fn pca_matches_lemma5() {
        let s = pca_sensitivity(100.0, 1.0, 49);
        assert_eq!(s.l2, 107.0 * 107.0);
        // Delta_1 = min(Delta_2^2, n * Delta_2) = min(1.31e8, 49*11449).
        assert_eq!(s.l1, (49.0f64 * 49.0).sqrt() * s.l2);
    }

    #[test]
    fn pca_overhead_vanishes() {
        // At rate 1 / gamma: 64x the scale, at least 64x less overhead.
        let o1 = pca_sensitivity_overhead(64.0, 1.0, 100);
        let o2 = pca_sensitivity_overhead(4096.0, 1.0, 100);
        assert!(o2 * 64.0 < o1);
        let s = pca_sensitivity(64.0, 1.0, 100);
        assert!((s.l2 / (64.0 * 64.0) - 1.0 - o1).abs() < 1e-12);
    }

    /// The squared norms of every outcome of Algorithm 2 on `x` at scale
    /// `gamma`: each coordinate rounds to the integer below `gamma x_i` or
    /// the one above (to itself when it is an integer), so `2^k` outcomes
    /// for `k` fractional coordinates. Returns `(||hat x||_2^2,
    /// ||hat x||_1^2)` of each.
    fn rounding_outcomes(x: &[f64], gamma: f64) -> Vec<(f64, f64)> {
        let support: Vec<Vec<f64>> = x
            .iter()
            .map(|&v| {
                let (lo, hi) = ((gamma * v).floor(), (gamma * v).ceil());
                if lo == hi {
                    vec![lo]
                } else {
                    vec![lo, hi]
                }
            })
            .collect();
        let mut outcomes = vec![(0.0, 0.0)];
        for choices in &support {
            outcomes = outcomes
                .iter()
                .flat_map(|&(l2, l1)| choices.iter().map(move |&q| (l2 + q * q, l1 + q.abs())))
                .collect();
        }
        outcomes.into_iter().map(|(l2, l1)| (l2, l1 * l1)).collect()
    }

    /// Lemma 5 holds for every rounding outcome, not on average: for
    /// adversarial records at the norm bound — equal fractional
    /// coordinates, alternating signs, one dominant coordinate, seeded
    /// directions — every one of the `2^n` outcomes (`n <= 16`) shifts the
    /// covariance by at most the charged `Delta_2` in Frobenius norm
    /// (`||hat x||^2`) and `Delta_1` entrywise (`||hat x||_1^2`).
    #[test]
    fn pca_sensitivity_bounds_every_rounding_outcome() {
        use rand::Rng as _;
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        for (gamma, c, n) in [
            (18.0, 1.0, 16),
            (24.0, 1.0, 6),
            (7.0, 2.0, 10),
            (3.0, 0.5, 12),
        ] {
            let on_sphere = |v: Vec<f64>| {
                let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
                v.into_iter().map(|a| a * c / norm).collect::<Vec<f64>>()
            };
            let mut records = vec![
                on_sphere(vec![1.0; n]),
                on_sphere(
                    (0..n)
                        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                        .collect(),
                ),
                on_sphere((0..n).map(|i| if i == 0 { 8.0 } else { 0.3 }).collect()),
            ];
            for _ in 0..4 {
                records.push(on_sphere(
                    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                ));
            }
            let s = pca_sensitivity(gamma, c, n);
            for x in &records {
                for (l2_shift, l1_shift) in rounding_outcomes(x, gamma) {
                    let at = format!("(gamma, c, n) = ({gamma}, {c}, {n}), x = {x:?}");
                    assert!(l2_shift <= s.l2, "Frobenius {l2_shift} > {} at {at}", s.l2);
                    assert!(l1_shift <= s.l1, "entrywise {l1_shift} > {} at {at}", s.l1);
                }
            }
        }
        // The equal-coordinate record at (18, 1, 16) sits at 4.5 per
        // coordinate: rounding all of them up gives ||hat x||^2 = 400, over
        // gamma^2 c^2 + n = 340.
        let worst = rounding_outcomes(&[0.25; 16], 18.0)
            .into_iter()
            .map(|(l2, _)| l2)
            .fold(0.0, f64::max);
        assert_eq!(worst, 400.0);
    }

    #[test]
    fn lr_matches_lemma7() {
        let gamma = 1024.0;
        let d = 800;
        let s = lr_sensitivity(gamma, d);
        let expect =
            ((0.75 * gamma.powi(3)).powi(2) + 9.0 * gamma.powi(5) * 800.0 + 36.0 * gamma.powi(4))
                .sqrt();
        assert!((s.l2 - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn lr_overhead_figure4_values() {
        // Figure 4 (left): overhead decreases toward 0 as gamma grows,
        // d = 800.
        let gammas = [64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0];
        let mut last = f64::INFINITY;
        for g in gammas {
            let o = lr_sensitivity_overhead(g, 800);
            assert!(o < last, "gamma={g}");
            last = o;
        }
        // At gamma = 65536, 9d/gamma = 0.11 => overhead ~ sqrt(0.5625+0.11)-0.75 ~ 0.07.
        let o = lr_sensitivity_overhead(65536.0, 800);
        assert!(o > 0.05 && o < 0.09, "overhead {o}");
    }

    #[test]
    fn lr_overhead_consistent_with_sensitivity() {
        let gamma = 512.0;
        let d = 100;
        let s = lr_sensitivity(gamma, d);
        let rel = s.l2 / gamma.powi(3) - 0.75;
        assert!((rel - lr_sensitivity_overhead(gamma, d)).abs() < 1e-9);
    }

    #[test]
    fn generic_dominated_by_main_term_for_large_gamma() {
        let p = Polynomial::one_dimensional(
            2,
            vec![
                Monomial::new(1.0, vec![(0, 1), (1, 1)]),
                Monomial::new(0.5, vec![(0, 1)]),
            ],
        );
        let max_f = 1.0; // |x0 x1 + 0.5 x0| <= 1 for ||x|| <= 1, roughly
        let s_small = generic_sensitivity(&p, 2f64.powi(6), 1.0, max_f);
        let s_big = generic_sensitivity(&p, 2f64.powi(16), 1.0, max_f);
        let rel_small = s_small.l2 / 2f64.powi(6 * 3) / max_f - 1.0;
        let rel_big = s_big.l2 / 2f64.powi(16 * 3) / max_f - 1.0;
        assert!(rel_big < rel_small, "{rel_big} !< {rel_small}");
        assert!(rel_big < 0.01);
    }

    #[test]
    fn estimate_max_norm_finds_scale() {
        // f(x) = x0^2 on the unit ball: max = 1.
        let p = Polynomial::one_dimensional(1, vec![Monomial::new(1.0, vec![(0, 2)])]);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let est = estimate_max_norm(&mut rng, &p, 1.0, 500);
        assert!(est > 0.9 && est < 1.2, "estimate {est}");
    }

    #[test]
    fn magnitude_bound_grows_with_m_and_mu() {
        let s = pca_sensitivity(16.0, 1.0, 4);
        let b1 = magnitude_bound(s, 100, 1e4);
        let b2 = magnitude_bound(s, 1000, 1e4);
        let b3 = magnitude_bound(s, 100, 1e8);
        assert!(b2 > b1 && b3 > b1);
    }

    /// Pins the exact worst-case constants the privacy ledger charges
    /// (Algorithm 2's per-coordinate rounding deviation of 1, folded into
    /// Lemmas 5 and 7). Any change to these formulas silently reprices
    /// every epsilon in the ledger, so they are asserted digit-for-digit.
    #[test]
    fn ledger_sensitivity_constants_are_pinned() {
        // Lemma 5 (covariance): Delta_2 = (gamma c + sqrt(n))^2, the square
        // of the largest norm a quantized record reaches when every
        // coordinate rounds away from zero.
        for (gamma, c, n, l2) in [
            (18.0, 1.0, 16, 484.0),
            (512.0, 2.0, 4, 1_052_676.0),
            (4096.0, 0.5, 100, 4_235_364.0),
        ] {
            let s = pca_sensitivity(gamma, c, n);
            assert_eq!(s.l2, l2);
            assert_eq!(s.l2, (gamma * c + (n as f64).sqrt()).powi(2));
            // Lemma 4 packaging: Delta_1 = min(Delta_2^2, sqrt(d) Delta_2)
            // with d = n^2.
            assert_eq!(s.l1, (s.l2 * s.l2).min(n as f64 * s.l2));
        }
        // Lemma 7 (LR gradient): Delta_2 =
        // sqrt((3/4 gamma^3)^2 + 9 gamma^5 d + 36 gamma^4).
        for (gamma, d) in [(32.0, 8), (128.0, 100)] {
            let s = lr_sensitivity(gamma, d);
            let expect = ((0.75 * gamma.powi(3)).powi(2)
                + 9.0 * gamma.powi(5) * d as f64
                + 36.0 * gamma.powi(4))
            .sqrt();
            assert_eq!(s.l2, expect);
        }
    }

    /// Worst-case aggregation of Algorithm 2's deviation: a quantized
    /// record deviates from its amplified original by strictly less than
    /// `sqrt(n)` in L2 (per-coordinate deviation < 1), so its norm is
    /// strictly below `gamma c + sqrt(n)` — the constants the lemmas'
    /// sensitivity proofs charge.
    #[test]
    fn quantized_record_deviation_obeys_worst_case_aggregation() {
        use rand::Rng as _;
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let gamma = 24.0;
        let c = 1.0;
        let n = 6;
        let sqrt_n = (n as f64).sqrt();
        for _ in 0..500 {
            // A record on the radius-c sphere.
            let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
            for v in &mut x {
                *v *= c / norm;
            }
            let q: Vec<f64> = x
                .iter()
                .map(|&v| crate::quantize::quantize_value(&mut rng, v, gamma) as f64)
                .collect();
            let dev = x
                .iter()
                .zip(&q)
                .map(|(&xi, &qi)| (qi - gamma * xi).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(dev < sqrt_n, "deviation {dev} >= sqrt(n) {sqrt_n}");
            let qnorm = q.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(
                qnorm < gamma * c + sqrt_n,
                "norm {qnorm} >= {}",
                gamma * c + sqrt_n
            );
        }
    }
}

//! Algorithm 2 (data quantization) and Algorithm 3 lines 1-3 (coefficient
//! quantization).
//!
//! **Data.** Each client scales its real-valued column by `gamma` and
//! stochastically rounds every entry to a nearest integer; the result is
//! unbiased with per-entry deviation < 1, so the *relative* quantization
//! error vanishes as `gamma` grows — the key to matching central-DP utility
//! (Lemma 2 / Corollary 1).
//!
//! **Coefficients.** For a degree-`lambda` polynomial, the coefficient of a
//! degree-`deg` monomial is scaled by `gamma^(1 + lambda - deg)` and
//! rounded; combined with the `gamma^deg` data amplification every monomial
//! is amplified by the same `gamma^(lambda+1)`, which keeps the joint
//! sensitivity analyzable (Section IV-B "Main Idea"). Coefficients are
//! public, so their quantization costs no privacy.

use rand::Rng;
use sqm_sampling::rounding::stochastic_round;

use crate::polynomial::Polynomial;

/// Algorithm 2 on a scalar: scale by `gamma`, stochastically round.
pub fn quantize_value<R: Rng + ?Sized>(rng: &mut R, x: f64, gamma: f64) -> i64 {
    assert!(
        gamma > 0.0 && gamma.is_finite(),
        "gamma must be positive and finite"
    );
    stochastic_round(rng, gamma * x)
}

/// Algorithm 2 on a vector (one client's column).
///
/// ```
/// use rand::SeedableRng;
/// use sqm_core::quantize::quantize_vec;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let q = quantize_vec(&mut rng, &[0.5, -0.25], 1024.0);
/// assert!((q[0] - 512).abs() <= 1);   // unbiased rounding of 512.0
/// assert!((q[1] + 256).abs() <= 1);
/// ```
pub fn quantize_vec<R: Rng + ?Sized>(rng: &mut R, v: &[f64], gamma: f64) -> Vec<i64> {
    v.iter().map(|&x| quantize_value(rng, x, gamma)).collect()
}

/// A monomial with quantized integer coefficient.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedMonomial {
    /// `hat a_t[l]` — the coefficient after scaling by
    /// `gamma^(1 + lambda - deg)` and stochastic rounding.
    pub coeff: i128,
    /// Same exponent structure as the source monomial.
    pub exponents: Vec<(usize, u32)>,
}

impl QuantizedMonomial {
    /// Evaluate `coeff * prod x[v]^e` over quantized inputs in `i128`.
    pub fn eval_i128(&self, x: &[i64]) -> i128 {
        let mut acc: i128 = self.coeff;
        for &(v, e) in &self.exponents {
            for _ in 0..e {
                acc = acc
                    .checked_mul(x[v] as i128)
                    .expect("quantized monomial evaluation overflowed i128");
            }
        }
        acc
    }
}

/// A polynomial whose coefficients have been pre-processed per Algorithm 3;
/// evaluating it on `gamma`-quantized data yields values amplified by
/// `gamma^(degree+1)`.
#[derive(Clone, Debug)]
pub struct QuantizedPolynomial {
    n_vars: usize,
    degree: u32,
    gamma: f64,
    dims: Vec<Vec<QuantizedMonomial>>,
}

impl QuantizedPolynomial {
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// The polynomial degree `lambda`.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// The quantization scale.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The overall amplification factor `gamma^(lambda+1)` that the server
    /// divides out in post-processing (Algorithm 3 line 11).
    pub fn amplification(&self) -> f64 {
        self.gamma.powi(self.degree as i32 + 1)
    }

    pub fn dim(&self, t: usize) -> &[QuantizedMonomial] {
        &self.dims[t]
    }

    /// Evaluate all output dimensions on one quantized record (in `i128`).
    pub fn eval_record(&self, x: &[i64]) -> Vec<i128> {
        assert_eq!(x.len(), self.n_vars, "record dimension mismatch");
        self.dims
            .iter()
            .map(|ms| {
                ms.iter().map(|m| m.eval_i128(x)).fold(0i128, |acc, v| {
                    acc.checked_add(v).expect("sum overflowed i128")
                })
            })
            .collect()
    }

    /// Evaluate the sum over a quantized dataset.
    pub fn sum_over(&self, records: &[Vec<i64>]) -> Vec<i128> {
        let mut acc = vec![0i128; self.n_dims()];
        for r in records {
            for (a, v) in acc.iter_mut().zip(self.eval_record(r)) {
                *a = a.checked_add(v).expect("dataset sum overflowed i128");
            }
        }
        acc
    }
}

/// Algorithm 3 lines 1-3: quantize every coefficient of `poly` with the
/// degree-compensating scale `gamma^(1 + lambda - deg)`.
pub fn quantize_polynomial<R: Rng + ?Sized>(
    rng: &mut R,
    poly: &Polynomial,
    gamma: f64,
) -> QuantizedPolynomial {
    assert!(gamma > 1.0, "gamma must exceed 1 (got {gamma})");
    let lambda = poly.degree();
    let dims = poly
        .dims()
        .map(|ms| {
            ms.iter()
                .map(|m| {
                    let scale = gamma.powi((1 + lambda - m.degree()) as i32);
                    let scaled = m.coeff * scale;
                    // Stochastic rounding keeps the quantized coefficient
                    // unbiased; beyond f64's exact-integer range the value
                    // is already integral in representation.
                    let coeff = if scaled.abs() <= (1u64 << 53) as f64 {
                        stochastic_round(rng, scaled) as i128
                    } else {
                        assert!(
                            scaled.abs() < 1.7e38,
                            "scaled coefficient {scaled} exceeds i128 range"
                        );
                        scaled as i128
                    };
                    QuantizedMonomial {
                        coeff,
                        exponents: m.exponents.clone(),
                    }
                })
                .collect()
        })
        .collect();
    QuantizedPolynomial {
        n_vars: poly.n_vars(),
        degree: lambda,
        gamma,
        dims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::Monomial;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantized_value_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(1);
        let gamma = 64.0;
        let x = 0.1234567;
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| quantize_value(&mut rng, x, gamma) as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean / gamma - x).abs() < 1e-3,
            "mean/gamma = {}",
            mean / gamma
        );
    }

    #[test]
    fn quantized_value_deviates_less_than_one() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let q = quantize_value(&mut rng, x, 1024.0);
            assert!((q as f64 - 1024.0 * x).abs() < 1.0);
        }
    }

    #[test]
    fn coefficient_scaling_compensates_degree() {
        // f(x) = 0.5 x0^2 + 0.25 x0, lambda = 2.
        // deg-2 coefficient scaled by gamma^1, deg-1 by gamma^2.
        let p = Polynomial::one_dimensional(
            1,
            vec![
                Monomial::new(0.5, vec![(0, 2)]),
                Monomial::new(0.25, vec![(0, 1)]),
            ],
        );
        let mut rng = StdRng::seed_from_u64(4);
        let gamma = 256.0;
        let qp = quantize_polynomial(&mut rng, &p, gamma);
        assert_eq!(qp.degree(), 2);
        assert_eq!(qp.amplification(), gamma.powi(3));
        let c2 = qp.dim(0)[0].coeff as f64;
        let c1 = qp.dim(0)[1].coeff as f64;
        assert!((c2 - 0.5 * gamma).abs() <= 1.0);
        assert!((c1 - 0.25 * gamma * gamma).abs() <= 1.0);
    }

    #[test]
    fn quantized_eval_approximates_amplified_polynomial() {
        // End-to-end: evaluate the quantized polynomial on quantized data,
        // divide by gamma^(lambda+1), compare with the true value.
        let p = Polynomial::one_dimensional(
            2,
            vec![
                Monomial::new(1.0, vec![(0, 2)]),
                Monomial::new(-0.5, vec![(0, 1), (1, 1)]),
                Monomial::new(0.125, vec![(1, 1)]),
                Monomial::constant(0.75),
            ],
        );
        let mut rng = StdRng::seed_from_u64(5);
        let gamma = 4096.0;
        let qp = quantize_polynomial(&mut rng, &p, gamma);
        let x = [0.6, -0.35];
        let truth = p.eval(&x)[0];
        let qx = quantize_vec(&mut rng, &x, gamma);
        let approx = qp.eval_record(&qx)[0] as f64 / qp.amplification();
        assert!(
            (approx - truth).abs() < 0.01,
            "approx {approx} vs truth {truth}"
        );
    }

    #[test]
    fn error_shrinks_with_gamma() {
        // Corollary 1: approximation error -> 0 as gamma grows.
        let p = Polynomial::one_dimensional(1, vec![Monomial::new(1.0, vec![(0, 3)])]);
        let x = [0.7];
        let truth = p.eval(&x)[0];
        let mut errs = Vec::new();
        for gamma in [16.0, 256.0, 4096.0] {
            let mut rng = StdRng::seed_from_u64(6);
            // Average over repeats to suppress rounding randomness.
            let mut err_acc = 0.0;
            let reps = 64;
            for _ in 0..reps {
                let qp = quantize_polynomial(&mut rng, &p, gamma);
                let qx = quantize_vec(&mut rng, &x, gamma);
                let approx = qp.eval_record(&qx)[0] as f64 / qp.amplification();
                err_acc += (approx - truth).abs();
            }
            errs.push(err_acc / reps as f64);
        }
        assert!(errs[1] < errs[0] && errs[2] < errs[1], "errors {errs:?}");
        assert!(errs[2] < 1e-3);
    }

    #[test]
    fn constant_only_polynomial() {
        // Degenerate but legal: f(x) = 2. lambda = 0, amplification gamma^1.
        let p = Polynomial::one_dimensional(1, vec![Monomial::constant(2.0)]);
        let mut rng = StdRng::seed_from_u64(7);
        let qp = quantize_polynomial(&mut rng, &p, 128.0);
        assert_eq!(qp.degree(), 0);
        let out = qp.eval_record(&[55])[0] as f64 / qp.amplification();
        assert!((out - 2.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "gamma must exceed 1")]
    fn rejects_tiny_gamma() {
        let p = Polynomial::one_dimensional(1, vec![Monomial::linear(1.0, 0)]);
        let mut rng = StdRng::seed_from_u64(0);
        quantize_polynomial(&mut rng, &p, 0.5);
    }

    /// Algorithm 2 pin: `E[Q(gamma x)] = gamma x` exactly — the empirical
    /// mean of the quantized value must converge to the amplified input,
    /// not merely land within the +/-1 deviation band.
    #[test]
    fn quantize_value_is_unbiased_at_the_amplified_scale() {
        let mut rng = StdRng::seed_from_u64(31);
        let gamma = 37.0;
        for &x in &[0.0, 0.017, -0.49, 0.731, -1.0, 0.999] {
            let n = 400_000;
            let sum: i64 = (0..n).map(|_| quantize_value(&mut rng, x, gamma)).sum();
            let mean = sum as f64 / n as f64;
            let target = gamma * x;
            // Fractional part p has std sqrt(p(1-p)) <= 1/2 per draw; allow
            // 5 standard errors.
            let tol = 5.0 * 0.5 / (n as f64).sqrt();
            assert!(
                (mean - target).abs() < tol.max(1e-9),
                "x={x}: mean {mean} target {target}"
            );
        }
    }

    /// Algorithm 2 pin: worst-case per-coordinate quantization deviation is
    /// strictly below 1 — the unit the sensitivity lemmas (2-4) charge per
    /// coordinate.
    #[test]
    fn quantize_deviation_strictly_below_one_everywhere() {
        let mut rng = StdRng::seed_from_u64(32);
        let gamma = 1021.0;
        for i in 0..20_000 {
            let x = (i as f64 / 20_000.0) * 4.0 - 2.0;
            let q = quantize_value(&mut rng, x, gamma) as f64;
            assert!((q - gamma * x).abs() < 1.0, "x={x} q={q}");
        }
    }
}

//! Multi-dimensional polynomials over record attributes (Eq. 6 of the
//! paper).
//!
//! A [`Polynomial`] maps a record `x in R^n` to `d` outputs; each output
//! dimension `t` is a sum of [`Monomial`]s
//! `a_t[l] * prod_j x[j]^(B_t[l][j])`. Attribute `j` is owned by client `j`
//! in the VFL setting, which is why exponents are keyed by variable index.

use serde::{Deserialize, Serialize};

/// One monomial `coeff * prod_j x[j]^e_j`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Monomial {
    /// The real-valued coefficient `a_t[l]`.
    pub coeff: f64,
    /// `(variable index, exponent)` pairs; exponents are >= 1 and variable
    /// indices strictly increasing.
    pub exponents: Vec<(usize, u32)>,
}

impl Monomial {
    /// A constant term.
    pub fn constant(c: f64) -> Self {
        Monomial {
            coeff: c,
            exponents: Vec::new(),
        }
    }

    /// `coeff * x[var]`.
    pub fn linear(coeff: f64, var: usize) -> Self {
        Monomial {
            coeff,
            exponents: vec![(var, 1)],
        }
    }

    /// Build from unsorted `(var, exp)` pairs; merges duplicates, drops
    /// zero exponents.
    pub fn new(coeff: f64, mut exps: Vec<(usize, u32)>) -> Self {
        assert!(coeff.is_finite(), "coefficient must be finite");
        exps.retain(|&(_, e)| e > 0);
        exps.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(usize, u32)> = Vec::with_capacity(exps.len());
        for (v, e) in exps {
            match merged.last_mut() {
                Some((lv, le)) if *lv == v => *le += e,
                _ => merged.push((v, e)),
            }
        }
        Monomial {
            coeff,
            exponents: merged,
        }
    }

    /// Degree: total number of variable multiplications (sum of exponents).
    pub fn degree(&self) -> u32 {
        self.exponents.iter().map(|&(_, e)| e).sum()
    }

    /// Highest variable index used (None for constants).
    pub fn max_var(&self) -> Option<usize> {
        self.exponents.last().map(|&(v, _)| v)
    }

    /// Evaluate on a real-valued record.
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.coeff
            * self
                .exponents
                .iter()
                .map(|&(v, e)| x[v].powi(e as i32))
                .product::<f64>()
    }
}

/// A `d`-dimensional polynomial over `n` variables (Eq. 6).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Polynomial {
    n_vars: usize,
    /// `dims[t]` lists the monomials of output dimension `t`.
    dims: Vec<Vec<Monomial>>,
}

impl Polynomial {
    /// Build from per-dimension monomial lists; validates variable indices.
    pub fn new(n_vars: usize, dims: Vec<Vec<Monomial>>) -> Self {
        assert!(
            !dims.is_empty(),
            "polynomial needs at least one output dimension"
        );
        for (t, ms) in dims.iter().enumerate() {
            assert!(!ms.is_empty(), "dimension {t} has no monomials");
            for m in ms {
                if let Some(v) = m.max_var() {
                    assert!(
                        v < n_vars,
                        "dimension {t}: variable {v} out of range (n={n_vars})"
                    );
                }
            }
        }
        Polynomial { n_vars, dims }
    }

    /// A one-dimensional polynomial.
    pub fn one_dimensional(n_vars: usize, monomials: Vec<Monomial>) -> Self {
        Self::new(n_vars, vec![monomials])
    }

    /// The covariance polynomial `f(x) = x^T x` (`n^2` dimensions, degree 2)
    /// used by the PCA instantiation (Section V-A).
    pub fn covariance(n_vars: usize) -> Self {
        let mut dims = Vec::with_capacity(n_vars * n_vars);
        for j in 0..n_vars {
            for k in 0..n_vars {
                dims.push(vec![Monomial::new(1.0, vec![(j, 1), (k, 1)])]);
            }
        }
        Polynomial { n_vars, dims }
    }

    /// Number of variables (attributes / clients).
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Output dimensionality `d`.
    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// The monomials of output dimension `t`.
    pub fn dim(&self, t: usize) -> &[Monomial] {
        &self.dims[t]
    }

    /// Iterate over dimensions.
    pub fn dims(&self) -> impl Iterator<Item = &[Monomial]> {
        self.dims.iter().map(|v| v.as_slice())
    }

    /// Overall degree `lambda` (max over monomials of all dimensions).
    pub fn degree(&self) -> u32 {
        self.dims
            .iter()
            .flat_map(|ms| ms.iter().map(Monomial::degree))
            .max()
            .unwrap_or(0)
    }

    /// `max_t v_t` — the largest per-dimension monomial count (drives the
    /// overhead multiplicity in Lemma 4).
    pub fn max_monomials_per_dim(&self) -> usize {
        self.dims.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Evaluate `f(x)` on one record.
    pub fn eval(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_vars, "record dimension mismatch");
        self.dims
            .iter()
            .map(|ms| ms.iter().map(|m| m.eval(x)).sum())
            .collect()
    }

    /// Evaluate `F(X) = sum_x f(x)` over rows of a record iterator.
    pub fn sum_over<'a, I: IntoIterator<Item = &'a [f64]>>(&self, records: I) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_dims()];
        for x in records {
            for (a, v) in acc.iter_mut().zip(self.eval(x)) {
                *a += v;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::QuantizedMonomial;

    #[test]
    fn monomial_degree_and_eval() {
        // 1.5 * x0^3 * x2
        let m = Monomial::new(1.5, vec![(2, 1), (0, 3)]);
        assert_eq!(m.degree(), 4);
        assert_eq!(m.exponents, vec![(0, 3), (2, 1)]);
        assert_eq!(m.eval(&[2.0, 9.0, 5.0]), 1.5 * 8.0 * 5.0);
    }

    #[test]
    fn monomial_merges_duplicate_vars() {
        let m = Monomial::new(2.0, vec![(1, 1), (1, 2), (0, 0)]);
        assert_eq!(m.exponents, vec![(1, 3)]);
        assert_eq!(m.degree(), 3);
    }

    #[test]
    fn constant_monomial() {
        let m = Monomial::constant(7.0);
        assert_eq!(m.degree(), 0);
        assert_eq!(m.eval(&[1.0, 2.0]), 7.0);
        assert_eq!(m.max_var(), None);
    }

    #[test]
    fn integer_evaluation() {
        let m = QuantizedMonomial {
            coeff: 3,
            exponents: vec![(0, 2), (1, 1)],
        };
        assert_eq!(m.eval_i128(&[-3, 5]), 135); // 3 * (-3)^2 * 5
    }

    #[test]
    fn paper_example_polynomial() {
        // f(x) = x[0]^3 + 1.5 x[1] x[2] + 2 — degree 3 (Section II).
        let p = Polynomial::one_dimensional(
            3,
            vec![
                Monomial::new(1.0, vec![(0, 3)]),
                Monomial::new(1.5, vec![(1, 1), (2, 1)]),
                Monomial::constant(2.0),
            ],
        );
        assert_eq!(p.degree(), 3);
        assert_eq!(p.eval(&[2.0, 3.0, 4.0]), vec![8.0 + 18.0 + 2.0]);
    }

    #[test]
    fn covariance_polynomial() {
        let p = Polynomial::covariance(3);
        assert_eq!(p.n_dims(), 9);
        assert_eq!(p.degree(), 2);
        let x = [1.0, 2.0, 3.0];
        let out = p.eval(&x);
        // out[(j,k)] = x_j * x_k, row-major.
        for j in 0..3 {
            for k in 0..3 {
                assert_eq!(out[j * 3 + k], x[j] * x[k]);
            }
        }
    }

    #[test]
    fn sum_over_records() {
        let p = Polynomial::one_dimensional(2, vec![Monomial::new(1.0, vec![(0, 1), (1, 1)])]);
        let records: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let total = p.sum_over(records.iter().map(|r| r.as_slice()));
        assert_eq!(total, vec![2.0 + 12.0]);
    }

    #[test]
    fn max_monomials_per_dim() {
        let p = Polynomial::new(
            2,
            vec![
                vec![Monomial::constant(1.0)],
                vec![Monomial::linear(1.0, 0), Monomial::linear(2.0, 1)],
            ],
        );
        assert_eq!(p.max_monomials_per_dim(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_variable() {
        Polynomial::one_dimensional(2, vec![Monomial::linear(1.0, 5)]);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn integer_eval_overflow_panics() {
        let m = QuantizedMonomial {
            coeff: 1,
            exponents: vec![(0, 3)],
        };
        m.eval_i128(&[i64::MAX]);
    }
}

//! Differentially private frequency estimation over vertically partitioned
//! categorical data.
//!
//! * **Histogram** (one attribute): counts are column sums of the one-hot
//!   encoding — Algorithm 1 with `lambda = 1`.
//! * **Contingency table** (two attributes held by *different* clients):
//!   the joint count matrix is the cross block of the covariance of the
//!   concatenated one-hot encodings `[A | B]` — a degree-2 polynomial, the
//!   same machinery as PCA. This is the canonical "two organizations want
//!   a joint frequency table without sharing raw data" workload
//!   (frequency estimation under multiparty DP, \[11\]).

use rand::Rng;
use sqm_accounting::analytic_gaussian::analytic_gaussian_sigma;
use sqm_accounting::calibration::{calibrate_skellam_mu, CalibrationTarget};
use sqm_accounting::skellam::Sensitivity;
use sqm_core::sensitivity::{column_sum_sensitivity, pca_sensitivity};
use sqm_linalg::Matrix;
use sqm_sampling::gaussian::sample_normal;
use sqm_vfl::{column_sums_oracle, covariance_quantized_oracle};

/// A categorical attribute: one value in `0..n_categories` per record.
#[derive(Clone, Debug)]
pub struct Categorical {
    values: Vec<usize>,
    n_categories: usize,
}

impl Categorical {
    pub fn new(values: Vec<usize>, n_categories: usize) -> Self {
        assert!(n_categories >= 1, "need at least one category");
        assert!(
            values.iter().all(|&v| v < n_categories),
            "category value out of range"
        );
        Categorical {
            values,
            n_categories,
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn n_categories(&self) -> usize {
        self.n_categories
    }

    /// One-hot encoding: `m x k` matrix with a single 1 per row.
    pub fn one_hot(&self) -> Matrix {
        let mut x = Matrix::zeros(self.values.len(), self.n_categories);
        for (i, &v) in self.values.iter().enumerate() {
            x[(i, v)] = 1.0;
        }
        x
    }

    /// Exact counts.
    pub fn exact_counts(&self) -> Vec<f64> {
        let mut c = vec![0.0; self.n_categories];
        for &v in &self.values {
            c[v] += 1.0;
        }
        c
    }
}

/// Exact joint counts of two aligned attributes (`ka x kb`).
pub fn exact_contingency(a: &Categorical, b: &Categorical) -> Matrix {
    assert_eq!(a.len(), b.len(), "attributes must be aligned");
    let mut t = Matrix::zeros(a.n_categories, b.n_categories);
    for (&va, &vb) in a.values.iter().zip(&b.values) {
        t[(va, vb)] += 1.0;
    }
    t
}

/// SQM histogram release (degree-1, distributed Skellam).
#[derive(Clone, Debug)]
pub struct SqmHistogram {
    pub gamma: f64,
    pub target: CalibrationTarget,
    pub n_clients: usize,
}

impl SqmHistogram {
    pub fn new(gamma: f64, eps: f64, delta: f64) -> Self {
        SqmHistogram {
            gamma,
            target: CalibrationTarget::new(eps, delta),
            n_clients: 4,
        }
    }

    /// A record's one-hot row has L2 norm exactly 1; quantized,
    /// `gamma + sqrt(k)` with the rounding slack.
    pub fn sensitivity(&self, k: usize) -> Sensitivity {
        column_sum_sensitivity(self.gamma, 1.0, k)
    }

    /// The calibrated Skellam parameter over `k` categories.
    pub fn calibrated_mu(&self, k: usize) -> f64 {
        calibrate_skellam_mu(self.target, self.sensitivity(k), 1, 1.0)
    }

    /// Estimate the counts.
    pub fn estimate<R: Rng + ?Sized>(&self, rng: &mut R, data: &Categorical) -> Vec<f64> {
        let k = data.n_categories();
        let mu = self.calibrated_mu(k);
        let one_hot = data.one_hot();
        let (partition, cfg) = crate::replay(rng, k, self.n_clients);
        column_sums_oracle(&one_hot, &partition, self.gamma, mu, &cfg)
            .into_iter()
            .map(|s| s / self.gamma)
            .collect()
    }
}

/// SQM contingency-table release (degree-2, via the joint one-hot
/// covariance).
#[derive(Clone, Debug)]
pub struct SqmContingency {
    pub gamma: f64,
    pub target: CalibrationTarget,
    pub n_clients: usize,
}

impl SqmContingency {
    pub fn new(gamma: f64, eps: f64, delta: f64) -> Self {
        SqmContingency {
            gamma,
            target: CalibrationTarget::new(eps, delta),
            n_clients: 2,
        }
    }

    /// Estimate the `ka x kb` joint counts of two attributes held by
    /// different clients.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        a: &Categorical,
        b: &Categorical,
    ) -> Matrix {
        assert_eq!(a.len(), b.len(), "attributes must be aligned");
        let (ka, kb) = (a.n_categories(), b.n_categories());
        // Concatenated one-hot record has norm sqrt(2).
        let n_cols = ka + kb;
        let sens = pca_sensitivity(self.gamma, (2.0f64).sqrt(), n_cols);
        let mu = calibrate_skellam_mu(self.target, sens, 1, 1.0);

        let m = a.len();
        let mut joint = Matrix::zeros(m, n_cols);
        for i in 0..m {
            joint[(i, a.values[i])] = 1.0;
            joint[(i, ka + b.values[i])] = 1.0;
        }
        let (partition, cfg) = crate::replay(rng, n_cols, self.n_clients);
        let cov = covariance_quantized_oracle(&joint, &partition, self.gamma, mu, &cfg);
        // The A^T B block, down-scaled, is the contingency table.
        let mut t = Matrix::zeros(ka, kb);
        for i in 0..ka {
            for j in 0..kb {
                t[(i, j)] = cov[(i, ka + j)] / (self.gamma * self.gamma);
            }
        }
        t
    }
}

/// Central-DP baseline: Gaussian noise straight on the exact counts.
#[derive(Clone, Debug)]
pub struct GaussianHistogram {
    pub eps: f64,
    pub delta: f64,
}

impl GaussianHistogram {
    pub fn new(eps: f64, delta: f64) -> Self {
        GaussianHistogram { eps, delta }
    }

    pub fn estimate<R: Rng + ?Sized>(&self, rng: &mut R, data: &Categorical) -> Vec<f64> {
        // One record changes one count by 1: L2 sensitivity 1.
        let sigma = analytic_gaussian_sigma(self.eps, self.delta, 1.0);
        data.exact_counts()
            .into_iter()
            .map(|c| c + sample_normal(rng, 0.0, sigma))
            .collect()
    }
}

/// L1 distance between two count vectors.
pub fn l1_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Total-variation distance between the *normalized* count vectors.
pub fn tv_distance(a: &[f64], b: &[f64]) -> f64 {
    let sa: f64 = a.iter().sum();
    let sb: f64 = b.iter().sum();
    assert!(sa > 0.0 && sb > 0.0, "cannot normalize empty histograms");
    0.5 * a
        .iter()
        .zip(b)
        .map(|(x, y)| (x / sa - y / sb).abs())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn zipfish(m: usize, k: usize, seed: u64) -> Categorical {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = (0..m)
            .map(|_| {
                // Skewed categories: heavier mass on low indices.
                let u: f64 = rng.gen();
                ((u * u) * k as f64) as usize % k
            })
            .collect();
        Categorical::new(values, k)
    }

    #[test]
    fn one_hot_and_exact_counts() {
        let c = Categorical::new(vec![0, 2, 2, 1], 3);
        assert_eq!(c.exact_counts(), vec![1.0, 1.0, 2.0]);
        let oh = c.one_hot();
        assert_eq!(oh[(1, 2)], 1.0);
        assert_eq!(oh[(1, 0)], 0.0);
        assert_eq!(oh.max_row_norm(), 1.0);
    }

    /// A record's contribution to the counts is its quantized one-hot row:
    /// at integer and fractional `gamma`, every rounding outcome of every
    /// category's row stays within the charged `gamma + sqrt(k)` in L2 and
    /// `Delta_1` in L1.
    #[test]
    fn sensitivity_bounds_every_rounding_outcome() {
        for k in [1usize, 2, 5, 16] {
            for gamma in [7.5, 64.0, 100.3, 4096.75] {
                let s = SqmHistogram::new(gamma, 1.0, 1e-5).sensitivity(k);
                for v in 0..k {
                    let row = Categorical::new(vec![v], k).one_hot();
                    let outcomes = crate::rounding_norms(row.row(0), gamma);
                    assert_eq!(outcomes.len(), if gamma.fract() == 0.0 { 1 } else { 2 });
                    for (l2, l1) in outcomes {
                        let at = format!("(gamma, k, v) = ({gamma}, {k}, {v})");
                        assert!(l2 <= s.l2, "L2 {l2} > {} at {at}", s.l2);
                        assert!(l1 <= s.l1, "L1 {l1} > {} at {at}", s.l1);
                    }
                }
            }
        }
    }

    #[test]
    fn sqm_histogram_is_accurate() {
        let data = zipfish(20_000, 8, 1);
        let truth = data.exact_counts();
        let mut rng = StdRng::seed_from_u64(2);
        let est = SqmHistogram::new(4096.0, 1.0, 1e-5).estimate(&mut rng, &data);
        // Counts are in the thousands; noise std is O(10).
        assert!(
            tv_distance(&est, &truth) < 0.01,
            "tv {}",
            tv_distance(&est, &truth)
        );
    }

    #[test]
    fn sqm_tracks_central_histogram() {
        let data = zipfish(5_000, 10, 3);
        let truth = data.exact_counts();
        let mut rng = StdRng::seed_from_u64(4);
        let reps = 20;
        let (mut e_sqm, mut e_central) = (0.0, 0.0);
        for _ in 0..reps {
            e_sqm += l1_error(
                &SqmHistogram::new(8192.0, 1.0, 1e-5).estimate(&mut rng, &data),
                &truth,
            );
            e_central += l1_error(
                &GaussianHistogram::new(1.0, 1e-5).estimate(&mut rng, &data),
                &truth,
            );
        }
        // SQM calibrates against the conservative bound gamma + sqrt(k);
        // within 2x of central is the "comparable" regime.
        assert!(
            e_sqm < 2.0 * e_central,
            "SQM {e_sqm} vs central {e_central}"
        );
    }

    #[test]
    fn contingency_matches_exact_at_loose_privacy() {
        let a = zipfish(10_000, 4, 5);
        let b = zipfish(10_000, 3, 6);
        let truth = exact_contingency(&a, &b);
        let mut rng = StdRng::seed_from_u64(7);
        let est = SqmContingency::new(4096.0, 8.0, 1e-5).estimate(&mut rng, &a, &b);
        let rel = est.sub(&truth).frobenius_norm() / truth.frobenius_norm();
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn contingency_marginals_match_histograms() {
        let a = zipfish(8_000, 5, 8);
        let b = zipfish(8_000, 4, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let t = SqmContingency::new(4096.0, 8.0, 1e-5).estimate(&mut rng, &a, &b);
        // Row sums of the joint table ~ histogram of A.
        let truth_a = a.exact_counts();
        for i in 0..5 {
            let row_sum: f64 = (0..4).map(|j| t[(i, j)]).sum();
            assert!(
                (row_sum - truth_a[i]).abs() < 0.02 * a.len() as f64 / 5.0 + 20.0,
                "marginal {i}: {row_sum} vs {}",
                truth_a[i]
            );
        }
    }

    #[test]
    fn error_grows_as_eps_shrinks() {
        let data = zipfish(5_000, 6, 11);
        let truth = data.exact_counts();
        let mut rng = StdRng::seed_from_u64(12);
        let reps = 10;
        let err_at = |eps: f64, rng: &mut StdRng| {
            (0..reps)
                .map(|_| {
                    l1_error(
                        &SqmHistogram::new(4096.0, eps, 1e-5).estimate(rng, &data),
                        &truth,
                    )
                })
                .sum::<f64>()
                / reps as f64
        };
        let tight = err_at(0.25, &mut rng);
        let loose = err_at(8.0, &mut rng);
        assert!(loose < tight, "loose {loose} vs tight {tight}");
    }

    #[test]
    fn tv_distance_properties() {
        assert_eq!(tv_distance(&[1.0, 1.0], &[2.0, 2.0]), 0.0);
        assert!((tv_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_category() {
        Categorical::new(vec![0, 5], 3);
    }
}

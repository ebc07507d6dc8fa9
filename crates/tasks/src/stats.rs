//! Differentially private mean release — the degree-1 instantiation.
//!
//! Estimating the per-attribute mean of a vertically partitioned database
//! is Algorithm 1 with `lambda = 1` applied to each column. It is the
//! cleanest illustration of the framework: quantize, add distributed
//! Skellam calibrated to the record norm, open, rescale.

use rand::Rng;
use sqm_accounting::analytic_gaussian::analytic_gaussian_sigma;
use sqm_accounting::calibration::{calibrate_skellam_mu, CalibrationTarget};
use sqm_accounting::skellam::Sensitivity;
use sqm_core::baseline::local_dp_release;
use sqm_core::sensitivity::column_sum_sensitivity;
use sqm_linalg::Matrix;
use sqm_sampling::gaussian::sample_normal;
use sqm_vfl::mean::{column_sums_oracle, column_sums_skellam};
use sqm_vfl::ColumnPartition;

use crate::Backend;

/// SQM instantiated on per-attribute means.
#[derive(Clone, Debug)]
pub struct SqmMean {
    pub gamma: f64,
    pub target: CalibrationTarget,
    pub n_clients: usize,
    /// *Public* record-norm bound `c`; noise is calibrated to it, never to
    /// the private data.
    pub norm_bound: f64,
    pub backend: Backend,
}

impl SqmMean {
    pub fn new(gamma: f64, eps: f64, delta: f64) -> Self {
        SqmMean {
            gamma,
            target: CalibrationTarget::new(eps, delta),
            n_clients: 4,
            norm_bound: 1.0,
            backend: Backend::Plaintext,
        }
    }

    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sensitivity of the quantized column-sum release: one record
    /// contributes its quantized row, `||hat x||_2 <= gamma c + sqrt(n)`.
    pub fn sensitivity(&self, c: f64, n: usize) -> Sensitivity {
        column_sum_sensitivity(self.gamma, c, n)
    }

    /// The calibrated Skellam parameter.
    pub fn calibrated_mu(&self, c: f64, n: usize) -> f64 {
        calibrate_skellam_mu(self.target, self.sensitivity(c, n), 1, 1.0)
    }

    /// Estimate the per-column means.
    pub fn estimate<R: Rng + ?Sized>(&self, rng: &mut R, data: &Matrix) -> Vec<f64> {
        let n = data.cols();
        let m = data.rows().max(1);
        let c = self.norm_bound;
        assert!(
            data.max_row_norm() <= c * (1.0 + 1e-9),
            "a record exceeds the public norm bound c = {c}"
        );
        let mu = self.calibrated_mu(c, n);
        let sums = match &self.backend {
            Backend::Plaintext => {
                let (partition, cfg) = crate::replay(rng, n, self.n_clients);
                column_sums_oracle(data, &partition, self.gamma, mu, &cfg)
            }
            Backend::Mpc(cfg) => {
                let partition = ColumnPartition::even(n, cfg.n_clients());
                column_sums_skellam(data, &partition, self.gamma, mu, cfg).sums_hat
            }
        };
        sums.into_iter()
            .map(|s| s / (self.gamma * m as f64))
            .collect()
    }
}

/// Central-DP baseline: perturb the exact sums with calibrated Gaussian.
#[derive(Clone, Debug)]
pub struct GaussianMean {
    pub eps: f64,
    pub delta: f64,
    /// Public record-norm bound `c`.
    pub norm_bound: f64,
}

impl GaussianMean {
    pub fn new(eps: f64, delta: f64) -> Self {
        GaussianMean {
            eps,
            delta,
            norm_bound: 1.0,
        }
    }

    pub fn estimate<R: Rng + ?Sized>(&self, rng: &mut R, data: &Matrix) -> Vec<f64> {
        let n = data.cols();
        let m = data.rows().max(1);
        let c = self.norm_bound;
        assert!(
            data.max_row_norm() <= c * (1.0 + 1e-9),
            "record exceeds public bound"
        );
        let sigma = analytic_gaussian_sigma(self.eps, self.delta, c);
        (0..n)
            .map(|j| {
                let s: f64 = data.col(j).iter().sum();
                (s + sample_normal(rng, 0.0, sigma)) / m as f64
            })
            .collect()
    }
}

/// Local-DP baseline: Algorithm 4 then average the noisy data.
#[derive(Clone, Debug)]
pub struct LocalDpMean {
    pub eps: f64,
    pub delta: f64,
    /// Public record-norm bound `c`.
    pub norm_bound: f64,
}

impl LocalDpMean {
    pub fn new(eps: f64, delta: f64) -> Self {
        LocalDpMean {
            eps,
            delta,
            norm_bound: 1.0,
        }
    }

    pub fn estimate<R: Rng + ?Sized>(&self, rng: &mut R, data: &Matrix) -> Vec<f64> {
        let c = self.norm_bound;
        assert!(
            data.max_row_norm() <= c * (1.0 + 1e-9),
            "record exceeds public bound"
        );
        let noisy = local_dp_release(rng, data, self.eps, self.delta, c);
        let m = noisy.rows().max(1);
        (0..noisy.cols())
            .map(|j| noisy.col(j).iter().sum::<f64>() / m as f64)
            .collect()
    }
}

/// Exact means (no privacy).
pub fn exact_means(data: &Matrix) -> Vec<f64> {
    let m = data.rows().max(1);
    (0..data.cols())
        .map(|j| data.col(j).iter().sum::<f64>() / m as f64)
        .collect()
}

/// L2 error between two mean vectors.
pub fn mean_l2_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqm_datasets::SpectralSpec;
    use sqm_vfl::VflConfig;

    fn data() -> Matrix {
        SpectralSpec::new(2000, 8).with_seed(9).generate()
    }

    #[test]
    fn error_ordering_sqm_between_central_and_local() {
        let x = data();
        let truth = exact_means(&x);
        let mut rng = StdRng::seed_from_u64(1);
        let (eps, delta) = (1.0, 1e-5);
        let reps = 20;
        let (mut e_sqm, mut e_central, mut e_local) = (0.0, 0.0, 0.0);
        for _ in 0..reps {
            e_sqm += mean_l2_error(
                &SqmMean::new(4096.0, eps, delta).estimate(&mut rng, &x),
                &truth,
            );
            e_central += mean_l2_error(
                &GaussianMean::new(eps, delta).estimate(&mut rng, &x),
                &truth,
            );
            e_local += mean_l2_error(&LocalDpMean::new(eps, delta).estimate(&mut rng, &x), &truth);
        }
        let (e_sqm, e_central, e_local) = (
            e_sqm / reps as f64,
            e_central / reps as f64,
            e_local / reps as f64,
        );
        assert!(e_sqm < e_local, "SQM {e_sqm} must beat local {e_local}");
        assert!(
            e_sqm < e_central * 1.5,
            "SQM {e_sqm} should track central {e_central}"
        );
    }

    #[test]
    fn sqm_mean_is_accurate_at_loose_privacy() {
        let x = data();
        let truth = exact_means(&x);
        let mut rng = StdRng::seed_from_u64(2);
        let est = SqmMean::new(8192.0, 8.0, 1e-5).estimate(&mut rng, &x);
        let err = mean_l2_error(&est, &truth);
        // Means of 2000 records with sigma ~ sensitivity/eps/m are tiny.
        assert!(err < 0.01, "err {err}");
    }

    #[test]
    fn mpc_backend_agrees() {
        let x = SpectralSpec::new(100, 4).with_seed(10).generate();
        let truth = exact_means(&x);
        let mut rng = StdRng::seed_from_u64(3);
        let est = SqmMean::new(8192.0, 8.0, 1e-5)
            .with_backend(Backend::Mpc(VflConfig::fast(2)))
            .estimate(&mut rng, &x);
        let err = mean_l2_error(&est, &truth);
        assert!(err < 0.05, "err {err}");
    }

    /// One record's whole contribution to the column sums is its
    /// quantized row, so for adversarial records at the norm bound —
    /// equal fractional coordinates, alternating signs, one dominant
    /// coordinate, seeded directions — every one of the `2^n` rounding
    /// outcomes (`n <= 16`) shifts the sums by at most the charged
    /// `Delta_2 = gamma c + sqrt(n)` in L2 and `Delta_1` in L1.
    #[test]
    fn sensitivity_bounds_every_rounding_outcome() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(18);
        for (gamma, c, n) in [
            (18.0, 1.0, 16),
            (24.0, 1.0, 6),
            (7.0, 2.0, 10),
            (3.0, 0.5, 12),
            (4096.5, 1.0, 14),
        ] {
            let on_sphere = |v: Vec<f64>| {
                let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
                v.into_iter().map(|a| a * c / norm).collect::<Vec<f64>>()
            };
            let mut records = vec![
                on_sphere(vec![1.0; n]),
                on_sphere((0..n).map(|i| [1.0, -1.0][i % 2]).collect()),
                on_sphere((0..n).map(|i| if i == 0 { 8.0 } else { 0.3 }).collect()),
            ];
            for _ in 0..4 {
                records.push(on_sphere(
                    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                ));
            }
            let s = SqmMean::new(gamma, 1.0, 1e-5).sensitivity(c, n);
            for x in &records {
                for (l2, l1) in crate::rounding_norms(x, gamma) {
                    let at = format!("(gamma, c, n) = ({gamma}, {c}, {n}), x = {x:?}");
                    assert!(l2 <= s.l2, "L2 {l2} > {} at {at}", s.l2);
                    assert!(l1 <= s.l1, "L1 {l1} > {} at {at}", s.l1);
                }
            }
        }
        // The equal-coordinate record at (18, 1, 16) sits at 4.5 per
        // coordinate: rounding all of them up gives ||hat x|| = 20, over
        // gamma c = 18 and under 18 + sqrt(16).
        let worst = crate::rounding_norms(&[0.25; 16], 18.0)
            .into_iter()
            .map(|(l2, _)| l2)
            .fold(0.0, f64::max);
        assert_eq!(worst, 20.0);
    }

    #[test]
    fn sensitivity_shrinks_relative_to_gamma() {
        let m1 = SqmMean::new(64.0, 1.0, 1e-5);
        let m2 = SqmMean::new(65536.0, 1.0, 1e-5);
        let r1 = m1.sensitivity(1.0, 100).l2 / 64.0;
        let r2 = m2.sensitivity(1.0, 100).l2 / 65536.0;
        assert!(r2 < r1, "relative sensitivity should shrink: {r1} -> {r2}");
        assert!((r2 - 1.0).abs() < 0.01);
    }
}

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
use sqm_linalg::Matrix;
use sqm_sampling::gaussian::sample_normal;
use sqm_vfl::mean::{column_sums_skellam, column_sums_skellam_plaintext};
use sqm_vfl::{ColumnPartition, VflConfig};

/// Execution backend for SQM-Mean.
#[derive(Clone, Debug)]
// The Mpc variant carries the whole VflConfig (transport backend
// included); backends are built once per task, so the size gap is fine.
#[allow(clippy::large_enum_variant)]
pub enum MeanBackend {
    Plaintext,
    Mpc(VflConfig),
}

/// SQM instantiated on per-attribute means.
#[derive(Clone, Debug)]
pub struct SqmMean {
    pub gamma: f64,
    pub target: CalibrationTarget,
    pub n_clients: usize,
    /// *Public* record-norm bound `c`; noise is calibrated to it, never to
    /// the private data.
    pub norm_bound: f64,
    pub backend: MeanBackend,
}

impl SqmMean {
    pub fn new(gamma: f64, eps: f64, delta: f64) -> Self {
        SqmMean {
            gamma,
            target: CalibrationTarget::new(eps, delta),
            n_clients: 4,
            norm_bound: 1.0,
            backend: MeanBackend::Plaintext,
        }
    }

    pub fn with_backend(mut self, backend: MeanBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sensitivity of the quantized column-sum release: one record
    /// contributes its quantized row, `||hat x||_2 <= gamma c + sqrt(n)`.
    pub fn sensitivity(&self, c: f64, n: usize) -> Sensitivity {
        Sensitivity::from_l2_for_dim(self.gamma * c + (n as f64).sqrt(), n)
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
            MeanBackend::Plaintext => {
                column_sums_skellam_plaintext(rng, data, self.gamma, mu, self.n_clients)
            }
            MeanBackend::Mpc(cfg) => {
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
            .with_backend(MeanBackend::Mpc(VflConfig::fast(2)))
            .estimate(&mut rng, &x);
        let err = mean_l2_error(&est, &truth);
        assert!(err < 0.05, "err {err}");
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

//! Differentially private ridge regression — a third SQM instantiation
//! (the paper's "extension" direction: any learning task whose sufficient
//! statistics are polynomials fits the framework).
//!
//! Ridge regression needs exactly two polynomial statistics of the joint
//! record `(x, y)`: the Gram matrix `X^T X` and the cross-moments `X^T y`.
//! Both are entries of the `(d+1) x (d+1)` covariance of the augmented
//! matrix `[X | y]` — so SQM-Ridge is *one* call to the secure noisy
//! covariance protocol (Section V-A machinery, sensitivity from Lemma 5
//! with the augmented norm bound `c' = sqrt(c^2 + y_max^2)`), followed by
//! solving the regularized normal equations in the clear.

use rand::Rng;
use sqm_accounting::analytic_gaussian::analytic_gaussian_sigma;
use sqm_accounting::calibration::{calibrate_skellam_mu, CalibrationTarget};
use sqm_core::baseline::local_dp_release;
use sqm_core::sensitivity::pca_sensitivity;
use sqm_datasets::RegressionDataset;
use sqm_linalg::solve::solve_ridge;
use sqm_linalg::Matrix;
use sqm_sampling::gaussian::sample_normal;
use sqm_vfl::covariance::{covariance_skellam, covariance_skellam_plaintext};
use sqm_vfl::{ColumnPartition, VflConfig};

/// Execution backend for SQM-Ridge.
#[derive(Clone, Debug)]
// The Mpc variant carries the whole VflConfig (transport backend
// included); backends are built once per task, so the size gap is fine.
#[allow(clippy::large_enum_variant)]
pub enum RidgeBackend {
    /// Output-equivalent plaintext simulation.
    Plaintext,
    /// Full BGW execution.
    Mpc(VflConfig),
}

/// SQM instantiated on ridge regression.
#[derive(Clone, Debug)]
pub struct SqmRidge {
    /// Regularization strength (applied to the *normalized* Gram matrix).
    pub lambda: f64,
    /// Quantization scale.
    pub gamma: f64,
    /// Server-observed `(eps, delta)` target.
    pub target: CalibrationTarget,
    /// Number of clients contributing noise shares.
    pub n_clients: usize,
    /// *Public* bound on the augmented record norm `||(x, y)||_2`
    /// (default `sqrt(2)`: unit-ball features plus `|y| <= 1`). The noise
    /// is calibrated to this bound, never to the private data.
    pub norm_bound: f64,
    pub backend: RidgeBackend,
}

impl SqmRidge {
    pub fn new(lambda: f64, gamma: f64, eps: f64, delta: f64) -> Self {
        assert!(lambda >= 0.0);
        SqmRidge {
            lambda,
            gamma,
            target: CalibrationTarget::new(eps, delta),
            n_clients: 4,
            norm_bound: (2.0f64).sqrt(),
            backend: RidgeBackend::Plaintext,
        }
    }

    pub fn with_backend(mut self, backend: RidgeBackend) -> Self {
        self.backend = backend;
        self
    }

    pub fn with_clients(mut self, n: usize) -> Self {
        self.n_clients = n;
        self
    }

    /// The calibrated Skellam parameter for the augmented covariance
    /// release (`d + 1` columns, augmented record norm bound `c_aug`).
    pub fn calibrated_mu(&self, c_aug: f64, n_cols: usize) -> f64 {
        let sens = pca_sensitivity(self.gamma, c_aug, n_cols);
        calibrate_skellam_mu(self.target, sens, 1, 1.0)
    }

    /// Fit: returns the `d`-dimensional weight vector.
    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, train: &RegressionDataset) -> Vec<f64> {
        let d = train.features.cols();
        let m = train.len();
        let aug = train.as_vfl_matrix(); // m x (d+1), target last
        let c_aug = self.norm_bound;
        assert!(
            aug.max_row_norm() <= c_aug * (1.0 + 1e-9),
            "an augmented record exceeds the public bound {c_aug}; clip the data first"
        );
        let n_cols = d + 1;
        let mu = self.calibrated_mu(c_aug, n_cols);

        let c_hat = match &self.backend {
            RidgeBackend::Plaintext => {
                covariance_skellam_plaintext(rng, &aug, self.gamma, mu, self.n_clients)
            }
            RidgeBackend::Mpc(cfg) => {
                let partition = ColumnPartition::even(n_cols, cfg.n_clients());
                covariance_skellam(&aug, &partition, self.gamma, mu, cfg).c_hat
            }
        };
        let scale = 1.0 / (self.gamma * self.gamma * m as f64);
        solve_from_noisy_covariance(&c_hat.scaled(scale), d, self.lambda)
    }
}

/// Extract `(G, r)` from a noisy augmented covariance and solve the ridge
/// system `(G + lambda I) w = r`.
fn solve_from_noisy_covariance(c: &Matrix, d: usize, lambda: f64) -> Vec<f64> {
    let mut g = Matrix::zeros(d, d);
    let mut r = vec![0.0; d];
    for i in 0..d {
        for j in 0..d {
            g[(i, j)] = c[(i, j)];
        }
        r[i] = c[(i, d)];
    }
    solve_ridge(&g, &r, lambda)
}

/// Central-DP baseline: Gaussian perturbation of the augmented covariance
/// (Analyze-Gauss style) then solve.
#[derive(Clone, Debug)]
pub struct GaussianRidge {
    pub lambda: f64,
    pub eps: f64,
    pub delta: f64,
    /// Public augmented-record norm bound.
    pub norm_bound: f64,
}

impl GaussianRidge {
    pub fn new(lambda: f64, eps: f64, delta: f64) -> Self {
        GaussianRidge {
            lambda,
            eps,
            delta,
            norm_bound: (2.0f64).sqrt(),
        }
    }

    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, train: &RegressionDataset) -> Vec<f64> {
        let d = train.features.cols();
        let m = train.len();
        let aug = train.as_vfl_matrix();
        let c_aug = self.norm_bound;
        assert!(
            aug.max_row_norm() <= c_aug * (1.0 + 1e-9),
            "record exceeds public bound"
        );
        let sigma = analytic_gaussian_sigma(self.eps, self.delta, c_aug * c_aug);
        let mut cov = aug.gram();
        let n_cols = d + 1;
        for i in 0..n_cols {
            for j in i..n_cols {
                let z = sample_normal(rng, 0.0, sigma);
                cov[(i, j)] += z;
                if i != j {
                    cov[(j, i)] += z;
                }
            }
        }
        solve_from_noisy_covariance(&cov.scaled(1.0 / m as f64), d, self.lambda)
    }
}

/// Local-DP baseline: Algorithm 4 on the augmented matrix, then ordinary
/// ridge on the perturbed data.
#[derive(Clone, Debug)]
pub struct LocalDpRidge {
    pub lambda: f64,
    pub eps: f64,
    pub delta: f64,
    /// Public augmented-record norm bound.
    pub norm_bound: f64,
}

impl LocalDpRidge {
    pub fn new(lambda: f64, eps: f64, delta: f64) -> Self {
        LocalDpRidge {
            lambda,
            eps,
            delta,
            norm_bound: (2.0f64).sqrt(),
        }
    }

    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, train: &RegressionDataset) -> Vec<f64> {
        let d = train.features.cols();
        let m = train.len();
        let aug = train.as_vfl_matrix();
        let c_aug = self.norm_bound;
        assert!(
            aug.max_row_norm() <= c_aug * (1.0 + 1e-9),
            "record exceeds public bound"
        );
        let noisy = local_dp_release(rng, &aug, self.eps, self.delta, c_aug);
        solve_from_noisy_covariance(&noisy.gram().scaled(1.0 / m as f64), d, self.lambda)
    }
}

/// Non-private ridge: the error floor.
#[derive(Clone, Debug)]
pub struct NonPrivateRidge {
    pub lambda: f64,
}

impl NonPrivateRidge {
    pub fn new(lambda: f64) -> Self {
        NonPrivateRidge { lambda }
    }

    pub fn fit(&self, train: &RegressionDataset) -> Vec<f64> {
        let d = train.features.cols();
        let m = train.len();
        let aug = train.as_vfl_matrix();
        solve_from_noisy_covariance(&aug.gram().scaled(1.0 / m as f64), d, self.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqm_datasets::RegressionSpec;

    fn dataset() -> (RegressionDataset, RegressionDataset) {
        RegressionSpec::new(4000, 10)
            .with_seed(1)
            .generate()
            .split(0.8, 0)
    }

    #[test]
    fn non_private_recovers_planted_model() {
        let (train, test) = dataset();
        let w = NonPrivateRidge::new(1e-4).fit(&train);
        let mse = test.mse(&w);
        let floor = test.mse(&test.true_weights);
        assert!(mse < floor * 1.5 + 1e-4, "mse {mse} vs floor {floor}");
    }

    #[test]
    fn sqm_tracks_central_and_beats_local() {
        let (train, test) = dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let (eps, delta, lambda) = (2.0, 1e-5, 1e-3);
        let reps = 5;
        let (mut e_sqm, mut e_central, mut e_local) = (0.0, 0.0, 0.0);
        for _ in 0..reps {
            e_sqm += test.mse(&SqmRidge::new(lambda, 4096.0, eps, delta).fit(&mut rng, &train));
            e_central += test.mse(&GaussianRidge::new(lambda, eps, delta).fit(&mut rng, &train));
            e_local += test.mse(&LocalDpRidge::new(lambda, eps, delta).fit(&mut rng, &train));
        }
        let (e_sqm, e_central, e_local) = (
            e_sqm / reps as f64,
            e_central / reps as f64,
            e_local / reps as f64,
        );
        assert!(e_sqm < e_local, "SQM mse {e_sqm} must beat local {e_local}");
        assert!(
            e_sqm < e_central * 2.0 + 1e-3,
            "SQM mse {e_sqm} should track central {e_central}"
        );
    }

    #[test]
    fn error_improves_with_gamma() {
        // The quantization overhead n/(gamma^2 c^2) only matters at coarse
        // gamma; compare a genuinely coarse scale against a fine one under
        // a tight budget where the extra noise is visible.
        let (train, test) = dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let mut errs = Vec::new();
        for gamma in [2.0, 8192.0] {
            let mut acc = 0.0;
            for _ in 0..8 {
                acc += test.mse(&SqmRidge::new(1e-3, gamma, 0.25, 1e-5).fit(&mut rng, &train));
            }
            errs.push(acc / 8.0);
        }
        assert!(errs[1] < errs[0], "gamma trend violated: {errs:?}");
    }

    #[test]
    fn mpc_backend_produces_useful_model() {
        let (train, test) = RegressionSpec::new(200, 5)
            .with_seed(4)
            .generate()
            .split(0.8, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let w = SqmRidge::new(1e-3, 4096.0, 8.0, 1e-5)
            .with_backend(RidgeBackend::Mpc(VflConfig::fast(3)))
            .fit(&mut rng, &train);
        let mse = w.len(); // shape check first
        assert_eq!(mse, 5);
        let mse = test.mse(&w);
        let zero = test.mse(&[0.0; 5]);
        assert!(mse < zero, "mse {mse} should beat the zero model {zero}");
    }

    #[test]
    fn stronger_regularization_shrinks_weights() {
        let (train, _) = dataset();
        let w_small = NonPrivateRidge::new(1e-6).fit(&train);
        let w_big = NonPrivateRidge::new(10.0).fit(&train);
        let norm = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm(&w_big) < norm(&w_small) / 2.0);
    }
}

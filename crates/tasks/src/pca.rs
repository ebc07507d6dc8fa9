//! Differentially private PCA: SQM and its comparators (Section V-A,
//! Figure 2).
//!
//! All variants release a rank-`k` subspace of the covariance `X^T X`;
//! utility is `||X V||_F^2`, the variance the subspace captures.

use rand::Rng;
use sqm_accounting::calibration::{calibrate_skellam_mu, skellam_epsilon, CalibrationTarget};
use sqm_core::baseline::local_dp_release;
use sqm_core::sensitivity::pca_sensitivity;
use sqm_linalg::eigen::{captured_variance, top_k_eigenvectors_with_sweeps};
use sqm_linalg::Matrix;
use sqm_sampling::gaussian::sample_normal;
use sqm_vfl::covariance::{covariance_skellam, covariance_skellam_plaintext};
use sqm_vfl::{ColumnPartition, VflConfig};

/// Top-k eigenvectors, reporting eigensolver work to the metrics registry
/// (`eigen.sweeps` histogram) when observability is enabled.
fn top_k_eigenvectors(a: &Matrix, k: usize) -> Matrix {
    let (v, sweeps) = top_k_eigenvectors_with_sweeps(a, k);
    if let Some(sweeps) = sweeps {
        sqm_obs::metrics::histogram_record("eigen.sweeps", sweeps as f64);
    }
    v
}

/// Which execution backend SQM-PCA runs on.
#[derive(Clone, Debug)]
// The Mpc variant carries the whole VflConfig (transport backend
// included); backends are built once per task, so the size gap is fine.
#[allow(clippy::large_enum_variant)]
pub enum PcaBackend {
    /// Output-equivalent plaintext simulation — fast, for statistical
    /// experiments.
    Plaintext,
    /// Full BGW execution across `VflConfig::n_clients` parties.
    Mpc(VflConfig),
}

/// SQM instantiated on PCA.
#[derive(Clone, Debug)]
pub struct SqmPca {
    /// Rank of the released subspace.
    pub k: usize,
    /// Quantization scale.
    pub gamma: f64,
    /// Server-observed `(eps, delta)` target; the Skellam `mu` is calibrated
    /// from Lemma 5 + Lemma 1 + Lemma 9.
    pub target: CalibrationTarget,
    /// Number of clients (used for the distributed noise simulation; the
    /// privacy-utility trade-off does not depend on it — Section V-C).
    pub n_clients: usize,
    /// *Public* record-norm bound `c` (the paper's `||x||_2 <= c`
    /// assumption). Sensitivity is calibrated to this bound — never to the
    /// private data — so it must be fixed independently of the dataset;
    /// records exceeding it are rejected at fit time.
    pub norm_bound: f64,
    /// Execution backend.
    pub backend: PcaBackend,
}

impl SqmPca {
    pub fn new(k: usize, gamma: f64, eps: f64, delta: f64) -> Self {
        SqmPca {
            k,
            gamma,
            target: CalibrationTarget::new(eps, delta),
            n_clients: 4,
            norm_bound: 1.0,
            backend: PcaBackend::Plaintext,
        }
    }

    pub fn with_clients(mut self, n: usize) -> Self {
        self.n_clients = n;
        self
    }

    /// Override the public record-norm bound `c`.
    pub fn with_norm_bound(mut self, c: f64) -> Self {
        assert!(c > 0.0, "norm bound must be positive");
        self.norm_bound = c;
        self
    }

    pub fn with_backend(mut self, backend: PcaBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The Skellam noise parameter this configuration calibrates to, given
    /// the record-norm bound `c` and data dimension `n`.
    pub fn calibrated_mu(&self, c: f64, n: usize) -> f64 {
        let sens = pca_sensitivity(self.gamma, c, n);
        calibrate_skellam_mu(self.target, sens, 1, 1.0)
    }

    /// Fit: returns the rank-`k` subspace (`n x k`). Panics if any record
    /// exceeds the public norm bound (calibrating to the empirical maximum
    /// would leak it).
    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, data: &Matrix) -> Matrix {
        let n = data.cols();
        assert!(self.k <= n, "k={} exceeds dimension {n}", self.k);
        let c = self.norm_bound;
        assert!(
            data.max_row_norm() <= c * (1.0 + 1e-9),
            "a record exceeds the public norm bound c = {c}; clip the data first"
        );
        let mu = self.calibrated_mu(c, n);
        let c_hat = match &self.backend {
            PcaBackend::Plaintext => {
                covariance_skellam_plaintext(rng, data, self.gamma, mu, self.n_clients)
            }
            PcaBackend::Mpc(cfg) => {
                let partition = ColumnPartition::even(n, cfg.n_clients());
                covariance_skellam(data, &partition, self.gamma, mu, cfg).c_hat
            }
        };
        let c_tilde = c_hat.scaled(1.0 / (self.gamma * self.gamma));
        top_k_eigenvectors(&c_tilde, self.k)
    }

    /// The server-observed epsilon actually achieved (for reporting).
    pub fn achieved_epsilon(&self, c: f64, n: usize) -> f64 {
        let sens = pca_sensitivity(self.gamma, c, n);
        let mu = self.calibrated_mu(c, n);
        skellam_epsilon(sens, mu, 1, 1.0, self.target.delta).0
    }

    /// The *client-observed* epsilon (Eq. 4): a curious client knows her own
    /// noise share, so the effective noise is `Sk((P-1)/P mu)` and the
    /// replacement sensitivity doubles (Lemma 5's tau_client). Always weaker
    /// than the server-observed guarantee; converges to roughly twice it as
    /// the client count grows (Section V-C).
    pub fn achieved_client_epsilon(&self, c: f64, n: usize) -> f64 {
        use sqm_accounting::skellam::skellam_rdp_client_observed;
        use sqm_accounting::{default_alpha_grid, rdp_to_dp};
        let sens = pca_sensitivity(self.gamma, c, n);
        let mu = self.calibrated_mu(c, n);
        default_alpha_grid()
            .into_iter()
            .map(|a| {
                rdp_to_dp(
                    a as f64,
                    skellam_rdp_client_observed(a, sens, mu, self.n_clients),
                    self.target.delta,
                )
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// The central-DP baseline: Analyze Gauss (Dwork et al. \[65\]) — perturb
/// the covariance with a symmetric Gaussian matrix calibrated to the
/// `c^2` Frobenius sensitivity.
#[derive(Clone, Debug)]
pub struct AnalyzeGaussPca {
    pub k: usize,
    pub eps: f64,
    pub delta: f64,
    /// Public record-norm bound `c`.
    pub norm_bound: f64,
}

impl AnalyzeGaussPca {
    pub fn new(k: usize, eps: f64, delta: f64) -> Self {
        AnalyzeGaussPca {
            k,
            eps,
            delta,
            norm_bound: 1.0,
        }
    }

    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, data: &Matrix) -> Matrix {
        let n = data.cols();
        assert!(self.k <= n);
        let c = self.norm_bound;
        assert!(
            data.max_row_norm() <= c * (1.0 + 1e-9),
            "a record exceeds the public norm bound c = {c}"
        );
        let sigma =
            sqm_accounting::analytic_gaussian::analytic_gaussian_sigma(self.eps, self.delta, c * c);
        let mut cov = data.gram();
        for j in 0..n {
            for k2 in j..n {
                let z = sample_normal(rng, 0.0, sigma);
                cov[(j, k2)] += z;
                if k2 != j {
                    cov[(k2, j)] += z;
                }
            }
        }
        top_k_eigenvectors(&cov, self.k)
    }
}

/// The VFL local-DP baseline: Algorithm 4 then non-private PCA on the
/// perturbed data.
#[derive(Clone, Debug)]
pub struct LocalDpPca {
    pub k: usize,
    pub eps: f64,
    pub delta: f64,
    /// Public record-norm bound `c`.
    pub norm_bound: f64,
}

impl LocalDpPca {
    pub fn new(k: usize, eps: f64, delta: f64) -> Self {
        LocalDpPca {
            k,
            eps,
            delta,
            norm_bound: 1.0,
        }
    }

    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, data: &Matrix) -> Matrix {
        assert!(self.k <= data.cols());
        let c = self.norm_bound;
        assert!(
            data.max_row_norm() <= c * (1.0 + 1e-9),
            "a record exceeds the public norm bound c = {c}"
        );
        let noisy = local_dp_release(rng, data, self.eps, self.delta, c);
        top_k_eigenvectors(&noisy.gram(), self.k)
    }
}

/// Non-private PCA: the utility ceiling.
#[derive(Clone, Debug)]
pub struct NonPrivatePca {
    pub k: usize,
}

impl NonPrivatePca {
    pub fn new(k: usize) -> Self {
        NonPrivatePca { k }
    }

    pub fn fit(&self, data: &Matrix) -> Matrix {
        top_k_eigenvectors(&data.gram(), self.k)
    }
}

/// Figure 2's utility metric for any fitted subspace.
pub fn pca_utility(data: &Matrix, subspace: &Matrix) -> f64 {
    captured_variance(data, subspace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqm_datasets::SpectralSpec;

    fn data() -> Matrix {
        SpectralSpec::new(800, 12)
            .with_decay(1.0)
            .with_seed(3)
            .generate()
    }

    #[test]
    fn sqm_beats_local_dp_and_tracks_central() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = data();
        let k = 3;
        let (eps, delta) = (2.0, 1e-5);

        let ceiling = pca_utility(&x, &NonPrivatePca::new(k).fit(&x));
        let mut sqm_u = 0.0;
        let mut central_u = 0.0;
        let mut local_u = 0.0;
        let reps = 5;
        for _ in 0..reps {
            sqm_u += pca_utility(&x, &SqmPca::new(k, 4096.0, eps, delta).fit(&mut rng, &x));
            central_u += pca_utility(&x, &AnalyzeGaussPca::new(k, eps, delta).fit(&mut rng, &x));
            local_u += pca_utility(&x, &LocalDpPca::new(k, eps, delta).fit(&mut rng, &x));
        }
        let (sqm_u, central_u, local_u) = (
            sqm_u / reps as f64,
            central_u / reps as f64,
            local_u / reps as f64,
        );
        assert!(sqm_u > local_u, "SQM {sqm_u} must beat local-DP {local_u}");
        assert!(
            sqm_u > 0.8 * central_u,
            "SQM {sqm_u} should approach central {central_u}"
        );
        assert!(sqm_u <= ceiling * (1.0 + 1e-9));
    }

    #[test]
    fn utility_improves_with_gamma() {
        // Figure 2's gamma trend: finer quantization => higher utility,
        // because the sensitivity overhead n/(gamma^2 c^2) shrinks.
        let mut rng = StdRng::seed_from_u64(2);
        let x = data();
        let k = 3;
        let mut utilities = Vec::new();
        for gamma in [8.0, 64.0, 2048.0] {
            let mut acc = 0.0;
            for _ in 0..5 {
                acc += pca_utility(&x, &SqmPca::new(k, gamma, 1.0, 1e-5).fit(&mut rng, &x));
            }
            utilities.push(acc / 5.0);
        }
        assert!(
            utilities[2] > utilities[0],
            "gamma trend violated: {utilities:?}"
        );
    }

    #[test]
    fn calibration_meets_target_epsilon() {
        let x = data();
        let mech = SqmPca::new(3, 1024.0, 1.0, 1e-5);
        let achieved = mech.achieved_epsilon(x.max_row_norm(), x.cols());
        assert!(achieved <= 1.0 + 1e-6, "achieved {achieved}");
        assert!(achieved > 0.9, "calibration too conservative: {achieved}");
    }

    #[test]
    fn mpc_backend_agrees_with_plaintext() {
        let x = SpectralSpec::new(60, 6).with_seed(4).generate();
        let k = 2;
        let mut rng = StdRng::seed_from_u64(5);
        let plain = SqmPca::new(k, 2048.0, 8.0, 1e-5).fit(&mut rng, &x);
        let mpc = SqmPca::new(k, 2048.0, 8.0, 1e-5)
            .with_backend(PcaBackend::Mpc(VflConfig::fast(3)))
            .fit(&mut rng, &x);
        // Independent noise draws => different subspaces, but both useful.
        let u_plain = pca_utility(&x, &plain);
        let u_mpc = pca_utility(&x, &mpc);
        let ceiling = pca_utility(&x, &NonPrivatePca::new(k).fit(&x));
        assert!(u_plain > 0.5 * ceiling, "{u_plain} vs {ceiling}");
        assert!(u_mpc > 0.5 * ceiling, "{u_mpc} vs {ceiling}");
    }

    #[test]
    fn subspace_shape_and_orthonormality() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = data();
        let v = SqmPca::new(4, 1024.0, 4.0, 1e-5).fit(&mut rng, &x);
        assert_eq!((v.rows(), v.cols()), (12, 4));
        let vtv = v.transpose().matmul(&v);
        assert!(
            vtv.sub(&Matrix::identity(4)).frobenius_norm() < 1e-8,
            "columns not orthonormal"
        );
    }

    #[test]
    fn client_observed_epsilon_is_weaker_but_bounded() {
        let x = data();
        let mech = SqmPca::new(3, 1024.0, 1.0, 1e-5).with_clients(16);
        let server = mech.achieved_epsilon(x.max_row_norm(), x.cols());
        let client = mech.achieved_client_epsilon(x.max_row_norm(), x.cols());
        assert!(
            client > server,
            "client {client} must exceed server {server}"
        );
        // With many clients the degradation is dominated by sensitivity
        // doubling: roughly 2x epsilon in the Gaussian regime.
        assert!(client < 4.0 * server, "client {client} vs server {server}");
    }

    #[test]
    fn tighter_privacy_means_lower_utility() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = data();
        let mut u_tight = 0.0;
        let mut u_loose = 0.0;
        for _ in 0..5 {
            u_tight += pca_utility(&x, &SqmPca::new(3, 1024.0, 0.25, 1e-5).fit(&mut rng, &x));
            u_loose += pca_utility(&x, &SqmPca::new(3, 1024.0, 8.0, 1e-5).fit(&mut rng, &x));
        }
        assert!(u_loose > u_tight, "loose {u_loose} vs tight {u_tight}");
    }
}

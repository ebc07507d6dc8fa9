//! Differentially private logistic regression: SQM and its comparators
//! (Section V-B, Figures 3 and 5).
//!
//! All private variants release `rounds` noisy gradient sums over Poisson
//! subsampled batches (rate `q`), account with subsampled RDP (Lemma 11)
//! composed over rounds (Lemma 10), and convert to `(eps, delta)`
//! (Lemma 9). The weight vector is clipped to the unit ball after every
//! update, as the paper prescribes.

use rand::Rng;
use sqm_accounting::calibration::{
    calibrate_gaussian_sigma, calibrate_skellam_mu, CalibrationTarget,
};
use sqm_core::baseline::local_dp_release;
use sqm_core::sensitivity::lr_sensitivity;
use sqm_datasets::ClassificationDataset;
use sqm_linalg::vector::{clip_norm, dot};
use sqm_sampling::gaussian::sample_normal;
use sqm_vfl::gradient::{gradient_sum_oracle, gradient_sum_skellam};
use sqm_vfl::{ColumnPartition, VflConfig};

use crate::Backend;

/// Shared SGD hyper-parameters.
#[derive(Clone, Debug)]
pub struct LrConfig {
    /// Number of gradient rounds `R`.
    pub rounds: u32,
    /// Poisson subsampling rate `q` (each record joins a batch
    /// independently with probability `q`).
    pub q: f64,
    /// Learning rate applied to the *mean* batch gradient.
    pub lr: f64,
}

impl LrConfig {
    pub fn new(rounds: u32, q: f64) -> Self {
        assert!(rounds >= 1);
        assert!(q > 0.0 && q <= 1.0);
        LrConfig { rounds, q, lr: 1.0 }
    }

    pub fn with_lr(mut self, lr: f64) -> Self {
        self.lr = lr;
        self
    }

    /// The paper specifies epochs at subsampling rate `q`; one epoch is
    /// `1/q` expected passes-worth of rounds.
    pub fn from_epochs(epochs: u32, q: f64) -> Self {
        let rounds = ((epochs as f64 / q).round() as u32).max(1);
        Self::new(rounds, q)
    }
}

fn sigmoid(u: f64) -> f64 {
    1.0 / (1.0 + (-u).exp())
}

/// Classification accuracy of weights `w` on a dataset.
pub fn accuracy(w: &[f64], ds: &ClassificationDataset) -> f64 {
    let m = ds.len();
    assert!(m > 0, "empty evaluation set");
    let correct = (0..m)
        .filter(|&i| {
            let margin = dot(w, ds.features.row(i));
            (margin > 0.0) == (ds.labels[i] == 1)
        })
        .count();
    correct as f64 / m as f64
}

/// Exact per-record gradient of the cross-entropy loss.
fn exact_gradient(w: &[f64], x: &[f64], y: f64) -> Vec<f64> {
    let p = sigmoid(dot(w, x));
    x.iter().map(|&xi| (p - y) * xi).collect()
}

/// Degree-1 Taylor (polynomial) per-record gradient, Eq. 9.
fn poly_gradient(w: &[f64], x: &[f64], y: f64) -> Vec<f64> {
    let wx = dot(w, x);
    x.iter().map(|&xi| (0.5 + wx / 4.0 - y) * xi).collect()
}

/// Poisson-sample a batch: each index joins independently w.p. `q`.
fn sample_batch<R: Rng + ?Sized>(rng: &mut R, m: usize, q: f64) -> Vec<usize> {
    (0..m).filter(|_| rng.gen::<f64>() < q).collect()
}

/// One projected-SGD update: `w <- clip_1(w - lr * grad_sum / |B|)`.
fn apply_update(w: &mut [f64], grad_sum: &[f64], batch_len: usize, lr: f64) {
    let scale = lr / batch_len.max(1) as f64;
    for (wi, g) in w.iter_mut().zip(grad_sum) {
        *wi -= scale * g;
    }
    clip_norm(w, 1.0);
}

/// Generic SGD loop over noisy gradient-sum oracles.
fn sgd_loop<R, G>(rng: &mut R, m: usize, d: usize, cfg: &LrConfig, mut grad_sum: G) -> Vec<f64>
where
    R: Rng + ?Sized,
    G: FnMut(&mut R, &[f64], &[usize]) -> Vec<f64>,
{
    // Random init inside the unit ball (the paper initializes randomly and
    // clips).
    let mut w: Vec<f64> = (0..d).map(|_| (rng.gen::<f64>() - 0.5) * 0.1).collect();
    clip_norm(&mut w, 1.0);
    for _ in 0..cfg.rounds {
        let batch = sample_batch(rng, m, cfg.q);
        if batch.is_empty() {
            continue;
        }
        let g = grad_sum(rng, &w, &batch);
        apply_update(&mut w, &g, batch.len(), cfg.lr);
    }
    w
}

/// SQM instantiated on logistic regression.
#[derive(Clone, Debug)]
pub struct SqmLogReg {
    pub cfg: LrConfig,
    /// Quantization scale.
    pub gamma: f64,
    /// Server-observed `(eps, delta)` target; `mu` is calibrated via
    /// Lemma 7 (Lemma 1 + subsampling + composition).
    pub target: CalibrationTarget,
    /// Clients simulating the distributed noise.
    pub n_clients: usize,
    pub backend: Backend,
}

impl SqmLogReg {
    pub fn new(cfg: LrConfig, gamma: f64, eps: f64, delta: f64) -> Self {
        SqmLogReg {
            cfg,
            gamma,
            target: CalibrationTarget::new(eps, delta),
            n_clients: 4,
            backend: Backend::Plaintext,
        }
    }

    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    pub fn with_clients(mut self, n: usize) -> Self {
        self.n_clients = n;
        self
    }

    /// The calibrated Skellam parameter for feature dimension `d`.
    pub fn calibrated_mu(&self, d: usize) -> f64 {
        let sens = lr_sensitivity(self.gamma, d);
        calibrate_skellam_mu(self.target, sens, self.cfg.rounds, self.cfg.q)
    }

    /// The *client-observed* epsilon after all rounds (Lemma 7's
    /// tau_client): no subsampling amplification — each client knows the
    /// batch membership — composed linearly over the `R` rounds, with her
    /// own noise share discounted.
    pub fn achieved_client_epsilon(&self, d: usize) -> f64 {
        use sqm_accounting::skellam::skellam_rdp_client_observed;
        use sqm_accounting::{default_alpha_grid, rdp_to_dp};
        let sens = lr_sensitivity(self.gamma, d);
        let mu = self.calibrated_mu(d);
        let rounds = self.cfg.rounds as f64;
        default_alpha_grid()
            .into_iter()
            .map(|a| {
                rdp_to_dp(
                    a as f64,
                    rounds * skellam_rdp_client_observed(a, sens, mu, self.n_clients),
                    self.target.delta,
                )
            })
            .fold(f64::INFINITY, f64::min)
    }

    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, train: &ClassificationDataset) -> Vec<f64> {
        let d = train.features.cols();
        let m = train.len();
        let mu = self.calibrated_mu(d);
        let data = train.as_vfl_matrix();
        match &self.backend {
            Backend::Plaintext => {
                // One partition and config for the whole fit, re-seeded
                // from `rng` at every step.
                let partition = ColumnPartition::even_or_sparse(d + 1, self.n_clients);
                let replayed = VflConfig::fast(self.n_clients);
                let gamma = self.gamma;
                sgd_loop(rng, m, d, &self.cfg, |rng, w, batch| {
                    let cfg = replayed.clone().with_seed(rng.gen());
                    gradient_sum_oracle(&data, &partition, batch, w, gamma, mu, &cfg)
                })
            }
            Backend::Mpc(cfg) => {
                let partition = ColumnPartition::even(d + 1, cfg.n_clients());
                let gamma = self.gamma;
                let mut round = 0u64;
                sgd_loop(rng, m, d, &self.cfg, |_rng, w, batch| {
                    round += 1;
                    let step_cfg = cfg.clone().with_seed(cfg.seed() ^ round);
                    gradient_sum_skellam(&data, &partition, batch, w, gamma, mu, &step_cfg).grad_sum
                })
            }
        }
    }
}

/// Central DPSGD \[54\]: exact gradients, per-record clipping to `clip`,
/// Gaussian noise on the batch sum.
#[derive(Clone, Debug)]
pub struct DpSgd {
    pub cfg: LrConfig,
    pub target: CalibrationTarget,
    /// Per-record gradient clip norm (the sensitivity of the sum).
    pub clip: f64,
}

impl DpSgd {
    pub fn new(cfg: LrConfig, eps: f64, delta: f64) -> Self {
        DpSgd {
            cfg,
            target: CalibrationTarget::new(eps, delta),
            clip: 1.0,
        }
    }

    pub fn calibrated_sigma(&self) -> f64 {
        calibrate_gaussian_sigma(self.target, self.clip, self.cfg.rounds, self.cfg.q)
    }

    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, train: &ClassificationDataset) -> Vec<f64> {
        self.fit_with_gradient(rng, train, exact_gradient)
    }

    fn fit_with_gradient<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        train: &ClassificationDataset,
        per_record: fn(&[f64], &[f64], f64) -> Vec<f64>,
    ) -> Vec<f64> {
        let d = train.features.cols();
        let m = train.len();
        let sigma = self.calibrated_sigma();
        let clip = self.clip;
        sgd_loop(rng, m, d, &self.cfg, |rng, w, batch| {
            let mut sum = vec![0.0; d];
            for &i in batch {
                let mut g = per_record(w, train.features.row(i), train.labels[i] as f64);
                clip_norm(&mut g, clip);
                for (s, gi) in sum.iter_mut().zip(&g) {
                    *s += gi;
                }
            }
            for s in sum.iter_mut() {
                *s += sample_normal(rng, 0.0, sigma);
            }
            sum
        })
    }
}

/// Figure 5's "Approx-Poly": central Gaussian mechanism with the
/// *polynomial* gradient (Eq. 9) — isolates the cost of the Taylor
/// approximation from the cost of quantization.
#[derive(Clone, Debug)]
pub struct ApproxPolyLogReg {
    pub inner: DpSgd,
}

impl ApproxPolyLogReg {
    pub fn new(cfg: LrConfig, eps: f64, delta: f64) -> Self {
        ApproxPolyLogReg {
            inner: DpSgd::new(cfg, eps, delta),
        }
    }

    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, train: &ClassificationDataset) -> Vec<f64> {
        self.inner.fit_with_gradient(rng, train, poly_gradient)
    }
}

/// The VFL local-DP baseline: Algorithm 4 on features *and* label, then
/// non-private training on the perturbed data until convergence.
#[derive(Clone, Debug)]
pub struct LocalDpLogReg {
    pub eps: f64,
    pub delta: f64,
    /// Non-private training rounds on the perturbed data.
    pub train_rounds: u32,
}

impl LocalDpLogReg {
    pub fn new(eps: f64, delta: f64) -> Self {
        LocalDpLogReg {
            eps,
            delta,
            train_rounds: 300,
        }
    }

    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, train: &ClassificationDataset) -> Vec<f64> {
        let d = train.features.cols();
        let m = train.len();
        // Record = (features, label): L2 norm <= sqrt(1 + 1).
        let c = (2.0f64).sqrt();
        let noisy = local_dp_release(rng, &train.as_vfl_matrix(), self.eps, self.delta, c);
        // Full-batch gradient descent on the noisy data (post-processing).
        let mut w = vec![0.0; d];
        for _ in 0..self.train_rounds {
            let mut grad = vec![0.0; d];
            for i in 0..m {
                let row = noisy.row(i);
                let g = exact_gradient(&w, &row[..d], row[d]);
                for (a, b) in grad.iter_mut().zip(&g) {
                    *a += b;
                }
            }
            apply_update(&mut w, &grad, m, 1.0);
        }
        w
    }
}

/// Non-private SGD: the accuracy ceiling.
#[derive(Clone, Debug)]
pub struct NonPrivateLogReg {
    pub cfg: LrConfig,
}

impl NonPrivateLogReg {
    pub fn new(cfg: LrConfig) -> Self {
        NonPrivateLogReg { cfg }
    }

    pub fn fit<R: Rng + ?Sized>(&self, rng: &mut R, train: &ClassificationDataset) -> Vec<f64> {
        let d = train.features.cols();
        let m = train.len();
        sgd_loop(rng, m, d, &self.cfg, |_rng, w, batch| {
            let mut sum = vec![0.0; d];
            for &i in batch {
                let g = exact_gradient(w, train.features.row(i), train.labels[i] as f64);
                for (s, gi) in sum.iter_mut().zip(&g) {
                    *s += gi;
                }
            }
            sum
        })
    }
}

/// The noise standard deviation SQM injects into the *normalized* gradient
/// sum (Figure 4, right: `sqrt(2 mu) / gamma^3` versus DPSGD's sigma).
pub fn sqm_normalized_noise_std(gamma: f64, mu: f64) -> f64 {
    (2.0 * mu).sqrt() / gamma.powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqm_datasets::ClassificationSpec;

    fn dataset() -> (ClassificationDataset, ClassificationDataset) {
        ClassificationSpec::new(3000, 12)
            .with_seed(1)
            .generate()
            .split(0.8, 0)
    }

    fn cfg() -> LrConfig {
        LrConfig::new(150, 0.05).with_lr(2.0)
    }

    #[test]
    fn non_private_learns() {
        let (train, test) = dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let w = NonPrivateLogReg::new(cfg()).fit(&mut rng, &train);
        let acc = accuracy(&w, &test);
        assert!(acc > 0.80, "accuracy {acc}");
    }

    #[test]
    fn dpsgd_learns_at_moderate_eps() {
        let (train, test) = dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let w = DpSgd::new(cfg(), 4.0, 1e-5).fit(&mut rng, &train);
        let acc = accuracy(&w, &test);
        assert!(acc > 0.72, "accuracy {acc}");
    }

    #[test]
    fn sqm_close_to_dpsgd_and_beats_local() {
        let (train, test) = dataset();
        let mut rng = StdRng::seed_from_u64(4);
        let reps = 3;
        let (mut a_sqm, mut a_dpsgd, mut a_local) = (0.0, 0.0, 0.0);
        for _ in 0..reps {
            let c = cfg();
            a_sqm += accuracy(
                &SqmLogReg::new(c.clone(), 8192.0, 4.0, 1e-5).fit(&mut rng, &train),
                &test,
            );
            a_dpsgd += accuracy(
                &DpSgd::new(c.clone(), 4.0, 1e-5).fit(&mut rng, &train),
                &test,
            );
            a_local += accuracy(&LocalDpLogReg::new(4.0, 1e-5).fit(&mut rng, &train), &test);
        }
        let (a_sqm, a_dpsgd, a_local) = (
            a_sqm / reps as f64,
            a_dpsgd / reps as f64,
            a_local / reps as f64,
        );
        assert!(a_sqm > a_local + 0.03, "SQM {a_sqm} vs local {a_local}");
        assert!(a_sqm > a_dpsgd - 0.08, "SQM {a_sqm} vs DPSGD {a_dpsgd}");
    }

    #[test]
    fn approx_poly_close_to_exact_dpsgd() {
        // Figure 5: the Taylor approximation costs almost nothing.
        let (train, test) = dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let a_exact = accuracy(&DpSgd::new(cfg(), 4.0, 1e-5).fit(&mut rng, &train), &test);
        let a_poly = accuracy(
            &ApproxPolyLogReg::new(cfg(), 4.0, 1e-5).fit(&mut rng, &train),
            &test,
        );
        assert!(
            (a_exact - a_poly).abs() < 0.08,
            "exact {a_exact} poly {a_poly}"
        );
    }

    #[test]
    fn epochs_to_rounds() {
        let c = LrConfig::from_epochs(5, 0.001);
        assert_eq!(c.rounds, 5000);
    }

    #[test]
    fn gradient_definitions_match_at_zero_weights() {
        // At w = 0: sigmoid(0) = 1/2 and the Taylor term vanishes, so both
        // gradients equal (1/2 - y) x exactly.
        let x = vec![0.3, -0.4];
        let w = vec![0.0, 0.0];
        assert_eq!(exact_gradient(&w, &x, 1.0), poly_gradient(&w, &x, 1.0));
    }

    #[test]
    fn weights_stay_in_unit_ball() {
        let (train, _) = dataset();
        let mut rng = StdRng::seed_from_u64(7);
        let w = NonPrivateLogReg::new(cfg()).fit(&mut rng, &train);
        let norm = w.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm <= 1.0 + 1e-9, "norm {norm}");
    }

    #[test]
    fn mpc_backend_produces_learning_model() {
        // Small instance; checks the full BGW gradient path trains.
        let (train, test) = ClassificationSpec::new(300, 5)
            .with_seed(8)
            .generate()
            .split(0.8, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let c = LrConfig::new(25, 0.2).with_lr(2.0);
        let w = SqmLogReg::new(c, 4096.0, 8.0, 1e-5)
            .with_backend(Backend::Mpc(VflConfig::fast(3)))
            .fit(&mut rng, &train);
        let acc = accuracy(&w, &test);
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn client_observed_epsilon_exceeds_server_target() {
        let mech = SqmLogReg::new(LrConfig::new(50, 0.05), 4096.0, 1.0, 1e-5).with_clients(8);
        let client = mech.achieved_client_epsilon(20);
        // Server-observed is calibrated to 1.0; client-observed loses the
        // subsampling amplification entirely, so it is much larger.
        assert!(client > 1.0, "client-observed eps {client}");
        assert!(client.is_finite());
    }

    #[test]
    fn noise_std_decreases_with_gamma_at_fixed_privacy() {
        // Figure 4 (right): the normalized Skellam noise approaches the
        // Gaussian noise level as gamma grows.
        let target = CalibrationTarget::new(1.0, 1e-5);
        let d = 100;
        let (rounds, q) = (100, 0.01);
        let sigma_gauss = calibrate_gaussian_sigma(target, 0.75, rounds, q);
        let mut last = f64::INFINITY;
        for gamma in [64.0, 512.0, 8192.0] {
            let mu = calibrate_skellam_mu(target, lr_sensitivity(gamma, d), rounds, q);
            let std = sqm_normalized_noise_std(gamma, mu);
            assert!(std < last, "gamma {gamma}");
            last = std;
        }
        assert!(
            last / sigma_gauss < 1.15,
            "normalized SQM noise {last} should approach Gaussian {sigma_gauss}"
        );
    }
}

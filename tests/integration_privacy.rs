//! Statistical validation of the privacy machinery: noise laws, quantization
//! bias, and the design ablations called out in DESIGN.md.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm::accounting::calibration::{
    calibrate_gaussian_sigma, calibrate_skellam_mu, skellam_epsilon, CalibrationTarget,
};
use sqm::accounting::skellam::Sensitivity;
use sqm::core::{Monomial, Polynomial};
use sqm::linalg::Matrix;
use sqm::sampling::rounding::{nearest_round, stochastic_round};
use sqm::sampling::skellam::sample_skellam;
use sqm::vfl::{eval_polynomial_oracle, ColumnPartition, VflConfig};

fn moments(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var)
}

/// The mechanism's estimate at `(gamma, mu)` over `n_clients` clients, one
/// fresh seed per call: the plaintext oracle of the generic BGW release.
fn mechanism(
    p: &Polynomial,
    data: &Matrix,
    gamma: f64,
    mu: f64,
    n_clients: usize,
    seed: u64,
) -> f64 {
    let partition = ColumnPartition::even_or_sparse(data.cols(), n_clients);
    let cfg = VflConfig::fast(n_clients).with_seed(seed);
    eval_polynomial_oracle(p, data, &partition, gamma, mu, &cfg)[0]
}

/// The mechanism's output noise variance matches the calibrated Skellam
/// law after down-scaling — i.e. the implementation injects exactly the
/// noise the accountant assumed.
#[test]
fn mechanism_noise_matches_accounting() {
    let p = Polynomial::one_dimensional(2, vec![Monomial::new(1.0, vec![(0, 1), (1, 1)])]);
    let data = Matrix::zeros(1, 2);
    let gamma = 32.0;
    let sens = Sensitivity::new(10.0, 10.0);
    let mu = calibrate_skellam_mu(CalibrationTarget::new(1.0, 1e-5), sens, 1, 1.0);
    let xs: Vec<f64> = (0..3000)
        .map(|seed| mechanism(&p, &data, gamma, mu, 4, seed))
        .collect();
    let (mean, var) = moments(&xs);
    let expect_var = 2.0 * mu / gamma.powf(6.0); // lambda = 2 => amp gamma^3
    assert!(
        mean.abs() < 5.0 * (expect_var / 3000.0).sqrt(),
        "mean {mean}"
    );
    assert!(
        (var - expect_var).abs() / expect_var < 0.15,
        "var {var} expect {expect_var}"
    );
}

/// Distributed noise: no single client's share explains the aggregate —
/// removing one share still leaves Sk((n-1)/n * mu)-scale randomness
/// (the client-observed privacy argument under Lemma 3).
#[test]
fn residual_noise_after_removing_one_share() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 10;
    let mu = 400.0;
    let local = mu / n as f64;
    let residuals: Vec<f64> = (0..30_000)
        .map(|_| {
            let shares: Vec<i64> = (0..n).map(|_| sample_skellam(&mut rng, local)).collect();
            // A curious client knows her own share (index 0).
            (shares.iter().sum::<i64>() - shares[0]) as f64
        })
        .collect();
    let (_, var) = moments(&residuals);
    let expect = 2.0 * mu * (n as f64 - 1.0) / n as f64;
    assert!(
        (var - expect).abs() / expect < 0.05,
        "var {var} expect {expect}"
    );
}

/// Ablation (DESIGN.md #2): stochastic rounding is unbiased for monomial
/// sums; deterministic nearest rounding is measurably biased.
#[test]
fn stochastic_vs_nearest_rounding_bias() {
    let mut rng = StdRng::seed_from_u64(3);
    let gamma = 4.0; // coarse on purpose: bias shows at small gamma
    let x = 0.6001; // gamma * x = 2.4004 -> nearest = 2 (bias -0.4)
    let reps = 60_000;
    let stoch_mean: f64 = (0..reps)
        .map(|_| stochastic_round(&mut rng, gamma * x) as f64)
        .sum::<f64>()
        / reps as f64;
    let det = nearest_round(gamma * x) as f64;
    assert!(
        (stoch_mean - gamma * x).abs() < 0.01,
        "stochastic mean {stoch_mean}"
    );
    assert!(
        (det - gamma * x).abs() > 0.3,
        "nearest rounding should be biased here"
    );
}

/// Ablation (DESIGN.md #3): quantizing coefficients with the
/// degree-compensating scale keeps every monomial at the same
/// amplification. Without compensation a mixed-degree polynomial's
/// components are scaled inconsistently, so a single down-scale produces a
/// wrong answer.
#[test]
fn coefficient_quantization_is_necessary_for_mixed_degrees() {
    // f(x) = x0^2 + x0 over x0 = 0.5: true per-record value 0.75.
    let mut rng = StdRng::seed_from_u64(4);
    let gamma: f64 = 256.0;
    let x = 0.5f64;
    let qx = stochastic_round(&mut rng, gamma * x); // ~ gamma/2, exact here
                                                    // Naive: no coefficient compensation; both terms summed then divided by
                                                    // the dominant gamma^2: the linear term is off by a factor of gamma.
    let naive = (qx as f64 * qx as f64 + qx as f64) / gamma.powi(2);
    assert!(
        (naive - 0.75).abs() > 0.2,
        "naive should be badly wrong: {naive}"
    );
    // Algorithm 3: deg-2 coeff scaled by gamma, deg-1 coeff by gamma^2,
    // divide by gamma^3.
    let compensated = (gamma * (qx as f64 * qx as f64) + gamma.powi(2) * qx as f64) / gamma.powi(3);
    assert!(
        (compensated - 0.75).abs() < 0.01,
        "compensated {compensated}"
    );
}

/// The Skellam-vs-Gaussian comparison (Figure 4 right): at fixed (eps,
/// delta) and fine quantization, the normalized Skellam noise std is within
/// a few percent of the calibrated Gaussian sigma.
#[test]
fn skellam_noise_overhead_vanishes() {
    let target = CalibrationTarget::new(1.0, 1e-5);
    let sigma = calibrate_gaussian_sigma(target, 1.0, 1, 1.0);
    // Skellam with sensitivity ~ gamma^lambda * 1 for a degree-1 release.
    let mut overheads = Vec::new();
    for gamma in [16.0f64, 256.0, 4096.0] {
        let d2 = gamma + 1.0; // quantized sensitivity with +1 rounding slack
        let sens = Sensitivity::new(d2, d2);
        let mu = calibrate_skellam_mu(target, sens, 1, 1.0);
        let normalized = (2.0 * mu).sqrt() / gamma;
        overheads.push(normalized / sigma - 1.0);
    }
    assert!(overheads[0] > overheads[2], "{overheads:?}");
    assert!(overheads[2] < 0.05, "residual overhead {}", overheads[2]);
}

/// Client-observed privacy is strictly weaker than server-observed, and
/// approaches it as the client count grows (Section V-C's P/(P-1) factor).
#[test]
fn client_observed_epsilon_degrades_gracefully() {
    use sqm::accounting::skellam::skellam_rdp_client_observed;
    use sqm::accounting::{default_alpha_grid, rdp_to_dp};
    let sens = Sensitivity::new(5.0, 5.0);
    let mu = 10_000.0;
    let delta = 1e-5;
    let (server_eps, _) = skellam_epsilon(sens, mu, 1, 1.0, delta);
    let grid = default_alpha_grid();
    let client_eps = |n: usize| {
        grid.iter()
            .map(|&a| rdp_to_dp(a as f64, skellam_rdp_client_observed(a, sens, mu, n), delta))
            .fold(f64::INFINITY, f64::min)
    };
    let c3 = client_eps(3);
    let c100 = client_eps(100);
    assert!(c3 > c100, "more clients => tighter client-observed privacy");
    assert!(
        c100 > server_eps,
        "client-observed is never stronger than server-observed"
    );
    // Sensitivity doubling alone implies roughly 2x epsilon in the Gaussian
    // regime; allow [1.5, 4].
    let ratio = c100 / server_eps;
    assert!((1.5..4.0).contains(&ratio), "ratio {ratio}");
}

/// End-to-end unbiasedness of the full mechanism (quantization of data and
/// coefficients + noise): the estimator's mean equals the true value.
#[test]
fn mechanism_is_unbiased_end_to_end() {
    let p = Polynomial::one_dimensional(
        2,
        vec![
            Monomial::new(0.7, vec![(0, 2)]),
            Monomial::new(-0.3, vec![(1, 1)]),
        ],
    );
    let data = Matrix::from_rows(&[vec![0.55, -0.25], vec![-0.35, 0.45]]);
    let truth = p.sum_over((0..2).map(|i| data.row(i)))[0];
    let reps = 4000;
    let mean: f64 = (0..reps)
        .map(|seed| mechanism(&p, &data, 64.0, 5.0, 3, seed))
        .sum::<f64>()
        / reps as f64;
    // gamma = 64 is deliberately coarse; unbiasedness must hold regardless.
    assert!((mean - truth).abs() < 0.01, "mean {mean} truth {truth}");
}

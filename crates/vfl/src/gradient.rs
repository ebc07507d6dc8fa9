//! Secure noisy gradient sums: the logistic-regression workload
//! (Section V-B).
//!
//! Eq. 9's per-record polynomial `f(w, (x, y)) = (1/2) x + <w/4, x> x - y x`
//! has degree 2 with the label treated as one more private attribute, so
//! Algorithm 3 amplifies every monomial by `gamma^3`:
//!
//! * data and labels are quantized at scale `gamma`;
//! * the degree-2 coefficients `w_j/4` and `-1` (label term) are quantized
//!   at scale `gamma`; the degree-1 coefficient `1/2` at scale `gamma^2`.
//!
//! Because the weights are public, `v = half + <hat w/4, hat x> - label *
//! hat y` is a public linear form of the record, so the gradient is a
//! [`ReleasePlan`] of one row: `v` paired with the `d` features. It runs
//! the covariance's per-party program ([`ReleasePlan::party_release`]):
//! `v` is a *local* linear combination of shares and the only secure
//! multiplications are the `|B|` products `v_i * hat x_ik`, summed over the
//! batch at degree `2t`; at even `P` one party sits out the row. Those sums
//! plus each party's own `d` noise draws are summed to the receiver
//! (`PartyCtx::sum_to_receiver`): two rounds per step.
//!
//! [`gradient_sum_oracle`] replays its streams in plaintext
//! ([`ReleasePlan::exact`]) and predicts the release exactly: the plaintext
//! path of every LR experiment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::sensitivity::lr_sensitivity;
use sqm_linalg::Matrix;
use sqm_mpc::{RunStats, TransportError};
use sqm_sampling::rounding::stochastic_round;

use crate::partition::ColumnPartition;
use crate::plan::{Form, ReleasePlan};
use crate::{or_panic, received, validate, validate_gamma, VflConfig};

/// The opened, down-scaled gradient sum and run statistics.
#[derive(Debug)]
pub struct GradientOutput {
    /// Estimate of `sum_{(x,y) in B} f(w, (x, y))` (already divided by
    /// `gamma^3`).
    pub grad_sum: Vec<f64>,
    /// MPC accounting.
    pub stats: RunStats,
    /// Structured trace (only when `VflConfig::trace` is set).
    pub trace: Option<sqm_obs::trace::Trace>,
}

/// Publicly quantized coefficients of Eq. 9 (all parties must agree, so the
/// rounding uses a public coin derived from the config seed).
#[derive(Clone, Debug)]
pub struct QuantizedLrCoeffs {
    /// `round(gamma * w_j / 4)`.
    pub w_quarter: Vec<i64>,
    /// `round(gamma^2 / 2)`.
    pub half: i64,
    /// `round(gamma * 1)` — the label-term coefficient magnitude.
    pub label: i64,
}

/// Quantize Eq. 9's coefficients for weight vector `w` at scale `gamma`.
pub fn quantize_lr_coeffs(w: &[f64], gamma: f64, public_seed: u64) -> QuantizedLrCoeffs {
    let mut rng = StdRng::seed_from_u64(public_seed ^ 0xC0EF_F1C1);
    QuantizedLrCoeffs {
        w_quarter: w
            .iter()
            .map(|&wj| stochastic_round(&mut rng, gamma * wj / 4.0))
            .collect(),
        half: stochastic_round(&mut rng, gamma * gamma / 2.0),
        label: stochastic_round(&mut rng, gamma),
    }
}

/// Full BGW execution of one noisy gradient-sum step.
///
/// `data` is the VFL matrix (`m x (d+1)`, last column = label), `batch`
/// indexes the subsampled records (known to the clients through shared
/// randomness, hidden from the server), `w` the current public weights.
/// Panics on transport failure.
pub fn gradient_sum_skellam(
    data: &Matrix,
    partition: &ColumnPartition,
    batch: &[usize],
    w: &[f64],
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> GradientOutput {
    let plan = plan(data, partition, batch, w, gamma, mu, cfg);
    or_panic(release(&plan, data, batch, cfg)).1
}

/// This release's quantization and noise salts (see [`crate::party_streams`]).
const STREAMS: [u64; 2] = [0x96AD_0000, 0x5E11_B000];

/// The gradient step's plan: `v = half + <hat w/4, hat x> - label * hat y`
/// paired with the `d` features, charged Lemma 7's sensitivity. Checks the
/// inputs for the protocol and the oracle alike.
pub(crate) fn plan(
    data: &Matrix,
    partition: &ColumnPartition,
    batch: &[usize],
    w: &[f64],
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> ReleasePlan {
    let d = data.cols() - 1;
    assert_eq!(w.len(), d, "weight vector length must equal feature count");
    validate(data, partition, cfg);
    validate_gamma(gamma);
    assert!(!batch.is_empty(), "empty batch");
    assert!(
        batch.iter().all(|&i| i < data.rows()),
        "batch index out of range"
    );
    let coeffs = quantize_lr_coeffs(w, gamma, cfg.seed());
    let mut terms: Vec<(usize, i64)> = coeffs.w_quarter.into_iter().enumerate().collect();
    terms.push((d, -coeffs.label));
    let v = Form {
        constant: coeffs.half,
        terms,
    };
    let (rows, sens) = (vec![(v, 0..d)], lr_sensitivity(gamma, d));
    let bound = magnitude_bound(batch.len(), d, gamma, mu);
    ReleasePlan::new(partition, STREAMS, gamma, mu, rows, bound, sens)
}

/// The release of `plan` over `batch`: the receiver's integers, and them
/// divided by `gamma^3`.
pub(crate) fn release(
    plan: &ReleasePlan,
    data: &Matrix,
    batch: &[usize],
    cfg: &VflConfig,
) -> Result<(Vec<i128>, GradientOutput), TransportError> {
    let run = plan.run(cfg, &[vec![(data, batch)]])?;
    let (opened, amp) = (received(&run.outputs).to_vec(), plan.gamma.powi(3));
    let grad_sum = opened.iter().map(|&v| v as f64 / amp).collect();
    let (stats, trace) = (run.stats, run.trace);
    let out = GradientOutput {
        grad_sum,
        stats,
        trace,
    };
    Ok((opened, out))
}

/// Bit-exact plaintext replay of [`gradient_sum_skellam`]: each party's
/// columns quantized over the batch, [`quantize_lr_coeffs`] at
/// `cfg.seed()`, Eq. 9 on integers, then `d` Skellam(mu/P) draws a party.
pub fn gradient_sum_oracle(
    data: &Matrix,
    partition: &ColumnPartition,
    batch: &[usize],
    w: &[f64],
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Vec<f64> {
    let plan = plan(data, partition, batch, w, gamma, mu, cfg);
    let amp = gamma.powi(3);
    let opened = plan.exact(&[vec![(data, batch)]], cfg.seed(), 0);
    opened.into_iter().map(|g| g as f64 / amp).collect()
}

/// [`gradient_sum_oracle`] at a seed drawn from `rng`, over
/// [`ColumnPartition::even_or_sparse`]. Kept with its signature for callers
/// outside the workspace; the coefficients' coin is the drawn seed, not
/// `_public_seed`.
#[allow(clippy::too_many_arguments)]
pub fn gradient_sum_skellam_plaintext<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Matrix,
    batch: &[usize],
    w: &[f64],
    gamma: f64,
    mu: f64,
    n_clients: usize,
    _public_seed: u64,
) -> Vec<f64> {
    let cfg = VflConfig::fast(n_clients).with_seed(rng.gen());
    let partition = ColumnPartition::even_or_sparse(data.cols(), n_clients);
    gradient_sum_oracle(data, &partition, batch, w, gamma, mu, &cfg)
}

fn magnitude_bound(batch_len: usize, d: usize, gamma: f64, mu: f64) -> f64 {
    // |v_i| <= gamma/4 * (gamma + sqrt(d)) + gamma*(gamma+1) roughly; per
    // dim |v_i * x_ik| <= ~2 gamma^3. Use a generous closed form.
    let per_record = 4.0 * gamma.powi(3) * (d as f64).sqrt().max(1.0);
    batch_len as f64 * per_record + 12.0 * (2.0 * mu).sqrt() + gamma * gamma
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: Eq. 9 on the raw (unquantized) records.
    fn true_grad_sum(data: &Matrix, batch: &[usize], w: &[f64]) -> Vec<f64> {
        let d = data.cols() - 1;
        let mut g = vec![0.0; d];
        for &i in batch {
            let row = data.row(i);
            let (x, y) = (&row[..d], row[d]);
            let wx: f64 = w.iter().zip(x).map(|(a, b)| a * b).sum();
            for k in 0..d {
                g[k] += 0.5 * x[k] + (wx / 4.0) * x[k] - y * x[k];
            }
        }
        g
    }

    fn toy_vfl_data() -> Matrix {
        // 6 records, 3 features + label.
        Matrix::from_rows(&[
            vec![0.5, -0.2, 0.1, 1.0],
            vec![-0.4, 0.3, 0.2, 0.0],
            vec![0.1, 0.1, -0.5, 1.0],
            vec![0.6, 0.0, 0.3, 0.0],
            vec![-0.2, -0.3, 0.1, 1.0],
            vec![0.3, 0.2, 0.2, 0.0],
        ])
    }

    #[test]
    fn mpc_gradient_matches_truth_without_noise() {
        let data = toy_vfl_data();
        let partition = ColumnPartition::even(4, 4);
        let w = vec![0.2, -0.1, 0.4];
        let batch: Vec<usize> = (0..6).collect();
        let gamma = 4096.0;
        let out = gradient_sum_skellam(
            &data,
            &partition,
            &batch,
            &w,
            gamma,
            0.0,
            &VflConfig::fast(4),
        );
        let truth = true_grad_sum(&data, &batch, &w);
        for (g, t) in out.grad_sum.iter().zip(&truth) {
            assert!((g - t).abs() < 0.01, "got {g}, want {t}");
        }
    }

    #[test]
    fn plaintext_matches_truth_without_noise() {
        let data = toy_vfl_data();
        let w = vec![0.2, -0.1, 0.4];
        let batch: Vec<usize> = (0..6).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = VflConfig::fast(4).with_seed(rng.gen());
        let partition = ColumnPartition::even(4, 4);
        let g = gradient_sum_oracle(&data, &partition, &batch, &w, 8192.0, 0.0, &cfg);
        let truth = true_grad_sum(&data, &batch, &w);
        for (gi, t) in g.iter().zip(&truth) {
            assert!((gi - t).abs() < 0.01, "got {gi}, want {t}");
        }
    }

    #[test]
    fn mpc_and_plaintext_agree() {
        let data = toy_vfl_data();
        let partition = ColumnPartition::even(4, 2);
        let w = vec![0.1, 0.1, -0.2];
        let batch = vec![0, 2, 4];
        let gamma = 8192.0;
        let out = gradient_sum_skellam(
            &data,
            &partition,
            &batch,
            &w,
            gamma,
            0.0,
            &VflConfig::fast(2),
        );
        // The oracle at another seed: only the rounding draws differ.
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = VflConfig::fast(2).with_seed(rng.gen());
        let plain = gradient_sum_oracle(&data, &partition, &batch, &w, gamma, 0.0, &cfg);
        for (a, b) in out.grad_sum.iter().zip(&plain) {
            assert!((a - b).abs() < 0.01, "mpc {a} plain {b}");
        }
    }

    #[test]
    fn noise_scale_is_calibrated() {
        // Zero data isolates the noise: variance of grad_sum entries should
        // be 2*mu / gamma^6.
        let data = Matrix::zeros(4, 3); // 2 features + label
        let w = vec![0.0, 0.0];
        let batch = vec![0, 1, 2, 3];
        let gamma = 16.0;
        let mu = 1e4;
        // Three columns over four clients: one owns none.
        let partition = ColumnPartition::even_or_sparse(3, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut vals = Vec::new();
        for _ in 0..3000 {
            let cfg = VflConfig::fast(4).with_seed(rng.gen());
            let g = gradient_sum_oracle(&data, &partition, &batch, &w, gamma, mu, &cfg);
            vals.push(g[0]);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        let expect = 2.0 * mu / gamma.powi(6);
        assert!(
            (var - expect).abs() / expect < 0.15,
            "var {var} expect {expect}"
        );
    }

    #[test]
    fn batch_subsetting_works() {
        let data = toy_vfl_data();
        let partition = ColumnPartition::even(4, 2);
        let w = vec![0.0, 0.0, 0.0];
        let batch = vec![1, 3];
        let out = gradient_sum_skellam(
            &data,
            &partition,
            &batch,
            &w,
            2048.0,
            0.0,
            &VflConfig::fast(2),
        );
        let truth = true_grad_sum(&data, &batch, &w);
        for (g, t) in out.grad_sum.iter().zip(&truth) {
            assert!((g - t).abs() < 0.01, "got {g}, want {t}");
        }
    }

    #[test]
    fn rounds_are_constant_in_batch_and_dim() {
        let data = toy_vfl_data();
        let partition = ColumnPartition::even(4, 2);
        let w = vec![0.1, 0.2, 0.3];
        let cfg = VflConfig::fast(2);
        let r1 = gradient_sum_skellam(&data, &partition, &[0, 1], &w, 256.0, 1.0, &cfg);
        let r2 = gradient_sum_skellam(&data, &partition, &[0, 1, 2, 3, 4, 5], &w, 256.0, 1.0, &cfg);
        assert_eq!(r1.stats.total.rounds, r2.stats.total.rounds);
        assert_eq!(r1.stats.total.rounds, 2);
    }

    #[test]
    fn coefficient_quantization_is_deterministic_in_public_seed() {
        let w = vec![0.123, -0.456];
        let a = quantize_lr_coeffs(&w, 1024.0, 42);
        let b = quantize_lr_coeffs(&w, 1024.0, 42);
        assert_eq!(a.w_quarter, b.w_quarter);
        assert_eq!(a.half, b.half);
        assert_eq!(a.label, b.label);
    }

    /// The oracle refuses what the protocol refuses: both build their plan
    /// through one constructor.
    fn oracle(batch: &[usize], gamma: f64) -> Vec<f64> {
        let partition = ColumnPartition::even(4, 2);
        let cfg = VflConfig::fast(2);
        gradient_sum_oracle(
            &toy_vfl_data(),
            &partition,
            batch,
            &[0.1; 3],
            gamma,
            4.0,
            &cfg,
        )
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn oracle_rejects_a_zero_gamma() {
        oracle(&[0, 1], 0.0);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn oracle_rejects_an_empty_batch() {
        oracle(&[], 256.0);
    }

    #[test]
    #[should_panic(expected = "batch index out of range")]
    fn oracle_rejects_a_batch_index_past_the_rows() {
        oracle(&[0, 6], 256.0);
    }

    #[test]
    #[should_panic(expected = "weight vector length")]
    fn rejects_wrong_weight_length() {
        let data = toy_vfl_data();
        let partition = ColumnPartition::even(4, 2);
        gradient_sum_skellam(
            &data,
            &partition,
            &[0],
            &[0.1],
            256.0,
            0.0,
            &VflConfig::fast(2),
        );
    }
}

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
//! Because the weights are public, `<hat w/4, hat x>` is a *local* linear
//! combination of shares; the only secure multiplications are the `|B|`
//! products `v_i * hat x_ik`, summed over the batch at degree `2t`. Those
//! sums plus each party's own `d` noise draws are summed to the receiver
//! (`PartyCtx::sum_to_receiver`): two rounds per step.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_core::quantize::quantize_vec;
use sqm_field::PrimeField;
use sqm_linalg::Matrix;
use sqm_mpc::{MpcEngine, RunStats, TransportError};
use sqm_sampling::rounding::stochastic_round;
use sqm_sampling::skellam::sample_skellam;

use crate::covariance::{column_shares, validate};
use crate::partition::ColumnPartition;
use crate::{noisy_sum, or_panic, received, validate_gamma, VflConfig};

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
    or_panic(try_gradient_sum_skellam(
        data, partition, batch, w, gamma, mu, cfg,
    ))
}

/// [`gradient_sum_skellam`] with transport failures surfaced as values.
pub(crate) fn try_gradient_sum_skellam(
    data: &Matrix,
    partition: &ColumnPartition,
    batch: &[usize],
    w: &[f64],
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Result<GradientOutput, TransportError> {
    let d = data.cols() - 1;
    assert_eq!(w.len(), d, "weight vector length must equal feature count");
    validate(data, partition, cfg);
    validate_gamma(gamma);
    assert!(!batch.is_empty(), "empty batch");
    assert!(
        batch.iter().all(|&i| i < data.rows()),
        "batch index out of range"
    );

    let bound = magnitude_bound(batch.len(), d, gamma, mu);
    with_field!(bound, F => gradient_impl::<F>(data, partition, batch, w, gamma, mu, cfg))
}

/// Output-equivalent plaintext simulation of the same release (used by the
/// statistical experiments; thousands of SGD steps).
#[allow(clippy::too_many_arguments)]
pub fn gradient_sum_skellam_plaintext<R: rand::Rng + ?Sized>(
    rng: &mut R,
    data: &Matrix,
    batch: &[usize],
    w: &[f64],
    gamma: f64,
    mu: f64,
    n_clients: usize,
    public_seed: u64,
) -> Vec<f64> {
    let d = data.cols() - 1;
    assert_eq!(w.len(), d);
    let coeffs = quantize_lr_coeffs(w, gamma, public_seed);
    let mut acc = vec![0i128; d];
    for &i in batch {
        let row = data.row(i);
        let qx = quantize_vec(rng, &row[..d], gamma);
        let qy = stochastic_round(rng, gamma * row[d]);
        let v: i128 = qx
            .iter()
            .zip(&coeffs.w_quarter)
            .map(|(&x, &c)| x as i128 * c as i128)
            .sum::<i128>()
            - coeffs.label as i128 * qy as i128;
        for k in 0..d {
            acc[k] += coeffs.half as i128 * qx[k] as i128 + v * qx[k] as i128;
        }
    }
    let local_mu = mu / n_clients as f64;
    for a in acc.iter_mut() {
        for _ in 0..n_clients {
            *a += sample_skellam(rng, local_mu) as i128;
        }
    }
    let amp = gamma.powi(3);
    acc.into_iter().map(|v| v as f64 / amp).collect()
}

fn magnitude_bound(batch_len: usize, d: usize, gamma: f64, mu: f64) -> f64 {
    // |v_i| <= gamma/4 * (gamma + sqrt(d)) + gamma*(gamma+1) roughly; per
    // dim |v_i * x_ik| <= ~2 gamma^3. Use a generous closed form.
    let per_record = 4.0 * gamma.powi(3) * (d as f64).sqrt().max(1.0);
    batch_len as f64 * per_record + 12.0 * (2.0 * mu).sqrt() + gamma * gamma
}

fn gradient_impl<F: PrimeField>(
    data: &Matrix,
    partition: &ColumnPartition,
    batch: &[usize],
    w: &[f64],
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Result<GradientOutput, TransportError> {
    let d = data.cols() - 1;
    let mb = batch.len();
    let local_mu = mu / cfg.n_clients() as f64;
    let coeffs = quantize_lr_coeffs(w, gamma, cfg.seed());
    let engine = MpcEngine::new(cfg.mpc_config());
    let counts = partition.counts();
    let expected: Vec<usize> = counts.iter().map(|&c| c * mb).collect();

    let run = engine.try_run::<F, Option<Vec<i128>>, _>(|ctx| {
        let me = ctx.id;
        // --- quantize my columns (batch rows only) ------------------------
        ctx.set_phase("quantize");
        let mut qrng = StdRng::seed_from_u64(cfg.seed() ^ (0x96AD_0000 + me as u64));
        let my_cols = partition.columns_of(me);
        let mut my_values: Vec<F> = Vec::with_capacity(my_cols.len() * mb);
        for &j in &my_cols {
            for &i in batch {
                let q = stochastic_round(&mut qrng, gamma * data[(i, j)]);
                my_values.push(F::from_i128(q as i128));
            }
        }

        // --- round 1: columns ----------------------------------------------
        ctx.set_phase("input");
        let contributions = ctx.share_all_uneven(&my_values, &expected);
        drop(my_values);
        let col_shares = column_shares(&contributions, partition, 0, mb);

        // --- gradient: local linear + one product per (record, dim) --------
        ctx.set_phase("compute");
        let f_half = F::from_i128(coeffs.half as i128);
        let f_label = F::from_i128(coeffs.label as i128);
        let f_w: Vec<F> = coeffs
            .w_quarter
            .iter()
            .map(|&c| F::from_i128(c as i128))
            .collect();
        // v_i = sum_j qw_j * x_ij - q_label * y_i + half  (degree-t share,
        // local), column-outer so each share column is read once in order.
        let mut v: Vec<F> = vec![f_half; mb];
        for (&wj, col) in f_w.iter().zip(&col_shares) {
            for (vi, &xij) in v.iter_mut().zip(col.iter()) {
                *vi += wj * xij;
            }
        }
        for (vi, &yi) in v.iter_mut().zip(col_shares[d]) {
            *vi -= f_label * yi;
        }
        // G_k = sum_i v_i * x_ik [degree 2t].
        let grad: Vec<F> = col_shares[..d].iter().map(|col| F::dot(&v, col)).collect();

        // --- round 2: my own Skellam draws (never shared) + the masked sum --
        let mut nrng = StdRng::seed_from_u64(cfg.seed() ^ (0x5E11_B000 + me as u64));
        noisy_sum(ctx, &grad, &mut nrng, local_mu)
    })?;

    let amp = gamma.powi(3);
    Ok(GradientOutput {
        grad_sum: received(&run.outputs)
            .iter()
            .map(|&v| v as f64 / amp)
            .collect(),
        stats: run.stats,
        trace: run.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let g = gradient_sum_skellam_plaintext(&mut rng, &data, &batch, &w, 8192.0, 0.0, 4, 7);
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
        let mut rng = StdRng::seed_from_u64(11);
        let plain = gradient_sum_skellam_plaintext(&mut rng, &data, &batch, &w, gamma, 0.0, 2, 7);
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
        let mut rng = StdRng::seed_from_u64(5);
        let mut vals = Vec::new();
        for trial in 0..3000 {
            let g =
                gradient_sum_skellam_plaintext(&mut rng, &data, &batch, &w, gamma, mu, 4, trial);
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

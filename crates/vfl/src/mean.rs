//! Secure noisy column sums — the degree-1 workload (Algorithm 1 with
//! `lambda = 1` per column).
//!
//! Releasing per-attribute sums/means is the simplest member of SQM's
//! polynomial class: the function is linear, so the MPC evaluation needs
//! *no* multiplications at all — one round sharing the column sums, local
//! addition, one masked sum of the shares and each party's own noise to the
//! receiver. Two rounds total, any record count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_core::quantize::quantize_vec;
use sqm_field::PrimeField;
use sqm_linalg::Matrix;
use sqm_mpc::{MpcEngine, RunStats, TransportError};
use sqm_sampling::skellam::sample_skellam;

use crate::covariance::validate;
use crate::partition::ColumnPartition;
use crate::{noisy_sum, or_panic, received, validate_gamma, VflConfig};

/// The opened, still-amplified column sums plus statistics.
#[derive(Debug)]
pub struct MeanOutput {
    /// `sum_i hat x_ij + Sk(mu)` per column `j` (divide by `gamma * m` for
    /// the mean estimate).
    pub sums_hat: Vec<f64>,
    pub stats: RunStats,
    /// Structured trace (only when `VflConfig::trace` is set).
    pub trace: Option<sqm_obs::trace::Trace>,
}

/// Full BGW execution of the noisy column-sum release. Panics on transport
/// failure.
pub fn column_sums_skellam(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> MeanOutput {
    or_panic(try_column_sums_skellam(data, partition, gamma, mu, cfg))
}

/// [`column_sums_skellam`] with transport failures surfaced as values.
pub(crate) fn try_column_sums_skellam(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Result<MeanOutput, TransportError> {
    validate(data, partition, cfg);
    validate_gamma(gamma);
    // Magnitude bound of the opened sums.
    let c = data.max_row_norm().max(1e-9);
    let bound = data.rows() as f64 * (gamma * c + 1.0) + 12.0 * (2.0 * mu).sqrt();
    with_field!(bound, F => mean_impl::<F>(data, partition, gamma, mu, cfg))
}

fn mean_impl<F: PrimeField>(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Result<MeanOutput, TransportError> {
    let n = data.cols();
    let local_mu = mu / cfg.n_clients() as f64;
    let engine = MpcEngine::new(cfg.mpc_config());
    let counts = partition.counts();

    let run = engine.try_run::<F, Option<Vec<i128>>, _>(|ctx| {
        let me = ctx.id;
        // Each client only shares its quantized *column sums* — for a
        // linear function the per-record values never need to be shared at
        // all, so the input cost is `O(n P^2)` rather than `O(m n P^2)`.
        ctx.set_phase("quantize");
        let mut qrng = StdRng::seed_from_u64(cfg.seed() ^ (0x3EA4_0000 + me as u64));
        let sum = |j| {
            let q = quantize_vec(&mut qrng, &data.col(j), gamma);
            F::from_i128(q.into_iter().map(|v| v as i128).sum())
        };
        let my_sums: Vec<F> = partition.columns_of(me).into_iter().map(sum).collect();

        ctx.set_phase("input");
        let mut sums = vec![F::ZERO; n];
        for (client, contrib) in ctx.share_all_uneven(&my_sums, &counts).iter().enumerate() {
            for (slot, &j) in partition.columns_of(client).iter().enumerate() {
                sums[j] = contrib[slot];
            }
        }

        let mut nrng = StdRng::seed_from_u64(cfg.seed() ^ (0x5E11_D000 + me as u64));
        noisy_sum(ctx, &sums, &mut nrng, local_mu)
    })?;
    Ok(MeanOutput {
        sums_hat: received(&run.outputs).iter().map(|&v| v as f64).collect(),
        stats: run.stats,
        trace: run.trace,
    })
}

/// Output-equivalent plaintext simulation.
pub fn column_sums_skellam_plaintext<R: rand::Rng + ?Sized>(
    rng: &mut R,
    data: &Matrix,
    gamma: f64,
    mu: f64,
    n_clients: usize,
) -> Vec<f64> {
    let n = data.cols();
    let mut sums = vec![0i128; n];
    for i in 0..data.rows() {
        for (s, q) in sums.iter_mut().zip(quantize_vec(rng, data.row(i), gamma)) {
            *s += q as i128;
        }
    }
    let local_mu = mu / n_clients as f64;
    for s in sums.iter_mut() {
        for _ in 0..n_clients {
            *s += sample_skellam(rng, local_mu) as i128;
        }
    }
    sums.into_iter().map(|s| s as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.5, -0.2, 0.1],
            vec![-0.4, 0.3, 0.2],
            vec![0.1, 0.1, -0.5],
            vec![0.2, -0.2, 0.2],
        ])
    }

    fn true_sums(x: &Matrix) -> Vec<f64> {
        (0..x.cols()).map(|j| x.col(j).iter().sum()).collect()
    }

    #[test]
    fn mpc_sums_match_truth_without_noise() {
        let x = data();
        let partition = ColumnPartition::even(3, 3);
        let gamma = 4096.0;
        let out = column_sums_skellam(&x, &partition, gamma, 0.0, &VflConfig::fast(3));
        for (s, t) in out.sums_hat.iter().zip(true_sums(&x)) {
            assert!((s / gamma - t).abs() < 0.01, "{} vs {t}", s / gamma);
        }
        // Linear protocol: input + masked sum = 2 rounds.
        assert_eq!(out.stats.total.rounds, 2);
    }

    #[test]
    fn plaintext_matches_mpc_statistically() {
        let x = data();
        let mut rng = StdRng::seed_from_u64(1);
        let gamma = 4096.0;
        let plain = column_sums_skellam_plaintext(&mut rng, &x, gamma, 0.0, 3);
        for (s, t) in plain.iter().zip(true_sums(&x)) {
            assert!((s / gamma - t).abs() < 0.01);
        }
    }

    #[test]
    fn noise_variance_matches_skellam() {
        let x = Matrix::zeros(2, 2);
        let mu = 200.0;
        let mut rng = StdRng::seed_from_u64(2);
        let vals: Vec<f64> = (0..4000)
            .map(|_| column_sums_skellam_plaintext(&mut rng, &x, 16.0, mu, 5)[0])
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!((var - 2.0 * mu).abs() / (2.0 * mu) < 0.15, "var {var}");
    }

    #[test]
    fn input_cost_independent_of_m() {
        let partition = ColumnPartition::even(3, 3);
        let cfg = VflConfig::fast(3);
        let small = column_sums_skellam(&data(), &partition, 16.0, 1.0, &cfg);
        let big_data = Matrix::from_rows(&vec![vec![0.1, 0.2, 0.3]; 400]);
        let big = column_sums_skellam(&big_data, &partition, 16.0, 1.0, &cfg);
        assert_eq!(small.stats.total.bytes, big.stats.total.bytes);
    }
}

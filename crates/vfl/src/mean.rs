//! Secure noisy column sums — the degree-1 workload (Algorithm 1 with
//! `lambda = 1` per column).
//!
//! Releasing per-attribute sums/means is the simplest member of SQM's
//! polynomial class: as a [`ReleasePlan`] it is one row, the constant form
//! `1` paired with every column. The function is linear, so the MPC
//! evaluation needs *no* multiplications at all — one round sharing the
//! column sums, local addition, one masked sum of the shares and each
//! party's own noise to the receiver. Two rounds total, any record count.
//! [`column_sums_oracle`] replays its streams ([`ReleasePlan::exact`]) and
//! predicts it exactly.

use sqm_core::quantize::quantize_vec;
use sqm_core::sensitivity::column_sum_sensitivity;
use sqm_field::PrimeField;
use sqm_linalg::Matrix;
use sqm_mpc::{MpcEngine, RunStats, TransportError};

use crate::partition::ColumnPartition;
use crate::plan::{Form, ReleasePlan};
use crate::{noisy_sum, or_panic, received, validate, validate_gamma, VflConfig};

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
    let plan = plan(data, partition, gamma, mu, cfg);
    or_panic(release(&plan, data, cfg))
}

/// This release's quantization and noise salts (see [`crate::party_streams`]).
const STREAMS: [u64; 2] = [0x3EA4_0000, 0x5E11_D000];

/// The column sums' plan: the constant form `1` paired with every column,
/// charged [`column_sum_sensitivity`]. Checks the inputs for the protocol
/// and the oracle alike.
pub(crate) fn plan(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> ReleasePlan {
    validate(data, partition, cfg);
    validate_gamma(gamma);
    let n = data.cols();
    let c = data.max_row_norm().max(1e-9);
    // Magnitude bound of the opened sums.
    let bound = data.rows() as f64 * (gamma * c + 1.0) + 12.0 * (2.0 * mu).sqrt();
    let ones = Form {
        constant: 1,
        terms: Vec::new(),
    };
    let (rows, sens) = (vec![(ones, 0..n)], column_sum_sensitivity(gamma, c, n));
    ReleasePlan::new(partition, STREAMS, gamma, mu, rows, bound, sens)
}

/// The release of `plan` over `data`, on its own linear protocol body.
pub(crate) fn release(
    plan: &ReleasePlan,
    data: &Matrix,
    cfg: &VflConfig,
) -> Result<MeanOutput, TransportError> {
    let (partition, n) = (&plan.partition, data.cols());
    let counts = partition.counts();
    let run = with_field!(plan.bound, F => {
        MpcEngine::new(cfg.mpc_config()).try_run::<F, Option<Vec<i128>>, _>(|ctx| {
            let me = ctx.id;
            // Each client only shares its quantized *column sums* — for a
            // linear function the per-record values never need to be shared
            // at all, so the input cost is `O(n P^2)` rather than `O(m n P^2)`.
            ctx.set_phase("quantize");
            let (mut qrng, mut nrng) = plan.streams(cfg.seed(), me);
            let sum = |j| {
                let q = quantize_vec(&mut qrng, &data.col(j), plan.gamma);
                F::from_i128(q.into_iter().map(i128::from).sum())
            };
            let my_sums: Vec<F> = partition.columns_of(me).into_iter().map(sum).collect();

            ctx.set_phase("input");
            let mut sums = vec![F::ZERO; n];
            for (client, contrib) in ctx.share_all_uneven(&my_sums, &counts).iter().enumerate() {
                for (slot, &j) in partition.columns_of(client).iter().enumerate() {
                    sums[j] = contrib[slot];
                }
            }

            let local = ctx.scale_public(&sums, ctx.lagrange_weight(None));
            noisy_sum(ctx, local, &mut nrng, plan.local_mu)
        })
    })?;
    Ok(MeanOutput {
        sums_hat: received(&run.outputs).iter().map(|&v| v as f64).collect(),
        stats: run.stats,
        trace: run.trace,
    })
}

/// Bit-exact plaintext replay of [`column_sums_skellam`]: each party's
/// quantized column sums, plus `n` Skellam(mu/P) draws a party.
pub fn column_sums_oracle(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Vec<f64> {
    let rows: Vec<usize> = (0..data.rows()).collect();
    let plan = plan(data, partition, gamma, mu, cfg);
    let opened = plan.exact(&[vec![(data, &rows)]], cfg.seed(), 0);
    opened.into_iter().map(|s| s as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let cfg = VflConfig::fast(3).with_seed(rng.gen());
        let plain = column_sums_oracle(&x, &ColumnPartition::even(3, 3), gamma, 0.0, &cfg);
        for (s, t) in plain.iter().zip(true_sums(&x)) {
            assert!((s / gamma - t).abs() < 0.01);
        }
    }

    #[test]
    fn noise_variance_matches_skellam() {
        // Two columns over five clients: three own none.
        let x = Matrix::zeros(2, 2);
        let partition = ColumnPartition::even_or_sparse(2, 5);
        let mu = 200.0;
        let mut rng = StdRng::seed_from_u64(2);
        let vals: Vec<f64> = (0..4000)
            .map(|_| {
                let cfg = VflConfig::fast(5).with_seed(rng.gen());
                column_sums_oracle(&x, &partition, 16.0, mu, &cfg)[0]
            })
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!((var - 2.0 * mu).abs() / (2.0 * mu) < 0.15, "var {var}");
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn oracle_rejects_a_zero_gamma() {
        // No records, so no per-value quantizer could catch it: the plan
        // constructor the protocol and the oracle share does.
        let cfg = VflConfig::fast(3);
        column_sums_oracle(
            &Matrix::zeros(0, 3),
            &ColumnPartition::even(3, 3),
            0.0,
            1.0,
            &cfg,
        );
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

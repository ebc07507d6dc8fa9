//! Generic SQM over MPC: Algorithm 3 for an arbitrary polynomial, compiled
//! to an arithmetic circuit.
//!
//! Per-record monomials are built as balanced product trees, so the round
//! count is the polynomial's multiplicative depth (`ceil(log2 lambda)`)
//! plus the input round and the masked sum to the receiver — independent of
//! the record count and the number of monomials. The covariance and
//! gradient fast paths specialize it. [`eval_polynomial_oracle`], the
//! plaintext mechanism (Algorithms 1 and 3), replays its streams and
//! predicts it exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_core::polynomial::Polynomial;
use sqm_core::quantize::{quantize_polynomial, QuantizedPolynomial};
use sqm_field::PrimeField;
use sqm_linalg::Matrix;
use sqm_mpc::circuit::{Circuit, CircuitBuilder, Wire};
use sqm_mpc::{MpcEngine, MpcRun, RunStats, TransportError};
use sqm_sampling::rounding::stochastic_round;
use sqm_sampling::skellam::Skellam;

use crate::partition::ColumnPartition;
use crate::{
    noisy_sum, or_panic, party_streams, quantize_columns, received, validate, validate_gamma,
    VflConfig,
};

/// Evaluate `sum_x f(x)` under SQM with full BGW execution.
///
/// Returns the down-scaled estimates (one per output dimension) and stats.
/// Panics on transport failure.
pub fn eval_polynomial_skellam(
    poly: &Polynomial,
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> (Vec<f64>, RunStats) {
    assert_eq!(
        poly.n_vars(),
        data.cols(),
        "polynomial/data dimension mismatch"
    );
    validate(data, partition, cfg);
    validate_gamma(gamma);

    // Conservative magnitude bound for field selection.
    let lambda = poly.degree() as i32;
    let max_abs_coeff = poly
        .dims()
        .flat_map(|ms| ms.iter().map(|m| m.coeff.abs()))
        .fold(1.0_f64, f64::max);
    let c = data.max_row_norm().max(1.0);
    let per_record = max_abs_coeff
        * gamma.powi(lambda + 1)
        * (c + 1.0).powi(lambda)
        * poly.max_monomials_per_dim() as f64;
    let bound = data.rows() as f64 * per_record + 12.0 * (2.0 * mu).sqrt() + 1.0;

    let run =
        or_panic(with_field!(bound, F => eval_impl::<F>(poly, data, partition, gamma, mu, cfg)));
    // The server divides out the amplification (Algorithm 3 line 11).
    let amplification = gamma.powi(lambda + 1);
    let opened = received(&run.outputs);
    let values = opened.iter().map(|&v| v as f64 / amplification).collect();
    (values, run.stats)
}

/// Bit-exact plaintext replay of [`eval_polynomial_skellam`]'s values:
/// the public coefficients, each party's columns quantized record by
/// record, every quantized monomial on every quantized record
/// (`QuantizedMonomial::eval_i128`), and `d` Skellam(mu/P) draws a party.
pub fn eval_polynomial_oracle(
    poly: &Polynomial,
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Vec<f64> {
    validate(data, partition, cfg);
    let qpoly = public_coefficients(poly, gamma, cfg.seed());
    let skellam = Skellam::new(mu / cfg.n_clients() as f64);
    let mut records = vec![vec![0i64; data.cols()]; data.rows()];
    let mut sums = vec![0i128; poly.n_dims()];
    for p in 0..cfg.n_clients() {
        let (mut qrng, mut nrng) = party_streams(cfg.seed(), STREAMS, p);
        let my_cols = partition.columns_of(p);
        for (i, record) in records.iter_mut().enumerate() {
            for &j in &my_cols {
                record[j] = stochastic_round(&mut qrng, gamma * data[(i, j)]);
            }
        }
        for s in sums.iter_mut() {
            *s += skellam.sample(&mut nrng) as i128;
        }
    }
    let values = sums.iter().zip(qpoly.sum_over(&records));
    values
        .map(|(&noise, v)| (noise + v) as f64 / qpoly.amplification())
        .collect()
}

/// Algorithm 3 lines 1-3: every party, and the oracle, derives the same
/// public coefficients from the seed.
fn public_coefficients(poly: &Polynomial, gamma: f64, seed: u64) -> QuantizedPolynomial {
    quantize_polynomial(&mut StdRng::seed_from_u64(seed ^ 0xC0EF_0000), poly, gamma)
}

/// This release's quantization and noise salts (see [`party_streams`]).
const STREAMS: [u64; 2] = [0x9E4E_0000, 0x5E11_C000];

/// Compile the quantized polynomial sum into a circuit. Input ordering per
/// owner: record-major over the owner's columns in ascending order —
/// `(record 0, col a), (record 0, col b), ..., (record 1, col a), ...`.
fn compile<F: PrimeField>(
    poly: &Polynomial,
    partition: &ColumnPartition,
    coeffs: &[Vec<i128>],
    m: usize,
) -> Circuit<F> {
    let p_clients = partition.n_clients();
    let mut b = CircuitBuilder::<F>::new(p_clients);

    // Declare inputs in a deterministic interleaving and remember the wire
    // of each (record, column).
    let mut var_wire: Vec<Vec<Option<Wire>>> = vec![vec![None; partition.n_cols()]; m];
    for client in 0..p_clients {
        for record in var_wire.iter_mut() {
            for &j in &partition.columns_of(client) {
                record[j] = Some(b.input(client));
            }
        }
    }

    for (t, monos) in poly.dims().enumerate() {
        let mut dim_terms: Vec<Wire> = Vec::new();
        for (l, mono) in monos.iter().enumerate() {
            let coeff = F::from_i128(coeffs[t][l]);
            for record in var_wire.iter() {
                let mut factors: Vec<Wire> = Vec::new();
                for &(v, e) in &mono.exponents {
                    let w = record[v].expect("input wire missing");
                    for _ in 0..e {
                        factors.push(w);
                    }
                }
                let term = if factors.is_empty() {
                    b.constant(coeff)
                } else {
                    let prod = b.product(&factors);
                    b.mul_const(prod, coeff)
                };
                dim_terms.push(term);
            }
        }
        let out = b.sum(&dim_terms);
        b.output(out);
    }
    b.build()
}

/// The run whose receiver holds the amplified noisy sums.
fn eval_impl<F: PrimeField>(
    poly: &Polynomial,
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Result<MpcRun<Option<Vec<i128>>>, TransportError> {
    let m = data.rows();
    let d = poly.n_dims();
    let local_mu = mu / cfg.n_clients() as f64;

    let qpoly = public_coefficients(poly, gamma, cfg.seed());
    let coeffs: Vec<Vec<i128>> = (0..d)
        .map(|t| qpoly.dim(t).iter().map(|qm| qm.coeff).collect())
        .collect();

    let circuit = compile::<F>(poly, partition, &coeffs, m);
    let engine = MpcEngine::new(cfg.mpc_config());

    engine.try_run::<F, Option<Vec<i128>>, _>(|ctx| {
        let me = ctx.id;
        ctx.set_phase("quantize");
        let (mut qrng, mut nrng) = party_streams(cfg.seed(), STREAMS, me);
        let my_cols = partition.columns_of(me);
        let mut my_inputs: Vec<F> = Vec::with_capacity(m * my_cols.len());
        // Record-major: each record's columns in turn, as the circuit's
        // inputs are laid out.
        for i in 0..m {
            quantize_columns(&mut qrng, gamma, data, &my_cols, i..i + 1, &mut my_inputs);
        }

        ctx.set_phase("compute");
        let shares = circuit.eval_mpc(ctx, &my_inputs);

        let local = ctx.scale_public(&shares, ctx.lagrange_weight(None));
        noisy_sum(ctx, local, &mut nrng, local_mu)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_core::polynomial::Monomial;

    fn toy_data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.5, -0.3, 0.2],
            vec![-0.1, 0.4, 0.6],
            vec![0.2, 0.2, -0.5],
        ])
    }

    #[test]
    fn degree3_polynomial_matches_truth() {
        // f(x) = x0^3 + 1.5 x1 x2 + 2 (the paper's Section II example).
        let p = Polynomial::one_dimensional(
            3,
            vec![
                Monomial::new(1.0, vec![(0, 3)]),
                Monomial::new(1.5, vec![(1, 1), (2, 1)]),
                Monomial::constant(2.0),
            ],
        );
        let data = toy_data();
        let truth = p.sum_over((0..data.rows()).map(|i| data.row(i)))[0];
        let partition = ColumnPartition::even(3, 3);
        let (vals, stats) =
            eval_polynomial_skellam(&p, &data, &partition, 2048.0, 0.0, &VflConfig::fast(3));
        assert!(
            (vals[0] - truth).abs() < 0.01,
            "got {} want {truth}",
            vals[0]
        );
        // rounds: input 1 + depth 2 (x0^3 tree: ceil(log2 3) = 2) + masked
        // sum 1 = 4.
        assert_eq!(stats.total.rounds, 4);
    }

    #[test]
    fn multi_dimensional_output() {
        // f(x) = (x0 + x1, x0 * x2) over 2 clients.
        let p = Polynomial::new(
            3,
            vec![
                vec![Monomial::linear(1.0, 0), Monomial::linear(1.0, 1)],
                vec![Monomial::new(1.0, vec![(0, 1), (2, 1)])],
            ],
        );
        let data = toy_data();
        let truth = p.sum_over((0..data.rows()).map(|i| data.row(i)));
        let partition = ColumnPartition::even(3, 2);
        let (vals, _) =
            eval_polynomial_skellam(&p, &data, &partition, 4096.0, 0.0, &VflConfig::fast(2));
        for (v, t) in vals.iter().zip(&truth) {
            assert!((v - t).abs() < 0.01, "got {v} want {t}");
        }
    }

    #[test]
    fn matches_plaintext_mechanism_distributionally() {
        // The plaintext mechanism is the oracle: at the release's own seed
        // it predicts the opened value exactly, noise included.
        let p = Polynomial::one_dimensional(2, vec![Monomial::new(1.0, vec![(0, 1), (1, 1)])]);
        let data = Matrix::from_rows(&[vec![0.4, 0.6], vec![-0.2, 0.3]]);
        let partition = ColumnPartition::even_or_sparse(2, 2);
        let (gamma, mu) = (8192.0, 100.0);
        let cfg = VflConfig::fast(2);
        let (vals, _) = eval_polynomial_skellam(&p, &data, &partition, gamma, mu, &cfg);
        let plain = eval_polynomial_oracle(&p, &data, &partition, gamma, mu, &cfg);
        assert_eq!(vals, plain);
    }

    /// The oracle at `(gamma, mu)` over `n_clients` clients and seed `seed`.
    fn oracle(
        p: &Polynomial,
        data: &Matrix,
        gamma: f64,
        mu: f64,
        n_clients: usize,
        seed: u64,
    ) -> Vec<f64> {
        let partition = ColumnPartition::even_or_sparse(data.cols(), n_clients);
        let cfg = VflConfig::fast(n_clients).with_seed(seed);
        eval_polynomial_oracle(p, data, &partition, gamma, mu, &cfg)
    }

    #[test]
    fn monomial_no_noise_is_accurate() {
        let m = Monomial::new(1.0, vec![(0, 1), (2, 1)]); // x0 * x2
        let p = Polynomial::one_dimensional(3, vec![m]);
        let data = toy_data();
        let truth: f64 = (0..data.rows()).map(|i| data[(i, 0)] * data[(i, 2)]).sum();
        let est = oracle(&p, &data, 4096.0, 0.0, 3, 1)[0];
        assert!((est - truth).abs() < 1e-3, "est {est} truth {truth}");
    }

    #[test]
    fn monomial_error_shrinks_with_gamma() {
        let m = Monomial::new(1.0, vec![(0, 2), (1, 1)]); // x0^2 x1
        let p = Polynomial::one_dimensional(3, vec![m]);
        let data = toy_data();
        let truth: f64 = (0..data.rows())
            .map(|i| data[(i, 0)].powi(2) * data[(i, 1)])
            .sum();
        let reps = 50;
        let err: Vec<f64> = [8.0, 128.0, 8192.0]
            .iter()
            .map(|&gamma| {
                let total: f64 = (0..reps)
                    .map(|seed| (oracle(&p, &data, gamma, 0.0, 3, seed)[0] - truth).abs())
                    .sum();
                total / reps as f64
            })
            .collect();
        assert!(err[2] < err[1] && err[1] < err[0], "{err:?}");
    }

    #[test]
    fn polynomial_no_noise_matches_truth() {
        let p = Polynomial::new(
            3,
            vec![
                vec![Monomial::new(2.0, vec![(0, 1)]), Monomial::constant(-0.5)],
                vec![Monomial::new(1.0, vec![(1, 1), (2, 1)])],
            ],
        );
        let data = toy_data();
        let truth = p.sum_over((0..data.rows()).map(|i| data.row(i)));
        let est = oracle(&p, &data, 8192.0, 0.0, 3, 3);
        for (e, t) in est.iter().zip(&truth) {
            assert!((e - t).abs() < 2e-3, "est {e} truth {t}");
        }
    }

    #[test]
    fn noise_has_calibrated_scale_after_downscaling() {
        // With mu > 0 the estimate's variance should be ~ 2*mu /
        // gamma^(2(lambda+1)) per dimension: five clients' Sk(mu/5) draws
        // sum to Sk(mu).
        let p = Polynomial::one_dimensional(1, vec![Monomial::new(1.0, vec![(0, 1)])]);
        let data = Matrix::from_rows(&[vec![0.0]]); // zero data isolates noise
        let (gamma, mu) = (64.0, 1e6);
        let samples: Vec<f64> = (0..4000)
            .map(|seed| oracle(&p, &data, gamma, mu, 5, seed)[0])
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let expect = 2.0 * mu / gamma.powf(4.0); // lambda = 1 => scale gamma^2
        assert!(
            mean.abs() < 3.0 * (expect / 4000.0).sqrt() + 1e-6,
            "mean {mean}"
        );
        assert!(
            (var - expect).abs() / expect < 0.15,
            "var {var} expect {expect}"
        );
    }

    #[test]
    fn covariance_polynomial_end_to_end() {
        let data = toy_data();
        let est = oracle(&Polynomial::covariance(3), &data, 4096.0, 0.0, 3, 5);
        let truth = data.gram();
        for j in 0..3 {
            for k in 0..3 {
                let e = est[j * 3 + k];
                let t = truth[(j, k)];
                assert!((e - t).abs() < 5e-3, "({j},{k}): est {e} truth {t}");
            }
        }
    }

    #[test]
    fn noise_is_injected() {
        let p = Polynomial::one_dimensional(2, vec![Monomial::linear(1.0, 0)]);
        let data = Matrix::zeros(2, 2);
        let partition = ColumnPartition::even(2, 2);
        // lambda = 1 so amplification gamma^2; mu chosen so the downscaled
        // noise is visible.
        let gamma = 4.0;
        let mu = 1e6;
        let cfg = VflConfig::fast(2);
        let (vals, stats) = eval_polynomial_skellam(&p, &data, &partition, gamma, mu, &cfg);
        assert!(vals[0].abs() > 0.01, "noise should perturb: {}", vals[0]);
        // dp_noise is sampling only: the noise travels inside the masked sum.
        assert_eq!(stats.phases["dp_noise"].rounds, 0);
        assert_eq!(stats.total.rounds, 2);

        // And only the receiver learns that sum.
        let run = eval_impl::<sqm_field::M61>(&p, &data, &partition, gamma, mu, &cfg).unwrap();
        for (party, out) in run.outputs.iter().enumerate() {
            assert_eq!(out.is_some(), party == sqm_mpc::RECEIVER, "party {party}");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_mismatched_polynomial() {
        let p = Polynomial::one_dimensional(5, vec![Monomial::linear(1.0, 0)]);
        let data = toy_data();
        let partition = ColumnPartition::even(3, 3);
        eval_polynomial_skellam(&p, &data, &partition, 16.0, 0.0, &VflConfig::fast(3));
    }
}

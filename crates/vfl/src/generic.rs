//! Generic SQM over MPC: Algorithm 3 for an arbitrary polynomial, compiled
//! to an arithmetic circuit.
//!
//! Per-record monomials are built as balanced product trees, so the round
//! count is the polynomial's multiplicative depth (`ceil(log2 lambda)`)
//! plus the input round and the masked sum to the receiver — independent of
//! the record count and the number of monomials. This path is the reference
//! implementation and is cross-checked against the plaintext mechanism; the
//! covariance and gradient fast paths specialize it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_core::polynomial::Polynomial;
use sqm_core::quantize::quantize_polynomial;
use sqm_field::PrimeField;
use sqm_linalg::Matrix;
use sqm_mpc::circuit::{Circuit, CircuitBuilder, Wire};
use sqm_mpc::{MpcEngine, MpcRun, RunStats, TransportError};
use sqm_sampling::rounding::stochastic_round;

use crate::covariance::validate;
use crate::partition::ColumnPartition;
use crate::{noisy_sum, or_panic, received, validate_gamma, VflConfig};

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

    // Public coefficient quantization (Algorithm 3 lines 1-3): all parties
    // derive the same integers from the public seed.
    let mut crng = StdRng::seed_from_u64(cfg.seed() ^ 0xC0EF_0000);
    let qpoly = quantize_polynomial(&mut crng, poly, gamma);
    let coeffs: Vec<Vec<i128>> = (0..d)
        .map(|t| qpoly.dim(t).iter().map(|qm| qm.coeff).collect())
        .collect();

    let circuit = compile::<F>(poly, partition, &coeffs, m);
    let engine = MpcEngine::new(cfg.mpc_config());

    engine.try_run::<F, Option<Vec<i128>>, _>(|ctx| {
        let me = ctx.id;
        ctx.set_phase("quantize");
        let mut qrng = StdRng::seed_from_u64(cfg.seed() ^ (0x9E4E_0000 + me as u64));
        let my_cols = partition.columns_of(me);
        let mut my_inputs: Vec<F> = Vec::with_capacity(m * my_cols.len());
        for i in 0..m {
            for &j in &my_cols {
                let q = stochastic_round(&mut qrng, gamma * data[(i, j)]);
                my_inputs.push(F::from_i128(q as i128));
            }
        }

        ctx.set_phase("compute");
        let shares = circuit.eval_mpc(ctx, &my_inputs);

        let mut nrng = StdRng::seed_from_u64(cfg.seed() ^ (0x5E11_C000 + me as u64));
        noisy_sum(ctx, &shares, &mut nrng, local_mu)
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
        // With mu = 0 both paths differ only in rounding randomness; their
        // outputs must agree to quantization precision.
        use sqm_core::mechanism::{sqm_polynomial, SqmParams};
        let p = Polynomial::one_dimensional(2, vec![Monomial::new(1.0, vec![(0, 1), (1, 1)])]);
        let data = Matrix::from_rows(&[vec![0.4, 0.6], vec![-0.2, 0.3]]);
        let partition = ColumnPartition::even(2, 2);
        let gamma = 8192.0;
        let (vals, _) =
            eval_polynomial_skellam(&p, &data, &partition, gamma, 0.0, &VflConfig::fast(2));
        let mut rng = StdRng::seed_from_u64(1);
        let plain = sqm_polynomial(&mut rng, &p, &data, SqmParams::new(gamma, 0.0, 2));
        assert!(
            (vals[0] - plain[0]).abs() < 0.01,
            "mpc {} plain {}",
            vals[0],
            plain[0]
        );
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

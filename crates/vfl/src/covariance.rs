//! Secure noisy covariance: the PCA workload (Section V-A).
//!
//! The clients compute `hatC = hatX^T hatX + sum_p N_p` where `hatX` is the
//! gamma-quantized data and each `N_p` is a symmetric matrix of client-local
//! `Sk(mu/P)` noise. Only `hatC` is opened; the server divides by `gamma^2`
//! and eigendecomposes.
//!
//! Communication structure (two rounds): every client shares its quantized
//! columns at degree `t`. The local products `hat x_ij * hat x_ik` are
//! summed over records at degree `2t` (addition is free at any degree), and
//! round 2 is a secure aggregation: each client sends party 0 its
//! Lagrange-weighted share plus its own `n(n+1)/2` noise draws under
//! pairwise masks that cancel in the sum (`PartyCtx::sum_to_receiver`) — a
//! degree reduction would buy nothing for a value that is summed and
//! released next. Non-input communication is `O(n^2 P)` independent of `m`,
//! matching Table I.
//!
//! One per-party program, [`CovSession::release`], is the whole protocol.
//! Its input is a list of *frames* (one input round each), each a list of
//! row blocks. One-shot is one frame of one block on a fresh session,
//! chunked is one frame per chunk, and [`crate::stream::StreamCov`] passes
//! one frame of all pending batches to a session it keeps.

use std::ops::Range;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_core::quantize::quantize_vec;
use sqm_field::PrimeField;
use sqm_linalg::Matrix;
use sqm_mpc::net::transport::{build_mesh, Transport};
use sqm_mpc::{MpcEngine, RunStats, TransportError};
use sqm_sampling::rounding::stochastic_round;
use sqm_sampling::skellam::{sample_skellam, sample_skellam_symmetric};

use crate::partition::ColumnPartition;
use crate::{noisy_sum, or_panic, received, validate_gamma, VflConfig};

/// The opened, still-amplified covariance and the run statistics.
#[derive(Debug)]
pub struct CovarianceOutput {
    /// `hatX^T hatX + Sk(mu)` as an `n x n` symmetric matrix (integer
    /// values stored in `f64`; the server divides by `gamma^2`).
    pub c_hat: Matrix,
    /// MPC accounting (empty/default for the plaintext backend).
    pub stats: RunStats,
    /// Structured trace (only when `VflConfig::trace` is set).
    pub trace: Option<sqm_obs::trace::Trace>,
}

/// Full BGW execution of the noisy covariance.
///
/// Panics on transport failure; use [`try_covariance_skellam`] to receive
/// the typed [`TransportError`] instead (crashed party, exhausted
/// retransmits, socket timeout, ...).
pub fn covariance_skellam(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> CovarianceOutput {
    or_panic(try_covariance_skellam(data, partition, gamma, mu, cfg))
}

/// [`covariance_skellam`] with transport failures surfaced as values.
pub fn try_covariance_skellam(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Result<CovarianceOutput, TransportError> {
    let frames = [vec![(data, 0..data.rows())]];
    release_once(data, partition, gamma, mu, cfg, &frames)
}

/// Output-equivalent plaintext simulation (identical output law; the MPC
/// protocol reveals exactly this quantity). Used by the statistical
/// experiments, which need thousands of runs.
pub fn covariance_skellam_plaintext<R: rand::Rng + ?Sized>(
    rng: &mut R,
    data: &Matrix,
    gamma: f64,
    mu: f64,
    n_clients: usize,
) -> Matrix {
    assert!(n_clients >= 1);
    let n = data.cols();
    let mut qrows: Vec<Vec<i64>> = Vec::with_capacity(data.rows());
    for i in 0..data.rows() {
        qrows.push(quantize_vec(rng, data.row(i), gamma));
    }
    let mut c = vec![0i128; n * n];
    for row in &qrows {
        for j in 0..n {
            let xj = row[j] as i128;
            if xj == 0 {
                continue;
            }
            for k in j..n {
                c[j * n + k] += xj * row[k] as i128;
            }
        }
    }
    // Aggregate noise: sum of per-client symmetric Sk(mu/P) matrices.
    let local_mu = mu / n_clients as f64;
    for _ in 0..n_clients {
        let noise = sample_skellam_symmetric(rng, local_mu, n);
        for j in 0..n {
            for k in j..n {
                c[j * n + k] += noise[j * n + k] as i128;
            }
        }
    }
    let mut out = Matrix::zeros(n, n);
    for j in 0..n {
        for k in j..n {
            out[(j, k)] = c[j * n + k] as f64;
            out[(k, j)] = out[(j, k)];
        }
    }
    out
}

/// Bit-exact plaintext replay of [`covariance_skellam`].
///
/// Unlike [`covariance_skellam_plaintext`] (output-*equivalent* law, its own
/// RNG), this replays the exact per-party randomness streams the MPC party
/// threads derive from `cfg.seed()` — quantization stream
/// `seed ^ (0xA11C_E000 + p)` consumed column-by-column in partition order,
/// then `n(n+1)/2` Skellam(mu/P) draws from `seed ^ (0x5E11_A000 + p)` per
/// party — and therefore predicts the *opened integer output* of the secure
/// protocol exactly, for any backend. It is the differential-fuzzing oracle:
/// any bit of divergence from the MPC run is a correctness bug in
/// secret-sharing, the masked sum, or transport.
pub fn covariance_quantized_oracle(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Matrix {
    validate(data, partition, cfg);
    let n = data.cols();
    let m = data.rows();
    let upper_len = n * (n + 1) / 2;

    // Replay each party's quantization stream over its own columns.
    let mut qcols: Vec<Vec<i64>> = vec![Vec::new(); n];
    for p in 0..cfg.n_clients() {
        let mut qrng = StdRng::seed_from_u64(cfg.seed() ^ (0xA11C_E000 + p as u64));
        for j in partition.columns_of(p) {
            qcols[j] = quantize_vec(&mut qrng, &data.col(j), gamma);
        }
    }

    // Upper-triangular Gram of the quantized columns, in opened order.
    let mut opened = vec![0i128; upper_len];
    let mut idx = 0;
    for j in 0..n {
        for k in j..n {
            let acc: i128 = (0..m)
                .map(|i| qcols[j][i] as i128 * qcols[k][i] as i128)
                .sum();
            opened[idx] = acc;
            idx += 1;
        }
    }

    // Replay each party's noise stream.
    let local_mu = mu / cfg.n_clients() as f64;
    for p in 0..cfg.n_clients() {
        let mut nrng = StdRng::seed_from_u64(cfg.seed() ^ (0x5E11_A000 + p as u64));
        for slot in opened.iter_mut() {
            *slot += sample_skellam(&mut nrng, local_mu) as i128;
        }
    }

    symmetric_from_upper(&opened, n)
}

pub(crate) fn validate(data: &Matrix, partition: &ColumnPartition, cfg: &VflConfig) {
    assert_eq!(
        partition.n_cols(),
        data.cols(),
        "partition/data column mismatch"
    );
    assert_eq!(
        partition.n_clients(),
        cfg.n_clients(),
        "partition/config client-count mismatch"
    );
}

/// Largest magnitude an opened entry can reach over `rows` records of l2
/// norm at most `max_row_norm` (with a 12-sigma noise allowance).
pub(crate) fn magnitude_bound(rows: usize, max_row_norm: f64, gamma: f64, mu: f64) -> f64 {
    let c = max_row_norm.max(1e-9);
    let per_entry = gamma * c + 1.0;
    rows as f64 * per_entry * per_entry + 12.0 * (2.0 * mu).sqrt() + 1.0
}

/// One party's `len` Skellam(`local_mu`) draws as field elements, in stream
/// order.
pub(crate) fn sample_noise<F: PrimeField>(nrng: &mut StdRng, local_mu: f64, len: usize) -> Vec<F> {
    (0..len)
        .map(|_| F::from_i128(sample_skellam(nrng, local_mu) as i128))
        .collect()
}

/// Borrow my share-vector of every global column out of the per-client
/// contributions of one input round. Each client's contribution is
/// column-major over its own columns; `skip_rows` rows per column precede
/// the `rows` wanted ones (earlier batches coalesced into the same frame).
pub(crate) fn column_shares<'a, F: PrimeField>(
    contributions: &'a [Vec<F>],
    partition: &ColumnPartition,
    skip_rows: usize,
    rows: usize,
) -> Vec<&'a [F]> {
    let mut cols: Vec<&[F]> = vec![&[]; partition.n_cols()];
    for (client, contrib) in contributions.iter().enumerate() {
        let owned = partition.columns_of(client);
        let batch = &contrib[owned.len() * skip_rows..][..owned.len() * rows];
        for (slot, &j) in owned.iter().enumerate() {
            cols[j] = &batch[slot * rows..(slot + 1) * rows];
        }
    }
    cols
}

/// `acc[(j, k)] += <cols[j], cols[k]>` over the upper triangle in opened
/// order: local products of degree-`t` shares, summed at degree `2t`.
///
/// A 1x4 register tile: column `j` goes against four columns per pass over
/// the rows ([`PrimeField::dot4`]), and the at most three columns left at the
/// end of a triangle row take the scalar [`PrimeField::dot`].
pub(crate) fn add_gram<F: PrimeField>(acc: &mut [F], cols: &[&[F]]) {
    let mut idx = 0;
    for (j, cj) in cols.iter().enumerate() {
        let mut tiles = cols[j..].chunks_exact(4);
        for tile in &mut tiles {
            let sums = F::dot4(cj, [tile[0], tile[1], tile[2], tile[3]]);
            for (a, s) in acc[idx..idx + 4].iter_mut().zip(sums) {
                *a += s;
            }
            idx += 4;
        }
        for ck in tiles.remainder() {
            acc[idx] += F::dot(cj, ck);
            idx += 1;
        }
    }
}

/// The symmetric matrix whose upper triangle, in opened order, is `opened`.
pub(crate) fn symmetric_from_upper(opened: &[i128], n: usize) -> Matrix {
    let mut c_hat = Matrix::zeros(n, n);
    let mut idx = 0;
    for j in 0..n {
        for k in j..n {
            c_hat[(j, k)] = opened[idx] as f64;
            c_hat[(k, j)] = c_hat[(j, k)];
            idx += 1;
        }
    }
    c_hat
}

/// Memory-bounded variant: records are shared and locally multiplied in
/// chunks of `chunk_records` rows, so peak share memory is
/// `O(chunk_records * n)` per party instead of `O(m * n)`. Costs one input
/// round per chunk (`chunks + 1` rounds in all); the degree-2t accumulator
/// carries across chunks (addition is free at any degree), so noise and
/// opening still happen exactly once. Output law identical to
/// [`covariance_skellam`].
pub fn covariance_skellam_chunked(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
    chunk_records: usize,
) -> CovarianceOutput {
    assert!(chunk_records >= 1, "chunk size must be positive");
    let m = data.rows();
    // An empty matrix still has its one (empty) input round.
    let frames: Vec<Vec<RowBlock>> = (0..m.max(1))
        .step_by(chunk_records)
        .map(|start| vec![(data, start..(start + chunk_records).min(m))])
        .collect();
    or_panic(release_once(data, partition, gamma, mu, cfg, &frames))
}

/// One release over a fresh mesh and fresh party state, both dropped after.
fn release_once(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
    frames: &[Vec<RowBlock>],
) -> Result<CovarianceOutput, TransportError> {
    validate(data, partition, cfg);
    validate_gamma(gamma);
    let bound = magnitude_bound(data.rows(), data.max_row_norm(), gamma, mu);
    with_field!(bound, F => {
        CovSession::<F>::open(cfg, data.cols())?.release(cfg, partition, gamma, mu, frames)
    })
}

/// A run of consecutive rows of one matrix: what a party quantizes, shares
/// and multiplies as a unit.
pub(crate) type RowBlock<'a> = (&'a Matrix, Range<usize>);

/// One party's share of a covariance computation: its private quantization
/// and noise streams and its degree-2t share of the noise-free
/// upper-triangular Gram accumulator.
struct PartyState<F: PrimeField> {
    qrng: StdRng,
    nrng: StdRng,
    acc: Vec<F>,
}

/// Everything a covariance computation keeps between releases: the party
/// mesh and every party's [`PartyState`]. A one-shot protocol opens one,
/// releases once and drops it; [`crate::stream::StreamCov`] keeps it.
pub(crate) struct CovSession<F: PrimeField> {
    mesh: Vec<Box<dyn Transport<F>>>,
    parties: Vec<PartyState<F>>,
}

impl<F: PrimeField> CovSession<F> {
    /// Mesh the parties and start their streams and accumulators afresh.
    pub(crate) fn open(cfg: &VflConfig, n_cols: usize) -> Result<Self, TransportError> {
        let mpc = cfg.mpc_config();
        let mesh = build_mesh::<F>(mpc.n_parties, &mpc.backend, mpc.faults.as_ref())?;
        let parties = (0..cfg.n_clients())
            .map(|p| PartyState {
                qrng: StdRng::seed_from_u64(cfg.seed() ^ (0xA11C_E000 + p as u64)),
                nrng: StdRng::seed_from_u64(cfg.seed() ^ (0x5E11_A000 + p as u64)),
                acc: vec![F::ZERO; n_cols * (n_cols + 1) / 2],
            })
            .collect();
        Ok(CovSession { mesh, parties })
    }

    /// One DP release. Each of `frames` is one input round: its row blocks
    /// are quantized in order (block -> column -> row), shared in one frame
    /// and multiplied into the accumulator. The accumulator plus this
    /// release's `n(n+1)/2` noise draws per party is then summed to the
    /// receiver; the accumulator itself stays noise-free. A transport
    /// failure leaves the session empty (its mesh and party states died
    /// with the party threads): drop it.
    pub(crate) fn release(
        &mut self,
        cfg: &VflConfig,
        partition: &ColumnPartition,
        gamma: f64,
        mu: f64,
        frames: &[Vec<RowBlock>],
    ) -> Result<CovarianceOutput, TransportError> {
        let local_mu = mu / cfg.n_clients() as f64;
        let counts = partition.counts();
        // Each party thread takes its state out of its slot and returns it
        // with its output.
        let slots: Vec<Mutex<Option<PartyState<F>>>> = self
            .parties
            .drain(..)
            .map(|s| Mutex::new(Some(s)))
            .collect();
        let mesh = std::mem::take(&mut self.mesh);

        let engine = MpcEngine::new(cfg.mpc_config());
        let (run, mesh) = engine.try_run_on::<F, _, _>(mesh, |ctx| {
            let mut slot = slots[ctx.id].lock().expect("each slot has one user");
            let mut st = slot.take().expect("party state");
            let my_cols = partition.columns_of(ctx.id);
            for frame in frames {
                let rows: usize = frame.iter().map(|(_, rows)| rows.len()).sum();
                ctx.set_phase("quantize");
                let mut my_values: Vec<F> = Vec::with_capacity(my_cols.len() * rows);
                for (data, rows) in frame {
                    for &j in &my_cols {
                        for i in rows.clone() {
                            let q = stochastic_round(&mut st.qrng, gamma * data[(i, j)]);
                            my_values.push(F::from_i128(q as i128));
                        }
                    }
                }
                let expected: Vec<usize> = counts.iter().map(|&c| c * rows).collect();
                ctx.set_phase("input");
                let contributions = ctx.share_all_uneven(&my_values, &expected);
                drop(my_values);
                ctx.set_phase("compute");
                let mut rows_done = 0;
                for (_, rows) in frame {
                    let cols = column_shares(&contributions, partition, rows_done, rows.len());
                    add_gram(&mut st.acc, &cols);
                    rows_done += rows.len();
                }
            }
            (noisy_sum(ctx, &st.acc, &mut st.nrng, local_mu), st)
        })?;

        let (opened, parties): (Vec<_>, Vec<_>) = run.outputs.into_iter().unzip();
        (self.mesh, self.parties) = (mesh, parties);
        Ok(CovarianceOutput {
            c_hat: symmetric_from_upper(received(&opened), partition.n_cols()),
            stats: run.stats,
            trace: run.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqm_field::{M127, M61};

    fn small_data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.5, -0.2, 0.1, 0.3],
            vec![-0.4, 0.3, 0.2, -0.1],
            vec![0.1, 0.1, -0.5, 0.2],
            vec![0.6, 0.0, 0.3, 0.4],
            vec![-0.2, -0.3, 0.1, 0.1],
        ])
    }

    #[test]
    fn mpc_covariance_matches_truth_without_noise() {
        let data = small_data();
        let partition = ColumnPartition::even(4, 4);
        let gamma = 1024.0;
        let cfg = VflConfig::fast(4);
        let out = covariance_skellam(&data, &partition, gamma, 0.0, &cfg);
        let truth = data.gram();
        let scaled = out.c_hat.scaled(1.0 / (gamma * gamma));
        let err = scaled.sub(&truth).frobenius_norm();
        assert!(err < 0.02, "err {err}\n{scaled:?}\n{truth:?}");
        assert!(out.c_hat.is_symmetric(0.0));
    }

    #[test]
    fn plaintext_and_mpc_agree_statistically() {
        let data = small_data();
        let partition = ColumnPartition::even(4, 2);
        let gamma = 4096.0;
        let cfg = VflConfig::fast(2);
        let mpc = covariance_skellam(&data, &partition, gamma, 0.0, &cfg);
        let mut rng = StdRng::seed_from_u64(99);
        let plain = covariance_skellam_plaintext(&mut rng, &data, gamma, 0.0, 2);
        let diff = mpc
            .c_hat
            .scaled(1.0 / (gamma * gamma))
            .sub(&plain.scaled(1.0 / (gamma * gamma)))
            .frobenius_norm();
        assert!(diff < 0.02, "diff {diff}");
    }

    #[test]
    fn noise_perturbs_output() {
        let data = small_data();
        let partition = ColumnPartition::even(4, 4);
        let cfg = VflConfig::fast(4);
        let mu = 1e6;
        let out = covariance_skellam(&data, &partition, 64.0, mu, &cfg);
        let clean = covariance_skellam(&data, &partition, 64.0, 0.0, &cfg);
        let delta = out.c_hat.sub(&clean.c_hat).frobenius_norm();
        // Noise std per entry is sqrt(2 mu) ~ 1414; 10 entries upper.
        assert!(delta > 100.0, "delta {delta}");
        assert!(out.c_hat.is_symmetric(0.0));
    }

    #[test]
    fn rounds_independent_of_m() {
        let partition = ColumnPartition::even(3, 3);
        let cfg = VflConfig::fast(3);
        let d1 = Matrix::from_rows(&vec![vec![0.1, 0.2, 0.3]; 5]);
        let d2 = Matrix::from_rows(&vec![vec![0.1, 0.2, 0.3]; 50]);
        let r1 = covariance_skellam(&d1, &partition, 16.0, 1.0, &cfg);
        let r2 = covariance_skellam(&d2, &partition, 16.0, 1.0, &cfg);
        assert_eq!(r1.stats.total.rounds, r2.stats.total.rounds);
        assert_eq!(r1.stats.total.rounds, 2); // input, masked sum
    }

    #[test]
    fn dp_noise_phase_is_tracked() {
        let data = small_data();
        let partition = ColumnPartition::even(4, 4);
        let cfg = VflConfig::fast(4);
        let out = covariance_skellam(&data, &partition, 32.0, 10.0, &cfg);
        // Sampling the noise is local work: the phase is tracked but owns
        // no round and no traffic...
        assert_eq!(out.stats.phases["dp_noise"].rounds, 0);
        assert_eq!(out.stats.phases["dp_noise"].bytes, 0);
        // ...because the draws are never shared. Round 1 carries the 5
        // column shares on 12 links; round 2 the 10 masked sums from each of
        // the 3 non-receivers. 8 bytes per element.
        assert_eq!(out.stats.phases["input"].rounds, 1);
        assert_eq!(out.stats.phases["input"].bytes, 12 * 5 * 8);
        assert_eq!(out.stats.phases["open"].rounds, 1);
        assert_eq!(out.stats.phases["open"].bytes, 3 * 10 * 8);
    }

    #[test]
    fn large_gamma_dispatches_to_m127_and_stays_correct() {
        let data = small_data();
        let partition = ColumnPartition::even(4, 2);
        let cfg = VflConfig::fast(2);
        // gamma = 2^24 => per-entry ~ (2^24)^2 * m > 2^50; with the safety
        // margins this routes to M127.
        let gamma = (1u64 << 24) as f64;
        let out = covariance_skellam(&data, &partition, gamma, 0.0, &cfg);
        let scaled = out.c_hat.scaled(1.0 / (gamma * gamma));
        let err = scaled.sub(&data.gram()).frobenius_norm();
        assert!(err < 1e-4, "err {err}");
    }

    #[test]
    fn plaintext_noise_variance_matches_skellam() {
        let data = Matrix::zeros(1, 2);
        let mu = 500.0;
        let mut rng = StdRng::seed_from_u64(5);
        let mut vals = Vec::new();
        for _ in 0..2000 {
            let c = covariance_skellam_plaintext(&mut rng, &data, 16.0, mu, 4);
            vals.push(c[(0, 1)]);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!((var - 2.0 * mu).abs() / (2.0 * mu) < 0.15, "var {var}");
    }

    #[test]
    fn quantized_oracle_matches_mpc_bit_exactly() {
        let data = small_data();
        for (n_clients, seed, mu) in [(2usize, 7u64, 0.0), (3, 41, 25.0), (4, 1234, 400.0)] {
            let partition = ColumnPartition::even(4, n_clients);
            let gamma = 512.0;
            let cfg = VflConfig::fast(n_clients).with_seed(seed);
            let mpc = covariance_skellam(&data, &partition, gamma, mu, &cfg);
            let oracle = covariance_quantized_oracle(&data, &partition, gamma, mu, &cfg);
            assert_eq!(
                mpc.c_hat, oracle,
                "oracle diverged at P={n_clients} seed={seed} mu={mu}"
            );
        }
    }

    /// The scalar triangle loop `add_gram` replaced, kept verbatim as the
    /// reference the tiled kernel is compared against.
    fn add_gram_reference<F: PrimeField>(acc: &mut [F], cols: &[&[F]]) {
        let mut idx = 0;
        for (j, cj) in cols.iter().enumerate() {
            for ck in &cols[j..] {
                let mut s = F::ZERO;
                for (&xj, &xk) in cj.iter().zip(ck.iter()) {
                    s += xj * xk;
                }
                acc[idx] += s;
                idx += 1;
            }
        }
    }

    /// Tile widths 1..=4 plus every tail length, across empty, single-row,
    /// block-straddling and multi-block columns, on top of a non-zero
    /// accumulator (the streaming carry).
    fn check_add_gram_matches_reference<F: PrimeField>() {
        let mut rng = StdRng::seed_from_u64(0x6AA3);
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 20] {
            for m in [0usize, 1, 33, 100] {
                let data: Vec<Vec<F>> = (0..n)
                    .map(|_| (0..m).map(|_| F::random(&mut rng)).collect())
                    .collect();
                let cols: Vec<&[F]> = data.iter().map(Vec::as_slice).collect();
                let carry: Vec<F> = (0..n * (n + 1) / 2).map(|_| F::random(&mut rng)).collect();
                let (mut tiled, mut reference) = (carry.clone(), carry);
                add_gram(&mut tiled, &cols);
                add_gram_reference(&mut reference, &cols);
                assert_eq!(tiled, reference, "n={n} m={m}");
            }
        }
    }

    #[test]
    fn add_gram_matches_scalar_reference_m61() {
        check_add_gram_matches_reference::<M61>();
    }

    #[test]
    fn add_gram_matches_scalar_reference_m127() {
        check_add_gram_matches_reference::<M127>();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_gram_rejects_a_ragged_column() {
        let (long, short) = ([M61::ONE; 3], [M61::ONE; 2]);
        add_gram(&mut [M61::ZERO; 3], &[&long, &short]);
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn rejects_partition_mismatch() {
        let data = small_data();
        let partition = ColumnPartition::even(3, 3);
        covariance_skellam(&data, &partition, 16.0, 0.0, &VflConfig::fast(3));
    }
}

#[cfg(test)]
mod chunked_tests {
    use super::*;

    #[test]
    fn chunked_matches_unchunked_without_noise() {
        let data = Matrix::from_rows(&[
            vec![0.5, -0.2, 0.1],
            vec![-0.4, 0.3, 0.2],
            vec![0.1, 0.1, -0.5],
            vec![0.6, 0.0, 0.3],
            vec![-0.2, -0.3, 0.1],
            vec![0.3, 0.2, 0.2],
            vec![0.1, -0.1, 0.4],
        ]);
        let partition = ColumnPartition::even(3, 3);
        let gamma = 2048.0;
        let cfg = VflConfig::fast(3);
        let full = covariance_skellam(&data, &partition, gamma, 0.0, &cfg);
        let chunked = covariance_skellam_chunked(&data, &partition, gamma, 0.0, &cfg, 3);
        // Same quantization stream per client, same arithmetic: identical.
        assert_eq!(full.c_hat, chunked.c_hat);
    }

    #[test]
    fn chunked_round_count() {
        let data = Matrix::from_rows(&vec![vec![0.1, 0.2]; 10]);
        let partition = ColumnPartition::even(2, 2);
        let cfg = VflConfig::fast(2);
        let out = covariance_skellam_chunked(&data, &partition, 32.0, 1.0, &cfg, 4);
        // ceil(10/4) = 3 input rounds + open.
        assert_eq!(out.stats.total.rounds, 4);
        assert_eq!(out.stats.phases["input"].rounds, 3);
    }

    #[test]
    fn chunk_size_larger_than_m_equals_single_chunk() {
        let data = Matrix::from_rows(&vec![vec![0.3, -0.1]; 5]);
        let partition = ColumnPartition::even(2, 2);
        let cfg = VflConfig::fast(2);
        let a = covariance_skellam_chunked(&data, &partition, 64.0, 0.0, &cfg, 100);
        let b = covariance_skellam(&data, &partition, 64.0, 0.0, &cfg);
        assert_eq!(a.c_hat, b.c_hat);
        assert_eq!(a.stats.total.rounds, b.stats.total.rounds);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn rejects_zero_chunk() {
        let data = Matrix::zeros(2, 2);
        let partition = ColumnPartition::even(2, 2);
        covariance_skellam_chunked(&data, &partition, 16.0, 0.0, &VflConfig::fast(2), 0);
    }
}

//! Secure noisy covariance: the PCA workload (Section V-A).
//!
//! The clients compute `hatC = hatX^T hatX + sum_p N_p` where `hatX` is the
//! gamma-quantized data and each `N_p` is a symmetric matrix of client-local
//! `Sk(mu/P)` noise. Only `hatC` is opened; the server divides by `gamma^2`
//! and eigendecomposes.
//!
//! The covariance is a [`ReleasePlan`] of unit forms: triangle row `j` is
//! `e_j` paired with the columns `j..n`. Communication structure (two
//! rounds): every client shares its quantized columns at degree `t`, and
//! round 2 is a secure aggregation: each client sends party 0 one
//! `n(n+1)/2` vector — its part of the Gram plus its own noise draws — under
//! pairwise masks that cancel in the sum (`PartyCtx::sum_to_receiver`); a
//! degree reduction would buy nothing for a value that is summed and
//! released next. Non-input communication is `O(n^2 P)` independent of `m`,
//! matching Table I.
//!
//! Each client multiplies only what that sum needs
//! ([`ReleasePlan::party_release`]): an entry between two of its own
//! columns in the clear, the cross-owner entries of the triangle rows it
//! keeps as local share products (at even `P` party `j mod P` sits out row
//! `j`). Every client still receives every column's shares and sends one
//! full-length vector: rounds, messages, bytes and released integers are
//! those of the whole triangle, while at `P = 4` the multiply-accumulates
//! per release fall from `4 n(n+1)/2 m` to about 62 % of that (312.75 M
//! against 501 M at `m = 1000`, `n = 500`). Each entry then costs one
//! multiply per two records: the Gram kernel `plan::add_gram` takes
//! Winograd's pair products ([`sqm_field::PrimeField::winograd4`]).
//!
//! The three entry points run that one per-party program on a list of
//! *frames* (one input round each), each a list of row blocks. One-shot is
//! one frame of one block on fresh party states, chunked is one frame per
//! chunk, and [`crate::stream::StreamCov`] passes one frame of all pending
//! batches to the resident party workers of a `CovSession` it keeps.
//! [`covariance_quantized_oracle`] replays its streams
//! ([`ReleasePlan::exact`]) and predicts it exactly.

use std::sync::Arc;

use sqm_core::sensitivity::pca_sensitivity;
use sqm_field::PrimeField;
use sqm_linalg::Matrix;
use sqm_mpc::net::transport::build_mesh;
use sqm_mpc::{MpcEngine, MpcRun, PartyPool, RunStats, TransportError};

use crate::partition::ColumnPartition;
use crate::plan::{Form, PartyState, ReleasePlan, RowBlock};
use crate::stream::covariance_streaming_oracle;
use crate::{or_panic, received, validate, validate_gamma, VflConfig};

/// The opened, still-amplified covariance and the run statistics.
#[derive(Debug)]
pub struct CovarianceOutput {
    /// `hatX^T hatX + Sk(mu)` as an `n x n` symmetric matrix (integer
    /// values stored in `f64`; the server divides by `gamma^2`).
    pub c_hat: Matrix,
    /// MPC accounting.
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
    let plan = data_plan(data, partition, gamma, mu, cfg);
    release(&plan, data, cfg, data.rows().max(1))
}

/// Bit-exact plaintext replay of [`covariance_skellam`] on any backend (the
/// one-batch case of [`crate::stream::covariance_streaming_oracle`]): the
/// plaintext path of every covariance experiment and the fuzzing oracle.
pub fn covariance_quantized_oracle(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> Matrix {
    validate(data, partition, cfg);
    covariance_streaming_oracle(std::slice::from_ref(data), partition, gamma, mu, cfg, 0)
}

/// This release's quantization and noise salts (see [`crate::party_streams`]).
const STREAMS: [u64; 2] = [0xA11C_E000, 0x5E11_A000];

/// Largest magnitude an opened entry can reach over `rows` records of l2
/// norm at most `max_row_norm` (with a 12-sigma noise allowance).
pub(crate) fn magnitude_bound(rows: usize, max_row_norm: f64, gamma: f64, mu: f64) -> f64 {
    let c = max_row_norm.max(1e-9);
    let per_entry = gamma * c + 1.0;
    rows as f64 * per_entry * per_entry + 12.0 * (2.0 * mu).sqrt() + 1.0
}

/// The covariance of up to `rows` records of l2 norm at most
/// `max_row_norm`: triangle row `j` is `e_j` paired with `j..n`, charged
/// Lemma 5's sensitivity.
pub(crate) fn plan(
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    rows: usize,
    max_row_norm: f64,
) -> ReleasePlan {
    validate_gamma(gamma);
    let n = partition.n_cols();
    let unit = |j| Form {
        constant: 0,
        terms: vec![(j, 1)],
    };
    let triangle = (0..n).map(|j| (unit(j), j..n)).collect();
    let bound = magnitude_bound(rows, max_row_norm, gamma, mu);
    let sensitivity = pca_sensitivity(gamma, max_row_norm.max(1e-9), n);
    ReleasePlan::new(partition, STREAMS, gamma, mu, triangle, bound, sensitivity)
}

/// The covariance plan of `data`, checked against `partition` and `cfg`.
pub(crate) fn data_plan(
    data: &Matrix,
    partition: &ColumnPartition,
    gamma: f64,
    mu: f64,
    cfg: &VflConfig,
) -> ReleasePlan {
    validate(data, partition, cfg);
    plan(partition, gamma, mu, data.rows(), data.max_row_norm())
}

/// The release of `plan` over `data` in frames of `chunk` records each (an
/// empty matrix still has its one, empty, input round).
pub(crate) fn release(
    plan: &ReleasePlan,
    data: &Matrix,
    cfg: &VflConfig,
    chunk: usize,
) -> Result<CovarianceOutput, TransportError> {
    let (m, rows) = (data.rows(), (0..data.rows()).collect::<Vec<_>>());
    let frames: Vec<Vec<RowBlock>> = (0..m.max(1))
        .step_by(chunk)
        .map(|start| vec![(data, &rows[start..(start + chunk).min(m)])])
        .collect();
    Ok(output(plan.run(cfg, &frames)?, data.cols()))
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

/// The released covariance: the receiver's sum as a symmetric matrix.
fn output(run: MpcRun<Option<Vec<i128>>>, n: usize) -> CovarianceOutput {
    CovarianceOutput {
        c_hat: symmetric_from_upper(received(&run.outputs), n),
        stats: run.stats,
        trace: run.trace,
    }
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
    let plan = data_plan(data, partition, gamma, mu, cfg);
    or_panic(release(&plan, data, cfg, chunk_records))
}

/// Everything a covariance computation keeps between releases: one
/// resident worker per party, holding the party's mesh endpoint and its
/// [`PartyState`]. [`crate::stream::StreamCov`] keeps one for its life.
pub(crate) struct CovSession<F: PrimeField> {
    engine: MpcEngine,
    plan: Arc<ReleasePlan>,
    pool: PartyPool<F, PartyState<F>, Option<Vec<i128>>>,
}

impl<F: PrimeField> CovSession<F> {
    /// Mesh the parties, start their streams and accumulators afresh, and
    /// start one worker per party to hold them.
    pub(crate) fn open(cfg: &VflConfig, plan: ReleasePlan) -> Result<Self, TransportError> {
        let mpc = cfg.mpc_config();
        let mesh = build_mesh::<F>(mpc.n_parties, &mpc.backend, mpc.faults.as_ref())?;
        let parties = (0..mpc.n_parties)
            .map(|p| plan.fresh_party(cfg.seed(), p))
            .collect();
        Ok(CovSession {
            engine: MpcEngine::new(mpc),
            plan: Arc::new(plan),
            pool: PartyPool::new(mesh, parties),
        })
    }

    /// One DP release of `batches`, the records that arrived since the last
    /// one, as one input frame in arrival order
    /// ([`ReleasePlan::party_release`] at every party's worker). A transport
    /// failure shut the workers down and their endpoints and party states
    /// with them: drop the session.
    pub(crate) fn release(
        &mut self,
        batches: Vec<Matrix>,
        n: usize,
    ) -> Result<CovarianceOutput, TransportError> {
        let plan = Arc::clone(&self.plan);
        let run = self.engine.try_run_pool(&mut self.pool, move |ctx, st| {
            let rows: Vec<Vec<usize>> = batches.iter().map(|b| (0..b.rows()).collect()).collect();
            let frame: Vec<RowBlock> = batches
                .iter()
                .zip(&rows)
                .map(|(b, r)| (b, &r[..]))
                .collect();
            plan.party_release(ctx, st, &[frame])
        })?;
        Ok(output(run, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{add_gram, GramCols};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
        // The oracle at another seed: only the rounding draws differ.
        let mut rng = StdRng::seed_from_u64(99);
        let other = cfg.clone().with_seed(rng.gen());
        let plain = covariance_quantized_oracle(&data, &partition, gamma, 0.0, &other);
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
        // Two columns over four clients: two of them own none and still
        // add their noise.
        let data = Matrix::zeros(1, 2);
        let partition = ColumnPartition::even_or_sparse(2, 4);
        let mu = 500.0;
        let mut rng = StdRng::seed_from_u64(5);
        let mut vals = Vec::new();
        for _ in 0..2000 {
            let cfg = VflConfig::fast(4).with_seed(rng.gen());
            let c = covariance_quantized_oracle(&data, &partition, 16.0, mu, &cfg);
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

    /// Where entry `(j, k)`, `j <= k`, of an `n`-column upper triangle sits
    /// in opened order.
    fn upper_index(n: usize, j: usize, k: usize) -> usize {
        j * (2 * n + 1 - j) / 2 + (k - j)
    }

    /// `acc += ` the upper triangle of the Gram of `g`'s `n` columns, row by
    /// row, as the covariance plan's unit rows fill it.
    fn add_triangle<F: PrimeField>(acc: &mut [F], g: &GramCols<F>, n: usize) {
        for j in 0..n {
            let at = upper_index(n, j, j);
            add_gram(&mut acc[at..at + n - j], g, j, j..n);
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
    /// odd and even, block-straddling (`M61` folds every 15 pairs) and
    /// multi-block columns, on top of a non-zero accumulator (the streaming
    /// carry): the whole triangle, and runs of single rows — whole, a tail,
    /// a middle run, empty — against the reference's entries at the same
    /// places.
    fn check_add_gram_matches_reference<F: PrimeField>() {
        let mut rng = StdRng::seed_from_u64(0x6AA3);
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 20] {
            for m in [0usize, 1, 2, 3, 29, 30, 31, 33, 100, 101] {
                let data: Vec<Vec<F>> = (0..n)
                    .map(|_| (0..m).map(|_| F::random(&mut rng)).collect())
                    .collect();
                let cols: Vec<&[F]> = data.iter().map(Vec::as_slice).collect();
                let g = GramCols::new(cols.clone(), true);
                let carry: Vec<F> = (0..n * (n + 1) / 2).map(|_| F::random(&mut rng)).collect();
                let (mut tiled, mut reference) = (carry.clone(), carry.clone());
                add_triangle(&mut tiled, &g, n);
                add_gram_reference(&mut reference, &cols);
                assert_eq!(tiled, reference, "n={n} m={m}");

                let mut gram = vec![F::ZERO; carry.len()];
                add_gram_reference(&mut gram, &cols);
                for j in 0..n {
                    let (len, third) = (n - j, (n - j) / 3);
                    for run in [j..n, j + 1..n, j + third..n - third / 2, n..n] {
                        let at = upper_index(n, j, j) + (run.start - j);
                        let span = at..at + run.len();
                        let mut ranged = carry.clone();
                        add_gram(&mut ranged[span.clone()], &g, j, run.clone());
                        let mut want = carry.clone();
                        for idx in span {
                            want[idx] += gram[idx];
                        }
                        assert_eq!(ranged, want, "n={n} m={m} row {j} run {run:?} of {len}");
                    }
                }
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
        let g = GramCols::new(vec![&long[..], &long, &short], true);
        add_gram(&mut [M61::ZERO; 2], &g, 0, 1..3);
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

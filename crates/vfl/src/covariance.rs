//! Secure noisy covariance: the PCA workload (Section V-A).
//!
//! The clients compute `hatC = hatX^T hatX + sum_p N_p` where `hatX` is the
//! gamma-quantized data and each `N_p` is a symmetric matrix of client-local
//! `Sk(mu/P)` noise. Only `hatC` is opened; the server divides by `gamma^2`
//! and eigendecomposes.
//!
//! Communication structure (two rounds): every client shares its quantized
//! columns at degree `t`, and round 2 is a secure aggregation: each client
//! sends party 0 one `n(n+1)/2` vector — its part of the Gram plus its own
//! noise draws — under pairwise masks that cancel in the sum
//! (`PartyCtx::sum_to_receiver`); a degree reduction would buy nothing for a
//! value that is summed and released next. Non-input communication is
//! `O(n^2 P)` independent of `m`, matching Table I.
//!
//! Each client multiplies only what that sum needs. An entry between two of
//! its own columns it computes in the clear from its quantized values and
//! adds as it is; no other party touches it. For a cross-owner entry the
//! local products `hat x_ij * hat x_ik` of degree-`t` shares are summed over
//! records at degree `2t` (addition is free at any degree). Such a product
//! is fixed by any `2t + 1` of its `P` evaluations, so when `P > 2t + 1`
//! (every even `P`) party `j mod P` sits out triangle row `j` and the
//! others weight the row by their Lagrange weight over the points left
//! (`PartyCtx::lagrange_weight`). Every client still receives every
//! column's shares and sends one full-length vector: rounds, messages,
//! bytes and released integers are those of the whole triangle, while at
//! `P = 4` the multiply-accumulates per release fall from `4 n(n+1)/2 m` to
//! about 62 % of that (312.75 M against 501 M at `m = 1000`, `n = 500`).
//!
//! Each of those entries then costs one multiply per two records:
//! `add_gram` takes Winograd's pair products
//! ([`PrimeField::winograd4`]) and subtracts the two columns' corrections
//! `ξ(c) = sum_i c[2i] * c[2i+1]`, which `GramCols` computes once per
//! column per row block. Field arithmetic is exact, so each entry is the
//! inner product itself.
//!
//! One per-party program, `CovPlan::party_release`, is the whole
//! protocol. Its input is a list of *frames* (one input round each), each a
//! list of row blocks. One-shot is one frame of one block on fresh party
//! states, chunked is one frame per chunk, and
//! [`crate::stream::StreamCov`] passes one frame of all pending batches to
//! the resident party workers of a `CovSession` it keeps.
//! [`covariance_quantized_oracle`] replays its streams and predicts it
//! exactly.

use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use sqm_field::PrimeField;
use sqm_linalg::Matrix;
use sqm_mpc::net::transport::build_mesh;
use sqm_mpc::{MpcEngine, MpcRun, PartyCtx, PartyPool, RunStats, TransportError};

use crate::partition::ColumnPartition;
use crate::stream::covariance_streaming_oracle;
use crate::{
    noisy_sum, or_panic, party_streams, quantize_columns, received, validate_gamma, VflConfig,
};

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
    let frames = [vec![(data, 0..data.rows())]];
    release_once(data, partition, gamma, mu, cfg, &frames)
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

/// This release's quantization and noise salts (see [`party_streams`]).
pub(crate) const STREAMS: [u64; 2] = [0xA11C_E000, 0x5E11_A000];

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

/// The `width` columns of one row block out of a column-major vector of
/// them: `skip_rows` rows per column precede the `rows` wanted ones
/// (earlier batches coalesced into the same frame).
fn block_columns<F: PrimeField>(
    values: &[F],
    width: usize,
    skip_rows: usize,
    rows: usize,
) -> impl Iterator<Item = &[F]> {
    let batch = &values[width * skip_rows..][..width * rows];
    (0..width).map(move |slot| &batch[slot * rows..(slot + 1) * rows])
}

/// Borrow my share-vector of every global column out of the per-client
/// contributions of one input round. Each client's contribution is
/// column-major over its own columns (see [`block_columns`]).
pub(crate) fn column_shares<'a, F: PrimeField>(
    contributions: &'a [Vec<F>],
    partition: &ColumnPartition,
    skip_rows: usize,
    rows: usize,
) -> Vec<&'a [F]> {
    let mut cols: Vec<&[F]> = vec![&[]; partition.n_cols()];
    for (client, contrib) in contributions.iter().enumerate() {
        let owned = partition.columns_of(client);
        let block = block_columns(contrib, owned.len(), skip_rows, rows);
        for (&j, col) in owned.iter().zip(block) {
            cols[j] = col;
        }
    }
    cols
}

/// The columns of one row block with their Winograd corrections
/// `ξ(c) = sum_i c[2i] * c[2i+1]` ([`PrimeField::pair_sum`]), computed once
/// per column per block: each Gram entry between two of them then costs one
/// multiply per two records ([`add_gram`]).
struct GramCols<'a, F> {
    cols: Vec<&'a [F]>,
    xi: Vec<F>,
}

impl<'a, F: PrimeField> GramCols<'a, F> {
    fn new(cols: Vec<&'a [F]>) -> Self {
        let xi = cols.iter().map(|c| F::pair_sum(c)).collect();
        GramCols { cols, xi }
    }
}

/// `acc[i] += <cols[j], cols[run.start + i]>`: a run of Gram row `j` —
/// local products of degree-`t` shares summed at degree `2t`, or an owner's
/// plaintext values.
///
/// Winograd's identity: four columns per pass over the records take
/// [`PrimeField::winograd4`], one multiply per two records, and each entry
/// subtracts `ξ(row) + ξ(col)` once. The at most three columns left at the
/// end of the run take the direct [`PrimeField::dot`]. Field arithmetic is
/// exact, so every entry is the inner product bit for bit.
fn add_gram<F: PrimeField>(acc: &mut [F], g: &GramCols<F>, j: usize, run: Range<usize>) {
    assert_eq!(acc.len(), run.len(), "one accumulator per column");
    let (row, xi_row) = (g.cols[j], g.xi[j]);
    let mut tiles = g.cols[run.clone()].chunks_exact(4);
    let mut outs = acc.chunks_exact_mut(4);
    for ((tile, out), xi) in (&mut tiles).zip(&mut outs).zip(g.xi[run].chunks_exact(4)) {
        let sums = F::winograd4(row, [tile[0], tile[1], tile[2], tile[3]]);
        for ((a, s), &xi_col) in out.iter_mut().zip(sums).zip(xi) {
            *a += s - xi_row - xi_col;
        }
    }
    for (a, col) in outs.into_remainder().iter_mut().zip(tiles.remainder()) {
        *a += F::dot(row, col);
    }
}

/// `acc += ` the upper triangle of the Gram of `g`'s columns, row by row
/// (the opened order when they are all the columns).
fn add_triangle<F: PrimeField>(acc: &mut [F], g: &GramCols<F>) {
    let (n, mut at) = (g.cols.len(), 0);
    for j in 0..n {
        add_gram(&mut acc[at..at + n - j], g, j, j..n);
        at += n - j;
    }
}

/// Where entry `(j, k)`, `j <= k`, of an `n`-column upper triangle sits in
/// opened order.
fn upper_index(n: usize, j: usize, k: usize) -> usize {
    j * (2 * n + 1 - j) / 2 + (k - j)
}

/// The runs of columns `k > j` that a client other than column `j`'s owner
/// holds: the entries of triangle row `j` only a secure product can fill.
fn cross_runs(partition: &ColumnPartition, j: usize) -> Vec<Range<usize>> {
    let owner = partition.owner_of(j);
    let mut runs: Vec<Range<usize>> = Vec::new();
    for k in (j + 1..partition.n_cols()).filter(|&k| partition.owner_of(k) != owner) {
        match runs.last_mut() {
            Some(run) if run.end == k => run.end += 1,
            _ => runs.push(k..k + 1),
        }
    }
    runs
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

/// One release over a fresh mesh and fresh party states, both dropped
/// after: the per-party program on the engine's one-shot run.
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
    let plan = CovPlan::new(partition, gamma, mu, cfg.n_clients());
    with_field!(bound, F => {
        let engine = MpcEngine::new(cfg.mpc_config());
        let run = engine.try_run::<F, _, _>(|ctx| {
            let mut st = plan.fresh_party(cfg.seed(), ctx.id);
            plan.party_release(ctx, &mut st, frames)
        })?;
        Ok(plan.output(run))
    })
}

/// A run of consecutive rows of one matrix: what a party quantizes, shares
/// and multiplies as a unit.
pub(crate) type RowBlock<'a> = (&'a Matrix, Range<usize>);

/// One party's part of a covariance computation: its private quantization
/// and noise streams and its two noise-free Gram accumulators.
struct PartyState<F: PrimeField> {
    qrng: StdRng,
    nrng: StdRng,
    /// Degree-`2t` shares of the cross-owner entries this party evaluates,
    /// unweighted, in opened order (`n(n+1)/2` slots; the rest stay zero).
    acc: Vec<F>,
    /// The upper triangle of its own `b` columns' Gram, in the clear from its
    /// quantized values (`b(b+1)/2` entries, row by row).
    own: Vec<F>,
}

/// What every party of a covariance computation knows in public: the
/// partition, the cross-owner runs of each triangle row, `gamma` and each
/// party's share `mu / P` of the noise.
struct CovPlan {
    partition: ColumnPartition,
    counts: Vec<usize>,
    cross: Vec<Vec<Range<usize>>>,
    gamma: f64,
    local_mu: f64,
}

impl CovPlan {
    fn new(partition: &ColumnPartition, gamma: f64, mu: f64, n_clients: usize) -> CovPlan {
        let n = partition.n_cols();
        CovPlan {
            partition: partition.clone(),
            counts: partition.counts(),
            cross: (0..n).map(|j| cross_runs(partition, j)).collect(),
            gamma,
            local_mu: mu / n_clients as f64,
        }
    }

    /// Party `p`'s state before its first release: its streams derived from
    /// `seed`, its accumulators zero.
    fn fresh_party<F: PrimeField>(&self, seed: u64, p: usize) -> PartyState<F> {
        let (n, b) = (self.partition.n_cols(), self.counts[p]);
        let (qrng, nrng) = party_streams(seed, STREAMS, p);
        PartyState {
            qrng,
            nrng,
            acc: vec![F::ZERO; n * (n + 1) / 2],
            own: vec![F::ZERO; b * (b + 1) / 2],
        }
    }

    /// One party's DP release: the whole protocol. Each of `frames` is one
    /// input round: its row blocks are quantized in order (block -> column
    /// -> row) and shared in one frame. Each party then multiplies only
    /// what the masked sum needs: its own columns' block in the clear, and
    /// the cross-owner entries of every triangle row but those it sits out
    /// — when `P > 2t + 1`, party `j mod P` sits out row `j`, since the
    /// other `P - 1 >= 2t + 1` points fix the degree-`2t` product. Round
    /// 2's vector is each row weighted for the parties that evaluate it
    /// ([`PartyCtx::lagrange_weight`]), plus the own block, plus this
    /// release's `n(n+1)/2` noise draws; the accumulators themselves stay
    /// noise-free.
    fn party_release<F: PrimeField>(
        &self,
        ctx: &mut PartyCtx<F>,
        st: &mut PartyState<F>,
        frames: &[Vec<RowBlock>],
    ) -> Option<Vec<i128>> {
        let (partition, n) = (&self.partition, self.partition.n_cols());
        let my_cols = partition.columns_of(ctx.id);
        let (me, parties, spare) = (ctx.id, ctx.n, ctx.n > 2 * ctx.t + 1);
        let sitter = |j: usize| spare.then_some(j % parties);
        // The cross-owner runs I multiply: those of every row I keep.
        let my_runs: Vec<(usize, &Range<usize>)> = (0..n)
            .filter(|&j| sitter(j) != Some(me))
            .flat_map(|j| self.cross[j].iter().map(move |run| (j, run)))
            .collect();
        let entries = st.own.len() + my_runs.iter().map(|(_, run)| run.len()).sum::<usize>();
        for frame in frames {
            let rows: usize = frame.iter().map(|(_, rows)| rows.len()).sum();
            ctx.set_phase("quantize");
            let mut my_values: Vec<F> = Vec::with_capacity(my_cols.len() * rows);
            for (data, rows) in frame {
                quantize_columns(
                    &mut st.qrng,
                    self.gamma,
                    data,
                    &my_cols,
                    rows.clone(),
                    &mut my_values,
                );
            }
            let expected: Vec<usize> = self.counts.iter().map(|&c| c * rows).collect();
            ctx.set_phase("input");
            let contributions = ctx.share_all_uneven(&my_values, &expected);
            ctx.set_phase("compute");
            let mut rows_done = 0;
            for (_, rows) in frame {
                let rows = rows.len();
                let own = block_columns(&my_values, my_cols.len(), rows_done, rows);
                add_triangle(&mut st.own, &GramCols::new(own.collect()));
                let cols = GramCols::new(column_shares(&contributions, partition, rows_done, rows));
                for &(j, run) in &my_runs {
                    let at = upper_index(n, j, run.start);
                    add_gram(&mut st.acc[at..at + run.len()], &cols, j, run.clone());
                }
                rows_done += rows;
            }
            if let Some(prof) = ctx.profiler() {
                prof.record("vfl;compute;gram", 1, (entries * rows) as u64);
            }
        }
        // Round 2's vector: every row under its weight, my block as is.
        let mut local = Vec::with_capacity(st.acc.len());
        for j in 0..n {
            let weight = ctx.lagrange_weight(sitter(j));
            let start = upper_index(n, j, j);
            let row = &st.acc[start..start + n - j];
            local.extend(row.iter().map(|&share| weight * share));
        }
        let own_entries = my_cols
            .iter()
            .enumerate()
            .flat_map(|(s, &j)| my_cols[s..].iter().map(move |&k| (j, k)));
        for ((j, k), &value) in own_entries.zip(&st.own) {
            local[upper_index(n, j, k)] += value;
        }
        noisy_sum(ctx, local, &mut st.nrng, self.local_mu)
    }

    /// The released covariance: the receiver's sum as a symmetric matrix.
    fn output(&self, run: MpcRun<Option<Vec<i128>>>) -> CovarianceOutput {
        CovarianceOutput {
            c_hat: symmetric_from_upper(received(&run.outputs), self.partition.n_cols()),
            stats: run.stats,
            trace: run.trace,
        }
    }
}

/// Everything a covariance computation keeps between releases: one
/// resident worker per party, holding the party's mesh endpoint and its
/// [`PartyState`]. [`crate::stream::StreamCov`] keeps one for its life.
pub(crate) struct CovSession<F: PrimeField> {
    engine: MpcEngine,
    plan: Arc<CovPlan>,
    pool: PartyPool<F, PartyState<F>, Option<Vec<i128>>>,
}

impl<F: PrimeField> CovSession<F> {
    /// Mesh the parties, start their streams and accumulators afresh, and
    /// start one worker per party to hold them.
    pub(crate) fn open(
        cfg: &VflConfig,
        partition: &ColumnPartition,
        gamma: f64,
        mu: f64,
    ) -> Result<Self, TransportError> {
        let mpc = cfg.mpc_config();
        let mesh = build_mesh::<F>(mpc.n_parties, &mpc.backend, mpc.faults.as_ref())?;
        let plan = CovPlan::new(partition, gamma, mu, cfg.n_clients());
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
    /// one, as one input frame in arrival order ([`CovPlan::party_release`]
    /// at every party's worker). A transport failure shut the workers down
    /// and their endpoints and party states with them: drop the session.
    pub(crate) fn release(
        &mut self,
        batches: Vec<Matrix>,
    ) -> Result<CovarianceOutput, TransportError> {
        let plan = Arc::clone(&self.plan);
        let run = self.engine.try_run_pool(&mut self.pool, move |ctx, st| {
            let frame: Vec<RowBlock> = batches.iter().map(|b| (b, 0..b.rows())).collect();
            plan.party_release(ctx, st, &[frame])
        })?;
        Ok(self.plan.output(run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let g = GramCols::new(cols.clone());
                let carry: Vec<F> = (0..n * (n + 1) / 2).map(|_| F::random(&mut rng)).collect();
                let (mut tiled, mut reference) = (carry.clone(), carry.clone());
                add_triangle(&mut tiled, &g);
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
        let g = GramCols::new(vec![&long[..], &long, &short]);
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

//! One release plan: Algorithm 3's degree-≤ 2 releases as one per-party
//! program and one exact replay.
//!
//! A [`ReleasePlan`] releases `sum_i f(hat x_i) * hat x_ik + Sk(mu)` for
//! each of its rows, a public integer linear form `f` of the quantized
//! record ([`Form`]) paired with a run of columns `k`, in opened order. The
//! covariance's rows are the unit forms `e_j`, paired with `j..n`; the
//! gradient's one row is `v = half + <hat w, hat x> - label * hat y`, paired
//! with the `d` features; column sums pair the constant form `1` with every
//! column. The plan carries the release's streams, field bound and charged
//! sensitivity, so the protocol, the budget gate and the oracle read them
//! from one place.
//!
//! [`ReleasePlan::party_release`] is the protocol at one party. A pair
//! whose form and column read only one party's columns is that party's,
//! computed in the clear; any other is a local product of degree-`t`
//! shares summed at degree `2t`, which any `2t + 1` of its `P` evaluations
//! fix, so when `P > 2t + 1` (every even `P`) party `r mod P` sits out row
//! `r` and the others weight it by their Lagrange weight over the points
//! left (`PartyCtx::lagrange_weight`). Unit rows run the Gram kernel
//! [`add_gram`]; another form is one local linear combination of columns,
//! then one dot per column. [`ReleasePlan::exact`] predicts the release bit
//! for bit.

use std::ops::Range;

use rand::rngs::StdRng;
use sqm_accounting::skellam::Sensitivity;
use sqm_field::PrimeField;
use sqm_linalg::Matrix;
use sqm_mpc::{MpcEngine, MpcRun, PartyCtx, TransportError};
use sqm_sampling::rounding::stochastic_round;
use sqm_sampling::skellam::Skellam;

use crate::partition::ColumnPartition;
use crate::{noisy_sum, party_streams, quantize_columns, VflConfig};

/// Some rows of one matrix: what a party quantizes, shares and multiplies
/// as a unit.
pub(crate) type RowBlock<'a> = (&'a Matrix, &'a [usize]);

/// A public integer linear form of the quantized record:
/// `constant + sum of c * hat x_j over (j, c) in terms`.
pub(crate) struct Form {
    pub(crate) constant: i64,
    pub(crate) terms: Vec<(usize, i64)>,
}

impl Form {
    /// `Some(j)` for the unit form `e_j`.
    fn unit(&self) -> Option<usize> {
        match self.terms[..] {
            [(j, 1)] if self.constant == 0 => Some(j),
            _ => None,
        }
    }

    /// The form over one block's `len` rows of `cols`, by global column
    /// (shares, or an owner's values): linear, so local.
    fn column<F: PrimeField>(&self, cols: &[&[F]], len: usize) -> Vec<F> {
        let weights: Vec<F> = self.terms.iter().map(|&(_, c)| F::from_i64(c)).collect();
        let rows: Vec<&[F]> = self.terms.iter().map(|&(j, _)| cols[j]).collect();
        let mut v = vec![F::ZERO; len];
        F::combine(&weights, &rows, &mut v);
        let constant = F::from_i64(self.constant);
        v.iter_mut().for_each(|x| *x += constant);
        v
    }

    /// The form over the `m` records of the quantized columns `q`.
    fn integers(&self, q: &[Vec<i64>], m: usize) -> Vec<i128> {
        let mut v = vec![i128::from(self.constant); m];
        for &(j, c) in &self.terms {
            for (x, &qj) in v.iter_mut().zip(&q[j]) {
                *x += i128::from(c) * i128::from(qj);
            }
        }
        v
    }
}

/// `acc[i] += <form(cols), cols[run.start + i]>` over one block of `len`
/// rows.
fn add_pairs<F: PrimeField>(
    acc: &mut [F],
    form: &Form,
    g: &GramCols<F>,
    run: Range<usize>,
    len: usize,
) {
    match form.unit() {
        Some(j) => add_gram(acc, g, j, run),
        None => {
            let v = form.column(&g.cols, len);
            for (a, k) in acc.iter_mut().zip(run) {
                *a += F::dot(&v, g.cols[k]);
            }
        }
    }
}

/// `run` cut into its maximal runs of one `key`.
fn runs<K: PartialEq>(run: Range<usize>, key: impl Fn(usize) -> K) -> Vec<(K, Range<usize>)> {
    let mut runs: Vec<(K, Range<usize>)> = Vec::new();
    for k in run {
        let key = key(k);
        match runs.last_mut() {
            Some((last, run)) if *last == key => run.end += 1,
            _ => runs.push((key, k..k + 1)),
        }
    }
    runs
}

/// What every party of one release knows in public.
pub(crate) struct ReleasePlan {
    pub(crate) partition: ColumnPartition,
    streams: [u64; 2],
    pub(crate) gamma: f64,
    /// Each party's share `mu / P` of the noise.
    pub(crate) local_mu: f64,
    /// Each form with the columns it pairs with, in opened order.
    rows: Vec<(Form, Range<usize>)>,
    /// The largest magnitude an opened integer can reach: picks the field.
    pub(crate) bound: f64,
    /// What one release charges the privacy book.
    pub(crate) sensitivity: Sensitivity,
}

/// A run of pairs one party fills: row, form, columns, where they start in
/// opened order, and whether in the clear (else on shares).
type Work<'a> = (usize, &'a Form, Range<usize>, usize, bool);

impl ReleasePlan {
    pub(crate) fn new(
        partition: &ColumnPartition,
        streams: [u64; 2],
        gamma: f64,
        mu: f64,
        rows: Vec<(Form, Range<usize>)>,
        bound: f64,
        sensitivity: Sensitivity,
    ) -> ReleasePlan {
        let (partition, local_mu) = (partition.clone(), mu / partition.n_clients() as f64);
        ReleasePlan {
            partition,
            streams,
            gamma,
            local_mu,
            rows,
            bound,
            sensitivity,
        }
    }

    /// The number of released entries.
    fn len(&self) -> usize {
        self.rows.iter().map(|(_, run)| run.len()).sum()
    }

    /// Party `p`'s quantization and noise streams.
    pub(crate) fn streams(&self, seed: u64, p: usize) -> (StdRng, StdRng) {
        party_streams(seed, self.streams, p)
    }

    /// Party `p`'s state before its first release: its streams derived from
    /// `seed`, its accumulator zero.
    pub(crate) fn fresh_party<F: PrimeField>(&self, seed: u64, p: usize) -> PartyState<F> {
        let (qrng, nrng) = self.streams(seed, p);
        let acc = vec![F::ZERO; self.len()];
        PartyState { qrng, nrng, acc }
    }

    /// One release over a fresh mesh and fresh party states, both dropped
    /// after: the per-party program on the engine's one-shot run.
    pub(crate) fn run(
        &self,
        cfg: &VflConfig,
        frames: &[Vec<RowBlock>],
    ) -> Result<MpcRun<Option<Vec<i128>>>, TransportError> {
        with_field!(self.bound, F => {
            MpcEngine::new(cfg.mpc_config()).try_run::<F, _, _>(|ctx| {
                let mut st = self.fresh_party(cfg.seed(), ctx.id);
                self.party_release(ctx, &mut st, frames)
            })
        })
    }

    /// The runs of pairs party `me` fills: a run of one party's pairs is
    /// that party's, a run of pairs spanning two parties everyone's but the
    /// row's sitter.
    fn work(&self, me: usize, sitter: impl Fn(usize) -> Option<usize>) -> Vec<Work<'_>> {
        let (partition, mut work, mut at) = (&self.partition, Vec::new(), 0);
        for (r, (form, run)) in self.rows.iter().enumerate() {
            let mut owners = form.terms.iter().map(|&(j, _)| partition.owner_of(j));
            let owner = owners.next().filter(|&o| owners.all(|q| q == o));
            let key = |k: usize| Some(partition.owner_of(k)).filter(|&o| owner == Some(o));
            for (key, cols) in runs(run.clone(), key) {
                if key.map_or(sitter(r) != Some(me), |o| o == me) {
                    let start = at + cols.start - run.start;
                    work.push((r, form, cols, start, key.is_some()));
                }
            }
            at += run.len();
        }
        work
    }

    /// One party's DP release: the whole protocol. Each of `frames` is one
    /// input round: its row blocks are quantized in order (block -> column
    /// -> row) and shared in one frame, then each block adds this party's
    /// [`ReleasePlan::work`] to its accumulator. Round 2's vector is the
    /// accumulator with each shared run under its row's Lagrange weight, plus
    /// this release's noise draws; the accumulator stays noise-free.
    pub(crate) fn party_release<F: PrimeField>(
        &self,
        ctx: &mut PartyCtx<F>,
        st: &mut PartyState<F>,
        frames: &[Vec<RowBlock>],
    ) -> Option<Vec<i128>> {
        let (partition, n, me) = (&self.partition, self.partition.n_cols(), ctx.id);
        let my_cols = partition.columns_of(me);
        let (parties, spare) = (ctx.n, ctx.n > 2 * ctx.t + 1);
        let sitter = |r: usize| spare.then_some(r % parties);
        let work = self.work(me, sitter);
        let entries: usize = work.iter().map(|(_, _, cols, _, _)| cols.len()).sum();
        let gram = self.rows.iter().any(|(form, _)| form.unit().is_some());
        for frame in frames {
            let rows: usize = frame.iter().map(|(_, rows)| rows.len()).sum();
            ctx.set_phase("quantize");
            let mut my_values: Vec<F> = Vec::with_capacity(my_cols.len() * rows);
            for &(data, rows) in frame {
                let rows = rows.iter().copied();
                quantize_columns(
                    &mut st.qrng,
                    self.gamma,
                    data,
                    &my_cols,
                    rows,
                    &mut my_values,
                );
            }
            let expected: Vec<usize> = partition.counts().iter().map(|&c| c * rows).collect();
            ctx.set_phase("input");
            let contributions = ctx.share_all_uneven(&my_values, &expected);
            ctx.set_phase("compute");
            let mut done = 0;
            for &(_, block) in frame {
                let len = block.len();
                let (mut mine, mut shares) = (vec![&[][..]; n], vec![&[][..]; n]);
                place(&mut mine, &my_cols, &my_values, done, len);
                for (client, contrib) in contributions.iter().enumerate() {
                    place(
                        &mut shares,
                        &partition.columns_of(client),
                        contrib,
                        done,
                        len,
                    );
                }
                let (mine, shares) = (GramCols::new(mine, gram), GramCols::new(shares, gram));
                for (_, form, cols, at, clear) in &work {
                    let acc = &mut st.acc[*at..*at + cols.len()];
                    add_pairs(
                        acc,
                        form,
                        if *clear { &mine } else { &shares },
                        cols.clone(),
                        len,
                    );
                }
                done += len;
            }
            if let Some(prof) = ctx.profiler() {
                prof.record("vfl;compute;gram", 1, (entries * rows) as u64);
            }
        }
        let mut local = st.acc.clone();
        for (r, _, cols, at, _) in work.into_iter().filter(|&(.., clear)| !clear) {
            let weight = ctx.lagrange_weight(sitter(r));
            local[at..at + cols.len()]
                .iter_mut()
                .for_each(|s| *s = weight * *s);
        }
        noisy_sum(ctx, local, &mut st.nrng, self.local_mu)
    }

    /// The integers the receiver gets from [`ReleasePlan::party_release`]
    /// on `frames` at `seed`, after `noise_skip` earlier releases of the
    /// same parties: per party, quantization replayed in the program's draw
    /// order (block -> column -> row) and the noise stream past the draws
    /// earlier releases took; then each form once as an integer column and
    /// each pair as one column dot.
    pub(crate) fn exact(
        &self,
        frames: &[Vec<RowBlock>],
        seed: u64,
        noise_skip: usize,
    ) -> Vec<i128> {
        let (skellam, len) = (Skellam::new(self.local_mu), self.len());
        let mut q: Vec<Vec<i64>> = vec![Vec::new(); self.partition.n_cols()];
        let mut out = vec![0i128; len];
        for p in 0..self.partition.n_clients() {
            let (mut qrng, mut nrng) = self.streams(seed, p);
            for &(data, rows) in frames.iter().flatten() {
                for j in self.partition.columns_of(p) {
                    let quantize =
                        |&i: &usize| stochastic_round(&mut qrng, self.gamma * data[(i, j)]);
                    q[j].extend(rows.iter().map(quantize));
                }
            }
            for _ in 0..noise_skip * len {
                skellam.sample(&mut nrng);
            }
            out.iter_mut()
                .for_each(|o| *o += i128::from(skellam.sample(&mut nrng)));
        }
        let (m, mut at) = (frames.iter().flatten().map(|(_, rows)| rows.len()).sum(), 0);
        for (form, run) in &self.rows {
            let entries = out[at..].iter_mut().zip(run.clone());
            match form.unit() {
                Some(j) => entries.for_each(|(o, k)| *o += dot(&q[j], &q[k])),
                None => {
                    let v = form.integers(&q, m);
                    entries.for_each(|(o, k)| *o += dot(&v, &q[k]));
                }
            }
            at += run.len();
        }
        out
    }
}

/// `sum_i a[i] * b[i]` over integers.
fn dot<A: Copy>(a: &[A], b: &[i64]) -> i128
where
    i128: From<A>,
{
    a.iter()
        .zip(b)
        .map(|(&x, &y)| i128::from(x) * y as i128)
        .sum()
}

/// One party's part of a release: its private quantization and noise
/// streams, and its noise-free accumulator in opened order (its pairs'
/// unweighted shares or plaintext values, zero elsewhere).
pub(crate) struct PartyState<F: PrimeField> {
    qrng: StdRng,
    nrng: StdRng,
    acc: Vec<F>,
}

/// Put the columns `owned` of one row block at their global places in
/// `cols`, out of a client's column-major `values`: `skip_rows` rows per
/// column precede the `rows` wanted ones (earlier blocks of the frame).
fn place<'a, F>(
    cols: &mut [&'a [F]],
    owned: &[usize],
    values: &'a [F],
    skip_rows: usize,
    rows: usize,
) {
    let block = &values[owned.len() * skip_rows..][..owned.len() * rows];
    for (slot, &j) in owned.iter().enumerate() {
        cols[j] = &block[slot * rows..(slot + 1) * rows];
    }
}

/// The columns of one row block with their Winograd corrections
/// `ξ(c) = sum_i c[2i] * c[2i+1]` ([`PrimeField::pair_sum`]), computed once
/// per column per block when the plan has a unit row: each Gram entry
/// between two of them then costs one multiply per two records
/// ([`add_gram`]).
pub(crate) struct GramCols<'a, F> {
    cols: Vec<&'a [F]>,
    xi: Vec<F>,
}

impl<'a, F: PrimeField> GramCols<'a, F> {
    pub(crate) fn new(cols: Vec<&'a [F]>, gram: bool) -> Self {
        let xi = if gram {
            cols.iter().map(|c| F::pair_sum(c)).collect()
        } else {
            Vec::new()
        };
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
pub(crate) fn add_gram<F: PrimeField>(acc: &mut [F], g: &GramCols<F>, j: usize, run: Range<usize>) {
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

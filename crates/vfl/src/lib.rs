//! The vertical-federated-learning runtime.
//!
//! Binds the SQM mechanism (`sqm-core`) to the BGW engine (`sqm-mpc`):
//! columns of the private matrix are assigned to clients
//! ([`partition::ColumnPartition`]), each client quantizes its own columns
//! and samples its own Skellam noise share *inside its party thread*, and
//! the clients jointly evaluate the target polynomial, open only the
//! perturbed integer result, and hand it to the (untrusted) server for
//! down-scaling.
//!
//! Every release below starts with one round shipping each client's
//! degree-`t` input shares and ends in one secure aggregation in which each
//! client sends party 0 (the receiver) one vector under pairwise masks that
//! cancel in the sum: its local shares of the result under its Lagrange
//! weight (`PartyCtx::lagrange_weight`), plus its own Skellam noise; no
//! noise is ever shared (see `PartyCtx::sum_to_receiver` in `sqm-mpc` and
//! the security note in DESIGN.md). Only the receiver learns
//! the released integers. The first four protocols are those two rounds and
//! nothing else — the aggregated share is the local degree-`2t` product,
//! with no degree reduction in between; the generic path spends one GRR
//! round per multiplication layer before the same last round.
//!
//! * [`covariance::covariance_skellam`] — the PCA covariance `X^T X + Sk`
//!   (Section V-A): a release plan of unit forms, each client computing its
//!   own columns' block in the clear and local share products for the
//!   cross-owner entries of the triangle rows it keeps (at even `P` one
//!   client sits out each row).
//! * [`gradient::gradient_sum_skellam`] — one LR gradient-sum step on a
//!   batch (Section V-B, Eq. 9), on the same per-party program. The weight
//!   vector is public, so `v = half + <w/4, x> - y` is one public linear
//!   form: a *local* operation; only the `d` per-dimension products are
//!   secure multiplications.
//! * [`mean::column_sums_skellam`] — degree-1 column sums/means
//!   (Algorithm 1 with `lambda = 1`): a purely linear protocol whose
//!   communication is independent of the record count.
//! * [`stream::StreamCov`] — the covariance as a long-lived session: any
//!   number of pending mini-batches ride one input frame per release.
//! * [`generic::eval_polynomial_skellam`] — any [`sqm_core::Polynomial`],
//!   compiled to an arithmetic circuit (GRR degree reduction per mul
//!   layer). General but per-record; intended for small workloads and
//!   cross-checking.
//!
//! Field width (`M61` vs `M127`) is chosen automatically from a worst-case
//! magnitude bound so the integer computation cannot wrap; `with_field!` is
//! the one place a bound becomes a field or is refused for lack of headroom.
//! Every protocol has a fallible core on `MpcEngine::try_run{,_pool}`; the
//! public names without a `try_` prefix panic on a transport failure. The
//! degree-≤ 2 releases are each a `plan::ReleasePlan` — public linear forms
//! of the quantized record paired with runs of columns, plus the release's
//! streams, field bound and charged sensitivity. The covariance's three
//! entry points (one-shot, chunked, [`stream::StreamCov`]) and the gradient
//! run its one per-party program, `ReleasePlan::party_release`: once on
//! fresh party threads, or on the resident party workers a stream keeps.
//! Column sums keep their own linear body, which shares pre-summed columns.
//!
//! **Randomness streams.** A party draws from three private streams derived
//! from `cfg.seed()`: quantization, Skellam noise, and (inside the engine)
//! share polynomials; the engine also keys one mask stream per party pair
//! from it. A one-shot protocol starts all of them afresh.
//! [`stream::StreamCov`] carries the first two across releases and the
//! engine re-keys share polynomials and pair masks from the mesh's round
//! counter on every run, so no release repeats a draw.
//! [`session::VflSession`] runs one-shot protocols from one seed: see the
//! noise-replay caveat on that type. A release's plan derives its streams
//! from the salts its module names once, for the protocol and for its
//! bit-exact plaintext oracle (`*_oracle`) alike: the degree-≤ 2 oracles
//! are one replay, `ReleasePlan::exact`.
//!
//! **Two-client caveat:** BGW with `P = 2` degenerates to threshold `t = 0`
//! (shares equal secrets), so outputs are correct but the clients have no
//! secrecy from each other. Use three or more MPC parties: two data owners
//! enlist a third, column-less compute party (ROADMAP item 8(c) turns this
//! caveat into a typed refusal).
#![forbid(unsafe_code)]

/// Evaluate `$body` with the type `$F` bound to the field wide enough for
/// integers up to `$bound`. The only place a magnitude bound is turned into
/// a field, and so the only place a workload past `M127`'s headroom is
/// refused.
macro_rules! with_field {
    ($bound:expr, $F:ident => $body:expr) => {
        match $crate::field_for($bound) {
            sqm_field::FieldChoice::M61 => {
                type $F = sqm_field::M61;
                $body
            }
            sqm_field::FieldChoice::M127 => {
                type $F = sqm_field::M127;
                $body
            }
        }
    };
}

pub mod covariance;
pub mod generic;
pub mod gradient;
pub mod mean;
pub mod partition;
mod plan;
pub mod session;
pub mod stream;

pub use covariance::{
    covariance_quantized_oracle, covariance_skellam, covariance_skellam_chunked,
    try_covariance_skellam, CovarianceOutput,
};
pub use generic::{eval_polynomial_oracle, eval_polynomial_skellam};
pub use gradient::{gradient_sum_oracle, gradient_sum_skellam, GradientOutput};
pub use mean::{column_sums_oracle, column_sums_skellam, MeanOutput};
pub use partition::ColumnPartition;
pub use session::{BudgetRefusal, ReleaseError, ReleasePermit, ServerView, VflSession};
pub use stream::{covariance_streaming_oracle, StreamCov};

pub use sqm_mpc::net;
pub use sqm_mpc::{
    CrashPoint, FaultSpec, LiveConfig, NetBackend, ProfConfig, TcpOptions, TransportError,
};

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm_field::{FieldChoice, PrimeField};
use sqm_linalg::Matrix;
use sqm_mpc::{MpcConfig, PartyCtx};
use sqm_obs::live::Collector;
use sqm_obs::prof::Profiler;
use sqm_sampling::rounding::stochastic_round;
use sqm_sampling::skellam::Skellam;

/// The choice behind `with_field!`; `StreamCov` pins a session's field by it.
pub(crate) fn field_for(bound: f64) -> FieldChoice {
    fitting_field(bound).expect("workload exceeds M127 headroom")
}

/// The field for integers up to `bound`, or `None` when no field holds
/// them: past `M127`'s headroom, or a bound that overflowed to infinity or
/// NaN.
pub(crate) fn fitting_field(bound: f64) -> Option<FieldChoice> {
    bound
        .is_finite()
        .then(|| FieldChoice::for_magnitude(bound))?
}

/// The data, the partition and the config agree on columns and clients.
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

/// Checked once per release where `gamma` enters, not once per value.
pub(crate) fn validate_gamma(gamma: f64) {
    assert!(
        gamma > 0.0 && gamma.is_finite(),
        "gamma must be positive and finite"
    );
}

/// What the protocol names without a `try_` prefix do on transport failure.
pub(crate) fn or_panic<T>(result: Result<T, TransportError>) -> T {
    result.unwrap_or_else(|e| panic!("mpc transport failure: {e}"))
}

/// Party `p`'s quantization and noise streams, `seed ^ (salt + p)` for the
/// two salts its release module names once (protocol body and oracle).
pub(crate) fn party_streams(seed: u64, [q, n]: [u64; 2], p: usize) -> (StdRng, StdRng) {
    let stream = |salt: u64| StdRng::seed_from_u64(seed ^ (salt + p as u64));
    (stream(q), stream(n))
}

/// Algorithm 2 on a party's own columns: for each of `cols`, for each of
/// `rows`, `gamma * data[(i, j)]` stochastically rounded from `qrng` and
/// appended to `out` as a field element. The one quantizer of every input
/// round that shares records — covariance once per row block, the gradient
/// over its batch, the generic circuit once per record — so each stream's
/// draw order is its caller's sequence of calls, column-major within one.
pub(crate) fn quantize_columns<F: PrimeField>(
    qrng: &mut StdRng,
    gamma: f64,
    data: &Matrix,
    cols: &[usize],
    rows: impl Iterator<Item = usize> + Clone,
    out: &mut Vec<F>,
) {
    for &j in cols {
        for i in rows.clone() {
            out.push(F::from_i64(stochastic_round(qrng, gamma * data[(i, j)])));
        }
    }
}

/// The noise phase and last round of every release: one Skellam(`local_mu`)
/// draw from `nrng` added to each entry of `local` (this party's weighted
/// product shares, see [`PartyCtx::lagrange_weight`]), and the sum over
/// parties handed to the receiver as centred integers (`None` at every
/// other party).
pub(crate) fn noisy_sum<F: PrimeField>(
    ctx: &mut PartyCtx<F>,
    mut local: Vec<F>,
    nrng: &mut StdRng,
    local_mu: f64,
) -> Option<Vec<i128>> {
    ctx.set_phase("dp_noise");
    let skellam = Skellam::new(local_mu);
    for slot in local.iter_mut() {
        *slot += F::from_i64(skellam.sample(nrng));
    }
    if let Some(prof) = ctx.profiler() {
        prof.record("vfl;dp_noise;skellam_draw", 1, local.len() as u64);
    }
    ctx.set_phase("open");
    let sum = ctx.sum_to_receiver(local)?;
    Some(sum.into_iter().map(|v| v.to_centered_i128()).collect())
}

/// What [`noisy_sum`] returned at the receiver, out of a run's outputs.
pub(crate) fn received(outputs: &[Option<Vec<i128>>]) -> &[i128] {
    let sum = outputs[sqm_mpc::RECEIVER].as_ref();
    sum.expect("the receiver holds the sum")
}

/// Configuration shared by the VFL protocols: the [`MpcConfig`] every
/// protocol run uses (one party per client, maximal semi-honest threshold),
/// with VFL's seed default. The seed also derives the per-party
/// quantization and noise-sampling streams.
#[derive(Clone, Debug)]
pub struct VflConfig {
    mpc: MpcConfig,
}

impl VflConfig {
    /// `n_clients` clients (MPC parties), 0.1 s simulated per-hop latency
    /// (the paper's), seed 7, in-process transport, no observers.
    pub fn new(n_clients: usize) -> Self {
        VflConfig {
            mpc: MpcConfig::semi_honest(n_clients).with_seed(7),
        }
    }

    /// Zero latency — for tests and statistical experiments where only the
    /// output matters.
    pub fn fast(n_clients: usize) -> Self {
        Self::new(n_clients).with_latency(Duration::ZERO)
    }

    /// Number of clients `P` (MPC parties).
    pub fn n_clients(&self) -> usize {
        self.mpc.n_parties
    }

    /// Seed for quantization randomness, noise sampling and share
    /// polynomials (per-party streams are derived from it).
    pub fn seed(&self) -> u64 {
        self.mpc.seed
    }

    /// See [`MpcConfig::with_latency`].
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.mpc = self.mpc.with_latency(latency);
        self
    }

    /// See [`MpcConfig::with_seed`].
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.mpc = self.mpc.with_seed(seed);
        self
    }

    /// See [`MpcConfig::with_trace`].
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.mpc = self.mpc.with_trace(trace);
        self
    }

    /// See [`MpcConfig::with_backend`].
    pub fn with_backend(mut self, backend: NetBackend) -> Self {
        self.mpc = self.mpc.with_backend(backend);
        self
    }

    /// See [`MpcConfig::with_faults`].
    pub fn with_faults(mut self, faults: Option<FaultSpec>) -> Self {
        self.mpc = self.mpc.with_faults(faults);
        self
    }

    /// See [`MpcConfig::with_live`].
    pub fn with_live(mut self, live: Option<Arc<Collector>>) -> Self {
        self.mpc = self.mpc.with_live(live);
        self
    }

    /// See [`MpcConfig::with_prof`].
    pub fn with_prof(mut self, prof: Option<Arc<Profiler>>) -> Self {
        self.mpc = self.mpc.with_prof(prof);
        self
    }

    /// The `MpcConfig` every VFL protocol runs under.
    pub fn mpc_config(&self) -> MpcConfig {
        self.mpc.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use sqm_field::{M127, M61};

    /// The per-call-site loop `quantize_columns` replaced, kept as the
    /// reference.
    fn quantize_loop<F: PrimeField>(
        qrng: &mut StdRng,
        gamma: f64,
        data: &Matrix,
        cols: &[usize],
        rows: &[usize],
    ) -> Vec<F> {
        let mut out = Vec::new();
        for &j in cols {
            for &i in rows {
                let q = stochastic_round(qrng, gamma * data[(i, j)]);
                out.push(F::from_i128(q as i128));
            }
        }
        out
    }

    fn check_quantize_columns<F: PrimeField>() {
        let mut rng = StdRng::seed_from_u64(30);
        let data = Matrix::from_rows(
            &(0..40)
                .map(|_| {
                    (0..11)
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect::<Vec<f64>>()
                })
                .collect::<Vec<_>>(),
        );
        let batch = [39, 0, 7, 7, 21, 3];
        for p in [1, 2, 3, 5] {
            let partition = partition::ColumnPartition::even(11, p);
            for party in 0..p {
                let cols = partition.columns_of(party);
                let ranges: [&[usize]; 3] = [&(0..40).collect::<Vec<_>>(), &[5, 6, 7, 8], &batch];
                for rows in ranges {
                    let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
                    let mut got = vec![F::ONE];
                    quantize_columns(&mut a, 4096.5, &data, &cols, rows.iter().copied(), &mut got);
                    let want = quantize_loop::<F>(&mut b, 4096.5, &data, &cols, rows);
                    assert_eq!(got[0], F::ONE, "appends, keeping what was there");
                    assert_eq!(&got[1..], &want[..], "P={p} party={party} rows={rows:?}");
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "same draws consumed");
                }
            }
        }
        // A range of rows, as a covariance frame's row block passes it.
        let (mut a, mut b) = (StdRng::seed_from_u64(4), StdRng::seed_from_u64(4));
        let mut got: Vec<F> = Vec::new();
        quantize_columns(&mut a, 1e6, &data, &[10, 2], 12..30, &mut got);
        let rows: Vec<usize> = (12..30).collect();
        assert_eq!(got, quantize_loop::<F>(&mut b, 1e6, &data, &[10, 2], &rows));
    }

    #[test]
    fn quantize_columns_matches_the_loop_it_replaced() {
        check_quantize_columns::<M61>();
        check_quantize_columns::<M127>();
    }
}

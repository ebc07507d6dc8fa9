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
//! client sends party 0 (the receiver) its Lagrange-weighted local share of
//! the result plus its own Skellam noise under pairwise masks that cancel
//! in the sum; no noise is ever shared (see `PartyCtx::sum_to_receiver` in
//! `sqm-mpc` and the security note in DESIGN.md). Only the receiver learns
//! the released integers. The first four protocols are those two rounds and
//! nothing else — the aggregated share is the local degree-`2t` product,
//! with no degree reduction in between; the generic path spends one GRR
//! round per multiplication layer before the same last round.
//!
//! * [`covariance::covariance_skellam`] — the PCA covariance `X^T X + Sk`
//!   (Section V-A): local inner products for all `n(n+1)/2` entries.
//! * [`gradient::gradient_sum_skellam`] — one LR gradient-sum step on a
//!   batch (Section V-B, Eq. 9). The weight vector is public, so the inner
//!   product `<w/4, x>` is a *local* linear operation; only the `d`
//!   per-dimension products are secure multiplications.
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
//! Every protocol has a fallible core on `MpcEngine::try_run{,_on}`; the
//! public names without a `try_` prefix panic on a transport failure. The
//! three covariance entry points (one-shot, chunked, [`stream::StreamCov`])
//! run one per-party program, `covariance::CovSession::release`.
//!
//! **Randomness streams.** A party draws from three private streams derived
//! from `cfg.seed()`: quantization, Skellam noise, and (inside the engine)
//! share polynomials; the engine also keys one mask stream per party pair
//! from it. A one-shot protocol starts all of them afresh.
//! [`stream::StreamCov`] carries the first two across releases and the
//! engine re-keys share polynomials and pair masks from the mesh's round
//! counter on every run, so no release repeats a draw.
//! [`session::VflSession`] runs one-shot protocols from one seed: see the
//! noise-replay caveat on that type.
//!
//! **Two-client caveat:** BGW with `P = 2` degenerates to threshold `t = 0`
//! (shares equal secrets), so outputs are correct but the clients have no
//! secrecy from each other. Use three or more MPC parties: two data owners
//! enlist a third, column-less compute party (ROADMAP item 8(c) turns this
//! caveat into a typed refusal).

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
pub mod session;
pub mod stream;

pub use covariance::{
    covariance_quantized_oracle, covariance_skellam, covariance_skellam_chunked,
    try_covariance_skellam, CovarianceOutput,
};
pub use generic::eval_polynomial_skellam;
pub use gradient::{gradient_sum_skellam, GradientOutput};
pub use mean::{column_sums_skellam, MeanOutput};
pub use partition::ColumnPartition;
pub use session::{
    BudgetRefusal, PrivacyAccount, ReleaseError, ReleasePermit, ServerView, VflSession,
};
pub use stream::{covariance_streaming_oracle, StreamCov};

pub use sqm_mpc::net;
pub use sqm_mpc::{
    CrashPoint, FaultSpec, LiveConfig, NetBackend, ProfConfig, TcpOptions, TransportError,
};

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use sqm_field::{FieldChoice, PrimeField};
use sqm_mpc::{MpcConfig, PartyCtx};
use sqm_obs::live::Collector;
use sqm_obs::prof::Profiler;

/// The choice behind `with_field!`; `StreamCov` pins a session's field by it.
pub(crate) fn field_for(bound: f64) -> FieldChoice {
    FieldChoice::for_magnitude(bound).expect("workload exceeds M127 headroom")
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

/// The noise phase and last round of every release: one Skellam(`local_mu`)
/// draw per share from `nrng`, summed with the secrets behind `shares` to
/// the receiver as centred integers (`None` at every other party).
pub(crate) fn noisy_sum<F: PrimeField>(
    ctx: &mut PartyCtx<F>,
    shares: &[F],
    nrng: &mut StdRng,
    local_mu: f64,
) -> Option<Vec<i128>> {
    ctx.set_phase("dp_noise");
    let noise = covariance::sample_noise(nrng, local_mu, shares.len());
    if let Some(prof) = ctx.profiler() {
        prof.record("vfl;dp_noise;skellam_draw", 1, noise.len() as u64);
    }
    ctx.set_phase("open");
    let sum = ctx.sum_to_receiver(shares, &noise)?;
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

    /// See [`MpcConfig::with_trace_event_cap`].
    pub fn with_trace_event_cap(mut self, cap: usize) -> Self {
        self.mpc = self.mpc.with_trace_event_cap(cap);
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

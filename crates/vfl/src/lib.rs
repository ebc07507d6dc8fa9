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
//! Every release protocol below is two rounds: round 1 ships each client's
//! degree-`t` input shares with degree-`2t` shares of its Skellam noise in
//! the same frame; the local degree-`2t` products plus the summed noise
//! shares are opened in round 2, with no degree reduction in between (see
//! `PartyCtx::share_all_masked` in `sqm-mpc` and the security note in
//! DESIGN.md).
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
//!   compiled to an arithmetic circuit (GRR degree reduction per mul layer,
//!   a separate noise round). General but per-record; intended for small
//!   workloads and cross-checking.
//!
//! Field width (`M61` vs `M127`) is chosen automatically from a worst-case
//! magnitude bound so the integer computation cannot wrap.
//!
//! **Two-client caveat:** BGW with `P = 2` degenerates to threshold `t = 0`
//! (shares equal secrets), so outputs are correct but the clients have no
//! secrecy from each other. Use three or more MPC parties — two data owners
//! can enlist a neutral compute helper that owns no columns — or the
//! additive backend (`sqm_mpc::additive`) for genuine two-party secrecy.

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
pub use mean::{column_sums_skellam, column_sums_skellam_additive, MeanOutput};
pub use partition::ColumnPartition;
pub use session::{BudgetRefusal, ServerView, VflSession};
pub use stream::{covariance_streaming_oracle, StreamCov};

pub use sqm_mpc::net;
pub use sqm_mpc::{
    CrashPoint, FaultSpec, LiveConfig, NetBackend, ProfConfig, TcpOptions, TransportError,
};

use std::time::Duration;

use sqm_mpc::MpcConfig;

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
    pub fn with_live(mut self, live: Option<LiveConfig>) -> Self {
        self.mpc = self.mpc.with_live(live);
        self
    }

    /// See [`MpcConfig::with_prof`].
    pub fn with_prof(mut self, prof: Option<ProfConfig>) -> Self {
        self.mpc = self.mpc.with_prof(prof);
        self
    }

    /// The `MpcConfig` every VFL protocol runs under.
    pub fn mpc_config(&self) -> MpcConfig {
        self.mpc.clone()
    }
}

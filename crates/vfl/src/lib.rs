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
    BatchOptions, Batching, CrashPoint, FaultSpec, LiveConfig, NetBackend, ProfConfig, TcpOptions,
    TransportError,
};

use std::time::Duration;

use sqm_mpc::MpcConfig;

/// Configuration shared by the VFL protocols.
#[derive(Clone, Debug)]
pub struct VflConfig {
    /// Number of clients `P` (MPC parties).
    pub n_clients: usize,
    /// Simulated per-hop network latency (paper: 0.1 s).
    pub latency: Duration,
    /// Seed for quantization randomness, noise sampling and share
    /// polynomials (per-party streams are derived from it).
    pub seed: u64,
    /// Record structured MPC traces (see `sqm_obs::trace`). Off by default.
    pub trace: bool,
    /// Cap on per-party trace *detail* records (spans/rounds/net events);
    /// `None` uses `sqm_obs::trace::DEFAULT_EVENT_CAP`. Summaries stay
    /// exact regardless — see `PartyRecorder::with_event_cap`.
    pub trace_event_cap: Option<usize>,
    /// Party-to-party transport backend (in-process channels by default;
    /// `NetBackend::Tcp` runs the same protocols over loopback sockets).
    pub backend: NetBackend,
    /// Optional deterministic fault injection layered over the backend.
    pub faults: Option<FaultSpec>,
    /// Stream live telemetry for the MPC runs this config drives (see
    /// `sqm_obs::live`): per-round events, stall watchdog, `/metrics` +
    /// `/snapshot` HTTP endpoint, crash flight recorder. `None` (the
    /// default) publishes nothing; `RunStats` are bit-identical either way.
    pub live: Option<sqm_mpc::LiveConfig>,
    /// Attach the deterministic cost profiler (see `sqm_obs::prof`) to the
    /// MPC runs this config drives: collapsed-stack attribution of engine
    /// traffic, mask sharing and degree reductions, Skellam draws, and the
    /// circuit path's batching opportunity report. `None` (the default) records nothing; release
    /// bits and `RunStats` are bit-identical either way.
    pub prof: Option<sqm_mpc::ProfConfig>,
    /// Wire framing and gate-scheduling mode of the underlying MPC engine
    /// (see [`Batching`]). The round-batched default and the per-element
    /// reference mode release bit-identical values; only message accounting
    /// and local parallelism differ.
    pub batching: Batching,
}

impl VflConfig {
    pub fn new(n_clients: usize) -> Self {
        VflConfig {
            n_clients,
            latency: Duration::from_millis(100),
            seed: 7,
            trace: false,
            trace_event_cap: None,
            backend: NetBackend::InProcess,
            faults: None,
            live: None,
            prof: None,
            batching: Batching::default(),
        }
    }

    /// Zero latency — for tests and statistical experiments where only the
    /// output matters.
    pub fn fast(n_clients: usize) -> Self {
        Self::new(n_clients).with_latency(Duration::ZERO)
    }

    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Turn structured trace recording on or off.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Bound the number of per-party trace detail records.
    pub fn with_trace_event_cap(mut self, cap: usize) -> Self {
        self.trace_event_cap = Some(cap);
        self
    }

    /// Select the transport backend the MPC parties communicate over.
    pub fn with_backend(mut self, backend: NetBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Layer deterministic fault injection over the selected backend.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Stream live telemetry for the MPC runs this config drives.
    pub fn with_live(mut self, live: Option<sqm_mpc::LiveConfig>) -> Self {
        self.live = live;
        self
    }

    /// Attach the deterministic cost profiler to the MPC runs this config
    /// drives (see `sqm_obs::prof`).
    pub fn with_prof(mut self, prof: Option<sqm_mpc::ProfConfig>) -> Self {
        self.prof = prof;
        self
    }

    /// Select the wire framing / gate-scheduling mode of the MPC engine
    /// (see [`Batching`]).
    pub fn with_batching(mut self, batching: Batching) -> Self {
        self.batching = batching;
        self
    }

    /// The `MpcConfig` every VFL protocol derives from this configuration.
    pub fn mpc_config(&self) -> MpcConfig {
        let config = MpcConfig::semi_honest(self.n_clients)
            .with_latency(self.latency)
            .with_seed(self.seed)
            .with_trace(self.trace)
            .with_backend(self.backend.clone())
            .with_faults(self.faults.clone())
            .with_live(self.live.clone())
            .with_prof(self.prof.clone())
            .with_batching(self.batching);
        match self.trace_event_cap {
            Some(cap) => config.with_trace_event_cap(cap),
            None => config,
        }
    }
}

//! Semi-honest BGW multiparty computation over a simulated network.
//!
//! SQM invokes MPC as a black box (Section IV of the paper): the clients
//! secret-share their quantized columns, jointly evaluate an arithmetic
//! circuit, add their locally-sampled Skellam noise, and open only the
//! perturbed result. This crate provides that black box:
//!
//! * [`shamir`] — Shamir secret sharing and Lagrange reconstruction.
//! * [`net`] — party-to-party networking, the `sqm-net` crate re-exported:
//!   a [`net::Transport`] trait with two backends (the full-mesh in-process
//!   channel mesh and a loopback-TCP backend) plus a deterministic fault
//!   injector, all with per-round, per-message and per-byte accounting.
//!   Backend selection lives on [`MpcConfig`].
//! * `runtime` (crate-private) — the party runtime under the engine: the
//!   one party worker that runs the same protocol program at each of the
//!   `n` parties and reports its output — on scoped threads for a one-shot
//!   run, or on the resident threads of a [`PartyPool`], which a session
//!   keeps for its whole life so that a run spawns no thread — and the one
//!   round exchange, which hands each round to the party's
//!   `sqm_obs::round` observer. That observer charges it to the party's
//!   one tally — merged into the run's [`RunStats`] and carried by its
//!   trace — and reports it to what the run's config attached
//!   ([`MpcConfig::live`], [`MpcConfig::prof`], `trace`).
//!   Transport failures surface as typed [`TransportError`]s from
//!   [`MpcEngine::try_run`] (or a diagnostic panic from `run`); no
//!   process-wide panic hook is involved.
//! * [`engine`] — the BGW protocol layer: Shamir input sharing, opening,
//!   multiplication by GRR degree reduction (`t < n/2`), and the masked sum
//!   to one receiver that every SQM release ends in; vector operations
//!   (element-wise products, inner products) are batched into single rounds,
//!   which is what makes covariance computation `O(n^2)` *communication*
//!   instead of `O(m n^2)`.
//! * [`chacha`] — the ChaCha12 keystream behind that sum's pairwise masks.
//! * [`circuit`] — a small retained arithmetic-circuit IR with plaintext and
//!   MPC evaluators, used by the generic polynomial mechanism.
//! * [`RunStats`] / [`PhaseStats`] — virtual-clock accounting, re-exported
//!   from `sqm_obs::round`, where the tally they merge lives. The paper
//!   simulates parties on one machine and charges 0.1 s per message hop;
//!   [`RunStats`] reproduces that model
//!   (`simulated_time = wall + rounds * latency`).
#![forbid(unsafe_code)]

pub mod chacha;
pub mod circuit;
pub mod engine;
pub(crate) mod runtime;
pub mod shamir;

pub use sqm_net as net;

pub use engine::{MpcConfig, MpcEngine, MpcRun, PartyCtx, RECEIVER};
pub use runtime::PartyPool;
pub use shamir::{reconstruct, share_secret, share_secrets, ShamirShare};
pub use sqm_net::fault::{CrashPoint, FaultSpec};
pub use sqm_net::transport::NetBackend;
pub use sqm_net::{TcpOptions, TransportError};
pub use sqm_obs::live::LiveConfig;
pub use sqm_obs::prof::ProfConfig;
pub use sqm_obs::round::{PhaseStats, RunStats};

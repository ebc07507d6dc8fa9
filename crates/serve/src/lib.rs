//! # sqm-serve — multi-tenant VFL serving with enforced privacy budgets
//!
//! A long-lived service that multiplexes many concurrent vertical-FL
//! sessions over shared party transports:
//!
//! - [`scheduler`] — bounded-admission session scheduler: a fixed worker
//!   pool, a global queue bound with typed backpressure
//!   ([`ServeError::Overloaded`]), strict per-tenant FIFO (so interleaved
//!   execution is bit-identical to serial), and drain shutdown.
//! - [`tenant`] — one tenant's session: a streaming mini-batch covariance
//!   accumulator (`sqm_vfl::StreamCov`) over a *reused* MPC mesh and one
//!   privacy book (`sqm_obs::PrivacyLedger`) that admits every release
//!   against the tenant's epsilon budget *before* any MPC round runs
//!   ([`ServeError::BudgetExhausted`]) and records it once its run
//!   succeeded.
//! - [`proto`] — the JSON-over-HTTP wire protocol on the shared
//!   `sqm_obs::httpd` listener (`/v1/tenant`, `/v1/ingest`,
//!   `/v1/release`, `/status`, `/metrics`).
//! - [`loadgen`] — a seeded closed-loop load generator; the `sqm-serve`
//!   binary (and with it the CI smoke test) and the SLO tests drive the
//!   server with it.
//! - [`error`] — the typed [`ServeError`] with per-variant HTTP statuses.
//!
//! ## Request tracing and SLOs
//!
//! With [`ServerConfig::tracing`] set, every admitted request carries an
//! `sqm_obs::span::RequestContext` through its whole life: the scheduler
//! records queue-wait and exec spans (defining the root as their exact
//! sum), the tenant adds admit / MPC / encode children, and the MPC span
//! carries the engine run's critical path, walked over the flows its
//! trace's round records name: a tracing server opens its tenants traced,
//! so this one switch turns all of it on. The per-server
//! `sqm_obs::span::SpanCollector` keeps a time-bucketed SLO history and
//! every finished request up to a constant cap; its `slowreq_<seed>.jsonl`
//! dump is byte-deterministic. Per-tenant SLO
//! metrics (phase-latency histograms, epsilon burn-rate and
//! remaining-budget gauges, refusal/overload counters, queue saturation)
//! land in the global registry and surface on `/metrics`. Tracing is
//! passive: results are bit-identical with it on or off.
#![forbid(unsafe_code)]

pub mod error;
pub mod loadgen;
pub mod proto;
pub mod scheduler;
pub mod tenant;

pub use error::ServeError;
pub use loadgen::{load_tenant_config, run_load, LoadReport, LoadSpec, TenantLoadReport};
pub use proto::ServeHttp;
pub use scheduler::{Reply, Request, Server, ServerConfig, Ticket};
pub use tenant::{ReleaseReply, Tenant, TenantConfig, TenantReport};

//! # sqm-net — pluggable party-to-party transport
//!
//! The paper's timing tables (II, IV, V) come from a *simulated* network
//! that charges 0.1 s per message hop. This crate makes the transport under
//! that simulation pluggable and real:
//!
//! * [`transport::Transport`] — the synchronous full-mesh exchange trait
//!   extracted from the original in-process `Endpoint` API, returning
//!   `Result<_, TransportError>` instead of panicking;
//! * [`channel`] — the original crossbeam in-process mesh, refactored to
//!   implement the trait with zero behavior change (identical routing,
//!   FIFO, and message/byte accounting);
//! * [`tcp`] — a length-prefixed TCP backend over localhost: one socket
//!   per ordered party pair, payloads serialized with [`wire`], per-link
//!   connect/read timeouts, bounded exponential-backoff reconnect;
//! * [`fault`] — a deterministic seed-driven fault injector composable
//!   over either backend: per-link delay distributions, message drop with
//!   retransmit-on-timeout, single-party crash mid-round;
//! * [`error`] — typed failures naming the offending party and round;
//! * [`wire`] — the canonical little-endian encoding (moved here from
//!   `sqm-mpc`, which re-exports it), with a `Result`-returning decoder
//!   fit for bytes that arrive from a real socket.
//!
//! The MPC engines select a backend via [`NetBackend`] and build their
//! mesh with [`build_mesh`]; everything above the transport (BGW circuits,
//! VFL protocols, DP noise) is backend-agnostic, and message/byte counts
//! are identical across backends by construction.
#![forbid(unsafe_code)]

pub mod channel;
pub mod error;
pub mod fault;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use error::{TransportError, WireError};
pub use fault::{CrashPoint, FaultSpec, FaultTransport, LinkFault};
pub use tcp::{TcpEndpoint, TcpOptions};
pub use transport::{build_mesh, NetBackend, RoundOutcome, Transport};
pub use wire::Frame;

pub use channel::ChannelEndpoint;

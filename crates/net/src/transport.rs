//! The [`Transport`] abstraction: one synchronous full-mesh exchange per
//! round, pluggable backends, typed errors.
//!
//! The trait is extracted from the original in-process
//! `Endpoint::exchange` API of `sqm-mpc`, with two changes:
//! exchanges return `Result<_, TransportError>` instead of panicking on a
//! closed link, and the endpoint tracks its own round counter so errors can
//! name the round they occurred in.

use sqm_field::PrimeField;
use sqm_obs::round::LinkWall;
use sqm_obs::trace::NetEvent;

use crate::channel;
use crate::error::TransportError;
use crate::fault::{FaultSpec, FaultTransport};
use crate::tcp::{self, TcpOptions};

/// The result of one successful synchronous round.
#[derive(Clone, Debug)]
pub struct RoundOutcome<F> {
    /// `incoming[i]` is the payload received from party `i` (the self slot
    /// holds the loop-back payload).
    pub incoming: Vec<Vec<F>>,
    /// Messages this party sent: each non-empty payload to another party
    /// is one message (one frame).
    pub messages: u64,
    /// Payload bytes this party sent, at the canonical wire encoding
    /// ([`crate::wire::encoded_len`]); framing overhead is *not* counted,
    /// so the figure is identical across backends.
    pub bytes: u64,
    /// Field elements this party sent in non-empty payloads to other
    /// parties. Identical across backends.
    pub elems: u64,
    /// Transport incidents of this round (injected delays, retransmits),
    /// in the order they occurred. A round that fails reports none: the run
    /// is abandoned with the typed error instead.
    pub events: Vec<NetEvent>,
    /// One send wall and one receive wall per peer, on backends that move
    /// real frames (TCP); empty in-process.
    pub link_walls: Vec<LinkWall>,
}

/// One party's connection to the full mesh.
///
/// ## Contract
///
/// * SPMD discipline: every party calls [`exchange`](Transport::exchange)
///   the same number of times in the same program order; the `k`-th receive
///   from party `j` is the `k`-th send of party `j` (per-link FIFO, no
///   sequence numbers).
/// * `outgoing` has exactly `n_parties()` entries; the self slot is looped
///   back without touching the network.
/// * Empty payloads are "non-messages": they keep the lock-step structure
///   (a backend may still move sync bytes for them) but are excluded from
///   the message/byte accounting on every backend.
/// * On error the endpoint is left in an unspecified state; the protocol
///   run must be abandoned.
pub trait Transport<F: PrimeField>: Send {
    /// This party's index.
    fn id(&self) -> usize;

    /// Number of parties in the mesh.
    fn n_parties(&self) -> usize;

    /// Index of the next round (0-based; incremented by each successful
    /// [`exchange`](Transport::exchange)).
    fn round(&self) -> u64;

    /// One synchronous round: send `outgoing[j]` to each party `j` and
    /// receive one payload from every party. Payloads travel bare: the
    /// receiver knows each one's sender (its slot), round (its own counter)
    /// and place on the link (its own count), so an observer can stamp
    /// receives from its schedule alone.
    fn exchange(&mut self, outgoing: Vec<Vec<F>>) -> Result<RoundOutcome<F>, TransportError>;
}

/// Which transport backend a protocol run uses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum NetBackend {
    /// The in-process crossbeam channel mesh (the original simulated
    /// transport; zero behavior change vs. the pre-`sqm-net` code).
    #[default]
    InProcess,
    /// Length-prefixed TCP over localhost, one socket per ordered party
    /// pair, real bytes on the loopback interface.
    Tcp(TcpOptions),
}

impl NetBackend {
    /// TCP with default [`TcpOptions`].
    pub fn tcp() -> Self {
        NetBackend::Tcp(TcpOptions::default())
    }
}

/// Build a full mesh of `n` endpoints on the chosen backend, optionally
/// wrapped in the deterministic fault injector.
///
/// The returned endpoints are boxed so callers (the MPC engines) can hand
/// one to each party thread regardless of backend.
pub fn build_mesh<F: PrimeField>(
    n: usize,
    backend: &NetBackend,
    faults: Option<&FaultSpec>,
) -> Result<Vec<Box<dyn Transport<F>>>, TransportError> {
    let raw: Vec<Box<dyn Transport<F>>> = match backend {
        NetBackend::InProcess => channel::mesh::<F>(n)
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport<F>>)
            .collect(),
        NetBackend::Tcp(opts) => tcp::tcp_mesh::<F>(n, opts)?
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport<F>>)
            .collect(),
    };
    Ok(match faults {
        None => raw,
        Some(spec) => raw
            .into_iter()
            .map(|t| Box::new(FaultTransport::new(t, spec.clone())) as Box<dyn Transport<F>>)
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_field::M61;
    use std::thread;

    fn run_all<T: Send>(
        mut eps: Vec<Box<dyn Transport<M61>>>,
        f: impl Fn(&mut dyn Transport<M61>) -> T + Sync,
    ) -> Vec<T> {
        thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter_mut()
                .map(|ep| s.spawn(|| f(ep.as_mut())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn build_mesh_in_process_routes() {
        let eps = build_mesh::<M61>(3, &NetBackend::InProcess, None).unwrap();
        let results = run_all(eps, |ep| {
            let id = ep.id();
            let out: Vec<Vec<M61>> = (0..3)
                .map(|j| vec![M61::from_u64((10 * id + j) as u64)])
                .collect();
            ep.exchange(out).unwrap().incoming
        });
        for (j, incoming) in results.iter().enumerate() {
            for (i, payload) in incoming.iter().enumerate() {
                assert_eq!(payload, &vec![M61::from_u64((10 * i + j) as u64)]);
            }
        }
    }

    #[test]
    fn build_mesh_tcp_routes() {
        let eps = build_mesh::<M61>(3, &NetBackend::tcp(), None).unwrap();
        let results = run_all(eps, |ep| {
            let id = ep.id();
            let out: Vec<Vec<M61>> = (0..3)
                .map(|j| vec![M61::from_u64((10 * id + j) as u64)])
                .collect();
            ep.exchange(out).unwrap().incoming
        });
        for (j, incoming) in results.iter().enumerate() {
            for (i, payload) in incoming.iter().enumerate() {
                assert_eq!(payload, &vec![M61::from_u64((10 * i + j) as u64)]);
            }
        }
    }
}

//! Full-mesh in-process transport between party threads.
//!
//! One unbounded crossbeam channel per ordered party pair. FIFO order per
//! pair plus the SPMD (same program order at every party) discipline of the
//! engine guarantee that the `k`-th receive from party `j` is the `k`-th
//! send of party `j` — no sequence numbers required.
//!
//! This is the original `sqm-mpc` simulated transport, refactored behind
//! the [`Transport`] trait with one behavioral difference: a link whose
//! peer endpoint has been dropped yields
//! [`TransportError::Disconnected`] instead of panicking.

use crossbeam::channel::{unbounded, Receiver, Sender};
use sqm_field::PrimeField;

use crate::error::TransportError;
use crate::transport::{RoundOutcome, Transport};

/// One party's view of the in-process mesh.
pub struct ChannelEndpoint<F: PrimeField> {
    id: usize,
    round: u64,
    /// `senders[j]` delivers to party `j`'s `receivers[self.id]`; one hop is
    /// one payload (possibly empty — empty messages are "non-messages" and
    /// are not counted as traffic).
    senders: Vec<Sender<Vec<F>>>,
    /// `receivers[i]` yields messages from party `i`.
    receivers: Vec<Receiver<Vec<F>>>,
}

impl<F: PrimeField> Transport<F> for ChannelEndpoint<F> {
    fn id(&self) -> usize {
        self.id
    }

    fn n_parties(&self) -> usize {
        self.senders.len()
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn exchange(&mut self, outgoing: Vec<Vec<F>>) -> Result<RoundOutcome<F>, TransportError> {
        let n = self.n_parties();
        assert_eq!(outgoing.len(), n, "exchange: need one payload per party");
        let round = self.round;
        let mut messages = 0u64;
        let mut bytes = 0u64;
        let mut elems = 0u64;
        for (j, payload) in outgoing.into_iter().enumerate() {
            if j != self.id && !payload.is_empty() {
                messages += 1;
                bytes += crate::wire::encoded_len::<F>(payload.len());
                elems += payload.len() as u64;
            }
            self.senders[j]
                .send(payload)
                .map_err(|_| TransportError::Disconnected { party: j, round })?;
        }
        let mut incoming = Vec::with_capacity(n);
        for (i, receiver) in self.receivers.iter().enumerate() {
            let payload = receiver
                .recv()
                .map_err(|_| TransportError::Disconnected { party: i, round })?;
            incoming.push(payload);
        }
        self.round += 1;
        Ok(RoundOutcome {
            incoming,
            messages,
            bytes,
            elems,
            events: Vec::new(),
            link_walls: Vec::new(),
        })
    }
}

/// Build a full mesh of `n` in-process endpoints.
pub fn mesh<F: PrimeField>(n: usize) -> Vec<ChannelEndpoint<F>> {
    assert!(n >= 1);
    // channels[i][j]: the channel from party i to party j.
    let mut txs: Vec<Vec<Option<Sender<Vec<F>>>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut rxs: Vec<Vec<Option<Receiver<Vec<F>>>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    for (i, tx_row) in txs.iter_mut().enumerate() {
        for (j, tx) in tx_row.iter_mut().enumerate() {
            let (s, r) = unbounded();
            *tx = Some(s);
            rxs[j][i] = Some(r);
        }
        let _ = i;
    }
    txs.into_iter()
        .zip(rxs)
        .enumerate()
        .map(|(id, (tx_row, rx_row))| ChannelEndpoint {
            id,
            round: 0,
            senders: tx_row.into_iter().map(Option::unwrap).collect(),
            receivers: rx_row.into_iter().map(Option::unwrap).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_field::M61;
    use std::thread;

    #[test]
    fn exchange_routes_correctly() {
        let mut endpoints = mesh::<M61>(3);
        let results: Vec<Vec<Vec<M61>>> = thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .iter_mut()
                .map(|ep| {
                    s.spawn(move || {
                        // Party i sends value 10*i + j to party j.
                        let out: Vec<Vec<M61>> = (0..3)
                            .map(|j| vec![M61::from_u64((10 * ep.id() + j) as u64)])
                            .collect();
                        ep.exchange(out).unwrap().incoming
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Party j receives from party i the value 10*i + j.
        for (j, incoming) in results.iter().enumerate() {
            for (i, payload) in incoming.iter().enumerate() {
                assert_eq!(payload, &vec![M61::from_u64((10 * i + j) as u64)]);
            }
        }
    }

    #[test]
    fn traffic_counts_exclude_loopback_and_empties() {
        let mut endpoints = mesh::<M61>(2);
        let (counts_a, counts_b) = thread::scope(|s| {
            let mut it = endpoints.iter_mut();
            let a = it.next().unwrap();
            let b = it.next().unwrap();
            let ha = s.spawn(move || {
                let out = a
                    .exchange(vec![vec![M61::ONE; 5], vec![M61::ONE; 3]])
                    .unwrap();
                (out.messages, out.bytes)
            });
            let hb = s.spawn(move || {
                let out = b.exchange(vec![vec![], vec![M61::ONE]]).unwrap();
                (out.messages, out.bytes)
            });
            (ha.join().unwrap(), hb.join().unwrap())
        });
        // A sent 3 elements to B (24 bytes); loop-back of 5 not counted.
        assert_eq!(counts_a, (1, 24));
        // B sent nothing to A (empty), loop-back of 1 not counted.
        assert_eq!(counts_b, (0, 0));
    }

    #[test]
    fn fifo_per_pair_across_rounds() {
        let mut endpoints = mesh::<M61>(2);
        thread::scope(|s| {
            let mut it = endpoints.iter_mut();
            let a = it.next().unwrap();
            let b = it.next().unwrap();
            s.spawn(move || {
                for round in 0..10u64 {
                    assert_eq!(a.round(), round);
                    let incoming = a
                        .exchange(vec![vec![], vec![M61::from_u64(round)]])
                        .unwrap()
                        .incoming;
                    assert_eq!(incoming[1], vec![M61::from_u64(round * 100)]);
                }
            });
            s.spawn(move || {
                for round in 0..10u64 {
                    let incoming = b
                        .exchange(vec![vec![M61::from_u64(round * 100)], vec![]])
                        .unwrap()
                        .incoming;
                    assert_eq!(incoming[0], vec![M61::from_u64(round)]);
                }
            });
        });
    }

    #[test]
    fn dropped_peer_yields_disconnected_not_panic() {
        let mut endpoints = mesh::<M61>(2);
        // Dropping party 1's endpoint closes both directions of the 0<->1
        // link: the send may still succeed (unbounded buffer), but the
        // receive must report the disconnect with party and round.
        drop(endpoints.remove(1));
        let err = endpoints[0]
            .exchange(vec![vec![], vec![M61::ONE]])
            .unwrap_err();
        assert_eq!(err, TransportError::Disconnected { party: 1, round: 0 });
    }
}

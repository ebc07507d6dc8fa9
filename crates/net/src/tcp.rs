//! Length-prefixed TCP transport over localhost.
//!
//! One socket per *ordered* party pair (`n * (n-1)` sockets total): the
//! stream accepted from party `i` carries only `i -> me` traffic, so
//! per-link FIFO plus SPMD discipline give the same no-sequence-number
//! guarantee as the in-process channel mesh.
//!
//! ## Framing
//!
//! Every transmission is one outer frame: a 4-byte little-endian length
//! prefix followed by a round-batched [`wire::Frame`] — the element count,
//! the versioned optional [`wire::TraceHeader`] (one byte when absent),
//! and the [`crate::wire`] encoding of the element vector.
//!
//! One frame per (pair, round) carries *all* of that round's elements for
//! the link. Empty payloads still send a (count 0) frame — the lock-step
//! structure needs one frame per (pair, round) — but, like the channel
//! backend, they are excluded from the message/byte accounting, and
//! accounted bytes are the wire-encoded payload only (no frame or trace
//! headers). This is what makes `RunStats` message/byte counts *identical*
//! across backends, and identical with tracing on or off.
//!
//! ## Timeouts and reconnection
//!
//! Mesh construction retries each connection with bounded exponential
//! backoff ([`TcpOptions::connect_retries`], [`TcpOptions::initial_backoff`],
//! [`TcpOptions::max_backoff`]); reads honor [`TcpOptions::read_timeout`]
//! and surface [`TransportError::Timeout`]. EOF and broken pipes surface
//! as [`TransportError::Disconnected`] naming the peer and round.
//!
//! ## Deadlock avoidance
//!
//! All parties write their full round concurrently before reading; if
//! every payload exceeded the kernel socket buffers, blocking writes could
//! deadlock. Each exchange therefore performs its writes on a scoped
//! helper thread while the party thread reads — writes and reads make
//! progress independently, bounded buffers or not.

use std::io::{ErrorKind, Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use sqm_field::PrimeField;
use sqm_obs::metrics;
use sqm_obs::round::LinkWall;

use crate::error::{TransportError, WireError};
use crate::transport::{RoundOutcome, Transport};
use crate::wire::{self, Frame, TraceHeader};

/// Read-side result of one exchange: per-sender payloads, the optional
/// trace header decoded from each frame, and how long each read took.
type ReadHalf<F> = Result<(Vec<Vec<F>>, Vec<Option<TraceHeader>>, Vec<Duration>), TransportError>;

/// Hello preamble: magic, sender id, receiver id (validates pairing).
const HELLO_MAGIC: u32 = 0x5351_4D4E; // "SQMN"

/// Largest payload a frame may announce (1 GiB); guards against allocating
/// on a corrupt length prefix.
const MAX_FRAME_BYTES: usize = 1 << 30;

/// The length prefix of a `len`-byte frame, or the typed refusal when it
/// exceeds [`MAX_FRAME_BYTES`]. Sender and receiver apply the same bound,
/// so a frame the peer would reject as corrupt is never written.
fn frame_len(len: usize, peer: usize, round: u64) -> Result<u32, TransportError> {
    match u32::try_from(len) {
        Ok(prefix) if len <= MAX_FRAME_BYTES => Ok(prefix),
        _ => Err(TransportError::Wire {
            party: peer,
            round,
            source: WireError::OversizedFrame {
                len,
                max: MAX_FRAME_BYTES,
            },
        }),
    }
}

/// Tuning knobs for the loopback TCP backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpOptions {
    /// Per-attempt connection timeout.
    pub connect_timeout: Duration,
    /// Per-payload read timeout; must exceed the longest injected delay
    /// when composed with the fault wrapper.
    pub read_timeout: Duration,
    /// Additional connection attempts after the first (bounded
    /// exponential backoff between attempts).
    pub connect_retries: u32,
    /// Backoff before the first retry; doubled per retry.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Set `TCP_NODELAY` (disable Nagle); keeps small MPC rounds fast.
    pub nodelay: bool,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(10),
            connect_retries: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            nodelay: true,
        }
    }
}

/// One party's sockets into the TCP mesh.
pub struct TcpEndpoint<F: PrimeField> {
    id: usize,
    n: usize,
    round: u64,
    read_timeout: Duration,
    /// `writers[j]` carries `me -> j` traffic (`None` at the self slot).
    writers: Vec<Option<TcpStream>>,
    /// `readers[i]` carries `i -> me` traffic (`None` at the self slot).
    readers: Vec<Option<TcpStream>>,
    _field: PhantomData<F>,
}

fn io_error(party: usize, round: u64, context: &str, e: &std::io::Error) -> TransportError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::Timeout {
            party,
            round,
            after: Duration::ZERO, // filled by callers that know the timeout
        },
        ErrorKind::UnexpectedEof | ErrorKind::BrokenPipe | ErrorKind::ConnectionReset => {
            TransportError::Disconnected { party, round }
        }
        _ => TransportError::Io {
            party,
            round,
            detail: format!("{context}: {e}"),
        },
    }
}

fn write_frame(
    stream: &mut TcpStream,
    payload: &[u8],
    peer: usize,
    round: u64,
) -> Result<(), TransportError> {
    let len = frame_len(payload.len(), peer, round)?;
    stream
        .write_all(&len.to_le_bytes())
        .and_then(|()| stream.write_all(payload))
        .map_err(|e| io_error(peer, round, "write frame", &e))
}

fn read_frame(
    stream: &mut TcpStream,
    peer: usize,
    round: u64,
    read_timeout: Duration,
) -> Result<Bytes, TransportError> {
    let fill_timeout = |err: TransportError| match err {
        TransportError::Timeout { party, round, .. } => TransportError::Timeout {
            party,
            round,
            after: read_timeout,
        },
        other => other,
    };
    let mut header = [0u8; 4];
    stream
        .read_exact(&mut header)
        .map_err(|e| fill_timeout(io_error(peer, round, "read frame header", &e)))?;
    let len = frame_len(u32::from_le_bytes(header) as usize, peer, round)? as usize;
    let mut payload = vec![0u8; len];
    stream
        .read_exact(&mut payload)
        .map_err(|e| fill_timeout(io_error(peer, round, "read frame payload", &e)))?;
    Ok(Bytes::from(payload))
}

/// Connect to `addr` with bounded exponential backoff, recording each
/// reconnect attempt in the metrics registry (`net.tcp.reconnects`).
pub fn connect_with_backoff(
    addr: SocketAddr,
    peer: usize,
    opts: &TcpOptions,
) -> Result<TcpStream, TransportError> {
    let mut backoff = opts.initial_backoff;
    let mut last_err = String::from("no attempt made");
    let attempts = opts.connect_retries.saturating_add(1);
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(opts.max_backoff);
            metrics::counter_add("net.tcp.reconnects", 1);
        }
        match TcpStream::connect_timeout(&addr, opts.connect_timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = e.to_string(),
        }
    }
    Err(TransportError::ConnectFailed {
        party: peer,
        attempts,
        detail: last_err,
    })
}

/// Build a full TCP mesh of `n` endpoints on the loopback interface.
///
/// Runs single-threaded on the caller: each `connect` completes against the
/// peer listener's backlog before the matching `accept` is issued, so the
/// sequential connect-then-accept order cannot deadlock.
pub fn tcp_mesh<F: PrimeField>(
    n: usize,
    opts: &TcpOptions,
) -> Result<Vec<TcpEndpoint<F>>, TransportError> {
    assert!(n >= 1);
    let listeners: Vec<TcpListener> = (0..n)
        .map(|party| {
            TcpListener::bind("127.0.0.1:0").map_err(|e| TransportError::Io {
                party,
                round: 0,
                detail: format!("bind listener: {e}"),
            })
        })
        .collect::<Result<_, _>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .enumerate()
        .map(|(party, l)| {
            l.local_addr().map_err(|e| TransportError::Io {
                party,
                round: 0,
                detail: format!("listener local_addr: {e}"),
            })
        })
        .collect::<Result<_, _>>()?;

    let mut writers: Vec<Vec<Option<TcpStream>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut readers: Vec<Vec<Option<TcpStream>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();

    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            // i dials j.
            let mut out = connect_with_backoff(addrs[j], j, opts)?;
            out.set_nodelay(opts.nodelay)
                .map_err(|e| io_error(j, 0, "set_nodelay", &e))?;
            let mut hello = [0u8; 12];
            hello[0..4].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
            hello[4..8].copy_from_slice(&(i as u32).to_le_bytes());
            hello[8..12].copy_from_slice(&(j as u32).to_le_bytes());
            out.write_all(&hello)
                .map_err(|e| io_error(j, 0, "write hello", &e))?;
            // j accepts and validates the preamble.
            let (mut accepted, _) = listeners[j].accept().map_err(|e| TransportError::Io {
                party: j,
                round: 0,
                detail: format!("accept: {e}"),
            })?;
            let mut got = [0u8; 12];
            accepted
                .read_exact(&mut got)
                .map_err(|e| io_error(i, 0, "read hello", &e))?;
            let magic = u32::from_le_bytes(got[0..4].try_into().unwrap());
            let from = u32::from_le_bytes(got[4..8].try_into().unwrap()) as usize;
            let to = u32::from_le_bytes(got[8..12].try_into().unwrap()) as usize;
            if magic != HELLO_MAGIC || from != i || to != j {
                return Err(TransportError::Io {
                    party: i,
                    round: 0,
                    detail: format!(
                        "bad hello on link {i}->{j}: magic {magic:#x}, from {from}, to {to}"
                    ),
                });
            }
            accepted
                .set_read_timeout(Some(opts.read_timeout))
                .map_err(|e| io_error(i, 0, "set_read_timeout", &e))?;
            writers[i][j] = Some(out);
            readers[j][i] = Some(accepted);
        }
    }

    Ok(writers
        .into_iter()
        .zip(readers)
        .enumerate()
        .map(|(id, (w, r))| TcpEndpoint {
            id,
            n,
            round: 0,
            read_timeout: opts.read_timeout,
            writers: w,
            readers: r,
            _field: PhantomData,
        })
        .collect())
}

impl<F: PrimeField> Transport<F> for TcpEndpoint<F> {
    fn id(&self) -> usize {
        self.id
    }

    fn n_parties(&self) -> usize {
        self.n
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn exchange_stamped(
        &mut self,
        mut outgoing: Vec<Vec<F>>,
        headers: Option<Vec<Option<TraceHeader>>>,
    ) -> Result<RoundOutcome<F>, TransportError> {
        let n = self.n;
        assert_eq!(outgoing.len(), n, "exchange: need one payload per party");
        if let Some(hs) = &headers {
            assert_eq!(hs.len(), n, "exchange: need one header slot per party");
        }
        let id = self.id;
        let round = self.round;
        let read_timeout = self.read_timeout;

        // Encode everything up front; account only real messages, and only
        // their element bytes — the trace header and frame prefixes ride
        // inside the frame but never enter the byte accounting.
        let mut messages = 0u64;
        let mut bytes = 0u64;
        let mut elems = 0u64;
        let loopback = std::mem::take(&mut outgoing[id]);
        let loopback_header = headers.as_ref().and_then(|hs| hs[id]);
        let frames: Vec<Option<Bytes>> = outgoing
            .iter()
            .enumerate()
            .map(|(j, payload)| {
                if j == id {
                    return None;
                }
                if !payload.is_empty() {
                    messages += 1;
                    bytes += wire::encoded_len::<F>(payload.len());
                    elems += payload.len() as u64;
                }
                let header = headers.as_ref().and_then(|hs| hs[j]);
                Some(Frame::<F>::encode(payload, header.as_ref()))
            })
            .collect();
        let writers = &mut self.writers;
        let readers = &mut self.readers;
        // Each link's send and receive are timed unconditionally (two clock
        // reads apiece): the endpoint cannot know whether the run's
        // observers want them, and the round's outcome is where they look.
        let (write_result, read_result) = std::thread::scope(|s| {
            let writer = s.spawn(move || -> Result<Vec<Duration>, TransportError> {
                let mut walls = vec![Duration::ZERO; n];
                for (j, frame) in frames.iter().enumerate() {
                    let Some(frame) = frame else { continue };
                    let stream = writers[j].as_mut().expect("writer socket present");
                    let t0 = Instant::now();
                    write_frame(stream, frame.as_ref(), j, round)?;
                    walls[j] = t0.elapsed();
                }
                Ok(walls)
            });
            let read = (|| -> ReadHalf<F> {
                let mut incoming: Vec<Vec<F>> = (0..n).map(|_| Vec::new()).collect();
                let mut in_headers: Vec<Option<TraceHeader>> = vec![None; n];
                let mut walls = vec![Duration::ZERO; n];
                for (i, reader) in readers.iter_mut().enumerate() {
                    let Some(stream) = reader.as_mut() else {
                        continue;
                    };
                    let t0 = Instant::now();
                    let wire_err = |source| TransportError::Wire {
                        party: i,
                        round,
                        source,
                    };
                    let raw = read_frame(stream, i, round, read_timeout)?;
                    let frame = Frame::<F>::decode(raw).map_err(wire_err)?;
                    in_headers[i] = frame.header;
                    incoming[i] = frame.elements;
                    walls[i] = t0.elapsed();
                }
                Ok((incoming, in_headers, walls))
            })();
            (writer.join().expect("tcp writer thread panicked"), read)
        });

        // Prefer the read-side error: it attributes the failure to the peer
        // whose data never arrived, which is the actionable diagnosis.
        let (mut incoming, mut in_headers, recv_walls) = read_result?;
        let send_walls = write_result?;
        incoming[id] = loopback;
        in_headers[id] = loopback_header;

        self.round += 1;
        Ok(RoundOutcome {
            incoming,
            headers: in_headers,
            messages,
            bytes,
            elems,
            events: Vec::new(),
            link_walls: (0..n)
                .filter(|&peer| peer != id)
                .map(|peer| LinkWall {
                    peer,
                    send: send_walls[peer],
                    recv: recv_walls[peer],
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqm_field::{M127, M61};
    use std::thread;

    #[test]
    fn tcp_mesh_routes_and_counts_like_channel() {
        let mut eps = tcp_mesh::<M61>(3, &TcpOptions::default()).unwrap();
        let results: Vec<(Vec<Vec<M61>>, u64, u64)> = thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter_mut()
                .map(|ep| {
                    s.spawn(move || {
                        let id = Transport::<M61>::id(ep);
                        let out: Vec<Vec<M61>> = (0..3)
                            .map(|j| {
                                if j == 2 {
                                    vec![] // party 2 gets a non-message
                                } else {
                                    vec![M61::from_u64((10 * id + j) as u64); 4]
                                }
                            })
                            .collect();
                        let o = ep.exchange(out).unwrap();
                        (o.incoming, o.messages, o.bytes)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (j, (incoming, messages, bytes)) in results.iter().enumerate() {
            // Every party sent 4-element payloads to parties 0 and 1 only.
            for (i, payload) in incoming.iter().enumerate() {
                if j == 2 {
                    assert!(payload.is_empty(), "party 2 expects non-messages");
                } else {
                    assert_eq!(payload, &vec![M61::from_u64((10 * i + j) as u64); 4]);
                }
            }
            // Sender-side accounting: each party sends to {0,1} \ {self}.
            let real_destinations = [0usize, 1].iter().filter(|&&d| d != j).count() as u64;
            assert_eq!(*messages, real_destinations);
            assert_eq!(*bytes, real_destinations * 4 * 8);
        }
    }

    #[test]
    fn tcp_roundtrips_m127_and_preserves_fifo() {
        let mut eps = tcp_mesh::<M127>(2, &TcpOptions::default()).unwrap();
        thread::scope(|s| {
            let mut it = eps.iter_mut();
            let a = it.next().unwrap();
            let b = it.next().unwrap();
            s.spawn(move || {
                for round in 0..5u64 {
                    let v = M127::from_u128(u128::from(round) << 80);
                    let incoming = a.exchange(vec![vec![], vec![v]]).unwrap().incoming;
                    assert_eq!(incoming[1], vec![M127::from_u128(round as u128 + 1)]);
                }
            });
            s.spawn(move || {
                for round in 0..5u64 {
                    let incoming = b
                        .exchange(vec![vec![M127::from_u128(round as u128 + 1)], vec![]])
                        .unwrap()
                        .incoming;
                    assert_eq!(incoming[0], vec![M127::from_u128(u128::from(round) << 80)]);
                }
            });
        });
    }

    #[test]
    fn trace_headers_cross_the_socket() {
        let mut eps = tcp_mesh::<M61>(2, &TcpOptions::default()).unwrap();
        let results: Vec<RoundOutcome<M61>> = thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter_mut()
                .map(|ep| {
                    s.spawn(move || {
                        let id = Transport::<M61>::id(ep);
                        let headers: Vec<Option<TraceHeader>> = (0..2)
                            .map(|j| {
                                (j != id).then_some(TraceHeader {
                                    run_id: 11,
                                    party: id as u32,
                                    round: 0,
                                    link_seq: 3,
                                    lamport: 10 + id as u64,
                                })
                            })
                            .collect();
                        ep.exchange_stamped(vec![vec![M61::ONE]; 2], Some(headers))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (me, out) in results.iter().enumerate() {
            let peer = 1 - me;
            let h = out.headers[peer].expect("peer header over tcp");
            assert_eq!(h.run_id, 11);
            assert_eq!(h.party, peer as u32);
            assert_eq!(h.link_seq, 3);
            assert_eq!(h.lamport, 10 + peer as u64);
            assert_eq!(out.headers[me], None);
            // Header bytes never enter the accounting.
            assert_eq!(out.bytes, 8);
        }
    }

    #[test]
    fn oversized_frame_is_refused_with_the_same_typed_error_on_both_sides() {
        assert_eq!(frame_len(MAX_FRAME_BYTES, 1, 0), Ok(1 << 30));
        // One byte over the receiver's bound, and a length no u32 prefix
        // can carry: the sender refuses both before writing anything.
        let too_long = (u32::MAX as usize).saturating_add(1);
        for len in [MAX_FRAME_BYTES + 1, too_long] {
            assert_eq!(
                frame_len(len, 2, 7),
                Err(TransportError::Wire {
                    party: 2,
                    round: 7,
                    source: WireError::OversizedFrame {
                        len,
                        max: MAX_FRAME_BYTES
                    },
                })
            );
        }
    }

    #[test]
    fn dropped_tcp_peer_yields_disconnected() {
        let mut eps = tcp_mesh::<M61>(2, &TcpOptions::default()).unwrap();
        drop(eps.remove(1));
        let err = eps[0].exchange(vec![vec![], vec![M61::ONE]]).unwrap_err();
        assert_eq!(err.party(), 1);
        assert!(
            matches!(err, TransportError::Disconnected { .. }),
            "expected Disconnected, got {err:?}"
        );
    }

    #[test]
    fn read_timeout_names_party_and_round() {
        let opts = TcpOptions {
            read_timeout: Duration::from_millis(50),
            ..TcpOptions::default()
        };
        let mut eps = tcp_mesh::<M61>(2, &opts).unwrap();
        let silent = eps.remove(1);
        // Party 0 exchanges; party 1 never sends, so the read times out.
        let err = eps[0].exchange(vec![vec![], vec![M61::ONE]]).unwrap_err();
        match err {
            TransportError::Timeout {
                party,
                round,
                after,
            } => {
                assert_eq!(party, 1);
                assert_eq!(round, 0);
                assert_eq!(after, Duration::from_millis(50));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        // Keep party 1's endpoint alive until after the timeout fired.
        drop(silent);
    }

    #[test]
    fn per_link_walls_reported_in_the_round_outcome() {
        let mut eps = tcp_mesh::<M61>(3, &TcpOptions::default()).unwrap();
        let outcomes: Vec<RoundOutcome<M61>> = thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter_mut()
                .map(|ep| {
                    s.spawn(move || {
                        let id = Transport::<M61>::id(ep);
                        let out: Vec<Vec<M61>> = (0..3)
                            .map(|j| {
                                if j == id {
                                    vec![]
                                } else {
                                    vec![M61::from_u64(7); 3]
                                }
                            })
                            .collect();
                        ep.exchange(out).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // One entry per directed link out of (and into) each party, with no
        // observer attached and the metrics registry off.
        for (me, outcome) in outcomes.iter().enumerate() {
            let peers: Vec<usize> = outcome.link_walls.iter().map(|l| l.peer).collect();
            let want: Vec<usize> = (0..3).filter(|&p| p != me).collect();
            assert_eq!(peers, want, "party {me}");
            for l in &outcome.link_walls {
                assert!(l.send > Duration::ZERO, "{me}->{}: no send wall", l.peer);
                assert!(l.recv > Duration::ZERO, "{}->{me}: no recv wall", l.peer);
            }
            assert!(outcome.events.is_empty());
        }
    }

    #[test]
    fn connect_backoff_gives_typed_error_on_dead_port() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let opts = TcpOptions {
            connect_timeout: Duration::from_millis(100),
            connect_retries: 2,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..TcpOptions::default()
        };
        let err = connect_with_backoff(addr, 3, &opts).unwrap_err();
        match err {
            TransportError::ConnectFailed {
                party, attempts, ..
            } => {
                assert_eq!(party, 3);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected ConnectFailed, got {other:?}"),
        }
    }
}

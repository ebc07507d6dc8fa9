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
//! prefix followed by a round-batched [`wire::Frame`] — the element count
//! and the [`crate::wire`] encoding of the element vector, nothing else:
//! `[u32 length][u32 count][elements]`. Prefix and
//! frame leave in one write; the receiver reads each link through a
//! buffered reader and grows a frame's buffer only as its bytes arrive,
//! so a corrupt or hostile length prefix costs no more memory than the
//! bytes the peer actually sends.
//!
//! One frame per (pair, round) carries *all* of that round's elements for
//! the link. Empty payloads still send a (count 0) frame — the lock-step
//! structure needs one frame per (pair, round) — but, like the channel
//! backend, they are excluded from the message/byte accounting, and
//! accounted bytes are the wire-encoded payload only (no length or count
//! prefixes). This is what makes `RunStats` message/byte counts *identical*
//! across backends.
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
//! deadlock. Each endpoint therefore owns one resident writer thread,
//! spawned at mesh build and holding the endpoint's `n - 1` outgoing
//! sockets for the mesh's life. An exchange hands the round's encoded
//! frames to it over a channel, reads its `n - 1` incoming frames on the
//! party thread, then takes back the writer's per-link send walls — writes
//! and reads make progress independently, bounded buffers or not, and no
//! round spawns a thread. A failed read returns at once without waiting
//! on the writer. Dropping the endpoint shuts its outgoing sockets down,
//! so a writer blocked on a peer that stopped reading fails instead of
//! hanging, and then joins the thread.

use std::io::{BufReader, ErrorKind, IoSlice, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use sqm_field::PrimeField;
use sqm_obs::metrics;
use sqm_obs::round::LinkWall;

use crate::error::{TransportError, WireError};
use crate::transport::{RoundOutcome, Transport};
use crate::wire::{self, Frame};

/// Hello preamble: magic, sender id, receiver id (validates pairing).
const HELLO_MAGIC: u32 = 0x5351_4D4E; // "SQMN"

/// Largest payload a frame may announce (1 GiB); a frame past it is
/// refused before anything is written or read.
const MAX_FRAME_BYTES: usize = 1 << 30;

/// Most a read reserves ahead of the bytes that have arrived: frames up to
/// this size get their exact buffer at once, longer ones grow with the data.
const READ_RESERVE: usize = 64 << 10;

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
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(10),
            connect_retries: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// One party's sockets into the TCP mesh.
pub struct TcpEndpoint<F: PrimeField> {
    id: usize,
    n: usize,
    round: u64,
    read_timeout: Duration,
    /// The thread that owns the `me -> j` sockets; `None` only once dropped.
    writer: Option<Writer>,
    /// `readers[i]` carries `i -> me` traffic (`None` at the self slot).
    readers: Vec<Option<BufReader<TcpStream>>>,
    _field: PhantomData<F>,
}

/// One round's work for the resident writer: `frames[j]` goes to party `j`
/// with its checked length prefix (`None` at the self slot), and `walls`
/// comes back with one send wall per link.
struct Job {
    round: u64,
    frames: Vec<Option<(u32, Bytes)>>,
    walls: Vec<Duration>,
}

/// The writer's answer for one round: the send walls, or the first failed
/// write.
type Sent = (u64, Result<Vec<Duration>, TransportError>);

/// An endpoint's resident writer thread and what it takes to stop it.
struct Writer {
    jobs: SyncSender<Job>,
    sent: Receiver<Sent>,
    /// Handles on the writer's own sockets, kept to unblock it at shutdown.
    sockets: Vec<TcpStream>,
    thread: JoinHandle<()>,
}

impl Writer {
    /// Start the writer of party `id`, handing it the outgoing sockets.
    fn spawn(id: usize, streams: Vec<Option<TcpStream>>) -> std::io::Result<Writer> {
        let sockets = streams
            .iter()
            .flatten()
            .map(TcpStream::try_clone)
            .collect::<std::io::Result<_>>()?;
        let (jobs, job_rx) = sync_channel(1);
        let (sent_tx, sent) = sync_channel(1);
        let thread = std::thread::Builder::new()
            .name(format!("sqm-tcp-writer-{id}"))
            .spawn(move || write_loop(streams, job_rx, sent_tx))?;
        Ok(Writer {
            jobs,
            sent,
            sockets,
            thread,
        })
    }

    /// The send walls of `round`, skipping the answer to any earlier round
    /// whose exchange gave up on a failed read.
    fn sent(&self, round: u64, party: usize) -> Result<Vec<Duration>, TransportError> {
        loop {
            match self.sent.recv() {
                Ok((r, result)) if r == round => return result,
                Ok(_) => continue,
                Err(_) => return Err(writer_gone(party, round)),
            }
        }
    }

    /// Shut every outgoing socket down, so a write stuck on a full socket
    /// fails, and close both channels, so the thread ends; the caller joins
    /// the returned handle.
    fn shut_down(self) -> JoinHandle<()> {
        for socket in &self.sockets {
            let _ = socket.shutdown(Shutdown::Both);
        }
        self.thread
    }
}

fn writer_gone(party: usize, round: u64) -> TransportError {
    TransportError::Io {
        party,
        round,
        detail: "tcp writer thread exited".into(),
    }
}

/// The resident writer's body: one job per round, until the endpoint
/// closes the channels. It allocates nothing of its own.
fn write_loop(mut streams: Vec<Option<TcpStream>>, jobs: Receiver<Job>, sent: SyncSender<Sent>) {
    for mut job in jobs {
        let result = write_round(&mut streams, &mut job);
        if sent.send((job.round, result.map(|()| job.walls))).is_err() {
            return;
        }
    }
}

/// Send each of `job`'s frames, timing each link; stops at the first
/// failed write.
fn write_round(streams: &mut [Option<TcpStream>], job: &mut Job) -> Result<(), TransportError> {
    for (j, frame) in job.frames.iter().enumerate() {
        let Some((prefix, frame)) = frame else {
            continue;
        };
        let stream = streams[j].as_mut().expect("writer socket present");
        let t0 = Instant::now();
        write_frame(stream, *prefix, frame.as_ref())
            .map_err(|e| io_error(j, job.round, "write frame", &e))?;
        job.walls[j] = t0.elapsed();
    }
    Ok(())
}

/// Send the length prefix and `frame` as one gathered write, with no copy;
/// only a socket that takes part of it costs a further write.
fn write_frame(stream: &mut TcpStream, prefix: u32, frame: &[u8]) -> std::io::Result<()> {
    let prefix = prefix.to_le_bytes();
    let mut parts = [IoSlice::new(&prefix), IoSlice::new(frame)];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(sent) => IoSlice::advance_slices(&mut rest, sent),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl<F: PrimeField> Drop for TcpEndpoint<F> {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            // A write error already went to the exchange that asked for
            // it; a drop has nothing left to report.
            let _ = writer.shut_down().join();
        }
    }
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

fn read_frame(
    stream: &mut BufReader<TcpStream>,
    peer: usize,
    round: u64,
    read_timeout: Duration,
) -> Result<Bytes, TransportError> {
    let fail = |context: &str, e: std::io::Error| match io_error(peer, round, context, &e) {
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
        .map_err(|e| fail("read frame header", e))?;
    let len = frame_len(u32::from_le_bytes(header) as usize, peer, round)? as usize;
    let mut payload = Vec::with_capacity(len.min(READ_RESERVE));
    stream
        .by_ref()
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| fail("read frame payload", e))?;
    if payload.len() < len {
        return Err(TransportError::Disconnected { party: peer, round });
    }
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
            // Disable Nagle: small MPC rounds must not wait on a timer.
            out.set_nodelay(true)
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

    writers
        .into_iter()
        .zip(readers)
        .enumerate()
        .map(|(id, (w, r))| {
            let writer = Writer::spawn(id, w).map_err(|e| TransportError::Io {
                party: id,
                round: 0,
                detail: format!("spawn writer: {e}"),
            })?;
            Ok(TcpEndpoint {
                id,
                n,
                round: 0,
                read_timeout: opts.read_timeout,
                writer: Some(writer),
                readers: r.into_iter().map(|s| s.map(BufReader::new)).collect(),
                _field: PhantomData,
            })
        })
        .collect()
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

    fn exchange(&mut self, mut outgoing: Vec<Vec<F>>) -> Result<RoundOutcome<F>, TransportError> {
        let n = self.n;
        assert_eq!(outgoing.len(), n, "exchange: need one payload per party");
        let id = self.id;
        let round = self.round;

        // Encode everything up front; account only real messages, and only
        // their element bytes — the length and count prefixes never enter
        // the byte accounting. A frame past the size bound is refused before
        // any frame is written.
        let mut messages = 0u64;
        let mut bytes = 0u64;
        let mut elems = 0u64;
        let loopback = std::mem::take(&mut outgoing[id]);
        let mut frames = Vec::with_capacity(n);
        for (j, payload) in outgoing.iter().enumerate() {
            if j == id {
                frames.push(None);
                continue;
            }
            if !payload.is_empty() {
                messages += 1;
                bytes += wire::encoded_len::<F>(payload.len());
                elems += payload.len() as u64;
            }
            let frame = Frame::<F>::encode(payload, None);
            frames.push(Some((frame_len(frame.len(), j, round)?, frame)));
        }
        let writer = self.writer.as_ref().expect("writer lives until drop");
        writer
            .jobs
            .send(Job {
                round,
                frames,
                walls: vec![Duration::ZERO; n],
            })
            .map_err(|_| writer_gone(id, round))?;

        // Each link's send and receive are timed unconditionally (two clock
        // reads apiece): the endpoint cannot know whether the run's
        // observers want them, and the round's outcome is where they look.
        // A failed read is the actionable diagnosis — it names the peer
        // whose data never arrived — so it returns without the writer.
        let mut incoming: Vec<Vec<F>> = (0..n).map(|_| Vec::new()).collect();
        let mut recv_walls = vec![Duration::ZERO; n];
        for (i, reader) in self.readers.iter_mut().enumerate() {
            let Some(stream) = reader.as_mut() else {
                continue;
            };
            let t0 = Instant::now();
            let raw = read_frame(stream, i, round, self.read_timeout)?;
            incoming[i] = Frame::<F>::decode(raw).map_err(|source| TransportError::Wire {
                party: i,
                round,
                source,
            })?;
            recv_walls[i] = t0.elapsed();
        }
        let send_walls = writer.sent(round, id)?;
        incoming[id] = loopback;

        self.round += 1;
        Ok(RoundOutcome {
            incoming,
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

    /// Wait up to `limit` for `thread` to end, then join it.
    fn join_within(thread: JoinHandle<()>, limit: Duration) {
        let deadline = Instant::now() + limit;
        while !thread.is_finished() {
            assert!(Instant::now() < deadline, "writer thread still running");
            thread::sleep(Duration::from_millis(1));
        }
        thread.join().expect("writer thread ended cleanly");
    }

    /// Drop `endpoint` on a helper thread and fail unless that returns
    /// within `limit`: a drop that hangs fails the test instead of the run.
    fn drop_within(endpoint: TcpEndpoint<M61>, limit: Duration) {
        let (dropped, done) = std::sync::mpsc::channel();
        thread::spawn(move || {
            drop(endpoint);
            dropped.send(()).unwrap();
        });
        done.recv_timeout(limit)
            .expect("dropping the endpoint hung on its blocked writer");
    }

    /// A two-party mesh whose party 0 has sent a 16 MiB frame to a party 1
    /// that never reads, and has given up on party 1's frame after a
    /// 100 ms read timeout: party 0's writer is left blocked on a full
    /// socket.
    fn blocked_writer() -> (TcpEndpoint<M61>, TcpEndpoint<M61>, TransportError, Duration) {
        let opts = TcpOptions {
            read_timeout: Duration::from_millis(100),
            ..TcpOptions::default()
        };
        let mut eps = tcp_mesh::<M61>(2, &opts).unwrap();
        let quiet = eps.pop().unwrap();
        let mut blocked = eps.pop().unwrap();
        let big = vec![M61::ONE; (16 << 20) / 8];
        let start = Instant::now();
        let err = blocked.exchange(vec![vec![], big]).unwrap_err();
        (blocked, quiet, err, start.elapsed())
    }

    #[test]
    fn read_timeout_surfaces_while_the_writer_is_blocked() {
        let (blocked, quiet, err, took) = blocked_writer();
        assert_eq!(
            err,
            TransportError::Timeout {
                party: 1,
                round: 0,
                after: Duration::from_millis(100)
            }
        );
        assert!(took < Duration::from_secs(5), "exchange hung for {took:?}");
        drop_within(blocked, Duration::from_secs(2));
        drop(quiet);
    }

    #[test]
    fn dropping_an_endpoint_unblocks_its_writer_and_the_peer_reads_disconnected() {
        let (blocked, mut quiet, _, _) = blocked_writer();
        drop_within(blocked, Duration::from_secs(2));
        // Party 1 reads what reached its socket of the 16 MiB frame, then
        // the end of the stream.
        let err = quiet.exchange(vec![vec![M61::ONE], vec![]]).unwrap_err();
        assert_eq!(err, TransportError::Disconnected { party: 0, round: 0 });
    }

    #[test]
    fn a_reused_mesh_leaves_no_writer_thread_behind() {
        let mut eps = tcp_mesh::<M61>(3, &TcpOptions::default()).unwrap();
        thread::scope(|s| {
            for ep in eps.iter_mut() {
                s.spawn(move || {
                    for round in 0..50u64 {
                        let out = vec![vec![M61::from_u64(round); 2]; 3];
                        let incoming = ep.exchange(out).unwrap().incoming;
                        assert!(incoming.iter().all(|v| v[..] == [M61::from_u64(round); 2]));
                    }
                });
            }
        });
        let threads: Vec<JoinHandle<()>> = eps
            .iter_mut()
            .map(|ep| ep.writer.take().expect("writer").shut_down())
            .collect();
        drop(eps);
        for thread in threads {
            join_within(thread, Duration::from_secs(2));
        }
    }

    #[test]
    fn a_frame_announced_but_not_sent_is_disconnected_not_allocated() {
        // A hand-rolled peer announces a 1 GiB frame, sends 16 bytes and
        // closes; the reader holds what arrived, not what was announced.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        peer.write_all(&(MAX_FRAME_BYTES as u32).to_le_bytes())
            .unwrap();
        peer.write_all(&[7u8; 16]).unwrap();
        drop(peer);
        let mut reader = BufReader::new(accepted);
        let err = read_frame(&mut reader, 1, 4, Duration::from_secs(1)).unwrap_err();
        assert_eq!(err, TransportError::Disconnected { party: 1, round: 4 });
    }
}

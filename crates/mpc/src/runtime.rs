//! The party runtime the engine stands on: the only place a party thread
//! is spawned ([`run_parties`]) and the only place a round is exchanged and
//! reported ([`PartyLink::exchange`]).
//!
//! [`crate::engine`] decides *what* goes into a round's payloads and what
//! to do with the ones that come back; the [`PartyLink`] moves them,
//! accounts for them in its `PartyStats`, and hands the run's observers
//! (`sqm_obs::round`) one `RoundEvent` per round. Which observers exist —
//! trace and causal stamps, a live collector, a cost profiler — is the
//! run's config, not process state; this module names none of them.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use sqm_field::PrimeField;
use sqm_net::transport::Transport;
use sqm_net::{TraceHeader, TransportError};
use sqm_obs::round::{PartyObserver, RoundEvent, RunObserver};
use sqm_obs::trace::{MsgStamp, DEFAULT_EVENT_CAP};

use crate::engine::{MpcConfig, MpcRun, RunOnMesh};
use crate::stats::{merge, PartyStats};

/// Unwind payload a party thread aborts with when its transport fails.
/// [`run_parties`] catches it and converts it back into the typed
/// [`TransportError`]; every other panic payload is propagated unchanged.
struct PartyAbort(TransportError);

/// Rank errors for reporting when several parties fail at once: the root
/// cause (a crash, an exhausted retransmit budget) outranks the secondary
/// disconnects the survivors observe.
fn error_priority(e: &TransportError) -> u8 {
    match e {
        TransportError::Crashed { .. } => 6,
        TransportError::RetransmitExhausted { .. } => 5,
        TransportError::Wire { .. } => 4,
        TransportError::ConnectFailed { .. } => 3,
        TransportError::Timeout { .. } => 2,
        TransportError::Io { .. } => 1,
        TransportError::Disconnected { .. } => 0,
    }
}

/// One party's connection to the run: its mesh endpoint, its accounting,
/// the phase rounds and wall time are charged to, and its observers.
pub(crate) struct PartyLink<F: PrimeField> {
    endpoint: Box<dyn Transport<F>>,
    stats: PartyStats,
    observer: PartyObserver,
    phase: String,
    phase_started: Instant,
}

impl<F: PrimeField> PartyLink<F> {
    fn new(endpoint: Box<dyn Transport<F>>, observer: PartyObserver) -> Self {
        PartyLink {
            endpoint,
            stats: PartyStats::default(),
            observer,
            phase: "default".to_string(),
            phase_started: Instant::now(),
        }
    }

    /// This party's index in the mesh.
    pub(crate) fn id(&self) -> usize {
        self.endpoint.id()
    }

    /// Index of this party's next round; continues across runs on a reused
    /// mesh.
    pub(crate) fn round(&self) -> u64 {
        self.endpoint.round()
    }

    /// The accounting phase rounds and wall time are currently charged to.
    pub(crate) fn phase(&self) -> &str {
        &self.phase
    }

    /// This party's observers (the protocol layers' cost hooks ask them
    /// for the run's profiler).
    pub(crate) fn observer(&self) -> &PartyObserver {
        &self.observer
    }

    /// Switch accounting to a named phase (e.g. `"dp_noise"`). Wall time and
    /// rounds accrued so far are attributed to the previous phase.
    pub(crate) fn set_phase(&mut self, name: &str) {
        self.flush_phase();
        self.phase = name.to_string();
        self.observer.set_phase(name);
    }

    fn flush_phase(&mut self) {
        // One measurement feeds both the accounting and the trace, so a
        // merged trace reproduces RunStats::simulated_time() exactly.
        let elapsed = self.phase_started.elapsed();
        self.stats.record_wall(&self.phase, elapsed);
        self.observer.flush_phase(elapsed);
        self.phase_started = Instant::now();
    }

    /// One synchronous round: ship `outgoing[j]` to every party `j`, return
    /// what every party shipped here, and report the round. A transport
    /// failure unwinds out of the SPMD program with the typed error;
    /// [`run_parties`] turns it back into `Err`.
    pub(crate) fn exchange(&mut self, outgoing: Vec<Vec<F>>) -> Vec<Vec<F>> {
        let me = self.endpoint.id();
        // The round index, read before the exchange bumps it.
        let round = self.endpoint.round();
        // The wall clock is read only for an observer that reports it.
        let started = self.observer.wants_wall().then(Instant::now);
        // Traced runs stamp every real outgoing payload; the header travels
        // out-of-band of the byte accounting.
        let dests = (0..outgoing.len()).filter(|&j| j != me && !outgoing[j].is_empty());
        let stamps = self.observer.stamp_sends(round, dests);
        let headers = stamps.map(|(run_id, sends)| headers_of(sends, outgoing.len(), run_id, me));
        let wall_send = headers.is_some().then(|| self.phase_started.elapsed());
        let outcome = match self.endpoint.exchange_stamped(outgoing, headers) {
            Ok(outcome) => outcome,
            // `resume_unwind` does not run the panic hook: this is a
            // controlled error return, not a bug to report on stderr.
            Err(e) => panic::resume_unwind(Box::new(PartyAbort(e))),
        };
        let wall = started.map(|t0| t0.elapsed()).unwrap_or_default();
        let (messages, bytes, elems) = (outcome.messages, outcome.bytes, outcome.elems);
        self.stats.record_round(&self.phase, messages, bytes, elems);
        if let Some(wall_send) = wall_send {
            let recvs = stamps_of(&outcome.headers, me);
            let wall_recv = self.phase_started.elapsed();
            self.observer.merge_recvs(recvs, wall_send, wall_recv);
        }
        self.observer.round(RoundEvent {
            party: me,
            round,
            phase: &self.phase,
            messages,
            bytes,
            elems,
            wall,
            net_events: outcome.events,
            link_walls: outcome.link_walls,
        });
        outcome.incoming
    }
}

/// The wire form of this party's send stamps: one header slot per party,
/// filled where a stamp names the peer.
fn headers_of(sends: &[MsgStamp], n: usize, run_id: u64, party: usize) -> Vec<Option<TraceHeader>> {
    let mut headers = vec![None; n];
    for s in sends {
        headers[s.peer] = Some(TraceHeader {
            run_id,
            party: party as u32,
            round: s.round,
            link_seq: s.link_seq,
            lamport: s.lamport,
        });
    }
    headers
}

/// The stamps the peers put on what `me` received.
fn stamps_of(headers: &[Option<TraceHeader>], me: usize) -> Vec<MsgStamp> {
    let peers = headers.iter().enumerate().filter(|&(i, _)| i != me);
    peers
        .filter_map(|(peer, h)| {
            h.map(|h| MsgStamp {
                peer,
                link_seq: h.link_seq,
                lamport: h.lamport,
                round: h.round,
            })
        })
        .collect()
}

/// Run one party program per endpoint, each on its own thread, and merge
/// what they return.
///
/// `party` receives the thread's [`PartyLink`], wraps it in the engine's
/// protocol context, runs the SPMD program against that and hands the link
/// back with the program's output. On success the endpoints are returned
/// for the next run to reuse; on a transport error they are consumed (the
/// mesh is in an undefined round state) and the most diagnostic of the
/// parties' errors is the `Err`. Any other panic in a party program
/// propagates as `"party thread panicked"`.
pub(crate) fn run_parties<F, T>(
    config: &MpcConfig,
    endpoints: Vec<Box<dyn Transport<F>>>,
    party: impl Fn(PartyLink<F>) -> (T, PartyLink<F>) + Sync,
) -> Result<RunOnMesh<F, T>, TransportError>
where
    F: PrimeField,
    T: Send,
{
    let n = config.n_parties;
    assert_eq!(
        endpoints.len(),
        n,
        "endpoint mesh size must match config.n_parties"
    );
    // Dropped unfinished — a party-thread panic unwinding past the join
    // below — the observer records the run as failed.
    let observers = RunObserver::begin(
        n,
        config.seed,
        config.latency,
        config
            .trace
            .then(|| config.trace_event_cap.unwrap_or(DEFAULT_EVENT_CAP)),
        config.live.clone(),
        config.prof.clone(),
    );
    let party = &party;
    let results: Vec<Result<(T, PartyLink<F>), TransportError>> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|endpoint| {
                let observer = observers.party(endpoint.id());
                s.spawn(move || {
                    let link = PartyLink::new(endpoint, observer);
                    // A transport failure aborts the program mid-round via a
                    // PartyAbort unwind; catch it here and surface the typed
                    // error. The unwind drops the link and with it this
                    // party's endpoint, which unblocks any peer waiting on it.
                    match panic::catch_unwind(AssertUnwindSafe(|| party(link))) {
                        Ok((out, mut link)) => {
                            link.flush_phase();
                            Ok((out, link))
                        }
                        Err(payload) => match payload.downcast::<PartyAbort>() {
                            Ok(abort) => Err(abort.0),
                            Err(other) => panic::resume_unwind(other),
                        },
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party thread panicked"))
            .collect()
    });

    let mut outputs = Vec::with_capacity(n);
    let mut stats = Vec::with_capacity(n);
    let mut party_traces = Vec::with_capacity(n);
    let mut mesh = Vec::with_capacity(n);
    let mut errors = Vec::new();
    for result in results {
        match result {
            Ok((out, link)) => {
                let sent = &link.stats.total;
                party_traces.extend(link.observer.finish(sent.messages, sent.bytes));
                outputs.push(out);
                stats.push(link.stats);
                mesh.push(link.endpoint);
            }
            Err(e) => errors.push(e),
        }
    }
    if let Some(err) = errors.into_iter().max_by_key(error_priority) {
        observers.fail(err.kind(), err.party(), err.round());
        return Err(err);
    }
    let trace = observers.finish(party_traces);
    let run = MpcRun {
        outputs,
        stats: merge(stats, config.latency),
        trace,
    };
    Ok((run, mesh))
}

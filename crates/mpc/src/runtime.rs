//! The party runtime the engine stands on: the only place a party thread
//! is spawned ([`run_parties`]) and the only place a round is exchanged and
//! reported ([`PartyLink::exchange`]).
//!
//! [`crate::engine`] decides *what* goes into a round's payloads and what
//! to do with the ones that come back; the [`PartyLink`] moves them and
//! hands each round to the party's observer (`sqm_obs::round`), which
//! charges it to the party's one tally and reports it to whatever the
//! run's config attached — trace and causal stamps, a live collector, a
//! cost profiler. This module names none of them and keeps no tally.

use std::panic::{self, AssertUnwindSafe};

use sqm_field::PrimeField;
use sqm_net::transport::Transport;
use sqm_net::{TraceHeader, TransportError};
use sqm_obs::round::{PartyObserver, RunObserver};
use sqm_obs::trace::MsgStamp;

use crate::engine::{MpcConfig, MpcRun, RunOnMesh};

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

/// One party's connection to the run: its mesh endpoint and its observer,
/// which owns the phase its rounds and wall time are charged to.
pub(crate) struct PartyLink<F: PrimeField> {
    endpoint: Box<dyn Transport<F>>,
    observer: PartyObserver,
}

impl<F: PrimeField> PartyLink<F> {
    /// This party's index in the mesh.
    pub(crate) fn id(&self) -> usize {
        self.endpoint.id()
    }

    /// Index of this party's next round; continues across runs on a reused
    /// mesh.
    pub(crate) fn round(&self) -> u64 {
        self.endpoint.round()
    }

    /// This party's observer (the protocol layers' cost hooks ask it for
    /// the run's profiler and the current phase).
    pub(crate) fn observer(&self) -> &PartyObserver {
        &self.observer
    }

    /// Switch accounting to a named phase (e.g. `"dp_noise"`). Wall time and
    /// rounds accrued so far are attributed to the previous phase.
    pub(crate) fn set_phase(&mut self, name: &str) {
        self.observer.set_phase(name);
    }

    /// One synchronous round: ship `outgoing[j]` to every party `j`, return
    /// what every party shipped here, and report the round. A transport
    /// failure unwinds out of the SPMD program with the typed error;
    /// [`run_parties`] turns it back into `Err`.
    pub(crate) fn exchange(&mut self, outgoing: Vec<Vec<F>>) -> Vec<Vec<F>> {
        let me = self.endpoint.id();
        // The round index, read before the exchange bumps it.
        let round = self.endpoint.round();
        // Traced runs stamp every real outgoing payload; the header travels
        // out-of-band of the byte accounting.
        let dests = (0..outgoing.len()).filter(|&j| j != me && !outgoing[j].is_empty());
        let stamps = self.observer.send(round, dests);
        let headers = stamps.map(|(run_id, sends)| headers_of(sends, outgoing.len(), run_id, me));
        let outcome = match self.endpoint.exchange_stamped(outgoing, headers) {
            Ok(outcome) => outcome,
            // `resume_unwind` does not run the panic hook: this is a
            // controlled error return, not a bug to report on stderr.
            Err(e) => panic::resume_unwind(Box::new(PartyAbort(e))),
        };
        self.observer.round(
            round,
            (outcome.messages, outcome.bytes, outcome.elems),
            outcome.events,
            outcome.link_walls,
            stamps_of(&outcome.headers, me),
        );
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
        config.trace,
        config.live.clone(),
        config.prof.clone(),
    );
    let (party, observing) = (&party, &observers);
    let results: Vec<Result<_, TransportError>> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|endpoint| {
                s.spawn(move || {
                    // The party's phase clock starts on its own thread.
                    let observer = observing.party(endpoint.id());
                    let link = PartyLink { endpoint, observer };
                    // A transport failure aborts the program mid-round via a
                    // PartyAbort unwind; catch it here and surface the typed
                    // error. The unwind drops the link and with it this
                    // party's endpoint, which unblocks any peer waiting on it.
                    match panic::catch_unwind(AssertUnwindSafe(|| party(link))) {
                        Ok((out, link)) => Ok((out, link.endpoint, link.observer.finish())),
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
    let mut parties = Vec::with_capacity(n);
    let mut mesh = Vec::with_capacity(n);
    let mut errors = Vec::new();
    for result in results {
        match result {
            Ok((out, endpoint, finished)) => {
                outputs.push(out);
                parties.push(finished);
                mesh.push(endpoint);
            }
            Err(e) => errors.push(e),
        }
    }
    if let Some(err) = errors.into_iter().max_by_key(error_priority) {
        observers.fail(err.kind(), err.party(), err.round());
        return Err(err);
    }
    let (stats, trace) = observers.finish(parties);
    let run = MpcRun {
        outputs,
        stats,
        trace,
    };
    Ok((run, mesh))
}

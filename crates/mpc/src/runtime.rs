//! The party runtime both engines stand on: the only place a party thread
//! is spawned ([`run_parties`]) and the only place a round is exchanged and
//! observed ([`PartyLink::exchange`]).
//!
//! A sharing scheme ([`crate::engine`]'s Shamir/BGW, [`crate::additive`]'s
//! full-threshold additive) is a protocol layer over a [`PartyLink`]: it
//! decides *what* goes into a round's payloads and what to do with the
//! ones that come back; the link moves them, accounts for them, and tells
//! every observer (stats, trace + causal stamps, live telemetry, cost
//! profiler, metrics) about the round from one measurement.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use sqm_field::PrimeField;
use sqm_net::transport::Transport;
use sqm_net::{TraceHeader, TransportError};
use sqm_obs::live;
use sqm_obs::metrics;
use sqm_obs::prof;
use sqm_obs::trace::{MsgStamp, PartyRecorder, Trace};

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

/// One party's connection to the run: its mesh endpoint plus everything
/// that is accounted or observed per round and per phase.
pub(crate) struct PartyLink<F: PrimeField> {
    endpoint: Box<dyn Transport<F>>,
    stats: PartyStats,
    recorder: Option<PartyRecorder>,
    /// Root of this engine's cost-profile paths (`"engine"`, `"additive"`).
    root: &'static str,
    phase: String,
    phase_started: Instant,
    /// Causal stamping state (active only when tracing): run identifier
    /// (the engine seed), the party's Lamport clock, and one sequence
    /// counter per directed outgoing link.
    run_id: u64,
    lamport: u64,
    link_seq: Vec<u64>,
}

impl<F: PrimeField> PartyLink<F> {
    fn new(config: &MpcConfig, root: &'static str, endpoint: Box<dyn Transport<F>>) -> Self {
        let recorder = config.trace.then(|| {
            let rec = PartyRecorder::new(endpoint.id(), config.latency);
            match config.trace_event_cap {
                Some(cap) => rec.with_event_cap(cap),
                None => rec,
            }
        });
        PartyLink {
            link_seq: vec![0; endpoint.n_parties()],
            endpoint,
            stats: PartyStats::default(),
            recorder,
            root,
            phase: "default".to_string(),
            phase_started: Instant::now(),
            run_id: config.seed,
            lamport: 0,
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

    /// Switch accounting to a named phase (e.g. `"dp_noise"`). Wall time and
    /// rounds accrued so far are attributed to the previous phase.
    pub(crate) fn set_phase(&mut self, name: &str) {
        self.flush_phase();
        self.phase = name.to_string();
        if let Some(rec) = &mut self.recorder {
            rec.set_phase(name);
        }
    }

    fn flush_phase(&mut self) {
        // One measurement feeds both the accounting and the trace, so a
        // merged trace reproduces RunStats::simulated_time() exactly.
        let elapsed = self.phase_started.elapsed();
        self.stats.record_wall(&self.phase, elapsed);
        if let Some(rec) = &mut self.recorder {
            rec.flush_phase(elapsed);
        }
        self.phase_started = Instant::now();
    }

    /// One synchronous round: ship `outgoing[j]` to every party `j`, return
    /// what every party shipped here, and report the round to each observer
    /// that is on. A transport failure unwinds out of the SPMD program with
    /// the typed error; [`run_parties`] turns it back into `Err`.
    pub(crate) fn exchange(&mut self, outgoing: Vec<Vec<F>>) -> Vec<Vec<F>> {
        let me = self.endpoint.id();
        // The round index, read before the exchange bumps it.
        let round = self.endpoint.round();
        // The wall clock is read only for an observer that reports it; all
        // three ride outside `PartyStats` and the trace, so accounting is
        // bit-identical with any of them on or off.
        let (metrics_on, live_on, prof_on) =
            (metrics::is_enabled(), live::is_active(), prof::is_active());
        let started = (metrics_on || live_on || prof_on).then(Instant::now);
        // Causal stamping (traced runs only): every real outgoing payload
        // carries this party's Lamport clock and a per-link sequence
        // number; the header travels out-of-band of the byte accounting.
        let stamped = self.recorder.is_some().then(|| {
            let lamport_send = self.lamport + 1;
            let mut sends = Vec::new();
            let headers: Vec<Option<TraceHeader>> = outgoing
                .iter()
                .enumerate()
                .map(|(j, payload)| {
                    if j == me || payload.is_empty() {
                        return None;
                    }
                    let link_seq = self.link_seq[j];
                    self.link_seq[j] += 1;
                    sends.push(MsgStamp {
                        peer: j,
                        link_seq,
                        lamport: lamport_send,
                        round,
                    });
                    Some(TraceHeader {
                        run_id: self.run_id,
                        party: me as u32,
                        round,
                        link_seq,
                        lamport: lamport_send,
                    })
                })
                .collect();
            let wall_send = self.phase_started.elapsed();
            (headers, (sends, lamport_send, wall_send))
        });
        let (headers, stamps) = stamped.unzip();
        let outcome = match self.endpoint.exchange_stamped(outgoing, headers) {
            Ok(outcome) => outcome,
            // `resume_unwind` does not run the panic hook: this is a
            // controlled error return, not a bug to report on stderr.
            Err(e) => panic::resume_unwind(Box::new(PartyAbort(e))),
        };
        let wall = started.map(|t0| t0.elapsed()).unwrap_or_default();
        let (messages, bytes) = (outcome.messages, outcome.bytes);
        self.stats
            .record_round(&self.phase, messages, bytes, outcome.elems);
        if prof_on {
            let (root, phase, wall_ns) = (self.root, &self.phase, wall.as_nanos() as u64);
            prof::record_round(
                &format!("{root};{phase};exchange"),
                messages,
                bytes,
                wall_ns,
            );
            prof::record_round(
                &format!("{root};{phase};round{round:04}"),
                messages,
                bytes,
                wall_ns,
            );
        }
        let events = self.endpoint.drain_events();
        if live_on {
            // Injected fault events first: they carry the deterministic
            // per-link costs the stall watchdog uses to attribute a slow
            // round to the party that actually slept.
            for e in &events {
                if let Some(ev) = live::LiveEvent::fault(e.party, e.round, e.peer, &e.kind, e.value)
                {
                    live::publish(ev);
                }
            }
            live::publish(live::LiveEvent::round(
                me,
                round,
                &self.phase,
                wall,
                messages,
                bytes,
            ));
        }
        if let Some(rec) = &mut self.recorder {
            if let Some((sends, lamport_send, wall_send)) = stamps {
                let wall_recv = self.phase_started.elapsed();
                let recvs: Vec<MsgStamp> = outcome
                    .headers
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != me)
                    .filter_map(|(i, h)| {
                        h.map(|h| MsgStamp {
                            peer: i,
                            link_seq: h.link_seq,
                            lamport: h.lamport,
                            round: h.round,
                        })
                    })
                    .collect();
                let max_recv = recvs.iter().map(|s| s.lamport).max().unwrap_or(0);
                self.lamport = lamport_send.max(max_recv) + 1;
                rec.record_causal_round(
                    wall_send,
                    wall_recv,
                    lamport_send,
                    self.lamport,
                    sends,
                    recvs,
                );
            }
            rec.record_round(messages, bytes);
            for event in events {
                rec.record_net_event(event);
            }
        }
        if metrics_on {
            // The per-round half of the virtual-clock model; the latency
            // half is `rounds * latency` by construction.
            metrics::histogram_record("mpc.round_wall_ns", wall.as_nanos() as f64);
            metrics::counter_add("mpc.party_rounds", 1);
            metrics::counter_add("mpc.messages", messages);
            metrics::counter_add("mpc.bytes", bytes);
            metrics::histogram_record("mpc.messages_per_round", messages as f64);
        }
        outcome.incoming
    }
}

/// Run one party program per endpoint, each on its own thread, and merge
/// what they return.
///
/// `party` receives the thread's [`PartyLink`], wraps it in its engine's
/// protocol context, runs the SPMD program against that and hands the link
/// back with the program's output. On success the endpoints are returned
/// for the next run to reuse; on a transport error they are consumed (the
/// mesh is in an undefined round state) and the most diagnostic of the
/// parties' errors is the `Err`. Any other panic in a party program
/// propagates as `"party thread panicked"`.
pub(crate) fn run_parties<F, T>(
    config: &MpcConfig,
    root: &'static str,
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
    // Bracket the run for live telemetry. The guard's Drop path covers a
    // party-thread panic unwinding past the join below: the run is then
    // recorded as failed and the flight recorder still dumps.
    let live_run = config
        .live
        .as_ref()
        .map(|lc| live::begin_run(lc, n, config.seed));
    let party = &party;
    let results: Vec<Result<(T, PartyLink<F>), TransportError>> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|endpoint| {
                s.spawn(move || {
                    let link = PartyLink::new(config, root, endpoint);
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
    for (party, result) in results.into_iter().enumerate() {
        match result {
            Ok((out, link)) => {
                let sent = &link.stats.total;
                if metrics::is_enabled() {
                    metrics::histogram_record("mpc.bytes_per_party", sent.bytes as f64);
                    // Last-run-wins per-party gauges: the traffic each
                    // party shipped, readable from a metrics snapshot
                    // without parsing the trace.
                    metrics::gauge_set(&format!("mpc.party.{party}.bytes_sent"), sent.bytes as f64);
                    metrics::gauge_set(
                        &format!("mpc.party.{party}.messages_sent"),
                        sent.messages as f64,
                    );
                }
                outputs.push(out);
                stats.push(link.stats);
                party_traces.extend(link.recorder.map(PartyRecorder::finish));
                mesh.push(link.endpoint);
            }
            Err(e) => errors.push(e),
        }
    }
    if let Some(err) = errors.into_iter().max_by_key(error_priority) {
        if let Some(guard) = live_run {
            guard.fail(live::RunError::new(
                err.kind(),
                Some(err.party()),
                err.round(),
            ));
        }
        return Err(err);
    }
    if let Some(guard) = live_run {
        guard.finish();
    }
    let trace =
        (party_traces.len() == n).then(|| Trace::from_parties(config.latency, party_traces));
    let run = MpcRun {
        outputs,
        stats: merge(stats, config.latency),
        trace,
    };
    Ok((run, mesh))
}

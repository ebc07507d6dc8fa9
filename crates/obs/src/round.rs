//! The round as the unit of observation, and the observers a run owns.
//!
//! One completed synchronous exchange at one party is one [`RoundEvent`],
//! and every per-round view of a run — trace and causal stamps
//! ([`crate::trace`]), live telemetry ([`crate::live`]), cost profile
//! ([`crate::prof`]), the `mpc.*` / `net.tcp.*` metrics — is fed from it, so
//! the views agree because they are one measurement.
//!
//! The observers belong to the run, not the process: [`RunObserver::begin`]
//! takes what the run's config attached and hands each party thread a
//! [`PartyObserver`]; a run with nothing attached touches no collector and
//! no profiler. Only [`crate::metrics`] stays process-wide (the serving
//! layer, the audit and both HTTP endpoints record with no run in scope);
//! its switch is consulted per round.

use std::sync::Arc;
use std::time::Duration;

use crate::live::{Collector, LiveEvent, RunError};
use crate::metrics;
use crate::prof::Profiler;
use crate::trace::{MsgStamp, NetEvent, PartyRecorder, PartyTrace, Trace};

/// One party's transfer times with one peer in one round, as a socket
/// transport measured them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkWall {
    pub peer: usize,
    /// Wall time of the frame write to `peer`.
    pub send: Duration,
    /// Wall time of the frame read from `peer`, including any wait for it.
    pub recv: Duration,
}

/// One completed synchronous exchange as seen by one party.
#[derive(Debug)]
pub struct RoundEvent<'a> {
    pub party: usize,
    /// The party's round index (continues across runs on a reused mesh).
    pub round: u64,
    /// The accounting phase the round is charged to.
    pub phase: &'a str,
    /// What this party sent.
    pub messages: u64,
    pub bytes: u64,
    pub elems: u64,
    /// Wall time inside the exchange; zero unless
    /// [`PartyObserver::wants_wall`].
    pub wall: Duration,
    /// Injected delays and retransmits of this round.
    pub net_events: Vec<NetEvent>,
    /// Empty on the in-process backend.
    pub link_walls: Vec<LinkWall>,
}

/// The observers of one engine run, from begin to finish or failure.
/// Dropped unfinished (a party-thread panic unwinding through the run loop)
/// it records the run as failed and dumps the flight recorder.
pub struct RunObserver {
    n_parties: usize,
    seed: u64,
    latency: Duration,
    trace: Option<usize>,
    live: Option<Arc<Collector>>,
    prof: Option<Arc<Profiler>>,
    ended: bool,
}

impl RunObserver {
    /// Begin observing a run. `trace` is `Some(cap)` to record a trace with
    /// at most `cap` detail records per party.
    pub fn begin(
        n_parties: usize,
        seed: u64,
        latency: Duration,
        trace: Option<usize>,
        live: Option<Arc<Collector>>,
        prof: Option<Arc<Profiler>>,
    ) -> RunObserver {
        if let Some(live) = &live {
            live.begin_run(n_parties, seed);
        }
        if let Some(prof) = &prof {
            prof.begin_run(seed);
        }
        RunObserver {
            n_parties,
            seed,
            latency,
            trace,
            live,
            prof,
            ended: false,
        }
    }

    /// The observer party thread `party` carries through the run.
    pub fn party(&self, party: usize) -> PartyObserver {
        PartyObserver {
            party,
            run_id: self.seed,
            live: self.live.clone(),
            prof: self.prof.clone(),
            recorder: self
                .trace
                .map(|cap| PartyRecorder::new(party, self.latency).with_event_cap(cap)),
            lamport: 0,
            link_seq: vec![0; self.n_parties],
            sends: Vec::new(),
        }
    }

    fn end(&mut self, error: Option<RunError>) {
        self.ended = true;
        if let Some(live) = &self.live {
            live.end_run(error);
        }
    }

    /// The run completed: merge the parties' traces (`None` unless every
    /// party recorded one).
    pub fn finish(mut self, traces: Vec<PartyTrace>) -> Option<Trace> {
        self.end(None);
        (traces.len() == self.n_parties).then(|| Trace::from_parties(self.latency, traces))
    }

    /// The run failed with a typed error of `kind` at `party`.
    pub fn fail(mut self, kind: &str, party: usize, round: Option<u64>) {
        self.end(Some(RunError::new(kind, Some(party), round)));
    }
}

impl Drop for RunObserver {
    fn drop(&mut self) {
        if !self.ended {
            self.end(Some(RunError::new("panic", None, None)));
        }
    }
}

/// One party's observers, owned by its thread: the run's handles, the
/// optional trace recorder, and the causal state traced runs stamp their
/// messages from (run id, Lamport clock, per-link sequence numbers).
pub struct PartyObserver {
    party: usize,
    run_id: u64,
    live: Option<Arc<Collector>>,
    prof: Option<Arc<Profiler>>,
    recorder: Option<PartyRecorder>,
    lamport: u64,
    link_seq: Vec<u64>,
    /// This round's send stamps, between stamping and merging.
    sends: Vec<MsgStamp>,
}

impl PartyObserver {
    /// Does an attached observer report a round's wall time? (It rides
    /// outside `RunStats` and the trace: accounting never depends on it.)
    pub fn wants_wall(&self) -> bool {
        self.live.is_some() || self.prof.is_some() || metrics::is_enabled()
    }

    /// The run's cost profiler, for hooks above the round.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.prof.as_deref()
    }

    /// Switch to phase `name`; the caller flushes the previous visit first.
    pub fn set_phase(&mut self, name: &str) {
        if let Some(rec) = &mut self.recorder {
            rec.set_phase(name);
        }
    }

    /// Close the phase visit with the same wall the caller's accounting
    /// gets, so a merged trace reproduces `RunStats::simulated_time()`.
    pub fn flush_phase(&mut self, wall: Duration) {
        if let Some(rec) = &mut self.recorder {
            rec.flush_phase(wall);
        }
    }

    /// On a traced run, stamp `round`'s real outgoing messages, one per peer
    /// in `dests`: the stamps and the run id they travel under.
    pub fn stamp_sends(
        &mut self,
        round: u64,
        dests: impl IntoIterator<Item = usize>,
    ) -> Option<(u64, &[MsgStamp])> {
        self.recorder.as_ref()?;
        let (lamport, next_seq) = (self.lamport + 1, &mut self.link_seq);
        let stamp = |peer: usize| {
            let link_seq = next_seq[peer];
            next_seq[peer] += 1;
            MsgStamp {
                peer,
                link_seq,
                lamport,
                round,
            }
        };
        self.sends = dests.into_iter().map(stamp).collect();
        Some((self.run_id, &self.sends))
    }

    /// Merge the stamps received in the round just stamped; the walls are
    /// elapsed-since-phase-start readings on either side of the transport
    /// call. Call before [`Self::round`].
    pub fn merge_recvs(&mut self, recvs: Vec<MsgStamp>, wall_send: Duration, wall_recv: Duration) {
        let sends = std::mem::take(&mut self.sends);
        let lamport_send = self.lamport + 1;
        let max_recv = recvs.iter().map(|s| s.lamport).max().unwrap_or(0);
        self.lamport = lamport_send.max(max_recv) + 1;
        if let Some(rec) = &mut self.recorder {
            rec.record_causal_round(
                wall_send,
                wall_recv,
                lamport_send,
                self.lamport,
                sends,
                recvs,
            );
        }
    }

    /// Report one completed round to every attached observer.
    pub fn round(&mut self, event: RoundEvent<'_>) {
        let RoundEvent {
            party,
            round,
            phase,
            messages,
            bytes,
            wall,
            ..
        } = event;
        let wall_ns = wall.as_nanos() as u64;
        if let Some(prof) = &self.prof {
            let record = |path: String| prof.record_round(&path, messages, bytes, wall_ns);
            record(format!("engine;{phase};exchange"));
            record(format!("engine;{phase};round{round:04}"));
        }
        if let Some(live) = &self.live {
            for l in &event.link_walls {
                live.publish(LiveEvent::link(party, round, l.peer, true, l.send));
                live.publish(LiveEvent::link(party, round, l.peer, false, l.recv));
            }
            // Fault events before the round: the watchdog attributes a
            // slow round from their deterministic per-link costs.
            for e in &event.net_events {
                if let Some(ev) = LiveEvent::fault(e.party, e.round, e.peer, &e.kind, e.value) {
                    live.publish(ev);
                }
            }
            live.publish(LiveEvent::round(party, round, phase, wall, messages, bytes));
        }
        if let Some(rec) = &mut self.recorder {
            rec.record_round(messages, bytes);
            for e in event.net_events {
                rec.record_net_event(e);
            }
        }
        if metrics::is_enabled() {
            metrics::histogram_record("mpc.round_wall_ns", wall_ns as f64);
            metrics::counter_add("mpc.party_rounds", 1);
            metrics::counter_add("mpc.messages", messages);
            metrics::counter_add("mpc.bytes", bytes);
            metrics::histogram_record("mpc.messages_per_round", messages as f64);
            if !event.link_walls.is_empty() {
                let ns = |name: String, d: Duration| {
                    metrics::histogram_record(&name, d.as_nanos() as f64)
                };
                for l in &event.link_walls {
                    let peer = l.peer;
                    ns(format!("net.tcp.send_ns.p{party}_to_p{peer}"), l.send);
                    ns(format!("net.tcp.recv_ns.p{peer}_to_p{party}"), l.recv);
                }
                metrics::counter_add("net.tcp.frames_sent", event.link_walls.len() as u64);
                metrics::counter_add("net.tcp.payload_bytes_sent", bytes);
            }
        }
    }

    /// The party's program returned having sent `messages` / `bytes`: set
    /// its last-run-wins traffic gauges and hand back its trace, if any.
    pub fn finish(self, messages: u64, bytes: u64) -> Option<PartyTrace> {
        if metrics::is_enabled() {
            let party = self.party;
            metrics::histogram_record("mpc.bytes_per_party", bytes as f64);
            metrics::gauge_set(&format!("mpc.party.{party}.bytes_sent"), bytes as f64);
            metrics::gauge_set(&format!("mpc.party.{party}.messages_sent"), messages as f64);
        }
        self.recorder.map(PartyRecorder::finish)
    }
}

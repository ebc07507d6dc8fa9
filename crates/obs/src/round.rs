//! The round as the unit of observation, the one tally of a run's rounds
//! and wall time, and the observers a run owns.
//!
//! One completed synchronous exchange at one party is one [`RoundEvent`].
//! The party's [`PartyObserver`] first records it in the party's
//! [`PartyStats`] — per-phase rounds, messages, bytes, elements and wall
//! time, read off the observer's one phase clock — and then fans it out to
//! every per-round view: the trace's round record ([`crate::trace`]), live
//! telemetry ([`crate::live`]), cost profile ([`crate::prof`]), the
//! `mpc.*` / `net.tcp.*` metrics. The views agree because they are one
//! measurement.
//!
//! When the run completes, `merge` folds the parties' tallies into the
//! run's [`RunStats`] — the paper's cost model, `rounds × latency + wall`
//! (Section VI, Tables II/IV/V): in a synchronous protocol every party's
//! messages of a round travel in parallel, so the network costs
//! `rounds × latency` and local computation is the wall time of the
//! concurrently running parties. A traced run's [`PartyTrace`]s carry the
//! same tallies, so the trace and `RunStats` have one source.
//!
//! The observers belong to the run, not the process: [`RunObserver::begin`]
//! takes what the run's config attached and each party thread takes a
//! [`PartyObserver`] from it; a run with nothing attached touches no
//! collector and no profiler. Only [`crate::metrics`] stays process-wide
//! (the serving layer, the audit and both HTTP endpoints record with no run
//! in scope); its switch is consulted per round.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::live::{Collector, RunError};
use crate::metrics;
use crate::prof::Profiler;
use crate::trace::{NetEvent, PartyRecorder, PartyTrace, Trace};

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
    /// Wall time inside the exchange, on the party's phase clock.
    pub wall: Duration,
    /// Injected delays and retransmits of this round.
    pub net_events: Vec<NetEvent>,
    /// Empty on the in-process backend.
    pub link_walls: Vec<LinkWall>,
}

/// Per-phase traffic and timing breakdown.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct PhaseStats {
    /// Synchronous communication rounds spent in this phase.
    pub rounds: u64,
    /// Total point-to-point messages (over all parties): each non-empty
    /// frame is one message.
    pub messages: u64,
    /// Total payload bytes (over all parties).
    pub bytes: u64,
    /// Total field elements sent (over all parties). Identical across
    /// backends — the work measure that `messages` divides into frames.
    pub elems: u64,
    /// Wall time spent in this phase (max over parties).
    pub wall: Duration,
}

impl PhaseStats {
    /// Simulated time for this phase under a per-hop latency.
    pub fn simulated_time(&self, latency: Duration) -> Duration {
        self.wall + latency * self.rounds as u32
    }

    /// Add a later stretch of the same party's timeline.
    fn add(&mut self, later: &PhaseStats) {
        self.rounds += later.rounds;
        self.messages += later.messages;
        self.bytes += later.bytes;
        self.elems += later.elems;
        self.wall += later.wall;
    }
}

/// Aggregated statistics of one MPC run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RunStats {
    /// Totals across the whole protocol.
    pub total: PhaseStats,
    /// Named phases (e.g. `"input"`, `"compute"`, `"dp_noise"`, `"open"`).
    pub phases: BTreeMap<String, PhaseStats>,
    /// The per-hop latency this run was configured with.
    pub latency: Duration,
}

impl RunStats {
    /// Total simulated time (wall + rounds * latency), the paper's
    /// "overall time" column.
    ///
    /// This assumes the paper's *uniform-latency model*: every message hop
    /// costs exactly `latency`, regardless of payload size, congestion, or
    /// which pair of parties it connects. Real networks are not uniform —
    /// the `netcheck_timing` experiment binary runs the same workload over
    /// loopback TCP and reports measured wall-clock next to this prediction
    /// so the model's accuracy can be checked empirically.
    pub fn simulated_time(&self) -> Duration {
        self.total.simulated_time(self.latency)
    }

    /// Simulated time attributed to one phase (the paper's "time for noise
    /// injection" column uses phase `"dp_noise"`). Returns zero if the phase
    /// never ran.
    pub fn phase_time(&self, name: &str) -> Duration {
        self.phases
            .get(name)
            .map(|p| p.simulated_time(self.latency))
            .unwrap_or_default()
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} rounds, {} messages ({} elems), {:.2} MiB, simulated {:.2?} ({:?}/hop)",
            self.total.rounds,
            self.total.messages,
            self.total.elems,
            self.total.bytes as f64 / (1024.0 * 1024.0),
            self.simulated_time(),
            self.latency,
        )?;
        // Per-phase rows use the same units as the totals line: message
        // and element counts and MiB, not raw bytes.
        for (name, p) in &self.phases {
            writeln!(
                f,
                "  {name:<12} {:>3} rounds  {:>8} messages  {:>8} elems  {:>8.2} MiB  {:.2?}",
                p.rounds,
                p.messages,
                p.elems,
                p.bytes as f64 / (1024.0 * 1024.0),
                p.simulated_time(self.latency),
            )?;
        }
        Ok(())
    }
}

/// One party's tally of a run: its rounds, traffic and wall time per phase
/// and in total, each the sum of its closed phase visits.
#[derive(Clone, Debug, Default, Serialize)]
pub struct PartyStats {
    pub total: PhaseStats,
    pub phases: BTreeMap<String, PhaseStats>,
}

impl PartyStats {
    /// Add one closed visit to `phase`.
    pub fn add_visit(&mut self, phase: &str, visit: &PhaseStats) {
        self.total.add(visit);
        self.phases.entry(phase.to_string()).or_default().add(visit);
    }
}

/// Merge per-party tallies into run totals: the parties run concurrently
/// in lock-step, so rounds and wall time take the maximum over parties,
/// while messages, bytes and elements sum (total network traffic).
pub(crate) fn merge<'a>(
    parties: impl IntoIterator<Item = &'a PartyStats>,
    latency: Duration,
) -> RunStats {
    fn lockstep(run: &mut PhaseStats, party: &PhaseStats) {
        run.rounds = run.rounds.max(party.rounds);
        run.wall = run.wall.max(party.wall);
        run.messages += party.messages;
        run.bytes += party.bytes;
        run.elems += party.elems;
    }
    let mut out = RunStats {
        latency,
        ..RunStats::default()
    };
    for party in parties {
        lockstep(&mut out.total, &party.total);
        for (name, p) in &party.phases {
            lockstep(out.phases.entry(name.clone()).or_default(), p);
        }
    }
    out
}

/// The observers of one engine run, from begin to finish or failure.
/// Dropped unfinished (a party-thread panic unwinding through the run loop)
/// it records the run as failed and dumps the flight recorder.
pub struct RunObserver {
    latency: Duration,
    trace: bool,
    live: Option<Arc<Collector>>,
    prof: Option<Arc<Profiler>>,
    ended: bool,
}

impl RunObserver {
    /// Begin observing a run; `trace` records a [`Trace`] of it.
    pub fn begin(
        n_parties: usize,
        seed: u64,
        latency: Duration,
        trace: bool,
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
            latency,
            trace,
            live,
            prof,
            ended: false,
        }
    }

    /// The observer party `party` carries through the run. Its phase clock
    /// starts now, so take it on the party's own thread.
    pub fn party(&self, party: usize) -> PartyObserver {
        PartyObserver {
            party,
            live: self.live.clone(),
            prof: self.prof.clone(),
            recorder: self.trace.then(|| PartyRecorder::new(party, self.latency)),
            phase: "default".to_string(),
            visit_started: Instant::now(),
            visit: PhaseStats::default(),
            stats: PartyStats::default(),
            sent_at: Duration::ZERO,
            dests: Vec::new(),
        }
    }

    fn end(&mut self, error: Option<RunError>) {
        self.ended = true;
        if let Some(live) = &self.live {
            live.end_run(error);
        }
    }

    /// The run completed with what every party's [`PartyObserver::finish`]
    /// returned: the merged [`RunStats`], and the merged trace of a traced
    /// run.
    pub fn finish(
        mut self,
        parties: Vec<(PartyStats, Option<PartyTrace>)>,
    ) -> (RunStats, Option<Trace>) {
        self.end(None);
        let stats = merge(parties.iter().map(|(stats, _)| stats), self.latency);
        let traces: Option<Vec<PartyTrace>> = parties.into_iter().map(|(_, t)| t).collect();
        (stats, traces.map(|t| Trace::from_parties(self.latency, t)))
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
/// party's tally with the phase it charges and that phase's clock, and the
/// optional trace recorder. Nothing it records crosses the wire: a traced
/// round's record names the peers this party sent to, and rounds are
/// lock-step, so the receiver's record of the same round is the other end.
pub struct PartyObserver {
    party: usize,
    live: Option<Arc<Collector>>,
    prof: Option<Arc<Profiler>>,
    recorder: Option<PartyRecorder>,
    phase: String,
    /// When the open visit to `phase` began, and what it has tallied.
    visit_started: Instant,
    visit: PhaseStats,
    stats: PartyStats,
    /// The phase clock at the send side of the round in flight.
    sent_at: Duration,
    /// On a traced run, the peers the round in flight sent to.
    dests: Vec<usize>,
}

impl PartyObserver {
    /// The run's cost profiler, for hooks above the round.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.prof.as_deref()
    }

    /// The accounting phase rounds and wall time are currently charged to.
    pub fn phase(&self) -> &str {
        &self.phase
    }

    /// Charge what follows to phase `name`; the open visit closes with one
    /// clock reading.
    pub fn set_phase(&mut self, name: &str) {
        self.close_visit();
        self.phase = name.to_string();
    }

    /// Close the open visit: one clock reading is its wall in the party's
    /// tally and in the trace's span alike.
    fn close_visit(&mut self) {
        let now = Instant::now();
        self.visit.wall = now - self.visit_started;
        self.visit_started = now;
        let visit = std::mem::take(&mut self.visit);
        self.stats.add_visit(&self.phase, &visit);
        if let Some(rec) = &mut self.recorder {
            rec.close_span(&self.phase, &visit);
        }
    }

    /// The send side of a round: read the phase clock and, on a traced
    /// run, note the peers in `dests` a real message goes to.
    pub fn send(&mut self, dests: impl IntoIterator<Item = usize>) {
        if self.recorder.is_some() {
            self.dests = dests.into_iter().collect();
        }
        self.sent_at = self.visit_started.elapsed();
    }

    /// Round `round` came back: `traffic` is the messages, bytes and field
    /// elements this party sent. Record the round in the party's tally (and
    /// trace), then report it to every attached observer.
    pub fn round(
        &mut self,
        round: u64,
        traffic: (u64, u64, u64),
        net_events: Vec<NetEvent>,
        link_walls: Vec<LinkWall>,
    ) {
        let (messages, bytes, elems) = traffic;
        let received_at = self.visit_started.elapsed();
        if let Some(rec) = &mut self.recorder {
            rec.record_round(
                &self.phase,
                round,
                self.visit.rounds,
                (self.sent_at, received_at),
                (messages, bytes),
                std::mem::take(&mut self.dests),
            );
        }
        self.visit.rounds += 1;
        self.visit.messages += messages;
        self.visit.bytes += bytes;
        self.visit.elems += elems;
        let event = RoundEvent {
            party: self.party,
            round,
            phase: &self.phase,
            messages,
            bytes,
            elems,
            wall: received_at.saturating_sub(self.sent_at),
            net_events,
            link_walls,
        };
        let wall_ns = event.wall.as_nanos() as u64;
        if let Some(prof) = &self.prof {
            let record = |path: String| prof.record_round(&path, messages, bytes, wall_ns);
            record(format!("engine;{};exchange", event.phase));
            record(format!("engine;{};round{round:04}", event.phase));
        }
        if let Some(live) = &self.live {
            live.fold(&event);
        }
        if let Some(rec) = &mut self.recorder {
            for e in event.net_events {
                rec.record_net_event(e);
            }
        }
        if metrics::is_enabled() {
            let party = self.party;
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

    /// The party's program returned: close the open visit, set the party's
    /// last-run-wins traffic gauges, and hand back its tally and its trace
    /// (which carries the same tally), if any.
    pub fn finish(mut self) -> (PartyStats, Option<PartyTrace>) {
        self.close_visit();
        if metrics::is_enabled() {
            let (party, sent) = (self.party, &self.stats.total);
            metrics::histogram_record("mpc.bytes_per_party", sent.bytes as f64);
            metrics::gauge_set(&format!("mpc.party.{party}.bytes_sent"), sent.bytes as f64);
            metrics::gauge_set(
                &format!("mpc.party.{party}.messages_sent"),
                sent.messages as f64,
            );
        }
        let trace = self.recorder.map(|rec| rec.finish(self.stats.clone()));
        (self.stats, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_time_combines_wall_and_rounds() {
        let p = PhaseStats {
            rounds: 10,
            messages: 0,
            bytes: 0,
            elems: 0,
            wall: Duration::from_millis(500),
        };
        assert_eq!(
            p.simulated_time(Duration::from_millis(100)),
            Duration::from_millis(1500)
        );
    }

    /// A visit of `rounds` rounds, each sending `messages` messages of
    /// `bytes` bytes and `elems` elements in total, lasting `wall_ms`.
    fn visit(rounds: u64, messages: u64, bytes: u64, elems: u64, wall_ms: u64) -> PhaseStats {
        PhaseStats {
            rounds,
            messages: rounds * messages,
            bytes: rounds * bytes,
            elems: rounds * elems,
            wall: Duration::from_millis(wall_ms),
        }
    }

    #[test]
    fn stats_serialize_and_display_consistent_units() {
        let mut a = PartyStats::default();
        a.add_visit("open", &visit(1, 3, 3 * 1024 * 1024, 9, 5));
        let merged = merge([&a], Duration::from_millis(100));

        let json = merged.to_json();
        assert!(json.contains("\"rounds\":1"));
        assert!(json.contains("\"open\""));
        assert!(json.contains("\"latency\":0.1"));

        let shown = format!("{merged}");
        // Totals and per-phase rows agree on units: MiB and message counts.
        assert!(shown.contains("3.00 MiB"), "{shown}");
        assert!(shown.lines().count() >= 2);
        let phase_row = shown
            .lines()
            .nth(1)
            .expect("RunStats Display should emit a per-phase row after the totals line");
        assert!(phase_row.contains("messages"), "{phase_row}");
        assert!(phase_row.contains("MiB"), "{phase_row}");
        assert!(!phase_row.contains("bytes"), "{phase_row}");
    }

    #[test]
    fn merge_maxes_rounds_and_sums_traffic() {
        // Visits to one phase add within a party; parties merge lock-step.
        let mut a = PartyStats::default();
        a.add_visit("x", &visit(1, 3, 300, 30, 0));
        a.add_visit("y", &visit(0, 0, 0, 0, 2));
        a.add_visit("x", &visit(1, 3, 300, 30, 0));
        let mut b = PartyStats::default();
        b.add_visit("x", &visit(2, 3, 300, 30, 7));
        assert_eq!(a.phases["x"], visit(2, 3, 300, 30, 0));
        let merged = merge([&a, &b], Duration::from_millis(100));
        assert_eq!(merged.total.rounds, 2);
        assert_eq!(merged.total.messages, 12);
        assert_eq!(merged.total.bytes, 1200);
        assert_eq!(merged.total.elems, 120);
        assert_eq!(merged.total.wall, Duration::from_millis(7));
        assert_eq!(merged.simulated_time(), Duration::from_millis(207));
        assert_eq!(merged.phase_time("x"), Duration::from_millis(207));
        assert_eq!(merged.phase_time("y"), Duration::from_millis(2));
        assert_eq!(merged.phase_time("absent"), Duration::ZERO);
    }
}

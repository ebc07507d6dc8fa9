//! Structured protocol tracing on the simulated clock.
//!
//! The paper's cost model charges `latency` per synchronous round on top of
//! the measured wall time (`simulated = wall + rounds * latency`, see
//! [`crate::round`]). A trace lays a run out on that clock: each visit to a
//! protocol phase (`"share"`, `"quantize"`, `"dp_noise"`, `"compute"`,
//! `"open"`, ...) becomes one [`SpanRecord`] starting where the party's
//! previous visit ended. Each exchange is one round record
//! ([`RoundRecord`]): its send and receive times and the peers it sent to;
//! the message DAG's flows are read off the senders' `dests`
//! ([`crate::causal`]).
//!
//! A [`PartyRecorder`] belongs to one party's `PartyObserver` — no locks,
//! no atomics — and keeps detail records only. The observer charges rounds
//! and wall time to the party's one tally ([`PartyStats`]) and hands the
//! recorder each closed visit's totals, so a span is exactly what the tally
//! was charged, a party's timeline ends at its tally's
//! `wall + latency * rounds`, and each [`PartyTrace`] carries the tally
//! itself: [`Trace::stats`] is the run's `RunStats`, by the same merge.
//! Detail records are capped per party; the tallies are not.

use std::time::Duration;

use serde::Serialize;

use crate::round::{merge, PartyStats, PhaseStats, RunStats};

/// One closed phase visit on a party's simulated timeline.
#[derive(Clone, Debug, Serialize)]
pub struct SpanRecord {
    /// Party (MPC client) that executed the span.
    pub party: usize,
    /// Protocol phase name.
    pub phase: String,
    /// Position in the party's span sequence (0-based).
    pub seq: usize,
    /// Simulated-clock start: sum of all earlier span durations.
    pub start: Duration,
    /// Simulated duration: `wall + latency * rounds`.
    pub duration: Duration,
    /// Measured wall time of this visit (as charged to `PartyStats`).
    pub wall: Duration,
    /// Communication rounds inside this visit.
    pub rounds: u64,
    /// Messages this party sent inside this visit.
    pub messages: u64,
    /// Payload bytes this party sent inside this visit.
    pub bytes: u64,
}

/// One message exchange (synchronous round) as seen by one party, placed
/// on the party's simulated timeline. Rounds are lock-step, so a message is
/// fixed by its sender, receiver and round: the sender's `dests` and the
/// receiver's record of the same round give its two ends.
#[derive(Clone, Debug, Serialize)]
pub struct RoundRecord {
    pub party: usize,
    /// Phase the round was charged to.
    pub phase: String,
    /// The party's round index (the mesh's counter: it continues across
    /// runs on a reused mesh, like every other view's).
    pub index: u64,
    /// Messages this party sent in the round.
    pub messages: u64,
    /// Payload bytes this party sent in the round.
    pub bytes: u64,
    /// Simulated-clock position of the send side of the exchange (span
    /// start + wall measured before the exchange + one latency per earlier
    /// round in the phase).
    pub t_send: Duration,
    /// Simulated-clock position of the receive side (span start + wall
    /// measured after the exchange + one latency per round completed in
    /// the phase, including this one). Always `>= t_send`.
    pub t_recv: Duration,
    /// The peers this party sent a real (non-empty, non-loopback) payload
    /// to, in increasing order.
    pub dests: Vec<usize>,
}

/// One transport-level incident (an injected delay or a drop/retransmit
/// cycle) as observed by one party's transport endpoint. Reported by the
/// `sqm-net` fault injector in the round's `RoundOutcome` and recorded from
/// the round's event.
#[derive(Clone, Debug, Serialize)]
pub struct NetEvent {
    /// Party whose endpoint observed the event.
    pub party: usize,
    /// Synchronous round the event occurred in.
    pub round: u64,
    /// The peer on the affected link.
    pub peer: usize,
    /// Event kind: `"delay"` or `"retransmit"`.
    pub kind: String,
    /// Kind-specific magnitude: injected delay in seconds for `"delay"`,
    /// dropped-attempt count for `"retransmit"`.
    pub value: f64,
}

/// Bound on detail records (spans + rounds + net events)
/// kept per party. Long epoch loops (e.g. a full logistic-regression fit)
/// can emit millions of per-round records; beyond the cap they are
/// counted, not stored, and the party's tally stays whole.
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// Per-party detail recorder. Owned by exactly one thread; all methods are
/// plain mutations.
#[derive(Debug)]
pub struct PartyRecorder {
    party: usize,
    latency: Duration,
    /// Simulated-clock cursor: sum of closed span durations.
    clock: Duration,
    /// Bound on the detail records stored.
    event_cap: usize,
    /// Detail records discarded because the cap was reached.
    dropped_events: u64,
    spans: Vec<SpanRecord>,
    rounds: Vec<RoundRecord>,
    net_events: Vec<NetEvent>,
}

impl PartyRecorder {
    /// A fresh recorder positioned at simulated time zero, with the
    /// [`DEFAULT_EVENT_CAP`].
    pub fn new(party: usize, latency: Duration) -> Self {
        PartyRecorder {
            party,
            latency,
            clock: Duration::ZERO,
            event_cap: DEFAULT_EVENT_CAP,
            dropped_events: 0,
            spans: Vec::new(),
            rounds: Vec::new(),
            net_events: Vec::new(),
        }
    }

    /// Bound the number of detail records this recorder keeps. Once the
    /// cap is reached further detail is dropped and counted
    /// ([`PartyTrace::dropped_events`], metrics counter
    /// `obs.trace.dropped_events`).
    pub fn with_event_cap(mut self, cap: usize) -> Self {
        self.event_cap = cap;
        self
    }

    /// Is there room for one more detail record? Counts it dropped if not.
    fn keep(&mut self) -> bool {
        let stored = self.spans.len() + self.rounds.len() + self.net_events.len();
        let room = stored < self.event_cap;
        self.dropped_events += u64::from(!room);
        room
    }

    /// Record round `index`, charged to `phase`, after `earlier` rounds of
    /// the open visit: this party sent `messages` messages of `bytes` bytes
    /// in all, a real one to each of `dests`. `wall` is the visit's
    /// phase-clock reading just before and just after the transport call;
    /// the round sits on the simulated timeline at the open span's start
    /// plus that reading plus one latency per round completed by then,
    /// mirroring `wall + latency * rounds`.
    pub fn record_round(
        &mut self,
        phase: &str,
        index: u64,
        earlier: u64,
        (wall_send, wall_recv): (Duration, Duration),
        (messages, bytes): (u64, u64),
        dests: Vec<usize>,
    ) {
        if self.keep() {
            let k = earlier as u32;
            self.rounds.push(RoundRecord {
                party: self.party,
                phase: phase.to_string(),
                index,
                messages,
                bytes,
                t_send: self.clock + wall_send + self.latency * k,
                t_recv: self.clock + wall_recv + self.latency * (k + 1),
                dests,
            });
        }
    }

    /// Close a visit to `phase` with the totals the party's tally was
    /// charged for it: one span, and the clock moves on by its
    /// `wall + latency * rounds`.
    pub fn close_span(&mut self, phase: &str, visit: &PhaseStats) {
        let duration = visit.simulated_time(self.latency);
        if self.keep() {
            self.spans.push(SpanRecord {
                party: self.party,
                phase: phase.to_string(),
                seq: self.spans.len(),
                start: self.clock,
                duration,
                wall: visit.wall,
                rounds: visit.rounds,
                messages: visit.messages,
                bytes: visit.bytes,
            });
        }
        self.clock += duration;
    }

    /// Record a transport-level event of the round just recorded. Events do
    /// not affect the simulated clock — injected delays already show up in
    /// the measured wall time.
    pub fn record_net_event(&mut self, event: NetEvent) {
        if self.keep() {
            self.net_events.push(event);
        }
    }

    /// Finish recording; the trace carries the party's tally `stats`.
    pub fn finish(self, stats: PartyStats) -> PartyTrace {
        if self.dropped_events > 0 {
            crate::metrics::counter_add("obs.trace.dropped_events", self.dropped_events);
        }
        PartyTrace {
            party: self.party,
            spans: self.spans,
            rounds: self.rounds,
            net_events: self.net_events,
            stats,
            dropped_events: self.dropped_events,
        }
    }
}

/// One party's completed timeline.
#[derive(Clone, Debug, Serialize)]
pub struct PartyTrace {
    pub party: usize,
    pub spans: Vec<SpanRecord>,
    pub rounds: Vec<RoundRecord>,
    /// Transport incidents (injected delays, retransmits), in order.
    pub net_events: Vec<NetEvent>,
    /// The party's tally of the run, whole under the event cap.
    pub stats: PartyStats,
    /// Detail records discarded because the event cap was reached.
    pub dropped_events: u64,
}

/// The merged trace of one protocol run: every party's timeline plus the
/// latency the run was configured with.
#[derive(Clone, Debug, Serialize)]
pub struct Trace {
    /// Per-hop latency used to convert rounds into simulated time.
    pub latency: Duration,
    /// Party timelines, sorted by party id.
    pub parties: Vec<PartyTrace>,
}

impl Trace {
    /// Assemble a run trace from per-party recordings.
    pub fn from_parties(latency: Duration, mut parties: Vec<PartyTrace>) -> Self {
        parties.sort_by_key(|p| p.party);
        Trace { latency, parties }
    }

    /// Detail records dropped across all parties under the event cap.
    pub fn dropped_events(&self) -> u64 {
        self.parties.iter().map(|p| p.dropped_events).sum()
    }

    /// The run's `RunStats`: the parties' tallies, merged.
    pub fn stats(&self) -> RunStats {
        merge(self.parties.iter().map(|p| &p.stats), self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Play one visit to `phase` as a `PartyObserver` does: record each
    /// `(messages, bytes)` round, then close the visit after `wall` in the
    /// tally and the recorder alike.
    fn visit(
        rec: &mut PartyRecorder,
        stats: &mut PartyStats,
        phase: &str,
        rounds: &[(u64, u64)],
        wall: Duration,
    ) {
        let mut v = PhaseStats {
            wall,
            ..PhaseStats::default()
        };
        for &(messages, bytes) in rounds {
            let index = stats.total.rounds + v.rounds;
            let walls = (Duration::ZERO, Duration::ZERO);
            rec.record_round(phase, index, v.rounds, walls, (messages, bytes), vec![]);
            v.rounds += 1;
            v.messages += messages;
            v.bytes += bytes;
        }
        rec.close_span(phase, &v);
        stats.add_visit(phase, &v);
    }

    #[test]
    fn spans_accumulate_on_the_simulated_clock() {
        let mut r = PartyRecorder::new(0, ms(100));
        let mut stats = PartyStats::default();
        visit(&mut r, &mut stats, "input", &[(3, 300)], ms(5));
        visit(&mut r, &mut stats, "open", &[(3, 24), (3, 24)], ms(1));
        let t = r.finish(stats);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].start, Duration::ZERO);
        assert_eq!(t.spans[0].duration, ms(105));
        assert_eq!(t.spans[1].start, ms(105));
        assert_eq!(t.spans[1].duration, ms(201));
        assert_eq!(t.rounds.len(), 3);
        assert_eq!(t.rounds[2].index, 2);
        assert_eq!(t.rounds[2].phase, "open");
    }

    #[test]
    fn repeated_phase_visits_add_within_a_party() {
        let mut r = PartyRecorder::new(0, ms(10));
        let mut stats = PartyStats::default();
        visit(&mut r, &mut stats, "input", &[(1, 10)], ms(1));
        visit(&mut r, &mut stats, "compute", &[], ms(2));
        visit(&mut r, &mut stats, "input", &[(1, 10)], ms(3));
        let trace = Trace::from_parties(ms(10), vec![r.finish(stats)]);
        // Three spans on one clock, which ends where the tally does.
        let spans = &trace.parties[0].spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].start + spans[2].duration, ms(26));
        let s = trace.stats();
        let input = &s.phases["input"];
        assert_eq!(input.rounds, 2);
        assert_eq!(input.wall, ms(4));
        assert_eq!(s.phase_time("input"), ms(24));
        assert_eq!(s.total.rounds, 2);
        assert_eq!(s.simulated_time(), ms(26));
    }

    #[test]
    fn net_events_are_kept_in_order_and_do_not_touch_the_clock() {
        let mut r = PartyRecorder::new(1, ms(100));
        r.record_round("input", 0, 0, (ms(1), ms(2)), (2, 16), vec![0, 2]);
        r.record_net_event(NetEvent {
            party: 1,
            round: 0,
            peer: 0,
            kind: "retransmit".to_string(),
            value: 2.0,
        });
        r.record_net_event(NetEvent {
            party: 1,
            round: 0,
            peer: 2,
            kind: "delay".to_string(),
            value: 0.005,
        });
        let input = PhaseStats {
            rounds: 1,
            messages: 2,
            bytes: 16,
            elems: 0,
            wall: ms(3),
        };
        r.close_span("input", &input);
        let t = r.finish(PartyStats::default());
        assert_eq!(t.net_events.len(), 2);
        assert_eq!(t.net_events[0].kind, "retransmit");
        assert_eq!(t.net_events[1].peer, 2);
        // The round sits on the clock at its two phase-clock readings, the
        // receive side one latency on.
        let round = &t.rounds[0];
        assert_eq!((round.t_send, round.t_recv), (ms(1), ms(102)));
        assert_eq!(round.dests, [0, 2]);
        // Simulated clock still `wall + latency * rounds` only: one round
        // was recorded, and the net events add nothing to it.
        assert_eq!(t.spans[0].duration, ms(103));
    }

    #[test]
    fn event_cap_drops_detail_but_keeps_summary_exact() {
        let record = |cap: Option<usize>| {
            let mut r = PartyRecorder::new(0, ms(10));
            if let Some(cap) = cap {
                r = r.with_event_cap(cap);
            }
            let mut stats = PartyStats::default();
            for _ in 0..50 {
                visit(&mut r, &mut stats, "epoch", &[(2, 64)], ms(1));
            }
            r.finish(stats)
        };
        let full = record(None);
        let capped = record(Some(8));
        assert_eq!(full.dropped_events, 0);
        assert_eq!(full.spans.len(), 50);
        assert_eq!(full.rounds.len(), 50);
        // Capped: only 8 detail records kept, the other 92 counted.
        assert_eq!(
            capped.spans.len() + capped.rounds.len() + capped.net_events.len(),
            8
        );
        assert_eq!(capped.dropped_events, 92);
        // The tally the trace carries is whole either way.
        let t_full = Trace::from_parties(ms(10), vec![full]);
        let t_capped = Trace::from_parties(ms(10), vec![capped]);
        let (a, b) = (t_full.stats(), t_capped.stats());
        assert_eq!(a.total, b.total);
        assert_eq!(b.total.messages, 100);
        assert_eq!(b.total.bytes, 50 * 64);
        assert_eq!(b.simulated_time(), ms(550));
        assert_eq!(t_capped.dropped_events(), 92);
        assert_eq!(t_full.dropped_events(), 0);
    }

    #[test]
    fn zero_cap_keeps_no_detail_and_all_totals() {
        let mut r = PartyRecorder::new(0, ms(1)).with_event_cap(0);
        let mut stats = PartyStats::default();
        r.record_net_event(NetEvent {
            party: 0,
            round: 0,
            peer: 1,
            kind: "delay".to_string(),
            value: 0.1,
        });
        visit(&mut r, &mut stats, "x", &[(3, 9)], ms(2));
        let t = r.finish(stats);
        assert!(t.spans.is_empty() && t.rounds.is_empty() && t.net_events.is_empty());
        assert_eq!(t.dropped_events, 3);
        let s = Trace::from_parties(ms(1), vec![t]).stats();
        assert_eq!(s.total.rounds, 1);
        assert_eq!(s.total.messages, 3);
        assert_eq!(s.total.bytes, 9);
        assert_eq!(s.simulated_time(), ms(3));
    }

    #[test]
    fn parties_sorted_and_totals_counted() {
        let (mut b, mut b_stats) = (PartyRecorder::new(1, ms(1)), PartyStats::default());
        visit(&mut b, &mut b_stats, "default", &[(5, 50)], ms(1));
        let (mut a, mut a_stats) = (PartyRecorder::new(0, ms(1)), PartyStats::default());
        visit(&mut a, &mut a_stats, "default", &[(4, 40)], ms(1));
        let t = Trace::from_parties(ms(1), vec![b.finish(b_stats), a.finish(a_stats)]);
        assert_eq!(t.parties[0].party, 0);
        assert_eq!(t.stats().total.messages, 9);
        assert_eq!(t.stats().total.bytes, 90);
    }
}

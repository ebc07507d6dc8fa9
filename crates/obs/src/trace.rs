//! Structured protocol tracing on the simulated clock.
//!
//! The MPC engine charges `latency` per synchronous round on top of the
//! measured wall time of the concurrently running party threads
//! (`simulated = wall + rounds * latency`). The tracer mirrors that model
//! at span granularity: each visit to a protocol phase (`"share"`,
//! `"quantize"`, `"dp_noise"`, `"compute"`, `"open"`, ...) becomes one
//! [`SpanRecord`] with a start position and duration on the party's
//! simulated timeline, and each message exchange becomes one
//! [`RoundRecord`].
//!
//! ## Exactness contract
//!
//! A [`PartyRecorder`] is owned by its party thread — no locks, no atomics —
//! and is fed the *same* `Instant::elapsed()` measurement that the engine
//! attributes to `PartyStats`. Merging therefore uses identical inputs and
//! identical arithmetic (`wall + latency * rounds as u32`, max-over-parties
//! for rounds/wall, sum for messages/bytes), so
//! [`Trace::summary`]'s total equals `RunStats::simulated_time()`
//! **exactly**, not approximately. The engine asserts this in its tests.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::Serialize;

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
    /// Measured wall time of this visit (same measurement as `PartyStats`).
    pub wall: Duration,
    /// Communication rounds inside this visit.
    pub rounds: u64,
    /// Messages this party sent inside this visit.
    pub messages: u64,
    /// Payload bytes this party sent inside this visit.
    pub bytes: u64,
}

/// One message exchange (synchronous round) as seen by one party.
#[derive(Clone, Debug, Serialize)]
pub struct RoundRecord {
    pub party: usize,
    /// Phase the round was charged to.
    pub phase: String,
    /// Party-global round index (0-based, in execution order).
    pub index: u64,
    /// Messages this party sent in the round.
    pub messages: u64,
    /// Payload bytes this party sent in the round.
    pub bytes: u64,
}

/// One stamped message as seen from one side of an exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct MsgStamp {
    /// The peer on the directed link: the destination for sends, the
    /// source for receives.
    pub peer: usize,
    /// Per-directed-link sequence number (matches a send to its receive).
    pub link_seq: u64,
    /// The sender's Lamport clock stamped on the message.
    pub lamport: u64,
    /// The sender's round index at send time.
    pub round: u64,
}

/// One synchronous exchange with its full causal context: where on the
/// party's simulated timeline the send and receive happened, the party's
/// Lamport clock on both sides, and the per-link stamps of every real
/// message sent and received. Recorded only when tracing is on; the
/// reconstruction lives in [`crate::causal`].
#[derive(Clone, Debug, Serialize)]
pub struct CausalRound {
    pub party: usize,
    /// Phase the round was charged to.
    pub phase: String,
    /// Party-global round index (matches [`RoundRecord::index`]).
    pub index: u64,
    /// Simulated-clock position of the send side of the exchange
    /// (span start + wall measured before the exchange + one latency per
    /// earlier round in the phase).
    pub t_send: Duration,
    /// Simulated-clock position of the receive side (span start + wall
    /// measured after the exchange + one latency per round completed in
    /// the phase, including this one). Always `>= t_send`.
    pub t_recv: Duration,
    /// Measured wall time spent inside the exchange call (receive wait).
    pub wall_wait: Duration,
    /// The party's Lamport clock stamped on this round's outgoing messages.
    pub lamport_send: u64,
    /// The party's Lamport clock after merging the received stamps.
    pub lamport_recv: u64,
    /// Real messages sent this round (non-empty, non-loopback), one stamp
    /// per destination.
    pub sends: Vec<MsgStamp>,
    /// Stamped messages received this round, one per stamping sender.
    pub recvs: Vec<MsgStamp>,
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

/// Exact per-phase aggregate a party maintains alongside its detail
/// records. Unlike the span/round vectors, phase totals are bounded by the
/// number of distinct phase names, so they survive the event cap intact —
/// [`Trace::summary`] is computed from these and stays exact no matter how
/// many detail events were dropped.
#[derive(Clone, Debug, Default, Serialize)]
pub struct PhaseTotal {
    pub phase: String,
    /// Communication rounds this party spent in the phase.
    pub rounds: u64,
    /// Messages this party sent in the phase.
    pub messages: u64,
    /// Payload bytes this party sent in the phase.
    pub bytes: u64,
    /// Wall time this party measured in the phase (sum over visits).
    pub wall: Duration,
}

/// Default bound on detail records (spans + rounds + net events) kept per
/// party. Long epoch loops (e.g. a full logistic-regression fit) can emit
/// millions of per-round records; beyond the cap they are counted, not
/// stored, and the per-phase aggregates keep the summary exact.
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// Per-party-thread recorder. Owned by exactly one thread; all methods are
/// plain mutations (lock-free by construction, like `PartyStats`).
#[derive(Debug)]
pub struct PartyRecorder {
    party: usize,
    latency: Duration,
    /// Simulated-clock cursor: sum of closed span durations.
    clock: Duration,
    phase: String,
    open_rounds: u64,
    open_messages: u64,
    open_bytes: u64,
    round_index: u64,
    /// Bound on `spans.len() + rounds.len() + net_events.len()`.
    event_cap: usize,
    /// Detail records discarded because the cap was reached.
    dropped_events: u64,
    spans: Vec<SpanRecord>,
    rounds: Vec<RoundRecord>,
    net_events: Vec<NetEvent>,
    causal: Vec<CausalRound>,
    phase_totals: BTreeMap<String, PhaseTotal>,
}

impl PartyRecorder {
    /// A fresh recorder positioned at simulated time zero in the engine's
    /// initial `"default"` phase, with the [`DEFAULT_EVENT_CAP`].
    pub fn new(party: usize, latency: Duration) -> Self {
        PartyRecorder {
            party,
            latency,
            clock: Duration::ZERO,
            phase: "default".to_string(),
            open_rounds: 0,
            open_messages: 0,
            open_bytes: 0,
            round_index: 0,
            event_cap: DEFAULT_EVENT_CAP,
            dropped_events: 0,
            spans: Vec::new(),
            rounds: Vec::new(),
            net_events: Vec::new(),
            causal: Vec::new(),
            phase_totals: BTreeMap::new(),
        }
    }

    /// Bound the number of detail records (spans, rounds, net events) this
    /// recorder keeps. Once the cap is reached further detail is dropped and
    /// counted ([`PartyTrace::dropped_events`], metrics counter
    /// `obs.trace.dropped_events`); phase totals — and with them the exact
    /// summary — are unaffected.
    pub fn with_event_cap(mut self, cap: usize) -> Self {
        self.event_cap = cap;
        self
    }

    fn stored_events(&self) -> usize {
        self.spans.len() + self.rounds.len() + self.net_events.len() + self.causal.len()
    }

    /// Record one exchange charged to the current phase.
    pub fn record_round(&mut self, messages: u64, bytes: u64) {
        if self.stored_events() < self.event_cap {
            self.rounds.push(RoundRecord {
                party: self.party,
                phase: self.phase.clone(),
                index: self.round_index,
                messages,
                bytes,
            });
        } else {
            self.dropped_events += 1;
        }
        self.round_index += 1;
        self.open_rounds += 1;
        self.open_messages += messages;
        self.open_bytes += bytes;
    }

    /// Close the current visit with the engine-measured wall time. The
    /// caller must pass the *same* `Duration` it hands to `PartyStats` —
    /// that is what makes the summary exact.
    pub fn flush_phase(&mut self, wall: Duration) {
        let duration = wall + self.latency * self.open_rounds as u32;
        let total = self
            .phase_totals
            .entry(self.phase.clone())
            .or_insert_with(|| PhaseTotal {
                phase: self.phase.clone(),
                ..PhaseTotal::default()
            });
        total.rounds += self.open_rounds;
        total.messages += self.open_messages;
        total.bytes += self.open_bytes;
        total.wall += wall;
        if self.stored_events() < self.event_cap {
            self.spans.push(SpanRecord {
                party: self.party,
                phase: self.phase.clone(),
                seq: self.spans.len(),
                start: self.clock,
                duration,
                wall,
                rounds: self.open_rounds,
                messages: self.open_messages,
                bytes: self.open_bytes,
            });
        } else {
            self.dropped_events += 1;
        }
        self.clock += duration;
        self.open_rounds = 0;
        self.open_messages = 0;
        self.open_bytes = 0;
    }

    /// Switch to a new phase. The caller flushes the previous visit first
    /// (mirroring the engine's `set_phase`).
    pub fn set_phase(&mut self, name: &str) {
        self.phase = name.to_string();
    }

    /// Record the causal context of an exchange. Must be called *before*
    /// [`record_round`](Self::record_round) for the same exchange: the
    /// event's position on the simulated timeline is anchored at the
    /// current span start plus one configured latency per round already
    /// completed in the open phase, mirroring `wall + latency * rounds`.
    ///
    /// `wall_send` / `wall_recv` are elapsed-since-phase-start
    /// measurements taken immediately before and after the transport
    /// call — the same `Instant` basis as the `flush_phase` wall.
    #[allow(clippy::too_many_arguments)]
    pub fn record_causal_round(
        &mut self,
        wall_send: Duration,
        wall_recv: Duration,
        lamport_send: u64,
        lamport_recv: u64,
        sends: Vec<MsgStamp>,
        recvs: Vec<MsgStamp>,
    ) {
        if self.stored_events() < self.event_cap {
            let k = self.open_rounds as u32;
            self.causal.push(CausalRound {
                party: self.party,
                phase: self.phase.clone(),
                index: self.round_index,
                t_send: self.clock + wall_send + self.latency * k,
                t_recv: self.clock + wall_recv + self.latency * (k + 1),
                wall_wait: wall_recv.saturating_sub(wall_send),
                lamport_send,
                lamport_recv,
                sends,
                recvs,
            });
        } else {
            self.dropped_events += 1;
        }
    }

    /// Record a transport-level event of the round just recorded. Events do
    /// not affect the simulated clock — injected delays already show up in
    /// the measured wall time.
    pub fn record_net_event(&mut self, event: NetEvent) {
        if self.stored_events() < self.event_cap {
            self.net_events.push(event);
        } else {
            self.dropped_events += 1;
        }
    }

    /// Finish recording. Any un-flushed activity is dropped, so the engine
    /// flushes before calling this.
    pub fn finish(self) -> PartyTrace {
        if self.dropped_events > 0 {
            crate::metrics::counter_add("obs.trace.dropped_events", self.dropped_events);
        }
        PartyTrace {
            party: self.party,
            spans: self.spans,
            rounds: self.rounds,
            net_events: self.net_events,
            causal: self.causal,
            phase_totals: self.phase_totals.into_values().collect(),
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
    /// Per-exchange causal context (empty unless the run was traced with
    /// a causal-stamping engine). Feeds [`crate::causal`].
    pub causal: Vec<CausalRound>,
    /// Exact per-phase aggregates (sorted by phase name). These feed
    /// [`Trace::summary`] and are complete even when detail records were
    /// dropped under the event cap.
    pub phase_totals: Vec<PhaseTotal>,
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

    /// Total messages across all parties.
    pub fn total_messages(&self) -> u64 {
        self.parties
            .iter()
            .flat_map(|p| &p.phase_totals)
            .map(|t| t.messages)
            .sum()
    }

    /// Total payload bytes across all parties.
    pub fn total_bytes(&self) -> u64 {
        self.parties
            .iter()
            .flat_map(|p| &p.phase_totals)
            .map(|t| t.bytes)
            .sum()
    }

    /// Detail records dropped across all parties under the event cap.
    pub fn dropped_events(&self) -> u64 {
        self.parties.iter().map(|p| p.dropped_events).sum()
    }

    /// Merge the per-party phase totals into a per-phase summary using the
    /// engine's semantics: within a party, visits to the same phase add;
    /// across parties, rounds and wall take the maximum (parties run
    /// concurrently in lock-step) while messages and bytes sum (total
    /// network traffic). Phase totals are exact even when detail spans were
    /// dropped under the event cap, so the summary always reproduces
    /// `RunStats` exactly.
    pub fn summary(&self) -> TraceSummary {
        #[derive(Default, Clone)]
        struct Acc {
            rounds: u64,
            messages: u64,
            bytes: u64,
            wall: Duration,
        }
        let mut phases: BTreeMap<String, Acc> = BTreeMap::new();
        let mut total = Acc::default();
        for pt in &self.parties {
            let mut party_total = Acc::default();
            for t in &pt.phase_totals {
                let m = phases.entry(t.phase.clone()).or_default();
                m.rounds = m.rounds.max(t.rounds);
                m.wall = m.wall.max(t.wall);
                m.messages += t.messages;
                m.bytes += t.bytes;
                party_total.rounds += t.rounds;
                party_total.messages += t.messages;
                party_total.bytes += t.bytes;
                party_total.wall += t.wall;
            }
            total.rounds = total.rounds.max(party_total.rounds);
            total.wall = total.wall.max(party_total.wall);
            total.messages += party_total.messages;
            total.bytes += party_total.bytes;
        }
        let row = |name: String, a: &Acc| PhaseRow {
            name,
            rounds: a.rounds,
            messages: a.messages,
            bytes: a.bytes,
            wall: a.wall,
            simulated: a.wall + self.latency * a.rounds as u32,
        };
        TraceSummary {
            latency: self.latency,
            phases: phases.iter().map(|(n, a)| row(n.clone(), a)).collect(),
            total: row("total".to_string(), &total),
        }
    }
}

/// One merged row of the per-phase summary table.
#[derive(Clone, Debug, Serialize)]
pub struct PhaseRow {
    pub name: String,
    /// Rounds (max over parties).
    pub rounds: u64,
    /// Messages (sum over parties).
    pub messages: u64,
    /// Payload bytes (sum over parties).
    pub bytes: u64,
    /// Wall time (max over parties).
    pub wall: Duration,
    /// `wall + latency * rounds` — the virtual-clock cost of the row.
    pub simulated: Duration,
}

/// Per-phase rollup of a [`Trace`]. `total.simulated` equals the engine's
/// `RunStats::simulated_time()` exactly (see the module docs).
#[derive(Clone, Debug, Serialize)]
pub struct TraceSummary {
    pub latency: Duration,
    pub phases: Vec<PhaseRow>,
    pub total: PhaseRow,
}

impl TraceSummary {
    /// The summary's total simulated time.
    pub fn total_simulated(&self) -> Duration {
        self.total.simulated
    }
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<12} {:>7} {:>10} {:>10} {:>14} {:>14}",
            "phase", "rounds", "messages", "MiB", "wall", "simulated"
        )?;
        for row in self.phases.iter().chain(std::iter::once(&self.total)) {
            writeln!(
                f,
                "{:<12} {:>7} {:>10} {:>10.3} {:>14.2?} {:>14.2?}",
                row.name,
                row.rounds,
                row.messages,
                row.bytes as f64 / (1024.0 * 1024.0),
                row.wall,
                row.simulated,
            )?;
        }
        write!(f, "({:?}/hop latency)", self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn spans_accumulate_on_the_simulated_clock() {
        let mut r = PartyRecorder::new(0, ms(100));
        r.set_phase("input");
        r.record_round(3, 300);
        r.flush_phase(ms(5));
        r.set_phase("open");
        r.record_round(3, 24);
        r.record_round(3, 24);
        r.flush_phase(ms(1));
        let t = r.finish();
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
    fn summary_merges_like_the_engine() {
        // Two parties, same round structure, different wall times.
        let mut a = PartyRecorder::new(0, ms(100));
        a.set_phase("x");
        a.record_round(2, 100);
        a.flush_phase(ms(3));
        let mut b = PartyRecorder::new(1, ms(100));
        b.set_phase("x");
        b.record_round(2, 100);
        b.flush_phase(ms(7));
        let trace = Trace::from_parties(ms(100), vec![a.finish(), b.finish()]);
        let s = trace.summary();
        assert_eq!(s.total.rounds, 1); // max, not sum
        assert_eq!(s.total.messages, 4); // sum
        assert_eq!(s.total.bytes, 200);
        assert_eq!(s.total.wall, ms(7)); // max
        assert_eq!(s.total_simulated(), ms(107));
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].name, "x");
        assert_eq!(s.phases[0].simulated, ms(107));
    }

    #[test]
    fn repeated_phase_visits_add_within_a_party() {
        let mut r = PartyRecorder::new(0, ms(10));
        r.set_phase("input");
        r.record_round(1, 10);
        r.flush_phase(ms(1));
        r.set_phase("compute");
        r.flush_phase(ms(2));
        r.set_phase("input");
        r.record_round(1, 10);
        r.flush_phase(ms(3));
        let trace = Trace::from_parties(ms(10), vec![r.finish()]);
        let s = trace.summary();
        let input = s.phases.iter().find(|p| p.name == "input").unwrap();
        assert_eq!(input.rounds, 2);
        assert_eq!(input.wall, ms(4));
        assert_eq!(input.simulated, ms(24));
        assert_eq!(s.total.rounds, 2);
        assert_eq!(s.total_simulated(), ms(26));
    }

    #[test]
    fn net_events_are_kept_in_order_and_do_not_touch_the_clock() {
        let mut r = PartyRecorder::new(1, ms(100));
        r.set_phase("input");
        r.record_round(2, 16);
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
        r.flush_phase(ms(3));
        let t = r.finish();
        assert_eq!(t.net_events.len(), 2);
        assert_eq!(t.net_events[0].kind, "retransmit");
        assert_eq!(t.net_events[1].peer, 2);
        // Simulated clock still `wall + latency * rounds` only: one round
        // was recorded, and the net events add nothing to it.
        assert_eq!(t.spans[0].duration, ms(103));
    }

    #[test]
    fn event_cap_drops_detail_but_keeps_summary_exact() {
        // Uncapped reference.
        let record = |cap: Option<usize>| {
            let mut r = PartyRecorder::new(0, ms(10));
            if let Some(cap) = cap {
                r = r.with_event_cap(cap);
            }
            for _ in 0..50 {
                r.set_phase("epoch");
                r.record_round(2, 64);
                r.flush_phase(ms(1));
            }
            r.finish()
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
        // The summary is identical — phase totals are exact regardless.
        let t_full = Trace::from_parties(ms(10), vec![full]);
        let t_capped = Trace::from_parties(ms(10), vec![capped]);
        let (a, b) = (t_full.summary(), t_capped.summary());
        assert_eq!(a.total.rounds, b.total.rounds);
        assert_eq!(a.total.messages, b.total.messages);
        assert_eq!(a.total.bytes, b.total.bytes);
        assert_eq!(a.total_simulated(), b.total_simulated());
        assert_eq!(t_capped.total_messages(), 100);
        assert_eq!(t_capped.total_bytes(), 50 * 64);
        assert_eq!(t_capped.dropped_events(), 92);
        assert_eq!(t_full.dropped_events(), 0);
    }

    #[test]
    fn zero_cap_keeps_no_detail_and_all_totals() {
        let mut r = PartyRecorder::new(0, ms(1)).with_event_cap(0);
        r.set_phase("x");
        r.record_round(3, 9);
        r.record_net_event(NetEvent {
            party: 0,
            round: 0,
            peer: 1,
            kind: "delay".to_string(),
            value: 0.1,
        });
        r.flush_phase(ms(2));
        let t = r.finish();
        assert!(t.spans.is_empty() && t.rounds.is_empty() && t.net_events.is_empty());
        assert_eq!(t.dropped_events, 3);
        let trace = Trace::from_parties(ms(1), vec![t]);
        let s = trace.summary();
        assert_eq!(s.total.rounds, 1);
        assert_eq!(s.total.messages, 3);
        assert_eq!(s.total.bytes, 9);
        assert_eq!(s.total_simulated(), ms(3));
    }

    #[test]
    fn parties_sorted_and_totals_counted() {
        let mut b = PartyRecorder::new(1, ms(1));
        b.record_round(5, 50);
        b.flush_phase(ms(1));
        let mut a = PartyRecorder::new(0, ms(1));
        a.record_round(4, 40);
        a.flush_phase(ms(1));
        let t = Trace::from_parties(ms(1), vec![b.finish(), a.finish()]);
        assert_eq!(t.parties[0].party, 0);
        assert_eq!(t.total_messages(), 9);
        assert_eq!(t.total_bytes(), 90);
    }
}

//! Cross-party causal analysis of a traced run.
//!
//! When tracing is on, both ends of every real message stamp it from
//! their own schedule — peer, round, per-link sequence number, Lamport
//! clock; nothing travels on the wire (see
//! [`PartyObserver`](crate::round::PartyObserver)) — and records one
//! [`CausalRound`] per exchange. [`MessageDag::build`] reconstructs the
//! full message DAG from a completed [`Trace`]: the nodes are per-party
//! exchange events on the simulated timeline, the intra-party edges follow
//! each party's program order, and the flow edges match every send to its
//! receive by `(from, to, link_seq)`.
//!
//! From the DAG, [`MessageDag::critical_path`] computes the
//! latency-weighted critical path and a per-party idle/compute breakdown.
//!
//! ## Exactness contract
//!
//! The critical-path **total** is the end of the straggler's timeline,
//! read off each party's tally ([`PartyTrace::stats`]): per party,
//! `wall + latency * rounds`, maximized over parties. For the engine's SPMD
//! runs — every party executes the same number of rounds — this equals
//! `RunStats::simulated_time()` **exactly**, the same tallies merged. The
//! walked segment list is an *attribution* of that total: per-party clocks
//! share the simulated origin but drift by measured wall differences, so
//! individual segment boundaries are measurements, not invariants.
//!
//! [`PartyTrace::stats`]: crate::trace::PartyTrace::stats

use std::collections::BTreeMap;
use std::time::Duration;

use serde::Serialize;

use crate::trace::{CausalRound, PartyTrace, Trace};

/// One matched send→recv flow edge of the message DAG.
#[derive(Clone, Debug, Serialize)]
pub struct FlowEdge {
    /// Sending party.
    pub from: usize,
    /// Receiving party.
    pub to: usize,
    /// Per-directed-link sequence number (matches send to receive).
    pub link_seq: u64,
    /// The sender's Lamport clock stamped on the message.
    pub lamport: u64,
    /// The sender's round index at send time.
    pub send_round: u64,
    /// The receiver's round index at receive time.
    pub recv_round: u64,
    /// Simulated-clock send position (sender's timeline).
    pub send_time: Duration,
    /// Simulated-clock receive position (receiver's timeline).
    pub recv_time: Duration,
}

/// One segment of the walked critical path, in increasing time order.
#[derive(Clone, Debug, Serialize)]
pub struct PathSegment {
    /// Party whose timeline the segment ends on.
    pub party: usize,
    /// Phase the segment's terminal event was charged to.
    pub phase: String,
    /// `"compute"` (local work between exchanges) or `"hop"` (the
    /// latency-weighted wait of one exchange).
    pub kind: String,
    pub start: Duration,
    pub end: Duration,
    /// For cross-party hops: the party whose send bound the receive.
    /// `None` for compute segments and for hops bound by the local round
    /// structure (uniform-model latency charge).
    pub from_party: Option<usize>,
}

/// Per-party share of a run: where its simulated time went.
#[derive(Clone, Debug, Serialize)]
pub struct PartyBreakdown {
    pub party: usize,
    /// End of the party's simulated timeline (`wall + latency * rounds`,
    /// exact from the party's tally).
    pub total: Duration,
    /// Time spent waiting inside exchanges (sum of `t_recv - t_send`
    /// over recorded causal rounds; includes the modeled latency).
    pub idle: Duration,
    /// `total - idle`: local compute attributed to the party.
    pub compute: Duration,
    /// Exchanges the party executed.
    pub rounds: u64,
    /// Real messages the party sent.
    pub messages: u64,
}

/// The latency-weighted critical path of a run.
#[derive(Clone, Debug, Serialize)]
pub struct CriticalPath {
    /// Length of the critical path — the end of the straggler party's
    /// simulated timeline. Equals `RunStats::simulated_time()` exactly on
    /// SPMD runs (see the module docs).
    pub total: Duration,
    /// The party whose timeline ends last (the straggler).
    pub end_party: usize,
    /// Cross-party hops on the walked path.
    pub cross_hops: u64,
    /// The walked path, oldest segment first (empty when the trace holds
    /// no causal rounds, e.g. untraced or fully event-capped runs).
    pub segments: Vec<PathSegment>,
    /// Per-party idle/compute breakdown, sorted by party id.
    pub parties: Vec<PartyBreakdown>,
}

impl CriticalPath {
    /// The critical-path length in fractional seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total.as_secs_f64()
    }
}

/// The reconstructed cross-party message DAG of one traced run.
///
/// Holds references into the [`Trace`] it was built from; nodes are the
/// per-party [`CausalRound`]s in program order, flow edges are the matched
/// `(from, to, link_seq)` send/recv pairs.
pub struct MessageDag<'a> {
    latency: Duration,
    /// `rounds[k]` are party `parties[k]`'s causal rounds in round order.
    parties: Vec<usize>,
    rounds: Vec<Vec<&'a CausalRound>>,
    /// Matched flow edges, sorted by `(from, to, link_seq)`.
    edges: Vec<FlowEdge>,
    /// Send stamps with no matching receive stamp.
    unmatched_sends: usize,
    /// Receive stamps with no matching send stamp.
    unmatched_recvs: usize,
    trace: &'a Trace,
}

impl<'a> MessageDag<'a> {
    /// Reconstruct the message DAG of a completed traced run.
    pub fn build(trace: &'a Trace) -> MessageDag<'a> {
        let mut parties = Vec::new();
        let mut rounds: Vec<Vec<&CausalRound>> = Vec::new();
        for pt in &trace.parties {
            parties.push(pt.party);
            let mut rs: Vec<&CausalRound> = pt.causal.iter().collect();
            rs.sort_by_key(|r| r.index);
            rounds.push(rs);
        }

        // (from, to, link_seq) -> send side (round index, time, lamport).
        let mut sends: BTreeMap<(usize, usize, u64), (u64, Duration, u64)> = BTreeMap::new();
        let mut dup_sends = 0usize;
        for rs in &rounds {
            for r in rs {
                for s in &r.sends {
                    if sends
                        .insert(
                            (r.party, s.peer, s.link_seq),
                            (r.index, r.t_send, s.lamport),
                        )
                        .is_some()
                    {
                        dup_sends += 1;
                    }
                }
            }
        }
        let total_sends = sends.len() + dup_sends;

        let mut edges = Vec::new();
        let mut unmatched_recvs = 0usize;
        for rs in &rounds {
            for r in rs {
                for stamp in &r.recvs {
                    match sends.remove(&(stamp.peer, r.party, stamp.link_seq)) {
                        Some((send_round, send_time, lamport)) => edges.push(FlowEdge {
                            from: stamp.peer,
                            to: r.party,
                            link_seq: stamp.link_seq,
                            lamport,
                            send_round,
                            recv_round: r.index,
                            send_time,
                            recv_time: r.t_recv,
                        }),
                        None => unmatched_recvs += 1,
                    }
                }
            }
        }
        edges.sort_by_key(|e| (e.from, e.to, e.link_seq));
        let unmatched_sends = total_sends - edges.len();
        MessageDag {
            latency: trace.latency,
            parties,
            rounds,
            edges,
            unmatched_sends,
            unmatched_recvs,
            trace,
        }
    }

    /// The matched flow edges, sorted by `(from, to, link_seq)`. The
    /// position in this slice is the stable flow id used by the Chrome
    /// trace export.
    pub fn edges(&self) -> &[FlowEdge] {
        &self.edges
    }

    /// Total causal rounds (DAG nodes) across all parties.
    pub fn node_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Send stamps with no matching receive.
    pub fn unmatched_sends(&self) -> usize {
        self.unmatched_sends
    }

    /// Receive stamps with no matching send.
    pub fn unmatched_recvs(&self) -> usize {
        self.unmatched_recvs
    }

    /// `true` when every send matched exactly one receive and vice versa
    /// — the expected state of any fault-free completed run.
    pub fn fully_matched(&self) -> bool {
        self.unmatched_sends == 0 && self.unmatched_recvs == 0
    }

    /// Count Lamport-clock violations across every DAG edge: within each
    /// exchange `lamport_send < lamport_recv`; along each party's program
    /// order `lamport_recv < next lamport_send`; along each flow edge the
    /// stamped send clock is `<` the receiving exchange's merged clock.
    /// Zero on any correctly stamped run.
    pub fn lamport_violations(&self) -> usize {
        let mut violations = 0usize;
        let mut recv_clock: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        for rs in &self.rounds {
            for pair in rs.windows(2) {
                if pair[0].lamport_recv >= pair[1].lamport_send {
                    violations += 1;
                }
            }
            for r in rs {
                if r.lamport_send >= r.lamport_recv {
                    violations += 1;
                }
                recv_clock.insert((r.party, r.index), r.lamport_recv);
            }
        }
        for e in &self.edges {
            match recv_clock.get(&(e.to, e.recv_round)) {
                Some(&merged) if e.lamport < merged => {}
                _ => violations += 1,
            }
        }
        violations
    }

    /// Per-party timeline ends, exact from each party's tally:
    /// `wall + latency * rounds`.
    fn party_totals(&self) -> Vec<(usize, Duration, u64, u64)> {
        let total = |pt: &PartyTrace| {
            let t = &pt.stats.total;
            (
                pt.party,
                t.simulated_time(self.latency),
                t.rounds,
                t.messages,
            )
        };
        self.trace.parties.iter().map(total).collect()
    }

    /// Compute the latency-weighted critical path and per-party breakdown.
    pub fn critical_path(&self) -> CriticalPath {
        let totals = self.party_totals();
        let (end_party, total) = totals
            .iter()
            .map(|&(p, t, _, _)| (p, t))
            .max_by_key(|&(p, t)| (t, std::cmp::Reverse(p)))
            .unwrap_or((0, Duration::ZERO));

        let parties = totals
            .iter()
            .map(|&(party, total, rounds, messages)| {
                let slot = self.parties.iter().position(|&p| p == party);
                let idle = slot
                    .map(|k| {
                        self.rounds[k]
                            .iter()
                            .map(|r| r.t_recv.saturating_sub(r.t_send))
                            .sum()
                    })
                    .unwrap_or(Duration::ZERO);
                PartyBreakdown {
                    party,
                    total,
                    idle,
                    compute: total.saturating_sub(idle),
                    rounds,
                    messages,
                }
            })
            .collect();

        let segments = self.walk_segments(end_party, total);
        let cross_hops = segments
            .iter()
            .filter(|s| s.kind == "hop" && s.from_party.is_some())
            .count() as u64;
        CriticalPath {
            total,
            end_party,
            cross_hops,
            segments,
            parties,
        }
    }

    /// Backward walk from the straggler's timeline end, choosing at every
    /// receive the binding predecessor: the matched remote send whose
    /// simulated send position is latest, against the local send event.
    fn walk_segments(&self, end_party: usize, total: Duration) -> Vec<PathSegment> {
        // Incoming matched edges keyed by (receiver, receiver round).
        let mut incoming: BTreeMap<(usize, u64), Vec<&FlowEdge>> = BTreeMap::new();
        for e in &self.edges {
            incoming.entry((e.to, e.recv_round)).or_default().push(e);
        }
        let slot_of = |party: usize| self.parties.iter().position(|&p| p == party);
        let pos_of =
            |slot: usize, round: u64| self.rounds[slot].iter().position(|r| r.index == round);

        let mut segments: Vec<PathSegment> = Vec::new();
        let mut push = |party: usize,
                        phase: &str,
                        kind: &str,
                        start: Duration,
                        end: Duration,
                        from: Option<usize>| {
            if end > start {
                segments.push(PathSegment {
                    party,
                    phase: phase.to_string(),
                    kind: kind.to_string(),
                    start,
                    end,
                    from_party: from,
                });
            }
        };

        let Some(mut slot) = slot_of(end_party) else {
            return segments;
        };
        if self.rounds[slot].is_empty() {
            return segments;
        }
        let mut pos = self.rounds[slot].len() - 1;
        {
            let last = self.rounds[slot][pos];
            push(end_party, &last.phase, "compute", last.t_recv, total, None);
        }
        loop {
            let r = self.rounds[slot][pos];
            let party = r.party;
            let binding = incoming
                .get(&(party, r.index))
                .and_then(|es| es.iter().max_by_key(|e| (e.send_time, e.from)).copied())
                .filter(|e| e.send_time > r.t_send);
            match binding {
                Some(e) => {
                    push(party, &r.phase, "hop", e.send_time, r.t_recv, Some(e.from));
                    let Some(s) = slot_of(e.from) else { break };
                    let Some(p) = pos_of(s, e.send_round) else {
                        break;
                    };
                    slot = s;
                    pos = p;
                    let r2 = self.rounds[slot][pos];
                    if pos == 0 {
                        push(
                            r2.party,
                            &r2.phase,
                            "compute",
                            Duration::ZERO,
                            r2.t_send,
                            None,
                        );
                        break;
                    }
                    let prev = self.rounds[slot][pos - 1];
                    push(r2.party, &r2.phase, "compute", prev.t_recv, r2.t_send, None);
                    pos -= 1;
                }
                None => {
                    push(party, &r.phase, "hop", r.t_send, r.t_recv, None);
                    if pos == 0 {
                        push(party, &r.phase, "compute", Duration::ZERO, r.t_send, None);
                        break;
                    }
                    let prev = self.rounds[slot][pos - 1];
                    push(party, &r.phase, "compute", prev.t_recv, r.t_send, None);
                    pos -= 1;
                }
            }
        }
        segments.reverse();
        segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{PartyStats, PhaseStats};
    use crate::trace::{MsgStamp, PartyRecorder};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Close `rec`'s one visit to `phase` — `rounds` rounds sending
    /// `messages` messages in all, lasting `wall` — in the party's tally and
    /// the recorder alike, and finish, the way a `PartyObserver` does.
    fn finish(
        mut rec: PartyRecorder,
        phase: &str,
        rounds: u64,
        messages: u64,
        wall: Duration,
    ) -> PartyTrace {
        let visit = PhaseStats {
            rounds,
            messages,
            bytes: 8 * messages,
            elems: messages,
            wall,
        };
        rec.close_span(phase, &visit);
        let mut stats = PartyStats::default();
        stats.add_visit(phase, &visit);
        rec.finish(stats)
    }

    /// Two parties exchanging one message each for `rounds` rounds,
    /// recorded the way the engine records: causal context first, then the
    /// round, then the visit's close.
    fn two_party_trace(rounds: u64) -> Trace {
        let latency = ms(100);
        let parties = (0..2usize)
            .map(|me| {
                let peer = 1 - me;
                let mut rec = PartyRecorder::new(me, latency);
                let mut lamport = 0u64;
                for k in 0..rounds {
                    let send = lamport + 1;
                    let recv = send + 1; // peer's stamp is `send` too; max+1
                    let stamp = MsgStamp {
                        peer,
                        link_seq: k,
                        lamport: send,
                        round: k,
                    };
                    let (wall, clocks) = ((ms(k), ms(k)), (send, recv));
                    rec.record_causal_round(
                        "compute",
                        k,
                        k,
                        wall,
                        clocks,
                        vec![stamp],
                        vec![stamp],
                    );
                    rec.record_round("compute", k, 1, 8);
                    lamport = recv;
                }
                finish(rec, "compute", rounds, rounds, ms(rounds))
            })
            .collect();
        Trace::from_parties(latency, parties)
    }

    #[test]
    fn dag_matches_every_send_to_one_recv() {
        let trace = two_party_trace(3);
        let dag = MessageDag::build(&trace);
        assert_eq!(dag.node_count(), 6);
        assert_eq!(dag.edges().len(), 6);
        assert!(dag.fully_matched());
        assert_eq!(dag.unmatched_sends(), 0);
        assert_eq!(dag.unmatched_recvs(), 0);
        assert_eq!(dag.lamport_violations(), 0);
        // Edges are sorted by (from, to, link_seq).
        let keys: Vec<_> = dag
            .edges()
            .iter()
            .map(|e| (e.from, e.to, e.link_seq))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn missing_recv_is_reported_not_matched() {
        let latency = ms(10);
        let mut a = PartyRecorder::new(0, latency);
        let sent = MsgStamp {
            peer: 1,
            link_seq: 0,
            lamport: 1,
            round: 0,
        };
        a.record_causal_round("default", 0, 0, (ms(0), ms(0)), (1, 2), vec![sent], vec![]);
        a.record_round("default", 0, 1, 8);
        let mut b = PartyRecorder::new(1, latency);
        b.record_round("default", 0, 0, 0);
        let parties = vec![
            finish(a, "default", 1, 1, ms(1)),
            finish(b, "default", 1, 0, ms(1)),
        ];
        let trace = Trace::from_parties(latency, parties);
        let dag = MessageDag::build(&trace);
        assert!(!dag.fully_matched());
        assert_eq!(dag.unmatched_sends(), 1);
        assert_eq!(dag.unmatched_recvs(), 0);
        assert!(dag.edges().is_empty());
    }

    #[test]
    fn critical_path_total_matches_summary_exactly() {
        let trace = two_party_trace(4);
        let dag = MessageDag::build(&trace);
        let cp = dag.critical_path();
        assert_eq!(cp.total, trace.stats().simulated_time());
        assert_eq!(cp.total, ms(4 + 4 * 100));
        assert_eq!(cp.parties.len(), 2);
        for p in &cp.parties {
            assert_eq!(p.rounds, 4);
            assert_eq!(p.total, p.idle + p.compute);
        }
        // The walked path is contiguous in time and ends at the total.
        assert!(!cp.segments.is_empty());
        assert_eq!(cp.segments.last().unwrap().end, cp.total);
        for w in cp.segments.windows(2) {
            assert!(w[0].end <= w[1].start || w[0].party != w[1].party);
        }
    }

    #[test]
    fn empty_causal_data_yields_exact_total_and_no_segments() {
        let latency = ms(100);
        let mut r = PartyRecorder::new(0, latency);
        r.record_round("x", 0, 2, 16);
        let trace = Trace::from_parties(latency, vec![finish(r, "x", 1, 2, ms(5))]);
        let dag = MessageDag::build(&trace);
        let cp = dag.critical_path();
        assert_eq!(cp.total, trace.stats().simulated_time());
        assert_eq!(cp.total, ms(105));
        assert!(cp.segments.is_empty());
        assert_eq!(cp.parties[0].idle, Duration::ZERO);
    }

    #[test]
    fn lamport_violations_detected() {
        let latency = ms(10);
        let mut a = PartyRecorder::new(0, latency);
        // Broken stamping: recv clock not past the send clock.
        a.record_causal_round("default", 0, 0, (ms(0), ms(0)), (5, 5), vec![], vec![]);
        a.record_round("default", 0, 0, 0);
        let trace = Trace::from_parties(latency, vec![finish(a, "default", 1, 0, ms(1))]);
        let dag = MessageDag::build(&trace);
        assert_eq!(dag.lamport_violations(), 1);
    }

    /// Simulate a fault-free synchronous-round run the way the engine
    /// stamps it: per global round every party picks `lamport + 1` as its
    /// send clock, delivery is exact, and each receiver merges to
    /// `max(send, received...) + 1`. The message pattern, per-party wall
    /// times, and latency all come from proptest.
    fn simulate(n: usize, latency: Duration, pattern: &[Vec<bool>], walls_ms: &[u64]) -> Trace {
        let mut recs: Vec<PartyRecorder> = (0..n).map(|p| PartyRecorder::new(p, latency)).collect();
        let mut lamport = vec![0u64; n];
        let mut link_seq = vec![vec![0u64; n]; n];
        let mut sent = vec![0u64; n];
        for (k, round) in pattern.iter().enumerate() {
            let k = k as u64;
            // Who sends to whom this round: `round[me * n + peer]`.
            let mut sends: Vec<Vec<MsgStamp>> = vec![Vec::new(); n];
            let mut recvs: Vec<Vec<MsgStamp>> = vec![Vec::new(); n];
            let send_clock: Vec<u64> = lamport.iter().map(|l| l + 1).collect();
            for me in 0..n {
                for peer in 0..n {
                    if peer == me || !round[me * n + peer] {
                        continue;
                    }
                    let stamp = MsgStamp {
                        peer,
                        link_seq: link_seq[me][peer],
                        lamport: send_clock[me],
                        round: k,
                    };
                    link_seq[me][peer] += 1;
                    sends[me].push(stamp);
                    recvs[peer].push(MsgStamp { peer: me, ..stamp });
                }
            }
            for me in 0..n {
                let max_recv = recvs[me].iter().map(|s| s.lamport).max().unwrap_or(0);
                let merged = send_clock[me].max(max_recv) + 1;
                let wall = ms(walls_ms[(k as usize * n + me) % walls_ms.len()]);
                let n_sent = sends[me].len() as u64;
                recs[me].record_causal_round(
                    "default",
                    k,
                    k,
                    (wall, wall + ms(1)),
                    (send_clock[me], merged),
                    std::mem::take(&mut sends[me]),
                    std::mem::take(&mut recvs[me]),
                );
                recs[me].record_round("default", k, n_sent, 8 * n_sent);
                sent[me] += n_sent;
                lamport[me] = merged;
            }
        }
        let total_rounds = pattern.len() as u64;
        let parties = recs
            .into_iter()
            .zip(sent)
            .map(|(r, sent)| finish(r, "default", total_rounds, sent, ms(total_rounds * 2)))
            .collect();
        Trace::from_parties(latency, parties)
    }

    proptest::proptest! {
        #[test]
        fn reconstruction_invariants_hold_on_faultfree_runs(
            n in 2usize..5,
            rounds in 1usize..6,
            latency_ms in 0u64..200,
            raw_pattern in proptest::collection::vec(proptest::prelude::any::<bool>(), 5 * 25),
            walls_ms in proptest::collection::vec(0u64..50, 8),
        ) {
            let pattern: Vec<Vec<bool>> = (0..rounds)
                .map(|k| (0..n * n).map(|i| raw_pattern[(k * n * n + i) % raw_pattern.len()]).collect())
                .collect();
            let trace = simulate(n, ms(latency_ms), &pattern, &walls_ms);
            let dag = MessageDag::build(&trace);
            // Every send has exactly one matching recv, and vice versa.
            let total_sends: usize = trace
                .parties
                .iter()
                .flat_map(|p| p.causal.iter().map(|c| c.sends.len()))
                .sum();
            proptest::prop_assert!(dag.fully_matched());
            proptest::prop_assert_eq!(dag.edges().len(), total_sends);
            proptest::prop_assert_eq!(dag.unmatched_sends(), 0);
            proptest::prop_assert_eq!(dag.unmatched_recvs(), 0);
            // Lamport clocks are monotone along every DAG edge (flow and
            // program order) — zero violations on a fault-free run.
            proptest::prop_assert_eq!(dag.lamport_violations(), 0);
            // Equal-round (SPMD) runs end the critical path at the merged
            // stats' virtual clock.
            let cp = dag.critical_path();
            let stats = trace.stats();
            proptest::prop_assert_eq!(cp.total, stats.simulated_time());
            proptest::prop_assert_eq!(stats.total.messages, total_sends as u64);
            for p in &cp.parties {
                proptest::prop_assert_eq!(p.total, p.idle + p.compute);
            }
        }
    }
}

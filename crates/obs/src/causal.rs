//! Cross-party causal analysis of a traced run.
//!
//! Each exchange is one round record ([`RoundRecord`]); flows are read off
//! the senders' `dests`. Rounds are lock-step, so a message is fixed by its
//! sender, receiver and round: [`flows`] gives one [`FlowEdge`] per peer in
//! a sender's `dests`, sent at the sender's record of that round and
//! received at the receiver's. Nothing is matched or stamped: both ends of
//! every edge are what the two parties recorded of the same round.
//!
//! From those edges, [`critical_path`] computes the latency-weighted
//! critical path and a per-party idle/compute breakdown.
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

use crate::trace::{RoundRecord, Trace};

/// One send→recv flow edge of the message DAG.
#[derive(Clone, Debug, Serialize)]
pub struct FlowEdge {
    /// Sending party.
    pub from: usize,
    /// Receiving party.
    pub to: usize,
    /// The round the message was sent and received in.
    pub round: u64,
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
    /// over recorded rounds; includes the modeled latency).
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
    /// no round records, e.g. fully event-capped runs).
    pub segments: Vec<PathSegment>,
    /// Per-party idle/compute breakdown, sorted by party id.
    pub parties: Vec<PartyBreakdown>,
}

/// Every party's round records, keyed by `(party, round index)`.
fn records(trace: &Trace) -> BTreeMap<(usize, u64), &RoundRecord> {
    let all = trace.parties.iter().flat_map(|p| &p.rounds);
    all.map(|r| ((r.party, r.index), r)).collect()
}

/// The message DAG's flow edges: one per peer `q` in a sender `p`'s `dests`
/// at round `k` whose own record of round `k` was kept, sorted by
/// `(from, to, round)`. The position in this list is the stable flow id the
/// Chrome trace export uses.
pub fn flows(trace: &Trace) -> Vec<FlowEdge> {
    let records = records(trace);
    let mut edges: Vec<FlowEdge> = records
        .values()
        .flat_map(|send| send.dests.iter().map(move |&to| (send, to)))
        .filter_map(|(send, to)| {
            let recv = records.get(&(to, send.index))?;
            Some(FlowEdge {
                from: send.party,
                to,
                round: send.index,
                send_time: send.t_send,
                recv_time: recv.t_recv,
            })
        })
        .collect();
    edges.sort_by_key(|e| (e.from, e.to, e.round));
    edges
}

/// The latency-weighted critical path of a traced run and its per-party
/// breakdown.
pub fn critical_path(trace: &Trace) -> CriticalPath {
    let parties: Vec<PartyBreakdown> = trace
        .parties
        .iter()
        .map(|pt| {
            let t = &pt.stats.total;
            let total = t.simulated_time(trace.latency);
            let idle = pt
                .rounds
                .iter()
                .map(|r| r.t_recv.saturating_sub(r.t_send))
                .sum();
            PartyBreakdown {
                party: pt.party,
                total,
                idle,
                compute: total.saturating_sub(idle),
                rounds: t.rounds,
                messages: t.messages,
            }
        })
        .collect();
    let (end_party, total) = parties
        .iter()
        .map(|p| (p.party, p.total))
        .max_by_key(|&(p, t)| (t, std::cmp::Reverse(p)))
        .unwrap_or((0, Duration::ZERO));
    let segments = walk_segments(trace, end_party, total);
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

/// One party's round records, in round order.
fn rounds_of(trace: &Trace, party: usize) -> &[RoundRecord] {
    let pt = trace.parties.iter().find(|p| p.party == party);
    pt.map_or(&[][..], |p| &p.rounds[..])
}

/// Backward walk from the straggler's timeline end, choosing at every
/// receive the binding predecessor: the remote send whose simulated send
/// position is latest, against the local send event.
fn walk_segments(trace: &Trace, end_party: usize, total: Duration) -> Vec<PathSegment> {
    let mut rounds = rounds_of(trace, end_party);
    if rounds.is_empty() {
        return Vec::new();
    }
    // Incoming edges keyed by (receiver, round).
    let mut incoming: BTreeMap<(usize, u64), Vec<FlowEdge>> = BTreeMap::new();
    for e in flows(trace) {
        incoming.entry((e.to, e.round)).or_default().push(e);
    }
    let mut segments: Vec<PathSegment> = Vec::new();
    let mut push =
        |r: &RoundRecord, kind: &str, start: Duration, end: Duration, from_party: Option<usize>| {
            if end > start {
                segments.push(PathSegment {
                    party: r.party,
                    phase: r.phase.clone(),
                    kind: kind.to_string(),
                    start,
                    end,
                    from_party,
                });
            }
        };
    let mut pos = rounds.len() - 1;
    push(&rounds[pos], "compute", rounds[pos].t_recv, total, None);
    loop {
        let r = &rounds[pos];
        let binding = incoming
            .get(&(r.party, r.index))
            .and_then(|es| es.iter().max_by_key(|e| (e.send_time, e.from)))
            .filter(|e| e.send_time > r.t_send);
        match binding {
            Some(e) => {
                push(r, "hop", e.send_time, r.t_recv, Some(e.from));
                // The sender's record of the round holds the edge's send.
                rounds = rounds_of(trace, e.from);
                match rounds.iter().position(|s| s.index == e.round) {
                    Some(p) => pos = p,
                    None => break,
                }
            }
            None => push(r, "hop", r.t_send, r.t_recv, None),
        }
        let r = &rounds[pos];
        if pos == 0 {
            push(r, "compute", Duration::ZERO, r.t_send, None);
            break;
        }
        push(r, "compute", rounds[pos - 1].t_recv, r.t_send, None);
        pos -= 1;
    }
    segments.reverse();
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{PartyStats, PhaseStats};
    use crate::trace::{PartyRecorder, PartyTrace};

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
    /// recorded the way the engine records: each round, then the visit's
    /// close.
    fn two_party_trace(rounds: u64) -> Trace {
        let latency = ms(100);
        let parties = (0..2usize)
            .map(|me| {
                let mut rec = PartyRecorder::new(me, latency);
                for k in 0..rounds {
                    let walls = (ms(k), ms(k));
                    rec.record_round("compute", k, k, walls, (1, 8), vec![1 - me]);
                }
                finish(rec, "compute", rounds, rounds, ms(rounds))
            })
            .collect();
        Trace::from_parties(latency, parties)
    }

    #[test]
    fn dag_matches_every_send_to_one_recv() {
        let trace = two_party_trace(3);
        let edges = flows(&trace);
        assert_eq!(edges.len(), 6);
        // Edges are sorted by (from, to, round), and each spans one hop.
        let keys: Vec<_> = edges.iter().map(|e| (e.from, e.to, e.round)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        for e in &edges {
            assert_eq!(e.recv_time - e.send_time, ms(100), "{e:?}");
        }
    }

    #[test]
    fn critical_path_total_matches_summary_exactly() {
        let trace = two_party_trace(4);
        let cp = critical_path(&trace);
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
        // Every round record dropped (an event-capped run): the total still
        // comes whole from the tally.
        let latency = ms(100);
        let r = PartyRecorder::new(0, latency);
        let trace = Trace::from_parties(latency, vec![finish(r, "x", 1, 2, ms(5))]);
        let cp = critical_path(&trace);
        assert_eq!(cp.total, trace.stats().simulated_time());
        assert_eq!(cp.total, ms(105));
        assert!(cp.segments.is_empty());
        assert!(flows(&trace).is_empty());
        assert_eq!(cp.parties[0].idle, Duration::ZERO);
    }

    /// Record a fault-free synchronous-round run the way the engine does:
    /// per global round every party records the peers it sent to. The
    /// message pattern, per-party wall times, and latency all come from
    /// proptest.
    fn simulate(n: usize, latency: Duration, pattern: &[Vec<bool>], walls_ms: &[u64]) -> Trace {
        let mut recs: Vec<PartyRecorder> = (0..n).map(|p| PartyRecorder::new(p, latency)).collect();
        let mut sent = vec![0u64; n];
        for (k, round) in pattern.iter().enumerate() {
            // Who sends to whom this round: `round[me * n + peer]`.
            for (me, rec) in recs.iter_mut().enumerate() {
                let dests: Vec<usize> = (0..n)
                    .filter(|&peer| peer != me && round[me * n + peer])
                    .collect();
                let wall = ms(walls_ms[(k * n + me) % walls_ms.len()]);
                let n_sent = dests.len() as u64;
                let k = k as u64;
                rec.record_round(
                    "default",
                    k,
                    k,
                    (wall, wall + ms(1)),
                    (n_sent, 8 * n_sent),
                    dests,
                );
                sent[me] += n_sent;
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
            // One flow edge per real message, each at its sender's record.
            let edges = flows(&trace);
            let stats = trace.stats();
            proptest::prop_assert_eq!(edges.len() as u64, stats.total.messages);
            for e in &edges {
                let send = &trace.parties[e.from].rounds[e.round as usize];
                proptest::prop_assert!(send.dests.contains(&e.to));
                proptest::prop_assert_eq!(e.send_time, send.t_send);
            }
            // Equal-round (SPMD) runs end the critical path at the merged
            // stats' virtual clock.
            let cp = critical_path(&trace);
            proptest::prop_assert_eq!(cp.total, stats.simulated_time());
            for p in &cp.parties {
                proptest::prop_assert_eq!(p.total, p.idle + p.compute);
            }
        }
    }
}

//! Every view of a run's time and bytes is fed from the same per-round
//! event, so with all of them attached at once — trace, live collector,
//! cost profiler, metrics registry — they must agree with `RunStats` and
//! with each other, exactly, per phase and in total, on both protocol
//! shapes: GRR layers ending in a broadcast open, and a release's uneven
//! input sharing ending in the sparse masked sum.
//!
//! A binary of its own with one test: it switches the process-wide metrics
//! registry on and reads its counters back.

use std::collections::BTreeMap;
use std::time::Duration;

use sqm_field::{PrimeField, M61};
use sqm_mpc::{
    FaultSpec, LiveConfig, MpcConfig, MpcEngine, MpcRun, NetBackend, ProfConfig, RECEIVER,
};
use sqm_obs::live::{Collector, LiveSnapshot};
use sqm_obs::metrics::{self, MetricsSnapshot};
use sqm_obs::prof::{ProfSnapshot, Profiler};
use sqm_obs::MessageDag;

mod common;
use common::{assert_released, release_program};

const P: usize = 4;

/// `(rounds, messages, bytes)` per phase that exchanged at least once, with
/// rounds counted once per party (the unit every per-round observer sees;
/// `RunStats` reports the max over parties instead).
type PhaseTotals = BTreeMap<String, (u64, u64, u64)>;

/// Hold every view of `run`, a `shape` program that exchanges in
/// exactly `phases`, against its `RunStats`.
fn check<T>(
    shape: &str,
    phases: &[&str],
    run: &MpcRun<T>,
    live: &LiveSnapshot,
    prof: &ProfSnapshot,
) {
    let registry: MetricsSnapshot = metrics::snapshot();
    let stats = &run.stats;
    let n = P as u64;
    let want: PhaseTotals = stats
        .phases
        .iter()
        .filter(|(_, p)| p.rounds > 0)
        .map(|(name, p)| (name.clone(), (n * p.rounds, p.messages, p.bytes)))
        .collect();
    assert_eq!(want.keys().collect::<Vec<_>>(), phases, "{shape}: phases");
    let total = (
        n * stats.total.rounds,
        stats.total.messages,
        stats.total.bytes,
    );

    // Trace: every party's round records, summed per phase.
    let trace = run.trace.as_ref().expect("traced");
    let mut rows = PhaseTotals::new();
    for r in trace.parties.iter().flat_map(|p| &p.rounds) {
        let row = rows.entry(r.phase.clone()).or_default();
        *row = (row.0 + 1, row.1 + r.messages, row.2 + r.bytes);
    }
    assert_eq!(rows, want, "{shape}: trace rounds");
    let summed = rows
        .values()
        .fold((0, 0, 0), |a, r| (a.0 + r.0, a.1 + r.1, a.2 + r.2));
    assert_eq!(summed, total, "{shape}: trace");

    // Live: per-phase counters and per-party totals.
    let seen: PhaseTotals = live
        .phases
        .iter()
        .map(|(name, c)| (name.clone(), (c.rounds, c.messages, c.bytes)))
        .collect();
    assert_eq!(seen, want, "{shape}: live phases");
    assert_eq!(live.parties.len(), P);
    let sum = |f: fn(&sqm_obs::live::PartyLive) -> u64| live.parties.iter().map(f).sum::<u64>();
    assert_eq!(
        (sum(|p| p.rounds), sum(|p| p.messages), sum(|p| p.bytes)),
        total,
        "{shape}: live parties"
    );

    // Profile: the `engine;<phase>;exchange` nodes.
    let nodes: PhaseTotals = prof
        .nodes
        .iter()
        .filter_map(|(path, node)| {
            let phase = path.strip_prefix("engine;")?.strip_suffix(";exchange")?;
            Some((phase.to_string(), (node.calls, node.messages, node.bytes)))
        })
        .collect();
    assert_eq!(nodes, want, "{shape}: profile");

    // Metrics: the registry's run-wide counters.
    let counter = |name: &str| registry.counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        (
            counter("mpc.party_rounds"),
            counter("mpc.messages"),
            counter("mpc.bytes")
        ),
        total,
        "{shape}: metrics"
    );

    // Causal DAG: one edge per real message, each matched to its receive,
    // and its critical path is the virtual clock.
    let dag = MessageDag::build(trace);
    assert!(dag.fully_matched(), "{shape}: dag");
    assert_eq!(dag.lamport_violations(), 0, "{shape}: dag");
    assert_eq!(
        dag.edges().len() as u64,
        stats.total.messages,
        "{shape}: dag"
    );
    assert_eq!(dag.critical_path().total, stats.simulated_time(), "{shape}");

    // Transport incidents: every NetEvent the trace kept was published
    // live as its Delay/Retransmit twin — the ring took exactly one event
    // per party round, two per link round and one per incident.
    let incidents: u64 = trace
        .parties
        .iter()
        .map(|p| p.net_events.len() as u64)
        .sum();
    assert!(
        incidents > 0,
        "{shape}: the fault plan must inject something"
    );
    for e in trace.parties.iter().flat_map(|p| &p.net_events) {
        assert!(matches!(e.kind.as_str(), "delay" | "retransmit"), "{e:?}");
    }
    let link_rounds = stats.total.rounds * n * (n - 1);
    assert_eq!(
        live.events_published,
        total.0 + 2 * link_rounds + incidents,
        "{shape}: live events"
    );

    // Per-link walls: one send and one receive histogram and one live
    // entry per directed link, each fed once per round.
    for from in 0..P {
        for to in (0..P).filter(|&to| to != from) {
            for dir in ["send", "recv"] {
                let name = format!("net.tcp.{dir}_ns.p{from}_to_p{to}");
                let h = registry.histograms.get(&name);
                let count = h.map_or(0, |h| h.count);
                assert_eq!(count, stats.total.rounds, "{shape}: {name}");
            }
            // A party's entry for a peer holds its send to and its receive
            // from that peer.
            let link = &live.links[&format!("{from}->{to}")];
            assert_eq!(link.count, 2 * stats.total.rounds, "{shape}: {from}->{to}");
        }
    }
    assert_eq!(
        registry
            .histograms
            .keys()
            .filter(|k| k.starts_with("net.tcp."))
            .count(),
        2 * P * (P - 1)
    );
    assert_eq!(live.links.len(), P * (P - 1));
    assert_eq!(counter("net.tcp.frames_sent"), link_rounds);
    assert_eq!(counter("net.tcp.payload_bytes_sent"), stats.total.bytes);
}

#[test]
fn every_view_of_a_run_agrees_because_they_are_one_event() {
    // The recoverable plan of `sqm-vfl`'s net_backend suite: 5% drops
    // recovered by retransmit, plus a seeded per-link delay.
    let faults = FaultSpec::seeded(7)
        .with_delay(Duration::ZERO, Duration::from_micros(200))
        .with_drop(0.05)
        .with_retransmit(Duration::from_micros(50), 20);
    let observed = |seed: u64| {
        let live = Collector::new(LiveConfig::default()).expect("no endpoint to bind");
        let prof = Profiler::new(ProfConfig::default());
        let cfg = MpcConfig::semi_honest(P)
            .with_seed(seed)
            .with_backend(NetBackend::tcp())
            .with_faults(Some(faults.clone()))
            .with_trace(true)
            .with_live(Some(live.clone()))
            .with_prof(Some(prof.clone()));
        metrics::reset();
        (cfg, live, prof)
    };
    metrics::set_enabled(true);

    let (cfg, live, prof) = observed(51);
    let run = MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
        ctx.set_phase("input");
        let x = ctx.share_all(&[M61::from_u64(ctx.id as u64 + 2); 3]);
        ctx.set_phase("compute");
        let y = ctx.mul(&x[0], &x[1]);
        let z = ctx.mul(&y, &x[2]);
        ctx.set_phase("open");
        ctx.open(&z)
    });
    assert!(run.outputs.iter().all(|o| o[0].to_canonical() == 2 * 3 * 4));
    let phases = ["compute", "input", "open"];
    check("grr", &phases, &run, &live.snapshot(), &prof.snapshot());

    let (cfg, live, prof) = observed(52);
    let run = MpcEngine::new(cfg).run::<M61, _, _>(release_program);
    assert_released(&run.outputs);
    let (live, prof) = (live.snapshot(), prof.snapshot());
    check("release", &["input", "open"], &run, &live, &prof);

    // The sparse round, seen the same from every side: the receiver sends
    // nothing, every other party one message, all of them to the receiver.
    let sent = |party: usize| u64::from(party != RECEIVER);
    let trace = run.trace.as_ref().expect("traced");
    for (party, t) in trace.parties.iter().enumerate() {
        let last = t.rounds.last().expect("two round records");
        assert_eq!((last.index, last.phase.as_str()), (1, "open"));
        assert_eq!(last.messages, sent(party), "trace: party {party}");
        // Round 1 was all-to-all for every owner; the last party owns nothing.
        let shared = (P as u64 - 1) * u64::from(party + 1 < P);
        assert_eq!(t.rounds[0].messages, shared, "trace: party {party}");
        assert_eq!(live.parties[party].messages, shared + sent(party), "live");
    }
    let dag = MessageDag::build(trace);
    let sparse: Vec<_> = dag.edges().iter().filter(|e| e.send_round == 1).collect();
    assert_eq!(sparse.len(), P - 1);
    assert!(sparse
        .iter()
        .all(|e| e.to == RECEIVER && e.from != RECEIVER));
    let round = &prof.nodes["engine;open;round0001"];
    assert_eq!((round.calls, round.messages), (P as u64, P as u64 - 1));
    assert_eq!(run.stats.phases["open"].messages, P as u64 - 1);

    metrics::set_enabled(false);
}

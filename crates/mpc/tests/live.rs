//! Acceptance tests for live telemetry (`sqm_obs::live`) at the engine
//! level: the stall watchdog must attribute a seeded `net::fault` delay to
//! exactly the delayed party at the right round, a seeded crash must
//! produce both a typed `StallEvent` and a byte-deterministic
//! flight-recorder dump (golden file, `BLESS=1` to regenerate), and every
//! deterministic `RunStats` counter must be bit-identical with live
//! telemetry on or off. Every program shares one run loop, so a
//! release-shaped run (uneven input sharing, then the sparse masked sum)
//! must fail, dump and recover exactly as a GRR + broadcast-open run does.
//!
//! A collector is a value its embedder owns, so every test creates its own
//! and the tests run in parallel; the last two pin that a run without a
//! collector cannot touch one, and that two observed runs at once do not
//! see each other.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use sqm_field::{PrimeField, M61};
use sqm_mpc::{
    FaultSpec, LiveConfig, MpcConfig, MpcEngine, NetBackend, ProfConfig, TransportError,
};
use sqm_net::fault::schedule;
use sqm_obs::live::Collector;
use sqm_obs::prof::Profiler;

mod common;
use common::{assert_released, release_program};

fn collector(config: LiveConfig) -> Arc<Collector> {
    Collector::new(config).expect("no endpoint to bind")
}

fn flight_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqm-live-mpc-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shared workload: party 0's secret, squared four times, opened.
/// Round structure: one input exchange (only party 0 sends real
/// messages), then all-to-all GRR reduction and open rounds.
fn squares_program(ctx: &mut sqm_mpc::PartyCtx<M61>) -> Vec<M61> {
    let x = ctx.share_input(
        0,
        (ctx.id == 0).then(|| vec![M61::from_u64(3)]).as_deref(),
        1,
    );
    let mut y = x.clone();
    for _ in 0..4 {
        y = ctx.mul(&y, &y);
    }
    ctx.open(&y)
}

#[test]
fn runstats_bit_identical_with_live_on_and_off() {
    let cfg = |live: Option<Arc<Collector>>| {
        MpcConfig::semi_honest(4)
            .with_latency(Duration::ZERO)
            .with_seed(11)
            .with_live(live)
    };
    let off = MpcEngine::new(cfg(None)).run::<M61, _, _>(squares_program);
    let on_cfg = LiveConfig::default().with_flight_dir(flight_dir("bgw-bitident"));
    let on = MpcEngine::new(cfg(Some(collector(on_cfg)))).run::<M61, _, _>(squares_program);

    assert_eq!(off.outputs, on.outputs);
    assert_eq!(off.stats.total.rounds, on.stats.total.rounds);
    assert_eq!(off.stats.total.messages, on.stats.total.messages);
    assert_eq!(off.stats.total.bytes, on.stats.total.bytes);
    for ((name_a, a), (name_b, b)) in off.stats.phases.iter().zip(&on.stats.phases) {
        assert_eq!(name_a, name_b);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.bytes, b.bytes);
    }
}

#[test]
fn release_shaped_runstats_bit_identical_with_live_on_and_off() {
    let cfg = |live: Option<Arc<Collector>>| {
        MpcConfig::semi_honest(3)
            .with_latency(Duration::ZERO)
            .with_seed(12)
            .with_live(live)
    };
    let off = MpcEngine::new(cfg(None)).run::<M61, _, _>(release_program);
    let on_cfg = LiveConfig::default().with_flight_dir(flight_dir("release-bitident"));
    let on = MpcEngine::new(cfg(Some(collector(on_cfg)))).run::<M61, _, _>(release_program);

    assert_eq!(off.outputs, on.outputs);
    assert_released(&on.outputs);
    assert_eq!(off.stats.total.rounds, on.stats.total.rounds);
    assert_eq!(off.stats.total.messages, on.stats.total.messages);
    assert_eq!(off.stats.total.bytes, on.stats.total.bytes);
    // Two real input payloads to each of two peers, then two masked sums.
    assert_eq!((on.stats.total.rounds, on.stats.total.messages), (2, 4 + 2));
}

const GOLDEN_CRASH_DUMP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/flightrec_crash.jsonl"
);

#[test]
fn crash_fault_emits_stall_event_and_deterministic_flight_dump() {
    let dir = flight_dir("crash");
    let seed = 9u64;
    let dump_path = dir.join(format!("flightrec_{seed}.jsonl"));
    let _ = std::fs::remove_file(&dump_path);

    let collector = collector(LiveConfig::default().with_flight_dir(&dir));
    let cfg = MpcConfig::semi_honest(4)
        .with_latency(Duration::ZERO)
        .with_seed(seed)
        .with_faults(Some(FaultSpec::seeded(1).with_crash(2, 1)))
        .with_live(Some(collector.clone()));
    let err = MpcEngine::new(cfg)
        .try_run::<M61, _, _>(squares_program)
        .unwrap_err();
    assert_eq!(err, TransportError::Crashed { party: 2, round: 1 });

    // The watchdog surfaces the crash as a typed stall naming the party.
    let stalls = collector.stalls();
    assert!(
        stalls
            .iter()
            .any(|s| s.party == 2 && s.round == 1 && s.kind == "crash"),
        "expected a crash stall for party 2 round 1, got {stalls:?}"
    );

    // The flight recorder dumped, and the dump is byte-deterministic for a
    // seeded failure (no wall-clock fields make it into the file).
    let dump = std::fs::read_to_string(&dump_path).expect("flight-recorder dump written");
    assert!(!dump.is_empty());
    assert!(!dump.contains("wall"), "dump must omit wall-clock fields");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_CRASH_DUMP, &dump).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_CRASH_DUMP)
        .expect("golden missing: run with BLESS=1 to create tests/golden/flightrec_crash.jsonl");
    assert_eq!(
        dump, golden,
        "flight-recorder dump drifted from the golden file (BLESS=1 to re-bless)"
    );
}

/// One owner's two secrets, shared and opened to every party.
fn share_then_open(ctx: &mut sqm_mpc::PartyCtx<M61>) -> Vec<M61> {
    let v = [M61::from_i128(-5), M61::from_u64(40)];
    let shares = ctx.share_input(1, (ctx.id == 1).then_some(&v[..]), 2);
    ctx.open(&shares)
}

#[test]
fn crash_is_typed_identically_by_both_protocol_shapes_and_the_release_shaped_run_dumps_too() {
    let dir = flight_dir("parity-crash");
    let seed = 21u64;
    let dump_path = dir.join(format!("flightrec_{seed}.jsonl"));
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        // The crash plan of `sqm-vfl`'s net_backend suite.
        let cfg = MpcConfig::semi_honest(4)
            .with_latency(Duration::ZERO)
            .with_seed(seed)
            .with_backend(backend.clone())
            .with_faults(Some(FaultSpec::seeded(3).with_crash(2, 1)))
            .with_live(Some(collector(LiveConfig::default().with_flight_dir(&dir))));
        let broadcast = MpcEngine::new(cfg.clone())
            .try_run::<M61, _, _>(share_then_open)
            .unwrap_err();
        // Same seed, same file name: drop the first run's dump so the one
        // read back below can only be the release-shaped run's.
        let _ = std::fs::remove_file(&dump_path);
        // Party 2 dies entering the sparse round, where it owes the
        // receiver its one message.
        let sparse = MpcEngine::new(cfg)
            .try_run::<M61, _, _>(release_program)
            .unwrap_err();
        assert_eq!(broadcast, sparse, "{backend:?}");
        assert_eq!(
            sparse,
            TransportError::Crashed { party: 2, round: 1 },
            "{backend:?}"
        );
        let dump = std::fs::read_to_string(&dump_path)
            .expect("the failed release-shaped run must write a flight-recorder dump");
        assert!(dump.contains("crash"), "{backend:?}: {dump}");
    }
}

#[test]
fn release_shaped_run_recovers_from_drops_and_delays_with_identical_counters() {
    let cfg = MpcConfig::semi_honest(4)
        .with_latency(Duration::ZERO)
        .with_seed(22);
    let clean = MpcEngine::new(cfg.clone()).run::<M61, _, _>(release_program);
    // The recoverable plan of `sqm-vfl`'s net_backend suite: 5% drops
    // recovered by retransmit, plus a seeded per-link delay.
    let faults = FaultSpec::seeded(7)
        .with_delay(Duration::ZERO, Duration::from_micros(200))
        .with_drop(0.05)
        .with_retransmit(Duration::from_micros(50), 20);
    let lossy = || {
        MpcEngine::new(cfg.clone().with_faults(Some(faults.clone())))
            .run::<M61, _, _>(release_program)
    };
    for run in [lossy(), lossy()] {
        assert_eq!(run.outputs, clean.outputs);
        assert_released(&run.outputs);
        let (got, want) = (&run.stats.total, &clean.stats.total);
        assert_eq!(
            (got.rounds, got.messages, got.bytes, got.elems),
            (want.rounds, want.messages, want.bytes, want.elems)
        );
    }
}

#[test]
fn seeded_delay_flags_exactly_the_delayed_party_at_the_right_round() {
    // Learn the workload's round count from a clean run (delay faults
    // never change the round/message structure).
    let probe = MpcEngine::new(
        MpcConfig::semi_honest(4)
            .with_latency(Duration::ZERO)
            .with_seed(13),
    )
    .run::<M61, _, _>(squares_program);
    let rounds = probe.stats.total.rounds;
    assert!(rounds >= 3, "workload too short to discriminate rounds");

    // The fault schedule is a pure function of (seed, from, to, round),
    // and the sender's injected sleep is the max over its real outgoing
    // links (all-to-all in every round except the input round, where only
    // party 0 sends). Scan for a schedule seed whose drop plan delays
    // exactly one link in the whole run: the sender of that link sleeps
    // `retransmit_timeout x attempts` >= 100 ms while every other round
    // costs zero, so a 50 ms threshold discriminates with no flake risk —
    // a dense uniform-delay plan would leave only millisecond gaps
    // between per-round maxima.
    let timeout = Duration::from_millis(100);
    let n = 4usize;
    let mut picked = None;
    'seeds: for fault_seed in 0..4096u64 {
        let spec = FaultSpec::seeded(fault_seed)
            .with_drop(0.03)
            .with_retransmit(timeout, 10);
        let mut delayed: Vec<(usize, u64)> = Vec::new();
        for r in 0..rounds {
            for s in 0..n {
                if r == 0 && s != 0 {
                    continue; // input round: only the owner sends
                }
                if (0..n)
                    .filter(|&t| t != s)
                    .any(|t| schedule(&spec, s, t, r).dropped_attempts > 0)
                {
                    delayed.push((s, r));
                    if delayed.len() > 1 {
                        continue 'seeds;
                    }
                }
            }
        }
        if let [(culprit, round)] = delayed[..] {
            picked = Some((spec, culprit, round));
            break;
        }
    }
    let (spec, culprit, round) =
        picked.expect("no schedule seed in 0..4096 delays exactly one link");
    let threshold = timeout / 2;

    let collector = collector(
        LiveConfig::default()
            .with_flight_dir(flight_dir("delay"))
            .with_stall_threshold(threshold),
    );
    let run = MpcEngine::new(
        MpcConfig::semi_honest(4)
            .with_latency(Duration::ZERO)
            .with_seed(13)
            .with_faults(Some(spec))
            .with_live(Some(collector.clone())),
    )
    .run::<M61, _, _>(squares_program);
    assert_eq!(run.stats.total.rounds, rounds, "delays must not add rounds");

    let stalls = collector.stalls();
    assert!(
        !stalls.is_empty(),
        "the delayed round must trip the watchdog"
    );
    for s in &stalls {
        assert_eq!(
            (s.party, s.round),
            (culprit, round),
            "watchdog flagged {stalls:?}, expected party {culprit} at round {round}"
        );
        assert_eq!(s.kind, "slow_round");
    }
}

/// Party 0's secret, shared, squared once and opened: 3 rounds.
fn share_mul_open(ctx: &mut sqm_mpc::PartyCtx<M61>) -> Vec<M61> {
    let x = ctx.share_input(
        0,
        (ctx.id == 0).then(|| vec![M61::from_u64(3)]).as_deref(),
        1,
    );
    let y = ctx.mul(&x, &x);
    ctx.open(&y)
}

/// `live: None` means unobserved, always: a run whose config carries no
/// collector must not add to one an earlier run in this process reported
/// to (at the parent of this change run B's rounds landed in run A's
/// finished aggregates: party 0 rounds 3 -> 6, messages 9 -> 18).
#[test]
fn a_run_without_a_collector_leaves_an_earlier_runs_snapshot_alone() {
    let cfg = |seed: u64| {
        MpcConfig::semi_honest(4)
            .with_latency(Duration::ZERO)
            .with_seed(seed)
    };
    let collector = collector(LiveConfig::default().with_flight_dir(flight_dir("outlive")));
    let a =
        MpcEngine::new(cfg(3).with_live(Some(collector.clone()))).run::<M61, _, _>(share_mul_open);
    // Every deterministic field of the finished run's view.
    let view = |c: &Collector| {
        let snap = c.snapshot();
        let run = snap.run.expect("run A was bracketed");
        let parties: Vec<(u64, u64, u64)> = snap
            .parties
            .iter()
            .map(|p| (p.rounds, p.messages, p.bytes))
            .collect();
        let phases: Vec<(String, u64, u64, u64)> = snap
            .phases
            .iter()
            .map(|(name, c)| (name.clone(), c.rounds, c.messages, c.bytes))
            .collect();
        (
            snap.runs_started,
            run.seed,
            run.in_progress,
            parties,
            phases,
        )
    };
    let before = view(&collector);
    assert_eq!((before.0, before.1, before.2), (1, 3, false));
    assert_eq!(before.3[0].0, a.stats.total.rounds);
    let messages: u64 = before.3.iter().map(|p| p.1).sum();
    assert_eq!(messages, a.stats.total.messages);

    MpcEngine::new(cfg(99)).run::<M61, _, _>(share_mul_open);
    assert_eq!(before, view(&collector), "run B leaked into run A's view");
}

/// Two engines of different sizes, each with its own collector and
/// profiler, running at once: each view holds exactly its own run.
#[test]
fn concurrent_runs_with_their_own_observers_do_not_mix() {
    let observed = |n: usize, seed: u64| {
        let live = collector(LiveConfig::default().with_flight_dir(flight_dir("tenants")));
        let prof = Profiler::new(ProfConfig::default());
        let cfg = MpcConfig::semi_honest(n)
            .with_latency(Duration::ZERO)
            .with_seed(seed)
            .with_live(Some(live.clone()))
            .with_prof(Some(prof.clone()));
        let run = MpcEngine::new(cfg).run::<M61, _, _>(squares_program);
        (n, seed, run.stats, live.snapshot(), prof.snapshot())
    };
    let runs = std::thread::scope(|s| {
        let a = s.spawn(|| observed(3, 31));
        let b = s.spawn(|| observed(5, 32));
        [a.join().unwrap(), b.join().unwrap()]
    });
    for (n, seed, stats, live, prof) in runs {
        let run = live.run.expect("bracketed");
        assert_eq!((run.n_parties, run.seed, live.runs_started), (n, seed, 1));
        assert_eq!(live.parties.len(), n);
        for p in &live.parties {
            assert_eq!(p.rounds, stats.total.rounds, "P={n} party {}", p.party);
        }
        let sum = |f: fn(&sqm_obs::live::PartyLive) -> u64| live.parties.iter().map(f).sum::<u64>();
        assert_eq!(sum(|p| p.messages), stats.total.messages, "P={n}");
        assert_eq!(sum(|p| p.bytes), stats.total.bytes, "P={n}");
        assert_eq!(
            live.phases.keys().collect::<Vec<_>>(),
            stats.phases.keys().collect::<Vec<_>>()
        );
        for (name, phase) in &stats.phases {
            let (seen, exchange) = (&live.phases[name], format!("engine;{name};exchange"));
            // Live counts a round once per party; RunStats takes the max.
            assert_eq!(seen.rounds, n as u64 * phase.rounds, "P={n} {name}");
            assert_eq!(seen.messages, phase.messages, "P={n} {name}");
            assert_eq!(seen.bytes, phase.bytes, "P={n} {name}");
            let node = &prof.nodes[&exchange];
            assert_eq!(node.calls, n as u64 * phase.rounds, "P={n} {exchange}");
            assert_eq!(node.messages, phase.messages, "P={n} {exchange}");
            assert_eq!(node.bytes, phase.bytes, "P={n} {exchange}");
        }
        assert_eq!(prof.seed, seed);
    }
}

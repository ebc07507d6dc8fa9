//! Acceptance tests for live telemetry (`sqm_obs::live`) at the engine
//! level: the stall watchdog must attribute a seeded `net::fault` delay to
//! exactly the delayed party at the right round, a seeded crash must
//! produce both a typed `StallEvent` and a byte-deterministic
//! flight-recorder dump (golden file, `BLESS=1` to regenerate), and every
//! deterministic `RunStats` counter must be bit-identical with live
//! telemetry on or off. Both engines share one run loop, so the additive
//! backend must fail, dump and recover exactly as BGW does.
//!
//! The live collector is process-global (like the metrics registry), so
//! these tests serialize on one mutex and never assert on cumulative
//! counters such as `runs_started`.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use sqm_field::{PrimeField, M61};
use sqm_mpc::{
    AdditiveEngine, FaultSpec, LiveConfig, MpcConfig, MpcEngine, NetBackend, TransportError,
};
use sqm_net::fault::schedule;
use sqm_obs::live;

/// Serializes the tests in this file: they share the process-global
/// collector, and a run beginning mid-way through another test's
/// assertions would mix aggregates.
static LIVE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LIVE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
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
    let _g = lock();
    let cfg = |live: Option<LiveConfig>| {
        MpcConfig::semi_honest(4)
            .with_latency(Duration::ZERO)
            .with_seed(11)
            .with_live(live)
    };
    let off = MpcEngine::new(cfg(None)).run::<M61, _, _>(squares_program);
    let on_cfg = LiveConfig::default().with_flight_dir(flight_dir("bgw-bitident"));
    let on = MpcEngine::new(cfg(Some(on_cfg))).run::<M61, _, _>(squares_program);

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
fn additive_runstats_bit_identical_with_live_on_and_off() {
    let _g = lock();
    let program = |ctx: &mut sqm_mpc::AdditiveCtx<M61>| {
        let v = vec![M61::from_i128(-5), M61::from_u64(40)];
        let shares = ctx.share_input(1, (ctx.id == 1).then_some(&v), 2);
        ctx.open(&shares)
    };
    let cfg = |live: Option<LiveConfig>| {
        MpcConfig::semi_honest(3)
            .with_latency(Duration::ZERO)
            .with_seed(12)
            .with_live(live)
    };
    let off = AdditiveEngine::new(cfg(None)).run::<M61, _, _>(program);
    let on_cfg = LiveConfig::default().with_flight_dir(flight_dir("additive-bitident"));
    let on = AdditiveEngine::new(cfg(Some(on_cfg))).run::<M61, _, _>(program);

    assert_eq!(off.outputs, on.outputs);
    assert_eq!(off.stats.total.rounds, on.stats.total.rounds);
    assert_eq!(off.stats.total.messages, on.stats.total.messages);
    assert_eq!(off.stats.total.bytes, on.stats.total.bytes);
}

const GOLDEN_CRASH_DUMP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/flightrec_crash.jsonl"
);

#[test]
fn crash_fault_emits_stall_event_and_deterministic_flight_dump() {
    let _g = lock();
    let dir = flight_dir("crash");
    let seed = 9u64;
    let dump_path = dir.join(format!("flightrec_{seed}.jsonl"));
    let _ = std::fs::remove_file(&dump_path);

    let cfg = MpcConfig::semi_honest(4)
        .with_latency(Duration::ZERO)
        .with_seed(seed)
        .with_faults(Some(FaultSpec::seeded(1).with_crash(2, 1)))
        .with_live(Some(LiveConfig::default().with_flight_dir(&dir)));
    let err = MpcEngine::new(cfg)
        .try_run::<M61, _, _>(squares_program)
        .unwrap_err();
    assert_eq!(err, TransportError::Crashed { party: 2, round: 1 });

    // The watchdog surfaces the crash as a typed stall naming the party.
    let collector = live::collector().expect("run installed the collector");
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

/// The same share-then-open program for either engine's context.
fn share_then_open_bgw(ctx: &mut sqm_mpc::PartyCtx<M61>) -> Vec<M61> {
    let v = [M61::from_i128(-5), M61::from_u64(40)];
    let shares = ctx.share_input(1, (ctx.id == 1).then_some(&v[..]), 2);
    ctx.open(&shares)
}

fn share_then_open_additive(ctx: &mut sqm_mpc::AdditiveCtx<M61>) -> Vec<M61> {
    let v = [M61::from_i128(-5), M61::from_u64(40)];
    let shares = ctx.share_input(1, (ctx.id == 1).then_some(&v[..]), 2);
    ctx.open(&shares)
}

#[test]
fn crash_is_typed_identically_by_both_engines_and_the_additive_run_dumps_too() {
    let _g = lock();
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
            .with_live(Some(LiveConfig::default().with_flight_dir(&dir)));
        let bgw = MpcEngine::new(cfg.clone())
            .try_run::<M61, _, _>(share_then_open_bgw)
            .unwrap_err();
        // Same seed, same file name: drop the BGW run's dump so the one
        // read back below can only be the additive run's.
        let _ = std::fs::remove_file(&dump_path);
        let additive = AdditiveEngine::new(cfg)
            .try_run::<M61, _, _>(share_then_open_additive)
            .unwrap_err();
        assert_eq!(bgw, additive, "{backend:?}");
        assert_eq!(
            additive,
            TransportError::Crashed { party: 2, round: 1 },
            "{backend:?}"
        );
        let dump = std::fs::read_to_string(&dump_path)
            .expect("the failed additive run must write a flight-recorder dump");
        assert!(dump.contains("crash"), "{backend:?}: {dump}");
    }
}

#[test]
fn additive_run_recovers_from_drops_and_delays_with_identical_counters() {
    let _g = lock();
    let cfg = MpcConfig::semi_honest(4)
        .with_latency(Duration::ZERO)
        .with_seed(22);
    let clean = AdditiveEngine::new(cfg.clone()).run::<M61, _, _>(share_then_open_additive);
    // The recoverable plan of `sqm-vfl`'s net_backend suite: 5% drops
    // recovered by retransmit, plus a seeded per-link delay.
    let faults = FaultSpec::seeded(7)
        .with_delay(Duration::ZERO, Duration::from_micros(200))
        .with_drop(0.05)
        .with_retransmit(Duration::from_micros(50), 20);
    let lossy = || {
        AdditiveEngine::new(cfg.clone().with_faults(Some(faults.clone())))
            .run::<M61, _, _>(share_then_open_additive)
    };
    for run in [lossy(), lossy()] {
        assert_eq!(run.outputs, clean.outputs);
        assert_eq!(run.outputs[0][0].to_centered_i128(), -5);
        assert_eq!(run.outputs[0][1].to_centered_i128(), 40);
        let (got, want) = (&run.stats.total, &clean.stats.total);
        assert_eq!(
            (got.rounds, got.messages, got.bytes, got.elems),
            (want.rounds, want.messages, want.bytes, want.elems)
        );
    }
}

#[test]
fn seeded_delay_flags_exactly_the_delayed_party_at_the_right_round() {
    let _g = lock();

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

    let live_cfg = LiveConfig::default()
        .with_flight_dir(flight_dir("delay"))
        .with_stall_threshold(threshold);
    let run = MpcEngine::new(
        MpcConfig::semi_honest(4)
            .with_latency(Duration::ZERO)
            .with_seed(13)
            .with_faults(Some(spec))
            .with_live(Some(live_cfg)),
    )
    .run::<M61, _, _>(squares_program);
    assert_eq!(run.stats.total.rounds, rounds, "delays must not add rounds");

    let stalls = live::collector().expect("collector installed").stalls();
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

//! Exact `(rounds, messages, bytes)` of eleven seeded workloads, each run
//! once. Seeded RNGs and fixed shapes make every triple deterministic, so a
//! changed one is a protocol or wire change, never noise: redo the arithmetic
//! in the row's comment before editing it. Wall-clock: `benchmark/run.sh`.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm::datasets::SpectralSpec;
use sqm::field::{PrimeField, M61};
use sqm::mpc::{MpcConfig, MpcEngine, RunStats};
use sqm::obs::{live::Collector, prof::Profiler, SpanConfig};
use sqm::serve::{load_tenant_config, run_load, LoadSpec, Reply, Request, Server, ServerConfig};
use sqm::vfl::{
    covariance_skellam, gradient_sum_skellam, ColumnPartition, LiveConfig, NetBackend, ProfConfig,
    VflConfig,
};

fn counters(stats: &RunStats) -> (u64, u64, u64) {
    (stats.total.rounds, stats.total.messages, stats.total.bytes)
}

/// One covariance release (γ = 18, μ = 100) of a seeded m × n dataset.
fn covariance(m: usize, n: usize, data_seed: u64, cfg: &VflConfig) -> (u64, u64, u64) {
    let data = SpectralSpec::new(m, n).with_seed(data_seed).generate();
    let partition = ColumnPartition::even(n, cfg.n_clients());
    counters(&covariance_skellam(&data, &partition, 18.0, 100.0, cfg).stats)
}

/// `bgw_grr_mul_p4_len256_r4`: party 0 shares 256 M61 values, four GRR
/// multiplications, one broadcast open.
#[test]
fn grr_multiplication_rounds() {
    let cfg = MpcConfig::semi_honest(4)
        .with_latency(Duration::from_millis(100))
        .with_seed(23);
    let run = MpcEngine::new(cfg).run::<M61, _, _>(|ctx| {
        let mine: Option<Vec<M61>> = (ctx.id == 0).then(|| (0..256).map(M61::from_u64).collect());
        let x = ctx.share_input(0, mine.as_deref(), 256);
        let mut y = x.clone();
        for _ in 0..4 {
            y = ctx.mul(&y, &x);
        }
        ctx.open(&y)
    });
    // Rounds: input 1 + mul 4 + open 1. Messages: (P−1) + 4·P(P−1) + P(P−1)
    // = 3 + 48 + 12. Bytes: every message is 256 × 8.
    assert_eq!(counters(&run.stats), (6, 63, 63 * 256 * 8));
}

/// Covariance at m = 60, n = 8, P = 3, seeds 31/32, and the same release
/// traced, over loopback TCP, with a live collector and with a profiler:
/// observers and backends are passive, so all five triples are one triple.
#[test]
fn covariance_release_and_its_observed_twins() {
    let run = |cfg: &VflConfig| covariance(60, 8, 31, cfg);
    let plain = VflConfig::new(3).with_seed(32);
    // Messages: P(P−1) + (P−1) = 6 + 2. Bytes: round 1 moves every input
    // to the other P−1 parties, 8·m·n·(P−1) = 7,680; round 2 moves the
    // upper triangle to the receiver, 8·n(n+1)/2·(P−1) = 576.
    let pinned = run(&plain);
    assert_eq!(pinned, (2, 8, 7_680 + 576));
    let traced = plain.clone().with_trace(true);
    let collector = Collector::new(LiveConfig::default()).expect("no endpoint to bind");
    let profiler = Profiler::new(ProfConfig::default());
    for (twin, cfg) in [
        ("traced", traced.clone()),
        ("tcp", traced.clone().with_backend(NetBackend::tcp())),
        ("live", traced.clone().with_live(Some(collector))),
        ("prof", traced.with_prof(Some(profiler))),
    ] {
        assert_eq!(run(&cfg), pinned, "{twin} run differs from plain");
    }
}

/// LR gradient sum at m = 60, d = 7 (+ the label column), P = 3, seeds
/// 33/34, traced as the baseline recorded it, on both backends.
#[test]
fn gradient_release_on_both_backends() {
    let data = SpectralSpec::new(60, 8).with_seed(33).generate();
    let partition = ColumnPartition::even(8, 3);
    let batch: Vec<usize> = (0..60).collect();
    let traced = VflConfig::new(3).with_seed(34).with_trace(true);
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        let cfg = traced.clone().with_backend(backend.clone());
        let out = gradient_sum_skellam(&data, &partition, &batch, &[0.01; 7], 18.0, 100.0, &cfg);
        // Messages: P(P−1) + (P−1) = 6 + 2. Bytes: round 1 as covariance,
        // 8·m·(d+1)·(P−1) = 7,680; round 2 is d values, 8·d·(P−1) = 112.
        assert_eq!(counters(&out.stats), (2, 8, 7_680 + 112), "{backend:?}");
    }
}

/// `covariance_batched_m40_n31_p4`, seeds 35/36: the paper's n = 31 shape.
/// One frame per link in round 1 and one per non-receiver in round 2 — a
/// codec change that splits frames moves `messages` and nothing else.
#[test]
fn covariance_at_n31_is_one_frame_per_link() {
    let release = covariance(40, 31, 35, &VflConfig::new(4).with_seed(36));
    // Messages: P(P−1) + (P−1) = 12 + 3. Bytes: 8·m·n·(P−1) = 29,760, then
    // 8·n(n+1)/2·(P−1) = 8 · 496 · 3 = 11,904.
    assert_eq!(release, (2, 15, 29_760 + 11_904));
}

/// `serve_load_t3_r4_p3` (`LoadSpec::smoke`), request tracing off and on:
/// (admitted releases, admitted + refused, released covariance bytes).
#[test]
fn serve_load_admits_the_same_releases_traced_or_not() {
    let served = |tracing: bool| {
        let (mut spec, mut config) = (LoadSpec::smoke(), ServerConfig::default());
        spec.tracing = tracing;
        config.tracing = tracing.then(SpanConfig::default);
        let server = Server::start(config);
        let report = run_load(&server, &spec);
        server.shutdown();
        let (admitted, n) = (report.releases_admitted(), spec.n_cols);
        let released: usize = report.per_tenant.iter().map(|t| t.checksums.len()).sum();
        let requests = admitted + report.budget_refusals();
        (admitted, requests, released * 8 * n * n)
    };
    // 3 tenants × 4 rounds = 12 requests; each budget (ε = 2) admits two
    // releases, so 6 are admitted and 6 refused. Bytes: 6 · 8·n² = 6 · 72.
    let plain = served(false);
    assert_eq!(plain, (6, 12, 432));
    assert_eq!(served(true), plain, "request tracing is passive");
}

/// `serve_release_n3_p3`: one 4-row ingest (row seed `0x5E54_0000`) and one
/// release of the smoke spec's tenant 0 through the scheduler.
#[test]
fn serve_release_through_the_scheduler() {
    let spec = LoadSpec::smoke();
    let server = Server::start(ServerConfig::default());
    let tenant = load_tenant_config(&spec, 0); // named "load-0"
    server.add_tenant(tenant).expect("tenant");
    let mut rng = StdRng::seed_from_u64(0x5E54_0000);
    let records: Vec<Vec<f64>> = (0..spec.rows_per_batch)
        .map(|_| (0..spec.n_cols).map(|_| rng.gen_range(-0.5..0.5)).collect())
        .collect();
    let ingest = Request::Ingest { records };
    server.call("load-0", ingest).expect("ingest");
    let Ok(Reply::Released(rel)) = server.call("load-0", Request::Release) else {
        panic!("release refused");
    };
    server.shutdown();
    // Messages: P(P−1) + (P−1) = 6 + 2. Bytes: round 1 moves only the 4 new
    // rows, 8·4·n·(P−1) = 192; round 2 is 8·n(n+1)/2·(P−1) = 96.
    assert_eq!(counters(&rel.stats), (2, 8, 192 + 96));
}

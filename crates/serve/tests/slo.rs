//! Acceptance tests for request-scoped tracing and SLO observability.
//!
//! Three contracts, per the serving layer's design:
//!
//! 1. **Exactness.** A traced request's span tree is *defined* by the
//!    scheduler's own measurements: root == queue_wait + exec with
//!    `assert_eq` (no epsilon), and the MPC child span's critical-path
//!    total equals `RunStats::simulated_time()` through the causal link.
//! 2. **Passivity.** Tracing never perturbs results: released covariance
//!    bits, protocol counters, and the load digest are bit-identical with
//!    tracing on vs off.
//! 3. **Determinism.** The slow-request dump contains only deterministic
//!    fields, so two runs of the same seeded workload dump byte-identical
//!    JSONL.

use std::sync::Arc;
use std::time::Duration;

use sqm_obs::span::{RequestOutcome, SpanConfig, EXEC, QUEUE, ROOT};
use sqm_serve::{run_load, LoadSpec, Reply, Request, Server, ServerConfig, Tenant, TenantConfig};

fn records(n: usize, cols: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..cols)
                .map(|j| {
                    ((i * cols + j) as f64 * 0.31 + salt as f64 * 0.17).sin() / (cols as f64).sqrt()
                })
                .collect()
        })
        .collect()
}

fn traced_tenant_cfg(name: &str, seed: u64) -> TenantConfig {
    let mut cfg = TenantConfig::new(name);
    cfg.seed = seed;
    cfg.mu = 200.0;
    cfg.budget_eps = f64::INFINITY;
    cfg.request_tracing = true;
    cfg
}

fn traced_server() -> Arc<Server> {
    Server::start(ServerConfig {
        tracing: Some(SpanConfig::dump_all()),
        ..ServerConfig::default()
    })
}

#[test]
fn span_tree_end_to_end_equals_queue_wait_plus_exec_exactly() {
    let server = traced_server();
    server.add_tenant(traced_tenant_cfg("acme", 21)).unwrap();
    server
        .call(
            "acme",
            Request::Ingest {
                records: records(5, 3, 1),
            },
        )
        .unwrap();
    let reply = match server.call("acme", Request::Release).unwrap() {
        Reply::Released(rel) => rel,
        other => panic!("expected release, got {other:?}"),
    };

    let collector = server.spans().expect("tracing configured");
    let finished = collector.slow_requests();
    assert_eq!(finished.len(), 2, "ingest + release both retained");
    for req in &finished {
        // The exactness contract: the root span is defined as the
        // scheduler's queue_wait + exec, so the tree sums with no epsilon.
        assert_eq!(
            req.spans[ROOT].duration,
            req.spans[QUEUE].duration + req.spans[EXEC].duration,
            "request {}/{} span tree must sum exactly",
            req.tenant,
            req.seq
        );
        assert_eq!(req.outcome, RequestOutcome::Ok);
        assert_eq!(req.spans[QUEUE].parent, Some(ROOT));
        assert_eq!(req.spans[EXEC].parent, Some(ROOT));
    }

    // The release's MPC child span links to the causal run id and its
    // critical-path total equals the engine-reported simulated time —
    // the same exactness the causal layer guarantees engine-side.
    let release = finished.iter().find(|r| r.kind == "release").unwrap();
    let mpc = release.span("mpc").expect("release must have an MPC span");
    assert_eq!(mpc.parent, Some(EXEC));
    assert_eq!(mpc.run_id, Some(21), "causal link is the session seed");
    assert_eq!(mpc.rounds, reply.stats.total.rounds);
    assert_eq!(mpc.messages, reply.stats.total.messages);
    assert_eq!(mpc.bytes, reply.stats.total.bytes);
    let critical = mpc
        .critical
        .as_ref()
        .expect("request_tracing attaches the critical path");
    assert_eq!(critical.total, reply.stats.simulated_time());
    assert!(!critical.parties.is_empty());
    assert_eq!(
        critical.parties.iter().map(|p| p.messages).sum::<u64>(),
        reply.stats.total.messages,
        "per-party breakdown must cover every message"
    );
    // Admit and encode phases also appear under exec.
    assert!(release.span("admit").is_some());
    assert!(release.span("encode").is_some());

    server.shutdown();
}

#[test]
fn tracing_is_passive_results_bit_identical_on_vs_off() {
    // Direct tenant comparison: same seed/plan, tracing on vs off.
    let run = |tracing: bool| {
        let mut cfg = traced_tenant_cfg("bits", 77);
        cfg.request_tracing = tracing;
        let mut t = Tenant::create(cfg).unwrap();
        t.ingest(&records(6, 3, 9)).unwrap();
        let a = t.release().unwrap();
        t.ingest(&records(3, 3, 10)).unwrap();
        let b = t.release().unwrap();
        (
            a.covariance.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.covariance.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            (
                a.stats.total.rounds,
                a.stats.total.messages,
                a.stats.total.bytes,
            ),
            (
                b.stats.total.rounds,
                b.stats.total.messages,
                b.stats.total.bytes,
            ),
        )
    };
    assert_eq!(run(true), run(false), "tracing must not perturb results");

    // Whole-stack comparison: the load digest with a traced server and
    // traced tenants vs a plain server.
    let load = |tracing: bool| {
        let server = if tracing {
            traced_server()
        } else {
            Server::start(ServerConfig::default())
        };
        let spec = LoadSpec {
            tracing,
            ..LoadSpec::smoke()
        };
        let report = run_load(&server, &spec);
        server.shutdown();
        (
            report.digest(),
            report.releases_admitted(),
            report.budget_refusals(),
        )
    };
    assert_eq!(load(true), load(false), "load digest must match on vs off");
}

#[test]
fn slow_request_dump_is_byte_deterministic_and_wall_free() {
    let run = || {
        let server = traced_server();
        let spec = LoadSpec {
            tracing: true,
            ..LoadSpec::smoke()
        };
        run_load(&server, &spec);
        let dump = server
            .spans()
            .unwrap()
            .render_slow_dump(LoadSpec::smoke().seed);
        server.shutdown();
        dump
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "seeded dump must be byte-identical");

    let spec = LoadSpec::smoke();
    let lines: Vec<&str> = first.lines().collect();
    // Meta header + one line per request (every request retained under
    // the pinned zero threshold): tenants * rounds * (ingest + release).
    assert_eq!(lines.len(), 1 + spec.tenants * spec.rounds * 2);
    assert!(lines[0].contains("\"slowreq_meta\""));
    assert!(lines[0].contains("\"threshold\":\"fixed\""));
    // No measured wall time may leak into the dump.
    assert!(!first.contains("wall"));
    assert!(!first.contains("duration"));
    // Admitted releases carry the causal link; refused ones carry their
    // outcome. Every line parses as standalone JSON.
    assert!(first.contains("\"run_id\":"));
    assert!(first.contains("\"outcome\":\"refused\""));
    assert!(first.contains("\"critical\":"));
    for line in &lines {
        sqm_obs::json::parse(line).expect("dump line must be valid JSON");
    }

    // The SLO snapshot accounts for every request.
    let server = traced_server();
    let report = run_load(
        &server,
        &LoadSpec {
            tracing: true,
            ..LoadSpec::smoke()
        },
    );
    let snap = server.spans().unwrap().snapshot();
    assert_eq!(
        snap.total_requests as usize,
        spec.tenants * spec.rounds * 2,
        "every ingest and release is one finished request"
    );
    assert_eq!(snap.total_releases as usize, report.releases_admitted());
    assert_eq!(snap.total_refusals as usize, report.budget_refusals());
    assert_eq!(snap.total_failures, 0);
    assert!(snap.bucket_width >= Duration::from_millis(1));
    assert_eq!(
        snap.buckets.iter().map(|b| b.requests).sum::<u64>(),
        snap.total_requests
    );
    server.shutdown();
}

//! `sqm-serve` — the multi-tenant VFL serving endpoint under a seeded load.
//!
//! ```text
//! sqm-serve                                # serve, drive seeded load, write the span artifacts
//! sqm-serve --addr 127.0.0.1:9190         # fixed listen address
//! sqm-serve --hold-secs 45                # keep serving after the load run
//! sqm-serve --out results/serve_smoke     # where the artifacts land
//! ```
//!
//! The run has two acts:
//!
//! 1. **Serve.** Bind the JSON-over-HTTP protocol (`/v1/tenant`,
//!    `/v1/ingest`, `/v1/release`, `/status`, `/metrics`) on `--addr`.
//! 2. **Load.** Drive the endpoint's scheduler with the seeded closed-loop
//!    generator. The server traces (`ServerConfig::tracing`, the one
//!    switch), so every request carries a span tree and every release's
//!    MPC span links to its causal critical path.
//!    The finite per-tenant budgets guarantee odometer refusals, which
//!    land in `/metrics` as `sqm_serve_budget_refusals` (the CI smoke test
//!    asserts at least one, plus per-tenant `sqm_serve_request_duration_ns`
//!    samples). Afterwards the span collector dumps the byte-deterministic
//!    `slowreq_<seed>.jsonl` (the collector retains every request, so it
//!    is the full deterministic request log) and a `serve_report.html`
//!    with the "Serving SLO" section into `--out`.
//!
//! With `--hold-secs N` the endpoint stays up for N more seconds after
//! the artifacts are written, so external probes can scrape mid-run state.
//! What the load admits and refuses is pinned by `tests/release_counters.rs`;
//! serving wall-clock is `benchmark/run.sh`'s `serve_mix` workload.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use sqm::obs::span::SpanConfig;
use sqm::obs::trace::Trace;
use sqm::obs::{html_report, metrics};
use sqm::serve::{run_load, LoadSpec, ServeHttp, Server, ServerConfig};

struct ServeOptions {
    addr: String,
    hold_secs: u64,
    out_dir: PathBuf,
}

fn parse_args() -> ServeOptions {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:9190".to_string(),
        hold_secs: 0,
        out_dir: PathBuf::from("results/perf"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                opts.addr = args.get(i).expect("--addr needs host:port").clone();
            }
            "--hold-secs" => {
                i += 1;
                opts.hold_secs = args
                    .get(i)
                    .expect("--hold-secs needs a number")
                    .parse()
                    .expect("--hold-secs expects seconds");
            }
            "--out" => {
                i += 1;
                opts.out_dir = PathBuf::from(args.get(i).expect("--out needs a directory"));
            }
            other => {
                panic!("unknown flag {other} (expected --addr HOST:PORT, --hold-secs N, --out DIR)")
            }
        }
        i += 1;
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    metrics::set_enabled(true);

    // Act 1: the endpoint, with request tracing on. The collector retains
    // every request, so the slowreq dump is the full deterministic request
    // log rather than a timing-dependent subset.
    let server = Server::start(ServerConfig {
        tracing: Some(SpanConfig),
        ..ServerConfig::default()
    });
    let endpoint = match ServeHttp::bind(Arc::clone(&server), &opts.addr) {
        Ok(endpoint) => endpoint,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("sqm-serve: listening on http://{}", endpoint.local_addr());

    // Act 2: seeded closed-loop load against the live endpoint's
    // scheduler. The smoke spec's budgets are finite, so the odometer
    // refuses at least one release and `/metrics` proves it.
    let spec = LoadSpec::smoke();
    let report = run_load(&server, &spec);
    println!(
        "  load: {} tenants x {} rounds -> {} releases admitted, {} budget refusals, \
         {:.1} sessions/s, p99 release {:.2} ms, digest {:016x}",
        spec.tenants,
        spec.rounds,
        report.releases_admitted(),
        report.budget_refusals(),
        report.sessions_per_sec(),
        report.p99_release_ns() as f64 / 1e6,
        report.digest(),
    );
    if report.budget_refusals() == 0 {
        eprintln!("error: smoke load finished without a single budget refusal");
        return ExitCode::FAILURE;
    }

    // Span artifacts: the deterministic slow-request dump and the HTML
    // report with the "Serving SLO" section.
    let collector = server.spans().expect("tracing configured");
    match collector.write_slow_dump(&opts.out_dir, spec.seed) {
        Ok(path) => println!(
            "  wrote {} ({} requests)",
            path.display(),
            collector.snapshot().slow_retained
        ),
        Err(e) => {
            eprintln!("error: cannot write slow-request dump: {e}");
            return ExitCode::FAILURE;
        }
    }
    let html = html_report(
        "sqm-serve load run",
        &Trace::from_parties(Duration::ZERO, Vec::new()),
        None,
        Some(&metrics::snapshot()),
        Some(&collector.snapshot()),
        None,
    );
    let html_path = opts.out_dir.join("serve_report.html");
    match sqm::obs::atomic_write_str(&html_path, &html) {
        Ok(()) => println!("  wrote {}", html_path.display()),
        Err(e) => {
            eprintln!("error: cannot write HTML report: {e}");
            return ExitCode::FAILURE;
        }
    }

    if opts.hold_secs > 0 {
        println!(
            "sqm-serve: holding for {}s (ctrl-c to stop)",
            opts.hold_secs
        );
        std::thread::sleep(Duration::from_secs(opts.hold_secs));
    }
    endpoint.shutdown();
    ExitCode::SUCCESS
}

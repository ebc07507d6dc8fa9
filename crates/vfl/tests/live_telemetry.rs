//! Live telemetry at the VFL layer: a Table II-shaped covariance release
//! with a live collector attached must produce bit-identical outputs and
//! accounting to an unobserved run, while the collector serves Prometheus
//! text at `/metrics` and JSON at `/snapshot` over HTTP.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_linalg::Matrix;
use sqm_obs::live::Collector;
use sqm_vfl::{covariance_skellam, ColumnPartition, LiveConfig, VflConfig};

const M: usize = 100;
const N: usize = 20;
const P: usize = 4;
const GAMMA: f64 = 128.0;
const MU: f64 = 10.0;

fn workload() -> (Matrix, ColumnPartition) {
    let mut rng = StdRng::seed_from_u64(2024);
    let data = Matrix::from_vec(M, N, (0..M * N).map(|_| rng.gen_range(-0.5..0.5)).collect());
    (data, ColumnPartition::even(N, P))
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to live endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn covariance_with_live_telemetry_is_bit_identical_and_served_over_http() {
    let (data, partition) = workload();
    let base = || VflConfig::fast(P).with_seed(42);

    let off = covariance_skellam(&data, &partition, GAMMA, MU, &base());

    let flight_dir = std::env::temp_dir().join(format!("sqm-live-vfl-{}", std::process::id()));
    let live_cfg = LiveConfig::default()
        .with_addr("127.0.0.1:0") // ephemeral port: tests must not collide
        .with_flight_dir(&flight_dir);
    let collector = Collector::new(live_cfg).expect("bind an ephemeral port");
    let on = covariance_skellam(
        &data,
        &partition,
        GAMMA,
        MU,
        &base().with_live(Some(collector.clone())),
    );

    // Telemetry rides entirely out-of-band: outputs and every
    // deterministic accounting counter are bit-identical.
    assert_eq!(off.c_hat, on.c_hat);
    assert_eq!(off.stats.total.rounds, on.stats.total.rounds);
    assert_eq!(off.stats.total.messages, on.stats.total.messages);
    assert_eq!(off.stats.total.bytes, on.stats.total.bytes);

    // A successful run leaves no flight-recorder dump behind.
    let dump = flight_dir.join("flightrec_42.jsonl");
    assert!(!dump.exists(), "no dump expected for a clean run");

    // The collector's endpoint keeps serving after the run: Prometheus
    // text with the run's per-party counters, and a JSON snapshot.
    let addr = collector.bound_addr().expect("endpoint bound");
    let metrics = http_get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"));
    assert!(metrics.contains("sqm_live_runs_started_total"));
    assert!(metrics.contains("sqm_live_party_rounds{party=\"0\"}"));
    let snapshot = http_get(addr, "/snapshot");
    assert!(snapshot.starts_with("HTTP/1.1 200 OK"));
    assert!(snapshot.contains("application/json"));
    assert!(snapshot.contains("\"n_parties\":4"));
}

//! Acceptance tests for the pluggable transport: the loopback-TCP backend
//! must be *indistinguishable in outputs and accounting* from the
//! in-process channel mesh, faults must perturb timing but never values,
//! and failures must surface as typed errors naming party and round.
//!
//! Workload: the paper's covariance protocol at m = 100 records,
//! n = 20 dimensions, P = 4 clients.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_linalg::Matrix;
use sqm_vfl::{
    covariance_skellam, try_covariance_skellam, ColumnPartition, FaultSpec, NetBackend,
    TransportError, VflConfig, VflSession,
};

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

fn base_cfg() -> VflConfig {
    VflConfig::fast(P).with_seed(42)
}

#[test]
fn tcp_covariance_is_bit_identical_to_in_process() {
    let (data, partition) = workload();

    let inproc = covariance_skellam(&data, &partition, GAMMA, MU, &base_cfg());
    let tcp = covariance_skellam(
        &data,
        &partition,
        GAMMA,
        MU,
        &base_cfg().with_backend(NetBackend::tcp()),
    );

    // Field-element outputs are exact integers stored in f64: demand
    // bit-identity, not closeness.
    assert_eq!(inproc.c_hat, tcp.c_hat);
    // And the transports agree on what was said: same rounds, same
    // message count, same payload bytes (frame headers are overhead of
    // the medium, not protocol traffic, so TCP excludes them).
    assert_eq!(inproc.stats.total.rounds, tcp.stats.total.rounds);
    assert_eq!(inproc.stats.total.messages, tcp.stats.total.messages);
    assert_eq!(inproc.stats.total.bytes, tcp.stats.total.bytes);

    // A whole session agrees too: the server's view of every release and
    // the accounted epsilons are the same over either backend, bit for bit.
    let batch: Vec<usize> = vec![1, 3, 6, 9];
    let w = vec![-0.02; N - 1];
    let session = |backend: NetBackend| {
        let mut session = VflSession::new(partition.clone(), base_cfg().with_backend(backend));
        session.covariance(&data, GAMMA, MU);
        session.gradient_sum(&data, &batch, &w, GAMMA, MU);
        session
    };
    let (a, b) = (session(NetBackend::InProcess), session(NetBackend::tcp()));
    assert_eq!(a.server_view().len(), 2);
    assert_eq!(a.server_view().len(), b.server_view().len());
    for (x, y) in a
        .server_view()
        .releases()
        .iter()
        .zip(b.server_view().releases())
    {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.values, y.values);
        assert_eq!(x.gamma, y.gamma);
        assert_eq!(x.mu, y.mu);
    }
    assert_eq!(a.ledger().len(), b.ledger().len());
    for (x, y) in a.ledger().entries().iter().zip(b.ledger().entries()) {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.server_epsilon.to_bits(), y.server_epsilon.to_bits());
        assert_eq!(x.client_epsilon.to_bits(), y.client_epsilon.to_bits());
    }
    assert_eq!(
        a.ledger().server_epsilon().to_bits(),
        b.ledger().server_epsilon().to_bits()
    );
}

#[test]
fn five_percent_drop_completes_via_retransmit_with_identical_output() {
    let (data, partition) = workload();
    let clean = covariance_skellam(&data, &partition, GAMMA, MU, &base_cfg());

    let faults = FaultSpec::seeded(7)
        .with_drop(0.05)
        .with_retransmit(Duration::from_micros(50), 20);
    let lossy = covariance_skellam(
        &data,
        &partition,
        GAMMA,
        MU,
        &base_cfg().with_faults(Some(faults)),
    );

    // Drops cost retransmit time, never data: the protocol completes and
    // opens the exact same matrix, with the same accounted traffic
    // (retransmits are a transport detail, not protocol messages).
    assert_eq!(clean.c_hat, lossy.c_hat);
    assert_eq!(clean.stats.total.messages, lossy.stats.total.messages);
    assert_eq!(clean.stats.total.bytes, lossy.stats.total.bytes);
}

#[test]
fn crashed_party_yields_typed_error_naming_party_and_round() {
    // A crash is a property of (party, round), not of the medium: both
    // backends surface the identical typed error.
    let (data, partition) = workload();
    for backend in [NetBackend::InProcess, NetBackend::tcp()] {
        let cfg = base_cfg()
            .with_backend(backend)
            .with_faults(Some(FaultSpec::seeded(3).with_crash(2, 1)));
        let err = try_covariance_skellam(&data, &partition, GAMMA, MU, &cfg)
            .expect_err("a crashed party must not produce an output");
        assert_eq!(err, TransportError::Crashed { party: 2, round: 1 });
    }
}

#[test]
fn seeded_faults_are_deterministic_across_runs() {
    let (data, partition) = workload();
    let faulty = || {
        base_cfg().with_faults(Some(
            FaultSpec::seeded(11)
                .with_delay(Duration::ZERO, Duration::from_micros(200))
                .with_drop(0.1)
                .with_retransmit(Duration::from_micros(50), 20),
        ))
    };

    let a = covariance_skellam(&data, &partition, GAMMA, MU, &faulty());
    let b = covariance_skellam(&data, &partition, GAMMA, MU, &faulty());

    assert_eq!(a.c_hat, b.c_hat);
    assert_eq!(a.stats.total.rounds, b.stats.total.rounds);
    assert_eq!(a.stats.total.messages, b.stats.total.messages);
    assert_eq!(a.stats.total.bytes, b.stats.total.bytes);
}

#[test]
fn faults_compose_over_the_tcp_backend_too() {
    let (data, partition) = workload();
    let clean = covariance_skellam(&data, &partition, GAMMA, MU, &base_cfg());
    // 15 messages at a 25 % drop rate: this seed's schedule drops several,
    // and the trace's net events prove it (tracing never moves accounting).
    let cfg = base_cfg()
        .with_backend(NetBackend::tcp())
        .with_trace(true)
        .with_faults(Some(
            FaultSpec::seeded(5)
                .with_drop(0.25)
                .with_retransmit(Duration::from_micros(50), 20),
        ));
    let out = covariance_skellam(&data, &partition, GAMMA, MU, &cfg);
    let retransmits = out
        .trace
        .as_ref()
        .expect("trace requested")
        .parties
        .iter()
        .flat_map(|p| &p.net_events)
        .filter(|e| e.kind == "retransmit")
        .count();
    assert!(retransmits >= 1, "the drop schedule injected nothing");

    // Retransmits are a transport detail: same opened matrix, same
    // accounted traffic, phase by phase.
    assert_eq!(clean.c_hat, out.c_hat);
    assert_eq!(
        clean.stats.phases.keys().collect::<Vec<_>>(),
        out.stats.phases.keys().collect::<Vec<_>>()
    );
    for (name, c) in &clean.stats.phases {
        let o = &out.stats.phases[name];
        assert_eq!(
            (c.rounds, c.messages, c.bytes, c.elems),
            (o.rounds, o.messages, o.bytes, o.elems),
            "phase {name}"
        );
    }
    let (c, o) = (&clean.stats.total, &out.stats.total);
    assert_eq!(
        (c.rounds, c.messages, c.bytes, c.elems),
        (o.rounds, o.messages, o.bytes, o.elems)
    );
}

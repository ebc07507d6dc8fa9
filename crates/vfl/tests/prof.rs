//! Acceptance tests for the cost profiler at the VFL layer: attaching a
//! profiler through `VflConfig::with_prof` must not perturb a single
//! released bit (the opened covariance still matches the bit-exact
//! quantized oracle and equals the unprofiled run entry-for-entry), the
//! artifacts must be byte-identical across two same-seed runs, and the
//! Skellam draw counter plus the two-round structure (a masked sum to the
//! receiver, no degree reduction) must land in the profile. The generic circuit path
//! is the one VFL release that still degree-reduces; its realized traffic
//! is held against the engine's own accounting.
//!
//! Every test owns its profiler, so they run in parallel.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm_core::polynomial::Polynomial;
use sqm_linalg::Matrix;
use sqm_obs::prof::{self, Profiler};
use sqm_vfl::{
    covariance_quantized_oracle, covariance_skellam, eval_polynomial_skellam, gradient_sum_skellam,
    ColumnPartition, ProfConfig, StreamCov, VflConfig,
};

fn profiler() -> Arc<Profiler> {
    Profiler::new(ProfConfig::default().with_dir(std::env::temp_dir()))
}

fn small_data() -> Matrix {
    Matrix::from_rows(&[
        vec![0.5, -0.2, 0.1, 0.3],
        vec![-0.4, 0.3, 0.2, -0.1],
        vec![0.1, 0.1, -0.5, 0.2],
        vec![0.6, 0.0, 0.3, 0.4],
        vec![-0.2, -0.3, 0.1, 0.1],
    ])
}

#[test]
fn covariance_bits_identical_with_prof_on_and_oracle_still_matches() {
    let data = small_data();
    let partition = ColumnPartition::even(4, 4);
    let (gamma, mu) = (256.0, 40.0);
    let cfg_off = VflConfig::fast(4).with_seed(21);
    let prof = profiler();
    let cfg_on = cfg_off.clone().with_prof(Some(prof.clone()));

    let off = covariance_skellam(&data, &partition, gamma, mu, &cfg_off);
    assert!(
        prof.snapshot().nodes.is_empty(),
        "an unprofiled run must record nothing"
    );
    let on = covariance_skellam(&data, &partition, gamma, mu, &cfg_on);
    assert!(
        !prof.snapshot().nodes.is_empty(),
        "VflConfig::with_prof must profile the run"
    );

    // Released matrix is bit-identical profiled or not, and both still
    // match the bit-exact plaintext replay of the secure protocol.
    assert_eq!(off.c_hat, on.c_hat);
    let oracle = covariance_quantized_oracle(&data, &partition, gamma, mu, &cfg_on);
    assert_eq!(on.c_hat, oracle);

    // Deterministic accounting unchanged (wall time excluded by design).
    assert_eq!(off.stats.total.rounds, on.stats.total.rounds);
    assert_eq!(off.stats.total.messages, on.stats.total.messages);
    assert_eq!(off.stats.total.bytes, on.stats.total.bytes);
}

#[test]
fn covariance_profile_is_byte_deterministic_with_skellam_and_batching() {
    let data = small_data();
    let partition = ColumnPartition::even(4, 2);
    let profiled = || {
        let prof = profiler();
        let cfg = VflConfig::fast(2)
            .with_seed(5)
            .with_prof(Some(prof.clone()));
        covariance_skellam(&data, &partition, 128.0, 10.0, &cfg);
        prof.snapshot()
    };
    let (first, second) = (profiled(), profiled());
    let (folded1, json1) = (prof::render_folded(&first), prof::render_json(&first));
    assert_eq!(folded1, prof::render_folded(&second));
    assert_eq!(json1, prof::render_json(&second));

    // Each of the 2 parties draws n(n+1)/2 = 10 Skellam samples once.
    let draws = &second.nodes["vfl;dp_noise;skellam_draw"];
    assert_eq!(draws.calls, 2);
    assert_eq!(draws.work, 2 * 10);

    // ...and never shares them: they enter round 2's masked sum, and the
    // noise phase moves nothing.
    let sums = &second.nodes["engine;open;sum_to_receiver"];
    assert_eq!(sums.calls, 2);
    assert_eq!(sums.work, 2 * 10);
    assert!(!second.nodes.contains_key("engine;dp_noise;exchange"));

    // The release has no secure-multiplication round: nothing is degree-
    // reduced.
    assert!(!second.nodes.keys().any(|k| k.contains("reduce_degree")));

    // Engine traffic is attributed under the protocol's two round phases.
    assert!(second.nodes.contains_key("engine;input;exchange"));
    assert!(second.nodes.contains_key("engine;open;exchange"));
    assert!(!json1.contains("wall"));
}

#[test]
fn gradient_records_skellam_draws_per_dimension() {
    let data = small_data(); // 3 features + label
    let partition = ColumnPartition::even(4, 2);
    let prof = profiler();
    let cfg = VflConfig::fast(2)
        .with_seed(9)
        .with_prof(Some(prof.clone()));
    let w = vec![0.2, -0.1, 0.4];
    let out = gradient_sum_skellam(&data, &partition, &[0, 2, 4], &w, 1024.0, 4.0, &cfg);
    assert_eq!(out.grad_sum.len(), 3);

    let snap = prof.snapshot();
    let draws = &snap.nodes["vfl;dp_noise;skellam_draw"];
    assert_eq!(draws.calls, 2); // one batch of draws per party
    assert_eq!(draws.work, 2 * 3); // d = 3 draws each
    assert_eq!(snap.nodes["engine;open;sum_to_receiver"].work, 2 * 3);
    assert!(
        !snap.nodes.keys().any(|k| k.contains("reduce_degree")),
        "no mul round, nothing to reduce"
    );
}

#[test]
fn streaming_release_records_skellam_draws_like_the_one_shot() {
    let partition = ColumnPartition::even(4, 2);
    let prof = profiler();
    let cfg = VflConfig::fast(2)
        .with_seed(5)
        .with_prof(Some(prof.clone()));
    let mut stream = StreamCov::new(partition, 128.0, 10.0, &cfg, 16, 1.0).unwrap();
    stream.ingest(&small_data());
    stream.release().unwrap();
    stream.release().unwrap();

    // Each of the 2 parties draws n(n+1)/2 = 10 Skellam samples per release.
    let snap = prof.snapshot();
    let draws = &snap.nodes["vfl;dp_noise;skellam_draw"];
    assert_eq!(draws.calls, 2 * 2);
    assert_eq!(draws.work, 2 * 2 * 10);
    assert_eq!(snap.nodes["engine;open;sum_to_receiver"].work, draws.work);
}

/// The generic circuit path on the covariance polynomial: the two-round
/// covariance/gradient releases do not degree-reduce, so the circuit
/// evaluator is the VFL path whose realized reduce-degree traffic can be
/// held against the engine's accounting.
#[test]
fn prof_counters_differ_only_in_exchange_message_counts() {
    let (m, n, p) = (6usize, 4usize, 4usize);
    let mut rng = StdRng::seed_from_u64(4242);
    let data = Matrix::from_vec(m, n, (0..m * n).map(|_| rng.gen_range(-0.5..0.5)).collect());
    let partition = ColumnPartition::even(n, p);
    let poly = Polynomial::covariance(n);

    let prof = profiler();
    let (_, stats) = eval_polynomial_skellam(
        &poly,
        &data,
        &partition,
        256.0,
        20.0,
        &VflConfig::fast(p)
            .with_seed(42)
            .with_prof(Some(prof.clone())),
    );
    let snap = prof.snapshot();

    // The profile's exchange totals reconcile with the engine's own
    // accounting; `engine;<phase>;exchange` and `engine;<phase>;round<k>`
    // double-record each round.
    let profiled_msgs: u64 = snap.nodes.values().map(|node| node.messages).sum();
    assert_eq!(profiled_msgs, 2 * stats.total.messages);

    // One mul layer holds every per-record product of the n^2 output
    // dimensions, so there is one degree reduction per party. Round 0 of
    // the compute phase is the input sharing, round 1 that reduction: one
    // frame per link.
    assert_eq!(snap.nodes["engine;compute;reduce_degree"].calls, p as u64);
    assert_eq!(
        snap.nodes["engine;compute;round0001"].messages,
        (p * (p - 1)) as u64
    );
}

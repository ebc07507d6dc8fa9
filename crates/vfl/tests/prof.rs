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
    covariance_quantized_oracle, covariance_skellam, covariance_skellam_chunked,
    eval_polynomial_skellam, gradient_sum_oracle, gradient_sum_skellam, ColumnPartition,
    ProfConfig, StreamCov, VflConfig,
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

/// The multiply-accumulates one party spends on the Gram of `m` records:
/// its own columns' upper triangle in the clear, plus the cross-owner
/// entries `(j, k > j)` of every triangle row it keeps — party `j mod P`
/// sits out row `j` when `P > 2t + 1`, i.e. at even `P`.
fn gram_macs(partition: &ColumnPartition, party: usize, m: usize) -> u64 {
    let (n, p) = (partition.n_cols(), partition.n_clients());
    let own = partition.counts()[party];
    let cross = |j: usize| {
        let owner = partition.owner_of(j);
        (j + 1..n)
            .filter(|&k| partition.owner_of(k) != owner)
            .count()
    };
    let kept = (0..n).filter(|&j| p % 2 == 1 || j % p != party);
    (m * (own * (own + 1) / 2 + kept.map(cross).sum::<usize>())) as u64
}

#[test]
fn gram_node_pins_each_partys_own_block_and_kept_rows() {
    // Table II's widest row: 4 x 125 columns, 1000 records. Every party
    // multiplied the whole triangle before: 4 x 125,250 x 1000.
    let wide = ColumnPartition::even(500, 4);
    let total: u64 = (0..4).map(|p| gram_macs(&wide, p, 1000)).sum();
    assert_eq!(total, 312_750_000);
    assert_eq!(4 * 500 * 501 / 2 * 1000, 501_000_000);

    let (n, m) = (11usize, 7usize);
    let mut rng = StdRng::seed_from_u64(11);
    let data = Matrix::from_vec(m, n, (0..m * n).map(|_| rng.gen_range(-0.3..0.3)).collect());
    // P = 3 keeps every row (2t + 1 = P); P = 4 rotates one party out.
    for p in [3usize, 4] {
        let interleaved = ColumnPartition::from_owners((0..n).map(|j| j % p).collect(), p);
        for partition in [ColumnPartition::even(n, p), interleaved] {
            let what = format!("P={p} {partition:?}");
            let prof = profiler();
            let cfg = VflConfig::fast(p)
                .with_seed(3)
                .with_prof(Some(prof.clone()));
            let out = covariance_skellam(&data, &partition, 64.0, 5.0, &cfg);
            let oracle = covariance_quantized_oracle(&data, &partition, 64.0, 5.0, &cfg);
            assert_eq!(out.c_hat, oracle, "{what}");

            let work: Vec<u64> = (0..p)
                .map(|party| gram_macs(&partition, party, m))
                .collect();
            let gram = &prof.snapshot().nodes["vfl;compute;gram"];
            assert_eq!(gram.calls, p as u64, "{what}: one call per party per frame");
            assert_eq!(gram.work, work.iter().sum::<u64>(), "{what}");
            // Less than every party multiplying the whole triangle...
            assert!(gram.work < (p * n * (n + 1) / 2 * m) as u64, "{what}");
            // ...and spread within one triangle row's worth.
            let spread = work.iter().max().unwrap() - work.iter().min().unwrap();
            assert!(spread <= (n * m) as u64, "{what}: {work:?}");

            // The gradient runs the same program on one row, `v` against
            // the d = n - 1 features: every party multiplies it, but at
            // even P party 0 sits it out.
            let (batch, w, d) = ([0usize, 2, 3, 6], vec![0.1; n - 1], n - 1);
            let prof = profiler();
            let cfg = VflConfig::fast(p)
                .with_seed(3)
                .with_prof(Some(prof.clone()));
            let out = gradient_sum_skellam(&data, &partition, &batch, &w, 64.0, 5.0, &cfg);
            let oracle = gradient_sum_oracle(&data, &partition, &batch, &w, 64.0, 5.0, &cfg);
            assert_eq!(out.grad_sum, oracle, "{what}");
            let gram = &prof.snapshot().nodes["vfl;compute;gram"];
            let keep = if p % 2 == 0 { p - 1 } else { p };
            assert_eq!(gram.calls, p as u64, "{what}: gradient");
            assert_eq!(
                gram.work,
                (keep * d * batch.len()) as u64,
                "{what}: gradient"
            );
        }
    }

    // Chunked and streamed: one call per party per input frame, the same
    // total work, and a frame with nothing pending multiplies nothing.
    let partition = ColumnPartition::even(n, 4);
    let work: u64 = (0..4).map(|party| gram_macs(&partition, party, m)).sum();
    let prof = profiler();
    let cfg = VflConfig::fast(4).with_prof(Some(prof.clone()));
    covariance_skellam_chunked(&data, &partition, 64.0, 5.0, &cfg, 3);
    let gram = &prof.snapshot().nodes["vfl;compute;gram"];
    assert_eq!((gram.calls, gram.work), (4 * 3, work));
    let prof = profiler();
    let cfg = VflConfig::fast(4).with_prof(Some(prof.clone()));
    let mut stream = StreamCov::new(partition, 64.0, 5.0, &cfg, m, 1.0).unwrap();
    stream.release().unwrap();
    stream.ingest(&data);
    stream.release().unwrap();
    let gram = &prof.snapshot().nodes["vfl;compute;gram"];
    assert_eq!((gram.calls, gram.work), (4 * 2, work));
}

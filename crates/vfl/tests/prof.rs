//! Acceptance tests for the cost profiler at the VFL layer: attaching
//! `VflConfig::prof` must not perturb a single released bit (the opened
//! covariance still matches the bit-exact quantized oracle and equals the
//! unprofiled run entry-for-entry), the artifacts must be byte-identical
//! across two same-seed runs, and the Skellam draw counter plus the
//! fused two-round structure (mask shares, no degree reduction, no
//! batching report) must land in the profile.
//!
//! The profiler is process-global, so these tests serialize on one mutex.

use std::sync::Mutex;

use sqm_linalg::Matrix;
use sqm_obs::prof;
use sqm_vfl::{
    covariance_quantized_oracle, covariance_skellam, gradient_sum_skellam, ColumnPartition,
    ProfConfig, StreamCov, VflConfig,
};

static PROF_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    PROF_LOCK.lock().unwrap_or_else(|p| p.into_inner())
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
    let _g = lock();
    prof::deactivate();
    prof::reset();

    let data = small_data();
    let partition = ColumnPartition::even(4, 4);
    let (gamma, mu) = (256.0, 40.0);
    let cfg_off = VflConfig::fast(4).with_seed(21);
    let cfg_on = cfg_off
        .clone()
        .with_prof(Some(ProfConfig::default().with_dir(std::env::temp_dir())));

    let off = covariance_skellam(&data, &partition, gamma, mu, &cfg_off);
    let on = covariance_skellam(&data, &partition, gamma, mu, &cfg_on);
    assert!(
        prof::is_active(),
        "VflConfig::prof must install the profiler"
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

    prof::deactivate();
    prof::reset();
}

#[test]
fn covariance_profile_is_byte_deterministic_with_skellam_and_batching() {
    let _g = lock();
    prof::deactivate();
    prof::reset();

    let data = small_data();
    let partition = ColumnPartition::even(4, 2);
    let cfg = VflConfig::fast(2)
        .with_seed(5)
        .with_prof(Some(ProfConfig::default().with_dir(std::env::temp_dir())));

    covariance_skellam(&data, &partition, 128.0, 10.0, &cfg);
    let first = prof::snapshot().expect("profiler installed");
    let (folded1, json1) = (prof::render_folded(&first), prof::render_json(&first));
    prof::deactivate();
    prof::reset();
    covariance_skellam(&data, &partition, 128.0, 10.0, &cfg);
    let second = prof::snapshot().expect("profiler installed");
    assert_eq!(folded1, prof::render_folded(&second));
    assert_eq!(json1, prof::render_json(&second));

    // Each of the 2 parties draws n(n+1)/2 = 10 Skellam samples once.
    let draws = &second.nodes["vfl;dp_noise;skellam_draw"];
    assert_eq!(draws.calls, 2);
    assert_eq!(draws.work, 2 * 10);

    // ...and shares them at degree 2t, locally, under the same phase.
    let masks = &second.nodes["engine;dp_noise;mask_shares"];
    assert_eq!(masks.calls, 2);
    assert_eq!(masks.work, 2 * 10);
    assert!(!second.nodes.contains_key("engine;dp_noise;exchange"));

    // The release has no secure-multiplication round: nothing is degree-
    // reduced, so there is no batching opportunity to report.
    assert!(second.batching.is_none());
    assert!(!second.nodes.keys().any(|k| k.contains("reduce_degree")));

    // Engine traffic is attributed under the protocol's two round phases.
    assert!(second.nodes.contains_key("engine;input;exchange"));
    assert!(second.nodes.contains_key("engine;open;exchange"));
    assert!(!json1.contains("wall"));

    prof::deactivate();
    prof::reset();
}

#[test]
fn gradient_records_skellam_draws_per_dimension() {
    let _g = lock();
    prof::deactivate();
    prof::reset();

    let data = small_data(); // 3 features + label
    let partition = ColumnPartition::even(4, 2);
    let cfg = VflConfig::fast(2)
        .with_seed(9)
        .with_prof(Some(ProfConfig::default().with_dir(std::env::temp_dir())));
    let w = vec![0.2, -0.1, 0.4];
    let out = gradient_sum_skellam(&data, &partition, &[0, 2, 4], &w, 1024.0, 4.0, &cfg);
    assert_eq!(out.grad_sum.len(), 3);

    let snap = prof::snapshot().expect("profiler installed");
    let draws = &snap.nodes["vfl;dp_noise;skellam_draw"];
    assert_eq!(draws.calls, 2); // one batch of draws per party
    assert_eq!(draws.work, 2 * 3); // d = 3 draws each
    assert_eq!(snap.nodes["engine;dp_noise;mask_shares"].work, 2 * 3);
    assert!(snap.batching.is_none(), "no mul round, nothing to batch");

    prof::deactivate();
    prof::reset();
}

#[test]
fn streaming_release_records_skellam_draws_like_the_one_shot() {
    let _g = lock();
    prof::deactivate();
    prof::reset();

    let partition = ColumnPartition::even(4, 2);
    let cfg = VflConfig::fast(2)
        .with_seed(5)
        .with_prof(Some(ProfConfig::default().with_dir(std::env::temp_dir())));
    let mut stream = StreamCov::new(partition, 128.0, 10.0, &cfg, 16, 1.0).unwrap();
    stream.ingest(&small_data());
    stream.release().unwrap();
    stream.release().unwrap();

    // Each of the 2 parties draws n(n+1)/2 = 10 Skellam samples per release.
    let snap = prof::snapshot().expect("profiler installed");
    let draws = &snap.nodes["vfl;dp_noise;skellam_draw"];
    assert_eq!(draws.calls, 2 * 2);
    assert_eq!(draws.work, 2 * 2 * 10);
    assert_eq!(snap.nodes["engine;dp_noise;mask_shares"].work, draws.work);

    prof::deactivate();
    prof::reset();
}

//! Cross-checks between the BGW-backed protocols and their plaintext
//! simulations, plus the cost-model trends behind Tables I, II, IV and V.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm::core::{Monomial, Polynomial};
use sqm::datasets::SpectralSpec;
use sqm::linalg::Matrix;
use sqm::vfl::covariance::{covariance_quantized_oracle, covariance_skellam};
use sqm::vfl::gradient::gradient_sum_skellam;
use sqm::vfl::{eval_polynomial_skellam, ColumnPartition, VflConfig};
use std::time::Duration;

/// The BGW covariance equals its plaintext oracle at the same config
/// exactly (and the true Gram matrix scaled by gamma^2, up to rounding,
/// when mu = 0).
#[test]
fn mpc_covariance_cross_check() {
    let data = SpectralSpec::new(40, 8).with_seed(11).generate();
    let partition = ColumnPartition::even(8, 4);
    let gamma = 8192.0;
    let cfg = VflConfig::fast(4);
    let out = covariance_skellam(&data, &partition, gamma, 0.0, &cfg);
    let scaled = out.c_hat.scaled(1.0 / (gamma * gamma));
    let err = scaled.sub(&data.gram()).frobenius_norm() / data.gram().frobenius_norm();
    assert!(err < 1e-3, "relative error {err}");

    let plain = covariance_quantized_oracle(&data, &partition, gamma, 0.0, &cfg);
    assert_eq!(out.c_hat, plain, "plaintext/MPC divergence");
}

/// Generic circuit path agrees with the covariance fast path.
#[test]
fn generic_circuit_agrees_with_covariance_fast_path() {
    let data = SpectralSpec::new(12, 3).with_seed(12).generate();
    let partition = ColumnPartition::even(3, 3);
    let gamma = 4096.0;
    let cfg = VflConfig::fast(3);
    let fast = covariance_skellam(&data, &partition, gamma, 0.0, &cfg);

    let poly = Polynomial::covariance(3);
    let (vals, _) = eval_polynomial_skellam(&poly, &data, &partition, gamma, 0.0, &cfg);
    // The generic path amplifies by gamma^(lambda+1) = gamma^3 and returns
    // down-scaled values; the fast path returns gamma^2-amplified ints.
    for j in 0..3 {
        for k in 0..3 {
            let a = vals[j * 3 + k];
            let b = fast.c_hat[(j, k)] / (gamma * gamma);
            assert!((a - b).abs() < 2e-3, "({j},{k}): generic {a} fast {b}");
        }
    }
}

/// Table I: covariance communication grows with n^2 and is independent of m.
#[test]
fn covariance_communication_scales_with_n_squared_not_m() {
    let cfg = VflConfig::fast(4);
    let run = |m: usize, n: usize| {
        let data = SpectralSpec::new(m, n).with_seed(13).generate();
        let partition = ColumnPartition::even(n, 4);
        covariance_skellam(&data, &partition, 16.0, 1.0, &cfg)
    };
    let base = run(50, 8);
    let more_records = run(400, 8);
    let more_dims = run(50, 16);
    // Input sharing bytes grow with m (the noise shares in the same frame
    // do not, but are accounted with it); the open round's bytes do not.
    let nonshare = |s: &sqm::mpc::RunStats| s.total.bytes - s.phases["input"].bytes;
    assert_eq!(
        nonshare(&base.stats),
        nonshare(&more_records.stats),
        "non-input communication must not depend on m"
    );
    let r = nonshare(&more_dims.stats) as f64 / nonshare(&base.stats) as f64;
    assert!(
        (3.0..5.0).contains(&r),
        "n doubling should ~4x bytes, got {r}"
    );
}

/// Table II's headline, sharpened by round fusion: enforcing DP costs *no*
/// communication round at any data dimension (the noise shares ride the
/// input frame), only local sampling time, while the total protocol cost
/// grows with n — so the relative DP overhead vanishes.
#[test]
fn dp_overhead_is_zero_rounds_regardless_of_dimension() {
    let cfg = VflConfig::new(4)
        .with_latency(Duration::from_millis(100))
        .with_seed(3)
        .with_trace(false);
    let mut prev_total_bytes = 0u64;
    for n in [6usize, 12, 24] {
        let data = SpectralSpec::new(30, n).with_seed(14).generate();
        let partition = ColumnPartition::even(n, 4);
        let out = covariance_skellam(&data, &partition, 18.0, 10.0, &cfg);
        // DP noise: no synchronous round of its own at any dimension, and
        // the whole release is two rounds.
        assert_eq!(out.stats.phases["dp_noise"].rounds, 0, "n={n}");
        assert_eq!(out.stats.total.rounds, 2, "n={n}");
        // The DP phase pays no latency hop, only local sampling...
        let dp = out.stats.phase_time("dp_noise");
        assert!(dp < Duration::from_millis(50), "n={n}: dp={dp:?}");
        // ...while total traffic keeps growing with n.
        assert!(out.stats.total.bytes > prev_total_bytes, "n={n}");
        prev_total_bytes = out.stats.total.bytes;
    }
}

/// The gradient protocol opens exactly the noisy sum — its output matches
/// the direct Eq. 9 computation when noise and quantization are effectively
/// disabled.
#[test]
fn mpc_gradient_cross_check_high_precision() {
    let mut raw = Vec::new();
    let mut rng = StdRng::seed_from_u64(15);
    use rand::Rng;
    for _ in 0..10 {
        let mut row: Vec<f64> = (0..5).map(|_| rng.gen::<f64>() * 0.4 - 0.2).collect();
        row.push(f64::from(rng.gen::<bool>()));
        raw.push(row);
    }
    let data = Matrix::from_rows(&raw);
    let d = 5;
    let w: Vec<f64> = (0..d).map(|j| 0.1 * (j as f64 - 2.0)).collect();
    let batch: Vec<usize> = (0..10).collect();

    let mut truth = vec![0.0; d];
    for &i in &batch {
        let row = data.row(i);
        let wx: f64 = w.iter().zip(&row[..d]).map(|(a, b)| a * b).sum();
        for k in 0..d {
            truth[k] += (0.5 + wx / 4.0 - row[d]) * row[k];
        }
    }

    let partition = ColumnPartition::even(d + 1, 3);
    let out = gradient_sum_skellam(
        &data,
        &partition,
        &batch,
        &w,
        16384.0,
        0.0,
        &VflConfig::fast(3),
    );
    for (g, t) in out.grad_sum.iter().zip(&truth) {
        assert!((g - t).abs() < 5e-3, "got {g} want {t}");
    }
}

/// Table V trend: more clients => more rounds-bytes but the protocol stays
/// correct, and round count is unchanged (synchronous batching).
#[test]
fn client_scaling_preserves_correctness_and_rounds() {
    let data = SpectralSpec::new(24, 12).with_seed(16).generate();
    let gamma = 2048.0;
    let gram = data.gram();
    let mut bytes_prev = 0u64;
    for p in [2usize, 4, 6] {
        let partition = ColumnPartition::even(12, p);
        let out = covariance_skellam(&data, &partition, gamma, 0.0, &VflConfig::fast(p));
        let err = out
            .c_hat
            .scaled(1.0 / (gamma * gamma))
            .sub(&gram)
            .frobenius_norm()
            / gram.frobenius_norm();
        assert!(err < 1e-3, "P={p}: err {err}");
        assert_eq!(out.stats.total.rounds, 2, "P={p}");
        assert!(out.stats.total.bytes > bytes_prev, "bytes must grow with P");
        bytes_prev = out.stats.total.bytes;
    }
}

/// A degree-3, multi-client polynomial through the full stack (quantize ->
/// circuit -> BGW -> noise -> open -> rescale).
#[test]
fn degree3_polynomial_full_stack() {
    let data = Matrix::from_rows(&[
        vec![0.2, 0.4, -0.3, 0.1],
        vec![-0.1, 0.2, 0.5, -0.2],
        vec![0.3, -0.2, 0.1, 0.4],
    ]);
    let f = Polynomial::one_dimensional(
        4,
        vec![
            Monomial::new(2.0, vec![(0, 1), (1, 1), (2, 1)]),
            Monomial::new(-1.0, vec![(3, 2)]),
            Monomial::constant(0.25),
        ],
    );
    let truth = f.sum_over((0..3).map(|i| data.row(i)))[0];
    let partition = ColumnPartition::even(4, 2);
    let (vals, stats) =
        eval_polynomial_skellam(&f, &data, &partition, 4096.0, 0.0, &VflConfig::fast(2));
    assert!(
        (vals[0] - truth).abs() < 0.01,
        "got {} want {truth}",
        vals[0]
    );
    assert!(stats.total.rounds >= 4);
}

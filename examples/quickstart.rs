//! Quickstart: differentially private polynomial evaluation over a
//! vertically partitioned toy database.
//!
//! Three organizations each hold one attribute about the same users. They
//! want the server to learn `sum_x (x0 * x1 + 0.5 * x2^2)` — a degree-2
//! polynomial statistic — under distributed DP, trusting nobody.
//!
//! Run with: `cargo run --release --example quickstart`

use sqm::accounting::calibration::{calibrate_skellam_mu, CalibrationTarget};
use sqm::core::sensitivity::generic_sensitivity;
use sqm::core::{Monomial, Polynomial};
use sqm::linalg::Matrix;
use sqm::vfl::{eval_polynomial_oracle, eval_polynomial_skellam, ColumnPartition, VflConfig};

fn main() {
    // The vertically partitioned database: 200 users, 3 attributes, each
    // attribute owned by a different client. Records have L2 norm <= 1.
    let m = 200;
    let data = Matrix::from_rows(
        &(0..m)
            .map(|i| {
                let t = i as f64 / m as f64;
                vec![
                    0.5 * (6.0 * t).sin(),
                    0.4 * (3.0 * t).cos(),
                    0.3 * (2.0 * t - 1.0),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // The public function of interest.
    let f = Polynomial::one_dimensional(
        3,
        vec![
            Monomial::new(1.0, vec![(0, 1), (1, 1)]), // x0 * x1
            Monomial::new(0.5, vec![(2, 2)]),         // 0.5 * x2^2
        ],
    );
    let truth = f.sum_over((0..m).map(|i| data.row(i)))[0];
    println!("true value of F(X)            : {truth:.4}");

    // Calibrate the Skellam noise for (eps = 1, delta = 1e-5) against the
    // quantized function's sensitivity (Lemma 4 + Lemma 1 + Lemma 9).
    let gamma = 4096.0;
    let target = CalibrationTarget::new(1.0, 1e-5);
    let max_f = 1.0; // |x0 x1 + 0.5 x2^2| <= 1 on the unit ball
    let sens = generic_sensitivity(&f, gamma, 1.0, max_f);
    let mu = calibrate_skellam_mu(target, sens, 1, 1.0);
    println!("quantization scale gamma      : {gamma}");
    println!("calibrated Skellam mu         : {mu:.3e}");

    // (a) Fast path: the plaintext oracle, which replays the release's
    // quantization and noise streams in the clear.
    let partition = ColumnPartition::even_or_sparse(3, 3);
    let cfg = VflConfig::new(3).with_seed(7);
    let est = eval_polynomial_oracle(&f, &data, &partition, gamma, mu, &cfg);
    println!("SQM estimate (plaintext)      : {:.4}", est[0]);

    // (b) The real thing: three clients run BGW; only the perturbed integer
    // result is ever opened — exactly the value (a) predicted.
    let (vals, stats) = eval_polynomial_skellam(&f, &data, &partition, gamma, mu, &cfg);
    println!("SQM estimate (BGW, 3 parties) : {:.4}", vals[0]);
    assert_eq!(est, vals, "the oracle predicts the BGW release exactly");
    println!(
        "MPC cost: {} rounds, {} messages, {} bytes, simulated time {:.2?} (0.1 s/hop)",
        stats.total.rounds,
        stats.total.messages,
        stats.total.bytes,
        stats.simulated_time(),
    );
    println!(
        "  of which DP noise injection: {:.2?}",
        stats.phase_time("dp_noise")
    );

    let err = (vals[0] - truth).abs();
    println!(
        "absolute error                : {err:.4} (noise std ~ {:.4})",
        (2.0 * mu).sqrt() / gamma.powi(3)
    );
}

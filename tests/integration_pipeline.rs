//! End-to-end pipeline tests spanning datasets -> mechanisms -> accounting
//! -> tasks.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm::accounting::calibration::CalibrationTarget;
use sqm::datasets::{acsincome_like, ClassificationSpec, Scale, SpectralSpec};
use sqm::tasks::logreg::{accuracy, DpSgd, LocalDpLogReg, LrConfig, NonPrivateLogReg, SqmLogReg};
use sqm::tasks::pca::{pca_utility, AnalyzeGaussPca, LocalDpPca, NonPrivatePca, SqmPca};

/// Figure 2's qualitative ordering on a full pipeline:
/// non-private >= central ~ SQM(large gamma) > local-DP.
#[test]
fn pca_utility_ordering_matches_figure2() {
    let data = SpectralSpec::new(1500, 16)
        .with_decay(1.0)
        .with_seed(42)
        .generate();
    let k = 4;
    let (eps, delta) = (1.0, 1e-5);
    let mut rng = StdRng::seed_from_u64(0);

    let reps = 8;
    let mut u = [0.0f64; 4]; // [ceiling, central, sqm, local]
    for _ in 0..reps {
        u[0] += pca_utility(&data, &NonPrivatePca::new(k).fit(&data));
        u[1] += pca_utility(
            &data,
            &AnalyzeGaussPca::new(k, eps, delta).fit(&mut rng, &data),
        );
        u[2] += pca_utility(
            &data,
            &SqmPca::new(k, 2f64.powi(12), eps, delta).fit(&mut rng, &data),
        );
        u[3] += pca_utility(&data, &LocalDpPca::new(k, eps, delta).fit(&mut rng, &data));
    }
    for v in u.iter_mut() {
        *v /= reps as f64;
    }
    assert!(u[0] >= u[1] - 1e-9, "ceiling {} vs central {}", u[0], u[1]);
    assert!(u[2] > u[3], "SQM {} must beat local-DP {}", u[2], u[3]);
    assert!(
        u[2] > 0.85 * u[1],
        "SQM {} should track central {}",
        u[2],
        u[1]
    );
}

/// Figure 2's epsilon trend: more budget, more utility (SQM).
#[test]
fn pca_utility_monotone_in_epsilon() {
    let data = SpectralSpec::new(1000, 12)
        .with_decay(1.0)
        .with_seed(7)
        .generate();
    let mut rng = StdRng::seed_from_u64(1);
    let mut last = 0.0;
    for eps in [0.25, 1.0, 8.0] {
        let mut acc = 0.0;
        for _ in 0..6 {
            acc += pca_utility(
                &data,
                &SqmPca::new(3, 2048.0, eps, 1e-5).fit(&mut rng, &data),
            );
        }
        let u = acc / 6.0;
        assert!(
            u >= last * 0.98,
            "eps={eps}: utility {u} dropped from {last}"
        );
        last = u;
    }
}

/// Figure 3's qualitative ordering on a full LR pipeline.
#[test]
fn logreg_accuracy_ordering_matches_figure3() {
    let (train, test) = ClassificationSpec::new(3000, 12)
        .with_seed(5)
        .generate()
        .split(0.8, 0);
    let cfg = LrConfig::new(150, 0.05).with_lr(2.0);
    let (eps, delta) = (4.0, 1e-5);
    let mut rng = StdRng::seed_from_u64(2);

    let reps = 3;
    let mut a = [0.0f64; 4]; // [ceiling, dpsgd, sqm, local]
    for _ in 0..reps {
        let c = cfg.clone();
        a[0] += accuracy(
            &NonPrivateLogReg::new(c.clone()).fit(&mut rng, &train),
            &test,
        );
        a[1] += accuracy(
            &DpSgd::new(c.clone(), eps, delta).fit(&mut rng, &train),
            &test,
        );
        a[2] += accuracy(
            &SqmLogReg::new(c.clone(), 2f64.powi(13), eps, delta).fit(&mut rng, &train),
            &test,
        );
        a[3] += accuracy(&LocalDpLogReg::new(eps, delta).fit(&mut rng, &train), &test);
    }
    for v in a.iter_mut() {
        *v /= reps as f64;
    }
    assert!(a[2] > a[3] + 0.02, "SQM {} must beat local {}", a[2], a[3]);
    assert!(
        a[2] > a[1] - 0.08,
        "SQM {} should track DPSGD {}",
        a[2],
        a[1]
    );
    assert!(a[0] >= a[1] - 0.05, "ceiling {} vs DPSGD {}", a[0], a[1]);
}

/// SQM-PCA's calibration must satisfy its *declared* target exactly
/// (privacy is a hard constraint, never approximate).
#[test]
fn pca_pipeline_respects_privacy_budget() {
    let data = acsincome_like(0, Scale::Laptop, 3);
    for eps in [0.25, 1.0, 8.0] {
        let mech = SqmPca::new(5, 1024.0, eps, 1e-5);
        let achieved = mech.achieved_epsilon(data.max_row_norm(), data.cols());
        assert!(
            achieved <= eps * (1.0 + 1e-6),
            "eps target {eps}: achieved {achieved}"
        );
    }
}

/// LR calibration accounts subsampling and composition: more rounds at the
/// same target require strictly more noise.
#[test]
fn logreg_noise_grows_with_rounds() {
    let gamma = 1024.0;
    let d = 50;
    let mk =
        |rounds| SqmLogReg::new(LrConfig::new(rounds, 0.01), gamma, 1.0, 1e-5).calibrated_mu(d);
    let mu10 = mk(10);
    let mu1000 = mk(1000);
    assert!(mu1000 > mu10, "mu {mu1000} vs {mu10}");
    // RDP composition is sub-linear: 100x rounds needs far less than 100x mu
    // (would be 100x in variance under naive composition at fixed alpha).
    assert!(mu1000 < mu10 * 150.0);
}

/// The CalibrationTarget type rejects nonsensical budgets at the boundary
/// of the pipeline.
#[test]
#[should_panic(expected = "epsilon")]
fn rejects_zero_epsilon() {
    CalibrationTarget::new(0.0, 1e-5);
}

/// Multi-release budgeting: run a PCA covariance release and several LR
/// rounds against one odometer; the recorded spend must bind before the
/// budget is exceeded (Lemma 10 composition through the odometer).
#[test]
fn odometer_governs_multi_release_session() {
    use sqm::accounting::budget::{Admission, PrivacyOdometer};
    use sqm::accounting::skellam::skellam_rdp;
    use sqm::accounting::{default_alpha_grid, RdpCurve};
    use sqm::core::sensitivity::pca_sensitivity;

    let gamma = 1024.0;
    let n = 12;
    let sens = pca_sensitivity(gamma, 1.0, n);
    // A covariance release calibrated for eps ~ 1 alone.
    let mu = sqm::accounting::calibration::calibrate_skellam_mu(
        sqm::accounting::calibration::CalibrationTarget::new(1.0, 1e-5),
        sens,
        1,
        1.0,
    );
    let release = RdpCurve::from_fn(&default_alpha_grid(), |a| skellam_rdp(a, sens, mu));

    let mut odometer = PrivacyOdometer::new(3.0, 1e-5);
    let mut admitted = 0;
    while odometer.admit(&release) == Admission::Admitted {
        admitted += 1;
        assert!(admitted < 100, "odometer failed to bind");
    }
    // eps ~1 each under a 3.0 budget: RDP composition admits at least 3
    // (composition is sublinear) but must stop well before 20.
    assert!((3..20).contains(&admitted), "admitted {admitted}");
    assert!(odometer.spent_epsilon() <= 3.0 + 1e-9);
    assert!(odometer.remaining_epsilon() < 1.0);
}

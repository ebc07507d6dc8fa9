//! The paper's motivating scenario, end to end over real MPC.
//!
//! Three organizations share a user base: an e-commerce platform (browsing
//! features), an online payment service (transaction features) and a credit
//! bureau (bureau features plus the fraud label). None may reveal raw data
//! to the others or to the coordinating server, and the *model itself* must
//! not leak individuals — so they run SQM-LR over BGW with distributed
//! Skellam noise, and also release a DP cross-party covariance for feature
//! auditing.
//!
//! (Three parties, not two: BGW's semi-honest threshold `t = floor((P-1)/2)`
//! degenerates to `t = 0` at `P = 2`, which keeps outputs correct but gives
//! the two parties no secrecy from each other — see
//! `sqm::mpc::engine::MpcConfig::semi_honest`. With `P = 3`, `t = 1`: any
//! single curious party learns nothing beyond the DP outputs.)
//!
//! Run with: `cargo run --release --example fraud_detection`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm::datasets::ClassificationSpec;
use sqm::tasks::logreg::{accuracy, LrConfig, SqmLogReg};
use sqm::tasks::Backend;
use sqm::vfl::{covariance_skellam, ColumnPartition, VflConfig};

fn main() {
    // 500 shared users; platform owns features 0..3, payments 3..6, and the
    // credit bureau 6..8 plus the fraud label (col 8).
    let ds = ClassificationSpec::new(500, 8).with_seed(5).generate();
    let (train, test) = ds.split(0.8, 0);
    println!(
        "joint user base: {} train / {} test users, 3 + 3 + 2 features across 3 organizations",
        train.len(),
        test.len()
    );

    let mut rng = StdRng::seed_from_u64(3);
    let (eps, delta) = (4.0, 1e-5);

    // ---- 1. DP cross-party covariance for feature auditing --------------
    // Feature columns 0..3 -> platform, 3..6 -> payments, 6..8 -> bureau.
    let features = train.features.clone();
    let partition = ColumnPartition::from_owners(vec![0, 0, 0, 1, 1, 1, 2, 2], 3);
    let cfg = VflConfig::new(3).with_seed(17);
    let gamma = 4096.0;
    let sens = sqm::core::sensitivity::pca_sensitivity(gamma, 1.0, 8);
    let mu = sqm::accounting::calibration::calibrate_skellam_mu(
        sqm::accounting::calibration::CalibrationTarget::new(eps, delta),
        sens,
        1,
        1.0,
    );
    let out = covariance_skellam(&features, &partition, gamma, mu, &cfg);
    let cov = out.c_hat.scaled(1.0 / (gamma * gamma));
    println!("\nDP covariance released (eps={eps}): diagonal = ");
    let diag: Vec<String> = (0..8).map(|j| format!("{:.3}", cov[(j, j)])).collect();
    println!("  [{}]", diag.join(", "));
    println!(
        "MPC cost: {} rounds, {} KiB, simulated {:.1?} at 0.1 s/hop ({:.1?} for DP noise)",
        out.stats.total.rounds,
        out.stats.total.bytes / 1024,
        out.stats.simulated_time(),
        out.stats.phase_time("dp_noise"),
    );

    // ---- 2. Joint fraud model via SQM-LR over BGW ------------------------
    let lr_cfg = LrConfig::new(30, 0.25).with_lr(2.0);
    let mech = SqmLogReg::new(lr_cfg, 8192.0, eps, delta)
        .with_clients(3)
        .with_backend(Backend::Mpc(VflConfig::new(3).with_seed(29)));
    let w = mech.fit(&mut rng, &train);
    let acc = accuracy(&w, &test);
    println!("\njoint DP fraud model test accuracy: {acc:.3}");
    println!("(weights live at the server; raw features never left any organization)");
}

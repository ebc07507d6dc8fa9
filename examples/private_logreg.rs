//! Differentially private logistic regression over vertically partitioned
//! data (one cell of the paper's Figure 3, ACSIncome-shaped).
//!
//! Run with: `cargo run --release --example private_logreg`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm::datasets::presets::acsincome_classification;
use sqm::datasets::Scale;
use sqm::tasks::logreg::{
    accuracy, ApproxPolyLogReg, DpSgd, LocalDpLogReg, LrConfig, NonPrivateLogReg, SqmLogReg,
};

fn main() {
    let mut rng = StdRng::seed_from_u64(2);
    let (train, test) = acsincome_classification(0, Scale::Laptop, 0).split(0.8, 0);
    println!(
        "ACSIncome(CA)-shaped data: {} train / {} test, {} features",
        train.len(),
        test.len(),
        train.features.cols()
    );

    let (eps, delta) = (2.0, 1e-5);
    let cfg = LrConfig::new(200, 0.05).with_lr(2.0);
    println!(
        "privacy target (eps={eps}, delta={delta}); {} rounds at q={}",
        cfg.rounds, cfg.q
    );
    println!("{:<30} {:>10}", "mechanism", "accuracy");

    let w = NonPrivateLogReg::new(cfg.clone()).fit(&mut rng, &train);
    println!(
        "{:<30} {:>10.4}",
        "non-private (ceiling)",
        accuracy(&w, &test)
    );

    let w = DpSgd::new(cfg.clone(), eps, delta).fit(&mut rng, &train);
    println!("{:<30} {:>10.4}", "central DPSGD", accuracy(&w, &test));

    let w = ApproxPolyLogReg::new(cfg.clone(), eps, delta).fit(&mut rng, &train);
    println!(
        "{:<30} {:>10.4}",
        "central Approx-Poly",
        accuracy(&w, &test)
    );

    for gamma_log2 in [10u32, 13] {
        let gamma = 2f64.powi(gamma_log2 as i32);
        let mech = SqmLogReg::new(cfg.clone(), gamma, eps, delta);
        let mu = mech.calibrated_mu(train.features.cols());
        let w = mech.fit(&mut rng, &train);
        println!(
            "{:<30} {:>10.4}   (mu = {mu:.2e})",
            format!("SQM (gamma = 2^{gamma_log2})"),
            accuracy(&w, &test)
        );
    }

    let w = LocalDpLogReg::new(eps, delta).fit(&mut rng, &train);
    println!(
        "{:<30} {:>10.4}",
        "local DP (VFL baseline)",
        accuracy(&w, &test)
    );
}

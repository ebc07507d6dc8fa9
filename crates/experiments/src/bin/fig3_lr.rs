//! Figure 3: logistic-regression test accuracy versus epsilon, on the four
//! ACSIncome-shaped state datasets, for central DPSGD, SQM at two gammas,
//! and the local-DP VFL baseline.
//!
//! `cargo run -p sqm-experiments --release --bin fig3_lr [--paper] [--runs N]`

use rand::rngs::StdRng;
use sqm::datasets::presets::acsincome_classification;
use sqm::datasets::Scale;
use sqm::tasks::logreg::{accuracy, DpSgd, LocalDpLogReg, LrConfig, NonPrivateLogReg, SqmLogReg};
use sqm_experiments::{cell_rng, fmt_pm, mean_std, obsout, parse_options};

const STATES: [&str; 4] = ["CA", "TX", "NY", "FL"];

fn main() {
    let opts = parse_options();
    let delta = 1e-5;
    // The paper: subsample rate 0.001 and epochs {2,5,8,10,10} for eps
    // {0.5,1,2,4,8}. At laptop scale we keep the same epoch schedule but a
    // larger q so batches are non-trivial on 1600 training records.
    let (q, lr) = match opts.scale {
        Scale::Laptop => (0.05, 2.0),
        Scale::Paper => (0.001, 2.0),
    };
    let eps_epochs: [(f64, u32); 5] = [(0.5, 2), (1.0, 5), (2.0, 8), (4.0, 10), (8.0, 10)];
    println!(
        "=== Figure 3: DP logistic regression (delta = {delta}, q = {q}, {} runs) ===",
        opts.runs
    );

    for (state_idx, &state) in STATES.iter().enumerate() {
        let ds = acsincome_classification(state_idx, opts.scale, opts.seed);
        let (train, test) = ds.split(0.8, opts.seed);
        let d = train.features.cols();
        println!(
            "\n--- ACSIncome({state}) : {} train / {} test, {d} features ---",
            train.len(),
            test.len()
        );
        println!(
            "{:>8} {:>8} {:>20} {:>20} {:>20} {:>20} {:>20}",
            "eps", "epochs", "non-private", "DPSGD", "SQM g=2^10", "SQM g=2^13", "local-DP"
        );

        for &(eps, epochs) in &eps_epochs {
            // Rounds: epochs' worth of expected passes at rate q, capped so
            // laptop runs stay fast (uncapped at paper scale).
            let cap = if opts.scale == Scale::Paper {
                u32::MAX
            } else {
                400
            };
            let rounds = (((epochs as f64) / q).round() as u32).min(cap);
            let cfg = LrConfig::new(rounds, q).with_lr(lr);
            // Each mechanism draws from its own stream per run, so a change
            // to one mechanism leaves the others' columns unmoved.
            let collect = |mechanism: &str, fit: &dyn Fn(&mut StdRng) -> Vec<f64>| {
                let accs: Vec<f64> = (0..opts.runs as u64)
                    .map(|r| {
                        let mut rng = cell_rng(opts.seed, mechanism, eps, r, state);
                        accuracy(&fit(&mut rng), &test)
                    })
                    .collect();
                mean_std(&accs)
            };

            let (np_m, np_s) = collect("non-private", &|rng| {
                NonPrivateLogReg::new(cfg.clone()).fit(rng, &train)
            });
            let (dp_m, dp_s) = collect("dpsgd", &|rng| {
                DpSgd::new(cfg.clone(), eps, delta).fit(rng, &train)
            });
            let (s10_m, s10_s) = collect("sqm-2^10", &|rng| {
                SqmLogReg::new(cfg.clone(), 2f64.powi(10), eps, delta).fit(rng, &train)
            });
            let (s13_m, s13_s) = collect("sqm-2^13", &|rng| {
                SqmLogReg::new(cfg.clone(), 2f64.powi(13), eps, delta).fit(rng, &train)
            });
            let (lo_m, lo_s) = collect("local-dp", &|rng| {
                LocalDpLogReg::new(eps, delta).fit(rng, &train)
            });

            println!(
                "{eps:>8.1} {epochs:>8} {:>20} {:>20} {:>20} {:>20} {:>20}",
                fmt_pm(np_m, np_s),
                fmt_pm(dp_m, dp_s),
                fmt_pm(s10_m, s10_s),
                fmt_pm(s13_m, s13_s),
                fmt_pm(lo_m, lo_s),
            );
        }
    }
    obsout::dump_metrics("fig3_lr").expect("writing results/");
}

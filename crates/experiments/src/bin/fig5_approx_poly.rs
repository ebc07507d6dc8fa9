//! Figure 5: the gap between centralized DPSGD (exact sigmoid gradients)
//! and "Approx-Poly" (the same Gaussian mechanism with the degree-1 Taylor
//! gradient of Eq. 9) is negligible (< 0.05 in the paper).
//!
//! `cargo run -p sqm-experiments --release --bin fig5_approx_poly [--runs N]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqm::datasets::presets::acsincome_classification;
use sqm::tasks::logreg::{accuracy, ApproxPolyLogReg, DpSgd, LrConfig};
use sqm_experiments::{fmt_pm, mean_std, obsout, parse_options};

const STATES: [&str; 4] = ["CA", "TX", "NY", "FL"];

fn main() {
    let opts = parse_options();
    let delta = 1e-5;
    let q = 0.05;
    println!(
        "=== Figure 5: DPSGD vs Approx-Poly (delta = {delta}, {} runs) ===",
        opts.runs
    );
    println!(
        "{:>6} {:>6} {:>20} {:>20} {:>10}",
        "state", "eps", "DPSGD (exact)", "Approx-Poly", "gap"
    );

    let mut worst_gap = 0.0f64;
    for (idx, state) in STATES.iter().enumerate() {
        let (train, test) =
            acsincome_classification(idx, opts.scale, opts.seed).split(0.8, opts.seed);
        for (eps, epochs) in [(0.5f64, 2u32), (1.0, 5), (2.0, 8), (4.0, 10), (8.0, 10)] {
            let cap = if opts.scale == sqm::datasets::Scale::Paper {
                u32::MAX
            } else {
                400
            };
            let rounds = (((epochs as f64) / q).round() as u32).min(cap);
            let cfg = LrConfig::new(rounds, q).with_lr(2.0);
            let mut rng = StdRng::seed_from_u64(opts.seed ^ eps.to_bits() ^ (idx as u64) << 8);
            let exact: Vec<f64> = (0..opts.runs)
                .map(|_| {
                    accuracy(
                        &DpSgd::new(cfg.clone(), eps, delta).fit(&mut rng, &train),
                        &test,
                    )
                })
                .collect();
            let poly: Vec<f64> = (0..opts.runs)
                .map(|_| {
                    accuracy(
                        &ApproxPolyLogReg::new(cfg.clone(), eps, delta).fit(&mut rng, &train),
                        &test,
                    )
                })
                .collect();
            let (em, es) = mean_std(&exact);
            let (pm, ps) = mean_std(&poly);
            let gap = (em - pm).abs();
            worst_gap = worst_gap.max(gap);
            println!(
                "{state:>6} {eps:>6.1} {:>20} {:>20} {gap:>10.4}",
                fmt_pm(em, es),
                fmt_pm(pm, ps)
            );
        }
    }
    println!("\nworst-case gap: {worst_gap:.4} (the paper reports < 0.05 throughout)");
    obsout::dump_metrics("fig5_approx_poly").expect("writing results/");
}

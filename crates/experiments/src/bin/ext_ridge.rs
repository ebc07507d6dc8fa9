//! Extension experiment: SQM ridge regression (not in the paper's
//! evaluation — it instantiates the "polynomial sufficient statistics"
//! extension the paper's discussion proposes).
//!
//! `cargo run -p sqm-experiments --release --bin ext_ridge [--runs N]`

use rand::rngs::StdRng;
use sqm::datasets::RegressionSpec;
use sqm::tasks::ridge::{GaussianRidge, LocalDpRidge, NonPrivateRidge, SqmRidge};
use sqm_experiments::{cell_rng, obsout, parse_options};

/// Median and interquartile range, interpolating between order statistics.
/// A ridge MSE is heavy-tailed at small epsilon (one ill-conditioned solve
/// can own a mean), so a cell reports where its runs sit, not their mean.
fn median_iqr(xs: &[f64]) -> (f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let h = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

fn main() {
    let opts = parse_options();
    let (train, test) = RegressionSpec::new(4000, 20)
        .with_seed(opts.seed)
        .generate()
        .split(0.8, opts.seed);
    let lambda = 1e-3;
    let delta = 1e-5;
    println!(
        "=== Extension: DP ridge regression ({} train / {} test, d = 20, lambda = {lambda}) ===",
        train.len(),
        test.len()
    );
    let floor = test.mse(&NonPrivateRidge::new(lambda).fit(&train));
    println!("non-private MSE floor: {floor:.5}\n");
    println!("test MSE per cell: median [interquartile range] over the runs");
    println!(
        "{:>8} {:>22} {:>22} {:>22} {:>22}",
        "eps", "central Gaussian", "SQM g=2^8", "SQM g=2^13", "local-DP"
    );
    let runs = opts.runs.max(3) as u64;
    for eps in [0.25f64, 0.5, 1.0, 2.0, 4.0, 8.0] {
        // Each mechanism draws from its own stream per (eps, run), so a
        // change to one mechanism leaves the others' columns unmoved.
        let cell = |mechanism: &str, fit: &dyn Fn(&mut StdRng) -> Vec<f64>| {
            let errs: Vec<f64> = (0..runs)
                .map(|run| test.mse(&fit(&mut cell_rng(opts.seed, mechanism, eps, run, "ridge"))))
                .collect();
            let (median, iqr) = median_iqr(&errs);
            format!("{median:>12.4} [{iqr:>7.4}]")
        };
        println!(
            "{eps:>8.2} {:>22} {:>22} {:>22} {:>22}",
            cell("central", &|r| GaussianRidge::new(lambda, eps, delta)
                .fit(r, &train)),
            cell("sqm-2^8", &|r| SqmRidge::new(lambda, 256.0, eps, delta)
                .fit(r, &train)),
            cell("sqm-2^13", &|r| SqmRidge::new(lambda, 8192.0, eps, delta)
                .fit(r, &train)),
            cell("local-dp", &|r| LocalDpRidge::new(lambda, eps, delta)
                .fit(r, &train)),
        );
    }
    println!("\n(MSE, lower is better: SQM tracks the central mechanism and local-DP trails.)");
    obsout::dump_metrics("ext_ridge").expect("writing results/");
}

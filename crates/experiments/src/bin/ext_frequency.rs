//! Extension experiment: DP frequency estimation — single-attribute
//! histograms (degree-1) and cross-party contingency tables (degree-2) —
//! the multiparty frequency-estimation workload inside SQM's polynomial
//! class.
//!
//! `cargo run -p sqm-experiments --release --bin ext_frequency [--runs N]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqm::tasks::histogram::{
    exact_contingency, l1_error, tv_distance, Categorical, GaussianHistogram, SqmContingency,
    SqmHistogram,
};
use sqm_experiments::{cell_rng, fmt_pm, mean_std, obsout, parse_options};

fn skewed(m: usize, k: usize, seed: u64) -> Categorical {
    let mut rng = StdRng::seed_from_u64(seed);
    Categorical::new(
        (0..m)
            .map(|_| {
                let u: f64 = rng.gen();
                ((u * u) * k as f64) as usize % k
            })
            .collect(),
        k,
    )
}

fn main() {
    let opts = parse_options();
    let m = 20_000;
    let k = 16;
    let data = skewed(m, k, opts.seed);
    let truth = data.exact_counts();
    println!("=== Extension: DP frequency estimation (m = {m}, k = {k} categories) ===\n");
    println!("-- single-attribute histogram: L1 error (counts) --");
    println!(
        "{:>8} {:>22} {:>22} {:>14}",
        "eps", "SQM (gamma=2^13)", "central Gaussian", "SQM TV dist"
    );
    let runs = opts.runs.max(3) as u64;
    for eps in [0.25f64, 1.0, 4.0] {
        // Each mechanism draws from its own stream per (eps, run), so a
        // change to one mechanism leaves the other's column unmoved.
        let rng = |mechanism: &str, run: u64| cell_rng(opts.seed, mechanism, eps, run, "histogram");
        let sqm: Vec<Vec<f64>> = (0..runs)
            .map(|run| SqmHistogram::new(8192.0, eps, 1e-5).estimate(&mut rng("sqm", run), &data))
            .collect();
        let central: Vec<f64> = (0..runs)
            .map(|run| {
                let est =
                    GaussianHistogram::new(eps, 1e-5).estimate(&mut rng("central", run), &data);
                l1_error(&est, &truth)
            })
            .collect();
        let l1: Vec<f64> = sqm.iter().map(|est| l1_error(est, &truth)).collect();
        let tv = sqm.iter().map(|est| tv_distance(est, &truth)).sum::<f64>() / runs as f64;
        let (sm, ss) = mean_std(&l1);
        let (cm, cs) = mean_std(&central);
        println!(
            "{eps:>8.2} {:>22} {:>22} {tv:>14.5}",
            fmt_pm(sm, ss),
            fmt_pm(cm, cs)
        );
    }

    println!("\n-- cross-party contingency table (4 x 5 categories) --");
    let a = skewed(m, 4, opts.seed ^ 1);
    let b = skewed(m, 5, opts.seed ^ 2);
    let t_truth = exact_contingency(&a, &b);
    println!("{:>8} {:>24}", "eps", "rel. Frobenius error");
    for eps in [1.0f64, 4.0, 16.0] {
        let errs: Vec<f64> = (0..runs)
            .map(|run| {
                let mut rng = cell_rng(opts.seed, "sqm", eps, run, "contingency");
                let est = SqmContingency::new(8192.0, eps, 1e-5).estimate(&mut rng, &a, &b);
                est.sub(&t_truth).frobenius_norm() / t_truth.frobenius_norm()
            })
            .collect();
        let (em, es) = mean_std(&errs);
        println!("{eps:>8.2} {:>24}", fmt_pm(em, es));
    }
    println!("\nBoth organizations learn the joint table; neither learns the other's column.");
    obsout::dump_metrics("ext_frequency").expect("writing results/");
}

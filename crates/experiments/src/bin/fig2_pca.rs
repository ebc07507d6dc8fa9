//! Figure 2: PCA utility `||X V||_F^2` versus epsilon (and versus the
//! number of top components), for central DP, SQM at several gamma, and the
//! local-DP VFL baseline, on all four dataset shapes.
//!
//! `cargo run -p sqm-experiments --release --bin fig2_pca [--paper] [--runs N]`

use rand::rngs::StdRng;
use sqm::linalg::Matrix;
use sqm::tasks::pca::{pca_utility, AnalyzeGaussPca, LocalDpPca, NonPrivatePca, SqmPca};
use sqm_experiments::{cell_rng, fmt_pm, mean_std, obsout, parse_options};

struct DatasetCase {
    name: &'static str,
    data: Matrix,
    eps_grid: Vec<f64>,
    gammas_log2: Vec<i32>,
    k: usize,
}

fn main() {
    let opts = parse_options();
    let delta = 1e-5;
    println!(
        "=== Figure 2: DP PCA utility (delta = {delta}, {} runs) ===",
        opts.runs
    );

    let cases = vec![
        DatasetCase {
            name: "KDDCUP",
            data: sqm::datasets::kddcup_like(opts.scale, opts.seed),
            eps_grid: vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
            gammas_log2: vec![6, 10, 14],
            k: 10,
        },
        DatasetCase {
            name: "ACSIncome(CA)",
            data: sqm::datasets::acsincome_like(0, opts.scale, opts.seed),
            eps_grid: vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
            gammas_log2: vec![6, 10, 14],
            k: 10,
        },
        DatasetCase {
            name: "CiteSeer",
            data: sqm::datasets::citeseer_like(opts.scale, opts.seed),
            eps_grid: vec![4.0, 8.0, 16.0, 32.0],
            gammas_log2: vec![8, 12, 16],
            k: 10,
        },
        DatasetCase {
            name: "Gene",
            data: sqm::datasets::gene_like(opts.scale, opts.seed),
            eps_grid: vec![4.0, 8.0, 16.0, 32.0],
            gammas_log2: vec![8, 14, 18],
            k: 10,
        },
    ];

    for case in cases {
        let (m, n) = (case.data.rows(), case.data.cols());
        let k = case.k.min(n);
        println!("\n--- {} (m = {m}, n = {n}, top-{k}) ---", case.name);
        let ceiling = pca_utility(&case.data, &NonPrivatePca::new(k).fit(&case.data));
        println!("non-private ceiling: {ceiling:.2}");

        // Header.
        let mut cols = vec!["eps".to_string(), "central".to_string()];
        for g in &case.gammas_log2 {
            cols.push(format!("SQM g=2^{g}"));
        }
        cols.push("local-DP".to_string());
        println!(
            "{}",
            cols.iter()
                .map(|c| format!("{c:>22}"))
                .collect::<Vec<_>>()
                .join("")
        );

        // Each mechanism draws from its own stream per (eps, run), so the
        // columns are common random numbers: a change to one mechanism
        // leaves the others' figures unmoved.
        let utility = |mechanism: &str, eps: f64, run: u64, fit: &dyn Fn(&mut StdRng) -> Matrix| {
            let mut rng = cell_rng(opts.seed, mechanism, eps, run, case.name);
            pca_utility(&case.data, &fit(&mut rng))
        };
        let cell = |mechanism: &str, eps: f64, fit: &dyn Fn(&mut StdRng) -> Matrix| {
            let vals: Vec<f64> = (0..opts.runs as u64)
                .map(|run| utility(mechanism, eps, run, fit))
                .collect();
            let (mean, std) = mean_std(&vals);
            format!("{:>22}", fmt_pm(mean, std))
        };
        for &eps in &case.eps_grid {
            let mut row = vec![format!("{eps:>22.2}")];
            row.push(cell("central", eps, &|rng| {
                AnalyzeGaussPca::new(k, eps, delta).fit(rng, &case.data)
            }));
            for &g in &case.gammas_log2 {
                let gamma = 2f64.powi(g);
                row.push(cell(&format!("sqm-2^{g}"), eps, &|rng| {
                    SqmPca::new(k, gamma, eps, delta).fit(rng, &case.data)
                }));
            }
            row.push(cell("local-dp", eps, &|rng| {
                LocalDpPca::new(k, eps, delta).fit(rng, &case.data)
            }));
            println!("{}", row.join(""));
        }

        // Secondary sweep: utility vs number of components at mid epsilon,
        // the component count standing in for the run index.
        let eps = case.eps_grid[case.eps_grid.len() / 2];
        let gamma = 2f64.powi(*case.gammas_log2.last().unwrap());
        println!("  -- utility vs top-k at eps = {eps}, gamma = {gamma} --");
        println!(
            "{:>8} {:>14} {:>14} {:>14}",
            "k", "central", "SQM", "local-DP"
        );
        for k2 in [2usize, 5, 10, 20] {
            let k2 = k2.min(n);
            let at_k = k2 as u64;
            let c = utility("top-k central", eps, at_k, &|rng| {
                AnalyzeGaussPca::new(k2, eps, delta).fit(rng, &case.data)
            });
            let s = utility("top-k sqm", eps, at_k, &|rng| {
                SqmPca::new(k2, gamma, eps, delta).fit(rng, &case.data)
            });
            let l = utility("top-k local-dp", eps, at_k, &|rng| {
                LocalDpPca::new(k2, eps, delta).fit(rng, &case.data)
            });
            println!("{k2:>8} {c:>14.2} {s:>14.2} {l:>14.2}");
        }
    }
    obsout::dump_metrics("fig2_pca").expect("writing results/");
}

//! Table II: overall simulated time and DP-noise time for PCA and LR as the
//! data dimension n grows (m = 1000, P = 4, gamma = 18, 0.1 s/hop).
//!
//! The n = 2500 row is gated behind `--full` (minutes of local compute).
//! With `--trace` (or `SQM_TRACE=1`) every cell additionally writes its MPC
//! stats JSON, a trace JSONL and a Chrome trace-event file into `results/`,
//! and prints a per-phase summary whose total reproduces the virtual clock.
//!
//! `cargo run -p sqm-experiments --release --bin table2_dim_scaling [--full] [--trace]`

use sqm_experiments::{obsout, parse_options, timing};

fn main() {
    let opts = parse_options();
    let m = 1000;
    let p = 4;
    let mut dims = vec![20usize, 100, 500];
    if opts.full {
        dims.push(2500);
    }

    println!("=== Table II: time vs data dimension (m = {m}, P = {p}, gamma = 18) ===");
    println!("--- PCA ---");
    println!(
        "{:>8} {:>16} {:>20} {:>10} {:>12}",
        "n", "overall (s)", "DP noise (s)", "rounds", "traffic MiB"
    );
    for &n in &dims {
        let t = timing::time_pca(m, n, p, opts.seed, opts.trace);
        println!(
            "{n:>8} {:>16.2} {:>20.2} {:>10} {:>12.2}",
            t.overall.as_secs_f64(),
            t.dp_noise.as_secs_f64(),
            t.rounds,
            t.megabytes
        );
        obsout::dump_run(&format!("table2_pca_n{n}"), &t.stats, t.trace.as_ref())
            .expect("writing results/");
    }
    println!("--- LR ---");
    println!(
        "{:>8} {:>16} {:>20} {:>10} {:>12}",
        "n", "overall (s)", "DP noise (s)", "rounds", "traffic MiB"
    );
    for &n in &dims {
        let t = timing::time_lr(m, n, p, opts.seed, opts.trace);
        println!(
            "{n:>8} {:>16.2} {:>20.2} {:>10} {:>12.2}",
            t.overall.as_secs_f64(),
            t.dp_noise.as_secs_f64(),
            t.rounds,
            t.megabytes
        );
        obsout::dump_run(&format!("table2_lr_n{n}"), &t.stats, t.trace.as_ref())
            .expect("writing results/");
    }
    obsout::dump_metrics("table2_dim_scaling").expect("writing results/");
    println!("\nThe DP-noise phase owns no round and no traffic (the draws are never\nshared; they enter round 2's masked sum): its cost is local sampling,\nnegligible next to the covariance/gradient computation as n grows (the\npaper's conclusion).");
}

//! Table V: overall simulated time and DP-noise time for PCA and LR as the
//! number of clients P grows (m = n = 500, gamma = 18, 0.1 s/hop).
//!
//! With `--trace` (or `SQM_TRACE=1`) each cell also writes stats/trace
//! artifacts into `results/` (see EXPERIMENTS.md, "Observability").
//!
//! `cargo run -p sqm-experiments --release --bin table5_client_scaling [--trace]`

use sqm_experiments::{obsout, parse_options, timing};

fn main() {
    let opts = parse_options();
    let (m, n) = (500usize, 500usize);
    let ps = [4usize, 10, 20];

    println!("=== Table V: time vs client count (m = {m}, n = {n}, gamma = 18) ===");
    for (task, f) in [
        (
            "PCA",
            timing::time_pca as fn(usize, usize, usize, u64, bool) -> timing::Timing,
        ),
        ("LR", timing::time_lr),
    ] {
        println!("--- {task} ---");
        println!(
            "{:>8} {:>16} {:>20} {:>10} {:>12}",
            "P", "overall (s)", "DP noise (s)", "rounds", "traffic MiB"
        );
        for &p in &ps {
            let t = f(m, n, p, opts.seed, opts.trace);
            println!(
                "{p:>8} {:>16.2} {:>20.2} {:>10} {:>12.2}",
                t.overall.as_secs_f64(),
                t.dp_noise.as_secs_f64(),
                t.rounds,
                t.megabytes
            );
            let name = format!("table5_{}_p{p}", task.to_lowercase());
            obsout::dump_run(&name, &t.stats, t.trace.as_ref()).expect("writing results/");
        }
    }
    obsout::dump_metrics("table5_client_scaling").expect("writing results/");
    println!("\nTraffic grows with P (each input goes to P - 1 peers, round 2 is P - 1\nvectors) and per-party mask streams grow with P, but the DP phase is\nlocal sampling, adds no round, and the release stays at two — matching\nTable V's trend.");
}

//! Table IV: overall simulated time and DP-noise time for PCA and LR as the
//! record count m grows (n = 500, P = 4, gamma = 18, 0.1 s/hop).
//!
//! With `--trace` (or `SQM_TRACE=1`) each cell also writes stats/trace
//! artifacts into `results/` (see EXPERIMENTS.md, "Observability").
//!
//! `cargo run -p sqm-experiments --release --bin table4_record_scaling [--trace]`

use sqm_experiments::{obsout, parse_options, timing};

fn main() {
    let opts = parse_options();
    let n = 500;
    let p = 4;
    let ms = [20usize, 100, 500, 2500];

    println!("=== Table IV: time vs record count (n = {n}, P = {p}, gamma = 18) ===");
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
            "m", "overall (s)", "DP noise (s)", "rounds", "traffic MiB"
        );
        for &m in &ms {
            let t = f(m, n, p, opts.seed, opts.trace);
            println!(
                "{m:>8} {:>16.2} {:>20.2} {:>10} {:>12.2}",
                t.overall.as_secs_f64(),
                t.dp_noise.as_secs_f64(),
                t.rounds,
                t.megabytes
            );
            let name = format!("table4_{}_m{m}", task.to_lowercase());
            obsout::dump_run(&name, &t.stats, t.trace.as_ref()).expect("writing results/");
        }
    }
    obsout::dump_metrics("table4_record_scaling").expect("writing results/");
    println!("\nDP-noise time (local sampling only, no round) is independent of\nm: the noise matrix/vector size depends only on n, while input sharing\nand local compute grow with m.");
}

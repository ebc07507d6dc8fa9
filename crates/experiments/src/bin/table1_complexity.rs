//! Table I: complexity of SQM for PCA and LR under BGW — the analytic
//! formulas, validated against measured communication/round scaling of this
//! implementation.
//!
//! `cargo run -p sqm-experiments --release --bin table1_complexity`

use sqm_experiments::{obsout, parse_options, timing};

fn main() {
    let opts = parse_options();
    println!("=== Table I: SQM complexity under BGW (m records, n attributes, P clients) ===\n");
    println!("Paper's asymptotics:");
    println!("  PCA  computation/client O(mP + n^2 m log m / P + n^2), communication O(n^2 m P log gamma), time O(n^2 m log m)");
    println!("  LR   computation/client O(m(n-1)P + m(n-1) log m / P),  communication O(m(n-1) P log m log gamma), time O(m(n-1) log m)");
    println!();
    println!("This implementation sums the record products at share level (degree 2t)");
    println!("and sends each party's masked partial sum to one receiver, so non-data");
    println!("communication is O(n^2 P) for PCA and O(n P) for LR, independent of m;");
    println!("input sharing remains O(m n P). Every release is two rounds.");
    println!("Measured validation:\n");

    // Communication scaling in n (PCA): double n => ~4x non-input bytes.
    let a = timing::time_pca(50, 16, 4, opts.seed, opts.trace);
    let b = timing::time_pca(50, 32, 4, opts.seed, opts.trace);
    let (round2_a, round2_b) = (a.stats.phases["open"].bytes, b.stats.phases["open"].bytes);
    println!(
        "PCA round-2 traffic n=16 -> n=32 (m fixed): {round2_a} B -> {round2_b} B  (x{:.2}, expect ~4 for the n^2 term)",
        round2_b as f64 / round2_a as f64
    );

    // Communication scaling in m (PCA input sharing).
    let c = timing::time_pca(100, 16, 4, opts.seed, opts.trace);
    let d = timing::time_pca(200, 16, 4, opts.seed, opts.trace);
    println!(
        "PCA traffic m=100 -> m=200 (n fixed): {:.3} MiB -> {:.3} MiB  (input sharing grows linearly in m)",
        c.megabytes, d.megabytes
    );

    // Communication scaling in P.
    let e = timing::time_pca(50, 16, 2, opts.seed, opts.trace);
    let f = timing::time_pca(50, 16, 4, opts.seed, opts.trace);
    println!(
        "PCA traffic P=2 -> P=4 (m, n fixed): {:.3} MiB -> {:.3} MiB  (x{:.2}, expect ~(P-1) growth: x3)",
        e.megabytes,
        f.megabytes,
        f.megabytes / e.megabytes
    );

    // LR: traffic linear in n.
    let g = timing::time_lr(50, 17, 4, opts.seed, opts.trace);
    let h = timing::time_lr(50, 33, 4, opts.seed, opts.trace);
    println!(
        "LR  traffic n=17 -> n=33 (m fixed): {:.3} MiB -> {:.3} MiB  (x{:.2}, expect ~2 for the linear term)",
        g.megabytes,
        h.megabytes,
        h.megabytes / g.megabytes
    );

    // Round counts are constant (the synchronous batching).
    println!(
        "\nround counts: PCA = {}, LR = {} — constant in m, n and P.",
        a.rounds, g.rounds
    );
    obsout::dump_metrics("table1_complexity").expect("writing results/");
}

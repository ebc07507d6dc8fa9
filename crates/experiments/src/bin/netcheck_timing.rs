//! Real-network validation of the simulated timing tables.
//!
//! The paper's Tables II/IV/V report *simulated* times: all parties run on
//! one machine and every message hop is charged a uniform latency
//! (0.1 s/hop). This binary checks that model against an actual network
//! stack by running the same Table II workloads (PCA covariance and one LR
//! gradient pass; default m = 100, n = 20, P = 4) twice:
//!
//! 1. **in-process** — the channel mesh, reporting the virtual-clock
//!    prediction `wall + rounds * 0.1 s`;
//! 2. **loopback TCP** — real sockets, real syscalls, real framing,
//!    reporting measured wall-clock (loopback latency is microseconds, so
//!    the per-hop charge is effectively zero).
//!
//! The run asserts the two backends open *identical* results and move the
//! same number of protocol messages/bytes, then writes the comparison to
//! `results/netcheck_timing.csv`. The interesting column is the gap: the
//! simulated number is `rounds * 0.1 s` plus compute, while loopback TCP
//! shows what the same protocol costs when the medium is nearly free —
//! bounding the part of the paper's timing that is *model*, not compute.
//!
//! `cargo run -p sqm-experiments --release --bin netcheck_timing [--paper] [--seed S]`

use std::time::{Duration, Instant};

use sqm::datasets::{Scale, SpectralSpec};
use sqm::vfl::covariance::covariance_skellam;
use sqm::vfl::gradient::gradient_sum_skellam;
use sqm::vfl::{ColumnPartition, NetBackend, VflConfig};
use sqm_experiments::{obsout, parse_options};

const HOP_LATENCY: Duration = Duration::from_millis(100);
const GAMMA: f64 = 18.0;
const MU: f64 = 100.0;

struct Row {
    workload: &'static str,
    rounds: u64,
    messages: u64,
    bytes: u64,
    simulated_s: f64,
    measured_tcp_s: f64,
}

fn cfg(p: usize, seed: u64) -> VflConfig {
    VflConfig::new(p)
        .with_latency(HOP_LATENCY)
        .with_seed(seed)
        .with_live(sqm_experiments::live_handle())
}

fn run_pca(m: usize, n: usize, p: usize, seed: u64) -> Row {
    let data = SpectralSpec::new(m, n).with_seed(seed).generate();
    let partition = ColumnPartition::even(n, p);

    let sim = covariance_skellam(&data, &partition, GAMMA, MU, &cfg(p, seed));
    let started = Instant::now();
    let tcp = covariance_skellam(
        &data,
        &partition,
        GAMMA,
        MU,
        &cfg(p, seed).with_backend(NetBackend::tcp()),
    );
    let measured = started.elapsed();

    assert_eq!(sim.c_hat, tcp.c_hat, "backends disagree on the covariance");
    assert_eq!(sim.stats.total.messages, tcp.stats.total.messages);
    assert_eq!(sim.stats.total.bytes, tcp.stats.total.bytes);

    Row {
        workload: "pca_covariance",
        rounds: sim.stats.total.rounds,
        messages: sim.stats.total.messages,
        bytes: sim.stats.total.bytes,
        simulated_s: sim.stats.simulated_time().as_secs_f64(),
        measured_tcp_s: measured.as_secs_f64(),
    }
}

fn run_lr(m: usize, n: usize, p: usize, seed: u64) -> Row {
    let data = SpectralSpec::new(m, n).with_seed(seed).generate();
    let partition = ColumnPartition::even(n, p);
    let batch: Vec<usize> = (0..m).collect();
    let w = vec![0.01; n - 1];

    let sim = gradient_sum_skellam(&data, &partition, &batch, &w, GAMMA, MU, &cfg(p, seed));
    let started = Instant::now();
    let tcp = gradient_sum_skellam(
        &data,
        &partition,
        &batch,
        &w,
        GAMMA,
        MU,
        &cfg(p, seed).with_backend(NetBackend::tcp()),
    );
    let measured = started.elapsed();

    assert_eq!(
        sim.grad_sum, tcp.grad_sum,
        "backends disagree on the gradient"
    );
    assert_eq!(sim.stats.total.messages, tcp.stats.total.messages);
    assert_eq!(sim.stats.total.bytes, tcp.stats.total.bytes);

    Row {
        workload: "lr_gradient",
        rounds: sim.stats.total.rounds,
        messages: sim.stats.total.messages,
        bytes: sim.stats.total.bytes,
        simulated_s: sim.stats.simulated_time().as_secs_f64(),
        measured_tcp_s: measured.as_secs_f64(),
    }
}

fn main() {
    let opts = parse_options();
    // This binary exists to compare transports, so always record metrics:
    // the TCP backend fills per-link send/recv latency histograms
    // (`net.tcp.{send,recv}_ns.*`) that contextualize the CSV's wall-clock
    // column, dumped as a snapshot next to it.
    sqm::obs::metrics::set_enabled(true);
    let (m, n, p) = match opts.scale {
        Scale::Laptop => (100, 20, 4),
        Scale::Paper => (1000, 100, 4),
    };

    println!("=== Real-network validation (m = {m}, n = {n}, P = {p}) ===");
    println!(
        "simulated = in-process virtual clock at {:?}/hop; measured = loopback TCP wall-clock",
        HOP_LATENCY
    );
    println!(
        "{:>16} {:>8} {:>10} {:>12} {:>14} {:>14} {:>10}",
        "workload", "rounds", "messages", "bytes", "simulated (s)", "tcp wall (s)", "model/tcp"
    );

    let rows = vec![run_pca(m, n, p, opts.seed), run_lr(m, n, p, opts.seed)];
    let mut csv = String::from("workload,rounds,messages,bytes,simulated_s,measured_tcp_s\n");
    for r in &rows {
        println!(
            "{:>16} {:>8} {:>10} {:>12} {:>14.3} {:>14.3} {:>9.1}x",
            r.workload,
            r.rounds,
            r.messages,
            r.bytes,
            r.simulated_s,
            r.measured_tcp_s,
            r.simulated_s / r.measured_tcp_s.max(1e-9),
        );
        csv.push_str(&format!(
            "{},{},{},{},{:.6},{:.6}\n",
            r.workload, r.rounds, r.messages, r.bytes, r.simulated_s, r.measured_tcp_s
        ));
    }

    let path = obsout::results_dir().join("netcheck_timing.csv");
    sqm::obs::atomic_write_str(&path, &csv).expect("writing results/netcheck_timing.csv");
    println!("\nwrote {}", path.display());
    obsout::dump_metrics("netcheck_timing").expect("writing metrics snapshot");
    println!(
        "Outputs and traffic were asserted identical across backends; the timing gap is\n\
         the uniform-latency charge ({:?} x rounds) the paper's tables are built on.",
        HOP_LATENCY
    );
}

//! Measured-critical-path vs. uniform-latency-model divergence.
//!
//! The paper's timing tables charge every protocol round a uniform
//! `0.1 s` hop — i.e. they model the critical path as `rounds * latency`,
//! with compute free. This binary measures the *actual* critical path of
//! the same Table II workloads (PCA covariance and one LR gradient pass;
//! default m = 100, n = 20, P = 4) from the causal message DAG: every
//! send/recv is stamped (run id, party, round, link seq, Lamport clock),
//! the cross-party flow graph is reconstructed, and the latency-weighted
//! critical path is walked — on both the in-process mesh and loopback TCP.
//!
//! The divergence column is `(measured - model) / model`: exactly the
//! share of the end-to-end critical path that the uniform-latency model
//! does not account for (compute, stragglers, and — on TCP — real socket
//! time). On the in-process backend the run asserts the measured critical
//! path reproduces `RunStats::simulated_time()` bit-exactly before
//! writing anything.
//!
//! Output: `results/cpath_divergence.csv`, deterministic under a fixed
//! `--seed`: the protocol-derived columns (`rounds`, `messages`,
//! `flow_edges`, `model_critical_s`) are exact, and the measured columns
//! fold in wall-clock compute so they are written at a precision coarse
//! enough to be stable across repeated runs on the same machine class.
//! The stdout table additionally shows finer-grained, run-specific
//! detail (cross-party hops on the walked path, sub-percent divergence)
//! that deliberately stays out of the CSV.
//!
//! `cargo run -p sqm-experiments --release --bin sqm_cpath [--paper] [--seed S]`

use std::time::Duration;

use sqm::datasets::{Scale, SpectralSpec};
use sqm::mpc::RunStats;
use sqm::obs::trace::Trace;
use sqm::obs::MessageDag;
use sqm::vfl::covariance::covariance_skellam;
use sqm::vfl::gradient::gradient_sum_skellam;
use sqm::vfl::{ColumnPartition, NetBackend, VflConfig};
use sqm_experiments::{obsout, parse_options};

const HOP_LATENCY: Duration = Duration::from_millis(100);
const GAMMA: f64 = 18.0;
const MU: f64 = 100.0;

struct Row {
    workload: &'static str,
    backend: &'static str,
    parties: usize,
    rounds: u64,
    messages: u64,
    flow_edges: usize,
    cross_hops: u64,
    model_critical_s: f64,
    measured_critical_s: f64,
}

impl Row {
    fn divergence_pct(&self) -> f64 {
        (self.measured_critical_s - self.model_critical_s) / self.model_critical_s * 100.0
    }
}

fn cfg(p: usize, seed: u64, backend: &NetBackend) -> VflConfig {
    VflConfig::new(p)
        .with_latency(HOP_LATENCY)
        .with_seed(seed)
        .with_trace(true)
        .with_backend(backend.clone())
        .with_live(sqm_experiments::live_handle())
}

fn analyze(
    workload: &'static str,
    backend_name: &'static str,
    p: usize,
    stats: &RunStats,
    trace: &Trace,
) -> Row {
    let dag = MessageDag::build(trace);
    assert!(
        dag.fully_matched(),
        "{workload}/{backend_name}: every stamped send must match one recv"
    );
    assert_eq!(
        dag.lamport_violations(),
        0,
        "{workload}/{backend_name}: Lamport clocks must be monotone"
    );
    let cp = dag.critical_path();
    // The virtual clock IS the critical path; the reconstruction must
    // reproduce it exactly (same Instant measurements, same latency math).
    assert_eq!(
        cp.total,
        stats.simulated_time(),
        "{workload}/{backend_name}: causal critical path must equal the virtual clock"
    );
    Row {
        workload,
        backend: backend_name,
        parties: p,
        rounds: stats.total.rounds,
        messages: stats.total.messages,
        flow_edges: dag.edges().len(),
        cross_hops: cp.cross_hops,
        model_critical_s: (HOP_LATENCY * stats.total.rounds as u32).as_secs_f64(),
        measured_critical_s: cp.total.as_secs_f64(),
    }
}

fn run_pca(m: usize, n: usize, p: usize, seed: u64, backend: &NetBackend) -> Row {
    let name = backend_name(backend);
    let data = SpectralSpec::new(m, n).with_seed(seed).generate();
    let partition = ColumnPartition::even(n, p);
    let out = covariance_skellam(&data, &partition, GAMMA, MU, &cfg(p, seed, backend));
    let trace = out.trace.as_ref().expect("tracing enabled");
    analyze("pca_covariance", name, p, &out.stats, trace)
}

fn run_lr(m: usize, n: usize, p: usize, seed: u64, backend: &NetBackend) -> Row {
    let name = backend_name(backend);
    let data = SpectralSpec::new(m, n).with_seed(seed).generate();
    let partition = ColumnPartition::even(n, p);
    let batch: Vec<usize> = (0..m).collect();
    let w = vec![0.01; n - 1];
    let out = gradient_sum_skellam(
        &data,
        &partition,
        &batch,
        &w,
        GAMMA,
        MU,
        &cfg(p, seed, backend),
    );
    let trace = out.trace.as_ref().expect("tracing enabled");
    analyze("lr_gradient", name, p, &out.stats, trace)
}

fn backend_name(backend: &NetBackend) -> &'static str {
    match backend {
        NetBackend::InProcess => "in_process",
        NetBackend::Tcp(_) => "tcp",
    }
}

fn main() {
    let opts = parse_options();
    let (m, n, p) = match opts.scale {
        Scale::Laptop => (100, 20, 4),
        Scale::Paper => (1000, 100, 4),
    };

    println!("=== Critical-path divergence (m = {m}, n = {n}, P = {p}) ===");
    println!(
        "model = rounds x {HOP_LATENCY:?} (the paper's uniform-latency charge); \
         measured = critical path of the causal message DAG"
    );
    println!(
        "{:>16} {:>11} {:>8} {:>10} {:>11} {:>10} {:>10} {:>12} {:>11}",
        "workload",
        "backend",
        "rounds",
        "messages",
        "flow edges",
        "x-hops",
        "model (s)",
        "measured (s)",
        "diverge (%)"
    );

    let backends = [NetBackend::InProcess, NetBackend::tcp()];
    let mut rows = Vec::new();
    for backend in &backends {
        rows.push(run_pca(m, n, p, opts.seed, backend));
        rows.push(run_lr(m, n, p, opts.seed, backend));
    }

    let mut csv = String::from(
        "workload,backend,parties,rounds,messages,flow_edges,\
         model_critical_s,measured_critical_s,divergence_pct\n",
    );
    for r in &rows {
        println!(
            "{:>16} {:>11} {:>8} {:>10} {:>11} {:>10} {:>10.1} {:>12.2} {:>11.1}",
            r.workload,
            r.backend,
            r.rounds,
            r.messages,
            r.flow_edges,
            r.cross_hops,
            r.model_critical_s,
            r.measured_critical_s,
            r.divergence_pct(),
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{},{:.6},{:.1},{:.0}\n",
            r.workload,
            r.backend,
            r.parties,
            r.rounds,
            r.messages,
            r.flow_edges,
            r.model_critical_s,
            r.measured_critical_s,
            r.divergence_pct(),
        ));
    }

    let path = obsout::results_dir().join("cpath_divergence.csv");
    sqm::obs::atomic_write_str(&path, &csv).expect("writing results/cpath_divergence.csv");
    println!("\nwrote {}", path.display());
    println!(
        "Divergence is the critical-path share the uniform model leaves out: compute\n\
         and (on tcp) real socket time; the latency charge itself is identical."
    );
}

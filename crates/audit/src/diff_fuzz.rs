//! Differential backend fuzzing: one release, every execution path,
//! bit-identical or a typed error.
//!
//! The MPC party threads derive **all** their randomness from documented
//! per-party streams of `VflConfig::seed()`, which makes the secure
//! protocols exactly replayable in plaintext: each release's oracle
//! ([`sqm_vfl::covariance_quantized_oracle`], [`sqm_vfl::column_sums_oracle`],
//! [`sqm_vfl::gradient_sum_oracle`], [`sqm_vfl::eval_polynomial_oracle`])
//! predicts what it releases bit-for-bit. The fuzzer sweeps a seeded grid
//! of `(seed, P, m, n, gamma, mu)` workloads — covariance cases
//! alternating contiguous and interleaved column partitions, the shapes
//! whose own blocks and cross-owner rows differ — across the execution
//! axes —
//!
//! * **in-process channels** vs **loopback TCP** (`NetBackend`),
//! * fault-free vs **delay** / **drop-with-retransmit** / **crash**
//!   injection (`FaultSpec`),
//! * four protocol layers: the covariance release against its oracle,
//!   and the **column-sum** release (two rounds, no multiplication), an
//!   LR **gradient** step and a **generic** degree-2 polynomial (the GRR
//!   circuit evaluator) each against its oracle and against its own
//!   fault-free in-process run,
//!
//! and asserts the invariant from the network layer's design: faults
//! perturb *timing*, never *payloads*. Every completing run must equal
//! its reference exactly (integer outputs — no tolerance), every crashed
//! run must surface a typed [`TransportError`], and nothing may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use sqm_core::polynomial::{Monomial, Polynomial};
use sqm_linalg::Matrix;
use sqm_mpc::{FaultSpec, NetBackend};
use sqm_vfl::{
    column_sums_oracle, column_sums_skellam, covariance_quantized_oracle, eval_polynomial_oracle,
    eval_polynomial_skellam, gradient_sum_oracle, gradient_sum_skellam, try_covariance_skellam,
    ColumnPartition, VflConfig,
};

use crate::AuditConfig;

/// One fuzzed execution.
#[derive(Clone, Debug, Serialize)]
pub struct FuzzCase {
    pub id: u64,
    pub seed: u64,
    pub workload: String,
    pub n_clients: usize,
    /// `"even"` (contiguous blocks) or `"interleaved"` (column `j` to
    /// client `j mod P`).
    pub partition: String,
    pub records: usize,
    pub cols: usize,
    pub gamma: f64,
    pub mu: f64,
    /// `"in_process"` or `"tcp"`.
    pub backend: String,
    /// `"none"`, `"delay"`, `"drop"` or `"crash"`.
    pub fault: String,
    /// `"match"`, `"typed_error"`, `"divergence"` or `"panic"`.
    pub outcome: String,
    /// `TransportError::kind()` when a typed error surfaced.
    pub error_kind: Option<String>,
}

/// Aggregate fuzzing outcome.
#[derive(Clone, Debug, Serialize)]
pub struct FuzzSummary {
    pub cases: usize,
    pub matches: usize,
    pub typed_errors: usize,
    pub divergences: usize,
    pub panics: usize,
    pub results: Vec<FuzzCase>,
}

impl FuzzSummary {
    /// Every completing run matched the oracle, every crash surfaced as a
    /// typed error, and nothing panicked.
    pub fn passed(&self) -> bool {
        self.divergences == 0 && self.panics == 0
    }
}

fn random_data(rng: &mut StdRng, m: usize, n: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..m)
        .map(|_| (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect())
        .collect();
    Matrix::from_rows(&rows)
}

/// The column partition a case names.
fn partition(case: &FuzzCase) -> ColumnPartition {
    let (n, p) = (case.cols, case.n_clients);
    match case.partition.as_str() {
        "interleaved" => ColumnPartition::from_owners((0..n).map(|j| j % p).collect(), p),
        _ => ColumnPartition::even(n, p),
    }
}

/// Run one covariance case and classify its outcome.
fn run_covariance_case(case: &mut FuzzCase, data: &Matrix, cfg: &VflConfig) {
    let partition = partition(case);
    let oracle = covariance_quantized_oracle(data, &partition, case.gamma, case.mu, cfg);
    let crash_expected = case.fault == "crash";
    let result = catch_unwind(AssertUnwindSafe(|| {
        try_covariance_skellam(data, &partition, case.gamma, case.mu, cfg)
    }));
    match result {
        Err(_) => case.outcome = "panic".to_string(),
        Ok(Ok(out)) => {
            if crash_expected {
                // A crash at round 1 must never complete.
                case.outcome = "divergence".to_string();
            } else if out.c_hat == oracle {
                case.outcome = "match".to_string();
            } else {
                case.outcome = "divergence".to_string();
            }
        }
        Ok(Err(e)) => {
            case.error_kind = Some(e.kind().to_string());
            case.outcome = if crash_expected {
                "typed_error".to_string()
            } else {
                "divergence".to_string()
            };
        }
    }
}

/// What a `column_sums`, `gradient` or `generic` case releases under
/// `cfg`, or with `oracle` what its plaintext oracle predicts there.
fn release(case: &FuzzCase, data: &Matrix, cfg: &VflConfig, oracle: bool) -> Vec<f64> {
    let (partition, gamma, mu) = (partition(case), case.gamma, case.mu);
    match case.workload.as_str() {
        "column_sums" if oracle => column_sums_oracle(data, &partition, gamma, mu, cfg),
        "column_sums" => column_sums_skellam(data, &partition, gamma, mu, cfg).sums_hat,
        "gradient" => {
            // Every other record, at fixed weights; the last column is the
            // label.
            let batch: Vec<usize> = (0..case.records).step_by(2).collect();
            let w: Vec<f64> = (1..case.cols).map(|j| 0.1 * j as f64 - 0.2).collect();
            if oracle {
                gradient_sum_oracle(data, &partition, &batch, &w, gamma, mu, cfg)
            } else {
                gradient_sum_skellam(data, &partition, &batch, &w, gamma, mu, cfg).grad_sum
            }
        }
        _ => {
            // Sum over records of x0 * x1: input, one GRR layer, masked sum.
            let product = Monomial::new(1.0, vec![(0, 1), (1, 1)]);
            let poly = Polynomial::one_dimensional(case.cols, vec![product]);
            if oracle {
                eval_polynomial_oracle(&poly, data, &partition, gamma, mu, cfg)
            } else {
                eval_polynomial_skellam(&poly, data, &partition, gamma, mu, cfg).0
            }
        }
    }
}

/// Cross-path case: the release under the case's backend and faults must
/// equal, bit for bit, its oracle and the same seed's fault-free
/// in-process run.
fn run_cross_path_case(case: &mut FuzzCase, data: &Matrix, cfg: &VflConfig) {
    let clean = VflConfig::fast(case.n_clients).with_seed(case.seed);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let out = release(case, data, cfg, false);
        out == release(case, data, cfg, true) && out == release(case, data, &clean, false)
    }));
    case.outcome = match result {
        Err(_) => "panic".to_string(),
        Ok(true) => "match".to_string(),
        Ok(false) => "divergence".to_string(),
    };
}

/// Sweep the seeded configuration grid for the configured tier.
pub fn run_diff_fuzz(cfg: &AuditConfig) -> FuzzSummary {
    let n_cases = cfg.fuzz_cases();
    let mut gen = StdRng::seed_from_u64(cfg.seed ^ 0xF0_22_2E_11);
    let mut results = Vec::with_capacity(n_cases);

    for id in 0..n_cases as u64 {
        let n_clients = gen.gen_range(2usize..=4);
        let cols = n_clients + gen.gen_range(0usize..=2);
        let records = gen.gen_range(3usize..=6);
        let gamma = [16.0, 64.0, 256.0][gen.gen_range(0usize..3)];
        let mu = [0.0, 4.0, 100.0][gen.gen_range(0usize..3)];
        let seed = gen.gen::<u64>();
        let workload = match id % 7 {
            4 => "generic",
            5 => "column_sums",
            6 => "gradient",
            _ => "covariance",
        };
        // Covariance cases alternate partition shapes seven ids at a time, so
        // each shape meets both backends.
        let partition = if workload == "covariance" && id / 7 % 2 == 1 {
            "interleaved"
        } else {
            "even"
        };
        let (backend_name, backend) = if id % 2 == 1 {
            ("tcp", NetBackend::tcp())
        } else {
            ("in_process", NetBackend::InProcess)
        };
        // Only the covariance entry point is fallible, so only it takes
        // crashes; `id / 2` (covariance) and `id / 7` (the others) walk
        // every workload through every backend x fault pair.
        let fault = if workload == "covariance" {
            ["none", "delay", "drop", "crash"][(id / 2 % 4) as usize]
        } else {
            ["none", "delay", "drop"][(id / 7 % 3) as usize]
        };
        let faults = match fault {
            "delay" => Some(
                FaultSpec::seeded(seed ^ 0xFA)
                    .with_delay(Duration::ZERO, Duration::from_micros(500)),
            ),
            "drop" => Some(
                FaultSpec::seeded(seed ^ 0xFB)
                    .with_drop(0.25)
                    .with_retransmit(Duration::from_micros(200), 10),
            ),
            "crash" => {
                Some(FaultSpec::seeded(seed ^ 0xFC).with_crash((id % n_clients as u64) as usize, 1))
            }
            _ => None,
        };
        let vfl_cfg = VflConfig::fast(n_clients)
            .with_seed(seed)
            .with_backend(backend)
            .with_faults(faults);

        let mut case = FuzzCase {
            id,
            seed,
            workload: workload.to_string(),
            n_clients,
            partition: partition.to_string(),
            records,
            cols,
            gamma,
            mu,
            backend: backend_name.to_string(),
            fault: fault.to_string(),
            outcome: String::new(),
            error_kind: None,
        };
        let data = random_data(&mut gen, records, cols);
        match workload {
            "covariance" => run_covariance_case(&mut case, &data, &vfl_cfg),
            _ => run_cross_path_case(&mut case, &data, &vfl_cfg),
        }
        results.push(case);
    }

    let count = |outcome: &str| results.iter().filter(|c| c.outcome == outcome).count();
    FuzzSummary {
        cases: results.len(),
        matches: count("match"),
        typed_errors: count("typed_error"),
        divergences: count("divergence"),
        panics: count("panic"),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tier;

    /// The fast-tier sweep, run once and shared between tests (each case
    /// is a real MPC run; no need to pay for the sweep twice).
    fn small_sweep() -> &'static FuzzSummary {
        use std::sync::OnceLock;
        static SWEEP: OnceLock<FuzzSummary> = OnceLock::new();
        SWEEP.get_or_init(|| run_diff_fuzz(&AuditConfig::new(0xA0D1_7003, Tier::Fast)))
    }

    #[test]
    fn sweep_has_zero_divergences_and_panics() {
        let summary = small_sweep();
        assert!(summary.cases >= 50, "acceptance floor: >= 50 configs");
        let bad: Vec<&FuzzCase> = summary
            .results
            .iter()
            .filter(|c| c.outcome == "divergence" || c.outcome == "panic")
            .collect();
        assert!(bad.is_empty(), "divergent cases: {bad:?}");
        assert!(summary.passed());
        assert_eq!(
            summary.matches + summary.typed_errors,
            summary.cases,
            "every case must be accounted for"
        );
    }

    #[test]
    fn sweep_covers_every_axis() {
        let summary = small_sweep();
        let has = |f: &dyn Fn(&&FuzzCase) -> bool| summary.results.iter().any(|c| f(&c));
        assert!(has(&|c| c.backend == "tcp"));
        assert!(has(&|c| c.backend == "in_process"));
        for fault in ["none", "delay", "drop", "crash"] {
            assert!(has(&|c| c.fault == fault), "no {fault} case");
        }
        let faults = |workload| match workload {
            "covariance" => &["none", "delay", "drop", "crash"][..],
            _ => &["none", "delay", "drop"][..],
        };
        for workload in ["covariance", "column_sums", "gradient", "generic"] {
            for backend in ["in_process", "tcp"] {
                for &fault in faults(workload) {
                    let hit = has(&|c| {
                        c.workload == workload && c.backend == backend && c.fault == fault
                    });
                    assert!(hit, "no {workload} case on {backend} with fault {fault}");
                }
            }
        }
        // Covariance cases meet odd P (no spare evaluation point) and even P
        // (one party sits out each Gram row), in both partition shapes.
        for shape in ["even", "interleaved"] {
            for parity in [0, 1] {
                let hit = has(&|c| {
                    c.workload == "covariance"
                        && c.partition == shape
                        && c.n_clients % 2 == parity
                        && c.fault != "crash"
                });
                assert!(
                    hit,
                    "no completing {shape} covariance case at P mod 2 = {parity}"
                );
            }
        }
        // Every crash case surfaced the root-cause error.
        for c in summary.results.iter().filter(|c| c.fault == "crash") {
            assert_eq!(c.outcome, "typed_error", "{c:?}");
            assert_eq!(c.error_kind.as_deref(), Some("crashed"), "{c:?}");
        }
    }
}
